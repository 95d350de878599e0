"""Command line interface.

Subcommands: run (the pipeline, or with --mode one of its two baselines,
over a frame source; in process through pipeline.run_sequence, or on
workers through run_stream), serve (a worker process), eval (AP metrics
for a results file), gen-synthetic (test scenes with ground truth).

Every value a command reads has one source. The config file (see
frameio.read_run_config) names a run's inputs: the grid preset, the
ground truth, the frames or the raster-free frame size, and the cluster
of a run on workers. run's command line names only its mode and its
output, --results; the timing CSV is always <results stem>_timing.csv
beside it. serve's names its listen address. eval reads no config: it
scores exactly --detections against --gt, at metrics.AP_THRESHOLDS.
The active-crop policy (pipeline.ATTENTION_MARGIN_PX, TEMPORAL_WINDOW and
MIN_CONFIDENCE) and the oracle's thresholds (detector.VISIBILITY_THRESHOLD
and MIN_TILE_PX) are constants: no flag or key sets any of them. run
checks that the results directory exists before it reads a frame.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error
(a worker whose detector resolves crop ids against another crop catalog
than the run's counts as one).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from .distribution import (
    DetectorServer,
    StreamAborted,
    WorkerMismatch,
    parse_endpoint,
    run_stream,
)
from .frameio import (
    FrameDecodeError,
    FrameSource,
    RunConfig,
    frame_file_name,
    read_ground_truth,
    read_results,
    read_run_config,
    write_ground_truth,
    write_ppm,
    write_results,
    write_timing_csv,
)
from .metrics import AP_THRESHOLDS, ap_report, count_report
from .pipeline import (
    RUN_MODES,
    Frame,
    GridPlan,
    oracle_for_scene,
    run_sequence,
)
from .synthetic import SceneSpec, generate_scene, render_frame


class UsageError(Exception):
    """Bad flags, config, or input specs; exits with code 2."""


def _load_config(path: str) -> RunConfig:
    try:
        return read_run_config(path)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _open_frames(directory) -> FrameSource:
    """The run's frame source; a directory that holds no readable first
    frame is a configuration error."""
    try:
        return FrameSource.open(directory)
    except (FileNotFoundError, FrameDecodeError) as exc:
        raise UsageError(str(exc)) from exc


def _scene_inputs(config: RunConfig):
    """Ground truth, frame dimensions, and the frame iterable for a run
    (run) or a worker (serve)."""
    try:
        gt_by_frame = read_ground_truth(config.ground_truth_path)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    if config.frames_dir is not None:
        source = _open_frames(config.frames_dir)
        return gt_by_frame, source.width, source.height, source.frames()
    width, height = config.frame_width, config.frame_height
    frames = [Frame(fid, width, height) for fid in sorted(gt_by_frame)]
    return gt_by_frame, width, height, frames


def _print_run_summary(results, wall_s: float, mode: str) -> None:
    count = len(results)
    fps = count / wall_s if wall_s > 0 else 0.0
    print(f"mode={mode} frames={count} wall_s={wall_s:.3f} fps={fps:.2f}")
    if results:
        per_frame = [r.timing.total_ms for r in results]
        print(
            "per_frame_ms"
            f" min={min(per_frame):.1f}"
            f" mean={statistics.fmean(per_frame):.1f}"
            f" p50={statistics.median(per_frame):.1f}"
            f" max={max(per_frame):.1f}"
        )
        active = sum(r.active_count for r in results)
        total = sum(r.total_count for r in results)
        share = active / total if total else 0.0
        print(f"crops active={active} total={total} active_share={share:.3f}")


def cmd_run(args) -> int:
    config = _load_config(args.config)
    mode = args.mode
    settings = config.settings

    results_path = Path(args.results).resolve()
    timing_path = results_path.with_name(results_path.stem + "_timing.csv")
    if not results_path.parent.is_dir():
        raise UsageError(f"output directory not found: {results_path.parent}")

    gt_by_frame, width, height, frames = _scene_inputs(config)

    started = time.perf_counter()
    if config.cluster is not None:
        if mode != "pipeline":
            raise UsageError("baseline modes run locally; remove [cluster]")
        try:
            results = run_stream(frames, settings, config.cluster)
        except StreamAborted as exc:
            if isinstance(exc.__cause__, WorkerMismatch):
                raise UsageError(str(exc)) from exc
            raise
    else:
        oracle = oracle_for_scene(width, height, settings, gt_by_frame)
        plan = GridPlan.build(width, height, settings)
        results = list(run_sequence(frames, settings, oracle, plan=plan, mode=mode))
    wall_s = time.perf_counter() - started

    write_results(results, results_path)
    write_timing_csv(results, timing_path)
    _print_run_summary(results, wall_s, mode)
    print(f"results={results_path} timing={timing_path}")
    return 0


def cmd_serve(args) -> int:
    if not args.listen:
        raise UsageError("need --listen host:port")
    try:
        host, port = parse_endpoint(args.listen)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    config = _load_config(args.config)
    gt_by_frame, width, height, _ = _scene_inputs(config)
    oracle = oracle_for_scene(width, height, config.settings, gt_by_frame)

    server = DetectorServer(oracle, host, port)
    print(f"listening on {server.endpoint}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def cmd_eval(args) -> int:
    try:
        results = read_results(args.detections)
        gts_by_frame = read_ground_truth(args.gt)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    dets_by_frame = {r.frame_id: list(r.detections) for r in results}
    unevaluated = sorted(set(gts_by_frame) - set(dets_by_frame))
    if unevaluated:
        raise RuntimeError(
            f"ground truth has frames missing from results: {unevaluated}"
        )

    report = ap_report(dets_by_frame, gts_by_frame)
    report["counts"] = [
        list(row) for row in count_report(dets_by_frame, gts_by_frame)
    ]
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_gen_synthetic(args) -> int:
    try:
        spec = SceneSpec(
            kind=args.kind,
            width=args.width,
            height=args.height,
            frame_count=args.frame_count,
            seed=args.seed,
            object_count=args.object_count,
        )
    except ValueError as exc:
        raise UsageError(f"invalid scene spec: {exc}") from exc
    scene = generate_scene(spec)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_ground_truth(scene, out / "gt.jsonl")
    if not args.gt_only:
        for frame_id, objects in sorted(scene.items()):
            write_ppm(
                out / frame_file_name(frame_id),
                render_frame(spec.width, spec.height, objects),
            )
    objects_per_frame = len(next(iter(scene.values())))
    print(
        f"frames={spec.frame_count} size={spec.width}x{spec.height} "
        f"objects_per_frame={objects_per_frame} out={out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilepipe",
        description="Two-stage tiled object detection over frame streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="detect objects in the config's frames, writing --results"
    )
    run.add_argument(
        "--config", required=True, help="run config file: the run's inputs"
    )
    run.add_argument(
        "--mode", choices=RUN_MODES, default="pipeline", help="pipeline or a baseline"
    )
    run.add_argument(
        "--results",
        required=True,
        help="results JSON-lines output path; the timing CSV goes beside it"
        " as <stem>_timing.csv",
    )
    run.set_defaults(func=cmd_run)

    serve = sub.add_parser("serve", help="run a worker server")
    serve.add_argument("--config", required=True, help="run config file")
    serve.add_argument("--listen", help="host:port to bind")
    serve.set_defaults(func=cmd_serve)

    ev = sub.add_parser(
        "eval",
        help="AP of --detections against --gt at IoU "
        + ", ".join(map(str, AP_THRESHOLDS)),
    )
    ev.add_argument("--detections", required=True, help="results JSON-lines path")
    ev.add_argument("--gt", required=True, help="ground truth JSON-lines path")
    ev.set_defaults(func=cmd_eval)

    gen = sub.add_parser("gen-synthetic", help="generate a synthetic scene")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--kind", default="sparse", help="scene family")
    gen.add_argument("--width", type=int, default=1280)
    gen.add_argument("--height", type=int, default=720)
    gen.add_argument("--frame-count", dest="frame_count", type=int, default=8)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--object-count", dest="object_count", type=int)
    gen.add_argument(
        "--gt-only", action="store_true", help="skip rendering PPM frames"
    )
    gen.set_defaults(func=cmd_gen_synthetic)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # Stdout's reader went away (say, `| head -1`). Worker sockets'
        # errors surface as StreamAborted, not here. Point stdout at
        # devnull, so that the flush at interpreter exit prints nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if args.command in ("run", "eval", "gen-synthetic"):
            return 0  # these print only once their files are written
        print(f"error: {exc}", file=sys.stderr)  # serve never served
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
