"""Command line interface.

Subcommands: run (the pipeline, or with --mode one of its two baselines,
over a frame source; in process through pipeline.run_sequence, or on
workers through run_stream), serve (a worker process), eval (AP metrics
for a results file), gen-synthetic (test scenes with ground truth).

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error
(a worker whose detector takes tiles of another size counts as one).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
from .metrics import ap_key, ap_report, count_report
from .pipeline import (
    RUN_MODES,
    Frame,
    GridPlan,
    PipelineSettings,
    oracle_for_scene,
    run_sequence,
)
from .synthetic import SceneSpec, generate_scene, render_frame, scene_from_objects


class UsageError(Exception):
    """Bad flags, config, or input specs; exits with code 2."""


def _load_config(path: str) -> RunConfig:
    try:
        return read_run_config(path)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"{what} {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise UsageError(f"{what} {path}: expected a JSON object")
    return loaded


def _effective_settings(config: RunConfig, args) -> PipelineSettings:
    settings = config.settings
    try:
        if args.preset:
            settings = PipelineSettings.from_preset(
                args.preset,
                attention_margin_px=settings.attention_margin_px,
                temporal_window=settings.temporal_window,
                min_confidence=settings.min_confidence,
            )
        overrides = {}
        if args.attention_margin_px is not None:
            overrides["attention_margin_px"] = args.attention_margin_px
        if args.temporal_window is not None:
            overrides["temporal_window"] = args.temporal_window
        if args.min_confidence is not None:
            overrides["min_confidence"] = args.min_confidence
        if overrides:
            settings = dataclasses.replace(settings, **overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return settings


def _scene_inputs(config: RunConfig):
    """Ground truth, frame dimensions, and the frame iterable for a run."""
    try:
        gt_by_frame = read_ground_truth(config.ground_truth_path)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    if config.frames_dir is not None:
        source = FrameSource.open(config.frames_dir)
        if config.frame_width is not None and (
            config.frame_width != source.width
            or config.frame_height != source.height
        ):
            raise UsageError(
                f"config says {config.frame_width}x{config.frame_height} but "
                f"frames are {source.width}x{source.height}"
            )
        return gt_by_frame, source.width, source.height, source.frames()
    width, height = config.frame_width, config.frame_height
    frames = [Frame(fid, width, height) for fid in sorted(gt_by_frame)]
    return gt_by_frame, width, height, frames


def _oracle(config: RunConfig, settings, gt_by_frame, width, height, args):
    visibility = config.visibility_threshold
    min_tile = config.min_tile_px
    if args.visibility_threshold is not None:
        visibility = args.visibility_threshold
    if args.min_tile_px is not None:
        min_tile = args.min_tile_px
    try:
        return oracle_for_scene(
            width, height, settings, gt_by_frame, visibility, min_tile_px=min_tile
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


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
    settings = _effective_settings(config, args)
    gt_by_frame, width, height, frames = _scene_inputs(config)

    results_path = Path(args.results) if args.results else config.results_path
    if args.timing:
        timing_path = Path(args.timing)
    elif config.timing_path is not None:
        timing_path = config.timing_path
    else:
        timing_path = results_path.with_name(results_path.stem + "_timing.csv")

    started = time.perf_counter()
    if config.detector == "remote":
        if mode != "pipeline":
            raise UsageError("baseline modes run locally; use detector kind oracle")
        try:
            results = run_stream(frames, settings, config.cluster)
        except StreamAborted as exc:
            if isinstance(exc.__cause__, WorkerMismatch):
                raise UsageError(str(exc)) from exc
            raise
    else:
        oracle = _oracle(config, settings, gt_by_frame, width, height, args)
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
    kind, _, gt_override = args.detector.partition(":")
    if kind != "oracle":
        raise UsageError(f"unknown detector {args.detector!r}, expected oracle[:gt]")

    config = _load_config(args.config)
    settings = _effective_settings(config, args)
    gt_path = Path(gt_override) if gt_override else config.ground_truth_path
    try:
        gt_by_frame = read_ground_truth(gt_path)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    if config.frames_dir is not None:
        source = FrameSource.open(config.frames_dir)
        width, height = source.width, source.height
    else:
        width, height = config.frame_width, config.frame_height
    oracle = _oracle(config, settings, gt_by_frame, width, height, args)

    server = DetectorServer(oracle, host, port)
    print(f"listening on {server.endpoint}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _parse_thresholds(raw: str) -> list[float]:
    try:
        thresholds = sorted({float(part) for part in raw.split(",") if part.strip()})
    except ValueError as exc:
        raise UsageError(f"bad thresholds {raw!r}") from exc
    if not thresholds or any(not 0.0 < t < 1.0 for t in thresholds):
        raise UsageError("thresholds must be in (0, 1)")
    keys = [ap_key(t) for t in thresholds]
    if len(set(keys)) < len(keys):
        raise UsageError(f"thresholds {raw!r} share an ap_report key: {keys}")
    return thresholds


def cmd_eval(args) -> int:
    detections_path = args.detections
    gt_path = args.gt
    if args.config:
        config = _load_config(args.config)
        detections_path = detections_path or str(config.results_path)
        gt_path = gt_path or str(config.ground_truth_path)
    if not detections_path or not gt_path:
        raise UsageError("need --detections and --gt (or --config providing them)")
    thresholds = _parse_thresholds(args.thresholds)

    try:
        results = read_results(detections_path)
        gts_by_frame = read_ground_truth(gt_path)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    dets_by_frame = {r.frame_id: list(r.detections) for r in results}
    unevaluated = sorted(set(gts_by_frame) - set(dets_by_frame))
    if unevaluated:
        raise RuntimeError(
            f"ground truth has frames missing from results: {unevaluated}"
        )

    report = ap_report(dets_by_frame, gts_by_frame, thresholds)
    report["counts"] = [
        list(row) for row in count_report(dets_by_frame, gts_by_frame)
    ]
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_gen_synthetic(args) -> int:
    spec = _load_json(args.spec, "scene spec") if args.spec else {}
    for key in ("kind", "width", "height", "frame_count", "seed", "object_count"):
        value = getattr(args, key)
        if value is not None:
            spec[key] = value
    width = spec.get("width", 1280)
    height = spec.get("height", 720)
    frame_count = spec.get("frame_count", 8)
    try:
        if "objects" in spec:
            scene = scene_from_objects(width, height, frame_count, spec["objects"])
        else:
            scene = generate_scene(
                SceneSpec(
                    kind=spec.get("kind", "sparse"),
                    width=width,
                    height=height,
                    frame_count=frame_count,
                    seed=spec.get("seed", 0),
                    object_count=spec.get("object_count"),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid scene spec: {exc!r}") from exc

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_ground_truth(scene, out / "gt.jsonl")
    if not args.gt_only:
        for frame_id, objects in sorted(scene.items()):
            write_ppm(
                out / frame_file_name(frame_id),
                render_frame(width, height, objects),
            )
    objects_per_frame = len(next(iter(scene.values())))
    print(
        f"frames={frame_count} size={width}x{height} "
        f"objects_per_frame={objects_per_frame} out={out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilepipe",
        description="Two-stage tiled object detection over frame streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a frame sequence")
    run.add_argument("--config", required=True, help="run config file")
    run.add_argument(
        "--mode", choices=RUN_MODES, default="pipeline", help="pipeline or a baseline"
    )
    run.add_argument("--results", help="results JSON-lines output path")
    run.add_argument("--timing", help="timing CSV output path")
    _add_settings_flags(run)
    _add_oracle_flags(run)
    run.set_defaults(func=cmd_run)

    serve = sub.add_parser("serve", help="run a worker server")
    serve.add_argument("--config", required=True, help="run config file")
    serve.add_argument("--listen", help="host:port to bind")
    serve.add_argument(
        "--detector",
        default="oracle",
        help="oracle (default) or oracle:<gt path override>",
    )
    _add_settings_flags(serve)
    _add_oracle_flags(serve)
    serve.set_defaults(func=cmd_serve)

    ev = sub.add_parser("eval", help="score a results file against ground truth")
    ev.add_argument("--detections", help="results JSON-lines path")
    ev.add_argument("--gt", help="ground truth JSON-lines path")
    ev.add_argument("--config", help="run config supplying default paths")
    ev.add_argument(
        "--thresholds", default="0.25,0.5,0.75", help="comma-separated IoU thresholds"
    )
    ev.set_defaults(func=cmd_eval)

    gen = sub.add_parser("gen-synthetic", help="generate a synthetic scene")
    gen.add_argument("--spec", help="scene spec JSON path")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--kind", help="scene family")
    gen.add_argument("--width", type=int)
    gen.add_argument("--height", type=int)
    gen.add_argument("--frame-count", dest="frame_count", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--object-count", dest="object_count", type=int)
    gen.add_argument(
        "--gt-only", action="store_true", help="skip rendering PPM frames"
    )
    gen.set_defaults(func=cmd_gen_synthetic)
    return parser


def _add_settings_flags(sub) -> None:
    sub.add_argument("--preset", help='grid preset, e.g. "1 att, 3 fin, 20 over"')
    sub.add_argument("--attention-margin-px", dest="attention_margin_px", type=int)
    sub.add_argument("--temporal-window", dest="temporal_window", type=int)
    sub.add_argument("--min-confidence", dest="min_confidence", type=float)


def _add_oracle_flags(sub) -> None:
    sub.add_argument(
        "--visibility-threshold", dest="visibility_threshold", type=float
    )
    sub.add_argument("--min-tile-px", dest="min_tile_px", type=int)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
