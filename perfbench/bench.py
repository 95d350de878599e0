"""Runs one workload in a fresh measured process, checks every frame it
delivered, and prints the metrics: a table with units and sample counts,
then, as the last line, one JSON object with the end-to-end metrics (or,
with --trace 1, the per-layer metrics).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from tilepipe.detector import Detection
from tilepipe.frameio import read_ground_truth
from tilepipe.geometry import Rect
from tilepipe.metrics import average_precision

from perfbench import check, inputs
from perfbench.layers import METRICS
from perfbench.stats import percentile
from perfbench.workloads import DEFAULT_SEED, WORKLOADS

# With --seconds 40 a traced run takes about 100 s; generating inputs takes
# at most GENERATE_TIMEOUT_S on top, inside the 180 s a run may take.
MEASURE_TIMEOUT_S = 140

END_TO_END_UNITS = {
    "fps": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ap50": "ratio",
}


def measure(root: Path, workload, entry: Path, seconds: float, trace: int,
            spans_out: Path) -> dict:
    """Run perfbench.measure in its own session; kill it and its workers on
    timeout."""
    cmd = [sys.executable, "-m", "perfbench.measure", "--workload", workload.name,
           "--inputs", str(entry), "--seconds", str(seconds), "--trace", str(trace),
           "--spans-out", str(spans_out)]
    proc = subprocess.Popen(cmd, cwd=root, env=inputs.subprocess_env(root),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"measured process exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def check_passes(passes: list[dict], expected: list, stored: list | None) -> tuple[int, int]:
    """(frames attempted, frames failed) over all passes of a run."""
    attempted = failed = 0
    for p in passes:
        bad = set(check.failed_frames(expected[: p["frames"]], p["delivered"]))
        if stored is not None:
            bad |= set(check.failed_frames(stored[: p["frames"]], p["delivered"]))
        attempted += p["frames"]
        failed += len(bad)
    return attempted, failed


def detections_by_frame(lines: list[str]) -> dict[int, list[Detection]]:
    out = {}
    for line in lines:
        row = json.loads(line)
        out[row["frame_id"]] = [
            Detection(Rect(d["x"], d["y"], d["w"], d["h"]), d["class"], d["confidence"])
            for d in row["detections"]
        ]
    return out


def end_to_end(out: dict, gt) -> dict[str, tuple[float, int]]:
    """Each end-to-end metric as (value, sample count)."""
    timed = out["untraced"]
    frames = sum(len(p["delivered"]) for p in timed)
    gaps = [g for p in timed for g in p["gaps_ms"]]
    ap50 = average_precision(detections_by_frame(out["lines"]), gt, 0.5)
    return {
        "fps": (frames / sum(p["wall_s"] for p in timed), frames),
        "frame_ms_p50": percentile(gaps, 50),
        "frame_ms_p90": percentile(gaps, 90),
        "setup_s": percentile(out["setup_s"], 50),
        "peak_rss_mb": (out["peak_rss_mb"], 1),
        "ap50": (ap50, len(out["lines"])),
    }


def record_digests(root: Path) -> int:
    scenes = {w.scene.name: w.scene for w in WORKLOADS.values()}
    stored = {
        name: json.loads((inputs.ensure(root, scene, DEFAULT_SEED) / "reference.json").read_text())
        for name, scene in sorted(scenes.items())
    }
    body = ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(p)}" for p in pairs) + "\n]"
        for name, pairs in stored.items()
    )
    check.DIGESTS_PATH.write_text("{\n" + body + "\n}\n")
    return 0


def main(root: Path, argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store the reference output digests of seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)
    if args.record_digests:
        return record_digests(root)
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    entry = inputs.ensure(root, workload.scene, args.seed)
    spans_out = root / inputs.CACHE_DIR / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
    out = measure(root, workload, entry, args.seconds, args.trace, spans_out)

    expected = json.loads((entry / "reference.json").read_text())
    stored = check.stored_digests(workload.scene.name) if args.seed == DEFAULT_SEED else None
    passes = [out["warmup"], *out["untraced"], *out.get("traced", ())]
    attempted, failed = check_passes(passes, expected, stored)
    correct = failed == 0 and not any(p["error"] for p in passes)

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"timed_passes={len(out['untraced'])} frames_attempted={attempted}")
    print(f"  {'failed_share':32} {failed / attempted:12.4f} {'ratio':9} n={attempted}")
    if args.trace:
        metrics = {}
        for m in METRICS:
            value = out["layers"][m.name]
            if value is None:
                print(f"  {m.name:32} {'not exercised':>12} {m.unit:9}")
                value = 0.0
            else:
                print(f"  {m.name:32} {value:12.4f} {m.unit:9}")
            metrics[m.name] = {"value": value, "unit": m.unit}
        print(f"  spans: {spans_out.relative_to(root)}")
    else:
        metrics = {}
        gt = read_ground_truth(entry / "gt.jsonl")
        for name, (value, samples) in end_to_end(out, gt).items():
            unit = END_TO_END_UNITS[name]
            print(f"  {name:32} {value:12.4f} {unit:9} n={samples}")
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
