"""The measured process. It sets one workload up, runs it for a fixed time and
prints what it saw as one JSON line. run.py starts one such process per run,
so its peak RSS belongs to the workload alone.

    python3 -m perfbench.measure --workload NAME --inputs DIR --seconds S \
        --trace 0|1 [--spans-out FILE]

A pass runs the whole scene once through the workload's entry point. Passes
repeat until the time is up. With --trace 1 an untraced loop runs first, then
the traced loop, so the two frame rates give the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tilepipe.distribution import StreamAborted, run_stream
from tilepipe.frameio import FrameSource, read_ground_truth, result_line
from tilepipe.pipeline import Frame, GridPlan, PipelineSettings, oracle_for_scene, run_sequence

from perfbench.check import line_digest
from perfbench.cluster import Cluster
from perfbench.layers import Trace, install_client, layer_metrics
from perfbench.spans import Hooks, Recorder, Span
from perfbench.workloads import WORKLOADS

# Set-up is timed this many times and reported as the median. A cluster
# set-up spawns two processes and takes about half a second; a local one
# takes 50 to 150 ms.
SETUP_REPEATS_LOCAL = 15
SETUP_REPEATS_CLUSTER = 5


class Frames:
    """The frame iterator handed to the entry point. It counts frames pulled
    against results delivered and, when tracing, records a span per pull."""

    def __init__(self, frames, recorder: Recorder | None):
        self._frames = frames
        self._recorder = recorder
        self.pulled = 0
        self.delivered = 0
        self.in_flight_max = 0

    def __iter__(self):
        for frame in self._frames:
            self.pulled += 1
            self.in_flight_max = max(self.in_flight_max, self.pulled - self.delivered)
            yield frame

    def traced(self):
        """Like iter(self), with a frameio.next span around each pull."""
        it = iter(self)
        while True:
            start = time.perf_counter_ns()
            frame = next(it, None)
            if frame is None:
                return
            self._recorder.add(
                Span("frameio.next", start, time.perf_counter_ns(), frame=frame.frame_id)
            )
            yield frame


class Session:
    """A set-up workload, ready for its first frame."""

    def __init__(self, workload, inputs: Path):
        self.workload = workload
        scene = workload.scene
        self.settings = PipelineSettings.from_preset(scene.preset)
        self.cluster = None
        if scene.pixels:
            source = FrameSource.open(inputs / "frames")
            self.width, self.height = source.width, source.height
            self._frames = source.frames
        else:
            self.width, self.height = scene.width, scene.height
        if workload.cluster:
            # run_stream builds its own grid plan; the workers hold the oracle
            self.cluster = Cluster(scene, inputs / "gt.jsonl").start()
            return
        gt = read_ground_truth(inputs / "gt.jsonl")
        if not scene.pixels:
            listed = [Frame(fid, self.width, self.height) for fid in sorted(gt)]
            self._frames = lambda: iter(listed)
        self.oracle = oracle_for_scene(self.width, self.height, self.settings, gt)
        self.plan = GridPlan.build(self.width, self.height, self.settings)

    def close(self) -> list[Span]:
        return self.cluster.close() if self.cluster else []

    def run_pass(self, limit: int | None = None, recorder: Recorder | None = None,
                 keep_lines: bool = False) -> dict:
        """One pass over the scene, or its first ``limit`` frames. Result
        lines are dropped after hashing unless ``keep_lines``, so memory does
        not grow with the number of passes."""
        frames = Frames(itertools.islice(self._frames(), limit), recorder)
        stream = frames.traced() if recorder and self.workload.scene.pixels else frames
        results = []
        gaps_ms = []
        error = None
        started = time.perf_counter()
        try:
            if self.cluster:
                self._stream(stream, results)
                # run_stream hands results over only at the end of the stream
                gaps_ms = [(time.perf_counter() - started) * 1000 / len(results)]
            else:
                previous = started
                for result in run_sequence(stream, self.settings, self.oracle, plan=self.plan):
                    now = time.perf_counter()
                    gaps_ms.append((now - previous) * 1000)
                    previous = now
                    frames.delivered += 1
                    results.append(result)
        except Exception:  # the program failed; undelivered frames count as failed
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        wall_s = time.perf_counter() - started
        lines = [result_line(r) for r in results]
        return {
            "frames": limit or self.workload.scene.frame_count,
            "delivered": [[r.frame_id, line_digest(line)] for r, line in zip(results, lines)],
            "lines": lines if keep_lines else None,
            "wall_s": wall_s,
            "gaps_ms": gaps_ms,
            "profile_ms": sum(r.timing.total_ms for r in results),
            "attention_wait_ms": [r.timing.attention_wait_ms for r in results],
            "active": sum(r.active_count for r in results),
            "total": sum(r.total_count for r in results),
            "in_flight_max": frames.in_flight_max,
            "error": error,
        }

    def _stream(self, frames, results: list) -> None:
        try:
            results.extend(run_stream(frames, self.settings, self.cluster.config))
        except StreamAborted as exc:
            results.extend(exc.completed)
            raise


def timed_loop(session: Session, seconds: float, recorder: Recorder | None = None) -> list[dict]:
    """Whole passes until ``seconds`` have passed; the first keeps its lines."""
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(session.run_pass(recorder=recorder, keep_lines=not passes))
        if passes[-1]["error"]:
            break
    return passes


def measure_setup(workload, inputs: Path) -> tuple[list[float], Session]:
    """Time set-up several times; returns the times and the last session."""
    repeats = SETUP_REPEATS_CLUSTER if workload.cluster else SETUP_REPEATS_LOCAL
    times = []
    session = None
    for _ in range(repeats):
        if session is not None:
            session.close()
        started = time.perf_counter()
        session = Session(workload, inputs)
        times.append(time.perf_counter() - started)
    return times, session


def traced_loop(session: Session, seconds: float, untraced: list[dict], spans_out):
    """The traced loop; returns its passes and the per-layer metrics."""
    recorder = Recorder()
    hooks = Hooks()
    plan = GridPlan.build(session.width, session.height, session.settings)
    try:
        install_client(hooks, recorder, session.workload, len(plan.attention_grid.crops))
        if session.cluster:
            session.cluster.trace_on()
        traced = timed_loop(session, seconds, recorder)
    finally:
        hooks.restore()
    worker_spans = session.close()
    if spans_out is not None:
        write_spans(spans_out, recorder.spans, worker_spans)
    trace = Trace(recorder.spans, worker_spans, untraced, traced)
    return traced, layer_metrics(session.workload, trace)


def run(workload, inputs: Path, seconds: float, trace: bool, spans_out: Path | None) -> dict:
    setup_s, session = measure_setup(workload, inputs)
    try:
        warmup = session.run_pass(limit=workload.scene.clip_frames)
        untraced = timed_loop(session, seconds)
        out = {"setup_s": setup_s, "warmup": warmup, "untraced": untraced}
        if trace:
            out["traced"], out["layers"] = traced_loop(session, seconds, untraced, spans_out)
    finally:
        session.close()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["lines"] = untraced[0].pop("lines")
    return out


def write_spans(path: Path, spans: list[Span], worker_spans: list[Span]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for process, group in (("client", spans), ("worker", worker_spans)):
            for span in group:
                fh.write(json.dumps({"process": process, **dataclasses.asdict(span)}))
                fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)
    out = run(WORKLOADS[args.workload], args.inputs, args.seconds, bool(args.trace),
              args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
