"""Scaling simulator: predicts frame latency for worker-count sweeps.

The model is the one the client implements: contiguous dispatch, stage time
set by the slowest worker (so a stage costs ceil(k/N) crop evaluations plus
per-crop transfer), and the next frame's attention hidden behind the current
frame's final pass when dedicated attention workers exist.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

SIM_CSV_COLUMNS = (
    "attention_workers",
    "final_workers",
    "frame_id",
    "attention_ms",
    "attention_wait_ms",
    "final_ms",
    "latency_ms",
)


@dataclass(frozen=True)
class SimScenario:
    """A crop workload plus the worker-count sweep to evaluate it under.

    frames holds (attention_crops, final_crops) per frame. Worker counts of
    0 in attention_worker_counts mean no dedicated attention workers: the
    attention stage runs on the final workers with no overlap.
    """

    frames: tuple[tuple[int, int], ...]
    per_crop_cost_ms: float
    transfer_cost_per_crop_ms: float
    attention_worker_counts: tuple[int, ...] = (0, 1)
    final_worker_counts: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self):
        object.__setattr__(
            self, "frames", tuple((int(a), int(f)) for a, f in self.frames)
        )
        object.__setattr__(
            self,
            "attention_worker_counts",
            tuple(int(n) for n in self.attention_worker_counts),
        )
        object.__setattr__(
            self,
            "final_worker_counts",
            tuple(int(n) for n in self.final_worker_counts),
        )
        if not self.frames:
            raise ValueError("scenario needs at least one frame")
        if any(a < 0 or f < 0 for a, f in self.frames):
            raise ValueError("crop counts must be >= 0")
        if self.per_crop_cost_ms <= 0 or self.transfer_cost_per_crop_ms <= 0:
            raise ValueError("per-crop costs must be > 0")
        if any(n < 0 for n in self.attention_worker_counts):
            raise ValueError("attention worker counts must be >= 0")
        if any(n < 1 for n in self.final_worker_counts):
            raise ValueError("final worker counts must be >= 1")


def stage_latency_ms(
    crop_count: int, workers: int, per_crop_cost_ms: float,
    transfer_cost_per_crop_ms: float,
) -> float:
    """Slowest worker's span: ceil(k/N) evaluations plus k transfers."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if crop_count == 0:
        return 0.0
    return (
        math.ceil(crop_count / workers) * per_crop_cost_ms
        + crop_count * transfer_cost_per_crop_ms
    )


def _simulate_combo(scenario: SimScenario, n_a: int, n_f: int) -> list[dict]:
    c = scenario.per_crop_cost_ms
    t = scenario.transfer_cost_per_crop_ms
    att = [
        stage_latency_ms(ka, n_a if n_a >= 1 else n_f, c, t)
        for ka, _ in scenario.frames
    ]
    fin = [stage_latency_ms(kf, n_f, c, t) for _, kf in scenario.frames]

    rows = []
    finish_prev = 0.0
    ready = att[0]  # first frame's attention is never hidden
    for i in range(len(scenario.frames)):
        if n_a == 0:
            wait = att[i]
            start_final = finish_prev + att[i]
        else:
            wait = max(0.0, ready - finish_prev)
            start_final = max(finish_prev, ready)
            if i + 1 < len(scenario.frames):
                # next frame's attention starts when this final pass does
                ready = start_final + att[i + 1]
        finish = start_final + fin[i]
        rows.append(
            {
                "attention_workers": n_a,
                "final_workers": n_f,
                "frame_id": i,
                "attention_ms": att[i],
                "attention_wait_ms": wait,
                "final_ms": fin[i],
                "latency_ms": finish - finish_prev,
            }
        )
        finish_prev = finish
    return rows


def simulate_scaling(scenario: SimScenario) -> list[dict]:
    """Frame latencies for every (attention workers, final workers) pair.

    Deterministic; rows are ordered by (attention workers, final workers,
    frame id) and use the SIM_CSV_COLUMNS keys.
    """
    rows = []
    for n_a in scenario.attention_worker_counts:
        for n_f in scenario.final_worker_counts:
            rows.extend(_simulate_combo(scenario, n_a, n_f))
    return rows


def write_sim_csv(rows: Iterable[dict], out) -> None:
    """Write rows under the SIM_CSV_COLUMNS header to a path or a text stream."""
    if not hasattr(out, "write"):
        with open(out, "w", newline="") as fh:
            write_sim_csv(rows, fh)
        return
    writer = csv.writer(out)
    writer.writerow(SIM_CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row["attention_workers"],
                row["final_workers"],
                row["frame_id"],
                f"{row['attention_ms']:.3f}",
                f"{row['attention_wait_ms']:.3f}",
                f"{row['final_ms']:.3f}",
                f"{row['latency_ms']:.3f}",
            ]
        )


def mean_latency_ms(rows: Sequence[dict], n_a: int, n_f: int) -> float:
    picked = [
        r["latency_ms"]
        for r in rows
        if r["attention_workers"] == n_a and r["final_workers"] == n_f
    ]
    if not picked:
        raise ValueError(f"no rows for attention={n_a} final={n_f}")
    return sum(picked) / len(picked)
