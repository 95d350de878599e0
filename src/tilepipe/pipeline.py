"""Two-stage evaluation: coarse attention pass, active-crop selection on a
fine grid, final pass over active crops only. run_sequence is the one
in-process frame loop; it also runs the two reference baselines (single
downscaled look, exhaustive fine grid), which differ from the pipeline
only in the set of active crops.

A stage cuts its tiles on one process-wide thread pool (in_parallel) and
passes them, in crop order, to one detector call on the calling thread.

Crop ids are unified per run so a bare (frame_id, crop_id) pair resolves to
one crop anywhere: attention grid ids first, then final grid ids, then one
pseudo-crop id for the downscaled whole frame. Remote workers rebuild the
same plan from the run settings and resolve ids independently; a stream
checks that they did (detector.crop_catalog_key).
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

from .detector import (
    Detection,
    Detector,
    GroundTruthObject,
    SceneOracle,
    cut_tile,
)
from .geometry import (
    MODEL_SIDE,
    CropSettings,
    CropSpec,
    GridSpec,
    Rect,
    build_grid,
    intersects,
    to_global,
)
from .postprocess import postprocess

import numpy as np

PRESET_RE = re.compile(
    r"^\s*(\d+)\s*att\s*,\s*(\d+)\s*fin\s*,\s*(\d+)\s*over\s*$"
)

# The active-crop policy. A final-grid crop is active when it overlaps an
# attention box grown by ATTENTION_MARGIN_PX on each side; the boxes are
# those of the last TEMPORAL_WINDOW attention passes, the current one
# included; and a detection, attention or final, counts only at a
# confidence of MIN_CONFIDENCE or more.
ATTENTION_MARGIN_PX = 20
TEMPORAL_WINDOW = 2
MIN_CONFIDENCE = 0.3


@dataclass(frozen=True)
class PipelineSettings:
    """A run's two grids: all that parameterizes a run aside from the
    detector, since the active-crop policy is the constants above."""

    attention: CropSettings
    final: CropSettings

    def __post_init__(self):
        if self.final.rows < self.attention.rows:
            raise ValueError(
                f"final rows ({self.final.rows}) must be >= attention rows "
                f"({self.attention.rows})"
            )

    @classmethod
    def from_preset(cls, text: str) -> "PipelineSettings":
        """Build settings from a preset string like "1 att, 3 fin, 50 over".
        A ValueError starts with "preset: "."""
        try:
            m = PRESET_RE.match(text)
            if m is None:
                raise ValueError(
                    f"bad preset {text!r}, expected like '1 att, 3 fin, 50 over'"
                )
            att_rows, fin_rows, overlap = (int(g) for g in m.groups())
            return cls(
                attention=CropSettings(att_rows, overlap),
                final=CropSettings(fin_rows, overlap),
            )
        except ValueError as exc:
            raise ValueError(f"preset: {exc}") from exc


@dataclass(frozen=True)
class Frame:
    """One frame: dimensions always, pixel data only when rasters matter.

    Runs with the ground-truth oracle never look at pixels, so synthetic
    evaluations can skip rendering entirely by passing pixels=None.
    """

    frame_id: int
    width: int
    height: int
    pixels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"frame must be >= 1x1, got {self.width}x{self.height}")
        if self.pixels is None:
            return
        if self.pixels.shape != (self.height, self.width, 3):
            raise ValueError(
                f"pixels shape {self.pixels.shape} does not match "
                f"{self.height}x{self.width}x3"
            )
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {self.pixels.dtype}")


@dataclass(frozen=True)
class AttentionModel:
    """Where the coarse pass found objects, in global pixels."""

    frame_id: int
    boxes: tuple[Rect, ...]


@dataclass(frozen=True)
class ActiveSet:
    """The subset of a grid's crops the final pass will evaluate."""

    grid: GridSpec
    active_ids: frozenset[int]

    def __post_init__(self):
        known = {c.crop_id for c in self.grid.crops}
        unknown = set(self.active_ids) - known
        if unknown:
            raise ValueError(f"active ids not in grid: {sorted(unknown)}")

    @property
    def crops(self) -> list[CropSpec]:
        """The active crops in crop id order, the order the final pass uses."""
        return [self.grid.crop_by_id(i) for i in sorted(self.active_ids)]


@dataclass(frozen=True)
class TimingProfile:
    """Wall-clock milliseconds spent on one frame, split by stage.

    io_ms is the time the frame loop spent pulling the frame from its
    source; a remote stream pulls frame t+1 once frame t's final tiles are
    cut, before frame t's final requests are sent, and charges that pull to
    frame t+1. A frame read with frameio.read_ppm is mapped, not copied,
    by its pull: the page faults of reading its pixels are paid by the
    stage that cuts its tiles, not here.

    The same shape serves local and distributed runs. Neither writes
    transfer_ms yet: a remote frame's transfers are inside its round trips,
    so the column stays zero. Locally, per_worker is empty;
    attention_wait_ms is the full attention cost because nothing hides it;
    client_processing_ms is the choice of active crops, and final_eval_ms
    the final pass, its tile cut included. Remotely, attention_wait_ms is
    only the part of the attention precompute that was not hidden behind
    the previous frame's final evaluation; client_processing_ms is the
    choice of active crops and the cut of their tiles into the final
    requests; and per_worker records (endpoint, busy_ms) for each final
    request so the slowest worker is visible. run_stream takes
    final_eval_ms from it: the largest busy_ms, round trips only, or 0.0
    for a frame with no active crop, which sends no final request.
    """

    COLUMNS = (
        "io_ms",
        "attention_wait_ms",
        "client_processing_ms",
        "transfer_ms",
        "final_eval_ms",
        "postprocess_ms",
    )

    io_ms: float = 0.0
    attention_wait_ms: float = 0.0
    client_processing_ms: float = 0.0
    transfer_ms: float = 0.0
    final_eval_ms: float = 0.0
    postprocess_ms: float = 0.0
    per_worker: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        for name in self.COLUMNS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for endpoint, busy_ms in self.per_worker:
            if busy_ms < 0:
                raise ValueError(f"busy_ms for {endpoint} must be >= 0")

    @property
    def total_ms(self) -> float:
        return sum(getattr(self, name) for name in self.COLUMNS)


@dataclass(frozen=True)
class FrameResult:
    """Final detections for one frame plus how much work they took."""

    frame_id: int
    detections: tuple[Detection, ...]
    active_count: int
    total_count: int
    timing: TimingProfile

    def __post_init__(self):
        if self.active_count > self.total_count:
            raise ValueError(
                f"active_count {self.active_count} > total_count {self.total_count}"
            )


class StageFailure(RuntimeError):
    """A pipeline stage failed; carries the stage name and frame id."""

    def __init__(self, stage: str, frame_id: int):
        super().__init__(f"{stage} stage failed on frame {frame_id}")
        self.stage = stage
        self.frame_id = frame_id


@dataclass(frozen=True)
class GridPlan:
    """Both grids of a run plus the downscale pseudo-crop, under one id space.

    Attention crops take ids 0..A-1, final crops A..A+F-1, and the whole
    downscaled frame gets the single id A+F.
    """

    frame_w: int
    frame_h: int
    attention_grid: GridSpec
    final_grid: GridSpec
    downscale_crop: CropSpec

    @classmethod
    def build(cls, frame_w: int, frame_h: int, settings: PipelineSettings) -> "GridPlan":
        attention_grid = build_grid(frame_w, frame_h, settings.attention)
        final_grid = build_grid(
            frame_w, frame_h, settings.final, id_base=len(attention_grid.crops)
        )
        side = max(frame_w, frame_h)
        downscale_crop = CropSpec(
            len(attention_grid.crops) + len(final_grid.crops),
            0,
            0,
            Rect(0, 0, side, side),
            side / MODEL_SIDE,
        )
        return cls(frame_w, frame_h, attention_grid, final_grid, downscale_crop)

    def check_frame(self, frame: Frame) -> None:
        """Raise ValueError unless the frame has the size this plan was built for."""
        if (frame.width, frame.height) != (self.frame_w, self.frame_h):
            raise ValueError(
                f"frame {frame.frame_id} is {frame.width}x{frame.height}, "
                f"plan is {self.frame_w}x{self.frame_h}"
            )

    @property
    def downscale_grid(self) -> GridSpec:
        """The pseudo-crop wrapped as a 1x1 grid, for uniform postprocessing."""
        side = int(self.downscale_crop.global_rect.w)
        return GridSpec(
            self.frame_w,
            self.frame_h,
            CropSettings(rows=1, overlap_px=0),
            side,
            1,
            1,
            (self.downscale_crop,),
        )

    def crops_by_id(self) -> dict[int, CropSpec]:
        out = {c.crop_id: c for c in self.attention_grid.crops}
        out.update((c.crop_id, c) for c in self.final_grid.crops)
        out[self.downscale_crop.crop_id] = self.downscale_crop
        return out


def oracle_for_scene(
    frame_w: int,
    frame_h: int,
    settings: PipelineSettings,
    gt_by_frame: Mapping[int, Sequence[GroundTruthObject]],
) -> SceneOracle:
    """Ground-truth oracle wired to the run's crop id space."""
    plan = GridPlan.build(frame_w, frame_h, settings)
    return SceneOracle(plan.crops_by_id(), gt_by_frame)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_cut_pool: ThreadPoolExecutor | None = None
_cut_pool_lock = threading.Lock()


def _forget_cut_pool() -> None:
    # a forked child has none of the parent's pool threads; it starts its own
    global _cut_pool, _cut_pool_lock
    _cut_pool, _cut_pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_cut_pool)


def in_parallel(fn: Callable[[int], object], n: int) -> None:
    """Call fn(0) .. fn(n - 1) on the process-wide cut pool, one thread per
    usable CPU, and return once every call has; a single call runs inline.

    The pool starts on first use. It is shared by every caller, so however
    many threads cut at once, no more than usable_cpus() pool threads run.
    fn must never submit to the pool itself: a call waiting on work queued
    behind it could then deadlock. The first failure in index order is
    raised, after every call has finished.
    """
    global _cut_pool
    if n <= 1:
        if n == 1:
            fn(0)
        return
    with _cut_pool_lock:
        if _cut_pool is None:
            _cut_pool = ThreadPoolExecutor(
                max_workers=usable_cpus(), thread_name_prefix="tilepipe-cut"
            )
        pool = _cut_pool
    futures = [pool.submit(fn, i) for i in range(n)]
    wait(futures)
    for future in futures:
        future.result()


def detect_crops(
    frame: Frame, crops: Sequence[CropSpec], det: Detector, stage: str
) -> dict[int, list[Detection]]:
    """Crop-local detections by crop id, the shape evaluate_remote returns.

    With pixels, every tile of the stage is first cut into one array, in
    parallel on the cut pool. The detector then takes the whole stage in
    one call, on the calling thread; an empty stage makes none. A failed
    cut or detection, or an answer without one list per crop, raises
    StageFailure for ``stage``.
    """
    if not crops:
        return {}
    crop_ids = [c.crop_id for c in crops]
    try:
        tiles = None
        if frame.pixels is not None:
            tiles = np.empty((len(crops), MODEL_SIDE, MODEL_SIDE, 3), dtype=np.uint8)
            in_parallel(
                lambda i: cut_tile(frame.pixels, crops[i], out=tiles[i]), len(crops)
            )
        found = det.detect(frame.frame_id, crop_ids, tiles)
        return dict(zip(crop_ids, found, strict=True))
    except Exception as exc:
        raise StageFailure(stage, frame.frame_id) from exc


def attention_model(
    frame: Frame,
    crops: Sequence[CropSpec],
    found: Mapping[int, Sequence[Detection]],
) -> AttentionModel:
    """The boxes of an attention stage at MIN_CONFIDENCE or more, in global
    pixels."""
    boxes = tuple(
        to_global(d.rect, crop, frame.width, frame.height)
        for crop in crops
        for d in found[crop.crop_id]
        if d.confidence >= MIN_CONFIDENCE
    )
    return AttentionModel(frame.frame_id, boxes)


def tag_global(
    frame: Frame,
    crops: Sequence[CropSpec],
    found: Mapping[int, Sequence[Detection]],
) -> list[tuple[int, Detection]]:
    """Crop-local detections projected to global pixels, tagged by crop id."""
    w, h = frame.width, frame.height
    return [
        (crop.crop_id, replace(d, rect=to_global(d.rect, crop, w, h)))
        for crop in crops
        for d in found[crop.crop_id]
    ]


def attention_pass(frame: Frame, plan: GridPlan, det: Detector) -> AttentionModel:
    """Evaluate every coarse crop of the plan and collect its confident
    boxes globally (see attention_model)."""
    crops = plan.attention_grid.crops
    found = detect_crops(frame, crops, det, "attention")
    return attention_model(frame, crops, found)


def merge_temporal(history: Sequence[AttentionModel]) -> AttentionModel:
    """Union the boxes of the last TEMPORAL_WINDOW attention models of
    ``history``, the current frame's last."""
    if not history:
        raise ValueError("history must be non-empty")
    ids = [m.frame_id for m in history]
    if ids != sorted(ids):
        raise ValueError(f"history must be ordered by frame_id, got {ids}")
    recent = history[-TEMPORAL_WINDOW:]
    boxes = []
    seen = set()
    for model in recent:
        for box in model.boxes:
            if box not in seen:
                seen.add(box)
                boxes.append(box)
    return AttentionModel(recent[-1].frame_id, tuple(boxes))


def select_active(final_grid: GridSpec, att: AttentionModel) -> ActiveSet:
    """Mark final-grid crops that intersect any attention box dilated by
    ATTENTION_MARGIN_PX."""
    dilated = [
        box.dilated(ATTENTION_MARGIN_PX, final_grid.frame_w, final_grid.frame_h)
        for box in att.boxes
    ]
    active = frozenset(
        crop.crop_id
        for crop in final_grid.crops
        if any(intersects(crop.global_rect, box) for box in dilated)
    )
    return ActiveSet(final_grid, active)


def final_pass(
    frame: Frame, active: ActiveSet, det: Detector
) -> list[tuple[int, Detection]]:
    """Evaluate active crops only; detections come back global and untrimmed.

    Returns (crop_id, detection) pairs so postprocessing can reason about
    crop borders. Duplicates across overlapping crops are preserved.
    """
    crops = active.crops
    return tag_global(frame, crops, detect_crops(frame, crops, det, "final"))


def finish_detections(
    tagged: Sequence[tuple[int, Detection]], grid: GridSpec
) -> tuple[Detection, ...]:
    """Postprocess a frame's tagged detections and drop those under
    MIN_CONFIDENCE."""
    dets = postprocess(tagged, grid)
    return tuple(d for d in dets if d.confidence >= MIN_CONFIDENCE)


RUN_MODES = ("pipeline", "downscale", "allcrops")


def timed_pulls(frames: Iterable[Frame]) -> Iterator[tuple[Frame, float]]:
    """Each frame of ``frames`` with the milliseconds its pull took: what
    the frame loops charge to io_ms."""
    frames = iter(frames)
    while True:
        started = time.perf_counter()
        frame = next(frames, None)
        if frame is None:
            return
        yield frame, (time.perf_counter() - started) * 1000


def run_sequence(
    frames: Iterable[Frame],
    settings: PipelineSettings,
    det: Detector,
    *,
    plan: GridPlan | None = None,
    mode: str = "pipeline",
) -> Iterator[FrameResult]:
    """Evaluate frames in order; the one in-process frame loop.

    ``mode`` picks each frame's active set. "pipeline" runs the attention
    pass and activates the final-grid crops within ATTENTION_MARGIN_PX of
    what the last TEMPORAL_WINDOW attention passes saw. "downscale"
    activates the single downscale pseudo-crop: the frame sits top-left in
    a square of side max(width, height), squeezed into one model tile.
    "allcrops" activates every final-grid crop, the exhaustive reference.
    All modes then run the same final pass and postprocess.

    Without a plan, the first frame's size fixes the grid for the whole
    sequence; a frame of another size raises ValueError.
    """
    if mode not in RUN_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {RUN_MODES}")
    history: deque[AttentionModel] = deque(maxlen=TEMPORAL_WINDOW - 1)
    for frame, io_ms in timed_pulls(frames):
        if plan is None:
            plan = GridPlan.build(frame.width, frame.height, settings)
        plan.check_frame(frame)

        t0 = time.perf_counter()
        if mode == "pipeline":
            att = attention_pass(frame, plan, det)
            t1 = time.perf_counter()
            merged = merge_temporal([*history, att])
            active = select_active(plan.final_grid, merged)
            history.append(att)
        else:
            t1 = t0
            grid = plan.downscale_grid if mode == "downscale" else plan.final_grid
            active = ActiveSet(grid, frozenset(c.crop_id for c in grid.crops))
        t2 = time.perf_counter()
        tagged = final_pass(frame, active, det)
        t3 = time.perf_counter()
        try:
            dets = finish_detections(tagged, active.grid)
        except Exception as exc:
            raise StageFailure("postprocess", frame.frame_id) from exc
        t4 = time.perf_counter()

        timing = TimingProfile(
            io_ms=io_ms,
            attention_wait_ms=(t1 - t0) * 1000,
            client_processing_ms=(t2 - t1) * 1000,
            final_eval_ms=(t3 - t2) * 1000,
            postprocess_ms=(t4 - t3) * 1000,
        )
        yield FrameResult(
            frame.frame_id,
            dets,
            len(active.active_ids),
            len(active.grid.crops),
            timing,
        )
