"""The per-frame functions the in-process pipeline had before run_sequence
became its one frame loop, kept verbatim as the reference that
tests/test_reference_pipeline.py compares run_sequence against.

reference_sequence is the three-way branch ``tilepipe run`` used to pick
between them.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from tilepipe.detector import Detector
from tilepipe.pipeline import (
    ActiveSet,
    AttentionModel,
    Frame,
    FrameResult,
    GridPlan,
    PipelineSettings,
    StageFailure,
    TimingProfile,
    attention_pass,
    detect_crops,
    final_pass,
    finish_detections,
    merge_temporal,
    select_active,
    tag_global,
)


def evaluate_frame(
    frame: Frame,
    settings: PipelineSettings,
    det: Detector,
    history: Sequence[AttentionModel] = (),
    *,
    plan: GridPlan | None = None,
) -> tuple[FrameResult, AttentionModel]:
    """Full staged evaluation; returns the current attention model too, so a
    caller looping over frames can carry it into the next frame's window."""
    if plan is None:
        plan = GridPlan.build(frame.width, frame.height, settings)
    plan.check_frame(frame)

    t0 = time.perf_counter()
    att = attention_pass(frame, settings, det, plan=plan)
    t1 = time.perf_counter()
    merged = merge_temporal([*history, att], settings.temporal_window)
    active = select_active(plan.final_grid, merged, settings.attention_margin_px)
    t2 = time.perf_counter()
    tagged = final_pass(frame, active, det)
    t3 = time.perf_counter()
    try:
        dets = finish_detections(tagged, plan.final_grid, settings.min_confidence)
    except Exception as exc:
        raise StageFailure("postprocess", frame.frame_id) from exc
    t4 = time.perf_counter()

    timing = TimingProfile(
        attention_wait_ms=(t1 - t0) * 1000,
        client_processing_ms=(t2 - t1) * 1000,
        final_eval_ms=(t3 - t2) * 1000,
        postprocess_ms=(t4 - t3) * 1000,
    )
    result = FrameResult(
        frame.frame_id, dets, len(active.active_ids), len(plan.final_grid.crops), timing
    )
    return result, att



def run_downscale_baseline(
    frame: Frame,
    det: Detector,
    settings: PipelineSettings,
    *,
    plan: GridPlan | None = None,
) -> FrameResult:
    """Single evaluation of the whole frame squeezed into one model tile.

    The frame sits top-left in a square of side max(width, height), so the
    aspect ratio is preserved and the rest of the tile is blank.
    """
    if plan is None:
        plan = GridPlan.build(frame.width, frame.height, settings)
    crops = (plan.downscale_crop,)

    t0 = time.perf_counter()
    tagged = tag_global(frame, crops, detect_crops(frame, crops, det, "downscale"))
    t1 = time.perf_counter()
    dets = finish_detections(tagged, plan.downscale_grid, settings.min_confidence)
    t2 = time.perf_counter()

    timing = TimingProfile(
        final_eval_ms=(t1 - t0) * 1000, postprocess_ms=(t2 - t1) * 1000
    )
    return FrameResult(frame.frame_id, dets, 1, 1, timing)


def run_allcrops_baseline(
    frame: Frame,
    settings: PipelineSettings,
    det: Detector,
    *,
    plan: GridPlan | None = None,
) -> FrameResult:
    """Evaluate every final-grid crop; the exhaustive reference."""
    if plan is None:
        plan = GridPlan.build(frame.width, frame.height, settings)
    all_ids = frozenset(c.crop_id for c in plan.final_grid.crops)
    active = ActiveSet(plan.final_grid, all_ids)

    t0 = time.perf_counter()
    tagged = final_pass(frame, active, det)
    t1 = time.perf_counter()
    dets = finish_detections(tagged, plan.final_grid, settings.min_confidence)
    t2 = time.perf_counter()

    timing = TimingProfile(
        final_eval_ms=(t1 - t0) * 1000, postprocess_ms=(t2 - t1) * 1000
    )
    return FrameResult(frame.frame_id, dets, len(all_ids), len(all_ids), timing)


def reference_sequence(
    frames: Iterable[Frame],
    settings: PipelineSettings,
    det: Detector,
    mode: str,
    *,
    plan: GridPlan | None = None,
) -> list[FrameResult]:
    """One mode over a sequence, as ``tilepipe run`` evaluated it."""
    frames = list(frames)
    if plan is None:
        plan = GridPlan.build(frames[0].width, frames[0].height, settings)
    if mode == "downscale":
        return [run_downscale_baseline(f, det, settings, plan=plan) for f in frames]
    if mode == "allcrops":
        return [run_allcrops_baseline(f, settings, det, plan=plan) for f in frames]
    keep = settings.temporal_window - 1
    history: list[AttentionModel] = []
    results = []
    for frame in frames:
        result, att = evaluate_frame(frame, settings, det, history, plan=plan)
        history.append(att)
        del history[: max(0, len(history) - keep)]
        results.append(result)
    return results
