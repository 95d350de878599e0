"""Earlier versions of the program's hot paths, kept verbatim as reference
oracles for property tests.

- The per-frame functions the in-process pipeline had before run_sequence
  became its one frame loop; tests/test_reference_pipeline.py compares
  run_sequence against them. reference_sequence is the three-way branch
  ``tilepipe run`` used to pick between them.
- cut_tile and read_ppm as they were before each pixel was copied once;
  tests/test_reference_pixels.py compares the current ones against them.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from tilepipe.detector import Detector
from tilepipe.frameio import FrameDecodeError, _ppm_header
from tilepipe.geometry import MODEL_SIDE, CropSpec
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


def cut_tile(
    pixels: np.ndarray, crop: CropSpec, input_side: int = MODEL_SIDE
) -> np.ndarray:
    """Cut a crop from frame pixels and resample it to input_side squared.

    Nearest-neighbor resampling with source index floor(u * side / input_side)
    for output pixel u; the choice is fixed so tiles are bit-reproducible.
    Crop area outside the frame is zero-filled.
    """
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"pixels must be HxWx3, got shape {pixels.shape}")
    frame_h, frame_w = pixels.shape[:2]
    side = int(crop.global_rect.w)
    x0 = int(crop.global_rect.x)
    y0 = int(crop.global_rect.y)
    src = (np.arange(input_side, dtype=np.int64) * side) // input_side
    xs = x0 + src
    ys = y0 + src
    x_ok = (xs >= 0) & (xs < frame_w)
    y_ok = (ys >= 0) & (ys < frame_h)
    tile = pixels[np.clip(ys, 0, frame_h - 1)][:, np.clip(xs, 0, frame_w - 1)]
    tile = np.ascontiguousarray(tile)
    tile[~y_ok, :, :] = 0
    tile[:, ~x_ok, :] = 0
    return tile


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into an HxWx3 uint8 array."""
    data = Path(path).read_bytes()
    header = _ppm_header(data, path)
    if header is None:
        raise FrameDecodeError(f"{path}: truncated header")
    width, height, offset = header
    expected = width * height * 3
    raster = data[offset : offset + expected]
    if len(raster) < expected:
        raise FrameDecodeError(
            f"{path}: raster truncated, {len(raster)} of {expected} bytes"
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).copy()
