"""Fixed-resolution square detector contract and a ground-truth oracle.

The detector boundary is deliberately narrow: a detector receives a frame id,
the crop ids of one stage (or one request), and optionally their 608x608
tiles as one array, and returns crop-local detections in model (608) space,
one list per crop. The oracle implementation resolves the crop geometry from
its own scene configuration, the same way a remote worker resolves crops
from the run settings it was started with, so local and remote evaluation
run identical code paths.
"""

from __future__ import annotations

import functools
import hashlib
from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import MODEL_SIDE, CropSpec, Rect, to_local


@dataclass(frozen=True)
class Detection:
    """One detected box with a class label and a confidence in [0, 1].

    The rect is crop-local (608 space) at the detector boundary and global
    after projection; the dataclass itself does not track which.
    """

    rect: Rect
    class_label: str
    confidence: float

    def __post_init__(self):
        if not self.class_label:
            raise ValueError("class_label must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class GroundTruthObject:
    """A labeled object in global frame pixels with a stable identifier."""

    rect: Rect
    class_label: str
    object_id: str

    def __post_init__(self):
        if not self.class_label:
            raise ValueError("class_label must be non-empty")
        if not self.object_id:
            raise ValueError("object_id must be non-empty")


def detection_row(det: Detection) -> dict:
    """A detection as the row that EVAL_RESPONSE and the results file
    share: {x, y, w, h, class, confidence}."""
    r = det.rect
    box = {"x": r.x, "y": r.y, "w": r.w, "h": r.h}
    return {**box, "class": det.class_label, "confidence": det.confidence}


def detection_from_row(row: Mapping) -> Detection:
    """The detection a detection_row holds. A row of another shape raises
    KeyError or TypeError; values that fail Rect's or Detection's checks
    raise ValueError."""
    return Detection(
        Rect(row["x"], row["y"], row["w"], row["h"]), row["class"], row["confidence"]
    )


class Detector(ABC):
    """Interface every detector implementation provides.

    Implementations must be safe for concurrent calls from multiple dispatch
    threads, or say in their docstring that calls must be serialized.

    catalog_key is the crop_catalog_key of the catalog a detector resolves
    crop ids against, or None for one that holds no catalog.
    """

    catalog_key: str | None = None

    @abstractmethod
    def detect(
        self, frame_id: int, crop_ids: Sequence[int], tiles: np.ndarray | None = None
    ) -> list[list[Detection]]:
        """Detect objects on a batch of crops of one frame.

        ``tiles``, when given, is one (len(crop_ids), MODEL_SIDE, MODEL_SIDE,
        3) uint8 array whose tile i is crop_ids[i]'s (see check_tiles); a
        detector that works from scene configuration alone accepts None.
        Returns one list per crop id, in order, of crop-local detections in
        608 space sorted by descending confidence.
        """


def check_tiles(tiles, count: int) -> None:
    """Raise ValueError unless tiles is a (count, MODEL_SIDE, MODEL_SIDE, 3)
    uint8 array."""
    want = (count, MODEL_SIDE, MODEL_SIDE, 3)
    if not isinstance(tiles, np.ndarray) or (tiles.dtype, tiles.shape) != (np.uint8, want):
        got = tiles if not isinstance(tiles, np.ndarray) else (tiles.dtype, tiles.shape)
        raise ValueError(f"tiles must be uint8 of shape {want}, got {got!r}")


def crop_catalog_key(crops_by_id: Mapping[int, CropSpec]) -> str:
    """A short digest of a crop catalog: each crop id with its global rect.
    Two catalogs that resolve some crop id to different rects have
    different keys."""
    rows = []
    for crop_id, crop in sorted(crops_by_id.items()):
        r = crop.global_rect
        rows.append((crop_id, float(r.x), float(r.y), float(r.w), float(r.h)))
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def mock_detect(
    crop: CropSpec,
    gt: Sequence[GroundTruthObject],
    visibility_threshold: float,
    *,
    min_tile_px: int = 8,
) -> list[Detection]:
    """Geometric stand-in for a real detector.

    Emits every ground-truth object whose area fraction inside the crop is at
    least ``visibility_threshold``, as the clipped rect projected to 608
    space, with confidence equal to that fraction. Objects whose visible part
    projects to fewer than ``min_tile_px`` pixels in either dimension at tile
    scale are dropped: that is how downscaled evaluation loses small objects
    here, since no real network is involved. Fully deterministic.
    """
    if not 0.0 < visibility_threshold <= 1.0:
        raise ValueError(
            f"visibility_threshold must be in (0, 1], got {visibility_threshold}"
        )
    side = crop.global_rect.w
    out = []
    for obj in gt:
        visible = obj.rect.intersection(crop.global_rect)
        if visible is None:
            continue
        fraction = visible.area / obj.rect.area
        if fraction < visibility_threshold:
            continue
        if min_tile_px > 0 and (
            visible.w * MODEL_SIDE < min_tile_px * side
            or visible.h * MODEL_SIDE < min_tile_px * side
        ):
            continue
        out.append(Detection(to_local(visible, crop), obj.class_label, fraction))
    out.sort(key=lambda d: -d.confidence)
    return out


class SceneOracle(Detector):
    """Deterministic detector that answers from ground truth.

    Holds the crop catalog (crop_id -> CropSpec) and the per-frame ground
    truth for the scene it serves; tile pixels are accepted for interface
    fidelity but never inspected, and every class in the ground truth is
    answered. All state is immutable after construction, so instances are
    safe for concurrent use.
    """

    def __init__(
        self,
        crops_by_id: Mapping[int, CropSpec],
        gt_by_frame: Mapping[int, Sequence[GroundTruthObject]],
        visibility_threshold: float = 0.3,
        *,
        min_tile_px: int = 8,
    ):
        if not 0.0 < visibility_threshold <= 1.0:
            raise ValueError(
                f"visibility_threshold must be in (0, 1], got {visibility_threshold}"
            )
        if min_tile_px < 0:
            raise ValueError(f"min_tile_px must be >= 0, got {min_tile_px}")
        self._crops = dict(crops_by_id)
        self.catalog_key = crop_catalog_key(self._crops)
        self._gt = {fid: tuple(objs) for fid, objs in gt_by_frame.items()}
        self._visibility_threshold = visibility_threshold
        self._min_tile_px = min_tile_px

    def detect(
        self, frame_id: int, crop_ids: Sequence[int], tiles: np.ndarray | None = None
    ) -> list[list[Detection]]:
        if tiles is not None:
            check_tiles(tiles, len(crop_ids))
        unknown = [i for i in crop_ids if i not in self._crops]
        if unknown:
            raise ValueError(f"unknown crop_id: {unknown[0]}")
        gt = self._gt.get(frame_id, ())
        v, px = self._visibility_threshold, self._min_tile_px
        return [mock_detect(self._crops[i], gt, v, min_tile_px=px) for i in crop_ids]


class _CutPlan(NamedTuple):
    """How cut_tile gathers one crop of one frame size; every array is
    read-only, since one plan serves all threads."""

    rows: np.ndarray  # frame row of each tile row, clipped to the frame
    cols: slice  # frame columns of the crop's window
    byte_index: np.ndarray  # channel item of a window row for each of a tile row
    bands: tuple[slice, ...]  # tile rows gathered together, in order
    row_fill: np.ndarray | None  # tile rows outside the frame, if any
    col_fill: np.ndarray | None  # tile columns outside the frame, if any


# The most bytes of sampled window rows one cut holds at a time: half of a
# 2 MiB per-core L2 cache, so a band stays in cache between its copy and its
# gather, and a cut's temporary does not grow with the crop.
_BAND_BYTES = 1 << 20


# enough plans for the crops of several grids and frame sizes, at about
# 20 KB each for 608-px tiles
@functools.lru_cache(maxsize=128)
def _cut_plan(frame_h: int, frame_w: int, x0: int, y0: int, side: int) -> _CutPlan:
    src = (np.arange(MODEL_SIDE, dtype=np.intp) * side) // MODEL_SIDE
    xs = x0 + src
    ys = y0 + src
    # the sampled positions ascend, so the clipped ones span one window
    xc = np.clip(xs, 0, frame_w - 1)
    rows = np.clip(ys, 0, frame_h - 1)
    cols = slice(int(xc[0]), int(xc[-1]) + 1)
    byte_index = (3 * (xc - xc[0])[:, None] + np.arange(3)).ravel()
    band = max(1, _BAND_BYTES // (3 * (cols.stop - cols.start)))
    row_fill = (ys < 0) | (ys >= frame_h)
    col_fill = (xs < 0) | (xs >= frame_w)
    plan = _CutPlan(
        rows,
        cols,
        byte_index,
        tuple(slice(i, min(i + band, MODEL_SIDE)) for i in range(0, MODEL_SIDE, band)),
        row_fill if row_fill.any() else None,
        col_fill if col_fill.any() else None,
    )
    for array in (rows, byte_index, row_fill, col_fill):
        array.flags.writeable = False
    return plan


def cut_tile(
    pixels: np.ndarray, crop: CropSpec, out: np.ndarray | None = None
) -> np.ndarray:
    """Cut a crop from frame pixels and resample it to MODEL_SIDE squared.

    Nearest-neighbor resampling with source index floor(u * side / MODEL_SIDE)
    for output pixel u; the choice is fixed so tiles are bit-reproducible.
    Crop area outside the frame is zero-filled.

    ``out``, when given, must be a C-contiguous MODEL_SIDE x MODEL_SIDE x 3
    array of the pixels' dtype, such as one tile of a request buffer; any
    other raises ValueError before anything is written. Every pixel of it
    is overwritten and it is returned. Otherwise a new array is.

    The tile is cut one band of tile rows at a time. A band's sampled rows
    of the crop's window, and only those, are copied into a temporary,
    however the pixels are strided; a band holds as many rows as fit in
    _BAND_BYTES (1 MiB) of uint8 window, and at least one, so the temporary
    stays in cache and does not grow with the crop. Its columns are then
    gathered channel by channel: each tile row is one take of
    3 * MODEL_SIDE single-byte items (for uint8) from a window row, which
    numpy copies in a fixed-size loop where 3-byte pixels would cost one
    memmove each. The zero-fill runs once every band is written. The row
    indices, the window's columns, that byte index, the bands and the
    zero-fill masks depend only on the frame size and the crop; they are
    computed once per such key and cached, read-only.

    The pixels are only read, so concurrent calls into distinct ``out``
    arrays are safe.
    """
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"pixels must be HxWx3, got shape {pixels.shape}")
    shape = (MODEL_SIDE, MODEL_SIDE, 3)
    if out is None:
        out = np.empty(shape, dtype=pixels.dtype)
    elif not (
        isinstance(out, np.ndarray)
        and (out.shape, out.dtype) == (shape, pixels.dtype)
        and out.flags.c_contiguous
    ):
        got = out
        if isinstance(out, np.ndarray):
            got = f"{out.dtype} {out.shape} with strides {out.strides}"
        raise ValueError(
            f"out must be a C-contiguous {shape} array of {pixels.dtype}, got {got}"
        )
    r = crop.global_rect
    frame_h, frame_w = pixels.shape[:2]
    plan = _cut_plan(frame_h, frame_w, int(r.x), int(r.y), int(r.w))
    window = pixels[:, plan.cols]
    tile_rows = out.reshape(MODEL_SIDE, -1)
    for band in plan.bands:
        # indexing reads the strided window in place, where np.take would
        # first copy it whole into a contiguous temporary; that temporary
        # is freed before the next band's is made
        np.take(
            window[plan.rows[band]].reshape(band.stop - band.start, -1),
            plan.byte_index,
            axis=1,
            out=tile_rows[band],
            mode="wrap",  # in range by construction; skips the checked loop
        )
    if plan.row_fill is not None:
        out[plan.row_fill] = 0
    if plan.col_fill is not None:
        out[:, plan.col_fill] = 0
    return out
