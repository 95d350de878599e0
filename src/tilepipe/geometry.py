"""Rectangle arithmetic and the overlapping square crop grid.

Frames are tiled by square crops sized so that ``rows`` crops (minus their
overlap) span the frame height after scaling to the detector's fixed
608 px input. Grid coordinates exist in two spaces: integer *global* frame
pixels and real-valued *model* space (608x608 per crop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

MODEL_SIDE = 608
# Bytes of one 8-bit RGB tile, as cut, sent and detected.
TILE_BYTES = MODEL_SIDE * MODEL_SIDE * 3


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle as (left, top, width, height).

    Coordinates are integer pixels in global frame space; crop-local
    608-space rects carry sub-pixel float coordinates.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for v in (self.x, self.y, self.w, self.h):
            if not math.isfinite(v):
                raise ValueError(f"non-finite rect coordinate: {self!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"rect must have positive size: {self!r}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    def intersection(self, other: "Rect") -> "Rect | None":
        """Overlap rect, or None when the overlap has zero area."""
        x1 = max(self.x, other.x)
        y1 = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 <= x1 or y2 <= y1:
            return None
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def union_rect(self, other: "Rect") -> "Rect":
        """Smallest rect enclosing both."""
        x1 = min(self.x, other.x)
        y1 = min(self.y, other.y)
        x2 = max(self.x2, other.x2)
        y2 = max(self.y2, other.y2)
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def dilated(self, margin: float, frame_w: float, frame_h: float) -> "Rect":
        """Grow by ``margin`` on all sides, clipped to the frame."""
        x1 = max(0.0, self.x - margin)
        y1 = max(0.0, self.y - margin)
        x2 = min(float(frame_w), self.x2 + margin)
        y2 = min(float(frame_h), self.y2 + margin)
        return Rect(x1, y1, x2 - x1, y2 - y1)


def intersects(a: Rect, b: Rect) -> bool:
    """True iff the intersection has strictly positive area (touching edges do not count)."""
    return min(a.x2, b.x2) > max(a.x, b.x) and min(a.y2, b.y2) > max(a.y, b.y)


def iou(a: Rect, b: Rect) -> float:
    """Intersection over union in [0, 1]; 0 for disjoint rects."""
    inter = a.intersection(b)
    if inter is None:
        return 0.0
    inter_area = inter.area
    return inter_area / (a.area + b.area - inter_area)


@dataclass(frozen=True)
class CropSettings:
    """Grid parameterization: row count and overlap between neighboring crops.

    The overlap is measured in model (608 px) space, which is what makes the
    derived crop side lengths land on whole-pixel values that tile the frame.
    """

    rows: int
    overlap_px: int = 20

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError(f"rows must be >= 1, got {self.rows}")
        if not 0 <= self.overlap_px < MODEL_SIDE:
            raise ValueError(f"overlap_px must be in [0, {MODEL_SIDE - 1}], got {self.overlap_px}")


@dataclass(frozen=True)
class CropSpec:
    """One square crop: its rect in global pixels and its scale to 608-space."""

    crop_id: int
    row: int
    col: int
    global_rect: Rect
    scale: float  # global px per model px == side / 608

    def __post_init__(self) -> None:
        if self.global_rect.w != self.global_rect.h:
            raise ValueError(f"crop rect must be square, got {self.global_rect}")
        if abs(self.scale - self.global_rect.w / MODEL_SIDE) > 1e-9:
            raise ValueError(
                f"scale {self.scale} does not match side {self.global_rect.w}"
            )


@dataclass(frozen=True)
class GridSpec:
    """A rows x cols overlapping tiling of one frame."""

    frame_w: int
    frame_h: int
    settings: CropSettings
    crop_side: int
    rows: int
    cols: int
    crops: tuple[CropSpec, ...] = field(repr=False)

    def crop_by_id(self, crop_id: int) -> CropSpec:
        first = self.crops[0].crop_id
        idx = crop_id - first
        if not 0 <= idx < len(self.crops):
            raise KeyError(f"crop_id {crop_id} not in grid (ids {first}..{first + len(self.crops) - 1})")
        return self.crops[idx]


def crop_side_px(frame_h: int, settings: CropSettings) -> int:
    """Side length in global pixels of a square crop for this frame height.

    ``rows`` crops of 608 px, overlapping by ``overlap_px``, must span the
    frame height once scaled to model space; the side is the frame height
    divided by that span, rounded half-up. The side is floored at
    ceil(frame_h / rows): below that, ``rows`` crops cannot cover the
    height at all (only reachable for degenerate few-pixel crops).
    """
    if frame_h < 1:
        raise ValueError(f"frame_h must be >= 1, got {frame_h}")
    span = MODEL_SIDE * settings.rows - settings.overlap_px * (settings.rows - 1)
    side = int(Fraction(frame_h * MODEL_SIDE, span) + Fraction(1, 2))
    return max(side, -(-frame_h // settings.rows))


def _axis_positions(extent: int, side: int, overlap_px: int, count: int) -> list[int]:
    """Crop origins along one axis: fixed stride in model space, final crop
    aligned to the far frame edge.

    Each origin is clamped so the remaining crops can still reach the far
    edge, which keeps coverage intact even when rounding of the few-pixel
    degenerate sides eats into the nominal overlap. The clamps are inert
    for all realistic crop settings.
    """
    stride_numer = (MODEL_SIDE - overlap_px) * side  # stride in global px, times 608
    last = max(0, extent - side)
    positions = []
    for i in range(count - 1):
        pos = (i * stride_numer) // MODEL_SIDE
        pos = max(pos, extent - (count - i) * side, 0)
        positions.append(min(pos, last))
    positions.append(last)
    return positions


def build_grid(frame_w: int, frame_h: int, settings: CropSettings, id_base: int = 0) -> GridSpec:
    """Tile a frame with the minimal number of square crop columns.

    The crop side comes from the frame height and ``settings``; the column
    count is the smallest n whose n overlapping model-space crops span the
    scaled frame width. Crops are emitted row-major with ids starting at
    ``id_base``.
    """
    if frame_w < 1 or frame_h < 1:
        raise ValueError(f"frame dimensions must be >= 1, got {frame_w}x{frame_h}")
    side = crop_side_px(frame_h, settings)
    o = settings.overlap_px
    # Minimal n with n*608 - (n-1)*o >= frame_w * 608 / side, in exact integers.
    numer = frame_w * MODEL_SIDE - o * side
    denom = (MODEL_SIDE - o) * side
    cols = max(1, -(-numer // denom))
    rows = settings.rows

    xs = _axis_positions(frame_w, side, o, cols)
    ys = _axis_positions(frame_h, side, o, rows)
    scale = side / MODEL_SIDE

    crops = []
    crop_id = id_base
    for r, y in enumerate(ys):
        for c, x in enumerate(xs):
            crops.append(CropSpec(crop_id, r, c, Rect(x, y, side, side), scale))
            crop_id += 1
    return GridSpec(frame_w, frame_h, settings, side, rows, cols, tuple(crops))


def to_local(r: Rect, crop: CropSpec) -> Rect:
    """Project a global rect into the crop's 608-space, clipped to [0, 608]^2.

    The input must overlap the crop; the result keeps sub-pixel precision.
    """
    g = crop.global_rect
    inter = r.intersection(g)
    if inter is None:
        raise ValueError(f"rect {r} does not intersect crop {crop.crop_id} at {g}")
    s = crop.scale
    x1 = (inter.x - g.x) / s
    y1 = (inter.y - g.y) / s
    x2 = (inter.x2 - g.x) / s
    y2 = (inter.y2 - g.y) / s
    x1, y1 = max(0.0, x1), max(0.0, y1)
    x2, y2 = min(float(MODEL_SIDE), x2), min(float(MODEL_SIDE), y2)
    return Rect(x1, y1, x2 - x1, y2 - y1)


def to_global(r: Rect, crop: CropSpec, frame_w: int, frame_h: int) -> Rect:
    """Project a 608-space rect back to integer global pixels, clipped to
    the frame.

    Edges are rounded independently so to_global(to_local(r)) stays within
    +-1 px of r for a rect inside the frame.
    """
    g = crop.global_rect
    s = crop.scale
    x1 = max(0.0, min(g.x + r.x * s, frame_w - 1))
    y1 = max(0.0, min(g.y + r.y * s, frame_h - 1))
    x2 = min(g.x + r.x2 * s, frame_w)
    y2 = min(g.y + r.y2 * s, frame_h)
    ix1, iy1 = round(x1), round(y1)
    ix2, iy2 = max(ix1 + 1, round(x2)), max(iy1 + 1, round(y2))
    return Rect(ix1, iy1, ix2 - ix1, iy2 - iy1)
