"""Fixed-resolution square detector contract and a ground-truth oracle.

The detector boundary is deliberately narrow: a detector receives a frame id,
a crop id, and optionally the 608x608 tile pixels, and returns crop-local
detections in model (608) space. The oracle implementation resolves the crop
geometry from its own scene configuration, the same way a remote worker
resolves crops from the run settings it was started with, so local and remote
evaluation run identical code paths.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class DetectorProfile:
    """Static capabilities of a detector instance.

    An empty supported_classes set means the detector is unrestricted.
    """

    input_side: int = MODEL_SIDE
    supported_classes: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.input_side < 1:
            raise ValueError(f"input_side must be >= 1, got {self.input_side}")


class Detector(ABC):
    """Interface every detector implementation provides.

    Implementations must be safe for concurrent calls from multiple dispatch
    threads, or say in their docstring that calls must be serialized.
    """

    profile: DetectorProfile

    @abstractmethod
    def detect(
        self, frame_id: int, crop_id: int, tile: np.ndarray | None = None
    ) -> list[Detection]:
        """Detect objects on one crop.

        ``tile``, when given, must be an input_side x input_side x 3 uint8
        array; implementations that work from scene configuration alone
        accept ``None``. Returns crop-local detections in 608 space sorted
        by descending confidence.
        """


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
    fidelity but never inspected. All state is immutable after construction,
    so instances are safe for concurrent use.
    """

    def __init__(
        self,
        crops_by_id: Mapping[int, CropSpec],
        gt_by_frame: Mapping[int, Sequence[GroundTruthObject]],
        visibility_threshold: float = 0.3,
        *,
        min_tile_px: int = 8,
        profile: DetectorProfile | None = None,
    ):
        if not 0.0 < visibility_threshold <= 1.0:
            raise ValueError(
                f"visibility_threshold must be in (0, 1], got {visibility_threshold}"
            )
        if min_tile_px < 0:
            raise ValueError(f"min_tile_px must be >= 0, got {min_tile_px}")
        self._crops = dict(crops_by_id)
        self._gt = {fid: tuple(objs) for fid, objs in gt_by_frame.items()}
        self._visibility_threshold = visibility_threshold
        self._min_tile_px = min_tile_px
        if profile is None:
            classes = frozenset(
                obj.class_label for objs in self._gt.values() for obj in objs
            )
            profile = DetectorProfile(supported_classes=classes)
        self.profile = profile

    def detect(
        self, frame_id: int, crop_id: int, tile: np.ndarray | None = None
    ) -> list[Detection]:
        if tile is not None:
            side = self.profile.input_side
            if not isinstance(tile, np.ndarray) or tile.shape != (side, side, 3):
                got = tile.shape if isinstance(tile, np.ndarray) else type(tile)
                raise ValueError(f"tile must be {side}x{side}x3, got {got}")
        if crop_id not in self._crops:
            raise ValueError(f"unknown crop_id: {crop_id}")
        crop = self._crops[crop_id]
        gt = self._gt.get(frame_id, ())
        dets = mock_detect(
            crop, gt, self._visibility_threshold, min_tile_px=self._min_tile_px
        )
        if self.profile.supported_classes:
            dets = [d for d in dets if d.class_label in self.profile.supported_classes]
        return dets


class NoisyOracle(Detector):
    """Oracle wrapper that drops detections at a seeded, per-crop miss rate.

    The drop decision depends only on (seed, frame_id, crop_id) and the
    detection order, never on call order, so results stay reproducible under
    pipelined or multi-worker dispatch. Meant for robustness tests; not used
    by acceptance runs.
    """

    def __init__(self, base: Detector, miss_rate: float, seed: int = 0):
        if not 0.0 <= miss_rate <= 1.0:
            raise ValueError(f"miss_rate must be in [0, 1], got {miss_rate}")
        self._base = base
        self._miss_rate = miss_rate
        self._seed = seed
        self.profile = base.profile

    def detect(
        self, frame_id: int, crop_id: int, tile: np.ndarray | None = None
    ) -> list[Detection]:
        dets = self._base.detect(frame_id, crop_id, tile)
        if self._miss_rate == 0.0:
            return dets
        rng = random.Random(f"{self._seed}:{frame_id}:{crop_id}")
        return [d for d in dets if rng.random() >= self._miss_rate]


def cut_tile(
    pixels: np.ndarray,
    crop: CropSpec,
    input_side: int = MODEL_SIDE,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Cut a crop from frame pixels and resample it to input_side squared.

    Nearest-neighbor resampling with source index floor(u * side / input_side)
    for output pixel u; the choice is fixed so tiles are bit-reproducible.
    Crop area outside the frame is zero-filled.

    ``out``, when given, is a C-contiguous input_side x input_side x 3 array
    of the pixels' dtype, such as one tile of a request buffer; every pixel
    of it is overwritten and it is returned. Otherwise a new array is.
    """
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"pixels must be HxWx3, got shape {pixels.shape}")
    if out is None:
        out = np.empty((input_side, input_side, 3), dtype=pixels.dtype)
    frame_h, frame_w = pixels.shape[:2]
    side = int(crop.global_rect.w)
    x0 = int(crop.global_rect.x)
    y0 = int(crop.global_rect.y)
    src = (np.arange(input_side, dtype=np.int64) * side) // input_side
    xs = x0 + src
    ys = y0 + src
    # the sampled positions ascend, so the clipped ones span one window of
    # the frame; gather rows, then columns, from that window alone
    xc = np.clip(xs, 0, frame_w - 1)
    yc = np.clip(ys, 0, frame_h - 1)
    window = pixels[yc[0] : yc[-1] + 1, xc[0] : xc[-1] + 1]
    rows = np.take(window, yc - yc[0], axis=0)
    np.take(rows, xc - xc[0], axis=1, out=out, mode="clip")
    out[(ys < 0) | (ys >= frame_h)] = 0
    out[:, (xs < 0) | (xs >= frame_w)] = 0
    return out
