"""Deterministic synthetic scenes: moving boxes with ground truth, plus a
flat-color renderer for producing matching frame rasters.

Scene kinds:
  sparse    a few mid-sized objects scattered around
  dense     many mid-sized objects
  small     only objects a downscaled whole-frame pass tends to miss
  mixed     small and mid-sized objects together
  straddle  tall objects centered on horizontal thirds of the frame, where
            fine-grid crop borders typically fall
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

import numpy as np

from .detector import GroundTruthObject
from .geometry import Rect

SCENE_KINDS = ("sparse", "dense", "small", "mixed", "straddle")

DEFAULT_COUNTS = {"sparse": 4, "dense": 24, "small": 8, "mixed": 10, "straddle": 5}

# object side as a fraction of the frame's smaller dimension
SMALL_SIZE = (0.014, 0.021)
NORMAL_SIZE = (0.037, 0.093)

PALETTE = {
    "person": (200, 60, 60),
    "car": (60, 120, 200),
    "bus": (220, 180, 40),
}

BACKGROUND = (24, 24, 24)


def class_color(label: str) -> tuple[int, int, int]:
    if label in PALETTE:
        return PALETTE[label]
    crc = zlib.crc32(label.encode("utf-8"))
    return (96 + (crc & 0x7F), 96 + ((crc >> 8) & 0x7F), 96 + ((crc >> 16) & 0x7F))


@dataclass(frozen=True)
class SceneSpec:
    """What to generate; equal specs always produce identical scenes."""

    kind: str
    width: int
    height: int
    frame_count: int
    seed: int = 0
    object_count: int | None = None

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"kind must be one of {SCENE_KINDS}, got {self.kind!r}")
        if self.width < 64 or self.height < 64:
            raise ValueError("frame must be at least 64x64")
        if self.frame_count < 1:
            raise ValueError("frame_count must be >= 1")
        if self.object_count is not None and self.object_count < 1:
            raise ValueError("object_count must be >= 1")


@dataclass
class _Mover:
    label: str
    w: float
    h: float
    x: float
    y: float
    vx: float
    vy: float
    object_id: str

    def step(self, frame_w: int, frame_h: int) -> None:
        self.x += self.vx
        self.y += self.vy
        if self.x < 0 or self.x + self.w > frame_w:
            self.vx = -self.vx
            self.x = min(max(self.x, 0), frame_w - self.w)
        if self.y < 0 or self.y + self.h > frame_h:
            self.vy = -self.vy
            self.y = min(max(self.y, 0), frame_h - self.h)


def _sample_side(rng: random.Random, size_range, min_dim: int) -> int:
    lo, hi = size_range
    return max(4, round(rng.uniform(lo, hi) * min_dim))


def _make_movers(spec: SceneSpec, rng: random.Random) -> list[_Mover]:
    count = spec.object_count or DEFAULT_COUNTS[spec.kind]
    min_dim = min(spec.width, spec.height)
    speed = max(1, min_dim // 360)
    movers = []
    for i in range(count):
        if spec.kind == "small":
            size_range = SMALL_SIZE
        elif spec.kind == "mixed":
            size_range = SMALL_SIZE if i % 2 == 0 else NORMAL_SIZE
        else:
            size_range = NORMAL_SIZE
        w = _sample_side(rng, size_range, min_dim)
        h = _sample_side(rng, size_range, min_dim)
        label = rng.choice(("person", "car"))
        if spec.kind == "straddle":
            # tall object centered on a horizontal third of the frame
            label = "person"
            h = max(h, round(0.12 * min_dim))
            border_y = spec.height * (1 + i % 2) // 3
            x = rng.uniform(0, spec.width - w)
            y = min(max(border_y - h / 2, 0), spec.height - h)
        else:
            x = rng.uniform(0, spec.width - w)
            y = rng.uniform(0, spec.height - h)
        vx = rng.choice((-3, -2, -1, 1, 2, 3)) * speed
        vy = rng.choice((-3, -2, -1, 1, 2, 3)) * speed
        movers.append(_Mover(label, w, h, round(x), round(y), vx, vy, f"obj{i}"))
    return movers


def generate_scene(spec: SceneSpec) -> dict[int, list[GroundTruthObject]]:
    """Ground truth for every frame of the scene, keyed by frame id."""
    rng = random.Random(f"{spec.kind}:{spec.width}x{spec.height}:{spec.seed}")
    movers = _make_movers(spec, rng)
    scene: dict[int, list[GroundTruthObject]] = {}
    for frame_id in range(spec.frame_count):
        objects = []
        for mover in movers:
            rect = Rect(round(mover.x), round(mover.y), mover.w, mover.h)
            objects.append(GroundTruthObject(rect, mover.label, mover.object_id))
            mover.step(spec.width, spec.height)
        scene[frame_id] = objects
    return scene


def render_frame(
    width: int, height: int, objects, background=BACKGROUND
) -> np.ndarray:
    """Draw objects as filled class-colored rectangles on a flat backdrop."""
    canvas = np.empty((height, width, 3), dtype=np.uint8)
    canvas[:, :] = background
    for obj in objects:
        x0 = max(0, round(obj.rect.x))
        y0 = max(0, round(obj.rect.y))
        x1 = min(width, round(obj.rect.x2))
        y1 = min(height, round(obj.rect.y2))
        if x1 > x0 and y1 > y0:
            canvas[y0:y1, x0:x1] = class_color(obj.class_label)
    return canvas
