"""The benchmark's workloads: which inputs, which settings, which entry point.

A scene is what the program is given: a sequence of frames with ground truth
and the preset it runs with. It is built from independent clips so that one
seed averages over many object layouts. On the dense 8K scene the time of one
layout varies by about a third, so that scene uses many one-frame clips;
every final crop is active there, so temporal attention has nothing to skip.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed whose per-frame output digests are stored in digests.json.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Scene:
    name: str
    kind: str
    width: int
    height: int
    objects: int
    clips: int
    clip_frames: int
    preset: str
    pixels: bool

    @property
    def frame_count(self) -> int:
        return self.clips * self.clip_frames


@dataclass(frozen=True)
class Workload:
    name: str
    scene: Scene
    cluster: bool


SCENE_4K_MIXED = Scene(
    "4k-mixed", "mixed", 3840, 2160, objects=10, clips=8, clip_frames=2,
    preset="1 att, 2 fin, 20 over", pixels=True,
)
SCENE_8K_DENSE = Scene(
    "8k-dense", "dense", 7680, 4320, objects=150, clips=96, clip_frames=1,
    preset="1 att, 3 fin, 20 over", pixels=False,
)

# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("local-4k-mixed", SCENE_4K_MIXED, cluster=False),
        Workload("local-8k-dense", SCENE_8K_DENSE, cluster=False),
        Workload("cluster-4k-mixed", SCENE_4K_MIXED, cluster=True),
    )
}
