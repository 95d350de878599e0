"""Benchmark inputs: the frames, ground truth and reference output of one
scene for one seed, built in a separate process and cached on disk.

The program sees only what `tilepipe run` sees: a directory of PPM frames
(for scenes with pixels) and gt.jsonl. The reference is the raster-free local
run of the scene. The oracle ignores pixels, so every workload on a scene must
reproduce it line for line.

Cache entries are keyed by scene, seed and a hash of the program's and the
generator's source, so an edited program never reads a stale reference.

Build one entry by hand with:
    python3 -m perfbench.inputs --scene 4k-mixed --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from tilepipe.detector import GroundTruthObject
from tilepipe.frameio import frame_file_name, result_line, write_ground_truth, write_ppm
from tilepipe.pipeline import Frame, PipelineSettings, oracle_for_scene, run_sequence
from tilepipe.synthetic import SceneSpec, generate_scene, render_frame

from perfbench.check import line_digest
from perfbench.workloads import WORKLOADS

CACHE_DIR = ".perfbench_cache"
# Entries with frames hold about 400 MB of PPM; keep only the newest few.
# Raster-free entries take a few MB and cost seconds to rebuild; keep them.
CACHE_KEEP_FRAMES = 3
GENERATE_TIMEOUT_S = 30


def subprocess_env(root: Path) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src"), str(root)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def source_hash(root: Path) -> str:
    digest = hashlib.sha256()
    files = sorted((root / "src" / "tilepipe").rglob("*.py"))
    files += [root / "perfbench" / "inputs.py", root / "perfbench" / "workloads.py"]
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def ensure(root: Path, scene, seed: int) -> Path:
    """The cache entry for (scene, seed), generating it when missing."""
    cache = root / CACHE_DIR / "inputs"
    cache.mkdir(parents=True, exist_ok=True)
    entry = cache / f"{scene.name}-seed{seed}-{source_hash(root)}"
    ready = entry / "ready"
    if not ready.is_file():
        tmp = cache / f".tmp-{os.getpid()}-{entry.name}"
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            subprocess.run(
                [sys.executable, "-m", "perfbench.inputs", "--scene", scene.name,
                 "--seed", str(seed), "--out", str(tmp)],
                cwd=root, env=subprocess_env(root), check=True,
                stdout=subprocess.DEVNULL, timeout=GENERATE_TIMEOUT_S,
            )
            shutil.rmtree(entry, ignore_errors=True)
            os.rename(tmp, entry)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    ready.touch()
    _evict(cache)
    return entry


def _evict(cache: Path) -> None:
    with_frames = sorted(
        (p for p in cache.iterdir() if (p / "ready").is_file() and (p / "frames").is_dir()),
        key=lambda p: (p / "ready").stat().st_mtime,
        reverse=True,
    )
    for stale in with_frames[CACHE_KEEP_FRAMES:]:
        shutil.rmtree(stale, ignore_errors=True)


def scene_truth(scene, seed: int) -> dict:
    """Ground truth by frame id: the scene's clips laid end to end."""
    gt = {}
    for clip in range(scene.clips):
        # distinct per (seed, clip) while a scene has fewer than 1000 clips
        spec = SceneSpec(
            scene.kind, scene.width, scene.height, scene.clip_frames,
            seed=seed * 1000 + clip, object_count=scene.objects,
        )
        for offset, objects in generate_scene(spec).items():
            gt[clip * scene.clip_frames + offset] = [
                GroundTruthObject(o.rect, o.class_label, f"c{clip}.{o.object_id}")
                for o in objects
            ]
    return gt


def reference_lines(scene, gt) -> list[str]:
    """Result lines of the raster-free local run, as `tilepipe run` makes
    them without a frames directory."""
    settings = PipelineSettings.from_preset(scene.preset)
    oracle = oracle_for_scene(scene.width, scene.height, settings, gt)
    frames = [Frame(fid, scene.width, scene.height) for fid in sorted(gt)]
    return [result_line(r) for r in run_sequence(frames, settings, oracle)]


def build(scene, seed: int, out: Path) -> None:
    out.mkdir(parents=True)
    gt = scene_truth(scene, seed)
    write_ground_truth(gt, out / "gt.jsonl")
    if scene.pixels:
        frames = out / "frames"
        frames.mkdir()
        for fid, objects in gt.items():
            pixels = render_frame(scene.width, scene.height, objects)
            write_ppm(frames / frame_file_name(fid), pixels)
    lines = reference_lines(scene, gt)
    expected = [[fid, line_digest(line)] for fid, line in zip(sorted(gt), lines)]
    (out / "reference.json").write_text(json.dumps(expected))
    (out / "ready").touch()


def main(argv=None) -> int:
    scenes = {w.scene.name: w.scene for w in WORKLOADS.values()}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", required=True, choices=sorted(scenes))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    build(scenes[args.scene], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
