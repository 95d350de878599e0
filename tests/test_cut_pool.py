"""The cut pool: each stage's tiles are cut in parallel on one process-wide
pool, while detection stays serial on the calling thread, in crop order."""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_pipeline as reference
import tilepipe
from tilepipe import pipeline
from tilepipe.detector import Detector, GroundTruthObject
from tilepipe.distribution.client import _Session, cut_requests
from tilepipe.frameio import result_line
from tilepipe.geometry import MODEL_SIDE, TILE_BYTES, CropSpec, Rect
from tilepipe.pipeline import (
    Frame,
    GridPlan,
    PipelineSettings,
    StageFailure,
    detect_crops,
    in_parallel,
    oracle_for_scene,
    run_sequence,
    usable_cpus,
)

# a child writes no bytecode caches when this interpreter does not
PYTHON = [sys.executable, *(["-B"] if sys.flags.dont_write_bytecode else [])]

SETTINGS_720 = PipelineSettings.from_preset("1 att, 3 fin, 50 over")
SCENE = {
    0: [GroundTruthObject(Rect(100, 100, 80, 80), "person", "a")],
    1: [GroundTruthObject(Rect(600, 420, 70, 140), "person", "b")],
    2: [],
    3: [GroundTruthObject(Rect(900, 500, 90, 90), "car", "c")],
}


def random_pixels(height, width, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)


def make_crop(crop_id, x, y, side):
    return CropSpec(crop_id, 0, 0, Rect(x, y, side, side), side / MODEL_SIDE)


def pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("tilepipe-cut")]


class NullDetector(Detector):
    def detect(self, frame_id, crop_ids, tiles=None):
        return [[] for _ in crop_ids]


class RecordingDetector(Detector):
    """Records, for each crop id it is asked for, the calling thread and a
    copy of the crop's tile."""

    def __init__(self, base):
        self.base = base
        self.calls = []

    def detect(self, frame_id, crop_ids, tiles=None):
        ident = threading.get_ident()
        self.calls.extend((c, ident, tile.copy()) for c, tile in zip(crop_ids, tiles))
        return self.base.detect(frame_id, crop_ids, tiles)


class TileHashDetector(Detector):
    """The oracle's boxes with confidences taken from a hash of each tile,
    so a wrong pixel changes the results."""

    def __init__(self, base):
        self.base = base

    def detect(self, frame_id, crop_ids, tiles=None):
        found = []
        for tile, dets in zip(tiles, self.base.detect(frame_id, crop_ids, tiles)):
            salt = zlib.crc32(tile.tobytes()) % 1000
            found.append([replace(d, confidence=0.5 + salt / 2000) for d in dets])
        return found


@st.composite
def crop_lists(draw):
    height = draw(st.integers(1, 400))
    width = draw(st.integers(1, 400))
    count = draw(st.integers(0, 5))
    crops = [
        make_crop(
            i,
            draw(st.integers(-200, width)),
            draw(st.integers(-200, height)),
            draw(st.integers(1, 900)),
        )
        for i in range(count)
    ]
    return height, width, crops, draw(st.integers(0, 2**16))


@settings(max_examples=25, deadline=None)
@given(case=crop_lists(), buffer=st.sampled_from(["array", "block"]))
@example(case=(300, 400, [], 0), buffer="array")
@example(case=(300, 400, [], 0), buffer="block")
@example(case=(300, 400, [make_crop(7, 10, 20, 250)], 1), buffer="array")
@example(case=(300, 400, [make_crop(7, 10, 20, 250)], 1), buffer="block")
def test_request_payload_is_the_reference_tiles(case, buffer):
    """The tile bytes a request sends, cut into a fresh array (the TCP
    payload) or into a shared-memory block one tile larger than needed."""
    height, width, crops, seed = case
    frame = Frame(0, width, height, random_pixels(height, width, seed))
    want = b"".join(reference.cut_tile(frame.pixels, c).tobytes() for c in crops)
    endpoint = "127.0.0.1:9"
    with _Session(timeout_s=1.0) as session:
        block = None
        if buffer == "block":
            session.same_host = frozenset([endpoint])
            block = session.block(endpoint, len(want) + TILE_BYTES)
        requests = cut_requests(frame, crops, [endpoint], session)
        entries = [e for r in requests for e in r.header["crops"]]
        payload = b"".join(bytes(r.payload) for r in requests)
        if block is None:
            assert payload == want
        else:
            assert payload == b""
            assert all(r.header["shm"] == block.name for r in requests)
            assert block.buf[: len(want)] == want
        del requests
    assert entries == [{"crop_id": c.crop_id} for c in crops]


class TestDetectCrops:
    def test_detects_serially_in_crop_order_on_the_calling_thread(self):
        plan = GridPlan.build(1280, 720, SETTINGS_720)
        crops = plan.final_grid.crops
        frame = Frame(0, 1280, 720, random_pixels(720, 1280, 3))
        det = RecordingDetector(oracle_for_scene(1280, 720, SETTINGS_720, SCENE))
        found = detect_crops(frame, crops, det, "final")
        assert [c for c, _, _ in det.calls] == [c.crop_id for c in crops]
        assert {ident for _, ident, _ in det.calls} == {threading.get_ident()}
        for crop, (_, _, tile) in zip(crops, det.calls):
            assert np.array_equal(tile, reference.cut_tile(frame.pixels, crop))
        assert list(found) == [c.crop_id for c in crops]

    @pytest.mark.parametrize("stage", ["attention", "final"])
    def test_failed_cut_is_a_stage_failure(self, stage, monkeypatch):
        real = pipeline.cut_tile

        def cut_tile(pixels, crop, *args, **kwargs):
            if crop.crop_id == 2:
                raise RuntimeError("cannot cut")
            return real(pixels, crop, *args, **kwargs)

        monkeypatch.setattr(pipeline, "cut_tile", cut_tile)
        crops = [make_crop(i, 10 * i, 0, 100) for i in range(4)]
        frame = Frame(5, 200, 120, random_pixels(120, 200, 0))
        det = RecordingDetector(NullDetector())
        with pytest.raises(StageFailure) as info:
            detect_crops(frame, crops, det, stage)
        assert (info.value.stage, info.value.frame_id) == (stage, 5)
        assert det.calls == []

    def test_stages_never_cut_on_more_threads_than_cpus(self, monkeypatch):
        real = pipeline.cut_tile
        names = set()

        def cut_tile(*args, **kwargs):
            names.add(threading.current_thread().name)
            time.sleep(0.002)  # long enough for every pool thread to join in
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "cut_tile", cut_tile)
        crops = [make_crop(i, 5 * i, 3 * i, 120) for i in range(30)]
        frame = Frame(0, 320, 200, random_pixels(200, 320, 1))
        found = []

        def stage(name):
            found.append(detect_crops(frame, crops, NullDetector(), name))

        # two stages at once, as the attention and final dispatch threads do
        run_threads([lambda: stage("attention"), lambda: stage("final")])
        assert len(found) == 2
        assert all(name.startswith("tilepipe-cut") for name in names)
        assert 1 <= len(names) <= usable_cpus()
        assert len(pool_threads()) <= usable_cpus()


class TestInParallel:
    def test_single_item_runs_inline(self):
        seen = []
        in_parallel(lambda i: seen.append((i, threading.get_ident())), 1)
        assert seen == [(0, threading.get_ident())]

    def test_no_items(self):
        in_parallel(lambda i: pytest.fail("called"), 0)

    def test_every_call_finishes_before_the_first_failure_is_raised(self):
        done = []

        def fn(i):
            if i in (1, 3):
                raise ValueError(i)
            time.sleep(0.01)
            done.append(i)

        with pytest.raises(ValueError) as info:
            in_parallel(fn, 6)
        assert info.value.args == (1,)
        assert sorted(done) == [0, 2, 4, 5]


def run_threads(targets, timeout_s=30):
    """Start one thread per callable at once and join each with a timeout."""
    threads = [threading.Thread(target=t) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout_s)
    assert not any(thread.is_alive() for thread in threads)


def test_concurrent_sequences_match_serial_runs():
    frames = [Frame(f, 1280, 720, random_pixels(720, 1280, f)) for f in SCENE]
    det = TileHashDetector(oracle_for_scene(1280, 720, SETTINGS_720, SCENE))

    def lines(mode):
        return [result_line(r) for r in run_sequence(frames, SETTINGS_720, det, mode=mode)]

    # two generators of each mode, more drivers than this host has CPUs
    runs = [mode for mode in ("pipeline", "allcrops", "downscale") for _ in range(2)]
    serial = {mode: lines(mode) for mode in set(runs)}
    start = threading.Barrier(len(runs))
    concurrent = [None] * len(runs)

    def driver(i):
        def drive():
            start.wait()
            concurrent[i] = lines(runs[i])

        return drive

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_threads([driver(i) for i in range(len(runs))])
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == [serial[mode] for mode in runs]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_pool():
    in_parallel(lambda i: None, 4)  # the parent's pool is running
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:
        try:
            done = []
            in_parallel(done.append, 4)
            os._exit(0 if sorted(done) == [0, 1, 2, 3] else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        waited, status = os.waitpid(pid, os.WNOHANG)
        if waited:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("in_parallel hung in a forked child")


def test_import_starts_no_threads():
    src = str(Path(tilepipe.__file__).parents[1])
    code = (
        "import threading, tilepipe.distribution, tilepipe.cli; "
        "print(threading.active_count())"
    )
    out = subprocess.run(
        [*PYTHON, "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "1"
