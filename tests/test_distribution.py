"""Worker/client integration over localhost sockets."""

import os
import random
import socket
import struct
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tilepipe
from test_cut_pool import TileHashDetector
from tilepipe.detector import Detector, DetectorProfile, GroundTruthObject
from tilepipe.distribution import (
    ClusterConfig,
    DetectorServer,
    RemoteFault,
    StreamAborted,
    WorkerMismatch,
    WorkerTimeout,
    WorkerUnavailable,
    check_health,
    dispatch,
    evaluate_remote,
    run_stream,
)
from tilepipe.distribution import client, shm, wire, worker
from tilepipe.geometry import Rect
from tilepipe.pipeline import (
    Frame,
    GridPlan,
    PipelineSettings,
    oracle_for_scene,
    run_sequence,
)


def gt(x, y, w, h, label="person", oid=None):
    oid = oid or f"{x}:{y}:{w}:{h}"
    return GroundTruthObject(Rect(x, y, w, h), label, oid)


SETTINGS_720 = PipelineSettings.from_preset("1 att, 3 fin, 50 over")

SCENE = {
    0: [gt(100, 100, 80, 80), gt(600, 420, 70, 140), gt(50, 120, 60, 200)],
    1: [gt(120, 110, 80, 80), gt(610, 425, 70, 140)],
    2: [],
    3: [gt(900, 500, 90, 90, label="car")],
}


def make_oracle():
    return oracle_for_scene(1280, 720, SETTINGS_720, SCENE)


def make_plan():
    return GridPlan.build(1280, 720, SETTINGS_720)


class DelayDetector(Detector):
    """Adds fixed latency per crop, for scheduling assertions."""

    def __init__(self, base, seconds):
        self.base = base
        self.profile = base.profile
        self.seconds = seconds

    def detect(self, frame_id, crop_id, tile=None):
        time.sleep(self.seconds)
        return self.base.detect(frame_id, crop_id, tile)


class FailOnFrame(Detector):
    def __init__(self, base, bad_frame_id):
        self.base = base
        self.profile = base.profile
        self.bad_frame_id = bad_frame_id

    def detect(self, frame_id, crop_id, tile=None):
        if frame_id == self.bad_frame_id:
            raise RuntimeError("refusing this frame")
        return self.base.detect(frame_id, crop_id, tile)


class TestDispatch:
    def test_even_split(self):
        out = dispatch(list(range(8)), ["a", "b", "c", "d"])
        assert [len(part) for _, part in out] == [2, 2, 2, 2]

    def test_uneven_split(self):
        out = dispatch(list(range(7)), ["a", "b", "c", "d"])
        assert [len(part) for _, part in out] == [2, 2, 2, 1]

    def test_more_workers_than_items(self):
        out = dispatch([1, 2, 3], list("abcdefgh"))
        assert [len(part) for _, part in out] == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_chunks_are_contiguous(self):
        items = list(range(23))
        out = dispatch(items, ["a", "b", "c", "d", "e"])
        flattened = [x for _, part in out for x in part]
        assert flattened == items

    def test_balance_property(self):
        rng = random.Random(7)
        for _ in range(200):
            k = rng.randrange(0, 50)
            n = rng.randrange(1, 12)
            sizes = [len(part) for _, part in dispatch(list(range(k)), ["w"] * n)]
            assert sum(sizes) == k
            assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        items = list(range(9))
        workers = ["a", "b"]
        assert dispatch(items, workers) == dispatch(items, workers)

    def test_requires_workers(self):
        with pytest.raises(ValueError):
            dispatch([1], [])


class TestClusterConfig:
    def test_requires_final_worker(self):
        with pytest.raises(ValueError):
            ClusterConfig(final_workers=())

    def test_attention_workers_optional(self):
        cluster = ClusterConfig(final_workers=("h:1",))
        assert cluster.attention_workers == ()
        assert cluster.request_timeout_s == 30.0

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            ClusterConfig(final_workers=("h:1",), request_timeout_s=0)


def raw_exchange(endpoint, messages):
    """Send framed messages on one connection; return raw reply bytes."""
    host, _, port = endpoint.rpartition(":")
    replies = []
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.settimeout(5)
        for raw in messages:
            sock.sendall(raw)
            head = wire._recv_exact(sock, 4)
            (n,) = struct.unpack(">I", head)
            body = wire._recv_exact(sock, n)
            replies.append(head + body)
    return replies


class TestWorker:
    def test_health(self):
        with DetectorServer(make_oracle()) as server:
            reply = check_health(server.endpoint)
        assert reply == {"type": "HEALTH_OK", "input_side": 608}

    def test_zero_crops(self):
        with DetectorServer(make_oracle()) as server:
            (raw,) = raw_exchange(server.endpoint, [wire.eval_request(0, [])])
        assert (
            raw
            == b'\x00\x00\x00\x32{"frame_id":0,"results":[],"type":"EVAL_RESPONSE"}'
        )

    def test_worker_matches_in_process_oracle(self):
        oracle = make_oracle()
        plan = make_plan()
        frame = Frame(0, 1280, 720)
        with DetectorServer(oracle) as server:
            by_crop, _, _ = evaluate_remote(
                frame, plan.final_grid.crops, [server.endpoint], 5.0
            )
        for crop in plan.final_grid.crops:
            assert by_crop[crop.crop_id] == oracle.detect(0, crop.crop_id)

    def test_response_bytes_deterministic(self):
        plan = make_plan()
        entries = [
            {"crop_id": c.crop_id, "width": 0, "height": 0}
            for c in plan.final_grid.crops
        ]
        request = wire.eval_request(0, entries)
        with DetectorServer(make_oracle()) as server:
            first, second = raw_exchange(server.endpoint, [request, request])
        assert first == second

    def test_unknown_crop_id_is_error_and_connection_survives(self):
        bad = wire.eval_request(0, [{"crop_id": 999, "width": 0, "height": 0}])
        health = wire.encode_message({"type": "HEALTH"})
        with DetectorServer(make_oracle()) as server:
            error_raw, health_raw = raw_exchange(server.endpoint, [bad, health])
        assert b'"ERROR"' in error_raw
        assert b"999" in error_raw
        assert b'"HEALTH_OK"' in health_raw

    def test_unknown_type_is_error_and_connection_survives(self):
        junk = wire.encode_message({"type": "NOPE"})
        health = wire.encode_message({"type": "HEALTH"})
        with DetectorServer(make_oracle()) as server:
            error_raw, health_raw = raw_exchange(server.endpoint, [junk, health])
        assert b"unsupported_type" in error_raw
        assert b'"HEALTH_OK"' in health_raw

    def test_tile_payload_accepted(self):
        oracle = make_oracle()
        plan = make_plan()
        pixels = np.zeros((720, 1280, 3), dtype=np.uint8)
        frame = Frame(0, 1280, 720, pixels)
        with DetectorServer(oracle) as server:
            by_crop, _, _ = evaluate_remote(
                frame, plan.final_grid.crops, [server.endpoint], 5.0
            )
        bare = Frame(0, 1280, 720)
        with DetectorServer(oracle) as server:
            bare_by_crop, _, _ = evaluate_remote(
                bare, plan.final_grid.crops, [server.endpoint], 5.0
            )
        assert by_crop == bare_by_crop

    def test_oversized_payload_is_malformed_and_closes(self):
        side = 20000  # 1.2 GB of tile, over wire.MAX_PAYLOAD_BYTES
        head = wire.canonical_json(
            {
                "type": "EVAL_REQUEST",
                "frame_id": 0,
                "crops": [{"crop_id": 0, "width": side, "height": side}],
            }
        )
        assert side * side * 3 > wire.MAX_PAYLOAD_BYTES
        with DetectorServer(make_oracle()) as server:
            host, port = server.endpoint.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                sock.settimeout(5)
                sock.sendall(struct.pack(">I", len(head)) + head)  # no payload
                reply, _ = wire.recv_message(sock)
                assert sock.recv(1) == b""  # the worker closed the connection
        assert reply["type"] == "ERROR"
        assert reply["code"] == "malformed"
        assert "payload" in reply["message"]


class RecordingDetector(Detector):
    def __init__(self, base):
        self.base = base
        self.profile = base.profile
        self.calls = []

    def detect(self, frame_id, crop_id, tile=None):
        self.calls.append(crop_id)
        return self.base.detect(frame_id, crop_id, tile)


TILE_BYTES = 608 * 608 * 3
GOOD_CROP = {"crop_id": 0, "width": 608, "height": 608}

# (crop entry that follows a good one, payload bytes declared by the pair);
# each request reaches the worker framed, with the bytes its header implies
BAD_CROPS = {
    "string_crop_id": ({"crop_id": "1", "width": 0, "height": 0}, TILE_BYTES),
    "bool_crop_id": ({"crop_id": True, "width": 0, "height": 0}, TILE_BYTES),
    "float_crop_id": ({"crop_id": 1.0, "width": 0, "height": 0}, TILE_BYTES),
    "negative_width": ({"crop_id": 1, "width": -1, "height": 608}, TILE_BYTES - 608 * 3),
    "not_square": ({"crop_id": 1, "width": 608, "height": 304}, TILE_BYTES * 3 // 2),
    "other_side": ({"crop_id": 1, "width": 100, "height": 100}, TILE_BYTES + 30000),
    "float_side": ({"crop_id": 1, "width": 608.0, "height": 608.0}, 2 * TILE_BYTES),
    "string_side": ({"crop_id": 1, "width": "608", "height": "608"}, 2 * TILE_BYTES),
}


def eval_header(crops):
    return {"type": "EVAL_REQUEST", "frame_id": 0, "crops": crops}


def socketpair_exchange(det, header, payload):
    """One request to a worker handler over a socketpair, then a HEALTH
    check on the same connection; returns both reply headers."""
    client, server = socket.socketpair()
    handler = threading.Thread(
        target=worker._Handler,
        args=(server, "socketpair", SimpleNamespace(detector=det)),
    )
    handler.start()
    try:
        with client:
            client.settimeout(5)
            wire.send_message(client, header, payload)
            reply, _ = wire.recv_message(client)
            wire.send_message(client, {"type": "HEALTH"})
            health, _ = wire.recv_message(client)
    finally:
        handler.join(5)
        server.close()
    assert not handler.is_alive()
    return reply, health


class TestEvalRequestChecks:
    @pytest.mark.parametrize("case", sorted(BAD_CROPS))
    def test_bad_crop_is_malformed_before_any_detection(self, case):
        bad, size = BAD_CROPS[case]
        header = eval_header([GOOD_CROP, bad])
        det = RecordingDetector(make_oracle())
        raw = worker._respond(det, header, bytes(size))
        assert b'"code":"malformed"' in raw
        assert det.calls == []

    @pytest.mark.parametrize("case", sorted(BAD_CROPS))
    def test_bad_crop_is_malformed_over_a_socketpair(self, case):
        bad, size = BAD_CROPS[case]
        det = RecordingDetector(make_oracle())
        reply, health = socketpair_exchange(
            det, eval_header([GOOD_CROP, bad]), bytes(size)
        )
        assert (reply["type"], reply["code"]) == ("ERROR", "malformed")
        assert health["type"] == "HEALTH_OK"
        assert det.calls == []

    @pytest.mark.parametrize("extra", [-1, 1, TILE_BYTES])
    def test_payload_must_match_declared_tiles(self, extra):
        # framing makes the two agree on the wire, so this is checked in process
        header = eval_header([GOOD_CROP, {"crop_id": 1, "width": 0, "height": 0}])
        det = RecordingDetector(make_oracle())
        raw = worker._respond(det, header, bytes(TILE_BYTES + extra))
        assert b'"code":"malformed"' in raw
        assert b"payload" in raw
        assert det.calls == []

    def test_payload_without_tiles_is_malformed(self):
        det = RecordingDetector(make_oracle())
        raw = worker._respond(det, eval_header([]), b"\x00")
        assert b'"code":"malformed"' in raw

    def test_good_request_is_answered(self):
        crops = [GOOD_CROP, {"crop_id": 1, "width": 0, "height": 0}]
        det = RecordingDetector(make_oracle())
        in_process = worker._respond(det, eval_header(crops), bytes(TILE_BYTES))
        reply, health = socketpair_exchange(det, eval_header(crops), bytes(TILE_BYTES))
        assert b'"EVAL_RESPONSE"' in in_process
        assert reply["type"] == "EVAL_RESPONSE"
        assert [row["crop_id"] for row in reply["results"]] == [0, 1]
        assert det.calls == [0, 1, 0, 1]

    @pytest.fixture
    def blocks(self):
        blocks = shm.Blocks()
        yield blocks
        blocks.close()

    def bad_shm_requests(self, blocks):
        """Headers that name a bad block, by case. A header naming a block
        implies no payload, so none is sent."""
        small = blocks.take(TILE_BYTES - 1)
        missing = blocks.prefix + "ffff"
        requests = {
            "missing_block": {"shm": missing},
            "block_smaller_than_tiles": {"shm": small.name},
            "int_name": {"shm": 7},
            "null_name": {"shm": None},
            "list_name": {"shm": [small.name]},
            "name_without_prefix": {"shm": small.name[len(shm.PREFIX):]},
            "path_name": {"shm": shm.PREFIX + "../" + small.name},
        }
        return {
            case: {**eval_header([GOOD_CROP]), **extra}
            for case, extra in requests.items()
        }

    def test_bad_block_is_malformed_before_any_detection(self, blocks):
        for case, header in self.bad_shm_requests(blocks).items():
            det = RecordingDetector(make_oracle())
            raw = worker._respond(det, header, b"")
            assert b'"code":"malformed"' in raw, case
            assert det.calls == [], case

    def test_bad_block_is_malformed_over_a_socketpair(self, blocks):
        for case, header in self.bad_shm_requests(blocks).items():
            det = RecordingDetector(make_oracle())
            reply, health = socketpair_exchange(det, header, b"")
            assert (reply["type"], reply["code"]) == ("ERROR", "malformed"), case
            assert health["type"] == "HEALTH_OK", case
            assert det.calls == [], case

    def test_block_with_a_payload_is_malformed(self, blocks):
        # the framing reads no payload after a header naming a block, so
        # this is checked in process
        block = blocks.take(TILE_BYTES)
        det = RecordingDetector(make_oracle())
        header = {**eval_header([GOOD_CROP]), "shm": block.name}
        raw = worker._respond(det, header, bytes(TILE_BYTES))
        assert b'"code":"malformed"' in raw
        assert det.calls == []

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
            st.text().map(lambda tail: shm.PREFIX + tail),
            st.text("0123456789abcdef", max_size=40).map(lambda t: shm.PREFIX + t),
            st.lists(st.text(), max_size=3),
            st.dictionaries(st.text(), st.integers(), max_size=3),
        )
    )
    def test_random_block_names_are_malformed(self, name):
        det = RecordingDetector(make_oracle())
        header = {**eval_header([GOOD_CROP]), "shm": name}
        raw = worker._respond(det, header, b"")
        assert b'"code":"malformed"' in raw
        assert det.calls == []

    def test_block_request_matches_payload_request(self, blocks):
        # a block one tile larger than the tiles, as a reused block may be
        rng = np.random.default_rng(5)
        tiles = rng.integers(0, 256, 2 * TILE_BYTES, dtype=np.uint8).tobytes()
        crops = [GOOD_CROP, {"crop_id": 1, "width": 608, "height": 608}]
        block = blocks.take(3 * TILE_BYTES)
        block.buf[: len(tiles)] = tiles
        det = TileHashDetector(make_oracle())
        by_payload = worker._respond(det, eval_header(crops), tiles)
        header = {**eval_header(crops), "shm": block.name}
        reply, health = socketpair_exchange(det, header, b"")
        assert reply["type"] == "EVAL_RESPONSE"
        assert wire.encode_message(reply) == by_payload
        assert health["type"] == "HEALTH_OK"

    def test_worker_unmaps_the_block_before_replying(self, blocks):
        block = blocks.take(TILE_BYTES)
        seen = []

        class CountingDetector(RecordingDetector):
            def detect(self, frame_id, crop_id, tile=None):
                seen.append(block_mappings(block.name))
                return super().detect(frame_id, crop_id, tile)

        before = block_mappings(block.name)
        header = {**eval_header([GOOD_CROP]), "shm": block.name}
        raw = worker._respond(CountingDetector(make_oracle()), header, b"")
        assert b'"EVAL_RESPONSE"' in raw
        assert seen == [before + 1]
        assert block_mappings(block.name) == before


def block_mappings(name):
    """How many mappings of the named block this process holds."""
    with open("/proc/self/maps") as maps:
        return sum(1 for line in maps if line.rstrip().endswith("/" + name))


class TestHealthProbe:
    def test_worker_echoes_the_nonce(self):
        blocks = shm.Blocks()
        try:
            probe = blocks.take(shm.PROBE_BYTES)
            probe.buf[: shm.PROBE_BYTES] = b"0123456789abcdef"
            with DetectorServer(make_oracle()) as server:
                reply = check_health(server.endpoint, probe=probe.name)
        finally:
            blocks.close()
        assert reply["probe"] == b"0123456789abcdef".hex()
        assert reply["input_side"] == 608

    @pytest.mark.parametrize("probe", [shm.PREFIX + "ffffffff0", "other", 3, None])
    def test_unreadable_probe_is_answered_with_null(self, probe):
        with DetectorServer(make_oracle()) as server:
            reply = check_health(server.endpoint)
            header = {"type": "HEALTH", "probe": probe}
            probed = worker._respond(make_oracle(), header, b"")
        assert "probe" not in reply
        assert b'"probe":null' in probed
        assert b'"HEALTH_OK"' in probed


class TestBlocks:
    def test_take_reuses_the_smallest_free_block_that_fits(self):
        blocks = shm.Blocks()
        try:
            small, large = blocks.take(100), blocks.take(1000)
            blocks.give_back(small)
            blocks.give_back(large)
            assert blocks.take(50) is small
            assert blocks.take(500) is large
            blocks.give_back(small)
            grown = blocks.take(2000)  # replaces the free block that is too small
            assert grown.size == 2000
            assert shm_entries() >= {large.name, grown.name}
            assert small.name not in shm_entries()
        finally:
            blocks.close()
        assert not shm_entries() & {small.name, large.name, grown.name}

    def test_close_unlinks_blocks_still_out(self):
        blocks = shm.Blocks()
        out = blocks.take(100)
        blocks.close()
        assert out.name not in shm_entries()
        blocks.give_back(out)  # unmaps it
        with pytest.raises(RuntimeError):
            blocks.take(100)

    def test_threads_never_share_a_block(self):
        """More threads than cores take and give back blocks of random
        sizes; each fills its block with its own id and checks it is intact
        before giving the block back."""
        blocks = shm.Blocks()
        threads = 8
        start = threading.Barrier(threads)
        clashes = []

        def worker_thread(ident):
            rng = random.Random(ident)
            start.wait()
            for _ in range(200):
                block = blocks.take(rng.randrange(1, 4096))
                block.buf[:] = bytes([ident]) * block.size
                time.sleep(0)
                if block.buf.tobytes() != bytes([ident]) * block.size:
                    clashes.append(block.name)
                blocks.give_back(block)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker_thread, args=(i,)) for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
            live = {name for name in shm_entries() if name.startswith(blocks.prefix)}
            blocks.close()
        assert not any(thread.is_alive() for thread in pool)
        assert clashes == []
        assert len(live) <= threads
        assert not any(name.startswith(blocks.prefix) for name in shm_entries())


class TestEvaluateRemote:
    def test_transparent_vs_local_single_worker(self):
        frame = Frame(0, 1280, 720)
        local = next(run_sequence([frame], SETTINGS_720, make_oracle()))
        with DetectorServer(make_oracle()) as server:
            cluster = ClusterConfig(final_workers=(server.endpoint,))
            remote = run_stream([frame], SETTINGS_720, cluster)[0]
        assert remote.detections == local.detections
        assert remote.active_count == local.active_count
        assert remote.total_count == local.total_count

    def test_transparent_vs_local_two_workers(self):
        frame = Frame(0, 1280, 720)
        local = next(run_sequence([frame], SETTINGS_720, make_oracle()))
        with DetectorServer(make_oracle()) as w1, DetectorServer(make_oracle()) as w2:
            cluster = ClusterConfig(final_workers=(w1.endpoint, w2.endpoint))
            remote = run_stream([frame], SETTINGS_720, cluster)[0]
        assert remote.detections == local.detections

    def test_slowest_worker_rule(self):
        frame = Frame(0, 1280, 720)
        with DetectorServer(make_oracle()) as w1, DetectorServer(make_oracle()) as w2:
            cluster = ClusterConfig(final_workers=(w1.endpoint, w2.endpoint))
            remote = run_stream([frame], SETTINGS_720, cluster)[0]
        timing = remote.timing
        assert len(timing.per_worker) == 2
        assert timing.final_eval_ms == max(busy for _, busy in timing.per_worker)

    def test_two_workers_roughly_halve_stage_time(self):
        # 4 active crops at ~25 ms each: 1 worker ~100 ms, 2 workers ~50 ms
        oracle = make_oracle()
        plan = make_plan()
        frame = Frame(0, 1280, 720)
        crops = plan.final_grid.crops[:4]
        slow = DelayDetector(oracle, 0.025)
        with DetectorServer(slow) as w1:
            _, one_worker_ms, _ = evaluate_remote(frame, crops, [w1.endpoint], 10.0)
        with DetectorServer(slow) as w1, DetectorServer(slow) as w2:
            _, two_worker_ms, _ = evaluate_remote(
                frame, crops, [w1.endpoint, w2.endpoint], 10.0
            )
        assert one_worker_ms >= 95
        assert two_worker_ms < one_worker_ms * 0.8

    def test_timeout_names_endpoint(self):
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)  # accepts the handshake, never replies
        endpoint = f"127.0.0.1:{silent.getsockname()[1]}"
        plan = make_plan()
        try:
            with pytest.raises(WorkerTimeout) as err:
                evaluate_remote(
                    Frame(0, 1280, 720), plan.final_grid.crops[:1], [endpoint], 0.2
                )
            assert err.value.endpoint == endpoint
        finally:
            silent.close()

    def test_unreachable_worker(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        endpoint = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()  # port now has no listener
        plan = make_plan()
        with pytest.raises(WorkerUnavailable) as err:
            evaluate_remote(
                Frame(0, 1280, 720), plan.final_grid.crops[:1], [endpoint], 0.5
            )
        assert err.value.endpoint == endpoint

    def test_detector_failure_is_remote_fault(self):
        bad = FailOnFrame(make_oracle(), bad_frame_id=0)
        plan = make_plan()
        with DetectorServer(bad) as server:
            with pytest.raises(RemoteFault) as err:
                evaluate_remote(
                    Frame(0, 1280, 720), plan.final_grid.crops[:1],
                    [server.endpoint], 5.0,
                )
        assert err.value.endpoint == server.endpoint

    def test_no_crops_no_requests(self):
        by_crop, stage_ms, per_worker = evaluate_remote(
            Frame(0, 1280, 720), [], ["127.0.0.1:1"], 0.5
        )
        assert by_crop == {}
        assert stage_ms == 0.0
        assert per_worker == ()


def frames(count=4):
    return [Frame(i, 1280, 720) for i in range(count)]


class TestRunStream:
    def local_reference(self, count=4):
        return list(run_sequence(frames(count), SETTINGS_720, make_oracle()))

    def test_matches_local_sequence_pipelined(self):
        local = self.local_reference()
        with DetectorServer(make_oracle()) as att, DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            remote = run_stream(frames(), SETTINGS_720, cluster)
        assert [r.frame_id for r in remote] == [0, 1, 2, 3]
        for ours, theirs in zip(remote, local):
            assert ours.detections == theirs.detections
            assert ours.active_count == theirs.active_count

    def test_matches_local_sequence_sequential(self):
        local = self.local_reference()
        with DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(final_workers=(fin.endpoint,))
            remote = run_stream(frames(), SETTINGS_720, cluster)
        for ours, theirs in zip(remote, local):
            assert ours.detections == theirs.detections
            assert ours.active_count == theirs.active_count

    def test_single_frame_stream(self):
        with DetectorServer(make_oracle()) as att, DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            remote = run_stream(frames(1), SETTINGS_720, cluster)
        assert len(remote) == 1
        assert remote[0].detections == self.local_reference(1)[0].detections

    def test_empty_stream(self):
        with DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(final_workers=(fin.endpoint,))
            assert run_stream([], SETTINGS_720, cluster) == []

    def test_attention_hidden_when_cheaper_than_final(self):
        # attention: 2 crops, final: >= 4 active crops per frame; same
        # per-crop delay makes the attention stage strictly cheaper, so
        # steady-state frames should barely wait on it.
        delay = 0.02
        att_det = DelayDetector(make_oracle(), delay)
        fin_det = DelayDetector(make_oracle(), delay)
        with DetectorServer(att_det) as att, DetectorServer(fin_det) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            remote = run_stream(frames(4), SETTINGS_720, cluster)
        cold = remote[0].timing.attention_wait_ms
        assert cold >= delay * 1000  # nothing hides the first frame
        for result in remote[1:]:
            assert result.timing.attention_wait_ms < cold / 2

    def test_stream_abort_carries_cursor_and_completed(self):
        bad = FailOnFrame(make_oracle(), bad_frame_id=2)
        with DetectorServer(bad) as fin:
            cluster = ClusterConfig(final_workers=(fin.endpoint,))
            with pytest.raises(StreamAborted) as err:
                run_stream(frames(4), SETTINGS_720, cluster)
        assert err.value.cursor == 2
        assert [r.frame_id for r in err.value.completed] == [0, 1]

    def test_holds_at_most_two_frames(self):
        refs = []
        alive_at_pull = []

        def pixel_frames():
            for i in range(6):
                pixels = np.zeros((720, 1280, 3), dtype=np.uint8)
                frame = Frame(i, 1280, 720, pixels)
                refs.append(weakref.ref(frame))
                alive_at_pull.append(sum(ref() is not None for ref in refs))
                yield frame

        with DetectorServer(make_oracle()) as att, DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            remote = run_stream(pixel_frames(), SETTINGS_720, cluster)
        assert [r.frame_id for r in remote] == list(range(6))
        assert max(alive_at_pull) <= 2

    @pytest.mark.parametrize("fail_at", [0, 2])
    def test_iterator_error_aborts_at_the_missing_frame(self, fail_at):
        def failing_frames():
            yield from frames(fail_at)
            raise OSError(f"frame {fail_at} unreadable")

        with DetectorServer(make_oracle()) as att, DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            with pytest.raises(StreamAborted) as err:
                run_stream(failing_frames(), SETTINGS_720, cluster)
        assert err.value.cursor == fail_at
        assert [r.frame_id for r in err.value.completed] == list(range(fail_at))
        assert isinstance(err.value.__cause__, OSError)

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_frame_pulls_charged_to_io(self, pipelined):
        def slow_frames():
            for frame in frames(3):
                time.sleep(0.02)
                yield frame

        with DetectorServer(make_oracle()) as att, DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,),
                attention_workers=(att.endpoint,) if pipelined else (),
            )
            remote = run_stream(slow_frames(), SETTINGS_720, cluster)
        assert [r.frame_id for r in remote] == [0, 1, 2]
        for result in remote:
            assert result.timing.io_ms >= 20

    def test_mixed_frame_sizes_abort(self):
        mixed = [Frame(0, 1280, 720), Frame(1, 640, 480)]
        with DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(final_workers=(fin.endpoint,))
            with pytest.raises(StreamAborted) as err:
                run_stream(mixed, SETTINGS_720, cluster)
        assert err.value.cursor == 1


def shm_entries():
    return {name for name in os.listdir("/dev/shm") if name.startswith(shm.PREFIX)}


@pytest.fixture
def no_leaked_blocks():
    before = shm_entries()
    yield
    assert shm_entries() == before


def pixel_frames(count=4):
    rng = np.random.default_rng(count)
    return [
        Frame(i, 1280, 720, rng.integers(0, 256, (720, 1280, 3), dtype=np.uint8))
        for i in range(count)
    ]


def mismatched_oracle():
    class Mismatched(Detector):
        profile = DetectorProfile(input_side=416)

        def detect(self, frame_id, crop_id, tile=None):
            return make_oracle().detect(frame_id, crop_id, tile)

    return Mismatched()


@pytest.mark.usefixtures("no_leaked_blocks")
class TestSharedMemoryStream:
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_same_host_workers_read_blocks_and_match_tcp(
        self, pipelined, sent_blocks, monkeypatch
    ):
        det = TileHashDetector(make_oracle())
        local = list(run_sequence(pixel_frames(), SETTINGS_720, det))
        with DetectorServer(det) as att, DetectorServer(det) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,),
                attention_workers=(att.endpoint,) if pipelined else (),
            )
            shared = run_stream(pixel_frames(), SETTINGS_720, cluster)
            by_block = list(sent_blocks)
            sent_blocks.clear()
            monkeypatch.setattr(client, "_echoes_probe", lambda reply, nonce: False)
            over_tcp = run_stream(pixel_frames(), SETTINGS_720, cluster)
        assert by_block and all(name.startswith(shm.PREFIX) for name in by_block)
        assert sent_blocks and not any(sent_blocks)
        for ours, theirs, reference in zip(shared, over_tcp, local):
            assert ours.detections == theirs.detections == reference.detections

    def test_raster_free_frames_carry_no_block(self, sent_blocks):
        with DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(final_workers=(fin.endpoint,))
            run_stream(frames(2), SETTINGS_720, cluster)
        assert sent_blocks and not any(sent_blocks)

    def test_blocks_are_reused(self, sent_blocks):
        live = []

        class Watching(TileHashDetector):
            def detect(self, frame_id, crop_id, tile=None):
                live.append(len(shm_entries()))
                return super().detect(frame_id, crop_id, tile)

        before = len(shm_entries())
        det = Watching(make_oracle())
        with DetectorServer(det) as att, DetectorServer(det) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            run_stream(pixel_frames(6), SETTINGS_720, cluster)
        # one attention and one final request at a time: two blocks
        assert max(live) - before <= 2
        assert len(set(sent_blocks)) < len(sent_blocks)

    @pytest.mark.parametrize("full", ["every_block", "tile_blocks"])
    def test_requests_go_over_tcp_when_shared_memory_is_full(
        self, full, sent_blocks, monkeypatch
    ):
        real = shm._reserve

        def reserve(name, nbytes):
            if full == "every_block" or nbytes > shm.PROBE_BYTES:
                raise OSError(28, "No space left on device")
            return real(name, nbytes)

        monkeypatch.setattr(shm, "_reserve", reserve)
        det = TileHashDetector(make_oracle())
        local = list(run_sequence(pixel_frames(), SETTINGS_720, det))
        with DetectorServer(det) as att, DetectorServer(det) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            remote = run_stream(pixel_frames(), SETTINGS_720, cluster)
        assert sent_blocks and not any(sent_blocks)
        for ours, reference in zip(remote, local):
            assert ours.detections == reference.detections

    def test_blocks_unlinked_after_a_worker_shuts_down(self, sent_blocks):
        with DetectorServer(make_oracle()) as att, DetectorServer(make_oracle()) as fin:

            def stopping():
                for frame in pixel_frames(4):
                    if frame.frame_id == 2:
                        fin.shutdown()
                    yield frame

            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            with pytest.raises(StreamAborted) as err:
                run_stream(stopping(), SETTINGS_720, cluster)
        assert err.value.cursor == 1
        assert isinstance(err.value.__cause__, WorkerUnavailable)
        assert any(sent_blocks)

    def test_blocks_unlinked_after_an_iterator_error(self, sent_blocks):
        def failing():
            yield from pixel_frames(2)
            raise OSError("frame 2 unreadable")

        with DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(final_workers=(fin.endpoint,))
            with pytest.raises(StreamAborted) as err:
                run_stream(failing(), SETTINGS_720, cluster)
        assert err.value.cursor == 2
        assert any(sent_blocks)

    def test_blocks_unlinked_after_a_failed_cut(self, monkeypatch):
        real = client.cut_tile

        def cut_tile(pixels, crop, *args, **kwargs):
            if crop.crop_id == 2:
                raise RuntimeError("cannot cut")
            return real(pixels, crop, *args, **kwargs)

        monkeypatch.setattr(client, "cut_tile", cut_tile)
        with DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(final_workers=(fin.endpoint,))
            with pytest.raises(StreamAborted) as err:
                run_stream(pixel_frames(2), SETTINGS_720, cluster)
        assert err.value.cursor == 0
        assert "cannot cut" in str(err.value)


class TestStreamStartHealthCheck:
    @pytest.mark.parametrize("role", ["attention", "final"])
    def test_mismatched_input_side_aborts_before_the_first_pull(self, role):
        pulled = []

        def recorded():
            for frame in frames(2):
                pulled.append(frame.frame_id)
                yield frame

        dets = {"attention": make_oracle(), "final": make_oracle()}
        dets[role] = mismatched_oracle()
        with DetectorServer(dets["attention"]) as att, DetectorServer(
            dets["final"]
        ) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            with pytest.raises(StreamAborted) as err:
                run_stream(recorded(), SETTINGS_720, cluster)
            endpoint = {"attention": att, "final": fin}[role].endpoint
        assert err.value.cursor == 0
        assert err.value.completed == ()
        assert isinstance(err.value.__cause__, WorkerMismatch)
        assert endpoint in str(err.value)
        assert "416" in str(err.value)
        assert pulled == []

    def test_unreachable_worker_aborts_before_the_first_pull(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        endpoint = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        pulled = []

        def recorded():
            pulled.append(0)
            yield Frame(0, 1280, 720)

        cluster = ClusterConfig(final_workers=(endpoint,), request_timeout_s=0.5)
        with pytest.raises(StreamAborted) as err:
            run_stream(recorded(), SETTINGS_720, cluster)
        assert err.value.cursor == 0
        assert isinstance(err.value.__cause__, WorkerUnavailable)
        assert endpoint in str(err.value)
        assert pulled == []

    def test_empty_stream_still_checks_its_workers(self):
        cluster = ClusterConfig(final_workers=("127.0.0.1:1",), request_timeout_s=0.5)
        with pytest.raises(StreamAborted) as err:
            run_stream([], SETTINGS_720, cluster)
        assert err.value.cursor == 0


SPAWNED_STREAM = """
import multiprocessing, os
import numpy as np
from tilepipe.detector import GroundTruthObject
from tilepipe.distribution import ClusterConfig, DetectorServer, run_stream, shm, wire
from tilepipe.geometry import Rect
from tilepipe.pipeline import Frame, PipelineSettings, oracle_for_scene

SETTINGS = PipelineSettings.from_preset("1 att, 3 fin, 50 over")
SCENE = {i: [GroundTruthObject(Rect(100 + 40 * i, 100, 80, 80), "person", "a")]
         for i in range(3)}


def serve(conn):
    server = DetectorServer(oracle_for_scene(1280, 720, SETTINGS, SCENE)).start()
    conn.send(server.endpoint)
    conn.recv()
    server.shutdown()


def entries():
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(shm.PREFIX))


if __name__ == "__main__":
    before = entries()
    ctx = multiprocessing.get_context("spawn")
    workers = []
    for _ in range(2):
        ours, theirs = ctx.Pipe()
        proc = ctx.Process(target=serve, args=(theirs,), daemon=True)
        proc.start()
        workers.append((proc, ours))
    att, fin = (conn.recv() for _, conn in workers)
    sent = []
    send = wire.send_message

    def send_message(sock, header, payload=b""):
        if header.get("type") == "EVAL_REQUEST":
            sent.append(header.get("shm"))
        return send(sock, header, payload)

    wire.send_message = send_message
    frames = [Frame(i, 1280, 720, np.zeros((720, 1280, 3), np.uint8)) for i in range(3)]
    cluster = ClusterConfig(final_workers=(fin,), attention_workers=(att,))
    results = run_stream(frames, SETTINGS, cluster)
    after = entries()
    for proc, conn in workers:
        conn.send("stop")
        proc.join(30)
    print(len(results), len(sent), sum(1 for name in sent if name), before == after)
"""


def test_spawned_workers_leave_no_blocks_or_tracker_warnings(tmp_path):
    script = tmp_path / "spawned_stream.py"
    script.write_text(SPAWNED_STREAM)
    src = str(Path(tilepipe.__file__).parents[1])
    before = shm_entries()
    out = subprocess.run(
        [sys.executable, str(script)],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    results, requests, by_block, unchanged = out.stdout.split()
    assert results == "3"
    assert by_block == requests != "0"
    assert unchanged == "True"
    assert "resource_tracker" not in out.stderr
    assert "leaked" not in out.stderr
    assert out.stderr == ""
    assert shm_entries() == before
