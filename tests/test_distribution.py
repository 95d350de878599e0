"""Worker/client integration over localhost sockets."""

import gc
import json
import os
import random
import secrets
import socket
import struct
import subprocess
import sys
import threading
import time
import weakref
from contextlib import ExitStack
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tilepipe
from test_cut_pool import TileHashDetector
from test_reference_pipeline import runs, scene_frames
from test_wire import UNPARSABLE_HEADERS, framed, headers as wire_headers
from tilepipe.detector import Detector, GroundTruthObject, crop_catalog_key
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
from tilepipe.distribution import client, parse_endpoint, shm, wire, worker
from tilepipe.frameio import frame_file_name, read_ppm, result_line, write_ppm
from tilepipe.geometry import TILE_BYTES, Rect
from tilepipe.pipeline import (
    Frame,
    GridPlan,
    PipelineSettings,
    oracle_for_scene,
    run_sequence,
)

# a child writes no bytecode caches when this interpreter does not
PYTHON = [sys.executable, *(["-B"] if sys.flags.dont_write_bytecode else [])]


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


def make_oracle(scene=SCENE):
    return oracle_for_scene(1280, 720, SETTINGS_720, scene)


# SCENE's four frames over and over, so that a long stream keeps finding objects
LOOPED_SCENE = {i: SCENE[i % 4] for i in range(16)}


def make_plan():
    return GridPlan.build(1280, 720, SETTINGS_720)


# crop ids of the attention stage; every other crop id is the final stage's
ATTENTION_IDS = frozenset(c.crop_id for c in make_plan().attention_grid.crops)


class DelayDetector(Detector):
    """Adds fixed latency per crop, for scheduling assertions."""

    def __init__(self, base, seconds):
        self.base = base
        self.seconds = seconds

    def detect(self, frame_id, crop_ids, tiles=None):
        time.sleep(self.seconds * len(crop_ids))
        return self.base.detect(frame_id, crop_ids, tiles)


class FailOnFrame(Detector):
    def __init__(self, base, bad_frame_id):
        self.base = base
        self.bad_frame_id = bad_frame_id

    def detect(self, frame_id, crop_ids, tiles=None):
        if frame_id == self.bad_frame_id:
            raise RuntimeError("refusing this frame")
        return self.base.detect(frame_id, crop_ids, tiles)


class SleepOnFrame(Detector):
    def __init__(self, base, slow_frame_id, seconds):
        self.base = base
        self.slow_frame_id = slow_frame_id
        self.seconds = seconds

    def detect(self, frame_id, crop_ids, tiles=None):
        if frame_id == self.slow_frame_id:
            time.sleep(self.seconds)
        return self.base.detect(frame_id, crop_ids, tiles)


# Name prefixes of the threads a stream starts (see client.run_stream)
STREAM_THREADS = ("tilepipe-attention", "tilepipe-request")


@pytest.fixture(autouse=True)
def no_stream_threads_left():
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith(STREAM_THREADS)]
    assert left == [], f"stream threads still running: {left}"


def shm_entries():
    return {name for name in os.listdir("/dev/shm") if name.startswith(shm.PREFIX)}


@pytest.fixture
def attached(monkeypatch):
    """The name of every block shm.attach maps, in order."""
    names = []
    real = shm.attach

    def attach(name):
        names.append(name)
        return real(name)

    monkeypatch.setattr(shm, "attach", attach)
    return names


@pytest.fixture(autouse=True)
def no_leaked_blocks():
    """Every test, a failed one included, leaves /dev/shm as it found it."""
    before = shm_entries()
    yield
    assert shm_entries() == before


def threads_started_since(before):
    """Threads started since ``before`` that are not a worker's handlers."""
    return [
        t for t in threading.enumerate()
        if t not in before and "process_request_thread" not in t.name
    ]


@pytest.fixture
def opened(monkeypatch):
    """(address, socket) of every connection the client opens, in order."""
    sockets = []
    real = socket.create_connection

    def create_connection(address, *args, **kwargs):
        sock = real(address, *args, **kwargs)
        sockets.append((address, sock))
        return sock

    monkeypatch.setattr(socket, "create_connection", create_connection)
    return sockets


class ClosesAfterReplies:
    """A worker that answers its first ``replies`` messages, on however many
    connections they come, then closes the connection it answered on and
    stops listening."""

    def __init__(self, det, replies):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(5)
        self.endpoint = f"127.0.0.1:{self._listener.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, args=(det, replies))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._thread.join(10)
        assert not self._thread.is_alive()

    def _serve(self, det, replies):
        with self._listener:
            while replies:
                try:
                    conn, _ = self._listener.accept()
                except OSError:
                    return
                with conn, worker._Mapping() as mapping:
                    while replies:
                        try:
                            header, payload = wire.recv_message(conn)
                        except OSError:
                            break
                        conn.sendall(worker._respond(det, header, payload, mapping))
                        replies -= 1


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

    @pytest.mark.parametrize("key", ["final_workers", "attention_workers"])
    def test_rejects_an_endpoint_listed_twice_in_one_stage(self, key):
        lists = {"final_workers": ("h:1",), key: ("h:2", "h:3", "h:2")}
        with pytest.raises(ValueError, match=f"{key}: 'h:2' listed twice"):
            ClusterConfig(**lists)


def raw_exchange(endpoint, messages):
    """Send framed messages on one connection; return raw reply bytes."""
    host, _, port = endpoint.rpartition(":")
    replies = []
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.settimeout(5)
        for raw in messages:
            sock.sendall(raw)
            head = wire._recv_exact(sock, 8)
            n, m = struct.unpack(">II", head)
            body = wire._recv_exact(sock, n + m)
            replies.append(head + body)
    return replies


class TestWorker:
    def test_health(self):
        with DetectorServer(make_oracle()) as server:
            reply = check_health(server.endpoint)
        assert reply == {
            "type": "HEALTH_OK",
            "catalog": crop_catalog_key(make_plan().crops_by_id()),
        }

    def test_health_of_a_detector_without_a_catalog(self):
        with DetectorServer(RecordingDetector(make_oracle())) as server:
            reply = check_health(server.endpoint)
        assert reply == {"type": "HEALTH_OK"}

    def test_zero_crops(self):
        with DetectorServer(make_oracle()) as server:
            request = wire.encode_message(eval_header([]))
            (raw,) = raw_exchange(server.endpoint, [request])
        assert (
            raw
            == b'\x00\x00\x00\x32\x00\x00\x00\x00'
            b'{"frame_id":0,"results":[],"type":"EVAL_RESPONSE"}'
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
            assert [by_crop[crop.crop_id]] == oracle.detect(0, [crop.crop_id])

    def test_response_bytes_deterministic(self):
        plan = make_plan()
        entries = [{"crop_id": c.crop_id} for c in plan.final_grid.crops]
        request = wire.encode_message(eval_header(entries))
        with DetectorServer(make_oracle()) as server:
            first, second = raw_exchange(server.endpoint, [request, request])
        assert first == second

    def test_unknown_crop_id_is_error_and_connection_survives(self):
        bad = wire.encode_message(
            eval_header([{"crop_id": 999}])
        )
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
        head = wire.canonical_json(eval_header([{"crop_id": 0}]))
        with DetectorServer(make_oracle()) as server:
            host, port = server.endpoint.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                sock.settimeout(5)
                # declares a payload over the limit, then sends none
                sock.sendall(framed(head, declared=wire.MAX_PAYLOAD_BYTES + 1))
                reply, _ = wire.recv_message(sock)
                assert sock.recv(1) == b""  # the worker closed the connection
        assert reply["type"] == "ERROR"
        assert reply["code"] == "malformed"
        assert "payload" in reply["message"]

    @pytest.mark.parametrize("case", sorted(UNPARSABLE_HEADERS))
    def test_header_that_cannot_be_parsed_is_malformed_and_closes(
        self, case, monkeypatch
    ):
        failed = []  # a handler that raises ends here, its connection closed
        monkeypatch.setattr(
            worker._Server, "handle_error", lambda server, *args: failed.append(args)
        )
        with DetectorServer(make_oracle()) as server:
            with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
                sock.settimeout(5)
                sock.sendall(framed(UNPARSABLE_HEADERS[case]))
                reply, _ = wire.recv_message(sock)
                assert sock.recv(1) == b""  # the worker closed the connection
            health = check_health(server.endpoint)
        assert (reply["type"], reply["code"]) == ("ERROR", "malformed")
        assert health["type"] == "HEALTH_OK"
        assert failed == []

    def test_shutdown_closes_an_idle_connection(self):
        server = DetectorServer(make_oracle()).start()
        before = set(threading.enumerate())
        with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
            wire.send_message(sock, {"type": "HEALTH"})
            reply, _ = wire.recv_message(sock)
            handlers = [t for t in threading.enumerate() if t not in before]
            started = time.perf_counter()
            server.shutdown()
            for handler in handlers:
                handler.join(1)
            took = time.perf_counter() - started
            assert sock.recv(1) == b""  # the worker closed the connection
        assert reply["type"] == "HEALTH_OK"
        assert len(handlers) == 1
        assert not handlers[0].is_alive()
        # about 2 poll intervals: serve_forever's and the handler's
        assert took < 2 * worker.POLL_INTERVAL_S + 0.25


class RecordingDetector(Detector):
    """Records every crop id it is asked for, and each call's crop ids and
    tile bytes (None without tiles)."""

    def __init__(self, base):
        self.base = base
        self.calls = []
        self.batches = []

    def detect(self, frame_id, crop_ids, tiles=None):
        self.calls.extend(crop_ids)
        self.batches.append((list(crop_ids), None if tiles is None else tiles.tobytes()))
        return self.base.detect(frame_id, crop_ids, tiles)


GOOD_CROP = {"crop_id": 0}

# crop entries that follow a good one; each request carries both tiles
BAD_CROPS = {
    "string_crop_id": {"crop_id": "1"},
    "bool_crop_id": {"crop_id": True},
    "float_crop_id": {"crop_id": 1.0},
    "no_crop_id": {},
    "bare_crop_id": 1,
}


def eval_header(crops):
    return {"type": "EVAL_REQUEST", "frame_id": 0, "crops": crops}


def respond(det, header, payload):
    """worker._respond to one message on a connection of its own."""
    with worker._Mapping() as mapping:
        return worker._respond(det, header, payload, mapping)


def socketpair_exchange(det, header, payload):
    """One request to a worker handler over a socketpair, then a HEALTH
    check on the same connection; returns both reply headers."""
    client, server = socket.socketpair()
    handler = threading.Thread(
        target=worker._Handler,
        args=(
            server,
            "socketpair",
            SimpleNamespace(detector=det, stopping=threading.Event()),
        ),
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
        header = eval_header([GOOD_CROP, BAD_CROPS[case]])
        det = RecordingDetector(make_oracle())
        raw = respond(det, header, bytes(2 * TILE_BYTES))
        assert b'"code":"malformed"' in raw
        assert det.calls == []

    @pytest.mark.parametrize("case", sorted(BAD_CROPS))
    def test_bad_crop_is_malformed_over_a_socketpair(self, case):
        det = RecordingDetector(make_oracle())
        reply, health = socketpair_exchange(
            det, eval_header([GOOD_CROP, BAD_CROPS[case]]), bytes(2 * TILE_BYTES)
        )
        assert (reply["type"], reply["code"]) == ("ERROR", "malformed")
        assert health["type"] == "HEALTH_OK"
        assert det.calls == []

    @pytest.mark.parametrize("extra", [-1, 1, TILE_BYTES])
    def test_payload_must_match_declared_tiles(self, extra):
        header = eval_header([GOOD_CROP, {**GOOD_CROP, "crop_id": 1}])
        det = RecordingDetector(make_oracle())
        raw = respond(det, header, bytes(2 * TILE_BYTES + extra))
        assert b'"code":"malformed"' in raw
        assert b"payload" in raw
        assert det.calls == []

    @pytest.mark.parametrize(
        "size",
        [1, TILE_BYTES, 2 * TILE_BYTES - 1, 2 * TILE_BYTES + 1, 3 * TILE_BYTES],
        ids=["one_byte", "one_tile", "a_byte_short", "a_byte_over", "three_tiles"],
    )
    def test_payload_of_another_size_is_malformed_over_a_socketpair(self, size):
        """A request for two crops whose payload is neither empty nor two
        tiles."""
        det = RecordingDetector(make_oracle())
        crops = [GOOD_CROP, {**GOOD_CROP, "crop_id": 1}]
        reply, health = socketpair_exchange(det, eval_header(crops), bytes(size))
        assert (reply["type"], reply["code"]) == ("ERROR", "malformed")
        assert f"take {2 * TILE_BYTES} payload bytes, got {size}" in reply["message"]
        assert health["type"] == "HEALTH_OK"
        assert det.calls == []

    @pytest.mark.parametrize("first_side", [608, 0])
    def test_mixed_tile_sizes_are_malformed(self, first_side):
        """Crop entries that still declare a 608 and a 0x0 tile are sized
        by their count alone: one tile for two crops is malformed, in
        either order."""
        sides = [first_side, 608 - first_side]
        crops = [{"crop_id": i, "width": s, "height": s} for i, s in enumerate(sides)]
        det = RecordingDetector(make_oracle())
        reply, health = socketpair_exchange(det, eval_header(crops), bytes(TILE_BYTES))
        assert (reply["type"], reply["code"]) == ("ERROR", "malformed")
        assert f"take {2 * TILE_BYTES} payload bytes, got {TILE_BYTES}" in reply["message"]
        assert health["type"] == "HEALTH_OK"
        assert det.calls == []

    def test_payload_without_tiles_is_malformed(self):
        det = RecordingDetector(make_oracle())
        raw = respond(det, eval_header([]), b"\x00")
        assert b'"code":"malformed"' in raw

    def test_good_request_is_answered(self):
        crops = [GOOD_CROP, {**GOOD_CROP, "crop_id": 1}]
        tiles = bytes(2 * TILE_BYTES)
        det = RecordingDetector(make_oracle())
        in_process = respond(det, eval_header(crops), tiles)
        reply, health = socketpair_exchange(det, eval_header(crops), tiles)
        assert b'"EVAL_RESPONSE"' in in_process
        assert reply["type"] == "EVAL_RESPONSE"
        assert [row["crop_id"] for row in reply["results"]] == [0, 1]
        assert det.calls == [0, 1, 0, 1]

    @pytest.mark.parametrize("frame_id", ["x", True, 1.0, [1]], ids=repr)
    def test_frame_id_that_is_not_an_int_is_malformed(self, frame_id):
        header = {**eval_header([GOOD_CROP]), "frame_id": frame_id}
        det = RecordingDetector(make_oracle())
        reply, health = socketpair_exchange(det, header, b"")
        assert (reply["type"], reply["code"]) == ("ERROR", "malformed")
        assert "frame_id" in reply["message"]
        assert health["type"] == "HEALTH_OK"
        assert det.calls == []

    def test_one_detector_call_per_request(self, blocks):
        rng = np.random.default_rng(9)
        tiles = rng.integers(0, 256, 3 * TILE_BYTES, dtype=np.uint8).tobytes()
        crops = [{**GOOD_CROP, "crop_id": i} for i in (4, 2, 7)]
        block = blocks.take(len(tiles))
        block.buf[: len(tiles)] = tiles
        det = RecordingDetector(make_oracle())
        by_payload = respond(det, eval_header(crops), tiles)
        by_block = respond(det, {**eval_header(crops), "shm": block.name}, b"")
        assert by_payload == by_block
        assert det.batches == [([4, 2, 7], tiles)] * 2
        assert respond(det, eval_header(crops), b"") == by_payload
        assert det.batches[2] == ([4, 2, 7], None)

    def test_wrong_number_of_answers_is_detector_failure(self):
        class Short(RecordingDetector):
            def detect(self, frame_id, crop_ids, tiles=None):
                return super().detect(frame_id, crop_ids, tiles)[:-1]

        crops = [{"crop_id": i} for i in range(3)]
        reply, health = socketpair_exchange(Short(make_oracle()), eval_header(crops), b"")
        assert (reply["type"], reply["code"]) == ("ERROR", "detector_failure")
        assert health["type"] == "HEALTH_OK"

    @pytest.fixture
    def blocks(self):
        """take(nbytes) makes a block named prefix and a serial number; every
        block is destroyed after the test."""
        prefix = shm.PREFIX + secrets.token_hex(4)
        made = []

        def take(nbytes):
            made.append(shm.create(f"{prefix}{len(made):x}", nbytes))
            return made[-1]

        yield SimpleNamespace(prefix=prefix, take=take)
        for block in made:
            shm.destroy(block)

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
            raw = respond(det, header, b"")
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
        block = blocks.take(TILE_BYTES)
        det = RecordingDetector(make_oracle())
        header = {**eval_header([GOOD_CROP]), "shm": block.name}
        raw = respond(det, header, bytes(TILE_BYTES))
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
        raw = respond(det, header, b"")
        assert b'"code":"malformed"' in raw
        assert det.calls == []

    def test_block_request_matches_payload_request(self, blocks):
        # a block one tile larger than the tiles, as a reused block may be
        rng = np.random.default_rng(5)
        tiles = rng.integers(0, 256, 2 * TILE_BYTES, dtype=np.uint8).tobytes()
        crops = [GOOD_CROP, {"crop_id": 1}]
        block = blocks.take(3 * TILE_BYTES)
        block.buf[: len(tiles)] = tiles
        det = TileHashDetector(make_oracle())
        by_payload = respond(det, eval_header(crops), tiles)
        header = {**eval_header(crops), "shm": block.name}
        reply, health = socketpair_exchange(det, header, b"")
        assert reply["type"] == "EVAL_RESPONSE"
        assert wire.encode_message(reply) == by_payload
        assert health["type"] == "HEALTH_OK"

    def test_a_lone_request_unmaps_its_block_before_replying(self, blocks):
        block = blocks.take(TILE_BYTES)
        seen = []

        class CountingDetector(RecordingDetector):
            def detect(self, frame_id, crop_ids, tiles=None):
                seen.append(block_mappings(block.name))
                return super().detect(frame_id, crop_ids, tiles)

        before = block_mappings(block.name)
        header = {**eval_header([GOOD_CROP]), "shm": block.name}
        raw = respond(CountingDetector(make_oracle()), header, b"")
        assert b'"EVAL_RESPONSE"' in raw
        assert seen == [before + 1]
        assert block_mappings(block.name) == before

    def test_a_connection_maps_each_block_once(self, blocks, attached):
        """Requests on one connection that name one block map it once; one
        that names another unmaps the first, and the last mapping goes when
        the connection ends. Every reply reads the tiles the block holds."""
        rng = np.random.default_rng(11)
        det = TileHashDetector(make_oracle())
        small, large = blocks.take(2 * TILE_BYTES), blocks.take(3 * TILE_BYTES)
        base = block_mappings(small.name)
        steps = [(small, 2), (small, 1), (small, 2), (large, 3), (large, 3)]
        client, server = socket.socketpair()
        handler = threading.Thread(
            target=worker._Handler,
            args=(
                server,
                "socketpair",
                SimpleNamespace(detector=det, stopping=threading.Event()),
            ),
        )
        handler.start()
        try:
            with client:
                client.settimeout(5)
                for block, count in steps:
                    tiles = rng.integers(0, 256, count * TILE_BYTES, dtype=np.uint8)
                    block.buf[: tiles.size] = tiles.tobytes()
                    crops = [{**GOOD_CROP, "crop_id": i} for i in range(count)]
                    want = respond(det, eval_header(crops), tiles.tobytes())
                    header = {**eval_header(crops), "shm": block.name}
                    wire.send_message(client, header)
                    reply, _ = wire.recv_message(client)
                    assert wire.encode_message(reply) == want
                    assert block_mappings(block.name) == base + 1
                assert block_mappings(small.name) == base
                assert attached == [small.name, large.name]
        finally:
            handler.join(5)
            server.close()
        assert not handler.is_alive()
        assert block_mappings(large.name) == base


def block_mappings(name):
    """How many mappings of the named block this process holds."""
    with open("/proc/self/maps") as maps:
        return sum(1 for line in maps if line.rstrip().endswith("/" + name))


# EVAL_REQUESTs that reach the checks or the detector, with crop ids in and
# out of the grid
EVAL_REQUESTS = st.fixed_dictionaries(
    {
        "type": st.just("EVAL_REQUEST"),
        "frame_id": st.integers(-2, 5) | st.text(max_size=3),
        "crops": st.lists(
            st.fixed_dictionaries({"crop_id": st.integers(-2, 40) | st.booleans()}),
            max_size=4,
        ),
    }
)
# no tiles, a few bytes, or one or two whole tiles
PAYLOADS = st.binary(max_size=64) | st.sampled_from([1, 2]).map(
    lambda tiles: bytes(tiles * TILE_BYTES)
)
WORKER_INPUTS = (
    st.tuples(wire_headers() | EVAL_REQUESTS, PAYLOADS).map(
        lambda case: framed(json.dumps(case[0]).encode(), case[1])
    )
    | st.binary(max_size=64)  # no framing at all
)


@settings(max_examples=200, deadline=None)
@given(raw=WORKER_INPUTS, health=st.booleans())
def test_worker_answers_or_closes_on_any_input(raw, health):
    """Random bytes, framed headers and payloads into a worker handler over
    a socketpair, maybe followed by a HEALTH, then the write side shut: the
    handler replies with whole messages or closes, ends within the timeout,
    and never dies of an exception."""
    client, server = socket.socketpair()
    died = []

    def handle():
        try:
            worker._Handler(
                server,
                "socketpair",
                SimpleNamespace(detector=make_oracle(), stopping=threading.Event()),
            )
        except BaseException as exc:
            died.append(exc)

    handler = threading.Thread(target=handle)
    handler.start()
    replies = []
    try:
        with client:
            client.settimeout(5)
            try:
                client.sendall(raw + (framed(b'{"type":"HEALTH"}') if health else b""))
                client.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # the handler closed before taking every byte
            handler.join(5)
            server.close()  # what the server does once its handler returns
            while True:
                try:
                    reply, payload = wire.recv_message(client)
                except ConnectionError:
                    break
                replies.append(reply["type"])
                assert payload == b""
    finally:
        handler.join(5)
        server.close()
    assert not handler.is_alive()
    assert died == []
    assert len(replies) <= 2
    assert set(replies) <= {"EVAL_RESPONSE", "HEALTH_OK", "ERROR"}


class TestHealthProbe:
    def test_worker_echoes_the_nonce(self):
        probe = shm.create(shm.PREFIX + secrets.token_hex(4), shm.PROBE_BYTES)
        try:
            probe.buf[: shm.PROBE_BYTES] = b"0123456789abcdef"
            with DetectorServer(make_oracle()) as server:
                reply = check_health(server.endpoint, probe=probe.name)
        finally:
            shm.destroy(probe)
        assert reply["probe"] == b"0123456789abcdef".hex()

    @pytest.mark.parametrize("probe", [shm.PREFIX + "ffffffff0", "other", 3, None])
    def test_unreadable_probe_is_answered_with_null(self, probe):
        with DetectorServer(make_oracle()) as server:
            reply = check_health(server.endpoint)
            header = {"type": "HEALTH", "probe": probe}
            probed = respond(make_oracle(), header, b"")
        assert "probe" not in reply
        assert b'"probe":null' in probed
        assert b'"HEALTH_OK"' in probed


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

    def test_detection_that_fails_its_checks_is_remote_fault(self):
        class Overconfident(Detector):
            def detect(self, frame_id, crop_ids, tiles=None):
                det = SimpleNamespace(
                    rect=Rect(1, 2, 3, 4), class_label="car", confidence=1.5
                )
                return [[det] for _ in crop_ids]

        plan = make_plan()
        with DetectorServer(Overconfident()) as server:
            with pytest.raises(RemoteFault, match="confidence") as err:
                evaluate_remote(
                    Frame(0, 1280, 720), plan.final_grid.crops[:1],
                    [server.endpoint], 5.0,
                )
        assert err.value.endpoint == server.endpoint

    @pytest.mark.parametrize("fails", [False, True])
    def test_leaves_no_open_socket(self, fails, opened):
        det = FailOnFrame(make_oracle(), 0) if fails else make_oracle()
        crops = make_plan().final_grid.crops
        with DetectorServer(make_oracle()) as w1, DetectorServer(det) as w2:
            endpoints = [w1.endpoint, w2.endpoint]
            if fails:
                with pytest.raises(RemoteFault):
                    evaluate_remote(Frame(0, 1280, 720), crops, endpoints, 5.0)
            else:
                by_crop, _, _ = evaluate_remote(Frame(0, 1280, 720), crops, endpoints, 5.0)
                assert sorted(by_crop) == [c.crop_id for c in crops]
        gc.collect()  # a socket left open warns here, and warnings are errors
        assert sorted(a for a, _ in opened) == sorted(map(parse_endpoint, endpoints))
        assert all(sock.fileno() == -1 for _, sock in opened)

    def test_worker_listed_twice_is_rejected_before_any_request(self, opened):
        crops = make_plan().final_grid.crops
        with DetectorServer(make_oracle()) as server:
            with pytest.raises(ValueError, match="listed twice"):
                evaluate_remote(
                    Frame(0, 1280, 720), crops, [server.endpoint] * 2, 5.0
                )
        assert opened == []

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

    def test_attention_on_the_final_workers_hidden_when_cheaper(self):
        """Without attention workers, frame t+1's attention runs on the final
        worker, on a connection of its own, while frame t's final requests
        are in flight."""
        delay = 0.02
        with DetectorServer(DelayDetector(make_oracle(), delay)) as fin:
            cluster = ClusterConfig(final_workers=(fin.endpoint,))
            remote = run_stream(frames(4), SETTINGS_720, cluster)
        cold = remote[0].timing.attention_wait_ms
        assert cold >= delay * 1000  # nothing hides the first frame
        for result in remote[1:]:
            assert result.timing.attention_wait_ms < cold / 2

    def test_client_processing_holds_the_final_cut(self, monkeypatch):
        """A remote frame's client_processing_ms holds the cut of its final
        tiles: with cuts taking 5 ms each, one at a time, at least 5 ms per
        final tile."""
        real = client.cut_tile
        one_at_a_time = threading.Lock()

        def cut_tile(pixels, crop, *args, **kwargs):
            with one_at_a_time:
                time.sleep(0.005)
            return real(pixels, crop, *args, **kwargs)

        monkeypatch.setattr(client, "cut_tile", cut_tile)
        with DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(final_workers=(fin.endpoint,))
            remote = run_stream(pixel_frames(3), SETTINGS_720, cluster)
        assert len(remote) == 3
        for result in remote:
            assert result.active_count
            assert result.timing.client_processing_ms >= 5 * result.active_count

    def test_stream_abort_carries_cursor_and_completed(self):
        bad = FailOnFrame(make_oracle(), bad_frame_id=2)
        with DetectorServer(bad) as fin:
            cluster = ClusterConfig(final_workers=(fin.endpoint,))
            with pytest.raises(StreamAborted) as err:
                run_stream(frames(4), SETTINGS_720, cluster)
        assert err.value.cursor == 2
        assert [r.frame_id for r in err.value.completed] == [0, 1]

    def test_one_connection_per_worker_for_the_whole_stream(self, opened):
        local = self.local_reference(16)
        senders = set()
        send = wire.send_message

        def send_message(sock, header, payload=b""):
            senders.add(threading.current_thread().name)
            return send(sock, header, payload)

        with DetectorServer(make_oracle()) as att, DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(wire, "send_message", send_message)
                remote = run_stream(frames(16), SETTINGS_720, cluster)
        assert [address for address, _ in opened] == [
            parse_endpoint(att.endpoint), parse_endpoint(fin.endpoint)
        ]
        assert all(sock.fileno() == -1 for _, sock in opened)
        assert senders == {"MainThread", "tilepipe-attention_0"}
        assert [result_line(r) for r in remote] == [result_line(r) for r in local]

    def test_one_worker_serving_both_stages_matches_local_bytes(self, opened):
        det = TileHashDetector(make_oracle())
        local = list(run_sequence(pixel_frames(6), SETTINGS_720, det))
        with DetectorServer(det) as both:
            cluster = ClusterConfig(
                final_workers=(both.endpoint,), attention_workers=(both.endpoint,)
            )
            remote = run_stream(pixel_frames(6), SETTINGS_720, cluster)
        assert [result_line(r) for r in remote] == [result_line(r) for r in local]
        # one per stage at most: attention and final requests overlap
        assert 1 <= len(opened) <= 2
        assert all(sock.fileno() == -1 for _, sock in opened)

    def test_shared_workers_under_thread_switching_stress(self, opened, sent_blocks):
        """Two endpoints serve both stages, beside a third final worker, with
        the interpreter switching threads every 10 us: no endpoint gets more
        connections than requests it can have in flight, and the bytes hold.
        Every request's tiles go in a block and every tile's hash sets its
        detections' confidences, so two requests in flight on one block
        would change the bytes."""
        det = TileHashDetector(make_oracle(LOOPED_SCENE))
        local = list(run_sequence(pixel_frames(12), SETTINGS_720, det))
        with DetectorServer(det) as a, DetectorServer(det) as b, DetectorServer(det) as c:
            cluster = ClusterConfig(
                final_workers=(a.endpoint, b.endpoint, c.endpoint),
                attention_workers=(a.endpoint, b.endpoint),
            )
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                remote = run_stream(pixel_frames(12), SETTINGS_720, cluster)
            finally:
                sys.setswitchinterval(interval)
        assert sent_blocks and all(sent_blocks)
        assert [result_line(r) for r in remote] == [result_line(r) for r in local]
        assert any(r.detections for r in remote)
        per_endpoint = [address for address, _ in opened]
        for server, most in ((a, 2), (b, 2), (c, 1)):
            assert 1 <= per_endpoint.count(parse_endpoint(server.endpoint)) <= most
        assert all(sock.fileno() == -1 for _, sock in opened)

    def test_worker_that_closes_its_connection_aborts_the_stream(self):
        # HEALTH, then frame 0's final pass: frame 1's final pass finds the
        # connection closed, as a client connecting anew finds no listener
        with DetectorServer(make_oracle()) as att, ClosesAfterReplies(
            make_oracle(), replies=2
        ) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            with pytest.raises(StreamAborted) as err:
                run_stream(frames(4), SETTINGS_720, cluster)
        assert err.value.cursor == 1
        assert [r.frame_id for r in err.value.completed] == [0]
        assert err.value.completed[0].detections == self.local_reference(1)[0].detections
        assert isinstance(err.value.__cause__, WorkerUnavailable)
        assert fin.endpoint in str(err.value)

    def test_abort_leaves_no_thread_running(self):
        # frame 1's attention is pending on a slow worker when frame 0's
        # final pass fails
        slow = SleepOnFrame(make_oracle(), slow_frame_id=1, seconds=1.0)
        with DetectorServer(slow) as att, DetectorServer(
            FailOnFrame(make_oracle(), bad_frame_id=0)
        ) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            before = set(threading.enumerate())
            started = time.perf_counter()
            with pytest.raises(StreamAborted) as err:
                run_stream(frames(4), SETTINGS_720, cluster)
            took = time.perf_counter() - started
            left = threads_started_since(before)
        assert took < 0.5
        assert left == []
        assert err.value.cursor == 0
        assert err.value.completed == ()
        assert isinstance(err.value.__cause__, RemoteFault)

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

    @pytest.mark.parametrize("tcp", [False, True], ids=["blocks", "tcp"])
    @pytest.mark.parametrize("finals", [1, 2])
    @pytest.mark.parametrize("separate", [True, False], ids=["pipelined", "finals-only"])
    def test_cuts_with_one_pulled_frame_alive(
        self, separate, finals, tcp, tmp_path, monkeypatch
    ):
        """Frames mapped from files: whenever a tile is cut, of either stage,
        only one frame the stream pulled is still alive, and the result
        bytes are those of run_sequence."""
        for frame in pixel_frames(6):
            write_ppm(tmp_path / frame_file_name(frame.frame_id), frame.pixels)

        refs = []

        def pulled():
            for i in range(6):
                frame = Frame(i, 1280, 720, read_ppm(tmp_path / frame_file_name(i)))
                refs.append(weakref.ref(frame))
                yield frame

        det = TileHashDetector(make_oracle(LOOPED_SCENE))
        local = [result_line(r) for r in run_sequence(pulled(), SETTINGS_720, det)]
        refs.clear()
        alive = []  # pulled frames alive at each cut
        real = client.cut_tile

        def cut_tile(pixels, crop, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return real(pixels, crop, *args, **kwargs)

        monkeypatch.setattr(client, "cut_tile", cut_tile)
        if tcp:
            monkeypatch.setattr(client, "_echoes_probe", lambda reply, nonce: False)
        with DetectorServer(det) as att, DetectorServer(det) as a, DetectorServer(det) as b:
            cluster = ClusterConfig(
                final_workers=(a.endpoint, b.endpoint)[:finals],
                attention_workers=(att.endpoint,) if separate else (),
            )
            remote = run_stream(pulled(), SETTINGS_720, cluster)
        assert [result_line(r) for r in remote] == local
        assert len(refs) == 6 and alive
        assert max(alive) == 1

    @pytest.mark.parametrize("separate", [True, False], ids=["pipelined", "finals-only"])
    def test_pull_failing_once_the_final_tiles_are_cut(self, separate, monkeypatch):
        """Frame 2's pull fails after every final tile of frame 1 is cut and
        before any final request of frame 1 is answered. Frame 1 still
        completes, and the stream aborts at frame 2."""
        source = pixel_frames(2)
        det = TileHashDetector(make_oracle())
        local = list(run_sequence(source, SETTINGS_720, det))
        final_cuts = []  # frame id of each final tile cut
        answered = []  # frame id of each final request detected
        real = client.cut_tile

        def cut_tile(pixels, crop, *args, **kwargs):
            if crop.crop_id not in ATTENTION_IDS:
                final_cuts.append(next(f.frame_id for f in source if f.pixels is pixels))
            return real(pixels, crop, *args, **kwargs)

        class Recording(Detector):
            def detect(self, frame_id, crop_ids, tiles=None):
                if crop_ids[0] not in ATTENTION_IDS:
                    answered.append(frame_id)
                return det.detect(frame_id, crop_ids, tiles)

        at_failure = {}

        def failing():
            yield from source
            at_failure.update(cut=list(final_cuts), answered=list(answered))
            raise OSError("frame 2 unreadable")

        monkeypatch.setattr(client, "cut_tile", cut_tile)
        with DetectorServer(Recording()) as att, DetectorServer(Recording()) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,),
                attention_workers=(att.endpoint,) if separate else (),
            )
            with pytest.raises(StreamAborted) as err:
                run_stream(failing(), SETTINGS_720, cluster)
        assert err.value.cursor == 2
        assert isinstance(err.value.__cause__, OSError)
        assert [result_line(r) for r in err.value.completed] == [
            result_line(r) for r in local
        ]
        assert 1 in at_failure["cut"] and at_failure["cut"] == final_cuts
        assert 1 not in at_failure["answered"] and 1 in answered

    @pytest.mark.parametrize("separate", [True, False], ids=["pipelined", "finals-only"])
    def test_failed_final_cut_aborts_before_the_next_pull(self, separate, monkeypatch):
        source = pixel_frames(4)
        pulls = []

        def pulling():
            for frame in source:
                pulls.append(frame.frame_id)
                yield frame

        real = client.cut_tile

        def cut_tile(pixels, crop, *args, **kwargs):
            if pixels is source[1].pixels and crop.crop_id not in ATTENTION_IDS:
                raise RuntimeError("cannot cut")
            return real(pixels, crop, *args, **kwargs)

        monkeypatch.setattr(client, "cut_tile", cut_tile)
        with DetectorServer(make_oracle()) as att, DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,),
                attention_workers=(att.endpoint,) if separate else (),
            )
            with pytest.raises(StreamAborted) as err:
                run_stream(pulling(), SETTINGS_720, cluster)
        assert err.value.cursor == 1
        assert [r.frame_id for r in err.value.completed] == [0]
        assert "cannot cut" in str(err.value)
        assert pulls == [0, 1]

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

    @pytest.mark.parametrize("separate", [True, False])
    def test_frame_pulls_charged_to_io(self, separate):
        def slow_frames():
            for frame in frames(3):
                time.sleep(0.02)
                yield frame

        with DetectorServer(make_oracle()) as att, DetectorServer(make_oracle()) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,),
                attention_workers=(att.endpoint,) if separate else (),
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


@st.composite
def worker_layouts(draw):
    """(attention, final): indexes of three servers, 0-2 for attention and
    1-3 for the final stage, each at most once per stage. A server in both
    lists serves both stages."""
    final = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    return draw(st.lists(st.integers(0, 2), max_size=2, unique=True)), final


@settings(max_examples=25, deadline=None)
@given(run=runs(), layout=worker_layouts())
def test_run_stream_matches_run_sequence(run, layout):
    """Any scene, grid, temporal window and worker layout, with pixels or
    without: run_stream writes the bytes of run_sequence. With pixels,
    confidences hash each tile, so a tile cut from the wrong frame or place
    changes them."""
    spec, stride, run_settings, with_pixels = run
    scene, source = scene_frames(spec, stride, with_pixels)
    det = oracle_for_scene(spec.width, spec.height, run_settings, scene)
    if with_pixels:
        det = TileHashDetector(det)
    local = [result_line(r) for r in run_sequence(source, run_settings, det)]
    attention, final = layout
    with ExitStack() as stack:
        servers = [stack.enter_context(DetectorServer(det)) for _ in range(3)]
        cluster = ClusterConfig(
            final_workers=tuple(servers[i].endpoint for i in final),
            attention_workers=tuple(servers[i].endpoint for i in attention),
        )
        remote = run_stream(source, run_settings, cluster)
    assert [result_line(r) for r in remote] == local


def pixel_frames(count=4):
    rng = np.random.default_rng(count)
    return [
        Frame(i, 1280, 720, rng.integers(0, 256, (720, 1280, 3), dtype=np.uint8))
        for i in range(count)
    ]


class TestSharedMemoryStream:
    @pytest.mark.parametrize("separate", [True, False])
    def test_same_host_workers_read_blocks_and_match_tcp(
        self, separate, sent_blocks, monkeypatch
    ):
        det = TileHashDetector(make_oracle())
        local = list(run_sequence(pixel_frames(), SETTINGS_720, det))
        with DetectorServer(det) as att, DetectorServer(det) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,),
                attention_workers=(att.endpoint,) if separate else (),
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
            def detect(self, frame_id, crop_ids, tiles=None):
                live.append(len(shm_entries()))
                return super().detect(frame_id, crop_ids, tiles)

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

    def test_a_worker_maps_each_block_once(self, sent_blocks, attached):
        """Over a stream whose final blocks grow, each block is mapped once
        by the worker that reads it, however many requests name it, and
        the tiles still hash as the local run's do."""
        det = TileHashDetector(make_oracle(LOOPED_SCENE))
        local = list(run_sequence(pixel_frames(12), SETTINGS_720, det))
        with DetectorServer(det) as att, DetectorServer(det) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            remote = run_stream(pixel_frames(12), SETTINGS_720, cluster)
        named = set(sent_blocks)
        # reused and replaced: more requests than blocks, more blocks than stages
        assert len(sent_blocks) > len(named) > 2
        assert sorted(name for name in attached if name in named) == sorted(named)
        for ours, reference in zip(remote, local, strict=True):
            assert ours.detections == reference.detections

    def test_one_block_per_stage_and_worker(self, monkeypatch):
        """One endpoint serves both stages, beside a second final worker. Each
        (stage, worker) holds at most one live block at a time, and gets a
        new one, the old one unlinked, only for a request that needs more
        bytes than the last one held."""
        attention_ids = {c.crop_id for c in make_plan().attention_grid.crops}
        sent = []  # ((stage, worker), block, tile bytes, live blocks) per request
        real = wire.send_message

        def send_message(sock, header, payload=b""):
            if header.get("type") == "EVAL_REQUEST":
                crops = header["crops"]
                stage = "attention" if crops[0]["crop_id"] in attention_ids else "final"
                sent.append((
                    (stage, sock.getpeername()), header.get("shm"),
                    len(crops) * TILE_BYTES, shm_entries(),
                ))
            return real(sock, header, payload)

        monkeypatch.setattr(wire, "send_message", send_message)
        det = make_oracle(LOOPED_SCENE)
        with DetectorServer(det) as a, DetectorServer(det) as b:
            cluster = ClusterConfig(
                final_workers=(a.endpoint, b.endpoint), attention_workers=(a.endpoint,)
            )
            run_stream(pixel_frames(12), SETTINGS_720, cluster)
        assert len({key for key, *_ in sent}) == 3
        held = {}  # (stage, worker) -> (its block, the bytes that block holds)
        had = {}  # (stage, worker) -> every block it has named
        replaced = reused = 0
        for key, name, nbytes, live in sent:
            assert name is not None
            last, size = held.get(key, (None, 0))
            if name == last:
                assert nbytes <= size
                reused += 1
            else:
                assert nbytes > size
                replaced += last is not None
                held[key] = (name, nbytes)
            had.setdefault(key, set()).add(name)
            assert had[key] & live == {name}
        assert replaced and reused

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

    @pytest.mark.parametrize("role", ["attention", "final"])
    @pytest.mark.parametrize("case", ["preset", "frame-size"])
    def test_worker_on_another_grid_aborts_before_any_request(
        self, role, case, sent_blocks
    ):
        # the workers resolve crop ids for 1 att, 3 fin at 1280x720
        settings, size = SETTINGS_720, (1280, 720)
        if case == "preset":
            settings = PipelineSettings.from_preset("1 att, 2 fin, 50 over")
        else:
            size = (1920, 1080)
        dets = {"attention": make_oracle(), "final": make_oracle()}
        if role == "attention":  # the other one holds no catalog: not checked
            dets["final"] = RecordingDetector(dets["final"])
        else:
            dets["attention"] = RecordingDetector(dets["attention"])
        stream = [Frame(i, *size) for i in range(2)]
        with DetectorServer(dets["attention"]) as att, DetectorServer(
            dets["final"]
        ) as fin:
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
            with pytest.raises(StreamAborted) as err:
                run_stream(stream, settings, cluster)
            endpoint = {"attention": att, "final": fin}[role].endpoint
        assert err.value.cursor == 0
        assert err.value.completed == ()
        assert isinstance(err.value.__cause__, WorkerMismatch)
        assert err.value.__cause__.endpoint == endpoint
        assert "catalog" in str(err.value)
        assert sent_blocks == []  # no EVAL_REQUEST went out

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
        [*PYTHON, str(script)],
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
