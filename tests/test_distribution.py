"""Worker/client integration over localhost sockets."""

import random
import socket
import struct
import threading
import time
import weakref

import numpy as np
import pytest

from tilepipe.detector import Detector, GroundTruthObject
from tilepipe.distribution import (
    ClusterConfig,
    DetectorServer,
    RemoteFault,
    StreamAborted,
    WorkerTimeout,
    WorkerUnavailable,
    check_health,
    dispatch,
    evaluate_remote,
    run_stream,
)
from tilepipe.distribution import wire
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
        assert reply["input_side"] == 608
        assert reply["classes"] == ["car", "person"]

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
        cluster = ClusterConfig(final_workers=("127.0.0.1:1",))
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
