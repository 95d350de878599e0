import json
import math
import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tilepipe.distribution import wire


def framed(
    header_bytes: bytes, payload: bytes = b"", declared: int | None = None
) -> bytes:
    """A message's bytes; its prefix declares ``declared`` payload bytes,
    by default as many as it carries."""
    size = len(payload) if declared is None else declared
    return struct.pack(">II", len(header_bytes), size) + header_bytes + payload


def eval_request_bytes(crops: bytes, frame_id: bytes = b"0") -> bytes:
    return b'{"crops":%s,"frame_id":%s,"type":"EVAL_REQUEST"}' % (crops, frame_id)


# EVAL_REQUEST headers that json cannot parse: nested too deep, or an int of
# too many digits
UNPARSABLE_HEADERS = {
    "nested_200000_deep": eval_request_bytes(b"[" * 200_000 + b"]" * 200_000),
    "int_of_5000_digits": eval_request_bytes(b"[]", frame_id=b"7" * 5000),
}


def recv_sent(raw: bytes):
    """recv_message on one end of a socketpair, while a thread sends raw
    bytes on the other end and then shuts its write side."""
    a, b = socket.socketpair()

    def send():
        try:
            a.sendall(raw)
            a.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the reader stopped before taking every byte

    sender = threading.Thread(target=send)
    sender.start()
    try:
        b.settimeout(5)
        return wire.recv_message(b)
    finally:
        b.close()
        sender.join(5)
        a.close()
        assert not sender.is_alive()


class TestEncoding:
    def test_health_golden_bytes(self):
        # 17-byte canonical header, no payload, lengths big-endian
        expected = b'\x00\x00\x00\x11\x00\x00\x00\x00{"type":"HEALTH"}'
        assert wire.encode_message({"type": "HEALTH"}) == expected

    def test_key_order_is_canonical(self):
        a = wire.encode_message({"type": "ERROR", "code": "x", "message": "y"})
        b = wire.encode_message({"message": "y", "code": "x", "type": "ERROR"})
        assert a == b
        assert b'"code":"x","message":"y","type":"ERROR"' in a

    def test_no_whitespace_in_header(self):
        raw = wire.encode_message(
            {"type": "EVAL_RESPONSE", "frame_id": 0, "results": []}
        )
        assert b" " not in raw

    def test_eval_request_roundtrip_bytes(self):
        crops = [{"crop_id": 3}]
        payload = bytes(range(12))
        sent = {"type": "EVAL_REQUEST", "frame_id": 7, "crops": crops}
        raw = wire.encode_message(sent, payload)
        header_len, payload_len = struct.unpack(">II", raw[:8])
        header = json.loads(raw[8 : 8 + header_len])
        assert header == sent
        assert payload_len == len(payload)
        assert raw[8 + header_len :] == payload


class TestSocketFraming:
    def roundtrip(self, header, payload=b""):
        a, b = socket.socketpair()
        try:
            wire.send_message(a, header, payload)
            return wire.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_roundtrip_no_payload(self):
        header, payload = self.roundtrip({"type": "HEALTH"})
        assert header == {"type": "HEALTH"}
        assert payload == b""

    def test_roundtrip_with_payload(self):
        crops = [{"crop_id": 0}]
        sent = bytes(range(12))
        header, payload = self.roundtrip(
            {"type": "EVAL_REQUEST", "frame_id": 1, "crops": crops}, sent
        )
        assert payload == sent

    def test_roundtrip_with_tile_buffer_view(self):
        tiles = np.arange(2 * 3 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3, 3)
        crops = [{"crop_id": i} for i in range(2)]
        header, payload = self.roundtrip(
            {"type": "EVAL_REQUEST", "frame_id": 1, "crops": crops},
            memoryview(tiles).cast("B"),
        )
        assert payload == tiles.tobytes()

    def test_send_frames_a_tile_shaped_view_by_its_bytes(self):
        tiles = np.arange(2 * 3 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3, 3)
        header = {"type": "EVAL_REQUEST", "frame_id": 1, "crops": [{"crop_id": 0}]}
        a, b = socket.socketpair()
        try:
            wire.send_message(a, header, memoryview(tiles))  # len() is 2
            wire.send_message(a, {"type": "HEALTH"})
            got = [wire.recv_message(b), wire.recv_message(b)]
        finally:
            a.close()
            b.close()
        assert got == [(header, tiles.tobytes()), ({"type": "HEALTH"}, b"")]

    def recv_raw(self, raw: bytes):
        a, b = socket.socketpair()
        try:
            a.sendall(raw)
            a.close()
            return wire.recv_message(b)
        finally:
            b.close()

    def test_malformed_json_header(self):
        with pytest.raises(wire.ProtocolError):
            self.recv_raw(framed(b"{not json"))

    def test_header_must_be_object_with_type(self):
        with pytest.raises(wire.ProtocolError):
            self.recv_raw(framed(b"[1,2]"))
        with pytest.raises(wire.ProtocolError):
            self.recv_raw(framed(b'{"a":1}'))

    def test_oversized_header_length_rejected(self):
        with pytest.raises(wire.ProtocolError):
            self.recv_raw(struct.pack(">II", 0xFFFFFFFF, 0) + b"xx")

    def test_truncated_stream_is_connection_error(self):
        health = b'{"type":"HEALTH"}'
        with pytest.raises(ConnectionError):
            self.recv_raw(b"\x00\x00\x00\x00\x00")  # length prefix cut short
        with pytest.raises(ConnectionError):
            self.recv_raw(struct.pack(">II", 10, 0) + b"short")
        with pytest.raises(ConnectionError):
            self.recv_raw(framed(health, b"abc", declared=10))

    # over the limit, and -1 as the unsigned length it reads as
    @pytest.mark.parametrize(
        "size",
        [wire.MAX_PAYLOAD_BYTES + 1, 2**32 - 1],
        ids=["over_limit", "negative"],
    )
    def test_declared_payload_out_of_bounds_rejected_before_reading(self, size):
        header = json.dumps(
            {"type": "EVAL_REQUEST", "frame_id": 0, "crops": [{"crop_id": 0}]}
        ).encode()
        a, b = socket.socketpair()
        try:
            # the writer stays open and sends no payload: reading would block
            b.settimeout(5)
            a.sendall(framed(header, declared=size))
            with pytest.raises(wire.ProtocolError, match="payload"):
                wire.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_declared_payload_over_the_limit_is_refused_before_the_header(self):
        a, b = socket.socketpair()
        try:
            # the writer stays open and sends the prefix alone, declaring a
            # header too: reading the header would block
            b.settimeout(5)
            a.sendall(struct.pack(">II", 17, wire.MAX_PAYLOAD_BYTES + 1))
            with pytest.raises(wire.ProtocolError, match="payload"):
                wire.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_payload_over_many_buffer_doublings_arrives_whole(self):
        crops = [{"crop_id": i} for i in range(3)]
        header = {"type": "EVAL_REQUEST", "frame_id": 1, "crops": crops}
        sent = np.random.default_rng(0).bytes(3 * 301 * 301 * 3)  # 815,409 bytes
        assert len(sent) > 8 * wire.FIRST_READ_BYTES
        got, payload = recv_sent(wire.encode_message(header, sent))
        assert got == header
        assert payload == sent

    def test_declared_payload_is_allocated_as_it_arrives(self):
        """A prefix declaring 50 MB of payload, then 10 bytes and a closed
        write side: the reader allocates for what arrived."""
        header = json.dumps(
            {"type": "EVAL_REQUEST", "frame_id": 0, "crops": [{"crop_id": 0}]}
        ).encode()
        tracemalloc.start()
        try:
            with pytest.raises(ConnectionError):
                recv_sent(framed(header, b"0123456789", declared=4096 * 4096 * 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    @pytest.mark.parametrize("case", sorted(UNPARSABLE_HEADERS))
    def test_header_that_cannot_be_parsed_is_a_protocol_error(self, case):
        with pytest.raises(wire.ProtocolError):
            recv_sent(framed(UNPARSABLE_HEADERS[case]))


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()  # nan and both infinities included
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
IDS = (
    st.integers()
    | st.integers(0, 700)
    | st.sampled_from([math.inf, -math.inf, math.nan])
    | st.floats()
    | st.booleans()
    | JSON_VALUES
)
CROP_ENTRIES = st.fixed_dictionaries({"crop_id": IDS}) | st.just({})
CROPS = (
    st.lists(CROP_ENTRIES, max_size=4)
    | st.lists(CROP_ENTRIES | JSON_VALUES, max_size=4)
    | JSON_VALUES
)
TYPES = st.sampled_from(["EVAL_REQUEST", "HEALTH", "ERROR", "EVAL_RESPONSE"]) | JSON_VALUES


@st.composite
def headers(draw):
    """A JSON object, mostly an EVAL_REQUEST naming no block, whose crop
    list holds crop entries; any field may hold any JSON value."""
    header = draw(st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=2))
    for key, values, in_tenths in (
        ("type", st.just("EVAL_REQUEST") | TYPES, 9),
        ("crops", CROPS, 9),
        ("frame_id", JSON_VALUES, 5),
        ("shm", JSON_VALUES, 2),
    ):
        if draw(st.sampled_from(range(10))) < in_tenths:
            header[key] = draw(values)
    return header


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    header=headers(),
    payload=st.binary(max_size=64),
    # the payload's own length, or any other the prefix can declare
    declared=st.none() | st.integers(0, 2**32 - 1) | st.integers(0, 80),
)
def test_recv_message_returns_a_message_or_raises_a_protocol_or_connection_error(
    header, payload, declared
):
    try:
        got, body = recv_sent(framed(json.dumps(header).encode(), payload, declared))
    except (wire.ProtocolError, ConnectionError):
        return
    assert isinstance(got, dict) and "type" in got
    assert isinstance(body, (bytes, bytearray))
    assert body == payload[: len(payload) if declared is None else declared]
