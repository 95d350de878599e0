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


def framed(header_bytes: bytes, payload: bytes = b"") -> bytes:
    return struct.pack(">I", len(header_bytes)) + header_bytes + payload


def eval_request_bytes(crops: bytes, frame_id: bytes = b"0") -> bytes:
    return b'{"crops":%s,"frame_id":%s,"type":"EVAL_REQUEST"}' % (crops, frame_id)


# EVAL_REQUEST headers that json cannot parse (nested too deep, an int of
# too many digits) or whose payload size cannot be computed (infinite width)
UNSIZABLE_HEADERS = {
    "infinite_width": eval_request_bytes(b'[{"crop_id":0,"height":1,"width":Infinity}]'),
    "overflowing_width": eval_request_bytes(b'[{"crop_id":0,"height":1,"width":1e999}]'),
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
        # 17-byte canonical header, length prefix big-endian
        expected = b'\x00\x00\x00\x11{"type":"HEALTH"}'
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
        crops = [{"crop_id": 3, "width": 2, "height": 2}]
        payload = bytes(range(12))
        sent = {"type": "EVAL_REQUEST", "frame_id": 7, "crops": crops}
        raw = wire.encode_message(sent, payload)
        header_len = struct.unpack(">I", raw[:4])[0]
        header = json.loads(raw[4 : 4 + header_len])
        assert header == sent
        assert raw[4 + header_len :] == payload

    def test_payload_size_sums_tiles(self):
        header = {
            "type": "EVAL_REQUEST",
            "frame_id": 0,
            "crops": [
                {"crop_id": 0, "width": 2, "height": 3},
                {"crop_id": 1, "width": 0, "height": 0},
                {"crop_id": 2, "width": 4, "height": 1},
            ],
        }
        assert wire.payload_size(header) == (6 + 0 + 4) * 3

    def test_payload_size_zero_for_other_types(self):
        assert wire.payload_size({"type": "HEALTH"}) == 0
        assert wire.payload_size({"type": "EVAL_RESPONSE", "results": []}) == 0

    def test_encode_rejects_payload_mismatch(self):
        header = {
            "type": "EVAL_REQUEST",
            "frame_id": 0,
            "crops": [{"crop_id": 0, "width": 1, "height": 1}],
        }
        with pytest.raises(wire.ProtocolError):
            wire.encode_message(header, b"xx")  # needs exactly 3 bytes


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
        crops = [{"crop_id": 0, "width": 2, "height": 2}]
        sent = bytes(range(12))
        header, payload = self.roundtrip(
            {"type": "EVAL_REQUEST", "frame_id": 1, "crops": crops}, sent
        )
        assert payload == sent

    def test_roundtrip_with_tile_buffer_view(self):
        tiles = np.arange(2 * 3 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3, 3)
        crops = [{"crop_id": i, "width": 3, "height": 3} for i in range(2)]
        header, payload = self.roundtrip(
            {"type": "EVAL_REQUEST", "frame_id": 1, "crops": crops},
            memoryview(tiles).cast("B"),
        )
        assert payload == tiles.tobytes()

    def test_send_rejects_payload_counted_in_tiles(self):
        tiles = np.zeros((2, 3, 3, 3), dtype=np.uint8)
        crops = [{"crop_id": i, "width": 3, "height": 3} for i in range(2)]
        header = {"type": "EVAL_REQUEST", "frame_id": 1, "crops": crops}
        a, b = socket.socketpair()
        try:
            with pytest.raises(wire.ProtocolError):
                wire.send_message(a, header, memoryview(tiles))  # len() is 2
        finally:
            a.close()
            b.close()

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
            self.recv_raw(struct.pack(">I", 0xFFFFFFFF) + b"xx")

    def test_truncated_stream_is_connection_error(self):
        with pytest.raises(ConnectionError):
            self.recv_raw(b"\x00\x00")  # length prefix cut short
        with pytest.raises(ConnectionError):
            self.recv_raw(struct.pack(">I", 10) + b"short")

    @pytest.mark.parametrize(
        "width,height", [(20000, 20000), (-1, 1)], ids=["over_limit", "negative"]
    )
    def test_declared_payload_out_of_bounds_rejected_before_reading(
        self, width, height
    ):
        header = json.dumps(
            {
                "type": "EVAL_REQUEST",
                "frame_id": 0,
                "crops": [{"crop_id": 0, "width": width, "height": height}],
            }
        ).encode()
        a, b = socket.socketpair()
        try:
            # the writer stays open and sends no payload: reading would block
            b.settimeout(5)
            a.sendall(framed(header))
            with pytest.raises(wire.ProtocolError, match="payload"):
                wire.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_payload_over_many_buffer_doublings_arrives_whole(self):
        side = 301  # 3 tiles: 815,409 bytes, about 12 times the first read
        crops = [{"crop_id": i, "width": side, "height": side} for i in range(3)]
        header = {"type": "EVAL_REQUEST", "frame_id": 1, "crops": crops}
        sent = np.random.default_rng(0).bytes(wire.payload_size(header))
        assert len(sent) > 8 * wire.FIRST_READ_BYTES
        got, payload = recv_sent(wire.encode_message(header, sent))
        assert got == header
        assert payload == sent

    def test_declared_payload_is_allocated_as_it_arrives(self):
        """A header declaring one 4096x4096 tile (50 MB), then 10 bytes and
        a closed write side: the reader allocates for what arrived."""
        header = json.dumps(
            {
                "type": "EVAL_REQUEST",
                "frame_id": 0,
                "crops": [{"crop_id": 0, "width": 4096, "height": 4096}],
            }
        ).encode()
        tracemalloc.start()
        try:
            with pytest.raises(ConnectionError):
                recv_sent(framed(header, b"0123456789"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    def test_malformed_crop_list(self):
        header = json.dumps(
            {"type": "EVAL_REQUEST", "frame_id": 0, "crops": [{"crop_id": 0}]}
        ).encode()
        with pytest.raises(wire.ProtocolError):
            self.recv_raw(framed(header))

    @pytest.mark.parametrize("case", sorted(UNSIZABLE_HEADERS))
    def test_header_that_cannot_be_sized_is_a_protocol_error(self, case):
        with pytest.raises(wire.ProtocolError):
            recv_sent(framed(UNSIZABLE_HEADERS[case]))


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
SIZES = (
    st.integers()
    | st.integers(0, 700)
    | st.sampled_from([math.inf, -math.inf, math.nan])
    | st.floats()
    | st.booleans()
    | JSON_VALUES
)
CROP_ENTRIES = st.fixed_dictionaries(
    {"width": SIZES, "height": SIZES}, optional={"crop_id": JSON_VALUES}
) | st.fixed_dictionaries(
    {}, optional={"crop_id": JSON_VALUES, "width": SIZES, "height": SIZES}
)
CROPS = (
    st.lists(CROP_ENTRIES, max_size=4)
    | st.lists(CROP_ENTRIES | JSON_VALUES, max_size=4)
    | JSON_VALUES
)
TYPES = st.sampled_from(["EVAL_REQUEST", "HEALTH", "ERROR", "EVAL_RESPONSE"]) | JSON_VALUES


@st.composite
def headers(draw):
    """A JSON object, mostly an EVAL_REQUEST (the one type with a payload)
    naming no block, whose crop list holds crop entries; any field may
    hold any JSON value."""
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
@given(header=headers(), payload=st.binary(max_size=64))
def test_recv_message_returns_a_message_or_raises_a_protocol_or_connection_error(
    header, payload
):
    try:
        got, body = recv_sent(framed(json.dumps(header).encode(), payload))
    except (wire.ProtocolError, ConnectionError):
        return
    assert isinstance(got, dict) and "type" in got
    assert isinstance(body, (bytes, bytearray))
    assert len(body) == wire.payload_size(got)
