import json
import socket
import struct

import numpy as np
import pytest

from tilepipe.distribution import wire


def framed(header_bytes: bytes, payload: bytes = b"") -> bytes:
    return struct.pack(">I", len(header_bytes)) + header_bytes + payload


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
        raw = wire.eval_request(7, crops, payload)
        header_len = struct.unpack(">I", raw[:4])[0]
        header = json.loads(raw[4 : 4 + header_len])
        assert header == {"type": "EVAL_REQUEST", "frame_id": 7, "crops": crops}
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

    def test_malformed_crop_list(self):
        header = json.dumps(
            {"type": "EVAL_REQUEST", "frame_id": 0, "crops": [{"crop_id": 0}]}
        ).encode()
        with pytest.raises(wire.ProtocolError):
            self.recv_raw(framed(header))
