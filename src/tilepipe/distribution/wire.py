"""Bit-exact framed message protocol spoken between client and workers.

Every message is an 8-byte prefix of two big-endian unsigned 32-bit
lengths, the header's and the payload's, then the UTF-8 JSON header, then
the raw payload. A reader checks both lengths against MAX_HEADER_BYTES and
MAX_PAYLOAD_BYTES before it reads either, and needs nothing of the header
to frame a message. Headers are canonical JSON (sorted keys, no whitespace)
so that equal values always produce equal bytes.

Message types:
  EVAL_REQUEST   {type, frame_id, crops: [{crop_id}, ...], shm (optional)}
                 frame_id and crop_id are ints. tiles: the crops' raw 8-bit
                 RGB 608x608 tiles concatenated in listed order,
                 geometry.TILE_BYTES each. Without shm they are the payload,
                 exactly k * TILE_BYTES for k crops. With shm, the name of a
                 shared-memory block (see shm.py), they fill the start of
                 that block, which holds at least k * TILE_BYTES, and the
                 message has no payload. A raster-free request has neither
                 a payload nor shm.
  EVAL_RESPONSE  {type, frame_id, results: [{crop_id, detections}, ...]}
                 one result per requested crop, in request order.
                 detections are crop-local in model-input space:
                 {x, y, w, h, class, confidence} (detector.detection_row);
                 no payload
  HEALTH         {type, probe (optional)}; no payload. probe names a block
                 whose first shm.PROBE_BYTES bytes are a random nonce.
  HEALTH_OK      {type, catalog (when the detector has one),
                 probe (when asked)}; no payload. catalog is the
                 detector.crop_catalog_key of the crops its ids resolve to.
                 probe is the hex of the first shm.PROBE_BYTES
                 bytes the worker read from the named block, or null if it
                 could not map it: the nonce comes back only from a worker
                 that shares memory with the client.
  ERROR          {type, code, message}; no payload
"""

from __future__ import annotations

import json
import socket
import struct

# Sanity bound on header size; a real header is a few KB at most.
MAX_HEADER_BYTES = 16 * 1024 * 1024
# Bound on the payload a prefix may declare, checked before anything is
# allocated for it; a 4K frame's tiles come to about 10 MB.
MAX_PAYLOAD_BYTES = 512 * 1024 * 1024
# What a read allocates before its first byte arrives; the buffer then grows
# with the bytes received (see _recv_exact).
FIRST_READ_BYTES = 64 * 1024
# Grown buffers are zero-filled from this one block, which stays in cache: a
# fresh zeroed buffer of the whole growth costs a page fault per page read.
_ZEROS = bytes(FIRST_READ_BYTES)
# header length, payload length
_PREFIX = struct.Struct(">II")


class ProtocolError(RuntimeError):
    """The byte stream does not parse as a valid message."""


def canonical_json(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _prefix(header: dict, payload: bytes | memoryview) -> bytes:
    """Length prefix and header of a message; the payload counts in bytes,
    whatever the shape of a view of it."""
    head = canonical_json(header)
    return _PREFIX.pack(len(head), memoryview(payload).nbytes) + head


def encode_message(header: dict, payload: bytes = b"") -> bytes:
    """Frame a header (and optional payload) into wire bytes."""
    return _prefix(header, payload) + payload


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly n bytes. The buffer starts at FIRST_READ_BYTES and
    doubles, up to n, each time it fills: a peer that declares n bytes and
    sends fewer makes the reader hold at most twice what it sent (or
    FIRST_READ_BYTES), not n."""
    buf = bytearray(min(n, FIRST_READ_BYTES))
    got = 0
    while got < n:
        if got == len(buf):  # full: double it, up to n
            size = min(2 * got, n)
            while len(buf) < size:
                buf += memoryview(_ZEROS)[: size - len(buf)]
        received = sock.recv_into(memoryview(buf)[got:])
        if not received:
            raise ConnectionError(
                f"connection closed with {n - got} bytes still expected"
            )
        got += received
    return buf


def send_message(
    sock: socket.socket, header: dict, payload: bytes | memoryview = b""
) -> None:
    """Send one message; a payload goes out from the caller's buffer as is."""
    sock.sendall(_prefix(header, payload))
    sock.sendall(payload)


def recv_message(sock: socket.socket) -> tuple[dict, bytearray | bytes]:
    """Read one framed message. Raises ProtocolError for a header or payload
    length over its limit, before reading either, and for a header that is
    not a JSON object with a 'type' field."""
    head_len, size = _PREFIX.unpack(_recv_exact(sock, _PREFIX.size))
    if head_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"header length {head_len} exceeds limit")
    if size > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"declared payload of {size} bytes exceeds {MAX_PAYLOAD_BYTES}"
        )
    raw = _recv_exact(sock, head_len)
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and ints of too many digits;
        # RecursionError, arrays or objects nested too deep to parse
        raise ProtocolError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or "type" not in header:
        raise ProtocolError("header must be an object with a 'type' field")
    payload = _recv_exact(sock, size) if size else b""
    return header, payload


def eval_response(frame_id: int, results: list[dict]) -> bytes:
    return encode_message(
        {"type": "EVAL_RESPONSE", "frame_id": frame_id, "results": results}
    )


def error_message(code: str, message: str) -> bytes:
    return encode_message({"type": "ERROR", "code": code, "message": message})
