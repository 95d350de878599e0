"""Bit-exact framed message protocol spoken between client and workers.

Every message is a 4-byte big-endian unsigned header length, the UTF-8 JSON
header itself, then a raw payload whose size the header implies, at most
MAX_PAYLOAD_BYTES. Headers are canonical JSON (sorted keys, no whitespace)
so that equal values always produce equal bytes.

Message types:
  EVAL_REQUEST   {type, frame_id, crops: [{crop_id, width, height}, ...],
                  shm (optional)}
                 tiles: the crops' raw 8-bit RGB tiles concatenated in
                 listed order (width * height * 3 bytes each; zero-size
                 tiles for raster-free runs contribute no bytes). Without
                 shm they are the payload. With shm, the name of a
                 shared-memory block (see shm.py), they fill the start of
                 that block and the message has no payload.
  EVAL_RESPONSE  {type, frame_id, results: [{crop_id, detections}, ...]}
                 detections are crop-local in model-input space:
                 {x, y, w, h, class, confidence}; no payload
  HEALTH         {type, probe (optional)}; no payload. probe names a block
                 whose first shm.PROBE_BYTES bytes are a random nonce.
  HEALTH_OK      {type, input_side, probe (when asked)}; no
                 payload. probe is the hex of the first shm.PROBE_BYTES
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
# Bound on the payload a header may declare, checked before anything is
# allocated for it; a 4K frame's tiles come to about 10 MB.
MAX_PAYLOAD_BYTES = 512 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The byte stream does not parse as a valid message."""


def canonical_json(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _prefix(header: dict, payload: bytes | memoryview) -> bytes:
    """Length prefix and header of a message, once the payload size is checked."""
    head = canonical_json(header)
    declared = payload_size(header)
    if declared != len(payload):
        raise ProtocolError(
            f"header declares {declared} payload bytes, got {len(payload)}"
        )
    return struct.pack(">I", len(head)) + head


def encode_message(header: dict, payload: bytes = b"") -> bytes:
    """Frame a header (and optional payload) into wire bytes."""
    return _prefix(header, payload) + payload


def payload_size(header: dict) -> int:
    """Payload bytes implied by a header: the tile rasters of an
    EVAL_REQUEST that names no shared-memory block."""
    if header.get("type") != "EVAL_REQUEST" or "shm" in header:
        return 0
    total = 0
    for crop in header.get("crops", ()):
        total += int(crop["width"]) * int(crop["height"]) * 3
    return total


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        received = sock.recv_into(view[got:])
        if not received:
            raise ConnectionError(
                f"connection closed with {n - got} bytes still expected"
            )
        got += received
    return buf


def send_message(
    sock: socket.socket, header: dict, payload: bytes | memoryview = b""
) -> None:
    """Send one message; a payload goes out from the caller's buffer as is.

    ``len(payload)`` must be its size in bytes, as for a flat byte view.
    """
    sock.sendall(_prefix(header, payload))
    sock.sendall(payload)


def recv_message(sock: socket.socket) -> tuple[dict, bytearray | bytes]:
    """Read one framed message; raises ProtocolError on malformed bytes,
    and on a declared payload over MAX_PAYLOAD_BYTES before reading it."""
    (head_len,) = struct.unpack(">I", _recv_exact(sock, 4))
    if head_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"header length {head_len} exceeds limit")
    raw = _recv_exact(sock, head_len)
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or "type" not in header:
        raise ProtocolError("header must be an object with a 'type' field")
    try:
        size = payload_size(header)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed crop list: {exc}") from exc
    if not 0 <= size <= MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"declared payload of {size} bytes is outside 0..{MAX_PAYLOAD_BYTES}"
        )
    payload = _recv_exact(sock, size) if size else b""
    return header, payload


def eval_request(frame_id: int, crops: list[dict], payload: bytes = b"") -> bytes:
    return encode_message(
        {"type": "EVAL_REQUEST", "frame_id": frame_id, "crops": crops}, payload
    )


def eval_response(frame_id: int, results: list[dict]) -> bytes:
    return encode_message(
        {"type": "EVAL_RESPONSE", "frame_id": frame_id, "results": results}
    )


def error_message(code: str, message: str) -> bytes:
    return encode_message({"type": "ERROR", "code": code, "message": message})
