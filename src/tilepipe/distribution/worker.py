"""Worker side: a threaded TCP server that runs a detector on request.

Workers keep nothing between requests but a connection's block mapping
(below), and never talk to each other. A client keeps one connection to
a worker per stage it serves for a whole stream, and sends one request
at a time on it; one handler thread serves each connection. Between
messages the handler waits for the next message's first byte, checking
every POLL_INTERVAL_S whether the server is shutting down, and only then
reads the message; so an idle connection neither blocks shutdown nor
counts as time spent receiving. Each EVAL_REQUEST is answered with the
crop-local detections for every listed crop, from one detector call on a
view of all its tiles; a malformed message gets an ERROR response and
the connection stays open for the next message. A request is checked
before any tile is read from it: frame and crop ids must be ints, all
tiles squares of the detector's input side (or all 0x0, for raster-free
runs), and their bytes must fill the payload exactly.

A request reads its tiles from a shared-memory block instead when its
header names one (shm): the client does so for every worker that read back
the nonce of its HEALTH probe, that is, a worker on the client's host. The
block must exist, hold at least the tiles' bytes, and come with no payload.
The client keeps one block per stage and worker, under one name until a
request needs more bytes, and writes it only between that worker's
requests. So a connection's handler keeps the block its last request named
mapped (_Mapping): it maps a block once, not once per request, and unmaps
it when a request names another block or the connection ends.
"""

from __future__ import annotations

import math
import mmap
import selectors
import socketserver
import threading
from contextlib import nullcontext

import numpy as np

from ..detector import Detector, detection_row
from . import shm, wire

# How often serve_forever and each handler waiting for a message check for
# shutdown; shutdown() waits up to this long, and an idle handler exits
# within as long again.
POLL_INTERVAL_S = 0.05

_Selector = getattr(selectors, "PollSelector", selectors.SelectSelector)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_request(header: dict, input_side: int) -> int:
    """The side of every tile of an EVAL_REQUEST: input_side, or 0 for a
    raster-free one. Raise ValueError unless the frame id and every crop id
    are ints and every tile is a square of that one side."""
    frame_id = header["frame_id"]
    if not _is_int(frame_id):
        raise ValueError(f"frame_id must be an int, got {frame_id!r}")
    sides = set()
    for crop in header["crops"]:
        crop_id, width, height = crop["crop_id"], crop["width"], crop["height"]
        if not _is_int(crop_id):
            raise ValueError(f"crop_id must be an int, got {crop_id!r}")
        if not (_is_int(width) and width == height and width in (0, input_side)):
            raise ValueError(
                f"crop_id {crop_id}: tile must be {input_side}x{input_side} "
                f"or 0x0, got {width!r}x{height!r}"
            )
        sides.add(width)
    if len(sides) > 1:
        raise ValueError(f"tiles must be all {input_side}x{input_side} or all 0x0")
    return sides.pop() if sides else 0


class _Mapping:
    """The block a connection's requests last named, kept mapped until a
    request names another block or close() is called."""

    def __init__(self):
        self._name = None
        self._block: mmap.mmap | None = None

    def __enter__(self) -> "_Mapping":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def attach(self, name) -> mmap.mmap:
        """The named block, mapped now unless it is the one held; any other
        block held is unmapped first. Raises as shm.attach does."""
        if self._block is None or name != self._name:
            self.close()
            self._block = shm.attach(name)
            self._name = name
        return self._block

    def close(self) -> None:
        if self._block is not None:
            shm.detach(self._block)
        self._name = self._block = None


def _tile_buffer(
    header: dict, payload: bytes | bytearray, input_side: int, mapping: _Mapping
):
    """The tile side of a checked request and the buffer that holds its
    tiles: its payload, or the block it names, mapped by mapping."""
    side = _check_request(header, input_side)
    total = len(header["crops"]) * side * side * 3
    if "shm" not in header:
        if total != len(payload):
            raise ValueError(f"tiles declare {total} payload bytes, got {len(payload)}")
        return side, payload
    if payload:
        raise ValueError(f"a request naming a block has {len(payload)} payload bytes")
    block = mapping.attach(header["shm"])
    if total > len(block):
        raise ValueError(
            f"tiles declare {total} bytes, block {header['shm']} holds {len(block)}"
        )
    return side, block


def _detect_tiles(det: Detector, frame_id: int, crops: list, side: int, buffer):
    """The reply to a checked request: one detector call on its tiles, a
    view of buffer. Any failure of the detector is a detector_failure."""
    crop_ids = [crop["crop_id"] for crop in crops]
    tiles = None
    if side:
        shape = (len(crop_ids), side, side, 3)
        tiles = np.frombuffer(buffer, np.uint8, math.prod(shape)).reshape(shape)
    try:
        found = det.detect(frame_id, crop_ids, tiles)
        results = [
            {"crop_id": crop_id, "detections": [detection_row(d) for d in dets]}
            for crop_id, dets in zip(crop_ids, found, strict=True)
        ]
    except Exception as exc:
        return wire.error_message("detector_failure", f"frame {frame_id}: {exc}")
    return wire.eval_response(frame_id, results)


def _handle_eval(
    det: Detector, header: dict, payload: bytes | bytearray, mapping: _Mapping
) -> bytes:
    try:
        side, tiles = _tile_buffer(header, payload, det.input_side, mapping)
    except (ValueError, OSError) as exc:
        return wire.error_message("malformed", f"bad EVAL_REQUEST: {exc}")
    return _detect_tiles(det, header["frame_id"], header["crops"], side, tiles)


def _read_probe(name) -> str | None:
    """Hex of the nonce at the start of the named block; None when the
    block cannot be mapped here."""
    try:
        block = shm.attach(name)
    except (ValueError, OSError):
        return None
    try:
        return block[: shm.PROBE_BYTES].hex()
    finally:
        shm.detach(block)


def _respond(
    det: Detector,
    header: dict,
    payload: bytes | bytearray,
    mapping: _Mapping | None = None,
) -> bytes:
    """The reply to one message. A block that an EVAL_REQUEST names is
    mapped by ``mapping``, a connection's, which keeps it for the next
    request; without one, it is mapped for this call alone and unmapped
    before the reply is returned."""
    kind = header.get("type")
    if kind == "HEALTH":
        reply = {"type": "HEALTH_OK", "input_side": det.input_side}
        if det.catalog_key is not None:
            reply["catalog"] = det.catalog_key
        if "probe" in header:
            reply["probe"] = _read_probe(header["probe"])
        return wire.encode_message(reply)
    if kind == "EVAL_REQUEST":
        try:
            with _Mapping() if mapping is None else nullcontext(mapping) as held:
                return _handle_eval(det, header, payload, held)
        except (KeyError, TypeError) as exc:
            return wire.error_message("malformed", f"bad EVAL_REQUEST: {exc!r}")
    return wire.error_message("unsupported_type", f"unknown message type {kind!r}")


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        det = self.server.detector
        with _Selector() as selector, _Mapping() as mapping:
            selector.register(self.request, selectors.EVENT_READ)
            while self._message_waiting(selector):
                try:
                    header, payload = wire.recv_message(self.request)
                except OSError:
                    return
                except wire.ProtocolError as exc:
                    # Framed-but-invalid input is answerable; a broken frame
                    # boundary is not recoverable, so close after reporting.
                    try:
                        self.request.sendall(wire.error_message("malformed", str(exc)))
                    except OSError:
                        pass
                    return
                try:
                    self.request.sendall(_respond(det, header, payload, mapping))
                except OSError:
                    return

    def _message_waiting(self, selector) -> bool:
        """Wait until the connection has a byte to read (a message, or the
        client closing it); False once the server is shutting down, even if
        one has come in since."""
        while True:
            ready = selector.select(POLL_INTERVAL_S)
            if self.server.stopping.is_set():
                return False
            if ready:
                return True


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, detector):
        super().__init__(address, _Handler)
        self.detector = detector
        self.stopping = threading.Event()


class DetectorServer:
    """A worker bound to a host:port, serving one detector."""

    def __init__(self, detector: Detector, host: str = "127.0.0.1", port: int = 0):
        self._server = _Server((host, port), detector)
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "DetectorServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": POLL_INTERVAL_S},
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever(poll_interval=POLL_INTERVAL_S)

    def shutdown(self) -> None:
        """Stop accepting connections. Each handler closes its connection
        once it has answered the message it is reading, and an idle one
        within POLL_INTERVAL_S."""
        self._server.stopping.set()
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "DetectorServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

