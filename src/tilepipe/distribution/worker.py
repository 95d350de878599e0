"""Worker side: a threaded TCP server that runs a detector on request.

Workers are stateless between requests and never talk to each other. Each
EVAL_REQUEST is answered with the crop-local detections for every listed
crop; a malformed message gets an ERROR response and the connection stays
open for the next message. A request is checked before any tile is read
from it: crop ids must be ints, tiles squares of the detector's input side
(or 0x0, for raster-free runs), and their bytes must fill the payload
exactly.

A request reads its tiles from a shared-memory block instead when its
header names one (shm): the client does so for every worker that read back
the nonce of its HEALTH probe, that is, a worker on the client's host. The
block must exist, hold at least the tiles' bytes, and come with no payload.
The worker maps it for that one request and unmaps it before replying.
"""

from __future__ import annotations

import socketserver
import threading

import numpy as np

from ..detector import Detector
from . import shm, wire

# How often serve_forever checks for shutdown; shutdown() waits up to this long.
POLL_INTERVAL_S = 0.05


def _detection_row(det) -> dict:
    return {
        "x": det.rect.x,
        "y": det.rect.y,
        "w": det.rect.w,
        "h": det.rect.h,
        "class": det.class_label,
        "confidence": det.confidence,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_crops(crops: list, input_side: int) -> int:
    """The bytes the tiles of a crop list fill; raise ValueError unless
    every crop id is an int and every tile a square of side input_side or 0."""
    total = 0
    for crop in crops:
        crop_id, width, height = crop["crop_id"], crop["width"], crop["height"]
        if not _is_int(crop_id):
            raise ValueError(f"crop_id must be an int, got {crop_id!r}")
        if not (_is_int(width) and width == height and width in (0, input_side)):
            raise ValueError(
                f"crop_id {crop_id}: tile must be {input_side}x{input_side} "
                f"or 0x0, got {width!r}x{height!r}"
            )
        total += width * height * 3
    return total


def _tile_buffer(header: dict, payload: bytes | bytearray, input_side: int):
    """The buffer that holds a checked request's tiles: its payload, or a
    mapping of the block it names, which the caller must detach."""
    total = _check_crops(header["crops"], input_side)
    if "shm" not in header:
        if total != len(payload):
            raise ValueError(f"tiles declare {total} payload bytes, got {len(payload)}")
        return payload
    if payload:
        raise ValueError(f"a request naming a block has {len(payload)} payload bytes")
    block = shm.attach(header["shm"])
    if total > len(block):
        shm.detach(block)
        raise ValueError(
            f"tiles declare {total} bytes, block {header['shm']} holds {len(block)}"
        )
    return block


def _detect_tiles(det: Detector, frame_id, crops: list, tiles) -> bytes:
    results = []
    offset = 0
    for crop in crops:
        crop_id, side = crop["crop_id"], crop["width"]
        size = side * side * 3
        tile = None
        if size:
            tile = np.frombuffer(tiles, np.uint8, size, offset).reshape(side, side, 3)
            offset += size
        try:
            found = det.detect(frame_id, crop_id, tile)
        except Exception as exc:
            return wire.error_message(
                "detector_failure", f"crop_id {crop_id}: {exc}"
            )
        results.append(
            {"crop_id": crop_id, "detections": [_detection_row(d) for d in found]}
        )
    return wire.eval_response(frame_id, results)


def _handle_eval(det: Detector, header: dict, payload: bytes | bytearray) -> bytes:
    frame_id = header["frame_id"]
    try:
        tiles = _tile_buffer(header, payload, det.profile.input_side)
    except (ValueError, OSError) as exc:
        return wire.error_message("malformed", f"bad EVAL_REQUEST: {exc}")
    try:
        return _detect_tiles(det, frame_id, header["crops"], tiles)
    finally:
        if tiles is not payload:
            shm.detach(tiles)


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


def _respond(det: Detector, header: dict, payload: bytes | bytearray) -> bytes:
    kind = header.get("type")
    if kind == "HEALTH":
        reply = {"type": "HEALTH_OK", "input_side": det.profile.input_side}
        if "probe" in header:
            reply["probe"] = _read_probe(header["probe"])
        return wire.encode_message(reply)
    if kind == "EVAL_REQUEST":
        try:
            return _handle_eval(det, header, payload)
        except (KeyError, TypeError) as exc:
            return wire.error_message("malformed", f"bad EVAL_REQUEST: {exc!r}")
    return wire.error_message("unsupported_type", f"unknown message type {kind!r}")


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        det = self.server.detector
        while True:
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
                self.request.sendall(_respond(det, header, payload))
            except OSError:
                return


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, detector):
        super().__init__(address, _Handler)
        self.detector = detector


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
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "DetectorServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

