"""Worker side: a threaded TCP server that runs a detector on request.

Workers are stateless between requests and never talk to each other. Each
EVAL_REQUEST is answered with the crop-local detections for every listed
crop; a malformed message gets an ERROR response and the connection stays
open for the next message.
"""

from __future__ import annotations

import logging
import socketserver
import threading

import numpy as np

from ..detector import Detector
from . import wire

log = logging.getLogger(__name__)

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


def _handle_eval(det: Detector, header: dict, payload: bytes | bytearray) -> bytes:
    frame_id = header["frame_id"]
    results = []
    view = memoryview(payload)
    offset = 0
    for crop in header["crops"]:
        crop_id = crop["crop_id"]
        width, height = crop["width"], crop["height"]
        size = width * height * 3
        tile = None
        if size:
            chunk = view[offset : offset + size]
            offset += size
            try:
                tile = np.frombuffer(chunk, dtype=np.uint8).reshape(height, width, 3)
            except ValueError as exc:
                log.warning("tile decode failed for crop_id=%s: %s", crop_id, exc)
                return wire.error_message(
                    "decode_failure", f"crop_id {crop_id}: {exc}"
                )
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


def _respond(det: Detector, header: dict, payload: bytes | bytearray) -> bytes:
    kind = header.get("type")
    if kind == "HEALTH":
        return wire.encode_message(
            {
                "type": "HEALTH_OK",
                "input_side": det.profile.input_side,
                "classes": sorted(det.profile.supported_classes),
            }
        )
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
            except ConnectionError:
                return
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

