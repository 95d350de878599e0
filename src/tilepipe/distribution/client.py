"""Client side: crop dispatch, remote evaluation of one stage's crops, and
run_stream, the one loop that runs both stages of every frame on workers
with the next frame's attention precomputed. Every step between the
network calls is a helper shared with the in-process pipeline.

A stream first sends every worker a HEALTH message that carries a probe: the
name of a shared-memory block holding a random nonce. A worker that reads
the nonce back shares memory with the client. For the rest of the stream,
each request to it with pixels has its tiles cut straight into one of the
stream's blocks and names that block instead of carrying them (see shm.py).
Requests to every other worker carry their tiles as the payload over TCP.
"""

from __future__ import annotations

import math
import secrets
import socket
import time
from collections.abc import Iterable, Iterator, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..detector import Detection, crop_catalog_key, cut_tile, detection_from_row
from ..geometry import MODEL_SIDE, CropSpec
from ..pipeline import (
    AttentionModel,
    Frame,
    FrameResult,
    GridPlan,
    PipelineSettings,
    TimingProfile,
    attention_model,
    finish_detections,
    in_parallel,
    merge_temporal,
    select_active,
    tag_global,
    timed_pulls,
)
from . import shm, wire

TILE_BYTES = MODEL_SIDE * MODEL_SIDE * 3


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Split "host:port" into host and port; an empty host means 127.0.0.1.
    Raise ValueError unless the port is a decimal integer in 0..65535."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"bad endpoint {endpoint!r}, expected host:port")
    return host or "127.0.0.1", int(port)


@dataclass(frozen=True)
class ClusterConfig:
    """Which workers serve each stage, and how long to wait for them.

    No attention workers means the attention stage runs on the final
    workers, sequentially, with no precompute overlap.
    """

    final_workers: tuple[str, ...]
    attention_workers: tuple[str, ...] = ()
    request_timeout_s: float = 30.0

    def __post_init__(self):
        object.__setattr__(self, "final_workers", tuple(self.final_workers))
        object.__setattr__(self, "attention_workers", tuple(self.attention_workers))
        if not self.final_workers:
            raise ValueError("at least one final worker is required")
        for endpoint in self.final_workers + self.attention_workers:
            parse_endpoint(endpoint)
        timeout_s = self.request_timeout_s
        if not 0 < timeout_s < math.inf:
            raise ValueError(f"request_timeout_s: must be finite and > 0, got {timeout_s}")


class WorkerError(RuntimeError):
    """A request to one worker failed; names the endpoint."""

    def __init__(self, endpoint: str, message: str):
        super().__init__(f"worker {endpoint}: {message}")
        self.endpoint = endpoint


class WorkerTimeout(WorkerError):
    pass


class WorkerUnavailable(WorkerError):
    pass


class RemoteFault(WorkerError):
    """The worker answered, but with an error or an invalid message."""


class WorkerMismatch(WorkerError):
    """The worker's detector takes tiles of another size than the client
    cuts, or resolves crop ids against another crop catalog."""


class StreamAborted(RuntimeError):
    """A stage failed mid-stream; carries the resume cursor and the results
    of every frame completed before the failure."""

    def __init__(self, cursor: int, completed: Sequence[FrameResult], reason: str):
        super().__init__(f"stream aborted at frame index {cursor}: {reason}")
        self.cursor = cursor
        self.completed = tuple(completed)


def dispatch(
    items: Sequence, workers: Sequence[str]
) -> list[tuple[str, list]]:
    """Split items into contiguous chunks, one per worker, sizes within 1."""
    if not workers:
        raise ValueError("at least one worker is required")
    items = list(items)
    base, extra = divmod(len(items), len(workers))
    out = []
    start = 0
    for i, worker in enumerate(workers):
        size = base + (1 if i < extra else 0)
        out.append((worker, items[start : start + size]))
        start += size
    return out


def _crop_entries(
    frame: Frame, crops: Sequence[CropSpec], out=None
) -> tuple[list[dict], memoryview | bytes]:
    """The crop list of an EVAL_REQUEST and a flat byte view of its tiles,
    every tile cut straight into one buffer, in parallel on the cut pool.
    The buffer is ``out`` when given (a writable buffer of at least the
    tiles' bytes, such as a shared-memory block), else a fresh array."""
    side = 0 if frame.pixels is None else MODEL_SIDE
    entries = [{"crop_id": c.crop_id, "width": side, "height": side} for c in crops]
    if frame.pixels is None:
        return entries, b""
    tiles = np.ndarray((len(crops), side, side, 3), np.uint8, buffer=out)
    in_parallel(lambda i: cut_tile(frame.pixels, crops[i], out=tiles[i]), len(crops))
    return entries, memoryview(tiles.reshape(-1))


def _exchange(
    endpoint: str,
    timeout_s: float,
    header: dict,
    payload: bytes | memoryview = b"",
) -> dict:
    """Send one message on a fresh connection and return the reply header;
    every failure, an ERROR reply included, raises a WorkerError."""
    try:
        with socket.create_connection(parse_endpoint(endpoint), timeout=timeout_s) as sock:
            sock.settimeout(timeout_s)
            wire.send_message(sock, header, payload)
            reply, _ = wire.recv_message(sock)
    except TimeoutError as exc:
        raise WorkerTimeout(endpoint, f"no reply within {timeout_s}s") from exc
    except wire.ProtocolError as exc:
        raise RemoteFault(endpoint, str(exc)) from exc
    except OSError as exc:
        raise WorkerUnavailable(endpoint, str(exc)) from exc
    if reply.get("type") == "ERROR":
        raise RemoteFault(endpoint, f"{reply.get('code')}: {reply.get('message')}")
    return reply


def _request_worker(
    endpoint: str,
    frame: Frame,
    crops: Sequence[CropSpec],
    timeout_s: float,
    blocks: shm.Blocks | None = None,
) -> tuple[dict[int, list[Detection]], float]:
    """One EVAL_REQUEST round trip; returns detections by crop id + busy ms.

    With ``blocks`` (the worker shares memory with the client) and pixels,
    the tiles go in a block taken from them, given back once the request has
    a reply or has failed, and the request has no payload. If no block can
    be had, they go as the payload.
    """
    block = None
    if blocks is not None and frame.pixels is not None:
        try:
            block = blocks.take(len(crops) * TILE_BYTES)
        except OSError:  # shared memory is full: this request goes over TCP
            pass
    try:
        entries, tiles = _crop_entries(
            frame, crops, None if block is None else block.buf
        )
        header = {"type": "EVAL_REQUEST", "frame_id": frame.frame_id, "crops": entries}
        if block is not None:
            header["shm"] = block.name
            tiles = b""  # drops the view into the block
        started = time.perf_counter()
        reply = _exchange(endpoint, timeout_s, header, tiles)
        busy_ms = (time.perf_counter() - started) * 1000
    finally:
        if block is not None:
            blocks.give_back(block)

    if reply.get("type") != "EVAL_RESPONSE" or reply.get("frame_id") != frame.frame_id:
        raise RemoteFault(endpoint, f"unexpected reply {reply.get('type')!r}")
    try:
        by_crop = {
            row["crop_id"]: [detection_from_row(d) for d in row["detections"]]
            for row in reply["results"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise RemoteFault(endpoint, f"bad EVAL_RESPONSE: {exc!r}") from exc
    missing = {c.crop_id for c in crops} - set(by_crop)
    if missing:
        raise RemoteFault(endpoint, f"missing results for crops {sorted(missing)}")
    return by_crop, busy_ms


def evaluate_remote(
    frame: Frame,
    crops: Sequence[CropSpec],
    workers: Sequence[str],
    timeout_s: float,
    shared: Mapping[str, shm.Blocks] | None = None,
) -> tuple[dict[int, list[Detection]], float, tuple[tuple[str, float], ...]]:
    """Evaluate crops across workers; one concurrent request per worker.

    ``shared`` maps each worker that shares memory with the client to the
    blocks its requests' tiles go in; the others get them over TCP.
    Returns (crop-local detections by crop id, stage ms under the
    slowest-worker rule, per-worker (endpoint, busy_ms)). Any worker
    failure raises; partial results are never returned.
    """
    shared = shared or {}
    assignments = [(w, part) for w, part in dispatch(crops, workers) if part]
    if not assignments:
        return {}, 0.0, ()
    detections: dict[int, list[Detection]] = {}
    per_worker = []
    with ThreadPoolExecutor(max_workers=len(assignments)) as pool:
        futures = [
            (
                endpoint,
                pool.submit(
                    _request_worker, endpoint, frame, part, timeout_s,
                    shared.get(endpoint),
                ),
            )
            for endpoint, part in assignments
        ]
        for endpoint, future in futures:
            by_crop, busy_ms = future.result()
            detections.update(by_crop)
            per_worker.append((endpoint, busy_ms))
    stage_ms = max(busy for _, busy in per_worker)
    return detections, stage_ms, tuple(per_worker)


def _attention_remote(
    frame: Frame,
    plan: GridPlan,
    settings: PipelineSettings,
    cluster: ClusterConfig,
    shared: Mapping[str, shm.Blocks],
) -> tuple[AttentionModel, float]:
    crops = plan.attention_grid.crops
    workers = cluster.attention_workers or cluster.final_workers
    by_crop, stage_ms, _ = evaluate_remote(
        frame, crops, workers, cluster.request_timeout_s, shared
    )
    return attention_model(frame, crops, by_crop, settings.min_confidence), stage_ms


def _echoes_probe(reply: dict, nonce: bytes) -> bool:
    """Whether a HEALTH_OK reply read back the nonce of the stream's probe."""
    return reply.get("probe") == nonce.hex()


def _check_workers(
    cluster: ClusterConfig, blocks: shm.Blocks
) -> tuple[list[str], dict[str, str | None]]:
    """HEALTH every worker once, with a probe; returns the workers that share
    memory with the client, and each worker's crop catalog key (None: its
    detector holds no catalog). Raises WorkerError for a worker that does
    not answer, and WorkerMismatch for one whose detector takes tiles of
    another size than MODEL_SIDE."""
    nonce = secrets.token_bytes(shm.PROBE_BYTES)
    try:
        probe = blocks.take(shm.PROBE_BYTES)
    except OSError:  # no shared memory on this host: every worker gets TCP
        probe = name = None
    else:
        probe.buf[: shm.PROBE_BYTES] = nonce
        name = probe.name
    try:
        shared = []
        catalogs = {}
        for endpoint in dict.fromkeys(cluster.attention_workers + cluster.final_workers):
            reply = check_health(endpoint, cluster.request_timeout_s, probe=name)
            if reply.get("input_side") != MODEL_SIDE:
                raise WorkerMismatch(
                    endpoint,
                    f"detector input_side is {reply.get('input_side')!r}, "
                    f"tiles are {MODEL_SIDE}x{MODEL_SIDE}",
                )
            if _echoes_probe(reply, nonce):
                shared.append(endpoint)
            catalogs[endpoint] = reply.get("catalog")
    finally:
        if probe is not None:
            blocks.give_back(probe)
    return shared, catalogs


def _check_catalogs(catalogs: Mapping[str, str | None], plan: GridPlan) -> None:
    """Raise WorkerMismatch for a worker whose detector resolves crop ids
    against another catalog than the plan's: it was built for another grid
    or frame size, and would answer for the wrong crops."""
    want = crop_catalog_key(plan.crops_by_id())
    for endpoint, key in catalogs.items():
        if key is not None and key != want:
            raise WorkerMismatch(
                endpoint,
                f"detector crop catalog is {key!r}, this stream's is {want!r} "
                "(built for another grid or frame size)",
            )


def _pull(
    frames: Iterator[tuple[Frame, float]], plan: GridPlan | None
) -> tuple[Frame | None, float, Exception | None]:
    """Pull the next frame and check it against the plan, if there is one.

    Returns (frame, pull ms, None), (None, 0, None) at the end of the
    stream, or (None, 0, error) when pulling or checking raised.
    """
    try:
        frame, io_ms = next(frames, (None, 0.0))
        if frame is not None and plan is not None:
            plan.check_frame(frame)
    except Exception as exc:
        return None, 0.0, exc
    return frame, io_ms, None


def run_stream(
    frames: Iterable[Frame],
    settings: PipelineSettings,
    cluster: ClusterConfig,
) -> list[FrameResult]:
    """Evaluate a frame stream against a cluster, in input order.

    Frames are pulled one ahead: frame t+1 is taken once frame t's attention
    is in, so at most two decoded frames are held at once. With attention
    workers, frame t+1's attention then runs on them while frame t's final
    pass runs, and attention_wait_ms records only the part not hidden.
    Without them every frame runs both stages sequentially.

    Before the first frame is pulled, every worker gets a HEALTH probe
    (_check_workers). A worker that does not answer, or whose detector takes
    tiles of another size, aborts the stream at cursor 0. So does one whose
    detector resolves crop ids against another catalog than the plan built
    from the first frame, before any crop is sent. Requests to the
    workers that read the probe back carry their tiles in shared-memory
    blocks; all of them are unlinked when the stream ends, however it ends.

    The first frame's size fixes the grid. On any failure, StreamAborted
    carries as cursor the index of the first frame without a result, and
    the results before it. A bad pull (the iterator raised, or the frame
    has another size) aborts at that frame's index once frame t is done.
    """
    pipelined = len(cluster.attention_workers) >= 1
    keep = settings.temporal_window - 1

    results: list[FrameResult] = []
    history: list[AttentionModel] = []
    blocks = shm.Blocks()
    pool = ThreadPoolExecutor(max_workers=1)
    pending = None
    t = 0
    try:
        try:
            same_host, catalogs = _check_workers(cluster, blocks)
            shared = dict.fromkeys(same_host, blocks)
            frames = timed_pulls(frames)
            frame, io_ms, error = _pull(frames, None)
            plan = None
            if frame is not None:
                plan = GridPlan.build(frame.width, frame.height, settings)
                _check_catalogs(catalogs, plan)
        except WorkerError as exc:
            raise StreamAborted(t, results, str(exc)) from exc
        while True:
            if error is not None:
                raise StreamAborted(t, results, str(error)) from error
            if frame is None:
                return results
            try:
                waited = time.perf_counter()
                if pending is not None:
                    att, _ = pending.result()
                else:
                    att, _ = _attention_remote(frame, plan, settings, cluster, shared)
                wait_ms = (time.perf_counter() - waited) * 1000

                pending = None
                upcoming, upcoming_io_ms, error = _pull(frames, plan)
                if pipelined and upcoming is not None:
                    pending = pool.submit(
                        _attention_remote, upcoming, plan, settings, cluster, shared
                    )

                c0 = time.perf_counter()
                merged = merge_temporal([*history, att], settings.temporal_window)
                active = select_active(
                    plan.final_grid, merged, settings.attention_margin_px
                )
                c1 = time.perf_counter()
                crops = active.crops
                by_crop, final_ms, per_worker = evaluate_remote(
                    frame, crops, cluster.final_workers, cluster.request_timeout_s,
                    shared,
                )
                tagged = tag_global(frame, crops, by_crop)
                p0 = time.perf_counter()
                dets = finish_detections(
                    tagged, plan.final_grid, settings.min_confidence
                )
                p1 = time.perf_counter()
            except Exception as exc:
                raise StreamAborted(t, results, str(exc)) from exc

            timing = TimingProfile(
                io_ms=io_ms,
                attention_wait_ms=wait_ms,
                client_processing_ms=(c1 - c0) * 1000,
                final_eval_ms=final_ms,
                postprocess_ms=(p1 - p0) * 1000,
                per_worker=per_worker,
            )
            results.append(
                FrameResult(
                    frame.frame_id,
                    dets,
                    len(active.active_ids),
                    len(plan.final_grid.crops),
                    timing,
                )
            )
            history.append(att)
            del history[: max(0, len(history) - keep)]
            frame, io_ms = upcoming, upcoming_io_ms
            t += 1
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        blocks.close()


def check_health(
    endpoint: str, timeout_s: float = 30.0, probe: str | None = None
) -> dict:
    """HEALTH round trip; returns the worker's HEALTH_OK reply, which with
    ``probe``, the name of a block, holds what the worker read from it."""
    header = {"type": "HEALTH"} if probe is None else {"type": "HEALTH", "probe": probe}
    reply = _exchange(endpoint, timeout_s, header)
    if reply.get("type") != "HEALTH_OK":
        raise RemoteFault(endpoint, f"unexpected reply {reply.get('type')!r}")
    return reply
