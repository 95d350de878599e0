"""Client side: crop dispatch, remote evaluation of one stage's crops, and
run_stream, the one loop that runs both stages of every frame on workers
with the next frame's attention precomputed. Every step between the
network calls is a helper shared with the in-process pipeline.

A stage's evaluation is two steps: cut_requests cuts every tile of the
stage into its requests' buffers, and evaluate_remote sends them and waits
for the replies. run_stream cuts frame t's final tiles before it pulls
frame t+1, and keeps frame t only without its pixels after that, so a
stream holds the pixels of one frame at a time.

A stream keeps one session (_Session) per stage from start to end. A
session holds one TCP connection per worker of its stage, opened by the
stream-start HEALTH message and used by every request after it, and the
threads that run the stage's requests beside the calling thread. A stage
sends each of its workers one request at a time, so a connection never
carries two at once; that needs each worker listed at most once per stage,
which ClusterConfig and evaluate_remote check.

The HEALTH message carries a probe: the name of a shared-memory block
holding a random nonce. A worker that reads the nonce back shares memory
with the client. For the rest of the stream, each request to it with pixels
has its tiles cut straight into the session's block for that worker and
names that block instead of carrying them (see shm.py). Requests to every
other worker carry their tiles as the payload over TCP.
"""

from __future__ import annotations

import itertools
import math
import secrets
import socket
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..detector import Detection, crop_catalog_key, cut_tile, detection_from_row
from ..geometry import MODEL_SIDE, TILE_BYTES, CropSpec
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


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Split "host:port" into host and port; an empty host means 127.0.0.1.
    Raise ValueError unless the port is a decimal integer in 0..65535."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"bad endpoint {endpoint!r}, expected host:port")
    return host or "127.0.0.1", int(port)


def _check_unique(workers: Sequence[str], what: str) -> None:
    """Raise ValueError for an endpoint listed twice in one stage's list."""
    for i, endpoint in enumerate(workers):
        if endpoint in workers[:i]:
            raise ValueError(f"{what}: {endpoint!r} listed twice")


@dataclass(frozen=True)
class ClusterConfig:
    """Which workers serve each stage, and how long to wait for them.

    No attention workers means the attention stage runs on the final
    workers. Each list names an endpoint at most once; one endpoint may
    serve both stages.
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
        _check_unique(self.final_workers, "final_workers")
        _check_unique(self.attention_workers, "attention_workers")
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
    """The worker's detector resolves crop ids against another crop catalog
    than the stream's."""


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


@dataclass(frozen=True)
class _Request:
    """One worker's EVAL_REQUEST in a stage, its tiles already cut: the
    crops it carries, its header and its payload (empty when the header
    names a block)."""

    endpoint: str
    crops: Sequence[CropSpec]
    header: dict
    payload: memoryview | bytes


def cut_requests(
    frame: Frame,
    crops: Sequence[CropSpec],
    workers: Sequence[str],
    session: _Session,
) -> list[_Request]:
    """The EVAL_REQUEST of each worker that dispatch gives a share of crops,
    with every tile of the stage cut in one in_parallel on the cut pool.

    A worker that shares memory with the client (session.same_host) gets
    its tiles in the session's block for it, and a request that names the
    block. If no block can be had, and for every other worker, the tiles
    are cut into a fresh array that is the request's payload. A raster-free
    frame's requests carry no tiles and nothing is cut. Once this returns,
    the requests need nothing of frame's pixels.
    """
    _check_unique(workers, "workers")
    requests = []
    tiles = []  # the array each crop of the stage is cut into, in order
    for endpoint, part in dispatch(crops, workers):
        if not part:
            continue
        entries = [{"crop_id": c.crop_id} for c in part]
        header = {"type": "EVAL_REQUEST", "frame_id": frame.frame_id, "crops": entries}
        payload = b""
        if frame.pixels is not None:
            block = None
            if endpoint in session.same_host:
                try:
                    block = session.block(endpoint, len(part) * TILE_BYTES)
                except OSError:  # shared memory is full: this request goes over TCP
                    pass
            out = np.ndarray(
                (len(part), MODEL_SIDE, MODEL_SIDE, 3),
                np.uint8,
                buffer=None if block is None else block.buf,
            )
            tiles.extend(out)
            if block is None:
                payload = memoryview(out.reshape(-1))
            else:
                header["shm"] = block.name
        requests.append(_Request(endpoint, part, header, payload))
    stage = [crop for request in requests for crop in request.crops]
    in_parallel(lambda i: cut_tile(frame.pixels, stage[i], out=tiles[i]), len(tiles))
    return requests


class _Session:
    """One stage's hold on its workers until its stream ends: one connection
    to each, opened by the stream-start HEALTH probe or, without one, by
    the worker's first request; at most one shared-memory block for each
    worker that read the probe back; and the threads that run the stage's
    requests beside the calling one.

    A stage sends each of its workers one request at a time (see
    run_stream), so a worker's connection and block serve one request at a
    time by construction. A block is replaced by a larger one only when a
    request needs more bytes than it holds. Any failure of a request closes
    its connection. stop() shuts every connection down, so that a request
    still waiting for a reply fails at once; close() then joins the request
    threads, closes the connections and unlinks the blocks.
    """

    def __init__(self, timeout_s: float, threads: int = 1):
        self.timeout_s = timeout_s
        # workers that read the probe back: their requests' tiles go in blocks
        self.same_host: frozenset[str] = frozenset()
        self._lock = threading.Lock()
        self._connections: dict[str, socket.socket] = {}
        self._blocks: dict[str, shm.SharedMemory] = {}
        self._prefix = shm.PREFIX + secrets.token_hex(4)
        self._serial = itertools.count()
        self._stopped = False
        self._pool = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="tilepipe-request"
        )

    def __enter__(self) -> "_Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def exchange(
        self,
        endpoint: str,
        header: dict,
        payload: bytes | memoryview = b"",
        *,
        expect: str,
    ) -> dict:
        """Send one message to endpoint and return the reply header, which
        must be of type ``expect``. Every failure, an ERROR reply included,
        closes the connection and raises a WorkerError."""
        try:
            sock = self._connection(endpoint)
            try:
                wire.send_message(sock, header, payload)
                reply, _ = wire.recv_message(sock)
            except BaseException:
                self._drop(endpoint)
                raise
        except TimeoutError as exc:
            raise WorkerTimeout(endpoint, f"no reply within {self.timeout_s}s") from exc
        except wire.ProtocolError as exc:
            raise RemoteFault(endpoint, str(exc)) from exc
        except OSError as exc:
            raise WorkerUnavailable(endpoint, str(exc)) from exc
        if reply.get("type") != expect:
            self._drop(endpoint)
            if reply.get("type") == "ERROR":
                raise RemoteFault(endpoint, f"{reply.get('code')}: {reply.get('message')}")
            raise RemoteFault(endpoint, f"unexpected reply {reply.get('type')!r}")
        return reply

    def run_all(self, fn: Callable, calls: Sequence[tuple]) -> list:
        """fn(*args) for every args in calls, all at once: the first on the
        calling thread, the others on the request threads. Returns their
        results in order once every call has returned; raises the first
        failure in that order."""
        futures = [self._pool.submit(fn, *args) for args in calls[1:]]
        try:
            first = fn(*calls[0])
        finally:
            wait(futures)
        return [first, *(future.result() for future in futures)]

    def block_name(self) -> str:
        """A new block name: PREFIX, the session's token and a serial number."""
        with self._lock:
            return f"{self._prefix}{next(self._serial):x}"

    def block(self, endpoint: str, nbytes: int) -> shm.SharedMemory:
        """endpoint's block, first replaced by a new one of nbytes if it
        holds fewer. Raises OSError when the host cannot hold the new one."""
        block = self._blocks.get(endpoint)
        if block is None or block.size < nbytes:
            if block is not None:
                shm.destroy(self._blocks.pop(endpoint))
            block = self._blocks[endpoint] = shm.create(self.block_name(), nbytes)
        return block

    def _connection(self, endpoint: str) -> socket.socket:
        with self._lock:
            if self._stopped:
                raise ConnectionAbortedError("the stream has ended")
            sock = self._connections.get(endpoint)
        if sock is None:
            sock = socket.create_connection(
                parse_endpoint(endpoint), timeout=self.timeout_s
            )
            with self._lock:
                if self._stopped:
                    sock.close()
                    raise ConnectionAbortedError("the stream has ended")
                self._connections[endpoint] = sock
        return sock

    def _drop(self, endpoint: str) -> None:
        # under the lock, so that stop() never shuts down a closed socket
        with self._lock:
            self._connections.pop(endpoint).close()

    def stop(self) -> None:
        """Shut every connection down: a request waiting for a reply fails
        at once, and no request starts after it."""
        with self._lock:
            self._stopped = True
            for sock in self._connections.values():
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # the worker closed it first
                    pass

    def close(self) -> None:
        """stop(), join the request threads, close the connections and
        unlink the blocks. A request running on any other thread must have
        returned first."""
        self.stop()
        self._pool.shutdown(cancel_futures=True)
        for sock in self._connections.values():
            sock.close()
        for block in self._blocks.values():
            shm.destroy(block)
        self._connections.clear()
        self._blocks.clear()


def _exchange(
    session: _Session, request: _Request
) -> tuple[dict[int, list[Detection]], float]:
    """One EVAL_REQUEST round trip; returns detections by crop id + busy ms."""
    endpoint, frame_id = request.endpoint, request.header["frame_id"]
    started = time.perf_counter()
    reply = session.exchange(
        endpoint, request.header, request.payload, expect="EVAL_RESPONSE"
    )
    busy_ms = (time.perf_counter() - started) * 1000

    if reply.get("frame_id") != frame_id:
        raise RemoteFault(endpoint, f"reply for frame {reply.get('frame_id')!r}")
    try:
        by_crop = {
            row["crop_id"]: [detection_from_row(d) for d in row["detections"]]
            for row in reply["results"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise RemoteFault(endpoint, f"bad EVAL_RESPONSE: {exc!r}") from exc
    missing = {c.crop_id for c in request.crops} - set(by_crop)
    if missing:
        raise RemoteFault(endpoint, f"missing results for crops {sorted(missing)}")
    return by_crop, busy_ms


def evaluate_remote(
    frame: Frame,
    crops: Sequence[CropSpec],
    workers: Sequence[str],
    timeout_s: float,
    session: _Session | None = None,
    requests: Sequence[_Request] | None = None,
) -> tuple[dict[int, list[Detection]], float, tuple[tuple[str, float], ...]]:
    """Evaluate crops across workers; one concurrent request per worker.

    The requests run on ``session``, the stage's; without one, the call
    opens a session with ``timeout_s`` for its own requests and closes it
    on return. They are ``requests`` when given, cut beforehand by
    cut_requests(frame, crops, workers, session), so that frame need no
    longer hold its pixels; else the call cuts them first. Returns
    (crop-local detections by crop id, stage ms under the slowest-worker
    rule, per-worker (endpoint, busy_ms)). Any worker failure raises;
    partial results are never returned. A worker listed twice raises
    ValueError: its two requests would share a connection.
    """
    _check_unique(workers, "workers")
    if not crops:
        return {}, 0.0, ()
    own = _Session(timeout_s, len(workers)) if session is None else nullcontext(session)
    with own as session:
        if requests is None:
            requests = cut_requests(frame, crops, workers, session)
        replies = session.run_all(_exchange, [(session, r) for r in requests])
    detections: dict[int, list[Detection]] = {}
    for by_crop, _ in replies:
        detections.update(by_crop)
    per_worker = tuple(
        (request.endpoint, busy_ms) for request, (_, busy_ms) in zip(requests, replies)
    )
    stage_ms = max(busy for _, busy in per_worker)
    return detections, stage_ms, per_worker


def _attention_remote(
    frame: Frame,
    plan: GridPlan,
    settings: PipelineSettings,
    workers: Sequence[str],
    session: _Session,
) -> AttentionModel:
    crops = plan.attention_grid.crops
    requests = cut_requests(frame, crops, workers, session)
    by_crop, _, _ = evaluate_remote(
        frame, crops, workers, session.timeout_s, session, requests
    )
    return attention_model(frame, crops, by_crop, settings.min_confidence)


def _echoes_probe(reply: dict, nonce: bytes) -> bool:
    """Whether a HEALTH_OK reply read back the nonce of the stream's probe."""
    return reply.get("probe") == nonce.hex()


def _check_workers(session: _Session, workers: Sequence[str]) -> dict[str, str | None]:
    """HEALTH every worker on the session, with a probe, which leaves the
    session one connection to each. Sets session.same_host to the workers
    that share memory with the client, and returns each worker's crop
    catalog key (None: its detector holds no catalog). Raises WorkerError
    for a worker that does not answer."""
    nonce = secrets.token_bytes(shm.PROBE_BYTES)
    try:
        probe = shm.create(session.block_name(), shm.PROBE_BYTES)
    except OSError:  # no shared memory on this host: every worker gets TCP
        probe = name = None
    else:
        probe.buf[: shm.PROBE_BYTES] = nonce
        name = probe.name
    try:
        same_host = set()
        catalogs = {}
        for endpoint in workers:
            reply = _health(session, endpoint, name)
            if _echoes_probe(reply, nonce):
                same_host.add(endpoint)
            catalogs[endpoint] = reply.get("catalog")
    finally:
        if probe is not None:
            shm.destroy(probe)
    session.same_host = frozenset(same_host)
    return catalogs


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

    The attention stage runs on the attention workers, or on the final
    workers when there are none, on a thread of its own: each frame's
    attention is submitted as soon as the frame is pulled. Frames are
    pulled one ahead, but their pixels are held one frame at a time. Once
    frame t's attention is in and its active crops chosen, every final
    tile of frame t is cut into the final stage's blocks or payload
    buffers, and the stream keeps frame t only without its pixels. Then it
    pulls frame t+1 and submits its attention, which runs while frame t's
    final requests are in flight; attention_wait_ms records only the part
    not hidden. So no tile is ever cut while a second pulled frame is alive
    here.

    The stream holds one session per stage, so a worker that serves both
    stages has one connection and at most one block for each. Each stage
    sends each of its workers one request per frame: the final replies of
    frame t are in before frame t+1's final tiles are cut, and frame t+2's
    attention is submitted only once frame t+1's has been taken. So no
    session ever has two requests to one worker in flight, and no block is
    written while a worker reads it.

    Before the first frame is pulled, every worker gets a HEALTH probe
    from each stage it serves (_check_workers), which opens that stage's
    connection to it. A worker that does not answer aborts the stream at
    cursor 0. So does one whose detector resolves crop ids against another catalog than the plan
    built from the first frame, before any crop is sent. Requests to the
    workers that read the probe back carry their tiles in shared-memory
    blocks.

    The first frame's size fixes the grid. On any failure, StreamAborted
    carries as cursor the index of the first frame without a result, and
    the results before it. A failed cut of frame t aborts at t before frame
    t+1 is pulled. A bad pull (the iterator raised, or the frame has
    another size) aborts at that frame's index once frame t is done.
    However the stream ends, the attention session's connections are shut
    down first, which fails a pending attention request at once; the
    attention thread and the request threads are joined, the connections
    closed and the blocks unlinked before run_stream returns or raises.
    """
    keep = settings.temporal_window - 1

    results: list[FrameResult] = []
    history: list[AttentionModel] = []
    timeout_s = cluster.request_timeout_s
    attention_workers = cluster.attention_workers or cluster.final_workers
    final = _Session(timeout_s, len(cluster.final_workers))
    ahead = _Session(timeout_s, len(attention_workers))
    attention = ThreadPoolExecutor(max_workers=1, thread_name_prefix="tilepipe-attention")

    def submit(frame: Frame):
        return attention.submit(
            _attention_remote, frame, plan, settings, attention_workers, ahead
        )

    t = 0
    try:
        try:
            catalogs = _check_workers(ahead, attention_workers)
            catalogs |= _check_workers(final, cluster.final_workers)
            frames = timed_pulls(frames)
            frame, io_ms, error = _pull(frames, None)
            if frame is not None:
                plan = GridPlan.build(frame.width, frame.height, settings)
                _check_catalogs(catalogs, plan)
                pending = submit(frame)
        except WorkerError as exc:
            raise StreamAborted(t, results, str(exc)) from exc
        while True:
            if error is not None:
                raise StreamAborted(t, results, str(error)) from error
            if frame is None:
                return results
            try:
                waited = time.perf_counter()
                att = pending.result()
                wait_ms = (time.perf_counter() - waited) * 1000

                c0 = time.perf_counter()
                merged = merge_temporal([*history, att], settings.temporal_window)
                active = select_active(
                    plan.final_grid, merged, settings.attention_margin_px
                )
                crops = active.crops
                requests = cut_requests(frame, crops, cluster.final_workers, final)
                c1 = time.perf_counter()
                # the pulled frame is not needed past its cut: keep it pixel-less
                frame = Frame(frame.frame_id, frame.width, frame.height)

                upcoming, upcoming_io_ms, error = _pull(frames, plan)
                if upcoming is not None:
                    pending = submit(upcoming)

                by_crop, final_ms, per_worker = evaluate_remote(
                    frame, crops, cluster.final_workers, timeout_s, final, requests
                )
                del requests  # a request's payload holds frame t's tiles
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
            del upcoming  # frame is the one reference to the next frame's pixels
            t += 1
    finally:
        ahead.stop()  # a pending attention request fails now, not at its reply
        attention.shutdown(cancel_futures=True)
        ahead.close()
        final.close()


def _health(session: _Session, endpoint: str, probe: str | None = None) -> dict:
    header = {"type": "HEALTH"} if probe is None else {"type": "HEALTH", "probe": probe}
    return session.exchange(endpoint, header, expect="HEALTH_OK")


def check_health(
    endpoint: str, timeout_s: float = 30.0, probe: str | None = None
) -> dict:
    """HEALTH round trip on a connection of its own; returns the worker's
    HEALTH_OK reply, which with ``probe``, the name of a block, holds what
    the worker read from it."""
    with _Session(timeout_s) as session:
        return _health(session, endpoint, probe)
