"""The layers the traced run measures: the hooks that put spans around calls
into each one, the spans each workload must produce, and the per-layer
metrics computed from them.

Layers are the program's modules: frameio, detector, pipeline, postprocess,
and the client, wire protocol and worker of tilepipe.distribution. Hooks
replace module-level names only, so they see the same calls the program
makes. A workload that must exercise a layer but records no span for it
fails the traced run instead of reporting a zero.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass

from tilepipe.distribution.wire import canonical_json

from perfbench.spans import Span, covered_ns, self_times_ns, spanning
from perfbench.stats import percentile


class NotExercised(RuntimeError):
    """A layer the workload must exercise recorded no span."""


def _request_key(header: dict) -> str:
    crops = header.get("crops") or [{"crop_id": "-"}]
    return f"{header.get('frame_id')}:{crops[0]['crop_id']}"


def _sizes(args, result) -> dict:
    return {"n_in": len(args[0]), "n_out": len(result)}


def _frame_arg(args) -> int:
    return args[0].frame_id


def _traced_pool(recorder):
    def make(original):
        class TracedPool(original):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(recorder.bind(fn), *args, **kwargs)

        return TracedPool

    return make


def _traced_send(recorder, local):
    def make(original):
        def send_message(sock, header, payload=b""):
            if header.get("type") != "EVAL_REQUEST":
                return original(sock, header, payload)
            local.key = _request_key(header)
            size = 4 + len(canonical_json(header)) + len(payload)
            index = recorder.open(
                "wire.send", header.get("frame_id"), key=local.key, bytes=size
            )
            try:
                return original(sock, header, payload)
            finally:
                recorder.close(index)

        return send_message

    return make


def _traced_reply(recorder, local):
    def make(original):
        def recv_message(sock):
            key, local.key = getattr(local, "key", None), None
            if key is None:
                return original(sock)
            index = recorder.open("wire.reply_wait", key=key)
            try:
                return original(sock)
            finally:
                recorder.close(index)

        return recv_message

    return make


def install_client(hooks, recorder, workload, attention_crops: int) -> None:
    """Hooks for the process that drives the workload."""
    cluster = workload.cluster
    stages = "tilepipe.distribution.client" if cluster else "tilepipe.pipeline"
    if not cluster:
        hooks.wrap("tilepipe.pipeline:attention_pass",
                   spanning(recorder, "pipeline.attention_pass", _frame_arg))
        hooks.wrap("tilepipe.pipeline:final_pass",
                   spanning(recorder, "pipeline.final_pass", _frame_arg))
        hooks.wrap("tilepipe.detector:SceneOracle.detect",
                   spanning(recorder, "detector.detect", lambda a: a[1]))
    hooks.wrap(f"{stages}:merge_temporal",
               spanning(recorder, "pipeline.merge_temporal", lambda a: a[0][-1].frame_id))
    hooks.wrap(f"{stages}:select_active",
               spanning(recorder, "pipeline.select_active", lambda a: a[1].frame_id))
    hooks.wrap(f"{stages}:finish_detections",
               spanning(recorder, "pipeline.finish_detections"))
    if workload.scene.pixels:
        hooks.wrap(f"{stages}:cut_tile", spanning(recorder, "detector.cut_tile"))
    hooks.wrap("tilepipe.postprocess:nms_keep_indices",
               spanning(recorder, "postprocess.nms", attrs_of=_sizes))
    hooks.wrap("tilepipe.postprocess:merge_split",
               spanning(recorder, "postprocess.merge_split", attrs_of=_sizes))
    if cluster:
        local = threading.local()

        def stage(args, result):
            crops = args[1]
            first = crops[0].crop_id if crops else attention_crops
            return {"stage": "attention" if first < attention_crops else "final"}

        hooks.wrap("tilepipe.distribution.client:evaluate_remote",
                   spanning(recorder, "client.evaluate_remote", _frame_arg, stage))
        hooks.wrap("tilepipe.distribution.client:ThreadPoolExecutor", _traced_pool(recorder))
        hooks.wrap("socket:create_connection", spanning(recorder, "wire.connect"))
        hooks.wrap("tilepipe.distribution.wire:send_message", _traced_send(recorder, local))
        hooks.wrap("tilepipe.distribution.wire:recv_message", _traced_reply(recorder, local))


def install_worker(hooks, recorder) -> None:
    """Hooks for a worker process: request receive and detector calls, each
    tagged with the request they served. ``key`` matches the client's spans
    of the same request; ``request`` tells repeats of it in later passes
    apart."""
    local = threading.local()
    requests = itertools.count()

    def make_recv(original):
        def recv_message(sock):
            start = time.perf_counter_ns()
            header, payload = original(sock)
            if header.get("type") == "EVAL_REQUEST":
                local.tags = {"key": _request_key(header), "request": next(requests)}
                recorder.add(Span("worker.recv", start, time.perf_counter_ns(),
                                  frame=header.get("frame_id"), attrs=dict(local.tags)))
            return header, payload

        return recv_message

    hooks.wrap("tilepipe.distribution.wire:recv_message", make_recv)
    hooks.wrap("tilepipe.detector:SceneOracle.detect",
               spanning(recorder, "detector.detect", lambda a: a[1],
                        lambda a, r: dict(local.tags)))


def expected_spans(workload) -> tuple[set[str], set[str]]:
    """Span names the workload must record: (client process, workers)."""
    client = {
        "pipeline.merge_temporal", "pipeline.select_active",
        "pipeline.finish_detections", "postprocess.nms", "postprocess.merge_split",
    }
    if workload.scene.pixels:
        client |= {"frameio.next", "detector.cut_tile"}
    if not workload.cluster:
        client |= {"pipeline.attention_pass", "pipeline.final_pass", "detector.detect"}
        return client, set()
    client |= {"client.evaluate_remote", "wire.connect", "wire.send", "wire.reply_wait"}
    return client, {"worker.recv", "detector.detect"}


@dataclass
class Trace:
    """What one traced run saw: the spans of the driving process and of the
    workers, and the untraced and traced passes over the scene."""

    spans: list[Span]
    worker_spans: list[Span]
    untraced: list[dict]
    traced: list[dict]

    def __post_init__(self):
        self.frames = sum(len(p["delivered"]) for p in self.traced)
        self._by_name = defaultdict(list)
        for span in self.spans + self.worker_spans:
            self._by_name[span.name].append(span)

    def named(self, name: str, **attrs) -> list[Span]:
        return [
            s for s in self._by_name[name]
            if all(s.attrs.get(k) == v for k, v in attrs.items())
        ]

    def p(self, pct: float, name: str, **attrs) -> float:
        return percentile([s.ms for s in self.named(name, **attrs)], pct).value

    def per_frame(self, name: str) -> float:
        return len(self.named(name)) / self.frames

    def attr_values(self, name: str, attr: str) -> list:
        return [s.attrs[attr] for s in self.named(name)]

    def summed_per_call(self, *names: str) -> list[float]:
        """Durations of calls made once each per frame, summed call by call."""
        return [sum(ms) for ms in zip(*([s.ms for s in self.named(n)] for n in names))]

    def layer_self_ms(self, layer: str) -> float:
        total = 0
        for spans in (self.spans, self.worker_spans):
            for span, own in zip(spans, self_times_ns(spans)):
                if span.name.startswith(layer + "."):
                    total += own
        return total / 1e6 / self.frames

    def transfer_ms(self) -> list[float]:
        """Client reply wait not covered by the worker's receive or detect
        time for the same request."""
        worker = defaultdict(list)
        for span in self.worker_spans:
            worker[span.attrs.get("key")].append((span.start_ns, span.end_ns))
        return [
            (s.end_ns - s.start_ns - covered_ns(worker[s.attrs["key"]], s.start_ns, s.end_ns)) / 1e6
            for s in self.named("wire.reply_wait")
        ]

    def worker_detect_ms(self) -> list[float]:
        per_request = defaultdict(float)
        for span in self.worker_spans:
            if span.name == "detector.detect":
                per_request[span.attrs["key"], span.attrs["request"]] += span.ms
        return list(per_request.values())

    def fps(self, passes: list[dict]) -> float:
        return sum(len(p["delivered"]) for p in passes) / sum(p["wall_s"] for p in passes)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]
    value: Callable[[Trace], float]


def _p50(values) -> float:
    return percentile(values, 50).value


def _self_ms(layer: str, span: str) -> LayerMetric:
    return LayerMetric(f"{layer}.self_ms", "ms/frame", "lower", (span,),
                       lambda t: t.layer_self_ms(layer))


METRICS = (
    LayerMetric("frameio.read_ms", "ms", "lower", ("frameio.next",),
                lambda t: t.p(50, "frameio.next")),
    LayerMetric("detector.cut_tile_ms", "ms", "lower", ("detector.cut_tile",),
                lambda t: t.p(50, "detector.cut_tile")),
    LayerMetric("detector.tiles_per_frame", "count", "lower", ("detector.cut_tile",),
                lambda t: t.per_frame("detector.cut_tile")),
    LayerMetric("detector.detect_ms", "ms", "lower", ("detector.detect",),
                lambda t: t.p(50, "detector.detect")),
    LayerMetric("detector.detect_calls_per_frame", "count", "lower", ("detector.detect",),
                lambda t: t.per_frame("detector.detect")),
    LayerMetric("pipeline.attention_ms", "ms", "lower", ("pipeline.attention_pass",),
                lambda t: t.p(50, "pipeline.attention_pass")),
    LayerMetric("pipeline.select_ms", "ms", "lower",
                ("pipeline.merge_temporal", "pipeline.select_active"),
                lambda t: _p50(t.summed_per_call("pipeline.merge_temporal",
                                                 "pipeline.select_active"))),
    LayerMetric("pipeline.final_ms", "ms", "lower", ("pipeline.final_pass",),
                lambda t: t.p(50, "pipeline.final_pass")),
    LayerMetric("pipeline.finish_ms", "ms", "lower", ("pipeline.finish_detections",),
                lambda t: t.p(50, "pipeline.finish_detections")),
    LayerMetric("pipeline.active_share", "ratio", "lower", (),
                lambda t: sum(p["active"] for p in t.traced) / sum(p["total"] for p in t.traced)),
    LayerMetric("pipeline.frames_in_flight_max", "count", "lower", (),
                lambda t: max(p["in_flight_max"] for p in t.traced)),
    LayerMetric("pipeline.profile_coverage", "ratio", "higher", (),
                lambda t: sum(p["profile_ms"] for p in t.untraced)
                / (1000 * sum(p["wall_s"] for p in t.untraced))),
    LayerMetric("postprocess.nms_ms_p50", "ms", "lower", ("postprocess.nms",),
                lambda t: t.p(50, "postprocess.nms")),
    LayerMetric("postprocess.nms_ms_p90", "ms", "lower", ("postprocess.nms",),
                lambda t: t.p(90, "postprocess.nms")),
    LayerMetric("postprocess.merge_ms_p50", "ms", "lower", ("postprocess.merge_split",),
                lambda t: t.p(50, "postprocess.merge_split")),
    LayerMetric("postprocess.merge_ms_p90", "ms", "lower", ("postprocess.merge_split",),
                lambda t: t.p(90, "postprocess.merge_split")),
    LayerMetric("postprocess.dets_in", "count", "lower", ("postprocess.nms",),
                lambda t: _p50(t.attr_values("postprocess.nms", "n_in"))),
    LayerMetric("postprocess.nms_kept_share", "ratio", "higher", ("postprocess.nms",),
                lambda t: sum(t.attr_values("postprocess.nms", "n_out"))
                / sum(t.attr_values("postprocess.nms", "n_in"))),
    LayerMetric("postprocess.dets_out", "count", "higher", ("postprocess.merge_split",),
                lambda t: _p50(t.attr_values("postprocess.merge_split", "n_out"))),
    LayerMetric("client.attention_stage_ms", "ms", "lower", ("client.evaluate_remote",),
                lambda t: t.p(50, "client.evaluate_remote", stage="attention")),
    LayerMetric("client.final_stage_ms", "ms", "lower", ("client.evaluate_remote",),
                lambda t: t.p(50, "client.evaluate_remote", stage="final")),
    LayerMetric("client.attention_wait_ms", "ms", "lower", ("client.evaluate_remote",),
                lambda t: _p50([w for p in t.traced for w in p["attention_wait_ms"]])),
    LayerMetric("client.connections_per_frame", "count", "lower", ("wire.connect",),
                lambda t: t.per_frame("wire.connect")),
    LayerMetric("client.transfer_ms", "ms", "lower", ("wire.reply_wait", "worker.recv"),
                lambda t: _p50(t.transfer_ms())),
    LayerMetric("wire.request_bytes_per_frame", "bytes", "lower", ("wire.send",),
                lambda t: sum(t.attr_values("wire.send", "bytes")) / t.frames),
    LayerMetric("wire.send_ms", "ms", "lower", ("wire.send",),
                lambda t: t.p(50, "wire.send")),
    LayerMetric("wire.reply_wait_ms", "ms", "lower", ("wire.reply_wait",),
                lambda t: t.p(50, "wire.reply_wait")),
    LayerMetric("worker.recv_ms", "ms", "lower", ("worker.recv",),
                lambda t: t.p(50, "worker.recv")),
    LayerMetric("worker.detect_ms", "ms", "lower", ("worker.recv",),
                lambda t: _p50(t.worker_detect_ms())),
    LayerMetric("worker.requests_per_frame", "count", "lower", ("worker.recv",),
                lambda t: t.per_frame("worker.recv")),
    _self_ms("frameio", "frameio.next"),
    _self_ms("detector", "detector.detect"),
    _self_ms("pipeline", "pipeline.merge_temporal"),
    _self_ms("postprocess", "postprocess.nms"),
    _self_ms("client", "client.evaluate_remote"),
    _self_ms("wire", "wire.send"),
    _self_ms("worker", "worker.recv"),
    LayerMetric("trace.fps_untraced", "1/s", "higher", (), lambda t: t.fps(t.untraced)),
    LayerMetric("trace.fps_traced", "1/s", "higher", (), lambda t: t.fps(t.traced)),
    LayerMetric("trace.overhead_share", "ratio", "lower", (),
                lambda t: 1 - t.fps(t.traced) / t.fps(t.untraced)),
)


def layer_metrics(workload, trace: Trace) -> dict[str, float | None]:
    """Every per-layer metric; None for one the workload does not exercise.

    Raises NotExercised when a span the workload must produce is missing.
    """
    client, worker = expected_spans(workload)
    missing = sorted(
        name for name in client | worker if not trace.named(name)
    )
    if missing:
        raise NotExercised(f"{workload.name}: no spans recorded for {missing}")
    expected = client | worker
    return {
        m.name: m.value(trace) if set(m.needs) <= expected else None
        for m in METRICS
    }
