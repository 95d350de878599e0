"""Tests for the benchmark's own helpers. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import threading
from pathlib import Path

import pytest

from tilepipe.detector import Detection
from tilepipe.frameio import result_line
from tilepipe.geometry import Rect
from tilepipe.pipeline import FrameResult, TimingProfile

from perfbench.bench import END_TO_END_UNITS
from perfbench.check import failed_frames, line_digest
from perfbench.layers import METRICS, NotExercised, Trace, layer_metrics
from perfbench.spans import HookMissing, Hooks, Recorder, Span, self_times_ns
from perfbench.stats import percentile
from perfbench.workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class TestPercentile:
    def test_value_and_sample_count(self):
        assert percentile([3, 1, 2, 4], 50) == (2.5, 4)
        assert percentile(list(range(1, 11)), 90).value == pytest.approx(9.1)
        assert percentile(list(range(1, 11)), 90).samples == 10

    def test_extremes_and_single_sample(self):
        assert percentile([5.0, 1.0], 0) == (1.0, 2)
        assert percentile([5.0, 1.0], 100) == (5.0, 2)
        assert percentile([7.0], 90) == (7.0, 1)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestSelfTime:
    def test_nested_child_is_subtracted(self):
        spans = [Span("a.outer", 0, 100), Span("b.inner", 10, 30, parent=0)]
        assert self_times_ns(spans) == [80, 20]

    def test_overlapping_threaded_children_subtracted_once(self):
        spans = [
            Span("a.outer", 0, 100),
            Span("b.same_thread", 10, 30, parent=0),
            Span("b.thread_one", 20, 50, parent=0),
            Span("b.thread_two", 40, 70, parent=0),
            Span("b.grandchild", 45, 60, parent=3),
        ]
        assert self_times_ns(spans) == [40, 20, 30, 15, 15]

    def test_child_outliving_parent_is_clipped(self):
        spans = [Span("a.outer", 0, 100), Span("b.late", 90, 130, parent=0)]
        assert self_times_ns(spans)[0] == 90

    def test_bound_work_on_another_thread_nests_under_the_submitter(self):
        recorder = Recorder()

        def child():
            recorder.close(recorder.open("wire.send"))

        call = recorder.open("client.call", frame=9)
        bound = threading.Thread(target=recorder.bind(child))
        bound.start()
        bound.join(timeout=10)
        recorder.close(call)
        unbound = threading.Thread(target=child)
        unbound.start()
        unbound.join(timeout=10)
        assert not bound.is_alive() and not unbound.is_alive()
        call_span, bound_send, unbound_send = recorder.spans
        assert (bound_send.parent, bound_send.frame) == (0, 9)
        assert (unbound_send.parent, unbound_send.frame) == (None, None)
        own = self_times_ns(recorder.spans)[0]
        assert own == call_span.end_ns - call_span.start_ns - (bound_send.end_ns - bound_send.start_ns)


class TestOutputCheck:
    @staticmethod
    def _lines(confidence=0.75):
        results = [
            FrameResult(
                fid,
                (Detection(Rect(10 * fid, 20, 30, 40), "person", confidence),),
                1, 4, TimingProfile(),
            )
            for fid in range(3)
        ]
        return [[r.frame_id, line_digest(result_line(r))] for r in results]

    def test_identical_output_passes(self):
        assert failed_frames(self._lines(), self._lines()) == []

    def test_changed_confidence_is_flagged(self):
        expected = self._lines()
        delivered = self._lines()
        delivered[1] = self._lines(confidence=0.7501)[1]
        assert failed_frames(expected, delivered) == [1]

    def test_dropped_frame_is_flagged(self):
        expected = self._lines()
        assert failed_frames(expected, expected[:2]) == [2]
        assert failed_frames(expected, [expected[0], expected[2]]) == [1, 2]


class TestHooks:
    def test_missing_target_fails_loudly(self):
        hooks = Hooks()
        with pytest.raises(HookMissing):
            hooks.wrap("tilepipe.pipeline:no_such_function", lambda f: f)
        with pytest.raises(HookMissing):
            hooks.wrap("tilepipe.no_such_module:run", lambda f: f)

    def test_wrap_and_restore(self):
        import tilepipe.postprocess as postprocess

        original = postprocess.merge_split
        hooks = Hooks()
        hooks.wrap("tilepipe.postprocess:merge_split", lambda f: "wrapped")
        assert postprocess.merge_split == "wrapped"
        hooks.restore()
        assert postprocess.merge_split is original


class TestLayerMetrics:
    @staticmethod
    def _trace(names):
        spans = [Span(name, 0, 1_000_000, frame=0, attrs={"n_in": 2, "n_out": 1})
                 for name in names]
        passes = [{"delivered": [[0, "x"]], "wall_s": 0.1, "profile_ms": 50.0,
                   "active": 1, "total": 2, "in_flight_max": 1,
                   "attention_wait_ms": [1.0]}]
        return Trace(spans, [], passes, passes)

    def test_missing_layer_span_fails_instead_of_reporting_zero(self):
        workload = WORKLOADS["local-8k-dense"]
        trace = self._trace(["pipeline.attention_pass", "pipeline.final_pass"])
        with pytest.raises(NotExercised):
            layer_metrics(workload, trace)

    def test_unexercised_layers_are_none(self):
        workload = WORKLOADS["local-8k-dense"]
        names = [
            "pipeline.merge_temporal", "pipeline.select_active",
            "pipeline.finish_detections", "postprocess.nms", "postprocess.merge_split",
            "pipeline.attention_pass", "pipeline.final_pass", "detector.detect",
        ]
        metrics = layer_metrics(workload, self._trace(names))
        assert metrics["wire.send_ms"] is None
        assert metrics["detector.cut_tile_ms"] is None
        assert metrics["postprocess.nms_kept_share"] == 0.5
        assert metrics["pipeline.profile_coverage"] == 0.5


    def test_repeated_passes_are_not_merged_by_frame_id(self):
        client, worker = ["pipeline.merge_temporal", "pipeline.select_active"], []
        spans = []
        for _ in range(2):  # the same frame in two passes
            spans += [Span(name, 0, 1_000_000, frame=0) for name in client]
        for request in range(2):
            worker += [
                Span("worker.recv", 0, 1, frame=0, attrs={"key": "0:0", "request": request}),
                Span("detector.detect", 0, 2_000_000, frame=0,
                     attrs={"key": "0:0", "request": request}),
            ]
        trace = Trace(spans, worker, [], [{"delivered": [[0, "x"], [0, "x"]]}])
        assert trace.summed_per_call(*client) == [2.0, 2.0]
        assert trace.worker_detect_ms() == [2.0, 2.0]


class TestBenchmarkJson:
    def test_names_units_and_workloads_match_the_harness(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
            (m.name, m.unit, m.better) for m in METRICS
        ]
