"""Tests for the staged pipeline and both baselines."""

import math
import random
import time

import numpy as np
import pytest

from tilepipe.detector import Detection, Detector, GroundTruthObject
from tilepipe.geometry import CropSettings, Rect, intersects, to_global
from tilepipe.pipeline import (
    ATTENTION_MARGIN_PX,
    MIN_CONFIDENCE,
    RUN_MODES,
    TEMPORAL_WINDOW,
    ActiveSet,
    AttentionModel,
    Frame,
    FrameResult,
    GridPlan,
    PipelineSettings,
    StageFailure,
    TimingProfile,
    attention_pass,
    final_pass,
    finish_detections,
    merge_temporal,
    oracle_for_scene,
    run_sequence,
    select_active,
)


def gt(x, y, w, h, label="person", oid=None):
    oid = oid or f"{x}:{y}:{w}:{h}"
    return GroundTruthObject(Rect(x, y, w, h), label, oid)


SETTINGS_720 = PipelineSettings.from_preset("1 att, 3 fin, 50 over")
PLAN_720 = GridPlan.build(1280, 720, SETTINGS_720)


def run_one(frame, settings, det, mode="pipeline", plan=None):
    return next(run_sequence([frame], settings, det, plan=plan, mode=mode))


def scene_720(objects, fid=0):
    oracle = oracle_for_scene(1280, 720, SETTINGS_720, {fid: objects})
    return Frame(fid, 1280, 720), oracle


class CountingDetector(Detector):
    """Delegates to a base detector; records every crop id it is asked
    for, and each call's crop ids and tile array shape."""

    def __init__(self, base):
        self.base = base
        self.calls = []
        self.batches = []

    def detect(self, frame_id, crop_ids, tiles=None):
        self.calls.extend(crop_ids)
        self.batches.append((list(crop_ids), None if tiles is None else tiles.shape))
        return self.base.detect(frame_id, crop_ids, tiles)


class FailingDetector(Detector):
    def __init__(self, base, fail_ids):
        self.base = base
        self.fail_ids = fail_ids

    def detect(self, frame_id, crop_ids, tiles=None):
        if self.fail_ids & set(crop_ids):
            raise RuntimeError("boom")
        return self.base.detect(frame_id, crop_ids, tiles)


class FixedDetector(Detector):
    """Answers every crop with the same crop-local detections."""

    def __init__(self, detections):
        self.detections = detections

    def detect(self, frame_id, crop_ids, tiles=None):
        return [list(self.detections) for _ in crop_ids]


class ShortDetector(Detector):
    """Answers one list fewer than it is asked for."""

    def __init__(self, base):
        self.base = base

    def detect(self, frame_id, crop_ids, tiles=None):
        return self.base.detect(frame_id, crop_ids, tiles)[:-1]


class TestPipelineSettings:
    def test_preset_parsing(self):
        s = PipelineSettings.from_preset("1 att, 3 fin, 50 over")
        assert s.attention == CropSettings(1, 50)
        assert s.final == CropSettings(3, 50)
        assert s.attention.overlap_px == s.final.overlap_px == 50
        s = PipelineSettings.from_preset("2 att, 6 fin, 20 over")
        assert (s.attention.rows, s.final.rows) == (2, 6)

    def test_bad_preset_rejected(self):
        with pytest.raises(ValueError):
            PipelineSettings.from_preset("3 rows, 20 over")

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineSettings(CropSettings(3), CropSettings(2))


class TestGridPlan:
    def test_unified_id_space_on_4k(self):
        settings = PipelineSettings.from_preset("1 att, 3 fin, 20 over")
        plan = GridPlan.build(3840, 2160, settings)
        assert len(plan.attention_grid.crops) == 2
        assert (plan.final_grid.rows, plan.final_grid.cols) == (3, 6)
        assert sorted(plan.crops_by_id()) == list(range(21))
        assert plan.downscale_crop.crop_id == 20
        assert plan.downscale_crop.global_rect == Rect(0, 0, 3840, 3840)
        for crop_id, spec in plan.crops_by_id().items():
            assert spec.crop_id == crop_id

    def test_downscale_grid_wraps_pseudo_crop(self):
        plan = GridPlan.build(1280, 720, SETTINGS_720)
        grid = plan.downscale_grid
        assert len(grid.crops) == 1
        assert grid.crops[0] == plan.downscale_crop


class TestAttentionPass:
    def test_empty_scene_has_no_boxes(self):
        frame, oracle = scene_720([])
        att = attention_pass(frame, PLAN_720, oracle)
        assert att.boxes == ()
        assert att.frame_id == 0

    def test_coarse_grid_size_on_4k(self):
        settings = PipelineSettings.from_preset("1 att, 3 fin, 20 over")
        oracle = oracle_for_scene(3840, 2160, settings, {0: []})
        counting = CountingDetector(oracle)
        attention_pass(Frame(0, 3840, 2160), GridPlan.build(3840, 2160, settings), counting)
        assert counting.calls == [0, 1]

    def test_centered_object_produces_intersecting_box(self):
        obj = gt(600, 300, 100, 120)
        frame, oracle = scene_720([obj])
        att = attention_pass(frame, PLAN_720, oracle)
        assert any(intersects(box, obj.rect) for box in att.boxes)

    def test_boxes_stay_inside_frame(self):
        frame, oracle = scene_720([gt(1200, 650, 79, 69)])
        att = attention_pass(frame, PLAN_720, oracle)
        for box in att.boxes:
            assert box.x >= 0 and box.y >= 0
            assert box.x2 <= 1280 and box.y2 <= 720

    def test_low_confidence_boxes_dropped(self):
        """A box just under MIN_CONFIDENCE is dropped from the attention
        model (attention_model) and from the final detections
        (finish_detections); one at MIN_CONFIDENCE is kept by both."""
        kept = Detection(Rect(100, 100, 60, 60), "person", MIN_CONFIDENCE)
        under = Detection(
            Rect(300, 100, 60, 60), "person", math.nextafter(MIN_CONFIDENCE, 0)
        )
        stub = FixedDetector([kept, under])
        frame = Frame(0, 1280, 720)
        att = attention_pass(frame, PLAN_720, stub)
        assert att.boxes == tuple(
            to_global(kept.rect, c, 1280, 720) for c in PLAN_720.attention_grid.crops
        )
        grid = PLAN_720.final_grid
        crop = grid.crops[0]
        tagged = final_pass(frame, ActiveSet(grid, frozenset({crop.crop_id})), stub)
        assert [d.confidence for _, d in tagged] == [kept.confidence, under.confidence]
        assert finish_detections(tagged, grid) == (
            Detection(to_global(kept.rect, crop, 1280, 720), "person", MIN_CONFIDENCE),
        )

    def test_detector_failure_carries_stage_and_frame(self):
        frame, oracle = scene_720([], fid=7)
        failing = FailingDetector(oracle, {0, 1})
        with pytest.raises(StageFailure, match="attention stage failed on frame 7"):
            attention_pass(frame, PLAN_720, failing)


class TestOneDetectorCallPerStage:
    def test_each_stage_is_one_call_with_one_tile_array(self):
        objects = [gt(100, 100, 80, 80), gt(900, 500, 80, 80)]
        _, oracle = scene_720(objects)
        pixels = np.random.default_rng(2).integers(0, 256, (720, 1280, 3), np.uint8)
        counting = CountingDetector(oracle)
        result = run_one(Frame(0, 1280, 720, pixels), SETTINGS_720, counting)
        plan = GridPlan.build(1280, 720, SETTINGS_720)
        attention_ids = [c.crop_id for c in plan.attention_grid.crops]
        final_ids = sorted({c.crop_id for c in plan.final_grid.crops} & set(counting.calls))
        assert counting.batches == [
            (attention_ids, (len(attention_ids), 608, 608, 3)),
            (final_ids, (len(final_ids), 608, 608, 3)),
        ]
        assert len(final_ids) == result.active_count > 0

    def test_raster_free_stage_passes_no_tiles(self):
        frame, oracle = scene_720([gt(100, 100, 80, 80)])
        counting = CountingDetector(oracle)
        attention_pass(frame, PLAN_720, counting)
        assert counting.batches == [([0, 1], None)]

    def test_empty_stage_makes_no_call(self):
        frame, oracle = scene_720([gt(100, 100, 80, 80)])
        counting = CountingDetector(oracle)
        plan = GridPlan.build(1280, 720, SETTINGS_720)
        assert final_pass(frame, ActiveSet(plan.final_grid, frozenset()), counting) == []
        assert counting.batches == []

    @pytest.mark.parametrize("stage", ["attention", "final"])
    def test_wrong_number_of_answers_is_a_stage_failure(self, stage):
        frame, oracle = scene_720([gt(100, 100, 80, 80)], fid=4)
        plan = GridPlan.build(1280, 720, SETTINGS_720)
        short = ShortDetector(oracle)
        with pytest.raises(StageFailure, match=f"{stage} stage failed on frame 4"):
            if stage == "attention":
                attention_pass(frame, plan, short)
            else:
                final_pass(frame, ActiveSet(plan.final_grid, frozenset({2, 3})), short)


def model(fid, *boxes):
    return AttentionModel(fid, boxes)


class TestMergeTemporal:
    def test_model_a_window_old_no_longer_counts(self):
        history = [
            model(fid, Rect(20 * fid, 0, 10, 10)) for fid in range(TEMPORAL_WINDOW + 1)
        ]
        merged = merge_temporal(history)
        assert merged.boxes == tuple(m.boxes[0] for m in history[1:])
        assert merged.frame_id == TEMPORAL_WINDOW

    def test_disjoint_sets_union(self):
        a, b = Rect(0, 0, 10, 10), Rect(100, 0, 10, 10)
        merged = merge_temporal([model(1, a), model(2, b)])
        assert merged.boxes == (a, b)
        assert merged.frame_id == 2

    def test_window_larger_than_history_clamps(self):
        # a stream's first frame has no history before it
        merged = merge_temporal([model(1, Rect(0, 0, 5, 5))])
        assert merged.boxes == (Rect(0, 0, 5, 5),)
        assert merged.frame_id == 1

    def test_duplicate_boxes_collapse(self):
        box = Rect(0, 0, 10, 10)
        merged = merge_temporal([model(1, box), model(2, box)])
        assert merged.boxes == (box,)

    def test_unordered_history_rejected(self):
        with pytest.raises(ValueError):
            merge_temporal([model(2), model(1)])
        with pytest.raises(ValueError):
            merge_temporal([])


class TestSelectActive:
    GRID = GridPlan.build(
        1280, 720, PipelineSettings(CropSettings(1, 0), CropSettings(3, 0))
    ).final_grid

    def test_no_boxes_no_active(self):
        active = select_active(self.GRID, model(0))
        assert active.active_ids == frozenset()

    def test_full_frame_box_activates_all(self):
        active = select_active(self.GRID, model(0, Rect(0, 0, 1280, 720)))
        assert len(active.active_ids) == len(self.GRID.crops)

    def test_box_inside_one_cell(self):
        box = Rect(300, 300, 50, 50)
        active = select_active(self.GRID, model(0, box))
        grown = box.dilated(ATTENTION_MARGIN_PX, 1280, 720)
        brute = {
            c.crop_id for c in self.GRID.crops if intersects(c.global_rect, grown)
        }
        assert active.active_ids == brute
        assert len(active.active_ids) == 1

    @pytest.mark.parametrize(
        "gap, active",
        [(ATTENTION_MARGIN_PX - 1, True), (ATTENTION_MARGIN_PX, False)],
        ids=["under-margin", "at-margin"],
    )
    def test_margin_reaches_a_crop_short_of_it(self, gap, active):
        """A box ``gap`` px left of a crop activates it while the gap is
        under ATTENTION_MARGIN_PX; at exactly the margin, the grown box only
        touches the crop, and intersects is strict."""
        crop = next(c for c in self.GRID.crops if (c.row, c.col) == (1, 1))
        left = crop.global_rect.x
        box = Rect(left - gap - 50, 300, 50, 50)
        selected = select_active(self.GRID, model(0, box)).active_ids
        assert (crop.crop_id in selected) == active

    def test_active_set_validates_membership(self):
        with pytest.raises(ValueError):
            ActiveSet(self.GRID, frozenset({99999}))


class TestFinalPass:
    def test_empty_active_set(self):
        frame, oracle = scene_720([gt(100, 100, 80, 80)])
        plan = GridPlan.build(1280, 720, SETTINGS_720)
        active = ActiveSet(plan.final_grid, frozenset())
        assert final_pass(frame, active, oracle) == []

    def test_contained_object_round_trips_within_one_pixel(self):
        obj = gt(500, 300, 80, 100)
        frame, oracle = scene_720([obj])
        plan = GridPlan.build(1280, 720, SETTINGS_720)
        active = select_active(plan.final_grid, model(0, obj.rect))
        tagged = [
            (cid, d) for cid, d in final_pass(frame, active, oracle)
            if d.confidence == 1.0
        ]
        assert tagged
        for _, d in tagged:
            assert abs(d.rect.x - obj.rect.x) <= 1
            assert abs(d.rect.y - obj.rect.y) <= 1
            assert abs(d.rect.x2 - obj.rect.x2) <= 1
            assert abs(d.rect.y2 - obj.rect.y2) <= 1

    def test_straddling_object_yields_two_raw_fragments(self):
        # crosses the row 0 / row 1 border at y=254 inside column 2
        obj = gt(600, 200, 80, 120)
        frame, oracle = scene_720([obj])
        plan = GridPlan.build(1280, 720, SETTINGS_720)
        active = select_active(plan.final_grid, model(0, obj.rect))
        tagged = final_pass(frame, active, oracle)
        assert len(tagged) == 2
        rows = sorted(plan.final_grid.crop_by_id(cid).row for cid, _ in tagged)
        assert rows == [0, 1]

    def test_results_in_crop_id_order(self):
        objects = [gt(100, 100, 80, 80), gt(900, 500, 80, 80)]
        frame, oracle = scene_720(objects)
        plan = GridPlan.build(1280, 720, SETTINGS_720)
        all_ids = frozenset(c.crop_id for c in plan.final_grid.crops)
        tagged = final_pass(frame, ActiveSet(plan.final_grid, all_ids), oracle)
        ids = [cid for cid, _ in tagged]
        assert ids == sorted(ids)

    def test_failure_names_final_stage(self):
        frame, oracle = scene_720([gt(100, 100, 80, 80)], fid=3)
        plan = GridPlan.build(1280, 720, SETTINGS_720)
        all_ids = frozenset(c.crop_id for c in plan.final_grid.crops)
        failing = FailingDetector(oracle, {min(all_ids)})
        with pytest.raises(StageFailure, match="final stage failed on frame 3"):
            final_pass(frame, ActiveSet(plan.final_grid, all_ids), failing)


def dense_objects():
    plan = GridPlan.build(1280, 720, SETTINGS_720)
    objects = []
    for i, crop in enumerate(plan.final_grid.crops):
        r = crop.global_rect
        objects.append(
            gt(int(r.x + r.w // 2 - 30), int(r.y + r.h // 2 - 30), 60, 60, oid=f"d{i}")
        )
    return objects


class TestRunFrame:
    def test_empty_scene(self):
        frame, oracle = scene_720([])
        result = run_one(frame, SETTINGS_720, oracle)
        assert result.detections == ()
        assert result.active_count == 0
        assert result.total_count == 18

    def test_dense_scene_degenerates_to_allcrops(self):
        frame, oracle = scene_720(dense_objects())
        staged = run_one(frame, SETTINGS_720, oracle)
        exhaustive = run_one(frame, SETTINGS_720, oracle, mode="allcrops")
        assert staged.active_count == staged.total_count
        assert staged.detections == exhaustive.detections

    def test_sparse_scene_activates_few_crops(self):
        settings = PipelineSettings.from_preset("1 att, 4 fin, 20 over")
        oracle = oracle_for_scene(3840, 2160, settings, {0: [gt(1000, 1000, 100, 100)]})
        result = run_one(Frame(0, 3840, 2160), settings, oracle)
        assert result.total_count == 32
        assert 0 < result.active_count < 32
        assert len(result.detections) == 1

    def test_deterministic(self):
        frame, oracle = scene_720([gt(100, 100, 90, 90), gt(600, 200, 80, 120)])
        a = run_one(frame, SETTINGS_720, oracle)
        b = run_one(frame, SETTINGS_720, oracle)
        assert a.detections == b.detections
        assert (a.active_count, a.total_count) == (b.active_count, b.total_count)

    def test_window_two_reuses_previous_attention(self):
        oracle = oracle_for_scene(
            1280, 720, SETTINGS_720, {0: [gt(400, 300, 90, 90)], 1: []}
        )
        results = list(
            run_sequence(
                [Frame(0, 1280, 720), Frame(1, 1280, 720), Frame(2, 1280, 720)],
                SETTINGS_720,
                oracle,
            )
        )
        assert results[0].active_count > 0
        # frame 1 sees nothing, but frame 0's attention is still in the window
        assert results[1].active_count == results[0].active_count
        assert results[1].detections == ()
        # by frame 2 the stale attention has slid out
        assert results[2].active_count == 0

    def test_matches_allcrops_on_attention_visible_scenes(self):
        rng = random.Random(71)
        for case in range(30):
            objects = []
            for i in range(rng.randint(1, 6)):
                w = rng.randint(40, 150)
                h = rng.randint(40, 150)
                x = rng.randint(0, 1280 - w)
                y = rng.randint(0, 720 - h)
                objects.append(gt(x, y, w, h, oid=f"{case}:{i}"))
            frame, oracle = scene_720(objects)
            staged = run_one(frame, SETTINGS_720, oracle)
            exhaustive = run_one(frame, SETTINGS_720, oracle, mode="allcrops")
            assert staged.detections == exhaustive.detections, objects
            assert staged.active_count <= exhaustive.active_count

    def test_timing_recorded(self):
        frame, oracle = scene_720([gt(100, 100, 80, 80)])
        timing = run_one(frame, SETTINGS_720, oracle).timing
        for name in TimingProfile.COLUMNS:
            assert getattr(timing, name) >= 0
        assert timing.per_worker == ()  # local run, no endpoints involved
        assert timing.total_ms == pytest.approx(
            sum(getattr(timing, name) for name in TimingProfile.COLUMNS)
        )

    def test_timing_rejects_negative_durations(self):
        with pytest.raises(ValueError):
            TimingProfile(final_eval_ms=-1.0)
        with pytest.raises(ValueError):
            TimingProfile(per_worker=(("h:1", -0.5),))

    def test_result_validates_counts(self):
        with pytest.raises(ValueError):
            FrameResult(0, (), 5, 2, TimingProfile())

    def test_plan_of_another_size_rejected(self):
        frame, oracle = scene_720([gt(100, 100, 80, 80)])
        plan = GridPlan.build(640, 480, SETTINGS_720)
        with pytest.raises(ValueError, match="640x480"):
            run_one(frame, SETTINGS_720, oracle, plan=plan)


class TestFrame:
    def test_pixels_must_match_size(self):
        with pytest.raises(ValueError, match="does not match"):
            Frame(0, 4, 2, np.zeros((4, 2, 3), dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint16, np.int8])
    def test_pixels_must_be_uint8(self, dtype):
        with pytest.raises(ValueError, match="pixels must be uint8"):
            Frame(0, 4, 2, np.zeros((2, 4, 3), dtype=dtype))


def slow_pulls(frames, seconds):
    """Yield each frame after sleeping, like a source that decodes slowly."""
    for frame in frames:
        time.sleep(seconds)
        yield frame


class TestRunSequence:
    @pytest.mark.parametrize("mode", RUN_MODES)
    def test_frame_pulls_charged_to_io(self, mode):
        _, oracle = scene_720([gt(100, 100, 80, 80)])
        frames = [Frame(i, 1280, 720) for i in range(3)]
        results = list(
            run_sequence(slow_pulls(frames, 0.02), SETTINGS_720, oracle, mode=mode)
        )
        assert [r.frame_id for r in results] == [0, 1, 2]
        for result in results:
            assert result.timing.io_ms >= 20

    @pytest.mark.parametrize("mode", RUN_MODES)
    def test_every_mode_rejects_plan_of_another_size(self, mode):
        frame, oracle = scene_720([gt(100, 100, 80, 80)])
        plan = GridPlan.build(640, 480, SETTINGS_720)
        with pytest.raises(ValueError, match="frame 0 is 1280x720, plan is 640x480"):
            run_one(frame, SETTINGS_720, oracle, mode=mode, plan=plan)

    @pytest.mark.parametrize("mode", RUN_MODES)
    def test_every_mode_names_postprocess_failure(self, mode, monkeypatch):
        def broken(tagged, grid):
            raise ArithmeticError("boom")

        monkeypatch.setattr("tilepipe.pipeline.postprocess", broken)
        frame, oracle = scene_720([gt(100, 100, 80, 80)], fid=4)
        with pytest.raises(StageFailure, match="postprocess stage failed on frame 4"):
            run_one(frame, SETTINGS_720, oracle, mode=mode)

    def test_unknown_mode_rejected(self):
        frame, oracle = scene_720([])
        with pytest.raises(ValueError, match="unknown mode 'tiles'"):
            run_one(frame, SETTINGS_720, oracle, mode="tiles")

    def test_mixed_frame_sizes_rejected(self):
        _, oracle = scene_720([gt(100, 100, 80, 80)])
        mixed = [Frame(0, 1280, 720), Frame(1, 640, 480)]
        results = run_sequence(mixed, SETTINGS_720, oracle)
        assert next(results).frame_id == 0
        with pytest.raises(ValueError, match="frame 1 is 640x480"):
            next(results)


class TestStraddleScenes:
    def test_one_box_per_object_after_postprocessing(self):
        # all x spans stay inside single columns: person merging is
        # vertical-only, so a column-border straddler would stay split
        objects = [
            gt(100, 180, 60, 150, oid="cross-row0"),  # crosses y=254
            gt(600, 420, 70, 140, oid="cross-row1"),  # crosses y=487
            gt(750, 100, 80, 80, oid="contained"),
        ]
        frame, oracle = scene_720(objects)
        for result in (
            run_one(frame, SETTINGS_720, oracle),
            run_one(frame, SETTINGS_720, oracle, mode="allcrops"),
        ):
            assert len(result.detections) == len(objects)
            for obj in objects:
                best = max(
                    (d for d in result.detections),
                    key=lambda d: _iou(d.rect, obj.rect),
                )
                assert _iou(best.rect, obj.rect) > 0.9, obj


def _iou(a, b):
    ix = max(0.0, min(a.x2, b.x2) - max(a.x, b.x))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y, b.y))
    inter = ix * iy
    return inter / (a.area + b.area - inter)


class TestDownscaleBaseline:
    def test_model_sized_frame_is_single_detect_call(self):
        settings = PipelineSettings(CropSettings(1), CropSettings(1))
        obj = gt(50, 60, 100, 80)
        oracle = oracle_for_scene(608, 608, settings, {0: [obj]})
        counting = CountingDetector(oracle)
        result = run_one(Frame(0, 608, 608), settings, counting, mode="downscale")
        plan = GridPlan.build(608, 608, settings)
        assert counting.calls == [plan.downscale_crop.crop_id]
        assert result.detections == (Detection(Rect(50, 60, 100, 80), "person", 1.0),)
        assert (result.active_count, result.total_count) == (1, 1)

    def test_small_object_lost_at_downscale(self):
        settings = PipelineSettings.from_preset("1 att, 3 fin, 20 over")
        objects = [gt(1000, 1000, 40, 40, oid="tiny"), gt(2000, 500, 600, 600, oid="big")]
        oracle = oracle_for_scene(3840, 2160, settings, {0: objects})
        result = run_one(Frame(0, 3840, 2160), settings, oracle, mode="downscale")
        assert len(result.detections) == 1
        assert result.detections[0].rect.w > 500

    def test_pipeline_recovers_what_downscale_loses(self):
        settings = PipelineSettings.from_preset("1 att, 3 fin, 20 over")
        objects = [gt(1000, 1000, 40, 40, oid="tiny")]
        oracle = oracle_for_scene(3840, 2160, settings, {0: objects})
        down = run_one(Frame(0, 3840, 2160), settings, oracle, mode="downscale")
        staged = run_one(Frame(0, 3840, 2160), settings, oracle)
        assert down.detections == ()
        assert len(staged.detections) == 1


class TestAllCropsBaseline:
    def test_every_crop_active(self):
        frame, oracle = scene_720([])
        result = run_one(frame, SETTINGS_720, oracle, mode="allcrops")
        assert result.active_count == result.total_count == 18

    def test_sparse_scene_costs_more_than_staged(self):
        settings = PipelineSettings.from_preset("1 att, 4 fin, 20 over")
        oracle = oracle_for_scene(3840, 2160, settings, {0: [gt(1000, 1000, 100, 100)]})
        plan = GridPlan.build(3840, 2160, settings)
        final_ids = {c.crop_id for c in plan.final_grid.crops}

        staged_counter = CountingDetector(oracle)
        run_one(Frame(0, 3840, 2160), settings, staged_counter)
        exhaustive_counter = CountingDetector(oracle)
        run_one(Frame(0, 3840, 2160), settings, exhaustive_counter, mode="allcrops")

        staged_final_calls = sum(1 for c in staged_counter.calls if c in final_ids)
        exhaustive_calls = [c for c in exhaustive_counter.calls if c in final_ids]
        assert len(exhaustive_calls) == 32
        assert staged_final_calls < len(exhaustive_calls)
