"""Tests for the detector contract and the ground-truth oracle."""

import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tilepipe.detector import (
    Detection,
    DetectorProfile,
    GroundTruthObject,
    NoisyOracle,
    SceneOracle,
    cut_tile,
    mock_detect,
)
from tilepipe.geometry import MODEL_SIDE, CropSpec, Rect


def make_crop(crop_id, x, y, side):
    return CropSpec(crop_id, 0, 0, Rect(x, y, side, side), side / MODEL_SIDE)


def lattice_fraction(gt, crop):
    """Fraction of gt's unit pixel cells that fall inside crop, by counting.

    Integer rects only; this is the slow reference the fast path is checked
    against.
    """
    inside = 0
    for j in range(int(gt.y), int(gt.y + gt.h)):
        for i in range(int(gt.x), int(gt.x + gt.w)):
            if crop.x <= i < crop.x + crop.w and crop.y <= j < crop.y + crop.h:
                inside += 1
    return inside, int(gt.w) * int(gt.h)


class TestDetectionTypes:
    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Detection(Rect(0, 0, 10, 10), "person", 1.5)
        with pytest.raises(ValueError):
            Detection(Rect(0, 0, 10, 10), "person", -0.1)

    def test_empty_class_label_rejected(self):
        with pytest.raises(ValueError):
            Detection(Rect(0, 0, 10, 10), "", 0.5)
        with pytest.raises(ValueError):
            GroundTruthObject(Rect(0, 0, 10, 10), "", "obj-1")

    def test_empty_object_id_rejected(self):
        with pytest.raises(ValueError):
            GroundTruthObject(Rect(0, 0, 10, 10), "person", "")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DetectorProfile(input_side=0)


class TestMockDetect:
    def test_empty_scene(self):
        crop = make_crop(0, 0, 0, 608)
        assert mock_detect(crop, [], 0.3) == []

    def test_fully_contained_object(self):
        crop = make_crop(0, 0, 0, 608)
        gt = [GroundTruthObject(Rect(100, 200, 50, 40), "person", "a")]
        dets = mock_detect(crop, gt, 0.3)
        assert len(dets) == 1
        assert dets[0].confidence == 1.0
        assert dets[0].class_label == "person"
        # crop side equals the model side, so local space is global space
        assert dets[0].rect == Rect(100, 200, 50, 40)

    def test_partial_below_threshold_not_emitted(self):
        crop = make_crop(0, 0, 0, 300)
        gt = [GroundTruthObject(Rect(280, 0, 100, 50), "car", "a")]
        assert mock_detect(crop, gt, 0.3) == []

    def test_threshold_boundary_is_inclusive(self):
        crop = make_crop(0, 0, 0, 300)
        gt = [GroundTruthObject(Rect(250, 0, 100, 50), "car", "a")]
        dets = mock_detect(crop, gt, 0.5)
        assert len(dets) == 1
        assert dets[0].confidence == 0.5

    def test_straddling_object_emitted_by_both_sides(self):
        left = make_crop(0, 0, 0, 300)
        right = make_crop(1, 300, 0, 300)
        gt = [GroundTruthObject(Rect(240, 10, 100, 50), "person", "a")]
        dets_l = mock_detect(left, gt, 0.3)
        dets_r = mock_detect(right, gt, 0.3)
        assert len(dets_l) == 1 and len(dets_r) == 1
        in_l, total = lattice_fraction(gt[0].rect, left.global_rect)
        in_r, _ = lattice_fraction(gt[0].rect, right.global_rect)
        assert dets_l[0].confidence == in_l / total == 0.6
        assert dets_r[0].confidence == in_r / total == 0.4

    def test_small_object_dropped_at_coarse_tile_scale(self):
        # side 3840 means one tile pixel spans 6.3 frame pixels
        crop = make_crop(0, 0, 0, 3840)
        gt = [
            GroundTruthObject(Rect(100, 100, 40, 40), "person", "small"),
            GroundTruthObject(Rect(500, 500, 60, 60), "person", "big"),
        ]
        dets = mock_detect(crop, gt, 0.3)
        assert len(dets) == 1
        assert dets[0].rect.w == pytest.approx(60 * 608 / 3840)

    def test_min_tile_size_boundary_inclusive(self):
        crop = make_crop(0, 0, 0, 608)
        keep = [GroundTruthObject(Rect(10, 10, 8, 20), "person", "a")]
        drop = [GroundTruthObject(Rect(10, 10, 7, 20), "person", "b")]
        assert len(mock_detect(crop, keep, 0.3)) == 1
        assert mock_detect(crop, drop, 0.3) == []

    def test_min_tile_rule_applies_to_visible_part(self):
        # 7 of 20 px visible: fraction 0.35 passes but the sliver is too thin
        crop = make_crop(0, 0, 0, 608)
        gt = [GroundTruthObject(Rect(601, 10, 20, 20), "person", "a")]
        assert mock_detect(crop, gt, 0.3) == []
        assert len(mock_detect(crop, gt, 0.3, min_tile_px=0)) == 1

    def test_visibility_threshold_validated(self):
        crop = make_crop(0, 0, 0, 608)
        with pytest.raises(ValueError):
            mock_detect(crop, [], 0.0)
        with pytest.raises(ValueError):
            mock_detect(crop, [], 1.1)

    def test_deterministic(self):
        crop = make_crop(0, 30, 40, 500)
        gt = [
            GroundTruthObject(Rect(10 * i, 20, 80, 60), "person", f"o{i}")
            for i in range(8)
        ]
        assert mock_detect(crop, gt, 0.3) == mock_detect(crop, gt, 0.3)

    def test_random_scenes_match_lattice_oracle(self):
        rng = random.Random(11)
        for _ in range(120):
            side = rng.randint(50, 700)
            crop = make_crop(0, rng.randint(-20, 400), rng.randint(-20, 400), side)
            gt = []
            for i in range(rng.randint(1, 6)):
                w = rng.randint(1, 60)
                h = rng.randint(1, 60)
                rect = Rect(rng.randint(0, 500), rng.randint(0, 500), w, h)
                # one class per object so results map back unambiguously
                gt.append(GroundTruthObject(rect, f"c{i}", f"o{i}"))
            dets = mock_detect(crop, gt, 0.3)
            assert [d.confidence for d in dets] == sorted(
                (d.confidence for d in dets), reverse=True
            )
            for d in dets:
                assert d.rect.x >= 0 and d.rect.y >= 0
                assert d.rect.x + d.rect.w <= 608 + 1e-9
                assert d.rect.y + d.rect.h <= 608 + 1e-9
            by_class = {d.class_label: d for d in dets}
            for obj in gt:
                inside, total = lattice_fraction(obj.rect, crop.global_rect)
                visible = obj.rect.intersection(crop.global_rect)
                expect = inside / total >= 0.3
                if expect:
                    expect = (
                        visible.w * 608 >= 8 * side and visible.h * 608 >= 8 * side
                    )
                assert (obj.class_label in by_class) == expect, (obj, crop)
                if expect:
                    assert by_class[obj.class_label].confidence == inside / total


def simple_oracle(threshold=0.3, **kwargs):
    crops = {
        0: make_crop(0, 0, 0, 300),
        1: make_crop(1, 300, 0, 300),
    }
    gt = {
        5: [
            GroundTruthObject(Rect(40, 40, 100, 80), "person", "a"),
            GroundTruthObject(Rect(240, 10, 100, 50), "car", "b"),
        ]
    }
    return SceneOracle(crops, gt, threshold, **kwargs)


class TestSceneOracle:
    def test_answers_from_scene_config(self):
        oracle = simple_oracle()
        dets = oracle.detect(5, 0)
        assert {d.class_label for d in dets} == {"person", "car"}
        assert [d.class_label for d in oracle.detect(5, 1)] == ["car"]

    def test_unknown_frame_is_empty_scene(self):
        assert simple_oracle().detect(99, 0) == []

    def test_unknown_crop_id_rejected(self):
        with pytest.raises(ValueError, match="crop_id"):
            simple_oracle().detect(5, 42)

    def test_tile_shape_checked_but_pixels_ignored(self):
        oracle = simple_oracle()
        tile = np.random.default_rng(3).integers(0, 255, (608, 608, 3), np.uint8)
        assert oracle.detect(5, 0, tile) == oracle.detect(5, 0)
        with pytest.raises(ValueError, match="tile"):
            oracle.detect(5, 0, tile[:100])

    def test_profile_defaults_to_scene_classes(self):
        oracle = simple_oracle()
        assert oracle.profile.supported_classes == {"person", "car"}
        assert oracle.profile.input_side == 608

    def test_profile_class_filter(self):
        oracle = simple_oracle(
            profile=DetectorProfile(supported_classes=frozenset({"person"}))
        )
        assert oracle.detect(5, 1) == []
        assert [d.class_label for d in oracle.detect(5, 0)] == ["person"]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            simple_oracle(threshold=0.0)

    def test_concurrent_calls_match_serial(self):
        oracle = simple_oracle()
        serial = [oracle.detect(5, i % 2) for i in range(40)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda i: oracle.detect(5, i % 2), range(40)))
        assert parallel == serial


class TestNoisyOracle:
    def _busy_oracle(self):
        crops = {0: make_crop(0, 0, 0, 608)}
        gt = {
            1: [
                GroundTruthObject(Rect(10 * i, 10, 9, 9), "person", f"o{i}")
                for i in range(50)
            ]
        }
        return SceneOracle(crops, gt, 0.3)

    def test_zero_miss_rate_is_transparent(self):
        base = self._busy_oracle()
        noisy = NoisyOracle(base, 0.0, seed=7)
        assert noisy.detect(1, 0) == base.detect(1, 0)

    def test_full_miss_rate_drops_everything(self):
        noisy = NoisyOracle(self._busy_oracle(), 1.0, seed=7)
        assert noisy.detect(1, 0) == []

    def test_seeded_and_call_order_independent(self):
        base = self._busy_oracle()
        a = NoisyOracle(base, 0.5, seed=7)
        b = NoisyOracle(base, 0.5, seed=7)
        first = a.detect(1, 0)
        a.detect(1, 0)  # extra call must not shift later results
        assert a.detect(1, 0) == first == b.detect(1, 0)
        kept = len(first)
        assert 0 < kept < 50

    def test_miss_rate_validated(self):
        with pytest.raises(ValueError):
            NoisyOracle(self._busy_oracle(), 1.5)


class TestCutTile:
    def _frame(self, h, w, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 255, (h, w, 3), np.uint8)

    def test_native_resolution_is_exact_copy(self):
        pixels = self._frame(700, 900)
        crop = make_crop(0, 120, 30, 608)
        tile = cut_tile(pixels, crop)
        assert np.array_equal(tile, pixels[30 : 30 + 608, 120 : 120 + 608])

    def test_upscale_replicates_source_pixels(self):
        pixels = self._frame(400, 400)
        crop = make_crop(0, 10, 20, 304)
        tile = cut_tile(pixels, crop)
        src = (np.arange(608) * 304) // 608
        expect = pixels[20 + src][:, 10 + src]
        assert np.array_equal(tile, expect)

    def test_downscale_sampling_positions(self):
        pixels = self._frame(1000, 1000)
        crop = make_crop(0, 0, 0, 912)
        tile = cut_tile(pixels, crop)
        src = (np.arange(608) * 912) // 608
        assert np.array_equal(tile, pixels[src][:, src])

    def test_out_of_frame_area_zero_filled(self):
        pixels = self._frame(500, 500)
        crop = make_crop(0, 450, 450, 608)
        tile = cut_tile(pixels, crop)
        assert np.array_equal(tile[:50, :50], pixels[450:, 450:])
        assert not tile[50:, :].any()
        assert not tile[:, 50:].any()

    def test_result_shape_and_dtype(self):
        pixels = self._frame(300, 300)
        tile = cut_tile(pixels, make_crop(0, 0, 0, 300))
        assert tile.shape == (608, 608, 3)
        assert tile.dtype == np.uint8

    def test_bad_frame_shape_rejected(self):
        with pytest.raises(ValueError):
            cut_tile(np.zeros((100, 100), np.uint8), make_crop(0, 0, 0, 50))
