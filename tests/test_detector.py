"""Tests for the detector contract and the ground-truth oracle."""

import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tilepipe import detector
from tilepipe.detector import (
    Detection,
    GroundTruthObject,
    SceneOracle,
    check_tiles,
    cut_tile,
    detection_from_row,
    detection_row,
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

    def test_row_round_trips(self):
        det = Detection(Rect(1.5, 2, 30.25, 40), "car", 0.75)
        row = detection_row(det)
        assert row == {
            "x": 1.5, "y": 2, "w": 30.25, "h": 40, "class": "car", "confidence": 0.75
        }
        assert detection_from_row(row) == det

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"confidence": 1.5}, ValueError),
            ({"w": 0}, ValueError),
            ({"class": ""}, ValueError),
            ({"x": "1"}, TypeError),
        ],
    )
    def test_row_that_fails_the_checks_raises(self, change, error):
        row = {**detection_row(Detection(Rect(0, 0, 10, 10), "car", 0.5)), **change}
        with pytest.raises(error):
            detection_from_row(row)

    def test_row_missing_a_field_raises_key_error(self):
        row = detection_row(Detection(Rect(0, 0, 10, 10), "car", 0.5))
        del row["confidence"]
        with pytest.raises(KeyError):
            detection_from_row(row)


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
        first, second = oracle.detect(5, [0, 1])
        assert {d.class_label for d in first} == {"person", "car"}
        assert [d.class_label for d in second] == ["car"]

    def test_one_list_per_crop_id_in_order(self):
        oracle = simple_oracle()
        first, second = oracle.detect(5, [0, 1])
        assert oracle.detect(5, [1, 0, 1]) == [second, first, second]
        assert oracle.detect(5, []) == []

    def test_unknown_frame_is_empty_scene(self):
        assert simple_oracle().detect(99, [0, 1]) == [[], []]

    def test_unknown_crop_id_rejected(self):
        with pytest.raises(ValueError, match="crop_id: 42"):
            simple_oracle().detect(5, [0, 42])

    def test_tile_shape_checked_but_pixels_ignored(self):
        oracle = simple_oracle()
        tiles = np.random.default_rng(3).integers(0, 255, (2, 608, 608, 3), np.uint8)
        assert oracle.detect(5, [0, 1], tiles) == oracle.detect(5, [0, 1])
        for bad in (tiles[:1], tiles[:, :100], tiles[0], tiles.astype(np.int16)):
            with pytest.raises(ValueError, match="tiles"):
                oracle.detect(5, [0, 1], bad)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            simple_oracle(threshold=0.0)

    def test_concurrent_calls_match_serial(self):
        oracle = simple_oracle()
        serial = [oracle.detect(5, [i % 2]) for i in range(40)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda i: oracle.detect(5, [i % 2]), range(40)))
        assert parallel == serial


class TestCheckTiles:
    def test_accepts_one_uint8_array_of_the_batch_shape(self):
        check_tiles(np.zeros((3, MODEL_SIDE, MODEL_SIDE, 3), np.uint8), 3)
        check_tiles(np.zeros((0, MODEL_SIDE, MODEL_SIDE, 3), np.uint8), 0)

    @pytest.mark.parametrize(
        "tiles",
        [
            np.zeros((2, MODEL_SIDE, MODEL_SIDE, 3), np.uint8),
            np.zeros((3, MODEL_SIDE, 416, 3), np.uint8),
            np.zeros((3, MODEL_SIDE, MODEL_SIDE, 3)),
            [np.zeros((MODEL_SIDE, MODEL_SIDE, 3), np.uint8)] * 3,
        ],
        ids=["count", "side", "dtype", "list"],
    )
    def test_rejects_anything_else(self, tiles):
        with pytest.raises(ValueError, match=r"uint8 of shape \(3, 608, 608, 3\)"):
            check_tiles(tiles, 3)


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

    def test_copies_only_the_sampled_rows(self):
        # a crop as tall as a 4K or 8K frame samples 608 rows of a window as
        # wide as the crop; the cut holds at most one band of them (1 MiB),
        # where all 608 would take 3.9 or 7.9 MB. Each frame repeats one
        # random row, so the test allocates nothing large.
        for height, width, x, side in [(2160, 3840, 840, 2160), (4320, 7680, 1680, 4320)]:
            pixels = np.broadcast_to(self._frame(1, width), (height, width, 3))
            crop = make_crop(0, x, 0, side)
            out = np.empty((MODEL_SIDE, MODEL_SIDE, 3), np.uint8)
            tracemalloc.start()
            try:
                cut_tile(pixels, crop, out=out)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * detector._BAND_BYTES, side
            src = (np.arange(MODEL_SIDE) * side) // MODEL_SIDE
            assert np.array_equal(out, pixels[:, x + src][src]), side

    @pytest.mark.parametrize(
        "make_out",
        [
            lambda: np.empty((MODEL_SIDE, 2 * MODEL_SIDE, 3), np.uint8)[:, ::2],
            lambda: np.empty((MODEL_SIDE, MODEL_SIDE, 3), np.uint16),
            lambda: np.empty((MODEL_SIDE, MODEL_SIDE + 1, 3), np.uint8),
            lambda: np.empty((2 * MODEL_SIDE, MODEL_SIDE, 3), np.uint8)[::2],
        ],
        ids=["strided_columns", "dtype", "shape", "strided_rows"],
    )
    def test_out_that_is_not_a_contiguous_tile_is_rejected_unwritten(self, make_out):
        pixels = self._frame(700, 900)
        out = make_out()
        out[...] = 0xAB
        with pytest.raises(ValueError, match="C-contiguous"):
            cut_tile(pixels, make_crop(0, 120, 30, 608), out=out)
        assert (out == 0xAB).all()
