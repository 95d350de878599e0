"""Geometry: IoU against a lattice-counting oracle, crop grid golden values,
coverage/minimality properties, and coordinate round-trips."""

from __future__ import annotations

import random
import time

import pytest

from tilepipe.geometry import (
    MODEL_SIDE,
    CropSettings,
    Rect,
    build_grid,
    crop_side_px,
    intersects,
    iou,
    to_global,
    to_local,
)


def lattice_iou(a: Rect, b: Rect) -> float:
    """Independent IoU oracle: count unit lattice cells inside each rect."""

    def cells(r: Rect) -> set[tuple[int, int]]:
        return {
            (i, j)
            for i in range(int(r.x), int(r.x2))
            for j in range(int(r.y), int(r.y2))
        }

    ca, cb = cells(a), cells(b)
    union = len(ca | cb)
    return len(ca & cb) / union if union else 0.0


def random_int_rect(rng: random.Random, span: int = 50) -> Rect:
    x = rng.randint(0, span - 1)
    y = rng.randint(0, span - 1)
    w = rng.randint(1, span - x)
    h = rng.randint(1, span - y)
    return Rect(x, y, w, h)


class TestRect:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 5)
        with pytest.raises(ValueError):
            Rect(0, 0, 5, -1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Rect(float("nan"), 0, 1, 1)
        with pytest.raises(ValueError):
            Rect(0, float("inf"), 1, 1)

    def test_union_rect_encloses_both(self):
        u = Rect(0, 0, 2, 2).union_rect(Rect(5, 5, 1, 1))
        assert (u.x, u.y, u.x2, u.y2) == (0, 0, 6, 6)

    def test_dilated_clips_to_frame(self):
        d = Rect(5, 5, 10, 10).dilated(20, 100, 100)
        assert (d.x, d.y, d.x2, d.y2) == (0, 0, 35, 35)


class TestIou:
    def test_identical_rects(self):
        r = Rect(3, 4, 10, 20)
        assert iou(r, r) == 1.0

    def test_disjoint_rects(self):
        assert iou(Rect(0, 0, 2, 2), Rect(10, 10, 2, 2)) == 0.0

    def test_unit_overlap(self):
        # 1 px^2 intersection over a 7 px^2 union, per the lattice oracle.
        a, b = Rect(0, 0, 2, 2), Rect(1, 1, 2, 2)
        assert iou(a, b) == pytest.approx(1 / 7)
        assert lattice_iou(a, b) == pytest.approx(1 / 7)

    def test_matches_lattice_oracle_on_random_int_rects(self):
        rng = random.Random(1234)
        for _ in range(300):
            a, b = random_int_rect(rng), random_int_rect(rng)
            assert iou(a, b) == pytest.approx(lattice_iou(a, b), abs=1e-12)
            assert iou(a, b) == pytest.approx(iou(b, a))
            assert 0.0 <= iou(a, b) <= 1.0


class TestIntersects:
    def test_touching_edges_do_not_intersect(self):
        assert not intersects(Rect(0, 0, 5, 5), Rect(5, 0, 5, 5))
        assert not intersects(Rect(0, 0, 5, 5), Rect(0, 5, 5, 5))

    def test_nested(self):
        assert intersects(Rect(0, 0, 10, 10), Rect(2, 2, 3, 3))

    def test_corner_overlap(self):
        a, b = Rect(0, 0, 5, 5), Rect(4, 4, 5, 5)
        assert intersects(a, b)
        assert lattice_iou(a, b) > 0

    def test_agrees_with_lattice_on_random_rects(self):
        rng = random.Random(99)
        for _ in range(300):
            a, b = random_int_rect(rng, 20), random_int_rect(rng, 20)
            assert intersects(a, b) == (lattice_iou(a, b) > 0)


# (frame_h, rows) -> expected side for the default 20 px overlap, plus the
# expected grid shape at the matching frame width. 8K rows=6 is excluded:
# the published 480 px value is inconsistent with every other cell (the
# reconstruction yields 740) and is treated as a typo.
CROP_SETTING_GOLDEN = [
    (3840, 2160, 1, 2160, (1, 2)),
    (3840, 2160, 2, 1098, (2, 4)),
    (3840, 2160, 3, 736, (3, 6)),
    (3840, 2160, 4, 554, (4, 8)),
    (3840, 2160, 6, 370, (6, 11)),
    (7680, 4320, 1, 4320, (1, 2)),
    (7680, 4320, 2, 2196, (2, 4)),
    (7680, 4320, 3, 1472, (3, 6)),
    (7680, 4320, 4, 1107, (4, 8)),
]


class TestCropSettings:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            CropSettings(rows=0)

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError):
            CropSettings(rows=1, overlap_px=608)
        with pytest.raises(ValueError):
            CropSettings(rows=1, overlap_px=-1)

    @pytest.mark.parametrize("frame_w,frame_h,rows,side,shape", CROP_SETTING_GOLDEN)
    def test_crop_side_golden(self, frame_w, frame_h, rows, side, shape):
        assert crop_side_px(frame_h, CropSettings(rows=rows, overlap_px=20)) == side

    def test_single_row_of_model_height(self):
        assert crop_side_px(608, CropSettings(rows=1, overlap_px=20)) == 608


class TestBuildGrid:
    @pytest.mark.parametrize("frame_w,frame_h,rows,side,shape", CROP_SETTING_GOLDEN)
    def test_grid_shape_golden(self, frame_w, frame_h, rows, side, shape):
        grid = build_grid(frame_w, frame_h, CropSettings(rows=rows, overlap_px=20))
        assert (grid.rows, grid.cols) == shape
        assert grid.crop_side == side
        assert len(grid.crops) == shape[0] * shape[1]

    def test_golden_runtime_under_one_second(self):
        start = time.perf_counter()
        for frame_w, frame_h, rows, side, shape in CROP_SETTING_GOLDEN:
            settings = CropSettings(rows=rows, overlap_px=20)
            assert crop_side_px(frame_h, settings) == side
            grid = build_grid(frame_w, frame_h, settings)
            assert (grid.rows, grid.cols) == shape
        assert time.perf_counter() - start < 1.0

    def test_model_sized_frame_is_single_crop(self):
        grid = build_grid(608, 608, CropSettings(rows=1, overlap_px=0))
        assert (grid.rows, grid.cols) == (1, 1)
        assert grid.crops[0].global_rect == Rect(0, 0, 608, 608)

    def test_crops_are_square(self):
        for frame_w, frame_h, rows, _, _ in CROP_SETTING_GOLDEN:
            grid = build_grid(frame_w, frame_h, CropSettings(rows=rows, overlap_px=20))
            for crop in grid.crops:
                assert abs(crop.global_rect.w - crop.global_rect.h) <= 1

    def test_id_base_offsets_crop_ids(self):
        grid = build_grid(1280, 720, CropSettings(rows=2, overlap_px=20), id_base=100)
        assert [c.crop_id for c in grid.crops] == list(range(100, 100 + len(grid.crops)))
        assert grid.crop_by_id(100).row == 0
        with pytest.raises(KeyError):
            grid.crop_by_id(99)

    @staticmethod
    def _covers(grid_crops, frame_w, frame_h) -> bool:
        # Probe the frame corners, crop seams, and a pixel just inside each
        # crop boundary; a coverage gap must expose one of these points.
        xs = {0, frame_w - 1}
        ys = {0, frame_h - 1}
        for crop in grid_crops:
            r = crop.global_rect
            xs.update({int(r.x), int(r.x2) - 1, min(frame_w - 1, int(r.x2))})
            ys.update({int(r.y), int(r.y2) - 1, min(frame_h - 1, int(r.y2))})
        xs = sorted(x for x in xs if 0 <= x < frame_w)
        ys = sorted(y for y in ys if 0 <= y < frame_h)
        for px in xs:
            for py in ys:
                cx, cy = px + 0.5, py + 0.5
                if not any(
                    c.global_rect.x <= cx < c.global_rect.x2
                    and c.global_rect.y <= cy < c.global_rect.y2
                    for c in grid_crops
                ):
                    return False
        return True

    def test_coverage_and_minimality_random(self):
        rng = random.Random(7)
        cases = [
            (3840, 2160, 2, 20),
            (3840, 2160, 6, 20),
            (608, 608, 1, 0),
            (1280, 720, 3, 50),
            (435, 16, 5, 1),  # few-pixel crops: rounding alone would under-cover
        ]
        for _ in range(60):
            cases.append(
                (
                    rng.randint(16, 4000),
                    rng.randint(16, 2400),
                    rng.randint(1, 7),
                    rng.choice([0, 1, 20, 50, 100, 300]),
                )
            )
        for frame_w, frame_h, rows, overlap in cases:
            grid = build_grid(frame_w, frame_h, CropSettings(rows=rows, overlap_px=overlap))
            assert self._covers(grid.crops, frame_w, frame_h), (frame_w, frame_h, rows, overlap)
            if grid.cols > 1:
                trimmed = [c for c in grid.crops if c.col < grid.cols - 1]
                assert not self._covers(trimmed, frame_w, frame_h), (frame_w, frame_h, rows, overlap)


class TestCoordinateTransforms:
    def _crop(self, x=100, y=100, side=1216):
        return build_grid(x + side, y + side, CropSettings(rows=1)).crops[0]

    def test_whole_crop_round_trip(self):
        grid = build_grid(1216, 1216, CropSettings(rows=1, overlap_px=0))
        crop = grid.crops[0]
        local = to_local(crop.global_rect, crop)
        assert (local.x, local.y, local.w, local.h) == (0, 0, 608, 608)
        back = to_global(local, crop, 1216, 1216)
        assert back == Rect(crop.global_rect.x, crop.global_rect.y, crop.global_rect.w, crop.global_rect.h)

    def test_scale_two_crop(self):
        # Crop of side 1216 at (100,100): scale 2, so a 608 px global square
        # maps to a 304 px local square at the origin.
        from tilepipe.geometry import CropSpec

        crop = CropSpec(0, 0, 0, Rect(100, 100, 1216, 1216), 1216 / MODEL_SIDE)
        local = to_local(Rect(100, 100, 608, 608), crop)
        assert (local.x, local.y, local.w, local.h) == (0, 0, 304, 304)

    def test_scale_two_to_global(self):
        from tilepipe.geometry import CropSpec

        crop = CropSpec(0, 0, 0, Rect(0, 0, 1216, 1216), 2.0)
        g = to_global(Rect(10, 10, 20, 20), crop, 1216, 1216)
        assert (g.x, g.y, g.w, g.h) == (20, 20, 40, 40)

    def test_no_intersection_rejected(self):
        crop = build_grid(1280, 720, CropSettings(rows=1)).crops[0]
        with pytest.raises(ValueError):
            to_local(Rect(-50, -50, 10, 10), crop)

    def test_round_trip_within_one_pixel(self):
        rng = random.Random(4242)
        for frame_w, frame_h, rows, overlap in [
            (3840, 2160, 1, 20),
            (3840, 2160, 3, 50),
            (7680, 4320, 1, 20),
            (1280, 720, 4, 20),
        ]:
            grid = build_grid(frame_w, frame_h, CropSettings(rows=rows, overlap_px=overlap))
            for _ in range(100):
                crop = grid.crops[rng.randrange(len(grid.crops))]
                g = crop.global_rect
                x = rng.randint(int(g.x), int(g.x2) - 2)
                y = rng.randint(int(g.y), int(g.y2) - 2)
                w = rng.randint(1, int(g.x2) - x - 1)
                h = rng.randint(1, int(g.y2) - y - 1)
                r = Rect(x, y, w, h)
                back = to_global(to_local(r, crop), crop, frame_w, frame_h)
                assert abs(back.x - r.x) <= 1 and abs(back.y - r.y) <= 1
                assert abs(back.x2 - r.x2) <= 1 and abs(back.y2 - r.y2) <= 1
