"""Tests for NMS and cross-border merging."""

import random

import pytest

from tilepipe.detector import Detection
from tilepipe.geometry import CropSettings, Rect, build_grid
from tilepipe.postprocess import merge_split, nms_keep_indices, postprocess


def nms(dets, threshold):
    return [dets[i] for i in nms_keep_indices(dets, threshold)]


def plain_iou(a, b):
    """Arithmetic IoU reference, independent of the library's version."""
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    return inter / (a.w * a.h + b.w * b.h - inter)


def reference_nms(dets, threshold):
    """Slow greedy NMS reference used to check the real one."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    kept = []
    for i in order:
        blocked = False
        for k in kept:
            if dets[k].class_label != dets[i].class_label:
                continue
            if plain_iou(dets[k].rect, dets[i].rect) >= threshold:
                blocked = True
        if not blocked:
            kept.append(i)
    return [dets[i] for i in kept]


def det(x, y, w, h, conf, label="person"):
    return Detection(Rect(x, y, w, h), label, conf)


class TestNms:
    def test_identical_boxes_keep_best(self):
        dets = [det(10, 10, 50, 50, 0.9), det(10, 10, 50, 50, 0.8)]
        assert nms(dets, 0.45) == [dets[0]]

    def test_disjoint_boxes_all_kept(self):
        dets = [det(0, 0, 20, 20, 0.5), det(100, 0, 20, 20, 0.9), det(0, 100, 20, 20, 0.7)]
        assert sorted(nms(dets, 0.45), key=lambda d: -d.confidence) == nms(dets, 0.45)
        assert set(nms(dets, 0.45)) == set(dets)

    def test_overlap_chain_keeps_alternating(self):
        # neighbors overlap at IoU 0.6; greedy keeps every other box
        dets = [det(25 * i, 0, 100, 100, 0.9 - 0.1 * i) for i in range(5)]
        out = nms(dets, 0.5)
        assert out == [dets[0], dets[2], dets[4]]
        assert out == reference_nms(dets, 0.5)

    def test_classes_do_not_suppress_each_other(self):
        dets = [det(10, 10, 50, 50, 0.9, "person"), det(10, 10, 50, 50, 0.8, "car")]
        assert nms(dets, 0.45) == dets

    def test_iou_exactly_at_threshold_suppresses(self):
        dets = [det(0, 0, 150, 10, 0.9), det(50, 0, 150, 10, 0.8)]
        assert plain_iou(dets[0].rect, dets[1].rect) == 0.5
        assert nms(dets, 0.5) == [dets[0]]

    def test_ties_keep_input_order(self):
        dets = [det(0, 0, 20, 20, 0.5), det(100, 100, 20, 20, 0.5)]
        assert nms(dets, 0.45) == dets

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            nms([], 0.0)

    def test_random_sets_match_reference(self):
        rng = random.Random(23)
        confs = [0.2, 0.4, 0.5, 0.7, 0.9]
        for _ in range(120):
            dets = [
                det(
                    rng.randint(0, 60),
                    rng.randint(0, 60),
                    rng.randint(10, 50),
                    rng.randint(10, 50),
                    rng.choice(confs),
                    rng.choice(["person", "car"]),
                )
                for _ in range(rng.randint(0, 12))
            ]
            thr = rng.choice([0.3, 0.45, 0.6])
            out = nms(dets, thr)
            assert out == reference_nms(dets, thr)
            # kept boxes of one class never overlap at or above the threshold
            for i, a in enumerate(out):
                for b in out[i + 1 :]:
                    if a.class_label == b.class_label:
                        assert plain_iou(a.rect, b.rect) < thr
            assert nms(out, thr) == out
            assert all(d in dets for d in out)


GRID = build_grid(1280, 720, CropSettings(rows=3, overlap_px=50))


def upper_lower_fragments():
    # a person at (50, 120, 60, 200) cut by the row 0 / row 1 border at y=254
    upper = det(50, 120, 60, 134, 0.67)
    lower = det(50, 233, 60, 87, 0.435)
    return [(0, upper), (GRID.cols, lower)]


class TestMergeSplit:
    def test_vertical_fragments_merge_to_union(self):
        out = merge_split(upper_lower_fragments(), GRID)
        assert out == [det(50, 120, 60, 200, 0.67)]

    def test_same_crop_never_merges(self):
        tagged = [(0, det(50, 120, 60, 80, 0.9)), (0, det(50, 205, 60, 40, 0.8))]
        assert len(merge_split(tagged, GRID)) == 2

    def test_person_fragments_do_not_merge_horizontally(self):
        tagged = [(0, det(200, 100, 54, 80, 0.6)), (1, det(254, 100, 40, 80, 0.5))]
        assert len(merge_split(tagged, GRID)) == 2

    def test_class_without_rule_never_merges(self):
        tagged = [
            (crop_id, Detection(d.rect, "car", d.confidence))
            for crop_id, d in upper_lower_fragments()
        ]
        assert len(merge_split(tagged, GRID)) == 2

    def test_three_row_chain_collapses_to_one_box(self):
        tagged = [
            (0, det(60, 100, 50, 154, 0.4)),
            (GRID.cols, det(60, 233, 50, 254, 0.64)),
            (2 * GRID.cols, det(60, 466, 50, 34, 0.35)),
        ]
        out = merge_split(tagged, GRID)
        assert out == [det(60, 100, 50, 400, 0.64)]

    def test_gap_boundary_inclusive(self):
        near = [(0, det(50, 100, 60, 100, 0.7)), (GRID.cols, det(50, 240, 60, 50, 0.6))]
        far = [(0, det(50, 100, 60, 100, 0.7)), (GRID.cols, det(50, 241, 60, 50, 0.6))]
        assert len(merge_split(near, GRID)) == 1
        assert len(merge_split(far, GRID)) == 2

    def test_alignment_boundary_inclusive(self):
        ok = [(0, det(50, 120, 60, 134, 0.7)), (GRID.cols, det(80, 233, 60, 87, 0.6))]
        off = [(0, det(50, 120, 60, 134, 0.7)), (GRID.cols, det(81, 233, 60, 87, 0.6))]
        assert len(merge_split(ok, GRID)) == 1
        assert len(merge_split(off, GRID)) == 2

    def test_random_never_grows_and_unions_stay_on_input_edges(self):
        rng = random.Random(5)
        for _ in range(60):
            tagged = []
            for _ in range(rng.randint(0, 10)):
                crop_id = rng.randrange(len(GRID.crops))
                spec = GRID.crops[crop_id]
                x = int(spec.global_rect.x) + rng.randint(0, 150)
                y = int(spec.global_rect.y) + rng.randint(0, 150)
                tagged.append(
                    (crop_id, det(x, y, rng.randint(10, 100), rng.randint(10, 100), 0.5))
                )
            out = merge_split(tagged, GRID)
            assert len(out) <= len(tagged)
            xs = {d.rect.x for _, d in tagged}
            ys = {d.rect.y for _, d in tagged}
            x2s = {d.rect.x2 for _, d in tagged}
            y2s = {d.rect.y2 for _, d in tagged}
            for d in out:
                assert d.rect.x in xs and d.rect.y in ys
                assert d.rect.x2 in x2s and d.rect.y2 in y2s


class TestPostprocess:
    def test_duplicate_removed_then_fragments_joined(self):
        frags = upper_lower_fragments()
        # a second look at the upper fragment from the column 1 crop
        dup = (1, det(51, 121, 59, 133, 0.60))
        out = postprocess(frags + [dup], GRID)
        assert out == [det(50, 120, 60, 200, 0.67)]

    def test_nms_runs_before_merge(self):
        # merging first would join these into one 160 px tall box
        tagged = [
            (0, det(50, 100, 60, 150, 0.7)),
            (GRID.cols, det(50, 140, 60, 120, 0.6)),
        ]
        assert postprocess(tagged, GRID) == [det(50, 100, 60, 150, 0.7)]

    def test_empty_input(self):
        assert postprocess([], GRID) == []
