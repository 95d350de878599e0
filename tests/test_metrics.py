"""Tests for VOC matching, average precision, and count reports."""

import random

import pytest

from tilepipe.detector import Detection, GroundTruthObject
from tilepipe.geometry import Rect
from tilepipe import metrics
from tilepipe.metrics import (
    EmptyGroundTruthError,
    ap_report,
    average_precision,
    count_report,
)


def det(x, y, w, h, conf, label="person"):
    return Detection(Rect(x, y, w, h), label, conf)


def gt(x, y, w, h, label="person", oid="g"):
    return GroundTruthObject(Rect(x, y, w, h), label, oid)


def optimal_tp(dets, gts, threshold):
    """Exhaustive best-possible TP count; the reference greedy is checked
    against. Only feasible for tiny instances."""

    def plain_iou(a, b):
        ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
        iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
        inter = ix * iy
        return inter / (a.w * a.h + b.w * b.h - inter)

    def best(i, used):
        if i == len(dets):
            return 0
        top = best(i + 1, used)
        for g, obj in enumerate(gts):
            if g in used or obj.class_label != dets[i].class_label:
                continue
            if plain_iou(dets[i].rect, obj.rect) >= threshold:
                top = max(top, 1 + best(i + 1, used | {g}))
        return top

    return best(0, frozenset())


def one_frame(dets, gts):
    return {0: dets}, {0: gts}


def true_positives(dets, gts, threshold):
    """How many of one frame's detections average_precision counts as hits."""
    flags, _ = metrics._ranked_flags(*one_frame(dets, gts), threshold, None)
    return sum(flags)


class TestMatch:
    """The VOC matching rules, as average_precision applies them."""

    def test_perfect_detections(self):
        gts = [gt(100 * i, 0, 50, 50, oid=f"g{i}") for i in range(4)]
        dets = [det(100 * i, 0, 50, 50, 0.9) for i in range(4)]
        # every IoU is 1, so each matches at any threshold
        assert true_positives(dets, gts, 0.99) == 4
        assert average_precision(*one_frame(dets, gts), 0.99) == 1.0

    def test_no_detections(self):
        assert average_precision(*one_frame([], [gt(0, 0, 10, 10)]), 0.5) == 0.0

    def test_two_detections_one_gt(self):
        # the object is claimed once; the second detection is a FP ranked
        # after full recall, so it costs no precision
        gts = [gt(0, 0, 100, 100)]
        dets = [det(0, 0, 100, 100, 0.9), det(5, 5, 100, 100, 0.8)]
        assert true_positives(dets, gts, 0.5) == 1
        assert optimal_tp(dets, gts, 0.5) == 1
        assert average_precision(*one_frame(dets, gts), 0.5) == 1.0

    def test_confidence_order_decides_claimant(self):
        # the 0.8 detection, ranked first, claims the object: a hit then a
        # FP; had the 0.6 one claimed it, precision at full recall is 1/2
        gts = [gt(0, 0, 100, 100)]
        dets = [det(5, 5, 100, 100, 0.6), det(0, 0, 100, 100, 0.8)]
        assert average_precision(*one_frame(dets, gts), 0.5) == 1.0

    def test_best_iou_decides_the_claimed_object(self):
        # the 0.9 detection overlaps g0 (IoU 1/3) and g1 (IoU 9/11) and takes
        # g1, which leaves g0 to the 0.8 detection (IoU 1, g1 only 1/4)
        gts = [gt(0, 0, 100, 100, oid="g0"), gt(60, 0, 100, 100, oid="g1")]
        dets = [det(50, 0, 100, 100, 0.9), det(0, 0, 100, 100, 0.8)]
        assert true_positives(dets, gts, 0.3) == 2
        assert average_precision(*one_frame(dets, gts), 0.3) == 1.0

    def test_iou_below_threshold_is_fp(self):
        dets, gts = [det(80, 0, 100, 100, 0.9)], [gt(0, 0, 100, 100)]
        assert average_precision(*one_frame(dets, gts), 0.5) == 0.0
        # an IoU equal to the threshold is a hit
        dets = [det(0, 0, 100, 100, 0.9)]
        assert average_precision(*one_frame(dets, [gt(0, 0, 100, 50)]), 0.5) == 1.0

    def test_class_mismatch_never_matches(self):
        dets, gts = [det(0, 0, 50, 50, 0.9, "car")], [gt(0, 0, 50, 50)]
        assert average_precision(*one_frame(dets, gts), 0.5) == 0.0

    def test_threshold_validated(self):
        frames = one_frame([det(0, 0, 50, 50, 0.9)], [gt(0, 0, 50, 50)])
        for threshold in (0.0, 1.0):
            with pytest.raises(ValueError, match="iou_threshold"):
                average_precision(*frames, threshold)

    def test_greedy_equals_optimal_when_detections_have_one_candidate(self):
        # objects spaced far apart, each detection a jitter of one of them:
        # a detection can only ever claim its own source object
        rng = random.Random(31)
        for _ in range(150):
            gts = []
            for i in range(rng.randint(1, 5)):
                w, h = rng.randint(40, 90), rng.randint(40, 90)
                gts.append(gt(300 * i, 300 * (i % 2), w, h, oid=f"g{i}"))
            dets = []
            for j in range(rng.randint(0, 5)):
                if gts and rng.random() < 0.8:
                    src = rng.choice(gts).rect
                    dets.append(
                        det(
                            src.x + rng.randint(-25, 25),
                            src.y + rng.randint(-25, 25),
                            src.w,
                            src.h,
                            round(rng.uniform(0.1, 1.0), 3),
                        )
                    )
                else:
                    dets.append(det(2000 + 150 * j, 2000, 50, 50, 0.5))
            for threshold in (0.25, 0.5, 0.75):
                got = true_positives(dets, gts, threshold)
                assert got == optimal_tp(dets, gts, threshold)

    def test_documented_greedy_divergence_from_optimal(self):
        # the high-confidence detection grabs its best overlap even when a
        # globally better assignment exists; VOC greedy accepts this
        gts = [gt(0, 0, 100, 100, oid="g1"), gt(110, 0, 100, 100, oid="g2")]
        dets = [det(25, 0, 150, 100, 0.9), det(-40, 0, 100, 100, 0.8)]
        assert true_positives(dets, gts, 0.25) == 1
        assert optimal_tp(dets, gts, 0.25) == 2
        assert average_precision(*one_frame(dets, gts), 0.25) == 0.5


class TestAveragePrecision:
    def test_all_perfect(self):
        gts = [gt(100 * i, 0, 50, 50, oid=f"g{i}") for i in range(3)]
        dets = [det(100 * i, 0, 50, 50, 0.9 - 0.1 * i) for i in range(3)]
        assert average_precision(*one_frame(dets, gts), 0.5) == 1.0

    def test_all_wrong(self):
        gts = [gt(0, 0, 50, 50)]
        dets = [det(500, 500, 50, 50, 0.9)]
        assert average_precision(*one_frame(dets, gts), 0.5) == 0.0

    def test_tp_then_fp_over_two_gt_is_half(self):
        gts = [gt(0, 0, 50, 50, oid="g0"), gt(200, 0, 50, 50, oid="g1")]
        dets = [det(0, 0, 50, 50, 0.9), det(500, 500, 50, 50, 0.8)]
        assert average_precision(*one_frame(dets, gts), 0.5) == 0.5

    def test_hand_computed_curve_continuous(self):
        # ranking TP, FP, TP over 3 objects: area is 1/3 + (1/3)(2/3) = 5/9
        gts = [gt(300 * i, 0, 50, 50, oid=f"g{i}") for i in range(3)]
        dets = [
            det(0, 0, 50, 50, 0.9),
            det(900, 900, 50, 50, 0.8),
            det(300, 0, 50, 50, 0.7),
        ]
        assert average_precision(*one_frame(dets, gts), 0.5) == pytest.approx(5 / 9)

    def test_ranking_is_global_across_frames(self):
        # frame 1's strong FP outranks frame 2's weaker TP
        dets_by_frame = {
            1: [det(500, 500, 50, 50, 0.9)],
            2: [det(0, 0, 50, 50, 0.5)],
        }
        gts_by_frame = {1: [gt(0, 0, 50, 50)], 2: [gt(0, 0, 50, 50)]}
        # ranks: FP then TP -> envelope precision 0.5 over recall [0, 0.5]
        assert average_precision(dets_by_frame, gts_by_frame, 0.5) == 0.25

    def test_empty_gt_is_distinct_error(self):
        with pytest.raises(EmptyGroundTruthError):
            average_precision({0: [det(0, 0, 10, 10, 0.5)]}, {0: []}, 0.5)

    def test_missing_class_is_distinct_error(self):
        with pytest.raises(EmptyGroundTruthError):
            average_precision(
                *one_frame([det(0, 0, 10, 10, 0.5)], [gt(0, 0, 10, 10)]),
                0.5,
                class_label="car",
            )

    def _random_instance(self, rng):
        gts_by_frame = {}
        dets_by_frame = {}
        for fid in range(rng.randint(1, 3)):
            gts = []
            for i in range(rng.randint(1, 5)):
                w, h = rng.randint(30, 80), rng.randint(30, 80)
                gts.append(
                    gt(200 * i, 200 * (i % 3), w, h, rng.choice("ab"), f"{fid}:{i}")
                )
            dets = []
            for obj in gts:
                if rng.random() < 0.75:
                    r = obj.rect
                    dets.append(
                        Detection(
                            Rect(
                                r.x + rng.randint(-30, 30),
                                r.y + rng.randint(-30, 30),
                                max(5, r.w + rng.randint(-20, 20)),
                                max(5, r.h + rng.randint(-20, 20)),
                            ),
                            obj.class_label,
                            round(rng.uniform(0.05, 1.0), 3),
                        )
                    )
            for _ in range(rng.randint(0, 2)):
                dets.append(det(rng.randint(800, 1200), 900, 50, 50, round(rng.uniform(0.05, 1.0), 3)))
            gts_by_frame[fid] = gts
            dets_by_frame[fid] = dets
        return dets_by_frame, gts_by_frame

    def test_looser_threshold_never_scores_lower(self):
        rng = random.Random(47)
        for _ in range(100):
            dets_by_frame, gts_by_frame = self._random_instance(rng)
            ap25 = average_precision(dets_by_frame, gts_by_frame, 0.25)
            ap50 = average_precision(dets_by_frame, gts_by_frame, 0.5)
            ap75 = average_precision(dets_by_frame, gts_by_frame, 0.75)
            assert 0.0 <= ap75 <= ap50 <= ap25 <= 1.0

    def test_tp_added_at_top_never_decreases_ap(self):
        rng = random.Random(53)
        for _ in range(60):
            dets_by_frame, gts_by_frame = self._random_instance(rng)
            before = average_precision(dets_by_frame, gts_by_frame, 0.5)
            # claim a guaranteed-free object: add a brand-new GT plus its
            # perfect top-ranked detection would change total; instead drop
            # every detection near one object first, then re-add perfectly
            fid = min(gts_by_frame)
            target = gts_by_frame[fid][0]
            thinned = {
                f: [
                    d
                    for d in ds
                    if f != fid or d.rect.intersection(target.rect) is None
                ]
                for f, ds in dets_by_frame.items()
            }
            base = average_precision(thinned, gts_by_frame, 0.5)
            boosted = {
                f: ([Detection(target.rect, target.class_label, 1.0)] + ds if f == fid else ds)
                for f, ds in thinned.items()
            }
            after = average_precision(boosted, gts_by_frame, 0.5)
            assert after >= base - 1e-12
            assert before <= 1.0

    def test_fp_added_at_bottom_never_increases_ap(self):
        rng = random.Random(59)
        for _ in range(60):
            dets_by_frame, gts_by_frame = self._random_instance(rng)
            before = average_precision(dets_by_frame, gts_by_frame, 0.5)
            fid = min(dets_by_frame)
            junk = det(5000, 5000, 10, 10, 0.001)
            extended = {
                f: (ds + [junk] if f == fid else ds)
                for f, ds in dets_by_frame.items()
            }
            after = average_precision(extended, gts_by_frame, 0.5)
            assert after <= before + 1e-12


class TestApReport:
    def test_per_class_breakdown(self):
        gts = [gt(0, 0, 50, 50, "a", "g1"), gt(200, 0, 50, 50, "b", "g2")]
        dets = [det(0, 0, 50, 50, 0.9, "a"), det(600, 600, 50, 50, 0.8, "b")]
        report = ap_report(*one_frame(dets, gts))
        assert report["per_class"]["a"]["ap50"] == 1.0
        assert report["per_class"]["b"]["ap50"] == 0.0
        assert report["ap50"] == 0.5
        assert set(report) == {"ap25", "ap50", "ap75", "per_class"}
        assert list(report["per_class"]) == ["a", "b"]

    def test_values_within_unit_interval(self):
        rng = random.Random(61)
        for _ in range(20):
            dets_by_frame, gts_by_frame = TestAveragePrecision()._random_instance(rng)
            report = ap_report(dets_by_frame, gts_by_frame)
            for value in (report["ap25"], report["ap50"], report["ap75"]):
                assert 0.0 <= value <= 1.0


class TestCountReport:
    def test_empty_frame(self):
        assert count_report({0: []}, {0: []}) == [(0, 0, 0)]

    def test_counts_per_frame(self):
        dets_by_frame = {0: [det(0, 0, 10, 10, 0.5)], 2: []}
        gts_by_frame = {0: [gt(0, 0, 10, 10)], 1: [gt(0, 0, 10, 10, oid="x")]}
        assert count_report(dets_by_frame, gts_by_frame) == [
            (0, 1, 1),
            (1, 0, 1),
            (2, 0, 0),
        ]
