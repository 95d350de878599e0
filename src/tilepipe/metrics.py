"""PASCAL VOC average precision and per-frame count reports.

Matching is the standard VOC greedy protocol: detections in descending
confidence order each claim the unmatched same-class ground-truth box with
the highest IoU, provided that IoU meets the threshold. AP integrates the
monotone precision envelope over recall (the continuous method);
average_precision also offers 11-point interpolation. ap_report is the one
AP report: overall and per-class AP at each requested IoU threshold.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .detector import Detection, GroundTruthObject
from .geometry import iou


class EmptyGroundTruthError(ValueError):
    """AP is undefined when there is no ground truth to recall."""


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one frame's detections against its ground truth."""

    true_positives: int
    false_positives: int
    false_negatives: int
    assignment: tuple[tuple[Detection, GroundTruthObject, float], ...]


def _check_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold}")


def _claim(
    det: Detection,
    gts: Sequence[GroundTruthObject],
    taken: set[int],
    iou_threshold: float,
) -> tuple[int, float] | None:
    """Index and IoU of the best unmatched same-class GT, or None."""
    best = None
    best_iou = 0.0
    for g, gt in enumerate(gts):
        if g in taken or gt.class_label != det.class_label:
            continue
        value = iou(det.rect, gt.rect)
        if value >= iou_threshold and value > best_iou:
            best, best_iou = g, value
    if best is None:
        return None
    return best, best_iou


def match(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthObject],
    iou_threshold: float,
) -> MatchResult:
    """Greedy VOC matching of one frame; every box is used at most once."""
    _check_threshold(iou_threshold)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    taken: set[int] = set()
    assignment = []
    for i in order:
        claimed = _claim(dets[i], gts, taken, iou_threshold)
        if claimed is not None:
            g, value = claimed
            taken.add(g)
            assignment.append((dets[i], gts[g], value))
    tp = len(assignment)
    return MatchResult(tp, len(dets) - tp, len(gts) - tp, tuple(assignment))


def _ranked_flags(
    dets_by_frame: Mapping[int, Sequence[Detection]],
    gts_by_frame: Mapping[int, Sequence[GroundTruthObject]],
    iou_threshold: float,
    class_label: str | None,
) -> tuple[list[bool], int]:
    """Global-confidence-ranked TP/FP flags and the total GT count."""
    total_gt = 0
    gts: dict[int, list[GroundTruthObject]] = {}
    for fid, frame_gts in gts_by_frame.items():
        kept = [g for g in frame_gts if class_label in (None, g.class_label)]
        gts[fid] = kept
        total_gt += len(kept)
    if total_gt == 0:
        raise EmptyGroundTruthError(
            "average precision is undefined without ground truth"
            + (f" for class {class_label!r}" if class_label else "")
        )

    ranked = []
    for fid in sorted(dets_by_frame):
        for idx, det in enumerate(dets_by_frame[fid]):
            if class_label in (None, det.class_label):
                ranked.append((-det.confidence, fid, idx, det))
    ranked.sort(key=lambda t: t[:3])

    taken: dict[int, set[int]] = {}
    flags = []
    for _, fid, _, det in ranked:
        claimed = _claim(
            det, gts.get(fid, ()), taken.setdefault(fid, set()), iou_threshold
        )
        if claimed is not None:
            taken[fid].add(claimed[0])
            flags.append(True)
        else:
            flags.append(False)
    return flags, total_gt


def average_precision(
    dets_by_frame: Mapping[int, Sequence[Detection]],
    gts_by_frame: Mapping[int, Sequence[GroundTruthObject]],
    iou_threshold: float,
    *,
    eleven_point: bool = False,
    class_label: str | None = None,
) -> float:
    """AP over a cross-frame global confidence ranking.

    Matching is per frame and per class; the precision-recall curve spans
    all frames. Raises EmptyGroundTruthError when no ground truth exists
    (for the requested class, if one is given).
    """
    _check_threshold(iou_threshold)
    flags, total_gt = _ranked_flags(
        dets_by_frame, gts_by_frame, iou_threshold, class_label
    )

    precisions = []
    recalls = []
    tp = 0
    for i, flag in enumerate(flags):
        tp += flag
        precisions.append(tp / (i + 1))
        recalls.append(tp / total_gt)

    if eleven_point:
        points = []
        for tenth in range(11):
            level = tenth / 10
            eligible = [p for p, r in zip(precisions, recalls) if r >= level]
            points.append(max(eligible, default=0.0))
        return sum(points) / 11

    # monotone envelope: best precision achievable at or beyond each recall
    envelope = list(precisions)
    for i in range(len(envelope) - 2, -1, -1):
        envelope[i] = max(envelope[i], envelope[i + 1])
    ap = 0.0
    prev_recall = 0.0
    for i, flag in enumerate(flags):
        if flag:
            ap += (recalls[i] - prev_recall) * envelope[i]
            prev_recall = recalls[i]
    return ap


def ap_key(threshold: float) -> str:
    """The ap_report key of an IoU threshold: 0.5 -> "ap50", 0.251 -> "ap25.1"."""
    return f"ap{threshold * 100:g}"


def ap_report(
    dets_by_frame: Mapping[int, Sequence[Detection]],
    gts_by_frame: Mapping[int, Sequence[GroundTruthObject]],
    thresholds: Sequence[float] = (0.25, 0.5, 0.75),
) -> dict:
    """AP at each IoU threshold, overall and per ground-truth class.

    Each threshold is keyed by ap_key; "per_class" maps each class label
    to the same keys.
    """
    classes = sorted(
        {g.class_label for gts in gts_by_frame.values() for g in gts}
    )
    report: dict = {}
    per_class: dict[str, dict[str, float]] = {label: {} for label in classes}
    for threshold in thresholds:
        key = ap_key(threshold)
        report[key] = average_precision(dets_by_frame, gts_by_frame, threshold)
        for label in classes:
            per_class[label][key] = average_precision(
                dets_by_frame, gts_by_frame, threshold, class_label=label
            )
    report["per_class"] = per_class
    return report


def count_report(
    dets_by_frame: Mapping[int, Sequence[Detection]],
    gts_by_frame: Mapping[int, Sequence[GroundTruthObject]],
) -> list[tuple[int, int, int]]:
    """Per-frame (frame_id, detected_count, gt_count) rows, frame-ordered."""
    frames = sorted(set(dets_by_frame) | set(gts_by_frame))
    return [
        (fid, len(dets_by_frame.get(fid, ())), len(gts_by_frame.get(fid, ())))
        for fid in frames
    ]
