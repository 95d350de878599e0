"""PASCAL VOC average precision and per-frame count reports.

Matching is the standard VOC greedy protocol: detections in descending
confidence order each claim the unmatched same-class ground-truth box with
the highest IoU, provided that IoU meets the threshold. AP integrates the
monotone precision envelope over recall (the continuous method). ap_report
is the one AP report: overall and per-class AP at each IoU threshold of
AP_THRESHOLDS, fixed as COCO fixes its thresholds.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .detector import Detection, GroundTruthObject
from .geometry import iou

# The IoU thresholds of ap_report, each keyed as "ap" + percent: ap25, ap50, ap75.
AP_THRESHOLDS = (0.25, 0.5, 0.75)


class EmptyGroundTruthError(ValueError):
    """AP is undefined when there is no ground truth to recall."""


def _check_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold}")


def _claim(
    det: Detection,
    gts: Sequence[GroundTruthObject],
    taken: set[int],
    iou_threshold: float,
) -> int | None:
    """Index of the best unmatched same-class GT, or None."""
    best = None
    best_iou = 0.0
    for g, gt in enumerate(gts):
        if g in taken or gt.class_label != det.class_label:
            continue
        value = iou(det.rect, gt.rect)
        if value >= iou_threshold and value > best_iou:
            best, best_iou = g, value
    return best


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
            taken[fid].add(claimed)
        flags.append(claimed is not None)
    return flags, total_gt


def average_precision(
    dets_by_frame: Mapping[int, Sequence[Detection]],
    gts_by_frame: Mapping[int, Sequence[GroundTruthObject]],
    iou_threshold: float,
    *,
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


def ap_report(
    dets_by_frame: Mapping[int, Sequence[Detection]],
    gts_by_frame: Mapping[int, Sequence[GroundTruthObject]],
) -> dict:
    """AP at each IoU threshold of AP_THRESHOLDS, overall and per
    ground-truth class: "per_class" maps each class label to the same keys.
    """
    classes = sorted(
        {g.class_label for gts in gts_by_frame.values() for g in gts}
    )
    report: dict = {}
    per_class: dict[str, dict[str, float]] = {label: {} for label in classes}
    for threshold in AP_THRESHOLDS:
        key = f"ap{threshold * 100:g}"
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
