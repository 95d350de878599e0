"""Duplicate suppression and merging of detections split across crop borders.

Overlapping crops see the same object more than once (near-identical boxes,
removed by NMS) and objects lying on a border get cut into fragments that
barely overlap (NMS keeps both, the border merge joins them). The chain is
fixed: global NMS first, then the border merge. Merging is per-class and
vertical only: a person split by a horizontal border merges, while
side-by-side people never do.
"""

from __future__ import annotations

from collections.abc import Sequence

from .detector import Detection
from .geometry import GridSpec, iou

# IoU at or above which NMS drops the less confident of two same-class boxes.
NMS_IOU = 0.45
# Bound on the gap between two fragments along the merge axis, in pixels.
MERGE_GAP_PX = 40
# Bound on how far two fragments' cross-axis edges may disagree, in pixels.
MERGE_ALIGNMENT_TOLERANCE_PX = 30
# The classes whose fragments merge, each with its merge axis; classes
# without an entry never merge.
MERGEABLE_CLASSES = {"person": "vertical"}


def nms_keep_indices(dets: Sequence[Detection], iou_threshold: float) -> list[int]:
    """Indices kept by greedy per-class NMS, in keep order.

    Candidates are visited by descending confidence (ties by input index) and
    kept iff their IoU with every already-kept detection of the same class is
    strictly below the threshold.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    kept: list[int] = []
    for i in order:
        d = dets[i]
        if all(
            dets[k].class_label != d.class_label
            or iou(dets[k].rect, d.rect) < iou_threshold
            for k in kept
        ):
            kept.append(i)
    return kept


def _gap(lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    """Separation between two intervals; <= 0 when they touch or overlap."""
    return max(lo1, lo2) - min(hi1, hi2)


def _cells_adjacent(
    a: frozenset[tuple[int, int]], b: frozenset[tuple[int, int]]
) -> bool:
    """Whether a cell of ``a`` sits directly above or below a cell of ``b``."""
    return any((r + 1, c) in b or (r - 1, c) in b for r, c in a)


def _can_merge(
    a: Detection,
    a_cells: frozenset[tuple[int, int]],
    b: Detection,
    b_cells: frozenset[tuple[int, int]],
) -> bool:
    if a.class_label != b.class_label:
        return False
    if MERGEABLE_CLASSES.get(a.class_label) != "vertical":
        return False
    ar, br = a.rect, b.rect
    return (
        _cells_adjacent(a_cells, b_cells)
        and _gap(ar.y, ar.y2, br.y, br.y2) <= MERGE_GAP_PX
        and abs(ar.x - br.x) <= MERGE_ALIGNMENT_TOLERANCE_PX
        and abs(ar.x2 - br.x2) <= MERGE_ALIGNMENT_TOLERANCE_PX
    )


def merge_split(
    tagged: Sequence[tuple[int, Detection]], grid: GridSpec
) -> list[Detection]:
    """Join same-class fragments from adjacent crops into single boxes.

    Input detections are (crop_id, detection) pairs in global space. Eligible
    pairs (vertically adjacent cells, separation within MERGE_GAP_PX, left
    and right edges within MERGE_ALIGNMENT_TOLERANCE_PX) are replaced by their
    union rect with the max confidence, repeatedly until no pair qualifies.
    A merged box remembers every cell it covers, so a three-row fragment
    chain collapses into one box.
    """
    entries: list[tuple[frozenset[tuple[int, int]], Detection]] = []
    for crop_id, det in tagged:
        spec = grid.crop_by_id(crop_id)
        entries.append((frozenset({(spec.row, spec.col)}), det))

    merged_any = True
    while merged_any:
        merged_any = False
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                cells_i, det_i = entries[i]
                cells_j, det_j = entries[j]
                if _can_merge(det_i, cells_i, det_j, cells_j):
                    union = Detection(
                        det_i.rect.union_rect(det_j.rect),
                        det_i.class_label,
                        max(det_i.confidence, det_j.confidence),
                    )
                    entries[i] = (cells_i | cells_j, union)
                    del entries[j]
                    merged_any = True
                    break
            if merged_any:
                break
    return [det for _, det in entries]


def postprocess(
    tagged: Sequence[tuple[int, Detection]], grid: GridSpec
) -> list[Detection]:
    """Global NMS over all crops, then the border merge of the survivors."""
    keep = nms_keep_indices([d for _, d in tagged], NMS_IOU)
    return merge_split([tagged[i] for i in keep], grid)
