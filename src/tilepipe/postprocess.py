"""Duplicate suppression and merging of detections split across crop borders.

Overlapping crops see the same object more than once (near-identical boxes,
removed by NMS) and objects lying on a border get cut into fragments that
barely overlap (NMS keeps both, the border merge joins them). The chain is
fixed: global NMS first, then the border merge. Merging is per-class and
axis-restricted: a person split by a horizontal border merges vertically,
while side-by-side people never merge.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .detector import Detection
from .geometry import GridSpec, Rect, iou

AXIS_RULES = ("vertical", "horizontal", "both")


@dataclass(frozen=True)
class MergePolicy:
    """Thresholds for NMS and cross-border merging.

    ``mergeable_classes`` maps a class label to an axis rule ("vertical",
    "horizontal" or "both"); classes without an entry are never merged.
    ``vertical_gap_px`` bounds the separation between fragments along the
    merge axis and ``horizontal_alignment_tolerance_px`` bounds how far the
    fragments' cross-axis edges may disagree; both values apply to either
    axis.
    """

    nms_iou: float = 0.45
    vertical_gap_px: int = 40
    horizontal_alignment_tolerance_px: int = 30
    mergeable_classes: Mapping[str, str] = field(
        default_factory=lambda: {"person": "vertical"}
    )

    def __post_init__(self):
        if not 0.0 < self.nms_iou < 1.0:
            raise ValueError(f"nms_iou must be in (0, 1), got {self.nms_iou}")
        if self.vertical_gap_px < 0 or self.horizontal_alignment_tolerance_px < 0:
            raise ValueError("merge gaps must be >= 0")
        for label, rule in self.mergeable_classes.items():
            if rule not in AXIS_RULES:
                raise ValueError(f"unknown merge rule {rule!r} for class {label!r}")
        object.__setattr__(self, "mergeable_classes", dict(self.mergeable_classes))


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
    a: frozenset[tuple[int, int]], b: frozenset[tuple[int, int]], vertical: bool
) -> bool:
    dr, dc = (1, 0) if vertical else (0, 1)
    return any(
        (r + dr, c + dc) in b or (r - dr, c - dc) in b for r, c in a
    )


def _can_merge(
    a: Detection,
    a_cells: frozenset[tuple[int, int]],
    b: Detection,
    b_cells: frozenset[tuple[int, int]],
    policy: MergePolicy,
) -> bool:
    if a.class_label != b.class_label:
        return False
    rule = policy.mergeable_classes.get(a.class_label)
    if rule is None:
        return False
    gap = policy.vertical_gap_px
    tol = policy.horizontal_alignment_tolerance_px
    ar, br = a.rect, b.rect
    if rule in ("vertical", "both") and _cells_adjacent(a_cells, b_cells, True):
        if (
            _gap(ar.y, ar.y2, br.y, br.y2) <= gap
            and abs(ar.x - br.x) <= tol
            and abs(ar.x2 - br.x2) <= tol
        ):
            return True
    if rule in ("horizontal", "both") and _cells_adjacent(a_cells, b_cells, False):
        if (
            _gap(ar.x, ar.x2, br.x, br.x2) <= gap
            and abs(ar.y - br.y) <= tol
            and abs(ar.y2 - br.y2) <= tol
        ):
            return True
    return False


def merge_split(
    tagged: Sequence[tuple[int, Detection]], grid: GridSpec, policy: MergePolicy
) -> list[Detection]:
    """Join same-class fragments from adjacent crops into single boxes.

    Input detections are (crop_id, detection) pairs in global space. Eligible
    pairs (adjacent cells along the class's merge axis, separation within the
    gap, cross-axis edges aligned within tolerance) are replaced by their
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
                if _can_merge(det_i, cells_i, det_j, cells_j, policy):
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
    tagged: Sequence[tuple[int, Detection]], grid: GridSpec, policy: MergePolicy
) -> list[Detection]:
    """Global NMS over all crops, then the border merge of the survivors."""
    keep = nms_keep_indices([d for _, d in tagged], policy.nms_iou)
    return merge_split([tagged[i] for i in keep], grid, policy)
