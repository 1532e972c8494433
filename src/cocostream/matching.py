"""Greedy detection-to-ground-truth assignment per image, class, and IoU threshold.

Detections are visited in descending confidence order (stable on ties).
Each detection claims the unmatched same-class ground truth with the
highest IoU when that IoU reaches the threshold; otherwise it is a false
positive. Area filtering removes both detections and ground truths before
matching, and max-dets truncation happens after area filtering.

match_image and match_batch serve both evaluation paths. match_image runs
one rank-major greedy loop per image at the largest max-dets limit: step r
matches the rank-r detection of every (class, area) cell, for every IoU
threshold at once, against a taken mask per (threshold, area). The result
is one columnar Matches record. Each smaller limit is a prefix of that
match, since greedy matching never revisits an earlier detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import EvalConfig
from .geometry import PADDING_CLASS_ID, Detection, GroundTruth


class MatchingError(ValueError):
    """Inputs violate the matching contract (a class id outside the config)."""


@dataclass(frozen=True)
class Matches:
    """Matched detections as columns, one per detection kept at the largest
    max-dets limit, in image order and, per image, (area, class, rank) order.

    Greedy matching is prefix-stable, so a smaller limit m keeps the
    columns with rank < m; kept_verdicts is the only place that rule lives.
    """

    config: EvalConfig
    cls: np.ndarray  # (n,) class index
    area: np.ndarray  # (n,) area-range index
    rank: np.ndarray  # (n,) rank in its image's (class, area) cell
    confidences: np.ndarray  # (n,)
    tp: np.ndarray  # (|Theta|, n) bool, one row per IoU threshold
    gt_counts: np.ndarray  # (classes, areas) ground truths in each area range

    def kept_verdicts(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(theta, class, area, max-dets, column) index arrays of every TP
        verdict and of every FP verdict that a max-dets limit keeps."""
        kept = self.rank < np.array(self.config.max_dets_list)[:, None, None]
        index = []
        for hit in (self.tp & kept, ~self.tp & kept):
            m, t, j = np.nonzero(hit)  # hit is (max-dets, theta, column)
            index.append((t, self.cls[j], self.area[j], m, j))
        return index[0], index[1]


def match_image(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    config: EvalConfig,
) -> Matches:
    """Match one image over every (class, area) cell in one greedy loop.

    Padding entries are stripped internally. Class ids must lie in
    [0, config.num_classes) after stripping; one image may hold any mix of
    them. Each (class, threshold, area, limit) cell equals a brute-force
    greedy match of that class alone (asserted by tests). The IoU matrix
    is computed once per image. Step r of the loop matches the rank-r
    detection of every cell, for every IoU threshold at once, against a
    taken mask per (threshold, area). That is exact: the detections of one
    rank lie in distinct (class, area) cells, and each may take only ground
    truths of its own class in its own area, so no two of them compete.
    """
    det_cls = np.array([d.class_id for d in detections], dtype=np.int64)
    gt_cls = np.array([g.class_id for g in ground_truths], dtype=np.int64)
    ids = np.concatenate([det_cls, gt_cls])
    bad = ids[(ids != PADDING_CLASS_ID) & ((ids < 0) | (ids >= config.num_classes))]
    if bad.size:
        raise MatchingError(f"class id {bad.min()} outside [0, {config.num_classes})")
    real_det = det_cls != PADDING_CLASS_ID
    real_gt = gt_cls != PADDING_CLASS_ID
    confs = np.array([d.confidence for d in detections], dtype=float)[real_det]
    det_cls = det_cls[real_det]
    order = np.lexsort((-confs, det_cls))  # stable: ties keep input order
    det_cls, confs = det_cls[order], confs[order]
    det_boxes = _box_array(detections)[real_det][order]
    gt_cls, gt_boxes = gt_cls[real_gt], _box_array(ground_truths)[real_gt]

    lo, hi = np.array([(r.min_area, r.max_area) for _, r in config.area_ranges]).T[..., None]
    det_areas, gt_areas = _areas(det_boxes), _areas(gt_boxes)
    gt_in = (gt_areas >= lo) & (gt_areas < hi)  # (areas, gts)
    a_in, g_in = np.nonzero(gt_in)
    areas = len(config.area_ranges)
    gt_counts = np.bincount(
        gt_cls[g_in] * areas + a_in, minlength=config.num_classes * areas
    ).reshape(config.num_classes, areas)

    # Columns in (area, class, rank) order: detections are sorted by class,
    # so each cell's detections are one run of consecutive columns.
    area, det = np.nonzero((det_areas >= lo) & (det_areas < hi))
    cell = area * config.num_classes + det_cls[det]
    rank = np.arange(len(cell)) - np.searchsorted(cell, cell)
    keep = rank < config.max_dets_list[-1]
    area, det, rank = area[keep], det[keep], rank[keep]
    cls = det_cls[det]

    thetas = np.array(config.iou_thresholds)[:, None]
    tp = np.zeros((len(thetas), len(det)), dtype=bool)
    taken = np.zeros((len(thetas), areas, len(gt_cls)), dtype=bool)
    eligible = (gt_cls == cls[:, None]) & gt_in[area]
    ious = np.where(eligible, _iou_matrix(det_boxes, gt_boxes)[det], -1.0)
    for r in range(rank.max(initial=-1) + 1 if len(gt_cls) else 0):
        at = np.nonzero(rank == r)[0]
        avail = np.where(taken[:, area[at]], -1.0, ious[at])  # (thetas, cells, gts)
        best = avail.argmax(axis=-1)  # first max: lowest gt index wins ties
        hit = avail.max(axis=-1) >= thetas
        t, c = np.nonzero(hit)
        taken[t, area[at[c]], best[t, c]] = True
        tp[:, at] = hit

    return Matches(config, cls, area, rank, confs[det], tp, gt_counts)


def match_batch(
    pairs: Iterable[tuple[Sequence[Detection], Sequence[GroundTruth]]],
    config: EvalConfig,
) -> Matches:
    """match_image per (detections, ground_truths) pair, joined in batch order."""
    records = [match_image(dets, gts, config) for dets, gts in pairs]
    gt_counts = sum(
        (r.gt_counts for r in records),
        np.zeros((config.num_classes, len(config.area_ranges)), dtype=np.int64),
    )
    empty = (np.zeros(0, dtype=np.int64),) * 3 + (
        np.zeros(0),
        np.zeros((len(config.iou_thresholds), 0), dtype=bool),
    )
    blocks = [(r.cls, r.area, r.rank, r.confidences, r.tp) for r in records]
    columns = [np.concatenate(column, axis=-1) for column in zip(empty, *blocks)]
    return Matches(config, *columns, gt_counts)


def _box_array(items: Sequence[Detection] | Sequence[GroundTruth]) -> np.ndarray:
    """(n, 4) corner coordinates."""
    return np.array(
        [[x.box.left, x.box.top, x.box.right, x.box.bottom] for x in items], dtype=float
    ).reshape(-1, 4)


def _areas(boxes: np.ndarray) -> np.ndarray:
    """Same product as geometry.box_area, per row."""
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


def _iou_matrix(db: np.ndarray, gb: np.ndarray) -> np.ndarray:
    if not len(db) or not len(gb):
        return np.zeros((len(db), len(gb)))
    iw = np.minimum(db[:, None, 2], gb[None, :, 2]) - np.maximum(db[:, None, 0], gb[None, :, 0])
    ih = np.minimum(db[:, None, 3], gb[None, :, 3]) - np.maximum(db[:, None, 1], gb[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    union = _areas(db)[:, None] + _areas(gb)[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
    return out
