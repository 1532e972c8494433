"""Greedy detection-to-ground-truth assignment per image, class, and IoU threshold.

Detections are visited in descending confidence order (stable on ties).
Each detection claims the unmatched same-class ground truth with the
highest IoU when that IoU reaches the threshold; otherwise it is a false
positive. Area filtering removes both detections and ground truths before
matching, and max-dets truncation happens after area filtering.

match_image_class is the scalar reference for one grid cell. match_image
and match_batch serve both evaluation paths: per (class, area) one greedy
pass at the largest max-dets limit decides every IoU threshold, and the
result is one columnar Matches record. Each smaller limit is a prefix of
that match, since greedy matching never revisits an earlier detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import AreaRange, ConfigError, EvalConfig
from .geometry import Detection, GroundTruth, box_area, iou, strip_padding


class MatchingError(ValueError):
    """Inputs violate the matching contract (e.g. mixed class ids)."""


@dataclass(frozen=True)
class Verdict:
    confidence: float
    is_tp: bool


@dataclass(frozen=True)
class MatchResult:
    """TP/FP verdicts for one (image, class, theta, area, max-dets) cell.

    Verdicts are ordered by descending confidence; gt_count is the number
    of ground truths that survived the area filter.
    """

    verdicts: tuple[Verdict, ...]
    gt_count: int



def match_image_class(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    theta: float,
    max_dets: int,
    area: AreaRange,
) -> MatchResult:
    """Greedy-match one class's detections against its ground truths."""
    if not (0.0 < theta <= 1.0):
        raise ConfigError(f"IoU threshold outside (0, 1]: {theta}")
    if max_dets < 1:
        raise ConfigError(f"max_dets must be >= 1, got {max_dets}")
    class_ids = {d.class_id for d in detections} | {g.class_id for g in ground_truths}
    if len(class_ids) > 1:
        raise MatchingError(f"mixed class ids in one matching call: {sorted(class_ids)}")
    if -1 in class_ids:
        raise MatchingError("padding entries must be stripped before matching")

    gts = [g for g in ground_truths if area.contains(box_area(g.box))]
    dets = [d for d in detections if area.contains(box_area(d.box))]
    dets.sort(key=lambda d: -d.confidence)  # stable: ties keep input order
    dets = dets[:max_dets]

    matched = [False] * len(gts)
    verdicts = []
    for det in dets:
        best_iou = 0.0
        best_idx = -1
        for gi, gt in enumerate(gts):
            if matched[gi]:
                continue
            v = iou(det.box, gt.box)
            if v > best_iou:  # strict: ties keep the lowest gt index
                best_iou = v
                best_idx = gi
        if best_idx >= 0 and best_iou >= theta:
            matched[best_idx] = True
            verdicts.append(Verdict(det.confidence, True))
        else:
            verdicts.append(Verdict(det.confidence, False))
    return MatchResult(verdicts=tuple(verdicts), gt_count=len(gts))


@dataclass(frozen=True)
class Matches:
    """Matched detections as columns, one per detection kept at the largest
    max-dets limit, in image order and, per image, (class, area, rank) order.

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


def _join(config: EvalConfig, gt_counts: np.ndarray, blocks: Sequence[tuple]) -> Matches:
    """One record from (cls, area, rank, confidences, tp) column blocks, in order."""
    empty = (np.zeros(0, dtype=np.int64),) * 3 + (
        np.zeros(0),
        np.zeros((len(config.iou_thresholds), 0), dtype=bool),
    )
    columns = [np.concatenate(column, axis=-1) for column in zip(empty, *blocks)]
    return Matches(config, *columns, gt_counts)


def match_image(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    config: EvalConfig,
) -> Matches:
    """Match one image over every present (class, area) cell.

    Padding entries are stripped internally. Class ids must lie in
    [0, config.num_classes) after stripping. Equivalent, cell by cell, to
    match_image_class (asserted by tests); the IoU matrix is computed once
    per class, and one greedy pass per (class, area) serves every IoU
    threshold.
    """
    dets_by_class: dict[int, list[Detection]] = {}
    for d in strip_padding(detections):
        dets_by_class.setdefault(d.class_id, []).append(d)
    gts_by_class: dict[int, list[GroundTruth]] = {}
    for g in strip_padding(ground_truths):
        gts_by_class.setdefault(g.class_id, []).append(g)

    top = config.max_dets_list[-1]
    thetas = np.array(config.iou_thresholds)
    gt_counts = np.zeros((config.num_classes, len(config.area_ranges)), dtype=np.int64)
    blocks = []
    for k in sorted(set(dets_by_class) | set(gts_by_class)):
        if not (0 <= k < config.num_classes):
            raise MatchingError(f"class id {k} outside [0, {config.num_classes})")
        dets = sorted(dets_by_class.get(k, []), key=lambda d: -d.confidence)
        confs = np.array([d.confidence for d in dets], dtype=float)
        det_boxes = _box_array(dets)
        gt_boxes = _box_array(gts_by_class.get(k, []))
        det_areas = _areas(det_boxes)
        gt_areas = _areas(gt_boxes)
        ious = _iou_matrix(det_boxes, gt_boxes)
        for a_idx, (_, area) in enumerate(config.area_ranges):
            rows = np.nonzero(
                (det_areas >= area.min_area) & (det_areas < area.max_area)
            )[0][:top]
            cols = np.nonzero(
                (gt_areas >= area.min_area) & (gt_areas < area.max_area)
            )[0]
            gt_counts[k, a_idx] = len(cols)
            n = len(rows)
            blocks.append((
                np.full(n, k, dtype=np.int64),
                np.full(n, a_idx, dtype=np.int64),
                np.arange(n, dtype=np.int64),
                confs[rows],
                _greedy_tp(ious[np.ix_(rows, cols)], thetas),
            ))
    return _join(config, gt_counts, blocks)


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
    return _join(
        config, gt_counts, [(r.cls, r.area, r.rank, r.confidences, r.tp) for r in records]
    )


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


def _greedy_tp(ious: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """(|Theta|, n_det) TP flags from one greedy pass over a (dets x gts) IoU
    matrix, rows in match order, with one set of taken gts per threshold."""
    n_det, n_gt = ious.shape
    tp = np.zeros((len(thetas), n_det), dtype=bool)
    if n_gt == 0:
        return tp
    taken = np.zeros((len(thetas), n_gt), dtype=bool)
    per_theta = np.arange(len(thetas))
    for r in range(n_det):
        avail = np.where(taken, -1.0, ious[r])
        j = np.argmax(avail, axis=1)  # first max: lowest gt index wins ties
        hit = avail[per_theta, j] >= thetas
        taken[per_theta[hit], j[hit]] = True
        tp[:, r] = hit
    return tp
