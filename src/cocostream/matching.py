"""Greedy detection-to-ground-truth assignment per image, class, and IoU threshold.

Detections are visited in descending confidence order (stable on ties).
Each detection claims the unmatched same-class ground truth with the
highest IoU when that IoU reaches the threshold; otherwise it is a false
positive. Area filtering removes both detections and ground truths before
matching, and max-dets truncation happens after area filtering.

match_image_class is the scalar reference for one grid cell. match_image
serves both evaluation paths: per (class, area) it matches once, at the
largest max-dets limit, and returns numpy arrays; each smaller limit is a
prefix of that match, since greedy matching never revisits an earlier
detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


EMPTY_MATCH = MatchResult(verdicts=(), gt_count=0)


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
class CellMatches:
    """One image's detections for one (class, area) cell, matched once.

    Matching runs at the largest max-dets limit only; because greedy
    matching is prefix-stable, a smaller limit m is read as the first m
    columns.
    """

    confidences: np.ndarray  # (n,) descending, stable on ties
    tp: np.ndarray  # (|Theta|, n) bool, one row per IoU threshold
    gt_count: int  # ground truths in the area range


@dataclass(frozen=True)
class ImageMatches:
    """Matches for one image, one CellMatches per present (class, area).

    Classes absent from both inputs have no cells and read as EMPTY_MATCH.
    """

    config: EvalConfig
    cells: dict[tuple[int, int], CellMatches]
    present_classes: tuple[int, ...]

    def result(self, class_id: int, iou_idx: int, area_idx: int, maxdets_idx: int) -> MatchResult:
        """The verdicts of one grid cell: a prefix of the (class, area) match."""
        cfg = self.config
        if not (0 <= class_id < cfg.num_classes):
            raise MatchingError(f"class id {class_id} outside [0, {cfg.num_classes})")
        if not (0 <= iou_idx < len(cfg.iou_thresholds)):
            raise IndexError(f"iou index {iou_idx} out of range")
        if not (0 <= area_idx < len(cfg.area_ranges)):
            raise IndexError(f"area index {area_idx} out of range")
        if not (0 <= maxdets_idx < len(cfg.max_dets_list)):
            raise IndexError(f"max-dets index {maxdets_idx} out of range")
        cell = self.cells.get((class_id, area_idx))
        if cell is None:
            return EMPTY_MATCH
        m = cfg.max_dets_list[maxdets_idx]
        verdicts = tuple(
            Verdict(float(c), bool(f))
            for c, f in zip(cell.confidences[:m], cell.tp[iou_idx, :m])
        )
        return MatchResult(verdicts=verdicts, gt_count=cell.gt_count)


def match_image(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    config: EvalConfig,
) -> ImageMatches:
    """Match one image over every present (class, area) cell.

    Padding entries are stripped internally. Class ids must lie in
    [0, config.num_classes) after stripping. Equivalent, cell by cell, to
    match_image_class (asserted by tests); the IoU matrix is computed once
    per class, and greedy matching runs once per (class, area, theta).
    """
    dets_by_class: dict[int, list[Detection]] = {}
    for d in strip_padding(detections):
        dets_by_class.setdefault(d.class_id, []).append(d)
    gts_by_class: dict[int, list[GroundTruth]] = {}
    for g in strip_padding(ground_truths):
        gts_by_class.setdefault(g.class_id, []).append(g)

    present = sorted(set(dets_by_class) | set(gts_by_class))
    top = config.max_dets_list[-1]
    cells: dict[tuple[int, int], CellMatches] = {}
    for k in present:
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
            sub = ious[np.ix_(rows, cols)]
            tp = np.zeros((len(config.iou_thresholds), len(rows)), dtype=bool)
            for t_idx, theta in enumerate(config.iou_thresholds):
                tp[t_idx] = _greedy_tp_flags(sub, theta)
            cells[(k, a_idx)] = CellMatches(confs[rows], tp, len(cols))
    return ImageMatches(config=config, cells=cells, present_classes=tuple(present))


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


def _greedy_tp_flags(ious: np.ndarray, theta: float) -> np.ndarray:
    """Greedy assignment over a (dets x gts) IoU matrix, rows in match order."""
    n_det, n_gt = ious.shape
    flags = np.zeros(n_det, dtype=bool)
    if n_gt == 0:
        return flags
    avail = ious.copy()
    for r in range(n_det):
        j = int(np.argmax(avail[r]))  # first max: lowest gt index wins ties
        if avail[r, j] >= theta:
            avail[:, j] = -1.0
            flags[r] = True
    return flags
