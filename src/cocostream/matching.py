"""Greedy detection-to-ground-truth assignment per image, class, and IoU threshold.

Detections are visited in descending confidence order (stable on ties).
Each detection claims the unmatched same-class ground truth with the
highest IoU when that IoU reaches the threshold; otherwise it is a false
positive. Area filtering removes both detections and ground truths before
matching, and max-dets truncation happens after area filtering.

_match_columns, the array core, matches a batch given as image-grouped
columns (_Columns); the CLI feeds it the columns cocostream.ingest reads
from JSON. match_batch, its object adaptor (match_image is a batch of one),
reads Detection and GroundTruth objects into columns and strips padding.
The core matches a batch at the largest max-dets limit in one rank-major
greedy loop: step s matches the s-th live detection of every (image, class,
area) cell, for every IoU threshold at once, against a taken mask per
(threshold, cell). Ground truths are grouped by (image, class), stably, and
each detection has one IoU row, against its own group only; each of its
(area) columns reads that row masked to the area's ground truths. A
detection is live when some ground truth it may take has IoU >= the lowest
threshold; any other is an FP at every threshold and takes nothing, so
skipping it changes no verdict. Each smaller limit is a prefix of that
match, since greedy matching never revisits an earlier detection;
streaming._kept_indices applies that max-dets prefix rule for every
consumer of Matches. Batches are matched in chunks of consecutive images,
so that no IoU matrix passes about _CHUNK_ELEMENTS entries plus one image's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import EvalConfig
from .geometry import PADDING_CLASS_ID, Detection, GroundTruth

# Cap on a chunk's IoU matrices, (columns + detection rows) x widest group.
_CHUNK_ELEMENTS = 1 << 16


class MatchingError(ValueError):
    """Inputs violate the matching contract (a class id outside the config,
    or a box whose area is past the float range)."""


class _Columns(NamedTuple):
    """Boxes, one row each, grouped by image; in an image, input order breaks ties."""

    img: np.ndarray  # (n,) int64 image index
    cls: np.ndarray  # (n,) int64 class index in [0, num_classes)
    boxes: np.ndarray  # (n, 4) float (left, top, right, bottom)
    scores: np.ndarray  # (n,) float confidence; ground truths ignore it

    def take(self, rows) -> _Columns:
        return _Columns(*(c[rows] for c in self))


@dataclass(frozen=True)
class Matches:
    """Matched detections as columns, one per detection kept at the largest
    max-dets limit, in image order and, per image, (area, class, rank) order.

    Greedy matching is prefix-stable, so a smaller limit m keeps the
    columns with rank < m; streaming._kept_indices is the only place that
    rule lives.
    """

    config: EvalConfig
    cls: np.ndarray  # (n,) class index
    area: np.ndarray  # (n,) area-range index
    rank: np.ndarray  # (n,) rank in its image's (class, area) cell
    confidences: np.ndarray  # (n,)
    tp: np.ndarray  # (|Theta|, n) bool, one row per IoU threshold
    gt_counts: np.ndarray  # (classes, areas) ground truths in each area range


def match_image(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    config: EvalConfig,
) -> Matches:
    """match_batch of the one pair (detections, ground_truths)."""
    return match_batch([(detections, ground_truths)], config)


def match_batch(
    pairs: Iterable[tuple[Sequence[Detection], Sequence[GroundTruth]]],
    config: EvalConfig,
) -> Matches:
    """Match every (detections, ground_truths) pair with _match_columns.

    Padding entries are stripped internally. Class ids must lie in
    [0, config.num_classes) after stripping; an image may hold any mix of
    them, and MatchingError names the smallest bad id of the first image
    that has one. Every other box must have a finite area: MatchingError
    names the first image with one past the float range, and in it the
    first such detection, else ground truth.
    """
    pairs = list(pairs)
    dets = [d for ds, _ in pairs for d in ds]
    gts = [g for _, gs in pairs for g in gs]
    det_img = np.repeat(np.arange(len(pairs)), [len(ds) for ds, _ in pairs])
    gt_img = np.repeat(np.arange(len(pairs)), [len(gs) for _, gs in pairs])
    det_cls = np.array([d.class_id for d in dets], dtype=np.int64)
    gt_cls = np.array([g.class_id for g in gts], dtype=np.int64)
    ids, ids_img = np.concatenate([det_cls, gt_cls]), np.concatenate([det_img, gt_img])
    real = ids != PADDING_CLASS_ID
    bad = real & ((ids < 0) | (ids >= config.num_classes))
    if bad.any():
        bad_id = ids[bad & (ids_img == ids_img[bad].min())].min()
        raise MatchingError(f"class id {bad_id} outside [0, {config.num_classes})")
    n, boxes = len(dets), _box_array(dets + gts)
    with np.errstate(over="ignore"):
        huge = real & ~np.isfinite(_areas(boxes))
    if huge.any():
        i = np.flatnonzero(huge & (ids_img == ids_img[huge].min()))[0]  # detections come first
        kind, x = ("detection", dets[i]) if i < n else ("ground truth", gts[i - n])
        raise MatchingError(
            f"image {ids_img[i]} of the batch: {kind} {x.box} has an area past the float range"
        )
    confs = np.array([d.confidence for d in dets], dtype=float)
    dets = _Columns(det_img, det_cls, boxes[:n], confs).take(real[:n])
    gts = _Columns(gt_img, gt_cls, boxes[n:], np.zeros(len(gts))).take(real[n:])
    return _match_columns(config, len(pairs), dets, gts)


def _match_columns(config: EvalConfig, images: int, dets: _Columns, gts: _Columns) -> Matches:
    """The array core of match_batch, on padding-free columns of `images` images.

    Each (image, class, threshold, area, limit) cell equals a brute-force
    greedy match of that image and class alone (asserted by tests). Step s
    of the loop is exact: its columns lie in distinct (image, class, area)
    cells, and each may take only ground truths of its own image and class
    in its own area, so no two of them compete. A group keeps input order,
    so the first maximum of a row is the image's first ground truth at it.
    """
    det_img, det_cls, det_boxes, confs = dets
    gt_img, gt_cls, gt_boxes, _ = gts
    lo, hi = np.array([(r.min_area, r.max_area) for _, r in config.area_ranges]).T[..., None]
    det_areas, gt_areas = _areas(det_boxes), _areas(gt_boxes)
    gt_in = (gt_areas >= lo) & (gt_areas < hi)  # (areas, gts)
    a_in, g_in = np.nonzero(gt_in)
    areas = len(config.area_ranges)
    gt_counts = np.bincount(
        gt_cls[g_in] * areas + a_in, minlength=config.num_classes * areas
    ).reshape(config.num_classes, areas)

    # Columns in (image, area, class, rank) order, rank by descending
    # confidence; np.nonzero yields each cell's detections in input order.
    area, det = np.nonzero((det_areas >= lo) & (det_areas < hi))
    cell = (det_img[det] * areas + area) * config.num_classes + det_cls[det]
    by_cell = np.lexsort((-confs[det], cell))  # stable: ties keep input order
    area, det, cell = area[by_cell], det[by_cell], cell[by_cell]
    rank = np.arange(len(cell)) - np.searchsorted(cell, cell)
    keep = rank < config.max_dets_list[-1]
    area, det, rank, cell = area[keep], det[keep], rank[keep], cell[keep]
    img, cls = det_img[det], det_cls[det]

    thetas = np.array(config.iou_thresholds)[:, None]
    low = thetas.min()
    tp = np.zeros((len(thetas), len(det)), dtype=bool)
    # Ground truths grouped by (image, class), stably, so that a group keeps
    # input order; a padding slot points at a sentinel after the last one, in
    # no area range. IoU is scale-free; on halved boxes two finite areas sum
    # within range.
    key = gt_img * config.num_classes + gt_cls
    by_group = np.argsort(key, kind="stable")
    key = key[by_group]
    half_gt = np.concatenate([gt_boxes[by_group] * 0.5, np.zeros((1, 4))])
    gt_in = np.concatenate([gt_in[:, by_group], np.zeros((areas, 1), dtype=bool)], axis=1)
    # Each detection that some column keeps has one row, in input (so image)
    # order, read against its own (image, class) group.
    has_row = np.zeros(len(det_img), dtype=bool)
    has_row[det] = True
    row = np.cumsum(has_row)[det] - 1  # the row of each column
    used = np.flatnonzero(has_row)
    row_img, half_det = det_img[used], det_boxes[used] * 0.5
    group = row_img * config.num_classes + det_cls[used]
    start = np.searchsorted(key, group)
    size = np.searchsorted(key, group, "right") - start
    # A chunk of consecutive images starts at each image whose first row
    # passes a multiple of _CHUNK_ELEMENTS // (the batch's widest group). An
    # image's rows are its columns and its detection rows.
    rows = np.bincount(img, minlength=images) + np.bincount(row_img, minlength=images)
    chunk = (np.cumsum(rows) - rows) // max(_CHUNK_ELEMENTS // max(size.max(initial=0), 1), 1)
    bounds = [*np.flatnonzero(np.diff(chunk, prepend=-1)).tolist(), images]
    for first, last in zip(bounds, bounds[1:]):
        c0, c1 = np.searchsorted(img, (first, last))
        r0, r1 = np.searchsorted(row_img, (first, last))
        slots = np.arange(size[r0:r1].max(initial=0))  # the chunk's widest group
        gi = np.where(slots < size[r0:r1, None], start[r0:r1, None] + slots, len(key))
        row_ious = _iou(half_det[r0:r1, None], half_gt[gi])  # (rows, width)
        # A column whose detection's row reaches the lowest threshold takes
        # that row, masked to its area range; only live columns step (see
        # the module docstring).
        near = np.flatnonzero((row_ious.max(axis=1, initial=-1.0) >= low)[row[c0:c1] - r0])
        at_row = row[c0 + near] - r0
        ious = np.where(gt_in[area[c0 + near, None], gi[at_row]], row_ious[at_row], -1.0)
        is_live = ious.max(axis=1, initial=-1.0) >= low
        live, ious = near[is_live], ious[is_live]
        # Live columns ordered by step; the claimed mask has one row per
        # (image, area, class) cell they hold.
        step = np.arange(len(live)) - np.searchsorted(cell[c0 + live], cell[c0 + live])
        at_cell = np.cumsum(step == 0) - 1
        by_step = np.argsort(step, kind="stable")
        live, at_cell, ious = live[by_step], at_cell[by_step], ious[by_step]
        taken = np.zeros((len(thetas), at_cell.max(initial=-1) + 1, len(slots)), dtype=bool)
        hits = np.empty((len(thetas), len(live)), dtype=bool)
        ends = np.cumsum(np.bincount(step)).tolist()
        for s0, s1 in zip([0, *ends], ends):
            at = at_cell[s0:s1]
            avail = np.where(taken[:, at], -1.0, ious[s0:s1])  # (thetas, cells, width)
            best = avail.argmax(axis=-1)  # first max: the image's first gt wins ties
            hits[:, s0:s1] = hit = avail.max(axis=-1) >= thetas
            t, c = np.nonzero(hit)
            taken[t, at[c], best[t, c]] = True
        tp[:, c0 + live] = hits

    return Matches(config, cls, area, rank, confs[det], tp, gt_counts)


def _box_array(items: Sequence[Detection] | Sequence[GroundTruth]) -> np.ndarray:
    """(n, 4) corner coordinates."""
    return np.array(
        [[x.box.left, x.box.top, x.box.right, x.box.bottom] for x in items], dtype=float
    ).reshape(-1, 4)


def _areas(boxes: np.ndarray) -> np.ndarray:
    """Area of each (left, top, right, bottom) box on the last axis: the
    exact product width * height, with no +1. An area range [min, max) holds
    the boxes with min <= area < max."""
    return (boxes[..., 2] - boxes[..., 0]) * (boxes[..., 3] - boxes[..., 1])


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of each pair of boxes, (..., 4) broadcast.

    Boxes that only touch do not intersect. The IoU is 0 when the union is
    0, so a zero-area box has IoU 0 with everything, itself included."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    union = _areas(a) + _areas(b) - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
    return out
