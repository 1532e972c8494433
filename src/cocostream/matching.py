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
(threshold, image, area). A detection is live when some ground truth it may
take has IoU >= the lowest threshold; any other is an FP at every threshold
and takes nothing, so skipping it changes no verdict. Each smaller limit is
a prefix of that match, since greedy matching never revisits an earlier
detection; streaming._kept_indices applies that max-dets prefix rule for
every consumer of Matches. Batches are matched in chunks of consecutive
images, so that no IoU matrix passes about _CHUNK_ELEMENTS entries plus one
image's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import EvalConfig
from .geometry import PADDING_CLASS_ID, Detection, GroundTruth

# Cap on a chunk's IoU matrix, (columns + images) x padded ground-truth width.
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
    in its own area, so no two of them compete.
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
    # IoU is scale-free; on halved boxes two finite areas sum within range.
    half_det, half_gt = det_boxes * 0.5, gt_boxes * 0.5
    tp = np.zeros((len(thetas), len(det)), dtype=bool)
    slot = np.arange(len(gt_img)) - np.searchsorted(gt_img, gt_img)  # index in its image
    # A chunk of consecutive images starts at each image whose first row
    # passes a multiple of _CHUNK_ELEMENTS // (the batch's width). An image's
    # rows are its columns, plus one for its padded ground truths.
    rows = np.bincount(img, minlength=images) + 1
    chunk = (np.cumsum(rows) - rows) // max(_CHUNK_ELEMENTS // (slot.max(initial=0) + 1), 1)
    bounds = [*np.flatnonzero(np.diff(chunk, prepend=-1)).tolist(), images]
    for first, last in zip(bounds, bounds[1:]):
        c0, c1 = np.searchsorted(img, (first, last))
        g = slice(*np.searchsorted(gt_img, (first, last)))
        # Each image's ground truths, padded to the chunk's widest image.
        padded = np.full((last - first, slot[g].max(initial=-1) + 1), -1)
        padded[gt_img[g] - first, slot[g]] = np.arange(g.start, g.stop)
        gi = padded[img[c0:c1] - first]  # (columns, width) gt index, -1 for padding
        eligible = (gi >= 0) & (gt_cls[gi] == cls[c0:c1, None]) & gt_in[area[c0:c1, None], gi]
        ious = np.where(eligible, _iou(half_det[det[c0:c1], None], half_gt[gi]), -1.0)
        # Only live columns step (see the module docstring).
        live = np.flatnonzero(ious.max(axis=1, initial=-1.0) >= thetas.min())
        step = np.arange(len(live)) - np.searchsorted(cell[c0 + live], cell[c0 + live])
        taken = np.zeros((len(thetas), (last - first) * areas, gi.shape[1]), dtype=bool)
        at_slot = (img[c0:c1] - first) * areas + area[c0:c1]  # (image, area) of each column
        for s in range(step.max(initial=-1) + 1):
            at = live[step == s]
            avail = np.where(taken[:, at_slot[at]], -1.0, ious[at])  # (thetas, cells, width)
            best = avail.argmax(axis=-1)  # first max: lowest gt index wins ties
            hit = avail.max(axis=-1) >= thetas
            t, c = np.nonzero(hit)
            taken[t, at_slot[at[c]], best[t, c]] = True
            tp[:, c0 + at] = hit

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
