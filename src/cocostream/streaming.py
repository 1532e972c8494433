"""Fixed-size bucketed counters for streaming COCO metric evaluation.

Instead of keeping every detection's confidence and TP/FP verdict, the
state holds per-bucket TP and FP counts plus ground-truth totals. Updates
are mini-batch friendly, states with identical configs merge by elementwise
addition, and finalization recovers exact recall and a close approximation
of mean average precision from the bucket histograms.

Counters stay exact integers until finalization, so merging is exactly
associative and commutative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .config import UNDEFINED, ConfigError, EvalConfig, MetricReport
from .geometry import Detection, GroundTruth
from .matching import Matches, match_batch


class MergeError(ValueError):
    """States with differing configs cannot be merged."""


def bucket_index(confidence: float | np.ndarray, buckets: int) -> int | np.ndarray:
    """Histogram bucket for a confidence score; result lies in [0, buckets).

    Realizes floor(c * (buckets - delta)) for an infinitesimal delta: exact
    integer products c * buckets land in the bucket below, and c = 1.0 maps
    to buckets - 1. Takes a float (returns an int) or an array of floats
    (returns an int64 array of the same shape).
    """
    if buckets < 1:
        raise ConfigError(f"buckets must be >= 1, got {buckets}")
    c = np.asarray(confidence, dtype=float)
    bad = ~((c >= 0.0) & (c <= 1.0))
    if bad.any():
        raise ValueError(f"confidence outside [0, 1]: {c[bad].flat[0]}")
    idx = np.maximum(np.ceil(c * buckets).astype(np.int64) - 1, 0)
    return int(idx) if idx.ndim == 0 else idx


@dataclass
class BucketedState:
    """Fixed-size streaming state.

    tp_buckets / fp_buckets have shape (|Theta|, classes, areas, maxdets,
    buckets); gt_counts has shape (classes, areas). Shapes are determined
    by the config and never change.
    """

    config: EvalConfig
    tp_buckets: np.ndarray
    fp_buckets: np.ndarray
    gt_counts: np.ndarray

    def copy(self) -> "BucketedState":
        return BucketedState(
            config=self.config,
            tp_buckets=self.tp_buckets.copy(),
            fp_buckets=self.fp_buckets.copy(),
            gt_counts=self.gt_counts.copy(),
        )


def _array_shapes(config: EvalConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of each state array, in snapshot order."""
    hist = (
        len(config.iou_thresholds),
        config.num_classes,
        len(config.area_ranges),
        len(config.max_dets_list),
        config.buckets,
    )
    return {
        "tp_buckets": hist,
        "fp_buckets": hist,
        "gt_counts": (config.num_classes, len(config.area_ranges)),
    }


def new_state(config: EvalConfig) -> BucketedState:
    """All-zero state sized by the config grid."""
    return BucketedState(
        config=config,
        **{
            name: np.zeros(shape, dtype=np.int64)
            for name, shape in _array_shapes(config).items()
        },
    )


def update(
    state: BucketedState,
    batch: Iterable[tuple[Sequence[Detection], Sequence[GroundTruth]]],
) -> BucketedState:
    """Fold a batch of (detections, ground_truths) image pairs into the state.

    Returns the same state object, mutated in place. The update is atomic:
    if any image fails validation or matching, the state is left untouched.
    """
    return add_matches(state, match_batch(batch, state.config))


def add_matches(state: BucketedState, matches: Matches) -> BucketedState:
    """Fold a matched batch into the state; returns the same state object.

    Raises ValueError, before any write, if the matches were made under
    another config.
    """
    if matches.config != state.config:
        raise ValueError("matches were made under a different config than the state")
    b_of = bucket_index(matches.confidences, state.config.buckets)
    tp_index, fp_index = matches.kept_verdicts()
    for hist, (t, k, a, m, j) in ((state.tp_buckets, tp_index), (state.fp_buckets, fp_index)):
        np.add.at(hist, (t, k, a, m, b_of[j]), 1)
    state.gt_counts += matches.gt_counts
    return state


def merge_into(acc: BucketedState, other: BucketedState) -> BucketedState:
    """Add other's counters into acc in place; returns acc."""
    if acc.config.to_dict() != other.config.to_dict():
        raise MergeError("cannot merge states with differing configs")
    for name in _array_shapes(acc.config):
        np.add(getattr(acc, name), getattr(other, name), out=getattr(acc, name))
    return acc


def merge(a: BucketedState, b: BucketedState) -> BucketedState:
    """Elementwise sum of two states with identical configs; a and b are unchanged."""
    return merge_into(a.copy(), b)


def interpolate_ap(
    recalls: Sequence[float],
    precisions: Sequence[float],
    recall_thresholds: Sequence[float],
) -> float:
    """Threshold-sampled area under a precision-recall sequence.

    Precisions are first replaced by their right-to-left running maximum
    (monotone envelope). For each recall threshold, the envelope value at
    the first point whose recall reaches the threshold contributes; missing
    thresholds contribute 0. Returns the mean contribution.
    """
    r = np.asarray(recalls, dtype=float)
    p = np.asarray(precisions, dtype=float)
    if r.shape != p.shape:
        raise ValueError(f"length mismatch: {r.shape} recalls vs {p.shape} precisions")
    if r.size == 0:
        return 0.0
    env = np.maximum.accumulate(p[::-1])[::-1]
    idx = np.searchsorted(r, np.asarray(recall_thresholds, dtype=float), side="left")
    valid = idx < r.size
    total = env[idx[valid]].sum()
    return float(total / len(recall_thresholds))


def cell_aps(config: EvalConfig, gt_counts, tp, fp, bounds) -> np.ndarray:
    """(|Theta|, classes, areas) AP of each cell with ground truth, else 0.

    Cell c, in (theta, class, area) ravel order, owns the PR points
    bounds[c]:bounds[c + 1] of the TP / FP count vectors, in descending
    confidence: one per detection (exact) or per occupied bucket (streaming).
    """
    tpc = np.concatenate(([0], np.cumsum(tp)))
    fpc = np.concatenate(([0], np.cumsum(fp)))
    gammas = np.broadcast_to(gt_counts, (len(config.iou_thresholds), *gt_counts.shape)).ravel()
    ap = np.zeros(len(gammas))
    for c in np.flatnonzero(gammas):
        lo, hi = bounds[c], bounds[c + 1]
        cell_tp = tpc[lo + 1 : hi + 1] - tpc[lo]
        cell_fp = fpc[lo + 1 : hi + 1] - fpc[lo]
        ap[c] = interpolate_ap(
            cell_tp / gammas[c], cell_tp / (cell_tp + cell_fp), config.recall_thresholds
        )
    return ap.reshape(-1, *gt_counts.shape)


def metric_report(config: EvalConfig, gt_counts, tp_totals, ap) -> MetricReport:
    """Reduce per-cell counts to the 12-metric report.

    gt_counts is (classes, areas); tp_totals is (|Theta|, classes, areas,
    max-dets); ap is the (|Theta|, classes, areas) AP at the largest
    max-dets limit. Classes with zero ground truths in a given area range
    are excluded from the average; if no class qualifies the metric is -1.
    """
    has_gt = gt_counts > 0
    recalls = np.divide(
        tp_totals, gt_counts[..., None], out=np.zeros(tp_totals.shape), where=has_gt[..., None]
    )

    def mean(area_name: str, values: np.ndarray, t_indices=slice(None)) -> float:
        """Mean of a (|Theta|, classes, areas) array over t_indices and the
        classes with ground truth in the area, summed class-major."""
        a_idx = config.area_index(area_name)
        if a_idx is None:
            return UNDEFINED
        classes = np.flatnonzero(has_gt[:, a_idx])
        if not classes.size:
            return UNDEFINED
        return float(np.mean(values[:, classes, a_idx][t_indices].T.ravel()))

    def recall(area_name: str, max_dets: int) -> float:
        m_idx = config.max_dets_index(max_dets)
        return UNDEFINED if m_idx is None else mean(area_name, recalls[..., m_idx])

    t50 = config.iou_index(0.5)
    t75 = config.iou_index(0.75)
    top_dets = config.max_dets_list[-1]

    return MetricReport(
        map_standard=mean("all", ap),
        map_50=mean("all", ap, [t50]) if t50 is not None else UNDEFINED,
        map_75=mean("all", ap, [t75]) if t75 is not None else UNDEFINED,
        map_small=mean("small", ap),
        map_medium=mean("medium", ap),
        map_large=mean("large", ap),
        recall_maxdets_1=recall("all", 1),
        recall_maxdets_10=recall("all", 10),
        recall_maxdets_100=recall("all", top_dets),
        recall_small=recall("small", top_dets),
        recall_medium=recall("medium", top_dets),
        recall_large=recall("large", top_dets),
    )


def finalize(state: BucketedState) -> MetricReport:
    """Reduce bucketed counters to the 12-metric report.

    Recall metrics are exact (total TP over total ground truths); MaP uses
    the bucket-granularity PR curve and is approximate up to bucket width.
    Only the occupied buckets at the largest max-dets limit are reduced: an
    empty bucket repeats the PR point before it.
    """
    cfg = state.config
    # (cells, buckets) views of the top limit, highest bucket first.
    tp = state.tp_buckets[..., -1, ::-1].reshape(-1, cfg.buckets)
    fp = state.fp_buckets[..., -1, ::-1].reshape(-1, cfg.buckets)
    cells, b = np.divmod(np.flatnonzero(np.logical_or(tp, fp)), cfg.buckets)
    bounds = np.searchsorted(cells, np.arange(len(tp) + 1))
    ap = cell_aps(cfg, state.gt_counts, tp[cells, b], fp[cells, b], bounds)
    return metric_report(cfg, state.gt_counts, state.tp_buckets.sum(axis=-1), ap)


# -- state snapshot serialization -----------------------------------------
#
# Layout: one JSON header line (config, array shapes/dtypes) followed by the
# raw little-endian array bytes in header order. Deterministic bytes, so
# merge outputs are grouping-independent and single-input merges are copies.

_MAGIC = "cocostream-state/1"


def save_state(state: BucketedState, fp: BinaryIO) -> None:
    names = list(_array_shapes(state.config))
    header = {
        "format": _MAGIC,
        "config": state.config.to_dict(),
        "arrays": [
            {"name": name, "shape": list(getattr(state, name).shape), "dtype": "<i8"}
            for name in names
        ],
    }
    stalled = "snapshot write made no progress"
    _transfer(fp.write, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n", stalled)
    for name in names:
        _transfer(fp.write, np.ascontiguousarray(getattr(state, name), dtype="<i8"), stalled)


def _transfer(io_call, buffer, error: str) -> None:
    """Call fp.write or fp.readinto until all of buffer has moved (a raw
    stream may move fewer bytes per call); raise ValueError(error) on a stall."""
    view = memoryview(buffer).cast("B")
    while view:
        moved = io_call(view)
        if not moved:
            raise ValueError(error)
        view = view[moved:]


def load_state(fp: BinaryIO) -> BucketedState:
    """Read a snapshot, rejecting any that save_state could not have written."""
    header_line = fp.readline()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"not a state snapshot: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError("not a state snapshot: header is not a JSON object")
    if header.get("format") != _MAGIC:
        raise ValueError(f"unsupported snapshot format: {header.get('format')!r}")
    try:
        config = EvalConfig.from_dict(header["config"])
        specs = header["arrays"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed snapshot header: {exc!r}") from exc
    shapes = _array_shapes(config)
    expected = [
        {"name": name, "shape": list(shape), "dtype": "<i8"} for name, shape in shapes.items()
    ]
    if specs != expected:
        raise ValueError(
            f"snapshot arrays do not match its config: expected {expected}, got {specs}"
        )
    arrays = {}
    for name, shape in shapes.items():
        arr = np.empty(shape, dtype="<i8")
        _transfer(fp.readinto, arr, f"truncated snapshot while reading {name}")
        arr = arr.astype(np.int64, copy=False)  # native order on big-endian hosts
        if arr.min() < 0:
            raise ValueError(f"negative counter in snapshot array {name}")
        arrays[name] = arr
    if fp.read(1):
        raise ValueError("trailing bytes after snapshot arrays")
    return BucketedState(config=config, **arrays)
