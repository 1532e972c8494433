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
import math
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Sequence

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


def merge(a: BucketedState, b: BucketedState) -> BucketedState:
    """Elementwise sum of two states with identical configs."""
    if a.config.to_dict() != b.config.to_dict():
        raise MergeError("cannot merge states with differing configs")
    return BucketedState(
        config=a.config,
        tp_buckets=a.tp_buckets + b.tp_buckets,
        fp_buckets=a.fp_buckets + b.fp_buckets,
        gt_counts=a.gt_counts + b.gt_counts,
    )


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


def cell_ap(
    tpc: np.ndarray,
    fpc: np.ndarray,
    gamma: int,
    recall_thresholds: Sequence[float],
) -> float:
    """AP of one (theta, class, area) cell from its PR curve.

    tpc / fpc are cumulative TP / FP counts along descending confidence:
    one point per detection (exact) or per bucket (streaming). Points with
    no detection yet have precision 0.
    """
    recalls = tpc / gamma
    denom = tpc + fpc
    precisions = np.divide(
        tpc, denom, out=np.zeros(len(tpc), dtype=float), where=denom > 0
    )
    return interpolate_ap(recalls, precisions, recall_thresholds)


def metric_report(
    config: EvalConfig,
    gt_counts: np.ndarray,
    tp_totals: np.ndarray,
    ap_for: Callable[[int, int, int], float],
) -> MetricReport:
    """Reduce per-cell counts to the 12-metric report.

    gt_counts is (classes, areas); tp_totals is (|Theta|, classes, areas,
    max-dets); ap_for(t_idx, k, a_idx) is the AP of a cell at the largest
    max-dets limit. Classes with zero ground truths in a given area range
    are excluded from the average; if no class qualifies the metric is -1.
    """
    all_t = range(len(config.iou_thresholds))

    def mean(
        area_name: str, value: Callable[[int, int, int], float], t_indices: Sequence[int] = all_t
    ) -> float:
        """Mean of value(t_idx, k, a_idx) over t_indices and the classes with
        ground truth in the area."""
        a_idx = config.area_index(area_name)
        if a_idx is None:
            return UNDEFINED
        classes = [k for k in range(config.num_classes) if gt_counts[k, a_idx] > 0]
        if not classes:
            return UNDEFINED
        return float(np.mean([value(t, k, a_idx) for k in classes for t in t_indices]))

    def recall(area_name: str, max_dets: int) -> float:
        m_idx = config.max_dets_index(max_dets)
        if m_idx is None:
            return UNDEFINED
        return mean(area_name, lambda t, k, a_idx: tp_totals[t, k, a_idx, m_idx] / gt_counts[k, a_idx])

    t50 = config.iou_index(0.5)
    t75 = config.iou_index(0.75)
    top_dets = config.max_dets_list[-1]

    return MetricReport(
        map_standard=mean("all", ap_for),
        map_50=mean("all", ap_for, [t50]) if t50 is not None else UNDEFINED,
        map_75=mean("all", ap_for, [t75]) if t75 is not None else UNDEFINED,
        map_small=mean("small", ap_for),
        map_medium=mean("medium", ap_for),
        map_large=mean("large", ap_for),
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
    """
    cfg = state.config
    m_top = len(cfg.max_dets_list) - 1  # the largest limit

    def ap_for(t_idx: int, k: int, a_idx: int) -> float:
        # Suffix sums over the bucket axis: entry i counts detections whose
        # bucket index is >= buckets - 1 - i.
        return cell_ap(
            np.cumsum(state.tp_buckets[t_idx, k, a_idx, m_top, ::-1]),
            np.cumsum(state.fp_buckets[t_idx, k, a_idx, m_top, ::-1]),
            int(state.gt_counts[k, a_idx]),
            cfg.recall_thresholds,
        )

    return metric_report(cfg, state.gt_counts, state.tp_buckets.sum(axis=-1), ap_for)


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
    fp.write(json.dumps(header, sort_keys=True).encode("utf-8"))
    fp.write(b"\n")
    for name in names:
        fp.write(np.ascontiguousarray(getattr(state, name), dtype="<i8").tobytes())


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
        count = math.prod(shape)
        buf = fp.read(count * 8)
        if len(buf) != count * 8:
            raise ValueError(f"truncated snapshot while reading {name}")
        arr = np.frombuffer(buf, dtype="<i8").reshape(shape).astype(np.int64)
        if arr.size and arr.min() < 0:
            raise ValueError(f"negative counter in snapshot array {name}")
        arrays[name] = arr
    if fp.read(1):
        raise ValueError("trailing bytes after snapshot arrays")
    return BucketedState(config=config, **arrays)
