"""Fixed-size bucketed counters for streaming COCO metric evaluation.

Instead of keeping every detection's confidence and TP/FP verdict, the
state holds per-bucket TP and FP counts at the largest max-dets limit, TP
totals per limit and ground-truth totals. Updates are mini-batch friendly,
states with identical configs merge by elementwise addition, and
finalization recovers exact recall and approximate mean average precision.

Counters stay exact integers until finalization, so merging is exactly
associative and commutative.

The dense state serves the library API (update, merge, finalize). Only
occupied counters are ever stored or reduced, so the command line works on
(flat index, count) entries instead, and never allocates the grid. Three
primitives carry every conversion: _nonzero (array to entries), _dense
(entries to array) and _join (two entry vectors aligned on the sorted union
of their indices). finalize, _finalize_entries and the exact oracle all end
in the same call, metric_report(..., cell_aps(...)).
"""

from __future__ import annotations

import functools
import json
import math
import os
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

    tp_buckets / fp_buckets count the TP / FP verdicts at the largest
    max-dets limit, shape (|Theta|, classes, areas, 1, buckets): the
    length-1 axis stays only because perfbench indexes five axes. tp_totals
    counts the TPs at each limit, shape (|Theta|, classes, areas, max-dets);
    gt_counts has shape (classes, areas). Shapes are determined by the
    config and never change.
    """

    config: EvalConfig
    tp_buckets: np.ndarray
    fp_buckets: np.ndarray
    tp_totals: np.ndarray
    gt_counts: np.ndarray

    def copy(self) -> "BucketedState":
        return BucketedState(
            self.config, **{n: getattr(self, n).copy() for n in _array_shapes(self.config)}
        )


def _array_shapes(config: EvalConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of each state array, in snapshot order."""
    cells = (len(config.iou_thresholds), config.num_classes, len(config.area_ranges))
    return {
        "tp_buckets": (*cells, 1, config.buckets),
        "fp_buckets": (*cells, 1, config.buckets),
        "tp_totals": (*cells, len(config.max_dets_list)),
        "gt_counts": cells[1:],
    }


def _counters(array: str, shape: tuple[int, ...]) -> int:
    """The number of counters in an array of shape; ValueError naming the
    array and that number if int64 flat indices cannot address them all."""
    size = math.prod(shape)
    if size > np.iinfo(np.int64).max:
        raise ValueError(f"{array}: its {size} counters do not fit int64 indices")
    return size


def new_state(config: EvalConfig) -> BucketedState:
    """All-zero state sized by the config grid."""
    shapes = _array_shapes(config)
    for name, shape in shapes.items():
        _counters(f"state array {name}", shape)
    return BucketedState(config, **{n: np.zeros(s, dtype=np.int64) for n, s in shapes.items()})


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

    Raises ValueError, with the state unchanged, if the matches were made
    under another config or if a counter would overflow int64; the overflow
    error names the array, as merge's does.
    """
    if matches.config != state.config:
        raise ValueError("matches were made under a different config than the state")
    gt_counts = _checked_sum("gt_counts", state.gt_counts, matches.gt_counts)
    tp_totals = _checked_sum("tp_totals", state.tp_totals, _tp_totals(matches))
    names, added = ("tp_buckets", "fp_buckets"), []
    for name, flat in zip(names, _kept_indices(matches)):
        hist = getattr(state, name).reshape(-1)
        np.add.at(hist, flat, 1)
        added.append((hist, flat))
        # Counters start >= 0, so one below 0 has wrapped; undoing a wrap is exact.
        if (hist[flat] < 0).any():
            for undo, at in added:
                np.subtract.at(undo, at, 1)
            raise ValueError(f"counter overflow in array {name}: a sum is outside int64")
    state.tp_totals[...] = tp_totals
    state.gt_counts[...] = gt_counts
    return state


def _cells(matches: Matches) -> np.ndarray:
    """(|Theta|, columns) flat C-order (theta, class, area) cell of each verdict."""
    n_t, n_k, n_a = _array_shapes(matches.config)["tp_totals"][:-1]
    return np.arange(n_t)[:, None] * (n_k * n_a) + (matches.cls * n_a + matches.area)


def _kept_indices(matches: Matches) -> tuple[np.ndarray, np.ndarray]:
    """Flat C-order indices, in the histogram grid, of every TP verdict and
    every FP verdict, repeats included; every column of matches is kept at
    the largest max-dets limit."""
    buckets = matches.config.buckets
    _counters("state array tp_buckets", _array_shapes(matches.config)["tp_buckets"])
    flat = _cells(matches) * buckets + bucket_index(matches.confidences, buckets)
    return flat[matches.tp], flat[~matches.tp]


def _tp_totals(matches: Matches) -> np.ndarray:
    """The (|Theta|, classes, areas, max-dets) TP counts of matches. Limit m
    keeps the columns with rank < max_dets_list[m] (greedy matching is
    prefix-stable); this is the only place that rule lives. Each TP counts
    once, at the first limit that keeps it, then the limits are summed up."""
    cfg = matches.config
    shape = _array_shapes(cfg)["tp_totals"]
    first = np.searchsorted(cfg.max_dets_list, matches.rank, side="right")
    flat = _cells(matches) * shape[-1] + first
    counts = np.bincount(flat[matches.tp], minlength=_counters("state array tp_totals", shape))
    return np.cumsum(counts.reshape(shape), axis=-1)


def _match_entries(matches: Matches) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The (flat indices, counts) entries, per array in snapshot order, that
    save_state would store for add_matches(new_state(config), matches),
    computed without the state."""
    tp, fp = _kept_indices(matches)
    return {
        "tp_buckets": np.unique(tp, return_counts=True),
        "fp_buckets": np.unique(fp, return_counts=True),
        "tp_totals": _nonzero(_tp_totals(matches)),
        "gt_counts": _nonzero(matches.gt_counts),
    }


def _nonzero(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (flat C-order indices, counts) entries of array's non-zero
    counters; scanning a bool mask is faster than scanning int64 counters."""
    flat = array.reshape(-1)
    occupied = flat != 0
    return np.flatnonzero(occupied), flat[occupied]


def _dense(shape: tuple[int, ...], entries: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The int64 array of shape holding entries = (unique flat indices,
    counts), zero elsewhere."""
    array = np.zeros(shape, dtype=np.int64)
    array.reshape(-1)[entries[0]] = entries[1]
    return array


def _join(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, a counts, b counts): the sorted union of the keys of the
    (keys, counts) pairs a and b, each pair's keys unique and >= 0, and
    each pair's counts aligned to it, 0 where the pair lacks a key. The
    stable sort merges two sorted runs of keys in linear time."""
    keys = np.concatenate((a[0], b[0]))
    order = np.argsort(keys, kind="stable")
    first = np.diff(keys[order], prepend=-1) != 0
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    aligned = np.zeros((2, np.count_nonzero(first)), dtype=np.int64)
    aligned[0, slot[: len(a[0])]] = a[1]
    aligned[1, slot[len(a[0]) :]] = b[1]
    return keys[order[first]], aligned[0], aligned[1]


def merge(a: BucketedState, b: BucketedState) -> BucketedState:
    """Elementwise sum of two states with identical configs, as a new state;
    a and b are unchanged. Raises ValueError if a counter overflows int64."""
    if a.config != b.config:
        raise MergeError("cannot merge states with differing configs")
    return BucketedState(
        a.config,
        **{n: _checked_sum(n, getattr(a, n), getattr(b, n)) for n in _array_shapes(a.config)},
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

    This is the definition of one curve's AP. cell_aps computes it for
    every cell at once, and the tests hold cell_aps to a per-cell loop over
    this function, bit for bit.
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


def cell_aps(config: EvalConfig, gt_counts, cells, tp, fp) -> np.ndarray:
    """(|Theta|, classes, areas) AP of each cell with ground truth, else 0.

    PR point i belongs to cell cells[i], in (theta, class, area) ravel
    order, and counts tp[i] TPs and fp[i] FPs: one point per detection
    (exact) or per occupied bucket (streaming). Each cell's points form one
    run, in descending confidence; the runs may come in any cell order.

    Each AP equals interpolate_ap of the cell's curve, bit for bit, but all
    cells are reduced together: a fixed number of array passes over the
    points, then one row sum per distinct count of reached thresholds.
    Raises ValueError, naming the cell, if a cell's TP + FP total is not
    below 2**63.
    """
    thresholds = np.asarray(config.recall_thresholds, dtype=float)
    gammas = np.broadcast_to(gt_counts, (len(config.iou_thresholds), *gt_counts.shape)).ravel()
    ap = np.zeros(len(gammas))
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    sizes = np.diff(starts, append=len(cells))
    rows, last = cells[starts], starts + sizes - 1  # cells that have points

    # Within-cell cumulative counts: one global cumsum, less the count
    # before the cell's first point; exact modulo 2**64, so exact for cell
    # totals below 2**63. Recall and precision are the same float
    # operations as interpolate_ap's inputs. A cell with no ground truth
    # divides by 1 instead, and reaches no threshold below.
    ctp, cfp = np.cumsum(tp), np.cumsum(fp)
    ctp -= np.repeat(ctp[starts] - tp[starts], sizes)
    cfp -= np.repeat(cfp[starts] - fp[starts], sizes)
    recall = ctp / np.repeat(np.maximum(gammas[rows], 1), sizes)
    cfp += ctp
    approx = np.add.reduceat(tp, starts, dtype=float) + np.add.reduceat(fp, starts, dtype=float)
    _check_totals(config, rows, cfp[last], approx)
    precision = ctp / cfp
    del ctp, cfp

    # A point reaches the k thresholds <= its recall, and k never falls
    # within a cell, so threshold j is reached from the first point with
    # k > j on. Its envelope value, the largest precision from there on, is
    # the maximum over the (cell, k) runs with k > j: exact in any order.
    width = len(thresholds) + 1
    k = np.searchsorted(thresholds, recall, side="right")
    del recall
    reached = np.where(gammas[rows] > 0, k[last], 0)
    k += np.repeat(np.arange(len(rows)) * width, sizes)  # flat (row, k) key
    run = np.flatnonzero(np.diff(k, prepend=-1))
    env = np.zeros((len(rows), width))
    env.flat[k[run]] = np.maximum.reduceat(precision, run)
    del k, precision, run
    env = np.maximum.accumulate(env[:, ::-1], axis=1)[:, ::-1]

    # Sum each row's first `reached` envelope values. Only this step is
    # order-sensitive: a row sum over `reached` contiguous values adds in
    # the order of interpolate_ap's 1-D sum, while padding rows to the full
    # width or np.add.reduceat would not.
    order = np.argsort(reached, kind="stable")
    reached, env = reached[order], env[order, 1:]
    total = np.zeros(len(rows))
    counts, first = np.unique(reached, return_index=True)
    for n, lo, hi in zip(counts, first, [*first[1:], len(rows)]):
        total[lo:hi] = env[lo:hi, :n].sum(axis=1)
    ap[rows[order]] = total / len(thresholds)
    return ap.reshape(-1, *gt_counts.shape)


def _check_totals(config: EvalConfig, rows, totals, approx) -> None:
    """ValueError naming the first of rows, flat (theta, class, area) cells,
    whose TP + FP total reaches 2**63. totals holds the int64 totals, exact
    modulo 2**64, so read as uint64 they are exact below 2**64; approx holds
    their float64 sums, which lie past 1.5 * 2**63 for any total past 2**64."""
    over = np.flatnonzero((totals.view(np.uint64) >= 2**63) | (approx >= 3.0 * 2**62))
    if over.size:
        t, k, a = np.unravel_index(rows[over[0]], _array_shapes(config)["tp_totals"][:-1])
        raise ValueError(
            f"cell (IoU {config.iou_thresholds[t]}, class {k}, area {config.area_ranges[a][0]}):"
            " its TP + FP count is not below 2**63"
        )


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
    Only the occupied buckets are reduced: an empty bucket repeats the PR
    point before it. Their flat indices, scanned forward and reversed, put
    each cell's buckets in one run, highest first.
    """
    cfg = state.config
    flat = np.flatnonzero(np.logical_or(state.tp_buckets, state.fp_buckets))[::-1]
    tp, fp = np.take(state.tp_buckets, flat), np.take(state.fp_buckets, flat)
    ap = cell_aps(cfg, state.gt_counts, flat // cfg.buckets, tp, fp)
    return metric_report(cfg, state.gt_counts, state.tp_totals, ap)


def _finalize_entries(config: EvalConfig, entries: dict) -> MetricReport:
    """finalize of the state whose arrays hold entries[name] = (flat
    indices, counts), as _read_entries returns them, with no dense state;
    the report is bit-identical to finalize's.

    The PR points are the union of the occupied TP and FP buckets: their
    increasing flat indices, reversed, so each cell's buckets form one run,
    highest first.
    """
    shapes = _array_shapes(config)
    gt_counts = _dense(shapes["gt_counts"], entries["gt_counts"])
    flat, tp, fp = _join(entries["tp_buckets"], entries["fp_buckets"])
    ap = cell_aps(config, gt_counts, flat[::-1] // config.buckets, tp[::-1], fp[::-1])
    return metric_report(config, gt_counts, _dense(shapes["tp_totals"], entries["tp_totals"]), ap)


# -- state snapshot serialization -----------------------------------------
#
# Layout: one JSON header line, byte for byte as _header builds it (format
# and config, sorted keys), then for each array in _array_shapes order its
# number n of non-zero counters, its n flat C-order indices, strictly
# increasing, and their n counts, each >= 1; all little-endian int64. The
# config alone fixes each array's name and shape, so equal configs give
# equal header lines. Only non-zero counters are stored and equal states
# give equal bytes, so merge outputs are grouping-independent and
# single-input merges are copies.

_MAGIC = "cocostream-state/4"


def _header(config: EvalConfig) -> bytes:
    """The snapshot's header line for config, the only one _write_entries
    writes and _read_entries accepts."""
    header = {"format": _MAGIC, "config": config.to_dict()}
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"


def save_state(state: BucketedState, fp: BinaryIO) -> None:
    """Write the state's canonical snapshot (format cocostream-state/4): the
    config's header line, then per array only its non-zero counters, so
    equal states give equal bytes. load_state reads it back. fp must be a
    binary stream; a text stream, or an object that is no stream, raises
    ValueError before a byte is written."""
    entries = {name: _nonzero(getattr(state, name)) for name in _array_shapes(state.config)}
    _write_entries(fp, state.config, entries)


def _write_entries(fp: BinaryIO, config: EvalConfig, entries: dict) -> None:
    """Write the snapshot of config whose arrays hold entries[name] = (flat
    indices, counts), given in snapshot order with the indices increasing:
    per array, the number of entries, then the indices, then the counts."""
    try:
        fp.write(b"")  # moves no byte; a text stream rejects bytes, a non-stream has no write
    except (TypeError, AttributeError):
        raise _not_binary(fp) from None
    stalled = "snapshot write made no progress"
    _transfer(fp.write, _header(config), stalled)
    for idx, counts in entries.values():
        for block in (np.array([len(idx)]), idx, counts):
            _transfer(fp.write, block.astype("<i8", copy=False), stalled)


def _not_binary(fp) -> ValueError:
    """The error for a snapshot's file that is no binary stream: a snapshot is bytes."""
    return ValueError(
        f"a snapshot needs a binary stream (mode 'rb' or 'wb'), got {type(fp).__name__}"
    )


def _transfer(io_call, buffer, error: str) -> None:
    """Call fp.write or fp.readinto until all of buffer has moved (a raw
    stream may move fewer bytes per call); raise ValueError(error) on a stall."""
    view = memoryview(buffer)
    if not view.nbytes:
        return
    view = view.cast("B")
    while view:
        moved = io_call(view)
        if not moved:
            raise ValueError(error)
        view = view[moved:]


def load_state(fp: BinaryIO) -> BucketedState:
    """Read a snapshot into a new state.

    Rejects any snapshot that _read_entries rejects, and a text stream or
    an object that is no stream; the whole snapshot is read and checked
    before the state is allocated.
    """
    config, entries = _read_entries(fp)
    return BucketedState(
        config, **{n: _dense(shape, entries[n]) for n, shape in _array_shapes(config).items()}
    )


@functools.lru_cache(maxsize=1)
def _header_config(header_line: bytes) -> EvalConfig:
    """The config of a snapshot's header line; ValueError unless the line
    is, byte for byte, the header save_state writes for that config. A
    one-entry cache keeps the last line that passed, so the snapshots of one
    config parse and check their shared header once per process; an error
    is never kept."""
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not a state snapshot: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError("not a state snapshot: header is not a JSON object")
    if header.get("format") != _MAGIC:
        raise ValueError(f"unsupported snapshot format: {header.get('format')!r}")
    try:
        config = EvalConfig.from_dict(header["config"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed snapshot header: {exc!r}") from exc
    expected = _header(config)
    if header_line != expected:
        at = len(os.path.commonprefix([header_line, expected]))
        near = slice(max(at - 30, 0), at + 30)
        raise ValueError(
            "snapshot header and its config do not match: it is not the line"
            f" save_state writes for that config; near byte {at},"
            f" expected {expected[near]!r}, got {header_line[near]!r}"
        )
    return config


def _read_entries(fp: BinaryIO) -> tuple[EvalConfig, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Read and check a whole snapshot without building its state.

    Returns its config and, per array in snapshot order, the (flat indices,
    counts) it stores: indices strictly increasing, counts >= 1. As in any
    state that matching gives, in each (theta, class, area) cell, the last
    column of tp_totals is the exact sum of the cell's tp_buckets counts,
    tp_totals does not decrease along max-dets, and it never exceeds
    gt_counts; so every recall lies in [0, 1]. Raises ValueError, naming
    the array, for any other snapshot.
    """
    read = getattr(fp, "read", None)
    if read is None or isinstance(read(0), str):  # reads nothing; a text stream gives str
        raise _not_binary(fp)
    config = _header_config(bytes(fp.readline()))  # a hashable key, no caller's buffer
    shapes = _array_shapes(config)
    entries = {}
    for name, shape in shapes.items():
        size = _counters(f"snapshot array {name}", shape)
        n = np.empty(1, dtype="<i8")
        _transfer(fp.readinto, n, f"truncated snapshot while reading {name} count")
        n = int(n[0])
        if not 0 <= n <= size:
            raise ValueError(f"snapshot array {name}: entry count {n} is not in [0, {size}]")
        idx, counts = np.empty(n, dtype="<i8"), np.empty(n, dtype="<i8")
        _transfer(fp.readinto, idx, f"truncated snapshot while reading {name} indices")
        _transfer(fp.readinto, counts, f"truncated snapshot while reading {name} counts")
        if n and not (idx[0] >= 0 and idx[-1] < size and (np.diff(idx) > 0).all()):
            raise ValueError(
                f"snapshot array {name}: indices must be strictly increasing in [0, {size})"
            )
        low = counts.min(initial=1)
        if low < 0:
            raise ValueError(f"negative counter in snapshot array {name}")
        if low == 0:
            raise ValueError(f"non-canonical snapshot: stored zero counter in array {name}")
        entries[name] = idx, counts
    if fp.read(1):
        raise ValueError("trailing bytes after snapshot arrays")
    totals = _dense(shapes["tp_totals"], entries["tp_totals"])
    top = totals[..., -1].reshape(-1)
    cell, counts = entries["tp_buckets"][0] // config.buckets, entries["tp_buckets"][1]
    sums = np.zeros_like(top)
    np.add.at(sums, cell, counts)
    # np.add.at wraps silently; a wrapped sum that equals top (< 2**63) has
    # a true sum >= 2**64, which the float64 sum shows well past 1.5 * 2**63.
    if (sums != top).any() or (np.bincount(cell, counts, len(top)) >= 3.0 * 2**62).any():
        raise ValueError(
            "snapshot array tp_totals: its last max-dets column is not the sum of tp_buckets"
        )
    if (np.diff(totals, axis=-1) < 0).any():
        raise ValueError("snapshot array tp_totals: a count decreases along max-dets")
    if (totals > _dense(shapes["gt_counts"], entries["gt_counts"])[..., None]).any():
        raise ValueError("snapshot array tp_totals: a count exceeds its gt_counts")
    return config, entries


def _add_entries(a: dict, b: dict) -> dict:
    """The entries of the sum of two snapshots' states, from their entries
    as _read_entries returns them; the configs must match. Raises
    ValueError, naming the array, if a sum overflows int64."""
    total = {}
    for name in a:
        idx, counts_a, counts_b = _join(a[name], b[name])
        total[name] = idx, _checked_sum(name, counts_a, counts_b)
    return total


def _checked_sum(name: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b for int64 arrays; ValueError naming the array if an entry
    overflows, which is when both addends differ in sign from the sum."""
    total = a + b
    if (((a ^ total) & (b ^ total)) < 0).any():
        raise ValueError(f"counter overflow in array {name}: a sum is outside int64")
    return total
