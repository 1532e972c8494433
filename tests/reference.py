"""Straightforward references that tests hold the library to.

Matching: brute_force_tp_flags is an independent greedy matcher with its
own IoU arithmetic and explicit scans, and greedy_cell applies it to one
(class, threshold, area, max-dets) grid cell of match_image, with its own
area product and range test. Nothing here imports box arithmetic from
cocostream (tests/test_api.py checks the imports).

Reduction: finalize in cocostream.streaming reduces only the occupied
buckets and fills one AP array; dense_finalize keeps the form it replaced,
one ap_for(t, k, a) callback per cell over the full bucket axis and a mean
over a Python list, so tests can require bit-identical reports.
"""

from typing import Callable, Sequence

import numpy as np

from cocostream import (
    UNDEFINED,
    AreaRange,
    BucketedState,
    EvalConfig,
    MetricReport,
    interpolate_ap,
)


def brute_force_tp_flags(dets, gts, theta):
    """Independent greedy reference: fresh IoU arithmetic, explicit scans."""

    def brute_iou(a, b):
        ix = max(0.0, min(a.right, b.right) - max(a.left, b.left))
        iy = max(0.0, min(a.bottom, b.bottom) - max(a.top, b.top))
        inter = ix * iy
        area_a = (a.right - a.left) * (a.bottom - a.top)
        area_b = (b.right - b.left) * (b.bottom - b.top)
        union = area_a + area_b - inter
        return inter / union if union > 0 else 0.0

    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    taken = set()
    flags = []
    for i in order:
        candidates = [
            (brute_iou(dets[i].box, g.box), j)
            for j, g in enumerate(gts)
            if j not in taken
        ]
        best = max(candidates, key=lambda c: (c[0], -c[1]), default=(0.0, None))
        if best[1] is not None and best[0] >= theta:
            taken.add(best[1])
            flags.append(True)
        else:
            flags.append(False)
    return flags


def greedy_cell(dets, gts, theta: float, max_dets: int, area: AreaRange):
    """One class's grid cell: both sides filtered by area, detections
    stably sorted by descending confidence and cut at max_dets, then
    brute-force matched. Returns (((confidence, is_tp), ...), gt_count)."""

    def in_area(box) -> bool:
        a = (box.right - box.left) * (box.bottom - box.top)
        return area.min_area <= a < area.max_area

    gts = [g for g in gts if in_area(g.box)]
    dets = sorted((d for d in dets if in_area(d.box)), key=lambda d: -d.confidence)[:max_dets]
    flags = brute_force_tp_flags(dets, gts, theta)
    return tuple((d.confidence, f) for d, f in zip(dets, flags)), len(gts)


def cell_ap(tpc: np.ndarray, fpc: np.ndarray, gamma: int, recall_thresholds) -> float:
    """AP of one cell from cumulative TP / FP counts along descending
    confidence; points with no detection yet have precision 0. One call per
    cell is the reference for streaming.cell_aps, which reduces all cells at
    once."""
    denom = tpc + fpc
    precisions = np.divide(tpc, denom, out=np.zeros(len(tpc), dtype=float), where=denom > 0)
    return interpolate_ap(tpc / gamma, precisions, recall_thresholds)


def metric_report(
    config: EvalConfig,
    gt_counts: np.ndarray,
    tp_totals: np.ndarray,
    ap_for: Callable[[int, int, int], float],
) -> MetricReport:
    """The 12-metric report with one ap_for(t_idx, k, a_idx) call per
    (theta, class-with-ground-truth) of each metric's area."""
    all_t = range(len(config.iou_thresholds))

    def mean(area_name: str, value, t_indices: Sequence[int] = all_t) -> float:
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
        return mean(area_name, lambda t, k, a: tp_totals[t, k, a, m_idx] / gt_counts[k, a])

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


def dense_finalize(state: BucketedState) -> MetricReport:
    """finalize over every bucket at the largest max-dets limit."""
    cfg = state.config

    def ap_for(t_idx: int, k: int, a_idx: int) -> float:
        # Suffix sums over the bucket axis: entry i counts detections whose
        # bucket index is >= buckets - 1 - i.
        return cell_ap(
            np.cumsum(state.tp_buckets[t_idx, k, a_idx, 0, ::-1]),
            np.cumsum(state.fp_buckets[t_idx, k, a_idx, 0, ::-1]),
            int(state.gt_counts[k, a_idx]),
            cfg.recall_thresholds,
        )

    return metric_report(cfg, state.gt_counts, state.tp_totals, ap_for)
