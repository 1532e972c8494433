"""Exact reference evaluation via the global sort-by-confidence procedure.

Keeps every image's (class, area) match at the largest max-dets limit (the
variable-size state the streaming module avoids), sorts each cell's
detections globally by confidence, and walks descending-confidence prefixes
to build the exact precision-recall curve. Matching and the 12-metric
reducer are shared with the streaming path, so any difference between the
two is pure bucketing error.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .config import EvalConfig, MetricReport
from .geometry import Detection, GroundTruth
from .matching import CellMatches, match_image
from .streaming import cell_ap, metric_report


def evaluate_exact(
    dataset: Iterable[tuple[Sequence[Detection], Sequence[GroundTruth]]],
    config: EvalConfig,
) -> MetricReport:
    """Exact 12-metric report over an in-memory dataset."""
    n_k = config.num_classes
    n_a = len(config.area_ranges)
    limits = np.array(config.max_dets_list)

    # Non-empty matches per (class, area) in dataset order, so the stable
    # global sort breaks confidence ties by image order.
    matches: dict[tuple[int, int], list[CellMatches]] = {}
    gamma = np.zeros((n_k, n_a), dtype=np.int64)
    tp_totals = np.zeros((len(config.iou_thresholds), n_k, n_a, len(limits)), dtype=np.int64)

    for detections, ground_truths in dataset:
        for (k, a_idx), cell in match_image(detections, ground_truths, config).cells.items():
            gamma[k, a_idx] += cell.gt_count
            n = len(cell.confidences)
            if n:
                # TP count of each limit's prefix, per IoU threshold.
                prefix_tp = np.cumsum(cell.tp, axis=1)
                tp_totals[:, k, a_idx] += prefix_tp[:, np.minimum(limits, n) - 1]
                matches.setdefault((k, a_idx), []).append(cell)

    def ap_for(t_idx: int, k: int, a_idx: int) -> float:
        cells = matches.get((k, a_idx))
        if not cells:
            return 0.0
        conf = np.concatenate([c.confidences for c in cells])
        tp = np.concatenate([c.tp[t_idx] for c in cells])[np.argsort(-conf, kind="stable")]
        return cell_ap(np.cumsum(tp), np.cumsum(~tp), int(gamma[k, a_idx]), config.recall_thresholds)

    return metric_report(config, gamma, tp_totals, ap_for)
