"""Exact reference evaluation via the global sort-by-confidence procedure.

Keeps every matched detection at the largest max-dets limit (the
variable-size record the streaming module avoids), sorts each cell's
detections globally by confidence, and walks descending-confidence prefixes
to build the exact precision-recall curve. Matching, the max-dets rule and
the 12-metric reducer are shared with the streaming path, so any difference
between the two is pure bucketing error.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .config import EvalConfig, MetricReport
from .geometry import Detection, GroundTruth
from .matching import Matches, match_batch
from .streaming import cell_ap, metric_report


def evaluate_exact(
    dataset: Iterable[tuple[Sequence[Detection], Sequence[GroundTruth]]],
    config: EvalConfig,
) -> MetricReport:
    """Exact 12-metric report over an in-memory dataset."""
    return exact_report(match_batch(dataset, config))


def exact_report(matches: Matches) -> MetricReport:
    """Exact 12-metric report from a matched dataset."""
    config = matches.config
    n_a = len(config.area_ranges)
    tp_totals = np.zeros(
        (len(config.iou_thresholds), config.num_classes, n_a, len(config.max_dets_list)),
        dtype=np.int64,
    )
    tp_index, _ = matches.kept_verdicts()
    np.add.at(tp_totals, tp_index[:4], 1)

    # Group columns by (class, area), descending confidence within a cell.
    # The sort is stable, so ties keep dataset order, then rank.
    order = np.lexsort((-matches.confidences, matches.area, matches.cls))
    cell_of = (matches.cls * n_a + matches.area)[order]
    bounds = np.searchsorted(cell_of, np.arange(config.num_classes * n_a + 1))
    tp = matches.tp[:, order]

    def ap_for(t_idx: int, k: int, a_idx: int) -> float:
        cell = k * n_a + a_idx
        flags = tp[t_idx, bounds[cell] : bounds[cell + 1]]
        return cell_ap(
            np.cumsum(flags), np.cumsum(~flags), int(matches.gt_counts[k, a_idx]),
            config.recall_thresholds,
        )

    return metric_report(config, matches.gt_counts, tp_totals, ap_for)
