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
from .streaming import _cells, _tp_totals, cell_aps, metric_report


def evaluate_exact(
    dataset: Iterable[tuple[Sequence[Detection], Sequence[GroundTruth]]],
    config: EvalConfig,
) -> MetricReport:
    """Exact 12-metric report over an in-memory dataset."""
    return exact_report(match_batch(dataset, config))


def exact_report(matches: Matches) -> MetricReport:
    """Exact 12-metric report from a matched dataset."""
    # Group columns by (theta, class, area) cell, one row of columns per
    # theta, descending confidence within a cell. The sort is stable, so
    # ties keep dataset order, then rank.
    order = np.lexsort((-matches.confidences, matches.area, matches.cls))
    cell_of = _cells(matches)[:, order].ravel()
    tp = matches.tp[:, order].ravel()
    ap = cell_aps(matches.config, matches.gt_counts, cell_of, tp, ~tp)
    return metric_report(matches.config, matches.gt_counts, _tp_totals(matches), ap)
