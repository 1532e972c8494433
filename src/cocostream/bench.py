"""Synthetic perturbation benchmark: streaming vs. exact error margins.

For each requested image count, the ground-truth pool is sampled, each
ground truth is jittered into a synthetic prediction, and each image is
matched once; both evaluation paths reduce that one match. Repeating with
fresh seeds yields per-metric absolute-error distributions summarized as
min/max/mean/std.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .config import METRIC_NAMES, UNDEFINED, EvalConfig
from .ingest import Dataset, PerturbationParams, perturb, sample_images
from .matching import match_batch
from .oracle import exact_report
from .streaming import add_matches, finalize, new_state


@dataclass(frozen=True)
class ErrorMarginRow:
    metric_name: str
    n_images: int
    run_index: int
    streaming_value: float
    exact_value: float
    abs_error: float  # UNDEFINED when either side is undefined


@dataclass(frozen=True)
class MetricSummary:
    metric_name: str
    n_runs: int
    min_error: float
    max_error: float
    mean_error: float
    std_error: float


def synthetic_runs(
    ground_truth: Dataset,
    image_counts: Sequence[int],
    repeats: int,
    seed: int,
    params: PerturbationParams,
) -> Iterator[tuple[int, int, Dataset, Dataset]]:
    """Yield (n, run_index, sampled, synthetic) per image count and repeat.

    One SeedSequence(seed) supplies two seeds per run, in run order: first
    the sampling seed, then the perturbation seed.
    """
    seeds = iter(np.random.SeedSequence(seed).generate_state(2 * len(image_counts) * repeats))
    for n in image_counts:
        for run in range(repeats):
            sampled = sample_images(ground_truth, n, seed=int(next(seeds)))
            synthetic = perturb(sampled, replace(params, seed=int(next(seeds))))
            yield n, run, sampled, synthetic


def run_synth_bench(
    ground_truth: Dataset,
    config: EvalConfig,
    image_counts: Sequence[int],
    repeats: int = 10,
    seed: int = 0,
    params: PerturbationParams | None = None,
) -> list[ErrorMarginRow]:
    """One ErrorMarginRow per (image count, run, metric)."""
    for n in image_counts:
        if n > len(ground_truth.images):
            raise ValueError(
                f"image count {n} exceeds dataset size {len(ground_truth.images)}"
            )
    runs = synthetic_runs(ground_truth, image_counts, repeats, seed, params or PerturbationParams())
    rows: list[ErrorMarginRow] = []
    for n, run, _, synthetic in runs:
        matches = match_batch(synthetic.pairs(), config)
        sd = finalize(add_matches(new_state(config), matches)).as_dict()
        ed = exact_report(matches).as_dict()
        for name in METRIC_NAMES:
            sv, ev = sd[name], ed[name]
            defined = sv != UNDEFINED and ev != UNDEFINED
            rows.append(
                ErrorMarginRow(
                    metric_name=name,
                    n_images=n,
                    run_index=run,
                    streaming_value=sv,
                    exact_value=ev,
                    abs_error=abs(sv - ev) if defined else UNDEFINED,
                )
            )
    return rows


def summarize(rows: Sequence[ErrorMarginRow]) -> list[MetricSummary]:
    """Min/max/mean/std of the absolute error per metric, defined runs only."""
    summaries = []
    for name in METRIC_NAMES:
        errors = [r.abs_error for r in rows if r.metric_name == name and r.abs_error != UNDEFINED]
        arr = np.array(errors)
        stats = (arr.min(), arr.max(), arr.mean(), arr.std()) if errors else (UNDEFINED,) * 4
        summaries.append(MetricSummary(name, len(errors), *map(float, stats)))
    return summaries
