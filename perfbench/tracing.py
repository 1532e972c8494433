"""Spans around calls into cocostream's public functions.

``Tracer.install`` replaces each function in ``TRACED``, wherever a cocostream
module holds a reference to it, with a wrapper that records a span (id, name,
start, end, parent span, run id) in memory; ``uninstall`` puts the originals
back. Nothing under ``src/`` changes. A function that no longer exists is
reported as not traced, and so is a counter whose hook no longer fits the
function's arguments or result.

In ``alloc`` mode the wrappers instead record the ``tracemalloc`` peak inside
the outermost call of each function in ``ALLOC_SPANS``; the caller starts and
stops ``tracemalloc``, since it distorts timing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

TRACED = (
    "cli.main",
    "ingest.load_ground_truth",
    "ingest.load_detections",
    "ingest.sample_images",
    "ingest.perturb",
    "matching.match_image",
    "streaming.update",
    "streaming.finalize",
    "streaming.merge",
    "streaming.load_state",
    "streaming.save_state",
    "oracle.evaluate_exact",
    "bench.run_synth_bench",
)
ALLOC_SPANS = (
    "streaming.update",
    "streaming.merge",
    "streaming.load_state",
    "oracle.evaluate_exact",
)
ROOT_SPAN = "perfbench.run"

# (span whose self time is reported, metric name)
SELF_TIMES = (
    ("cli.main", "cli.self_s"),
    ("streaming.update", "streaming.update.self_s"),
    ("oracle.evaluate_exact", "oracle.self_s"),
    ("bench.run_synth_bench", "bench.self_s"),
)
CALL_COUNTS = (
    ("matching.match_image", "matching.match_image_calls"),
    ("streaming.update", "streaming.update_calls"),
    ("streaming.merge", "streaming.merge_calls"),
)
COUNTERS = (
    "ingest.records",
    "matching.dets_in",
    "matching.gts_in",
    "matching.padding_dropped",
    "matching.dets_cut_by_maxdets",
    "streaming.snapshot_bytes",
)

# Every per-layer metric a traced run reports: name -> unit.
PER_LAYER = {
    **{f"{span}_s": "s" for span in TRACED},
    **{name: "s" for _, name in SELF_TIMES},
    **{name: "count" for _, name in CALL_COUNTS},
    **{name: ("bytes" if name.endswith("_bytes") else "count") for name in COUNTERS},
    "streaming.state_nbytes": "bytes",
    "streaming.bucket_occupancy": "fraction",
    "streaming.state_nbytes_coco80": "bytes",
    **{f"{span}.alloc_peak_mb": "MB" for span in ALLOC_SPANS},
    "streaming.map_abs_err_max": "MaP",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.top_coverage": "fraction",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    def __init__(self) -> None:
        self.mode = "off"  # "off", "time" or "alloc"
        self.spans: list[Span] = []
        self.counts: Counter[tuple[int, str]] = Counter()  # (run id, counter) -> total
        self.alloc_peak: dict[str, int] = {}
        self.not_traced: set[str] = set()
        self.last_state = None
        self.run = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._alloc_depth = 0
        self._installed: list[tuple[object, str, Callable]] = []

    # -- installing the wrappers ------------------------------------------

    def install(self) -> None:
        for name in TRACED:
            module_name, func_name = name.split(".")
            try:
                module = importlib.import_module(f"cocostream.{module_name}")
            except ImportError:
                module = None
            func = getattr(module, func_name, None)
            if not callable(func):
                self.not_traced.add(name)
                continue
            wrapper = self._wrap(name, func)
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "cocostream"]:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, func))

    def uninstall(self) -> None:
        for mod, attr, func in reversed(self._installed):
            setattr(mod, attr, func)
        self._installed.clear()

    def _wrap(self, name: str, func: Callable) -> Callable:
        hook = HOOKS.get(name)
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self.mode == "alloc" and name in ALLOC_SPANS and not self._alloc_depth:
                return self._call_alloc(name, func, args, kwargs)
            if self.mode != "time":
                return func(*args, **kwargs)
            with self.span(name):
                result = func(*args, **kwargs)
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    hook(self, bound, result)
                except (AttributeError, KeyError, TypeError):
                    self.not_traced.add(f"{name} counters")
            return result

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run))

    def _call_alloc(self, name, func, args, kwargs):
        self._alloc_depth += 1
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return func(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] - base
            self._alloc_depth -= 1
            self.alloc_peak[name] = max(self.alloc_peak.get(name, 0), peak)

    def count(self, counter: str, n: int) -> None:
        self.counts[(self.run, counter)] += n

    # -- reducing spans to per-layer metrics ------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals of each traced run, as medians over the runs in
        which the layer ran (a run's closing ``finalize`` runs once)."""
        runs = sorted({s.run for s in self.spans if s.name == ROOT_SPAN})
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        per_run: list[Counter[str]] = []
        for run in runs:
            totals: Counter[str] = Counter()
            for s in self.spans:
                if s.run != run:
                    continue
                duration = s.end - s.start
                if s.name == ROOT_SPAN:
                    # A run that called no layer (an empty wrap-up) has no coverage.
                    if s.id in children and duration > 0:
                        top = sum(c.end - c.start for c in children[s.id])
                        totals["trace.top_coverage"] = top / duration
                    continue
                totals[f"{s.name}_s"] += duration
                for span, metric in SELF_TIMES:
                    if s.name == span:
                        totals[metric] += duration - _covered(s, children.get(s.id, ()))
                for span, metric in CALL_COUNTS:
                    if s.name == span:
                        totals[metric] += 1
            for counter in COUNTERS:
                if (run, counter) in self.counts:
                    totals[counter] = self.counts[(run, counter)]
            per_run.append(totals)
        metrics = {metric for totals in per_run for metric in totals}
        out = {
            m: statistics.median(totals[m] for totals in per_run if m in totals) for m in metrics
        }
        for name, peak in self.alloc_peak.items():
            out[f"{name}.alloc_peak_mb"] = peak / 1e6
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered(span: Span, children) -> float:
    """Length of the part of ``span`` that its child spans cover."""
    total, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def state_nbytes(state) -> int:
    """Bytes held by a state's arrays."""
    return sum(a.nbytes for a in vars(state).values() if isinstance(a, np.ndarray))


def state_stats(state) -> dict[str, float]:
    """A state's bytes, and the share of its buckets where tp or fp is non-zero."""
    tp, fp = state.tp_buckets, state.fp_buckets
    return {
        "streaming.state_nbytes": state_nbytes(state),
        "streaming.bucket_occupancy": np.count_nonzero((tp != 0) | (fp != 0)) / tp.size,
    }


# -- counters taken from the arguments or result of a call -------------------


def _count_match_inputs(tracer: Tracer, args: dict, result) -> None:
    dets = [d for d in args["detections"] if d.class_id != -1]
    gts = [g for g in args["ground_truths"] if g.class_id != -1]
    tracer.count("matching.dets_in", len(dets))
    tracer.count("matching.gts_in", len(gts))
    tracer.count(
        "matching.padding_dropped",
        len(args["detections"]) + len(args["ground_truths"]) - len(dets) - len(gts),
    )
    per_class = Counter(d.class_id for d in dets)
    tracer.count(
        "matching.dets_cut_by_maxdets",
        sum(max(0, n - m) for m in args["config"].max_dets_list for n in per_class.values()),
    )


def _count_ground_truths(tracer: Tracer, args: dict, result) -> None:
    tracer.count("ingest.records", sum(len(rec.ground_truths) for rec in result.images))


def _count_detections(tracer: Tracer, args: dict, result) -> None:
    tracer.count("ingest.records", sum(len(rec.detections) for rec in result.images))


def _count_snapshot(tracer: Tracer, args: dict, result) -> None:
    tracer.count("streaming.snapshot_bytes", args["fp"].tell())


def _keep_state(tracer: Tracer, args: dict, result) -> None:
    tracer.last_state = result


HOOKS = {
    "matching.match_image": _count_match_inputs,
    "ingest.load_ground_truth": _count_ground_truths,
    "ingest.load_detections": _count_detections,
    "streaming.save_state": _count_snapshot,
    "streaming.update": _keep_state,
    "streaming.merge": _keep_state,
    "streaming.load_state": _keep_state,
}
