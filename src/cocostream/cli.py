"""Command-line front end: evaluate, merge, report, synth-bench."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import astuple, fields
from functools import partial
from pathlib import Path
from typing import ContextManager, Iterable, TextIO

from .bench import ErrorMarginRow, MetricSummary, _score_run, summarize, synthetic_runs
from .config import METRIC_LABELS, METRIC_NAMES, AreaRange, EvalConfig, MetricReport
from .ingest import (
    PerturbationParams,
    _read_annotations,
    _read_results,
    dataset_to_annotation_doc,
    dataset_to_results_doc,
    load_ground_truth,
)
from .matching import _match_columns
from .oracle import exact_report
from .streaming import (
    MergeError,
    _add_entries,
    _finalize_entries,
    _match_entries,
    _read_entries,
    _write_entries,
)

def _flag_type(parse):
    """An argparse type= callable: a ValueError from parse is printed after
    the flag's name, and the command exits with code 2."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None

    return convert


def _list(text: str, kind=float) -> tuple:
    values = tuple(kind(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("expected a comma-separated list")
    return values


def _count(text: str, low: int = 1) -> int:
    n = int(text)
    if n < low:
        raise ValueError(f"must be >= {low}, got {n}")
    return n


def _area_range(text: str) -> tuple[str, AreaRange]:
    """Parse 'name:min:max'; an empty max means unbounded."""
    if text.count(":") != 2:
        raise ValueError(f"expected name:min:max, got {text!r}")
    name, lo, hi = text.split(":")
    return name, AreaRange(float(lo), math.inf if hi == "" else float(hi))


def _field_flag(kind, parse, *names: str, **fixed):
    """A type= callable that parses a flag's value and checks it by building
    the dataclass kind with the value as each field in names (a scale flag
    sets both) and fixed as other fields, so a range or order error names
    the flag."""
    return _flag_type(
        lambda text: getattr(kind(**fixed, **dict.fromkeys(names, parse(text))), names[0])
    )


def _build_config(args: argparse.Namespace, num_classes: int) -> EvalConfig:
    if num_classes == 0:
        raise ValueError(f"{args.ground_truth}: annotation document 'categories' section is empty")
    flags = ("buckets", "iou_thresholds", "recall_thresholds", "max_dets_list", "area_ranges")
    overrides = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    return EvalConfig(num_classes=num_classes, **overrides)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    field = partial(_field_flag, EvalConfig, num_classes=1)
    p.add_argument(
        "--buckets", type=field(int, "buckets"), help="confidence buckets (default 10000)"
    )
    p.add_argument(
        "--iou-thresholds", type=field(_list, "iou_thresholds"), metavar="T1,T2,...",
        help="comma-separated IoU thresholds (default 0.50:0.05:0.95)",
    )
    p.add_argument(
        "--recall-thresholds", type=field(_list, "recall_thresholds"), metavar="R1,R2,...",
        help="comma-separated recall thresholds (default 0.00:0.01:1.00)",
    )
    p.add_argument(
        "--max-dets", type=field(lambda t: _list(t, int), "max_dets_list"),
        dest="max_dets_list", metavar="M1,M2,...",
        help="comma-separated max-detection limits (default 1,10,100)",
    )
    p.add_argument(
        "--area-ranges", type=field(lambda t: _list(t, _area_range), "area_ranges"),
        metavar="name:min:max,...",
        help="area ranges as name:min:max (empty max = unbounded); "
        "default all/small/medium/large COCO ranges",
    )


def _write_report(report: MetricReport, fmt: str, out) -> None:
    values = report.as_dict()
    if fmt == "json":
        json.dump(values, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["metric", "value"])
        for name in METRIC_NAMES:
            writer.writerow([name, f"{values[name]:.6f}"])
    else:
        width = max(len(lbl) for lbl in METRIC_LABELS.values())
        for name in METRIC_NAMES:
            out.write(f"{METRIC_LABELS[name]:<{width}}  {values[name]:>9.6f}\n")


def _columns(kind) -> list[str]:
    return [f.name for f in fields(kind)]


def _write_records(out: TextIO, kind, records: Iterable) -> None:
    """CSV of dataclass records under a header of kind's field names;
    floats are written with 9 decimals."""
    writer = csv.writer(out)
    writer.writerow(_columns(kind))
    for r in records:
        writer.writerow(f"{v:.9f}" if isinstance(v, float) else v for v in astuple(r))


def _output(path: str | None, default: TextIO) -> ContextManager[TextIO]:
    """The file at path, opened for writing and closed on exit, or default
    (left open) when no path is given."""
    return open(path, "w", newline="") if path else nullcontext(default)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.mode == "exact" and args.state_out:
        raise ValueError("--state-out needs --mode streaming; exact mode keeps no state")
    image_ids, category_ids, gts = _read_annotations(args.ground_truth)
    config = _build_config(args, num_classes=len(category_ids))
    dets = _read_results(args.detections, image_ids, category_ids)
    matches = _match_columns(config, len(image_ids), dets, gts)
    if args.mode == "exact":
        report = exact_report(matches)
    else:
        # The snapshot entries come straight from the matches: no dense state.
        entries = _match_entries(matches)
        report = _finalize_entries(config, entries)
        if args.state_out:
            with open(args.state_out, "wb") as fh:
                _write_entries(fh, config, entries)
    with _output(args.output, sys.stdout) as out:
        _write_report(report, args.format, out)
    return 0


def _sum_snapshots(paths) -> tuple[EvalConfig, dict]:
    """The config and summed entries of the snapshots at paths, with no
    dense state; every input is read and checked, and an error names the
    file it comes from."""
    config = total = prev_path = None
    for path in paths:
        with open(path, "rb") as fh:
            try:
                path_config, entries = _read_entries(fh)
            except (ValueError, MemoryError) as exc:
                raise ValueError(f"{exc} (reading {path})") from None
        if total is None:
            config, total = path_config, entries
        elif path_config != config:
            raise MergeError(f"config mismatch between {prev_path} and {path}")
        else:
            try:
                total = _add_entries(total, entries)
            except ValueError as exc:
                raise ValueError(f"adding {path}: {exc}") from None
        prev_path = path
    return config, total


def _cmd_merge(args: argparse.Namespace) -> int:
    config, total = _sum_snapshots(args.states)
    with open(args.output, "wb") as fh:
        _write_entries(fh, config, total)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = _finalize_entries(*_sum_snapshots(args.states))
    with _output(args.output, sys.stdout) as out:
        _write_report(report, args.format, out)
    return 0


def _cmd_synth_bench(args: argparse.Namespace) -> int:
    gt = load_ground_truth(args.ground_truth)
    config = _build_config(args, num_classes=gt.num_classes)
    params = PerturbationParams(
        translate_fraction=args.translate_fraction,
        scale_low=args.scale_low,
        scale_high=args.scale_high,
    )
    runs = synthetic_runs(gt, args.image_counts, args.repeats, args.seed, params)
    rows: list[ErrorMarginRow] = []
    for n, run, synthetic in runs:
        rows += _score_run(config, n, run, synthetic)
        if args.emit_json:
            emit_dir = Path(args.emit_json)
            emit_dir.mkdir(parents=True, exist_ok=True)
            stem = f"n{n}_run{run}"
            with open(emit_dir / f"{stem}_annotations.json", "w") as fh:
                json.dump(dataset_to_annotation_doc(synthetic), fh)
            with open(emit_dir / f"{stem}_detections.json", "w") as fh:
                json.dump(dataset_to_results_doc(synthetic), fh)

    with _output(args.output, sys.stdout) as out:
        _write_records(out, ErrorMarginRow, rows)
    with _output(args.summary_output, sys.stderr) as out:
        _write_records(out, MetricSummary, summarize(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocostream",
        description="Streaming and exact COCO detection metric evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "evaluate", help="compute the 12 COCO metrics for a GT/detections pair"
    )
    p_eval.add_argument("ground_truth", help="annotation JSON (images/annotations/categories)")
    p_eval.add_argument("detections", help="results JSON (image_id/category_id/bbox/score rows)")
    p_eval.add_argument("--mode", choices=("streaming", "exact"), default="streaming")
    p_eval.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_eval.add_argument("--output", default=None, help="write report here instead of stdout")
    p_eval.add_argument(
        "--state-out", default=None,
        help="streaming mode: also write the bucketed state snapshot here",
    )
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_merge = sub.add_parser("merge", help="merge bucketed state snapshots")
    p_merge.add_argument("states", nargs="+", help="state snapshot files")
    p_merge.add_argument("--output", required=True, help="merged snapshot path")
    p_merge.set_defaults(func=_cmd_merge)

    p_report = sub.add_parser(
        "report", help="compute the 12 COCO metrics of the sum of state snapshots"
    )
    p_report.add_argument("states", nargs="+", help="state snapshot files")
    p_report.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_report.add_argument("--output", default=None, help="write report here instead of stdout")
    p_report.set_defaults(func=_cmd_report)

    p_bench = sub.add_parser(
        "synth-bench",
        help="streaming-vs-exact error margins on synthetic perturbed predictions; "
        "rows CSV columns: " + ",".join(_columns(ErrorMarginRow)),
    )
    p_bench.add_argument("ground_truth", help="annotation JSON to sample from")
    p_bench.add_argument(
        "--image-counts", type=_flag_type(lambda t: _list(t, _count)), required=True,
        metavar="N1,N2,...",
        help="comma-separated image counts to benchmark",
    )
    p_bench.add_argument("--repeats", type=_flag_type(_count), default=10)
    p_bench.add_argument("--seed", type=_flag_type(lambda t: _count(t, low=0)), default=0)
    params = partial(_field_flag, PerturbationParams, float)
    p_bench.add_argument("--translate-fraction", type=params("translate_fraction"), default=0.2)
    scale = params("scale_low", "scale_high")
    p_bench.add_argument("--scale-low", type=scale, default=0.8)
    p_bench.add_argument("--scale-high", type=scale, default=1.2)
    p_bench.add_argument("--output", default=None, help="rows CSV path (default stdout)")
    p_bench.add_argument(
        "--summary-output", default=None,
        help="summary CSV path (default stderr); columns: " + ",".join(_columns(MetricSummary)),
    )
    p_bench.add_argument(
        "--emit-json", default=None, metavar="DIR",
        help="also write each run's GT/detections in challenge JSON format",
    )
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=_cmd_synth_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synth-bench" and args.scale_low > args.scale_high:
        parser.error(
            f"argument --scale-low: {args.scale_low!r} is greater than"
            f" --scale-high {args.scale_high!r}"
        )
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
