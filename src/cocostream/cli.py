"""Command-line front end: evaluate, merge, synth-bench."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .bench import run_synth_bench, summarize, synthetic_runs
from .config import (
    METRIC_LABELS,
    METRIC_NAMES,
    AreaRange,
    ConfigError,
    EvalConfig,
    MetricReport,
)
from .ingest import (
    Dataset,
    ParseError,
    PerturbationParams,
    ValidationError,
    dataset_to_annotation_doc,
    dataset_to_results_doc,
    load_detections,
    load_ground_truth,
)
from .oracle import evaluate_exact
from .streaming import MergeError, finalize, load_state, merge_into, new_state, save_state, update

ROW_COLUMNS = (
    "metric_name",
    "n_images",
    "run_index",
    "streaming_value",
    "exact_value",
    "abs_error",
)
SUMMARY_COLUMNS = ("metric_name", "n_runs", "min_error", "max_error", "mean_error", "std_error")


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


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _area_range(text: str) -> tuple[str, AreaRange]:
    """Parse 'name:min:max'; an empty max means unbounded."""
    if text.count(":") != 2:
        raise ValueError(f"expected name:min:max, got {text!r}")
    name, lo, hi = text.split(":")
    return name, AreaRange(float(lo), math.inf if hi == "" else float(hi))


def _config_field(field: str, parse):
    """A type= callable that also checks the value as the EvalConfig field
    it sets, so a range or order error names the flag."""
    return _flag_type(
        lambda text: getattr(EvalConfig(num_classes=1, **{field: parse(text)}), field)
    )


def _build_config(args: argparse.Namespace, num_classes: int) -> EvalConfig:
    flags = ("buckets", "iou_thresholds", "recall_thresholds", "max_dets_list", "area_ranges")
    overrides = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    return EvalConfig(num_classes=num_classes, **overrides)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--buckets", type=_config_field("buckets", int), help="confidence buckets (default 10000)"
    )
    p.add_argument(
        "--iou-thresholds", type=_config_field("iou_thresholds", _list), metavar="T1,T2,...",
        help="comma-separated IoU thresholds (default 0.50:0.05:0.95)",
    )
    p.add_argument(
        "--recall-thresholds", type=_config_field("recall_thresholds", _list), metavar="R1,R2,...",
        help="comma-separated recall thresholds (default 0.00:0.01:1.00)",
    )
    p.add_argument(
        "--max-dets", type=_flag_type(lambda t: _list(t, _count)), default=None,
        dest="max_dets_list", metavar="M1,M2,...",
        help="comma-separated max-detection limits (default 1,10,100)",
    )
    p.add_argument(
        "--area-ranges", type=_config_field("area_ranges", lambda t: _list(t, _area_range)),
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


def _cmd_evaluate(args: argparse.Namespace) -> int:
    gt = load_ground_truth(args.ground_truth)
    dataset = load_detections(args.detections, gt)
    config = _build_config(args, num_classes=gt.num_classes)
    pairs = dataset.pairs()
    if args.mode == "exact":
        report = evaluate_exact(pairs, config)
    else:
        state = update(new_state(config), pairs)
        if args.state_out:
            with open(args.state_out, "wb") as fh:
                save_state(state, fh)
        report = finalize(state)
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        _write_report(report, args.format, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    merged = None
    prev_path = None
    for path in args.states:
        with open(path, "rb") as fh:
            state = load_state(fh)
        if merged is None:
            merged = state
        else:
            try:
                merge_into(merged, state)
            except MergeError:
                raise MergeError(f"config mismatch between {prev_path} and {path}")
        prev_path = path
    with open(args.output, "wb") as fh:
        save_state(merged, fh)
    return 0


def _cmd_synth_bench(args: argparse.Namespace) -> int:
    gt = load_ground_truth(args.ground_truth)
    config = _build_config(args, num_classes=gt.num_classes)
    params = PerturbationParams(
        translate_fraction=args.translate_fraction,
        scale_low=args.scale_low,
        scale_high=args.scale_high,
        seed=args.seed,
    )
    rows = run_synth_bench(
        gt,
        config,
        image_counts=args.image_counts,
        repeats=args.repeats,
        seed=args.seed,
        params=params,
    )

    if args.emit_json:
        emit_dir = Path(args.emit_json)
        emit_dir.mkdir(parents=True, exist_ok=True)
        _emit_interchange(gt, params, args.image_counts, args.repeats, args.seed, emit_dir)

    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(ROW_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.metric_name,
                    r.n_images,
                    r.run_index,
                    f"{r.streaming_value:.9f}",
                    f"{r.exact_value:.9f}",
                    f"{r.abs_error:.9f}",
                ]
            )
    finally:
        if out is not sys.stdout:
            out.close()

    summary_out = open(args.summary_output, "w", newline="") if args.summary_output else sys.stderr
    try:
        writer = csv.writer(summary_out)
        writer.writerow(SUMMARY_COLUMNS)
        for s in summarize(rows):
            writer.writerow(
                [
                    s.metric_name,
                    s.n_runs,
                    f"{s.min_error:.9f}",
                    f"{s.max_error:.9f}",
                    f"{s.mean_error:.9f}",
                    f"{s.std_error:.9f}",
                ]
            )
    finally:
        if summary_out not in (sys.stderr, sys.stdout):
            summary_out.close()
    return 0


def _emit_interchange(
    gt: Dataset,
    params: PerturbationParams,
    image_counts,
    repeats: int,
    seed: int,
    emit_dir: Path,
) -> None:
    """Write each run's sampled GT and synthetic detections as challenge JSON."""
    for n, run, sampled, synthetic in synthetic_runs(gt, image_counts, repeats, seed, params):
        stem = f"n{n}_run{run}"
        with open(emit_dir / f"{stem}_annotations.json", "w") as fh:
            json.dump(dataset_to_annotation_doc(sampled), fh)
        with open(emit_dir / f"{stem}_detections.json", "w") as fh:
            json.dump(dataset_to_results_doc(synthetic), fh)


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

    p_bench = sub.add_parser(
        "synth-bench",
        help="streaming-vs-exact error margins on synthetic perturbed predictions; "
        "rows CSV columns: " + ",".join(ROW_COLUMNS),
    )
    p_bench.add_argument("ground_truth", help="annotation JSON to sample from")
    p_bench.add_argument(
        "--image-counts", type=_flag_type(lambda t: _list(t, _count)), required=True,
        metavar="N1,N2,...",
        help="comma-separated image counts to benchmark",
    )
    p_bench.add_argument("--repeats", type=_flag_type(_count), default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--translate-fraction", type=float, default=0.2)
    p_bench.add_argument("--scale-low", type=float, default=0.8)
    p_bench.add_argument("--scale-high", type=float, default=1.2)
    p_bench.add_argument("--output", default=None, help="rows CSV path (default stdout)")
    p_bench.add_argument(
        "--summary-output", default=None,
        help="summary CSV path (default stderr); columns: " + ",".join(SUMMARY_COLUMNS),
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
    try:
        return args.func(args)
    except (ParseError, ValidationError, ConfigError, MergeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
