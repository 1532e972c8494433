"""Run one benchmark workload against the cocostream sources beside it.

    python3 perfbench/run.py --workload val_stream --seed 1 --seconds 10 --trace 0

Set-up makes the workload's inputs from ``--seed``, timed, at least
``SETUP_REPEATS`` times and more while they take under ``SETUP_BUDGET_S`` in
all; then it builds the reference for the correctness gate. The run then repeats
timed passes until ``--seconds`` have gone by, checks every pass against
the reference, and checks the run as a whole once at the end; a pass that fails
its check or raises counts in ``failed`` and never in a timing, and a run that
fails its check fails every pass.

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``). A
pass's time is reported as a multiple of the time of a fixed calibration round
run just before and after it (``calibration.py``), as the median over the run's
passes: on a host whose cores are shared, the seconds of the same pass move by
a third from one minute to the next, and the ratio does not. The seconds are
printed beside it. Peak memory comes from one more pass, and the run's closing
step, in a fresh process. With ``--trace 1`` untraced and traced passes
alternate, the last pass (or cycle of passes) runs under ``tracemalloc``, the
closing step is traced, and the metrics are the per-layer ones
(``tracing.PER_LAYER``); the spans are written to
``.perfbench/traces/<workload>-seed<n>.json``.

Generated inputs live in ``.perfbench/work-*`` inside the checkout and are
deleted when the run ends. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 1.0
PROBE_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "pass_vs_calib": "x",
    "peak_rss_mb": "MB",
    "snapshot_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measure this long; 0 = one pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="input sizes")
    # One untimed pass over inputs already written to WORKDIR, for peak memory.
    p.add_argument("--probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program() -> None:
    """Import cocostream from ``src/`` beside the benchmark, and only there."""
    src = ROOT / "src"
    if not (src / "cocostream" / "__init__.py").is_file():
        sys.exit(f"error: no cocostream sources under {src}")
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import cocostream

    if Path(cocostream.__file__).resolve().parent != (src / "cocostream").resolve():
        sys.exit(f"error: cocostream imported from {cocostream.__file__}, not {src}")


def main(argv: list[str] | None = None, base: Path | None = None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]

    if args.probe:
        workload = make(args.seed, scale, Path(args.probe))
        workload.setup(write=False)
        workload.run()
        while not workload.at_boundary():
            workload.run()
        workload.wrap_up()
        flush(workload.workdir)
        return 0

    base = base or ROOT / ".perfbench"
    workdir = base / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or (
            len(setup_s) < SETUP_MAX_REPEATS and sum(setup_s) < SETUP_BUDGET_S
        ):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            workload = make(args.seed, scale, workdir)
            t0 = perf_counter()
            workload.setup()
            setup_s.append(perf_counter() - t0)
            flush(workdir)
        ref = workload.reference()
        if args.trace:
            result = traced_run(workload, ref, args, base)
        else:
            result = untraced_run(workload, ref, args, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_result(args, result)
    return 0


def flush(workdir: Path) -> None:
    """Write the files a set-up or pass left in ``workdir`` to disk, outside
    the timed region, so that writeback does not slow the passes after it."""
    for path in workdir.iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


class Passes:
    """Timed passes of one workload and what checking them found."""

    def __init__(self, workload, ref, calibrated: bool = False) -> None:
        self.workload = workload
        self.ref = ref
        self.calibrated = calibrated
        from perfbench.calibration import calibrate

        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.wall_s: list[float] = []
        self.calib_s: list[float] = []
        self.vs_calib: list[float] = []
        self.map_abs_err = 0.0

    def one(self, timed=None):
        """Run and check one pass; return its output if it passed, else None.

        ``timed`` is a context manager entered around the pass alone. With
        ``calibrated``, the calibration round is timed just before and just
        after the pass."""
        self.attempted += 1
        try:
            before = self.calibrate() if self.calibrated else 0.0
            t0 = perf_counter()
            with timed or nullcontext():
                output = self.workload.run()
            elapsed = perf_counter() - t0
            after = self.calibrate() if self.calibrated else 0.0
            flush(self.workload.workdir)
            outcome = self.workload.check(output, self.ref)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if outcome.problems:
            print(f"check failed: {'; '.join(outcome.problems)}", file=sys.stderr)
            self.failed += 1
            return None
        self.wall_s.append(elapsed)
        if self.calibrated:
            calib = (before + after) / 2
            self.calib_s.append(calib)
            self.vs_calib.append(elapsed / calib)
        self.map_abs_err = max(self.map_abs_err, outcome.map_abs_err)
        return output

    def until(self, seconds: float, one) -> None:
        """Call ``one`` until ``seconds`` have gone by and the workload may stop."""
        start = perf_counter()
        while True:
            one()
            if perf_counter() - start >= seconds and self.workload.at_boundary():
                return

    def finish(self, timed=None) -> None:
        """End the run and check it as a whole; if that fails, every pass fails."""
        try:
            with timed or nullcontext():
                output = self.workload.wrap_up()
            outcome = self.workload.finish(output, self.ref)
            problems = outcome.problems
        except Exception:
            traceback.print_exc()
            problems = ["ending the run raised"]
        if problems:
            print(f"run check failed: {'; '.join(problems)}", file=sys.stderr)
            self.failed = self.attempted
            self.wall_s.clear()
            self.vs_calib.clear()
        else:
            self.map_abs_err = max(self.map_abs_err, outcome.map_abs_err)


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile of ``values``; 0.0 if there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced_run(workload, ref, args, workdir: Path, setup_s: list[float]) -> dict:
    passes = Passes(workload, ref, calibrated=True)
    snapshot_bytes = 0

    def one() -> None:
        nonlocal snapshot_bytes
        output = passes.one()
        if output is not None and not snapshot_bytes:
            snapshot_bytes = workload.snapshot(output, ref).stat().st_size
            flush(workdir)

    passes.until(args.seconds, one)
    passes.finish()

    passes.attempted += 1
    if not probe(args, workdir):
        passes.failed += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6

    wall_s = passes.wall_s
    notes = {
        "passes_timed": f"{len(wall_s)}",
        "pass_s_p10": f"{quantile(wall_s, 10):.6g} s",
        "pass_s_p50": f"{quantile(wall_s, 50):.6g} s",
        "pass_s_p90": f"{quantile(wall_s, 90):.6g} s",
        "pass_vs_calib_p90": f"{quantile(passes.vs_calib, 90):.6g} x",
        "calib_s_p50": f"{quantile(passes.calib_s, 50):.6g} s",
        "setups_timed": f"{len(setup_s)}",
        "map_abs_err_max": f"{passes.map_abs_err:.3g} MaP",
    }
    return {
        "passes": passes,
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "pass_vs_calib": quantile(passes.vs_calib, 50),
            "peak_rss_mb": peak_rss_mb,
            "snapshot_mb": snapshot_bytes / 1e6,
        },
        "units": END_TO_END,
        "notes": notes,
    }


def probe(args, workdir: Path) -> bool:
    """One pass in a fresh process, so its peak resident memory is the pass's."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--scale", args.scale,
        "--probe", str(workdir),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"probe pass timed out after {PROBE_TIMEOUT_S} s", file=sys.stderr)
        return False
    return proc.returncode == 0


def traced_run(workload, ref, args, base: Path) -> dict:
    import cocostream as cs
    from perfbench import tracing

    tracer = tracing.Tracer()
    passes = Passes(workload, ref)
    plain_s, traced_s = [], []
    metrics = dict.fromkeys(tracing.PER_LAYER, 0.0)
    def one() -> None:
        if passes.one() is not None:
            plain_s.append(passes.wall_s[-1])
        tracer.run += 1
        tracer.mode = "time"
        output = passes.one(timed=tracer.span(tracing.ROOT_SPAN))
        tracer.mode = "off"
        if output is not None:
            traced_s.append(passes.wall_s[-1])
            if tracer.last_state is not None:
                try:
                    metrics.update(tracing.state_stats(tracer.last_state))
                except AttributeError:
                    tracer.not_traced.add("streaming state arrays")
        tracer.last_state = None

    tracer.install()
    try:
        passes.until(args.seconds, one)
        tracemalloc.start()
        tracer.mode = "alloc"
        try:
            passes.until(0, passes.one)
        finally:
            tracer.mode = "off"
            tracemalloc.stop()
        tracer.run += 1
        tracer.mode = "time"
        try:
            passes.finish(timed=tracer.span(tracing.ROOT_SPAN))
        finally:
            tracer.mode = "off"
    finally:
        tracer.uninstall()

    metrics.update(tracer.layer_metrics())
    # np.zeros leaves the pages untouched, so this costs no resident memory.
    coco80 = cs.new_state(cs.EvalConfig(num_classes=80))
    metrics["streaming.state_nbytes_coco80"] = tracing.state_nbytes(coco80)
    del coco80
    metrics["streaming.map_abs_err_max"] = passes.map_abs_err
    # Traced and untraced passes alternate, so both see the host in the same
    # states; their medians are compared.
    if traced_s:
        metrics["trace.wall_s"] = statistics.median(traced_s)
    if traced_s and plain_s:
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)

    trace_dir = base / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    trace_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "not_traced": sorted(tracer.not_traced),
                "spans": tracer.dump(),
            }
        )
    )
    notes = {name: "not traced" for name in sorted(tracer.not_traced)}
    notes["spans"] = f"{len(tracer.spans)} written to {trace_path}"
    return {"passes": passes, "metrics": metrics, "units": tracing.PER_LAYER, "notes": notes}


def print_result(args, result: dict) -> None:
    passes: Passes = result["passes"]
    print(
        f"{args.workload} seed={args.seed} scale={args.scale} trace={args.trace}: "
        f"{passes.failed} of {passes.attempted} operations failed "
        f"(failed_frac {passes.failed / passes.attempted:.3g})"
    )
    for name, value in result["metrics"].items():
        print(f"  {name:<40} {value:>14.6g} {result['units'][name]}")
    for name, note in result["notes"].items():
        print(f"  {name:<40} {note}")
    print(
        json.dumps(
            {
                "correct": passes.failed == 0,
                "attempted": passes.attempted,
                "failed": passes.failed,
                "metrics": {
                    name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )


if __name__ == "__main__":
    sys.exit(main())
