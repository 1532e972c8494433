"""Self-test of the benchmark: every workload at tiny input sizes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402

run.import_program()

import cocostream as cs  # noqa: E402
from perfbench import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(capsys, base, workload, trace, seed=5):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--scale", "tiny"]
    assert run.main(argv, base=base) == 0
    out = capsys.readouterr().out.splitlines()
    return out, json.loads(out[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(capsys, tmp_path, workload, trace):
    lines, result = run_tiny(capsys, tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in spec:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]
    assert not list(tmp_path.glob("work-*")), "generated inputs left behind"
    if trace:
        spans = json.loads((tmp_path / "traces" / f"{workload}-seed5.json").read_text())
        assert spans["spans"] and spans["not_traced"] == []


def test_gate_fails_a_wrong_report(capsys, tmp_path, monkeypatch):
    real_finalize = cs.streaming.finalize

    def wrong_finalize(state):
        report = real_finalize(state).as_dict()
        report["recall_maxdets_100"] = report["recall_maxdets_100"] / 2
        return cs.MetricReport(**report)

    monkeypatch.setattr(cs.bench, "finalize", wrong_finalize)
    _, result = run_tiny(capsys, tmp_path, "exact_study", trace=0)
    assert result["correct"] is False
    # Every in-process pass fails; the peak-memory probe runs unpatched.
    assert result["failed"] == result["attempted"] - 1 >= 1


def test_run_check_fails_every_pass_of_a_wrong_run(capsys, tmp_path, monkeypatch):
    real_finalize = cs.finalize

    def wrong_finalize(state):
        report = real_finalize(state).as_dict()
        report["map_50"] = report["map_50"] + 2 * workloads.MAP_CEILING
        return cs.MetricReport(**report)

    monkeypatch.setattr(cs, "finalize", wrong_finalize)
    _, result = run_tiny(capsys, tmp_path, "train_loop", trace=0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] - 1 >= 2
    assert result["metrics"]["pass_vs_calib"]["value"] == 0.0


def test_train_loop_feeds_padded_batches_in_whole_cycles(tmp_path):
    scale = workloads.SCALES["tiny"]
    wl = workloads.TrainLoop(3, scale, tmp_path)
    wl.setup()
    for dets, gts in (pair for batch in wl.batches for pair in batch):
        assert (len(dets), len(gts)) == (scale.train_det_slots, scale.train_gt_slots)
        assert dets[-1].class_id == -1 and gts[-1].class_id == -1
    ref = wl.reference()
    for _ in range(2 * scale.train_batches):
        assert wl.check(wl.run(), ref).problems == []
    assert wl.at_boundary()
    assert wl.finish(wl.wrap_up(), ref).problems == []
    wl.run()
    assert not wl.at_boundary()
    assert wl.finish(wl.wrap_up(), ref).problems


def test_compare_reports_catches_each_kind_of_error():
    exact = {name: 0.5 for name in workloads.MAP_ROWS + workloads.RECALL_ROWS}
    assert workloads.compare_reports(dict(exact), exact) == []
    within = dict(exact, map_50=0.5 + workloads.MAP_CEILING / 2)
    assert workloads.compare_reports(within, exact) == []
    for wrong in (
        dict(exact, recall_small=0.5 + 1e-12),
        dict(exact, map_50=0.5 + 2 * workloads.MAP_CEILING),
        dict(exact, map_large=cs.UNDEFINED),
        {k: v for k, v in exact.items() if k != "map_75"},
    ):
        assert len(workloads.compare_reports(wrong, exact)) == 1


def test_compare_states_is_elementwise(tmp_path):
    wl = workloads.ShardReduce(1, workloads.SCALES["tiny"], tmp_path)
    wl.setup(write=False)
    state = cs.update(cs.new_state(wl.config), wl.shard_pairs[0])
    want = workloads.sparse_arrays(state)
    assert workloads.compare_states(state.copy(), want) == []
    off_by_one = state.copy()
    off_by_one.fp_buckets[0, 0, 0, 0, 7] += 1
    assert len(workloads.compare_states(off_by_one, want)) == 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_setup_is_deterministic(tmp_path, workload):
    made = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        wl = workloads.WORKLOADS[workload](9, workloads.SCALES["tiny"], tmp_path / d)
        wl.setup()
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())}
        inputs = {k: v for k, v in vars(wl).items() if k != "workdir" and not k.endswith("path")
                  and not k.endswith("paths")}
        made.append((files, inputs))
    assert made[0] == made[1]


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "val_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
