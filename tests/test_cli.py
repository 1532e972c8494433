import csv
import hashlib
import io
import json
import tracemalloc

import pytest

from cocostream import EvalConfig, finalize, load_state, new_state, save_state, update
from cocostream.cli import main
from cocostream.streaming import _header

from conftest import GOLDEN_METRICS, random_dataset


def run_cli(*args):
    return main([str(a) for a in args])


class TestEvaluate:
    @pytest.mark.parametrize("mode", ["exact", "streaming"])
    def test_golden_fixture_json_report(self, golden_paths, tmp_path, mode, capsys):
        gt, det = golden_paths
        out = tmp_path / "report.json"
        rc = run_cli("evaluate", gt, det, "--mode", mode, "--format", "json", "--output", out)
        assert rc == 0
        report = json.loads(out.read_text())
        for name, expected in GOLDEN_METRICS.items():
            assert report[name] == pytest.approx(expected, abs=1e-12), name

    def test_table_output(self, golden_paths, capsys):
        gt, det = golden_paths
        assert run_cli("evaluate", gt, det, "--mode", "exact") == 0
        out = capsys.readouterr().out
        assert "Standard MaP" in out
        assert "Recall Large Objects" in out

    def test_csv_output(self, golden_paths, tmp_path):
        gt, det = golden_paths
        out = tmp_path / "report.csv"
        run_cli("evaluate", gt, det, "--format", "csv", "--output", out)
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        byname = {r["metric"]: float(r["value"]) for r in rows}
        assert byname["map_small"] == pytest.approx(1.0)

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = run_cli("evaluate", tmp_path / "nope.json", tmp_path / "nada.json")
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    def test_threshold_overrides(self, golden_paths, tmp_path):
        gt, det = golden_paths
        out = tmp_path / "r.json"
        rc = run_cli(
            "evaluate", gt, det,
            "--mode", "exact", "--format", "json", "--output", out,
            "--iou-thresholds", "0.5",
            "--max-dets", "1,10,100",
        )
        assert rc == 0
        report = json.loads(out.read_text())
        # single threshold 0.5: all three detections are TP except the
        # disjoint one, so map_standard equals map_50
        assert report["map_standard"] == report["map_50"]
        assert report["map_75"] == -1.0

    def test_state_out_written(self, golden_paths, tmp_path):
        gt, det = golden_paths
        state_path = tmp_path / "state.bin"
        rc = run_cli(
            "evaluate", gt, det, "--format", "json",
            "--output", tmp_path / "r.json", "--state-out", state_path,
        )
        assert rc == 0
        with state_path.open("rb") as fh:
            state = load_state(fh)
        assert state.gt_counts.sum() > 0

    def test_huge_grid_evaluates_without_allocating_it(self, golden_paths, tmp_path):
        # evaluate never builds the dense state, so a grid of 2**40 buckets
        # costs only the matched entries, and merge and report read its snapshot
        gt, det = golden_paths
        state = tmp_path / "huge.state"
        reports = {}
        for mode in ("exact", "streaming"):
            out = tmp_path / f"{mode}.json"
            args = ["--state-out", state] if mode == "streaming" else []
            assert run_cli("evaluate", gt, det, "--mode", mode, "--format", "json",
                           "--output", out, "--buckets", 2**40, *args) == 0
            reports[mode] = json.loads(out.read_text())
        recalls = [name for name in reports["exact"] if name.startswith("recall")]
        assert recalls and all(reports["streaming"][n] == reports["exact"][n] for n in recalls)
        merged, out = tmp_path / "merged.state", tmp_path / "report.json"
        assert run_cli("merge", state, state, "--output", merged) == 0
        assert run_cli("report", state, "--format", "json", "--output", out) == 0
        assert json.loads(out.read_text()) == reports["streaming"]


class TestMerge:
    def _make_state(self, golden_paths, tmp_path, name, max_dets=None):
        gt, det = golden_paths
        path = tmp_path / name
        args = [
            "evaluate", gt, det, "--format", "json",
            "--output", tmp_path / (name + ".json"), "--state-out", path,
        ]
        if max_dets:
            args += ["--max-dets", max_dets]
        assert run_cli(*args) == 0
        return path

    def test_single_input_is_byte_identical_copy(self, golden_paths, tmp_path):
        src = self._make_state(golden_paths, tmp_path, "a.bin")
        out = tmp_path / "merged.bin"
        assert run_cli("merge", src, "--output", out) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_two_shards_equal_whole(self, golden_paths, tmp_path, capsys):
        # shard the golden fixture image by image via separate documents
        gt_doc = json.loads(golden_paths[0].read_text())
        det_rows = json.loads(golden_paths[1].read_text())
        state_paths = []
        for i, img in enumerate(gt_doc["images"]):
            shard_gt = dict(gt_doc, images=[img],
                            annotations=[a for a in gt_doc["annotations"] if a["image_id"] == img["id"]])
            shard_det = [r for r in det_rows if r["image_id"] == img["id"]]
            gt_path = tmp_path / f"gt{i}.json"
            det_path = tmp_path / f"det{i}.json"
            gt_path.write_text(json.dumps(shard_gt))
            det_path.write_text(json.dumps(shard_det))
            state_path = tmp_path / f"state{i}.bin"
            assert run_cli(
                "evaluate", gt_path, det_path, "--format", "json",
                "--output", tmp_path / f"r{i}.json", "--state-out", state_path,
            ) == 0
            state_paths.append(state_path)
        merged_path = tmp_path / "merged.bin"
        assert run_cli("merge", *state_paths, "--output", merged_path) == 0
        with merged_path.open("rb") as fh:
            merged = finalize(load_state(fh)).as_dict()
        for name, expected in GOLDEN_METRICS.items():
            assert merged[name] == pytest.approx(expected, abs=1e-12), name

    def test_three_shards_in_any_order_equal_one_update(self, small_config, tmp_path):
        shards = [random_dataset(seed, n_images=3) for seed in (31, 32, 33)]
        paths = [tmp_path / f"shard{i}.bin" for i in range(len(shards))]
        for shard, path in zip(shards, paths):
            with path.open("wb") as fh:
                save_state(update(new_state(small_config), shard), fh)
        outputs = []
        for order in ((0, 1, 2), (2, 0, 1)):
            out = tmp_path / "merged.bin"
            assert run_cli("merge", *(paths[i] for i in order), "--output", out) == 0
            outputs.append(out.read_bytes())
        whole = io.BytesIO()
        save_state(update(new_state(small_config), [p for shard in shards for p in shard]), whole)
        assert outputs[0] == outputs[1] == whole.getvalue()

    def test_bad_last_snapshot_writes_no_output(self, golden_paths, tmp_path, capsys):
        good = [self._make_state(golden_paths, tmp_path, f"good{i}.bin") for i in (1, 2)]
        bad = tmp_path / "bad.bin"
        bad.write_bytes(good[0].read_bytes()[:-1])
        out = tmp_path / "merged.bin"
        assert run_cli("merge", *good, bad, "--output", out) == 2
        assert "truncated snapshot" in capsys.readouterr().err
        assert not out.exists()

    def test_merge_holds_one_state(self, tmp_path):
        # Merge sums the snapshots' stored entries and never builds a dense
        # state, so its peak follows the snapshot sizes: a small fraction
        # of the one dense state this config would need.
        config = EvalConfig(num_classes=1)
        paths = [tmp_path / f"shard{seed}.bin" for seed in range(4)]
        for seed, path in enumerate(paths):
            state = update(new_state(config), random_dataset(seed, n_images=2, num_classes=1))
            with path.open("wb") as fh:
                save_state(state, fh)
        arrays = (state.tp_buckets, state.fp_buckets, state.tp_totals, state.gt_counts)
        nbytes = sum(a.nbytes for a in arrays)
        tracemalloc.start()
        try:
            assert run_cli("merge", *paths, "--output", tmp_path / "merged.bin") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 20

    @pytest.mark.parametrize("copies", [2, 3, 4])
    def test_overflowing_sum_fails(self, tmp_path, capsys, copies):
        # 2 * 2**62 overflows int64, and 4 copies would wrap to exactly 0
        config = EvalConfig(num_classes=1, buckets=4, iou_thresholds=(0.5,), max_dets_list=(10,))
        state = new_state(config)
        state.tp_buckets[0, 0, 0, 0, 2] = state.tp_totals[0, 0, 0, 0] = 2**62
        state.gt_counts[0, 0] = 2**62
        path = tmp_path / "big.state"
        with path.open("wb") as fh:
            save_state(state, fh)
        paths = [tmp_path / f"copy{i}.state" for i in range(copies)]
        for p in paths:
            p.write_bytes(path.read_bytes())
        out = tmp_path / "merged.state"
        assert run_cli("merge", *paths, "--output", out) == 2
        err = capsys.readouterr().err
        assert "tp_buckets" in err and "overflow" in err and "copy1.state" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_mismatch_fails(self, golden_paths, tmp_path, capsys):
        a = self._make_state(golden_paths, tmp_path, "a.bin")
        b = self._make_state(golden_paths, tmp_path, "b.bin", max_dets="1,5")
        rc = run_cli("merge", a, b, "--output", tmp_path / "m.bin")
        assert rc != 0
        err = capsys.readouterr().err
        assert "a.bin" in err and "b.bin" in err


class TestReport:
    def test_golden_snapshot_reports_like_evaluate(self, golden_paths, tmp_path, capsys):
        gt, det = golden_paths
        state = tmp_path / "golden.state"
        for fmt in ("table", "json", "csv"):
            assert run_cli("evaluate", gt, det, "--format", fmt, "--state-out", state) == 0
            want = capsys.readouterr().out
            assert run_cli("report", state, "--format", fmt) == 0
            assert capsys.readouterr().out == want

    def test_shards_report_the_whole(self, small_config, tmp_path):
        shards = [random_dataset(seed, n_images=3) for seed in (41, 42, 43)]
        paths = [tmp_path / f"shard{i}.bin" for i in range(len(shards))]
        for shard, path in zip(shards, paths):
            with path.open("wb") as fh:
                save_state(update(new_state(small_config), shard), fh)
        out = tmp_path / "report.json"
        assert run_cli("report", *paths, "--format", "json", "--output", out) == 0
        whole = update(new_state(small_config), [p for shard in shards for p in shard])
        assert json.loads(out.read_text()) == finalize(whole).as_dict()

    def test_config_mismatch_fails(self, golden_paths, tmp_path, capsys):
        gt, det = golden_paths
        paths = []
        for name, max_dets in (("a.bin", "1,10,100"), ("b.bin", "1,5")):
            paths.append(tmp_path / name)
            assert run_cli("evaluate", gt, det, "--output", tmp_path / "r.txt",
                           "--state-out", paths[-1], "--max-dets", max_dets) == 0
        out = tmp_path / "report.txt"
        assert run_cli("report", *paths, "--output", out) == 2
        err = capsys.readouterr().err
        assert "a.bin" in err and "b.bin" in err
        assert not out.exists()


class TestSynthBench:
    def test_rows_and_determinism(self, synthetic_pool_path, tmp_path):
        outputs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            rc = run_cli(
                "synth-bench", synthetic_pool_path,
                "--image-counts", "5", "--repeats", "3", "--seed", "17",
                "--buckets", "1000",
                "--output", out, "--summary-output", tmp_path / ("s_" + name),
            )
            assert rc == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
        pinned = [tmp_path / "one.csv", tmp_path / "s_one.csv"]
        assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in pinned] == [
            "2efc767448d41b7ea60961f22732d046d46912dee8f09dc380500b9b49380b0d",
            "2c5eb034817e55f5e15f4637c38e5a82dbd283b61aeac2cfc5d66598a0fd1930",
        ]
        rows = list(csv.DictReader(outputs[0].splitlines()))
        # 3 runs x 12 metrics
        assert len(rows) == 36
        per_metric = {}
        for r in rows:
            per_metric.setdefault(r["metric_name"], []).append(r)
        assert all(len(v) == 3 for v in per_metric.values())
        for r in rows:
            s, e, a = (float(r[k]) for k in ("streaming_value", "exact_value", "abs_error"))
            if s != -1.0 and e != -1.0:
                # values in the CSV are rounded to 9 decimals independently
                assert a == pytest.approx(abs(s - e), abs=2e-9)

    def test_oversized_image_count_rejected(self, golden_paths, tmp_path, capsys):
        rc = run_cli(
            "synth-bench", golden_paths[0], "--image-counts", "50",
            "--output", tmp_path / "rows.csv",
        )
        assert rc != 0

    def test_emit_json_writes_interchange_files(self, synthetic_pool_path, tmp_path):
        emit_dir = tmp_path / "emit"
        rc = run_cli(
            "synth-bench", synthetic_pool_path,
            "--image-counts", "4", "--repeats", "2", "--seed", "1",
            "--buckets", "100",
            "--output", tmp_path / "rows.csv",
            "--summary-output", tmp_path / "summary.csv",
            "--emit-json", emit_dir,
        )
        assert rc == 0
        files = sorted(p.name for p in emit_dir.iterdir())
        assert files == [
            "n4_run0_annotations.json",
            "n4_run0_detections.json",
            "n4_run1_annotations.json",
            "n4_run1_detections.json",
        ]
        doc = json.loads((emit_dir / "n4_run0_annotations.json").read_text())
        assert set(doc) == {"images", "annotations", "categories"}
        rows = json.loads((emit_dir / "n4_run0_detections.json").read_text())
        assert all(set(r) == {"image_id", "category_id", "bbox", "score"} for r in rows)

    @pytest.mark.parametrize("buckets", [100, 10000])
    @pytest.mark.parametrize("seed", range(6))
    def test_emitted_files_are_the_scored_runs(self, synthetic_pool_path, tmp_path, seed, buckets):
        # exact evaluate of each emitted pair gives that run's exact_value row by row
        emit_dir, rows_csv = tmp_path / "emit", tmp_path / "rows.csv"
        rc = run_cli(
            "synth-bench", synthetic_pool_path,
            "--image-counts", "20,100", "--repeats", "3", "--seed", seed,
            "--buckets", buckets,
            "--output", rows_csv, "--summary-output", tmp_path / "summary.csv",
            "--emit-json", emit_dir,
        )
        assert rc == 0
        want = {}
        for r in csv.DictReader(rows_csv.read_text().splitlines()):
            want.setdefault(f"n{r['n_images']}_run{r['run_index']}", {})[r["metric_name"]] = (
                r["exact_value"]
            )
        assert len(want) == 6 and all(len(metrics) == 12 for metrics in want.values())
        for stem, metrics in want.items():
            report = tmp_path / f"{stem}.json"
            rc = run_cli(
                "evaluate", emit_dir / f"{stem}_annotations.json",
                emit_dir / f"{stem}_detections.json",
                "--mode", "exact", "--buckets", buckets, "--format", "json", "--output", report,
            )
            assert rc == 0
            got = json.loads(report.read_text())
            assert {name: f"{got[name]:.9f}" for name in metrics} == metrics, stem


# Bad flag values whose error must also name the rule they break.
REASONS = {
    ("--max-dets", "100,10,1"): "max_dets_list must be strictly increasing",
    ("--scale-low", "1.5"): "greater than --scale-high 1.2",
}
SYNTH_BENCH_ONLY = (
    "--image-counts", "--repeats", "--seed", "--translate-fraction", "--scale-low", "--scale-high",
)


class TestBadInputExitsCleanly:
    """Bad input ends in exit code 2 and a one-line error, never a traceback."""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-dets", "a"),
            ("--max-dets", "1.5"),
            ("--iou-thresholds", "0.5,x"),
            ("--recall-thresholds", ","),
            ("--area-ranges", "foo"),
            ("--area-ranges", "all:0:big"),
            ("--image-counts", "0"),
            ("--image-counts", "2,x"),
            ("--repeats", "-1"),
            ("--repeats", "0"),
            ("--iou-thresholds", "0.5,1.5"),
            ("--iou-thresholds", "0.75,0.5"),
            ("--recall-thresholds", "0.5,0.2"),
            ("--recall-thresholds", "-0.1"),
            ("--buckets", "0"),
            ("--buckets", "x"),
            ("--max-dets", "0,10"),
            ("--max-dets", "100,10,1"),
            ("--area-ranges", "all:0:,all:0:5"),
            ("--seed", "-1"),
            ("--scale-high", "inf"),
            ("--scale-high", "nan"),
            ("--translate-fraction", "-1"),
            ("--translate-fraction", "1"),
            ("--scale-low", "0"),
            ("--scale-low", "1.5"),
        ],
    )
    def test_bad_flag_value_names_its_flag(self, golden_paths, tmp_path, capsys, flag, value):
        gt, det = golden_paths
        out = tmp_path / "out.csv"
        commands = [["synth-bench", gt, "--image-counts", "2"]]
        if flag not in SYNTH_BENCH_ONLY:
            commands.append(["evaluate", gt, det])
        for argv in commands:
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv, "--output", out, flag, value)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: " in err
            assert REASONS.get((flag, value), "") in err
            assert "Traceback" not in err
            assert not out.exists()

    def test_detection_missing_bbox(self, golden_paths, tmp_path, capsys):
        gt, det = golden_paths
        rows = json.loads(det.read_text())
        del rows[1]["bbox"]
        bad = tmp_path / "det.json"
        bad.write_text(json.dumps(rows))
        assert run_cli("evaluate", gt, bad) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "results[1]: missing 'bbox'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "synth-bench"])
    @pytest.mark.parametrize("results", [[], [{"image_id": 1, "category_id": 1,
                                                "bbox": [0, 0, 1, 1], "score": 0.5}]])
    def test_empty_categories_names_file_and_section(self, tmp_path, capsys, command, results):
        # reading accepts an empty section, but a report needs a class
        gt, det, out = tmp_path / "gt.json", tmp_path / "det.json", tmp_path / "out.csv"
        gt.write_text(json.dumps({"images": [{"id": 1}], "annotations": [], "categories": []}))
        det.write_text(json.dumps(results))
        argv = [det] if command == "evaluate" else ["--image-counts", 1]
        assert run_cli(command, gt, *argv, "--output", out) == 2
        err = capsys.readouterr().err
        assert f"error: {gt}: annotation document 'categories' section is empty" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("num_classes", 2.5),
            ("buckets", True),
            ("buckets", "7"),
            ("max_dets_list", [1.9, 3]),
            ("iou_thresholds", ["0.5"]),
            ("recall_thresholds", 0.5),
            ("area_ranges", [["all", 0.0]]),
            ("area_ranges", [["all", "0", None]]),
            ("area_ranges", [[1, 0.0, None]]),
            ("iou_thresholds", [10**400]),
            ("area_ranges", [["all", 0.0, 10**400]]),
        ],
    )
    def test_merge_snapshot_with_mistyped_config(self, golden_paths, tmp_path, capsys, key, value):
        # a value of the wrong JSON type is rejected, never truncated or coerced
        gt, det = golden_paths
        good = tmp_path / "good.state"
        assert run_cli("evaluate", gt, det, "--output", tmp_path / "r.txt", "--state-out", good) == 0
        header, body = good.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["config"][key] = value
        bad = tmp_path / "bad.state"
        bad.write_bytes(json.dumps(doc).encode() + b"\n" + body)
        assert run_cli("merge", bad, "--output", tmp_path / "m.state") == 2
        err = capsys.readouterr().err
        assert f"error: config.{key}: expected" in err
        assert "Traceback" not in err

    def test_exact_mode_rejects_state_out(self, golden_paths, tmp_path, capsys):
        # exact mode keeps no state, so it would have nothing to write there
        gt, det = golden_paths
        report, state = tmp_path / "r.txt", tmp_path / "s.state"
        rc = run_cli(
            "evaluate", gt, det, "--mode", "exact", "--output", report, "--state-out", state
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--state-out" in err
        assert not report.exists() and not state.exists()

    def test_config_too_large_to_allocate(self, golden_paths, tmp_path, capsys):
        # synth-bench builds the dense state: 2**40 buckets ask for petabytes,
        # so the allocation fails at once
        gt, _ = golden_paths
        out = tmp_path / "r.txt"
        assert run_cli("synth-bench", gt, "--image-counts", 1, "--repeats", 1,
                       "--output", out, "--buckets", 2**40) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["evaluate"], ["synth-bench", "--image-counts", 1, "--repeats", 1]]
    )
    def test_grid_past_int64_names_the_array(self, golden_paths, tmp_path, capsys, command):
        # 10 * 2 * 4 * 1 * 2**60 counters: more than int64 flat indices address
        gt, det = golden_paths
        out = tmp_path / "r.txt"
        inputs = [gt, det] if command[0] == "evaluate" else [gt]
        assert run_cli(command[0], *inputs, *command[1:], "--output", out,
                       "--buckets", 2**60) == 2
        err = capsys.readouterr().err
        assert "error: state array tp_buckets: its 92233720368547758080 counters do not fit" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["merge", "report"])
    @pytest.mark.parametrize(
        "damage",
        [
            "truncated", "non-canonical header", "unallocatable count", "deeply nested header",
            "format 2", "tp_totals not the bucket sum", "wrapped bucket sum", "recall above 1",
            "tp_totals decreasing",
        ],
    )
    def test_bad_snapshot_error_names_its_file(self, golden_paths, tmp_path, capsys,
                                               command, damage):
        gt, det = golden_paths
        good = tmp_path / "good.state"
        assert run_cli("evaluate", gt, det, "--output", tmp_path / "r.txt", "--state-out", good) == 0
        data = good.read_bytes()
        header, body = data.split(b"\n", 1)
        if damage == "truncated":
            data = data[:-1]
        elif damage == "non-canonical header":
            doc = dict(json.loads(header), extra=1)
            data = json.dumps(doc, sort_keys=True).encode() + b"\n" + body
        elif damage == "deeply nested header":
            data = b"[" * 200_000 + b"\n" + body
        elif damage == "format 2":
            doc = dict(json.loads(header), format="cocostream-state/2")
            data = json.dumps(doc, sort_keys=True).encode() + b"\n" + body
        elif damage == "unallocatable count":  # a canonical header, then a count of petabytes
            config = EvalConfig(num_classes=1, buckets=2**40)
            data = _header(config) + (40 * 2**40).to_bytes(8, "little")
        else:  # TP counts that no matches give, in a canonical snapshot
            with good.open("rb") as fh:
                state = load_state(fh)
            gt = state.gt_counts[0, 0]
            if damage == "wrapped bucket sum":  # the int64 sum gains 2**64, so it is unchanged
                state.tp_buckets[0, 0, 0, 0, :4] += 2**62
            elif damage == "tp_totals decreasing":  # and within gt_counts
                state.tp_totals[0, 0, 0, 0] = state.tp_totals[0, 0, 0, -1] + 1
                state.gt_counts[0, 0] += 1
            else:
                state.tp_buckets[0, 0, 0, 0, 0] += gt + 1
                if damage == "recall above 1":
                    state.tp_totals[0, 0, 0] += gt + 1
            buf = io.BytesIO()
            save_state(state, buf)
            data = buf.getvalue()
        bad = tmp_path / "bad.state"
        bad.write_bytes(data)
        out = tmp_path / "out"
        assert run_cli(command, good, bad, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and "Traceback" not in err
        assert not out.exists()

    def test_merge_snapshot_without_config(self, golden_paths, tmp_path, capsys):
        gt, det = golden_paths
        good = tmp_path / "good.state"
        assert run_cli("evaluate", gt, det, "--output", tmp_path / "r.txt", "--state-out", good) == 0
        header, body = good.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        del doc["config"]
        bad = tmp_path / "bad.state"
        bad.write_bytes(json.dumps(doc).encode() + b"\n" + body)
        assert run_cli("merge", good, bad, "--output", tmp_path / "m.state") == 2
        err = capsys.readouterr().err
        assert "error:" in err and "malformed snapshot header" in err
        assert "Traceback" not in err
