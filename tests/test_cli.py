import csv
import io
import json

import pytest

from cocostream import finalize, load_state, new_state, save_state, update
from cocostream.cli import main

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
        rows = list(csv.DictReader(out.open()))
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

    def test_config_mismatch_fails(self, golden_paths, tmp_path, capsys):
        a = self._make_state(golden_paths, tmp_path, "a.bin")
        b = self._make_state(golden_paths, tmp_path, "b.bin", max_dets="1,5")
        rc = run_cli("merge", a, b, "--output", tmp_path / "m.bin")
        assert rc != 0
        err = capsys.readouterr().err
        assert "a.bin" in err and "b.bin" in err


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
            ("--area-ranges", "all:0:,all:0:5"),
        ],
    )
    def test_bad_flag_value_names_its_flag(self, golden_paths, tmp_path, capsys, flag, value):
        gt, det = golden_paths
        out = tmp_path / "out.csv"
        commands = [["synth-bench", gt, "--image-counts", "2"]]
        if flag not in ("--image-counts", "--repeats"):
            commands.append(["evaluate", gt, det])
        for argv in commands:
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv, "--output", out, flag, value)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: " in err
            assert "Traceback" not in err
            assert not out.exists()

    def test_decreasing_max_dets(self, golden_paths, capsys):
        gt, det = golden_paths
        assert run_cli("evaluate", gt, det, "--max-dets", "100,10,1") == 2
        err = capsys.readouterr().err
        assert "error:" in err and "max_dets_list" in err
        assert "Traceback" not in err

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

    def test_merge_snapshot_without_arrays(self, golden_paths, tmp_path, capsys):
        gt, det = golden_paths
        good = tmp_path / "good.state"
        assert run_cli("evaluate", gt, det, "--output", tmp_path / "r.txt", "--state-out", good) == 0
        header, body = good.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        del doc["arrays"]
        bad = tmp_path / "bad.state"
        bad.write_bytes(json.dumps(doc).encode() + b"\n" + body)
        assert run_cli("merge", good, bad, "--output", tmp_path / "m.state") == 2
        err = capsys.readouterr().err
        assert "error:" in err and "malformed snapshot header" in err
        assert "Traceback" not in err
