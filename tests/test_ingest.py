import json
import math
import re

import numpy as np
import pytest

from cocostream import (
    EvalConfig,
    ParseError,
    PerturbationParams,
    ValidationError,
    evaluate_exact,
    load_detections,
    load_ground_truth,
    perturb,
    sample_images,
)
from cocostream.cli import main
from cocostream.ingest import dataset_to_annotation_doc, dataset_to_results_doc


def minimal_doc(annotations=()):
    return {
        "images": [{"id": 1}, {"id": 2}],
        "annotations": list(annotations),
        "categories": [{"id": 3}, {"id": 9}],
    }


class TestLoadGroundTruth:
    def test_zero_annotations_keeps_empty_records(self):
        ds = load_ground_truth(minimal_doc())
        assert len(ds.images) == 2
        assert all(rec.ground_truths == () for rec in ds.images)

    def test_xywh_to_corner_conversion(self):
        ds = load_ground_truth(
            minimal_doc([{"id": 1, "image_id": 1, "category_id": 3, "bbox": [10, 20, 30, 40]}])
        )
        box = ds.images[0].ground_truths[0].box
        assert (box.left, box.top, box.right, box.bottom) == (10, 20, 40, 60)

    def test_category_ids_mapped_contiguously(self):
        ds = load_ground_truth(
            minimal_doc([{"id": 1, "image_id": 1, "category_id": 9, "bbox": [0, 0, 1, 1]}])
        )
        assert ds.category_ids == (3, 9)
        assert ds.images[0].ground_truths[0].class_id == 1

    def test_unknown_category_rejected(self):
        with pytest.raises(ValidationError):
            load_ground_truth(
                minimal_doc([{"id": 1, "image_id": 1, "category_id": 5, "bbox": [0, 0, 1, 1]}])
            )

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError):
            load_ground_truth(
                minimal_doc([{"id": 1, "image_id": 1, "category_id": 3, "bbox": [0, 0, -1, 5]}])
            )

    def test_missing_section_rejected(self):
        with pytest.raises(ParseError):
            load_ground_truth({"images": [], "annotations": []})

    @pytest.mark.parametrize(
        "doc, error",
        [
            (5, "must be a JSON object, got int"),
            (None, "must be a JSON object, got NoneType"),
            ([], "must be a JSON object, got list"),
            ({**minimal_doc(), "images": None}, "'images' section must be a list, got NoneType"),
            ({**minimal_doc(), "annotations": 5}, "'annotations' section must be a list, got int"),
            ({**minimal_doc(), "categories": 7}, "'categories' section must be a list, got int"),
        ],
    )
    def test_document_or_section_of_wrong_type(self, tmp_path, capsys, doc, error):
        gt, det = tmp_path / "gt.json", tmp_path / "det.json"
        gt.write_text(json.dumps(doc))
        det.write_text("[]")
        with pytest.raises(ParseError, match=re.escape(f"annotation document {error}")):
            load_ground_truth(gt)
        assert main(["evaluate", str(gt), str(det)]) == 2
        err = capsys.readouterr().err
        assert error in err and "Traceback" not in err

    def test_invalid_json_file_names_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="bad.json"):
            load_ground_truth(path)

    def test_round_trips_through_interchange_doc(self, golden_paths):
        gt_path, _ = golden_paths
        ds = load_ground_truth(gt_path)
        again = load_ground_truth(dataset_to_annotation_doc(ds))
        assert again == ds


class TestLoadDetections:
    def test_empty_results(self):
        base = load_ground_truth(minimal_doc())
        ds = load_detections([], base)
        assert all(rec.detections == () for rec in ds.images)

    def test_row_conversion(self):
        base = load_ground_truth(minimal_doc())
        ds = load_detections(
            [{"image_id": 1, "category_id": 3, "bbox": [0, 0, 10, 10], "score": 0.7}],
            base,
        )
        det = ds.images[0].detections[0]
        assert (det.box.left, det.box.top, det.box.right, det.box.bottom) == (0, 0, 10, 10)
        assert det.confidence == 0.7
        assert det.class_id == 0

    def test_score_out_of_range_rejected(self):
        base = load_ground_truth(minimal_doc())
        with pytest.raises(ValidationError):
            load_detections(
                [{"image_id": 1, "category_id": 3, "bbox": [0, 0, 1, 1], "score": 1.5}],
                base,
            )

    def test_unknown_image_rejected(self):
        base = load_ground_truth(minimal_doc())
        with pytest.raises(ValidationError):
            load_detections(
                [{"image_id": 42, "category_id": 3, "bbox": [0, 0, 1, 1], "score": 0.5}],
                base,
            )

    def test_results_object_loads_like_its_list(self):
        base = load_ground_truth(minimal_doc())
        assert load_detections({"results": valid_results()}, base) == load_detections(
            valid_results(), base
        )

    def test_detections_round_trip(self, golden_paths):
        gt_path, det_path = golden_paths
        ds = load_detections(det_path, load_ground_truth(gt_path))
        again = load_detections(dataset_to_results_doc(ds), load_ground_truth(gt_path))
        assert again == ds


class TestSampleImages:
    def test_full_sample_is_permutation(self, synthetic_pool_path):
        ds = load_ground_truth(synthetic_pool_path)
        sampled = sample_images(ds, len(ds.images), seed=1)
        assert sorted(r.image_id for r in sampled.images) == sorted(
            r.image_id for r in ds.images
        )

    def test_deterministic(self, synthetic_pool_path):
        ds = load_ground_truth(synthetic_pool_path)
        a = sample_images(ds, 10, seed=42)
        b = sample_images(ds, 10, seed=42)
        assert a == b

    def test_distinct_ids(self, synthetic_pool_path):
        ds = load_ground_truth(synthetic_pool_path)
        sampled = sample_images(ds, 10, seed=3)
        ids = [r.image_id for r in sampled.images]
        assert len(set(ids)) == 10

    def test_oversample_rejected(self, golden_paths):
        ds = load_ground_truth(golden_paths[0])
        with pytest.raises(ValueError):
            sample_images(ds, 4, seed=0)


class TestPerturb:
    def test_identity_perturbation_preserves_geometry(self, golden_paths):
        ds = load_ground_truth(golden_paths[0])
        out = perturb(
            ds, PerturbationParams(translate_fraction=0.0, scale_low=1.0, scale_high=1.0, seed=1)
        )
        for rec in out.images:
            assert len(rec.detections) == len(rec.ground_truths)
            for det, gt in zip(rec.detections, rec.ground_truths):
                assert det.box == gt.box
                assert det.class_id == gt.class_id
                assert 0.0 < det.confidence <= 1.0

    def test_counts_and_classes_preserved(self, synthetic_pool_path):
        ds = load_ground_truth(synthetic_pool_path)
        out = perturb(ds, PerturbationParams(seed=5))
        for before, after in zip(ds.images, out.images):
            assert len(after.detections) == len(before.ground_truths)
            assert sorted(d.class_id for d in after.detections) == sorted(
                g.class_id for g in before.ground_truths
            )

    def test_deterministic(self, synthetic_pool_path):
        ds = load_ground_truth(synthetic_pool_path)
        assert perturb(ds, PerturbationParams(seed=9)) == perturb(
            ds, PerturbationParams(seed=9)
        )

    def test_scale_bounds_respected(self, synthetic_pool_path):
        ds = load_ground_truth(synthetic_pool_path)
        params = PerturbationParams(seed=11)
        out = perturb(ds, params)
        for before, after in zip(ds.images, out.images):
            for det, gt in zip(after.detections, before.ground_truths):
                if gt.box.width > 0:
                    assert (
                        params.scale_low - 1e-9
                        <= det.box.width / gt.box.width
                        <= params.scale_high + 1e-9
                    )

    def test_identity_perturbation_gives_full_recall(self, synthetic_pool_path):
        ds = sample_images(load_ground_truth(synthetic_pool_path), 20, seed=2)
        out = perturb(
            ds, PerturbationParams(translate_fraction=0.0, scale_low=1.0, scale_high=1.0, seed=3)
        )
        cfg = EvalConfig(num_classes=ds.num_classes)
        report = evaluate_exact(out.pairs(), cfg)
        assert report.recall_maxdets_100 == 1.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            PerturbationParams(translate_fraction=1.0)
        with pytest.raises(ValidationError):
            PerturbationParams(scale_low=1.2, scale_high=0.8)
        with pytest.raises(ValidationError):
            PerturbationParams(scale_high=math.inf)


def valid_annotation_doc():
    return minimal_doc(
        [{"id": 1, "image_id": 1, "category_id": 3, "bbox": [0, 0, 1, 1]}]
    )


def valid_results():
    return [{"image_id": 1, "category_id": 3, "bbox": [0, 0, 1, 1], "score": 0.5}]


class TestErrorsNameLocation:
    """Missing keys, non-numeric values and unknown ids name the offending entry."""

    @pytest.mark.parametrize(
        "section, key",
        [
            ("images", "id"),
            ("categories", "id"),
            ("annotations", "image_id"),
            ("annotations", "category_id"),
            ("annotations", "bbox"),
        ],
    )
    def test_annotation_document_missing_key(self, section, key):
        doc = valid_annotation_doc()
        del doc[section][0][key]
        with pytest.raises(ParseError, match=rf"{section}\[0\]: missing '{key}'"):
            load_ground_truth(doc)

    @pytest.mark.parametrize("key", ["image_id", "category_id", "bbox", "score"])
    def test_results_missing_key(self, key):
        rows = valid_results()
        del rows[0][key]
        with pytest.raises(ParseError, match=rf"results\[0\]: missing '{key}'"):
            load_detections(rows, load_ground_truth(minimal_doc()))

    @pytest.mark.parametrize(
        "section, key", [("images", "id"), ("categories", "id"), ("annotations", "image_id")]
    )
    def test_annotation_document_non_numeric_id(self, section, key):
        doc = valid_annotation_doc()
        doc[section][0][key] = "one"
        with pytest.raises(ParseError, match=rf"{section}\[0\]: '{key}' is not a number"):
            load_ground_truth(doc)

    @pytest.mark.parametrize("key", ["image_id", "category_id", "score"])
    def test_results_non_numeric_value(self, key):
        rows = valid_results()
        rows[0][key] = "one"
        with pytest.raises(ParseError, match=rf"results\[0\]: '{key}' is not a number"):
            load_detections(rows, load_ground_truth(minimal_doc()))

    def test_non_numeric_bbox_entry(self):
        rows = valid_results()
        rows[0]["bbox"] = [0, "x", 1, 1]
        with pytest.raises(ParseError, match=r"results\[0\]: bbox entries must be numbers"):
            load_detections(rows, load_ground_truth(minimal_doc()))

    def test_entry_not_an_object(self):
        with pytest.raises(ParseError, match=r"results\[0\]: expected an object"):
            load_detections([[1, 3]], load_ground_truth(minimal_doc()))

    def test_results_unknown_category(self):
        rows = valid_results()
        rows[0]["category_id"] = 5
        with pytest.raises(ValidationError, match=r"results\[0\]: unknown category id 5"):
            load_detections(rows, load_ground_truth(minimal_doc()))

    def test_non_finite_box_names_location(self):
        doc = valid_annotation_doc()
        doc["annotations"][0]["bbox"] = [0, 0, float("inf"), 1]
        with pytest.raises(ValidationError, match=r"annotations\[0\]"):
            load_ground_truth(doc)

    @pytest.mark.parametrize(
        "bbox, message",
        [
            ("0 0 1 1", "bbox must be a list, got str"),
            ([0, 0, 1], "bbox must have 4 entries, got 3"),
        ],
    )
    def test_bbox_of_wrong_form(self, bbox, message):
        rows = valid_results()
        rows[0]["bbox"] = bbox
        with pytest.raises(ParseError, match=rf"results\[0\]: {message}"):
            load_detections(rows, load_ground_truth(minimal_doc()))

    @pytest.mark.parametrize(
        "section, message",
        [("categories", r"duplicate category ids: \(3, 3\)"), ("images", "duplicate image id: 1")],
    )
    def test_duplicate_ids(self, section, message):
        doc = valid_annotation_doc()
        doc[section] = [{"id": doc[section][0]["id"]}] * 2
        with pytest.raises(ParseError, match=message):
            load_ground_truth(doc)

    def test_annotation_unknown_image(self):
        doc = valid_annotation_doc()
        doc["annotations"][0]["image_id"] = 7
        with pytest.raises(ValidationError, match=r"annotations\[0\]: unknown image id 7"):
            load_ground_truth(doc)

    @pytest.mark.parametrize("doc", [{"rows": []}, {"results": 5}])
    def test_results_document_of_wrong_type(self, doc):
        with pytest.raises(ParseError, match="results document must be a JSON list"):
            load_detections(doc, load_ground_truth(minimal_doc()))

    @pytest.mark.parametrize(
        "source, kind", [(None, "NoneType"), (5, "int"), (b"gt.json", "bytes"), (("a",), "tuple")]
    )
    def test_source_of_wrong_type_names_it(self, source, kind):
        message = re.escape(f"a document must be a path, dict or list, got {kind}")
        with pytest.raises(ParseError, match=message):
            load_ground_truth(source)
        with pytest.raises(ParseError, match=message):
            load_detections(source, load_ground_truth(minimal_doc()))


class TestUnreadableDocument:
    """A document that is not UTF-8, or that nests past the parser's
    recursion limit, is a ParseError that names its file, and exit 2 from
    every command that reads it."""

    DAMAGE = {
        "not UTF-8": b'\xff\xfe{"images": []}',
        "nested too deeply": b"[" * 200_000,
    }

    @pytest.mark.parametrize("damage", DAMAGE)
    @pytest.mark.parametrize("document", ["annotations", "results"])
    def test_library_names_the_file(self, tmp_path, damage, document):
        bad = tmp_path / "bad.json"
        bad.write_bytes(self.DAMAGE[damage])
        with pytest.raises(ParseError, match=re.escape(f"{bad}: ") + ".*" + damage):
            if document == "annotations":
                load_ground_truth(bad)
            else:
                load_detections(bad, load_ground_truth(minimal_doc()))

    @pytest.mark.parametrize("damage", DAMAGE)
    @pytest.mark.parametrize("command", ["evaluate annotations", "evaluate results", "synth-bench"])
    def test_cli_exits_2_naming_the_file(self, tmp_path, capsys, damage, command):
        gt, det, bad = tmp_path / "gt.json", tmp_path / "det.json", tmp_path / "bad.json"
        gt.write_text(json.dumps(minimal_doc()))
        det.write_text("[]")
        bad.write_bytes(self.DAMAGE[damage])
        args = {
            "evaluate annotations": ["evaluate", bad, det],
            "evaluate results": ["evaluate", gt, bad],
            "synth-bench": ["synth-bench", bad, "--image-counts", "1", "--repeats", "1"],
        }[command]
        assert main([str(a) for a in args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and damage in err
        assert "Traceback" not in err


class TestBoxAreaInFloatRange:
    """A box's area must be a finite float: one past the float range would
    fall outside every area range, [0, inf) included, and every metric
    would read -1 with no error."""

    HUGE = [0, 0, 1e308, 1e308]

    def test_library_rejects_it_with_its_location(self):
        doc = valid_annotation_doc()
        doc["annotations"][0]["bbox"] = self.HUGE
        with pytest.raises(ValidationError, match=r"annotations\[0\]: box area is not finite"):
            load_ground_truth(doc)
        rows = valid_results()
        rows[0]["bbox"] = self.HUGE
        with pytest.raises(ValidationError, match=r"results\[0\]: box area is not finite"):
            load_detections(rows, load_ground_truth(minimal_doc()))

    @pytest.mark.parametrize("mode", ["streaming", "exact"])
    @pytest.mark.parametrize("in_results", [False, True])
    def test_cli_exits_2_naming_it(self, tmp_path, capsys, mode, in_results):
        doc, rows = valid_annotation_doc(), valid_results()
        (rows[0] if in_results else doc["annotations"][0])["bbox"] = self.HUGE
        gt, det = tmp_path / "gt.json", tmp_path / "det.json"
        gt.write_text(json.dumps(doc))
        det.write_text(json.dumps(rows))
        assert main(["evaluate", str(gt), str(det), "--mode", mode]) == 2
        where = "results[0]" if in_results else "annotations[0]"
        assert f"error: {where}: box area is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["streaming", "exact"])
    def test_areas_whose_sum_passes_the_float_range_still_match(self, tmp_path, capsys, mode):
        # each area is 1.69e308; the IoU's union is 2.08e308, its IoU 0.625
        doc, rows = valid_annotation_doc(), valid_results()
        doc["annotations"][0]["bbox"] = [0, 0, 1.3e154, 1.3e154]
        rows[0]["bbox"] = [0.3e154, 0, 1.3e154, 1.3e154]
        gt, det = tmp_path / "gt.json", tmp_path / "det.json"
        gt.write_text(json.dumps(doc))
        det.write_text(json.dumps(rows))
        assert main(["evaluate", str(gt), str(det), "--mode", mode, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["map_50"] == 1.0 and report["map_75"] == 0.0


class TestOnlyJsonNumbers:
    """Ids must be numbers of integral value; scores and bbox entries must be
    numbers. Booleans and numeric strings are rejected, never converted."""

    @pytest.mark.parametrize(
        "section, key",
        [
            ("images", "id"),
            ("categories", "id"),
            ("annotations", "image_id"),
            ("annotations", "category_id"),
        ],
    )
    @pytest.mark.parametrize("value, message", [
        (1.9, "is not an integer"),
        ("1", "is not a number"),
        (True, "is not a number"),
    ])
    def test_annotation_document_bad_id(self, section, key, value, message):
        doc = valid_annotation_doc()
        doc[section][0][key] = value
        with pytest.raises(ParseError, match=rf"{section}\[0\]: '{key}' {message}"):
            load_ground_truth(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("image_id", 1.9, "is not an integer"),
        ("category_id", 3.2, "is not an integer"),
        ("category_id", np.float32(3.5), "is not an integer"),
        ("image_id", float("nan"), "is not an integer"),
        ("image_id", "1", "is not a number"),
        ("category_id", True, "is not a number"),
        ("score", True, "is not a number"),
        ("score", "0.5", "is not a number"),
    ])
    def test_results_bad_value(self, key, value, message):
        rows = valid_results()
        rows[0][key] = value
        with pytest.raises(ParseError, match=rf"results\[0\]: '{key}' {message}"):
            load_detections(rows, load_ground_truth(minimal_doc()))

    @pytest.mark.parametrize("bbox", [["1", 0, 10, 10], [True, 0, 10, 10], [0, 0, 10, 10**400]])
    @pytest.mark.parametrize("in_results", [False, True])
    def test_bad_bbox_entry(self, bbox, in_results):
        if in_results:
            rows = valid_results()
            rows[0]["bbox"] = bbox
            with pytest.raises(ParseError, match=r"results\[0\]: bbox entries must be numbers"):
                load_detections(rows, load_ground_truth(minimal_doc()))
        else:
            doc = valid_annotation_doc()
            doc["annotations"][0]["bbox"] = bbox
            with pytest.raises(ParseError, match=r"annotations\[0\]: bbox entries must be numbers"):
                load_ground_truth(doc)

    def test_integral_float_ids_and_integer_score_load(self):
        doc = minimal_doc([{"id": 1, "image_id": 2.0, "category_id": 9.0, "bbox": [0, 0, 1, 1]}])
        doc["images"][0]["id"] = 1.0
        gt = load_ground_truth(doc)
        assert [rec.image_id for rec in gt.images] == [1, 2]
        assert gt.images[1].ground_truths[0].class_id == 1
        rows = [{"image_id": 1.0, "category_id": 3.0, "bbox": [0, 0, 1, 1], "score": 1}]
        ds = load_detections(rows, gt)
        assert ds.images[0].detections[0].class_id == 0
        assert ds.images[0].detections[0].confidence == 1.0

    def test_numpy_scalars_in_memory_load(self):
        rows = [{
            "image_id": np.int64(1),
            "category_id": np.int32(3),
            "bbox": [np.float64(0), np.int64(0), 1, 1],
            "score": np.float32(0.5),
        }]
        ds = load_detections(rows, load_ground_truth(minimal_doc()))
        det = ds.images[0].detections[0]
        assert (det.class_id, det.confidence, det.box.right) == (0, 0.5, 1.0)
