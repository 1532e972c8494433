"""Differential tests of the column path that `cocostream evaluate` runs.

The column readers (ingest._read_annotations and _read_results) are held to
the per-row checks, forced by making every vectorised pass decline, and to
a box-by-box reference reader: on valid documents they give the same
columns and the same Dataset, and after a one-leaf mutation they raise
exactly when the per-row checks do, with the same message. The array core
of matching is held to its object adaptor on padded batches with ties, and
the CLI is held to building no box object at all.
"""

import sys
from contextlib import contextmanager
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cocostream import (
    BoundingBox,
    Dataset,
    Detection,
    EvalConfig,
    GroundTruth,
    ImageRecord,
    ParseError,
    ValidationError,
    geometry,
    ingest,
    load_detections,
    load_ground_truth,
    matching,
)
from cocostream.cli import main
from cocostream.ingest import _read_annotations, _read_results
from cocostream.matching import _Columns, _match_columns, match_batch

FLOAT_MAX = sys.float_info.max


@contextmanager
def per_row_only():
    """Every vectorised pass declines, so the per-row checks read everything."""
    with mock.patch.object(ingest, "_typed", side_effect=ValueError("per-row only")):
        yield


@contextmanager
def vectorised_only():
    """Any per-row read fails the test: a valid document must not need one."""
    with mock.patch.object(ingest, "_per_row", side_effect=AssertionError("per-row read")):
        yield


# -- valid documents ---------------------------------------------------------


@st.composite
def _id_value(draw, value: int):
    """value as an int or a numpy int, or, where a float holds it exactly,
    as an integral float or numpy float."""
    forms = [int, np.int64]
    if abs(value) <= 2**53:
        forms += [float, np.float64]
    if abs(value) <= 2**24:
        forms.append(np.float32)
    return draw(st.sampled_from(forms))(value)


ids = st.one_of(st.integers(-20, 20), st.integers(-(2**62), 2**62))
plain_numbers = st.one_of(st.integers(0, 60), st.floats(0.0, 1e3))


@st.composite
def _number(draw, values=plain_numbers):
    """A non-negative number, as drawn or as a numpy scalar of its kind."""
    value = draw(values)
    same = lambda v: v  # noqa: E731
    forms = [same, np.int64] if isinstance(value, int) else [same, np.float64, np.float32]
    return draw(st.sampled_from(forms))(value)


@st.composite
def _bbox(draw):
    x, y = (draw(st.one_of(st.integers(-50, 50), st.floats(-1e3, 1e3))) for _ in range(2))
    w, h = draw(_number()), draw(_number())
    return draw(st.sampled_from([list, tuple]))([x, y, w, h])


scores = _number(st.one_of(st.sampled_from([0, 1]), st.floats(0.0, 1.0)))


@st.composite
def documents(draw):
    """A valid (annotation document, results document) pair in memory: ids
    in several number forms, numpy scalars, int scores, tuple boxes, the
    {"results": [...]} form and empty sections."""
    category_ids = draw(st.lists(ids, max_size=3, unique=True))
    image_ids = draw(st.lists(ids, max_size=4, unique=True))

    def rows(n, scored):
        out = []
        for _ in range(n if image_ids and category_ids else 0):
            row = {
                "image_id": draw(_id_value(draw(st.sampled_from(image_ids)))),
                "category_id": draw(_id_value(draw(st.sampled_from(category_ids)))),
                "bbox": draw(_bbox()),
            }
            if scored:
                row["score"] = draw(scores)
            out.append(row)
        return out

    ann_rows = rows(draw(st.integers(0, 8)), False)
    annotations = [{"id": j, "iscrowd": 0, **row} for j, row in enumerate(ann_rows)]
    gt_doc = {
        "images": [{"id": draw(_id_value(i)), "width": 640} for i in image_ids],
        "annotations": annotations,
        "categories": [{"id": draw(_id_value(c)), "name": "c"} for c in category_ids],
    }
    results = rows(draw(st.integers(0, 8)), True)
    return gt_doc, ({"results": results} if draw(st.booleans()) else results)


def reference_dataset(gt_doc, results) -> Dataset:
    """The dataset the documents describe, read box by box in plain Python."""
    category_ids = tuple(sorted(int(c["id"]) for c in gt_doc["categories"]))
    class_of = {c: k for k, c in enumerate(category_ids)}

    def box(bbox):
        x, y, w, h = (float(v) for v in bbox)
        return BoundingBox(x, y, x + w, y + h)

    gts = {int(img["id"]): [] for img in gt_doc["images"]}
    dets = {image_id: [] for image_id in gts}
    for ann in gt_doc["annotations"]:
        gt = GroundTruth(box(ann["bbox"]), class_of[int(ann["category_id"])])
        gts[int(ann["image_id"])].append(gt)
    for row in results["results"] if isinstance(results, dict) else results:
        det = Detection(box(row["bbox"]), class_of[int(row["category_id"])], float(row["score"]))
        dets[int(row["image_id"])].append(det)
    images = tuple(ImageRecord(i, tuple(gts[i]), tuple(dets[i])) for i in gts)
    return Dataset(images=images, category_ids=category_ids)


def read(gt_doc, results):
    """(image ids, category ids, every column as (dtype, values)) of the
    pair, or the (type, message) of the error reading it raises."""
    try:
        image_ids, category_ids, gts = _read_annotations(gt_doc)
        dets = _read_results(results, image_ids, category_ids)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    assert all(type(i) is int for i in (*image_ids, *category_ids))
    return image_ids, category_ids, [(c.dtype.str, c.tolist()) for c in (*gts, *dets)]


@settings(max_examples=150, deadline=None)
@given(docs=documents())
def test_column_readers_equal_per_row_reading(docs):
    gt_doc, results = docs
    with vectorised_only():
        got = read(gt_doc, results)
    with per_row_only():
        want = read(gt_doc, results)
    assert got == want
    image_ids, _, columns = got
    for img in columns[0][1], columns[4][1]:
        assert img == sorted(img) and set(img) <= set(range(len(image_ids)))
    assert load_detections(results, load_ground_truth(gt_doc)) == reference_dataset(gt_doc, results)


# -- one-leaf mutations ------------------------------------------------------

DELETE = object()
HOSTILE = [
    None, True, False, np.bool_(True), "1", "", 0, -1, 2, 1.5, -0.5, 7.0, np.float32(0.5),
    np.int64(3), 10**400, int(FLOAT_MAX), int(FLOAT_MAX) + 1, FLOAT_MAX, 1e308, -1e308,
    float("nan"), float("inf"), -float("inf"), [], {}, [0, 0, 1], [0, 0, 1, 1],
    [0, 0, 1e308, 1e308], [0, 0, -1, 1], {"results": []}, DELETE,
]


def _paths(node, path=()):
    """The path of every node under node, containers included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, (list, tuple)):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _replaced(node, path, value):
    """A copy of node with the node at path replaced by value, or removed
    for DELETE; nothing under node is modified."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    new = _replaced(node[key], rest, value)
    out = dict(node) if isinstance(node, dict) else list(node)
    if new is DELETE:
        del out[key]
    else:
        out[key] = new
    return out if isinstance(node, (dict, list)) else type(node)(out)


@settings(max_examples=400, deadline=None)
@given(docs=documents(), data=st.data())
def test_one_leaf_mutation_fails_as_the_per_row_checks_do(docs, data):
    path = data.draw(st.sampled_from(list(_paths(docs))))
    value = data.draw(st.sampled_from(HOSTILE))
    assume(len(path) > 1 or value is not DELETE)
    gt_doc, results = _replaced(docs, path, value)
    got = read(gt_doc, results)
    with per_row_only():
        want = read(gt_doc, results)
    assert got == want


def _doc_with(section: str, key: str, value):
    """A one-box annotation and results pair whose first entry of section
    has key set to value ('bbox0' sets the box's x)."""
    gt_doc = {
        "images": [{"id": 1}],
        "annotations": [{"image_id": 1, "category_id": 3, "bbox": [0, 0, 2, 2]}],
        "categories": [{"id": 3}],
    }
    results = [{"image_id": 1, "category_id": 3, "bbox": [0, 0, 2, 2], "score": 0.5}]
    entry = (results if section == "results" else gt_doc[section])[0]
    if key == "bbox0":
        entry["bbox"][0] = value
    else:
        entry[key] = value
    return gt_doc, results


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("results", "bbox0", int(FLOAT_MAX) + 1),  # rounds onto the float maximum
        ("annotations", "bbox0", int(FLOAT_MAX) + 1),
        ("results", "bbox0", int(FLOAT_MAX)),  # valid: a float holds it
        ("results", "bbox0", FLOAT_MAX),  # valid, and its box has area 0
        ("images", "id", int(FLOAT_MAX) + 1),
        ("images", "id", float(2**60)),
        ("results", "score", np.bool_(True)),
        ("results", "image_id", True),
        ("results", "category_id", 3 + 0j),
        ("annotations", "bbox", np.array([0.0, 0.0, 2.0, 2.0])),
        ("results", "bbox", [1e308, 0, 1e308, 0]),  # right corner past the float range
        ("annotations", "bbox", [0, 1e308, 1, 1e308]),
    ],
)
def test_edge_values_read_as_the_per_row_checks_read_them(section, key, value):
    gt_doc, results = _doc_with(section, key, value)
    got = read(gt_doc, results)
    with per_row_only():
        assert got == read(gt_doc, results)


# -- the array core against its object adaptor ------------------------------


@st.composite
def padded_batches(draw):
    """Images with padding entries (class -1), few distinct scores, and
    detections drawn on ground-truth boxes, so that scores and IoUs tie."""

    def box():
        x, y, w, h = (draw(st.integers(0, 30)) for _ in range(4))
        return BoundingBox(float(x), float(y), float(x + w), float(y + h))

    batch = []
    for _ in range(draw(st.integers(0, 5))):
        gts = [GroundTruth(box(), draw(st.integers(-1, 2))) for _ in range(draw(st.integers(0, 6)))]
        dets = []
        for _ in range(draw(st.integers(0, 8))):
            on_gt = gts and draw(st.booleans())
            b = draw(st.sampled_from([g.box for g in gts])) if on_gt else box()
            score = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
            dets.append(Detection(b, draw(st.integers(-1, 2)), score))
        batch.append((dets, gts))
    return batch


def _columns(batch, part: int) -> _Columns:
    """The boxes of one side of the batch as the core takes them."""
    rows = [(i, x) for i, pair in enumerate(batch) for x in pair[part] if x.class_id != -1]
    return _Columns(
        np.array([i for i, _ in rows], dtype=np.int64),
        np.array([x.class_id for _, x in rows], dtype=np.int64),
        np.array([astuple(x.box) for _, x in rows]).reshape(-1, 4),
        np.array([getattr(x, "confidence", 0.0) for _, x in rows], dtype=float),
    )


configs = st.builds(
    EvalConfig,
    num_classes=st.just(3),
    iou_thresholds=st.sampled_from([(0.5,), (0.3, 0.5, 0.7), (0.1, 0.75, 1.0)]),
    max_dets_list=st.sampled_from([(1,), (1, 3), (2, 4, 100)]),
)


@pytest.mark.parametrize("cap", [matching._CHUNK_ELEMENTS, 16])
@settings(max_examples=150, deadline=None)
@given(config=configs, batch=padded_batches())
def test_array_core_equals_object_adaptor(cap, config, batch):
    with mock.patch.object(matching, "_CHUNK_ELEMENTS", cap):
        got = _match_columns(config, len(batch), _columns(batch, 0), _columns(batch, 1))
        want = match_batch(batch, config)
    assert got.config == want.config
    for field in ("cls", "area", "rank", "confidences", "tp", "gt_counts"):
        assert getattr(got, field).dtype == getattr(want, field).dtype
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


# -- the CLI builds no box object --------------------------------------------


@pytest.mark.parametrize("mode", ["streaming", "exact"])
def test_cli_evaluate_builds_no_box_objects(golden_paths, tmp_path, monkeypatch, mode):
    gt, det = golden_paths

    def evaluate(name):
        extra = ["--state-out", str(tmp_path / f"{name}.state")] if mode == "streaming" else []
        out = tmp_path / f"{name}.json"
        args = ["evaluate", str(gt), str(det), "--mode", mode, "--format", "json"]
        assert main([*args, "--output", str(out), *extra]) == 0
        return [p.read_bytes() for p in sorted(tmp_path.glob(f"{name}.*"))]

    plain = evaluate("plain")

    def refuse(self):
        raise AssertionError("a BoundingBox was built")

    monkeypatch.setattr(geometry.BoundingBox, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="BoundingBox was built"):
        load_ground_truth(gt)  # the patch does catch the per-box path
    assert evaluate("patched") == plain
