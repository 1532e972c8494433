"""Fuzz tests of the command line: mutated inputs end in exit 0 or 2.

Each example mutates a valid input and drives cocostream through cli.main:
the bytes of a state snapshot for `merge` and `report`, and one or two
nodes of an annotation and results pair for `evaluate` (both modes) and
`synth-bench`. Every run must return 0 or 2, raise nothing and emit no
warning. Both evaluate modes must return the same code, and where it is 0,
the same recall rows, since recall is exact in both.
"""

import contextlib
import io
import json
import tempfile
import warnings
from functools import cache
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cocostream.cli import main
from cocostream.config import METRIC_NAMES

from test_columns import DELETE, HOSTILE, _paths, _replaced

# The column tests' hostile values that JSON can hold: json.dumps writes
# nan and inf as NaN and Infinity, which json.load reads back.
JSON_HOSTILE = [v for v in HOSTILE if not isinstance(v, np.generic)]
RECALL_ROWS = [name for name in METRIC_NAMES if name.startswith("recall")]


def _pair() -> tuple[dict, list]:
    """A valid annotation and results pair: 4 images, 3 categories, each
    ground truth with a jittered detection, and a few distractors."""
    rng = np.random.default_rng(5)
    annotations, results = [], []
    for image_id in range(1, 5):
        for _ in range(3):
            x, y = (round(float(v), 1) for v in rng.uniform(0, 200, 2))
            w, h = (round(float(v), 1) for v in rng.uniform(2, 120, 2))
            cat = int(rng.integers(1, 4)) * 10
            ann = {"id": len(annotations) + 1, "image_id": image_id, "category_id": cat}
            annotations.append({**ann, "bbox": [x, y, w, h]})
            dx, dy = (round(float(v), 1) for v in rng.uniform(-3, 3, 2))
            score = round(float(rng.random()), 3)
            results.append({"image_id": image_id, "category_id": cat,
                            "bbox": [x + dx, y + dy, w, h], "score": score})
        results.append({"image_id": image_id, "category_id": 20,
                        "bbox": [5.0, 5.0, 30.0, 30.0], "score": 0.05})
    gt_doc = {
        "images": [{"id": i, "width": 320, "height": 320} for i in range(1, 5)],
        "annotations": annotations,
        "categories": [{"id": c, "name": f"c{c}"} for c in (10, 20, 30)],
    }
    return gt_doc, results


def _run(*argv) -> int:
    """main(argv) with its output captured, under an error filter for
    every warning; any exception fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main([str(a) for a in argv])
    assert rc in (0, 2), argv
    return rc


@cache
def _snapshot() -> bytes:
    """The streaming snapshot of the valid pair at 16 buckets."""
    gt_doc, results = _pair()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "gt.json").write_text(json.dumps(gt_doc))
        (d / "det.json").write_text(json.dumps(results))
        state = d / "s.state"
        assert _run("evaluate", d / "gt.json", d / "det.json", "--buckets", 16,
                    "--output", d / "r.txt", "--state-out", state) == 0
        return state.read_bytes()


@st.composite
def _mutated_bytes(draw, blob: bytes) -> bytes:
    """blob after one to three byte edits: replace, insert, delete, or
    truncate. Half the edits land in the header line."""
    header = blob.index(b"\n") + 1
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        if not out:
            break
        end = min(header, len(out)) if draw(st.booleans()) else len(out)
        at = draw(st.integers(0, end - 1))
        op = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        if op == "replace":
            out[at] = draw(st.integers(0, 255))
        elif op == "insert":
            out.insert(at, draw(st.integers(0, 255)))
        elif op == "delete":
            del out[at]
        else:
            del out[at:]
    return bytes(out)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_mutated_snapshot_merges_and_reports_or_exits_2(data):
    good = _snapshot()
    bad = data.draw(_mutated_bytes(good))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "good.state").write_bytes(good)
        (d / "bad.state").write_bytes(bad)
        merged = d / "m.state"
        rc = _run("merge", d / "good.state", d / "bad.state", "--output", merged)
        assert merged.exists() == (rc == 0)
        _run("report", d / "bad.state", "--format", "json")
        if rc == 0:
            assert _run("report", merged) == 0


def _recall_rows(path: Path) -> dict:
    report = json.loads(path.read_text())
    return {name: report[name] for name in RECALL_ROWS}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_documents_evaluate_or_exit_2(data):
    docs = list(_pair())
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(docs))))
        value = data.draw(st.sampled_from(JSON_HOSTILE))
        assume(len(path) > 1 or value is not DELETE)
        docs = _replaced(docs, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        gt, det = d / "gt.json", d / "det.json"
        gt.write_text(json.dumps(docs[0]))
        det.write_text(json.dumps(docs[1]))
        rcs = {}
        for mode in ("exact", "streaming"):
            out = d / f"{mode}.json"
            rcs[mode] = _run("evaluate", gt, det, "--mode", mode, "--format", "json",
                             "--output", out)
            assert out.exists() == (rcs[mode] == 0)
        assert rcs["exact"] == rcs["streaming"]
        if rcs["exact"] == 0:
            assert _recall_rows(d / "exact.json") == _recall_rows(d / "streaming.json")
        _run("synth-bench", gt, "--image-counts", 1, "--repeats", 1, "--buckets", 100,
             "--output", d / "rows.csv", "--summary-output", d / "summary.csv")
