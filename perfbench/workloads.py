"""The benchmark's workloads.

Each workload makes its inputs from the seed (``setup``), runs one timed pass
over them (``run``), and checks each pass (``check``) against a reference that
``reference`` builds once per seed from the exact oracle; a workload whose
run ends with a step of its own (``wrap_up``) checks it once (``finish``).
Calls into cocostream look up module attributes at call time, so the span
tracer in ``tracing.py`` can wrap them from outside the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cocostream as cs
import cocostream.bench
import cocostream.cli

MAP_ROWS = ("map_standard", "map_50", "map_75", "map_small", "map_medium", "map_large")
RECALL_ROWS = (
    "recall_maxdets_1",
    "recall_maxdets_10",
    "recall_maxdets_100",
    "recall_small",
    "recall_medium",
    "recall_large",
)

# Acceptance criterion 5 (tests/test_acceptance.py) holds every MaP row within
# 0.005 of the oracle at the default 10000 buckets; criterion 4's per-row
# ceilings are looser. Every workload uses the default bucket count.
MAP_CEILING = 0.005


@dataclass(frozen=True)
class Scale:
    """Input sizes of the workloads."""

    val_images: int
    val_classes: int
    shards: int
    shard_images: int
    shard_classes: int
    study_images: int
    study_classes: int
    train_batches: int  # distinct mini-batches, fed in a cycle
    train_batch_images: int
    train_det_slots: int
    train_gt_slots: int
    train_classes: int


SCALES = {
    # Passes of 0.05 to 0.35 s, so that a run of 25 s times 70 to 400 of them.
    "full": Scale(
        val_images=40,
        val_classes=3,
        shards=4,
        shard_images=10,
        shard_classes=2,
        study_images=30,
        study_classes=3,
        train_batches=8,
        train_batch_images=4,
        train_det_slots=100,
        train_gt_slots=32,
        train_classes=10,
    ),
    # For the benchmark's self-test: every path runs, in well under a second.
    "tiny": Scale(
        val_images=12,
        val_classes=2,
        shards=2,
        shard_images=4,
        shard_classes=2,
        study_images=12,
        study_classes=2,
        train_batches=2,
        train_batch_images=2,
        train_det_slots=12,
        train_gt_slots=6,
        train_classes=2,
    ),
}


@dataclass
class Outcome:
    """What checking one pass found; an empty ``problems`` list is a pass."""

    problems: list[str]
    map_abs_err: float = 0.0


# -- input generation ---------------------------------------------------------


def _box_xywh(rng: np.random.Generator) -> list[float]:
    # Log-uniform sides cover the small, medium and large COCO area ranges.
    w, h = np.exp(rng.uniform(math.log(4), math.log(300), size=2))
    x = rng.uniform(0, 640 - min(w, 640))
    y = rng.uniform(0, 480 - min(h, 480))
    return [float(x), float(y), float(w), float(h)]


def _jitter(rng: np.random.Generator, bbox: list[float]) -> list[float]:
    """The ``ingest.perturb`` jitter: shift by up to 20% of each side, then
    scale each side by a factor in [0.8, 1.2)."""
    x, y, w, h = bbox
    dx = rng.uniform(-0.2, 0.2) * w
    dy = rng.uniform(-0.2, 0.2) * h
    return [x + dx, y + dy, w * rng.uniform(0.8, 1.2), h * rng.uniform(0.8, 1.2)]


def _corner(bbox: list[float]) -> cs.BoundingBox:
    x, y, w, h = bbox
    return cs.BoundingBox(x, y, x + w, y + h)


def annotation_doc(rng: np.random.Generator, n_images: int, num_classes: int) -> dict:
    """COCO-style annotation document: 1 to 8 boxes per image, classes in
    turn. The seed shuffles which image holds how many boxes of which class,
    but every seed gives the same counts, so the work per pass is the same."""
    per_image = rng.permutation(np.resize(np.arange(1, 9), n_images))
    classes = rng.permutation(np.resize(np.arange(1, num_classes + 1), int(per_image.sum())))
    images, annotations = [], []
    for image_id, n_boxes in enumerate(per_image, start=1):
        images.append({"id": image_id, "width": 640, "height": 480})
        for _ in range(n_boxes):
            annotations.append(
                {
                    "id": len(annotations) + 1,
                    "image_id": image_id,
                    "category_id": int(classes[len(annotations)]),
                    "bbox": _box_xywh(rng),
                }
            )
    categories = [{"id": c} for c in range(1, num_classes + 1)]
    return {"images": images, "annotations": annotations, "categories": categories}


def results_doc(rng: np.random.Generator, ann_doc: dict) -> list[dict]:
    """One jittered detection per ground truth, score uniform over (0, 1]."""
    return [
        {
            "image_id": ann["image_id"],
            "category_id": ann["category_id"],
            "bbox": _jitter(rng, ann["bbox"]),
            "score": 1.0 - float(rng.random()),
        }
        for ann in ann_doc["annotations"]
    ]


def doc_pairs(ann_doc: dict, results: list[dict]) -> list[tuple[tuple, tuple]]:
    """Per-image (detections, ground truths) built directly from the documents,
    so the reference does not depend on cocostream's ingest."""
    category_ids = sorted(c["id"] for c in ann_doc["categories"])
    index = {cid: i for i, cid in enumerate(category_ids)}
    gts: dict[int, list] = {img["id"]: [] for img in ann_doc["images"]}
    dets: dict[int, list] = {img["id"]: [] for img in ann_doc["images"]}
    for ann in ann_doc["annotations"]:
        gts[ann["image_id"]].append(
            cs.GroundTruth(_corner(ann["bbox"]), index[ann["category_id"]])
        )
    for row in results:
        dets[row["image_id"]].append(
            cs.Detection(_corner(row["bbox"]), index[row["category_id"]], row["score"])
        )
    return [(tuple(dets[i]), tuple(gts[i])) for i in gts]


# -- correctness gate -----------------------------------------------------------


def compare_reports(got: dict, exact: dict) -> list[str]:
    """Problems of a 12-metric report against the exact oracle's report:
    recall rows must be equal, MaP rows within ``MAP_CEILING``."""
    problems = []
    for name in RECALL_ROWS:
        if got.get(name) != exact[name]:
            problems.append(f"{name} = {got.get(name)!r}, exact {exact[name]!r}")
    for name in MAP_ROWS:
        value, want = got.get(name), exact[name]
        if not isinstance(value, float):
            problems.append(f"{name} missing from the report")
        elif (value == cs.UNDEFINED) != (want == cs.UNDEFINED) or abs(value - want) > MAP_CEILING:
            problems.append(f"{name} = {value!r}, exact {want!r}, ceiling {MAP_CEILING}")
    return problems


def map_abs_err(got: dict, exact: dict) -> float:
    """Largest |streaming - exact| over the MaP rows defined on both sides."""
    return max(
        (
            abs(got[name] - exact[name])
            for name in MAP_ROWS
            if isinstance(got.get(name), float)
            and cs.UNDEFINED not in (got[name], exact[name])
        ),
        default=0.0,
    )


def sparse_arrays(state) -> dict[str, tuple]:
    """Shape, non-zero flat indices and values of every array in a state."""
    out = {}
    for name, arr in vars(state).items():
        if isinstance(arr, np.ndarray):
            flat = arr.ravel()
            nz = np.flatnonzero(flat)
            out[name] = (arr.shape, nz, flat[nz])
    return out


def compare_states(got, want: dict[str, tuple]) -> list[str]:
    """Elementwise comparison of a state against ``sparse_arrays`` output."""
    have = sparse_arrays(got)
    if set(have) != set(want):
        return [f"state arrays {sorted(have)} != expected {sorted(want)}"]
    problems = []
    for name, (shape, nz, values) in want.items():
        g_shape, g_nz, g_values = have[name]
        if g_shape != shape or not np.array_equal(g_nz, nz) or not np.array_equal(g_values, values):
            problems.append(f"state array {name} differs from a single update over all shards")
    return problems


# -- workloads --------------------------------------------------------------------


class Workload:
    name = ""
    salt = 0  # keeps the workloads' random streams apart for one seed

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.salt, self.seed])

    def setup(self, write: bool = True) -> None:
        """Make the inputs from the seed; with ``write``, also the input files."""
        raise NotImplementedError

    def run(self):
        """One timed pass, from the inputs to the final output."""
        raise NotImplementedError

    def reference(self):
        """What ``check`` compares against, computed once per seed."""
        raise NotImplementedError

    def check(self, output, ref) -> Outcome:
        raise NotImplementedError

    def at_boundary(self) -> bool:
        """Whether a run may stop after the pass just made."""
        return True

    def wrap_up(self):
        """The work a run ends with, after its last pass; None if none."""
        return None

    def finish(self, output, ref) -> Outcome:
        """The check of a whole run on what ``wrap_up`` returned, made once;
        a problem here fails every pass of the run."""
        return Outcome([])

    def snapshot(self, output, ref) -> Path:
        """A snapshot file of the pass's final streaming state."""
        raise NotImplementedError


class ValStream(Workload):
    """``cocostream evaluate --state-out`` on one COCO-style JSON pair."""

    name = "val_stream"
    salt = 1

    def setup(self, write: bool = True) -> None:
        rng = self.rng()
        self.gt_doc = annotation_doc(rng, self.scale.val_images, self.scale.val_classes)
        self.results = results_doc(rng, self.gt_doc)
        self.gt_path = self.workdir / "annotations.json"
        self.det_path = self.workdir / "detections.json"
        self.state_path = self.workdir / "eval.state"
        self.report_path = self.workdir / "report.json"
        self.snapshot_checked = False
        if write:
            self.gt_path.write_text(json.dumps(self.gt_doc))
            self.det_path.write_text(json.dumps(self.results))

    def run(self) -> int:
        return cocostream.cli.main(
            [
                "evaluate",
                str(self.gt_path),
                str(self.det_path),
                "--mode", "streaming",
                "--format", "json",
                "--state-out", str(self.state_path),
                "--output", str(self.report_path),
            ]
        )

    def reference(self) -> dict:
        pairs = doc_pairs(self.gt_doc, self.results)
        config = cs.EvalConfig(num_classes=self.scale.val_classes)
        return cs.evaluate_exact(pairs, config).as_dict()

    def check(self, output: int, ref: dict) -> Outcome:
        if output != 0:
            return Outcome([f"evaluate exited with {output}"])
        report = json.loads(self.report_path.read_text())
        problems = compare_reports(report, ref)
        if not self.snapshot_checked:
            # The snapshot is the same on every pass; check it once per run.
            with open(self.state_path, "rb") as fh:
                if cs.finalize(cs.load_state(fh)).as_dict() != report:
                    problems.append("the state snapshot does not finalize to the report")
            self.snapshot_checked = True
        return Outcome(problems, map_abs_err(report, ref))

    def snapshot(self, output, ref) -> Path:
        return self.state_path


class ShardReduce(Workload):
    """``cocostream merge`` of per-shard snapshots, then finalize the result."""

    name = "shard_reduce"
    salt = 2

    def setup(self, write: bool = True) -> None:
        rng = self.rng()
        s = self.scale
        self.config = cs.EvalConfig(num_classes=s.shard_classes)
        gt_doc = annotation_doc(rng, s.shards * s.shard_images, s.shard_classes)
        pairs = doc_pairs(gt_doc, results_doc(rng, gt_doc))
        n = s.shard_images
        self.shard_pairs = [pairs[i * n:(i + 1) * n] for i in range(s.shards)]
        self.shard_paths = [self.workdir / f"shard{i}.state" for i in range(s.shards)]
        self.merged_path = self.workdir / "merged.state"
        if write:
            for shard, path in zip(self.shard_pairs, self.shard_paths):
                state = cs.update(cs.new_state(self.config), shard)
                with open(path, "wb") as fh:
                    cs.save_state(state, fh)

    def run(self):
        code = cocostream.cli.main(
            ["merge", *map(str, self.shard_paths), "--output", str(self.merged_path)]
        )
        with open(self.merged_path, "rb") as fh:
            state = cs.load_state(fh)
        return code, state, cs.finalize(state)

    def reference(self) -> tuple[dict, dict]:
        pairs = [pair for shard in self.shard_pairs for pair in shard]
        whole = cs.update(cs.new_state(self.config), pairs)
        return sparse_arrays(whole), cs.evaluate_exact(pairs, self.config).as_dict()

    def check(self, output, ref) -> Outcome:
        code, state, report = output
        if code != 0:
            return Outcome([f"merge exited with {code}"])
        want_state, exact = ref
        got = report.as_dict()
        problems = compare_states(state, want_state) + compare_reports(got, exact)
        return Outcome(problems, map_abs_err(got, exact))

    def snapshot(self, output, ref) -> Path:
        return self.merged_path


class ExactStudy(Workload):
    """``bench.run_synth_bench``: streaming against the exact oracle."""

    name = "exact_study"
    salt = 3

    def setup(self, write: bool = True) -> None:
        rng = self.rng()
        s = self.scale
        self.config = cs.EvalConfig(num_classes=s.study_classes)
        doc = annotation_doc(rng, s.study_images, s.study_classes)
        gts: dict[int, list] = {img["id"]: [] for img in doc["images"]}
        for ann in doc["annotations"]:
            gts[ann["image_id"]].append(
                cs.GroundTruth(_corner(ann["bbox"]), ann["category_id"] - 1)
            )
        self.pool = cs.Dataset(
            images=tuple(cs.ImageRecord(i, ground_truths=tuple(g)) for i, g in gts.items()),
            category_ids=tuple(range(1, s.study_classes + 1)),
        )

    def run(self):
        return cocostream.bench.run_synth_bench(
            self.pool,
            self.config,
            image_counts=[self.scale.study_images],
            repeats=1,
            seed=self.seed,
        )

    def reference(self):
        # run_synth_bench derives its sampling and perturbation seeds this way.
        sample_seed, perturb_seed = np.random.SeedSequence(self.seed).generate_state(2)
        sampled = cs.sample_images(self.pool, self.scale.study_images, seed=int(sample_seed))
        pairs = cs.perturb(sampled, cs.PerturbationParams(seed=int(perturb_seed))).pairs()
        state = cs.update(cs.new_state(self.config), pairs)
        return state, cs.finalize(state).as_dict(), cs.evaluate_exact(pairs, self.config).as_dict()

    def check(self, output, ref) -> Outcome:
        _, streaming, exact = ref
        rows = {row.metric_name: row for row in output}
        if set(rows) != set(exact) or len(output) != len(exact):
            return Outcome([f"expected one row per metric, got {sorted(rows)}"])
        problems = [
            f"{name}: row ({row.streaming_value!r}, {row.exact_value!r}) != "
            f"finalize/evaluate_exact ({streaming[name]!r}, {exact[name]!r})"
            for name, row in rows.items()
            if (row.streaming_value, row.exact_value) != (streaming[name], exact[name])
        ]
        got = {name: row.streaming_value for name, row in rows.items()}
        problems += compare_reports(got, exact)
        return Outcome(problems, map_abs_err(got, exact))

    def snapshot(self, output, ref) -> Path:
        path = self.workdir / "final.state"
        with open(path, "wb") as fh:
            cs.save_state(ref[0], fh)
        return path


def padded_image(
    rng: np.random.Generator, scale: Scale
) -> tuple[tuple[cs.Detection, ...], tuple[cs.GroundTruth, ...]]:
    """One image at fixed width, as a training loop hands it over: every
    ground truth jittered into a detection scored in [0.5, 1), low-score
    distractors of the image's own classes, and ``class_id == -1`` padding up
    to ``train_det_slots`` detections and ``train_gt_slots`` ground truths.
    The fill is the same for every image and seed."""
    n_gt = scale.train_gt_slots * 3 // 8
    classes = rng.choice(scale.train_classes, size=min(4, scale.train_classes), replace=False)
    boxes = [_box_xywh(rng) for _ in range(n_gt)]
    gt_classes = [int(rng.choice(classes)) for _ in range(n_gt)]
    gts = [cs.GroundTruth(_corner(b), k) for b, k in zip(boxes, gt_classes)]
    dets = [
        cs.Detection(_corner(_jitter(rng, b)), k, float(rng.uniform(0.5, 1.0)))
        for b, k in zip(boxes, gt_classes)
    ]
    n_dets = scale.train_det_slots * 7 // 8
    dets += [
        cs.Detection(_corner(_box_xywh(rng)), int(rng.choice(classes)), float(rng.uniform(0.0, 0.5)))
        for _ in range(n_dets - len(dets))
    ]
    pad = cs.BoundingBox(0.0, 0.0, 0.0, 0.0)
    dets += [cs.Detection(pad, -1, 0.0)] * (scale.train_det_slots - len(dets))
    gts += [cs.GroundTruth(pad, -1)] * (scale.train_gt_slots - len(gts))
    return tuple(dets), tuple(gts)


class TrainLoop(Workload):
    """``update`` once per padded in-memory mini-batch on one long-lived
    state, as a training loop evaluates; ``finalize`` once at the end."""

    name = "train_loop"
    salt = 4

    def setup(self, write: bool = True) -> None:
        rng = self.rng()
        s = self.scale
        self.config = cs.EvalConfig(num_classes=s.train_classes)
        self.batches = [
            [padded_image(rng, s) for _ in range(s.train_batch_images)]
            for _ in range(s.train_batches)
        ]
        self.state = None
        self.fed = 0

    def run(self):
        if self.state is None:
            self.state = cs.new_state(self.config)
        batch = self.batches[self.fed % len(self.batches)]
        self.fed += 1
        return cs.update(self.state, batch)

    def at_boundary(self) -> bool:
        return self.fed % len(self.batches) == 0

    def reference(self) -> tuple[dict, dict]:
        pairs = [pair for batch in self.batches for pair in batch]
        whole = cs.update(cs.new_state(self.config), pairs)
        return sparse_arrays(whole), cs.evaluate_exact(pairs, self.config).as_dict()

    def check(self, output, ref) -> Outcome:
        if output is not self.state:
            return Outcome(["update did not return the state it was given"])
        return Outcome([])

    def wrap_up(self) -> cs.MetricReport:
        return cs.finalize(self.state)

    def finish(self, output: cs.MetricReport, ref) -> Outcome:
        # The run fed whole cycles of the batches, so the state is that many
        # times one update over a cycle, and the report (ratios of its
        # counts) is the report of one cycle.
        want_state, exact = ref
        cycles = self.fed // len(self.batches)
        scaled = {name: (shape, nz, values * cycles) for name, (shape, nz, values) in want_state.items()}
        got = output.as_dict()
        problems = compare_states(self.state, scaled) + compare_reports(got, exact)
        return Outcome(problems, map_abs_err(got, exact))

    def snapshot(self, output, ref) -> Path:
        path = self.workdir / "final.state"
        with open(path, "wb") as fh:
            cs.save_state(self.state, fh)
        return path


WORKLOADS = {w.name: w for w in (ValStream, TrainLoop, ShardReduce, ExactStudy)}
