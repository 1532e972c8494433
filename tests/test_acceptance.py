"""End-to-end acceptance checks; each test prints a pass line when green.

Covers: exact recall parity, distinct-bucket MaP exactness, merge algebra,
benchmark error ceilings, bucket-count convergence, matching invariants
against a brute-force matcher, and the hand-computed golden fixture.
"""

import math
import random
import time

import numpy as np
import pytest

from cocostream import (
    AreaRange,
    EvalConfig,
    PerturbationParams,
    evaluate_exact,
    finalize,
    load_detections,
    load_ground_truth,
    merge,
    new_state,
    perturb,
    sample_images,
    update,
)
from cocostream.bench import run_synth_bench, summarize
from cocostream.matching import match_image

from conftest import GOLDEN_METRICS, cell_result, random_dataset, random_image
from reference import brute_force_tp_flags

MAP_ROWS = ("map_standard", "map_50", "map_75", "map_small", "map_medium", "map_large")
RECALL_ROWS = (
    "recall_maxdets_1",
    "recall_maxdets_10",
    "recall_maxdets_100",
    "recall_small",
    "recall_medium",
    "recall_large",
)


def _report(label, elapsed):
    print(f"PASS {label} ({elapsed:.1f}s)")


def test_criterion_1_recall_exactness():
    """Streaming recall equals oracle recall on randomized small datasets."""
    t0 = time.time()
    cfg = EvalConfig(num_classes=3, buckets=100)
    rng = np.random.default_rng(101)
    for i in range(100):
        n_images = int(rng.integers(1, 8))
        max_boxes = int(rng.integers(1, 31))
        dataset = random_dataset(
            int(rng.integers(0, 2**31)), n_images=n_images, max_boxes=max_boxes
        )
        streaming = finalize(update(new_state(cfg), dataset)).as_dict()
        exact = evaluate_exact(dataset, cfg).as_dict()
        for name in RECALL_ROWS:
            assert streaming[name] == pytest.approx(exact[name], abs=1e-12), (i, name)
    _report("criterion 1: recall exactness on 100 random datasets", time.time() - t0)


def test_criterion_2_bucket_exactness():
    """MaP matches the oracle when all confidences land in distinct buckets."""
    t0 = time.time()
    cfg = EvalConfig(num_classes=2, buckets=10000)
    for seed in range(5):
        dataset = random_dataset(
            1000 + seed,
            n_images=10,
            num_classes=2,
            max_boxes=10,
            buckets_for_distinct=cfg.buckets,
        )
        n_dets = sum(len(dets) for dets, _ in dataset)
        assert n_dets <= 500
        streaming = finalize(update(new_state(cfg), dataset)).as_dict()
        exact = evaluate_exact(dataset, cfg).as_dict()
        for name in MAP_ROWS:
            if exact[name] == -1.0:
                assert streaming[name] == -1.0
            else:
                assert abs(streaming[name] - exact[name]) <= 1e-9, (seed, name)
    _report("criterion 2: MaP exactness with distinct buckets", time.time() - t0)


def test_criterion_3_merge_correctness():
    """Random shardings merge to the single-pass state, exactly."""
    t0 = time.time()
    cfg = EvalConfig(num_classes=3, buckets=200)
    dataset = random_dataset(33, n_images=16, max_boxes=8)
    whole = update(new_state(cfg), dataset)
    rng = random.Random(7)

    def counters(s):
        return s.tp_buckets, s.fp_buckets, s.gt_counts

    for trial in range(10):
        n_shards = rng.randint(2, 8)
        assignment = [rng.randrange(n_shards) for _ in dataset]
        shards = [
            update(new_state(cfg), [img for img, a in zip(dataset, assignment) if a == s])
            for s in range(n_shards)
        ]
        rng.shuffle(shards)
        merged = shards[0]
        for s in shards[1:]:
            merged = merge(merged, s)
        for got, want in zip(counters(merged), counters(whole)):
            assert (got == want).all(), trial
        assert finalize(merged).as_dict() == finalize(whole).as_dict()

    # commutativity and associativity at counter level
    a = update(new_state(cfg), dataset[:5])
    b = update(new_state(cfg), dataset[5:10])
    c = update(new_state(cfg), dataset[10:])
    for x, y in zip(counters(merge(a, b)), counters(merge(b, a))):
        assert (x == y).all()
    for x, y in zip(counters(merge(merge(a, b), c)), counters(merge(a, merge(b, c)))):
        assert (x == y).all()
    _report("criterion 3: merge equals single pass over 10 random shardings", time.time() - t0)


def test_criterion_4_benchmark_error_ceilings(synthetic_pool_path):
    """Mean streaming-vs-exact error on the 500-image synthetic benchmark
    stays under the published cross-tool ceilings."""
    t0 = time.time()
    gt = load_ground_truth(synthetic_pool_path)
    cfg = EvalConfig(num_classes=gt.num_classes, buckets=10000)
    rows = run_synth_bench(gt, cfg, image_counts=[500], repeats=10, seed=12345)
    means = {s.metric_name: s.mean_error for s in summarize(rows)}
    ceilings = {
        "map_standard": 0.046,
        "map_50": 0.075,
        "map_75": 0.079,
        "recall_maxdets_1": 0.035,
        "recall_maxdets_10": 0.035,
        "recall_maxdets_100": 0.035,
        "recall_small": 0.035,
        "recall_medium": 0.035,
        "recall_large": 0.035,
    }
    for name, ceiling in ceilings.items():
        assert means[name] != -1.0, name
        assert means[name] <= ceiling, (name, means[name])
    # recall is exact by construction
    for name in RECALL_ROWS:
        assert means[name] == pytest.approx(0.0, abs=1e-12), name
    _report(
        "criterion 4: benchmark mean errors under Table-ceiling bounds "
        f"(map_standard mean={means['map_standard']:.5f})",
        time.time() - t0,
    )


def test_criterion_5_bucket_count_convergence(synthetic_pool_path):
    """More buckets never hurt, and 10000 buckets land within 0.005."""
    t0 = time.time()
    gt = load_ground_truth(synthetic_pool_path)
    sampled = sample_images(gt, 100, seed=5)
    dataset = perturb(sampled, PerturbationParams(seed=6)).pairs()
    exact = evaluate_exact(dataset, EvalConfig(num_classes=gt.num_classes)).as_dict()

    max_errors = []
    for buckets in (10, 100, 1000, 10000):
        cfg = EvalConfig(num_classes=gt.num_classes, buckets=buckets)
        streaming = finalize(update(new_state(cfg), dataset)).as_dict()
        errs = [
            abs(streaming[name] - exact[name])
            for name in MAP_ROWS
            if exact[name] != -1.0
        ]
        max_errors.append(max(errs))
    assert max_errors == sorted(max_errors, reverse=True), max_errors
    assert max_errors[-1] <= 0.005, max_errors
    _report(
        "criterion 5: bucket-count convergence "
        + " -> ".join(f"{e:.5f}" for e in max_errors),
        time.time() - t0,
    )


def test_criterion_6_matching_invariants():
    """match_image agrees with brute force and obeys its monotonicities."""
    t0 = time.time()
    thetas = (0.3, 0.5, 0.75, 0.9)
    limits = (1, 3, 8, 100)
    cfg = EvalConfig(
        num_classes=1,
        iou_thresholds=thetas,
        max_dets_list=limits,
        area_ranges=(("all", AreaRange(0.0, math.inf)),),
    )
    rng = np.random.default_rng(606)
    for i in range(1000):
        dets, gts = random_image(rng, num_classes=1, max_boxes=8)
        matches = match_image(dets, gts, cfg)
        tp_by_theta = []
        for t_idx, theta in enumerate(thetas):
            verdicts, gt_count = cell_result(matches, 0, t_idx, 0, len(limits) - 1)
            flags = [is_tp for _, is_tp in verdicts]
            assert flags == brute_force_tp_flags(dets, gts, theta), (i, theta)
            tp = sum(flags)
            assert tp <= min(len(verdicts), gt_count), i
            tp_by_theta.append(tp)
        assert tp_by_theta == sorted(tp_by_theta, reverse=True), i
        tp_by_maxdets = [
            sum(is_tp for _, is_tp in cell_result(matches, 0, thetas.index(0.5), 0, m_idx)[0])
            for m_idx in range(len(limits))
        ]
        assert tp_by_maxdets == sorted(tp_by_maxdets), i
    _report("criterion 6: matching invariants on 1000 random images", time.time() - t0)


def test_criterion_7_golden_fixture(golden_paths):
    """Both evaluation modes reproduce the hand-computed golden metrics."""
    t0 = time.time()
    gt_path, det_path = golden_paths
    dataset = load_detections(det_path, load_ground_truth(gt_path))
    cfg = EvalConfig(num_classes=dataset.num_classes)
    pairs = dataset.pairs()
    exact = evaluate_exact(pairs, cfg).as_dict()
    streaming = finalize(update(new_state(cfg), pairs)).as_dict()
    for name, expected in GOLDEN_METRICS.items():
        assert exact[name] == pytest.approx(expected, abs=1e-12), ("exact", name)
        assert streaming[name] == pytest.approx(expected, abs=1e-12), ("streaming", name)
    _report("criterion 7: golden 3-image fixture reproduced by both modes", time.time() - t0)
