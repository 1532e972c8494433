"""Differential tests of the columnar matching, bucketing and exact paths
against the scalar references: match_image_class per grid cell,
bucket_index per confidence, a global sort of match_image_class verdicts
for evaluate_exact, and the dense per-cell reducer for finalize.

Max-dets limits are drawn from 1-6, so prefixes of the single match at the
largest limit really get cut; small integer boxes and a few repeated
confidences produce IoU and confidence ties.
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocostream import (
    BoundingBox,
    Detection,
    EvalConfig,
    GroundTruth,
    bucket_index,
    evaluate_exact,
    finalize,
    interpolate_ap,
    match_image_class,
    new_state,
    update,
)
from cocostream.matching import match_image

from conftest import cell_result, make_det, make_gt, random_dataset
from reference import dense_finalize, metric_report

NUM_CLASSES = 2

confidences = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def boxes(draw):
    # Sides up to 40 cover the small (< 32^2) and medium default area ranges.
    left, top = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    w, h = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    return BoundingBox(float(left), float(top), float(left + w), float(top + h))


classes = st.integers(-1, NUM_CLASSES - 1)  # -1 is padding
detections = st.builds(Detection, boxes(), classes, confidences)
ground_truths = st.builds(GroundTruth, boxes(), classes)
images = st.tuples(
    st.lists(detections, max_size=8), st.lists(ground_truths, max_size=6)
)
configs = st.builds(
    EvalConfig,
    num_classes=st.just(NUM_CLASSES),
    iou_thresholds=st.sampled_from([(0.5,), (0.3, 0.5, 0.7), (0.1, 0.75, 1.0)]),
    buckets=st.integers(1, 12),
    max_dets_list=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True).map(
        lambda ms: tuple(sorted(ms))
    ),
)


def _class_inputs(dets, gts, k):
    return [d for d in dets if d.class_id == k], [g for g in gts if g.class_id == k]


@settings(max_examples=150, deadline=None)
@given(config=configs, image=images)
def test_match_image_cells_equal_reference(config, image):
    dets, gts = image
    matches = match_image(dets, gts, config)
    for k in range(NUM_CLASSES):
        k_dets, k_gts = _class_inputs(dets, gts, k)
        for t_idx, theta in enumerate(config.iou_thresholds):
            for a_idx, (_, area) in enumerate(config.area_ranges):
                for m_idx, max_dets in enumerate(config.max_dets_list):
                    want = match_image_class(k_dets, k_gts, theta, max_dets, area)
                    assert cell_result(matches, k, t_idx, a_idx, m_idx) == want


@settings(max_examples=150, deadline=None)
@given(config=configs, batch=st.lists(images, max_size=3))
def test_update_equals_scalar_reference(config, batch):
    want = new_state(config)
    for dets, gts in batch:
        for k in range(NUM_CLASSES):
            k_dets, k_gts = _class_inputs(dets, gts, k)
            for t_idx, theta in enumerate(config.iou_thresholds):
                for a_idx, (_, area) in enumerate(config.area_ranges):
                    for m_idx, max_dets in enumerate(config.max_dets_list):
                        res = match_image_class(k_dets, k_gts, theta, max_dets, area)
                        for v in res.verdicts:
                            hist = want.tp_buckets if v.is_tp else want.fp_buckets
                            hist[t_idx, k, a_idx, m_idx, bucket_index(v.confidence, config.buckets)] += 1
                    if t_idx == 0:
                        want.gt_counts[k, a_idx] += res.gt_count

    got = update(new_state(config), batch)
    np.testing.assert_array_equal(got.tp_buckets, want.tp_buckets)
    np.testing.assert_array_equal(got.fp_buckets, want.fp_buckets)
    np.testing.assert_array_equal(got.gt_counts, want.gt_counts)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(confidences, max_size=20),
    buckets=st.one_of(st.integers(1, 12), st.just(10000)),
)
def test_array_bucket_index_equals_scalar(values, buckets):
    got = bucket_index(np.array(values, dtype=float), buckets)
    assert got.shape == (len(values),)
    assert got.tolist() == [bucket_index(c, buckets) for c in values]


# Few distinct confidences, so tie order across and within images matters.
tied_detections = st.builds(Detection, boxes(), classes, st.sampled_from([0.2, 0.5, 0.9, 1.0]))
tied_images = st.tuples(
    st.lists(tied_detections, max_size=8), st.lists(ground_truths, max_size=6)
)


@settings(max_examples=150, deadline=None)
@given(config=configs, dataset=st.lists(tied_images, max_size=4))
def test_evaluate_exact_equals_scalar_reference(config, dataset):
    n_t, n_a = len(config.iou_thresholds), len(config.area_ranges)
    gt_counts = np.zeros((NUM_CLASSES, n_a), dtype=np.int64)
    tp_totals = np.zeros((n_t, NUM_CLASSES, n_a, len(config.max_dets_list)), dtype=np.int64)
    top_verdicts = {}  # (theta, class, area) -> verdicts at the largest limit, dataset order
    for dets, gts in dataset:
        for k in range(NUM_CLASSES):
            k_dets, k_gts = _class_inputs(dets, gts, k)
            for t_idx, theta in enumerate(config.iou_thresholds):
                for a_idx, (_, area) in enumerate(config.area_ranges):
                    for m_idx, max_dets in enumerate(config.max_dets_list):
                        res = match_image_class(k_dets, k_gts, theta, max_dets, area)
                        tp_totals[t_idx, k, a_idx, m_idx] += sum(v.is_tp for v in res.verdicts)
                    top_verdicts.setdefault((t_idx, k, a_idx), []).extend(res.verdicts)
                    if t_idx == 0:
                        gt_counts[k, a_idx] += res.gt_count

    def ap_for(t_idx, k, a_idx):
        ranked = sorted(top_verdicts[(t_idx, k, a_idx)], key=lambda v: -v.confidence)
        recalls, precisions, tp = [], [], 0
        for i, v in enumerate(ranked, start=1):
            tp += v.is_tp
            recalls.append(tp / gt_counts[k, a_idx])
            precisions.append(tp / i)
        return interpolate_ap(recalls, precisions, config.recall_thresholds)

    want = metric_report(config, gt_counts, tp_totals, ap_for)
    assert evaluate_exact(dataset, config).as_dict() == want.as_dict()


def _bits(report):
    return {name: float(v).hex() for name, v in report.as_dict().items()}


@settings(max_examples=100, deadline=None)
@given(
    config=st.builds(replace, configs, buckets=st.sampled_from([1, 2, 7, 10000])),
    dataset=st.lists(st.one_of(images, tied_images), max_size=4),
)
@example(config=EvalConfig(num_classes=NUM_CLASSES, buckets=7), dataset=[])
@example(  # class 0 has detections and no ground truth, class 1 the reverse
    config=EvalConfig(num_classes=NUM_CLASSES, buckets=2),
    dataset=[([make_det(confidence=0.9), make_det(confidence=0.1)], [make_gt(class_id=1)])],
)
def test_finalize_equals_dense_reference(config, dataset):
    state = update(new_state(config), dataset)
    assert _bits(finalize(state)) == _bits(dense_finalize(state))


def test_finalize_equals_dense_reference_on_the_default_grid():
    # Ten thresholds, three classes and detections shifted off their ground
    # truths give each mean enough distinct terms that a change in
    # summation order shows in the last bits.
    config = EvalConfig(num_classes=3, buckets=100)
    rng = np.random.default_rng(0)
    for _ in range(4):
        dataset = []
        for dets, gts in random_dataset(int(rng.integers(1 << 30)), n_images=8):
            for g in gts:
                dx, dy = rng.normal(0.0, 3.0, 2)
                b = g.box
                box = BoundingBox(b.left + dx, b.top + dy, b.right + dx, b.bottom + dy)
                dets.append(Detection(box, g.class_id, float(rng.random())))
            dataset.append((dets, gts))
        state = update(new_state(config), dataset)
        assert _bits(finalize(state)) == _bits(dense_finalize(state))
