"""Differential tests of the columnar matching, bucketing and exact paths
against the scalar references: the brute-force greedy_cell per grid cell,
bucket_index per confidence, a global sort of greedy_cell verdicts for
evaluate_exact, and the dense per-cell reducer for finalize.

match_batch is also held to the per-image match_image records joined in
batch order, with the chunk cap patched so that batches split into chunks,
and the snapshot entries and report built straight from its matches are
held to the dense state's. The flat histogram index of every kept verdict,
up to 2**40 buckets, and the oracle's recall totals are held to one
np.ravel_multi_index per verdict. perturb is held to perturb_reference, its
former loop of scalar draws, by exact equality of the datasets.

Max-dets limits are drawn from 1-6, so prefixes of the single match at the
largest limit really get cut; a few repeated confidences produce confidence
ties, and ground-truth pairs mirrored about a detection's box tie in IoU.
"""

import io
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocostream import (
    AreaRange,
    BoundingBox,
    Dataset,
    Detection,
    EvalConfig,
    GroundTruth,
    ImageRecord,
    PerturbationParams,
    bucket_index,
    evaluate_exact,
    finalize,
    interpolate_ap,
    new_state,
    perturb,
    save_state,
    update,
)
from cocostream import matching, oracle
from cocostream.matching import match_batch, match_image
from cocostream.oracle import exact_report
from cocostream.streaming import _finalize_entries, _match_entries, _write_entries, add_matches

from conftest import cell_result, make_det, make_gt, random_dataset
from reference import dense_finalize, greedy_cell, metric_report, perturb_reference

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


def _shifted(box, dx, dy):
    return BoundingBox(box.left + dx, box.top + dy, box.right + dx, box.bottom + dy)


@st.composite
def _images(draw, detections, ground_truths=ground_truths):
    """(detections, ground_truths) plus up to two ground-truth pairs, each
    mirrored about one detection's box so the two tie in IoU for it, and
    optionally a later-ranked detection on one box of the pair, whose
    verdict the tie can decide."""
    dets = draw(st.lists(detections, max_size=8))
    gts = draw(st.lists(ground_truths, max_size=6))
    for d in draw(st.lists(st.sampled_from(dets), max_size=2)) if dets else ():
        dx, dy = draw(st.integers(-8, 8)), draw(st.integers(-8, 8))
        pair = [GroundTruth(_shifted(d.box, s * dx, s * dy), d.class_id) for s in (1, -1)]
        at = draw(st.integers(0, len(gts)))
        gts[at:at] = pair
        if draw(st.booleans()):
            conf = min(draw(detections).confidence, d.confidence)  # ranked after d
            dets.append(Detection(draw(st.sampled_from(pair)).box, d.class_id, conf))
    return dets, gts


images = _images(detections)
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
@example(  # the first detection ties between the two gts; the second sits on the later one
    config=EvalConfig(num_classes=NUM_CLASSES, iou_thresholds=(0.5, 0.75), buckets=7),
    image=(
        [make_det(10, 10, 30, 30, confidence=0.9), make_det(12, 10, 32, 30)],
        [make_gt(8, 10, 28, 30), make_gt(12, 10, 32, 30)],
    ),
)
def test_match_image_cells_equal_reference(config, image):
    dets, gts = image
    matches = match_image(dets, gts, config)
    for k in range(NUM_CLASSES):
        k_dets, k_gts = _class_inputs(dets, gts, k)
        for t_idx, theta in enumerate(config.iou_thresholds):
            for a_idx, (_, area) in enumerate(config.area_ranges):
                for m_idx, max_dets in enumerate(config.max_dets_list):
                    want = greedy_cell(k_dets, k_gts, theta, max_dets, area)
                    assert cell_result(matches, k, t_idx, a_idx, m_idx) == want


def _scalar_state(config, batch):
    """The state of batch built from greedy_cell, one grid cell at a time."""
    want = new_state(config)
    for dets, gts in batch:
        for k in range(config.num_classes):
            k_dets, k_gts = _class_inputs(dets, gts, k)
            for t_idx, theta in enumerate(config.iou_thresholds):
                for a_idx, (_, area) in enumerate(config.area_ranges):
                    for m_idx, max_dets in enumerate(config.max_dets_list):
                        verdicts, gt_count = greedy_cell(k_dets, k_gts, theta, max_dets, area)
                        want.tp_totals[t_idx, k, a_idx, m_idx] += sum(tp for _, tp in verdicts)
                    for conf, is_tp in verdicts:  # at the largest limit
                        hist = want.tp_buckets if is_tp else want.fp_buckets
                        hist[t_idx, k, a_idx, 0, bucket_index(conf, config.buckets)] += 1
                    if t_idx == 0:
                        want.gt_counts[k, a_idx] += gt_count
    return want


def _assert_states_equal(got, want):
    np.testing.assert_array_equal(got.tp_buckets, want.tp_buckets)
    np.testing.assert_array_equal(got.fp_buckets, want.fp_buckets)
    np.testing.assert_array_equal(got.tp_totals, want.tp_totals)
    np.testing.assert_array_equal(got.gt_counts, want.gt_counts)


@settings(max_examples=150, deadline=None)
@given(config=configs, batch=st.lists(images, max_size=6))
def test_update_equals_scalar_reference(config, batch):
    _assert_states_equal(update(new_state(config), batch), _scalar_state(config, batch))


@st.composite
def many_class_batches(draw):
    """(num_classes, batch) at 1-5 classes. Each image is an _images draw
    plus several ground truths of one class, detections shifted off some
    ground truths in their class, and detections on a ground truth's very
    box (IoU 1) in another class, which must stay false positives."""
    k = draw(st.integers(1, 5))
    cls = st.integers(0, k - 1)
    image = _images(
        st.builds(Detection, boxes(), cls, confidences), st.builds(GroundTruth, boxes(), cls)
    )
    batch = []
    for _ in range(draw(st.integers(0, 5))):
        dets, gts = draw(image)
        crowded = draw(cls)
        gts += [GroundTruth(b, crowded) for b in draw(st.lists(boxes(), min_size=2, max_size=5))]
        gts = draw(st.permutations(gts))
        for g in draw(st.lists(st.sampled_from(gts), max_size=4)):
            dx, dy = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
            dets.append(Detection(_shifted(g.box, dx, dy), g.class_id, draw(confidences)))
        for g in draw(st.lists(st.sampled_from(gts), max_size=2)) if k > 1 else ():
            other = (g.class_id + draw(st.integers(1, k - 1))) % k
            dets.append(Detection(g.box, other, draw(confidences)))
        batch.append((dets, gts))
    return k, batch


@pytest.mark.parametrize("cap", [matching._CHUNK_ELEMENTS, 16, -1])
@settings(max_examples=100, deadline=None)
@given(
    data=many_class_batches(),
    iou_thresholds=st.sampled_from([(0.5,), (0.3, 0.5, 0.7), (0.1, 0.75, 1.0)]),
    max_dets=st.integers(1, 6),
)
def test_many_class_batches_equal_the_scalar_reference(cap, data, iou_thresholds, max_dets):
    num_classes, batch = data
    config = EvalConfig(
        num_classes=num_classes,
        iou_thresholds=iou_thresholds,
        buckets=10000,
        max_dets_list=tuple(sorted({1, max_dets})),
    )
    with mock.patch.object(matching, "_CHUNK_ELEMENTS", cap):
        got = update(new_state(config), batch)
        joined = match_batch(batch, config)
    _assert_states_equal(got, _scalar_state(config, batch))
    records = [match_image([], [], config)] + [match_image(d, g, config) for d, g in batch]
    for field in ("cls", "area", "rank", "confidences", "tp"):
        want = np.concatenate([getattr(r, field) for r in records], axis=-1)
        np.testing.assert_array_equal(getattr(joined, field), want)


padding = BoundingBox(0.0, 0.0, 0.0, 0.0)
padding_images = st.tuples(  # all padding, or empty
    st.lists(st.just(Detection(padding, -1, 0.0)), max_size=4),
    st.lists(st.just(GroundTruth(padding, -1)), max_size=4),
)
no_gt_images = st.tuples(st.lists(detections, max_size=8), st.just([]))


@pytest.mark.parametrize(
    "cap",
    [
        matching._CHUNK_ELEMENTS,
        16,  # chunks of a few images each
        -1,  # every product passes it, so each image is its own chunk
    ],
)
@settings(max_examples=150, deadline=None)
@given(config=configs, batch=st.lists(st.one_of(images, padding_images, no_gt_images), max_size=6))
@example(  # in both images the detection ties between two mirrored gts
    config=EvalConfig(num_classes=NUM_CLASSES, iou_thresholds=(0.5, 0.75), buckets=7),
    batch=[
        (
            [make_det(10, 10, 30, 30, confidence=0.9), make_det(12, 10, 32, 30)],
            [make_gt(8, 10, 28, 30), make_gt(12, 10, 32, 30)],
        ),
        ([], []),
        (
            [make_det(10, 10, 30, 30, confidence=0.9), make_det(8, 10, 28, 30)],
            [make_gt(12, 10, 32, 30), make_gt(8, 10, 28, 30)],
        ),
    ],
)
def test_match_batch_equals_per_image_records_joined(cap, config, batch):
    with mock.patch.object(matching, "_CHUNK_ELEMENTS", cap):
        got = match_batch(batch, config)
    records = [match_image([], [], config)] + [match_image(d, g, config) for d, g in batch]
    assert got.config == config
    for field in ("cls", "area", "rank", "confidences", "tp"):
        want = np.concatenate([getattr(r, field) for r in records], axis=-1)
        assert getattr(got, field).dtype == want.dtype
        np.testing.assert_array_equal(getattr(got, field), want)
    np.testing.assert_array_equal(got.gt_counts, sum(r.gt_counts for r in records))


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
tied_images = _images(tied_detections)


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
                        verdicts, gt_count = greedy_cell(k_dets, k_gts, theta, max_dets, area)
                        tp_totals[t_idx, k, a_idx, m_idx] += sum(is_tp for _, is_tp in verdicts)
                    top_verdicts.setdefault((t_idx, k, a_idx), []).extend(verdicts)
                    if t_idx == 0:
                        gt_counts[k, a_idx] += gt_count

    def ap_for(t_idx, k, a_idx):
        ranked = sorted(top_verdicts[(t_idx, k, a_idx)], key=lambda v: -v[0])
        recalls, precisions, tp = [], [], 0
        for i, (_, is_tp) in enumerate(ranked, start=1):
            tp += is_tp
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


# Scores of two decimals, so confidences tie within and across images.
rounded_images = _images(
    st.builds(Detection, boxes(), classes, st.integers(0, 100).map(lambda k: k / 100))
)
MAP_ROWS = ("map_standard", "map_50", "map_75", "map_small", "map_medium", "map_large")


@settings(max_examples=150, deadline=None)
@given(
    config=st.builds(replace, configs, buckets=st.integers(1, 100)),
    dataset=st.lists(rounded_images, max_size=4),
)
@example(  # a TP and then an FP in the one bucket: MaP 0.5 bucketed, 1.0 exact
    config=EvalConfig(num_classes=NUM_CLASSES, buckets=1),
    dataset=[([make_det(confidence=0.9), make_det(confidence=0.8)], [make_gt()])],
)
def test_bucketed_map_is_a_lower_bound_of_exact_map(config, dataset):
    # Each bucket's PR point, which follows every higher bucket, is also a
    # point of the exact curve, so each bucketed envelope value is a maximum
    # over fewer points. The exact points within a bucket of TPs only, or of
    # FPs only, lie below a point that both curves share; so only a bucket
    # that holds a TP and an FP can make the exact MaP higher.
    state = update(new_state(config), dataset)
    bucketed, exact = finalize(state).as_dict(), evaluate_exact(dataset, config).as_dict()
    for name in MAP_ROWS:
        assert (bucketed[name] == -1.0) == (exact[name] == -1.0)
        assert bucketed[name] <= exact[name]
    if not np.logical_and(state.tp_buckets, state.fp_buckets).any():
        assert bucketed == exact


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


entry_configs = st.builds(
    replace,
    configs,
    buckets=st.sampled_from([1, 7, 10000]),
    area_ranges=st.sampled_from(
        [
            EvalConfig(num_classes=NUM_CLASSES).area_ranges,
            (("all", AreaRange(0.0, math.inf)),),
            (  # overlapping ranges, none named "all"
                ("tiny", AreaRange(0.0, 100.0)),
                ("mid", AreaRange(50.0, 900.0)),
                ("big", AreaRange(400.0, math.inf)),
            ),
        ]
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    config=entry_configs,
    batch=st.lists(st.one_of(images, tied_images, padding_images, no_gt_images), max_size=6),
)
@example(config=EvalConfig(num_classes=NUM_CLASSES, buckets=7), batch=[])
def test_match_entries_equal_the_dense_state(config, batch):
    matches = match_batch(batch, config)
    state = add_matches(new_state(config), matches)
    entries = _match_entries(matches)
    got, want = io.BytesIO(), io.BytesIO()
    _write_entries(got, config, entries)
    save_state(state, want)
    assert got.getvalue() == want.getvalue()
    assert _bits(_finalize_entries(config, entries)) == _bits(finalize(state))


def _per_verdict_entries(matches):
    """(unique flat indices, counts) of the TP and of the FP verdicts kept at
    the largest limit, in the (theta, class, area, 1, bucket) histogram grid,
    and of the TP verdicts kept by each limit, in the (theta, class, area,
    limit) tp_totals grid; one np.ravel_multi_index per verdict."""
    config = matches.config
    cells = (len(config.iou_thresholds), config.num_classes, len(config.area_ranges))
    hist_shape, totals_shape = (*cells, 1, config.buckets), (*cells, len(config.max_dets_list))
    flat = ([], [], [])
    for j, rank in enumerate(matches.rank):
        b = bucket_index(float(matches.confidences[j]), config.buckets)
        kept_by = [m for m, limit in enumerate(config.max_dets_list) if rank < limit]
        for t in range(len(config.iou_thresholds)):
            cell = (t, matches.cls[j], matches.area[j])
            if rank < config.max_dets_list[-1]:
                index = np.ravel_multi_index((*cell, 0, b), hist_shape)
                flat[not matches.tp[t, j]].append(index)
            if matches.tp[t, j]:
                flat[2].extend(np.ravel_multi_index((*cell, m), totals_shape) for m in kept_by)
    return [np.unique(np.array(f, dtype=np.int64), return_counts=True) for f in flat]


@settings(max_examples=150, deadline=None)
@given(
    config=st.builds(replace, configs, buckets=st.sampled_from([1, 7, 10000, 2**40])),
    batch=st.lists(st.one_of(images, tied_images, padding_images, no_gt_images), max_size=6),
)
@example(  # indices past 2**32, and a limit of 1 that cuts the second detection
    config=EvalConfig(num_classes=NUM_CLASSES, buckets=2**40, max_dets_list=(1, 4)),
    batch=[
        (
            [make_det(confidence=0.9), make_det(confidence=0.8), make_det(class_id=-1)],
            [make_gt(), make_gt(class_id=-1)],
        )
    ],
)
def test_kept_indices_equal_a_per_verdict_ravel(config, batch):
    matches = match_batch(batch, config)
    entries = _match_entries(matches)
    want = _per_verdict_entries(matches)
    for name, (idx, counts) in zip(("tp_buckets", "fp_buckets", "tp_totals"), want):
        np.testing.assert_array_equal(entries[name][0], idx)
        np.testing.assert_array_equal(entries[name][1], counts)
    # The oracle's recall totals are the same tp_totals.
    with mock.patch.object(oracle, "metric_report", wraps=oracle.metric_report) as reduce:
        exact_report(matches)
    tp_totals = reduce.call_args.args[2]
    idx, counts = want[2]
    want = np.zeros(tp_totals.size, dtype=np.int64)
    want[idx] = counts
    np.testing.assert_array_equal(tp_totals.reshape(-1), want)


@st.composite
def _float_boxes(draw):
    left, top = draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4))
    return BoundingBox(left, top, left + draw(st.floats(0, 1e4)), top + draw(st.floats(0, 1e4)))


pools = st.lists(
    st.builds(
        ImageRecord,
        image_id=st.integers(0, 10**6),
        ground_truths=st.lists(st.builds(GroundTruth, _float_boxes(), classes), max_size=5).map(
            tuple
        ),
    ),
    max_size=6,
).map(lambda records: Dataset(images=tuple(records), category_ids=(3, 7)))


@st.composite
def perturbation_params(draw):
    low, high = sorted(draw(st.lists(st.floats(0, 10, exclude_min=True), min_size=2, max_size=2)))
    return PerturbationParams(
        translate_fraction=draw(st.floats(0, 1, exclude_max=True)),
        scale_low=low,
        scale_high=high,
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def _perturb_reference(dataset, params):
    return perturb_reference(dataset, params, box_type=BoundingBox, detection_type=Detection)


@settings(max_examples=200, deadline=None)
@given(dataset=pools, params=perturbation_params())
@example(dataset=Dataset(images=(), category_ids=()), params=PerturbationParams())
@example(  # an image with no ground truth between two that have some
    dataset=Dataset(
        images=(
            ImageRecord(1, (make_gt(), make_gt(5, 5, 20, 30, class_id=1))),
            ImageRecord(2),
            ImageRecord(3, (make_gt(class_id=-1),)),
        ),
        category_ids=(3, 7),
    ),
    params=PerturbationParams(seed=11),
)
def test_perturb_equals_the_scalar_draw_loop(dataset, params):
    assert perturb(dataset, params) == _perturb_reference(dataset, params)


def test_perturb_of_a_box_past_the_float_range_fails_as_the_loop_does():
    wide = ImageRecord(1, (GroundTruth(BoundingBox(-1e308, 0.0, 1e308, 1.0), 0),))
    dataset = Dataset(images=(wide,), category_ids=(3,))
    errors = []
    for synthesize in (perturb, _perturb_reference):
        with pytest.raises(ValueError, match="non-finite box coordinate") as caught:
            synthesize(dataset, PerturbationParams(seed=2))
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
