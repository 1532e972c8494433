import codecs
import dataclasses
import hashlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocostream import (
    AreaRange,
    ConfigError,
    EvalConfig,
    MatchingError,
    MergeError,
    bucket_index,
    evaluate_exact,
    finalize,
    interpolate_ap,
    load_state,
    merge,
    new_state,
    save_state,
    update,
)
from cocostream.cli import main
from cocostream.config import METRIC_NAMES
from cocostream.matching import match_batch
from cocostream.streaming import (
    _add_entries,
    _finalize_entries,
    _header,
    _header_config,
    _read_entries,
    _write_entries,
    add_matches,
    cell_aps,
)

from conftest import make_det, make_gt, random_dataset
from reference import cell_ap


class TestNewState:
    def test_default_config_shape(self):
        cfg = EvalConfig(num_classes=2)
        state = new_state(cfg)
        assert state.tp_buckets.shape == (10, 2, 4, 1, 10000)
        assert state.fp_buckets.shape == state.tp_buckets.shape
        assert state.tp_totals.shape == (10, 2, 4, 3)
        assert state.gt_counts.shape == (2, 4)
        assert not state.tp_buckets.any()
        assert not state.fp_buckets.any()
        assert not state.tp_totals.any()
        assert not state.gt_counts.any()

    def test_single_bucket_state(self):
        cfg = EvalConfig(num_classes=1, buckets=1)
        assert new_state(cfg).tp_buckets.shape[-1] == 1

    def test_degenerate_configs_rejected(self):
        with pytest.raises(ConfigError):
            EvalConfig(num_classes=0)
        with pytest.raises(ConfigError):
            EvalConfig(num_classes=1, buckets=0)
        with pytest.raises(ConfigError):
            EvalConfig(num_classes=1, iou_thresholds=())


class TestConfigRejects:
    @pytest.mark.parametrize(
        "bounds, message",
        [((-1.0, 5.0), "min_area must be >= 0"), ((5.0, 5.0), "max_area must exceed min_area")],
    )
    def test_bad_area_range(self, bounds, message):
        with pytest.raises(ConfigError, match=message):
            AreaRange(*bounds)

    @pytest.mark.parametrize("key", ["recall_thresholds", "area_ranges", "max_dets_list"])
    def test_empty_list_from_dict(self, key):
        d = EvalConfig(num_classes=1).to_dict()
        d[key] = []
        with pytest.raises(ConfigError, match=f"{key} must be non-empty"):
            EvalConfig.from_dict(d)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("num_classes", 1.0),
            ("num_classes", True),
            ("num_classes", np.int64(2)),
            ("buckets", 10.0),
            ("buckets", True),
            ("buckets", np.int32(7)),
            ("max_dets_list", (1, 2.5)),
            ("max_dets_list", (True, 10)),
            ("max_dets_list", (1, np.int64(10))),
        ],
        ids=lambda v: v if isinstance(v, str) else repr(v),
    )
    def test_integer_fields_take_python_ints_only(self, key, value):
        # each used to build, then fail in new_state, in load_state of its
        # own snapshot, or in save_state's JSON header
        with pytest.raises(ConfigError, match=f"^{key}.* must be an int, not a bool, got"):
            EvalConfig(**{"num_classes": 2, key: value})


class TestBucketIndex:
    def test_no_buckets_rejected(self):
        with pytest.raises(ConfigError, match="buckets must be >= 1, got 0"):
            bucket_index(0.5, 0)

    def test_zero_confidence(self):
        assert bucket_index(0.0, 10000) == 0

    def test_full_confidence(self):
        assert bucket_index(1.0, 10000) == 9999

    def test_exact_integer_product_goes_below(self):
        # limit of floor(0.5 * (10 - delta)) as delta -> 0+
        assert bucket_index(0.5, 10) == 4

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bucket_index(-0.1, 10)
        with pytest.raises(ValueError):
            bucket_index(1.1, 10)

    def test_always_in_range(self):
        rng = np.random.default_rng(0)
        for buckets in (1, 2, 7, 10000):
            for c in rng.random(200):
                assert 0 <= bucket_index(float(c), buckets) < buckets
            assert 0 <= bucket_index(1.0, buckets) < buckets

    @pytest.mark.parametrize(
        "d, shared", [(1, 10), (2, 96), (3, 1_000), (4, 9_424), (5, 94_697), (6, 990_338)]
    )
    def test_buckets_that_separate_d_decimal_scores(self, d, shared):
        # 2 * 10**d buckets give each of the 10**d + 1 d-decimal scores its
        # own bucket; at 10**d buckets, k / 10**d * 10**d lands on or just
        # above the integer k, so neighbours share buckets
        scores = np.arange(10**d + 1) / 10**d
        assert (np.diff(bucket_index(scores, 2 * 10**d)) > 0).all()
        assert len(np.unique(bucket_index(scores, 10**d))) == shared


class TestUpdate:
    def test_empty_batch_is_identity(self, small_config):
        state = update(new_state(small_config), [])
        assert not state.tp_buckets.any()
        assert not state.gt_counts.any()

    def test_perfect_detection_hits_top_bucket(self):
        cfg = EvalConfig(num_classes=1, buckets=100)
        state = update(
            new_state(cfg),
            [([make_det(confidence=1.0)], [make_gt()])],
        )
        # TP in the top bucket for every IoU threshold at the all-area range
        top = state.tp_buckets[:, 0, 0, :, -1]
        assert (top == 1).all()
        # the 10x10 box also lands in the small range; nothing else
        assert state.tp_buckets.sum() == 2 * top.size
        assert not state.fp_buckets.any()
        assert state.gt_counts[0, 0] == 1
        assert state.gt_counts[0, 1] == 1

    def test_padding_only_image_is_noop(self, small_config):
        state = update(
            new_state(small_config),
            [([make_det(class_id=-1, confidence=0.5)], [make_gt(class_id=-1)])],
        )
        assert not state.tp_buckets.any()
        assert not state.fp_buckets.any()
        assert not state.gt_counts.any()

    def test_atomic_on_error(self, small_config):
        good = ([make_det(confidence=0.7)], [make_gt()])
        bad = ([make_det(class_id=99, confidence=0.5)], [])
        state = new_state(small_config)
        with pytest.raises(Exception):
            update(state, [good, bad])
        assert not state.tp_buckets.any()
        assert not state.gt_counts.any()

    def test_huge_box_rejected_before_writing(self, small_config):
        good = ([make_det(confidence=0.7)], [make_gt()])
        bad = ([make_det(confidence=0.5)], [make_gt(0, 0, 1e308, 1e308)])
        state = new_state(small_config)
        with pytest.raises(MatchingError, match="image 1 of the batch: ground truth"):
            update(state, [good, bad])
        assert not state.tp_buckets.any()
        assert not state.fp_buckets.any()
        assert not state.gt_counts.any()

    def test_add_matches_rejects_other_config_before_writing(self, small_config):
        matches = match_batch([([make_det(confidence=0.7)], [make_gt()])], small_config)
        state = new_state(EvalConfig(num_classes=3, buckets=10))
        with pytest.raises(ValueError, match="different config"):
            add_matches(state, matches)
        assert not state.tp_buckets.any()
        assert not state.gt_counts.any()

    @pytest.mark.parametrize("fits", [True, False])
    @pytest.mark.parametrize("name", ["tp_buckets", "fp_buckets", "tp_totals", "gt_counts"])
    def test_overflow_raises_and_leaves_the_state_unchanged(self, small_config, name, fits):
        # Two TPs share a bucket, as do two FPs, so each array's busiest
        # counter takes two increments from the batch: a base of 2**63 - 3
        # reaches the int64 maximum, and 2**63 - 2 would wrap.
        tps = [make_det(confidence=0.7)] * 2
        fps = [make_det(50, 50, 60, 60, confidence=0.3)] * 2
        batch = [(tps + fps, [make_gt()] * 2)]
        flat = getattr(update(new_state(small_config), batch), name).reshape(-1)
        at = int(flat.argmax())
        assert flat[at] == 2
        state = new_state(small_config)
        edge = 2**63 - 3 + (0 if fits else 1)
        if name == "fp_buckets":
            # A bucket's TP + FP count is the same at every IoU threshold,
            # and this bucket's detections are FPs at every threshold.
            _, *bucket = np.unravel_index(at, state.fp_buckets.shape)
            state.fp_buckets[(slice(None), *bucket)] = edge
        else:
            getattr(state, name).flat[at] = edge
        if not name.startswith("tp_"):
            # A snapshot holds no TP count above its gt_counts, so only these
            # two arrays can be pushed to the edge in a valid snapshot's state.
            buf = io.BytesIO()
            save_state(state, buf)
            state = load_state(io.BytesIO(buf.getvalue()))
        before = state.copy()
        if fits:
            assert getattr(update(state, batch), name).flat[at] == 2**63 - 1
            return
        with pytest.raises(ValueError, match=f"counter overflow in array {name}"):
            update(state, batch)
        assert_states_equal(state, before)
        with pytest.raises(ValueError, match=f"counter overflow in array {name}"):
            merge(state, update(new_state(small_config), batch))

    def test_batch_order_invariance(self, small_config):
        batches = [random_dataset(1, n_images=3), random_dataset(2, n_images=3)]
        s1 = update(update(new_state(small_config), batches[0]), batches[1])
        s2 = update(update(new_state(small_config), batches[1]), batches[0])
        assert_states_equal(s1, s2)


class TestMerge:
    def test_merge_with_zero_state_is_identity(self, small_config):
        s = update(new_state(small_config), random_dataset(3, n_images=4))
        merged = merge(new_state(small_config), s)
        assert_states_equal(merged, s)

    def test_commutative(self, small_config):
        a = update(new_state(small_config), random_dataset(4, n_images=3))
        b = update(new_state(small_config), random_dataset(5, n_images=3))
        ab, ba = merge(a, b), merge(b, a)
        assert_states_equal(ab, ba)

    def test_sharded_equals_single_pass(self, small_config):
        dataset = random_dataset(6, n_images=4)
        whole = update(new_state(small_config), dataset)
        sharded = merge(
            update(new_state(small_config), dataset[:2]),
            update(new_state(small_config), dataset[2:]),
        )
        assert_states_equal(whole, sharded)
        assert finalize(whole).as_dict() == finalize(sharded).as_dict()

    def test_config_mismatch_rejected(self):
        a = new_state(EvalConfig(num_classes=1, buckets=10))
        b = new_state(EvalConfig(num_classes=1, buckets=20))
        with pytest.raises(MergeError):
            merge(a, b)

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_state_argument_is_a_type_error(self, small_config, side):
        args = {"a": new_state(small_config), "b": new_state(small_config), side: None}
        want = f"merge: argument {side} must be a BucketedState, got NoneType"
        with pytest.raises(TypeError, match=re.escape(want)):
            merge(args["a"], args["b"])

    def test_inputs_unchanged(self, small_config):
        # merge returns a new state; neither input may alias the result
        a = update(new_state(small_config), random_dataset(41, n_images=3))
        b = update(new_state(small_config), random_dataset(42, n_images=3))
        a_before, b_before = a.copy(), b.copy()
        merged = merge(a, b)
        for name in ("tp_buckets", "fp_buckets", "tp_totals", "gt_counts"):
            np.testing.assert_array_equal(getattr(a, name), getattr(a_before, name))
            np.testing.assert_array_equal(getattr(b, name), getattr(b_before, name))
            np.testing.assert_array_equal(
                getattr(merged, name), getattr(a, name) + getattr(b, name)
            )

    @pytest.mark.parametrize(
        "x, y, overflows",
        [
            (2**62, 2**62, True),
            (2**63 - 1, 1, True),
            (-(2**63), -1, True),
            (2**62, 2**62 - 1, False),
            (2**63 - 1, -1, False),
        ],
    )
    @pytest.mark.parametrize("name", ["tp_buckets", "fp_buckets", "tp_totals", "gt_counts"])
    def test_overflow_raises(self, name, x, y, overflows):
        # a wrapped sum would be a negative, or after four 2**62 terms a zero, counter
        config = EvalConfig(num_classes=1, buckets=4, iou_thresholds=(0.5,), max_dets_list=(10,))
        a, b = new_state(config), new_state(config)
        getattr(a, name).flat[-1], getattr(b, name).flat[-1] = x, y
        if overflows:
            with pytest.raises(ValueError, match=f"counter overflow in array {name}"):
                merge(a, b)
        else:
            assert getattr(merge(a, b), name).flat[-1] == x + y


class TestInterpolateAp:
    def test_perfect_detector(self):
        assert interpolate_ap([1.0], [1.0], [i / 100 for i in range(101)]) == 1.0

    def test_empty_sequences(self):
        assert interpolate_ap([], [], [i / 100 for i in range(101)]) == 0.0

    def test_half_recall(self):
        grid = [i / 100 for i in range(101)]
        got = interpolate_ap([0.5], [1.0], grid)
        assert got == pytest.approx(51 / 101)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interpolate_ap([0.5, 1.0], [1.0], [0.0])

    def test_envelope_applied(self):
        # raw precision dips then recovers; the envelope lifts the dip
        grid = [0.0, 0.5, 1.0]
        got = interpolate_ap([0.2, 0.6, 1.0], [0.5, 0.2, 0.9], grid)
        # envelope = [0.9, 0.9, 0.9]
        assert got == pytest.approx(0.9)


@st.composite
def pr_points(draw):
    """cell_aps arguments: a small grid whose cells hold 0-6 PR points each,
    one run per cell, the runs in shuffled cell order, in the exact form (tp bool, fp = ~tp) or the streaming one (int64
    counts up to 2**40, scaled by a common factor); ground-truth counts
    include 0 and the values 1, 4 and 100, whose recalls land exactly on
    thresholds i / 100."""
    recall_thresholds = draw(
        st.sampled_from(
            [
                EvalConfig(num_classes=1).recall_thresholds,
                (0.6,),
                (0.25, 0.5, 0.75, 1.0),
                (0.0, 0.3, 0.35, 0.9),
            ]
        )
        | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12, unique=True).map(
            lambda r: tuple(sorted(r))
        )
    )
    config = EvalConfig(
        num_classes=draw(st.integers(1, 2)),
        iou_thresholds=(0.5, 0.75)[: draw(st.integers(1, 2))],
        recall_thresholds=recall_thresholds,
        area_ranges=(("all", AreaRange(0.0, math.inf)), ("small", AreaRange(0.0, 32.0**2))),
    )
    gamma = st.sampled_from([0, 1, 4, 100]) | st.integers(0, 30)
    n_gt = 2 * config.num_classes
    gt_counts = np.array(draw(st.lists(gamma, min_size=n_gt, max_size=n_gt))).reshape(-1, 2)
    n_cells = len(config.iou_thresholds) * gt_counts.size
    sizes = draw(st.lists(st.integers(0, 6), min_size=n_cells, max_size=n_cells))
    cells = np.repeat(draw(st.permutations(range(n_cells))), sizes).astype(np.int64)
    n = len(cells)
    if draw(st.booleans()):
        tp = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        return config, gt_counts, cells, tp, ~tp
    count = st.integers(0, 3) | st.integers(0, 2**40)
    pairs = draw(st.lists(st.tuples(count, count).filter(any), min_size=n, max_size=n))
    tp, fp = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    scale = draw(st.sampled_from([1, 3, 2**10]))
    return config, gt_counts * scale, cells, tp * scale, fp * scale


@settings(max_examples=300, deadline=None)
@given(args=pr_points())
def test_cell_aps_is_interpolate_ap_per_cell_bit_for_bit(args):
    config, gt_counts, cells, tp, fp = args
    got = cell_aps(config, gt_counts, cells, tp, fp)
    gammas = np.broadcast_to(gt_counts, got.shape).ravel()
    thresholds = config.recall_thresholds
    want = [
        cell_ap(np.cumsum(tp[c == cells]), np.cumsum(fp[c == cells]), int(g), thresholds)
        if g > 0
        else 0.0
        for c, g in enumerate(gammas)
    ]
    assert [float(ap).hex() for ap in got.ravel()] == [float(ap).hex() for ap in want]


class TestFinalize:
    def test_all_zero_state_is_all_undefined(self, small_config):
        report = finalize(new_state(small_config))
        assert all(v == -1.0 for v in report.as_dict().values())

    def test_perfect_detector_scores_one(self):
        cfg = EvalConfig(num_classes=1)
        state = update(new_state(cfg), [([make_det(confidence=0.9)], [make_gt()])])
        report = finalize(state)
        assert report.map_standard == 1.0
        assert report.map_50 == 1.0
        assert report.recall_maxdets_100 == 1.0
        assert report.recall_maxdets_1 == 1.0

    def test_close_to_oracle_on_mixed_fixture(self):
        cfg = EvalConfig(num_classes=3, buckets=10000)
        dataset = random_dataset(9, n_images=3, num_classes=3)
        streaming = finalize(update(new_state(cfg), dataset)).as_dict()
        exact = evaluate_exact(dataset, cfg).as_dict()
        for name in METRIC_NAMES:
            if exact[name] == -1.0:
                assert streaming[name] == -1.0
            else:
                # bucket-width-scale tolerance
                assert streaming[name] == pytest.approx(exact[name], abs=0.01)

    def test_map50_at_least_map_standard(self):
        cfg = EvalConfig(num_classes=2, buckets=1000)
        for seed in range(5):
            dataset = random_dataset(seed, n_images=5, num_classes=2)
            report = finalize(update(new_state(cfg), dataset))
            if report.map_standard != -1.0:
                assert report.map_50 >= report.map_standard

    def test_defined_metrics_in_unit_interval(self, small_config):
        for seed in range(5):
            dataset = random_dataset(seed + 50, n_images=5)
            report = finalize(update(new_state(small_config), dataset))
            for v in report.as_dict().values():
                assert v == -1.0 or 0.0 <= v <= 1.0


TEXT_STREAMS = ("StringIO", "open", "NamedTemporaryFile", "codecs")


def text_stream(kind, tmp_path, data=b""):
    """A text stream of the given kind, open for reading and writing at the
    start of data."""
    if kind == "StringIO":
        return io.StringIO(data.decode("latin-1"))
    if kind == "NamedTemporaryFile":
        fh = tempfile.NamedTemporaryFile("w+", dir=tmp_path)
        Path(fh.name).write_bytes(data)
        return fh
    path = tmp_path / "state"
    path.write_bytes(data)
    if kind == "open":
        return open(path, "r+")
    utf8 = codecs.lookup("utf-8")
    return codecs.StreamReaderWriter(path.open("rb+"), utf8.streamreader, utf8.streamwriter)


class TestSnapshot:
    def test_round_trip_lossless(self, small_config):
        state = update(new_state(small_config), random_dataset(12, n_images=4))
        buf = io.BytesIO()
        save_state(state, buf)
        buf.seek(0)
        assert_states_equal(load_state(buf), state)

    def test_canonical_bytes(self, small_config):
        state = update(new_state(small_config), random_dataset(13, n_images=2))
        bufs = []
        for _ in range(2):
            buf = io.BytesIO()
            save_state(state, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            load_state(io.BytesIO(b"\x00\x01\x02 not a snapshot\n"))

    def test_deeply_nested_header_rejected(self):
        with pytest.raises(ValueError, match="not a state snapshot"):
            load_state(io.BytesIO(b"[" * 200_000 + b"\n"))

    def test_pinned_bytes(self):
        # The snapshot layout is a file format: these bytes must never drift.
        config = EvalConfig(
            num_classes=2, buckets=7, iou_thresholds=(0.5, 0.75), max_dets_list=(1, 3)
        )
        state = update(new_state(config), [
            ([make_det(confidence=0.9), make_det(0, 0, 9, 9, confidence=0.5),
              make_det(20, 20, 40, 40, class_id=1, confidence=0.3)],
             [make_gt(), make_gt(20, 20, 38, 40, class_id=1)]),
            ([make_det(100, 100, 150, 150, confidence=1.0)], [make_gt(0, 0, 5, 5, class_id=1)]),
        ])
        buf = io.BytesIO()
        save_state(state, buf)
        assert len(buf.getvalue()) == 1457
        assert hashlib.sha256(buf.getvalue()).hexdigest() == (
            "c4741af298a84048316cfb677aea7763e1dac0c155315908d99294de69a49a1c"
        )

    def test_header_is_the_config_alone(self, small_config):
        # shards of one config share a byte-equal first line
        lines = set()
        for state in (new_state(small_config),
                      update(new_state(small_config), random_dataset(15, n_images=3))):
            buf = io.BytesIO()
            save_state(state, buf)
            lines.add(buf.getvalue().split(b"\n", 1)[0] + b"\n")
        assert lines == {_header(small_config)}

    def test_round_trip_int_valued_config(self):
        # ints in float fields are written as the floats load_state reads back
        config = EvalConfig(
            num_classes=1, iou_thresholds=(0.5, 1), recall_thresholds=(0, 1),
            area_ranges=(("all", AreaRange(0, 1024)),),
        )
        state = update(new_state(config), [([make_det(confidence=0.9)], [make_gt()])])
        buf = io.BytesIO()
        save_state(state, buf)
        buf.seek(0)
        assert_states_equal(load_state(buf), state)

    def test_round_trip_unbuffered_file(self, small_config, tmp_path):
        state = update(new_state(small_config), random_dataset(14, n_images=3))
        path = tmp_path / "state.bin"
        with open(path, "wb", buffering=0) as fh:
            save_state(state, fh)
        with open(path, "rb", buffering=0) as fh:
            loaded = load_state(fh)
        assert_states_equal(loaded, state)

    def test_round_trip_seven_byte_chunks(self):
        state = update(new_state(TestLoadStateRejects.CONFIG), [([make_det()], [make_gt()])])
        want = io.BytesIO()
        save_state(state, want)
        stream = SevenByteStream()
        save_state(state, stream)
        assert bytes(stream.data) == want.getvalue()
        assert_states_equal(load_state(SevenByteStream(stream.data)), state)

    def test_stalled_write_raises(self):
        class Stalled(SevenByteStream):
            def write(self, b):
                return 0

        with pytest.raises(ValueError, match="snapshot write made no progress"):
            save_state(new_state(TestLoadStateRejects.CONFIG), Stalled())

    @pytest.mark.parametrize("kind", TEXT_STREAMS)
    def test_load_from_a_text_stream_rejected(self, small_config, tmp_path, kind):
        buf = io.BytesIO()
        save_state(update(new_state(small_config), random_dataset(16, n_images=2)), buf)
        with text_stream(kind, tmp_path, buf.getvalue()) as fh:
            with pytest.raises(ValueError, match="a snapshot needs a binary stream"):
                load_state(fh)
            assert fh.tell() == 0  # nothing was read

    @pytest.mark.parametrize("kind", TEXT_STREAMS)
    def test_save_to_a_text_stream_rejected(self, small_config, tmp_path, kind):
        with text_stream(kind, tmp_path) as fh:
            with pytest.raises(ValueError, match="a snapshot needs a binary stream"):
                save_state(new_state(small_config), fh)
            assert fh.tell() == 0  # nothing was written

    NOT_STREAMS = ["state.bin", Path("state.bin"), b"cocostream-state/4\n", None]

    @staticmethod
    def not_a_stream(fp) -> str:
        return re.escape(
            f"a snapshot needs a binary stream (mode 'rb' or 'wb'), got {type(fp).__name__}"
        )

    @pytest.mark.parametrize("fp", NOT_STREAMS, ids=repr)
    def test_load_from_a_non_stream_rejected(self, fp):
        with pytest.raises(ValueError, match=self.not_a_stream(fp)):
            load_state(fp)

    @pytest.mark.parametrize("fp", NOT_STREAMS, ids=repr)
    def test_save_to_a_non_stream_rejected(self, small_config, fp):
        with pytest.raises(ValueError, match=self.not_a_stream(fp)):
            save_state(new_state(small_config), fp)


class SevenByteStream(io.RawIOBase):
    """A raw stream that moves at most 7 bytes per read or write call."""

    def __init__(self, data=b""):
        self.data = bytearray(data)
        self.pos = 0

    def readable(self):
        return True

    def writable(self):
        return True

    def readinto(self, b):
        chunk = self.data[self.pos : self.pos + min(len(b), 7)]
        b[: len(chunk)] = chunk
        self.pos += len(chunk)
        return len(chunk)

    def write(self, b):
        chunk = bytes(b[:7])
        self.data += chunk
        return len(chunk)


def assert_states_equal(got, want):
    assert got.config.to_dict() == want.config.to_dict()
    for name in ("tp_buckets", "fp_buckets", "tp_totals", "gt_counts"):
        assert getattr(got, name).dtype == np.int64
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


SNAPSHOT_CONFIGS = (
    EvalConfig(
        num_classes=1,
        buckets=4,
        iou_thresholds=(0.5,),
        max_dets_list=(10,),
        area_ranges=(("all", AreaRange(0.0, math.inf)),),
    ),
    EvalConfig(num_classes=2, buckets=7, iou_thresholds=(0.5, 0.75), max_dets_list=(1, 3)),
    EvalConfig(num_classes=1),  # the default grid: 10,000 buckets
)


@st.composite
def states(draw, config, high=2**61):
    """A state of config that a snapshot can hold: all zero, one array full,
    or a random few counters per array, with counts below high; below 2**61,
    four states still add exactly. The arrays drawn are tp_buckets, det (a
    bucket's TP + FP count, the same at every IoU threshold) and gt_counts;
    det is raised to the bucket's largest TP count, and fp_buckets is det
    less the TPs. A cell's TP counts sum into tp_totals and gt_counts, so
    each is below high over the most a cell can hold; tp_totals then rises
    at random to that sum, and gt_counts is raised to it."""
    state = new_state(config)
    det = np.zeros_like(state.tp_buckets[0, :, :, 0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fill = draw(st.sampled_from(["zero", "full", "sparse"]))
    arrays = [a.reshape(-1) for a in (state.tp_buckets, det, state.gt_counts)]
    tp_high = {"full": high // config.buckets, "sparse": high // 64}.get(fill)
    if fill == "full":
        flat = draw(st.sampled_from([a for a in arrays if a.size <= 10_000]))
        flat[:] = rng.integers(1, tp_high if flat is arrays[0] else high, size=flat.size)
    elif fill == "sparse":
        for flat in arrays:
            k = draw(st.integers(0, min(flat.size, 64)))
            counts = rng.integers(1, tp_high if flat is arrays[0] else high, size=k)
            flat[rng.choice(flat.size, size=k, replace=False)] = counts
    state.fp_buckets[:, :, :, 0] = np.maximum(det, state.tp_buckets.max(axis=(0, 3)))
    state.fp_buckets -= state.tp_buckets
    top = state.tp_buckets.sum(axis=(-2, -1))[..., None]
    lower = rng.integers(0, top + 1, size=(*top.shape[:-1], len(config.max_dets_list) - 1))
    state.tp_totals[...] = np.sort(np.concatenate((lower, top), axis=-1), axis=-1)
    state.gt_counts[...] = np.maximum(state.gt_counts, top.max(axis=(0, -1)))
    return state


def _snapshot(state) -> bytes:
    buf = io.BytesIO()
    save_state(state, buf)
    return buf.getvalue()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_snapshot_round_trip_is_lossless_canonical_and_adds_in_place(data):
    config = data.draw(st.sampled_from(SNAPSHOT_CONFIGS))
    state, acc = data.draw(states(config)), data.draw(states(config))
    blob = _snapshot(state)
    assert _snapshot(state.copy()) == blob
    for stream in (io.BytesIO, SevenByteStream):
        loaded = load_state(stream(blob))
        assert_states_equal(loaded, state)
        assert _snapshot(loaded) == blob
    # cocostream merge's fold: the sum of the two snapshots' entries is the
    # snapshot of the dense sum
    (config_a, a), (config_b, b) = (_read_entries(io.BytesIO(x)) for x in (_snapshot(acc), blob))
    assert config_a.to_dict() == config_b.to_dict() == config.to_dict()
    det = (state.tp_buckets + state.fp_buckets)[0, :, :, 0]  # the same at every threshold
    for name, (idx, counts) in b.items():
        values = (det if name == "det_buckets" else getattr(state, name)).reshape(-1)
        np.testing.assert_array_equal(idx, np.flatnonzero(values))
        np.testing.assert_array_equal(counts, values[idx])
    summed = io.BytesIO()
    _write_entries(summed, config, _add_entries(a, b))
    assert summed.getvalue() == _snapshot(merge(acc, state))


MERGE_CONFIGS = (
    dataclasses.replace(SNAPSHOT_CONFIGS[1], buckets=1),
    SNAPSHOT_CONFIGS[1],  # 7 buckets
    SNAPSHOT_CONFIGS[2],  # the default grid: 10,000 buckets
)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cli_merge_equals_dense_merge_fold(data):
    # counts reach 2**63 // 5, so five shards add exactly in int64, while a
    # sum taken in float64 would lose low bits
    config = data.draw(st.sampled_from(MERGE_CONFIGS))
    shards = data.draw(st.lists(states(config, high=2**63 // 5), min_size=1, max_size=5))
    order = data.draw(st.permutations(range(len(shards))))
    want = shards[0]
    for shard in shards[1:]:
        want = merge(want, shard)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"shard{i}.state" for i in order]
        for i, path in zip(order, paths):
            path.write_bytes(_snapshot(shards[i]))
        out = Path(tmp) / "merged.state"
        assert main(["merge", *map(str, paths), "--output", str(out)]) == 0
        assert out.read_bytes() == _snapshot(want)


@st.composite
def sharded_snapshots(draw, config):
    """Snapshots of the shards of a random dataset, cut at random into 1-5
    shards (empty ones too), with every counter scaled by one factor; unlike
    states(), each one's counts are those of real matches."""
    n_images = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    dataset = random_dataset(seed, n_images=n_images, num_classes=config.num_classes)
    n_shards = draw(st.integers(1, 5))
    owner = draw(st.lists(st.integers(0, n_shards - 1), min_size=n_images, max_size=n_images))
    scale = draw(st.sampled_from([1, 3, 2**30]))
    blobs = []
    for shard in range(n_shards):
        state = update(new_state(config), [p for p, o in zip(dataset, owner) if o == shard])
        for name in ("tp_buckets", "fp_buckets", "tp_totals", "gt_counts"):
            getattr(state, name)[...] *= scale
        blobs.append(_snapshot(state))
    return blobs


def _bits(report) -> dict:
    return {name: float(v).hex() for name, v in report.as_dict().items()}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_finalize_entries_of_a_snapshot_equals_finalize(data):
    config = data.draw(st.sampled_from(MERGE_CONFIGS))
    for blob in data.draw(sharded_snapshots(config)):
        want = finalize(load_state(io.BytesIO(blob)))
        assert _bits(_finalize_entries(*_read_entries(io.BytesIO(blob)))) == _bits(want)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cli_report_equals_finalize_of_the_merge(data):
    config = data.draw(st.sampled_from(MERGE_CONFIGS))
    blobs = data.draw(sharded_snapshots(config))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / f"shard{i}.state") for i in range(len(blobs))]
        for blob, path in zip(blobs, paths):
            Path(path).write_bytes(blob)
        merged, report = Path(tmp) / "merged.state", Path(tmp) / "report.json"
        assert main(["merge", *paths, "--output", str(merged)]) == 0
        assert main(["report", *paths, "--format", "json", "--output", str(report)]) == 0
        with merged.open("rb") as fh:
            want = finalize(load_state(fh)).as_dict()
        assert json.loads(report.read_text()) == want


def test_max_dets_must_increase():
    # the last limit is read as the largest; (100, 10, 1) used to score a
    # perfect image at MaP 0.505
    for limits in ((100, 10, 1), (1, 10, 10), (10, 1)):
        with pytest.raises(ConfigError, match="max_dets_list"):
            EvalConfig(num_classes=1, max_dets_list=limits)


class TestLoadStateRejects:
    """load_state accepts only what save_state could have written."""

    CONFIG = EvalConfig(
        num_classes=1,
        buckets=4,
        iou_thresholds=(0.5,),
        max_dets_list=(10,),
        area_ranges=(("all", AreaRange(0.0, math.inf)),),
    )

    def snapshot(self, state=None) -> tuple[dict, bytes]:
        buf = io.BytesIO()
        save_state(state or update(new_state(self.CONFIG), [([make_det()], [make_gt()])]), buf)
        header, body = buf.getvalue().split(b"\n", 1)
        return json.loads(header), body

    def raw(self, **entries) -> tuple[dict, bytes]:
        """A CONFIG snapshot whose arrays hold the given (indices, counts)
        lists as written, whether or not save_state could have written them;
        each array block is its entry count, its indices, then its counts."""
        header, _ = self.snapshot()
        body = b""
        for name in ("tp_buckets", "det_buckets", "tp_totals", "gt_counts"):
            indices, counts = entries.get(name, ([], []))
            body += np.array([len(indices), *indices, *counts], "<i8").tobytes()
        return header, body

    @staticmethod
    def data(header: dict, body: bytes) -> bytes:
        return json.dumps(header, sort_keys=True).encode() + b"\n" + body

    def load(self, header: dict, body: bytes):
        return load_state(io.BytesIO(self.data(header, body)))

    def merge_fails(self, tmp_path, capsys, acc, header, body) -> str:
        """Run cocostream merge of acc's snapshot, then the given one, onto an
        existing output; check that it exits 2 and leaves that output as it
        was, and return the error it printed."""
        first, second, out = (tmp_path / n for n in ("acc.state", "next.state", "out.state"))
        first.write_bytes(_snapshot(acc))
        second.write_bytes(self.data(header, body))
        out.write_bytes(b"earlier output")
        assert main(["merge", str(first), str(second), "--output", str(out)]) == 2
        assert out.read_bytes() == b"earlier output"
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def test_raw_snapshot_loads(self):
        entries = {"tp_buckets": ([1, 3], [2, 5]), "det_buckets": ([0, 1, 3], [4, 2, 6])}
        state = self.load(*self.raw(**entries, tp_totals=([0], [7]), gt_counts=([0], [7])))
        assert state.tp_buckets.ravel().tolist() == [0, 2, 0, 5]
        assert state.fp_buckets.ravel().tolist() == [4, 0, 0, 1]
        assert state.tp_totals.ravel().tolist() == [7]
        assert state.gt_counts.tolist() == [[7]]

    @pytest.mark.parametrize(
        "indices", [[3, 1], [1, 1], [0, 4], [-1, 2]],
        ids=["unsorted", "duplicate", "past-the-end", "negative"],
    )
    def test_bad_indices(self, indices):
        header, body = self.raw(det_buckets=(indices, [1, 1]))
        with pytest.raises(ValueError, match="det_buckets: indices must be strictly increasing"):
            self.load(header, body)

    def test_grid_size_past_int64(self, tmp_path, capsys):
        # 10 * 10**17 * 4 * 1 * 10000 counters: the flat size wraps in int64
        config = EvalConfig(num_classes=10**17)
        data = _header(config) + np.array([1, 5, 1], "<i8").tobytes()
        error = "snapshot array tp_buckets: its 40000000000000000000000 counters do not fit"
        with pytest.raises(ValueError, match=error):
            _read_entries(io.BytesIO(data))
        path, out = tmp_path / "huge.state", tmp_path / "merged.state"
        path.write_bytes(data)
        assert main(["merge", str(path), "--output", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_stored_zero(self):
        header, body = self.raw(tp_buckets=([1, 2], [3, 0]))
        with pytest.raises(ValueError, match="stored zero counter in array tp_buckets"):
            self.load(header, body)

    @pytest.mark.parametrize("nonzero", [-1, 5])
    def test_bad_nonzero(self, nonzero):
        # the entry count of tp_buckets, which holds 4 counters: 5 is size + 1
        header, body = self.raw(tp_buckets=([1], [2]))
        body = np.array([nonzero], "<i8").tobytes() + body[8:]
        error = rf"tp_buckets: entry count {nonzero} is not in \[0, 4\]"
        with pytest.raises(ValueError, match=error):
            self.load(header, body)

    def test_dense_v1_snapshot(self):
        # and format 2, whose histograms had a max-dets axis and no
        # tp_totals, format 3, whose header listed each array's count, and
        # format 4, which stored fp_buckets per IoU threshold
        for version in [f"cocostream-state/{v}" for v in (1, 2, 3, 4)]:
            header, body = self.snapshot()
            header["format"] = version
            error = re.escape(f"unsupported snapshot format: '{version}'")
            with pytest.raises(ValueError, match=error):
                self.load(header, body)

    @pytest.mark.parametrize("stream", [io.BytesIO, SevenByteStream])
    @pytest.mark.parametrize("keep, block", [(4, "count"), (12, "indices"), (20, "counts")])
    def test_truncated_inside_a_block(self, stream, keep, block):
        # tp_buckets stores an 8-byte entry count, then 8 bytes of indices,
        # then 8 bytes of counts
        header, body = self.raw(tp_buckets=([1], [2]))
        data = json.dumps(header, sort_keys=True).encode() + b"\n" + body[:keep]
        with pytest.raises(ValueError, match=f"while reading tp_buckets {block}"):
            load_state(stream(data))

    @pytest.mark.parametrize(
        "entries, error",
        [
            ({"gt_counts": ([0], [0])}, "stored zero counter in array gt_counts"),
            ({"gt_counts": ([0], [-3])}, "negative counter in snapshot array gt_counts"),
            ({"gt_counts": ([1], [1])}, "gt_counts: indices must be strictly increasing"),
            (  # no tp_totals, as in format 2, which had no such array
                {"gt_counts": ([0], [7])},
                "tp_totals: its last max-dets column is not the sum of tp_buckets",
            ),
            (  # the int64 sum of four 2**62 counts wraps to exactly 0
                {"tp_buckets": ([0, 1, 2, 3], [2**62] * 4), "gt_counts": ([0], [1])},
                "tp_totals: its last max-dets column is not the sum of tp_buckets",
            ),
            (
                {"tp_totals": ([0], [7]), "gt_counts": ([0], [2])},
                "tp_totals: a count exceeds its gt_counts",
            ),
            (  # 4 detections in bucket 3, 5 of them TPs
                {"det_buckets": ([0, 1, 3], [1, 2, 4]), "tp_totals": ([0], [7]),
                 "gt_counts": ([0], [7])},
                "det_buckets: a count is below a tp_buckets count",
            ),
            (  # no detection in bucket 1, which holds 2 TPs
                {"det_buckets": ([0, 3], [1, 5]), "tp_totals": ([0], [7]), "gt_counts": ([0], [7])},
                "det_buckets: a count is below a tp_buckets count",
            ),
        ],
    )
    def test_corrupt_last_array_leaves_into_unchanged(self, tmp_path, capsys, entries, error):
        dets = [make_det(), make_det(confidence=0.1)]
        acc = update(new_state(self.CONFIG), [(dets, [make_gt()])])
        entries = {"tp_buckets": ([1, 3], [2, 5]), "det_buckets": ([0, 1, 3], [1, 2, 5]), **entries}
        header, body = self.raw(**entries)
        with pytest.raises(ValueError, match=error):
            _read_entries(io.BytesIO(self.data(header, body)))
        assert error in self.merge_fails(tmp_path, capsys, acc, header, body)

    def test_truncated_or_trailing_leaves_into_unchanged(self, tmp_path, capsys):
        acc = update(new_state(self.CONFIG), [([make_det()], [make_gt()])])
        header, body = self.raw(tp_buckets=([1, 3], [2, 5]), gt_counts=([0], [1]))
        for bad, error in ((body[:-1], "truncated snapshot"), (body + b"\x00", "trailing bytes")):
            assert error in self.merge_fails(tmp_path, capsys, acc, header, bad)

    def test_config_mismatch_leaves_into_unchanged(self, tmp_path, capsys):
        other = dataclasses.replace(self.CONFIG, buckets=5)
        acc = update(new_state(other), [([make_det()], [make_gt()])])
        header, body = self.snapshot()
        err = self.merge_fails(tmp_path, capsys, acc, header, body)
        assert "config mismatch between" in err and "acc.state" in err and "next.state" in err

    @pytest.mark.parametrize("stream", [io.BytesIO, SevenByteStream])
    def test_truncated_body(self, stream):
        header, body = self.snapshot()
        data = json.dumps(header, sort_keys=True).encode() + b"\n" + body[:-1]
        with pytest.raises(ValueError, match="truncated snapshot while reading gt_counts"):
            load_state(stream(data))

    def test_trailing_bytes(self):
        header, body = self.snapshot()
        with pytest.raises(ValueError, match="trailing"):
            self.load(header, body + b"\x00")

    @pytest.mark.parametrize("variant", ["extra key", "Infinity area max", "unsorted keys"])
    def test_non_canonical_header(self, variant, tmp_path, capsys):
        # each header decodes to the config of the one save_state wrote
        header, body = self.snapshot()
        if variant == "extra key":
            header["extra"] = 1
        if variant == "Infinity area max":
            header["config"]["area_ranges"][0][2] = math.inf
        if variant == "unsorted keys":
            header = dict(reversed(header.items()))
        data = json.dumps(header, sort_keys=variant != "unsorted keys").encode() + b"\n" + body
        with pytest.raises(ValueError, match="do not match"):
            load_state(io.BytesIO(data))
        path, out = tmp_path / "bad.state", tmp_path / "merged.state"
        path.write_bytes(data)
        assert main(["merge", str(path), "--output", str(out)]) == 2
        assert "do not match" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["compact separators", "strict prefix", "extra bytes"])
    def test_non_canonical_header_names_the_first_differing_byte(self, variant):
        _, body = self.snapshot()
        line = _header(self.CONFIG)  # b'{"config": {...}, "format": ...}\n'
        compact = json.dumps(json.loads(line), separators=(",", ":")).encode() + b"\n"
        data, k = {
            "compact separators": (compact + body, 10),  # b'{"config":{' against b'{"config": {'
            "strict prefix": (line[:-1], len(line) - 1),  # no newline: the file is the line
            "extra bytes": (line[:-1] + b"  \n" + body, len(line) - 1),
        }[variant]
        assert data[:k] == line[:k] and data[k : k + 1] != line[k : k + 1]
        with pytest.raises(ValueError, match=f"do not match: .* near byte {k},"):
            load_state(io.BytesIO(data))

    @pytest.mark.parametrize("name", ["tp_buckets", "det_buckets", "tp_totals", "gt_counts"])
    def test_negative_counter(self, name):
        header, body = self.raw(**{name: ([0], [-1])})
        with pytest.raises(ValueError, match=f"negative counter in snapshot array {name}"):
            self.load(header, body)

    @pytest.mark.parametrize("key", ["config"])
    def test_missing_header_key(self, key):
        header, body = self.snapshot()
        del header[key]
        with pytest.raises(ValueError, match="malformed snapshot header"):
            self.load(header, body)

    def test_malformed_config(self):
        header, body = self.snapshot()
        del header["config"]["num_classes"]
        with pytest.raises(ValueError, match="malformed snapshot header"):
            self.load(header, body)

    def test_header_not_an_object(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            load_state(io.BytesIO(b"[1, 2]\n"))


class TestSaveStateRejects:
    """save_state writes only a state that load_state gives back as it is,
    and writes no byte of any other."""

    CONFIG = EvalConfig(num_classes=2, buckets=10)

    def fails(self, state, error: str) -> None:
        buf = io.BytesIO()
        with pytest.raises(ValueError, match=re.escape(error)):
            save_state(state, buf)
        assert buf.getvalue() == b""

    def test_short_bucket_axis(self):
        # flat indices of a 5-bucket axis read back under 10 buckets: a count
        # set at [0, 1, 0, 0, 4] used to load back at [0, 0, 2, 0, 4]
        state = update(new_state(self.CONFIG), random_dataset(3, n_images=2, num_classes=2))
        state.fp_buckets = np.zeros((10, 2, 4, 1, 5), dtype=np.int64)
        state.fp_buckets[:, 1, 0, 0, 4] = 1
        self.fails(state, "state array fp_buckets: expected int64 of shape (10, 2, 4, 1, 10)")

    def test_float_counter(self):
        # 0.5 used to be written as a stored 0, which load_state rejects
        state = new_state(self.CONFIG)
        state.tp_buckets = state.tp_buckets.astype(float)
        state.tp_buckets[0, 0, 0, 0, 3] = 0.5
        self.fails(state, "state array tp_buckets: expected int64 of shape")

    @pytest.mark.parametrize("name", ["tp_buckets", "fp_buckets", "tp_totals", "gt_counts"])
    def test_negative_counter(self, name):
        # used to be written, then rejected by load_state
        state = new_state(self.CONFIG)
        getattr(state, name)[0, 0] = -1
        self.fails(state, f"negative counter in state array {name}")

    @pytest.mark.parametrize(
        "first, rest",
        [((0, 1), (0, 0)), ((0, 1), (0, 2)), ((0, 0), (0, 1)), ((1, 1), (3, 0))],
        ids=["bucket", "count", "later-bucket", "later-tp"],
    )
    def test_tp_plus_fp_differs_between_thresholds(self, first, rest):
        # one bucket's (TP, FP) at the first threshold, and at the rest: a
        # snapshot holds one detection count per bucket for all of them
        state = new_state(self.CONFIG)
        state.tp_buckets[1:, 0, 0, 0, 3], state.fp_buckets[1:, 0, 0, 0, 3] = rest
        state.tp_buckets[0, 0, 0, 0, 3], state.fp_buckets[0, 0, 0, 0, 3] = first
        self.fails(state, "a bucket's TP + FP count differs between IoU thresholds")

    def test_tp_plus_fp_past_int64(self):
        # each array in range, as merge checks them, but the bucket's
        # detection count, which a snapshot stores, is 2**63
        state = new_state(self.CONFIG)
        state.tp_buckets[:, 0, 0, 0, 3] = state.fp_buckets[:, 0, 0, 0, 3] = 2**62
        self.fails(
            state,
            "state arrays tp_buckets and fp_buckets: a bucket's TP + FP count is outside int64",
        )

    def test_tp_totals_not_the_bucket_sum(self):
        # the reader's checks run on what the writer would write
        state = new_state(self.CONFIG)
        state.tp_buckets[:, 0, 0, 0, 3] = 1
        state.gt_counts[0, 0] = 1
        self.fails(state, "state array tp_totals: its last max-dets column is not the sum")


def test_finalize_names_a_negative_counter():
    # a negative count used to surface as a cell total past 2**63
    for name in ("tp_buckets", "fp_buckets"):
        state = new_state(TestLoadStateRejects.CONFIG)
        getattr(state, name)[0, 0, 0, 0, 3] = -1
        with pytest.raises(ValueError, match=f"negative counter in state array {name}"):
            finalize(state)


def test_finalize_of_a_non_state_is_a_type_error():
    want = "finalize: argument state must be a BucketedState, got NoneType"
    with pytest.raises(TypeError, match=re.escape(want)):
        finalize(None)


class TestHeaderMemo:
    """The reader keeps the last header line that passed its checks, and
    never an error or another line's config."""

    # differ only in the last field; the lengths of their header lines agree
    CONFIGS = [
        dataclasses.replace(TestLoadStateRejects.CONFIG, max_dets_list=(1, 10, limit))
        for limit in (100, 200)
    ]

    def snapshot(self, config) -> bytes:
        buf = io.BytesIO()
        save_state(update(new_state(config), [([make_det()], [make_gt()])]), buf)
        return buf.getvalue()

    def test_non_canonical_header_fails_on_every_read(self):
        good = self.snapshot(self.CONFIGS[0])
        header, body = good.split(b"\n", 1)
        bad = json.dumps(dict(json.loads(header), extra=1), sort_keys=True).encode() + b"\n" + body
        errors = []
        for data in (bad, bad, good, bad):
            try:
                load_state(io.BytesIO(data))
            except ValueError as exc:
                errors.append(str(exc))
        assert len(errors) == 3 and len(set(errors)) == 1
        assert "do not match" in errors[0]

    def test_configs_that_differ_in_the_last_field(self):
        lines = [_header(config) for config in self.CONFIGS]
        assert lines[0] != lines[1] and len(lines[0]) == len(lines[1])
        for config in [*self.CONFIGS, *self.CONFIGS]:
            data = self.snapshot(config)
            assert load_state(io.BytesIO(data)).config == config
            assert _read_entries(io.BytesIO(data))[0] == config

    def test_the_kept_line_outlives_a_read(self):
        data = self.snapshot(self.CONFIGS[0])
        load_state(io.BytesIO(data))
        before = _header_config.cache_info()
        load_state(io.BytesIO(data))
        _read_entries(io.BytesIO(data))
        after = _header_config.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)

    @pytest.mark.parametrize("command", ["merge", "report"])
    def test_cli_of_differing_configs_fails(self, tmp_path, capsys, command):
        paths = [tmp_path / f"{limit}.state" for limit in (100, 200)]
        for config, path in zip(self.CONFIGS, paths):
            path.write_bytes(self.snapshot(config))
        out = tmp_path / "out"
        assert main([command, *map(str, paths), "--output", str(out)]) == 2
        assert "config mismatch between" in capsys.readouterr().err
        assert not out.exists()


class TestCellTotalBound:
    """A cell whose TP + FP total reaches 2**63, past what its int64
    cumulative sums hold, is an error naming the cell, not a wrong report."""

    CONFIG = TestLoadStateRejects.CONFIG  # 1 class, 4 buckets, 1 limit
    ERROR = "cell (IoU 0.5, class 0, area all): its TP + FP count is not below 2**63"

    def snapshot(self, fp_counts) -> bytes:
        """One TP at confidence 0.1 (bucket 0) and one ground truth, under
        FP buckets holding fp_counts and ending at the top bucket; each
        bucket's det count is its TP + FP count."""
        one = np.array([0]), np.array([1])
        det = np.zeros(4, dtype=np.int64)
        det[4 - len(fp_counts) :] = fp_counts
        det[0] += 1
        buf = io.BytesIO()
        entries = {
            "tp_buckets": one,
            "det_buckets": (np.flatnonzero(det), det[det > 0]),
            "tp_totals": one,
            "gt_counts": one,
        }
        _write_entries(buf, self.CONFIG, entries)
        return buf.getvalue()

    @pytest.mark.parametrize(
        "fp_counts",
        [[2**62, 2**62], [2**62] * 4, [2**62, 2**62 - 1]],
        ids=["two-2**62", "four-2**62-wrap-to-0", "exactly-2**63"],
    )
    def test_total_past_int64_names_the_cell(self, tmp_path, capsys, fp_counts):
        data = self.snapshot(fp_counts)
        with pytest.raises(ValueError, match=re.escape(self.ERROR)):
            finalize(load_state(io.BytesIO(data)))
        path = tmp_path / "big.state"
        path.write_bytes(data)
        assert main(["report", str(path)]) == 2
        out, err = capsys.readouterr()
        assert self.ERROR in err and "Traceback" not in err and not out

    def test_total_just_below_2_63_reports(self, tmp_path, capsys):
        data = self.snapshot([2**62, 2**62 - 2])
        report = finalize(load_state(io.BytesIO(data)))
        assert report.recall_maxdets_100 == 1.0
        assert report.map_standard == 1 / (2**63 - 1)
        path = tmp_path / "big.state"
        path.write_bytes(data)
        assert main(["report", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == report.as_dict()
