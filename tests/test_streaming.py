import hashlib
import io
import json
import math

import numpy as np
import pytest

from cocostream import (
    AreaRange,
    ConfigError,
    EvalConfig,
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
from cocostream.config import METRIC_NAMES
from cocostream.matching import match_batch
from cocostream.streaming import add_matches

from conftest import make_det, make_gt, random_dataset


class TestNewState:
    def test_default_config_shape(self):
        cfg = EvalConfig(num_classes=2)
        state = new_state(cfg)
        assert state.tp_buckets.shape == (10, 2, 4, 3, 10000)
        assert state.fp_buckets.shape == state.tp_buckets.shape
        assert state.gt_counts.shape == (2, 4)
        assert not state.tp_buckets.any()
        assert not state.fp_buckets.any()
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


class TestBucketIndex:
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

    def test_add_matches_rejects_other_config_before_writing(self, small_config):
        matches = match_batch([([make_det(confidence=0.7)], [make_gt()])], small_config)
        state = new_state(EvalConfig(num_classes=3, buckets=10))
        with pytest.raises(ValueError, match="different config"):
            add_matches(state, matches)
        assert not state.tp_buckets.any()
        assert not state.gt_counts.any()

    def test_batch_order_invariance(self, small_config):
        batches = [random_dataset(1, n_images=3), random_dataset(2, n_images=3)]
        s1 = update(update(new_state(small_config), batches[0]), batches[1])
        s2 = update(update(new_state(small_config), batches[1]), batches[0])
        assert (s1.tp_buckets == s2.tp_buckets).all()
        assert (s1.fp_buckets == s2.fp_buckets).all()
        assert (s1.gt_counts == s2.gt_counts).all()


class TestMerge:
    def test_merge_with_zero_state_is_identity(self, small_config):
        s = update(new_state(small_config), random_dataset(3, n_images=4))
        merged = merge(new_state(small_config), s)
        assert (merged.tp_buckets == s.tp_buckets).all()
        assert (merged.gt_counts == s.gt_counts).all()

    def test_commutative(self, small_config):
        a = update(new_state(small_config), random_dataset(4, n_images=3))
        b = update(new_state(small_config), random_dataset(5, n_images=3))
        ab, ba = merge(a, b), merge(b, a)
        assert (ab.tp_buckets == ba.tp_buckets).all()
        assert (ab.fp_buckets == ba.fp_buckets).all()
        assert (ab.gt_counts == ba.gt_counts).all()

    def test_sharded_equals_single_pass(self, small_config):
        dataset = random_dataset(6, n_images=4)
        whole = update(new_state(small_config), dataset)
        sharded = merge(
            update(new_state(small_config), dataset[:2]),
            update(new_state(small_config), dataset[2:]),
        )
        assert (whole.tp_buckets == sharded.tp_buckets).all()
        assert (whole.fp_buckets == sharded.fp_buckets).all()
        assert (whole.gt_counts == sharded.gt_counts).all()
        assert finalize(whole).as_dict() == finalize(sharded).as_dict()

    def test_config_mismatch_rejected(self):
        a = new_state(EvalConfig(num_classes=1, buckets=10))
        b = new_state(EvalConfig(num_classes=1, buckets=20))
        with pytest.raises(MergeError):
            merge(a, b)

    def test_inputs_unchanged(self, small_config):
        # merge accumulates in place into a copy; neither input may alias the result
        a = update(new_state(small_config), random_dataset(41, n_images=3))
        b = update(new_state(small_config), random_dataset(42, n_images=3))
        a_before, b_before = a.copy(), b.copy()
        merged = merge(a, b)
        for name in ("tp_buckets", "fp_buckets", "gt_counts"):
            np.testing.assert_array_equal(getattr(a, name), getattr(a_before, name))
            np.testing.assert_array_equal(getattr(b, name), getattr(b_before, name))
            np.testing.assert_array_equal(
                getattr(merged, name), getattr(a, name) + getattr(b, name)
            )


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


class TestSnapshot:
    def test_round_trip_lossless(self, small_config):
        state = update(new_state(small_config), random_dataset(12, n_images=4))
        buf = io.BytesIO()
        save_state(state, buf)
        buf.seek(0)
        loaded = load_state(buf)
        assert loaded.config.to_dict() == state.config.to_dict()
        assert (loaded.tp_buckets == state.tp_buckets).all()
        assert (loaded.fp_buckets == state.fp_buckets).all()
        assert (loaded.gt_counts == state.gt_counts).all()

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
        assert len(buf.getvalue()) == 4713
        assert hashlib.sha256(buf.getvalue()).hexdigest() == (
            "94ca0b013680df5909f362ba1e70eac12b9f255ab1d7879257889c89946f747e"
        )

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
    for name in ("tp_buckets", "fp_buckets", "gt_counts"):
        assert getattr(got, name).dtype == np.int64
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


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

    def load(self, header: dict, body: bytes):
        return load_state(io.BytesIO(json.dumps(header).encode() + b"\n" + body))

    @pytest.mark.parametrize("stream", [io.BytesIO, SevenByteStream])
    def test_truncated_body(self, stream):
        header, body = self.snapshot()
        data = json.dumps(header).encode() + b"\n" + body[:-1]
        with pytest.raises(ValueError, match="truncated snapshot while reading gt_counts"):
            load_state(stream(data))

    def test_trailing_bytes(self):
        header, body = self.snapshot()
        with pytest.raises(ValueError, match="trailing"):
            self.load(header, body + b"\x00")

    def test_array_shape_not_matching_config(self):
        header, body = self.snapshot()
        header["arrays"][2]["shape"] = [1, 2]  # gt_counts is (1, 1)
        with pytest.raises(ValueError, match="do not match"):
            self.load(header, body + bytes(8))

    def test_array_name_not_matching_config(self):
        header, body = self.snapshot()
        header["arrays"][0]["name"] = "fp_buckets"
        with pytest.raises(ValueError, match="do not match"):
            self.load(header, body)

    def test_negative_counter(self):
        state = new_state(self.CONFIG)
        state.gt_counts[0, 0] = -1
        header, body = self.snapshot(state)
        with pytest.raises(ValueError, match="negative counter in snapshot array gt_counts"):
            self.load(header, body)

    @pytest.mark.parametrize("key", ["arrays", "config"])
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
