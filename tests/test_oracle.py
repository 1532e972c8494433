import pytest

from cocostream import EvalConfig, MatchingError, evaluate_exact, finalize, new_state, update
from cocostream.config import METRIC_NAMES

from conftest import make_det, make_gt, random_dataset


class TestEvaluateExact:
    def test_empty_dataset_all_undefined(self, small_config):
        report = evaluate_exact([], small_config)
        assert all(v == -1.0 for v in report.as_dict().values())

    def test_perfect_single_detection(self):
        cfg = EvalConfig(num_classes=1)
        report = evaluate_exact([([make_det(confidence=0.9)], [make_gt()])], cfg)
        assert report.map_standard == 1.0
        assert report.recall_maxdets_100 == 1.0

    def test_image_order_invariance(self, small_config):
        dataset = random_dataset(21, n_images=6)
        a = evaluate_exact(dataset, small_config).as_dict()
        b = evaluate_exact(dataset[::-1], small_config).as_dict()
        assert a == b

    def test_map50_at_least_map75(self, small_config):
        for seed in range(8):
            dataset = random_dataset(seed + 30, n_images=5)
            report = evaluate_exact(dataset, small_config)
            if report.map_75 != -1.0:
                assert report.map_50 >= report.map_75

    def test_matches_streaming_when_buckets_distinct(self):
        cfg = EvalConfig(num_classes=3, buckets=10000)
        dataset = random_dataset(
            33, n_images=8, max_boxes=6, buckets_for_distinct=cfg.buckets
        )
        exact = evaluate_exact(dataset, cfg).as_dict()
        streaming = finalize(update(new_state(cfg), dataset)).as_dict()
        for name in METRIC_NAMES:
            assert streaming[name] == pytest.approx(exact[name], abs=1e-12), name

    def test_huge_box_rejected(self, small_config):
        # it used to fall in no area range, so every metric read -1
        dataset = [([make_det(0, 0, 1e308, 1e308, confidence=0.9)], [make_gt()])]
        with pytest.raises(MatchingError, match="image 0 of the batch: detection"):
            evaluate_exact(dataset, small_config)

    def test_padding_ignored(self, small_config):
        clean = [([make_det(confidence=0.8)], [make_gt()])]
        padded = [
            (
                [make_det(class_id=-1, confidence=0.1), make_det(confidence=0.8)],
                [make_gt(class_id=-1), make_gt()],
            )
        ]
        assert (
            evaluate_exact(clean, small_config).as_dict()
            == evaluate_exact(padded, small_config).as_dict()
        )
