import math
import re
import tracemalloc

import numpy as np
import pytest

from cocostream import (
    AreaRange,
    BoundingBox,
    ConfigError,
    Detection,
    EvalConfig,
    GroundTruth,
    MatchingError,
)
from cocostream.matching import match_batch, match_image

from conftest import cell_result, make_det, make_gt, random_image
from reference import greedy_cell

ALL_AREA = AreaRange(0.0, math.inf)


def verdict_flags(result):
    return [is_tp for _, is_tp in result[0]]


def one_cell(dets, gts, theta=0.5, max_dets=100, area=ALL_AREA):
    """match_image's class-0 cell under a one-threshold, one-limit, one-area config."""
    config = EvalConfig(
        num_classes=1,
        iou_thresholds=(theta,),
        max_dets_list=(max_dets,),
        area_ranges=(("cell", area),),
    )
    return cell_result(match_image(dets, gts, config), 0, 0, 0, 0)


class TestMatchImageClass:
    """One class's cell of match_image, one cell per config."""

    def test_single_pair_above_threshold(self):
        # IoU = 60/100 = 0.6
        det = [make_det(0, 0, 10, 6, confidence=0.8)]
        gt = [make_gt(0, 0, 10, 10)]
        assert one_cell(det, gt) == (((0.8, True),), 1)

    def test_second_detection_on_same_gt_is_fp(self):
        dets = [
            make_det(0, 0, 10, 10, confidence=0.9),
            make_det(0, 0, 10, 9, confidence=0.8),
        ]
        gt = [make_gt(0, 0, 10, 10)]
        assert one_cell(dets, gt) == (((0.9, True), (0.8, False)), 1)

    def test_no_detections(self):
        gts = [make_gt(i * 20, 0, i * 20 + 10, 10) for i in range(3)]
        assert one_cell([], gts) == ((), 3)

    def test_iou_exactly_at_threshold_is_tp(self):
        det = [make_det(0, 0, 10, 5, confidence=0.5)]  # IoU exactly 0.5
        gt = [make_gt(0, 0, 10, 10)]
        assert verdict_flags(one_cell(det, gt)) == [True]

    def test_detections_processed_by_descending_confidence(self):
        # the low-confidence det has the better IoU but goes second
        dets = [
            make_det(0, 0, 10, 10, confidence=0.9, class_id=0),
            make_det(0, 0, 10, 10, confidence=0.2, class_id=0),
        ]
        gt = [make_gt(0, 0, 10, 10)]
        verdicts, _ = one_cell(dets[::-1], gt)
        assert verdicts == ((0.9, True), (0.2, False))
        # equal confidences keep input order, so the disjoint first one is an FP
        tied = [make_det(20, 20, 30, 30, confidence=0.5), make_det(0, 0, 10, 10, confidence=0.5)]
        assert verdict_flags(one_cell(tied, gt)) == [False, True]
        # padding between them, even on the gt itself, leaves that order as is
        pad = make_det(0, 0, 10, 10, class_id=-1, confidence=0.5)
        assert verdict_flags(one_cell([pad, tied[0], pad, tied[1], pad], gt)) == [False, True]

    def test_union_past_the_float_range(self):
        # each area is 1.69e308 and finite; area + area - intersection is
        # not, and the IoU is 1.3 / 2.08 = 0.625
        gt = [make_gt(0, 0, 1.3e154, 1.3e154)]
        det = [make_det(0.3e154, 0, 1.6e154, 1.3e154, confidence=0.9)]
        assert verdict_flags(one_cell(det, gt, theta=0.62)) == [True]
        assert verdict_flags(one_cell(det, gt, theta=0.63)) == [False]
        assert verdict_flags(one_cell([make_det(0, 0, 1.3e154, 1.3e154)], gt, theta=1.0)) == [True]

    def test_highest_iou_gt_consumed_first(self):
        gts = [make_gt(0, 0, 10, 8), make_gt(0, 0, 10, 10)]
        det = [make_det(0, 0, 10, 10, confidence=0.9)]
        assert verdict_flags(one_cell(det, gts)) == [True]
        # the perfect-IoU gt (index 1) was consumed; a second identical det
        # can still match gt 0
        dets2 = det + [make_det(0, 0, 10, 10, confidence=0.8)]
        assert verdict_flags(one_cell(dets2, gts)) == [True, True]

    def test_gt_iou_tie_takes_lowest_index(self):
        gts = [make_gt(0, 0, 10, 10), make_gt(0, 0, 10, 10)]
        det = [make_det(0, 0, 10, 10, confidence=0.9)]
        dets2 = det + [make_det(0, 0, 10, 10, confidence=0.8)]
        assert verdict_flags(one_cell(dets2, gts)) == [True, True]
        # The first detection ties at IoU 0.5 with both gts; taking gt 0
        # leaves the second detection only gt 1, at IoU 1/3.
        gts = [make_gt(0, 0, 10, 20), make_gt(0, 0, 20, 10)]
        dets = [make_det(0, 0, 10, 10, confidence=0.9), make_det(0, 0, 10, 20, confidence=0.8)]
        assert verdict_flags(one_cell(dets, gts, theta=0.4)) == [True, False]

    def test_max_dets_truncation(self):
        dets = [make_det(0, 0, 10, 10, confidence=0.9 - 0.1 * i) for i in range(5)]
        gt = [make_gt(0, 0, 10, 10)]
        verdicts, _ = one_cell(dets, gt, max_dets=2)
        assert [c for c, _ in verdicts] == pytest.approx([0.9, 0.8])

    def test_area_filter_applies_to_both_sides(self):
        small = AreaRange(0.0, 1024.0)
        dets = [
            make_det(0, 0, 10, 10, confidence=0.9),   # area 100, kept
            make_det(0, 0, 100, 100, confidence=0.8),  # area 10000, dropped
        ]
        gts = [make_gt(0, 0, 10, 10), make_gt(0, 0, 100, 100)]
        verdicts, gt_count = one_cell(dets, gts, area=small)
        assert len(verdicts) == 1
        assert gt_count == 1

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            EvalConfig(num_classes=1, iou_thresholds=(0.0,))
        with pytest.raises(ConfigError):
            EvalConfig(num_classes=1, iou_thresholds=(1.1,))


class TestMatchImage:
    def test_empty_image_yields_empty_cells(self, small_config):
        matches = match_image([], [], small_config)
        assert matches.tp.shape == (len(small_config.iou_thresholds), 0)
        for t in range(len(small_config.iou_thresholds)):
            assert cell_result(matches, 0, t, 0, 0) == ((), 0)

    def test_grid_cardinality(self):
        cfg = EvalConfig(num_classes=1)
        matches = match_image(
            [make_det(confidence=0.9)], [make_gt()], cfg
        )
        t_cells = [
            cell_result(matches, 0, t, 0, 0) for t in range(len(cfg.iou_thresholds))
        ]
        assert len(t_cells) == 10
        assert all(gt_count == 1 for _, gt_count in t_cells)

    def test_class_mismatch_means_fp_everywhere(self, small_config):
        dets = [make_det(class_id=2, confidence=0.9)]
        gts = [make_gt(class_id=1)]
        matches = match_image(dets, gts, small_config)
        for t in range(len(small_config.iou_thresholds)):
            res = cell_result(matches, 2, t, 0, len(small_config.max_dets_list) - 1)
            assert res == (((0.9, False),), 0)

    def test_padding_stripped_internally(self, small_config):
        dets = [make_det(class_id=-1, confidence=0.9), make_det(class_id=0, confidence=0.8)]
        gts = [make_gt(class_id=-1), make_gt(class_id=0)]
        matches = match_image(dets, gts, small_config)
        assert cell_result(matches, 0, 0, 0, 2) == (((0.8, True),), 1)
        # stripping the padding first gives the same record, column for column
        stripped = match_image(dets[1:], gts[1:], small_config)
        for field in ("cls", "area", "rank", "confidences", "tp", "gt_counts"):
            np.testing.assert_array_equal(getattr(matches, field), getattr(stripped, field))

    def test_ground_truth_taken_per_threshold(self):
        # The first detection claims the gt at IoU 0.6 only under theta 0.5,
        # so under theta 0.7 the gt is still free for the second one.
        cfg = EvalConfig(num_classes=1, iou_thresholds=(0.5, 0.7))
        dets = [make_det(bottom=6.0, confidence=0.9), make_det(bottom=9.0, confidence=0.8)]
        matches = match_image(dets, [make_gt()], cfg)
        assert verdict_flags(cell_result(matches, 0, 0, 0, 2)) == [True, False]
        assert verdict_flags(cell_result(matches, 0, 1, 0, 2)) == [False, True]

    def test_ground_truth_taken_per_area(self):
        # In area "all" the large first detection claims the medium gt. Area
        # "medium" filters that detection out, so the gt is still free there
        # for the medium cell's rank-1 detection.
        cfg = EvalConfig(num_classes=1)
        dets = [
            make_det(0, 0, 96, 96, confidence=0.9),  # large, IoU 0.88
            make_det(200, 200, 250, 250, confidence=0.8),  # medium, no overlap
            make_det(0, 0, 90, 80, confidence=0.7),  # medium, IoU 0.89
        ]
        matches = match_image(dets, [make_gt(0, 0, 90, 90)], cfg)
        medium = cfg.area_index("medium")
        assert verdict_flags(cell_result(matches, 0, 0, 0, 2)) == [True, False, False]
        assert verdict_flags(cell_result(matches, 0, 0, medium, 2)) == [False, True]

    def test_out_of_range_class_rejected(self, small_config):
        with pytest.raises(MatchingError, match=re.escape("class id 99 outside [0, 3)")):
            match_image([make_det(class_id=99, confidence=0.5)], [], small_config)

    def test_batch_names_smallest_bad_id_of_first_bad_image(self, small_config):
        # Images 2 and 3 both hold bad ids; image 3's 5 is the batch's
        # smallest, but image 2 comes first, so its smallest id, 7, is named.
        good = ([make_det(confidence=0.5)], [make_gt()])
        batch = [
            good,
            good,
            ([make_det(class_id=9, confidence=0.5)], [make_gt(class_id=7), make_gt(class_id=-1)]),
            ([make_det(class_id=5, confidence=0.5)], [make_gt(class_id=1)]),
        ]
        with pytest.raises(MatchingError, match=re.escape("class id 7 outside [0, 3)")):
            match_batch(batch, small_config)

    def test_box_area_past_float_range_rejected(self, small_config):
        # 1e308 * 1e308 overflows to inf, so the box would fall in no area range
        huge = make_det(0, 0, 1e308, 1e308, confidence=0.5)
        want = f"image 0 of the batch: detection {huge.box} has an area past the float range"
        with pytest.raises(MatchingError, match=re.escape(want)):
            match_image([huge], [make_gt()], small_config)

    def test_batch_names_first_image_with_a_huge_box(self, small_config):
        # padding is stripped unread; image 1's ground truth comes before
        # image 2's detection
        padding = make_det(0, 0, 1e308, 1e308, class_id=-1, confidence=0.5)
        batch = [
            ([padding, make_det(confidence=0.5)], [make_gt()]),
            ([make_det(confidence=0.5)], [make_gt(), make_gt(-1e308, 0, 1e308, 2)]),
            ([make_det(0, 0, 1e300, 1e300, confidence=0.5)], []),
        ]
        want = f"image 1 of the batch: ground truth {batch[1][1][1].box} has"
        with pytest.raises(MatchingError, match=re.escape(want)):
            match_batch(batch, small_config)
        assert match_batch(batch[:1], small_config).gt_counts.sum() == 2

    def test_grid_path_agrees_with_reference_per_cell(self, small_config):
        # every cell of the per-image loop must equal the brute-force cell
        rng = np.random.default_rng(11)
        for _ in range(25):
            dets, gts = random_image(rng, num_classes=3, max_boxes=8)
            matches = match_image(dets, gts, small_config)
            for k in range(3):
                k_dets = [d for d in dets if d.class_id == k]
                k_gts = [g for g in gts if g.class_id == k]
                for t_idx, theta in enumerate(small_config.iou_thresholds):
                    for a_idx, (_, area) in enumerate(small_config.area_ranges):
                        for m_idx, md in enumerate(small_config.max_dets_list):
                            want = greedy_cell(k_dets, k_gts, theta, md, area)
                            got = cell_result(matches, k, t_idx, a_idx, m_idx)
                            assert got == want


class TestMatchingProperties:
    def _tp_count(self, dets, gts, theta, max_dets=100):
        return sum(verdict_flags(one_cell(dets, gts, theta, max_dets)))

    def test_theta_monotonicity(self):
        rng = np.random.default_rng(5)
        thetas = [0.3, 0.5, 0.7, 0.9]
        for _ in range(50):
            dets, gts = random_image(rng, num_classes=1, max_boxes=8)
            counts = [self._tp_count(dets, gts, t) for t in thetas]
            assert counts == sorted(counts, reverse=True)

    def test_max_dets_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            dets, gts = random_image(rng, num_classes=1, max_boxes=8)
            counts = [self._tp_count(dets, gts, 0.5, md) for md in (1, 2, 4, 8, 100)]
            assert counts == sorted(counts)

    def test_tp_bounded_by_dets_and_gts(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dets, gts = random_image(rng, num_classes=1, max_boxes=8)
            verdicts, gt_count = one_cell(dets, gts)
            tp = sum(is_tp for _, is_tp in verdicts)
            assert tp <= min(len(verdicts), gt_count)

    def test_greedy_prefix_stability(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            dets, gts = random_image(rng, num_classes=1, max_boxes=8)
            dets = sorted(dets, key=lambda d: -d.confidence)
            full, _ = one_cell(dets, gts)
            for k in range(len(dets)):
                prefix, _ = one_cell(dets[:k], gts)
                assert full[:k] == prefix


class TestMemoryBound:
    """match_batch's peak memory follows its chunk cap, whatever the number
    of classes or the widest (image, class) group of the batch."""

    BOX = BoundingBox(0.0, 0.0, 10.0, 10.0)

    def peak(self, batch, config):
        tracemalloc.start()
        try:
            matches = match_batch(batch, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matches.tp.all()  # every detection sits on a ground truth of its class
        return peak

    def test_many_classes(self):
        # One box per image over 10**5 classes: an array sized images x
        # classes would take 1.6 GB.
        k = 10**5
        batch = [
            ([Detection(self.BOX, i * 50 % k, 0.5)], [GroundTruth(self.BOX, i * 50 % k)])
            for i in range(2000)
        ]
        assert self.peak(batch, EvalConfig(num_classes=k)) < 16e6

    def test_one_wide_group(self):
        # 3,000 class-0 ground truths side by side in one image, then 3,000
        # images of one box each: padding every image's group to the widest
        # one at once would take about 84 MB.
        wide = [GroundTruth(BoundingBox(20.0 * j, 0.0, 20.0 * j + 10, 10.0), 0) for j in range(3000)]
        one = ([Detection(self.BOX, 0, 0.5)], [GroundTruth(self.BOX, 0)])
        batch = [([Detection(self.BOX, 0, 0.5)], wide)] + [one] * 3000
        assert self.peak(batch, EvalConfig(num_classes=1)) < 16e6
