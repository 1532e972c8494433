import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cocostream import BoundingBox, Detection
from cocostream.matching import _areas, _iou

from conftest import make_box, make_det, make_gt


def corners(*boxes: BoundingBox) -> np.ndarray:
    """(len(boxes), 4) corner coordinates, the layout matching works on."""
    return np.array([[b.left, b.top, b.right, b.bottom] for b in boxes], dtype=float)


def box_area(a: BoundingBox) -> float:
    return float(_areas(corners(a))[0])


def iou(a: BoundingBox, b: BoundingBox) -> float:
    return float(_iou(corners(a), corners(b))[0])


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def boxes(draw):
    left = draw(coords)
    top = draw(coords)
    w = draw(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    h = draw(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    return BoundingBox(left, top, left + w, top + h)


class TestBoundingBox:
    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(10, 0, 0, 10)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, math.inf, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, math.nan, 1, 10)

    def test_zero_area_permitted(self):
        assert box_area(BoundingBox(3, 4, 3, 9)) == 0

    @pytest.mark.parametrize("value", [True, "10", None], ids=repr)
    def test_coordinate_that_is_not_a_number_rejected(self, value):
        # True used to be taken as 1; a str or None failed with a bare TypeError
        with pytest.raises(ValueError, match=f"box right must be a real number, got {value!r}"):
            BoundingBox(0, 0, value, 10)

    @pytest.mark.parametrize("coords", [(0, 0, 10, 10), (0.5, np.float32(1), np.int64(2), 3.0)])
    def test_python_and_numpy_real_coordinates_accepted(self, coords):
        assert BoundingBox(*coords).right == coords[2]


class TestIou:
    def test_identical_boxes(self):
        b = make_box(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(make_box(0, 0, 1, 1), make_box(5, 5, 6, 6)) == 0.0

    def test_partial_overlap(self):
        # intersection 1, union 4 + 4 - 1 = 7
        got = iou(make_box(0, 0, 2, 2), make_box(1, 1, 3, 3))
        assert got == pytest.approx(1 / 7)

    def test_degenerate_box_has_zero_iou_with_itself(self):
        line = make_box(0, 0, 0, 10)
        assert iou(line, line) == 0.0

    def test_touching_edges_do_not_intersect(self):
        assert iou(make_box(0, 0, 1, 1), make_box(1, 0, 2, 1)) == 0.0

    @given(st.lists(boxes(), min_size=1, max_size=4), st.lists(boxes(), min_size=1, max_size=4))
    def test_symmetric_and_bounded(self, a, b):
        # (n, 1, 4) against (1, m, 4) broadcasts to every pair, as in match_batch
        got = _iou(corners(*a)[:, None], corners(*b)[None])
        assert got.shape == (len(a), len(b))
        np.testing.assert_array_equal(got, _iou(corners(*b)[:, None], corners(*a)[None]).T)
        assert ((0.0 <= got) & (got <= 1.0)).all()
        assert got.tolist() == [[iou(x, y) for y in b] for x in a]

    @given(boxes())
    def test_self_iou_is_one_for_positive_area(self, a):
        if box_area(a) > 0:
            assert iou(a, a) == 1.0


class TestBoxArea:
    def test_square(self):
        assert box_area(make_box(0, 0, 10, 10)) == 100

    def test_small_medium_boundary(self):
        assert box_area(make_box(0, 0, 32, 32)) == 1024

    def test_one_area_per_box_on_leading_axes(self):
        grid = corners(make_box(0, 0, 10, 10), make_box(1, 2, 4, 7), make_box(3, 4, 3, 9))
        assert _areas(grid.reshape(3, 1, 4)).tolist() == [[100.0], [15.0], [0.0]]


class TestRecordValidation:
    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_det(confidence=1.5)
        with pytest.raises(ValueError):
            make_det(confidence=-0.1)

    def test_padding_detection_skips_confidence_check(self):
        Detection(make_box(), class_id=-1, confidence=7.0)

    def test_class_below_padding_rejected(self):
        with pytest.raises(ValueError):
            make_gt(class_id=-2)

    def test_detection_class_below_padding_rejected(self):
        with pytest.raises(ValueError, match="class_id must be >= -1, got -2"):
            make_det(class_id=-2)

    @pytest.mark.parametrize(
        "class_id", [1.5, 0.7, 1.0, np.float64(1.0), "1", True, False, None], ids=repr
    )
    def test_class_id_that_is_not_an_integer_rejected(self, class_id):
        # a float id used to be cast to int64 in match_batch, so 1.5 matched class 1
        for make in (make_det, make_gt):
            with pytest.raises(ValueError, match="class_id must be an integer, got"):
                make(class_id=class_id)

    @pytest.mark.parametrize("confidence", [True, "0.5", None], ids=repr)
    @pytest.mark.parametrize("class_id", [0, -1], ids=["real", "padding"])
    def test_confidence_that_is_not_a_number_rejected(self, confidence, class_id):
        # True used to be taken as 1; a str or None failed with a bare TypeError
        # or, on padding, was accepted
        with pytest.raises(ValueError, match=f"confidence must be a real number, got {confidence!r}"):
            make_det(class_id=class_id, confidence=confidence)

    @pytest.mark.parametrize(
        "class_id", [-1, 0, 2, np.int64(1), np.int32(-1), np.uint8(2)], ids=repr
    )
    def test_python_and_numpy_integer_class_ids_accepted(self, class_id):
        assert make_det(class_id=class_id).class_id == make_gt(class_id=class_id).class_id
