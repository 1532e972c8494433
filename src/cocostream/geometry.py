"""Bounding box value types: corner-format boxes, ground truths, detections.

Boxes use (left, top, right, bottom) corner coordinates in continuous pixel
units. Entries with a class id of -1 are padding and carry no information.
Area, IoU and padding removal are computed in cocostream.matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import _INTEGERS, _is_number

PADDING_CLASS_ID = -1


@dataclass(frozen=True)
class BoundingBox:
    left: float
    top: float
    right: float
    bottom: float

    def __post_init__(self) -> None:
        for v in (self.left, self.top, self.right, self.bottom):
            if type(v) is not float and not _is_number(v):  # a float is a number: skip the call
                name = next(n for n, x in vars(self).items() if x is v)
                raise ValueError(f"box {name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise ValueError(f"non-finite box coordinate: {self!r}")
        if self.right < self.left or self.bottom < self.top:
            raise ValueError(f"inverted box: {self!r}")

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def height(self) -> float:
        return self.bottom - self.top


@dataclass(frozen=True)
class GroundTruth:
    box: BoundingBox
    class_id: int

    def __post_init__(self) -> None:
        _check_class_id(self.class_id)


@dataclass(frozen=True)
class Detection:
    box: BoundingBox
    class_id: int
    confidence: float

    def __post_init__(self) -> None:
        _check_class_id(self.class_id)
        if type(self.confidence) is not float and not _is_number(self.confidence):
            raise ValueError(f"confidence must be a real number, got {self.confidence!r}")
        if self.class_id != PADDING_CLASS_ID and not (0.0 <= self.confidence <= 1.0):
            raise ValueError(
                f"confidence must lie in [0, 1], got {self.confidence}"
            )


def _check_class_id(class_id: int) -> None:
    """ValueError unless class_id is a Python or numpy integer (not a bool) >= -1."""
    if isinstance(class_id, bool) or not isinstance(class_id, _INTEGERS):
        raise ValueError(f"class_id must be an integer, got {class_id!r}")
    if class_id < PADDING_CLASS_ID:
        raise ValueError(f"class_id must be >= -1, got {class_id}")
