"""Bounding box primitives: corner-format boxes, IoU, area, padding removal.

Boxes use (left, top, right, bottom) corner coordinates in continuous pixel
units. Areas are exact products with no +1 discretization. Entries with a
class id of -1 are padding and carry no information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, TypeVar

PADDING_CLASS_ID = -1


@dataclass(frozen=True)
class BoundingBox:
    left: float
    top: float
    right: float
    bottom: float

    def __post_init__(self) -> None:
        for v in (self.left, self.top, self.right, self.bottom):
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
        if self.class_id < PADDING_CLASS_ID:
            raise ValueError(f"class_id must be >= -1, got {self.class_id}")


@dataclass(frozen=True)
class Detection:
    box: BoundingBox
    class_id: int
    confidence: float

    def __post_init__(self) -> None:
        if self.class_id < PADDING_CLASS_ID:
            raise ValueError(f"class_id must be >= -1, got {self.class_id}")
        if self.class_id != PADDING_CLASS_ID and not (0.0 <= self.confidence <= 1.0):
            raise ValueError(
                f"confidence must lie in [0, 1], got {self.confidence}"
            )


def box_area(a: BoundingBox) -> float:
    """Area of a corner-format box in pixels squared."""
    return (a.right - a.left) * (a.bottom - a.top)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes.

    Returns 0 when the union has zero area, so degenerate boxes have IoU 0
    against everything including themselves.
    """
    iw = min(a.right, b.right) - max(a.left, b.left)
    ih = min(a.bottom, b.bottom) - max(a.top, b.top)
    if iw <= 0.0 or ih <= 0.0:
        inter = 0.0
    else:
        inter = iw * ih
    union = box_area(a) + box_area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


_Boxed = TypeVar("_Boxed", GroundTruth, Detection)


def strip_padding(boxes: Iterable[_Boxed]) -> list[_Boxed]:
    """Drop entries with class_id == -1, preserving order. Idempotent."""
    return [b for b in boxes if b.class_id != PADDING_CLASS_ID]
