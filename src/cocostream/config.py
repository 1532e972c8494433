"""Evaluation configuration and the 12-row metric report.

Defaults follow the standard COCO challenge setup: IoU thresholds
0.50:0.05:0.95, 101 recall thresholds, area ranges all/small/medium/large
with the 32^2 and 96^2 pixel boundaries, and max-detection limits 1/10/100.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ConfigError(ValueError):
    """Invalid evaluation configuration."""


UNDEFINED = -1.0

COCO_AREA_SMALL_MAX = 32.0 ** 2
COCO_AREA_MEDIUM_MAX = 96.0 ** 2


@dataclass(frozen=True)
class AreaRange:
    """Box-area interval [min_area, max_area); max_area may be inf."""

    min_area: float
    max_area: float

    def __post_init__(self) -> None:
        if self.min_area < 0:
            raise ConfigError(f"min_area must be >= 0, got {self.min_area}")
        if not self.max_area > self.min_area:
            raise ConfigError(
                f"max_area must exceed min_area: [{self.min_area}, {self.max_area})"
            )


@dataclass(frozen=True)
class EvalConfig:
    num_classes: int
    iou_thresholds: tuple[float, ...] = tuple(0.5 + 0.05 * i for i in range(10))
    recall_thresholds: tuple[float, ...] = tuple(i / 100.0 for i in range(101))
    buckets: int = 10000
    area_ranges: tuple[tuple[str, AreaRange], ...] = (
        ("all", AreaRange(0.0, math.inf)),
        ("small", AreaRange(0.0, COCO_AREA_SMALL_MAX)),
        ("medium", AreaRange(COCO_AREA_SMALL_MAX, COCO_AREA_MEDIUM_MAX)),
        ("large", AreaRange(COCO_AREA_MEDIUM_MAX, math.inf)),
    )
    max_dets_list: tuple[int, ...] = (1, 10, 100)

    def __post_init__(self) -> None:
        # Python ints only: a float, bool or numpy integer fails later, or
        # does not round-trip through a snapshot.
        for name, value in (
            ("num_classes", self.num_classes),
            ("buckets", self.buckets),
            *(("max_dets_list entry", m) for m in self.max_dets_list),
        ):
            if not _is_int(value):
                raise ConfigError(f"{name} must be an int, not a bool, got {value!r}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.buckets < 1:
            raise ConfigError(f"buckets must be >= 1, got {self.buckets}")
        if not self.iou_thresholds:
            raise ConfigError("iou_thresholds must be non-empty")
        _require_strictly_increasing("iou_thresholds", self.iou_thresholds)
        for t in self.iou_thresholds:
            if not (0.0 < t <= 1.0):
                raise ConfigError(f"IoU threshold outside (0, 1]: {t}")
        if not self.recall_thresholds:
            raise ConfigError("recall_thresholds must be non-empty")
        _require_strictly_increasing("recall_thresholds", self.recall_thresholds)
        for r in self.recall_thresholds:
            if not (0.0 <= r <= 1.0):
                raise ConfigError(f"recall threshold outside [0, 1]: {r}")
        if not self.area_ranges:
            raise ConfigError("area_ranges must be non-empty")
        names = [name for name, _ in self.area_ranges]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate area range names: {names}")
        if not self.max_dets_list:
            raise ConfigError("max_dets_list must be non-empty")
        # The last limit is taken as the largest; smaller ones are prefixes.
        _require_strictly_increasing("max_dets_list", self.max_dets_list)
        for m in self.max_dets_list:
            if m < 1:
                raise ConfigError(f"max_dets must be >= 1, got {m}")

    # -- grid lookups -----------------------------------------------------

    def area_index(self, name: str) -> int | None:
        return next((i for i, (n, _) in enumerate(self.area_ranges) if n == name), None)

    def iou_index(self, theta: float) -> int | None:
        close = (math.isclose(t, theta, rel_tol=0.0, abs_tol=1e-9) for t in self.iou_thresholds)
        return next((i for i, hit in enumerate(close) if hit), None)

    def max_dets_index(self, max_dets: int) -> int | None:
        return next((i for i, m in enumerate(self.max_dets_list) if m == max_dets), None)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Thresholds and area bounds are written as floats, as from_dict
        reads them, so to_dict(from_dict(to_dict())) equals to_dict()."""
        return {
            "num_classes": self.num_classes,
            "iou_thresholds": [float(t) for t in self.iou_thresholds],
            "recall_thresholds": [float(r) for r in self.recall_thresholds],
            "buckets": self.buckets,
            "area_ranges": [
                [name, float(r.min_area), None if math.isinf(r.max_area) else float(r.max_area)]
                for name, r in self.area_ranges
            ],
            "max_dets_list": list(self.max_dets_list),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalConfig":
        """Inverse of to_dict. A value of the wrong JSON type raises
        ConfigError naming config.<key>; nothing is truncated or coerced."""

        def field(key: str, ok, kind: str):
            value = d[key]
            if not ok(value):
                raise ConfigError(f"config.{key}: expected {kind}, got {value!r}")
            return value

        def items(key: str, ok, kind: str) -> list:
            return field(
                key, lambda v: isinstance(v, list) and all(map(ok, v)), f"a list of {kind}"
            )

        return cls(
            num_classes=field("num_classes", _is_int, "an integer"),
            iou_thresholds=tuple(map(float, items("iou_thresholds", _is_number, "numbers"))),
            recall_thresholds=tuple(map(float, items("recall_thresholds", _is_number, "numbers"))),
            buckets=field("buckets", _is_int, "an integer"),
            area_ranges=tuple(
                (name, AreaRange(float(lo), math.inf if hi is None else float(hi)))
                for name, lo, hi in items("area_ranges", _is_area_entry, "[name, min, max or null]")
            ),
            max_dets_list=tuple(items("max_dets_list", _is_int, "integers")),
        )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_INTEGERS = (int, np.integer)
_NUMBERS = (float, np.floating, *_INTEGERS)


def _is_number(value: object) -> bool:
    """A real number a float can hold; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS):
        return False
    return not isinstance(value, _INTEGERS) or abs(value) <= sys.float_info.max


def _is_area_entry(v) -> bool:
    return (
        isinstance(v, list)
        and len(v) == 3
        and isinstance(v[0], str)
        and _is_number(v[1])
        and (v[2] is None or _is_number(v[2]))
    )


def _require_strictly_increasing(name: str, values: Sequence[float]) -> None:
    for a, b in zip(values, values[1:]):
        if not b > a:
            raise ConfigError(f"{name} must be strictly increasing, got {list(values)}")


METRIC_LABELS = {
    "map_standard": "Standard MaP",
    "map_50": "MaP IoU=0.5",
    "map_75": "MaP IoU=0.75",
    "map_small": "MaP Small Objects",
    "map_medium": "MaP Medium Objects",
    "map_large": "MaP Large Objects",
    "recall_maxdets_1": "Recall 1 Detection",
    "recall_maxdets_10": "Recall 10 Detections",
    "recall_maxdets_100": "Standard Recall",
    "recall_small": "Recall Small Objects",
    "recall_medium": "Recall Medium Objects",
    "recall_large": "Recall Large Objects",
}

METRIC_NAMES = tuple(METRIC_LABELS)


@dataclass(frozen=True)
class MetricReport:
    """The 12 standard COCO scalars; -1 marks an undefined metric."""

    map_standard: float
    map_50: float
    map_75: float
    map_small: float
    map_medium: float
    map_large: float
    recall_maxdets_1: float
    recall_maxdets_10: float
    recall_maxdets_100: float
    recall_small: float
    recall_medium: float
    recall_large: float

    def __post_init__(self) -> None:
        for name in METRIC_NAMES:
            v = getattr(self, name)
            if v != UNDEFINED and not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} outside [0, 1]: {v}")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}
