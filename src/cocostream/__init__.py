"""Streaming, mergeable COCO detection metrics with an exact reference oracle."""

from .config import AreaRange, ConfigError, EvalConfig, MetricReport, UNDEFINED
from .geometry import BoundingBox, Detection, GroundTruth
from .ingest import (
    Dataset,
    ImageRecord,
    ParseError,
    PerturbationParams,
    ValidationError,
    load_detections,
    load_ground_truth,
    perturb,
    sample_images,
)
from .matching import MatchingError, match_image
from .oracle import evaluate_exact
from .streaming import (
    BucketedState,
    MergeError,
    bucket_index,
    finalize,
    interpolate_ap,
    load_state,
    merge,
    new_state,
    save_state,
    update,
)

__all__ = [
    "AreaRange",
    "BoundingBox",
    "BucketedState",
    "ConfigError",
    "Dataset",
    "Detection",
    "EvalConfig",
    "GroundTruth",
    "ImageRecord",
    "MatchingError",
    "MergeError",
    "MetricReport",
    "ParseError",
    "PerturbationParams",
    "UNDEFINED",
    "ValidationError",
    "bucket_index",
    "evaluate_exact",
    "finalize",
    "interpolate_ap",
    "load_detections",
    "load_ground_truth",
    "load_state",
    "match_image",
    "merge",
    "new_state",
    "perturb",
    "sample_images",
    "save_state",
    "update",
]

__version__ = "0.1.0"
