import json
from pathlib import Path

import numpy as np
import pytest

from cocostream import BoundingBox, Detection, EvalConfig, GroundTruth

FIXTURES = Path(__file__).parent / "fixtures"

# Hand-computed metrics for the golden 3-image fixture: one class, one
# perfect detection (small GT), one IoU=0.9 detection (medium GT), and one
# disjoint detection (large GT, small detection box). AP per IoU threshold
# enumerated by hand over the 101-point recall grid.
GOLDEN_METRICS = {
    "map_standard": 637 / 1010,
    "map_50": 67 / 101,
    "map_75": 67 / 101,
    "map_small": 1.0,
    "map_medium": 0.9,
    "map_large": 0.0,
    "recall_maxdets_1": 19 / 30,
    "recall_maxdets_10": 19 / 30,
    "recall_maxdets_100": 19 / 30,
    "recall_small": 1.0,
    "recall_medium": 0.9,
    "recall_large": 0.0,
}


def make_box(left=0.0, top=0.0, right=10.0, bottom=10.0):
    return BoundingBox(left, top, right, bottom)


def make_det(left=0.0, top=0.0, right=10.0, bottom=10.0, class_id=0, confidence=0.5):
    return Detection(BoundingBox(left, top, right, bottom), class_id, confidence)


def make_gt(left=0.0, top=0.0, right=10.0, bottom=10.0, class_id=0):
    return GroundTruth(BoundingBox(left, top, right, bottom), class_id)


def cell_result(matches, class_id, iou_idx, area_idx, maxdets_idx):
    """One grid cell of a match_image record, in column order, as
    (((confidence, is_tp), ...), gt_count), the form of reference.greedy_cell."""
    limit = matches.config.max_dets_list[maxdets_idx]
    cols = np.nonzero(
        (matches.cls == class_id) & (matches.area == area_idx) & (matches.rank < limit)
    )[0]
    verdicts = tuple(
        (float(c), bool(f)) for c, f in zip(matches.confidences[cols], matches.tp[iou_idx, cols])
    )
    return verdicts, int(matches.gt_counts[class_id, area_idx])


def random_image(rng, num_classes=3, max_boxes=10, span=200.0, confidences=None):
    """One random (detections, ground_truths) pair."""
    n_gt = int(rng.integers(0, max_boxes + 1))
    n_det = int(rng.integers(0, max_boxes + 1))
    gts = [
        GroundTruth(_random_box(rng, span), int(rng.integers(0, num_classes)))
        for _ in range(n_gt)
    ]
    dets = []
    for i in range(n_det):
        conf = confidences.pop() if confidences else float(rng.random())
        dets.append(
            Detection(_random_box(rng, span), int(rng.integers(0, num_classes)), conf)
        )
    return dets, gts


def _random_box(rng, span):
    left = float(rng.uniform(0, span))
    top = float(rng.uniform(0, span))
    w = float(rng.uniform(0, span / 2))
    h = float(rng.uniform(0, span / 2))
    return BoundingBox(left, top, left + w, top + h)


def random_dataset(seed, n_images=10, num_classes=3, max_boxes=10, buckets_for_distinct=None):
    """Random dataset; with buckets_for_distinct set, confidences are forced
    into pairwise-distinct buckets."""
    rng = np.random.default_rng(seed)
    confidences = None
    if buckets_for_distinct is not None:
        total = n_images * max_boxes
        idx = rng.choice(buckets_for_distinct, size=total, replace=False)
        confidences = [(int(i) + 0.5) / buckets_for_distinct for i in idx]
    return [
        random_image(rng, num_classes, max_boxes, confidences=confidences)
        for _ in range(n_images)
    ]


@pytest.fixture
def golden_paths():
    return FIXTURES / "golden_annotations.json", FIXTURES / "golden_detections.json"


@pytest.fixture
def small_config():
    return EvalConfig(num_classes=3, buckets=1000)


def synthetic_annotation_doc(n_images=500, num_classes=6, seed=7, boxes_per_image=(1, 8)):
    """COCO-like annotation document with a realistic size mix, used as the
    sampling pool for benchmark-style tests."""
    rng = np.random.default_rng(seed)
    images = []
    annotations = []
    ann_id = 1
    for image_id in range(1, n_images + 1):
        images.append({"id": image_id, "width": 640, "height": 480})
        n_boxes = int(rng.integers(boxes_per_image[0], boxes_per_image[1] + 1))
        for _ in range(n_boxes):
            # log-uniform side lengths cover small/medium/large areas
            w = float(np.exp(rng.uniform(np.log(4), np.log(300))))
            h = float(np.exp(rng.uniform(np.log(4), np.log(300))))
            x = float(rng.uniform(0, 640 - min(w, 640)))
            y = float(rng.uniform(0, 480 - min(h, 480)))
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": image_id,
                    "category_id": int(rng.integers(1, num_classes + 1)),
                    "bbox": [x, y, w, h],
                }
            )
            ann_id += 1
    categories = [{"id": c} for c in range(1, num_classes + 1)]
    return {"images": images, "annotations": annotations, "categories": categories}


@pytest.fixture(scope="session")
def synthetic_pool_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "annotations.json"
    path.write_text(json.dumps(synthetic_annotation_doc()))
    return path
