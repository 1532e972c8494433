"""Pinned output hashes on 40 fixed random configs and datasets.

The reports of finalize, evaluate_exact and run_synth_bench and the
save_state bytes are hashed across all configs. A rewrite of matching,
bucketing or reduction that is meant to be exact must keep these hashes.
The configs cover 1-4 classes, 1-4 IoU thresholds, max-dets limits 1-7,
1 to 10000 buckets, the default and custom overlapping area ranges,
padding entries, and tied confidences and IoUs from small integer boxes.
"""

import hashlib
import io
import math

import numpy as np

from cocostream import (
    AreaRange,
    BoundingBox,
    Detection,
    EvalConfig,
    GroundTruth,
    evaluate_exact,
    finalize,
    load_ground_truth,
    new_state,
    save_state,
    update,
)
from cocostream.bench import run_synth_bench

from conftest import synthetic_annotation_doc

CUSTOM_AREAS = (
    ("all", AreaRange(0.0, math.inf)),
    ("low", AreaRange(0.0, 900.0)),
    ("mid", AreaRange(400.0, 4000.0)),
)

PINNED = {
    "finalize": "7d2234c42d1589088a1889aa823cb0d4e36472cfdd1d42cece55eb4a260496b1",
    "evaluate_exact": "42e4dbc0c89644456280e728d9f01f1399ad6a4aafe387a5db529b124e162a9e",
    "run_synth_bench": "3713143ba866081d1f702c3452af7b18aa3040307fc61bf1499c70b2674f1586",
    "save_state": "8dc58eb0a8f72e4829920a0536c160ce8c316ef3802e01e99f351b8e57f45e0e",
}


def _box(rng):
    left, top, w, h = (float(v) for v in rng.integers(0, 100, size=4))
    return BoundingBox(left, top, left + w, top + h)


def _config(rng):
    thetas = rng.choice(np.arange(1, 21) / 20, size=int(rng.integers(1, 5)), replace=False)
    limits = rng.choice(np.arange(1, 8), size=int(rng.integers(1, 4)), replace=False)
    return EvalConfig(
        num_classes=int(rng.integers(1, 5)),
        buckets=int(rng.choice([1, 2, 7, 100, 10000])),
        iou_thresholds=tuple(float(t) for t in sorted(thetas)),
        max_dets_list=tuple(int(m) for m in sorted(limits)),
        **({"area_ranges": CUSTOM_AREAS} if rng.random() < 0.5 else {}),
    )


def _dataset(rng, num_classes):
    """Images with padding (class -1). Most detections jitter a ground truth
    by a few pixels and keep its class, so they match; half of the images
    draw confidences from three values, so confidences tie."""
    images = []
    for _ in range(int(rng.integers(1, 7))):
        gts = [
            GroundTruth(_box(rng), int(rng.integers(-1, num_classes)))
            for _ in range(int(rng.integers(0, 8)))
        ]
        tied = rng.random() < 0.5
        dets = []
        for _ in range(int(rng.integers(0, 12))):
            conf = float(rng.choice([0.25, 0.5, 0.75]) if tied else rng.random())
            if gts and rng.random() < 0.7:
                g = gts[int(rng.integers(len(gts)))]
                left, top, right, bottom = (
                    float(v) for v in np.array(
                        [g.box.left, g.box.top, g.box.right, g.box.bottom]
                    ) + rng.integers(-4, 5, size=4)
                )
                box = BoundingBox(left, top, max(left, right), max(top, bottom))
                dets.append(Detection(box, g.class_id, conf))
            else:
                dets.append(Detection(_box(rng), int(rng.integers(-1, num_classes)), conf))
        images.append((dets, gts))
    return images


def test_pinned_reports():
    digests = {name: hashlib.sha256() for name in PINNED}
    rng = np.random.default_rng(2024)
    for i in range(40):
        config = _config(rng)
        dataset = _dataset(rng, config.num_classes)
        state = update(new_state(config), dataset)
        snapshot = io.BytesIO()
        save_state(state, snapshot)
        pool = load_ground_truth(
            synthetic_annotation_doc(n_images=8, num_classes=config.num_classes, seed=i)
        )
        rows = run_synth_bench(pool, config, image_counts=(3, 8), repeats=1, seed=i)
        digests["save_state"].update(snapshot.getvalue())
        digests["finalize"].update(repr(finalize(state).as_dict()).encode())
        digests["evaluate_exact"].update(repr(evaluate_exact(dataset, config).as_dict()).encode())
        digests["run_synth_bench"].update(repr(rows).encode())
    assert {name: d.hexdigest() for name, d in digests.items()} == PINNED
