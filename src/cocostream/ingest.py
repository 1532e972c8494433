"""Dataset loading from COCO-style JSON plus the synthetic perturbation generator.

Annotation documents carry images/annotations/categories sections with
(x, y, width, height) boxes; results documents are flat lists of
{image_id, category_id, bbox, score}. Boxes are converted to corner format
on load and category ids are remapped to contiguous class indices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np

from .config import _INTEGERS, _is_number
from .geometry import BoundingBox, Detection, GroundTruth


class ParseError(ValueError):
    """Structurally malformed input document."""


class ValidationError(ValueError):
    """Well-formed document with out-of-domain values."""


Source = Union[str, Path, dict, list]


@dataclass(frozen=True)
class ImageRecord:
    image_id: int
    ground_truths: tuple[GroundTruth, ...] = ()
    detections: tuple[Detection, ...] = ()


@dataclass(frozen=True)
class Dataset:
    """Image records plus the category-id-to-class-index mapping."""

    images: tuple[ImageRecord, ...]
    category_ids: tuple[int, ...]  # class index -> original category id

    @property
    def num_classes(self) -> int:
        return len(self.category_ids)

    def pairs(self) -> list[tuple[tuple[Detection, ...], tuple[GroundTruth, ...]]]:
        return [(rec.detections, rec.ground_truths) for rec in self.images]


@dataclass(frozen=True)
class PerturbationParams:
    translate_fraction: float = 0.2
    scale_low: float = 0.8
    scale_high: float = 1.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.translate_fraction < 1.0):
            raise ValidationError(
                f"translate_fraction outside [0, 1): {self.translate_fraction}"
            )
        if not (0.0 < self.scale_low <= self.scale_high < math.inf):
            raise ValidationError(
                f"need 0 < scale_low <= scale_high < inf, got "
                f"{self.scale_low}, {self.scale_high}"
            )


def _load_document(source: Source) -> dict | list:
    if isinstance(source, (dict, list)):
        return source
    path = Path(source)
    try:
        with path.open("r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _field(entry: object, key: str, where: str) -> object:
    """entry[key], or a ParseError naming where the entry sits."""
    if not isinstance(entry, dict):
        raise ParseError(f"{where}: expected an object, got {type(entry).__name__}")
    if key not in entry:
        raise ParseError(f"{where}: missing '{key}'")
    return entry[key]


def _number(entry: object, key: str, where: str) -> int | float:
    """entry[key] if it is a JSON number, or a ParseError naming where."""
    value = _field(entry, key, where)
    if not _is_number(value):
        raise ParseError(f"{where}: '{key}' is not a number: {value!r}")
    return value


def _id(entry: object, key: str, where: str) -> int:
    """entry[key] if it is a number of integral value, or a ParseError naming where."""
    value = _number(entry, key, where)
    if not isinstance(value, _INTEGERS) and not float(value).is_integer():
        raise ParseError(f"{where}: '{key}' is not an integer: {value!r}")
    return int(value)


def _corner_box(entry: object, where: str) -> BoundingBox:
    bbox = _field(entry, "bbox", where)
    if not isinstance(bbox, (list, tuple)):
        raise ParseError(f"{where}: bbox must be a list, got {type(bbox).__name__}")
    if len(bbox) != 4:
        raise ParseError(f"{where}: bbox must have 4 entries, got {len(bbox)}")
    if not all(_is_number(v) for v in bbox):
        raise ParseError(f"{where}: bbox entries must be numbers, got {bbox!r}")
    x, y, w, h = (float(v) for v in bbox)
    if w < 0 or h < 0:
        raise ValidationError(f"{where}: negative box size ({w} x {h})")
    try:
        return BoundingBox(left=x, top=y, right=x + w, bottom=y + h)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def load_ground_truth(source: Source) -> Dataset:
    """Build a ground-truth-only dataset from an annotation document."""
    doc = _load_document(source)
    if not isinstance(doc, dict):
        raise ParseError(f"annotation document must be a JSON object, got {type(doc).__name__}")
    for section in ("images", "annotations", "categories"):
        if section not in doc:
            raise ParseError(f"annotation document missing '{section}' section")
        if not isinstance(doc[section], list):
            raise ParseError(
                f"annotation document '{section}' section must be a list,"
                f" got {type(doc[section]).__name__}"
            )

    category_ids = tuple(
        sorted(_id(c, "id", f"categories[{i}]") for i, c in enumerate(doc["categories"]))
    )
    if len(set(category_ids)) != len(category_ids):
        raise ParseError(f"duplicate category ids: {category_ids}")
    index_of = {cid: i for i, cid in enumerate(category_ids)}

    gts_by_image: dict[int, list[GroundTruth]] = {}
    image_order = []
    for i, img in enumerate(doc["images"]):
        image_id = _id(img, "id", f"images[{i}]")
        if image_id in gts_by_image:
            raise ParseError(f"duplicate image id: {image_id}")
        gts_by_image[image_id] = []
        image_order.append(image_id)

    for i, ann in enumerate(doc["annotations"]):
        where = f"annotations[{i}]"
        image_id = _id(ann, "image_id", where)
        if image_id not in gts_by_image:
            raise ValidationError(f"{where}: unknown image id {image_id}")
        cat = _id(ann, "category_id", where)
        if cat not in index_of:
            raise ValidationError(f"{where}: unknown category id {cat}")
        box = _corner_box(ann, where)
        gts_by_image[image_id].append(GroundTruth(box=box, class_id=index_of[cat]))

    images = tuple(
        ImageRecord(image_id=iid, ground_truths=tuple(gts_by_image[iid]))
        for iid in image_order
    )
    return Dataset(images=images, category_ids=category_ids)


def load_detections(source: Source, base: Dataset) -> Dataset:
    """Attach detections from a results document to a ground-truth dataset."""
    doc = _load_document(source)
    if not isinstance(doc, list):
        if isinstance(doc, dict) and isinstance(doc.get("results"), list):
            doc = doc["results"]
        else:
            raise ParseError("results document must be a JSON list")

    index_of = {cid: i for i, cid in enumerate(base.category_ids)}
    dets: dict[int, list[Detection]] = {rec.image_id: [] for rec in base.images}
    for i, row in enumerate(doc):
        where = f"results[{i}]"
        image_id = _id(row, "image_id", where)
        if image_id not in dets:
            raise ValidationError(f"{where}: unknown image id {image_id}")
        score = float(_number(row, "score", where))
        if not (0.0 <= score <= 1.0):
            raise ValidationError(f"{where}: score outside [0, 1]: {score}")
        cat = _id(row, "category_id", where)
        if cat not in index_of:
            raise ValidationError(f"{where}: unknown category id {cat}")
        box = _corner_box(row, where)
        dets[image_id].append(Detection(box=box, class_id=index_of[cat], confidence=score))

    images = tuple(
        replace(rec, detections=tuple(dets[rec.image_id])) for rec in base.images
    )
    return Dataset(images=images, category_ids=base.category_ids)


def sample_images(dataset: Dataset, n: int, seed: int) -> Dataset:
    """Uniform sample of n image records without replacement."""
    if n > len(dataset.images):
        raise ValueError(
            f"cannot sample {n} images from a dataset of {len(dataset.images)}"
        )
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(dataset.images), size=n, replace=False)
    images = tuple(dataset.images[i] for i in idx)
    return Dataset(images=images, category_ids=dataset.category_ids)


def perturb(dataset: Dataset, params: PerturbationParams) -> Dataset:
    """Synthesize detections by jittering each ground truth box.

    The whole box translates by uniform fractions of its width/height, its
    size rescales by uniform factors, the class is preserved, and the
    confidence is drawn uniformly from (0, 1]. Deterministic given the seed
    (PCG64 generator).
    """
    rng = np.random.default_rng(params.seed)
    tf = params.translate_fraction
    images = []
    for rec in dataset.images:
        dets = []
        for gt in rec.ground_truths:
            b = gt.box
            w, h = b.width, b.height
            dx = rng.uniform(-tf, tf) * w
            dy = rng.uniform(-tf, tf) * h
            new_w = w * rng.uniform(params.scale_low, params.scale_high)
            new_h = h * rng.uniform(params.scale_low, params.scale_high)
            left = b.left + dx
            top = b.top + dy
            conf = 1.0 - rng.random()  # uniform over (0, 1]
            dets.append(
                Detection(
                    box=BoundingBox(left, top, left + new_w, top + new_h),
                    class_id=gt.class_id,
                    confidence=conf,
                )
            )
        images.append(replace(rec, detections=tuple(dets)))
    return Dataset(images=tuple(images), category_ids=dataset.category_ids)


# -- interchange export ----------------------------------------------------


def dataset_to_annotation_doc(dataset: Dataset) -> dict:
    """Ground truths back to the annotation interchange format."""
    images = [{"id": rec.image_id} for rec in dataset.images]
    annotations = []
    ann_id = 1
    for rec in dataset.images:
        for gt in rec.ground_truths:
            b = gt.box
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": rec.image_id,
                    "category_id": dataset.category_ids[gt.class_id],
                    "bbox": [b.left, b.top, b.width, b.height],
                }
            )
            ann_id += 1
    categories = [{"id": cid} for cid in dataset.category_ids]
    return {"images": images, "annotations": annotations, "categories": categories}


def dataset_to_results_doc(dataset: Dataset) -> list[dict]:
    """Detections back to the results interchange format."""
    rows = []
    for rec in dataset.images:
        for det in rec.detections:
            b = det.box
            rows.append(
                {
                    "image_id": rec.image_id,
                    "category_id": dataset.category_ids[det.class_id],
                    "bbox": [b.left, b.top, b.width, b.height],
                    "score": det.confidence,
                }
            )
    return rows
