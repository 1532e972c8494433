"""Dataset loading from COCO-style JSON plus the synthetic perturbation generator.

Annotation documents carry images/annotations/categories sections with
(x, y, width, height) boxes; results documents are flat lists of
{image_id, category_id, bbox, score}. Boxes are converted to corner format
on load and category ids are remapped to contiguous class indices.

_read_annotations and _read_results read documents into matching._Columns:
image and category ids one entry at a time, and annotation and results rows
with vectorised checks, running the per-row checks at a rejection for its
located error; load_ground_truth and load_detections build Datasets from them.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import astuple, dataclass, replace
from itertools import chain, islice
from pathlib import Path
from typing import Union

import numpy as np

from .config import _INTEGERS, _NUMBERS, _is_number
from .geometry import BoundingBox, Detection, GroundTruth
from .matching import _areas, _box_array, _Columns


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
    if not isinstance(source, (str, os.PathLike)):
        raise ParseError(f"a document must be a path, dict or list, got {type(source).__name__}")
    path = Path(source)
    try:
        with path.open("r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply to read") from exc


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
        box = BoundingBox(left=x, top=y, right=x + w, bottom=y + h)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    if not math.isfinite(box.width * box.height):
        raise ValidationError(f"{where}: box area is not finite ({w} x {h})")
    return box


def _sure(ok) -> None:
    if not ok:
        raise ValueError("left to the per-row checks")


def _typed(values: list, types) -> list:
    """values, or ValueError unless each is an instance of types and not a bool."""
    _sure(all(issubclass(t, types) and not issubclass(t, bool) for t in set(map(type, values))))
    return values


def _floats(values: list) -> np.ndarray:
    """values as floats; ValueError unless each is a number below the float maximum."""
    out = np.array(_typed(values, _NUMBERS), dtype=float)  # OverflowError past it
    _sure((np.abs(out) < sys.float_info.max).all())
    return out


def _section_ids(entries: list, section: str) -> list[int]:
    """The 'id' of each images or categories entry, read by _id one entry at
    a time, so an error names its entry; a repeated image id is a ParseError."""
    keys, seen = [], set()
    for i, entry in enumerate(entries):
        keys.append(_id(entry, "id", f"{section}[{i}]"))
        if section == "images" and keys[-1] in seen:
            raise ParseError(f"duplicate image id: {keys[-1]}")
        seen.add(keys[-1])
    return keys


def _rows(rows: list, image_ids: list, category_ids: tuple, section: str) -> _Columns:
    """The annotations or results rows as columns, grouped by image: read
    vectorised if all certainly pass the checks, else by _per_row."""
    image_index = {v: i for i, v in enumerate(image_ids)}
    class_index = {v: k for k, v in enumerate(category_ids)}
    cols = None
    with suppress(KeyError, ValueError, OverflowError):
        bboxes = _typed([r["bbox"] for r in _typed(rows, dict)], (list, tuple))
        _sure(set(map(len, bboxes)) <= {4})
        xywh = _floats(list(chain.from_iterable(bboxes))).reshape(-1, 4)
        scores = _floats([r["score"] for r in rows] if section == "results" else [0] * len(rows))
        with np.errstate(over="ignore", invalid="ignore"):
            boxes = np.concatenate([xywh[:, :2], xywh[:, :2] + xywh[:, 2:]], axis=1)
            area = _areas(boxes)  # finite only if the corners are
        _sure((xywh[:, 2:] >= 0).all() and np.isfinite(area).all())
        _sure(((scores >= 0) & (scores <= 1)).all())
        img = [image_index[v] for v in _typed([r["image_id"] for r in rows], _NUMBERS)]
        cls = [class_index[v] for v in _typed([r["category_id"] for r in rows], _NUMBERS)]
        cols = _Columns(np.array(img, dtype=np.int64), np.array(cls, dtype=np.int64), boxes, scores)
    cols = cols or _per_row(rows, image_index, class_index, section)
    return cols.take(np.argsort(cols.img, kind="stable"))


def _per_row(rows, image_index, class_index, section: str) -> _Columns:
    """The columns of rows, checked one entry at a time in document order."""
    out = []
    for i, row in enumerate(rows):
        where = f"{section}[{i}]"
        image_id = _id(row, "image_id", where)
        if image_id not in image_index:
            raise ValidationError(f"{where}: unknown image id {image_id}")
        score = 0.0
        if section == "results":
            score = float(_number(row, "score", where))
            if not (0.0 <= score <= 1.0):
                raise ValidationError(f"{where}: score outside [0, 1]: {score}")
        cat = _id(row, "category_id", where)
        if cat not in class_index:
            raise ValidationError(f"{where}: unknown category id {cat}")
        box = astuple(_corner_box(row, where))
        out.append((image_index[image_id], class_index[cat], *box, score))
    table = np.array(out, dtype=float).reshape(-1, 7)
    return _Columns(*table[:, :2].astype(np.int64).T, table[:, 2:6], table[:, 6])


def _read_annotations(source: Source) -> tuple[list[int], tuple[int, ...], _Columns]:
    """An annotation document's image ids, sorted category ids and ground truths."""
    doc = _load_document(source)
    if not isinstance(doc, dict):
        raise ParseError(f"annotation document must be a JSON object, got {type(doc).__name__}")
    for section in ("images", "annotations", "categories"):
        if section not in doc:
            raise ParseError(f"annotation document missing '{section}' section")
        if not isinstance(doc[section], list):
            kind = type(doc[section]).__name__
            raise ParseError(f"annotation document '{section}' section must be a list, got {kind}")
    category_ids = tuple(sorted(_section_ids(doc["categories"], "categories")))
    if len(set(category_ids)) != len(category_ids):
        raise ParseError(f"duplicate category ids: {category_ids}")
    image_ids = _section_ids(doc["images"], "images")
    gts = _rows(doc["annotations"], image_ids, category_ids, "annotations")
    return image_ids, category_ids, gts


def _read_results(source: Source, image_ids, category_ids) -> _Columns:
    """A results document's detections as columns, against an annotation document's ids."""
    doc = _load_document(source)
    if isinstance(doc, dict) and isinstance(doc.get("results"), list):
        doc = doc["results"]
    if not isinstance(doc, list):
        raise ParseError("results document must be a JSON list")
    return _rows(doc, image_ids, category_ids, "results")


def _per_image(items: list, img: np.ndarray, images: int) -> list[tuple]:
    cuts = np.searchsorted(img, np.arange(images + 1)).tolist()
    return [tuple(items[a:b]) for a, b in zip(cuts, cuts[1:])]


def load_ground_truth(source: Source) -> Dataset:
    """Build a ground-truth-only dataset from an annotation document."""
    image_ids, category_ids, gts = _read_annotations(source)
    items = [GroundTruth(BoundingBox(*b), k) for b, k in zip(gts.boxes.tolist(), gts.cls.tolist())]
    per_image = _per_image(items, gts.img, len(image_ids))
    images = tuple(ImageRecord(i, ground_truths=g) for i, g in zip(image_ids, per_image))
    return Dataset(images=images, category_ids=category_ids)


def load_detections(source: Source, base: Dataset) -> Dataset:
    """Attach detections from a results document to a ground-truth dataset."""
    dets = _read_results(source, [rec.image_id for rec in base.images], base.category_ids)
    columns = zip(dets.boxes.tolist(), dets.cls.tolist(), dets.scores.tolist())
    items = [Detection(BoundingBox(*b), k, c) for b, k, c in columns]
    per_image = _per_image(items, dets.img, len(base.images))
    images = tuple(replace(rec, detections=d) for rec, d in zip(base.images, per_image))
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
    confidence is drawn uniformly from (0, 1]. One PCG64 draw of n x 5 uniforms
    u on [0, 1) from the seed serves the n ground truths in dataset order: per
    row, dx, dy, width scale and height scale (low + (high - low) * u, as
    numpy's uniform), then the confidence 1 - u.
    """
    gts = [gt for rec in dataset.images for gt in rec.ground_truths]
    dx, dy, sw, sh, u = np.random.default_rng(params.seed).random((len(gts), 5)).T
    left, top, right, bottom = _box_array(gts).T
    tf, low, high = params.translate_fraction, params.scale_low, params.scale_high
    with np.errstate(over="ignore", invalid="ignore"):  # BoundingBox rejects what overflows
        w, h = right - left, bottom - top
        left, top = left + (2 * tf * dx - tf) * w, top + (2 * tf * dy - tf) * h
        w, h = w * (low + (high - low) * sw), h * (low + (high - low) * sh)
        rows = np.stack([left, top, left + w, top + h, 1.0 - u], axis=1).tolist()
    made = iter([Detection(BoundingBox(*b), g.class_id, c) for g, (*b, c) in zip(gts, rows)])
    per_image = (tuple(islice(made, len(rec.ground_truths))) for rec in dataset.images)
    images = tuple(replace(rec, detections=d) for rec, d in zip(dataset.images, per_image))
    return Dataset(images=images, category_ids=dataset.category_ids)


# -- interchange export ----------------------------------------------------


def _interchange_row(image_id: int, category_ids: tuple, item) -> dict:
    b = item.box
    bbox = [b.left, b.top, b.width, b.height]
    return {"image_id": image_id, "category_id": category_ids[item.class_id], "bbox": bbox}


def dataset_to_annotation_doc(dataset: Dataset) -> dict:
    """Ground truths back to the annotation interchange format."""
    rows = [
        _interchange_row(rec.image_id, dataset.category_ids, gt)
        for rec in dataset.images
        for gt in rec.ground_truths
    ]
    return {
        "images": [{"id": rec.image_id} for rec in dataset.images],
        "annotations": [{"id": i, **row} for i, row in enumerate(rows, start=1)],
        "categories": [{"id": cid} for cid in dataset.category_ids],
    }


def dataset_to_results_doc(dataset: Dataset) -> list[dict]:
    """Detections back to the results interchange format."""
    return [
        {**_interchange_row(rec.image_id, dataset.category_ids, det), "score": det.confidence}
        for rec in dataset.images
        for det in rec.detections
    ]
