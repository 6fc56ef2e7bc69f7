"""Evaluation protocols for open-vocabulary segmentation.

Two protocols are implemented:

- IoU-single: every ground-truth class of an image is queried on its own,
  together with its contrastive concepts, and scored as a binary mask.
  This measures open-world behavior, where the full label set is unknown.
- classic mIoU: all dataset classes are queried at once, contrastive
  concepts are remapped to the background class, and the standard
  per-class IoU accumulation applies.

Dataset aggregation for IoU-single is reported both as the mean of
per-image means and as dataset-level class accumulation (intersections
and unions summed before dividing); the class-accumulate number is the
default headline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .ccgen import CCSet
from .embed import EmbeddingTable
from .errors import CCMineError, FormatError, ValidationError
from .ioutil import atomic_write_text
from .segment import (
    BOTTOM,
    FeatureMap,
    PromptSet,
    build_prompt_set,
    query_masks,
    read_seg_grid,
    read_sidecar,
    remap_cc_to_background,
    segment_pixels,
    sigmoid_score_field,
)

# maps a query string to its contrastive concepts
CCSource = Callable[[str], CCSet]


def iou(pred: np.ndarray, gt: np.ndarray, ignore: np.ndarray | None = None) -> float | None:
    """Intersection over union of two boolean masks.

    Pixels under ``ignore`` participate on neither side.  Returns None when
    the union is empty, in which case the score is undefined rather than 0.
    """
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise ValidationError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    keep = None
    if ignore is not None:
        ignore = np.asarray(ignore, dtype=bool)
        if ignore.shape != pred.shape:
            raise ValidationError("ignore mask shape differs from prediction")
        keep = ~ignore
    intersection, union = intersection_union(pred, gt, keep)
    if union == 0:
        return None
    return intersection / union


def intersection_union(
    pred: np.ndarray, gt_mask: np.ndarray, keep: np.ndarray | None = None
) -> tuple[int, int]:
    """Pixel counts of the intersection and the union of two boolean masks,
    counting only pixels where ``keep`` is True (all pixels when None)."""
    if keep is not None:
        pred = pred & keep
        gt_mask = gt_mask & keep
    return int(np.count_nonzero(pred & gt_mask)), int(np.count_nonzero(pred | gt_mask))


@dataclass
class GroundTruth:
    """Dense class-id annotation with names, ignore id, and background id."""

    ids: np.ndarray
    labels: dict[int, str]
    ignore_id: int | None = None
    background_id: int | None = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int32)
        if self.ids.ndim != 2:
            raise ValidationError("ground-truth grid must be two-dimensional")
        names = list(self.labels.values())
        if len(names) != len(set(names)):
            raise ValidationError("ground-truth class names must be unique")
        allowed = set(self.labels)
        if self.ignore_id is not None:
            allowed.add(self.ignore_id)
        if self.background_id is not None:
            allowed.add(self.background_id)
        self._present = np.unique(self.ids).tolist()
        unknown = set(self._present) - allowed
        if unknown:
            raise ValidationError(f"ground truth contains unlabeled ids: {sorted(unknown)}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.ids.shape  # type: ignore[return-value]

    def keep_mask(self) -> np.ndarray | None:
        """Pixels that are scored: all but the ignore id (None: all pixels)."""
        if self.ignore_id is None:
            return None
        return self.ids != self.ignore_id

    def evaluable_ids(self) -> list[int]:
        """Unique class ids to score: everything but ignore and background."""
        skip = {self.ignore_id, self.background_id}
        return [i for i in self._present if i not in skip]


def load_ground_truth(path: str | Path) -> GroundTruth:
    """Read a CCSEG1 grid plus its JSON sidecar with class names and the
    optional ignore/background ids."""
    labels, ignore_id, background_id = read_gt_sidecar(path)
    grid = read_seg_grid(Path(path).read_bytes())
    return GroundTruth(grid, labels, ignore_id=ignore_id, background_id=background_id)


def read_gt_sidecar(path: str | Path) -> tuple[dict[int, str], int | None, int | None]:
    """Class names by id, ignore id and background id from the JSON sidecar
    of the ground-truth grid at ``path``, without reading the grid."""
    sidecar, names = read_sidecar(path)
    labels: dict[int, str] = {}
    for idx, name in names.items():
        if not name.strip():
            raise FormatError(f"sidecar label name for index {idx} must be a non-empty string")
        labels[idx] = " ".join(name.lower().split())
    ignore_id = sidecar.get("ignore_id")
    background_id = sidecar.get("background_id")
    for name, value in (("ignore_id", ignore_id), ("background_id", background_id)):
        if value is not None and type(value) is not int:  # true/false are ints too
            raise FormatError(f"sidecar {name} must be an integer or null")
    return labels, ignore_id, background_id


@dataclass
class ClassScore:
    class_id: int
    label: str
    intersection: int
    union: int

    @property
    def iou(self) -> float:
        return self.intersection / self.union


@dataclass
class ImageResult:
    image_id: str
    scores: list[ClassScore] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)

    def mean(self) -> float | None:
        if not self.scores:
            return None
        return sum(s.iou for s in self.scores) / len(self.scores)


def iou_single_image(
    features: FeatureMap,
    gt: GroundTruth,
    cc_source: CCSource,
    embeddings: EmbeddingTable,
    upsample: str = "logits",
    image_id: str = "",
) -> ImageResult:
    """Score each annotated class of one image in isolation.

    Each class is the only real query, with its contrastive concepts as
    competitors; the prediction is the set of pixels won by the query.  The
    image is segmented once, for the union of every class's prompts, and
    each class is decided on its own subset of the planes.  Classes whose
    prompts fail to resolve (for instance a missing embedding) are recorded
    and skipped.
    """
    h, w = gt.shape
    result = ImageResult(image_id=image_id)
    classes = gt.evaluable_ids()
    errors: dict[int, str] = {}
    contests: dict[int, tuple[int, list[int]]] = {}
    prompt_index: dict[str, int] = {}
    for class_id in classes:
        label = gt.labels[class_id]
        try:
            cc = cc_source(label)
            prompt_labels = [label] + [c for c in cc.concepts if c != label]
            cc_mask = [False] + [True] * (len(prompt_labels) - 1)
            build_prompt_set(prompt_labels, cc_mask, embeddings)  # checks only
        except CCMineError as exc:
            errors[class_id] = str(exc)
            continue
        index = [prompt_index.setdefault(p, len(prompt_index)) for p in prompt_labels]
        contests[class_id] = (index[0], index[1:])
    masks: dict[int, np.ndarray] = {}
    if contests:
        try:
            prompts = build_prompt_set(list(prompt_index), [False] * len(prompt_index), embeddings)
            won = query_masks(features, prompts, list(contests.values()), h, w, upsample)
        except CCMineError as exc:
            errors.update(dict.fromkeys(contests, str(exc)))
        else:
            masks = dict(zip(contests, won))
    keep = gt.keep_mask()
    for class_id in classes:
        label = gt.labels[class_id]
        if class_id in errors:
            result.failures.append((label, errors[class_id]))
            continue
        intersection, union = intersection_union(masks[class_id], gt.ids == class_id, keep)
        result.scores.append(ClassScore(class_id, label, intersection, union))
    return result


def iou_single_image_sigmoid(
    features: FeatureMap,
    gt: GroundTruth,
    threshold: float,
    embeddings: EmbeddingTable,
    image_id: str = "",
) -> ImageResult:
    """Sigmoid-threshold baseline: a pixel belongs to the query when its
    squashed similarity strictly exceeds the threshold."""
    h, w = gt.shape
    result = ImageResult(image_id=image_id)
    keep = gt.keep_mask()
    for class_id in gt.evaluable_ids():
        label = gt.labels[class_id]
        try:
            score = sigmoid_score_field(features, embeddings.vector(label), h, w)
        except CCMineError as exc:
            result.failures.append((label, str(exc)))
            continue
        intersection, union = intersection_union(score > threshold, gt.ids == class_id, keep)
        result.scores.append(ClassScore(class_id, label, intersection, union))
    return result


def aggregate_iou_single(results: list[ImageResult], mode: str = "class") -> dict:
    """Dataset-level aggregation of per-image IoU-single results.

    Both aggregations are always computed; ``mode`` picks the headline
    ``mean`` value.  Images with no scored classes are skipped; having no
    scored classes anywhere is an error.
    """
    if mode not in ("class", "image"):
        raise ValidationError(f"aggregation mode must be 'class' or 'image', got {mode!r}")
    scored = [r for r in results if r.scores]
    if not scored:
        raise ValidationError("no image produced a defined IoU score")
    image_means = {r.image_id: r.mean() for r in scored}
    mean_image = sum(image_means.values()) / len(image_means)
    acc: dict[str, list[int]] = {}
    for r in scored:
        for s in r.scores:
            bucket = acc.setdefault(s.label, [0, 0])
            bucket[0] += s.intersection
            bucket[1] += s.union
    per_class = {
        label: {"intersection": i, "union": u, "iou": i / u}
        for label, (i, u) in sorted(acc.items())
    }
    mean_class = sum(v["iou"] for v in per_class.values()) / len(per_class)
    return {
        "metric": "iou-single",
        "aggregation": mode,
        "mean": mean_class if mode == "class" else mean_image,
        "mean_class": mean_class,
        "mean_image": mean_image,
        "per_class": per_class,
        "per_image": [
            {
                "id": r.image_id,
                "mean": image_means.get(r.image_id),
                "classes": {s.label: s.iou for s in r.scores},
                "failures": [{"class": c, "error": e} for c, e in r.failures],
            }
            for r in results
        ],
        "images_scored": len(scored),
        "images_skipped": len(results) - len(scored),
    }


# ---- classic mIoU protocol ----


def classic_image(
    features: FeatureMap,
    gt: GroundTruth,
    prompts: PromptSet,
    background_label: str = "background",
    upsample: str = "logits",
) -> dict[str, tuple[int, int]]:
    """One multi-query segmentation scored against all dataset classes.

    Contrastive-concept pixels are remapped to the background prompt before
    scoring.  Returns per-class (intersection, union) for every non-CC
    prompt label, with absent classes contributing false-positive unions.
    """
    h, w = gt.shape
    pixmap = segment_pixels(features, prompts, h, w, upsample=upsample)
    pixmap = remap_cc_to_background(pixmap, prompts, background_label)
    keep = gt.keep_mask()
    label_to_id = {label: class_id for class_id, label in gt.labels.items()}
    if gt.background_id is not None and background_label not in label_to_id:
        label_to_id[background_label] = gt.background_id
    counts: dict[str, tuple[int, int]] = {}
    for index, label in enumerate(prompts.labels):
        if prompts.cc_mask[index]:
            continue
        pred = pixmap == index
        class_id = label_to_id.get(label)
        gt_mask = np.zeros_like(pred) if class_id is None else gt.ids == class_id
        counts[label] = intersection_union(pred, gt_mask, keep)
    return counts


def aggregate_classic(per_image_counts: list[dict[str, tuple[int, int]]]) -> dict:
    """Accumulate per-class intersections and unions across a dataset."""
    acc: dict[str, list[int]] = {}
    for counts in per_image_counts:
        for label, (i, u) in counts.items():
            bucket = acc.setdefault(label, [0, 0])
            bucket[0] += i
            bucket[1] += u
    defined = {label: (i, u) for label, (i, u) in acc.items() if u > 0}
    if not defined:
        raise ValidationError("no class has a defined IoU")
    per_class = {
        label: {"intersection": i, "union": u, "iou": i / u}
        for label, (i, u) in sorted(defined.items())
    }
    mean = sum(v["iou"] for v in per_class.values()) / len(per_class)
    return {
        "metric": "miou-classic",
        "mean": mean,
        "per_class": per_class,
        "classes_undefined": sorted(set(acc) - set(defined)),
    }


# ---- sigmoid threshold sweep ----


def sigmoid_sweep(
    items: Iterable[tuple[str, FeatureMap, GroundTruth]],
    embeddings: EmbeddingTable,
    steps: int = 30,
) -> dict:
    """Sweep the sigmoid baseline threshold over its observed score range.

    Score fields are computed once per (image, class); thresholds are
    ``steps`` values linearly spaced between the global minimum and maximum
    of those fields, endpoints included.  Each field is kept only as the
    sorted scores of its kept ground-truth-positive and negative pixels,
    so a binary search counts its pixels above every threshold at once.
    """
    if steps < 2:
        raise ValidationError("a sweep needs at least two threshold steps")
    fields = []
    lo = np.inf
    hi = -np.inf
    for image_id, features, gt in items:
        h, w = gt.shape
        keep = gt.keep_mask()
        for class_id in gt.evaluable_ids():
            label = gt.labels[class_id]
            score = sigmoid_score_field(features, embeddings.vector(label), h, w)
            lo = min(lo, float(score.min()))
            hi = max(hi, float(score.max()))
            gt_mask = gt.ids == class_id
            pos = score[gt_mask]  # a class pixel is never an ignored one
            neg = score[~gt_mask if keep is None else ~gt_mask & keep]
            del score, gt_mask
            pos.sort()
            neg.sort()
            fields.append((image_id, label, pos, neg))
    if not fields:
        raise ValidationError("no evaluable classes in the sweep inputs")
    thresholds = np.linspace(lo, hi, steps)
    # pixels strictly above t: the intersection's are the positives above
    # t, the union's are every positive plus the negatives above t
    counts = [
        (
            image_id,
            label,
            (len(pos) - np.searchsorted(pos, thresholds, "right")).tolist(),
            (len(pos) + len(neg) - np.searchsorted(neg, thresholds, "right")).tolist(),
        )
        for image_id, label, pos, neg in fields
    ]
    rows = []
    for k, threshold in enumerate(thresholds):
        by_image: dict[str, list[float]] = {}
        acc: dict[str, list[int]] = {}
        for image_id, label, inter, union in counts:
            i, u = inter[k], union[k]
            if u > 0:
                by_image.setdefault(image_id, []).append(i / u)
            bucket = acc.setdefault(label, [0, 0])
            bucket[0] += i
            bucket[1] += u
        image_means = [sum(v) / len(v) for v in by_image.values()]
        mean_image = sum(image_means) / len(image_means) if image_means else 0.0
        class_ious = [i / u for i, u in acc.values() if u > 0]
        mean_class = sum(class_ious) / len(class_ious) if class_ious else 0.0
        rows.append(
            {
                "threshold": float(threshold),
                "mean_class": mean_class,
                "mean_image": mean_image,
            }
        )
    return {
        "metric": "iou-single-sigmoid-sweep",
        "score_min": lo,
        "score_max": hi,
        "steps": steps,
        "rows": rows,
    }


# ---- report writing ----


def write_report(report: dict, json_path: str | Path, tsv_path: str | Path | None = None) -> None:
    """Persist a report as canonical JSON and optionally as a flat TSV."""
    atomic_write_text(
        json_path, json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    )
    if tsv_path is None:
        return
    lines = ["scope\tname\tvalue\n"]
    for key in ("mean", "mean_class", "mean_image"):
        if key in report:
            lines.append(f"summary\t{key}\t{report[key]:.6f}\n")
    for label, entry in report.get("per_class", {}).items():
        lines.append(f"class\t{label}\t{entry['iou']:.6f}\n")
    for entry in report.get("per_image", []):
        if entry.get("mean") is not None:
            lines.append(f"image\t{entry['id']}\t{entry['mean']:.6f}\n")
    for row in report.get("rows", []):
        key = "threshold" if "threshold" in row else "value"
        lines.append(f"{key}\t{row[key]:.6f}\t{row['mean_class']:.6f}\n")
    atomic_write_text(tsv_path, "".join(lines))
