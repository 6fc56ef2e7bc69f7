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
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .corpus import normalize_concept
from .embed import EmbeddingTable
from .errors import CCMineError, FormatError, ValidationError
from .ioutil import atomic_write_text
from .segment import (
    FeatureMap,
    PromptSet,
    bilinear_resize,
    build_prompt_set,
    grid_values,
    query_masks,
    read_seg_grid,
    read_sidecar,
    remap_cc_to_background,
    segment_pixels,
    sigmoid_patch_grid,
)

if TYPE_CHECKING:  # ccgen pulls in filters and llm, which scoring never runs
    from .ccgen import CCSet


def intersection_union(
    pred: np.ndarray, gt_mask: np.ndarray, keep: np.ndarray | None = None
) -> tuple[int, int]:
    """Pixel counts of the intersection and the union of two boolean masks,
    counting only pixels where ``keep`` is True (all pixels when None).  An
    empty union leaves the IoU undefined, not 0."""
    if pred.shape != gt_mask.shape:
        raise ValidationError(f"mask shapes differ: {pred.shape} vs {gt_mask.shape}")
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
        self._present = grid_values(self.ids)
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
        labels[idx] = normalize_concept(name)
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
    cc_source: Callable[[str], CCSet],  # a query's contrastive concepts
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
            score = bilinear_resize(sigmoid_patch_grid(features, embeddings.vector(label)), h, w)
        except CCMineError as exc:
            result.failures.append((label, str(exc)))
            continue
        intersection, union = intersection_union(score > threshold, gt.ids == class_id, keep)
        result.scores.append(ClassScore(class_id, label, intersection, union))
    return result


def _class_ious(counts: Iterable[tuple[str, int, int]]) -> tuple[dict, float, list[str]]:
    """Sum ``(label, intersection, union)`` counts per class.  Returns the
    classes with a nonzero union by label, each with its sums and IoU; the
    mean of those IoUs in label order; and the labels whose union stayed 0,
    whose IoU is undefined.  Having no class with an IoU is an error."""
    acc: dict[str, list[int]] = {}
    for label, i, u in counts:
        bucket = acc.setdefault(label, [0, 0])
        bucket[0] += i
        bucket[1] += u
    per_class = {
        label: {"intersection": i, "union": u, "iou": i / u}
        for label, (i, u) in sorted(acc.items())
        if u > 0
    }
    if not per_class:
        raise ValidationError("no class has a defined IoU")
    mean = sum(v["iou"] for v in per_class.values()) / len(per_class)
    undefined = sorted(label for label, (_, u) in acc.items() if u == 0)
    return per_class, mean, undefined


def _unscored(failed: list[tuple[str, str, str]]) -> ValidationError:
    """The error of a run that scored no class; ``failed``: (image id, label, reason)."""
    message = "no image produced a defined IoU score"
    if failed:
        image_id, label, error = failed[0]
        message += (
            f"; {len(failed)} class failures, the first: image {image_id!r},"
            f" class {label!r}: {error}"
        )
    return ValidationError(message)


def aggregate_iou_single(results: list[ImageResult], mode: str = "class") -> dict:
    """Dataset-level aggregation of per-image IoU-single results.

    Both aggregations are always computed; ``mode`` picks the headline
    ``mean`` value.  Images with no scored classes are skipped; having no
    scored classes anywhere is an error, which counts the class failures
    and names the first.
    """
    if mode not in ("class", "image"):
        raise ValidationError(f"aggregation mode must be 'class' or 'image', got {mode!r}")
    scored = [r for r in results if r.scores]
    if not scored:
        raise _unscored([(r.image_id, label, e) for r in results for label, e in r.failures])
    image_means = {r.image_id: r.mean() for r in scored}
    mean_image = sum(image_means.values()) / len(image_means)
    per_class, mean_class, _ = _class_ious(
        (s.label, s.intersection, s.union) for r in scored for s in r.scores
    )
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
    per_class, mean, undefined = _class_ious(
        (label, i, u) for counts in per_image_counts for label, (i, u) in counts.items()
    )
    return {
        "metric": "miou-classic",
        "mean": mean,
        "per_class": per_class,
        "classes_undefined": undefined,
    }


# ---- sigmoid threshold sweep ----


def sigmoid_sweep(
    items: Iterable[tuple[str, FeatureMap, GroundTruth]],
    embeddings: EmbeddingTable,
    steps: int = 30,
) -> tuple[dict, list[tuple[str, str, str]]]:
    """Sweep the sigmoid baseline threshold over its observed score range.

    Thresholds are ``steps`` values linearly spaced between the global
    minimum and maximum of the (image, class) score fields, endpoints
    included.  The range is known only once every image is read, so each
    field is kept until then as its patch grid and two packed masks, its
    kept ground-truth-positive and negative pixels; then it is upsampled
    again, bit for bit as the first time, and its pixels of each mask are
    sorted, so a binary search counts them above every threshold at once.

    Returns the report and its class failures: a class whose field fails
    is skipped, as ``eval`` skips it, and listed as (image id, label, reason).
    """
    if steps < 2:
        raise ValidationError("a sweep needs at least two threshold steps")
    fields, failures = [], []
    lo = np.inf
    hi = -np.inf
    for image_id, features, gt in items:
        h, w = gt.shape
        keep = gt.keep_mask()
        for class_id in gt.evaluable_ids():
            label = gt.labels[class_id]
            try:
                grid = sigmoid_patch_grid(features, embeddings.vector(label))
            except CCMineError as exc:
                failures.append((image_id, label, str(exc)))
                continue
            score = bilinear_resize(grid, h, w)
            lo = min(lo, float(score.min()))
            hi = max(hi, float(score.max()))
            del score
            gt_mask = gt.ids == class_id  # a class pixel is never an ignored one
            neg = ~gt_mask if keep is None else ~gt_mask & keep
            masks = np.packbits(gt_mask), np.packbits(neg)
            fields.append((image_id, class_id, label, grid, (h, w), *masks))
        del features, gt  # freed before the next image loads
    if not fields:
        raise _unscored(failures)
    thresholds = np.linspace(lo, hi, steps)
    counts = [
        (image_id, class_id, label, *_counts_above(grid, shape, pos, neg, thresholds))
        for image_id, class_id, label, grid, shape, pos, neg in fields
    ]
    rows = []
    for k, threshold in enumerate(thresholds):
        # a row is what eval reports from these counts at its threshold
        results: dict[str, ImageResult] = {}
        for image_id, class_id, label, inter, union in counts:
            score = ClassScore(class_id, label, inter[k], union[k])
            results.setdefault(image_id, ImageResult(image_id)).scores.append(score)
        report = aggregate_iou_single(list(results.values()))
        rows.append(
            {
                "threshold": float(threshold),
                "mean_class": report["mean_class"],
                "mean_image": report["mean_image"],
            }
        )
    return {
        "metric": "iou-single-sigmoid-sweep",
        "score_min": lo,
        "score_max": hi,
        "steps": steps,
        "rows": rows,
    }, failures


def _counts_above(
    grid: np.ndarray, shape: tuple[int, int], pos: np.ndarray, neg: np.ndarray, thresholds
) -> tuple[list[int], list[int]]:
    """Intersection and union of a field's pixels strictly above each
    threshold: the field is ``grid`` upsampled to ``shape``, and ``pos`` and
    ``neg`` are its kept positive and negative pixels, packed bitmasks.
    The intersection's pixels are the positives above t, the union's are
    every positive plus the negatives above t."""
    score = bilinear_resize(grid, *shape).reshape(-1)
    pos_scores = score[np.unpackbits(pos, count=score.size).view(bool)]
    neg_scores = score[np.unpackbits(neg, count=score.size).view(bool)]
    del score
    pos_scores.sort()
    neg_scores.sort()
    above_pos = len(pos_scores) - np.searchsorted(pos_scores, thresholds, "right")
    above_neg = len(neg_scores) - np.searchsorted(neg_scores, thresholds, "right")
    return above_pos.tolist(), (len(pos_scores) + above_neg).tolist()


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
