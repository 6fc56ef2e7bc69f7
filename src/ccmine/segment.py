"""Dense open-vocabulary segmentation from patch features and text prompts.

A patch feature map (h, w, d) is scored against every prompt embedding by
cosine similarity, the per-prompt logit planes are upsampled bilinearly to
pixel resolution (half-pixel centers, clamped borders), and each pixel
takes the argmax prompt, ties resolving to the lowest prompt index.
Prompts marked as contrastive concepts can then be erased to the dummy
label or remapped to a background prompt, depending on the protocol.

Binary formats (little-endian):

- features ``CCFEAT1``: magic, u32 h, w, d, then h*w*d float32 row-major;
- label maps ``CCSEG1``: magic, u32 H, W, then H*W uint16 labels where
  0xFFFF encodes the dummy label, plus a JSON sidecar naming the indices.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embed import EmbeddingTable
from .errors import FormatError, MissingEmbeddingError, ValidationError
from .ioutil import atomic_write_bytes, atomic_write_text

BOTTOM = -1  # in-memory dummy label; serialized as 0xFFFF
_BOTTOM_U16 = 0xFFFF
_FEAT_MAGIC = b"CCFEAT1"
_SEG_MAGIC = b"CCSEG1"
# float64 bytes of upsampled logits decided at once: a band of output rows
# holds about this much, whatever the image size
BAND_BYTES = 512 << 10


class FeatureMap:
    """A (h, w, d) grid of unit-normalized patch features."""

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValidationError("feature map must be a (h, w, d) array")
        h, w, d = arr.shape
        if h < 1 or w < 1 or d < 1:
            raise ValidationError("feature map dimensions must be positive")
        norms = np.linalg.norm(arr, axis=2)
        if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
            raise ValidationError("feature map contains zero or non-finite patch vectors")
        unit = arr / norms[:, :, None]
        self.h, self.w, self.d = int(h), int(w), int(d)
        self._raw = unit.astype("<f4")
        self._unit = unit

    @property
    def unit(self) -> np.ndarray:
        return self._unit

    def dumps(self) -> bytes:
        head = _FEAT_MAGIC + struct.pack("<III", self.h, self.w, self.d)
        return head + self._raw.tobytes()

    def save(self, path: str | Path) -> None:
        atomic_write_bytes(path, self.dumps())

    @classmethod
    def loads(cls, data: bytes) -> "FeatureMap":
        off = len(_FEAT_MAGIC)
        if data[:off] != _FEAT_MAGIC:
            raise FormatError("not a CCFEAT1 feature map")
        if len(data) < off + 12:
            raise FormatError("truncated feature map header")
        h, w, d = struct.unpack_from("<III", data, off)
        off += 12
        expected = h * w * d * 4
        if len(data) != off + expected:
            raise FormatError(
                f"feature map payload is {len(data) - off} bytes, expected {expected}"
            )
        arr = np.frombuffer(data, dtype="<f4", offset=off).reshape(h, w, d)
        fm = cls(arr)
        # echo the stored payload on re-save so load/save round-trips are
        # byte-identical even where renormalization would re-round
        fm._raw = arr
        return fm

    @classmethod
    def load(cls, path: str | Path) -> "FeatureMap":
        return cls.loads(Path(path).read_bytes())


class PromptSet:
    """Prompt labels with unit embeddings and a contrastive-concept mask.

    The first entries are conventionally the real queries; ``cc_mask[k]``
    is True for prompts that only compete for pixels and are discarded
    from the final map.  At least one prompt must be a real query.
    """

    def __init__(self, labels: list[str], vectors, cc_mask: list[bool]) -> None:
        if len(labels) != len(set(labels)):
            raise ValidationError("prompt labels must be unique")
        if len(labels) == 0:
            raise ValidationError("prompt set is empty")
        if len(cc_mask) != len(labels):
            raise ValidationError("cc_mask length must match labels")
        if all(cc_mask):
            raise ValidationError("prompt set needs at least one non-CC query")
        arr = np.asarray(vectors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != len(labels):
            raise ValidationError("vectors must be a (len(labels), d) array")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
            raise ValidationError("prompt embeddings must be nonzero finite vectors")
        self.labels = list(labels)
        self.cc_mask = [bool(b) for b in cc_mask]
        self.vectors = arr / norms[:, None]

    def __len__(self) -> int:
        return len(self.labels)


def build_prompt_set(
    labels: list[str], cc_mask: list[bool], table: EmbeddingTable
) -> PromptSet:
    """Resolve prompt labels through an embedding table; a missing entry
    raises naming the concept."""
    vectors = []
    for label in labels:
        if label not in table:
            raise MissingEmbeddingError(label)
        vectors.append(table.vector(label))
    return PromptSet(labels, np.vstack(vectors), cc_mask)


def patch_logits(features: FeatureMap, prompts: PromptSet) -> np.ndarray:
    """Cosine similarity of every patch with every prompt, shape (h, w, L)."""
    if prompts.vectors.shape[1] != features.d:
        raise ValidationError(
            f"prompt dimension {prompts.vectors.shape[1]} != feature dimension {features.d}"
        )
    return np.clip(features.unit @ prompts.vectors.T, -1.0, 1.0)


def _row_taps(n_in: int, n_out: int):
    """Half-pixel aligned linear interpolation with clamped borders as two
    taps per output index: ``out[y] = w0[y] * in[lo[y]] + w1[y] * in[hi[y]]``."""
    pos = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    lo = np.floor(pos)
    frac = pos - lo
    lo = lo.astype(np.int64)
    return np.clip(lo, 0, n_in - 1), np.clip(lo + 1, 0, n_in - 1), 1.0 - frac, frac


def _interp_weights(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) linear interpolation weights, half-pixel aligned with
    clamped borders: each row holds at most two nonzero weights."""
    lo, hi, w0, w1 = _row_taps(n_in, n_out)
    rows = np.arange(n_out)
    weights = np.zeros((n_out, n_in))
    np.add.at(weights, (rows, lo), w0)
    np.add.at(weights, (rows, hi), w1)
    return weights


def _check_size(out_h: int, out_w: int) -> None:
    if out_h < 1 or out_w < 1:
        raise ValidationError("output size must be positive")


def _bands(logits: np.ndarray, out_h: int, out_w: int):
    """Bilinearly upsampled ``(h, w, L)`` logits, one band of output rows at
    a time: yields ``(rows, band)`` with ``band`` the ``(n, out_w, L)``
    values of the output rows in slice ``rows``.

    The columns are interpolated once, ``Rx @ logits``; each band is then a
    two-tap lerp of those along y.  The lerp is elementwise, so a pixel's
    values do not depend on the band it falls in, and memory holds the
    ``(h, out_w, L)`` columns plus about ``BAND_BYTES`` of band.
    """
    h, w, n = logits.shape
    cols = _interp_weights(w, out_w) @ logits
    lo, hi, w0, w1 = _row_taps(h, out_h)
    step = max(1, BAND_BYTES // (8 * n * out_w))
    for start in range(0, out_h, step):
        rows = slice(start, min(start + step, out_h))
        band = cols[lo[rows]]
        band *= w0[rows, None, None]
        tap = cols[hi[rows]]
        tap *= w1[rows, None, None]
        band += tap
        yield rows, band


def bilinear_resize(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear upsampling with half-pixel alignment and clamped borders.

    Output pixel centers map to input coordinates
    ``(x + 0.5) * (in / out) - 0.5``; samples beyond the border replicate
    the edge value.  A ``(h, w[, L])`` grid comes back ``(out_h, out_w[, L])``.
    The interpolation is separable, so each plane is ``Ry @ plane @ Rx.T``
    with two small weight matrices; for a stack the result is a view of a
    planes-first ``(L, out_h, out_w)`` array.
    """
    _check_size(out_h, out_w)
    arr = np.asarray(grid, dtype=np.float64)
    squeeze = arr.ndim == 2
    planes = np.ascontiguousarray(arr[None] if squeeze else np.moveaxis(arr, 2, 0))
    n, h, w = planes.shape
    rows = _interp_weights(h, out_h) @ planes
    out = (rows.reshape(n * out_h, w) @ _interp_weights(w, out_w).T).reshape(n, out_h, out_w)
    return out[0] if squeeze else np.moveaxis(out, 0, 2)


def nearest_resize(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize with the same half-pixel convention."""
    _check_size(out_h, out_w)
    arr = np.asarray(grid)
    h, w = arr.shape[:2]
    ys = np.clip(np.floor((np.arange(out_h) + 0.5) * (h / out_h)).astype(np.int64), 0, h - 1)
    xs = np.clip(np.floor((np.arange(out_w) + 0.5) * (w / out_w)).astype(np.int64), 0, w - 1)
    return arr[ys][:, xs]


def upsample_and_argmax(logits: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Upsample per-prompt logit planes, then take the per-pixel argmax,
    one band of output rows at a time.

    Ties resolve to the lowest prompt index (numpy argmax order).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 3:
        raise ValidationError("logits must be a (h, w, L) array")
    _check_size(out_h, out_w)
    labels = np.empty((out_h, out_w), dtype=np.int32)
    for rows, band in _bands(logits, out_h, out_w):
        labels[rows] = band.argmax(axis=2)
    return labels


def segment_pixels(
    features: FeatureMap,
    prompts: PromptSet,
    out_h: int,
    out_w: int,
    upsample: str = "logits",
) -> np.ndarray:
    """Dense prompt-index map at pixel resolution.

    ``upsample`` picks where the argmax happens: ``"logits"`` (default)
    upsamples the logit planes and decides per pixel; ``"labels"`` decides
    per patch and upsamples the decisions with nearest-neighbor, kept for
    comparison studies of the two orders.
    """
    logits = patch_logits(features, prompts)
    if upsample == "logits":
        return upsample_and_argmax(logits, out_h, out_w)
    if upsample == "labels":
        patch_labels = logits.argmax(axis=2).astype(np.int32)
        return nearest_resize(patch_labels, out_h, out_w)
    raise ValidationError(f"upsample must be 'logits' or 'labels', got {upsample!r}")


def query_masks(
    features: FeatureMap,
    prompts: PromptSet,
    contests: list[tuple[int, list[int]]],
    out_h: int,
    out_w: int,
    upsample: str = "logits",
) -> list[np.ndarray]:
    """Pixels each query wins against its rivals, from one segmentation.

    Each contest ``(query, rivals)`` holds indices into ``prompts``.  Its
    mask is True where the query's logit is at least every rival's: the
    pixels ``segment_pixels`` labels 0 for the prompts ``[query] + rivals``,
    since argmax ties go to the lowest index.  The logit planes are
    computed, and for ``upsample="logits"`` upsampled band by band, once for
    the whole prompt set, so prompts shared between contests cost one plane.
    With ``"labels"`` the decision is made per patch and resized
    nearest-neighbor.
    """
    logits = patch_logits(features, prompts)
    if upsample == "labels":
        return [
            nearest_resize(_wins(logits, query, rivals), out_h, out_w)
            for query, rivals in contests
        ]
    if upsample != "logits":
        raise ValidationError(f"upsample must be 'logits' or 'labels', got {upsample!r}")
    _check_size(out_h, out_w)
    masks = [np.empty((out_h, out_w), dtype=bool) for _ in contests]
    for rows, band in _bands(logits, out_h, out_w):
        for mask, (query, rivals) in zip(masks, contests):
            mask[rows] = _wins(band, query, rivals)
    return masks


def _wins(stack: np.ndarray, query: int, rivals: list[int]) -> np.ndarray:
    """Where prompt ``query`` of a ``(..., L)`` stack is at least every rival."""
    return stack[..., query] >= stack[..., rivals].max(axis=-1, initial=-np.inf)


def apply_cc_mask(pixmap: np.ndarray, prompts: PromptSet) -> np.ndarray:
    """Erase contrastive-concept pixels to the dummy label."""
    lookup = np.array(
        [BOTTOM if cc else k for k, cc in enumerate(prompts.cc_mask)], dtype=np.int32
    )
    return lookup[pixmap]


def remap_cc_to_background(
    pixmap: np.ndarray, prompts: PromptSet, background_label: str = "background"
) -> np.ndarray:
    """Send contrastive-concept pixels to an actual background prompt.

    Used by the classic mIoU protocol, where datasets annotate background
    as a real class; the background prompt must itself not be a CC.
    """
    try:
        bg_index = prompts.labels.index(background_label)
    except ValueError:
        raise ValidationError(
            f"background label {background_label!r} is not among the prompts"
        ) from None
    if prompts.cc_mask[bg_index]:
        raise ValidationError(
            f"background label {background_label!r} is marked as a contrastive concept"
        )
    lookup = np.array(
        [bg_index if cc else k for k, cc in enumerate(prompts.cc_mask)], dtype=np.int32
    )
    return lookup[pixmap]


# ---- sigmoid-threshold baseline ----


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def sigmoid_score_field(
    features: FeatureMap, query_vec: np.ndarray, out_h: int, out_w: int
) -> np.ndarray:
    """Per-pixel sigmoid-squashed similarity to a single query."""
    q = np.asarray(query_vec, dtype=np.float64).reshape(-1)
    if q.shape[0] != features.d:
        raise ValidationError(f"query dimension {q.shape[0]} != feature dimension {features.d}")
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ValidationError("query vector must be nonzero")
    cos = np.clip(features.unit @ (q / norm), -1.0, 1.0)
    return bilinear_resize(sigmoid(cos), out_h, out_w)


# ---- label-map artifact ----


def read_seg_grid(data: bytes) -> np.ndarray:
    """Decode the CCSEG1 byte layout into an int32 grid with BOTTOM for
    the 0xFFFF dummy value."""
    off = len(_SEG_MAGIC)
    if data[:off] != _SEG_MAGIC:
        raise FormatError("not a CCSEG1 label map")
    if len(data) < off + 8:
        raise FormatError("truncated label map header")
    h, w = struct.unpack_from("<II", data, off)
    off += 8
    if h < 1 or w < 1:
        raise FormatError("label map dimensions must be positive")
    if len(data) != off + h * w * 2:
        raise FormatError("label map payload size mismatch")
    grid = np.frombuffer(data, dtype="<u2", offset=off).reshape(h, w).astype(np.int32)
    grid[grid == _BOTTOM_U16] = BOTTOM
    return grid


def read_sidecar(path: str | Path) -> tuple[dict, dict[int, str]]:
    """The JSON object in ``<path>.json`` and its ``labels`` keyed by integer index."""
    sidecar_path = Path(str(path) + ".json")
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FormatError(f"label map sidecar missing: {sidecar_path}") from None
    except ValueError:  # not UTF-8 or not JSON
        raise FormatError(f"label map sidecar {sidecar_path} is not valid JSON") from None
    raw_names = sidecar.get("labels") if isinstance(sidecar, dict) else None
    if not isinstance(raw_names, dict):
        raise FormatError(f"label map sidecar {sidecar_path} must carry a 'labels' object")
    names: dict[int, str] = {}
    for k, v in raw_names.items():
        if not isinstance(v, str):
            raise FormatError(f"sidecar label name for index {k} is not a string")
        try:
            names[int(k)] = v
        except ValueError:
            raise FormatError(f"sidecar label index {k!r} is not an integer") from None
    return sidecar, names


@dataclass
class SegMap:
    """A dense label-index map with names for each index.

    ``labels`` uses BOTTOM (-1) for the dummy label; on disk that is
    0xFFFF.  ``label_names`` maps index -> prompt or class name.
    """

    labels: np.ndarray
    label_names: dict[int, str]

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2:
            raise ValidationError("label map must be two-dimensional")
        self.labels = arr.astype(np.int32)
        present = set(np.unique(self.labels).tolist()) - {BOTTOM}
        missing = present - set(self.label_names)
        if missing:
            raise ValidationError(f"label map contains unnamed indices: {sorted(missing)}")
        for idx in self.label_names:
            if not (0 <= idx < _BOTTOM_U16):
                raise ValidationError(f"label index {idx} does not fit the uint16 format")

    def dumps(self) -> bytes:
        h, w = self.labels.shape
        grid = self.labels.copy()
        grid[grid == BOTTOM] = _BOTTOM_U16
        return _SEG_MAGIC + struct.pack("<II", h, w) + grid.astype("<u2").tobytes()

    def sidecar(self) -> dict:
        return {"labels": {str(k): v for k, v in sorted(self.label_names.items())}}

    def save(self, path: str | Path) -> None:
        path = Path(path)
        atomic_write_bytes(path, self.dumps())
        atomic_write_text(
            Path(str(path) + ".json"),
            json.dumps(self.sidecar(), ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        )

    @classmethod
    def load(cls, path: str | Path) -> "SegMap":
        _, names = read_sidecar(path)
        return cls(read_seg_grid(Path(path).read_bytes()), names)
