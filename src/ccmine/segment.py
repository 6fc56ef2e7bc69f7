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
from typing import NamedTuple

import numpy as np

from .embed import EmbeddingTable
from .errors import FormatError, MissingEmbeddingError, ValidationError
from .ioutil import atomic_write_bytes, atomic_write_text, parse_json, read_text

BOTTOM = -1  # in-memory dummy label; serialized as 0xFFFF
_BOTTOM_U16 = 0xFFFF
_FEAT_MAGIC = b"CCFEAT1"
_SEG_MAGIC = b"CCSEG1"
# float64 bytes of upsampled logits decided at once: a band of output
# pixels holds about this much, whatever the image size
BAND_BYTES = 512 << 10
# float64 bytes of patch features squared and summed at once for their norms
NORM_BYTES = 256 << 10
# a lead at both interpolation taps that a two-tap lerp cannot overturn,
# relative to the larger of 1 and the largest |logit|: the lerp's rounding
# moves a value by under 1e-15 of that
MARGIN = 1e-12


class FeatureMap:
    """A (h, w, d) grid of unit-normalized patch features."""

    def __init__(self, data, _loaded: bool = False) -> None:
        unit = np.array(data, dtype=np.float64)
        if unit.ndim != 3:
            raise ValidationError("feature map must be a (h, w, d) array")
        h, w, d = unit.shape
        if h < 1 or w < 1 or d < 1:
            raise ValidationError("feature map dimensions must be positive")
        norms = _patch_norms(unit)
        if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
            raise ValidationError("feature map contains zero or non-finite patch vectors")
        unit /= norms[:, :, None]
        self.h, self.w, self.d = int(h), int(w), int(d)
        self._unit = unit
        # a loaded map keeps its patch norms, not its payload: the unit
        # vectors scaled back by them round to the stored float32 values
        self._norms = norms if _loaded else None

    @property
    def unit(self) -> np.ndarray:
        return self._unit

    def dumps(self) -> bytes:
        head = _FEAT_MAGIC + struct.pack("<III", self.h, self.w, self.d)
        payload = self._unit if self._norms is None else self._unit * self._norms[:, :, None]
        return head + payload.astype("<f4").tobytes()

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
        if 0 in (h, w, d):  # numpy cannot hold an empty (0, 2**30, 2**30) as float64
            raise FormatError("feature map dimensions must be positive")
        expected = h * w * d * 4
        if len(data) != off + expected:
            raise FormatError(
                f"feature map payload is {len(data) - off} bytes, expected {expected}"
            )
        return cls(np.frombuffer(data, dtype="<f4", offset=off).reshape(h, w, d), _loaded=True)

    @classmethod
    def load(cls, path: str | Path) -> "FeatureMap":
        return cls.loads(Path(path).read_bytes())


def _patch_norms(unit: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(unit, axis=2)``, bit for bit, squared and summed a
    block of about ``NORM_BYTES`` of rows at a time (one row at least), so
    no full-size temporary is made.  Each patch's sum reduces its own
    contiguous ``d`` values, whichever block it falls in."""
    h, w, d = unit.shape
    step = max(1, NORM_BYTES // (8 * w * d))
    norms = np.empty((h, w))
    for start in range(0, h, step):
        block = unit[start : start + step]
        np.sqrt(np.add.reduce(block * block, axis=2), out=norms[start : start + step])
    return norms


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


class _Runs(NamedTuple):
    """Output rows grouped into runs of consecutive rows that interpolate
    between the same two input rows: run ``r`` is output rows
    ``bounds[r]:bounds[r + 1]`` with taps ``lo[r]`` and ``hi[r]``."""

    bounds: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    w0: np.ndarray  # per output row
    w1: np.ndarray
    of_row: np.ndarray  # each output row's run


def _runs(n_in: int, n_out: int) -> _Runs:
    lo, hi, w0, w1 = _row_taps(n_in, n_out)
    first = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
    bounds = np.r_[first, n_out]
    of_row = np.repeat(np.arange(len(first)), np.diff(bounds))
    return _Runs(bounds, lo[first], hi[first], w0, w1, of_row)


def _columns(logits: np.ndarray, out_h: int, out_w: int):
    """``(cols, runs, margin)`` for bilinearly upsampling ``(h, w, L)``
    logits to ``(out_h, out_w)``.

    ``cols = Rx @ logits`` are the ``(h, out_w, L)`` columns interpolated
    along x.  An output pixel of run ``r`` in row ``y`` then has the values
    ``w0[y] * cols[lo[r]] + w1[y] * cols[hi[r]]``, computed elementwise.
    Both weights are nonnegative and multiplication and addition round to
    nearest, so a pixel's value is nondecreasing in each tap value: a plane
    at least another at both taps is at least it at every pixel of the run,
    and one ahead by more than ``margin`` at both taps (rounding moves a
    lerp by far less) is strictly ahead at every pixel.
    """
    _check_size(out_h, out_w)
    h, w, n = logits.shape
    scale = float(np.max(np.abs(logits)))
    if not np.isfinite(scale):
        raise ValidationError("logits must be finite")
    cols = _interp_weights(w, out_w) @ logits
    return cols, _runs(h, out_h), MARGIN * max(1.0, scale)


def _refine(cols: np.ndarray, runs: _Runs, undecided: np.ndarray, by_plane: bool = False):
    """Upsample the pixels the taps leave undecided: for each run ``r``
    with columns ``xs`` set in the ``(runs, out_w)`` mask (a slice when
    all are, which spares the gathers), yields ``(rows, xs, band)`` with
    ``band`` the values at output rows ``rows`` and columns ``xs``,
    ``(n, len(xs), L)``, or ``(n, L, len(xs))`` ``by_plane``, where a max
    over some planes is an elementwise max of whole rows.  The lerp is
    elementwise, so a pixel's values do not depend on which other pixels
    share its band.  Bands hold about ``BAND_BYTES`` (one row at least) in
    reused buffers: each is valid until the next is yielded.
    """
    _, out_w, n = cols.shape
    room = max(BAND_BYTES // 8, out_w * n)  # float64 values of a band
    band_buf, tap_buf = np.empty(room), np.empty(room)
    for r in np.flatnonzero(undecided.any(axis=1)):
        xs = slice(None) if undecided[r].all() else np.flatnonzero(undecided[r])
        lo = cols[runs.lo[r], xs]
        hi = cols[runs.hi[r], xs]
        if by_plane:
            lo, hi = np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)
        stop = runs.bounds[r + 1]
        step = room // lo.size
        for start in range(runs.bounds[r], stop, step):
            rows = slice(start, min(start + step, stop))
            shape = (rows.stop - rows.start, *lo.shape)
            band = band_buf[: shape[0] * lo.size].reshape(shape)
            tap = tap_buf[: shape[0] * lo.size].reshape(shape)
            np.multiply(lo, runs.w0[rows, None, None], out=band)
            np.multiply(hi, runs.w1[rows, None, None], out=tap)
            band += tap
            yield rows, xs, band


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
    """Upsample per-prompt logit planes, then take the per-pixel argmax.

    Ties resolve to the lowest prompt index (numpy argmax order).  A run of
    output rows between the same two patch rows takes, at each column, the
    prompt that leads every other by more than ``MARGIN`` at both taps; the
    other pixels are upsampled and decided as they are.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 3 or logits.size == 0:
        raise ValidationError("logits must be a nonempty (h, w, L) array")
    cols, runs, margin = _columns(logits, out_h, out_w)
    best = cols.argmax(axis=2)
    clear = _lead(cols, best) > margin
    first, second = best[runs.lo], best[runs.hi]
    undecided = (first != second) | ~clear[runs.lo] | ~clear[runs.hi]
    labels = first.astype(np.int32)[runs.of_row]
    for rows, xs, band in _refine(cols, runs, undecided):
        labels[rows, xs] = band.argmax(axis=2)
    return labels


def _lead(cols: np.ndarray, best: np.ndarray) -> np.ndarray:
    """How far each column's ``best`` plane is ahead of the runner-up
    (``inf`` for one plane).  The best values are set aside in ``cols``
    while it takes the runner-up's, then written back."""
    at = best[..., None]
    top = np.take_along_axis(cols, at, axis=2)
    np.put_along_axis(cols, at, -np.inf, axis=2)
    runner_up = cols.max(axis=2)
    np.put_along_axis(cols, at, top, axis=2)
    return top[..., 0] - runner_up


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
    computed, and for ``upsample="logits"`` interpolated along x, once for
    the whole prompt set.  Each contest is then decided at the two taps of
    each run of output rows between the same two patch rows, wherever they
    settle it; the pixels some contest leaves open are upsampled once for
    all contests and decided as they are.  With ``"labels"`` the decision
    is made per patch and resized nearest-neighbor.
    """
    logits = patch_logits(features, prompts)
    if upsample == "labels":
        return [
            nearest_resize(_wins(logits, query, rivals), out_h, out_w)
            for query, rivals in contests
        ]
    if upsample != "logits":
        raise ValidationError(f"upsample must be 'logits' or 'labels', got {upsample!r}")
    cols, runs, margin = _columns(logits, out_h, out_w)
    masks = []
    undecided = np.zeros((len(runs.lo), out_w), dtype=bool)
    for query, rivals in contests:
        won, decided = _contest_at_taps(cols, runs, query, rivals, margin)
        masks.append(won[runs.of_row])
        undecided |= ~decided
    for rows, xs, band in _refine(cols, runs, undecided, by_plane=True):
        for mask, (query, rivals) in zip(masks, contests):
            mask[rows, xs] = _wins(band, query, rivals, axis=1)
    return masks


def _contest_at_taps(cols: np.ndarray, runs: _Runs, query: int, rivals: list[int], margin: float):
    """``(won, decided)`` per (run, column): the query wins every pixel
    where it is at least every rival at both taps, and loses every pixel
    where some rival is ahead by more than ``margin`` at both."""
    is_rival = np.zeros(cols.shape[2], dtype=bool)
    is_rival[rivals] = True
    q = cols[:, :, query, None]
    # a bool matrix product is "any": any rival ahead of the query
    beaten = (cols > q) @ is_rival
    won = ~(beaten[runs.lo] | beaten[runs.hi])
    ahead = cols > q + margin
    lost = (ahead[runs.lo] & ahead[runs.hi]) @ is_rival
    return won, won | lost


def _wins(stack: np.ndarray, query: int, rivals: list[int], axis: int = -1) -> np.ndarray:
    """Where prompt ``query`` of a stack with prompts along ``axis`` is at
    least every rival."""
    return stack.take(query, axis) >= stack.take(rivals, axis).max(axis=axis, initial=-np.inf)


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


def sigmoid_patch_grid(features: FeatureMap, query_vec: np.ndarray) -> np.ndarray:
    """Per-patch sigmoid-squashed similarity to a single query, (h, w)."""
    q = np.asarray(query_vec, dtype=np.float64).reshape(-1)
    if q.shape[0] != features.d:
        raise ValidationError(f"query dimension {q.shape[0]} != feature dimension {features.d}")
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ValidationError("query vector must be nonzero")
    return sigmoid(np.clip(features.unit @ (q / norm), -1.0, 1.0))


# ---- label-map artifact ----


def grid_values(grid: np.ndarray) -> list[int]:
    """Distinct values, ascending (a plain ``np.unique`` imports ``numpy.ma``)."""
    flat = np.sort(grid, axis=None)
    return np.concatenate((flat[:1], flat[1:][flat[1:] != flat[:-1]])).tolist()


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
    """The JSON object in ``<path>.json`` and its ``labels`` keyed by integer
    index.  Each index is written in canonical decimal (``"1"``, not
    ``"01"`` or ``"+1"``) and no key of an object repeats, so no two
    entries can name the same index."""
    sidecar_path = Path(str(path) + ".json")
    try:
        text = read_text(sidecar_path)
    except FileNotFoundError:
        raise FormatError(f"label map sidecar missing: {sidecar_path}") from None
    sidecar = parse_json(text, f"label map sidecar {sidecar_path}")
    raw_names = sidecar.get("labels") if isinstance(sidecar, dict) else None
    if not isinstance(raw_names, dict):
        raise FormatError(f"label map sidecar {sidecar_path} must carry a 'labels' object")
    names: dict[int, str] = {}
    for k, v in raw_names.items():
        if not isinstance(v, str):
            raise FormatError(f"sidecar label name for index {k} is not a string")
        try:
            idx = int(k)
        except ValueError:
            raise FormatError(f"sidecar label index {k!r} is not an integer") from None
        if str(idx) != k:
            raise FormatError(f"sidecar label index {k!r} is not written as {str(idx)!r}")
        names[idx] = v
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
        present = set(grid_values(self.labels)) - {BOTTOM}
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
