"""Co-occurrence counting, row normalization, and candidate selection.

Counts are symmetric, so only pairs ``(i, j)`` with ``i < j`` are stored.
Row normalization divides by the occurrence count of the *row* concept,
which makes the normalized matrix directional: a rare concept can be
strongly associated with a frequent one without the converse holding.

On-disk text format (UTF-8)::

    ccmine-cooc v1 <dim>
    <i>\\t<j>\\t<count>        # ascending (i, j), i < j
    #sha256:<hex>

The trailing digest covers the triplet lines exactly as written.  Counts
are limited to 32 bits; anything larger aborts with an overflow error.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import filterfalse
from pathlib import Path

import numpy as np

from .corpus import Lexicon, ScanStats, iter_caption_lines, scan_corpus
from .errors import FormatError, ValidationError
from .ioutil import atomic_write_text, read_text

MAX_COUNT = 2**32 - 1
_COOC_HEADER = "ccmine-cooc v1"
_COUNTS_HEADER = "ccmine-counts v1"
# concept sets whose pairs are expanded at once; bounds memory on long corpora
_BATCH_SETS = 1 << 16
# pending pair codes folded into the running sums at the latest once they
# outnumber both this and the distinct pairs summed so far
_FOLD_MIN = 1 << 20
# triplet lines formatted at once by dumps; bounds its transient Python ints
_DUMP_ROWS = 1 << 16
# largest dimension whose pair codes i * dim + j fit in int64
_MAX_DIM = 2**31
_TRIPLET = re.compile(r"[0-9]+\t[0-9]+\t[0-9]+")
_COUNT_LINE = re.compile(r"([0-9]+)\t([0-9]+)")

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def _sum_by_key(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in ascending order and the int64 sum of their counts.

    The sort is stable and run-aware, so concatenated sorted parts merge in
    about linear time.
    """
    if not len(keys):
        return _EMPTY, _EMPTY
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order].astype(np.int64, copy=False)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], np.add.reduceat(counts, starts)


class _PairSums:
    """Running per-pair sums keyed by the pair code ``i * dim + j``."""

    def __init__(self) -> None:
        self.keys, self.counts = _EMPTY, _EMPTY
        self._parts: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending = 0

    def add(self, keys: np.ndarray, counts: np.ndarray) -> None:
        self._parts.append((keys, counts))
        self._pending += len(keys)
        if self._pending > max(len(self.keys), _FOLD_MIN):
            self.fold()

    def fold(self) -> tuple[np.ndarray, np.ndarray]:
        if self._parts:
            parts = [(self.keys, self.counts), *self._parts]
            self.keys, self.counts = _sum_by_key(
                np.concatenate([k for k, _ in parts]), np.concatenate([c for _, c in parts])
            )
            self._parts, self._pending = [], 0
        return self.keys, self.counts


def _expand_pairs(ids: list[int], sizes: list[int], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Count the pair codes of a batch of concept-id sets, given as their
    concatenated ids and their sizes (each at least 2).

    Sets of equal size form one ``(sets, size)`` block of sorted ids, whose
    ``triu_indices`` columns give every pair ``i < j`` at once.
    """
    if not sizes:
        return _EMPTY, _EMPTY
    ids_a = np.array(ids, dtype=np.int64)
    if ids_a.min() < 0 or ids_a.max() >= dim:
        # a code i * dim + j would alias another pair
        raise ValidationError(f"concept ids must lie in [0, {dim})")
    sizes_a = np.array(sizes, dtype=np.int64)
    starts = np.cumsum(sizes_a) - sizes_a
    codes = []
    for k in np.unique(sizes_a).tolist():
        block = np.sort(ids_a[starts[sizes_a == k][:, None] + np.arange(k)], axis=1)
        a, b = np.triu_indices(k, 1)
        codes.append((block[:, a] * dim + block[:, b]).ravel())
    return np.unique(np.concatenate(codes), return_counts=True)


def _count_sets(concept_sets, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct pair codes and their counts over concept-id sets.

    Sets are buffered as plain ints, not as set objects, which keeps the
    garbage collector's work independent of the batch size.
    """
    sums = _PairSums()
    ids: list[int] = []
    sizes: list[int] = []
    for matched in concept_sets:
        k = len(matched)
        if k > 1:
            ids.extend(matched)
            sizes.append(k)
            if len(sizes) == _BATCH_SETS:
                sums.add(*_expand_pairs(ids, sizes, dim))
                ids, sizes = [], []
    sums.add(*_expand_pairs(ids, sizes, dim))
    return sums.fold()


class CoocMatrix:
    """Sparse symmetric co-occurrence counts over a lexicon of size ``dim``.

    The counts live in three int64 arrays sorted by ``(i, j)``: row ids
    ``i``, column ids ``j > i`` and the positive ``count`` of each pair.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.i = self.j = self.count = _EMPTY

    @classmethod
    def _from_codes(cls, dim: int, keys: np.ndarray, counts: np.ndarray) -> "CoocMatrix":
        """Matrix from ascending distinct pair codes ``i * dim + j``, ``i < j``
        inside ``[0, dim)``, and their positive counts, as ``_sum_by_key``
        gives them; unchecked but for overflow."""
        matrix = cls(dim)
        matrix._set(keys, counts)
        return matrix

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoocMatrix):
            return NotImplemented
        return self.dim == other.dim and all(
            np.array_equal(a, b)
            for a, b in ((self.i, other.i), (self.j, other.j), (self.count, other.count))
        )

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"CoocMatrix(dim={self.dim}, stored_pairs={len(self.count)})"

    def _set(self, keys: np.ndarray, counts: np.ndarray) -> None:
        over = np.flatnonzero(counts > MAX_COUNT)
        if len(over):
            k = over[0]
            key = tuple(divmod(int(keys[k]), self.dim))
            raise ValidationError(
                f"co-occurrence count for pair {key} exceeds 32-bit range ({int(counts[k])})"
            )
        if len(keys):
            self.i, self.j = np.divmod(keys, self.dim)
        else:
            self.i = self.j = _EMPTY
        self.count = counts

    @property
    def pairs(self) -> np.ndarray:
        """The stored ``(i, j)`` as an ``(n, 2)`` int64 array.  Nothing in
        the package reads it: it is kept for ``perfbench/tracing.py``,
        whose traced mine job counts the pairs with ``len(matrix.pairs)``."""
        return np.stack([self.i, self.j], axis=1)

    # ---- serialization ----

    def dumps(self) -> str:
        rows = np.stack([self.i, self.j, self.count], axis=1)
        body = "".join(
            ("%d\t%d\t%d\n" * len(block)) % tuple(block.ravel().tolist())
            for block in np.split(rows, range(_DUMP_ROWS, len(rows), _DUMP_ROWS))
        )
        return _frame(_COOC_HEADER, self.dim, body)

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, self.dumps())

    @classmethod
    def loads(cls, text: str) -> "CoocMatrix":
        dim, body_lines, body = _read_framed(text, _COOC_HEADER, "cooc")
        if not 0 <= dim <= _MAX_DIM:
            raise FormatError(f"cooc dimension {dim} outside [0, {_MAX_DIM}]")
        # line by line: one pattern repeated over the whole body would grow
        # the regex engine's stack with the line count
        bad = next(filterfalse(_TRIPLET.fullmatch, body_lines), None)
        if bad is not None:
            raise FormatError(f"bad cooc triplet line: {bad!r}")
        # values past int64 saturate to its maximum, which the range checks
        # below reject since dim is bounded
        i, j, count = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 3).T.copy()
        bad = np.flatnonzero((j <= i) | (j >= dim))
        if len(bad):
            raise FormatError(f"triplet ids out of order or range: {body_lines[bad[0]]!r}")
        bad = np.flatnonzero((count <= 0) | (count > MAX_COUNT))
        if len(bad):
            raise FormatError(f"triplet count out of range: {body_lines[bad[0]]!r}")
        if np.any((i[1:] < i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] <= j[:-1]))):
            raise FormatError("cooc triplets are not strictly ascending")
        matrix = cls(dim)
        matrix.i, matrix.j, matrix.count = i, j, count
        return matrix

    @classmethod
    def load(cls, path: str | Path) -> "CoocMatrix":
        return cls.loads(read_text(path))


def _frame(header: str, dim: int, body: str) -> str:
    """A digest-framed text artifact: the header with its dimension, the
    body, and a ``#sha256:`` trailer over the body's UTF-8 bytes."""
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f"{header} {dim}\n{body}#sha256:{digest}\n"


def _read_framed(text: str, header: str, kind: str) -> tuple[int, list[str], str]:
    """Check a digest-framed text artifact; returns its header dimension,
    body lines and body text."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(header + " "):
        raise FormatError(f"not a {header} file")
    try:
        dim = int(lines[0].rsplit(" ", 1)[1])
    except ValueError:
        raise FormatError(f"bad dimension in {kind} header") from None
    if not lines[-1].startswith("#sha256:"):
        raise FormatError(f"missing sha256 trailer in {kind} file")
    expected = lines[-1][len("#sha256:"):]
    body_lines = lines[1:-1]
    body = "".join(line + "\n" for line in body_lines)
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != expected:
        raise FormatError(f"{kind} file digest mismatch; file is corrupt or edited")
    return dim, body_lines, body


def build_cooc(concept_sets, dim: int) -> CoocMatrix:
    """Count concept pairs over a stream of per-caption concept-id sets.

    Each caption contributes at most one count per unordered pair, however
    often the concepts repeat in its text.
    """
    return CoocMatrix._from_codes(dim, *_count_sets(concept_sets, dim))


# ---- occurrence-count artifact ----


def dumps_counts(occurrence: list[int]) -> str:
    body = "".join(f"{i}\t{count}\n" for i, count in enumerate(occurrence))
    return _frame(_COUNTS_HEADER, len(occurrence), body)


def save_counts(path: str | Path, occurrence: list[int]) -> None:
    for i, count in enumerate(occurrence):
        if count > MAX_COUNT:
            raise ValidationError(f"occurrence count for concept {i} exceeds 32-bit range")
    atomic_write_text(path, dumps_counts(occurrence))


def load_counts(path: str | Path) -> list[int]:
    dim, body_lines, _ = _read_framed(read_text(path), _COUNTS_HEADER, "counts")
    if len(body_lines) != dim:
        raise FormatError("counts file row count does not match header dimension")
    occurrence = []
    for row, line in enumerate(body_lines):
        fields = _COUNT_LINE.fullmatch(line)
        if fields is None or fields[1] != str(row):
            raise FormatError(f"bad counts line for row {row}: {line!r}")
        # ten digits at most, so int() never meets Python's digit limit
        if len(fields[2]) > 10 or int(fields[2]) > MAX_COUNT:
            raise FormatError(f"occurrence count out of range: {line!r}")
        occurrence.append(int(fields[2]))
    return occurrence


# ---- row normalization and candidate selection ----


@dataclass(eq=False)
class FreqMatrix:
    """Row-normalized co-occurrence frequencies; directional by design.

    CSR arrays: row ``i``'s columns are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending, with frequencies ``data`` at the same positions.  ``rank``
    is each concept's position in ascending string order, which breaks
    frequency ties in candidate selection.
    """

    dim: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rank: np.ndarray
    lexicon: Lexicon


def normalize(matrix: CoocMatrix, occurrence: list[int], lexicon: Lexicon) -> FreqMatrix:
    """Divide each row of the symmetric counts by the row concept's
    occurrence count.

    A concept that never occurs but has stored pairs is an inconsistency in
    the inputs and raises, naming the offending pair.
    """
    if len(occurrence) != matrix.dim or len(lexicon) != matrix.dim:
        raise ValidationError("occurrence counts, lexicon, and matrix dimensions disagree")
    i, j, count = matrix.i, matrix.j, matrix.count
    occ = np.asarray(occurrence, dtype=np.int64)
    n_i, n_j = occ[i], occ[j]
    bad = np.flatnonzero((n_i == 0) | (n_j == 0) | (count > n_i) | (count > n_j))
    if len(bad):
        k = bad[0]
        for a, b, n in ((i[k], j[k], n_i[k]), (j[k], i[k], n_j[k])):
            if n == 0:
                raise ValidationError(
                    f"concept {lexicon.concepts[a]!r} has pairs (e.g. with "
                    f"{lexicon.concepts[b]!r}) but zero occurrences; inputs are inconsistent"
                )
            if count[k] > n:
                raise ValidationError(
                    f"pair count {count[k]} for ({lexicon.concepts[a]!r}, "
                    f"{lexicon.concepts[b]!r}) exceeds occurrence count {n}"
                )
    row = np.concatenate([i, j])
    col = np.concatenate([j, i])
    freq = np.concatenate([count / n_i, count / n_j])
    order = np.argsort(row * matrix.dim + col)
    indptr = np.zeros(matrix.dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=matrix.dim), out=indptr[1:])
    rank = np.empty(matrix.dim, dtype=np.int64)
    rank[sorted(range(matrix.dim), key=lexicon.concepts.__getitem__)] = np.arange(matrix.dim)
    return FreqMatrix(matrix.dim, indptr, col[order], freq[order], rank, lexicon)


def select_all(freq: FreqMatrix, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Every row's candidates at once, as (row, column) id arrays: the
    entries with frequency strictly above ``gamma`` (one exactly equal to it
    is excluded), by ascending row, then descending frequency, then
    ascending concept string."""
    keep = np.flatnonzero(freq.data > gamma)
    row = np.searchsorted(freq.indptr, keep, side="right") - 1
    col = freq.indices[keep]
    order = np.lexsort((freq.rank[col], -freq.data[keep], row))
    return row[order], col[order]


# ---- parallel corpus mining ----

_WORKER_LEXICON: Lexicon | None = None
# chunks in flight per worker: one running, the rest queued so no worker
# waits on the parent between chunks
_WINDOW_PER_WORKER = 3


def _worker_init(concepts: list[str]) -> None:
    global _WORKER_LEXICON
    _WORKER_LEXICON = Lexicon(concepts)


def _count_chunk(lines: list[str]):
    lex = _WORKER_LEXICON
    assert lex is not None
    stats = ScanStats()
    keys, counts = _count_sets(scan_corpus(lines, lex, stats), len(lex))
    return stats, keys, counts


def _chunked(iterable, size: int):
    chunk: list[str] = []
    for item in iterable:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _map_window(pool, fn, items, window: int):
    """``pool.map(fn, items)`` with at most ``window`` calls in flight.

    ``Executor.map`` submits every item before it yields the first result,
    so memory grows with the input; here the next item is read only once
    the oldest result has been taken.  Results come in input order.
    """
    pending: deque = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def mine_corpus(
    corpus_path: str | Path,
    lexicon: Lexicon,
    workers: int = 1,
    chunk_size: int = 8192,
) -> tuple[CoocMatrix, ScanStats]:
    """Scan a corpus file and produce co-occurrence counts plus scan stats.

    With ``workers > 1`` the caption stream is processed in chunks by a
    process pool, with ``_WINDOW_PER_WORKER`` chunks in flight per worker.
    Partial counts merge by integer addition, so the result is identical
    for every worker count and chunk size.
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    lines = iter_caption_lines(corpus_path)
    stats = ScanStats(occurrence=[0] * len(lexicon))
    if workers == 1:
        matrix = build_cooc(scan_corpus(lines, lexicon, stats), dim=len(lexicon))
        return matrix, stats
    sums = _PairSums()
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(lexicon.concepts,)
    ) as pool:
        chunks = _chunked(lines, chunk_size)
        for chunk_stats, keys, counts in _map_window(
            pool, _count_chunk, chunks, _WINDOW_PER_WORKER * workers
        ):
            stats.merge(chunk_stats)
            sums.add(keys, counts)
    return CoocMatrix._from_codes(len(lexicon), *sums.fold()), stats
