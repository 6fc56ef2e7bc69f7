"""Co-occurrence counting, row normalization, and candidate selection.

Counts are symmetric, so only pairs ``(i, j)`` with ``i < j`` are stored.
Row normalization divides by the occurrence count of the *row* concept,
which makes the normalized matrix directional: a rare concept can be
strongly associated with a frequent one without the converse holding.

On-disk text formats (UTF-8), one codec for both::

    ccmine-cooc v1 <dim>            ccmine-counts v1 <dim>
    <i>\\t<j>\\t<count>  # i < j    <i>\\t<count>  # i = 0 .. dim - 1
    #sha256:<hex>                   #sha256:<hex>

Cooc lines ascend in ``(i, j)``.  Every number, the header's too, is plain
ASCII decimal, and lines end only in ``\\n``.  The digest covers exactly the
bytes between header and trailer.  A count above 2^32 - 1 is a
``ValidationError`` when counted or written and a ``FormatError`` when read.
Both directions work one bounded block at a time under one running
sha256, so neither holds the text whole.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import ExitStack
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from .corpus import Lexicon, ScanStats, iter_caption_lines, scan_corpus
from .errors import FormatError, ValidationError
from .ioutil import atomic_write_chunks, decode_utf8, open_input

MAX_COUNT = 2**32 - 1
_COOC_HEADER = "ccmine-cooc v1"
_COUNTS_HEADER = "ccmine-counts v1"
# concept sets whose pairs are expanded at once; bounds memory on long corpora
_BATCH_SETS = 1 << 16
# pending pair codes folded into the running sums at the latest once they
# outnumber both this and the distinct pairs summed so far
_FOLD_MIN = 1 << 20
# rows that the codec formats, or checks once parsed, at once: a block's
# Python ints and text are all that a save holds besides the arrays
_DUMP_ROWS = 1 << 12
# bytes that a load reads at once, before the block is cut after a newline
_READ_BYTES = 1 << 16
# largest dimension whose pair codes i * dim + j fit in int64
_MAX_DIM = 2**31

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def _sum_by_key(runs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in ascending order and the int64 sum of their counts
    over ``(keys, counts)`` runs, which the list gives up.

    The runs are let go once concatenated, and each array once the next is
    made from it.  The sort is stable and run-aware, so sorted runs merge
    in about linear time.
    """
    keys, counts = map(np.concatenate, zip(*runs))
    runs.clear()
    if not len(keys):
        return _EMPTY, _EMPTY
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order].astype(np.int64, copy=False)
    del order
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], np.add.reduceat(counts, starts)


def _merge(
    keys: np.ndarray, counts: np.ndarray, new_keys: np.ndarray, new_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The union of two ascending runs of distinct keys, each key with the
    sum of its counts in both.

    ``searchsorted`` places each new key among the old ones.  Both runs are
    scattered into the preallocated result, and then a key in both adds
    its new count there in place.
    """
    if not len(keys):
        return new_keys, new_counts
    if not len(new_keys):
        return keys, counts
    at = np.searchsorted(keys, new_keys)
    fresh = np.take(keys, at, mode="clip") != new_keys  # a key past the last is fresh
    # each new key's place in the result: after the old keys below it and
    # the fresh new keys before it
    at += np.cumsum(fresh)
    at -= fresh
    placed, shared = at[fresh], at[~fresh]
    del at
    merged_keys = np.empty(len(keys) + len(placed), dtype=np.int64)
    merged_counts = np.empty_like(merged_keys)
    old = np.ones(len(merged_keys), dtype=bool)
    old[placed] = False
    merged_keys[old] = keys
    merged_counts[old] = counts
    del old
    merged_keys[placed] = new_keys[fresh]
    merged_counts[placed] = new_counts[fresh]
    merged_counts[shared] += new_counts[~fresh]
    return merged_keys, merged_counts


class _PairSums:
    """Running per-pair sums keyed by the pair code ``i * dim + j``, from
    parts that are each an ascending run of distinct codes and their
    counts."""

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
        """The sums with every pending part added.  The parts are summed
        with each other first, so that the running sums, the larger run,
        are merged with them, and copied, once per fold."""
        parts, self._parts, self._pending = self._parts, [], 0
        if parts:
            part = parts.pop() if len(parts) == 1 else _sum_by_key(parts)
            self.keys, self.counts = _merge(self.keys, self.counts, *part)
        return self.keys, self.counts


def _count_batch(ids, sizes, dim: int, occurrence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add a batch of concept-id sets, given as their concatenated ids and
    their sizes (each at least 1), to the int64 ``occurrence`` counts, and
    count their pair codes.

    Sets of equal size 2 or more form one ``(sets, size)`` block of sorted
    ids, whose ``triu_indices`` columns give every pair ``i < j`` at once.
    The codes of every block go into one array, which is sorted in place
    and counted by runs.
    """
    ids_a = np.array(ids, dtype=np.int64)
    if ids and (ids_a.min() < 0 or ids_a.max() >= dim):
        # a code i * dim + j would alias another pair
        raise ValidationError(f"concept ids must lie in [0, {dim})")
    occurrence += np.bincount(ids_a, minlength=dim)
    sizes_a = np.array(sizes, dtype=np.int64)
    starts = np.cumsum(sizes_a) - sizes_a
    codes = np.empty(int((sizes_a * (sizes_a - 1) // 2).sum()), dtype=np.int64)
    if not len(codes):
        return _EMPTY, _EMPTY
    done = 0
    for k in sorted(set(sizes) - {1}):
        block = np.sort(ids_a[starts[sizes_a == k][:, None] + np.arange(k)], axis=1)
        a, b = np.triu_indices(k, 1)
        out = codes[done : done + len(block) * len(a)].reshape(len(block), len(a))
        np.take(block, a, axis=1, out=out)
        out *= dim
        out += block[:, b]
        done += out.size
    codes.sort()
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    return codes[starts], np.diff(starts, append=len(codes))


def _count_sets(concept_sets, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct pair codes and their counts over concept-id sets,
    and the int64 number of sets that hold each concept.

    Non-empty sets are buffered as plain ints, not as set objects, which
    keeps the garbage collector's work independent of the batch size.
    """
    sums, occurrence = _PairSums(), np.zeros(dim, dtype=np.int64)
    ids, sizes = [], []  # every set's ids, concatenated, and each set's size
    for matched in concept_sets:
        if matched:
            ids.extend(matched)
            sizes.append(len(matched))
            if len(sizes) == _BATCH_SETS:
                sums.add(*_count_batch(ids, sizes, dim, occurrence))
                ids, sizes = [], []
    sums.add(*_count_batch(ids, sizes, dim, occurrence))
    return *sums.fold(), occurrence


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
        inside ``[0, dim)``, and their positive counts, as ``_PairSums``
        sums them; unchecked but for overflow.  It takes both arrays over:
        once ``j`` is split off, ``i`` is divided out of ``keys`` in place."""
        over = np.flatnonzero(counts > MAX_COUNT)
        if len(over):
            k = over[0]
            key = divmod(int(keys[k]), dim)
            raise ValidationError(
                f"co-occurrence count for pair {key} exceeds 32-bit range ({int(counts[k])})"
            )
        matrix = cls(dim)
        if len(keys):
            matrix.j = keys % dim
            matrix.i = np.floor_divide(keys, dim, out=keys)
        matrix.count = counts
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

    @property
    def pairs(self) -> np.ndarray:
        """The stored ``(i, j)`` as an ``(n, 2)`` int64 array.  Nothing in
        the package reads it: it is kept for ``perfbench/tracing.py``,
        whose traced mine job counts the pairs with ``len(matrix.pairs)``."""
        return np.stack([self.i, self.j], axis=1)

    # ---- serialization ----

    def _chunks(self) -> Iterator[bytes]:
        return _frame(_COOC_HEADER, self.dim, (self.i, self.j, self.count))

    def dumps(self) -> str:
        return b"".join(self._chunks()).decode()

    def save(self, path: str | Path) -> None:
        atomic_write_chunks(path, self._chunks())

    @classmethod
    def load(cls, path: str | Path) -> "CoocMatrix":
        """The matrix in the file at ``path``, read in blocks through
        ``ioutil.open_input`` (a pipe is read whole first)."""
        with open_input(path) as file:
            dim, (i, j, count), line = _read_framed(file, _COOC_HEADER, "cooc", 3, path)
            if dim > _MAX_DIM:
                raise FormatError(f"cooc dimension {dim} outside [0, {_MAX_DIM}]")
            bad = _first_row(lambda i, j: (j <= i) | (j >= dim), i, j)
            if bad is not None:
                raise FormatError(f"triplet ids out of order or range: {line(bad)!r}")
            bad = _first_row(lambda count: (count <= 0) | (count > MAX_COUNT), count)
            if bad is not None:
                raise FormatError(f"triplet count out of range: {line(bad)!r}")
            if _first_row(_descends, i, j, overlap=1) is not None:
                raise FormatError("cooc triplets are not strictly ascending")
        matrix = cls(dim)
        matrix.i, matrix.j, matrix.count = i, j, count
        return matrix


def _frame(header: str, dim: int, columns) -> Iterator[bytes]:
    """A digest-framed text artifact in UTF-8 chunks: the header with its
    dimension, then ``_DUMP_ROWS`` lines at a time, each line a row of the
    equal-length int ``columns`` joined by tabs, then a ``#sha256:``
    trailer over the lines' bytes."""
    yield f"{header} {dim}\n".encode()
    line = "\t".join(["%d"] * len(columns)) + "\n"
    digest = hashlib.sha256()
    for lo in range(0, len(columns[0]), _DUMP_ROWS):
        block = np.stack([column[lo : lo + _DUMP_ROWS] for column in columns], axis=1)
        chunk = ((line * len(block)) % tuple(block.ravel().tolist())).encode()
        digest.update(chunk)
        yield chunk
    yield f"#sha256:{digest.hexdigest()}\n".encode()


def _blocks(file, size=math.inf) -> Iterator[bytes]:
    """The next ``size`` bytes of the binary ``file`` (all that are left by
    default), read ``_READ_BYTES`` at a time, in blocks that each end after
    a newline; only the last may end without one."""
    carry = b""
    while size and (chunk := file.read(min(size, _READ_BYTES))):
        size -= len(chunk)
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield carry + chunk[:cut]
            carry = chunk[cut:]
        else:
            carry += chunk
    if carry:
        yield carry


def _dimension(head: bytes, header: str, kind: str) -> int:
    """The dimension of the header line ``head``."""
    prefix = f"{header} ".encode()
    if not head.startswith(prefix):
        raise FormatError(f"not a {header} file")
    digits = head[len(prefix) :]
    # twenty digits at most, so int() never meets Python's digit limit
    if not (digits.isdigit() and len(digits) <= 20) or b"%d" % int(digits) != digits:
        raise FormatError(f"bad dimension in {kind} header")
    return int(digits)


def _check_frame(file, header: str, kind: str, width: int, what) -> tuple[int, int, int, int]:
    """Check a digest-framed artifact, as ``_frame`` writes it, in one pass
    over the binary ``file``; return its header dimension, the byte offsets
    where its body starts and ends, and its line count.

    Each block is checked for UTF-8, hashed and checked for syntax as it is
    read; the last line read is held back, since it must be the trailer.
    Bytes that are not UTF-8 raise at once, naming ``what``; any other
    fault only once the whole file has decoded, the first of: the header,
    its dimension, the trailer, the digest, a body line.
    """
    digest = hashlib.sha256()
    head = bad = None
    last = b""  # the last line read: the trailer, if no other follows
    offset = rows = 0
    for block in _blocks(file):
        if not block.isascii():
            decode_utf8(block, what, offset)  # a block starts a line, so a character
        offset += len(block)
        if head is None:
            head, _, block = block.partition(b"\n")
        data = last + block
        cut = data.rfind(b"\n", 0, -1) + 1
        body, last = data[:cut], data[cut:]
        digest.update(body)
        if bad is None and (found := _first_bad_row(body, width)) is not None:
            bad = rows + found
        rows += body.count(b"\n")
    dim = _dimension(b"" if head is None else head, header, kind)
    if not (last.startswith(b"#sha256:") and last.endswith(b"\n")):
        raise FormatError(f"missing sha256 trailer in {kind} file")
    if last[len(b"#sha256:") : -1] != digest.hexdigest().encode():
        raise FormatError(f"{kind} file digest mismatch; file is corrupt or edited")
    start = len(head) + 1
    if bad is not None:
        raise FormatError(f"bad {kind} line for row {bad}: {_line(file, start, bad)!r}")
    return dim, start, offset - len(last), rows


def _read_framed(file, header: str, kind: str, width: int, what) -> tuple[int, list, Callable]:
    """Read a digest-framed artifact from the seekable binary ``file``: its
    header dimension, its lines as ``width`` int64 columns (fields past
    int64 saturate to its maximum, which loaders reject), and the function
    that reads body line ``row`` again, for an error message.

    ``_check_frame`` reads the file once and counts its lines, then a
    second pass parses the body, one block at a time, into columns of that
    length: besides the columns, a load holds one block.
    """
    dim, start, end, rows = _check_frame(file, header, kind, width, what)
    columns = [np.empty(rows, dtype=np.int64) for _ in range(width)]
    file.seek(start)
    done = 0
    for block in _blocks(file, end - start):
        fields = np.fromstring(block, dtype=np.int64, sep=" ").reshape(-1, width)
        for column, field in zip(columns, fields.T):
            column[done : done + len(fields)] = field
        done += len(fields)
    return dim, columns, partial(_line, file, start)


def _line(file, start: int, row: int) -> str:
    """Body line ``row`` of a checked artifact whose body starts at byte
    ``start`` of ``file``, read again for an error message."""
    file.seek(start)
    for block in _blocks(file):
        lines = block.count(b"\n")
        if row < lines:
            return block.split(b"\n", row + 1)[row].decode()
        row -= lines


def _first_row(test, *columns, overlap: int = 0) -> int | None:
    """Index of the first row at which the boolean array ``test(*columns)``
    is true, or None; tested ``_DUMP_ROWS`` rows at a time, each block
    with ``overlap`` rows of the next, so a test of adjacent rows
    (``overlap=1``) sees every pair."""
    for lo in range(0, len(columns[0]), _DUMP_ROWS):
        hit = np.flatnonzero(test(*(column[lo : lo + _DUMP_ROWS + overlap] for column in columns)))
        if len(hit):
            return lo + int(hit[0])
    return None


def _descends(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Where a triplet is not above the one before it in ``(i, j)`` order."""
    return (i[1:] < i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] <= j[:-1]))


def _first_bad_row(body: bytes, width: int) -> int | None:
    """Index of the first line of ``body``, which is empty or ends in a
    newline, that is not ``width`` plain decimal fields joined by tabs;
    None if there is none.  One pass over the bytes: each non-digit must be
    the next separator of the cycle (tab, ..., tab, newline) and end a field
    of digits that starts with 0 only if it is 0."""
    data = np.frombuffer(body, dtype=np.uint8)
    at = np.flatnonzero(data - ord("0") > 9)  # uint8: bytes below "0" wrap
    seps = data[at]
    cycle = np.array([ord("\t")] * (width - 1) + [ord("\n")], dtype=np.uint8)
    expected = np.tile(cycle, len(at) // width + 1)[: len(at)]
    size = np.diff(at, prepend=-1) - 1
    leading_zero = (size > 1) & (data[at - size] == ord("0"))
    bad = np.flatnonzero((seps != expected) | (size < 1) | leading_zero)
    if not len(bad):
        return None
    return int(np.count_nonzero(seps[: bad[0]] == ord("\n")))


def build_cooc(concept_sets, dim: int) -> CoocMatrix:
    """Count concept pairs over a stream of per-caption concept-id sets.

    Each caption contributes at most one count per unordered pair, however
    often the concepts repeat in its text.
    """
    return CoocMatrix._from_codes(dim, *_count_sets(concept_sets, dim)[:2])


# ---- occurrence-count artifact ----


def _counts_chunks(occurrence: np.ndarray) -> Iterator[bytes]:
    return _frame(_COUNTS_HEADER, len(occurrence), (np.arange(len(occurrence)), occurrence))


def dumps_counts(occurrence) -> str:
    return b"".join(_counts_chunks(np.asarray(occurrence, dtype=np.int64))).decode()


def save_counts(path: str | Path, occurrence) -> None:
    occ = np.asarray(occurrence, dtype=np.int64)
    over = np.flatnonzero(occ > MAX_COUNT)
    if len(over):
        raise ValidationError(f"occurrence count for concept {over[0]} exceeds 32-bit range")
    atomic_write_chunks(path, _counts_chunks(occ))


def load_counts(path: str | Path) -> np.ndarray:
    """Occurrence counts as an int64 array, indexed by concept id."""
    with open_input(path) as file:
        dim, (ids, occurrence), line = _read_framed(file, _COUNTS_HEADER, "counts", 2, path)
        if len(ids) != dim:
            raise FormatError("counts file row count does not match header dimension")
        bad = np.flatnonzero(ids != np.arange(dim))
        if len(bad):
            raise FormatError(f"bad counts line for row {bad[0]}: {line(bad[0])!r}")
        bad = np.flatnonzero(occurrence > MAX_COUNT)
        if len(bad):
            raise FormatError(f"occurrence count out of range: {line(bad[0])!r}")
    return occurrence


# ---- row normalization and candidate selection ----


def normalize(
    matrix: CoocMatrix, occurrence, lexicon: Lexicon, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every concept's candidates, as (row, column, frequency) arrays: the
    stored pairs in both directions, each count divided by the row
    concept's occurrence count (a list or an array), whose frequency is
    strictly above ``gamma`` (one exactly equal to it is excluded), by
    ascending row, then descending frequency, then ascending concept
    string.  Frequencies are directional by design.

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
    del n_i, n_j, bad  # freed before the halves are allocated
    # int64 true division divides the operands' float64 casts, so this
    # gives the same bits
    occ = occ.astype(np.float64)
    halves = []
    for row, col in ((i, j), (j, i)):
        freq = occ[row]
        np.divide(count, freq, out=freq)
        keep = freq > gamma
        halves.append((row[keep], col[keep], freq[keep]))
    row, col, freq = map(np.concatenate, zip(*halves))
    rank = np.empty(matrix.dim, dtype=np.int64)
    rank[sorted(range(matrix.dim), key=lexicon.concepts.__getitem__)] = np.arange(matrix.dim)
    ids = np.min_scalar_type(matrix.dim)  # ids of 16 bits or fewer sort by radix
    order = np.lexsort((rank[col].astype(ids), -freq, row.astype(ids)))
    return row[order], col[order], freq[order]


# ---- corpus mining ----

_WORKER_LEXICON: Lexicon | None = None
# chunks in flight per worker: one running, the rest queued so no worker
# waits on the parent between chunks
_WINDOW_PER_WORKER = 3


def _worker_init(concepts: list[str]) -> None:
    global _WORKER_LEXICON
    _WORKER_LEXICON = Lexicon(concepts)


def _count_chunk(lines, lexicon: Lexicon | None = None) -> tuple:
    """Scan stats, pair codes, pair counts and occurrence counts of corpus
    lines, matched by ``lexicon`` or else by a pool worker's own."""
    lexicon = _WORKER_LEXICON if lexicon is None else lexicon
    stats = ScanStats()
    return stats, *_count_sets(scan_corpus(lines, lexicon, stats), len(lexicon))


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform tells."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


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
) -> tuple[CoocMatrix, np.ndarray, ScanStats]:
    """Scan a corpus file into co-occurrence counts, the int64 occurrence
    count of each concept, and scan stats.

    A pool of ``min(workers, usable CPUs)`` processes counts the corpus in
    parts: a pool of one, the whole stream in this process; a larger pool,
    chunks of ``chunk_size`` lines, ``_WINDOW_PER_WORKER`` per process in
    flight.  Parts add up by integer addition, the same for any split.
    """
    if workers < 1 or chunk_size < 1:
        raise ValidationError("workers and chunk_size must be >= 1")
    lines = iter_caption_lines(corpus_path)
    pool_size = min(workers, _usable_cpus())
    stats, occurrence, sums = ScanStats(), np.zeros(len(lexicon), dtype=np.int64), _PairSums()
    with ExitStack() as stack:
        if pool_size == 1:
            parts = [_count_chunk(lines, lexicon)]
        else:
            from concurrent.futures import ProcessPoolExecutor
            concepts = (lexicon.concepts,)
            pool = stack.enter_context(
                ProcessPoolExecutor(pool_size, initializer=_worker_init, initargs=concepts)
            )
            chunks = iter(lambda: list(islice(lines, chunk_size)), [])
            parts = _map_window(pool, _count_chunk, chunks, _WINDOW_PER_WORKER * pool_size)
        for part_stats, keys, counts, part_occurrence in parts:
            stats.merge(part_stats)
            occurrence += part_occurrence
            sums.add(keys, counts)
    return CoocMatrix._from_codes(len(lexicon), *sums.fold()), occurrence, stats
