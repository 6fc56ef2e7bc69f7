"""Embedding tables, cosine similarity, and nearest-neighbor lookup.

Vectors are stored as float32 and accumulated in float64, and every vector
is unit-normalized on construction, which makes cosine similarity a plain
dot product.  The binary table format::

    magic  b"CCEMB1"
    u32    dimension            (little-endian)
    u32    entry count
    per entry: u16 name length, UTF-8 name bytes, dim * f32 vector

Entries are sorted by name ascending; loaders reject unsorted or duplicate
names so a table file has exactly one valid byte representation.
"""

from __future__ import annotations

import io
import operator
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, MissingEmbeddingError, ValidationError
from .ioutil import atomic_write_bytes, decode_utf8, open_input

_MAGIC = b"CCEMB1"
_NAME_LENGTH = struct.Struct("<H")
_NORM_TOLERANCE = 1e-4
# rows gathered at once by ``pair_cosines`` and the table readers; bounds
# their transient copies
_GATHER_ROWS = 256


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a C-ordered float64 array, bit for bit
    ``np.linalg.norm`` of the row alone: the stacked product is one ``dot``
    per row, where a batched sum would move the last bits."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])).reshape(len(rows))


class EmbeddingTable:
    """Named unit vectors of a common dimension."""

    def __init__(self, names: list[str], vectors) -> None:
        if len(names) != len(set(names)):
            raise ValidationError("embedding table names must be unique")
        unit = np.array(vectors, dtype=np.float64, order="C")
        if unit.ndim != 2 or unit.shape[0] != len(names):
            raise ValidationError("vectors must be a (len(names), dim) array")
        if unit.shape[1] == 0:
            raise ValidationError("embedding dimension must be positive")
        self._set_rows(names, unit, _norms(unit))

    def _set_rows(self, names: list[str], unit: np.ndarray, norms: np.ndarray | None) -> None:
        """Take ``unit`` (float64) and, given ``norms``, divide each row by
        its norm in place; without ``norms`` the rows are unit already."""
        if norms is not None:
            bad = ~(np.isfinite(norms) & (norms != 0.0))
            if bad.any():
                name = names[int(np.argmax(bad))]
                raise ValidationError(f"embedding for {name!r} has zero or non-finite norm")
            unit /= norms[:, None]
        self.names: list[str] = list(names)
        self.dim: int = int(unit.shape[1])
        self._unit = unit
        self._index = dict(zip(self.names, range(len(self.names))))
        self._norms: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def positions(self, names) -> np.ndarray:
        """Row of each name in the table; -1 where a name has none."""
        index = self._index
        return np.array([index.get(name, -1) for name in names], dtype=np.int64)

    def rows(self, names) -> np.ndarray:
        """Row of each name in the table; the first name without one raises."""
        rows = self.positions(names)
        if (rows < 0).any():
            raise MissingEmbeddingError(names[int(np.argmax(rows < 0))])
        return rows

    def subset(self, names: list[str]) -> "EmbeddingTable":
        """The rows of ``names`` in that order, bit for bit (not normalized again)."""
        sub = EmbeddingTable.__new__(EmbeddingTable)
        sub._set_rows(names, self._unit[self.rows(names)], None)
        return sub

    def pair_cosines(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Cosine of row ``a[k]`` with row ``b[k]`` for each ``k``, bit for
        bit ``cosines`` of the two rows.

        The row norms come once per table from the same row-wise ``einsum``
        as ``cosines``, so they have its bits, and each pair costs only its
        dot product, summed along the row as there.  A run of pairs with one
        ``b`` row takes those in one ``einsum`` over at most ``_GATHER_ROWS``
        gathered ``a`` rows, so callers pass the pairs grouped by ``b``.
        """
        if self._norms is None:
            self._norms = _row_norms(self._unit)
        unit, out = self._unit, np.empty(len(a))
        starts = np.flatnonzero(np.diff(b, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(b)]):
            for start in range(lo, hi, _GATHER_ROWS):
                part = slice(start, min(start + _GATHER_ROWS, hi))
                np.einsum("ij,j->i", unit[a[part]], unit[b[start]], out=out[part])
        out /= self._norms[a] * self._norms[b]
        return np.clip(out, -1.0, 1.0, out=out)

    def vector(self, name: str) -> np.ndarray:
        try:
            return self._unit[self._index[name]]
        except KeyError:
            raise MissingEmbeddingError(name) from None

    # ---- serialization ----

    def dumps(self) -> bytes:
        order = sorted(range(len(self.names)), key=self.names.__getitem__)
        out = bytearray()
        out += _MAGIC
        out += struct.pack("<II", self.dim, len(self.names))
        for k in order:
            name_bytes = self.names[k].encode("utf-8")
            if len(name_bytes) > 0xFFFF:
                raise ValidationError(f"embedding name too long: {self.names[k][:40]!r}...")
            out += struct.pack("<H", len(name_bytes))
            out += name_bytes
            out += self._unit[k].astype("<f4").tobytes()
        return bytes(out)

    def save(self, path: str | Path) -> None:
        atomic_write_bytes(path, self.dumps())

    @classmethod
    def loads(cls, data: bytes) -> "EmbeddingTable":
        """The table in ``data``, checked as ``load`` checks a file."""
        return cls._read(_Blocks(io.BytesIO(data)), None)

    @classmethod
    def load(cls, path: str | Path, names=None) -> "EmbeddingTable":
        """The table in the file at ``path``; given ``names``, only the rows
        of those it has, in file order (bit for bit the full table's rows).

        The file is read once through ``ioutil.open_input`` (a pipe is read
        whole first), the bytes of about half ``_GATHER_ROWS`` records at a
        time, and never held whole.  Every record is checked whether or not
        its row is kept, so a file fails with the error ``loads`` gives its
        bytes: the first faulty record's.  A ``HashedInput`` path is hashed
        as it is read, so its ``digest`` reads nothing again.
        """
        with open_input(path) as file:
            return cls._read(_Blocks(file), names)

    @classmethod
    def _read(cls, blocks: "_Blocks", names) -> "EmbeddingTable":
        """The table in ``blocks``, keeping the rows of ``names`` (all of
        them if None).  The records of a block are parsed, then their
        vectors are gathered and checked at once; a record cut short or a
        name that is not UTF-8 ends the block and is raised unless a row
        before it fails the norm check.  Sort order and duplicates are
        checked block by block, and raised once every record has passed."""
        if not blocks.fill(len(_MAGIC)) or blocks.data[: len(_MAGIC)] != _MAGIC:
            raise FormatError("not a CCEMB1 embedding table")
        if not blocks.fill(len(_MAGIC) + 8):
            raise FormatError("truncated embedding table header")
        dim, count = struct.unpack_from("<II", blocks.data, len(_MAGIC))
        blocks.pos += len(_MAGIC) + 8
        if dim == 0:
            raise FormatError("embedding table dimension is zero")
        size = 4 * dim
        if count * (2 + size) > blocks.total - len(_MAGIC) - 8:
            # checked before the rows are allocated
            raise FormatError("truncated embedding table entry")
        wanted = None if names is None else set(names)
        unit = np.empty((count if wanted is None else min(count, len(wanted)), dim))
        gather, unpack = _GATHER_ROWS, _NAME_LENGTH.unpack_from
        # the bytes read at once: about half the block, so they and the
        # vectors gathered from them stay under one block of float64 rows,
        # and never more than the file has (a header may claim any ``dim``)
        blocks.size = min(gather * (2 + size) // 2, blocks.total)
        kept: list[str] = []
        last: list[str] = []  # the name before the block
        unsorted = duplicate = False
        done = 0  # records read
        while done < count:
            data, pos, end = blocks.data, blocks.pos, blocks.end
            part: list[str] = []  # the block's names
            starts: list[int] = []  # where each of their vectors begins
            need = undecoded = None
            for k in range(done, min(count, done + gather)):
                if end < pos + 2:
                    need = 2
                    break
                start = pos + 2 + unpack(data, pos)[0]
                if end < start + size:
                    need = start + size - pos
                    break
                try:
                    part.append(data[pos + 2 : start].decode("utf-8"))
                except UnicodeDecodeError:  # raised once the rows before it pass
                    undecoded = k, data[pos + 2 : start]
                    break
                starts.append(start)
                pos = start + size
            blocks.pos, done = pos, done + len(starts)
            run = last + part
            unsorted = unsorted or any(map(operator.gt, run, run[1:]))
            duplicate = duplicate or any(map(operator.eq, run, run[1:]))
            last = run[-1:]
            if starts:
                rows = len(kept)
                # a block whose every name is kept is gathered in place, as a
                # full load's is; a file out of order fails once read, and
                # may hold a kept name more often than ``unit`` has rows for it
                in_place = wanted is None or not (unsorted or duplicate) and wanted.issuperset(part)
                if in_place:
                    block = unit[rows : rows + len(starts)]
                else:
                    block = np.empty((len(starts), dim))
                # every run of ``size`` bytes of the block, as a view
                windows = np.ndarray((end - size + 1, size), np.uint8, data, strides=(1, 1))
                block[:] = windows[starts].view("<f4")
                norms = _norms(block)
                bad = ~(np.abs(norms - 1.0) <= _NORM_TOLERANCE)  # NaN fails too
                if bad.any():
                    j = int(np.argmax(bad))
                    name, norm = part[j], norms[j]
                    raise FormatError(f"embedding for {name!r} is not unit norm ({norm:.6f})")
                block /= norms[:, None]
                if not in_place:
                    picked = [] if unsorted or duplicate else [
                        j for j, name in enumerate(part) if name in wanted
                    ]
                    unit[rows : rows + len(picked)] = block[picked]
                    part = [part[j] for j in picked]
                kept += part
            if undecoded is not None:  # decode_utf8 raises the error naming it
                k, name = undecoded
                decode_utf8(name, f"embedding entry {k}'s name")
            if need is not None and not blocks.fill(need):
                raise FormatError("truncated embedding table entry")
        if blocks.fill(1):
            raise FormatError("trailing bytes after embedding table entries")
        if unsorted:
            raise FormatError("embedding table names are not sorted ascending")
        if duplicate:
            raise FormatError("embedding table contains duplicate names")
        table = cls.__new__(cls)
        table._set_rows(kept, unit[: len(kept)], None)
        return table


class _Blocks:
    """The bytes of a CCEMB1 table in a seekable binary file, ``data[pos:end]``
    of them at a time: a block of about ``size`` bytes, with the record that
    a block cuts carried to the next.  ``total`` is the file's length."""

    def __init__(self, file) -> None:
        self.file, self.total = file, file.seek(0, io.SEEK_END)
        file.seek(0)
        self.data, self.pos, self.end, self.size = bytearray(), 0, 0, 0

    def fill(self, need: int) -> bool:
        """Whether ``need`` bytes follow ``pos``, reading on until they do;
        the bytes before ``pos`` are dropped."""
        while self.end - self.pos < need:
            data, tail = self.data, self.end - self.pos
            if len(data) < max(need, self.size):
                self.data = bytearray(max(need, self.size))
            self.data[:tail] = data[self.pos : self.end]
            with memoryview(self.data) as view:
                got = self.file.readinto(view[tail:])
            self.pos, self.end = 0, tail + got
            if not got:
                return False
        return True


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of each row of ``a`` with the same row of ``b``,
    clamped into [-1, 1].

    Every sum runs along one row (``einsum``), never through a matrix
    product, whose blocking changes with the batch shape; so a pair gets
    the same bits alone as in any batch.  Threshold decisions at an exact
    tie depend on that.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValidationError(f"vector shapes differ or are not (n, dim): {a.shape} vs {b.shape}")
    norm_a = _row_norms(a)
    norm_b = _row_norms(b)
    if not (norm_a.all() and norm_b.all()):
        raise ValidationError("cosine is undefined for zero vectors")
    return np.clip(np.einsum("ij,ij->i", a, b) / (norm_a * norm_b), -1.0, 1.0)


def nearest_neighbor(query: np.ndarray, table: EmbeddingTable) -> tuple[str, float]:
    """Name and similarity of the table entry closest to the query.

    The query is renormalized internally, so any positive scaling of it
    selects the same entry.  Exact similarity ties resolve to the
    lexicographically smallest name.
    """
    if len(table) == 0:
        raise ValidationError("nearest_neighbor requires a non-empty table")
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.shape[0] != table.dim:
        raise ValidationError(f"query dimension {q.shape[0]} != table dimension {table.dim}")
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ValidationError("cannot search with a zero query vector")
    sims = table._unit @ (q / norm)
    best = float(sims.max())
    tied = np.nonzero(sims == best)[0]
    name = min(table.names[int(k)] for k in tied)
    return name, float(np.clip(best, -1.0, 1.0))
