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

import hashlib
import struct
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import FormatError, MissingEmbeddingError, ValidationError
from .ioutil import atomic_write_bytes, decode_utf8

_MAGIC = b"CCEMB1"
_NORM_TOLERANCE = 1e-4


def _norm(row: np.ndarray) -> float:
    """Euclidean norm of one float64 row, bit for bit ``np.linalg.norm``
    (which is this ``dot``); a batched sum would move the last bits."""
    return float(np.sqrt(row.dot(row)))


class EmbeddingTable:
    """Named unit vectors of a common dimension."""

    def __init__(self, names: list[str], vectors) -> None:
        if len(names) != len(set(names)):
            raise ValidationError("embedding table names must be unique")
        unit = np.array(vectors, dtype=np.float64)
        if unit.ndim != 2 or unit.shape[0] != len(names):
            raise ValidationError("vectors must be a (len(names), dim) array")
        if unit.shape[1] == 0:
            raise ValidationError("embedding dimension must be positive")
        norms = np.array([_norm(row) for row in unit])
        self._set_rows(names, unit, norms)

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
        self._index = {name: k for k, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def unit(self) -> np.ndarray:
        """The unit vectors in float64, one row per name."""
        return self._unit

    def positions(self, names) -> np.ndarray:
        """Row of each name in the table; -1 where a name has none."""
        index = self._index
        return np.array([index.get(name, -1) for name in names], dtype=np.int64)

    def subset(self, names: list[str]) -> "EmbeddingTable":
        """The rows of ``names`` in that order, bit for bit (not normalized again)."""
        rows = self.positions(names)
        if (rows < 0).any():
            raise MissingEmbeddingError(names[int(np.argmax(rows < 0))])
        sub = EmbeddingTable.__new__(EmbeddingTable)
        sub._set_rows(names, self._unit[rows], None)
        return sub

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
        if data[: len(_MAGIC)] != _MAGIC:
            raise FormatError("not a CCEMB1 embedding table")
        offset = len(_MAGIC)
        if len(data) < offset + 8:
            raise FormatError("truncated embedding table header")
        dim, count = struct.unpack_from("<II", data, offset)
        offset += 8
        if dim == 0:
            raise FormatError("embedding table dimension is zero")
        if count * (2 + 4 * dim) > len(data) - offset:
            # checked before the rows are allocated
            raise FormatError("truncated embedding table entry")
        names: list[str] = []
        unit = np.empty((count, dim), dtype=np.float64)
        norms = np.empty(count)
        for k in range(count):
            if len(data) < offset + 2:
                raise FormatError("truncated embedding table entry")
            (name_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            end = offset + name_len + 4 * dim
            if len(data) < end:
                raise FormatError("truncated embedding table entry")
            name = decode_utf8(data[offset : offset + name_len], f"embedding entry {k}'s name")
            offset += name_len
            row = unit[k]
            row[:] = np.frombuffer(data, dtype="<f4", count=dim, offset=offset)
            offset += 4 * dim
            norm = norms[k] = _norm(row)
            if not abs(norm - 1.0) <= _NORM_TOLERANCE:  # NaN fails too
                raise FormatError(f"embedding for {name!r} is not unit norm ({norm:.6f})")
            names.append(name)
        if offset != len(data):
            raise FormatError("trailing bytes after embedding table entries")
        if names != sorted(names):
            raise FormatError("embedding table names are not sorted ascending")
        if len(names) != len(set(names)):
            raise FormatError("embedding table contains duplicate names")
        table = cls.__new__(cls)
        table._set_rows(names, unit, norms)
        return table

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingTable":
        return cls.loads(Path(path).read_bytes())


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


class EmbeddingProvider(Protocol):
    """Anything that can map a concept string to a vector."""

    def embed(self, text: str) -> np.ndarray: ...


class TableProvider:
    """Provider backed by a fixed table; unknown names raise."""

    def __init__(self, table: EmbeddingTable):
        self.table = table

    def embed(self, text: str) -> np.ndarray:
        return self.table.vector(text)


class ToyEmbeddingProvider:
    """Deterministic hash-based unit vectors for tests and demos.

    Coordinates come from SHA-256 in counter mode mapped to [-1, 1), then
    the vector is unit-normalized.  No RNG library is involved, so the same
    (seed, text) pair yields the same vector on every run; across platforms
    results agree to floating-point rounding.
    """

    def __init__(self, seed: int = 0, dim: int = 16):
        if dim < 1:
            raise ValidationError("toy provider dimension must be >= 1")
        self.seed = seed
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        for attempt in range(64):
            coords = self._uniform_coords(text, attempt)
            norm = float(np.linalg.norm(coords))
            if norm > 1e-6:
                return coords / norm
        raise ValidationError(f"could not derive a unit vector for {text!r}")

    def _uniform_coords(self, text: str, attempt: int) -> np.ndarray:
        out: list[float] = []
        block = 0
        while len(out) < self.dim:
            payload = f"{self.seed}:{attempt}:{text}:{block}".encode("utf-8")
            digest = hashlib.sha256(payload).digest()
            for k in range(0, 32, 8):
                u = int.from_bytes(digest[k : k + 8], "little")
                out.append(u / 2.0**63 - 1.0)
            block += 1
        return np.array(out[: self.dim], dtype=np.float64)
