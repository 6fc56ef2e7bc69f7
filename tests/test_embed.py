"""Embedding table storage, cosine math, and nearest-neighbor lookup."""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccmine import embed, ioutil
from ccmine.embed import (
    EmbeddingTable,
    cosines,
    nearest_neighbor,
)
from ccmine.errors import FormatError, MissingEmbeddingError, ValidationError
from ccmine.ioutil import HashedInput

from conftest import cosine, embeddings_loads_by_record, traced_peak


def _as_unit(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(raw float32, unit float64) forms of one vector, normalized on its
    own by ``np.linalg.norm``: the reference for the table's rows."""
    v64 = np.asarray(vec, dtype=np.float64).reshape(-1)
    unit = v64 / float(np.linalg.norm(v64))
    return unit.astype("<f4"), unit


def _saved_rows(data: bytes, n: int, dim: int) -> np.ndarray:
    """The float32 rows of a CCEMB1 table whose ``n`` names are 3 bytes each."""
    records = np.frombuffer(data, dtype=np.uint8)[14:].reshape(n, 5 + 4 * dim)
    return records[:, 5:].copy().view("<f4")


def _with_last_record_float(data: bytes, value: float) -> bytes:
    """A serialized table whose final vector component is ``value``."""
    return data[:-4] + np.array([value], dtype="<f4").tobytes()


class TestTable:
    def test_vectors_are_unit(self, toy_embeddings):
        for name in toy_embeddings.names:
            assert np.linalg.norm(toy_embeddings.vector(name)) == pytest.approx(1.0)

    def test_missing_concept(self, toy_embeddings):
        with pytest.raises(MissingEmbeddingError, match="zeppelin"):
            toy_embeddings.vector("zeppelin")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingTable(["a", "a"], np.eye(2))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingTable(["a", "b"], np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_roundtrip_byte_identical(self, tmp_path, toy_embeddings):
        path = tmp_path / "t.emb"
        toy_embeddings.save(path)
        first = path.read_bytes()
        EmbeddingTable.load(path).save(path)
        assert path.read_bytes() == first

    def test_load_rejects_truncation(self, tmp_path, toy_embeddings):
        path = tmp_path / "t.emb"
        toy_embeddings.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(FormatError):
            EmbeddingTable.load(path)

    def test_load_rejects_denormalized(self, tmp_path):
        table = EmbeddingTable(["a", "b"], np.eye(2))
        path = tmp_path / "t.emb"
        table.save(path)
        data = bytearray(path.read_bytes())
        # scale the final float of the last record well past tolerance
        bad = np.frombuffer(data[-4:], dtype="<f4") * 1.01
        data[-4:] = bad.astype("<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_load_rejects_non_finite_vector(self, value):
        data = EmbeddingTable(["a", "b"], np.eye(2)).dumps()
        with pytest.raises(FormatError, match="'b'"):
            EmbeddingTable.loads(_with_last_record_float(data, value))


class TestTableConstruction:
    @pytest.mark.parametrize("dtype", ["<f4", np.float64])
    def test_arrays_equal_per_row_as_unit(self, dtype):
        rng = np.random.default_rng(5)
        vectors = (rng.standard_normal((40, 33)) * rng.uniform(0.1, 9.0, (40, 1))).astype(dtype)
        names = [f"n{k:02d}" for k in range(40)]
        table = EmbeddingTable(names, vectors)
        assert table._unit.dtype == np.float64
        saved = _saved_rows(table.dumps(), len(names), 33)
        for k, row in enumerate(vectors):
            raw, unit = _as_unit(row)
            assert np.array_equal(saved[k], raw)
            assert np.array_equal(table._unit[k], unit)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        dim=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_loaded_arrays_equal_per_row_as_unit(self, n, dim, seed):
        # the loader normalizes the stored float32 rows with the norm it
        # checks them by; each row must get the bits it gets alone
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((n, dim)) * rng.uniform(0.1, 9.0, (n, 1))
        data = EmbeddingTable([f"n{k:02d}" for k in range(n)], vectors).dumps()
        table = EmbeddingTable.loads(data)
        saved = _saved_rows(table.dumps(), n, dim)
        for k, record in enumerate(_saved_rows(data, n, dim)):
            raw, unit = _as_unit(record)
            assert np.array_equal(saved[k], raw)
            assert np.array_equal(table._unit[k], unit)

    def test_zero_norm_names_the_entry(self):
        with pytest.raises(ValidationError, match="'b'"):
            EmbeddingTable(["a", "b", "c"], np.array([[1.0, 0.0], [0.0, 0.0], [np.nan, 1.0]]))

    def test_loads_peak_memory_stays_near_the_table(self):
        rng = np.random.default_rng(6)
        vectors = rng.standard_normal((2000, 512))
        data = EmbeddingTable([f"c{k:04d}" for k in range(2000)], vectors).dumps()
        del vectors
        table, peak = traced_peak(lambda: EmbeddingTable.loads(data))
        final = table._unit.nbytes
        # beyond the table: one gather block of records, the norms, the offsets
        assert peak - final < 2**20, (peak, final)

    @pytest.mark.parametrize("rows", [2000, 8000])
    def test_load_peaks_a_block_above_the_table(self, tmp_path, rows):
        path = tmp_path / "t.emb"
        vectors = np.random.default_rng(6).standard_normal((rows, 512))
        EmbeddingTable([f"c{k:05d}" for k in range(rows)], vectors).save(path)
        del vectors
        tracemalloc.start()
        try:
            table = EmbeddingTable.load(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table._unit.shape == (rows, 512)
        # one block of float64 rows: the block of records read and their
        # gathered vectors are about half of one each; the file is never whole
        assert peak - held < embed._GATHER_ROWS * 512 * 8, (peak, held)


@st.composite
def ccemb_tables(draw):
    """CCEMB1 bytes: a valid table, then up to two faults drawn from the
    ones a loader must name."""
    dim = draw(st.sampled_from([1, 2, 3, 17, 64]))
    names = sorted(draw(st.sets(st.text("abé", min_size=1, max_size=3), max_size=7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((len(names), dim))
    rows = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype("<f4")
    encoded = [name.encode("utf-8") for name in names]
    count = len(names)
    faults = draw(
        st.lists(
            st.sampled_from(
                ["truncate", "utf8", "scale", "nan", "inf", "count0", "trailing", "swap", "dup"]
            ),
            max_size=2,
        )
    )
    tail, cut = b"", None
    for fault in faults:
        k = draw(st.integers(0, max(len(names) - 1, 0)))
        if fault == "truncate":
            cut = draw(st.integers(0, 14 + sum(2 + len(e) + 4 * dim for e in encoded)))
        elif fault == "count0":
            count = 0
        elif fault == "trailing":
            tail = draw(st.binary(min_size=1, max_size=9))
        elif not names:
            continue
        elif fault == "utf8":
            encoded[k] = encoded[k][:-1] + b"\xff"
        elif fault == "scale":
            rows[k] *= draw(st.sampled_from([0.0, 0.5, 0.9998, 1.00005, 1.0002, 3.0]))
        elif fault in ("nan", "inf"):
            rows[k, draw(st.integers(0, dim - 1))] = np.nan if fault == "nan" else -np.inf
        elif fault == "swap" and len(names) > 1:
            j = (k + 1) % len(names)
            encoded[k], encoded[j] = encoded[j], encoded[k]
        elif fault == "dup" and len(names) > 1:
            encoded[k] = encoded[k - 1]
    data = b"CCEMB1" + struct.pack("<II", dim, count)
    for name, row in zip(encoded, rows):
        data += struct.pack("<H", len(name)) + name + row.tobytes()
    data += tail
    return data if cut is None else data[:cut]


def _table_bytes(*names: bytes, dim: int = 2) -> bytes:
    """CCEMB1 bytes of ``names`` in the order given, each with a unit row."""
    row = np.eye(dim, dtype="<f4")[0].tobytes()
    records = (struct.pack("<H", len(name)) + name + row for name in names)
    return b"CCEMB1" + struct.pack("<II", dim, len(names)) + b"".join(records)


def _loaded(loads, data):
    """What ``loads`` makes of ``data``: the error message, or the table's
    names and the exact bytes of its rows."""
    try:
        table = loads(data)
    except FormatError as exc:
        return str(exc)
    return table.names, table.dim, table._unit.shape, table._unit.tobytes()


class TestLoadsAgainstRecordReader:
    @settings(max_examples=400, deadline=None)
    @given(data=ccemb_tables(), block=st.sampled_from([1, 2, 3, 256]))
    def test_same_table_or_same_error(self, data, block):
        with mock.patch.object(embed, "_GATHER_ROWS", block):
            assert _loaded(EmbeddingTable.loads, data) == _loaded(embeddings_loads_by_record, data)

    @settings(max_examples=300, deadline=None)
    @given(
        data=ccemb_tables(),
        block=st.sampled_from([1, 2, 3, 256]),
        names=st.none() | st.sets(st.text("abé", min_size=1, max_size=3), max_size=5),
    )
    # a kept name repeated, adjacent or not: more rows match than are kept
    @example(data=_table_bytes(b"a", b"a"), block=256, names={"a"})
    @example(data=_table_bytes(b"a", b"b", b"a"), block=1, names={"a"})
    # every name kept: each block is gathered in place, as a full load's is
    @example(data=EmbeddingTable(list("abcde"), np.eye(5)).dumps(), block=1, names=set("abcde"))
    @example(data=EmbeddingTable(list("abcde"), np.eye(5)).dumps(), block=3, names=set("abcde"))
    @example(data=EmbeddingTable(list("abcde"), np.eye(5)).dumps(), block=256, names=set("abcde"))
    # every name kept, out of order or repeated: still the record reader's error
    @example(data=_table_bytes(b"a", b"c", b"b"), block=1, names=set("abc"))
    @example(data=_table_bytes(b"a", b"b", b"b"), block=1, names=set("ab"))
    def test_file_load_keeps_the_record_readers_rows(self, data, block, names):
        # a file is read in blocks of about ``block`` records, every record
        # checked, and only the rows of ``names`` are kept, in file order
        try:
            table = embeddings_loads_by_record(data)
        except FormatError as exc:
            expected = str(exc)
        else:
            kept = [name for name in table.names if names is None or name in names]
            rows = table._unit[table.rows(kept)]
            expected = kept, table.dim, rows.shape, rows.tobytes()
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "t.emb"
            path.write_bytes(data)
            with mock.patch.object(embed, "_GATHER_ROWS", block):
                assert _loaded(lambda _: EmbeddingTable.load(path, names), data) == expected

    def test_load_reads_a_pipe(self, tmp_path):
        # a pipe has no length to check the entry count against up front
        data = EmbeddingTable(["a", "b"], np.eye(2)).dumps()
        path = tmp_path / "pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(data,))
        writer.start()
        try:
            table = EmbeddingTable.load(path, {"b"})
        finally:
            writer.join()
        assert table.names == ["b"]
        assert table._unit.tobytes() == EmbeddingTable.loads(data)._unit[1:].tobytes()

    def test_digest_is_the_files_sha256(self, tmp_path):
        # a full load, a subset load and a pipe hash every byte as they read
        # it, so the digest reads nothing again
        data = EmbeddingTable([f"c{k:03d}" for k in range(600)], np.eye(600)[:, :8] + 1).dumps()
        path, pipe = tmp_path / "t.emb", tmp_path / "pipe"
        path.write_bytes(data)
        os.mkfifo(pipe)
        inputs = [HashedInput(path), HashedInput(path), HashedInput(pipe)]
        EmbeddingTable.load(inputs[0])
        EmbeddingTable.load(inputs[1], ["c001", "c599"])
        writer = threading.Thread(target=pipe.write_bytes, args=(data,))
        writer.start()
        try:
            EmbeddingTable.load(inputs[2], ["c002"])
        finally:
            writer.join()
        with mock.patch.object(ioutil, "open_input", side_effect=AssertionError):
            assert [hashed.digest() for hashed in inputs] == [hashlib.sha256(data).hexdigest()] * 3

    def test_error_names_the_first_faulty_record(self):
        def record(name: bytes, row) -> bytes:
            return struct.pack("<H", len(name)) + name + np.array(row, dtype="<f4").tobytes()

        head = b"CCEMB1" + struct.pack("<II", 2, 3)
        a, b, c = record(b"a", [1, 0]), record(b"b", [np.nan, 0]), record(b"\xff", [0, 1])
        with pytest.raises(FormatError, match="'b' is not unit norm"):
            EmbeddingTable.loads(head + a + b + c)
        with pytest.raises(FormatError, match="'b' is not unit norm"):
            EmbeddingTable.loads(head + a + b + c[:-1])
        with pytest.raises(FormatError, match="entry 2's name is not UTF-8"):
            EmbeddingTable.loads(head + a + record(b"b", [0, 1]) + c)


class TestCosine:
    """The one-row case of ``cosines``, through the per-pair oracle."""

    def test_known_value(self):
        assert cosine(np.array([0.6, 0.8]), np.array([0.0, 1.0])) == pytest.approx(0.8)

    def test_scale_invariant(self):
        a = np.array([3.0, 4.0])
        b = np.array([1.0, 1.0])
        assert cosine(a, b) == pytest.approx(cosine(10 * a, 0.5 * b))

    def test_clipped_to_range(self):
        v = np.array([1.0, 1e-8])
        assert cosine(v, v) <= 1.0

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            cosine(np.zeros(2), np.array([1.0, 0.0]))


class TestBatchedCosine:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 80),
        dim=st.integers(1, 768),
        seed=st.integers(0, 2**32 - 1),
        one_vector=st.booleans(),
        single=st.booleans(),
    )
    def test_each_row_equals_its_one_row_case(self, n, dim, seed, one_vector, single):
        # exact-tie decisions (similarity equal to delta or beta) need a
        # pair's similarity not to depend on the batch it is computed in
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, dim)).astype(np.float32 if single else np.float64)
        b = rng.standard_normal((1 if one_vector else n, dim))
        b = np.broadcast_to(b, a.shape)
        got = cosines(a, b)
        alone = np.array([cosine(x, y) for x, y in zip(a, b)])
        swapped = np.array([cosine(y, x) for x, y in zip(a, b)])
        assert got.tobytes() == alone.tobytes() == swapped.tobytes()
        lo = n // 3
        assert cosines(a[lo:], b[lo:]).tobytes() == got[lo:].tobytes()

    def test_shapes_must_agree(self):
        with pytest.raises(ValidationError):
            cosines(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(ValidationError):
            cosines(np.ones(3), np.ones(3))

    def test_zero_row_rejected(self):
        with pytest.raises(ValidationError):
            cosines(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones((2, 2)))


class TestNearestNeighbor:
    def test_known_query(self):
        table = EmbeddingTable(["boat", "water"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        name, sim = nearest_neighbor(np.array([0.6, 0.8]), table)
        assert name == "water"
        assert sim == pytest.approx(0.8)

    def test_scale_invariant(self):
        table = EmbeddingTable(["boat", "water"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        name, sim = nearest_neighbor(np.array([60.0, 80.0]), table)
        assert name == "water"
        assert sim == pytest.approx(0.8)

    def test_tie_breaks_to_min_name(self):
        table = EmbeddingTable(
            ["banana", "apple"], np.array([[1.0, 0.0], [1.0, 0.0]])
        )
        name, _ = nearest_neighbor(np.array([1.0, 0.0]), table)
        assert name == "apple"

    def test_self_map(self, toy_embeddings):
        for name in toy_embeddings.names:
            got, sim = nearest_neighbor(toy_embeddings.vector(name), toy_embeddings)
            assert got == name
            assert sim == pytest.approx(1.0)
