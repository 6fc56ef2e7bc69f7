"""Embedding table storage, cosine math, and nearest-neighbor lookup."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmine.embed import (
    EmbeddingTable,
    ToyEmbeddingProvider,
    cosines,
    nearest_neighbor,
)
from ccmine.errors import FormatError, MissingEmbeddingError, ValidationError

from conftest import cosine


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
        tracemalloc.start()
        try:
            table = EmbeddingTable.loads(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        final = table._unit.nbytes
        assert peak < 2 * final, (peak, final)


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


class TestToyProvider:
    def test_deterministic(self):
        a = ToyEmbeddingProvider(seed=3).embed("harbor")
        b = ToyEmbeddingProvider(seed=3).embed("harbor")
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        v = ToyEmbeddingProvider(seed=0, dim=16).embed("harbor")
        assert v.shape == (16,)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_seed_changes_vector(self):
        a = ToyEmbeddingProvider(seed=0).embed("harbor")
        b = ToyEmbeddingProvider(seed=1).embed("harbor")
        assert not np.allclose(a, b)

    def test_text_changes_vector(self):
        p = ToyEmbeddingProvider(seed=0)
        assert not np.allclose(p.embed("harbor"), p.embed("harbour"))
