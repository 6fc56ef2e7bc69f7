"""Pair counting, frequency normalization, and candidate selection."""

from __future__ import annotations

import hashlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccmine import cooc

from ccmine.cooc import (
    CoocMatrix,
    build_cooc,
    load_counts,
    mine_corpus,
    normalize,
    save_counts,
    select_all,
)
from ccmine.corpus import Lexicon, ScanStats, iter_caption_lines, scan_corpus
from ccmine.errors import FormatError, ValidationError

from conftest import TOY_PAIRS, cooc_matrix, pair_counts


def framed_cooc(dim, body):
    """Cooc text with a valid digest over ``body``."""
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f"ccmine-cooc v1 {dim}\n{body}#sha256:{digest}\n"


def framed_counts(dim, body):
    """Counts text with a valid digest over ``body``."""
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f"ccmine-counts v1 {dim}\n{body}#sha256:{digest}\n"


def toy_matrix_and_stats(corpus_path, lexicon):
    stats = ScanStats()
    sets = scan_corpus(iter_caption_lines(corpus_path), lexicon, stats)
    return build_cooc(sets, len(lexicon.concepts)), stats


def freq_of(freq, i, j):
    """Row ``i``'s frequency of ``j``, looked up in the CSR arrays."""
    lo, hi = freq.indptr[i], freq.indptr[i + 1]
    (k,) = np.flatnonzero(freq.indices[lo:hi] == j)
    return float(freq.data[lo + k])


def members(freq, i, gamma):
    """Row ``i``'s run of ``select_all``, as concept strings."""
    row, col = select_all(freq, gamma)
    return [freq.lexicon.concepts[j] for j in col[row == i].tolist()]


class TestBuildCooc:
    def test_toy_pair_counts(self, toy_corpus_path, toy_lexicon):
        matrix, _ = toy_matrix_and_stats(toy_corpus_path, toy_lexicon)
        expected = {
            tuple(sorted((toy_lexicon.id_of(a), toy_lexicon.id_of(b)))): n
            for (a, b), n in TOY_PAIRS.items()
        }
        assert pair_counts(matrix) == expected

    def test_symmetric_get(self, toy_corpus_path, toy_lexicon):
        # an unordered pair is stored once, under (smaller id, larger id)
        matrix, _ = toy_matrix_and_stats(toy_corpus_path, toy_lexicon)
        boat = toy_lexicon.id_of("boat")
        water = toy_lexicon.id_of("water")
        assert pair_counts(matrix)[(min(boat, water), max(boat, water))] == 1
        assert (max(boat, water), min(boat, water)) not in pair_counts(matrix)

    def test_no_self_pairs(self, toy_corpus_path, toy_lexicon):
        matrix, _ = toy_matrix_and_stats(toy_corpus_path, toy_lexicon)
        for i, j in matrix.pairs:
            assert i < j

    def test_merge_commutes(self):
        # partial counts, as the parent of a parallel mine sums them, give
        # the whole corpus's matrix in either order
        rng = np.random.default_rng(11)
        sets = [
            set(map(int, rng.choice(10, size=rng.integers(0, 5), replace=False)))
            for _ in range(60)
        ]
        parts = [cooc._count_sets(sets[:30], 10), cooc._count_sets(sets[30:], 10)]
        whole = build_cooc(iter(sets), 10)
        for order in (parts, parts[::-1]):
            sums = cooc._PairSums()
            for keys, counts in order:
                sums.add(keys, counts)
            assert CoocMatrix._from_codes(10, *sums.fold()) == whole

    def test_overflow_rejected(self):
        top = CoocMatrix._from_codes(3, np.array([0 * 3 + 1]), np.array([2**32 - 1]))
        assert pair_counts(top) == {(0, 1): 2**32 - 1}
        with pytest.raises(ValidationError, match=r"pair \(0, 1\) exceeds 32-bit range"):
            CoocMatrix._from_codes(3, np.array([0 * 3 + 1]), np.array([2**32]))
        # one pair given in both orders is one pair, and its counts add up
        with pytest.raises(ValidationError, match=r"pair \(0, 1\) exceeds 32-bit range"):
            cooc_matrix(3, {(0, 1): 2**31, (1, 0): 2**31})

    def test_summed_partial_counts_overflow_rejected(self):
        # the parent of a parallel mine sums worker arrays the same way
        sums = cooc._PairSums()
        sums.add(np.array([0 * 3 + 1, 1 * 3 + 2]), np.array([7, 2**31]))
        sums.add(np.array([1 * 3 + 2]), np.array([2**31]))
        with pytest.raises(ValidationError, match=r"pair \(1, 2\) exceeds 32-bit range"):
            CoocMatrix._from_codes(3, *sums.fold())

    def test_equality_compares_counts(self):
        m = cooc_matrix(3, {(0, 1): 2, (1, 2): 1})
        assert m == cooc_matrix(3, {(2, 1): 1, (1, 0): 2})
        assert m == CoocMatrix.loads(m.dumps())
        assert m != cooc_matrix(3, {(0, 1): 2, (1, 2): 2})
        assert m != cooc_matrix(3, {(0, 1): 2, (0, 2): 1})
        assert m != cooc_matrix(4, {(0, 1): 2, (1, 2): 1})
        assert m != pair_counts(m)
        assert repr(m) == "CoocMatrix(dim=3, stored_pairs=2)"

    @given(st.lists(st.sets(st.integers(0, 7), max_size=6), max_size=40))
    def test_batched_counting_matches_brute_force(self, sets):
        brute = Counter(pair for s in sets for pair in combinations(sorted(s), 2))
        batch, fold_min = cooc._BATCH_SETS, cooc._FOLD_MIN
        try:
            # tiny batches force every expand and fold step to run
            cooc._BATCH_SETS, cooc._FOLD_MIN = 3, 2
            assert pair_counts(build_cooc(iter(sets), 8)) == brute
        finally:
            cooc._BATCH_SETS, cooc._FOLD_MIN = batch, fold_min
        assert pair_counts(build_cooc(iter(sets), 8)) == brute


class TestSerialization:
    def test_roundtrip_byte_identical(self, toy_corpus_path, toy_lexicon, tmp_path):
        matrix, _ = toy_matrix_and_stats(toy_corpus_path, toy_lexicon)
        path = tmp_path / "pairs.cooc"
        matrix.save(path)
        first = path.read_bytes()
        CoocMatrix.load(path).save(path)
        assert path.read_bytes() == first

    def test_digest_tamper_detected(self, toy_corpus_path, toy_lexicon, tmp_path):
        matrix, _ = toy_matrix_and_stats(toy_corpus_path, toy_lexicon)
        path = tmp_path / "pairs.cooc"
        matrix.save(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace("1", "2")
        path.write_text("".join(lines))
        with pytest.raises(FormatError):
            CoocMatrix.load(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "pairs.cooc"
        path.write_text("ccmine-cooc v9 3\n")
        with pytest.raises(FormatError):
            CoocMatrix.load(path)

    @pytest.mark.parametrize(
        "line",
        [
            "99999999999999999999\t1\t1",
            "0\t99999999999999999999\t1",
            "0\t1\t99999999999999999999",
            "0\t1\t9223372036854775808",
        ],
    )
    def test_field_past_int64_rejected(self, line):
        with pytest.raises(FormatError, match="out of"):
            CoocMatrix.loads(framed_cooc(3, line + "\n"))

    @pytest.mark.parametrize("dim", [-1, 2**31 + 1, 99999999999999999999])
    def test_dimension_out_of_range_rejected(self, dim):
        with pytest.raises(FormatError, match="dimension"):
            CoocMatrix.loads(framed_cooc(dim, "0\t1\t1\n"))

    def test_counts_roundtrip(self, toy_corpus_path, toy_lexicon, tmp_path):
        _, stats = toy_matrix_and_stats(toy_corpus_path, toy_lexicon)
        path = tmp_path / "occ.counts"
        save_counts(path, stats.occurrence)
        assert load_counts(path) == list(stats.occurrence)

    def test_counts_tamper_detected(self, toy_corpus_path, toy_lexicon, tmp_path):
        _, stats = toy_matrix_and_stats(toy_corpus_path, toy_lexicon)
        path = tmp_path / "occ.counts"
        save_counts(path, stats.occurrence)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace("3", "4")
        path.write_text("".join(lines))
        with pytest.raises(FormatError):
            load_counts(path)

    @pytest.mark.parametrize(
        "line", ["a\t1", "0\tx", "0\t", "0\t1\t1", "0 1", "0\t1.5", "00\t1", "+0\t1"]
    )
    def test_counts_bad_field_rejected(self, line, tmp_path):
        path = tmp_path / "occ.counts"
        path.write_text(framed_counts(1, line + "\n"))
        with pytest.raises(FormatError, match="bad counts line"):
            load_counts(path)

    @pytest.mark.parametrize("count", [str(2**32), "9" * 24, "9" * 5000])
    def test_counts_above_32_bits_rejected(self, count, tmp_path):
        path = tmp_path / "occ.counts"
        path.write_text(framed_counts(2, f"0\t{2**32 - 1}\n1\t{count}\n"))
        with pytest.raises(FormatError, match="out of range"):
            load_counts(path)


class TestNormalize:
    def test_directional_frequencies(self, toy_corpus_path, toy_lexicon):
        matrix, stats = toy_matrix_and_stats(toy_corpus_path, toy_lexicon)
        freq = normalize(matrix, stats.occurrence, toy_lexicon)
        boat = toy_lexicon.id_of("boat")
        water = toy_lexicon.id_of("water")
        assert freq_of(freq, boat, water) == pytest.approx(1 / 3)
        assert freq_of(freq, water, boat) == 1.0

    def test_zero_occurrence_with_pairs_rejected(self, toy_lexicon):
        matrix = cooc_matrix(7, {(0, 1): 1})
        with pytest.raises(ValidationError, match="zero occurrences"):
            normalize(matrix, [0, 1, 1, 1, 1, 1, 1], toy_lexicon)

    def test_count_exceeding_occurrence_rejected(self, toy_lexicon):
        matrix = cooc_matrix(7, {(0, 1): 5})
        with pytest.raises(ValidationError, match="exceeds occurrence"):
            normalize(matrix, [2, 5, 1, 1, 1, 1, 1], toy_lexicon)

    def test_dimension_mismatch_rejected(self, toy_lexicon):
        matrix = CoocMatrix(7)
        with pytest.raises(ValidationError):
            normalize(matrix, [1, 1], toy_lexicon)


class TestSelectCandidates:
    def test_order_frequency_then_name(self, toy_corpus_path, toy_lexicon):
        matrix, stats = toy_matrix_and_stats(toy_corpus_path, toy_lexicon)
        freq = normalize(matrix, stats.occurrence, toy_lexicon)
        got = members(freq, toy_lexicon.id_of("boat"), 0.3)
        assert got == ["dock", "sunset", "trailer", "water"]

    def test_threshold_is_strict(self, toy_corpus_path, toy_lexicon):
        matrix, stats = toy_matrix_and_stats(toy_corpus_path, toy_lexicon)
        freq = normalize(matrix, stats.occurrence, toy_lexicon)
        boat = toy_lexicon.id_of("boat")
        exactly = freq_of(freq, boat, toy_lexicon.id_of("water"))
        assert members(freq, boat, exactly) == []

    def test_high_gamma_keeps_certain_partners(self, toy_corpus_path, toy_lexicon):
        matrix, stats = toy_matrix_and_stats(toy_corpus_path, toy_lexicon)
        freq = normalize(matrix, stats.occurrence, toy_lexicon)
        assert members(freq, toy_lexicon.id_of("water"), 0.99) == ["boat"]


class TestMineCorpus:
    def test_single_worker(self, toy_corpus_path, toy_lexicon):
        matrix, stats = mine_corpus(toy_corpus_path, toy_lexicon, workers=1)
        direct, direct_stats = toy_matrix_and_stats(toy_corpus_path, toy_lexicon)
        assert matrix == direct
        assert stats.occurrence == direct_stats.occurrence

    def test_parallel_matches_serial(self, toy_corpus_path, toy_lexicon):
        serial, serial_stats = mine_corpus(toy_corpus_path, toy_lexicon, workers=1)
        parallel, parallel_stats = mine_corpus(
            toy_corpus_path, toy_lexicon, workers=3, chunk_size=2
        )
        assert parallel == serial
        assert parallel_stats.occurrence == serial_stats.occurrence
        assert parallel_stats.total == serial_stats.total


class TestMapWindow:
    @pytest.mark.parametrize("window", [1, 3, 6])
    def test_reads_at_most_window_ahead(self, window):
        read = []

        def items():
            for k in range(20):
                read.append(k)
                yield k

        taken = 0
        with ThreadPoolExecutor(max_workers=2) as pool:
            for got in cooc._map_window(pool, lambda x: x * x, items(), window):
                assert len(read) <= taken + window
                assert got == taken * taken
                taken += 1
        assert taken == 20
