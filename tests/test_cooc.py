"""Pair counting, frequency normalization, and candidate selection."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccmine import cooc

from ccmine.cooc import (
    MAX_COUNT,
    CoocMatrix,
    build_cooc,
    dumps_counts,
    load_counts,
    mine_corpus,
    normalize,
    save_counts,
    select_all,
)
from ccmine.corpus import Lexicon, ScanStats, iter_caption_lines, scan_corpus
from ccmine.errors import FormatError, ValidationError
from ccmine.ioutil import decode_utf8, open_input

from conftest import PLAIN, TOY_PAIRS, cooc_matrix, pair_counts, read_table_by_line


def framed(head, body):
    """The header line ``head``, ``body`` and a valid digest over it."""
    return f"{head}\n{body}#sha256:{hashlib.sha256(body.encode('utf-8')).hexdigest()}\n"


def framed_cooc(dim, body):
    return framed(f"ccmine-cooc v1 {dim}", body)


def framed_counts(dim, body):
    return framed(f"ccmine-counts v1 {dim}", body)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("cooc")


def toy_matrix_and_occurrence(corpus_path, lexicon):
    sets = scan_corpus(iter_caption_lines(corpus_path), lexicon, ScanStats())
    keys, counts, occurrence = cooc._count_sets(sets, len(lexicon))
    return CoocMatrix._from_codes(len(lexicon), keys, counts), occurrence


def freq_of(freq, i, j):
    """Row ``i``'s frequency of ``j``, looked up in the CSR arrays."""
    lo, hi = freq.indptr[i], freq.indptr[i + 1]
    (k,) = np.flatnonzero(freq.indices[lo:hi] == j)
    return float(freq.data[lo + k])


def members(freq, lexicon, i, gamma):
    """Row ``i``'s run of ``select_all``, as concept strings; each comes
    with its own frequency."""
    row, col, data = select_all(freq, gamma)
    run = row == i
    assert data[run].tolist() == [freq_of(freq, i, j) for j in col[run].tolist()]
    return [lexicon.concepts[j] for j in col[run].tolist()]


_TRIPLET = re.compile("\t".join([PLAIN] * 3))


def line_by_line_loads(text):
    """``CoocMatrix.load`` of a well-framed text as a loop over the lines:
    the syntax by regex, then the ids, counts and order, each with its
    first offending line."""
    body = text.split("\n")[1:-2]
    bad = next((row for row, line in enumerate(body) if not _TRIPLET.fullmatch(line)), None)
    if bad is not None:
        raise FormatError(f"bad cooc line for row {bad}: {body[bad]!r}")
    dim, triplets = read_table_by_line(text, "ccmine-cooc v1", 3)
    for line, (i, j, _) in zip(body, triplets):
        if not i < j < dim:
            raise FormatError(f"triplet ids out of order or range: {line!r}")
    for line, (_, _, count) in zip(body, triplets):
        if not 0 < count <= MAX_COUNT:
            raise FormatError(f"triplet count out of range: {line!r}")
    if any(a[:2] >= b[:2] for a, b in zip(triplets, triplets[1:])):
        raise FormatError("cooc triplets are not strictly ascending")
    return triplets


# ASCII digits and separators, the characters around them that a loose
# parser would accept, line breaks that str.splitlines() honours besides
# the newline, a non-ASCII digit
_SPLITLINES_BREAKS = [
    "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]
_BODY_CHARS = "0123456789\t\n +-_" + "".join(_SPLITLINES_BREAKS) + "\u0663"
_FIELDS = st.text("0123456789", min_size=1, max_size=3)


@st.composite
def cooc_texts(draw):
    """A dimension and a body: mostly well-formed triplets, sometimes out of
    order or range, with stray characters dropped in; or noise alone."""
    dim = draw(st.integers(0, 8))
    if draw(st.integers(0, 3)) == 0:
        return dim, draw(st.text(_BODY_CHARS, max_size=30))
    if draw(st.booleans()):
        ids = st.tuples(st.integers(0, 7), st.integers(0, 8)).filter(lambda p: p[0] < p[1])
        pairs = sorted(draw(st.sets(ids, max_size=6)))
        if draw(st.integers(0, 3)) == 0:
            pairs = draw(st.permutations(pairs))
        # one dimension too small at times
        dim = max((j for _, j in pairs), default=0) + draw(st.sampled_from([0, 1, 1, 2]))
        counts = st.one_of(st.integers(1, 3), st.sampled_from([0, MAX_COUNT, MAX_COUNT + 1]))
        lines = [f"{i}\t{j}\t{draw(counts)}" for i, j in pairs]
    else:
        line = st.builds("{}\t{}\t{}".format, _FIELDS, _FIELDS, _FIELDS)
        lines = draw(st.lists(line, max_size=6))
    body = "".join(line + "\n" for line in lines)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(body)))
        cut = draw(st.integers(0, 1))
        body = body[:at] + draw(st.text(_BODY_CHARS, min_size=1, max_size=2)) + body[at + cut :]
    return dim, body


class TestLoadsAgainstLineByLine:
    @settings(max_examples=500, deadline=None)
    @given(case=cooc_texts())
    def test_same_triplets_or_same_error(self, scratch, case):
        dim, body = case
        # the body as drawn, ended by a newline and under its own digest, so
        # that every body reaches the syntax check
        if body and not body.endswith("\n"):
            body += "\n"
        text = framed_cooc(dim, body)

        def outcome(load):
            try:
                return load(text)
            except FormatError as exc:
                return str(exc)

        got = outcome(lambda text: load_kind("cooc", text, scratch / "m.cooc"))
        if isinstance(got, CoocMatrix):
            got = list(zip(got.i.tolist(), got.j.tolist(), got.count.tolist()))
        assert got == outcome(line_by_line_loads)


_KINDS = {"cooc": ("ccmine-cooc v1", 3), "counts": ("ccmine-counts v1", 2)}
# header dimensions that int() takes but that are not plain ASCII decimal
_LOOSE_DIMS = ["1_0", "+3", " 3", "3 ", "03", "\u0663", "-0", "3\r"]


@st.composite
def framed_tables(draw):
    """An artifact kind and a text: what the writer makes of drawn rows,
    then maybe edited -- the header dimension written loosely, a newline
    replaced, characters dropped into the body, the digest one a loose
    reader computes, or a character of the text replaced."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    header, width = _KINDS[kind]
    if kind == "cooc":
        ids = st.tuples(st.integers(0, 6), st.integers(0, 7)).filter(lambda p: p[0] < p[1])
        pairs = sorted(draw(st.sets(ids, max_size=6)))
        counts = st.integers(1, 3) | st.sampled_from([MAX_COUNT, 10**18])
        rows = [(i, j, draw(counts)) for i, j in pairs]
        dim = max((j for _, j, _ in rows), default=0) + draw(st.integers(0, 2))
    else:
        occurrence = draw(st.lists(st.integers(0, 3) | st.sampled_from([MAX_COUNT]), max_size=6))
        rows = list(enumerate(occurrence))
        dim = len(rows)
    head = f"{header} {dim}"
    if draw(st.integers(0, 4)) == 0:
        head = f"{header} {draw(st.sampled_from(_LOOSE_DIMS))}"
    body = "".join("\t".join(map(str, row)) + "\n" for row in rows)
    if rows and draw(st.integers(0, 3)) == 0:
        at = draw(st.sampled_from([k for k, c in enumerate(body) if c == "\n"]))
        # another line break, or a leading zero on the next line
        brk = draw(st.sampled_from(_SPLITLINES_BREAKS) | st.just("\n0"))
        body = body[:at] + brk + body[at + 1 :]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(body)))
        cut = draw(st.integers(0, 1))
        body = body[:at] + draw(st.text(_BODY_CHARS, min_size=1, max_size=2)) + body[at + cut :]
    if draw(st.integers(0, 3)) == 0:
        # the digest a reader that cuts lines with str.splitlines() computes
        digest = hashlib.sha256("".join(f"{x}\n" for x in body.splitlines()).encode()).hexdigest()
    else:
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    text = f"{head}\n{body}#sha256:{digest}\n"
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["", "\n", "\r", "#sha256:"])) + text[at + 1 :]
    return kind, text


def load_kind(kind, text, path):
    """``text`` written to ``path`` and loaded as a ``kind`` artifact."""
    path.write_bytes(text.encode("utf-8"))
    return CoocMatrix.load(path) if kind == "cooc" else load_counts(path)


def read_table(path, header, kind, width):
    """``cooc._read_framed`` over the file at ``path``: its header
    dimension and its lines as an ``(n, width)`` int64 array."""
    with open_input(path) as file:
        dim, columns, _ = cooc._read_framed(file, header, kind, width, path)
    return dim, np.stack(columns, axis=1)


def valid_text(kind):
    """A small ``kind`` artifact as the writer writes it."""
    if kind == "cooc":
        return cooc_matrix(4, {(0, 1): 2, (0, 3): 1, (2, 3): 5}).dumps()
    return dumps_counts([3, 0, 7])


class TestCodecAgainstLineByLine:
    @settings(max_examples=500, deadline=None)
    @given(case=framed_tables())
    def test_reader_accepts_what_reference_accepts(self, scratch, case):
        kind, text = case
        header, width = _KINDS[kind]
        want = read_table_by_line(text, header, width)
        path = scratch / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        try:
            dim, rows = read_table(path, header, kind, width)
        except FormatError:
            assert want is None
            return
        assert want is not None and dim == want[0]
        assert rows.dtype == np.int64 and rows.shape == (len(want[1]), width)
        # fields past int64 saturate, as _read_framed documents
        assert rows.tolist() == [[min(v, 2**63 - 1) for v in row] for row in want[1]]
        # whatever the loader accepts (its range or order checks may not),
        # its writer writes back byte for byte
        with contextlib.suppress(FormatError):
            loaded = load_kind(kind, text, path)
            assert (loaded.dumps() if kind == "cooc" else dumps_counts(loaded)) == text


class TestStrictCodec:
    @pytest.mark.parametrize("brk", _SPLITLINES_BREAKS)
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_other_line_breaks_rejected(self, kind, brk, tmp_path):
        text = valid_text(kind)
        head, rest = text.split("\n", 1)
        body = rest[: rest.index("#sha256:")].replace("\n", brk, 1)
        # under the writer's digest, and under one over the edited body
        for candidate in (f"{head}\n{body}{rest[rest.index('#sha256:'):]}", framed(head, body)):
            with pytest.raises(FormatError):
                load_kind(kind, candidate, tmp_path / "x")

    @pytest.mark.parametrize("dim", _LOOSE_DIMS + ["", "-1", "3.0", "0x3", "1e1"])
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_loose_header_dimension_rejected(self, kind, dim, tmp_path):
        header, _ = _KINDS[kind]
        text = valid_text(kind).split("\n", 1)[1]
        with pytest.raises(FormatError, match="bad dimension"):
            load_kind(kind, f"{header} {dim}\n{text}", tmp_path / "x")

    @pytest.mark.parametrize("line", ["00\t01\t2", "0\t01\t2", "0\t1\t02", "00\t1", "0\t01"])
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_leading_zero_rejected(self, kind, line, tmp_path):
        text = framed(f"{_KINDS[kind][0]} 3", line + "\n")
        with pytest.raises(FormatError, match=f"bad {kind} line for row 0"):
            load_kind(kind, text, tmp_path / "x")

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_trailer_must_end_the_text(self, kind, tmp_path):
        text = valid_text(kind)
        for candidate in (text[:-1], text + "\n", text + "x", text.upper(), text + text):
            with pytest.raises(FormatError):
                load_kind(kind, candidate, tmp_path / "x")
        load_kind(kind, text, tmp_path / "x")

    def test_error_names_the_offending_line(self, tmp_path):
        body = "0\t1\t1\n0\t2\t1\n1\t 2\t1\n"
        with pytest.raises(FormatError, match=r"row 2: '1\\t 2\\t1'$"):
            load_kind("cooc", framed_cooc(3, body), tmp_path / "x")
        body = "0\t1\n1\t1\n3\t1\n"
        with pytest.raises(FormatError, match=r"bad counts line for row 2: '3\\t1'$"):
            load_kind("counts", framed_counts(3, body), tmp_path / "x")


@st.composite
def pair_runs(draw):
    """Ascending runs of distinct keys with positive counts, as the pair
    counter's parts are: each empty (the read-only ``_EMPTY``), equal to
    an earlier run's keys, above every earlier key, or drawn from a range
    that earlier runs share."""
    runs, top = [], -1
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["empty", "equal", "disjoint", "interleaved"]))
        if kind == "empty":
            runs.append((cooc._EMPTY, cooc._EMPTY))
            continue
        if kind == "equal" and runs:
            keys = runs[draw(st.integers(0, len(runs) - 1))][0].copy()
        else:
            low = top + 1 if kind == "disjoint" else 0
            keys = np.array(sorted(draw(st.sets(st.integers(low, low + 40), max_size=25))))
        counts = draw(st.lists(st.integers(1, 2**40), min_size=len(keys), max_size=len(keys)))
        runs.append((keys.astype(np.int64), np.array(counts, dtype=np.int64)))
        top = max([top, *keys.tolist()])
    return runs


class TestBuildCooc:
    def test_toy_pair_counts(self, toy_corpus_path, toy_lexicon):
        matrix, _ = toy_matrix_and_occurrence(toy_corpus_path, toy_lexicon)
        expected = {
            tuple(sorted((toy_lexicon.index[a], toy_lexicon.index[b]))): n
            for (a, b), n in TOY_PAIRS.items()
        }
        assert pair_counts(matrix) == expected

    def test_symmetric_get(self, toy_corpus_path, toy_lexicon):
        # an unordered pair is stored once, under (smaller id, larger id)
        matrix, _ = toy_matrix_and_occurrence(toy_corpus_path, toy_lexicon)
        boat = toy_lexicon.index["boat"]
        water = toy_lexicon.index["water"]
        assert pair_counts(matrix)[(min(boat, water), max(boat, water))] == 1
        assert (max(boat, water), min(boat, water)) not in pair_counts(matrix)

    def test_no_self_pairs(self, toy_corpus_path, toy_lexicon):
        matrix, _ = toy_matrix_and_occurrence(toy_corpus_path, toy_lexicon)
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
            for keys, counts, _ in order:
                sums.add(keys, counts)
            assert CoocMatrix._from_codes(10, *sums.fold()) == whole
        occurrence = np.bincount([c for s in sets for c in s], minlength=10)
        assert np.array_equal(parts[0][2] + parts[1][2], occurrence)

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

    def test_equality_compares_counts(self, tmp_path):
        m = cooc_matrix(3, {(0, 1): 2, (1, 2): 1})
        assert m == cooc_matrix(3, {(2, 1): 1, (1, 0): 2})
        assert m == load_kind("cooc", m.dumps(), tmp_path / "m.cooc")
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

    @given(
        sets=st.lists(st.sets(st.integers(0, 7), max_size=6), max_size=40),
        batch=st.integers(1, 5),
    )
    def test_count_sets_matches_brute_force(self, sets, batch):
        # empty sets, singletons and batches of every size; the occurrence
        # reference is the per-caption loop the counter replaced
        occurrence = [0] * 8
        for matched in sets:
            for cid in matched:
                occurrence[cid] += 1
        brute = Counter(pair for s in sets for pair in combinations(sorted(s), 2))
        with mock.patch.object(cooc, "_BATCH_SETS", batch), mock.patch.object(cooc, "_FOLD_MIN", 2):
            keys, counts, counted = cooc._count_sets(iter(sets), 8)
        assert counted.dtype == np.int64 and counted.tolist() == occurrence
        assert keys.dtype == counts.dtype == np.int64
        want = {i * 8 + j: n for (i, j), n in brute.items()}
        assert dict(zip(keys.tolist(), counts.tolist())) == want
        assert np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize("sets", [[{8}], [{0, 1}, {-1}], [set(), {3, 9}]])
    def test_count_sets_rejects_ids_outside_the_lexicon(self, sets):
        # a singleton is checked too, since its id is counted
        with pytest.raises(ValidationError, match=r"concept ids must lie in \[0, 8\)"):
            cooc._count_sets(sets, 8)

    @given(
        runs=pair_runs(),
        fold_min=st.integers(0, 60),
        folds=st.lists(st.booleans(), max_size=6),
    )
    def test_pair_sums_equal_one_sort_of_every_part(self, runs, fold_min, folds):
        # whatever the parts and wherever folds fall, the running sums are
        # the one stable sort of every part, and the parts are left as given
        given_runs = [(keys.copy(), counts.copy()) for keys, counts in runs]
        with mock.patch.object(cooc, "_FOLD_MIN", fold_min):
            sums = cooc._PairSums()
            for k, (keys, counts) in enumerate(runs):
                sums.add(keys, counts)
                if k < len(folds) and folds[k]:
                    sums.fold()
            got = sums.fold()
        want = cooc._sum_by_key([(cooc._EMPTY, cooc._EMPTY), *runs])
        for a, b in zip(got, want, strict=True):
            assert a.dtype == np.int64 and np.array_equal(a, b)
        for run, before in zip(runs, given_runs):
            assert all(np.array_equal(a, b) for a, b in zip(run, before))


class TestSerialization:
    def test_roundtrip_byte_identical(self, toy_corpus_path, toy_lexicon, tmp_path):
        matrix, _ = toy_matrix_and_occurrence(toy_corpus_path, toy_lexicon)
        path = tmp_path / "pairs.cooc"
        matrix.save(path)
        first = path.read_bytes()
        CoocMatrix.load(path).save(path)
        assert path.read_bytes() == first

    def test_digest_tamper_detected(self, toy_corpus_path, toy_lexicon, tmp_path):
        matrix, _ = toy_matrix_and_occurrence(toy_corpus_path, toy_lexicon)
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
    def test_field_past_int64_rejected(self, line, tmp_path):
        with pytest.raises(FormatError, match="out of"):
            load_kind("cooc", framed_cooc(3, line + "\n"), tmp_path / "m.cooc")

    @pytest.mark.parametrize("dim", [-1, 2**31 + 1, 99999999999999999999])
    def test_dimension_out_of_range_rejected(self, dim, tmp_path):
        with pytest.raises(FormatError, match="dimension"):
            load_kind("cooc", framed_cooc(dim, "0\t1\t1\n"), tmp_path / "m.cooc")

    def test_counts_roundtrip(self, toy_corpus_path, toy_lexicon, tmp_path):
        _, counted = toy_matrix_and_occurrence(toy_corpus_path, toy_lexicon)
        path = tmp_path / "occ.counts"
        save_counts(path, counted)
        occurrence = load_counts(path)
        assert occurrence.dtype == np.int64 and np.array_equal(occurrence, counted)
        assert dumps_counts(occurrence) == path.read_text()
        assert dumps_counts(occurrence.tolist()) == path.read_text()

    def test_counts_above_32_bits_not_saved(self, tmp_path):
        with pytest.raises(ValidationError, match="concept 1 exceeds 32-bit range"):
            save_counts(tmp_path / "occ.counts", [1, MAX_COUNT + 1])
        assert not (tmp_path / "occ.counts").exists()

    def test_counts_tamper_detected(self, toy_corpus_path, toy_lexicon, tmp_path):
        _, occurrence = toy_matrix_and_occurrence(toy_corpus_path, toy_lexicon)
        path = tmp_path / "occ.counts"
        save_counts(path, occurrence)
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


def normalize_by_sort(matrix, occurrence, lexicon):
    """``normalize`` as one argsort of both halves' codes ``row * dim +
    col``: the reference for the sort-free form."""
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
    return cooc.FreqMatrix(matrix.dim, indptr, col[order], freq[order], rank)


@st.composite
def normalize_inputs(draw):
    """A symmetric matrix, occurrence counts and a lexicon; the counts are
    sometimes inconsistent, with a concept that has pairs occurring never
    or less often than one of its pairs."""
    dim = draw(st.integers(0, 9))
    concepts = st.integers(0, max(dim - 1, 0))
    count = st.one_of(st.integers(1, 9), st.integers(1, MAX_COUNT // 4))
    triples = draw(st.lists(st.tuples(concepts, concepts, count), max_size=30)) if dim > 1 else []
    matrix = cooc_matrix(dim, {(a, b): n for a, b, n in triples if a != b})
    need = np.zeros(dim, dtype=np.int64)
    np.maximum.at(need, matrix.i, matrix.count)
    np.maximum.at(need, matrix.j, matrix.count)
    spare = st.one_of(st.integers(0, 3), st.integers(0, MAX_COUNT // 4))
    occurrence = [int(n) + draw(spare) for n in need]
    paired = sorted({*matrix.i.tolist(), *matrix.j.tolist()})
    if paired and draw(st.booleans()):
        c = draw(st.sampled_from(paired))
        occurrence[c] = draw(st.sampled_from([0, int(need[c]) - 1]))
    names = draw(st.lists(st.text("abcd", min_size=1, max_size=3), min_size=dim, max_size=dim, unique=True))
    if draw(st.booleans()):
        occurrence = np.array(occurrence, dtype=np.int64)
    return matrix, occurrence, Lexicon(names)


class TestNormalize:
    @given(normalize_inputs())
    def test_equals_the_sorting_form_bit_for_bit(self, inputs):
        try:
            want = normalize_by_sort(*inputs)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                normalize(*inputs)
            assert str(raised.value) == str(exc)
            return
        got = normalize(*inputs)
        assert got.dim == want.dim
        for field in ("indptr", "indices", "data", "rank"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    def test_directional_frequencies(self, toy_corpus_path, toy_lexicon):
        matrix, occurrence = toy_matrix_and_occurrence(toy_corpus_path, toy_lexicon)
        freq = normalize(matrix, occurrence, toy_lexicon)
        boat = toy_lexicon.index["boat"]
        water = toy_lexicon.index["water"]
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
        matrix, occurrence = toy_matrix_and_occurrence(toy_corpus_path, toy_lexicon)
        freq = normalize(matrix, occurrence, toy_lexicon)
        got = members(freq, toy_lexicon, toy_lexicon.index["boat"], 0.3)
        assert got == ["dock", "sunset", "trailer", "water"]

    def test_threshold_is_strict(self, toy_corpus_path, toy_lexicon):
        matrix, occurrence = toy_matrix_and_occurrence(toy_corpus_path, toy_lexicon)
        freq = normalize(matrix, occurrence, toy_lexicon)
        boat = toy_lexicon.index["boat"]
        exactly = freq_of(freq, boat, toy_lexicon.index["water"])
        assert members(freq, toy_lexicon, boat, exactly) == []

    def test_high_gamma_keeps_certain_partners(self, toy_corpus_path, toy_lexicon):
        matrix, occurrence = toy_matrix_and_occurrence(toy_corpus_path, toy_lexicon)
        freq = normalize(matrix, occurrence, toy_lexicon)
        assert members(freq, toy_lexicon, toy_lexicon.index["water"], 0.99) == ["boat"]


class TestMineCorpus:
    def test_single_worker(self, toy_corpus_path, toy_lexicon):
        matrix, occurrence, _ = mine_corpus(toy_corpus_path, toy_lexicon, workers=1)
        direct, direct_occurrence = toy_matrix_and_occurrence(toy_corpus_path, toy_lexicon)
        assert matrix == direct
        assert occurrence.dtype == np.int64 and np.array_equal(occurrence, direct_occurrence)

    def test_parallel_matches_serial(self, toy_corpus_path, toy_lexicon):
        serial, serial_occurrence, serial_stats = mine_corpus(
            toy_corpus_path, toy_lexicon, workers=1
        )
        parallel, parallel_occurrence, parallel_stats = mine_corpus(
            toy_corpus_path, toy_lexicon, workers=3, chunk_size=2
        )
        assert parallel == serial
        assert np.array_equal(parallel_occurrence, serial_occurrence)
        assert parallel_stats.total == serial_stats.total


def write_mixed_corpus(path, captions=40):
    """Captions over the toy lexicon's words with blank, malformed and
    undecodable lines among them."""
    rng = np.random.default_rng(captions)
    words = ["boat", "water", "dock", "sunset", "trailer", "cat", "a", "the", "on"]
    lines = []
    for k in range(captions):
        text = " ".join(rng.choice(words, size=rng.integers(0, 7)))
        lines.append(json.dumps({"id": f"c{k}", "text": text}).encode())
        if k % 7 == 0:
            lines += [b"", b"   ", b"{broken", json.dumps({"id": k, "text": "boat"}).encode()]
        if k % 11 == 0:
            lines.append(b'{"id": "x", "text": "boat \xff water"}')
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


def mined_bytes(corpus_path, lexicon, out, **kwargs):
    """The cooc and counts bytes and the stats of one ``mine_corpus`` run."""
    matrix, occurrence, stats = mine_corpus(corpus_path, lexicon, **kwargs)
    matrix.save(out / "cooc.txt")
    save_counts(out / "counts.txt", occurrence)
    return (out / "cooc.txt").read_bytes(), (out / "counts.txt").read_bytes(), stats


class FakePool:
    """A ``ProcessPoolExecutor`` stand-in that runs each call at submit in
    this process and records its size and the most calls pending at once:
    submitted, with the result not yet taken."""

    seen: dict = {}

    def __init__(self, max_workers, initializer, initargs):
        FakePool.seen = {"max_workers": max_workers, "pending": 0, "peak": 0}
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def submit(self, fn, item):
        seen = FakePool.seen
        seen["pending"] += 1
        seen["peak"] = max(seen["peak"], seen["pending"])
        return self.Done(fn(item))

    class Done:
        def __init__(self, value):
            self.value = value

        def result(self):
            FakePool.seen["pending"] -= 1
            return self.value


class TestOneCountingPath:
    def test_artifacts_equal_for_every_worker_count_and_chunk_size(
        self, tmp_path, toy_lexicon, monkeypatch
    ):
        # two usable CPUs, so that two workers start a real pool of two
        monkeypatch.setattr(cooc, "_usable_cpus", lambda: 2)
        corpus_path = write_mixed_corpus(tmp_path / "corpus.jsonl")
        got = {}
        for workers in (1, 2):
            for chunk_size in (1, 3, 8192):
                out = tmp_path / f"{workers}-{chunk_size}"
                out.mkdir()
                got[workers, chunk_size] = mined_bytes(
                    corpus_path, toy_lexicon, out, workers=workers, chunk_size=chunk_size
                )
        first = got[1, 8192]
        assert all(value == first for value in got.values())
        # 40 captions, 12 malformed records and 4 undecodable lines
        stats = first[2]
        assert (stats.total, stats.malformed) == (56, 16) and 0 < stats.matched_captions < 40
        assert b"\t2\n" in first[0]  # some pair is counted twice

    @pytest.mark.parametrize("workers, cpus", [(1, 2), (4, 1)])
    def test_a_pool_of_one_counts_in_process(
        self, tmp_path, toy_lexicon, monkeypatch, workers, cpus
    ):
        corpus_path = write_mixed_corpus(tmp_path / "corpus.jsonl")
        want = mined_bytes(corpus_path, toy_lexicon, tmp_path)
        monkeypatch.setattr(cooc, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cooc, "ProcessPoolExecutor", mock.Mock(side_effect=AssertionError))
        got = mined_bytes(corpus_path, toy_lexicon, tmp_path, workers=workers, chunk_size=1)
        assert got == want

    def test_pool_and_window_follow_the_usable_cpus(self, tmp_path, toy_lexicon, monkeypatch):
        # ten thousand workers asked for start three, with three chunks in
        # flight each; the fake starts no process
        corpus_path = write_mixed_corpus(tmp_path / "corpus.jsonl")
        want = mined_bytes(corpus_path, toy_lexicon, tmp_path)
        monkeypatch.setattr(cooc, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(cooc, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cooc, "_WORKER_LEXICON", None)
        got = mined_bytes(corpus_path, toy_lexicon, tmp_path, workers=10_000, chunk_size=1)
        assert got == want
        assert FakePool.seen == {
            "max_workers": 3, "pending": 0, "peak": 3 * cooc._WINDOW_PER_WORKER
        }

    def test_usable_cpus(self, monkeypatch):
        assert cooc._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert cooc._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert cooc._usable_cpus() == 1


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


def one_shot_frame(header, dim, rows):
    """The writer this codec replaced, as a reference: every line of the
    ``(n, k)`` int array ``rows`` formatted at once, then framed."""
    line = "\t".join(["%d"] * rows.shape[1]) + "\n"
    body = (line * len(rows)) % tuple(rows.ravel().tolist())
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f"{header} {dim}\n{body}#sha256:{digest}\n"


@st.composite
def block_and_rows(draw):
    """A block size of 1 to 3 rows and a row count: 0, 1, or a multiple of
    the block, one short of it or one past it."""
    block = draw(st.integers(1, 3))
    rows = draw(
        st.sampled_from([0, 1])
        | st.builds(lambda k, off: k * block + off, st.integers(1, 4), st.sampled_from([-1, 0, 1]))
    )
    return block, rows


class TestStreamedWriter:
    @settings(max_examples=200, deadline=None)
    @given(case=block_and_rows(), data=st.data())
    def test_bytes_equal_the_one_shot_writer(self, scratch, case, data):
        block, n = case
        dim = n + data.draw(st.integers(1, 3))
        # the first n pairs (i, j), i < j, in ascending order
        pairs = list(islice(combinations(range(dim), 2), n))
        counts = data.draw(st.lists(st.integers(1, MAX_COUNT), min_size=n, max_size=n))
        matrix = cooc_matrix(dim, dict(zip(pairs, counts)))
        occurrence = data.draw(st.lists(st.integers(0, MAX_COUNT), min_size=n, max_size=n))
        rows = np.array([(i, j, c) for (i, j), c in zip(pairs, counts)], dtype=np.int64)
        want_cooc = one_shot_frame("ccmine-cooc v1", dim, rows.reshape(-1, 3))
        ids_and_counts = np.array(list(enumerate(occurrence)), dtype=np.int64).reshape(-1, 2)
        want_counts = one_shot_frame("ccmine-counts v1", n, ids_and_counts)
        with mock.patch.object(cooc, "_DUMP_ROWS", block):
            assert matrix.dumps() == want_cooc
            assert dumps_counts(occurrence) == want_counts
            matrix.save(scratch / "w.cooc")
            save_counts(scratch / "w.counts", occurrence)
        assert (scratch / "w.cooc").read_bytes() == want_cooc.encode()
        assert (scratch / "w.counts").read_bytes() == want_counts.encode()

    @pytest.mark.parametrize("kind", ["cooc", "counts"])
    def test_save_whose_block_raises_leaves_no_file(self, tmp_path, monkeypatch, kind):
        frame = cooc._frame

        def failing(*args):
            chunks = frame(*args)
            yield next(chunks)
            yield next(chunks)
            raise MemoryError("no room for the next block")

        monkeypatch.setattr(cooc, "_DUMP_ROWS", 1)
        monkeypatch.setattr(cooc, "_frame", failing)
        path = tmp_path / "out.txt"
        with pytest.raises(MemoryError):
            if kind == "cooc":
                cooc_matrix(4, {(0, 1): 2, (0, 3): 1, (2, 3): 5}).save(path)
            else:
                save_counts(path, [3, 0, 7])
        assert list(tmp_path.iterdir()) == []


def whole_text_load(kind, data, path):
    """The loaders this codec replaced, as a reference: ``path``'s bytes
    ``data`` decoded whole, the text framed and checked whole, then the
    loader's own checks; a matrix's triplets or the occurrence counts as
    lists, or the ``FormatError`` message."""
    try:
        text = decode_utf8(data, path)
        header = {"cooc": "ccmine-cooc v1", "counts": "ccmine-counts v1"}[kind]
        dim, rows = whole_text_table(text, header, kind, 2 if kind == "counts" else 3)
        if kind == "counts":
            if len(rows) != dim:
                raise FormatError("counts file row count does not match header dimension")
            bad = np.flatnonzero(rows[:, 0] != np.arange(dim))
            if len(bad):
                raise FormatError(f"bad counts line for row {bad[0]}: {body_line(text, bad[0])!r}")
            bad = np.flatnonzero(rows[:, 1] > MAX_COUNT)
            if len(bad):
                raise FormatError(f"occurrence count out of range: {body_line(text, bad[0])!r}")
            return rows[:, 1].tolist()
        if dim > 2**31:
            raise FormatError(f"cooc dimension {dim} outside [0, {2**31}]")
        i, j, count = rows.T
        bad = np.flatnonzero((j <= i) | (j >= dim))
        if len(bad):
            raise FormatError(f"triplet ids out of order or range: {body_line(text, bad[0])!r}")
        bad = np.flatnonzero((count <= 0) | (count > MAX_COUNT))
        if len(bad):
            raise FormatError(f"triplet count out of range: {body_line(text, bad[0])!r}")
        if np.any((i[1:] < i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] <= j[:-1]))):
            raise FormatError("cooc triplets are not strictly ascending")
        return rows.tolist()
    except FormatError as exc:
        return str(exc)


def body_line(text, row):
    return text.split("\n", row + 2)[row + 1]


def whole_text_table(text, header, kind, width):
    nl = text.find("\n")
    head = text if nl < 0 else text[:nl]
    if not head.startswith(header + " "):
        raise FormatError(f"not a {header} file")
    digits = head[len(header) + 1 :]
    plain = digits.isascii() and digits.isdigit() and len(digits) <= 20
    if not plain or str(int(digits)) != digits:
        raise FormatError(f"bad dimension in {kind} header")
    start = len(head) + 1
    end = text.rfind("\n", 0, -1) + 1
    if end < start or not text.endswith("\n") or not text.startswith("#sha256:", end):
        raise FormatError(f"missing sha256 trailer in {kind} file")
    body = text[start:end].encode("utf-8")
    if text[end + len("#sha256:") : -1] != hashlib.sha256(body).hexdigest():
        raise FormatError(f"{kind} file digest mismatch; file is corrupt or edited")
    bad = cooc._first_bad_row(body, width)
    if bad is not None:
        raise FormatError(f"bad {kind} line for row {bad}: {body_line(text, bad)!r}")
    return int(digits), np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, width)


def block_load(kind, path):
    """What the block reader makes of the file at ``path``, as
    ``whole_text_load`` gives it."""
    try:
        if kind == "counts":
            occurrence = load_counts(path)
            assert occurrence.dtype == np.int64
            return occurrence.tolist()
        matrix = CoocMatrix.load(path)
        return np.stack([matrix.i, matrix.j, matrix.count], axis=1).tolist()
    except FormatError as exc:
        return str(exc)


@st.composite
def artifact_bytes(draw):
    """The bytes of a drawn cooc or counts text, sometimes with bytes that
    are not UTF-8 dropped in."""
    if draw(st.booleans()):
        dim, body = draw(cooc_texts())
        if body and not body.endswith("\n"):
            body += "\n"
        text = framed_cooc(dim, body)
    else:
        _, text = draw(framed_tables())
    data = text.encode("utf-8")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return data


class TestBlockReader:
    @settings(max_examples=500, deadline=None)
    @given(data=artifact_bytes(), read=st.integers(1, 9), rows=st.integers(1, 3))
    @example(data=b"ccmine-cooc v1 2\n\xff\n", read=1, rows=1)
    @example(data=b"", read=1, rows=1)
    @example(data=framed_counts(0, "").encode(), read=2, rows=1)
    def test_same_arrays_or_same_error_as_whole_text(self, scratch, data, read, rows):
        # reads of a few bytes cut inside lines, the header and the trailer;
        # blocks of a few rows cut the id, count and order checks
        path = scratch / "r.txt"
        path.write_bytes(data)
        with mock.patch.multiple(cooc, _READ_BYTES=read, _DUMP_ROWS=rows):
            for kind in ("cooc", "counts"):
                assert block_load(kind, path) == whole_text_load(kind, data, path)

    def test_three_byte_reads_load_the_file(self, tmp_path):
        matrix = cooc_matrix(4, {(0, 1): 2, (0, 3): 1, (2, 3): 5})
        path = tmp_path / "m.cooc"
        with mock.patch.object(cooc, "_READ_BYTES", 3):
            assert load_kind("cooc", matrix.dumps(), path) == matrix
            dim, rows = read_table(path, "ccmine-cooc v1", "cooc", 3)
        assert dim == 4 and rows.tolist() == [[0, 1, 2], [0, 3, 1], [2, 3, 5]]


    @pytest.mark.parametrize(
        "kind,text,want",
        [
            ("cooc", valid_text("cooc"), [[0, 1, 2], [0, 3, 1], [2, 3, 5]]),
            ("counts", valid_text("counts"), [3, 0, 7]),
            # the error quotes its line, read again from the pipe's bytes
            ("cooc", framed_cooc(3, "0\t1\t1\n2\t1\t1\n"),
             "triplet ids out of order or range: '2\\t1\\t1'"),
        ],
    )
    def test_load_reads_a_pipe(self, tmp_path, kind, text, want):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(text.encode(),))
        writer.start()
        try:
            assert block_load(kind, pipe) == want
        finally:
            writer.join()


def transient(fn, kept=lambda result: 0):
    """The ``tracemalloc`` peak while ``fn`` ran, less what it held before
    and ``kept(result)``, the bytes of what it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - before - kept(result)
    finally:
        tracemalloc.stop()


class TestCodecMemory:
    @staticmethod
    def matrix(pairs):
        dim = 1 << 11
        rng = np.random.default_rng(pairs)
        keys = np.unique(rng.integers(0, dim * dim, size=3 * pairs))
        keys = keys[keys // dim < keys % dim][:pairs]
        return CoocMatrix._from_codes(dim, keys, rng.integers(1, MAX_COUNT, size=pairs))

    def test_save_and_load_transients_do_not_grow_with_the_file(self, tmp_path):
        got = {}
        for pairs in (20_000, 200_000):
            matrix, path = self.matrix(pairs), tmp_path / f"{pairs}.cooc"
            saved = transient(lambda: matrix.save(path))
            del matrix
            arrays = lambda m: m.i.nbytes + m.j.nbytes + m.count.nbytes  # noqa: E731
            loaded = transient(lambda: CoocMatrix.load(path), arrays)
            got[pairs] = saved, loaded
        # a block of rows and a block of bytes, whatever the file's size:
        # whole-file transients are 10 times larger at 200k pairs
        (small_save, small_load), (large_save, large_load) = got[20_000], got[200_000]
        assert large_save < small_save + 2**16 and large_save < 2**21, got
        assert large_load < small_load + 2**16 and large_load < 2**21, got


class TestCountingMemory:
    def test_from_codes_allocates_one_array(self):
        # j is split off into one new array; i is divided out of the codes
        # in place, and the counts are kept as given
        n, dim = 200_000, 1 << 12
        rng = np.random.default_rng(5)
        keys = np.unique(rng.integers(0, dim * dim, size=2 * n))
        keys = keys[keys // dim < keys % dim][:n]
        want_i, want_j = np.divmod(keys, dim)
        counts = rng.integers(1, 1000, size=len(keys))
        grew = transient(lambda: CoocMatrix._from_codes(dim, keys, counts))
        assert grew <= keys.nbytes + 2**12, grew
        matrix = CoocMatrix._from_codes(dim, want_i * dim + want_j, counts)
        assert np.array_equal(matrix.i, want_i) and np.array_equal(matrix.j, want_j)
        assert matrix.count is counts

    @pytest.mark.parametrize("parts", [1, 4])
    def test_fold_transient_follows_what_it_keeps(self, parts):
        # about 200k running sums and as many pending codes: a fold that
        # concatenates the sums with the parts and sorts the lot peaked at
        # 2.04-2.05 times the bytes it kept; summing the parts and merging
        # them into the sums peaks at 0.53 (one part) and 1.04 (four parts)
        rng = np.random.default_rng(parts)

        def run(n):
            keys = np.unique(rng.integers(0, 1 << 22, size=n))
            return keys, rng.integers(1, 1000, size=len(keys))

        sums = cooc._PairSums()
        sums.add(*run(200_000))
        sums.fold()
        for _ in range(parts):
            sums.add(*run(200_000 // parts))
        arrays = lambda result: result[0].nbytes + result[1].nbytes  # noqa: E731
        grew = transient(sums.fold, arrays)
        assert grew < 1.5 * arrays((sums.keys, sums.counts)), grew
