"""Candidate filtering: stop-words, visibility, semantic similarity."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmine.embed import EmbeddingTable
from ccmine.errors import CCMineError, FormatError, MissingEmbeddingError, ValidationError
from ccmine.filters import VisibilityTable, accept_unknown, filter_rows, reject_unknown

from conftest import cosine, filter_one, near_tables, split_masks, traced_peak


def two_d_table():
    return EmbeddingTable(
        ["boat", "ship", "water", "liberty"],
        np.array(
            [
                [1.0, 0.0],
                [0.9903, 0.1392],
                [0.0, 1.0],
                [0.5, 0.5],
            ]
        ),
    )


def axis_table(names):
    """Pairwise orthogonal embeddings: no pair is similar at any delta >= 0."""
    return EmbeddingTable(list(names), np.eye(len(names)))


class TestStopwords:
    def test_defaults(self):
        candidates = ["photo", "boat", "image", "view", "picture", "dock"]
        outcome = filter_one(candidates, "t", axis_table(["t", "boat", "dock"]))
        assert outcome.kept == ["boat", "dock"]
        assert outcome.removed_stopword == ["photo", "image", "view", "picture"]

    def test_custom_set(self):
        stopwords = frozenset({"Dock"})
        outcome = filter_one(["boat", "dock"], "t", axis_table(["t", "boat"]), stopwords=stopwords)
        assert outcome.kept == ["boat"]
        assert outcome.removed_stopword == ["dock"]

    def test_order_preserved(self):
        outcome = filter_one(["z", "image", "a"], "t", axis_table(["t", "z", "a"]))
        assert outcome.kept == ["z", "a"]


class TestVisibilityTable:
    def test_get_and_set(self):
        table = VisibilityTable()
        table.set("boat", True, "manual")
        assert table.get("boat") is True
        assert table.get("fog") is None

    def test_set_rejects_unknown_source(self):
        with pytest.raises(ValidationError):
            VisibilityTable().set("boat", True, "dream")

    def test_resolve_uses_oracle_once(self):
        calls = []

        def oracle(concept):
            calls.append(concept)
            return False

        table = VisibilityTable()
        assert table.resolve("liberty", oracle, source="llm") is False
        assert table.resolve("liberty", oracle, source="llm") is False
        assert calls == ["liberty"]

    def test_resolve_is_atomic_under_threads(self):
        calls = []
        gate = threading.Barrier(8)

        def oracle(concept):
            calls.append(concept)
            return True

        table = VisibilityTable({})

        def worker():
            gate.wait()
            table.resolve("boat", oracle)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert calls == ["boat"]

    def test_file_roundtrip(self, tmp_path, toy_visibility):
        path = tmp_path / "vis.jsonl"
        toy_visibility.save(path)
        loaded = VisibilityTable.from_file(path)
        assert loaded.get("liberty") is False
        assert loaded.get("boat") is True
        assert len(loaded) == len(toy_visibility)

    def test_file_sorted_by_concept(self, tmp_path, toy_visibility):
        path = tmp_path / "vis.jsonl"
        toy_visibility.save(path)
        concepts = [json.loads(line)["concept"] for line in path.read_text().splitlines()]
        assert concepts == sorted(concepts)

    def test_from_file_rejects_bad_source(self, tmp_path):
        path = tmp_path / "vis.jsonl"
        path.write_text('{"concept": "boat", "visible": true, "source": "dream"}\n')
        with pytest.raises(FormatError):
            VisibilityTable.from_file(path)

    def test_from_file_rejects_a_repeated_key(self, tmp_path):
        # plain json would read the last "visible", false
        path = tmp_path / "vis.jsonl"
        path.write_text(
            '{"concept": "sky", "visible": true, "source": "manual"}\n'
            '{"concept": "boat", "visible": true, "source": "manual", "visible": false}\n'
        )
        with pytest.raises(FormatError, match="^visibility table line 2 repeats the key 'visible'$"):
            VisibilityTable.from_file(path)

    def test_from_file_rejects_duplicate(self, tmp_path):
        path = tmp_path / "vis.jsonl"
        row = '{"concept": "boat", "visible": true, "source": "manual"}\n'
        path.write_text(row + row)
        with pytest.raises(FormatError):
            VisibilityTable.from_file(path)


class TestAbstractFilter:
    def test_known_invisible_removed(self):
        table = VisibilityTable({"liberty": (False, "manual"), "boat": (True, "manual")})
        outcome = filter_one(["liberty", "boat"], "t", axis_table(["t", "boat"]), table)
        assert outcome.kept == ["boat"]
        assert outcome.removed_invisible == ["liberty"]
        assert outcome.unresolved_kept == []

    def test_unknown_without_oracle_kept_and_flagged(self):
        outcome = filter_one(["fog"], "t", axis_table(["t", "fog"]))
        assert outcome.kept == ["fog"]
        assert outcome.unresolved_kept == ["fog"]

    def test_oracle_failure_is_fail_open(self):
        def oracle(concept):
            raise CCMineError("oracle offline")

        outcome = filter_one(["fog"], "t", axis_table(["t", "fog"]), oracle=oracle)
        assert outcome.kept == ["fog"]
        assert outcome.unresolved_kept == ["fog"]

    def test_failed_oracle_asked_once_per_concept(self):
        calls = []

        def oracle(concept):
            calls.append(concept)
            raise CCMineError("oracle offline")

        # two targets share both unknown candidates
        names = ["t1", "t2", "fog", "mist"]
        row = np.array([0, 0, 1, 1])
        col = np.array([2, 3, 3, 2])
        masks = filter_rows(names, 2, row, col, axis_table(names), VisibilityTable(), oracle=oracle)
        outcomes = split_masks(names, 2, row, col, masks)
        assert [o.kept for o in outcomes] == [["fog", "mist"], ["mist", "fog"]]
        assert [o.unresolved_kept for o in outcomes] == [["fog", "mist"], ["mist", "fog"]]
        assert calls == ["fog", "mist"]

    def test_filters_do_not_write_the_table(self):
        # a policy's answer is no finding: a later run may still ask about it
        table = VisibilityTable()
        outcome = filter_one(["fog"], "t", axis_table(["t"]), table, oracle=lambda c: False)
        assert outcome.kept == []
        assert outcome.removed_invisible == ["fog"]
        assert "fog" not in table

    def test_oracle_result_cached_in_table(self):
        # an oracle that caches, as the command line's LLM oracle does
        table = VisibilityTable()
        calls = []

        def ask(concept):
            calls.append(concept)
            return False

        def oracle(concept):
            return table.resolve(concept, ask, source="llm")

        for _ in range(2):
            outcome = filter_one(["fog"], "t", axis_table(["t"]), table, oracle=oracle)
            assert outcome.removed_invisible == ["fog"]
        assert calls == ["fog"]
        assert table.get("fog") is False

    def test_policy_oracles(self):
        assert reject_unknown("fog") is False
        assert accept_unknown("fog") is True


class TestSemanticFilter:
    def test_near_synonym_removed(self):
        outcome = filter_one(["ship", "water"], "boat", two_d_table())
        assert outcome.kept == ["water"]
        assert outcome.removed_similar == ["ship"]

    def test_equality_survives(self):
        table = two_d_table()
        exactly = cosine(table.vector("ship"), table.vector("boat"))
        outcome = filter_one(["ship"], "boat", table, delta=exactly)
        assert outcome.kept == ["ship"]

    def test_missing_embedding_named(self):
        with pytest.raises(MissingEmbeddingError, match="fog"):
            filter_one(["water", "fog"], "boat", two_d_table())
        # a candidate an earlier stage removed needs no embedding
        assert filter_one(["photo"], "boat", two_d_table()).removed_stopword == ["photo"]


def first_missing(names, targets, row, col, live, table):
    """The concept a missing embedding error names: in row order, each
    row's target before its live candidates."""
    for r in range(targets):
        if names[r] not in table:
            return names[r]
        for p in np.flatnonzero(row == r).tolist():
            if live[p] and names[col[p]] not in table:
                return names[col[p]]
    return None


class TestSemanticStageAgainstPairOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_similar_is_each_pairs_cosine_above_delta(self, data):
        names = [f"c{k}" for k in range(data.draw(st.integers(1, 8)))]
        targets = data.draw(st.integers(1, len(names)))
        row = np.array(
            sorted(data.draw(st.lists(st.integers(0, targets - 1), max_size=24))), dtype=np.int64
        )
        col = np.array([data.draw(st.integers(0, len(names) - 1)) for _ in row], dtype=np.int64)
        table = data.draw(near_tables(names))
        stopwords = frozenset(data.draw(st.sets(st.sampled_from(names), max_size=2)))
        visible = {name: data.draw(st.sampled_from([True, True, False])) for name in names}
        live = [names[c] not in stopwords and visible[names[c]] for c in col.tolist()]
        compared = [
            (names[r], names[c])
            for r, c, keep in zip(row.tolist(), col.tolist(), live)
            if keep and names[r] in table and names[c] in table
        ]
        delta = data.draw(st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 0.5, 0.99, 1.0])))
        if delta is None:
            # exactly the cosine of a pair the stage compares
            pair = data.draw(st.sampled_from(compared or [None]))
            delta = cosine(table.vector(pair[0]), table.vector(pair[1])) if pair else 0.5
        visibility = VisibilityTable({name: (v, "manual") for name, v in visible.items()})
        missing = first_missing(names, targets, row, col, live, table)
        if missing is not None:
            with pytest.raises(MissingEmbeddingError) as exc:
                filter_rows(names, targets, row, col, table, visibility, stopwords)
            assert exc.value.concept == missing
            return
        masks = filter_rows(names, targets, row, col, table, visibility, stopwords)
        assert len(masks.cosine) == sum(live)
        similar, kept = masks.semantic(delta)
        for p, (r, c) in enumerate(zip(row.tolist(), col.tolist())):
            want = live[p] and cosine(table.vector(names[r]), table.vector(names[c])) > delta
            assert similar[p] == want
            assert kept[p] == (live[p] and not want)

    def test_transient_peak_does_not_grow_with_pairs(self):
        rng = np.random.default_rng(3)
        names = [f"c{k}" for k in range(64)]
        table = EmbeddingTable(names, rng.standard_normal((len(names), 512)))
        visibility = VisibilityTable({name: (True, "manual") for name in names})

        def peak(pairs: int) -> int:
            # four targets, so each one's run of pairs outgrows a gather
            row = np.sort(rng.integers(0, 4, pairs))
            col = rng.integers(0, len(names), pairs)
            _, peak = traced_peak(
                lambda: filter_rows(names, len(names), row, col, table, visibility)
            )
            return peak

        peak(100)  # first-call caches out of the way
        small, large = peak(2_000), peak(8_000)
        # the stage masks and index arrays take tens of bytes per pair;
        # gathering both 512-d float64 vectors of every pair would take 8 KiB
        assert large - small < 6_000 * 256


class TestPipeline:
    def test_documented_example(self, toy_embeddings, toy_visibility):
        outcome = filter_one(
            ["photo", "ship", "water", "liberty"],
            "boat",
            toy_embeddings,
            toy_visibility,
        )
        assert outcome.kept == ["water"]
        assert outcome.removed_stopword == ["photo"]
        assert outcome.removed_invisible == ["liberty"]
        assert outcome.removed_similar == ["ship"]
        assert outcome.unresolved_kept == []

    def test_stage_order_stopword_before_visibility(self, toy_embeddings):
        # "photo" is both a stop-word and absent from the table; the
        # stop-word stage must claim it before visibility sees it.
        outcome = filter_one(["photo"], "boat", toy_embeddings, VisibilityTable({}))
        assert outcome.removed_stopword == ["photo"]
        assert outcome.unresolved_kept == []

    def test_contraction(self, toy_embeddings, toy_visibility):
        candidates = ["photo", "ship", "water", "liberty", "dock", "sunset"]
        outcome = filter_one(candidates, "boat", toy_embeddings, toy_visibility)
        it = iter(candidates)
        assert all(c in it for c in outcome.kept)
        buckets = (
            outcome.kept
            + outcome.removed_stopword
            + outcome.removed_invisible
            + outcome.removed_similar
        )
        assert sorted(buckets) == sorted(candidates)
