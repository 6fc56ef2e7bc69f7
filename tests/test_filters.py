"""Candidate filtering: stop-words, visibility, semantic similarity."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from ccmine.embed import EmbeddingTable
from ccmine.errors import CCMineError, FormatError, ValidationError
from ccmine.filters import (
    DEFAULT_STOPWORDS,
    FilterConfig,
    FilterOutcome,
    VisibilityTable,
    accept_unknown,
    filter_abstract,
    filter_semantic,
    reject_unknown,
    remove_stopwords,
    run_pipeline,
)


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


class TestStopwords:
    def test_defaults(self):
        assert remove_stopwords(
            ["photo", "boat", "image", "view", "picture", "dock"], DEFAULT_STOPWORDS
        ) == ["boat", "dock"]

    def test_custom_set(self):
        assert remove_stopwords(["boat", "dock"], frozenset({"dock"})) == ["boat"]

    def test_order_preserved(self):
        kept = remove_stopwords(["z", "image", "a"], DEFAULT_STOPWORDS)
        assert kept == ["z", "a"]


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

    def test_from_file_rejects_duplicate(self, tmp_path):
        path = tmp_path / "vis.jsonl"
        row = '{"concept": "boat", "visible": true, "source": "manual"}\n'
        path.write_text(row + row)
        with pytest.raises(FormatError):
            VisibilityTable.from_file(path)


class TestAbstractFilter:
    def test_known_invisible_removed(self):
        table = VisibilityTable({"liberty": (False, "manual"), "boat": (True, "manual")})
        outcome = FilterOutcome()
        kept = filter_abstract(["liberty", "boat"], table, outcome=outcome)
        assert kept == ["boat"]
        assert outcome.removed_invisible == ["liberty"]

    def test_unknown_without_oracle_kept_and_flagged(self):
        outcome = FilterOutcome()
        kept = filter_abstract(["fog"], VisibilityTable({}), outcome=outcome)
        assert kept == ["fog"]
        assert outcome.unresolved_kept == ["fog"]

    def test_oracle_failure_is_fail_open(self):
        def oracle(concept):
            raise CCMineError("oracle offline")

        outcome = FilterOutcome()
        kept = filter_abstract(["fog"], VisibilityTable({}), oracle=oracle, outcome=outcome)
        assert kept == ["fog"]
        assert outcome.unresolved_kept == ["fog"]

    def test_failed_oracle_asked_once_per_concept(self):
        calls = []

        def oracle(concept):
            calls.append(concept)
            raise CCMineError("oracle offline")

        outcome = FilterOutcome()
        candidates = ["fog", "mist", "Fog"]
        kept = filter_abstract(candidates, VisibilityTable({}), oracle=oracle, outcome=outcome)
        assert kept == candidates
        assert outcome.unresolved_kept == candidates
        assert calls == ["fog", "mist"]

    def test_oracle_result_cached_in_table(self):
        table = VisibilityTable()
        kept = filter_abstract(["fog"], table, oracle=lambda c: False)
        assert kept == []
        assert table.get("fog") is False

    def test_policy_oracles(self):
        assert reject_unknown("fog") is False
        assert accept_unknown("fog") is True


class TestSemanticFilter:
    def test_near_synonym_removed(self):
        outcome = FilterOutcome()
        kept = filter_semantic(["ship", "water"], "boat", two_d_table(), 0.8, outcome)
        assert kept == ["water"]
        assert outcome.removed_similar == ["ship"]

    def test_equality_survives(self):
        table = two_d_table()
        from ccmine.embed import cosine

        exactly = cosine(table.vector("ship"), table.vector("boat"))
        kept = filter_semantic(["ship"], "boat", table, exactly, FilterOutcome())
        assert kept == ["ship"]


class TestPipeline:
    def test_documented_example(self, toy_embeddings, toy_visibility):
        outcome = run_pipeline(
            ["photo", "ship", "water", "liberty"],
            "boat",
            toy_embeddings,
            toy_visibility,
            FilterConfig(),
        )
        assert outcome.kept == ["water"]
        assert outcome.removed_stopword == ["photo"]
        assert outcome.removed_invisible == ["liberty"]
        assert outcome.removed_similar == ["ship"]
        assert outcome.unresolved_kept == []

    def test_stage_order_stopword_before_visibility(self, toy_embeddings):
        # "photo" is both a stop-word and absent from the table; the
        # stop-word stage must claim it before visibility sees it.
        outcome = run_pipeline(
            ["photo"], "boat", toy_embeddings, VisibilityTable({}), FilterConfig()
        )
        assert outcome.removed_stopword == ["photo"]
        assert outcome.unresolved_kept == []

    def test_contraction(self, toy_embeddings, toy_visibility):
        candidates = ["photo", "ship", "water", "liberty", "dock", "sunset"]
        outcome = run_pipeline(
            candidates, "boat", toy_embeddings, toy_visibility, FilterConfig()
        )
        it = iter(candidates)
        assert all(c in it for c in outcome.kept)
        buckets = (
            outcome.kept
            + outcome.removed_stopword
            + outcome.removed_invisible
            + outcome.removed_similar
        )
        assert sorted(buckets) == sorted(candidates)
