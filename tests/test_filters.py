"""Candidate filtering: stop-words, visibility, semantic similarity."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from ccmine.embed import EmbeddingTable
from ccmine.errors import CCMineError, FormatError, MissingEmbeddingError, ValidationError
from ccmine.filters import (
    FilterConfig,
    VisibilityTable,
    accept_unknown,
    filter_rows,
    reject_unknown,
)

from conftest import cosine, filter_one, split_masks


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
        config = FilterConfig(stopwords=frozenset({"Dock"}))
        outcome = filter_one(["boat", "dock"], "t", axis_table(["t", "boat"]), config=config)
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

    def test_oracle_result_cached_in_table(self):
        table = VisibilityTable()
        outcome = filter_one(["fog"], "t", axis_table(["t"]), table, oracle=lambda c: False)
        assert outcome.kept == []
        assert outcome.removed_invisible == ["fog"]
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
        outcome = filter_one(["ship"], "boat", table, config=FilterConfig(delta=exactly))
        assert outcome.kept == ["ship"]

    def test_missing_embedding_named(self):
        with pytest.raises(MissingEmbeddingError, match="fog"):
            filter_one(["water", "fog"], "boat", two_d_table())
        # a candidate an earlier stage removed needs no embedding
        assert filter_one(["photo"], "boat", two_d_table()).removed_stopword == ["photo"]


class TestPipeline:
    def test_documented_example(self, toy_embeddings, toy_visibility):
        outcome = filter_one(
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
