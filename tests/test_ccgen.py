"""Contrastive concept sources and multi-query merging."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ccmine.ccgen import (
    CCDictionary,
    CCSet,
    build_dictionary,
    build_timestamp,
    cc_bg,
    cc_d,
    cc_llm,
    cc_multi,
    cc_none,
    cc_privileged,
)
from ccmine.cooc import mine_corpus
from ccmine.embed import EmbeddingTable
from ccmine.errors import FormatError, ValidationError
from ccmine.filters import VisibilityTable
from ccmine.llm import LLMClient

from conftest import EXPECTED_DICT_G001, EXPECTED_DICT_G099


def stub_client(tmp_path, text):
    return LLMClient(
        endpoint="http://localhost:0/v1/completions",
        transport=lambda url, payload, timeout: (200, json.dumps({"text": text})),
        sleep=lambda s: None,
        cache_dir=tmp_path / "cache",
    )


class TestSimpleSources:
    def test_bg(self):
        got = cc_bg("Boat ")
        assert got == CCSet(query="boat", kind="bg", concepts=["background"])

    def test_bg_rejects_background_query(self):
        with pytest.raises(ValidationError):
            cc_bg("background")

    def test_none(self):
        assert cc_none("boat").concepts == []

    def test_privileged(self):
        got = cc_privileged("car", ["car", "road", "sky"])
        assert got.concepts == ["road", "sky"]

    def test_privileged_query_absent(self):
        got = cc_privileged("boat", ["car", "road"])
        assert got.concepts == ["car", "road"]

    def test_privileged_single_class(self):
        assert cc_privileged("car", ["car"]).concepts == []

    def test_empty_query_rejected(self):
        for fn in (cc_bg, cc_none):
            with pytest.raises(ValidationError):
                fn("  ")


class TestCCLLM:
    def test_documented_row(self, tmp_path):
        client = stub_client(tmp_path, "bicycle, road, nature, park")
        got = cc_llm("rider", client)
        assert got.concepts == ["background", "bicycle", "road", "nature", "park"]
        assert got.kind == "llm"

    def test_echoed_query_removed(self, tmp_path):
        client = stub_client(tmp_path, "car, rider, tree, background")
        got = cc_llm("rider", client)
        assert got.concepts == ["background", "car", "tree"]

    def test_background_query_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            cc_llm("background", stub_client(tmp_path, "x"))


class TestDictionaryBuild:
    def build(self, corpus_path, lexicon, embeddings, visibility, **kwargs):
        matrix, stats = mine_corpus(corpus_path, lexicon)
        return build_dictionary(
            matrix, stats.occurrence, lexicon, embeddings, visibility, **kwargs
        )

    def test_toy_dictionary_defaults(
        self, toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility
    ):
        dictionary, outcomes = self.build(
            toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility
        )
        assert dictionary.cc == EXPECTED_DICT_G001
        assert outcomes["boat"].removed_similar == ["trailer"]
        assert outcomes["cat"].removed_stopword == ["photo"]

    def test_toy_dictionary_high_gamma(
        self, toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility
    ):
        dictionary, _ = self.build(
            toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility, gamma=0.99
        )
        assert dictionary.cc == EXPECTED_DICT_G099

    def test_meta_fields(
        self, toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility
    ):
        dictionary, _ = self.build(
            toy_corpus_path,
            toy_lexicon,
            toy_embeddings,
            toy_visibility,
            extra_meta={"lexicon_digest": "abc"},
        )
        assert dictionary.meta["gamma"] == 0.01
        assert dictionary.meta["delta"] == 0.8
        assert dictionary.meta["built_at"] == "1970-01-01T00:00:00Z"
        assert dictionary.meta["lexicon_digest"] == "abc"

    def test_dumps_deterministic(
        self, toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility
    ):
        a, _ = self.build(toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility)
        b, _ = self.build(toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility)
        assert a.dumps() == b.dumps()

    def test_unknown_visibility_fail_open(
        self, toy_corpus_path, toy_lexicon, toy_embeddings
    ):
        dictionary, outcomes = self.build(
            toy_corpus_path, toy_lexicon, toy_embeddings, VisibilityTable({})
        )
        assert dictionary.cc == EXPECTED_DICT_G001
        assert outcomes["boat"].unresolved_kept == ["dock", "sunset", "water"]


class TestDictionaryIO:
    def test_roundtrip(self, tmp_path):
        d = CCDictionary({"boat": ["water"]}, {"gamma": 0.01})
        path = tmp_path / "cc.json"
        d.save(path)
        loaded = CCDictionary.load(path)
        assert loaded.cc == d.cc
        assert loaded.meta == d.meta

    def test_keys_normalized(self):
        d = CCDictionary({" Boat ": ["  Water", "DOCK"]})
        assert d.get("boat") == ["water", "dock"]

    def test_get_returns_copy(self):
        d = CCDictionary({"boat": ["water"]})
        d.get("boat").append("x")
        assert d.get("boat") == ["water"]

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            '{"meta": {}}',
            '{"cc": []}',
            '{"cc": {"boat": "water"}}',
            '{"cc": {"boat": [1]}}',
            '{"cc": {}, "meta": []}',
            "not json",
        ],
    )
    def test_loads_rejects_malformed(self, payload):
        with pytest.raises(FormatError):
            CCDictionary.loads(payload)

    def test_lexicon_table_restricted_and_cached(self, toy_embeddings):
        d = CCDictionary({"boat": [], "water": []})
        sub = d.lexicon_table(toy_embeddings)
        assert list(sub.names) == ["boat", "water"]
        assert d.lexicon_table(toy_embeddings) is sub

    def test_lexicon_table_not_reused_for_a_new_table(self):
        # each table is dropped before the next is made, so CPython tends to
        # hand the new one the freed table's id
        d = CCDictionary({"boat": [], "water": []})
        for k in range(1, 30):
            table = EmbeddingTable(["boat", "water"], [[1.0, float(k)], [float(k), 1.0]])
            sub = d.lexicon_table(table)
            assert np.allclose(sub.vector("boat"), table.vector("boat"))
            del table, sub


class TestCCD:
    @pytest.fixture
    def dictionary(self):
        return CCDictionary({k: list(v) for k, v in EXPECTED_DICT_G001.items()})

    def test_lexicon_member(self, dictionary, toy_embeddings):
        got = cc_d("boat", dictionary, toy_embeddings)
        assert got.concepts == ["background", "dock", "sunset", "water"]
        assert got.source_concept == "boat"

    def test_background_not_duplicated(self, toy_embeddings):
        d = CCDictionary({"boat": ["background", "water"]})
        got = cc_d("boat", d, toy_embeddings)
        assert got.concepts == ["background", "water"]

    def test_nearest_neighbor_generalization(self, dictionary, toy_embeddings):
        class FakeProvider:
            def embed(self, text):
                assert text == "ferry"
                return np.array([0.99, 0.1, 0.0])

        got = cc_d("ferry", dictionary, toy_embeddings, provider=FakeProvider())
        assert got.source_concept == "boat"
        assert got.concepts == ["background", "dock", "sunset", "water"]

    def test_unknown_query_needs_provider(self, dictionary, toy_embeddings):
        with pytest.raises(ValidationError, match="provider"):
            cc_d("ferry", dictionary, toy_embeddings)

    def test_empty_dictionary_rejected(self, toy_embeddings):
        with pytest.raises(ValidationError):
            cc_d("boat", CCDictionary({}), toy_embeddings)

    def test_background_query_rejected(self, dictionary, toy_embeddings):
        with pytest.raises(ValidationError):
            cc_d("background", dictionary, toy_embeddings)


def multi_table():
    return EmbeddingTable(
        ["dog", "cat", "puppy", "bone", "lure"],
        np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.95, 0.31224989991991992, 0.0],
                [0.6, 0.0, 0.8],
                [0.15, 0.95, 0.27386127875258304],
            ]
        ),
    )


class TestCCMulti:
    def test_near_query_concept_excluded(self):
        sets = [
            CCSet("dog", "llm", ["puppy", "bone", "cat"]),
            CCSet("cat", "llm", ["bone"]),
        ]
        kept, excluded = cc_multi(sets, multi_table(), beta=0.9)
        assert kept == ["bone"]
        assert excluded == ["puppy", "cat"]

    def test_boundary_is_inclusive(self):
        from ccmine.embed import cosine

        table = multi_table()
        exactly = cosine(table.vector("puppy"), table.vector("dog"))
        sets = [CCSet("dog", "llm", ["puppy"])]
        kept, _ = cc_multi(sets, table, beta=exactly)
        assert kept == ["puppy"]

    def test_scope_all_vs_source(self):
        # "lure" comes only from dog's set; dog admits it, cat does not
        sets = [
            CCSet("dog", "llm", ["lure"]),
            CCSet("cat", "llm", []),
        ]
        kept_all, excluded_all = cc_multi(sets, multi_table(), beta=0.9, scope="all")
        assert kept_all == []
        assert excluded_all == ["lure"]
        kept_src, excluded_src = cc_multi(sets, multi_table(), beta=0.9, scope="source")
        assert kept_src == ["lure"]
        assert excluded_src == []

    def test_scope_source_union_semantics(self):
        # contributed by both queries; one admitting source suffices
        sets = [
            CCSet("cat", "llm", ["lure"]),
            CCSet("dog", "llm", ["lure"]),
        ]
        kept, _ = cc_multi(sets, multi_table(), beta=0.9, scope="source")
        assert kept == ["lure"]

    def test_first_seen_order(self):
        sets = [
            CCSet("dog", "llm", ["bone", "lure"]),
            CCSet("cat", "llm", ["lure", "bone"]),
        ]
        kept, _ = cc_multi(sets, multi_table(), beta=0.99)
        assert kept == ["bone", "lure"]

    def test_duplicate_queries_rejected(self):
        sets = [CCSet("dog", "llm", []), CCSet("dog", "bg", [])]
        with pytest.raises(ValidationError):
            cc_multi(sets, multi_table())

    def test_bad_scope_rejected(self):
        with pytest.raises(ValidationError):
            cc_multi([CCSet("dog", "llm", [])], multi_table(), scope="any")


class TestBuildTimestamp:
    def test_default_epoch_zero(self, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        assert build_timestamp() == "1970-01-01T00:00:00Z"

    def test_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
        assert build_timestamp() == "1970-01-02T00:00:00Z"

    def test_invalid_epoch_rejected(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "soon")
        with pytest.raises(ValidationError):
            build_timestamp()
