"""Contrastive concept sources and multi-query merging."""

from __future__ import annotations

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmine.ccgen import (
    DEFAULT_GAMMA,
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
    cc_reach,
)
from ccmine.cooc import mine_corpus, normalize
from ccmine.corpus import Lexicon, normalize_concept
from ccmine.embed import EmbeddingTable
from ccmine.errors import CCMineError, FormatError, MissingEmbeddingError, ValidationError
from ccmine.filters import DEFAULT_STOPWORDS, VisibilityTable, filter_rows
from ccmine.llm import LLMClient

from conftest import (
    EXPECTED_DICT_G001,
    EXPECTED_DICT_G099,
    TOY_VECTORS,
    StageLists,
    cc_dictionary_loads_by_entry,
    cooc_matrix,
    cosine,
    near_tables,
    pair_counts,
    split_masks,
)


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


class TestQueryCheck:
    """The five generators refuse an empty query, and three of them the
    background word, each with its own message."""

    @staticmethod
    def generators(tmp_path, toy_embeddings) -> dict:
        dictionary = CCDictionary({k: list(v) for k, v in EXPECTED_DICT_G001.items()})
        return {
            "bg": cc_bg,
            "none": cc_none,
            "privileged": partial(cc_privileged, classes=["boat", "background"]),
            "llm": partial(cc_llm, client=stub_client(tmp_path, "tree")),
            "dict": partial(cc_d, dictionary=dictionary, embeddings=toy_embeddings),
        }

    @pytest.mark.parametrize("mode", ["bg", "none", "privileged", "llm", "dict"])
    @pytest.mark.parametrize("query", ["", "  ", " \t\n"])
    def test_empty_query(self, tmp_path, toy_embeddings, mode, query):
        generate = self.generators(tmp_path, toy_embeddings)[mode]
        with pytest.raises(ValidationError) as exc:
            generate(query)
        assert str(exc.value) == "query is empty"

    @pytest.mark.parametrize(
        "mode,message",
        [
            ("bg", '"background" cannot be a query for the background baseline'),
            ("llm", '"background" cannot be a query for LLM generation'),
            ("dict", '"background" cannot be a query for dictionary lookup'),
            ("none", None),
            ("privileged", None),
        ],
    )
    def test_background_query(self, tmp_path, toy_embeddings, mode, message):
        generate = self.generators(tmp_path, toy_embeddings)[mode]
        if message is None:
            assert generate(" Background ").query == "background"
            return
        with pytest.raises(ValidationError) as exc:
            generate(" Background ")
        assert str(exc.value) == message


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
        matrix, occurrence, _ = mine_corpus(corpus_path, lexicon)
        # selected at the smallest gamma, as the command line does
        thresholds = kwargs.get("thresholds", [(DEFAULT_GAMMA, None)])
        gamma = min((gamma for gamma, _ in thresholds), default=0.0)
        candidates = normalize(matrix, occurrence, lexicon, gamma)
        [dictionary] = build_dictionary(candidates, lexicon, embeddings, visibility, **kwargs)
        return dictionary

    def test_toy_dictionary_defaults(
        self, toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility
    ):
        dictionary = self.build(toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility)
        assert dictionary.cc == EXPECTED_DICT_G001
        # photo from cat's list; trailer and boat from each other's
        assert dictionary.meta["filter_counts"] == {
            "candidates": 12,
            "stopword": 1,
            "invisible": 0,
            "similar": 2,
            "kept": 9,
        }

    def test_toy_dictionary_high_gamma(
        self, toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility
    ):
        dictionary = self.build(
            toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility, thresholds=[(0.99, 0.8)]
        )
        assert dictionary.cc == EXPECTED_DICT_G099

    def test_meta_fields(
        self, toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility
    ):
        dictionary = self.build(toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility)
        assert dictionary.meta["gamma"] == 0.01
        assert dictionary.meta["delta"] == 0.8
        assert dictionary.meta["built_at"] == "1970-01-01T00:00:00Z"

    def test_dumps_deterministic(
        self, toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility
    ):
        a = self.build(toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility)
        b = self.build(toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility)
        assert a.dumps() == b.dumps()

    @pytest.mark.parametrize(
        "thresholds", [[], [(float("nan"), 0.8)], [(0.01, 0.8), (0.01, float("inf"))]]
    )
    def test_thresholds_must_be_finite_pairs(
        self, toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility, thresholds
    ):
        with pytest.raises(ValidationError, match="finite"):
            self.build(
                toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility, thresholds=thresholds
            )

    def test_unknown_visibility_fail_open(
        self, toy_corpus_path, toy_lexicon, toy_embeddings
    ):
        dictionary = self.build(toy_corpus_path, toy_lexicon, toy_embeddings, VisibilityTable({}))
        assert dictionary.cc == EXPECTED_DICT_G001
        # with no table entry and no oracle, every kept concept is unresolved
        assert dictionary.meta["unresolved_kept"] == ["boat", "cat", "dock", "sunset", "water"]


# characters json escapes (quotes, backslashes, controls), one it leaves as
# is (U+2028), and non-BMP ones, among any others
_JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\U0001f600\u00e9'), st.characters()),
    max_size=6,
)
# concept strings, normalized or not, that often collide once normalized
_CONCEPTS = st.text(" \tbBé", max_size=4)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_TEXT, inner, max_size=3),
    max_leaves=10,
)


class TestDictionaryIO:
    @settings(max_examples=150, deadline=None)
    @given(
        cc=st.dictionaries(_JSON_TEXT, st.lists(_JSON_TEXT, max_size=4), max_size=5),
        meta=st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=4),
    )
    def test_dumps_is_json_dumps_with_indent(self, cc, meta):
        d = CCDictionary(cc, meta)  # as given: only loads normalizes
        want = json.dumps({"meta": meta, "cc": cc}, ensure_ascii=False, sort_keys=True, indent=2)
        assert d.dumps() == want + "\n"

    def test_roundtrip(self, tmp_path):
        d = CCDictionary({"boat": ["water"]}, {"gamma": 0.01})
        path = tmp_path / "cc.json"
        d.save(path)
        loaded = CCDictionary.load(path)
        assert loaded.cc == d.cc
        assert loaded.meta == d.meta

    def test_keys_normalized(self):
        d = CCDictionary.loads(json.dumps({"cc": {" Boat ": ["  Water", "DOCK"]}}))
        assert d.get("boat") == ["water", "dock"]

    @pytest.mark.parametrize(
        "cc",
        [
            {k: list(v) for k, v in EXPECTED_DICT_G001.items()},
            {" Boat ": ["  Water", "DOCK"], "WATER": [" BOAT"], "dock": []},
        ],
    )
    def test_loads_normalizes_as_each_string_alone(self, cc):
        text = json.dumps({"meta": {}, "cc": cc})
        want = {
            normalize_concept(k): [normalize_concept(v) for v in vals] for k, vals in cc.items()
        }
        assert CCDictionary.loads(text).cc == want

    @pytest.mark.parametrize(
        "cc, message",
        [
            ({"Boat": ["water"], "boat": ["sky"]}, "repeats concept 'boat' once normalized"),
            ({"dock": [], "boat": ["Water", "water"]}, "entry 'boat' lists 'water' twice"),
            ({"boat": ["sky", "water", "sky"]}, "entry 'boat' lists 'sky' twice"),
        ],
    )
    def test_loads_rejects_a_repeated_concept(self, cc, message):
        # merged entries, or a repeat in a list, would lose a list or give
        # cc_d a prompt label twice
        with pytest.raises(FormatError, match=message):
            CCDictionary.loads(json.dumps({"cc": cc}))

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"cc": {"boat": ["water"], "boat": ["sky"]}}', "boat"),
            ('{"cc": {}, "cc": {"boat": []}}', "cc"),
            ('{"cc": {}, "meta": {"gamma": 0.1, "gamma": 0.2}}', "gamma"),
        ],
    )
    @pytest.mark.parametrize("loads", [CCDictionary.loads, cc_dictionary_loads_by_entry])
    def test_loads_rejects_a_repeated_raw_key(self, loads, text, key):
        # plain json would keep the last of the two without a word
        with pytest.raises(FormatError, match=f"^CC dictionary repeats the key '{key}'$"):
            loads(text)

    @settings(max_examples=300, deadline=None)
    @given(
        cc=st.dictionaries(
            _CONCEPTS,
            st.lists(_CONCEPTS | _JSON_VALUES, max_size=4).filter(bool)
            | st.lists(_CONCEPTS, max_size=4)
            | _JSON_VALUES,
            max_size=5,
        ),
        meta=st.none() | _JSON_VALUES,
    )
    def test_loads_equals_the_per_entry_reader(self, cc, meta):
        text = json.dumps({"cc": cc} if meta is None else {"cc": cc, "meta": meta})

        def loaded(loads):
            try:
                d = loads(text)
            except FormatError as exc:
                return str(exc)
            return list(d.cc.items()), d.meta

        assert loaded(CCDictionary.loads) == loaded(cc_dictionary_loads_by_entry)

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

    def test_lexicon_table_rows_are_the_table_rows_bit_for_bit(self):
        # normalizing a unit row a second time moves the last bits of many
        rng = np.random.default_rng(5)
        names = [f"c{k:03d}" for k in range(500)]
        table = EmbeddingTable(names, rng.standard_normal((500, 64)))
        kept = sorted(rng.choice(names, 300, replace=False).tolist())
        sub = CCDictionary({name: [] for name in kept}).lexicon_table(table)
        assert sub.names == kept
        for name in kept:
            assert np.array_equal(sub.vector(name), table.vector(name))

    def test_lexicon_table_names_a_concept_without_embedding(self, toy_embeddings):
        d = CCDictionary({"boat": [], "zebra": [], "water": []})
        with pytest.raises(MissingEmbeddingError, match="zebra"):
            d.lexicon_table(toy_embeddings)

    def test_shared_lexicon_table_is_one_view(
        self, toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility
    ):
        # the dictionaries of one build hold the lexicon's concepts, so one
        # view serves them all; another build's dictionary has its own
        matrix, occurrence, _ = mine_corpus(toy_corpus_path, toy_lexicon)
        candidates = normalize(matrix, occurrence, toy_lexicon, 0.01)
        args = (candidates, toy_lexicon, toy_embeddings, toy_visibility)
        first, second = build_dictionary(*args, [(0.01, 0.8), (0.99, 0.5)])
        view = first.lexicon_table(toy_embeddings)
        assert second.lexicon_table(toy_embeddings) is view
        assert view.names == sorted(toy_lexicon.concepts)
        [other] = build_dictionary(*args)
        assert other.lexicon_table(toy_embeddings) is not view


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

    def test_nearest_neighbor_generalization(self, dictionary):
        # ferry is embedded but no dictionary key: its nearest key is boat
        vectors = {**TOY_VECTORS, "ferry": (0.99, 0.1, 0.0)}
        names = sorted(vectors)
        table = EmbeddingTable(names, np.array([vectors[n] for n in names]))
        got = cc_d("ferry", dictionary, table)
        assert got.source_concept == "boat"
        assert got.concepts == ["background", "dock", "sunset", "water"]

    def test_query_without_embedding_raises(self, dictionary, toy_embeddings):
        # in neither the dictionary nor the table
        with pytest.raises(MissingEmbeddingError, match="'ferry'"):
            cc_d("ferry", dictionary, toy_embeddings)

    def test_empty_dictionary_rejected(self, toy_embeddings):
        with pytest.raises(ValidationError):
            cc_d("boat", CCDictionary({}), toy_embeddings)

    def test_background_query_rejected(self, dictionary, toy_embeddings):
        with pytest.raises(ValidationError):
            cc_d("background", dictionary, toy_embeddings)


class TestCCReach:
    """``cc_reach`` names every row that a generator and the CC sets it
    makes look up: with only those rows, each CC set is the full table's."""

    @pytest.mark.parametrize("mode", ["bg", "none", "privileged", "dict"])
    # ship and liberty are no dictionary keys: cc_d searches every key
    @pytest.mark.parametrize("queries", [["boat"], ["Water", "dock"], ["ship"], ["liberty", "cat"]])
    def test_reached_rows_give_the_full_tables_cc_sets(self, toy_embeddings, mode, queries):
        dictionary = CCDictionary({k: list(v) for k, v in EXPECTED_DICT_G001.items()})
        classes = ["boat", "Water", "liberty"]
        reach = cc_reach(mode, queries, classes, dictionary)
        reached = toy_embeddings.subset(sorted(reach & set(toy_embeddings.names)))

        def cc_sets(table):
            source = {
                "bg": cc_bg,
                "none": cc_none,
                "privileged": partial(cc_privileged, classes=classes),
                "dict": partial(cc_d, dictionary=dictionary, embeddings=table),
            }[mode]
            return [source(q) for q in queries]

        full = cc_sets(toy_embeddings)
        assert cc_sets(reached) == full
        for cc_set in full:
            assert {cc_set.query, *cc_set.concepts} <= reach

    def test_llm_reaches_every_row(self):
        assert cc_reach("llm", ["boat"]) is None


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
    def test_near_query_concept_dropped(self):
        # "puppy" is too near dog and "cat" is a query: only "bone" is kept
        sets = [
            CCSet("dog", "llm", ["puppy", "bone", "cat"]),
            CCSet("cat", "llm", ["bone"]),
        ]
        assert cc_multi(sets, multi_table(), beta=0.9) == ["bone"]

    def test_boundary_is_inclusive(self):
        table = multi_table()
        exactly = cosine(table.vector("puppy"), table.vector("dog"))
        sets = [CCSet("dog", "llm", ["puppy"])]
        assert cc_multi(sets, table, beta=exactly) == ["puppy"]

    def test_scope_all_vs_source(self):
        # "lure" comes only from dog's set; dog admits it, cat does not
        sets = [
            CCSet("dog", "llm", ["lure"]),
            CCSet("cat", "llm", []),
        ]
        assert cc_multi(sets, multi_table(), beta=0.9, scope="all") == []
        assert cc_multi(sets, multi_table(), beta=0.9, scope="source") == ["lure"]

    def test_scope_source_union_semantics(self):
        # contributed by both queries; one admitting source suffices
        sets = [
            CCSet("cat", "llm", ["lure"]),
            CCSet("dog", "llm", ["lure"]),
        ]
        assert cc_multi(sets, multi_table(), beta=0.9, scope="source") == ["lure"]

    def test_scope_source_checks_only_holders(self):
        # at beta 0.2 dog admits "lure" and neither query admits "puppy";
        # at 0.9 cat admits "puppy" but does not hold it, and dog rejects it
        sets = [
            CCSet("dog", "llm", ["lure", "puppy"]),
            CCSet("cat", "llm", ["puppy", "lure"]),
        ]
        assert cc_multi(sets, multi_table(), beta=0.2, scope="source") == ["lure"]
        sets = [CCSet("dog", "llm", ["puppy"]), CCSet("cat", "llm", [])]
        assert cc_multi(sets, multi_table(), beta=0.9, scope="source") == []

    def test_first_seen_order(self):
        sets = [
            CCSet("dog", "llm", ["bone", "lure"]),
            CCSet("cat", "llm", ["lure", "bone"]),
        ]
        assert cc_multi(sets, multi_table(), beta=0.99) == ["bone", "lure"]

    @pytest.mark.parametrize("scope", ["all", "source"])
    @pytest.mark.parametrize(
        "concepts", [([], []), (["cat", "dog"], ["dog"])], ids=["empty", "only-queries"]
    )
    def test_no_merged_concept(self, scope, concepts):
        sets = [CCSet("dog", "llm", concepts[0]), CCSet("cat", "llm", concepts[1])]
        assert cc_multi(sets, multi_table(), beta=1.0, scope=scope) == []

    def test_no_sets(self):
        assert cc_multi([], multi_table()) == []

    def test_missing_query_reported_before_missing_concept(self):
        sets = [CCSet("dog", "llm", ["yak"]), CCSet("cow", "llm", ["yak"])]
        with pytest.raises(MissingEmbeddingError) as info:
            cc_multi(sets, multi_table())
        assert info.value.concept == "cow"

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


# ---- the per-concept loops the array code replaced, kept as references ----
#
# They call the per-pair ``cosine`` oracle, which is the one-row case of the
# batched helper, so a delta or beta set to an exact similarity means the
# same thing on both sides.


def loop_pipeline(candidates, target, embeddings, visibility, stopwords, delta, oracle):
    outcome = StageLists()
    stop = {normalize_concept(s) for s in stopwords}
    stage = []
    for c in candidates:
        if normalize_concept(c) in stop:
            outcome.removed_stopword.append(c)
        else:
            stage.append(c)
    visible = []
    for c in stage:
        cached = visibility.get(c)
        if cached is None:
            if oracle is None:
                visible.append(c)
                outcome.unresolved_kept.append(c)
                continue
            try:
                cached = oracle(c)
            except CCMineError:
                visible.append(c)
                outcome.unresolved_kept.append(c)
                continue
        if cached:
            visible.append(c)
        else:
            outcome.removed_invisible.append(c)
    target_vec = embeddings.vector(normalize_concept(target))
    for c in visible:
        if cosine(embeddings.vector(normalize_concept(c)), target_vec) > delta:
            outcome.removed_similar.append(c)
        else:
            outcome.kept.append(c)
    final = set(outcome.kept)
    outcome.unresolved_kept = [c for c in outcome.unresolved_kept if c in final]
    return outcome


def loop_build(matrix, occurrence, lexicon, embeddings, visibility, oracle, gamma, delta, stopwords):
    concepts = lexicon.concepts
    rows: dict[int, dict[int, float]] = {}
    for (a, b), count in pair_counts(matrix).items():
        rows.setdefault(a, {})[b] = count / occurrence[a]
        rows.setdefault(b, {})[a] = count / occurrence[b]
    cc, outcomes, total = {}, [], 0
    for i, concept in enumerate(concepts):
        chosen = [(j, f) for j, f in rows.get(i, {}).items() if f > gamma]
        chosen.sort(key=lambda item: (-item[1], concepts[item[0]]))
        candidates = [concepts[j] for j, _ in chosen]
        total += len(candidates)
        outcome = loop_pipeline(
            candidates, concept, embeddings, visibility, stopwords, delta, oracle
        )
        cc[concept] = outcome.kept
        outcomes.append(outcome)
    # the build metadata, as sums over the per-concept stage lists
    counts = {
        stage: sum(len(getattr(o, attr)) for o in outcomes)
        for stage, attr in (
            ("stopword", "removed_stopword"),
            ("invisible", "removed_invisible"),
            ("similar", "removed_similar"),
            ("kept", "kept"),
        )
    }
    unresolved = sorted({c for o in outcomes for c in o.unresolved_kept})
    return cc, {"candidates": total, **counts}, unresolved, outcomes


def loop_cc_multi(cc_sets, embeddings, beta, scope):
    queries = [s.query for s in cc_sets]
    query_vecs = {qn: embeddings.vector(qn) for qn in queries}
    order, sources = [], {}
    for cc_set in cc_sets:
        for concept in cc_set.concepts:
            contributed = sources.setdefault(concept, [])
            if not contributed:
                order.append(concept)
            if cc_set.query not in contributed:
                contributed.append(cc_set.query)
    kept = []
    for concept in order:
        if concept in query_vecs:
            continue
        vec = embeddings.vector(concept)
        if scope == "all":
            ok = all(cosine(vec, query_vecs[qn]) <= beta for qn in queries)
        else:
            ok = any(cosine(vec, query_vecs[src]) <= beta for src in sources[concept])
        if ok:
            kept.append(concept)
    return kept


# names sort differently from their ids once shuffled, and two are stop-words
POOL = ["photo", "zebra", "apple", "mango", "kiwi", "boat", "dock", "image", "eel", "fig"]


@st.composite
def embedding_tables(draw, concepts):
    """One-hot rows (exact similarities 0 and 1) or Gaussian rows, with
    repeated and rescaled vectors; sometimes a concept has none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 8))
        base = np.eye(dim)[rng.integers(0, dim, len(concepts))]
    else:
        dim = draw(st.integers(1, 300))
        base = rng.standard_normal((len(concepts), dim))
    pick = [draw(st.integers(0, len(concepts) - 1)) for _ in concepts]
    scale = [draw(st.sampled_from([1.0, 2.0, 0.5])) for _ in concepts]
    vectors = base[pick] * np.array(scale)[:, None]
    absent = set()
    if draw(st.integers(0, 3)) == 0:
        absent = draw(st.sets(st.sampled_from(concepts), max_size=2))
    names = [c for c in concepts if c not in absent]
    rows = vectors[[concepts.index(c) for c in names]].reshape(len(names), dim)
    return EmbeddingTable(names, rows)


@st.composite
def build_cases(draw):
    n = draw(st.integers(1, 8))
    concepts = draw(st.permutations(POOL))[:n]
    occurrence = [draw(st.integers(1, 4)) for _ in range(n)]
    pairs = {}
    for a in range(n):
        for b in range(a + 1, n):
            count = draw(st.integers(0, min(occurrence[a], occurrence[b])))
            if count:
                pairs[(a, b)] = count
    table = draw(embedding_tables(concepts))

    def threshold_pair():
        # fractions count / occurrence hit frequencies exactly
        gamma = draw(
            st.one_of(
                st.builds(lambda c, o: c / o, st.integers(0, 4), st.integers(1, 4)),
                st.floats(0.0, 1.0),
            )
        )
        delta = draw(st.sampled_from([0.0, 0.5, 0.8, 1.0, None]))
        if delta is None:
            # exactly the similarity of a co-occurring pair, when both have vectors
            a, b = draw(st.sampled_from(sorted(pairs) or [(0, 0)]))
            a, b = concepts[a], concepts[b]
            delta = cosine(table.vector(a), table.vector(b)) if {a, b} <= set(table.names) else 0.8
        return gamma, delta

    # in no particular order, and now and then a gamma or a pair twice
    thresholds = []
    for _ in range(draw(st.integers(1, 4))):
        if thresholds and draw(st.integers(0, 3)) == 0:
            gamma, delta = draw(st.sampled_from(thresholds))
            thresholds.append((gamma, draw(st.sampled_from([delta, 0.5]))))
        else:
            thresholds.append(threshold_pair())
    stopwords = draw(
        st.sampled_from([DEFAULT_STOPWORDS, frozenset({" Zebra", "kiwi"}), frozenset()])
    )
    known = {c: draw(st.sampled_from([True, False, None])) for c in concepts}
    answers = {c: draw(st.sampled_from(["accept", "reject", "raise"])) for c in concepts}
    with_oracle = draw(st.booleans())
    return dict(
        concepts=concepts,
        occurrence=occurrence,
        pairs=pairs,
        thresholds=thresholds,
        table=table,
        stopwords=stopwords,
        known=known,
        answers=answers,
        with_oracle=with_oracle,
    )


def run_build(case, build, **params):
    """(what ``build`` returns or the concept a MissingEmbeddingError named,
    oracle calls, final visibility answers), each on a fresh visibility
    table.  The oracle caches its answers in the table, as the command
    line's LLM oracle does; the builds only read it."""
    calls = []

    def ask(concept):
        calls.append(concept)
        if case["answers"][concept] == "raise":
            raise CCMineError("visibility service down")
        return case["answers"][concept] == "accept"

    visibility = VisibilityTable(
        {c: (v, "manual") for c, v in case["known"].items() if v is not None}
    )

    def oracle(concept):
        return visibility.resolve(concept, ask, source="llm")

    lexicon = Lexicon(case["concepts"])
    matrix = cooc_matrix(len(lexicon), case["pairs"])
    try:
        result = build(
            matrix,
            case["occurrence"],
            lexicon,
            case["table"],
            visibility,
            oracle if case["with_oracle"] else None,
            stopwords=case["stopwords"],
            **params,
        )
    except MissingEmbeddingError as exc:
        result = ("missing", exc.concept)
    return result, calls, {c: visibility.get(c) for c in case["concepts"]}


def array_build(matrix, occurrence, lexicon, embeddings, visibility, oracle, thresholds, stopwords):
    candidates = normalize(matrix, occurrence, lexicon, min(gamma for gamma, _ in thresholds))
    dictionaries = build_dictionary(
        candidates, lexicon, embeddings, visibility, thresholds, stopwords=stopwords, oracle=oracle
    )
    # a second pass at each pair with no oracle, every answer the build got
    # now being in the table, repeats the pair's stage masks; split into
    # per-row lists
    concepts = lexicon.concepts
    out = []
    for dictionary, (gamma, delta) in zip(dictionaries, thresholds, strict=True):
        row, col, _ = normalize(matrix, occurrence, lexicon, gamma)
        masks = filter_rows(concepts, len(concepts), row, col, embeddings, visibility, stopwords)
        stages = split_masks(concepts, len(concepts), row, col, masks, delta)
        meta = dictionary.meta
        assert (meta["gamma"], meta["delta"]) == (gamma, delta)
        out.append((dictionary.cc, meta["filter_counts"], meta["unresolved_kept"], stages))
    return out


class TestBuildAgainstPerConceptLoop:
    @settings(max_examples=400, deadline=None)
    @given(case=build_cases())
    def test_same_dictionary_outcomes_and_oracle_calls(self, case):
        thresholds = case["thresholds"]
        got, got_calls, got_answers = run_build(case, array_build, thresholds=thresholds)
        # the array build selects and filters once, at the smallest gamma:
        # it raises what the loop raises there and asks what the loop asks
        smallest = min(gamma for gamma, _ in thresholds)
        first, want_calls, want_answers = run_build(case, loop_build, gamma=smallest, delta=0.8)
        if first[0] == "missing":
            assert got == first
            return
        want = [
            run_build(case, loop_build, gamma=gamma, delta=delta)[0] for gamma, delta in thresholds
        ]
        assert got == want
        # the loop retries a failed oracle call at every occurrence; the
        # array build asks once and flags the concept everywhere
        assert got_calls == list(dict.fromkeys(want_calls))
        assert got_answers == want_answers

    def test_failed_oracle_answer_is_asked_once_and_flagged_in_meta(
        self, toy_corpus_path, toy_lexicon, toy_embeddings
    ):
        calls = []

        def oracle(concept):
            calls.append(concept)
            if concept == "sunset":
                raise CCMineError("visibility service down")
            return True

        matrix, occurrence, _ = mine_corpus(toy_corpus_path, toy_lexicon)
        candidates = normalize(matrix, occurrence, toy_lexicon, DEFAULT_GAMMA)
        [dictionary] = build_dictionary(
            candidates, toy_lexicon, toy_embeddings, VisibilityTable(), oracle=oracle
        )
        assert calls.count("sunset") == 1
        assert dictionary.cc == EXPECTED_DICT_G001
        assert dictionary.meta["unresolved_kept"] == ["sunset"]
        assert dictionary.meta["filter_counts"] == {
            "candidates": 12,
            "stopword": 1,
            "invisible": 0,
            "similar": 2,
            "kept": 9,
        }


class TestCCMultiAgainstLoop:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_same_kept(self, data):
        concepts = data.draw(st.permutations(POOL))[: data.draw(st.integers(1, 8))]
        table = data.draw(st.one_of(embedding_tables(concepts), near_tables(concepts)))
        queries = data.draw(st.lists(st.sampled_from(concepts), unique=True, max_size=4))
        sets = [
            CCSet(q, "llm", data.draw(st.lists(st.sampled_from(concepts), max_size=6)))
            for q in queries
        ]
        beta = data.draw(st.one_of(st.none(), st.sampled_from([0.0, 0.5, 0.9, 1.0])))
        if beta is None:
            # exactly the cosine of a query and a concept of some set
            embedded = set(table.names)
            pairs = [
                (q, c) for s in sets for c in s.concepts for q in queries if {q, c} <= embedded
            ]
            pair = data.draw(st.sampled_from(pairs or [None]))
            beta = cosine(table.vector(pair[0]), table.vector(pair[1])) if pair else 0.9
        scope = data.draw(st.sampled_from(["all", "source"]))

        def outcome(merge):
            try:
                return merge(sets, table, beta, scope)
            except MissingEmbeddingError as exc:
                return ("missing", exc.concept)

        assert outcome(cc_multi) == outcome(loop_cc_multi)
