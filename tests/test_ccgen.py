"""Contrastive concept sources and multi-query merging."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ccmine.cooc import mine_corpus, normalize, select_all
from ccmine.corpus import Lexicon, normalize_concept
from ccmine.embed import EmbeddingTable
from ccmine.errors import CCMineError, FormatError, MissingEmbeddingError, ValidationError
from ccmine.filters import DEFAULT_STOPWORDS, FilterConfig, VisibilityTable, filter_rows
from ccmine.llm import LLMClient

from conftest import (
    EXPECTED_DICT_G001,
    EXPECTED_DICT_G099,
    StageLists,
    cooc_matrix,
    cosine,
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
            toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility, gamma=0.99
        )
        assert dictionary.cc == EXPECTED_DICT_G099

    def test_meta_fields(
        self, toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility
    ):
        dictionary = self.build(
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
        a = self.build(toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility)
        b = self.build(toy_corpus_path, toy_lexicon, toy_embeddings, toy_visibility)
        assert a.dumps() == b.dumps()

    def test_unknown_visibility_fail_open(
        self, toy_corpus_path, toy_lexicon, toy_embeddings
    ):
        dictionary = self.build(toy_corpus_path, toy_lexicon, toy_embeddings, VisibilityTable({}))
        assert dictionary.cc == EXPECTED_DICT_G001
        # with no table entry and no oracle, every kept concept is unresolved
        assert dictionary.meta["unresolved_kept"] == ["boat", "cat", "dock", "sunset", "water"]


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

    @pytest.mark.parametrize(
        "cc",
        [
            {k: list(v) for k, v in EXPECTED_DICT_G001.items()},
            {" Boat ": ["  Water", "DOCK", "water "], "WATER": ["boat", " BOAT"], "dock": []},
        ],
    )
    def test_loads_normalizes_as_each_string_alone(self, cc):
        text = json.dumps({"meta": {}, "cc": cc})
        want = {
            normalize_concept(k): [normalize_concept(v) for v in vals] for k, vals in cc.items()
        }
        assert CCDictionary.loads(text).cc == want

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


# ---- the per-concept loops the array code replaced, kept as references ----
#
# They call the per-pair ``cosine`` oracle, which is the one-row case of the
# batched helper, so a delta or beta set to an exact similarity means the
# same thing on both sides.


def loop_pipeline(candidates, target, embeddings, visibility, config, oracle, oracle_source):
    outcome = StageLists()
    stop = {normalize_concept(s) for s in config.stopwords}
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
                cached = visibility.resolve(c, oracle, source=oracle_source)
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
        if cosine(embeddings.vector(normalize_concept(c)), target_vec) > config.delta:
            outcome.removed_similar.append(c)
        else:
            outcome.kept.append(c)
    final = set(outcome.kept)
    outcome.unresolved_kept = [c for c in outcome.unresolved_kept if c in final]
    return outcome


def loop_build(matrix, occurrence, lexicon, embeddings, visibility, gamma, config, oracle):
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
            candidates, concept, embeddings, visibility, config, oracle, "llm"
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
    kept, excluded = [], []
    for concept in order:
        if concept in query_vecs:
            excluded.append(concept)
            continue
        vec = embeddings.vector(concept)
        if scope == "all":
            ok = all(cosine(vec, query_vecs[qn]) <= beta for qn in queries)
        else:
            ok = any(cosine(vec, query_vecs[src]) <= beta for src in sources[concept])
        (kept if ok else excluded).append(concept)
    return kept, excluded


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
    # fractions count / occurrence hit frequencies exactly
    gamma = draw(
        st.one_of(
            st.builds(lambda c, o: c / o, st.integers(0, 4), st.integers(1, 4)),
            st.floats(0.0, 1.0),
        )
    )
    table = draw(embedding_tables(concepts))
    delta = draw(st.sampled_from([0.0, 0.5, 0.8, 1.0, None]))
    if delta is None:
        # exactly the similarity of a co-occurring pair, when both have vectors
        a, b = draw(st.sampled_from(sorted(pairs) or [(0, 0)]))
        a, b = concepts[a], concepts[b]
        delta = cosine(table.vector(a), table.vector(b)) if {a, b} <= set(table.names) else 0.8
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
        gamma=gamma,
        table=table,
        config=FilterConfig(stopwords=stopwords, delta=delta),
        known=known,
        answers=answers,
        with_oracle=with_oracle,
    )


def run_build(case, build):
    """(result or the concept a MissingEmbeddingError named, oracle calls,
    final visibility answers)."""
    calls = []

    def oracle(concept):
        calls.append(concept)
        if case["answers"][concept] == "raise":
            raise CCMineError("visibility service down")
        return case["answers"][concept] == "accept"

    visibility = VisibilityTable(
        {c: (v, "manual") for c, v in case["known"].items() if v is not None}
    )
    lexicon = Lexicon(case["concepts"])
    matrix = cooc_matrix(len(lexicon), case["pairs"])
    try:
        result = build(
            matrix,
            case["occurrence"],
            lexicon,
            case["table"],
            visibility,
            case["gamma"],
            case["config"],
            oracle if case["with_oracle"] else None,
        )
    except MissingEmbeddingError as exc:
        result = ("missing", exc.concept)
    return result, calls, {c: visibility.get(c) for c in case["concepts"]}


def array_build(matrix, occurrence, lexicon, embeddings, visibility, gamma, config, oracle):
    dictionary = build_dictionary(
        matrix,
        occurrence,
        lexicon,
        embeddings,
        visibility,
        gamma=gamma,
        filter_config=config,
        oracle=oracle,
    )
    # a second pass with no oracle, every answer the build got now being in
    # the table, repeats the build's stage masks; split into per-row lists
    concepts = lexicon.concepts
    row, col = select_all(normalize(matrix, occurrence, lexicon), gamma)
    masks = filter_rows(concepts, len(concepts), row, col, embeddings, visibility, config)
    stages = split_masks(concepts, len(concepts), row, col, masks)
    meta = dictionary.meta
    return dictionary.cc, meta["filter_counts"], meta["unresolved_kept"], stages


class TestBuildAgainstPerConceptLoop:
    @settings(max_examples=400, deadline=None)
    @given(case=build_cases())
    def test_same_dictionary_outcomes_and_oracle_calls(self, case):
        want, want_calls, want_answers = run_build(case, loop_build)
        got, got_calls, got_answers = run_build(case, array_build)
        assert got == want
        if want[0] == "missing":
            return
        # the loop retries a failed oracle call at every occurrence; the
        # array build asks once and flags the concept everywhere
        if not any(case["answers"][c] == "raise" for c in want_calls):
            assert got_calls == want_calls
            assert got_answers == want_answers
        assert len(got_calls) == len(set(got_calls))

    def test_failed_oracle_answer_is_asked_once_and_flagged_in_meta(
        self, toy_corpus_path, toy_lexicon, toy_embeddings
    ):
        calls = []

        def oracle(concept):
            calls.append(concept)
            if concept == "sunset":
                raise CCMineError("visibility service down")
            return True

        matrix, stats = mine_corpus(toy_corpus_path, toy_lexicon)
        dictionary = build_dictionary(
            matrix, stats.occurrence, toy_lexicon, toy_embeddings, VisibilityTable(), oracle=oracle
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
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_kept_and_excluded(self, data):
        concepts = data.draw(st.permutations(POOL))[: data.draw(st.integers(1, 8))]
        table = data.draw(embedding_tables(concepts))
        queries = data.draw(st.lists(st.sampled_from(concepts), unique=True, max_size=4))
        sets = [
            CCSet(q, "llm", data.draw(st.lists(st.sampled_from(concepts), max_size=6)))
            for q in queries
        ]
        beta = data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0, None]))
        if beta is None:
            present = table.names or [None]
            a, b = data.draw(st.sampled_from(present)), data.draw(st.sampled_from(present))
            beta = cosine(table.vector(a), table.vector(b)) if a is not None else 0.9
        scope = data.draw(st.sampled_from(["all", "source"]))

        def outcome(merge):
            try:
                return merge(sets, table, beta, scope)
            except MissingEmbeddingError as exc:
                return ("missing", exc.concept)

        assert outcome(cc_multi) == outcome(loop_cc_multi)
