"""Caption tokenization, lexicon handling, and corpus scanning."""

from __future__ import annotations

import gc
import json
import string
import warnings
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccmine import corpus
from ccmine.cooc import mine_corpus, save_counts
from ccmine.corpus import (
    ConceptMatcher,
    Lexicon,
    ScanStats,
    iter_caption_lines,
    normalize_concept,
    parse_caption,
    scan_corpus,
    tokenize,
)
from ccmine.errors import FormatError

from conftest import TOY_CAPTIONS, TOY_CONCEPTS, TOY_OCCURRENCE


class TestNormalize:
    def test_lowercase_and_whitespace(self):
        assert normalize_concept("  Fire   Hydrant ") == "fire hydrant"

    def test_plain_word_unchanged(self):
        assert normalize_concept("boat") == "boat"

    @given(st.text(max_size=50))
    def test_idempotent(self, raw):
        once = normalize_concept(raw)
        assert normalize_concept(once) == once


class TestTokenize:
    def test_strips_punctuation(self):
        assert tokenize("A boat, near the dock!") == ["a", "boat", "near", "the", "dock"]

    def test_drops_empty_tokens(self):
        assert tokenize("... -- ,,") == []


class TestLexicon:
    def test_normalizes_entries(self):
        lex = Lexicon(["  Fire  Hydrant ", "boat"])
        assert lex.concepts == ("fire hydrant", "boat")

    def test_rejects_duplicates(self):
        with pytest.raises(FormatError):
            Lexicon(["boat", "Boat"])

    def test_rejects_empty_entry(self):
        with pytest.raises(FormatError):
            Lexicon(["boat", "   "])

    def test_file_roundtrip(self, tmp_path, toy_lexicon):
        path = tmp_path / "lex.txt"
        path.write_text("".join(c + "\n" for c in toy_lexicon.concepts), encoding="utf-8")
        loaded = Lexicon.from_file(path)
        assert loaded.concepts == toy_lexicon.concepts

    def test_from_file_skips_comments_and_blanks(self, toy_lexicon_path):
        lex = Lexicon.from_file(toy_lexicon_path)
        assert lex.concepts == tuple(TOY_CONCEPTS)


class TestMatching:
    def test_single_word(self, toy_lexicon):
        matched = toy_lexicon.matcher.match("a boat on the water")
        assert {toy_lexicon.concepts[i] for i in matched} == {"boat", "water"}

    def test_set_semantics(self, toy_lexicon):
        matched = toy_lexicon.matcher.match("boat and boat trailer")
        assert {toy_lexicon.concepts[i] for i in matched} == {"boat", "trailer"}

    def test_multi_word_contiguous(self):
        lex = Lexicon(["fire hydrant", "fire", "dog"])
        matched = lex.matcher.match("a fire hydrant near a dog")
        assert {lex.concepts[i] for i in matched} == {"fire hydrant", "fire", "dog"}

    def test_multi_word_requires_adjacency(self):
        lex = Lexicon(["fire hydrant"])
        assert lex.matcher.match("fire near the hydrant") == set()

    def test_punctuation_boundary(self, toy_lexicon):
        matched = toy_lexicon.matcher.match("A boat, near the dock.")
        assert {toy_lexicon.concepts[i] for i in matched} == {"boat", "dock"}

    def test_no_match(self, toy_lexicon):
        assert toy_lexicon.matcher.match("an empty street") == set()


def reference_tokenize(text: str) -> list[str]:
    """The documented tokenization, spelled out step by step."""
    toks = [t.strip(string.punctuation) for t in text.lower().split()]
    return [t for t in toks if t]


def brute_force_match(caption: str, lexicon: Lexicon) -> set[int]:
    """Ids of concepts whose tokens are a contiguous run of the caption's."""
    toks = reference_tokenize(caption)
    out = set()
    for cid, concept in enumerate(lexicon.concepts):
        ctoks = reference_tokenize(concept)
        if any(toks[k : k + len(ctoks)] == ctoks for k in range(len(toks) - len(ctoks) + 1)):
            out.add(cid)
    return out


# cased and uncased words, Unicode case mappings (İ, ß, Σ), interior
# hyphens and apostrophes, and singular/plural pairs
_WORDS = [
    "boat", "Boats", "dock", "DOCKS", "sea", "seas", "straße", "İzmir", "ΣΟΦΊΑ",
    "café", "x-ray", "it's", "red", "car", "cars",
]
_PUNCT_AFFIX = st.sampled_from(["", "", "", ".", ",", "!", "(", ")", "'", '"', "...", "?!"])
_WHITESPACE = st.sampled_from([" ", " ", "  ", "\t", "\n", "\u3000", "\u2003", "\x0b"])
_concept = st.lists(
    st.sampled_from([*_WORDS, "boat.", "(sea)"]), min_size=1, max_size=3
).map(" ".join)


@st.composite
def _lexicon_and_captions(draw):
    """Concepts, then captions built from whole concepts and from the
    concepts' own words, so phrases recur and their first tokens repeat."""
    concepts = draw(st.lists(_concept, min_size=1, max_size=8, unique_by=normalize_concept))
    own = st.sampled_from([w for c in concepts for w in c.split()])
    pieces = st.one_of(st.sampled_from(concepts), own, own, st.sampled_from(_WORDS))
    word = st.builds(lambda pre, w, post: pre + w + post, _PUNCT_AFFIX, pieces, _PUNCT_AFFIX)
    punct_only = st.sampled_from(["-", "...", "&", "--", "!?"])
    token = st.one_of(word, word, word, punct_only)
    captions = []
    for toks in draw(st.lists(st.lists(token, max_size=16), max_size=6)):
        captions.append("".join(draw(_WHITESPACE) + tok for tok in toks) + draw(_WHITESPACE))
    return concepts, captions


class TestMatcherAgainstBruteForce:
    @given(st.text(max_size=60))
    def test_tokenize_is_the_documented_definition(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @given(_lexicon_and_captions())
    def test_match_is_contiguous_token_runs(self, lexicon_and_captions):
        concepts, captions = lexicon_and_captions
        lexicon = Lexicon(concepts)
        matcher = ConceptMatcher(lexicon)
        for caption in captions:
            assert matcher.match(caption) == brute_force_match(caption, lexicon)

    def test_concepts_sharing_a_token_all_match(self):
        lexicon = Lexicon(["boat", "boat.", "boats"])
        assert lexicon.matcher.match("a boat!") == {0, 1}
        assert lexicon.matcher.match("two boats") == {2}

    def test_phrase_after_an_unmatched_first_token(self):
        lexicon = Lexicon(["red car"])
        assert lexicon.matcher.match("red boat, red car and a red car") == {0}

    def test_phrase_across_punctuation_only_token(self):
        lexicon = Lexicon(["red car", "car"])
        assert lexicon.matcher.match("a red -- car, a red car") == {0, 1}


def tokenize_then_scan(matcher: ConceptMatcher, caption: str) -> set[int]:
    """The matcher's lookups over ``tokenize(caption)``, as ``match`` made
    them before its tokens came from the memo."""
    toks = tokenize(caption)
    out = set(map(matcher._single.get, toks))
    out.discard(None)
    for tok in matcher._multi.keys() & toks:
        i = -1
        for _ in range(toks.count(tok)):
            i = toks.index(tok, i + 1)
            for ctoks, cid in matcher._multi[tok]:
                if toks[i : i + len(ctoks)] == ctoks:
                    out.add(cid)
    return out


# İ lowercases to two characters; red and boat start several phrases
_MEMO_WORDS = ["boat", "red", "car", "dock", "İzmir", "x-ray", "it's"]
_EDGE = st.sampled_from(["", "", "", ".", ",", "!", "(", ")", "'", "...", "?!"])
_INNER = st.sampled_from(["-", "'", ".", "&", "/"])
_MEMO_WS = st.sampled_from([" ", " ", "\t", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])


@st.composite
def _memo_lexicon_and_captions(draw):
    """Phrases sharing a first token, single words with a punctuated twin
    (``boat`` and ``boat.``), and captions drawn from a small pool of
    tokens, so tokens repeat within a caption and across captions."""
    heads = st.sampled_from(["red", "boat", "red.", "(boat"])
    phrase = st.builds(
        lambda head, tail: " ".join([head, *tail]),
        heads, st.lists(st.sampled_from(_MEMO_WORDS), min_size=1, max_size=2),
    )
    single = st.builds(lambda w, post: w + post, st.sampled_from(_MEMO_WORDS), _EDGE)
    concepts = draw(
        st.lists(st.one_of(phrase, single), min_size=1, max_size=10, unique_by=normalize_concept)
    )
    words = [*_MEMO_WORDS, *(w for c in concepts for w in c.split())]
    core = st.one_of(
        st.sampled_from(words),
        st.builds(lambda a, mid, b: a + mid + b, st.sampled_from(words), _INNER, st.sampled_from(words)),
    )
    edged = st.builds(lambda pre, w, post: pre + w + post, _EDGE, core, _EDGE)
    punct_only = st.sampled_from(["-", "...", "&", "--", "!?", "'"])
    pool = draw(st.lists(st.one_of(edged, edged, edged, punct_only), min_size=1, max_size=8))
    captions = []
    for picks in draw(st.lists(st.lists(st.sampled_from(pool), max_size=14), max_size=8)):
        caption = "".join(draw(_MEMO_WS) + tok for tok in picks) + draw(_MEMO_WS)
        captions.append(draw(st.sampled_from([caption, caption.upper()])))
    return concepts, captions


class TestMemoAgainstTokenizeThenScan:
    """``match`` takes a caption's stripped tokens from the matcher's memo;
    it must match exactly what scanning ``tokenize``'s tokens matches."""

    @pytest.mark.parametrize("memo_max", [corpus._MEMO_MAX, 1])
    @given(_memo_lexicon_and_captions())
    def test_match_equals_the_scan_it_replaced(self, memo_max, lexicon_and_captions):
        # a bound of 1 clears the memo on almost every caption
        concepts, captions = lexicon_and_captions
        lexicon = Lexicon(concepts)
        matcher = ConceptMatcher(lexicon)
        with mock.patch.object(corpus, "_MEMO_MAX", memo_max):
            for caption in captions:
                got = matcher.match(caption)
                assert got == tokenize_then_scan(matcher, caption)
                assert got == brute_force_match(caption, lexicon)
                assert len(matcher._memo) <= memo_max

    def test_memo_holds_stripped_tokens(self):
        lexicon = Lexicon(["red car", "boat."])
        matcher = lexicon.matcher
        assert matcher.match("A red -- car, a Boat!") == {0, 1}
        assert matcher._memo == {
            "a": "a", "red": "red", "--": "", "car,": "car", "boat!": "boat",
        }
        # no ASCII punctuation: the memo is not consulted
        assert matcher.match("a red car near the dock") == {0}
        assert "dock" not in matcher._memo and len(matcher._memo) == 5


class TestMemoBound:
    def test_memo_never_outgrows_its_bound(self, tmp_path, monkeypatch):
        bound = 8
        path = tmp_path / "corpus.jsonl"
        # 60 distinct punctuated tokens, and one caption holding 20 of them
        records = [{"id": f"c{i}", "text": f"a Boat, near w{i}. red car!"} for i in range(40)]
        records.append({"id": "many", "text": " ".join(f"(x{i})" for i in range(20)) + " boat."})
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        lexicon = Lexicon(["boat", "red car", "w3", "x7"])

        def mined():
            matrix, occurrence, _ = mine_corpus(path, lexicon)
            matrix.save(tmp_path / "cooc.txt")
            save_counts(tmp_path / "counts.txt", occurrence)
            return (tmp_path / "cooc.txt").read_bytes(), (tmp_path / "counts.txt").read_bytes()

        unbounded = mined()
        sizes = []
        missing = corpus._StripMemo.__missing__

        def recording(memo, token):
            stripped = missing(memo, token)
            sizes.append(len(memo))
            return stripped

        monkeypatch.setattr(corpus, "_MEMO_MAX", bound)
        monkeypatch.setattr(corpus._StripMemo, "__missing__", recording)
        assert mined() == unbounded
        # the bound was reached and cleared, never passed
        assert max(sizes) == bound and sizes.count(1) > 1
        assert lexicon.matcher._memo == {}

    def test_scan_releases_the_memo_when_it_ends(self, toy_lexicon):
        lines = [json.dumps({"id": f"c{i}", "text": f"a boat, w{i}."}) for i in range(5)]
        scan = scan_corpus(lines, toy_lexicon, ScanStats())
        assert next(scan) == {toy_lexicon.index["boat"]}
        assert len(toy_lexicon.matcher._memo) == 3
        scan.close()  # a scan abandoned early releases it too
        assert toy_lexicon.matcher._memo == {}
        assert len(list(scan_corpus(lines, toy_lexicon, ScanStats()))) == 5
        assert toy_lexicon.matcher._memo == {}


class TestParseCaption:
    def test_valid(self):
        assert parse_caption('{"id": "a", "text": "hi"}') == ("a", "hi")

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"id": "a"}',
            '{"text": "hi"}',
            '{"id": 3, "text": "hi"}',
            '{"id": "a", "text": 5}',
            '["id", "text"]',
        ],
    )
    def test_malformed(self, line):
        assert parse_caption(line) is None

    @given(
        st.sampled_from(["", " ", "\t", "\ufeff", "\xa0"]),
        st.one_of(
            st.fixed_dictionaries({"id": st.text(max_size=5), "text": st.text(max_size=20)}),
            st.fixed_dictionaries({"id": st.integers(), "text": st.text(max_size=5)}),
            st.lists(st.integers(), max_size=3),
        ),
        st.sampled_from(["", "\n", " \r\n", "\t\n", "x", " {}", "\xa0", "\u2028"]),
    )
    def test_agrees_with_json_loads(self, prefix, record, suffix):
        line = prefix + json.dumps(record) + suffix
        try:
            rec = json.loads(line)
        except ValueError:
            rec = None
        expected = (
            (rec["id"], rec["text"])
            if isinstance(rec, dict) and isinstance(rec["id"], str)
            else None
        )
        assert parse_caption(line) == expected


class TestScanCorpus:
    def test_counts_and_occurrence(self, toy_corpus_path, toy_lexicon):
        stats = ScanStats()
        sets = list(scan_corpus(iter_caption_lines(toy_corpus_path), toy_lexicon, stats))
        assert stats.total == 4
        assert stats.malformed == 0
        assert stats.matched_captions == 4
        assert len(sets) == 4
        _, counted, _ = mine_corpus(toy_corpus_path, toy_lexicon)
        occurrence = dict(zip(toy_lexicon.concepts, counted.tolist()))
        assert occurrence == TOY_OCCURRENCE

    def test_gzip_transparent(self, toy_corpus_gz_path, toy_lexicon):
        stats = ScanStats()
        sets = list(
            scan_corpus(iter_caption_lines(toy_corpus_gz_path), toy_lexicon, stats)
        )
        assert stats.total == 4
        assert len(sets) == 4

    @pytest.mark.parametrize("fixture", ["toy_corpus_path", "toy_corpus_gz_path"])
    @pytest.mark.parametrize("take", [None, 1])
    def test_reading_leaves_no_file_open(self, request, fixture, take):
        # a whole read and one abandoned after its first line
        path = request.getfixturevalue(fixture)
        # recorded rather than raised: an error raised in a finalizer is
        # swallowed as unraisable
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            lines = iter_caption_lines(path)
            got = list(islice(lines, take))
            del lines
            gc.collect()
        assert len(got) == (take or len(TOY_CAPTIONS))
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_malformed_lines_counted_and_skipped(self, tmp_path, toy_lexicon):
        path = tmp_path / "corpus.jsonl"
        lines = [
            json.dumps(TOY_CAPTIONS[0]),
            "{broken",
            "",
            json.dumps({"id": 9, "text": "bad id"}),
            json.dumps(TOY_CAPTIONS[2]),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        stats = ScanStats()
        sets = list(scan_corpus(iter_caption_lines(path), toy_lexicon, stats))
        assert stats.total == 4
        assert stats.malformed == 2
        assert len(sets) == 2

    def test_stats_merge(self):
        a = ScanStats(total=2, malformed=1, matched_captions=1)
        b = ScanStats(total=3, malformed=0, matched_captions=2)
        a.merge(b)
        assert a.total == 5
        assert a.malformed == 1
        assert a.matched_captions == 3

    def test_merge_into_empty(self):
        a = ScanStats()
        a.merge(ScanStats(total=1, malformed=1))
        assert a == ScanStats(total=1, malformed=1)
