"""Caption corpora, concept lexicons, and whole-token concept matching.

A corpus is a line-delimited JSON file (optionally gzip-compressed; detected
by magic bytes) where each record carries a string ``id`` and a caption
``text``.  A lexicon is a plain text file with one concept per line and
``#`` comment lines.

Matching is deliberately simple and fast: captions are lowercased, split on
Unicode whitespace, and ASCII punctuation is stripped at token boundaries
only.  A concept matches when its token sequence appears as a contiguous run
of caption tokens.  Repeated matches within one caption count once (set
semantics).  No stemming is applied.  A caption's stripped tokens come from
a bounded memo, since a corpus holds few distinct tokens.
"""

from __future__ import annotations

import gzip
import io
import json
import re
import string
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .errors import FormatError
from .ioutil import open_maybe_gzip, read_text

_PUNCT = string.punctuation
_has_punct = re.compile(f"[{re.escape(_PUNCT)}]").search
_raw_decode = json.JSONDecoder().raw_decode
_JSON_WS = " \t\n\r"
# what surrogateescape decodes a non-UTF-8 byte to; valid UTF-8 never
# decodes to a surrogate
_undecodable = re.compile("[\udc80-\udcff]").search
# the most stripped tokens a matcher keeps; more clears its memo
_MEMO_MAX = 1 << 16


def normalize_concept(raw: str) -> str:
    """Canonical concept form: lowercase, stripped, single internal spaces.

    Idempotent: ``normalize_concept(normalize_concept(s)) == normalize_concept(s)``.
    """
    return " ".join(raw.lower().split())


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokens with boundary punctuation stripped.

    Punctuation interior to a token (hyphens, apostrophes) is preserved;
    tokens that are entirely punctuation disappear.
    """
    text = text.lower()
    toks = text.split()
    # whitespace tokens are never empty, so only stripping can empty one
    if _has_punct(text):
        toks = [t for t in (t.strip(_PUNCT) for t in toks) if t]
    return toks


class Lexicon:
    """Ordered, unique, normalized concept strings with stable integer ids.

    Ids are assigned by position; id ``i`` always refers to ``concepts[i]``.
    """

    def __init__(self, concepts: Iterable[str]):
        normalized = [normalize_concept(c) for c in concepts]
        seen: dict[str, int] = {}
        for pos, c in enumerate(normalized):
            if not c:
                raise FormatError(f"lexicon entry {pos} is empty after normalization")
            if c in seen:
                raise FormatError(f"duplicate lexicon concept {c!r} (positions {seen[c]} and {pos})")
            seen[c] = pos
        self.concepts: tuple[str, ...] = tuple(normalized)
        self.index: dict[str, int] = seen

    def __len__(self) -> int:
        return len(self.concepts)

    def __contains__(self, concept: str) -> bool:
        return normalize_concept(concept) in self.index

    @classmethod
    def from_file(cls, path: str | Path) -> "Lexicon":
        concepts = []
        for line in read_text(path).split("\n"):
            line = line.strip()
            if line and not line.startswith("#"):
                concepts.append(line)
        return cls(concepts)

    @cached_property
    def matcher(self) -> "ConceptMatcher":
        return ConceptMatcher(self)


class _StripMemo(dict):
    """Lowercased whitespace tokens to their ``tokenize`` form, which is
    empty for a token of punctuation only; at most ``_MEMO_MAX`` of them."""

    __slots__ = ()

    def __missing__(self, token: str) -> str:
        if len(self) >= _MEMO_MAX:
            self.clear()
        self[token] = stripped = token.strip(_PUNCT)
        return stripped


class ConceptMatcher:
    """Precomputed token lookup tables for one lexicon.

    Single-token concepts resolve through one dict lookup per caption token.
    Multi-token concepts, and single-token concepts whose token an earlier
    concept already claims (``boat`` and ``boat.``), are indexed by their
    first token and verified as a contiguous slice; captions holding none of
    those first tokens skip that scan.  A caption with ASCII punctuation
    strips its tokens through a bounded memo, which ``scan_corpus`` clears
    when it ends.
    """

    def __init__(self, lexicon: Lexicon):
        self._memo = _StripMemo()
        self._single: dict[str, int] = {}
        self._multi: dict[str, list[tuple[list[str], int]]] = {}
        for cid, concept in enumerate(lexicon.concepts):
            toks = tokenize(concept)
            if not toks:
                raise FormatError(f"concept {concept!r} has no matchable tokens")
            if len(toks) == 1 and toks[0] not in self._single:
                self._single[toks[0]] = cid
            else:
                self._multi.setdefault(toks[0], []).append((toks, cid))

    def match(self, caption: str) -> set[int]:
        # tokenize(caption), but a stripped-empty token stays until a scan
        # of contiguous runs needs it gone; no concept token is empty
        text = caption.lower()
        toks = text.split()
        if _has_punct(text):
            toks = list(map(self._memo.__getitem__, toks))
        out = set(map(self._single.get, toks))
        out.discard(None)
        multi = self._multi
        firsts = multi.keys() & toks
        if firsts and "" in toks:
            toks = list(filter(None, toks))
        for tok in firsts:
            i = -1
            for _ in range(toks.count(tok)):
                i = toks.index(tok, i + 1)
                for ctoks, cid in multi[tok]:
                    if toks[i : i + len(ctoks)] == ctoks:
                        out.add(cid)
        return out


@dataclass
class ScanStats:
    """Diagnostics accumulated by a corpus scan."""

    total: int = 0
    malformed: int = 0
    matched_captions: int = 0

    def merge(self, other: "ScanStats") -> None:
        self.total += other.total
        self.malformed += other.malformed
        self.matched_captions += other.matched_captions


def iter_caption_lines(path: str | Path):
    """Yield decoded text lines of a corpus file, gzip-transparent.

    Bytes that are not UTF-8 decode to lone surrogates (``surrogateescape``)
    instead of raising, so ``parse_caption`` can count their line as one
    malformed record.  A gzip stream that is cut short or whose deflate
    data is corrupt raises ``gzip.BadGzipFile``, an ``OSError``, as one
    whose checksum fails does.
    """
    with open_maybe_gzip(path) as fh, io.TextIOWrapper(
        fh, encoding="utf-8", errors="surrogateescape"
    ) as text:
        try:
            yield from text
        except (EOFError, zlib.error) as exc:
            raise gzip.BadGzipFile(f"{path}: {exc}") from None


def parse_caption(line: str) -> tuple[str, str] | None:
    """Parse one corpus line into (id, text), or None when malformed.

    A line holding an undecodable byte (see ``iter_caption_lines``) is
    malformed.
    """
    # isascii is a flag test, so only non-ASCII lines pay for the search
    if not line.isascii() and _undecodable(line):
        return None
    # json.loads without its wrapper calls: skip JSON whitespace, decode one
    # value, allow only JSON whitespace after it (a BOM fails in both)
    try:
        rec, end = _raw_decode(line, len(line) - len(line.lstrip(_JSON_WS)))
    except ValueError:
        return None
    if line[end:].strip(_JSON_WS):
        return None
    if not isinstance(rec, dict):
        return None
    rid = rec.get("id")
    text = rec.get("text")
    if not isinstance(rid, str) or not isinstance(text, str):
        return None
    return rid, text


def scan_corpus(lines, lexicon: Lexicon, stats: ScanStats):
    """Yield the concept-id set of each caption while accumulating stats.

    Malformed records are counted into ``stats.malformed`` and skipped; the
    scan never raises on record content.  Occurrence counts are left to the
    pair counter (``cooc._count_sets``), which counts the sets this yields.
    """
    matcher = lexicon.matcher
    try:
        for line in lines:
            if not line or line.isspace():
                continue
            parsed = parse_caption(line)
            stats.total += 1
            if parsed is None:
                stats.malformed += 1
                continue
            matched = matcher.match(parsed[1])
            if matched:
                stats.matched_captions += 1
            yield matched
    finally:
        matcher._memo.clear()
