"""Building contrastive concept sets for a query.

A contrastive concept (CC) set is a list of extra prompts that compete
with the query during segmentation and are discarded afterwards.  Four
sources exist:

- ``bg``: the single word "background",
- ``dictionary``: concepts mined from caption co-occurrence and filtered,
- ``llm``: concepts generated by a language model,
- ``privileged``: all other dataset classes (an upper-bound reference that
  uses information unavailable in the open-vocabulary setting).

Dictionary lookups generalize beyond the lexicon by mapping an arbitrary
query to its nearest lexicon concept in embedding space; lexicon members
map to themselves.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, compress
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .corpus import Lexicon, normalize_concept
from .embed import EmbeddingTable, nearest_neighbor
from .errors import FormatError, ValidationError
from .ioutil import atomic_write_text, parse_json, read_text

if TYPE_CHECKING:  # the filter stage and the LLM client load where they run
    from .filters import VisibilityOracle, VisibilityTable
    from .llm import LLMClient

BACKGROUND = "background"

DEFAULT_GAMMA = 0.01
DEFAULT_DELTA = 0.8
DEFAULT_BETA = 0.9
DEFAULT_STOPWORDS = frozenset({"image", "photo", "picture", "view"})


@dataclass
class CCSet:
    """Contrastive concepts for one query."""

    query: str
    kind: str  # bg | dictionary | llm | privileged | none
    concepts: list[str]
    source_concept: str | None = None  # lexicon concept used for dictionary lookups


def _query(q: str, refused_for: str | None = None) -> str:
    """``q`` normalized; an empty query raises, and so does the background
    word when it is ``refused_for`` a generator (named in the message)."""
    qn = normalize_concept(q)
    if not qn:
        raise ValidationError("query is empty")
    if refused_for is not None and qn == BACKGROUND:
        raise ValidationError(f'"{BACKGROUND}" cannot be a query for {refused_for}')
    return qn


def cc_bg(q: str) -> CCSet:
    """The background-word baseline."""
    return CCSet(query=_query(q, "the background baseline"), kind="bg", concepts=[BACKGROUND])


def cc_none(q: str) -> CCSet:
    """No contrastive concepts; the query segments alone."""
    return CCSet(query=_query(q), kind="none", concepts=[])


def cc_privileged(q: str, classes: list[str]) -> CCSet:
    """All other dataset classes, order preserved."""
    qn = _query(q)
    concepts = [c for c in (normalize_concept(x) for x in classes) if c != qn]
    return CCSet(query=qn, kind="privileged", concepts=concepts)


def cc_llm(q: str, client: LLMClient, include_markers: bool = True) -> CCSet:
    """Concepts generated by the language model, plus "background"."""
    from .llm import ask_cc

    qn = _query(q, "LLM generation")
    generated = [c for c in ask_cc(client, qn, include_markers) if c != qn and c != BACKGROUND]
    return CCSet(query=qn, kind="llm", concepts=[BACKGROUND] + generated)


class CCDictionary:
    """Per-concept contrastive concepts mined from a corpus.

    ``cc`` maps every lexicon concept to its (possibly empty) filtered
    list.  ``meta`` records the build inputs so artifacts are traceable.
    """

    def __init__(self, cc: dict[str, list[str]], meta: dict | None = None):
        self.cc: dict[str, list[str]] = cc  # normalized: a lexicon's, or as loads leaves it
        self.meta: dict = dict(meta or {})
        # [table, its lexicon view], shared by the dictionaries of one build;
        # holding the table keeps the identity check sound, where an id()
        # could be reused after collection
        self._nn_cache: list[EmbeddingTable] = []

    def __contains__(self, concept: str) -> bool:
        return normalize_concept(concept) in self.cc

    def __len__(self) -> int:
        return len(self.cc)

    def get(self, concept: str) -> list[str]:
        return list(self.cc.get(normalize_concept(concept), []))

    def lexicon_table(self, table: EmbeddingTable) -> EmbeddingTable:
        """A view of ``table`` restricted to this dictionary's concepts, so
        nearest-neighbor lookups cannot land on non-lexicon entries."""
        cached = self._nn_cache
        if cached and cached[0] is table:
            return cached[1]
        sub = table.subset(sorted(self.cc))
        cached[:] = (table, sub)
        return sub

    # ---- serialization ----

    def dumps(self) -> str:
        """``json.dumps({"meta": meta, "cc": cc}, ensure_ascii=False,
        sort_keys=True, indent=2)`` and a newline, written out by hand:
        ``indent`` sends ``json`` to its pure-Python encoder, while each
        string here goes through its C one."""
        entries = []
        for concept in sorted(self.cc):
            values = self.cc[concept]
            items = ",\n      ".join(map(encode_basestring, values))
            items = f"[\n      {items}\n    ]" if values else "[]"
            entries.append(f"    {encode_basestring(concept)}: {items}")
        cc = "{\n" + ",\n".join(entries) + "\n  }" if entries else "{}"
        meta = json.dumps(self.meta, ensure_ascii=False, sort_keys=True, indent=2)
        # json escapes every newline inside a string, so each one here
        # starts a line, which the nesting indents by one more level
        meta = meta.replace("\n", "\n  ")
        return f'{{\n  "cc": {cc},\n  "meta": {meta}\n}}\n'

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, self.dumps())

    @classmethod
    def loads(cls, text: str) -> "CCDictionary":
        payload = parse_json(text, "CC dictionary")
        if not isinstance(payload, dict) or "cc" not in payload:
            raise FormatError("CC dictionary must be an object with a 'cc' member")
        cc = payload["cc"]
        if not isinstance(cc, dict):
            raise FormatError("CC dictionary 'cc' member must be an object")
        # JSON keys are strings; the values' shapes are checked in two
        # C-level passes, and only a failure walks the entries to name one
        values = cc.values()
        if set(map(type, values)) - {list} or set(map(type, chain.from_iterable(values))) - {str}:
            for k, v in cc.items():
                if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
                    raise FormatError(
                        f"CC dictionary entry {k!r} must map a string to a string list"
                    )
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise FormatError("CC dictionary 'meta' member must be an object")
        # only the strings that normalizing changes are mapped; what the
        # writer writes has none, and is kept as parsed
        moved = {s: n for s in set(cc).union(*values) if (n := normalize_concept(s)) != s}
        if moved:
            keys = [moved.get(k, k) for k in cc]
            cc = dict(zip(keys, ([moved.get(v, v) for v in vals] for vals in values)))
            if len(cc) < len(keys):
                [(concept, _)] = Counter(keys).most_common(1)
                raise FormatError(f"CC dictionary repeats concept {concept!r} once normalized")
        for concept, vals in cc.items():
            if len(set(vals)) < len(vals):
                [(twice, _)] = Counter(vals).most_common(1)
                raise FormatError(f"CC dictionary entry {concept!r} lists {twice!r} twice")
        return cls(cc, meta)

    @classmethod
    def load(cls, path: str | Path) -> "CCDictionary":
        return cls.loads(read_text(path))


def build_timestamp() -> str:
    """Reproducible build timestamp.

    Honors SOURCE_DATE_EPOCH so identical inputs rebuild to identical
    bytes; without it the epoch-zero placeholder keeps artifacts stable
    rather than embedding wall-clock time.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        try:
            stamp = int(epoch)
        except ValueError:
            raise ValidationError("SOURCE_DATE_EPOCH must be an integer") from None
        return (
            datetime.fromtimestamp(stamp, tz=timezone.utc)
            .isoformat()
            .replace("+00:00", "Z")
        )
    return "1970-01-01T00:00:00Z"


def build_dictionary(
    candidates: tuple[np.ndarray, np.ndarray, np.ndarray],
    lexicon: Lexicon,
    embeddings: EmbeddingTable,
    visibility: VisibilityTable,
    thresholds: Sequence[tuple[float, float]] = ((DEFAULT_GAMMA, DEFAULT_DELTA),),
    stopwords: Iterable[str] = DEFAULT_STOPWORDS,
    oracle: VisibilityOracle | None = None,
) -> list[CCDictionary]:
    """The dictionary of each ``(gamma, delta)`` in ``thresholds``: every
    lexicon concept's candidates above ``gamma`` that pass the filtering
    pipeline at ``delta``.

    ``candidates`` are ``cooc.normalize``'s (row, column, frequency)
    arrays at a gamma no larger than the smallest of ``thresholds``.  They
    are filtered once, so the oracle is asked once per concept; each pair
    thresholds the same frequencies and cosines.  The dictionaries share
    one lexicon view.

    ``meta`` records the build parameters, the candidates each filter stage
    removed over all concepts (``filter_counts``) and the kept concepts
    whose visibility stayed unresolved (``unresolved_kept``).
    """
    from .filters import filter_rows

    if not len(thresholds) or not np.isfinite(thresholds).all():
        raise ValidationError(f"need one or more finite (gamma, delta) pairs, got {thresholds!r}")
    row, col, value = candidates
    concepts = lexicon.concepts
    masks = filter_rows(concepts, len(lexicon), row, col, embeddings, visibility, stopwords, oracle)
    names, built_at, nn_cache = np.array(concepts, dtype=object), build_timestamp(), []
    dictionaries = []
    for gamma, delta in thresholds:
        selected = value > gamma
        similar, passed = masks.semantic(delta)
        stages = {
            "stopword": selected & masks.stopword,
            "invisible": selected & masks.invisible,
            "similar": selected & similar,
            "kept": selected & passed,
        }
        picked = np.flatnonzero(stages["kept"])
        kept = names[col[picked]].tolist()
        bounds = np.searchsorted(row[picked], np.arange(len(concepts) + 1)).tolist()
        cc = {concept: kept[lo:hi] for concept, lo, hi in zip(concepts, bounds, bounds[1:])}
        counts = {stage: int(np.count_nonzero(mask)) for stage, mask in stages.items()}
        meta = {
            "gamma": gamma,
            "delta": delta,
            "built_at": built_at,
            "filter_version": "stopwords>visibility>semantic/v1",
            "filter_counts": {"candidates": int(np.count_nonzero(selected)), **counts},
            "unresolved_kept": sorted(
                {concepts[k] for k in col[stages["kept"] & masks.unresolved].tolist()}
            ),
        }
        dictionary = CCDictionary(cc, meta)
        dictionary._nn_cache = nn_cache
        dictionaries.append(dictionary)
    return dictionaries


def cc_d(q: str, dictionary: CCDictionary, embeddings: EmbeddingTable) -> CCSet:
    """Dictionary lookup with nearest-neighbor generalization.

    A lexicon member uses its own entry.  Any other query takes its vector
    from ``embeddings`` (one without a vector raises
    ``MissingEmbeddingError``) and uses the entry of the nearest lexicon
    concept in embedding space.
    """
    qn = _query(q, "dictionary lookup")
    if len(dictionary) == 0:
        raise ValidationError("CC dictionary is empty")
    if qn in dictionary:
        source = qn
    else:
        source, _ = nearest_neighbor(embeddings.vector(qn), dictionary.lexicon_table(embeddings))
    concepts = [c for c in dictionary.get(source) if c != qn and c != BACKGROUND]
    return CCSet(
        query=qn, kind="dictionary", concepts=[BACKGROUND] + concepts, source_concept=source
    )


def cc_reach(
    mode: str,
    queries: Iterable[str],
    classes: Iterable[str] = (),
    dictionary: CCDictionary | None = None,
) -> set[str] | None:
    """The names whose embedding rows the CC sets of ``queries`` can look
    up: the queries, as given and normalized, and every concept that the
    ``mode`` generator (``classes`` for ``privileged``, ``dictionary`` for
    ``dict``) can put in their CC sets.  A ``dict`` query that is no key
    searches every key's row (``cc_d``) and may take any entry.  None
    stands for every row: an LLM's concepts are known once it is asked."""
    if mode == "llm":
        return None
    queries = list(queries)
    reach = {BACKGROUND, *queries, *map(normalize_concept, queries)}
    if mode == "privileged":
        reach.update(map(normalize_concept, classes))
    elif mode == "dict":
        cc = dictionary.cc
        keys = set(map(normalize_concept, queries)) - {"", BACKGROUND}
        if keys <= cc.keys():
            reach.update(chain.from_iterable(cc[key] for key in keys))
        else:
            reach.update(cc, chain.from_iterable(cc.values()))
    return reach


def cc_multi(
    cc_sets: list[CCSet],
    embeddings: EmbeddingTable,
    beta: float = DEFAULT_BETA,
    scope: str = "all",
) -> list[str]:
    """Merge per-query CC sets for multi-query segmentation: the concepts
    of every set in first-seen order, less the queries, each kept only
    while its cosine similarity to the queries stays at or below ``beta``
    (anything more similar would steal pixels from a query).  ``scope``
    ``"all"`` (default) checks a concept against every query, ``"source"``
    against the queries whose CC sets hold it, one of which must admit it.
    """
    if scope not in ("all", "source"):
        raise ValidationError(f"scope must be 'all' or 'source', got {scope!r}")
    queries = [s.query for s in cc_sets]
    if len(queries) != len(unique := set(queries)):
        raise ValidationError("duplicate queries in multi-query merge")
    query_rows = embeddings.rows(queries)
    seen = dict.fromkeys(chain.from_iterable(s.concepts for s in cc_sets))
    merged = [c for c in seen if c not in unique]
    sims = embeddings.pair_cosines(
        np.tile(embeddings.rows(merged), len(queries)), np.repeat(query_rows, len(merged))
    )
    # admitted[q, m]: merged concept m is at most beta similar to query q
    admitted = (sims <= beta).reshape(len(queries), len(merged))
    if scope == "all":
        keep = admitted.all(axis=0)
    else:
        # held[q, m]: query q's CC set holds merged concept m
        column = {concept: m for m, concept in enumerate(merged)}
        held = np.zeros_like(admitted)
        for q, cc_set in enumerate(cc_sets):
            held[q, [column[c] for c in cc_set.concepts if c in column]] = True
        keep = (admitted & held).any(axis=0)
    return list(compress(merged, keep.tolist()))
