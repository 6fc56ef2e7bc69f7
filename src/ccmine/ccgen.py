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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

import numpy as np

from .cooc import CoocMatrix, normalize as cooc_normalize, select_all
from .corpus import Lexicon, normalize_concept
from .embed import EmbeddingProvider, EmbeddingTable, cosines, nearest_neighbor
from .errors import FormatError, ValidationError
from .filters import FilterConfig, VisibilityOracle, VisibilityTable, filter_rows
from .ioutil import atomic_write_text, read_text
from .llm import LLMClient, ask_cc

BACKGROUND = "background"

DEFAULT_GAMMA = 0.01
DEFAULT_BETA = 0.9


@dataclass
class CCSet:
    """Contrastive concepts for one query."""

    query: str
    kind: str  # bg | dictionary | llm | privileged | none
    concepts: list[str]
    source_concept: str | None = None  # lexicon concept used for dictionary lookups


def cc_bg(q: str) -> CCSet:
    """The background-word baseline."""
    qn = normalize_concept(q)
    if not qn:
        raise ValidationError("query is empty")
    if qn == BACKGROUND:
        raise ValidationError('"background" cannot be a query for the background baseline')
    return CCSet(query=qn, kind="bg", concepts=[BACKGROUND])


def cc_none(q: str) -> CCSet:
    """No contrastive concepts; the query segments alone."""
    qn = normalize_concept(q)
    if not qn:
        raise ValidationError("query is empty")
    return CCSet(query=qn, kind="none", concepts=[])


def cc_privileged(q: str, classes: list[str]) -> CCSet:
    """All other dataset classes, order preserved."""
    qn = normalize_concept(q)
    if not qn:
        raise ValidationError("query is empty")
    concepts = [c for c in (normalize_concept(x) for x in classes) if c != qn]
    return CCSet(query=qn, kind="privileged", concepts=concepts)


def cc_llm(q: str, client: LLMClient, include_markers: bool = True) -> CCSet:
    """Concepts generated by the language model, plus "background"."""
    qn = normalize_concept(q)
    if not qn:
        raise ValidationError("query is empty")
    if qn == BACKGROUND:
        raise ValidationError('"background" cannot be a query for LLM generation')
    generated = [c for c in ask_cc(client, qn, include_markers) if c != qn and c != BACKGROUND]
    return CCSet(query=qn, kind="llm", concepts=[BACKGROUND] + generated)


class CCDictionary:
    """Per-concept contrastive concepts mined from a corpus.

    ``cc`` maps every lexicon concept to its (possibly empty) filtered
    list.  ``meta`` records the build inputs so artifacts are traceable.
    """

    def __init__(self, cc: dict[str, list[str]], meta: dict | None = None):
        norm = cache(normalize_concept)  # each concept recurs in many lists
        self.cc: dict[str, list[str]] = {
            norm(k): [norm(v) for v in vals] for k, vals in cc.items()
        }
        self.meta: dict = dict(meta or {})
        # (table, its lexicon view); holding the table keeps the identity
        # check sound, where an id() could be reused after collection
        self._nn_cache: tuple[EmbeddingTable, EmbeddingTable] | None = None

    def __contains__(self, concept: str) -> bool:
        return normalize_concept(concept) in self.cc

    def __len__(self) -> int:
        return len(self.cc)

    def get(self, concept: str) -> list[str]:
        return list(self.cc.get(normalize_concept(concept), []))

    def lexicon_table(self, table: EmbeddingTable) -> EmbeddingTable:
        """A view of ``table`` restricted to this dictionary's concepts, so
        nearest-neighbor lookups cannot land on non-lexicon entries."""
        if self._nn_cache is not None and self._nn_cache[0] is table:
            return self._nn_cache[1]
        sub = table.subset(sorted(self.cc))
        self._nn_cache = (table, sub)
        return sub

    # ---- serialization ----

    def dumps(self) -> str:
        payload = {"meta": self.meta, "cc": self.cc}
        return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, self.dumps())

    @classmethod
    def loads(cls, text: str) -> "CCDictionary":
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError):  # RecursionError: nested too deep
            raise FormatError("CC dictionary is not valid JSON") from None
        if not isinstance(payload, dict) or "cc" not in payload:
            raise FormatError("CC dictionary must be an object with a 'cc' member")
        cc = payload["cc"]
        if not isinstance(cc, dict):
            raise FormatError("CC dictionary 'cc' member must be an object")
        for k, v in cc.items():
            if not isinstance(k, str) or not isinstance(v, list) or not all(
                isinstance(x, str) for x in v
            ):
                raise FormatError(f"CC dictionary entry {k!r} must map a string to a string list")
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise FormatError("CC dictionary 'meta' member must be an object")
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
    matrix: CoocMatrix,
    occurrence: list[int],
    lexicon: Lexicon,
    embeddings: EmbeddingTable,
    visibility: VisibilityTable,
    gamma: float = DEFAULT_GAMMA,
    filter_config: FilterConfig | None = None,
    oracle: VisibilityOracle | None = None,
    oracle_source: str = "llm",
    extra_meta: dict | None = None,
) -> CCDictionary:
    """Select candidates above ``gamma`` for every lexicon concept and run
    them through the filtering pipeline, all concepts at once.

    ``meta`` records the build parameters, the candidates each filter stage
    removed over all concepts (``filter_counts``) and the kept concepts
    whose visibility stayed unresolved (``unresolved_kept``).
    """
    filter_config = filter_config or FilterConfig()
    freq = cooc_normalize(matrix, occurrence, lexicon)
    row, col = select_all(freq, gamma)
    concepts = lexicon.concepts
    masks = filter_rows(
        concepts,
        len(concepts),
        row,
        col,
        embeddings,
        visibility,
        config=filter_config,
        oracle=oracle,
        oracle_source=oracle_source,
    )
    picked = np.flatnonzero(masks.kept)
    kept = np.array(concepts, dtype=object)[col[picked]].tolist()
    bounds = np.searchsorted(row[picked], np.arange(len(concepts) + 1)).tolist()
    cc = {concept: kept[lo:hi] for concept, lo, hi in zip(concepts, bounds, bounds[1:])}
    counts = {
        stage: int(np.count_nonzero(getattr(masks, stage)))
        for stage in ("stopword", "invisible", "similar", "kept")
    }
    meta = {
        "gamma": gamma,
        "delta": filter_config.delta,
        "built_at": build_timestamp(),
        "filter_version": "stopwords>visibility>semantic/v1",
        "filter_counts": {"candidates": len(col), **counts},
        "unresolved_kept": sorted(
            {concepts[k] for k in col[masks.kept & masks.unresolved].tolist()}
        ),
    }
    meta.update(extra_meta or {})
    return CCDictionary(cc, meta)


def cc_d(
    q: str,
    dictionary: CCDictionary,
    embeddings: EmbeddingTable,
    provider: EmbeddingProvider | None = None,
) -> CCSet:
    """Dictionary lookup with nearest-neighbor generalization.

    A lexicon member uses its own entry.  Any other query needs a provider
    to embed it; the lookup then uses the entry of the nearest lexicon
    concept in embedding space.
    """
    qn = normalize_concept(q)
    if not qn:
        raise ValidationError("query is empty")
    if qn == BACKGROUND:
        raise ValidationError('"background" cannot be a query for dictionary lookup')
    if len(dictionary) == 0:
        raise ValidationError("CC dictionary is empty")
    if qn in dictionary:
        source = qn
    else:
        if provider is None:
            raise ValidationError(
                f"query {q!r} is not in the lexicon and no embedding provider is configured"
            )
        vec = provider.embed(qn)
        source, _ = nearest_neighbor(vec, dictionary.lexicon_table(embeddings))
    concepts = [c for c in dictionary.get(source) if c != qn and c != BACKGROUND]
    return CCSet(
        query=qn, kind="dictionary", concepts=[BACKGROUND] + concepts, source_concept=source
    )


def cc_multi(
    cc_sets: list[CCSet],
    embeddings: EmbeddingTable,
    beta: float = DEFAULT_BETA,
    scope: str = "all",
) -> tuple[list[str], list[str]]:
    """Merge per-query CC sets for multi-query segmentation.

    A merged concept is kept only while its cosine similarity to the
    queries stays at or below ``beta``; anything more similar would steal
    pixels from a query.  ``scope`` selects which queries a concept is
    checked against: ``"all"`` (default) checks every query, ``"source"``
    checks only the query whose CC set contributed the concept.

    Returns (kept, excluded), each deduplicated in first-seen order.
    """
    if scope not in ("all", "source"):
        raise ValidationError(f"scope must be 'all' or 'source', got {scope!r}")
    queries = [s.query for s in cc_sets]
    if len(queries) != len(set(queries)):
        raise ValidationError("duplicate queries in multi-query merge")
    query_vecs = [embeddings.vector(qn) for qn in queries]
    query_index = {qn: k for k, qn in enumerate(queries)}
    order: list[str] = []
    sources: dict[str, list[str]] = {}
    for cc_set in cc_sets:
        for concept in cc_set.concepts:
            contributed = sources.setdefault(concept, [])
            if not contributed:
                order.append(concept)
            if cc_set.query not in contributed:
                contributed.append(cc_set.query)
    merged = [c for c in order if c not in query_index]
    vectors = np.array([embeddings.vector(c) for c in merged]).reshape(len(merged), embeddings.dim)
    query_rows = np.array(query_vecs).reshape(len(queries), embeddings.dim)
    # admitted[q, m]: merged concept m is at most beta similar to query q
    sims = cosines(
        np.tile(vectors, (len(queries), 1)), np.repeat(query_rows, len(merged), axis=0)
    )
    admitted = (sims <= beta).reshape(len(queries), len(merged))
    column = {concept: m for m, concept in enumerate(merged)}
    kept: list[str] = []
    excluded: list[str] = []
    for concept in order:
        if concept in query_index:
            excluded.append(concept)
            continue
        if scope == "all":
            ok = admitted[:, column[concept]].all()
        else:
            # the union over source queries keeps a concept admitted by any
            # of the queries that contributed it
            ok = any(admitted[query_index[src], column[concept]] for src in sources[concept])
        if ok:
            kept.append(concept)
        else:
            excluded.append(concept)
    return kept, excluded
