"""Candidate filtering: stop-words, visibility, semantic similarity.

Mined candidate lists pass through three stages in a fixed order:

1. stop-words: drop generic photography vocabulary,
2. visibility: drop concepts that name nothing visible in an image,
3. semantic: drop concepts too similar to the target, which would
   otherwise steal the target's own pixels.

Each stage only removes items and preserves the incoming order, so the
pipeline output is always a subsequence of its input.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corpus import normalize_concept
from .embed import EmbeddingTable, cosines
from .errors import CCMineError, FormatError, MissingEmbeddingError, ValidationError
from .ioutil import atomic_write_text, read_text

DEFAULT_STOPWORDS = frozenset({"image", "photo", "picture", "view"})
DEFAULT_DELTA = 0.8
# candidate vectors gathered at once by the semantic stage
_GATHER_ROWS = 256

_ALLOWED_SOURCES = ("cached", "llm", "manual")

# An oracle answers "is this concept visible?" and may raise on outage.
VisibilityOracle = Callable[[str], bool]


def reject_unknown(_concept: str) -> bool:
    """Policy oracle: concepts without a cached answer are dropped."""
    return False


def accept_unknown(_concept: str) -> bool:
    """Policy oracle: concepts without a cached answer are kept."""
    return True


@dataclass
class FilterConfig:
    """Knobs for the filtering pipeline."""

    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    delta: float = DEFAULT_DELTA


class VisibilityTable:
    """Cached yes/no visibility answers, persisted as line-delimited JSON.

    Entries are (concept -> visible, source) where source records how the
    answer was obtained.  get-or-insert is atomic under a lock so parallel
    filters never ask the oracle twice for one concept.
    """

    def __init__(self, entries: dict[str, tuple[bool, str]] | None = None):
        self._entries: dict[str, tuple[bool, str]] = dict(entries or {})
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, concept: str) -> bool:
        return normalize_concept(concept) in self._entries

    def get(self, concept: str) -> bool | None:
        entry = self._entries.get(normalize_concept(concept))
        return entry[0] if entry is not None else None

    def set(self, concept: str, visible: bool, source: str = "manual") -> None:
        if source not in _ALLOWED_SOURCES:
            raise ValidationError(f"unknown visibility source {source!r}")
        with self._lock:
            self._entries[normalize_concept(concept)] = (bool(visible), source)

    def resolve(self, concept: str, oracle: VisibilityOracle, source: str = "llm") -> bool:
        """Return the cached answer or ask the oracle exactly once."""
        key = normalize_concept(concept)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                return entry[0]
            visible = bool(oracle(key))
            self._entries[key] = (visible, source)
            return visible

    # ---- serialization ----

    @classmethod
    def from_file(cls, path: str | Path) -> "VisibilityTable":
        entries: dict[str, tuple[bool, str]] = {}
        for lineno, line in enumerate(read_text(path).split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError):  # RecursionError: nested too deep
                raise FormatError(f"visibility table line {lineno} is not JSON") from None
            if (
                not isinstance(rec, dict)
                or not isinstance(rec.get("concept"), str)
                or not isinstance(rec.get("visible"), bool)
                or rec.get("source") not in _ALLOWED_SOURCES
            ):
                raise FormatError(
                    f"visibility table line {lineno} needs string 'concept', "
                    f"bool 'visible', and source in {_ALLOWED_SOURCES}"
                )
            key = normalize_concept(rec["concept"])
            if key in entries:
                raise FormatError(f"visibility table line {lineno} repeats concept {key!r}")
            entries[key] = (rec["visible"], rec["source"])
        return cls(entries)

    def save(self, path: str | Path) -> None:
        lines = []
        for concept in sorted(self._entries):
            visible, source = self._entries[concept]
            lines.append(
                json.dumps(
                    {"concept": concept, "visible": visible, "source": source},
                    ensure_ascii=False,
                )
                + "\n"
            )
        atomic_write_text(path, "".join(lines))


class StageMasks(NamedTuple):
    """Per-pair outcome of the filter stages, one bool per candidate pair.

    Every pair is in exactly one of ``kept``, ``stopword``, ``invisible``
    and ``similar``: the stage that removed it, or none.  ``unresolved``
    marks the pairs whose candidate's visibility was never resolved; a
    kept one makes the run unpublishable.
    """

    kept: np.ndarray
    stopword: np.ndarray
    invisible: np.ndarray
    similar: np.ndarray
    unresolved: np.ndarray


def _stopword_flags(names: Sequence[str], stopwords) -> np.ndarray:
    """Per name: is it a stop-word?  ``names`` are normalized."""
    stop = {normalize_concept(s) for s in stopwords}
    return np.array([name in stop for name in names], dtype=bool)


def _visibility_flags(
    names: Sequence[str],
    ids: np.ndarray,
    table: VisibilityTable,
    oracle: VisibilityOracle | None,
    source: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Per name, (invisible, unresolved), looked up for the names in ``ids``.

    Each unknown name goes to the oracle once, in the order ``ids`` first
    holds it.  A name that no oracle is configured for, or whose oracle call
    fails (service outage), stays unresolved: the caller keeps and flags
    it, since availability problems must not silently shrink candidate
    lists.
    """
    invisible = np.zeros(len(names), dtype=bool)
    unresolved = np.zeros(len(names), dtype=bool)
    distinct, first = np.unique(ids, return_index=True)
    for k in distinct[np.argsort(first)].tolist():
        visible = table.get(names[k])
        if visible is None and oracle is not None:
            try:
                visible = table.resolve(names[k], oracle, source=source)
            except CCMineError:
                pass
        if visible is None:
            unresolved[k] = True
        else:
            invisible[k] = not visible
    return invisible, unresolved


def _similar_flags(
    names: Sequence[str],
    targets: int,
    row: np.ndarray,
    col: np.ndarray,
    live: np.ndarray,
    table: EmbeddingTable,
    delta: float,
) -> np.ndarray:
    """Per pair: is the cosine of candidate ``names[col]`` to its target
    ``names[row]`` strictly above ``delta``?  Only ``live`` pairs compare.

    Every target needs an embedding, and so does every live candidate; the
    error names the first one missing in row order, each row's target
    before its candidates.
    """
    at = table.positions(names)
    missing_target = np.flatnonzero(at[:targets] < 0)
    missing_pair = np.flatnonzero(live & (at[col] < 0))
    if len(missing_target) or len(missing_pair):
        t = missing_target[0] if len(missing_target) else targets
        if len(missing_pair) and row[missing_pair[0]] < t:
            raise MissingEmbeddingError(names[col[missing_pair[0]]])
        raise MissingEmbeddingError(names[t])
    similar = np.zeros(len(row), dtype=bool)
    pairs = np.flatnonzero(live)
    unit = table.unit
    # bounded gathers keep the transient vector copies small
    for start in range(0, len(pairs), _GATHER_ROWS):
        part = pairs[start : start + _GATHER_ROWS]
        similar[part] = cosines(unit[at[col[part]]], unit[at[row[part]]]) > delta
    return similar


def filter_rows(
    names: Sequence[str],
    targets: int,
    row: np.ndarray,
    col: np.ndarray,
    embeddings: EmbeddingTable,
    visibility: VisibilityTable,
    config: FilterConfig | None = None,
    oracle: VisibilityOracle | None = None,
    oracle_source: str = "llm",
) -> StageMasks:
    """Apply stop-word, visibility, and semantic filters, in that order, to
    the candidate lists of many targets at once.

    ``names`` are distinct normalized concepts.  Row ``r < targets`` filters
    for target ``names[r]`` the candidates ``names[col[p]]`` of the pairs
    ``p`` with ``row[p] == r``, in pair order; ``row`` ascends.  An unknown
    concept goes to the oracle once, however many rows hold it, so a failed
    answer flags it in every row.  The result holds one mask per stage,
    each aligned with ``row`` and ``col``.
    """
    config = config or FilterConfig()
    stopword = _stopword_flags(names, config.stopwords)[col]
    invisible, unresolved = _visibility_flags(
        names, col[~stopword], visibility, oracle, oracle_source
    )
    invisible, unresolved = invisible[col], unresolved[col]
    live = ~stopword & ~invisible
    similar = _similar_flags(names, targets, row, col, live, embeddings, config.delta)
    return StageMasks(live & ~similar, stopword, invisible, similar, unresolved)
