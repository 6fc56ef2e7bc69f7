"""Spans around calls into each ccmine module, and the traced chain.

A span records (name, start, end, parent, run id).  Spans live in memory
and are written as one JSON file when the chain ends.  Public functions
are wrapped where the program looks them up (every ccmine module binding
the same function object), so calls the program makes internally are
spanned too.  Per-caption work is never wrapped: the mine stage is driven
here chunk by chunk, with one span per chunk.

The traced chain runs every stage on the seed's inputs -- mine, build-cc,
eval under both protocols, and the 30-step sigmoid sweep -- so every
per-layer metric is measured in every traced run.  Each stage runs twice,
back to back: untraced with every original function in place, then traced.
Each time is scaled by the host speed measured right after it, so the pair
gives the tracing overhead and the CLI time outside the layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from itertools import islice
from time import perf_counter

MINE_CHUNK = 8192
# the workload's own stage is measured at least this many times
MIN_PAIRS = 3


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.stages: dict[str, int] = {}
        self.pairs: dict[str, list[dict]] = {}
        self.undo: list[tuple] = []  # (owner, attribute, original value)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = perf_counter()
        try:
            yield idx
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.counts, result, args, kwargs)
            return result

        return traced

    def dump(self, path: str) -> None:
        payload = {
            "run_id": self.run_id,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "stages": self.stages,
            "pairs": self.pairs,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class NullTracer:
    """Stands in for a Tracer where the same code runs untraced."""

    def __init__(self):
        self.counts: Counter = Counter()

    def span(self, name: str):
        return nullcontext()


def self_times(spans: list[tuple[float, float, int | None]]) -> list[float]:
    """Each (start, end, parent) span's duration minus its child-span cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for k, (s_start, s_end, _) in enumerate(spans):
        covered, reach = 0.0, s_start
        for start, end in sorted(children.get(k, ())):
            start, end = max(start, reach), min(end, s_end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s_end - s_start) - covered)
    return out


def roots(spans: list[tuple[float, float, int | None]]) -> list[int]:
    """The top-level ancestor of each span."""
    out: list[int] = []
    for k, (_, _, parent) in enumerate(spans):
        out.append(k if parent is None else out[parent])
    return out


def _rebind(tracer: Tracer, orig, new) -> None:
    """Point every ccmine module's binding of ``orig`` at ``new``."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("ccmine") and mod is not None:
            for key in [k for k, v in vars(mod).items() if v is orig]:
                tracer.undo.append((mod, key, orig))
                setattr(mod, key, new)


def patch_function(tracer: Tracer, module, attr: str, name: str, after=None) -> None:
    """Replace every ccmine binding of ``module.attr`` with a spanned wrapper.
    A function the program no longer has is skipped, and its metric reads 0."""
    orig = getattr(module, attr, None)
    if orig is None:
        return
    _rebind(tracer, orig, tracer.wrap(name, orig, after))


def patch_method(tracer: Tracer, cls, attr: str, name: str, after=None) -> None:
    raw = cls.__dict__.get(attr)
    if raw is None:
        return
    tracer.undo.append((cls, attr, raw))
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, after)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, after))


def count_calls(tracer: Tracer, module, attr: str, counter: str) -> None:
    """Count calls without a span: used for per-pair scalar calls."""
    orig = getattr(module, attr, None)
    if orig is None:
        return
    counts = tracer.counts

    def counted(*args, **kwargs):
        counts[counter] += 1
        return orig(*args, **kwargs)

    _rebind(tracer, orig, counted)


def _count_candidates(counts, result, args, kwargs):
    counts["cooc.candidates"] += len(result.members)


def _count_outcome(counts, outcome, args, kwargs):
    counts["filters.removed_stopword"] += len(outcome.removed_stopword)
    counts["filters.removed_invisible"] += len(outcome.removed_invisible)
    counts["filters.removed_similar"] += len(outcome.removed_similar)
    counts["filters.unresolved_kept"] += len(outcome.unresolved_kept)
    counts["filters.kept"] += len(outcome.kept)


def _count_segmentation(counts, pixmap, args, kwargs):
    counts["segment.calls"] += 1
    counts["segment.pixels"] += int(pixmap.size)


def _count_planes(counts, result, args, kwargs):
    grid = args[0]
    counts["segment.planes_upsampled"] += grid.shape[2] if grid.ndim == 3 else 1


def _count_image(counts, result, args, kwargs):
    counts["metrics.classes_scored"] += len(result.scores)
    counts["metrics.class_failures"] += len(result.failures)


def _count_classic(counts, result, args, kwargs):
    counts["metrics.classes_scored"] += len(result)


def _count_bytes(counts, result, args, kwargs):
    data = args[1] if len(args) > 1 else kwargs["data"]
    counts["ioutil.bytes_written"] += len(data)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every driven module."""
    from ccmine import ccgen, cooc, embed, filters, ioutil, metrics, segment

    patch_method(tracer, cooc.CoocMatrix, "load", "cooc.loads")
    patch_function(tracer, cooc, "load_counts", "cooc.counts_load")
    patch_function(tracer, cooc, "normalize", "cooc.normalize")
    patch_function(tracer, cooc, "select_candidates", "cooc.select", _count_candidates)
    patch_function(tracer, filters, "run_pipeline", "filters.run_pipeline", _count_outcome)
    patch_function(tracer, filters, "filter_abstract", "filters.visibility")
    patch_function(tracer, filters, "filter_semantic", "filters.semantic")
    count_calls(tracer, embed, "cosine", "embed.cosine_calls")
    patch_method(tracer, embed.EmbeddingTable, "load", "embed.load")
    patch_function(tracer, ccgen, "build_dictionary", "ccgen.build_dictionary")
    patch_method(tracer, ccgen.CCDictionary, "save", "ccgen.dict_save")
    patch_function(tracer, ccgen, "cc_d", "ccgen.cc_d")
    patch_function(tracer, ccgen, "cc_multi", "ccgen.cc_multi")
    patch_method(tracer, segment.FeatureMap, "load", "segment.feature_load")
    patch_function(tracer, segment, "segment_pixels", "segment.segment_pixels", _count_segmentation)
    patch_function(tracer, segment, "patch_logits", "segment.patch_logits")
    patch_function(tracer, segment, "upsample_and_argmax", "segment.upsample_and_argmax")
    patch_function(tracer, segment, "bilinear_resize", "segment.resize", _count_planes)
    patch_function(tracer, segment, "sigmoid_score_field", "segment.sigmoid_field")
    patch_function(tracer, metrics, "load_ground_truth", "metrics.gt_load")
    patch_function(tracer, metrics, "iou_single_image", "metrics.iou_single_image", _count_image)
    patch_function(tracer, metrics, "classic_image", "metrics.classic_image", _count_classic)
    patch_function(tracer, metrics, "sigmoid_sweep", "metrics.sigmoid_sweep")
    patch_function(tracer, ioutil, "atomic_write_bytes", "ioutil.write", _count_bytes)


def uninstall(tracer: Tracer) -> None:
    """Put back every original that ``install`` replaced."""
    while tracer.undo:
        owner, key, orig = tracer.undo.pop()
        setattr(owner, key, orig)


def trace_mine(tracer: Tracer | NullTracer, corpus_path: str, lexicon_path: str, out_matrix: str, out_counts: str):
    """The mine job driven from here: one span per chunk of captions for
    parsing and for matching, then pair counting and both dumps."""
    from ccmine.cooc import build_cooc, dumps_counts
    from ccmine.corpus import Lexicon, iter_caption_lines, parse_caption
    from ccmine.ioutil import atomic_write_text

    counts = tracer.counts
    lexicon = Lexicon.from_file(lexicon_path)
    with tracer.span("corpus.matcher_build"):
        matcher = lexicon.matcher
    occurrence = [0] * len(lexicon)
    sets = []
    lines = iter_caption_lines(corpus_path)
    while True:
        with tracer.span("corpus.parse"):
            chunk = list(islice(lines, MINE_CHUNK))
            parsed = [parse_caption(line) for line in chunk if line and not line.isspace()]
        if not chunk:
            break
        texts = [p[1] for p in parsed if p is not None]
        counts["corpus.captions"] += len(parsed)
        counts["corpus.malformed"] += len(parsed) - len(texts)
        with tracer.span("corpus.match"):
            matched = [matcher.match(text) for text in texts]
        for concept_ids in matched:
            if concept_ids:
                counts["corpus.matched"] += 1
                for c in concept_ids:
                    occurrence[c] += 1
            k = len(concept_ids)
            counts["cooc.pair_increments"] += k * (k - 1) // 2
        sets.extend(matched)
    with tracer.span("cooc.count"):
        matrix = build_cooc(sets, dim=len(lexicon))
    counts["cooc.pairs"] += len(matrix.pairs)
    with tracer.span("cooc.dumps"):
        text = matrix.dumps()
    with tracer.span("cooc.counts_dump"):
        counts_text = dumps_counts(occurrence)
    atomic_write_text(out_matrix, text)
    atomic_write_text(out_counts, counts_text)


def _cli(argv: list[str]) -> int:
    from ccmine import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # a crash is a failed operation, not a crashed benchmark
        return 1


def _mine(tracer: Tracer | NullTracer, args: list[str]) -> int:
    try:
        trace_mine(tracer, *args)
    except Exception:
        return 1
    return 0


def measure_pair(tracer: Tracer, label: str, stage: dict, speed) -> tuple[dict[str, int], dict]:
    """Run one stage untraced, then traced into ``tracer``, back to back.

    ``stage['plain']`` is the stage's CLI argv, run untraced.  The traced
    run is ``stage['traced']``: the CLI argv, or for mine the arguments of
    ``trace_mine``, whose untraced baseline is the same loop without spans.
    ``speed()`` is measured after each run, and every time of the pair is
    multiplied by the median of those speeds, so the differences between
    them come from the runs and not from the calibration's own noise.
    Returns the exit codes and the scaled times.
    """
    speeds = []
    start = perf_counter()
    rcs = {"plain": _cli(stage["plain"])}
    cli_s = perf_counter() - start
    speeds.append(speed())
    if label == "mine":
        start = perf_counter()
        rcs["baseline"] = _mine(NullTracer(), stage["traced"])
        base_s = perf_counter() - start
        speeds.append(speed())
    else:
        base_s = cli_s
    install(tracer)
    try:
        with tracer.span(f"stage.{label}") as root:
            if label == "mine":
                rcs["traced"] = _mine(tracer, stage["traced"])
            else:
                rcs["traced"] = _cli(stage["traced"])
    finally:
        uninstall(tracer)
    speeds.append(speed())
    spans = [(s, e, p) for _, s, e, p in tracer.spans]
    top = roots(spans)
    layer_self = sum(t for k, t in enumerate(self_times(spans)) if top[k] == root and k != root)
    tracer.stages.setdefault(label, root)
    _, start, end, _ = tracer.spans[root]
    factor = statistics.median(speeds)
    return rcs, {
        "cli_s": cli_s * factor,
        "baseline_s": base_s * factor,
        "traced_s": (end - start) * factor,
        "layer_self_s": layer_self * factor,
    }


def run_chain(tracer: Tracer, spec: dict, speed) -> list[tuple[str, int]]:
    """Measure every stage once into ``tracer``, then the workload's own
    stage with fresh tracers until ``spec['seconds']`` have passed and it
    has ``MIN_PAIRS`` pairs.  Returns (name, exit code) of every run."""
    rcs: list[tuple[str, int]] = []
    start = perf_counter()
    for label, stage in spec["stages"].items():
        got, pair = measure_pair(tracer, label, stage, speed)
        rcs += [(f"{label} {kind}", rc) for kind, rc in got.items()]
        tracer.pairs[label] = [pair]
    own = spec["own"]
    pairs = tracer.pairs[own]
    while len(pairs) < MIN_PAIRS or perf_counter() - start < spec["seconds"]:
        got, pair = measure_pair(Tracer(tracer.run_id), own, spec["stages"][own], speed)
        rcs += [(f"{own} {kind} repeat", rc) for kind, rc in got.items()]
        pairs.append(pair)
    return rcs


def overheads(pairs: list[dict]) -> tuple[float, float]:
    """Medians over a stage's pairs: CLI time minus layer self time, and
    traced time minus the untraced time of the same code path."""
    return (
        statistics.median(p["cli_s"] - p["layer_self_s"] for p in pairs),
        statistics.median(p["traced_s"] - p["baseline_s"] for p in pairs),
    )
