"""Per-layer metrics from a traced run, and what each should move.

Every row of ``LAYERS`` is one per-layer metric:
(name, unit, better, source, moves, workloads).  ``source`` says how the
value comes from the trace: ``self:<span>`` sums the spans' self time
(duration minus the part their child spans cover), ``total:<span>`` sums
their whole duration, ``count:<counter>`` reads a counter, and the rest are
derived below.  ``moves`` names the end-to-end metric the layer should
move and ``workloads`` the workloads it should move it on.

The traced chain runs all five stages, so times add up over the stages
that call a layer: ``segment.resize_s`` covers eval, eval_classic and
sweep alike.

Two counters are 0 on every run that passes the output checks:
``filters.unresolved_kept`` (build runs with ``--unknown-visibility
accept``, so no candidate stays unresolved) and ``metrics.class_failures``.
They are kept so that a change which starts producing either shows.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import overheads, self_times

# the traced stage that stands for a workload
OWN_STAGE = {"mine_w2": "mine"}

RATE = "items_per_s"
MINE = "mine+mine_w2"
EVAL = "eval+eval_classic"

LAYERS = [
    # corpus: mine's parse and match, one span per chunk of captions
    ("corpus.parse_s", "s", "lower", "self:corpus.parse", RATE, MINE),
    ("corpus.match_s", "s", "lower", "self:corpus.match", RATE, MINE),
    ("corpus.matcher_build_s", "s", "lower", "self:corpus.matcher_build", RATE, MINE),
    ("corpus.captions", "count", "higher", "count:corpus.captions", RATE, MINE),
    ("corpus.malformed", "count", "lower", "count:corpus.malformed", RATE, MINE),
    ("corpus.matched_ratio", "ratio", "higher", "matched_ratio", RATE, MINE),
    # cooc, write side
    ("cooc.count_s", "s", "lower", "self:cooc.count", RATE, MINE),
    ("cooc.dumps_s", "s", "lower", "self:cooc.dumps", RATE, MINE),
    ("cooc.counts_dump_s", "s", "lower", "self:cooc.counts_dump", RATE, MINE),
    ("cooc.pairs", "count", "higher", "count:cooc.pairs", RATE, MINE),
    ("cooc.pair_increments", "count", "higher", "count:cooc.pair_increments", RATE, MINE),
    # cooc, read side
    ("cooc.loads_s", "s", "lower", "self:cooc.loads", RATE, "build"),
    ("cooc.counts_load_s", "s", "lower", "self:cooc.counts_load", RATE, "build"),
    ("cooc.normalize_s", "s", "lower", "self:cooc.normalize", RATE, "build"),
    ("cooc.select_s", "s", "lower", "self:cooc.select", RATE, "build"),
    ("cooc.candidates", "count", "higher", "count:cooc.candidates", RATE, "build"),
    # filters: the stop-word stage is inline in run_pipeline, so it is
    # that call's self time
    ("filters.stopwords_s", "s", "lower", "self:filters.run_pipeline", RATE, "build"),
    ("filters.visibility_s", "s", "lower", "self:filters.visibility", RATE, "build"),
    ("filters.semantic_s", "s", "lower", "self:filters.semantic", RATE, "build"),
    ("filters.removed_stopword", "count", "higher", "count:filters.removed_stopword", RATE, "build"),
    ("filters.removed_invisible", "count", "higher", "count:filters.removed_invisible", RATE, "build"),
    ("filters.removed_similar", "count", "higher", "count:filters.removed_similar", RATE, "build"),
    ("filters.unresolved_kept", "count", "lower", "count:filters.unresolved_kept", RATE, "build"),
    ("filters.kept_ratio", "ratio", "higher", "kept_ratio", RATE, "build"),
    # embed
    ("embed.load_s", "s", "lower", "self:embed.load", "setup_s", "all"),
    ("embed.cosine_calls", "count", "lower", "count:embed.cosine_calls", RATE, "build"),
    # ccgen
    ("ccgen.build_dictionary_s", "s", "lower", "total:ccgen.build_dictionary", RATE, "build"),
    ("ccgen.dict_save_s", "s", "lower", "self:ccgen.dict_save", RATE, "build"),
    ("ccgen.cc_d_s", "s", "lower", "self:ccgen.cc_d", RATE, "eval"),
    ("ccgen.cc_multi_s", "s", "lower", "self:ccgen.cc_multi", RATE, "eval_classic"),
    # segment: on sweep the logit, resize and argmax layers should barely
    # move anything; its field is one plane per (image, class)
    ("segment.feature_load_s", "s", "lower", "self:segment.feature_load", f"peak_rss_mb+{RATE}", EVAL),
    ("segment.patch_logits_s", "s", "lower", "self:segment.patch_logits", RATE, EVAL),
    ("segment.resize_s", "s", "lower", "self:segment.resize", RATE, EVAL),
    ("segment.argmax_s", "s", "lower", "self:segment.upsample_and_argmax", RATE, EVAL),
    ("segment.sigmoid_field_s", "s", "lower", "total:segment.sigmoid_field", RATE, "sweep"),
    ("segment.calls", "count", "lower", "count:segment.calls", RATE, EVAL),
    ("segment.planes_upsampled", "count", "lower", "count:segment.planes_upsampled", RATE, EVAL),
    ("segment.pixels", "count", "lower", "count:segment.pixels", RATE, EVAL),
    # metrics: the sweep's threshold loop is sigmoid_sweep_s minus
    # segment.sigmoid_field_s
    ("metrics.gt_load_s", "s", "lower", "self:metrics.gt_load", f"peak_rss_mb+{RATE}", EVAL),
    ("metrics.iou_single_image_p50_s", "s", "lower", "median:metrics.iou_single_image", RATE, "eval"),
    ("metrics.iou_single_image_max_s", "s", "lower", "max:metrics.iou_single_image", RATE, "eval"),
    ("metrics.iou_single_images", "count", "higher", "n:metrics.iou_single_image", RATE, "eval"),
    ("metrics.classic_image_s", "s", "lower", "total:metrics.classic_image", RATE, "eval_classic"),
    ("metrics.sigmoid_sweep_s", "s", "lower", "total:metrics.sigmoid_sweep", RATE, "sweep"),
    ("metrics.classes_scored", "count", "higher", "count:metrics.classes_scored", RATE, EVAL),
    ("metrics.class_failures", "count", "lower", "count:metrics.class_failures", RATE, EVAL),
    # ioutil
    ("ioutil.write_s", "s", "lower", "self:ioutil.write", RATE, "mine+build"),
    ("ioutil.bytes_written", "B", "lower", "count:ioutil.bytes_written", RATE, "mine+build"),
    # cli: the workload's untraced CLI job time minus the self time of the
    # layer spans its traced stage recorded; mine_w2 uses mine's stage,
    # whose layers the benchmark drives in one process
    ("cli.overhead_s", "s", "lower", "cli_overhead", RATE, "own"),
    # traced stage time minus the untraced time of the same code path
    ("trace.overhead_s", "s", "lower", "trace_overhead", "none", "own"),
]


def per_layer(trace: dict, workload: str) -> dict[str, tuple[float, str]]:
    """Each per-layer metric from a trace file's contents.  The overheads
    are medians over the workload's own stage's pairs of scaled times
    (see ``tracing.measure_pair``)."""
    spans = trace["spans"]
    counts = trace["counts"]
    self_s = self_times([(s["start"], s["end"], s["parent"]) for s in spans])
    by_name: dict[str, list[int]] = defaultdict(list)
    for k, s in enumerate(spans):
        by_name[s["name"]].append(k)

    def durations(name):
        return [spans[k]["end"] - spans[k]["start"] for k in by_name.get(name, ())]

    cli_overhead, trace_overhead = overheads(trace["pairs"][OWN_STAGE.get(workload, workload)])
    derived = {
        "matched_ratio": counts.get("corpus.matched", 0) / max(1, counts.get("corpus.captions", 0)),
        "kept_ratio": counts.get("filters.kept", 0) / max(1, counts.get("cooc.candidates", 0)),
        "cli_overhead": cli_overhead,
        "trace_overhead": trace_overhead,
    }
    out = {}
    for name, unit, _better, source, _moves, _workloads in LAYERS:
        kind, _, key = source.partition(":")
        if kind == "self":
            value = sum(self_s[k] for k in by_name.get(key, ()))
        elif kind == "total":
            value = sum(durations(key))
        elif kind == "count":
            value = counts.get(key, 0)
        elif kind == "median":
            value = statistics.median(durations(key) or [0.0])
        elif kind == "max":
            value = max(durations(key), default=0.0)
        elif kind == "n":
            value = len(durations(key))
        else:
            value = derived[kind]
        out[name] = (value, unit)
    return out
