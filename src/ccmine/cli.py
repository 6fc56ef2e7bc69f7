"""Command-line interface.

Subcommands cover the full pipeline: ``mine`` counts co-occurrences over a
caption corpus, ``build-cc`` turns counts into a filtered contrastive
concept dictionary, ``gen-cc`` produces the CC set for one query,
``segment`` runs prompt segmentation over a stored feature map, ``eval``
scores a dataset under either evaluation protocol, and ``sweep`` repeats
an evaluation over a grid of thresholds.

Options can come from a JSON run-config (``--config``); explicit flags win
over config values.  Exit codes: 0 success; 2 I/O failure or an argparse
usage error (an unknown or missing flag, a value that is no number or not
among a flag's choices); 3 validation failure, flag values that parse but
are invalid (NaN, infinity, out of bounds) and flags the job does not read
included; 4 service failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

from . import ccgen, metrics
from .ccgen import (
    BACKGROUND,
    CCDictionary,
    CCSet,
    build_dictionary,
    cc_bg,
    cc_d,
    cc_llm,
    cc_multi,
    cc_none,
    cc_privileged,
    cc_reach,
)
from .cooc import CoocMatrix, load_counts, mine_corpus, normalize, save_counts
from .corpus import Lexicon, normalize_concept
from .embed import EmbeddingTable
from .errors import (
    CCMineError,
    ResponseParseError,
    ServiceError,
    TransportError,
    ValidationError,
)
from .filters import (
    DEFAULT_DELTA,
    DEFAULT_STOPWORDS,
    VisibilityTable,
    accept_unknown,
    reject_unknown,
)
from .ioutil import HashedInput, atomic_write_text, parse_json, read_text
from .llm import API_STYLES, LLMClient, visibility_oracle
from .segment import (
    FeatureMap,
    PromptSet,
    SegMap,
    apply_cc_mask,
    build_prompt_set,
    remap_cc_to_background,
    segment_pixels,
)

log = logging.getLogger("ccmine")


@dataclass(frozen=True)
class Option:
    """One run-config key: its value type, allowed values and default.

    ``flag`` spells the command-line flag when it is not ``--`` plus the
    key with ``.`` and ``_`` turned into ``-``.
    """

    type: type
    default: object = None
    choices: tuple[str, ...] | None = None
    flag: str | None = None
    help: str | None = None


# every run-config key; ``llm.<name>`` is ``<name>`` in the config's "llm"
# object and the ``LLMClient`` field of that name
OPTIONS: dict[str, Option] = {
    "workers": Option(int),
    "gamma": Option(float, ccgen.DEFAULT_GAMMA),
    "delta": Option(float, DEFAULT_DELTA),
    "beta": Option(float, ccgen.DEFAULT_BETA),
    "beta_scope": Option(str, "all", ("all", "source")),
    "stopwords": Option(list, DEFAULT_STOPWORDS),
    "aggregation": Option(str, "class", ("class", "image")),
    "upsample": Option(str, "logits", ("logits", "labels")),
    "cc_mode": Option(str, "bg", ("none", "bg", "dict", "llm", "privileged")),
    "segmenter": Option(str, "argmax", ("argmax", "sigmoid")),
    "sigmoid_threshold": Option(float),
    "steps": Option(int, 30, help="sample count for the sigmoid sweep"),
    "unknown_visibility": Option(str, "reject", ("reject", "accept", "llm")),
    "background_label": Option(str, BACKGROUND),
    "include_markers": Option(bool, True),
    "llm.endpoint": Option(str),
    "llm.model": Option(str),
    "llm.api_style": Option(str, choices=API_STYLES, flag="--api-style"),
    "llm.temperature": Option(float),
    "llm.max_tokens": Option(int),
    "llm.timeout": Option(float),
    "llm.max_attempts": Option(int, flag="--llm-attempts"),
    "llm.cache_dir": Option(str, flag="--llm-cache"),
}

_TYPE_NAMES = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    bool: "true or false",
    list: "a list of strings",
}


def _has_type(value, kind: type) -> bool:
    if isinstance(value, bool):  # JSON true/false are Python ints too
        return kind is bool
    if kind is float:
        # an integer past float range (a literal of over 308 digits) is none,
        # and neither are the NaN and Infinity that Python's json accepts
        if isinstance(value, int):
            return abs(value) <= sys.float_info.max
        return isinstance(value, float) and math.isfinite(value)
    if kind is list:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return isinstance(value, kind)


def _load_config(path: str) -> dict:
    """The run-config as ``OPTIONS`` keys, each value checked against its
    option; numbers for float options come back as floats."""
    config = parse_json(read_text(path), f"run config {path}")
    if not isinstance(config, dict):
        raise ValidationError("run config must be a JSON object")
    llm_cfg = config.pop("llm", {})
    if not isinstance(llm_cfg, dict):
        raise ValidationError("run-config 'llm' must be an object")
    flat = dict(config)
    flat.update((f"llm.{name}", value) for name, value in llm_cfg.items())
    unknown = [k for k in config if "." in k or k not in OPTIONS]
    unknown += [k for k in flat if k.startswith("llm.") and k not in OPTIONS]
    if unknown:
        raise ValidationError(f"unknown run-config keys: {sorted(unknown)}")
    for key, value in flat.items():
        if value is None:  # null leaves the key unset
            continue
        opt = OPTIONS[key]
        if not _has_type(value, opt.type):
            raise ValidationError(
                f"run-config {key!r} must be {_TYPE_NAMES[opt.type]}, got {value!r}"
            )
        if opt.choices is not None and value not in opt.choices:
            raise ValidationError(
                f"run-config {key!r} must be one of {list(opt.choices)}, got {value!r}"
            )
        if opt.type is float:
            flat[key] = float(value)
    return flat


class Settings:
    """Flag-over-config-over-default resolution for one command invocation,
    recording each command-line attribute it reads."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.read: set[str] = set()
        config_path = self.arg("config")
        self.config = _load_config(config_path) if config_path else {}

    def arg(self, name: str):
        """The command-line value stored in ``name``, recorded as read."""
        self.read.add(name)
        return getattr(self.args, name, None)

    def get(self, key: str):
        """The value of an ``OPTIONS`` key: its flag, else the config, else
        the option's default."""
        value = self.arg(_dest(key))
        if value is None:
            value = self.config.get(key)
        return OPTIONS[key].default if value is None else value

    def workers(self) -> int:
        value = self.get("workers")
        if value is None:
            env = os.environ.get("CCMINE_WORKERS")
            if env is not None:
                try:
                    value = int(env)
                except ValueError:
                    raise ValidationError(
                        f"CCMINE_WORKERS must be an integer, got {env!r}"
                    ) from None
        value = 1 if value is None else value
        if value < 1:
            raise ValidationError("workers must be >= 1")
        return value

    def llm(self) -> tuple[dict, bool]:
        """The ``LLMClient`` fields that are set, and ``include_markers``."""
        fields = {
            key.removeprefix("llm."): value
            for key in OPTIONS
            if key.startswith("llm.") and (value := self.get(key)) is not None
        }
        return fields, self.get("include_markers")

    def refuse_unread(self, job: str) -> None:
        """Refuse the first flag, in parser order, that the command line
        gave and nothing read: call it once the job has read every value."""
        for action in self.args.flags:
            given = getattr(self.args, action.dest, action.default) != action.default
            if given and action.dest not in self.read:
                raise ValidationError(f"{action.option_strings[0]} does nothing in {job}")


def _dest(key: str) -> str:
    return key.replace(".", "_")


def _flag(key: str) -> str:
    """The command-line flag of an ``OPTIONS`` key."""
    return OPTIONS[key].flag or "--" + key.replace(".", "-").replace("_", "-")


def _finite(flag: str):
    """The ``type=`` of a float flag: a text that is no number is a usage
    error, and NaN or an infinity a validation error."""

    def number(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValidationError(f"{flag} must be a finite number, got {text!r}")
        return value

    return number


def _background_label(settings: Settings) -> str:
    """The background label, normalized as a concept; one that normalizes
    to nothing names no query, so it is refused."""
    label = normalize_concept(settings.get("background_label"))
    if not label:
        raise ValidationError("--background-label must name a concept, not an empty string")
    return label


def _cc_flags(settings: Settings, classes: bool = False) -> tuple:
    """The CC mode and what it reads: the ``--cc-dict`` path in ``dict``
    mode, the two class flags in ``privileged`` mode (in every mode with
    ``classes``), the LLM settings in ``llm`` mode; Nones for the rest."""
    mode = settings.get("cc_mode")
    cc_dict = settings.arg("cc_dict") if mode == "dict" else None
    class_flags = (None, None)
    if classes or mode == "privileged":
        names = settings.arg("classes")  # the file is read only without --classes
        class_flags = (names, None if names else settings.arg("classes_file"))
    return mode, cc_dict, class_flags, settings.llm() if mode == "llm" else None


def _classes(classes: str | None, classes_file: str | None, sidecars=None) -> list[str] | None:
    """The ``classes`` list, else the ``classes_file`` one; when neither
    names a class and ground-truth ``sidecars`` are given, every label they
    name, sorted."""
    names = None
    if classes:
        names = [normalize_concept(c) for c in classes.split(",") if normalize_concept(c)]
    elif classes_file:
        lines = [line.strip() for line in read_text(classes_file).split("\n")]
        names = [normalize_concept(line) for line in lines if line and not line.startswith("#")]
    if names or sidecars is None:
        return names
    return sorted({name for labels, _, _ in sidecars for name in labels.values()})


def _sidecars(gt_dir: str, image_ids: list[str]) -> list:
    """(class names by id, ignore id, background id) of each ground-truth
    sidecar that reads, in image order.  An unreadable sidecar is left to
    its image's own load."""
    sidecars = []
    for image_id in image_ids:
        try:
            sidecars.append(metrics.read_gt_sidecar(_gt_path(gt_dir, image_id)))
        except (OSError, CCMineError):
            continue
    return sidecars


def _scored_classes(sidecars: list) -> list[str]:
    """The labels an IoU-single eval may score, in first-seen order: each
    sidecar's in id order, but those of its ignore and background ids."""
    seen: dict[str, None] = {}
    for names, ignore_id, background_id in sidecars:
        for class_id in sorted(names):
            if class_id not in (ignore_id, background_id):
                seen.setdefault(names[class_id])
    return list(seen)


def _cc_source(cc: tuple, embeddings, queries, classes, background_label=None) -> tuple:
    """The CC generator of the ``_cc_flags`` ``cc`` for ``queries``, and the
    ``embeddings`` table (None without a path) of only the rows their CC
    sets (``ccgen.cc_reach``) and ``background_label``, a query that takes
    none, can reach.  ``dict`` mode reads ``--cc-dict`` before the table."""
    mode, cc_dict, _, llm = cc
    if mode == "dict" and (cc_dict is None or not embeddings):
        raise ValidationError("cc-mode 'dict' needs --cc-dict and --embeddings")
    dictionary = CCDictionary.load(cc_dict) if mode == "dict" else None
    table = None
    if embeddings is not None:
        reach = cc_reach(mode, queries, classes or (), dictionary)
        if reach is not None and background_label is not None:
            reach.add(background_label)
        table = EmbeddingTable.load(embeddings, reach)
    if mode == "dict":
        source = partial(cc_d, dictionary=dictionary, embeddings=table)
    elif mode == "llm":
        fields, include_markers = llm
        source = partial(cc_llm, client=LLMClient(**fields), include_markers=include_markers)
    elif mode == "privileged":
        if classes is None:
            raise ValidationError("cc-mode 'privileged' needs the dataset class list")
        source = partial(cc_privileged, classes=classes)
    else:
        source = cc_none if mode == "none" else cc_bg
    return source, table


def _dataset_ids(features_dir: str) -> list[str]:
    """Ids of the ``.feat`` files under ``features_dir``, sorted."""
    feature_paths = sorted(Path(features_dir).glob("*.feat"))
    if not feature_paths:
        raise ValidationError(f"no .feat files under {features_dir}")
    return [path.name[: -len(".feat")] for path in feature_paths]


def _gt_path(gt_dir: str, image_id: str) -> Path:
    return Path(gt_dir) / (image_id + ".seg")


def _load_dataset(features_dir: str, gt_dir: str, image_ids: list[str], failures=None):
    """(image id, features, ground truth) of each image in turn, loaded only
    when the previous one is done with.  An image that fails to load is
    raised, or with ``failures`` given logged, recorded there and skipped."""
    for image_id in image_ids:
        try:
            features = FeatureMap.load(Path(features_dir) / (image_id + ".feat"))
            gt = metrics.load_ground_truth(_gt_path(gt_dir, image_id))
        except (OSError, CCMineError) as exc:
            if failures is None:
                raise
            log.warning("image %s failed to load: %s", image_id, exc)
            failures.append({"id": image_id, "error": str(exc)})
            continue
        yield image_id, features, gt
        # a consumer that drops them too frees the image before the next load
        del features, gt


def _build_flags(settings: Settings) -> tuple:
    """The lexicon, matrix, counts and visibility paths of a dictionary
    build, and its rules: the stop-words, the unknown-visibility policy and
    the LLM settings that the ``llm`` policy reads (else None)."""
    paths = [settings.arg(name) for name in ("lexicon", "matrix", "counts", "visibility")]
    policy = settings.get("unknown_visibility")
    return paths, (settings.get("stopwords"), policy, settings.llm() if policy == "llm" else None)


def _build(paths, rules, embeddings, thresholds, queries=()) -> tuple:
    """The dictionary of each ``(gamma, delta)`` in ``thresholds``, built in
    one pass from the run's ``_build_flags``, and the embedding and
    visibility tables it used.  Lexicon, matrix and counts are read in
    that order and normalized, then visibility is read, then of
    ``embeddings`` only the rows of the lexicon's concepts, ``background``
    and ``queries``: all that the dictionaries and a ``cc_d`` lookup of
    ``queries`` can reach."""
    lexicon_path, matrix_path, counts_path, visibility_path = paths
    lexicon = Lexicon.from_file(lexicon_path)
    # the counts are normalized as soon as they are read, and nothing holds
    # the matrix after that: it is freed before the embedding rows load
    freq = normalize(CoocMatrix.load(matrix_path), load_counts(counts_path), lexicon)
    visibility = VisibilityTable.from_file(visibility_path) if visibility_path else VisibilityTable()
    # a list, not a set: the loader builds the one set of the names; a
    # second set of a large lexicon's names raised build-cc's peak RSS
    table = EmbeddingTable.load(embeddings, [*lexicon.concepts, BACKGROUND, *queries])
    stopwords, policy, llm = rules
    if policy == "llm":
        # only the endpoint's answers go into the table: a policy's do not
        # hide a concept from a later run that asks the endpoint
        fields, include_markers = llm
        ask = visibility_oracle(LLMClient(**fields), include_markers)
        oracle = partial(visibility.resolve, oracle=ask, source="llm")
    else:
        oracle = accept_unknown if policy == "accept" else reject_unknown
    dictionaries = build_dictionary(
        freq, lexicon, table, visibility, thresholds,
        stopwords=stopwords, oracle=oracle,
    )
    return dictionaries, table, visibility


def _query_prompts(queries: list[str], cc_source, embeddings, merge=None) -> PromptSet:
    """Prompts for explicit queries: their CC sets, merged when there are
    several, under ``merge``: the background label, beta and beta scope."""
    if len(queries) == 1:
        cc = cc_source(queries[0])
        labels = [queries[0]] + [c for c in cc.concepts if c != queries[0]]
        mask = [False] + [True] * (len(labels) - 1)
        return build_prompt_set(labels, mask, embeddings)
    background_label, beta, scope = merge
    cc_sets = [
        CCSet(query=q, kind="none", concepts=[]) if q == background_label else cc_source(q)
        for q in queries
    ]
    merged = cc_multi(cc_sets, embeddings, beta=beta, scope=scope)
    labels = queries + merged
    mask = [False] * len(queries) + [True] * len(merged)
    return build_prompt_set(labels, mask, embeddings)


@dataclass(frozen=True)
class ClassPrompts:
    """Each class's CC set, or the message of the error resolving it
    raised, and a table of only the embedding rows their prompts use.

    A class's prompts are the same in every image, so they are resolved
    once, before the first image loads; ``cc_set`` is then the CC source
    of every image, and the image loop holds no dictionary or full table.
    """

    cc: dict[str, CCSet | str]
    table: EmbeddingTable

    def cc_set(self, label: str) -> CCSet:
        found = self.cc.get(label, f"class {label!r} was not resolved before the first image")
        if isinstance(found, str):
            # a new error each time: one raised again would keep the frames
            # it last passed through alive, and the image they hold
            raise CCMineError(found)
        return found


def _rows_of(embeddings: EmbeddingTable, names) -> EmbeddingTable:
    """The rows of ``embeddings`` that ``names`` have, bit for bit; a name
    without one stays missing, so looking it up raises as before."""
    return embeddings.subset([name for name in names if name in embeddings])


def _class_prompts(classes: list[str], sources, embeddings: EmbeddingTable) -> list[ClassPrompts]:
    """The ``ClassPrompts`` of ``classes`` under each CC source, asking each
    source once per class.  They share one table of the rows their prompts
    use."""
    resolved, used = [], {}
    for source in sources:
        cc: dict[str, CCSet | str] = {}
        for label in classes:
            try:
                cc[label] = found = source(label)
            except CCMineError as exc:
                cc[label] = str(exc)
                continue
            used.update(dict.fromkeys([label, *found.concepts]))
        resolved.append(cc)
    table = _rows_of(embeddings, used)
    return [ClassPrompts(cc, table) for cc in resolved]


def _classic_image(prompts, background_label, upsample, features, gt, image_id):
    """``metrics.classic_image``, as a scorer: the image id is not scored."""
    return metrics.classic_image(features, gt, prompts, background_label, upsample)


def _set_up_flags(settings: Settings, job: str) -> tuple[str, tuple[str, str, str], dict]:
    """The name ``job``'s refusals give it, its features, ground-truth and
    embeddings paths, and what else ``_set_up`` reads for it: ``upsample``,
    ``cc``, ``classic`` (background label and beta scope) and ``build``."""
    data = (settings.arg("features_dir"), settings.arg("gt_dir"), settings.arg("embeddings"))
    if job in ("eval --segmenter sigmoid", "a sigmoid sweep"):
        return job, data, {}
    flags = {"upsample": settings.get("upsample")}
    if job in ("a gamma sweep", "a delta sweep"):
        flags["build"] = _build_flags(settings)
        return job, data, flags
    classic = job in ("eval --metric miou-classic", "a beta sweep")
    flags["cc"] = _cc_flags(settings, classes=classic)
    if classic:
        flags["classic"] = (_background_label(settings), settings.get("beta_scope"))
    return f"{job} with cc-mode {flags['cc'][0]}", data, flags


def _set_up(job: str, data: tuple, values: list, upsample=None, cc=None, classic=None, build=None):
    """The dataset's image ids and ``job``'s scorer of one image for each
    of ``values``.  ``values`` is a sweep's grid, as (gamma, delta) pairs
    for a gamma or delta sweep, or an eval's one value (the sigmoid
    threshold, the classic beta, None for IoU-single).  The sigmoid sweep
    gets the table of its classes' rows instead of scorers.

    Every record of the embedding table is read and checked, but only the
    rows the job can reach are kept: the scored classes' for the sigmoid
    jobs, ``_cc_source``'s for the other evals and the beta sweep, and for
    a gamma or delta sweep ``_build``'s, the scored classes among them;
    that sweep reads its build inputs before the table, as ``build-cc``
    does.
    The table, and every dictionary and CC source made from it, are
    locals of this call: they are freed on return, before the first image
    loads, so the image loop holds only the prompts it scores with.
    """
    features_dir, gt_dir, embeddings = data
    image_ids = _dataset_ids(features_dir)
    sidecars = _sidecars(gt_dir, image_ids)
    scored = _scored_classes(sidecars)
    if job in ("eval --segmenter sigmoid", "a sigmoid sweep"):
        table = EmbeddingTable.load(embeddings, scored)
        if job == "a sigmoid sweep":
            return image_ids, table
        scorers = [
            partial(metrics.iou_single_image_sigmoid, threshold=v, embeddings=table)
            for v in values
        ]
        return image_ids, scorers
    if build is not None:
        dictionaries, table, _ = _build(*build, embeddings, values, scored)
        sources = [partial(cc_d, dictionary=d, embeddings=table) for d in dictionaries]
    else:
        classes = _classes(*cc[2], sidecars)
        # the classic prompts score every class and the background label
        background_label, scope = classic or (None, None)
        queries = scored if classic is None else classes
        source, table = _cc_source(cc, embeddings, queries, classes, background_label)
        if classic is not None:
            queries = [background_label] + [c for c in classes if c != background_label]
            source = cache(source)  # only the merge of the CC sets depends on beta
            merges = [(background_label, beta, scope) for beta in values]
            prompts = [_query_prompts(queries, source, table, merge) for merge in merges]
            scorers = [partial(_classic_image, p, background_label, upsample) for p in prompts]
            return image_ids, scorers
        sources = [source]
    scorers = [
        partial(metrics.iou_single_image, cc_source=p.cc_set, embeddings=p.table, upsample=upsample)
        for p in _class_prompts(scored, sources, table)
    ]
    return image_ids, scorers


def _score_images(images, scorers) -> list[list]:
    """Each scorer's results on the (image id, features, ground truth) of
    ``images``: all score one image before the next loads."""
    results: list[list] = [[] for _ in scorers]
    for image_id, features, gt in images:
        for score, out in zip(scorers, results):
            out.append(score(features, gt, image_id=image_id))
    return results


def _exit_code(image_failures: int, class_failures: int) -> int:
    """Exit code 3, with a warning, when an image or a class failed; else 0."""
    if image_failures or class_failures:
        log.warning("%d image failures, %d class failures", image_failures, class_failures)
        return 3
    return 0


# ---- mine ----


def cmd_mine(args: argparse.Namespace) -> int:
    settings = Settings(args)
    corpus, lexicon_path = settings.arg("corpus"), settings.arg("lexicon")
    out_matrix, out_counts = settings.arg("out_matrix"), settings.arg("out_counts")
    workers = settings.workers()
    settings.refuse_unread("mine")
    lexicon = Lexicon.from_file(lexicon_path)
    matrix, occurrence, stats = mine_corpus(corpus, lexicon, workers=workers)
    matrix.save(out_matrix)
    save_counts(out_counts, occurrence)
    summary = {
        "captions": stats.total,
        "malformed": stats.malformed,
        "matched_captions": stats.matched_captions,
        "concepts": len(lexicon),
        "pairs": len(matrix.count),
        "workers": workers,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


# ---- build-cc ----


def cmd_build_cc(args: argparse.Namespace) -> int:
    settings = Settings(args)
    paths, rules = _build_flags(settings)
    embeddings, out = settings.arg("embeddings"), settings.arg("out")
    save_visibility = settings.arg("save_visibility")
    thresholds = [(settings.get("gamma"), settings.get("delta"))]
    settings.refuse_unread(f"build-cc with unknown-visibility {rules[1]}")
    # the five inputs are hashed as the build reads them, once each
    paths = [path and HashedInput(path) for path in paths]
    embeddings = HashedInput(embeddings)
    [dictionary], _, visibility = _build(paths, rules, embeddings, thresholds)
    lexicon, matrix, counts, visibility_path = paths
    dictionary.meta.update(
        lexicon_digest=lexicon.digest(),
        corpus_digest=matrix.digest(),
        counts_digest=counts.digest(),
        embeddings_digest=embeddings.digest(),
        visibility_digest=visibility_path.digest() if visibility_path else None,
    )
    dictionary.save(out)
    if save_visibility:
        visibility.save(save_visibility)
    nonempty = sum(1 for v in dictionary.cc.values() if v)
    print(json.dumps({"concepts": len(dictionary), "with_cc": nonempty}, sort_keys=True))
    return 0


# ---- gen-cc ----


def cmd_gen_cc(args: argparse.Namespace) -> int:
    settings = Settings(args)
    query, out = settings.arg("query"), settings.arg("out")
    mode, _, class_flags, _ = cc = _cc_flags(settings)
    embeddings = settings.arg("embeddings") if mode == "dict" else None
    settings.refuse_unread(f"gen-cc with cc-mode {mode}")
    source, _ = _cc_source(cc, embeddings, [query], _classes(*class_flags))
    cc = source(query)
    payload = {
        "query": cc.query,
        "kind": cc.kind,
        "concepts": cc.concepts,
        "source_concept": cc.source_concept,
    }
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---- segment ----


def cmd_segment(args: argparse.Namespace) -> int:
    settings = Settings(args)
    features_path, embeddings_path = settings.arg("features"), settings.arg("embeddings")
    out, height, width = settings.arg("out"), settings.arg("height"), settings.arg("width")
    queries = [normalize_concept(q) for q in settings.arg("query")]
    if not queries:
        raise ValidationError("at least one --query is required")
    if len(queries) != len(set(queries)):
        raise ValidationError("duplicate queries")
    mode, _, class_flags, _ = cc = _cc_flags(settings)
    upsample = settings.get("upsample")
    keep_cc, remap = settings.arg("keep_cc"), settings.arg("remap_background")
    # one query's CC set is not merged, and only a remap names the background
    several = len(queries) > 1
    background_label = None
    if several or remap:
        background_label = _background_label(settings)
    merge = None
    if several:
        merge = (background_label, settings.get("beta"), settings.get("beta_scope"))
    queried = "several queries" if several else "one query"
    settings.refuse_unread(f"segment of {queried} with cc-mode {mode}")
    if remap and background_label not in queries:
        raise ValidationError(f"--remap-background needs --query {background_label}")
    features = FeatureMap.load(features_path)
    # the merge gives the background label's query no CC set
    takes_cc = [q for q in queries if not several or q != background_label]
    classes = _classes(*class_flags)
    source, embeddings = _cc_source(cc, embeddings_path, takes_cc, classes, background_label)
    prompts = _query_prompts(queries, source, embeddings, merge)
    # only an absent flag takes the feature map's size: 0 is refused
    height = features.h if height is None else height
    width = features.w if width is None else width
    pixmap = segment_pixels(features, prompts, height, width, upsample=upsample)
    if remap:
        pixmap = remap_cc_to_background(pixmap, prompts, background_label)
    elif not keep_cc:
        pixmap = apply_cc_mask(pixmap, prompts)
    names = {
        k: label for k, label in enumerate(prompts.labels) if keep_cc or not prompts.cc_mask[k]
    }
    SegMap(pixmap, names).save(out)
    return 0


# ---- eval ----


def cmd_eval(args: argparse.Namespace) -> int:
    settings = Settings(args)
    metric, out_json, out_tsv = (settings.arg(n) for n in ("metric", "out_json", "out_tsv"))
    segmenter, aggregation, value = "argmax", None, None
    if metric == "iou-single":
        segmenter, aggregation = settings.get("segmenter"), settings.get("aggregation")
    job = "eval --segmenter sigmoid" if segmenter == "sigmoid" else f"eval --metric {metric}"
    if segmenter == "sigmoid":
        value = settings.get("sigmoid_threshold")
    elif metric == "miou-classic":
        value = settings.get("beta")
    where, (features_dir, gt_dir, embeddings), flags = _set_up_flags(settings, job)
    settings.refuse_unread(where)
    if segmenter == "sigmoid" and value is None:
        raise ValidationError("--sigmoid-threshold is required for the sigmoid segmenter")
    # the report records these two inputs' digests, taken as they are read
    embeddings = embeddings and HashedInput(embeddings)
    mode, cc_dict, *cc = flags.get("cc", (None, None))
    cc_dict = cc_dict and HashedInput(cc_dict)
    if cc:
        flags["cc"] = (mode, cc_dict, *cc)
    image_ids, scorers = _set_up(job, (features_dir, gt_dir, embeddings), [value], **flags)
    image_failures: list[dict] = []
    images = _load_dataset(features_dir, gt_dir, image_ids, image_failures)
    [results] = _score_images(images, scorers)
    if metric == "miou-classic":
        report, class_failures = metrics.aggregate_classic(results), 0
    else:
        report = metrics.aggregate_iou_single(results, mode=aggregation)
        class_failures = sum(len(r.failures) for r in results)

    report["meta"] = {
        "cc_mode": mode,  # the sigmoid segmenter uses no contrastive concepts
        "embeddings_digest": embeddings.digest(),
        "cc_dict_digest": cc_dict.digest() if cc_dict else None,
        "segmenter": segmenter,
        # the sigmoid segmenter upsamples its scores as logits are
        "upsample": flags.get("upsample", "logits"),
        "image_failures": image_failures,
    }
    metrics.write_report(report, out_json, out_tsv)
    print(json.dumps({"mean": report["mean"], "metric": metric}, sort_keys=True))
    return _exit_code(len(image_failures), class_failures)


# ---- sweep ----


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = Settings(args)
    param, out_json, out_tsv = (settings.arg(n) for n in ("param", "out_json", "out_tsv"))
    job = f"a {param} sweep"
    steps = settings.get("steps") if param == "sigmoid" else None
    text = settings.arg("values") if param != "sigmoid" else None
    if param in ("gamma", "delta"):  # the threshold the sweep holds fixed
        fixed = settings.get("delta" if param == "gamma" else "gamma")
    where, data, flags = _set_up_flags(settings, job)
    settings.refuse_unread(where)
    grid: list[float] = []
    if param != "sigmoid":
        if not text:
            raise ValidationError(f"--values is required for {job}")
        number = _finite("--values")
        try:
            grid = [number(v) for v in text.split(",")]
        except ValueError:
            raise ValidationError(
                f"--values must be comma-separated finite numbers, got {text!r}"
            ) from None
    values = grid
    if param in ("gamma", "delta"):
        if not all(flags["build"][0][:3]):
            raise ValidationError(f"{job} needs --matrix, --counts, and --lexicon")
        values = [(v, fixed) if param == "gamma" else (fixed, v) for v in grid]
    image_ids, scorers = _set_up(job, data, values, **flags)
    image_failures: list[dict] = []
    images = _load_dataset(*data[:2], image_ids, image_failures)
    if param == "sigmoid":
        report, failures = metrics.sigmoid_sweep(images, scorers, steps)
        class_failures = len(failures)
    else:
        rows = []
        failed: set[tuple[str, str]] = set()  # (image, class), once however many values
        for value, results in zip(grid, _score_images(images, scorers)):
            if param == "beta":
                row = {"mean_class": metrics.aggregate_classic(results)["mean"]}
            else:
                agg = metrics.aggregate_iou_single(results)
                row = {"mean_class": agg["mean_class"], "mean_image": agg["mean_image"]}
                failed.update((r.image_id, label) for r in results for label, _ in r.failures)
            rows.append({"value": value, **row})
        metric = "miou-classic-sweep" if param == "beta" else "iou-single-sweep"
        report = {"metric": metric, "param": param, "rows": rows}
        class_failures = len(failed)
    metrics.write_report(report, out_json, out_tsv)
    return _exit_code(len(image_failures), class_failures)


# ---- parser ----


def _add_options(p: argparse.ArgumentParser, *keys: str) -> None:
    """Flags for ``OPTIONS`` keys, typed and restricted by the table."""
    for key in keys:
        opt, flag = OPTIONS[key], _flag(key)
        kind = _finite(flag) if opt.type is float else opt.type
        p.add_argument(flag, dest=_dest(key), type=kind, choices=opt.choices, help=opt.help)


def _add_llm_flags(p: argparse.ArgumentParser) -> None:
    _add_options(p, *(key for key in OPTIONS if key.startswith("llm.")))
    p.add_argument(
        "--no-markers",
        dest="include_markers",
        action="store_const",
        const=False,
        help="render prompts without instruction markers",
    )


def _add_cc_flags(p: argparse.ArgumentParser, mode_flag: str = "--cc-mode") -> None:
    p.add_argument(mode_flag, dest="cc_mode", choices=OPTIONS["cc_mode"].choices)
    p.add_argument("--cc-dict", dest="cc_dict")
    p.add_argument("--classes")
    p.add_argument("--classes-file", dest="classes_file")


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features-dir", dest="features_dir", required=True)
    p.add_argument("--gt-dir", dest="gt_dir", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out-json", dest="out_json", required=True)
    p.add_argument("--out-tsv", dest="out_tsv")


def _add_build_flags(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--matrix", required=required)
    p.add_argument("--counts", required=required)
    p.add_argument("--lexicon", required=required)
    p.add_argument("--visibility")
    _add_options(p, "gamma", "delta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccmine",
        description="Mine and apply contrastive concepts for open-vocabulary segmentation",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON run-config; explicit flags win")
        # every flag of the subcommand, for ``Settings.refuse_unread``
        p.set_defaults(func=func, flags=p._actions)
        return p

    p = command("mine", cmd_mine, "count concept co-occurrences over a caption corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out-matrix", required=True)
    p.add_argument("--out-counts", required=True)
    _add_options(p, "workers")

    p = command("build-cc", cmd_build_cc, "build a filtered contrastive-concept dictionary")
    _add_build_flags(p, required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--save-visibility")
    _add_options(p, "unknown_visibility")
    _add_llm_flags(p)
    p.add_argument("--out", required=True)

    p = command("gen-cc", cmd_gen_cc, "produce the contrastive concepts for one query")
    _add_cc_flags(p, mode_flag="--mode")
    p.add_argument("--query", required=True)
    p.add_argument("--embeddings")
    _add_llm_flags(p)
    p.add_argument("--out")

    p = command("segment", cmd_segment, "segment a stored feature map with text prompts")
    p.add_argument("--features", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--query", action="append", default=[], help="repeatable")
    _add_cc_flags(p)
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    _add_options(p, "upsample", "beta", "beta_scope", "background_label")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--keep-cc",
        action="store_true",
        help="keep contrastive-concept pixels instead of erasing them",
    )
    group.add_argument(
        "--remap-background",
        action="store_true",
        help="send contrastive-concept pixels to the background query",
    )
    _add_llm_flags(p)
    p.add_argument("--out", required=True)

    p = command("eval", cmd_eval, "evaluate segmentation quality over a dataset")
    _add_dataset_flags(p)
    p.add_argument("--metric", choices=("iou-single", "miou-classic"), default="iou-single")
    _add_cc_flags(p)
    _add_options(
        p, "aggregation", "segmenter", "sigmoid_threshold", "upsample", "beta", "beta_scope",
        "background_label",
    )
    _add_llm_flags(p)

    p = command("sweep", cmd_sweep, "repeat an evaluation over a threshold grid")
    p.add_argument("--param", choices=("sigmoid", "gamma", "delta", "beta"), required=True)
    p.add_argument("--values", help="comma-separated grid for gamma/delta/beta sweeps")
    _add_options(p, "steps")
    _add_dataset_flags(p)
    _add_build_flags(p, required=False)
    _add_cc_flags(p)
    _add_options(p, "beta_scope", "background_label")

    return parser


def main(argv=None) -> int:
    try:
        # inside the try: a float flag's type raises ValidationError on
        # NaN and the infinities
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except (TransportError, ServiceError, ResponseParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CCMineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
