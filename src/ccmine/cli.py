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
are invalid (NaN, infinity, out of bounds) included; 4 service failure.
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
from .cooc import CoocMatrix, load_counts, mine_corpus, save_counts
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
from .ioutil import atomic_write_text, read_text, sha256_file
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
    raw = read_text(path)
    try:
        config = json.loads(raw)
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        raise ValidationError(f"run config {path} is not valid JSON") from None
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
    """Flag-over-config-over-default resolution for one command invocation."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        config_path = getattr(args, "config", None)
        self.config = _load_config(config_path) if config_path else {}

    def get(self, key: str):
        """The value of an ``OPTIONS`` key: its flag, else the config, else
        the option's default."""
        value = getattr(self.args, _dest(key), None)
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

    def llm_client(self) -> LLMClient:
        """A client from the ``llm.*`` values that are set; ``LLMClient``
        supplies the rest."""
        fields = {
            key.removeprefix("llm."): value
            for key in OPTIONS
            if key.startswith("llm.") and (value := self.get(key)) is not None
        }
        if "endpoint" not in fields:
            raise ValidationError("an LLM endpoint is required for this mode")
        return LLMClient(**fields)


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


def _classes(args: argparse.Namespace, sidecars: list | None = None) -> list[str] | None:
    """The ``--classes``/``--classes-file`` list; when neither names a class
    and ground-truth ``sidecars`` are given, every label they name, sorted."""
    classes = None
    if args.classes:
        classes = [normalize_concept(c) for c in args.classes.split(",") if normalize_concept(c)]
    elif args.classes_file:
        classes = []
        for line in read_text(args.classes_file).splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                classes.append(normalize_concept(line))
    if classes or sidecars is None:
        return classes
    return sorted({name for names, _, _ in sidecars for name in names.values()})


def _sidecars(args: argparse.Namespace, image_ids: list[str]) -> list:
    """(class names by id, ignore id, background id) of each ground-truth
    sidecar that reads, in image order.  An unreadable sidecar is left to
    its image's own load."""
    sidecars = []
    for image_id in image_ids:
        try:
            sidecars.append(metrics.read_gt_sidecar(_gt_path(args, image_id)))
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


def _cc_dictionary(settings: Settings) -> CCDictionary | None:
    """The ``--cc-dict`` dictionary when the CC mode is ``dict``, else None."""
    if settings.get("cc_mode") != "dict":
        return None
    if settings.args.cc_dict is None or not settings.args.embeddings:
        raise ValidationError("cc-mode 'dict' needs --cc-dict and --embeddings")
    return CCDictionary.load(settings.args.cc_dict)


def _cc_source(
    settings: Settings,
    embeddings: EmbeddingTable | None,
    classes: list[str] | None,
    dictionary: CCDictionary | None = None,
) -> metrics.CCSource:
    """The CC generator ``cc_mode`` names, with what it needs loaded; ``dict``
    mode takes ``dictionary``, or loads it when none is given."""
    mode = settings.get("cc_mode")
    if mode == "dict":
        if dictionary is None:
            dictionary = _cc_dictionary(settings)
        return partial(cc_d, dictionary=dictionary, embeddings=embeddings)
    if mode == "llm":
        return partial(
            cc_llm, client=settings.llm_client(), include_markers=settings.get("include_markers")
        )
    if mode == "privileged":
        if classes is None:
            raise ValidationError("cc-mode 'privileged' needs the dataset class list")
        return partial(cc_privileged, classes=classes)
    return cc_none if mode == "none" else cc_bg


def _dataset_ids(args: argparse.Namespace) -> list[str]:
    """Ids of the ``.feat`` files under ``--features-dir``, sorted."""
    feature_paths = sorted(Path(args.features_dir).glob("*.feat"))
    if not feature_paths:
        raise ValidationError(f"no .feat files under {args.features_dir}")
    return [path.name[: -len(".feat")] for path in feature_paths]


def _gt_path(args: argparse.Namespace, image_id: str) -> Path:
    return Path(args.gt_dir) / (image_id + ".seg")


def _load_dataset(
    args: argparse.Namespace, image_ids: list[str], failures: list[dict] | None = None
):
    """(image id, features, ground truth) of each image in turn, loaded only
    when the previous one is done with.  An image that fails to load is
    raised, or with ``failures`` given logged, recorded there and skipped."""
    for image_id in image_ids:
        try:
            features = FeatureMap.load(Path(args.features_dir) / (image_id + ".feat"))
            gt = metrics.load_ground_truth(_gt_path(args, image_id))
        except (OSError, CCMineError) as exc:
            if failures is None:
                raise
            log.warning("image %s failed to load: %s", image_id, exc)
            failures.append({"id": image_id, "error": str(exc)})
            continue
        yield image_id, features, gt
        # a consumer that drops them too frees the image before the next load
        del features, gt


def _build_inputs(args: argparse.Namespace):
    """Lexicon, co-occurrence matrix, occurrence counts and visibility table
    for building a dictionary."""
    lexicon = Lexicon.from_file(args.lexicon)
    matrix = CoocMatrix.load(args.matrix)
    occurrence = load_counts(args.counts)
    visibility = (
        VisibilityTable.from_file(args.visibility) if args.visibility else VisibilityTable()
    )
    return lexicon, matrix, occurrence, visibility


def _dictionaries(
    settings: Settings,
    inputs,
    embeddings: EmbeddingTable,
    thresholds: list[tuple[float, float]],
    extra_meta: dict | None = None,
) -> list[CCDictionary]:
    """The dictionary of each ``(gamma, delta)`` in ``thresholds``, built in
    one pass with the run's stop-words and unknown-visibility policy."""
    lexicon, matrix, occurrence, visibility = inputs
    policy = settings.get("unknown_visibility")
    if policy == "llm":
        # only the endpoint's answers go into the table: a policy's do not
        # hide a concept from a later run that asks the endpoint
        ask = visibility_oracle(settings.llm_client(), settings.get("include_markers"))
        oracle = partial(visibility.resolve, oracle=ask, source="llm")
    else:
        oracle = accept_unknown if policy == "accept" else reject_unknown
    return build_dictionary(
        matrix,
        occurrence,
        lexicon,
        embeddings,
        visibility,
        thresholds,
        stopwords=settings.get("stopwords"),
        oracle=oracle,
        extra_meta=extra_meta,
    )


def _query_prompts(
    settings: Settings,
    queries: list[str],
    cc_source,
    embeddings: EmbeddingTable,
    beta: float | None = None,
) -> PromptSet:
    """Prompts for explicit queries: their CC sets, merged when needed.
    ``beta`` overrides the run's ``beta``."""
    if len(queries) == 1:
        cc = cc_source(queries[0])
        labels = [queries[0]] + [c for c in cc.concepts if c != queries[0]]
        mask = [False] + [True] * (len(labels) - 1)
        return build_prompt_set(labels, mask, embeddings)
    background_label = settings.get("background_label")
    cc_sets = [
        CCSet(query=q, kind="none", concepts=[]) if q == background_label else cc_source(q)
        for q in queries
    ]
    merged, _excluded = cc_multi(
        cc_sets,
        embeddings,
        beta=settings.get("beta") if beta is None else beta,
        scope=settings.get("beta_scope"),
    )
    labels = queries + merged
    mask = [False] * len(queries) + [True] * len(merged)
    return build_prompt_set(labels, mask, embeddings)


def _classic_prompts(
    settings: Settings,
    classes: list[str],
    cc_source,
    embeddings: EmbeddingTable,
    beta: float | None = None,
) -> PromptSet:
    """Prompts of the classic protocol: the background query first, then
    every other class, with their CCs merged."""
    background_label = settings.get("background_label")
    queries = [background_label] + [c for c in classes if c != background_label]
    return _query_prompts(settings, queries, cc_source, embeddings, beta)


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


def _set_up(settings: Settings, job: str, values: list):
    """The dataset's image ids and ``job``'s scorer of one image for each
    of ``values``: a sweep's grid, or an eval's ``[None]``, its one value
    at the run's own settings.  The sigmoid sweep gets the table of its
    classes' rows instead.

    Every record of the embedding table is read and checked, but only the
    rows the job can reach are kept: the scored classes' for the sigmoid
    jobs, those ``ccgen.cc_reach`` names and the background label for the
    other evals and the beta sweep, every row for a gamma or delta sweep.
    The table, and every dictionary and CC source made from it, are
    locals of this call: they are freed on return, before the first image
    loads, so the image loop holds only the prompts it scores with.
    """
    args = settings.args
    image_ids = _dataset_ids(args)
    sidecars = _sidecars(args, image_ids)
    scored = _scored_classes(sidecars)
    if job in ("eval --segmenter sigmoid", "a sigmoid sweep"):
        table = EmbeddingTable.load(args.embeddings, scored)
        if job == "a sigmoid sweep":
            return image_ids, table
        threshold = settings.get("sigmoid_threshold")
        return image_ids, [
            partial(metrics.iou_single_image_sigmoid, threshold=threshold, embeddings=table)
        ]
    upsample = settings.get("upsample")
    if job in ("a gamma sweep", "a delta sweep"):
        embeddings = EmbeddingTable.load(args.embeddings)
        gamma, delta = settings.get("gamma"), settings.get("delta")
        thresholds = [(v, delta) if job == "a gamma sweep" else (gamma, v) for v in values]
        dictionaries = _dictionaries(settings, _build_inputs(args), embeddings, thresholds)
        sources = [partial(cc_d, dictionary=d, embeddings=embeddings) for d in dictionaries]
    else:
        classes = _classes(args, sidecars)
        classic = job in ("eval --metric miou-classic", "a beta sweep")
        dictionary = _cc_dictionary(settings)
        background_label = settings.get("background_label")
        queries = classes if classic else scored
        reach = cc_reach(settings.get("cc_mode"), queries, classes, dictionary)
        if reach is not None:  # the classic prompts also score the background label
            reach.add(background_label)
        embeddings = EmbeddingTable.load(args.embeddings, reach)
        source = _cc_source(settings, embeddings, classes, dictionary)
        if classic:
            if job == "a beta sweep":
                source = cache(source)  # only the merge of the CC sets depends on beta
            prompts = [
                _classic_prompts(settings, classes, source, embeddings, beta) for beta in values
            ]
            # a classic scorer ignores the image id
            return image_ids, [
                lambda features, gt, image_id, p=p: metrics.classic_image(
                    features, gt, p, background_label, upsample
                )
                for p in prompts
            ]
        sources = [source]
    return image_ids, [
        partial(metrics.iou_single_image, cc_source=p.cc_set, embeddings=p.table, upsample=upsample)
        for p in _class_prompts(scored, sources, embeddings)
    ]


def _score_images(args: argparse.Namespace, image_ids: list[str], scorers, failures=None):
    """Each scorer's results, image by image: all score one before the next loads."""
    results: list[list] = [[] for _ in scorers]
    for image_id, features, gt in _load_dataset(args, image_ids, failures):
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
    lexicon = Lexicon.from_file(args.lexicon)
    workers = settings.workers()
    matrix, stats = mine_corpus(args.corpus, lexicon, workers=workers)
    matrix.save(args.out_matrix)
    save_counts(args.out_counts, stats.occurrence)
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
    inputs = _build_inputs(args)
    lexicon, _matrix, _occurrence, visibility = inputs
    embeddings = EmbeddingTable.load(args.embeddings)
    [dictionary] = _dictionaries(
        settings,
        inputs,
        embeddings,
        [(settings.get("gamma"), settings.get("delta"))],
        extra_meta={
            "lexicon_digest": lexicon.source_digest,
            "corpus_digest": sha256_file(args.matrix),
            "counts_digest": sha256_file(args.counts),
            "embeddings_digest": sha256_file(args.embeddings),
            "visibility_digest": sha256_file(args.visibility) if args.visibility else None,
        },
    )
    dictionary.save(args.out)
    if args.save_visibility:
        visibility.save(args.save_visibility)
    nonempty = sum(1 for v in dictionary.cc.values() if v)
    print(json.dumps({"concepts": len(dictionary), "with_cc": nonempty}, sort_keys=True))
    return 0


# ---- gen-cc ----


def cmd_gen_cc(args: argparse.Namespace) -> int:
    settings = Settings(args)
    embeddings = EmbeddingTable.load(args.embeddings) if args.embeddings else None
    cc = _cc_source(settings, embeddings, _classes(args))(args.query)
    payload = {
        "query": cc.query,
        "kind": cc.kind,
        "concepts": cc.concepts,
        "source_concept": cc.source_concept,
    }
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---- segment ----


def cmd_segment(args: argparse.Namespace) -> int:
    settings = Settings(args)
    features = FeatureMap.load(args.features)
    embeddings = EmbeddingTable.load(args.embeddings)
    queries = [normalize_concept(q) for q in args.query]
    if not queries:
        raise ValidationError("at least one --query is required")
    if len(queries) != len(set(queries)):
        raise ValidationError("duplicate queries")
    source = _cc_source(settings, embeddings, _classes(args))
    prompts = _query_prompts(settings, queries, source, embeddings)
    out_h = args.height or features.h
    out_w = args.width or features.w
    pixmap = segment_pixels(features, prompts, out_h, out_w, upsample=settings.get("upsample"))
    if args.remap_background:
        pixmap = remap_cc_to_background(pixmap, prompts, settings.get("background_label"))
    elif not args.keep_cc:
        pixmap = apply_cc_mask(pixmap, prompts)
    names = {
        k: label
        for k, label in enumerate(prompts.labels)
        if args.keep_cc or not prompts.cc_mask[k]
    }
    SegMap(pixmap, names).save(args.out)
    return 0


# ---- eval ----


_CC_FLAGS = ("--cc-mode", "--cc-dict", "--classes", "--classes-file")
_CLASSIC_FLAGS = ("--beta-scope", "--background-label")
_BUILD_FLAGS = ("--matrix", "--counts", "--lexicon", "--visibility")
# the flags of ``_add_llm_flags``, each with the attribute it stores its value in
_LLM_FLAGS = {_flag(key): _dest(key) for key in OPTIONS if key.startswith("llm.")}
_LLM_FLAGS["--no-markers"] = "include_markers"
# the flags each job would leave unread, by the name its refusal gives it
_UNREAD_FLAGS = {
    "eval --metric miou-classic": ("--aggregation", "--segmenter", "--sigmoid-threshold"),
    "eval --metric iou-single": ("--sigmoid-threshold", "--beta", *_CLASSIC_FLAGS),
    "eval --segmenter sigmoid": (
        "--upsample", "--beta", *_CC_FLAGS, *_CLASSIC_FLAGS, *_LLM_FLAGS
    ),
    "a sigmoid sweep": (
        "--values", "--gamma", "--delta", *_BUILD_FLAGS, *_CC_FLAGS, *_CLASSIC_FLAGS
    ),
    "a gamma sweep": ("--gamma", "--steps", *_CC_FLAGS, *_CLASSIC_FLAGS),
    "a delta sweep": ("--delta", "--steps", *_CC_FLAGS, *_CLASSIC_FLAGS),
    "a beta sweep": ("--steps", "--gamma", "--delta", *_BUILD_FLAGS),
}


def _flag_dest(flag: str) -> str:
    """The attribute that ``flag`` stores its value in."""
    return _LLM_FLAGS.get(flag) or flag[2:].replace("-", "_")


def _refuse_unread(settings: Settings, job: str) -> None:
    """Refuse the first flag given on the command line that ``job`` would
    not read: one that ``_UNREAD_FLAGS`` lists, or a CC or LLM flag that
    the CC mode, from the flag or the run-config, does not read.  Only
    ``dict`` mode reads ``--cc-dict`` and only ``llm`` mode the LLM flags;
    an IoU-single eval reads the class list only in ``privileged`` mode,
    where classic jobs score the classes it names."""
    unread = dict.fromkeys(_UNREAD_FLAGS[job], job)
    if "--cc-mode" not in unread:  # the job reads a CC mode
        mode = settings.get("cc_mode")
        in_mode = f"{job} with cc-mode {mode}"
        if mode != "dict":
            unread["--cc-dict"] = in_mode
        if mode != "llm":  # a sweep has no LLM flags, which the lookup below allows
            unread.update(dict.fromkeys(_LLM_FLAGS, in_mode))
        if job == "eval --metric iou-single" and mode != "privileged":
            unread["--classes"] = unread["--classes-file"] = in_mode
    for flag, where in unread.items():
        if getattr(settings.args, _flag_dest(flag), None) is not None:
            raise ValidationError(f"{flag} does nothing in {where}")


def cmd_eval(args: argparse.Namespace) -> int:
    settings = Settings(args)
    segmenter = settings.get("segmenter")
    if args.metric == "miou-classic":
        job = "eval --metric miou-classic"
    else:
        job = "eval --segmenter sigmoid" if segmenter == "sigmoid" else "eval --metric iou-single"
    _refuse_unread(settings, job)
    if job == "eval --segmenter sigmoid" and settings.get("sigmoid_threshold") is None:
        raise ValidationError("--sigmoid-threshold is required for the sigmoid segmenter")
    image_ids, scorers = _set_up(settings, job, [None])
    image_failures: list[dict] = []
    [results] = _score_images(args, image_ids, scorers, image_failures)
    if args.metric == "miou-classic":
        report, class_failures = metrics.aggregate_classic(results), 0
    else:
        report = metrics.aggregate_iou_single(results, mode=settings.get("aggregation"))
        class_failures = sum(len(r.failures) for r in results)

    report["meta"] = {
        # the sigmoid segmenter uses no contrastive concepts
        "cc_mode": None if job == "eval --segmenter sigmoid" else settings.get("cc_mode"),
        "embeddings_digest": sha256_file(args.embeddings),
        "cc_dict_digest": sha256_file(args.cc_dict) if args.cc_dict else None,
        "segmenter": segmenter,
        "upsample": settings.get("upsample"),
        "image_failures": image_failures,
    }
    metrics.write_report(report, args.out_json, args.out_tsv)
    print(json.dumps({"mean": report["mean"], "metric": args.metric}, sort_keys=True))
    return _exit_code(len(image_failures), class_failures)


# ---- sweep ----


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = Settings(args)
    job = f"a {args.param} sweep"
    _refuse_unread(settings, job)
    values: list[float] = []
    if args.param != "sigmoid":
        if not args.values:
            raise ValidationError(f"--values is required for {job}")
        number = _finite("--values")
        try:
            values = [number(v) for v in args.values.split(",")]
        except ValueError:
            raise ValidationError(
                f"--values must be comma-separated finite numbers, got {args.values!r}"
            ) from None
        if args.param != "beta" and not (args.matrix and args.counts and args.lexicon):
            raise ValidationError(f"{job} needs --matrix, --counts, and --lexicon")
    image_ids, scorers = _set_up(settings, job, values)
    image_failures: list[dict] = []
    if args.param == "sigmoid":
        report, failures = metrics.sigmoid_sweep(
            _load_dataset(args, image_ids, image_failures), scorers, settings.get("steps")
        )
        class_failures = len(failures)
    else:
        rows = []
        failed: set[tuple[str, str]] = set()  # (image, class), once however many values
        for value, results in zip(values, _score_images(args, image_ids, scorers, image_failures)):
            if args.param == "beta":
                row = {"mean_class": metrics.aggregate_classic(results)["mean"]}
            else:
                agg = metrics.aggregate_iou_single(results)
                row = {"mean_class": agg["mean_class"], "mean_image": agg["mean_image"]}
                failed.update((r.image_id, label) for r in results for label, _ in r.failures)
            rows.append({"value": value, **row})
        metric = "miou-classic-sweep" if args.param == "beta" else "iou-single-sweep"
        report = {"metric": metric, "param": args.param, "rows": rows}
        class_failures = len(failed)
    metrics.write_report(report, args.out_json, args.out_tsv)
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
        p.set_defaults(func=func)
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
