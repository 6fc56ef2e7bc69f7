"""Command-line interface.

Subcommands cover the full pipeline: ``mine`` counts co-occurrences over a
caption corpus, ``build-cc`` turns counts into a filtered contrastive
concept dictionary, ``gen-cc`` produces the CC set for one query,
``segment`` runs prompt segmentation over a stored feature map, ``eval``
scores a dataset under either evaluation protocol, and ``sweep`` repeats
an evaluation over a grid of thresholds.

Options can come from a JSON run-config (``--config``); explicit flags win
over config values.  Exit codes: 0 success, 2 I/O failure, 3 validation
failure, 4 remote-service failure.
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
)
from .cooc import CoocMatrix, load_counts, mine_corpus, save_counts
from .corpus import Lexicon, normalize_concept
from .embed import EmbeddingTable, TableProvider, ToyEmbeddingProvider
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
    FilterConfig,
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


def _finite(flag: str):
    """The ``type=`` of a float flag: a text that is no number is a usage
    error, and NaN or an infinity a validation error."""

    def number(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValidationError(f"{flag} must be a finite number, got {text!r}")
        return value

    return number


def _classes(args: argparse.Namespace, image_ids: list[str] | None = None) -> list[str] | None:
    """The ``--classes``/``--classes-file`` list; when neither names a class
    and dataset images are given, every label their ground-truth sidecars
    name, sorted.  An unreadable sidecar is left to the image's own load."""
    classes = None
    if args.classes:
        classes = [normalize_concept(c) for c in args.classes.split(",") if normalize_concept(c)]
    elif args.classes_file:
        classes = []
        for line in read_text(args.classes_file).splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                classes.append(normalize_concept(line))
    if classes or image_ids is None:
        return classes
    labels: set[str] = set()
    for image_id in image_ids:
        try:
            names, _ignore, _background = metrics.read_gt_sidecar(_gt_path(args, image_id))
        except (OSError, CCMineError):
            continue
        labels.update(names.values())
    return sorted(labels)


def _cc_source(
    settings: Settings,
    embeddings: EmbeddingTable | None,
    classes: list[str] | None,
    provider=None,
) -> metrics.CCSource:
    """The CC generator ``cc_mode`` names, with what it needs loaded.

    ``dict`` mode embeds unknown queries with ``provider``, by default a
    lookup in ``embeddings``.
    """
    mode = settings.get("cc_mode")
    if mode == "dict":
        if settings.args.cc_dict is None or embeddings is None:
            raise ValidationError("cc-mode 'dict' needs --cc-dict and --embeddings")
        dictionary = CCDictionary.load(settings.args.cc_dict)
        provider = provider or TableProvider(embeddings)
        return partial(cc_d, dictionary=dictionary, embeddings=embeddings, provider=provider)
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


def _dictionary(
    settings: Settings,
    inputs,
    embeddings: EmbeddingTable,
    gamma: float | None = None,
    delta: float | None = None,
    extra_meta: dict | None = None,
) -> CCDictionary:
    """A dictionary built from ``_build_inputs`` with the run's stop-words,
    unknown-visibility policy, gamma and delta; ``gamma`` and ``delta``
    override the run's values."""
    lexicon, matrix, occurrence, visibility = inputs
    config = FilterConfig(
        stopwords=frozenset(normalize_concept(s) for s in settings.get("stopwords")),
        delta=settings.get("delta") if delta is None else delta,
    )
    policy = settings.get("unknown_visibility")
    if policy == "llm":
        oracle = visibility_oracle(settings.llm_client(), settings.get("include_markers"))
    else:
        oracle = accept_unknown if policy == "accept" else reject_unknown
    return build_dictionary(
        matrix,
        occurrence,
        lexicon,
        embeddings,
        visibility,
        gamma=settings.get("gamma") if gamma is None else gamma,
        filter_config=config,
        oracle=oracle,
        oracle_source="llm" if policy == "llm" else "manual",
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


def _classic_report(settings: Settings, dataset, prompts: PromptSet) -> dict:
    per_image = [
        metrics.classic_image(
            features, gt, prompts, settings.get("background_label"), settings.get("upsample")
        )
        for _id, features, gt in dataset
    ]
    return metrics.aggregate_classic(per_image)


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
    dictionary = _dictionary(
        settings,
        inputs,
        embeddings,
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
    provider = None
    if embeddings is not None and args.provider == "toy":
        provider = ToyEmbeddingProvider(seed=args.toy_seed, dim=embeddings.dim)
    cc = _cc_source(settings, embeddings, _classes(args), provider)(args.query)
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


def cmd_eval(args: argparse.Namespace) -> int:
    settings = Settings(args)
    embeddings = EmbeddingTable.load(args.embeddings)
    image_ids = _dataset_ids(args)
    image_failures: list[dict] = []
    dataset = _load_dataset(args, image_ids, image_failures)
    upsample = settings.get("upsample")
    segmenter = settings.get("segmenter")
    if args.metric == "miou-classic":
        classes = _classes(args, image_ids)
        source = _cc_source(settings, embeddings, classes)
        prompts = _classic_prompts(settings, classes, source, embeddings)
        report = _classic_report(settings, dataset, prompts)
        class_failures = 0
    else:
        if segmenter == "sigmoid":
            threshold = settings.get("sigmoid_threshold")
            if threshold is None:
                raise ValidationError("--sigmoid-threshold is required for the sigmoid segmenter")
            score = partial(
                metrics.iou_single_image_sigmoid, threshold=threshold, embeddings=embeddings
            )
        else:
            source = _cc_source(settings, embeddings, _classes(args, image_ids))
            score = partial(
                metrics.iou_single_image,
                cc_source=source,
                embeddings=embeddings,
                upsample=upsample,
            )
        results = [score(f, gt, image_id=i) for i, f, gt in dataset]
        report = metrics.aggregate_iou_single(results, mode=settings.get("aggregation"))
        class_failures = sum(len(r.failures) for r in results)

    report["meta"] = {
        "cc_mode": settings.get("cc_mode"),
        "embeddings_digest": sha256_file(args.embeddings),
        "cc_dict_digest": sha256_file(args.cc_dict) if args.cc_dict else None,
        "segmenter": segmenter,
        "upsample": upsample,
        "image_failures": image_failures,
    }
    metrics.write_report(report, args.out_json, args.out_tsv)
    print(json.dumps({"mean": report["mean"], "metric": args.metric}, sort_keys=True))
    if image_failures or class_failures:
        log.warning(
            "%d image failures, %d class failures", len(image_failures), class_failures
        )
        return 3
    return 0


# ---- sweep ----


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = Settings(args)
    embeddings = EmbeddingTable.load(args.embeddings)
    image_ids = _dataset_ids(args)
    if args.param == "sigmoid":
        report = metrics.sigmoid_sweep(
            _load_dataset(args, image_ids), embeddings, steps=settings.get("steps")
        )
        metrics.write_report(report, args.out_json, args.out_tsv)
        return 0
    if not args.values:
        raise ValidationError(f"--values is required for a {args.param} sweep")
    number = _finite("--values")
    try:
        values = [number(v) for v in args.values.split(",")]
    except ValueError:
        raise ValidationError(
            f"--values must be comma-separated finite numbers, got {args.values!r}"
        ) from None
    # every value passes over the whole dataset
    dataset = list(_load_dataset(args, image_ids))
    rows = []
    if args.param == "beta":
        classes = _classes(args, image_ids)
        # only the merge of the CC sets depends on beta
        source = cache(_cc_source(settings, embeddings, classes))
        for value in values:
            prompts = _classic_prompts(settings, classes, source, embeddings, beta=value)
            rows.append(
                {"value": value, "mean_class": _classic_report(settings, dataset, prompts)["mean"]}
            )
        report = {"metric": "miou-classic-sweep", "param": "beta", "rows": rows}
    else:
        if not (args.matrix and args.counts and args.lexicon):
            raise ValidationError(
                f"a {args.param} sweep needs --matrix, --counts, and --lexicon"
            )
        inputs = _build_inputs(args)
        provider = TableProvider(embeddings)
        for value in values:
            dictionary = _dictionary(settings, inputs, embeddings, **{args.param: value})
            source = partial(cc_d, dictionary=dictionary, embeddings=embeddings, provider=provider)
            results = [
                metrics.iou_single_image(
                    f, gt, source, embeddings, upsample=settings.get("upsample"), image_id=i
                )
                for i, f, gt in dataset
            ]
            agg = metrics.aggregate_iou_single(results)
            rows.append(
                {"value": value, "mean_class": agg["mean_class"], "mean_image": agg["mean_image"]}
            )
        report = {"metric": "iou-single-sweep", "param": args.param, "rows": rows}
    metrics.write_report(report, args.out_json, args.out_tsv)
    return 0


# ---- parser ----


def _add_options(p: argparse.ArgumentParser, *keys: str) -> None:
    """Flags for ``OPTIONS`` keys, typed and restricted by the table."""
    for key in keys:
        opt = OPTIONS[key]
        flag = opt.flag or "--" + key.replace(".", "-").replace("_", "-")
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
    p.add_argument("--provider", choices=("table", "toy"), default="table")
    p.add_argument("--toy-seed", type=int, default=0)
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
