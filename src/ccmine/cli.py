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
import os
import sys
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
from .ioutil import atomic_write_text, sha256_file
from .llm import LLMClient, visibility_oracle
from .segment import (
    FeatureMap,
    PromptSet,
    apply_cc_mask,
    build_prompt_set,
    remap_cc_to_background,
    segment_pixels,
    SegMap,
)

log = logging.getLogger("ccmine")

_CONFIG_KEYS = {
    "workers",
    "gamma",
    "delta",
    "beta",
    "beta_scope",
    "stopwords",
    "aggregation",
    "upsample",
    "cc_mode",
    "segmenter",
    "sigmoid_threshold",
    "steps",
    "unknown_visibility",
    "background_label",
    "include_markers",
    "llm",
}

_LLM_CONFIG_KEYS = {
    "endpoint",
    "model",
    "api_style",
    "temperature",
    "max_tokens",
    "timeout",
    "max_attempts",
    "cache_dir",
}


class Settings:
    """Flag-over-config resolution for one command invocation."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config: dict = {}
        config_path = getattr(args, "config", None)
        if config_path:
            raw = Path(config_path).read_text(encoding="utf-8")
            try:
                self.config = json.loads(raw)
            except ValueError:
                raise ValidationError(f"run config {config_path} is not valid JSON") from None
            if not isinstance(self.config, dict):
                raise ValidationError("run config must be a JSON object")
            unknown = set(self.config) - _CONFIG_KEYS
            if unknown:
                raise ValidationError(f"unknown run-config keys: {sorted(unknown)}")
            llm_cfg = self.config.get("llm", {})
            if not isinstance(llm_cfg, dict):
                raise ValidationError("run-config 'llm' must be an object")
            unknown = set(llm_cfg) - _LLM_CONFIG_KEYS
            if unknown:
                raise ValidationError(f"unknown run-config llm keys: {sorted(unknown)}")

    def get(self, name: str, default=None):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name in self.config:
            return self.config[name]
        return default

    def llm_get(self, name: str, default=None):
        value = getattr(self.args, f"llm_{name}", None)
        if value is not None:
            return value
        return self.config.get("llm", {}).get(name, default)

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
        value = 1 if value is None else int(value)
        if value < 1:
            raise ValidationError("workers must be >= 1")
        return value

    def llm_client(self, required: bool = True) -> LLMClient | None:
        endpoint = self.llm_get("endpoint")
        if endpoint is None:
            if required:
                raise ValidationError("an LLM endpoint is required for this mode")
            return None
        return LLMClient(
            endpoint=endpoint,
            model=self.llm_get("model", "default"),
            api_style=self.llm_get("api_style", "raw"),
            temperature=float(self.llm_get("temperature", 0.0)),
            max_tokens=int(self.llm_get("max_tokens", 256)),
            timeout=float(self.llm_get("timeout", 30.0)),
            max_attempts=int(self.llm_get("max_attempts", 4)),
            cache_dir=self.llm_get("cache_dir"),
        )


def _parse_classes(settings: Settings) -> list[str] | None:
    raw = getattr(settings.args, "classes", None)
    if raw:
        return [normalize_concept(c) for c in raw.split(",") if normalize_concept(c)]
    path = getattr(settings.args, "classes_file", None)
    if path:
        out = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(normalize_concept(line))
        return out
    return None


def _make_cc_source(
    mode: str,
    *,
    dictionary: CCDictionary | None = None,
    embeddings: EmbeddingTable | None = None,
    provider=None,
    client: LLMClient | None = None,
    classes: list[str] | None = None,
    include_markers: bool = True,
):
    if mode == "none":
        return cc_none
    if mode == "bg":
        return cc_bg
    if mode == "dict":
        if dictionary is None or embeddings is None:
            raise ValidationError("cc-mode 'dict' needs --cc-dict and --embeddings")
        return lambda q: cc_d(q, dictionary, embeddings, provider)
    if mode == "llm":
        if client is None:
            raise ValidationError("cc-mode 'llm' needs an LLM endpoint")
        return lambda q: cc_llm(q, client, include_markers)
    if mode == "privileged":
        if classes is None:
            raise ValidationError("cc-mode 'privileged' needs the dataset class list")
        return lambda q: cc_privileged(q, classes)
    raise ValidationError(f"unknown cc-mode {mode!r}")


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
    lexicon = Lexicon.from_file(args.lexicon)
    matrix = CoocMatrix.load(args.matrix)
    occurrence = load_counts(args.counts)
    embeddings = EmbeddingTable.load(args.embeddings)
    visibility = (
        VisibilityTable.from_file(args.visibility) if args.visibility else VisibilityTable()
    )
    gamma = float(settings.get("gamma", ccgen.DEFAULT_GAMMA))
    delta = float(settings.get("delta", DEFAULT_DELTA))
    stopwords = settings.get("stopwords")
    config = FilterConfig(
        stopwords=frozenset(normalize_concept(s) for s in stopwords)
        if stopwords is not None
        else DEFAULT_STOPWORDS,
        delta=delta,
    )
    policy = settings.get("unknown_visibility", "reject")
    if policy == "llm":
        client = settings.llm_client(required=True)
        oracle = visibility_oracle(client, bool(settings.get("include_markers", True)))
        oracle_source = "llm"
    elif policy == "accept":
        oracle, oracle_source = accept_unknown, "manual"
    elif policy == "reject":
        oracle, oracle_source = reject_unknown, "manual"
    else:
        raise ValidationError(
            f"unknown-visibility must be reject, accept, or llm, got {policy!r}"
        )
    dictionary, _outcomes = build_dictionary(
        matrix,
        occurrence,
        lexicon,
        embeddings,
        visibility,
        gamma=gamma,
        filter_config=config,
        oracle=oracle,
        oracle_source=oracle_source,
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
    mode = args.mode if args.mode is not None else settings.get("cc_mode", "bg")
    include_markers = bool(settings.get("include_markers", True))
    dictionary = CCDictionary.load(args.cc_dict) if args.cc_dict else None
    embeddings = EmbeddingTable.load(args.embeddings) if args.embeddings else None
    provider = None
    if embeddings is not None:
        if args.provider == "toy":
            provider = ToyEmbeddingProvider(seed=args.toy_seed, dim=embeddings.dim)
        else:
            provider = TableProvider(embeddings)
    client = settings.llm_client(required=(mode == "llm"))
    classes = _parse_classes(settings)
    source = _make_cc_source(
        mode,
        dictionary=dictionary,
        embeddings=embeddings,
        provider=provider,
        client=client,
        classes=classes,
        include_markers=include_markers,
    )
    cc = source(args.query)
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


def _build_query_prompts(
    queries: list[str],
    cc_source,
    embeddings: EmbeddingTable,
    beta: float,
    beta_scope: str,
    background_label: str,
) -> PromptSet:
    """Prompts for explicit queries: their CC sets, merged when needed."""
    if len(queries) == 1:
        cc = cc_source(queries[0])
        labels = [queries[0]] + [c for c in cc.concepts if c != queries[0]]
        mask = [False] + [True] * (len(labels) - 1)
        return build_prompt_set(labels, mask, embeddings)
    cc_sets = []
    for q in queries:
        if q == background_label:
            cc_sets.append(CCSet(query=q, kind="none", concepts=[]))
        else:
            cc_sets.append(cc_source(q))
    merged, _excluded = cc_multi(cc_sets, embeddings, beta=beta, scope=beta_scope)
    labels = queries + merged
    mask = [False] * len(queries) + [True] * len(merged)
    return build_prompt_set(labels, mask, embeddings)


def cmd_segment(args: argparse.Namespace) -> int:
    settings = Settings(args)
    features = FeatureMap.load(args.features)
    embeddings = EmbeddingTable.load(args.embeddings)
    queries = [normalize_concept(q) for q in args.query]
    if not queries:
        raise ValidationError("at least one --query is required")
    if len(queries) != len(set(queries)):
        raise ValidationError("duplicate queries")
    mode = settings.get("cc_mode", "bg")
    dictionary = CCDictionary.load(args.cc_dict) if args.cc_dict else None
    client = settings.llm_client(required=(mode == "llm"))
    classes = _parse_classes(settings)
    source = _make_cc_source(
        mode,
        dictionary=dictionary,
        embeddings=embeddings,
        provider=TableProvider(embeddings),
        client=client,
        classes=classes,
        include_markers=bool(settings.get("include_markers", True)),
    )
    background_label = settings.get("background_label", BACKGROUND)
    prompts = _build_query_prompts(
        queries,
        source,
        embeddings,
        beta=float(settings.get("beta", ccgen.DEFAULT_BETA)),
        beta_scope=settings.get("beta_scope", "all"),
        background_label=background_label,
    )
    out_h = args.height or features.h
    out_w = args.width or features.w
    upsample = settings.get("upsample", "logits")
    pixmap = segment_pixels(features, prompts, out_h, out_w, upsample=upsample)
    if args.remap_background:
        pixmap = remap_cc_to_background(pixmap, prompts, background_label)
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


def _dataset_items(features_dir: str, gt_dir: str):
    """Pairs of (image id, feature path, ground-truth path), sorted by id."""
    feature_paths = sorted(Path(features_dir).glob("*.feat"))
    if not feature_paths:
        raise ValidationError(f"no .feat files under {features_dir}")
    items = []
    for fp in feature_paths:
        stem = fp.name[: -len(".feat")]
        items.append((stem, fp, Path(gt_dir) / (stem + ".seg")))
    return items


def _dataset_class_labels(gts: dict[str, metrics.GroundTruth]) -> list[str]:
    labels: set[str] = set()
    for gt in gts.values():
        labels.update(gt.labels.values())
    return sorted(labels)


def cmd_eval(args: argparse.Namespace) -> int:
    settings = Settings(args)
    embeddings = EmbeddingTable.load(args.embeddings)
    metric = args.metric
    aggregation = settings.get("aggregation", "class")
    upsample = settings.get("upsample", "logits")
    mode = settings.get("cc_mode", "bg")
    background_label = settings.get("background_label", BACKGROUND)
    items = _dataset_items(args.features_dir, args.gt_dir)

    image_failures: list[dict] = []
    loaded: list[tuple[str, FeatureMap, metrics.GroundTruth]] = []
    for image_id, feat_path, gt_path in items:
        try:
            features = FeatureMap.load(feat_path)
            gt = metrics.load_ground_truth(gt_path)
            loaded.append((image_id, features, gt))
        except (OSError, CCMineError) as exc:
            log.warning("image %s failed to load: %s", image_id, exc)
            image_failures.append({"id": image_id, "error": str(exc)})

    gts = {image_id: gt for image_id, _f, gt in loaded}
    dictionary = CCDictionary.load(args.cc_dict) if args.cc_dict else None
    client = settings.llm_client(required=(mode == "llm"))
    classes = _parse_classes(settings) or _dataset_class_labels(gts)
    source = _make_cc_source(
        mode,
        dictionary=dictionary,
        embeddings=embeddings,
        provider=TableProvider(embeddings),
        client=client,
        classes=classes,
        include_markers=bool(settings.get("include_markers", True)),
    )

    segmenter = settings.get("segmenter", "argmax")
    if metric == "iou-single":
        results = []
        for image_id, features, gt in loaded:
            if segmenter == "sigmoid":
                threshold = settings.get("sigmoid_threshold")
                if threshold is None:
                    raise ValidationError("--sigmoid-threshold is required for the sigmoid segmenter")
                result = metrics.iou_single_image_sigmoid(
                    features, gt, float(threshold), embeddings, image_id=image_id
                )
            else:
                result = metrics.iou_single_image(
                    features, gt, source, embeddings, upsample=upsample, image_id=image_id
                )
            results.append(result)
        report = metrics.aggregate_iou_single(results, mode=aggregation)
        class_failures = sum(len(r.failures) for r in results)
    elif metric == "miou-classic":
        queries = [background_label] + [c for c in classes if c != background_label]
        prompts = _build_query_prompts(
            queries,
            source,
            embeddings,
            beta=float(settings.get("beta", ccgen.DEFAULT_BETA)),
            beta_scope=settings.get("beta_scope", "all"),
            background_label=background_label,
        )
        per_image = []
        for image_id, features, gt in loaded:
            per_image.append(
                metrics.classic_image(features, gt, prompts, background_label, upsample)
            )
        report = metrics.aggregate_classic(per_image)
        class_failures = 0
    else:
        raise ValidationError(f"unknown metric {metric!r}")

    report["meta"] = {
        "cc_mode": mode,
        "embeddings_digest": sha256_file(args.embeddings),
        "cc_dict_digest": sha256_file(args.cc_dict) if args.cc_dict else None,
        "segmenter": segmenter,
        "upsample": upsample,
        "image_failures": image_failures,
    }
    metrics.write_report(report, args.out_json, args.out_tsv)
    print(json.dumps({"mean": report["mean"], "metric": metric}, sort_keys=True))
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
    items = _dataset_items(args.features_dir, args.gt_dir)
    loaded = []
    for image_id, feat_path, gt_path in items:
        loaded.append(
            (image_id, FeatureMap.load(feat_path), metrics.load_ground_truth(gt_path))
        )
    if args.param == "sigmoid":
        steps = int(settings.get("steps", 30))
        report = metrics.sigmoid_sweep(loaded, embeddings, steps=steps)
    elif args.param in ("gamma", "delta"):
        if not args.values:
            raise ValidationError(f"--values is required for a {args.param} sweep")
        if not (args.matrix and args.counts and args.lexicon):
            raise ValidationError(
                f"a {args.param} sweep needs --matrix, --counts, and --lexicon"
            )
        lexicon = Lexicon.from_file(args.lexicon)
        matrix = CoocMatrix.load(args.matrix)
        occurrence = load_counts(args.counts)
        visibility = (
            VisibilityTable.from_file(args.visibility)
            if args.visibility
            else VisibilityTable()
        )
        values = [float(v) for v in args.values.split(",")]
        rows = []
        for value in values:
            gamma = value if args.param == "gamma" else float(settings.get("gamma", ccgen.DEFAULT_GAMMA))
            delta = value if args.param == "delta" else float(settings.get("delta", DEFAULT_DELTA))
            dictionary, _ = build_dictionary(
                matrix,
                occurrence,
                lexicon,
                embeddings,
                visibility,
                gamma=gamma,
                filter_config=FilterConfig(delta=delta),
                oracle=accept_unknown,
                oracle_source="manual",
            )
            source = _make_cc_source(
                "dict",
                dictionary=dictionary,
                embeddings=embeddings,
                provider=TableProvider(embeddings),
            )
            results = [
                metrics.iou_single_image(f, gt, source, embeddings, image_id=i)
                for i, f, gt in loaded
            ]
            agg = metrics.aggregate_iou_single(results)
            rows.append(
                {
                    "value": value,
                    "mean_class": agg["mean_class"],
                    "mean_image": agg["mean_image"],
                }
            )
        report = {"metric": "iou-single-sweep", "param": args.param, "rows": rows}
    elif args.param == "beta":
        if not args.values:
            raise ValidationError("--values is required for a beta sweep")
        background_label = settings.get("background_label", BACKGROUND)
        mode = settings.get("cc_mode", "bg")
        dictionary = CCDictionary.load(args.cc_dict) if args.cc_dict else None
        classes = _parse_classes(settings) or _dataset_class_labels(
            {i: gt for i, _f, gt in loaded}
        )
        source = _make_cc_source(
            mode,
            dictionary=dictionary,
            embeddings=embeddings,
            provider=TableProvider(embeddings),
            classes=classes,
        )
        queries = [background_label] + [c for c in classes if c != background_label]
        rows = []
        for value in (float(v) for v in args.values.split(",")):
            prompts = _build_query_prompts(
                queries,
                source,
                embeddings,
                beta=value,
                beta_scope=settings.get("beta_scope", "all"),
                background_label=background_label,
            )
            per_image = [
                metrics.classic_image(f, gt, prompts, background_label)
                for _i, f, gt in loaded
            ]
            agg = metrics.aggregate_classic(per_image)
            rows.append({"value": value, "mean_class": agg["mean"]})
        report = {"metric": "miou-classic-sweep", "param": "beta", "rows": rows}
    else:
        raise ValidationError(f"unknown sweep parameter {args.param!r}")
    metrics.write_report(report, args.out_json, args.out_tsv)
    return 0


# ---- parser ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccmine",
        description="Mine and apply contrastive concepts for open-vocabulary segmentation",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON run-config; explicit flags win")

    p = sub.add_parser("mine", help="count concept co-occurrences over a caption corpus")
    add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out-matrix", required=True)
    p.add_argument("--out-counts", required=True)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("build-cc", help="build a filtered contrastive-concept dictionary")
    add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--counts", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--visibility")
    p.add_argument("--save-visibility")
    p.add_argument("--gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument(
        "--unknown-visibility",
        dest="unknown_visibility",
        choices=("reject", "accept", "llm"),
    )
    _add_llm_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_cc)

    p = sub.add_parser("gen-cc", help="produce the contrastive concepts for one query")
    add_common(p)
    p.add_argument("--mode", choices=("bg", "dict", "llm", "privileged", "none"))
    p.add_argument("--query", required=True)
    p.add_argument("--cc-dict", dest="cc_dict")
    p.add_argument("--embeddings")
    p.add_argument("--classes")
    p.add_argument("--classes-file", dest="classes_file")
    p.add_argument("--provider", choices=("table", "toy"), default="table")
    p.add_argument("--toy-seed", type=int, default=0)
    _add_llm_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_cc)

    p = sub.add_parser("segment", help="segment a stored feature map with text prompts")
    add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--query", action="append", default=[], help="repeatable")
    p.add_argument("--cc-mode", dest="cc_mode", choices=("none", "bg", "dict", "llm", "privileged"))
    p.add_argument("--cc-dict", dest="cc_dict")
    p.add_argument("--classes")
    p.add_argument("--classes-file", dest="classes_file")
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--upsample", choices=("logits", "labels"))
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-scope", dest="beta_scope", choices=("all", "source"))
    p.add_argument("--background-label", dest="background_label")
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
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="evaluate segmentation quality over a dataset")
    add_common(p)
    p.add_argument("--features-dir", dest="features_dir", required=True)
    p.add_argument("--gt-dir", dest="gt_dir", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--metric", choices=("iou-single", "miou-classic"), default="iou-single")
    p.add_argument("--cc-mode", dest="cc_mode", choices=("none", "bg", "dict", "llm", "privileged"))
    p.add_argument("--cc-dict", dest="cc_dict")
    p.add_argument("--classes")
    p.add_argument("--classes-file", dest="classes_file")
    p.add_argument("--aggregation", choices=("class", "image"))
    p.add_argument("--segmenter", choices=("argmax", "sigmoid"))
    p.add_argument("--sigmoid-threshold", dest="sigmoid_threshold", type=float)
    p.add_argument("--upsample", choices=("logits", "labels"))
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-scope", dest="beta_scope", choices=("all", "source"))
    p.add_argument("--background-label", dest="background_label")
    p.add_argument("--workers", type=int, help="accepted for config parity; evaluation is deterministic for any value")
    _add_llm_flags(p)
    p.add_argument("--out-json", dest="out_json", required=True)
    p.add_argument("--out-tsv", dest="out_tsv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="repeat an evaluation over a threshold grid")
    add_common(p)
    p.add_argument("--param", choices=("sigmoid", "gamma", "delta", "beta"), required=True)
    p.add_argument("--values", help="comma-separated grid for gamma/delta/beta sweeps")
    p.add_argument("--steps", type=int, help="sample count for the sigmoid sweep")
    p.add_argument("--features-dir", dest="features_dir", required=True)
    p.add_argument("--gt-dir", dest="gt_dir", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--matrix")
    p.add_argument("--counts")
    p.add_argument("--lexicon")
    p.add_argument("--visibility")
    p.add_argument("--cc-mode", dest="cc_mode", choices=("none", "bg", "dict", "llm", "privileged"))
    p.add_argument("--cc-dict", dest="cc_dict")
    p.add_argument("--classes")
    p.add_argument("--classes-file", dest="classes_file")
    p.add_argument("--gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--beta-scope", dest="beta_scope", choices=("all", "source"))
    p.add_argument("--background-label", dest="background_label")
    p.add_argument("--out-json", dest="out_json", required=True)
    p.add_argument("--out-tsv", dest="out_tsv")
    p.set_defaults(func=cmd_sweep)

    return parser


def _add_llm_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--llm-endpoint", dest="llm_endpoint")
    p.add_argument("--llm-model", dest="llm_model")
    p.add_argument("--api-style", dest="llm_api_style", choices=("raw", "chat"))
    p.add_argument("--llm-temperature", dest="llm_temperature", type=float)
    p.add_argument("--llm-max-tokens", dest="llm_max_tokens", type=int)
    p.add_argument("--llm-timeout", dest="llm_timeout", type=float)
    p.add_argument("--llm-attempts", dest="llm_max_attempts", type=int)
    p.add_argument("--llm-cache", dest="llm_cache_dir")
    p.add_argument(
        "--no-markers",
        dest="include_markers",
        action="store_const",
        const=False,
        help="render prompts without instruction markers",
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
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
