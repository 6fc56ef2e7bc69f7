"""Acceptance gate: one test per shipping criterion.

Every test prints a live ``acceptance N PASS/FAIL`` line (bypassing output
capture) so a full run shows the verdict for each criterion at a glance.
The checks pair brute-force oracles and frozen fixtures with the public
API; nothing here reaches outside the package.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from ccmine.bench import CI_FLOOR_FRACTION, NOMINAL_RATE
from ccmine.bench import run as bench_run
from ccmine.ccgen import CCDictionary, CCSet, build_dictionary, cc_bg, cc_d, cc_none
from ccmine.cli import main
from ccmine.cooc import build_cooc, mine_corpus, normalize
from ccmine.corpus import Lexicon, ScanStats, scan_corpus
from ccmine.embed import EmbeddingTable, nearest_neighbor
from ccmine.filters import DEFAULT_DELTA, DEFAULT_STOPWORDS, VisibilityTable
from ccmine.llm import (
    CC_GENERATION,
    PART_REMOVAL,
    VISIBILITY,
    parse_cc_list,
    parse_visibility,
    render,
)
from ccmine.metrics import GroundTruth, iou_single_image, sigmoid_sweep
from ccmine.segment import (
    BOTTOM,
    FeatureMap,
    apply_cc_mask,
    build_prompt_set,
    segment_pixels,
    sigmoid,
    upsample_and_argmax,
)

from conftest import (
    EXPECTED_DICT_G001,
    TOY_CONCEPTS,
    cosine,
    filter_one,
    make_scene_features,
    make_scene_gt,
    make_sweep_features,
    make_toy_embeddings,
    make_toy_visibility,
)

GOLDEN = Path(__file__).parent / "golden"

CRITERIA = {
    1: "co-occurrence counts and frequencies match a dense brute-force count",
    2: "mine and build-cc artifacts are byte-identical across runs and worker counts",
    3: "filter stages only remove candidates; toy dictionary matches the hand derivation",
    4: "nearest neighbor equals an exhaustive scan and maps every concept to itself",
    5: "per-class IoU protocol matches an independent transcription",
    6: "segmenter honors degenerate prompts, mask locality, and argmax invariance",
    7: "mined concepts beat the background word, which beats the bare query",
    8: "prompt renders match golden bytes; list and yes/no parsing are exact",
    9: "sigmoid threshold curve is unimodal with an interior peak and steep falloff",
    10: "mining throughput stays above half the nominal rate",
}


@pytest.fixture
def verdict(capsys):
    @contextmanager
    def check(num: int):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                status = "PASS" if ok else "FAIL"
                print(f"\nacceptance {num:2d}/10 {status}: {CRITERIA[num]}")

    return check


# ---- 1: counting oracle ----


def brute_force_counts(concept_sets, dim):
    """Dense O(n * dim^2) pair counting, the slow obvious way."""
    occurrence = [0] * dim
    pairs = {}
    for s in concept_sets:
        for i in range(dim):
            if i in s:
                occurrence[i] += 1
        for i in range(dim):
            for j in range(i + 1, dim):
                if i in s and j in s:
                    pairs[(i, j)] = pairs.get((i, j), 0) + 1
    return occurrence, pairs


def brute_force_freq(pairs, occurrence):
    rows = {}
    for (i, j), count in pairs.items():
        rows.setdefault(i, {})[j] = count / occurrence[i]
        rows.setdefault(j, {})[i] = count / occurrence[j]
    return rows


def coo_as_dict(matrix):
    """``{(i, j): count}`` read straight off the matrix's COO arrays."""
    return dict(zip(zip(matrix.i.tolist(), matrix.j.tolist()), matrix.count.tolist()))


def csr_as_dict(freq):
    """``{i: {j: freq}}`` over the rows holding entries, read straight off
    the CSR arrays."""
    rows = {}
    indptr = freq.indptr.tolist()
    for i in range(freq.dim):
        lo, hi = indptr[i], indptr[i + 1]
        if hi > lo:
            rows[i] = dict(zip(freq.indices[lo:hi].tolist(), freq.data[lo:hi].tolist()))
    return rows


def test_criterion_01_counting_oracle(verdict):
    with verdict(1):
        rng = random.Random(101)
        start = time.perf_counter()
        for case in range(200):
            n_concepts = rng.randint(2, 50)
            concepts = [f"c{k}" for k in range(n_concepts)]
            for k in range(0, n_concepts, 5):
                concepts[k] = f"c{k} tail"
            lexicon = Lexicon(concepts)
            n_captions = rng.randint(0, 1000) if case % 40 == 0 else rng.randint(0, 40)
            vocab = [f"c{k}" for k in range(n_concepts)] + ["tail", "the", "on", "a"]
            lines = []
            for i in range(n_captions):
                words = rng.choices(vocab, k=rng.randint(0, 12))
                lines.append(json.dumps({"id": str(i), "text": " ".join(words)}))
                if rng.random() < 0.03:
                    lines.append("{not json")
                if rng.random() < 0.03:
                    lines.append("   ")
            stats = ScanStats()
            sets = list(scan_corpus(lines, lexicon, stats))
            matrix = build_cooc(iter(sets), dim=len(lexicon))
            occurrence, pairs = brute_force_counts(sets, len(lexicon))
            assert stats.occurrence == occurrence
            assert coo_as_dict(matrix) == pairs
            # stored in ascending (i, j) order, each unordered pair once
            codes = matrix.i * matrix.dim + matrix.j
            assert np.all(matrix.i < matrix.j) and np.all(np.diff(codes) > 0)
            freq = normalize(matrix, stats.occurrence, lexicon)
            assert csr_as_dict(freq) == brute_force_freq(pairs, occurrence)
            for i in range(freq.dim):
                assert np.all(np.diff(freq.indices[freq.indptr[i] : freq.indptr[i + 1]]) > 0)
        assert time.perf_counter() - start <= 60.0


# ---- 2: artifact determinism ----


def test_criterion_02_artifact_determinism(
    verdict,
    tmp_path,
    toy_corpus_path,
    toy_lexicon_path,
    toy_embeddings_path,
    toy_visibility_path,
    capsys,
):
    with verdict(2):
        start = time.perf_counter()
        mine_blobs = set()
        for run_idx in range(3):
            for workers in (1, 4, 16):
                matrix_path = tmp_path / f"m-{run_idx}-{workers}"
                counts_path = tmp_path / f"c-{run_idx}-{workers}"
                code = main(
                    [
                        "mine",
                        "--corpus", str(toy_corpus_path),
                        "--lexicon", str(toy_lexicon_path),
                        "--out-matrix", str(matrix_path),
                        "--out-counts", str(counts_path),
                        "--workers", str(workers),
                    ]
                )
                capsys.readouterr()
                assert code == 0
                mine_blobs.add((matrix_path.read_bytes(), counts_path.read_bytes()))
        assert len(mine_blobs) == 1

        matrix_path = tmp_path / "m-0-1"
        counts_path = tmp_path / "c-0-1"
        dict_blobs = set()
        for run_idx in range(3):
            out = tmp_path / f"cc-{run_idx}.json"
            code = main(
                [
                    "build-cc",
                    "--matrix", str(matrix_path),
                    "--counts", str(counts_path),
                    "--lexicon", str(toy_lexicon_path),
                    "--embeddings", str(toy_embeddings_path),
                    "--visibility", str(toy_visibility_path),
                    "--out", str(out),
                ]
            )
            capsys.readouterr()
            assert code == 0
            dict_blobs.add(out.read_bytes())
        assert len(dict_blobs) == 1
        assert time.perf_counter() - start <= 10.0


# ---- 3: filter contraction and the default-parameter fixture ----


def is_subsequence(shorter, longer):
    it = iter(longer)
    return all(item in it for item in shorter)


def test_criterion_03_filter_contraction(verdict, toy_corpus_path):
    with verdict(3):
        pyrng = random.Random(33)
        nprng = np.random.default_rng(33)
        names = [f"w{k}" for k in range(40)]
        vecs = nprng.standard_normal((len(names), 6))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        table = EmbeddingTable(names, vecs)
        visibility = VisibilityTable(
            {name: (pyrng.random() < 0.5, "manual") for name in names[:20]}
        )
        stopword_pool = sorted(DEFAULT_STOPWORDS)
        for _ in range(1000):
            candidates = pyrng.sample(names, k=pyrng.randint(0, 12))
            for s in pyrng.sample(stopword_pool, k=pyrng.randint(0, 2)):
                candidates.insert(pyrng.randrange(len(candidates) + 1), s)
            target = pyrng.choice(names)
            # each stage by its definition: stop-word membership, a table
            # lookup that keeps unknowns, and cosine strictly above delta
            stage1 = [c for c in candidates if c not in DEFAULT_STOPWORDS]
            assert is_subsequence(stage1, candidates)
            stage2 = [c for c in stage1 if visibility.get(c) is not False]
            assert is_subsequence(stage2, stage1)
            target_vec = table.vector(target)
            stage3 = [c for c in stage2 if not cosine(table.vector(c), target_vec) > DEFAULT_DELTA]
            assert is_subsequence(stage3, stage2)
            outcome = filter_one(candidates, target, table, visibility)
            assert outcome.removed_stopword == [c for c in candidates if c not in stage1]
            assert outcome.removed_invisible == [c for c in stage1 if c not in stage2]
            assert outcome.removed_similar == [c for c in stage2 if c not in stage3]
            assert outcome.kept == stage3
            assert outcome.unresolved_kept == [c for c in stage3 if visibility.get(c) is None]
            removed = (
                outcome.removed_stopword
                + outcome.removed_invisible
                + outcome.removed_similar
            )
            assert sorted(outcome.kept + removed) == sorted(candidates)

        lexicon = Lexicon(list(TOY_CONCEPTS))
        matrix, stats = mine_corpus(toy_corpus_path, lexicon)
        dictionary = build_dictionary(
            matrix, stats.occurrence, lexicon, make_toy_embeddings(), make_toy_visibility()
        )
        assert dictionary.cc == EXPECTED_DICT_G001
        assert dictionary.meta["gamma"] == 0.01
        assert dictionary.meta["delta"] == 0.8


# ---- 4: nearest-neighbor oracle ----


def exhaustive_scan(query, table):
    """Plain-loop nearest neighbor with compensated summation."""
    best_name = None
    best_sim = -math.inf
    qnorm = math.sqrt(math.fsum(float(x) * float(x) for x in query))
    for name in table.names:
        vec = table.vector(name)
        dot = math.fsum(float(a) * float(b) for a, b in zip(query, vec))
        vnorm = math.sqrt(math.fsum(float(b) * float(b) for b in vec))
        sim = dot / (qnorm * vnorm)
        if sim > best_sim:
            best_name, best_sim = name, sim
    return best_name, best_sim


def test_criterion_04_nearest_neighbor_oracle(verdict, toy_embeddings):
    with verdict(4):
        pyrng = random.Random(44)
        nprng = np.random.default_rng(44)
        for case in range(100):
            if case == 0:
                n = 10_000
            elif case == 1:
                n = 2_000
            else:
                n = pyrng.randint(2, 160)
            dim = pyrng.randint(2, 16)
            names = [f"n{k:05d}" for k in range(n)]
            vecs = nprng.standard_normal((n, dim))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            if case % 7 == 3:
                vecs[1] = vecs[0]
                vecs[2] = vecs[0]
            table = EmbeddingTable(names, vecs)
            queries = 1 if n >= 2_000 else 3
            for _ in range(queries):
                q = nprng.standard_normal(dim)
                q /= np.linalg.norm(q)
                name, sim = nearest_neighbor(q, table)
                expected_name, expected_sim = exhaustive_scan(q, table)
                assert name == expected_name
                assert abs(sim - expected_sim) <= 1e-9
            if case % 7 == 3:
                # exact duplicate rows tie; the smallest name must win
                name, _ = nearest_neighbor(table.vector("n00001"), table)
                assert name == "n00000"

        for concept in TOY_CONCEPTS:
            name, sim = nearest_neighbor(toy_embeddings.vector(concept), toy_embeddings)
            assert name == concept
            assert sim == pytest.approx(1.0)


# ---- 5: per-class protocol transcription ----


def transcribe_per_class(features, gt, cc_plan, table):
    """The per-class scoring loop, written out anew: segment once per
    annotated class with that class as the sole query, count the pixels the
    query wins, and drop ignored pixels from both sides."""
    unit = features.unit
    skip = {gt.ignore_id, gt.background_id}
    ignore = None if gt.ignore_id is None else gt.ids == gt.ignore_id
    scores = []
    failures = []
    for class_id in sorted(int(v) for v in np.unique(gt.ids)):
        if class_id in skip:
            continue
        label = gt.labels[class_id]
        prompt_labels = [label] + [c for c in cc_plan[label] if c != label]
        if any(p not in table for p in prompt_labels):
            failures.append(label)
            continue
        planes = []
        for p in prompt_labels:
            vec = table.vector(p)
            vec = vec / np.linalg.norm(vec)
            planes.append(np.clip(unit @ vec, -1.0, 1.0))
        pred = np.stack(planes, axis=-1).argmax(axis=-1) == 0
        gt_mask = gt.ids == class_id
        if ignore is not None:
            pred = pred & ~ignore
            gt_mask = gt_mask & ~ignore
        scores.append(
            (
                class_id,
                label,
                int(np.count_nonzero(pred & gt_mask)),
                int(np.count_nonzero(pred | gt_mask)),
            )
        )
    return scores, failures


def test_criterion_05_protocol_transcription(verdict):
    with verdict(5):
        pyrng = random.Random(55)
        nprng = np.random.default_rng(55)
        names = [f"k{j}" for j in range(12)]
        for case in range(100):
            dim = pyrng.choice([3, 8])
            vecs = nprng.standard_normal((len(names), dim))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            table = EmbeddingTable(names, vecs)
            h, w = pyrng.randint(2, 16), pyrng.randint(2, 16)
            grid = nprng.standard_normal((h, w, dim))
            grid /= np.linalg.norm(grid, axis=2, keepdims=True)
            features = FeatureMap(grid)

            n_classes = pyrng.randint(1, 5)
            class_labels = pyrng.sample(names, n_classes)
            labels = {cid + 1: lab for cid, lab in enumerate(class_labels)}
            id_pool = [0] + list(labels)
            use_ignore = case % 4 == 0
            if use_ignore:
                id_pool.append(9)
            ids = nprng.choice(id_pool, size=(h, w)).astype(np.int32)
            gt = GroundTruth(
                ids, labels, ignore_id=9 if use_ignore else None, background_id=0
            )

            cc_plan = {}
            for lab in class_labels:
                concepts = pyrng.sample(names, k=pyrng.randint(0, 4))
                if pyrng.random() < 0.2:
                    concepts.append("zz-missing")
                cc_plan[lab] = concepts

            def source(q):
                return CCSet(query=q, kind="none", concepts=list(cc_plan[q]))

            result = iou_single_image(features, gt, source, table, image_id=f"case{case}")
            expected_scores, expected_failures = transcribe_per_class(
                features, gt, cc_plan, table
            )
            got_scores = [
                (s.class_id, s.label, s.intersection, s.union) for s in result.scores
            ]
            assert got_scores == expected_scores
            assert [f[0] for f in result.failures] == expected_failures


# ---- 6: segmenter contracts ----


def test_criterion_06_segmenter_contracts(verdict):
    with verdict(6):
        pyrng = random.Random(66)
        nprng = np.random.default_rng(66)
        for _ in range(100):
            dim = pyrng.choice([2, 5])
            h, w = pyrng.randint(1, 9), pyrng.randint(1, 9)
            grid = nprng.standard_normal((h, w, dim))
            grid /= np.linalg.norm(grid, axis=2, keepdims=True)
            features = FeatureMap(grid)
            names = [f"p{j}" for j in range(4)]
            vecs = nprng.standard_normal((4, dim))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            table = EmbeddingTable(names, vecs)

            solo = build_prompt_set([names[0]], [False], table)
            assert np.all(segment_pixels(features, solo, h, w) == 0)

            mask = [pyrng.random() < 0.5 for _ in range(4)]
            mask[pyrng.randrange(4)] = False
            prompts = build_prompt_set(names, mask, table)
            pixmap = nprng.integers(0, 4, size=(h, w)).astype(np.int32)
            before = pixmap.copy()
            erased = apply_cc_mask(pixmap, prompts)
            assert np.array_equal(pixmap, before)
            cc_pixels = np.isin(pixmap, [k for k, cc in enumerate(mask) if cc])
            assert np.all(erased[cc_pixels] == BOTTOM)
            assert np.array_equal(erased[~cc_pixels], pixmap[~cc_pixels])

            # dyadic logits keep every interpolation and affine step exact
            logits = nprng.integers(-8, 9, size=(h, w, 3)).astype(np.float64) / 8.0
            for out_h, out_w in ((h, w), (2 * h, 2 * w)):
                base = upsample_and_argmax(logits, out_h, out_w)
                shifted = upsample_and_argmax(2.0 * logits + 0.25, out_h, out_w)
                assert np.array_equal(base, shifted)


# ---- 7: the directional fixture ----


def test_criterion_07_directional_fixture(verdict):
    with verdict(7):
        features = make_scene_features()
        gt = make_scene_gt()
        table = make_toy_embeddings()
        dictionary = CCDictionary({k: list(v) for k, v in EXPECTED_DICT_G001.items()})

        def score(source):
            result = iou_single_image(features, gt, source, table)
            assert not result.failures
            assert len(result.scores) == 1
            return result.scores[0].iou

        iou_none = score(cc_none)
        iou_bg = score(cc_bg)
        iou_dict = score(lambda q: cc_d(q, dictionary, table))
        assert iou_none == 0.5
        assert iou_bg == 8 / 12
        assert iou_dict == 1.0
        assert iou_dict > iou_bg > iou_none


# ---- 8: prompt goldens and parsing ----


ROAD_RESPONSE = (
    "building, tree, car, pedestrian, sky, streetlight, sidewalk, bicycle, "
    "parked car, traffic sign"
)


def test_criterion_08_prompt_goldens_and_parsing(verdict):
    with verdict(8):
        cases = [
            ("cc_generation_bottle.txt", CC_GENERATION, "bottle", True),
            ("visibility_liberty.txt", VISIBILITY, "liberty", True),
            ("part_removal_building.txt", PART_REMOVAL, "building", True),
            ("cc_generation_bottle_nomarkers.txt", CC_GENERATION, "bottle", False),
        ]
        for golden_name, template, q, markers in cases:
            rendered = render(template, q, include_markers=markers).encode("utf-8")
            assert rendered == (GOLDEN / golden_name).read_bytes()

        assert parse_cc_list(ROAD_RESPONSE) == [
            "building",
            "tree",
            "car",
            "pedestrian",
            "sky",
            "streetlight",
            "sidewalk",
            "bicycle",
            "parked car",
            "traffic sign",
        ]

        for text, expected in [
            ("yes", True),
            ("Yes.", True),
            ("YES indeed", True),
            ("  yes\n", True),
            ("no", False),
            ("No!", False),
            ('"no"', False),
            ("\nNo\n", False),
        ]:
            assert parse_visibility(text) is expected


# ---- 9: sigmoid threshold curve ----


def test_criterion_09_sigmoid_curve(verdict):
    with verdict(9):
        assert sigmoid(0.0) == 0.5
        items = [("img0", make_sweep_features(), make_scene_gt())]
        report = sigmoid_sweep(items, make_toy_embeddings(), steps=30)
        values = [row["mean_class"] for row in report["rows"]]
        assert len(values) == 30
        assert values[0] == 8 / 12
        assert max(values) == 1.0
        peak = values.index(1.0)
        assert 0 < peak < len(values) - 1
        assert all(a <= b for a, b in zip(values[: peak + 1], values[1 : peak + 1]))
        last_peak = len(values) - 1 - values[::-1].index(1.0)
        falling = values[last_peak:]
        assert all(a >= b for a, b in zip(falling, falling[1:]))
        assert values[-2] == 1.0
        assert values[-1] == 0.0


# ---- 10: throughput ----


def test_criterion_10_throughput(verdict):
    with verdict(10):
        report = bench_run(captions=30_000, lexicon_size=4_000, seed=7)
        assert report["captions_per_second"] >= NOMINAL_RATE * CI_FLOOR_FRACTION
