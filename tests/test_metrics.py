"""IoU protocols, aggregation, and the threshold sweep."""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmine import metrics
from ccmine.ccgen import CCDictionary, CCSet, cc_bg, cc_d, cc_none
from ccmine.embed import EmbeddingTable
from ccmine.errors import CCMineError, FormatError, ValidationError
from ccmine.metrics import (
    ClassScore,
    GroundTruth,
    ImageResult,
    aggregate_classic,
    aggregate_iou_single,
    classic_image,
    intersection_union,
    iou_single_image,
    iou_single_image_sigmoid,
    load_ground_truth,
    sigmoid_sweep,
    write_report,
)
from ccmine.segment import (
    FeatureMap,
    bilinear_resize,
    build_prompt_set,
    segment_pixels,
    sigmoid,
    sigmoid_patch_grid,
)

from conftest import (
    EXPECTED_DICT_G001,
    make_scene_features,
    make_scene_gt,
    make_sweep_features,
    make_toy_embeddings,
    traced_peak,
    write_scene_dataset,
)


class TestIoU:
    def test_known_value(self):
        pred = np.array([[1, 1], [0, 0]], dtype=bool)
        gt = np.array([[1, 0], [1, 0]], dtype=bool)
        assert intersection_union(pred, gt) == (1, 3)

    def test_perfect_and_disjoint(self):
        a = np.array([[True, False]])
        b = np.array([[False, True]])
        assert intersection_union(a, a) == (1, 1)
        assert intersection_union(a, b) == (0, 2)

    def test_empty_union_undefined(self):
        # a class with an empty union gets no IoU, never 0
        empty = np.zeros((2, 2), dtype=bool)
        assert intersection_union(empty, empty) == (0, 0)
        report = aggregate_classic([{"boat": (1, 2), "cat": (0, 0)}])
        assert list(report["per_class"]) == ["boat"]
        assert report["classes_undefined"] == ["cat"]

    def test_ignore_removes_both_sides(self):
        pred = np.array([[True, True]])
        gt = np.array([[True, False]])
        keep = ~np.array([[False, True]])
        assert intersection_union(pred, gt, keep) == (1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            intersection_union(np.zeros((1, 2), dtype=bool), np.zeros((2, 1), dtype=bool))


class TestGroundTruth:
    def test_evaluable_ids_skip_ignore_and_background(self):
        ids = np.array([[1, 2], [0, 255]])
        gt = GroundTruth(ids, {1: "boat", 2: "water"}, ignore_id=255, background_id=0)
        assert gt.evaluable_ids() == [1, 2]

    def test_present_ids_are_found_once(self, monkeypatch):
        calls = []
        values = metrics.grid_values
        monkeypatch.setattr(metrics, "grid_values", lambda *a: calls.append(1) or values(*a))
        ids = np.array([[3, 1, 255], [0, 3, 2]])
        gt = GroundTruth(ids, {1: "a", 2: "b", 3: "c"}, ignore_id=255, background_id=0)
        assert gt.evaluable_ids() == [1, 2, 3]
        assert gt.evaluable_ids() == [1, 2, 3]
        assert len(calls) == 1

    def test_unlabeled_id_rejected(self):
        with pytest.raises(ValidationError, match="unlabeled"):
            GroundTruth(np.array([[7]]), {1: "boat"})

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            GroundTruth(np.array([[1]]), {1: "boat", 2: "boat"})

    def test_loader_roundtrip(self, tmp_path):
        _, gt_dir = write_scene_dataset(tmp_path)
        gt = load_ground_truth(gt_dir / "img0.seg")
        assert gt.labels == {1: "boat"}
        assert gt.background_id == 0
        assert gt.ignore_id is None
        assert np.array_equal(gt.ids, make_scene_gt().ids)

    def test_loader_normalizes_names(self, tmp_path):
        _, gt_dir = write_scene_dataset(tmp_path)
        sidecar_path = gt_dir / "img0.seg.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["labels"]["1"] = "  BOAT "
        sidecar_path.write_text(json.dumps(sidecar))
        assert load_ground_truth(gt_dir / "img0.seg").labels == {1: "boat"}

    def test_loader_rejects_bad_ignore_id(self, tmp_path):
        _, gt_dir = write_scene_dataset(tmp_path)
        sidecar_path = gt_dir / "img0.seg.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["ignore_id"] = "none"
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(FormatError):
            load_ground_truth(gt_dir / "img0.seg")

    @pytest.mark.parametrize(
        "labels",
        [
            # "01" would silently rename class 1
            '{"0": "background", "1": "boat", "01": "water"}',
            '{"0": "background", "+1": "boat"}',
            '{"0": "background", "1": "boat", "1": "water"}',
        ],
    )
    def test_loader_rejects_non_canonical_or_repeated_ids(self, tmp_path, labels):
        _, gt_dir = write_scene_dataset(tmp_path)
        (gt_dir / "img0.seg.json").write_text('{"labels": ' + labels + ', "background_id": 0}')
        with pytest.raises(FormatError, match="sidecar"):
            load_ground_truth(gt_dir / "img0.seg")

    @pytest.mark.parametrize("key", ["ignore_id", "background_id"])
    def test_loader_rejects_boolean_id(self, tmp_path, key):
        # bool is an int subclass: true would silently become id 1
        _, gt_dir = write_scene_dataset(tmp_path)
        sidecar_path = gt_dir / "img0.seg.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar[key] = True
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(FormatError, match=key):
            load_ground_truth(gt_dir / "img0.seg")


class TestIoUSingle:
    def test_scene_without_cc(self, scene_features, scene_gt, toy_embeddings):
        result = iou_single_image(
            scene_features, scene_gt, cc_none, toy_embeddings, image_id="img0"
        )
        assert [s.label for s in result.scores] == ["boat"]
        assert result.scores[0].iou == pytest.approx(0.5)

    def test_scene_with_background_cc(self, scene_features, scene_gt, toy_embeddings):
        result = iou_single_image(scene_features, scene_gt, cc_bg, toy_embeddings)
        assert result.scores[0].iou == pytest.approx(2 / 3)

    def test_scene_with_dictionary_cc(self, scene_features, scene_gt, toy_embeddings):
        dictionary = CCDictionary({k: list(v) for k, v in EXPECTED_DICT_G001.items()})
        result = iou_single_image(
            scene_features,
            scene_gt,
            lambda q: cc_d(q, dictionary, toy_embeddings),
            toy_embeddings,
        )
        assert result.scores[0].iou == pytest.approx(1.0)

    def test_cc_ordering_matches_design(self, scene_features, scene_gt, toy_embeddings):
        dictionary = CCDictionary({k: list(v) for k, v in EXPECTED_DICT_G001.items()})
        by_mode = {}
        for mode, source in (
            ("none", cc_none),
            ("bg", cc_bg),
            ("dict", lambda q: cc_d(q, dictionary, toy_embeddings)),
        ):
            result = iou_single_image(scene_features, scene_gt, source, toy_embeddings)
            by_mode[mode] = result.scores[0].iou
        assert by_mode["none"] < by_mode["bg"] < by_mode["dict"]

    def test_failures_recorded_and_scan_continues(self, scene_features, toy_embeddings):
        ids = np.array(make_scene_gt().ids)
        ids[:, 2] = 2
        gt = GroundTruth(ids, {1: "boat", 2: "zeppelin"}, background_id=0)

        result = iou_single_image(scene_features, gt, cc_none, toy_embeddings)
        assert [s.label for s in result.scores] == ["boat"]
        assert len(result.failures) == 1
        assert result.failures[0][0] == "zeppelin"

    def test_ignore_pixels_excluded(self, scene_features, toy_embeddings):
        ids = np.array(make_scene_gt().ids)
        ids[:, 3] = 9
        gt = GroundTruth(ids, {1: "boat"}, ignore_id=9, background_id=0)
        result = iou_single_image(scene_features, gt, cc_none, toy_embeddings)
        # the all-boat prediction loses the ignored column from its union
        assert result.scores[0].iou == pytest.approx(8 / 12)

    def test_sigmoid_variant(self, scene_features, scene_gt, toy_embeddings):
        # boat columns score sigmoid(~0.973); the rest sit at or below
        # sigmoid(~0.501); any threshold between separates them exactly
        threshold = float(sigmoid(0.8))
        result = iou_single_image_sigmoid(
            scene_features, scene_gt, threshold, toy_embeddings
        )
        assert result.scores[0].iou == pytest.approx(1.0)


def per_class_reference(features, gt, cc_plan, table, upsample):
    """IoU-single with one ``segment_pixels`` call per class, the class as
    prompt 0: the scoring the per-image prompt union replaced."""
    h, w = gt.shape
    keep = None if gt.ignore_id is None else gt.ids != gt.ignore_id
    scores, failures = [], []
    for class_id in gt.evaluable_ids():
        label = gt.labels[class_id]
        prompt_labels = [label] + [c for c in cc_plan[label] if c != label]
        try:
            prompts = build_prompt_set(
                prompt_labels, [False] + [True] * (len(prompt_labels) - 1), table
            )
            pixmap = segment_pixels(features, prompts, h, w, upsample=upsample)
        except CCMineError as exc:
            failures.append((label, str(exc)))
            continue
        pred = pixmap == 0
        gt_mask = gt.ids == class_id
        if keep is not None:
            pred, gt_mask = pred & keep, gt_mask & keep
        inter = int(np.count_nonzero(pred & gt_mask))
        union = int(np.count_nonzero(pred | gt_mask))
        scores.append(ClassScore(class_id, label, inter, union))
    return scores, failures


_EMBEDDED = [f"k{j}" for j in range(8)]
_CONCEPTS = _EMBEDDED + ["zz-missing"]


def union_case(seed, class_labels, cc_plan, patch_hw, out_hw, use_ignore):
    # one-hot embeddings make every logit an exact feature component, so k6
    # and k7 (copies of k0 and k1) tie exactly with them in any prompt set
    rng = np.random.default_rng(seed)
    dim = 6
    table = EmbeddingTable(_EMBEDDED, np.eye(dim)[[j % dim for j in range(len(_EMBEDDED))]])
    features = FeatureMap(rng.standard_normal((*patch_hw, dim)))
    labels = {cid + 1: lab for cid, lab in enumerate(class_labels)}
    pool = [0, *labels] + ([9] if use_ignore else [])
    ids = rng.choice(pool, size=out_hw).astype(np.int32)
    gt = GroundTruth(ids, labels, ignore_id=9 if use_ignore else None, background_id=0)

    def source(q):
        return CCSet(query=q, kind="none", concepts=list(cc_plan[q]))

    return features, gt, source, table


class TestIoUSingleUnion:
    """One segmentation of the union of an image's prompts scores every
    class exactly as one segmentation per class does."""

    @pytest.mark.parametrize("upsample", ["logits", "labels"])
    def test_fixed_case(self, upsample):
        class_labels = ["k0", "k1", "k2", "k3"]
        cc_plan = {
            "k0": ["k1", "k5", "k6"],  # k1 is itself a class; k6 ties with k0
            "k1": ["k5", "k0", "k1"],  # shares k5 with k0; its own label is dropped
            "k2": ["k6", "zz-missing"],  # a CC without an embedding: k2 fails alone
            "k3": [],  # no competitors: the class claims every pixel
        }
        features, gt, source, table = union_case(3, class_labels, cc_plan, (5, 6), (11, 13), True)
        result = iou_single_image(features, gt, source, table, upsample=upsample)
        scores, failures = per_class_reference(features, gt, cc_plan, table, upsample)
        assert result.scores == scores
        assert result.failures == failures
        assert [f[0] for f in failures] == ["k2"]
        assert [s.label for s in scores] == ["k0", "k1", "k3"]
        keep = gt.ids != 9
        assert scores[-1].union == int(np.count_nonzero(keep))

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(_CONCEPTS), min_size=1, max_size=4, unique=True),
        st.data(),
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        st.tuples(st.integers(1, 14), st.integers(1, 14)),
        st.booleans(),
        st.sampled_from(["logits", "labels"]),
    )
    def test_matches_per_class_segmentation(
        self, seed, class_labels, data, patch_hw, out_hw, use_ignore, upsample
    ):
        # CC lists may repeat a concept (a prompt-set error for that class
        # only), name another class, the class itself or a missing concept
        cc_plan = {
            label: data.draw(st.lists(st.sampled_from(_CONCEPTS), max_size=5))
            for label in class_labels
        }
        features, gt, source, table = union_case(
            seed, class_labels, cc_plan, patch_hw, out_hw, use_ignore
        )
        result = iou_single_image(features, gt, source, table, upsample=upsample)
        scores, failures = per_class_reference(features, gt, cc_plan, table, upsample)
        assert result.scores == scores
        assert result.failures == failures

    def test_bad_upsample_fails_every_class(self):
        features, gt, source, table = union_case(
            1, ["k0", "k1"], {"k0": ["k1"], "k1": []}, (3, 3), (6, 6), False
        )
        result = iou_single_image(features, gt, source, table, upsample="nearest")
        assert not result.scores
        assert [f[0] for f in result.failures] == ["k0", "k1"]


class TestIntersectionUnion:
    def test_counts_only_kept_pixels(self):
        pred = np.array([[True, True, False, False]])
        gt = np.array([[True, False, True, False]])
        assert intersection_union(pred, gt) == (1, 3)
        keep = np.array([[True, False, True, True]])
        assert intersection_union(pred, gt, keep) == (1, 2)


class TestAggregateIoUSingle:
    def make_results(self):
        r1 = ImageResult("a", [ClassScore(1, "boat", 1, 2)])
        r2 = ImageResult("b", [ClassScore(1, "boat", 3, 4), ClassScore(2, "cat", 0, 1)])
        return [r1, r2]

    def test_class_accumulation(self):
        report = aggregate_iou_single(self.make_results(), mode="class")
        assert report["per_class"]["boat"] == {
            "intersection": 4,
            "union": 6,
            "iou": pytest.approx(2 / 3),
        }
        assert report["mean_class"] == pytest.approx((2 / 3 + 0.0) / 2)
        assert report["mean"] == report["mean_class"]

    def test_image_mean(self):
        report = aggregate_iou_single(self.make_results(), mode="image")
        assert report["mean_image"] == pytest.approx((0.5 + 0.375) / 2)
        assert report["mean"] == report["mean_image"]

    def test_skipped_images_counted(self):
        results = self.make_results() + [ImageResult("c")]
        report = aggregate_iou_single(results)
        assert report["images_scored"] == 2
        assert report["images_skipped"] == 1

    def test_nothing_scored_is_an_error(self):
        with pytest.raises(ValidationError):
            aggregate_iou_single([ImageResult("a")])

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            aggregate_iou_single(self.make_results(), mode="median")


def three_class_gt():
    ids = np.zeros((4, 4), dtype=np.int32)
    ids[:, 0:2] = 1
    ids[:, 3] = 2
    return GroundTruth(ids, {1: "boat", 2: "water"}, background_id=0)


class TestClassic:
    def test_perfect_scene(self, scene_features, toy_embeddings):
        gt = three_class_gt()
        prompts = build_prompt_set(
            ["background", "boat", "water", "dock", "sunset"],
            [False, False, False, True, True],
            toy_embeddings,
        )
        counts = classic_image(scene_features, gt, prompts)
        assert counts == {"background": (4, 4), "boat": (8, 8), "water": (4, 4)}

    def test_cc_pixels_remapped_to_background(self, scene_features, toy_embeddings):
        gt = three_class_gt()
        prompts = build_prompt_set(
            ["background", "boat", "water"], [False, False, True], toy_embeddings
        )
        counts = classic_image(scene_features, gt, prompts)
        # the water column is won by the CC prompt and lands on background
        assert counts["boat"] == (8, 8)
        assert counts["background"] == (4, 8)
        assert "water" not in counts

    def test_absent_class_counts_false_positives(self, scene_features, toy_embeddings):
        gt = three_class_gt()
        prompts = build_prompt_set(
            ["background", "boat", "water", "sunset"],
            [False, False, False, False],
            toy_embeddings,
        )
        counts = classic_image(scene_features, gt, prompts)
        assert counts["sunset"] == (0, 0)

    def test_aggregate(self):
        per_image = [
            {"boat": (8, 8), "water": (4, 4), "sunset": (0, 0)},
            {"boat": (0, 8), "water": (4, 4)},
        ]
        report = aggregate_classic(per_image)
        assert report["per_class"]["boat"]["iou"] == pytest.approx(0.5)
        assert report["per_class"]["water"]["iou"] == pytest.approx(1.0)
        assert report["mean"] == pytest.approx(0.75)
        assert report["classes_undefined"] == ["sunset"]

    def test_aggregate_all_undefined_is_an_error(self):
        with pytest.raises(ValidationError):
            aggregate_classic([{"boat": (0, 0)}])


class TestSigmoidSweep:
    def sweep(self, steps=30):
        ids = np.zeros((4, 4), dtype=np.int32)
        ids[:, 0:2] = 1
        gt = GroundTruth(ids, {1: "boat"}, background_id=0)
        items = [("img0", make_sweep_features(), gt)]
        report, failures = sigmoid_sweep(items, make_toy_embeddings(), steps=steps)
        assert failures == []
        return report

    def test_endpoints_cover_score_range(self):
        report = self.sweep()
        assert report["score_min"] == pytest.approx(float(sigmoid(0.2)))
        assert report["score_max"] == pytest.approx(float(sigmoid(0.8)))
        assert len(report["rows"]) == 30

    def test_curve_shape(self):
        rows = self.sweep()["rows"]
        values = [row["mean_class"] for row in rows]
        best = max(range(len(values)), key=values.__getitem__)
        assert 0 < best < len(values) - 1
        assert values[best] == pytest.approx(1.0)
        assert values[0] == pytest.approx(2 / 3)
        assert values[-1] == 0.0
        rising = values[: best + 1]
        falling = values[best:]
        assert all(a <= b for a, b in zip(rising, rising[1:]))
        assert all(a >= b for a, b in zip(falling, falling[1:]))

    def test_needs_two_steps(self):
        with pytest.raises(ValidationError):
            self.sweep(steps=1)

    def test_fields_kept_as_patch_grids_and_packed_masks(self):
        # until the range is known a field keeps its 4x4 float64 patch grid
        # and two packed 256x256 masks (H*W/4 bytes), plus under 1 KiB of
        # array headers, its tuple and its counts; a float64 copy of its
        # scores would be 512 KiB
        ids = np.kron(np.array([[1, 1, 0, 2]] * 4, dtype=np.int32), np.ones((64, 64), np.int32))
        gt = GroundTruth(ids, {0: "background", 1: "boat", 2: "water"}, background_id=0)
        table = make_toy_embeddings()

        def peak(n: int) -> int:
            items = ((f"img{k}", make_scene_features(), gt) for k in range(n))
            return traced_peak(lambda: sigmoid_sweep(items, table, steps=2))[1]

        peak(2)  # first-call caches out of the way
        two, eight = peak(2), peak(8)
        assert eight - two < 12 * (4 * 4 * 8 + 256 * 256 // 4 + 1024)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        patch_hw=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        out_hw=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        dim=st.sampled_from([1, 3, 16]),
    )
    def test_both_passes_upsample_the_eval_field(self, seed, patch_hw, out_hw, dim):
        # a field is upsampled from its patch grid once for the range and
        # once for the counts, and both times it is eval's field, bit for bit
        rng = np.random.default_rng(seed)
        features = FeatureMap(rng.standard_normal((*patch_hw, dim)))
        table = EmbeddingTable(["boat", "water"], rng.standard_normal((2, dim)))
        ids = rng.integers(0, 3, out_hw).astype(np.int32)
        ids.flat[0] = 1
        gt = GroundTruth(ids, {1: "boat", 2: "water"}, background_id=0)
        upsampled = []

        def resize(grid, out_h, out_w):
            field = bilinear_resize(grid, out_h, out_w)
            upsampled.append(field.tobytes())
            return field

        with mock.patch.object(metrics, "bilinear_resize", resize):
            sigmoid_sweep([("img0", features, gt)], table, steps=3)
        expected = [
            bilinear_resize(sigmoid_patch_grid(features, table.vector(gt.labels[c])), *out_hw)
            for c in gt.evaluable_ids()
        ]
        assert upsampled == [field.tobytes() for field in expected] * 2


def sweep_reference(items, embeddings, steps):
    """The sigmoid sweep with one ``intersection_union`` pass over every
    score field per threshold, what the sorted-score counts replaced, each
    threshold's counts aggregated as eval aggregates them."""
    cached = []
    lo, hi = np.inf, -np.inf
    for image_id, features, gt in items:
        h, w = gt.shape
        keep = gt.keep_mask()
        for class_id in gt.evaluable_ids():
            label = gt.labels[class_id]
            score = bilinear_resize(sigmoid_patch_grid(features, embeddings.vector(label)), h, w)
            cached.append((image_id, class_id, label, score, gt.ids == class_id, keep))
            lo = min(lo, float(score.min()))
            hi = max(hi, float(score.max()))
    thresholds = np.linspace(lo, hi, steps)
    rows = []
    for threshold in thresholds:
        results = {}
        for image_id, class_id, label, score, gt_mask, keep in cached:
            i, u = intersection_union(score > threshold, gt_mask, keep)
            result = results.setdefault(image_id, ImageResult(image_id))
            result.scores.append(ClassScore(class_id, label, i, u))
        report = aggregate_iou_single(list(results.values()))
        rows.append(
            {
                "threshold": float(threshold),
                "mean_class": report["mean_class"],
                "mean_image": report["mean_image"],
            }
        )
    return {
        "metric": "iou-single-sigmoid-sweep",
        "score_min": lo,
        "score_max": hi,
        "steps": steps,
        "rows": rows,
    }


class TestSigmoidSweepAgainstLoop:
    """Counting each field's pixels above every threshold by binary search
    on its sorted scores gives the per-threshold mask loop's report."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        images=st.lists(
            st.tuples(
                st.tuples(st.integers(1, 3), st.integers(1, 3)),
                st.tuples(st.integers(1, 12), st.integers(1, 12)),
                st.lists(st.sampled_from(_EMBEDDED[:4]), min_size=1, max_size=3, unique=True),
            ),
            min_size=1,
            max_size=4,
        ),
        use_ignore=st.booleans(),
        steps=st.integers(2, 60),
    )
    def test_report_equals_per_threshold_loop(self, seed, images, use_ignore, steps):
        # patches come from a pool of three vectors, and upsampling clamps
        # at the edges, so many pixels share a score exactly, the global
        # minimum and maximum among them: the end thresholds tie pixels
        rng = np.random.default_rng(seed)
        dim = 4
        table = EmbeddingTable(_EMBEDDED, rng.standard_normal((len(_EMBEDDED), dim)))
        pool = rng.standard_normal((3, dim))
        items = []
        for n, (patch_hw, out_hw, labels) in enumerate(images):
            features = FeatureMap(pool[rng.integers(0, 3, patch_hw)])
            ids = {cid + 1: label for cid, label in enumerate(labels)}
            choices = [0, *ids] + ([9] if use_ignore else [])
            grid = rng.choice(choices, size=out_hw).astype(np.int32)
            gt = GroundTruth(grid, ids, ignore_id=9 if use_ignore else None, background_id=0)
            items.append((f"img{n}", features, gt))
        if not any(gt.evaluable_ids() for _, _, gt in items):
            with pytest.raises(ValidationError):
                sigmoid_sweep(items, table, steps=steps)
            return
        expected = sweep_reference(items, table, steps)
        assert sigmoid_sweep(items, table, steps=steps) == (expected, [])

    def test_scores_on_a_threshold_are_not_above_it(self):
        # one flat field: every pixel scores the minimum, which is also the
        # maximum, so every threshold ties every pixel and none is above it
        table = EmbeddingTable(["boat"], np.array([[1.0, 0.0]]))
        gt = GroundTruth(np.array([[1, 0], [9, 1]]), {1: "boat"}, ignore_id=9, background_id=0)
        items = [("img0", FeatureMap(np.ones((1, 1, 2))), gt)]
        report, failures = sigmoid_sweep(items, table, steps=3)
        assert report == sweep_reference(items, table, 3)
        assert failures == []
        assert report["score_min"] == report["score_max"]
        assert [row["mean_class"] for row in report["rows"]] == [0.0, 0.0, 0.0]


class TestWriteReport:
    def test_json_and_tsv(self, tmp_path):
        report = aggregate_iou_single(
            [ImageResult("a", [ClassScore(1, "boat", 1, 2)])]
        )
        json_path = tmp_path / "report.json"
        tsv_path = tmp_path / "report.tsv"
        write_report(report, json_path, tsv_path)
        loaded = json.loads(json_path.read_text())
        assert loaded["mean"] == 0.5
        lines = tsv_path.read_text().splitlines()
        assert lines[0] == "scope\tname\tvalue"
        assert "summary\tmean\t0.500000" in lines
        assert "class\tboat\t0.500000" in lines
        assert "image\ta\t0.500000" in lines
