"""Patch-to-pixel segmentation mechanics and the label-map artifact."""

from __future__ import annotations

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ccmine import segment
from ccmine.errors import FormatError, MissingEmbeddingError, ValidationError
from ccmine.segment import (
    BOTTOM,
    FeatureMap,
    PromptSet,
    SegMap,
    apply_cc_mask,
    bilinear_resize,
    build_prompt_set,
    nearest_resize,
    patch_logits,
    query_masks,
    remap_cc_to_background,
    segment_pixels,
    sigmoid,
    sigmoid_patch_grid,
    upsample_and_argmax,
)

from conftest import make_scene_features, traced_peak


def gather_bilinear_resize(grid, out_h, out_w):
    """Bilinear upsampling by four gathers per output pixel: the form the
    separable ``bilinear_resize`` replaced, kept as its reference."""
    arr = np.asarray(grid, dtype=np.float64)
    squeeze = arr.ndim == 2
    if squeeze:
        arr = arr[:, :, None]
    h, w = arr.shape[:2]
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    y0i = np.clip(y0.astype(np.int64), 0, h - 1)
    y1i = np.clip(y0.astype(np.int64) + 1, 0, h - 1)
    x0i = np.clip(x0.astype(np.int64), 0, w - 1)
    x1i = np.clip(x0.astype(np.int64) + 1, 0, w - 1)
    top = arr[y0i][:, x0i] * (1.0 - wx) + arr[y0i][:, x1i] * wx
    bottom = arr[y1i][:, x0i] * (1.0 - wx) + arr[y1i][:, x1i] * wx
    out = top * (1.0 - wy) + bottom * wy
    return out[:, :, 0] if squeeze else out


def band_upsample(logits, out_h, out_w):
    """Every pixel's upsampled logits, one band of output rows at a time:
    the band path that the tap decisions replaced, kept as their
    reference.  Yields ``(rows, band)`` with ``band`` ``(n, out_w, L)``."""
    h, w, n = logits.shape
    cols = segment._interp_weights(w, out_w) @ logits
    lo, hi, w0, w1 = segment._row_taps(h, out_h)
    step = max(1, segment.BAND_BYTES // (8 * n * out_w))
    for start in range(0, out_h, step):
        rows = slice(start, min(start + step, out_h))
        band = cols[lo[rows]]
        band *= w0[rows, None, None]
        tap = cols[hi[rows]]
        tap *= w1[rows, None, None]
        band += tap
        yield rows, band


def band_argmax(logits, out_h, out_w):
    labels = np.empty((out_h, out_w), dtype=np.int32)
    for rows, band in band_upsample(logits, out_h, out_w):
        labels[rows] = band.argmax(axis=2)
    return labels


def band_masks(logits, contests, out_h, out_w):
    masks = [np.empty((out_h, out_w), dtype=bool) for _ in contests]
    for rows, band in band_upsample(logits, out_h, out_w):
        for mask, (query, rivals) in zip(masks, contests):
            mask[rows] = band[..., query] >= band[..., rivals].max(axis=-1, initial=-np.inf)
    return masks


def masks_of_logits(logits, contests, out_h, out_w):
    """``query_masks`` on given patch logits."""
    with mock.patch.object(segment, "patch_logits", return_value=logits):
        return query_masks(None, None, contests, out_h, out_w)


_side = st.integers(1, 9)
_out_side = st.integers(1, 40)


def prompt_set(labels, cc_mask, axes):
    vectors = np.eye(3)[list(axes)]
    return PromptSet(labels, vectors, cc_mask)


class TestFeatureMap:
    def test_shape_and_unit(self):
        fm = FeatureMap(np.full((2, 3, 4), 0.5))
        assert (fm.h, fm.w, fm.d) == (2, 3, 4)
        assert np.allclose(np.linalg.norm(fm.unit, axis=2), 1.0)

    def test_rejects_zero_patch(self):
        grid = np.ones((2, 2, 3))
        grid[1, 1] = 0.0
        with pytest.raises(ValidationError):
            FeatureMap(grid)

    def test_rejects_non_finite(self):
        grid = np.ones((2, 2, 3))
        grid[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            FeatureMap(grid)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValidationError):
            FeatureMap(np.ones((2, 3)))

    def test_roundtrip_byte_identical(self, tmp_path):
        fm = make_scene_features()
        path = tmp_path / "img.feat"
        fm.save(path)
        first = path.read_bytes()
        FeatureMap.load(path).save(path)
        assert path.read_bytes() == first

    def test_loads_keeps_no_view_of_the_payload(self):
        stored = make_scene_features().dumps()
        data = bytearray(stored)
        fm = FeatureMap.loads(data)
        data.clear()  # a BufferError while some array still views the bytes
        assert fm.dumps() == stored
        assert np.allclose(np.linalg.norm(fm.unit, axis=2), 1.0)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           d=st.sampled_from([1, 2, 3, 64]))
    @example(data=None, shape=(1, 1), d=1)
    def test_load_save_byte_identical(self, data, shape, d):
        # any float32 payload, subnormals and both zeros included, comes
        # back as stored from the unit vectors and the patch norms
        if data is None:
            payload = np.array([[[-1e-45]]], dtype="<f4")
        else:
            floats = st.floats(width=32, allow_nan=False, allow_infinity=False)
            payload = data.draw(hnp.arrays("<f4", (*shape, d), elements=floats))
            tiny = 2.0**-126  # the smallest normal float32
            subnormal = st.floats(-tiny, tiny, width=32, exclude_min=True, exclude_max=True)
            subnormal = subnormal.filter(bool)
            payload.flat[data.draw(st.integers(0, payload.size - 1))] = data.draw(subnormal)
            if d > 1:
                payload.flat[data.draw(st.integers(0, payload.size - 1))] = -0.0
        payload[~payload.any(axis=2), 0] = 3e-45  # no patch is all zeros
        stored = b"CCFEAT1" + struct.pack("<III", *payload.shape) + payload.tobytes()
        assert FeatureMap.loads(stored).dumps() == stored

    def test_does_not_modify_its_input(self):
        data = np.full((2, 2, 3), 2.0)
        FeatureMap(data)
        assert np.all(data == 2.0)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        w=st.integers(1, 6),
        d=st.sampled_from([1, 3, 512, 1000]),
        blocks=st.sampled_from([1, 2]),
        offset=st.sampled_from([-1, 0, 1]),
        scale=st.sampled_from([1e-150, 1.0, 1e150]),
    )
    def test_blocked_norms_equal_linalg_norm(self, seed, w, d, blocks, offset, scale):
        # h just below, at and just above one or two blocks of rows
        rows = max(1, segment.NORM_BYTES // (8 * w * d))
        h = max(1, blocks * rows + offset)
        data = np.random.default_rng(seed).standard_normal((h, w, d)) * scale
        norms = np.linalg.norm(data, axis=2)
        assert segment._patch_norms(data).tobytes() == norms.tobytes()
        assert FeatureMap(data).unit.tobytes() == (data / norms[:, :, None]).tobytes()

    def test_loads_rejects_bad_magic(self):
        with pytest.raises(FormatError):
            FeatureMap.loads(b"NOTFEAT" + b"\x00" * 20)

    def test_loads_rejects_size_mismatch(self):
        data = make_scene_features().dumps()
        with pytest.raises(FormatError):
            FeatureMap.loads(data[:-4])


class TestPromptSet:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            prompt_set(["a", "a"], [False, True], [0, 1])

    def test_all_cc_rejected(self):
        with pytest.raises(ValidationError):
            prompt_set(["a", "b"], [True, True], [0, 1])

    def test_mask_length_mismatch(self):
        with pytest.raises(ValidationError):
            prompt_set(["a", "b"], [False], [0, 1])

    def test_build_from_table(self, toy_embeddings):
        prompts = build_prompt_set(["boat", "background"], [False, True], toy_embeddings)
        assert prompts.labels == ["boat", "background"]
        assert np.allclose(np.linalg.norm(prompts.vectors, axis=1), 1.0)

    def test_missing_embedding_names_concept(self, toy_embeddings):
        with pytest.raises(MissingEmbeddingError, match="zeppelin"):
            build_prompt_set(["zeppelin"], [False], toy_embeddings)


class TestResize:
    def test_bilinear_known_values(self):
        # 1x2 -> 1x4 with half-pixel centers: fractions 0, 1/4, 3/4, 1
        grid = np.array([[1.0, 0.0]])
        out = bilinear_resize(grid, 1, 4)
        assert np.allclose(out, [[1.0, 0.75, 0.25, 0.0]])

    def test_bilinear_identity_same_size(self):
        rng = np.random.default_rng(5)
        grid = rng.normal(size=(3, 4, 2))
        assert np.array_equal(bilinear_resize(grid, 3, 4), grid)

    def test_bilinear_border_clamped(self):
        grid = np.array([[2.0, 4.0]])
        out = bilinear_resize(grid, 1, 8)
        assert out[0, 0] == 2.0
        assert out[0, -1] == 4.0
        assert np.all(out >= 2.0) and np.all(out <= 4.0)

    def test_bilinear_channels_independent(self):
        rng = np.random.default_rng(6)
        grid = rng.normal(size=(2, 2, 3))
        whole = bilinear_resize(grid, 5, 7)
        for c in range(3):
            assert np.array_equal(whole[:, :, c], bilinear_resize(grid[:, :, c], 5, 7))

    def test_nearest_blocks(self):
        grid = np.array([[1, 2], [3, 4]])
        out = nearest_resize(grid, 4, 4)
        assert np.array_equal(
            out,
            [
                [1, 1, 2, 2],
                [1, 1, 2, 2],
                [3, 3, 4, 4],
                [3, 3, 4, 4],
            ],
        )

    def test_bad_output_size(self):
        with pytest.raises(ValidationError):
            bilinear_resize(np.ones((2, 2)), 0, 4)
        with pytest.raises(ValidationError):
            nearest_resize(np.ones((2, 2)), 2, 0)


class TestSeparableResizeAgainstGathers:
    @settings(max_examples=150, deadline=None)
    @given(_side, _side, st.integers(1, 5), _out_side, _out_side, st.data())
    def test_same_values(self, h, w, planes, out_h, out_w, data):
        grid = data.draw(
            hnp.arrays(np.float64, (h, w, planes), elements=st.floats(-1.0, 1.0))
        )
        got = bilinear_resize(grid, out_h, out_w)
        want = gather_bilinear_resize(grid, out_h, out_w)
        assert got.shape == want.shape == (out_h, out_w, planes)
        assert np.max(np.abs(got - want)) <= 1e-12
        flat = bilinear_resize(grid[:, :, 0], out_h, out_w)
        assert flat.shape == (out_h, out_w)
        assert np.max(np.abs(flat - want[:, :, 0])) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        _side,
        _side,
        _out_side,
        _out_side,
        st.lists(st.integers(0, 4), min_size=1, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    @example(9, 9, 9, 9, [0, 0, 1], 1)  # equal size
    @example(9, 7, 2, 3, [2, 0, 2, 0], 2)  # downsampling
    def test_same_labels_under_exact_ties(self, h, w, out_h, out_w, order, seed):
        # continuous random planes, some repeated: repeats tie exactly
        base = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(h, w, 5))
        logits = base[:, :, order]
        got = upsample_and_argmax(logits, out_h, out_w)
        want = gather_bilinear_resize(logits, out_h, out_w).argmax(axis=2)
        assert got.dtype == np.int32
        assert np.array_equal(got, want)


def _band_rows(rows: int, prompts: int, out_w: int):
    """Patch the band budget so that a band holds ``rows`` output rows."""
    return mock.patch.object(segment, "BAND_BYTES", 8 * prompts * out_w * rows)


def _rival_max(planes, rivals):
    best = np.full(planes.shape[:2], -np.inf)
    for k in rivals:
        np.maximum(best, planes[:, :, k], out=best)
    return best


def _random_case(seed, h, w, n):
    """Features and prompts with continuous random logits, and one contest
    per prompt against a random subset of the others (possibly none)."""
    rng = np.random.default_rng(seed)
    features = FeatureMap(rng.normal(size=(h, w, 4)))
    prompts = PromptSet([f"p{k}" for k in range(n)], rng.normal(size=(n, 4)), [False] * n)
    contests = [(q, [k for k in range(n) if k != q and rng.random() < 0.6]) for q in range(n)]
    return features, prompts, contests


_case = (_side, _side, st.integers(1, 6), _out_side, _out_side, st.integers(0, 2**32 - 1))


class TestBandedUpsampling:
    """Segmentation upsamples undecided pixels a band at a time; the full
    ``(out_h, out_w, L)`` stack of ``bilinear_resize`` is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(*_case)
    @example(3, 5, 1, 7, 2, 0)  # one prompt, output narrower than input
    def test_argmax_matches_full_stack(self, h, w, n, out_h, out_w, seed):
        logits = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(h, w, n))
        full = bilinear_resize(logits, out_h, out_w)
        got = upsample_and_argmax(logits, out_h, out_w)
        top = np.sort(full, axis=2)
        clear = top[:, :, -1] - top[:, :, -2] > 1e-9 if n > 1 else np.ones(got.shape, bool)
        assert got.shape == (out_h, out_w)
        assert np.array_equal(got[clear], full.argmax(axis=2)[clear])

    @settings(max_examples=150, deadline=None)
    @given(*_case)
    def test_query_masks_match_full_stack(self, h, w, n, out_h, out_w, seed):
        features, prompts, contests = _random_case(seed, h, w, n)
        full = bilinear_resize(patch_logits(features, prompts), out_h, out_w)
        got = query_masks(features, prompts, contests, out_h, out_w)
        for (query, rivals), mask in zip(contests, got):
            best = _rival_max(full, rivals)
            clear = np.abs(full[:, :, query] - best) > 1e-9
            assert mask.shape == (out_h, out_w)
            assert np.array_equal(mask[clear], (full[:, :, query] >= best)[clear])

    @settings(max_examples=100, deadline=None)
    @given(*_case)
    def test_band_height_does_not_change_decisions(self, h, w, n, out_h, out_w, seed):
        features, prompts, contests = _random_case(seed, h, w, n)
        logits = patch_logits(features, prompts)
        labels, masks = [], []
        for rows in (1, 7, out_h):
            with _band_rows(rows, n, out_w):
                labels.append(upsample_and_argmax(logits, out_h, out_w))
                masks.append(query_masks(features, prompts, contests, out_h, out_w))
        for other in labels[1:]:
            assert np.array_equal(other, labels[0])
        for other in masks[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(other, masks[0]))

    @settings(max_examples=150, deadline=None)
    @given(_side, _out_side, st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_two_tap_lerp_is_the_weight_matrix(self, n_in, n_out, cols, seed):
        plane = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n_in, cols))
        lo, hi, w0, w1 = segment._row_taps(n_in, n_out)
        lerp = w0[:, None] * plane[lo] + w1[:, None] * plane[hi]
        assert np.max(np.abs(lerp - segment._interp_weights(n_in, n_out) @ plane)) <= 1e-12

    def test_query_wins_exact_ties(self):
        # prompt 2 repeats the query's vector, so their planes are equal
        features = FeatureMap(np.random.default_rng(3).normal(size=(3, 4, 3)))
        vectors = [[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [1.0, 0.2, 0.0]]
        prompts = PromptSet(["q", "r", "twin"], vectors, [False] * 3)
        with _band_rows(2, 3, 9):
            twin, both = query_masks(features, prompts, [(0, [2]), (0, [1, 2])], 7, 9)
        assert twin.all()
        assert np.array_equal(both, segment_pixels(features, prompts, 7, 9) == 0)

    def test_memory_bounded_by_a_band(self):
        # the full (448, 448, 40) float64 stack alone would be 64 MB
        rng = np.random.default_rng(5)
        random = rng.uniform(-1.0, 1.0, size=(32, 32, 40))
        # all planes tied: no argmax is decided at the taps
        tied = np.repeat(rng.uniform(-1.0, 1.0, size=(32, 32, 1)), 40, axis=2)
        # every contest swaps its lead between each two patch rows, by less
        # than the margin: no contest is decided at the taps
        swapped = np.repeat(rng.uniform(-0.5, 0.5, size=(32, 32, 1)), 40, axis=2)
        swapped[1::2, :, 0::2] += 1e-14
        swapped[0::2, :, 1::2] += 1e-14
        contests = [(q, [k for k in range(40) if k % 2 != q % 2]) for q in range(4)]
        for logits in (random, tied, swapped):
            (labels, masks), peak = traced_peak(
                lambda: (
                    upsample_and_argmax(logits, 448, 448),
                    masks_of_logits(logits, contests, 448, 448),
                )
            )
            assert peak < 32 << 20
            assert np.array_equal(labels, band_argmax(logits, 448, 448))
            assert all(map(np.array_equal, masks, band_masks(logits, contests, 448, 448)))


# tap value differences that the decisions must get exactly right
_NUDGES = (0.0, segment.MARGIN, -segment.MARGIN, 2 * segment.MARGIN, "up", "down")


def _nudged(plane, nudge):
    if nudge == "up":
        return np.nextafter(plane, np.inf)
    if nudge == "down":
        return np.nextafter(plane, -np.inf)
    return plane + nudge


@st.composite
def tap_cases(draw):
    """Logits whose planes repeat a few base planes, each moved by 0,
    +-MARGIN, 2*MARGIN or one ulp; with ``out_w == w`` the column weights
    are 0 and 1 and the taps hold these values exactly.  Also the output
    size and contests (rivals may repeat or include the query)."""
    h, w = draw(_side), draw(_side)
    out_h = draw(_out_side)
    out_w = w if draw(st.booleans()) else draw(_out_side)
    values = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]) | st.floats(-1.0, 1.0)
    base = draw(hnp.arrays(np.float64, (h, w, draw(st.integers(1, 3))), elements=values))
    spec = draw(st.lists(
        st.tuples(st.integers(0, base.shape[2] - 1), st.sampled_from(_NUDGES)),
        min_size=1, max_size=6,
    ))
    logits = np.stack([_nudged(base[:, :, k], nudge) for k, nudge in spec], axis=2)
    if draw(st.booleans()):
        logits *= 1e6  # the margin scales with the largest |logit|
    n = logits.shape[2]
    prompt = st.integers(0, n - 1)
    contests = draw(st.lists(st.tuples(prompt, st.lists(prompt, max_size=n)), max_size=4))
    return logits, out_h, out_w, contests


class TestTapDecisions:
    """Pixels decided at their two interpolation taps, and the refined
    rest, equal the band path on every pixel."""

    @settings(max_examples=300, deadline=None)
    @given(tap_cases())
    @example((np.zeros((9, 7, 3)), 2, 3, [(0, [1, 2])]))  # downsampling
    @example((np.zeros((4, 5, 2)), 4, 5, [(1, [0])]))  # same size, one-row runs
    @example((np.zeros((3, 1, 2)), 40, 1, [(0, [1]), (1, [])]))  # W = 1
    @example((np.zeros((5, 5, 2)), 8, 5, [(0, [1])]))  # runs of one or two rows
    def test_same_labels_and_masks_as_the_band_path(self, case):
        logits, out_h, out_w, contests = case
        labels = upsample_and_argmax(logits, out_h, out_w)
        assert labels.dtype == np.int32
        assert np.array_equal(labels, band_argmax(logits, out_h, out_w))
        masks = masks_of_logits(logits, contests, out_h, out_w)
        want = band_masks(logits, contests, out_h, out_w)
        assert len(masks) == len(want)
        for got, expected in zip(masks, want):
            assert np.array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(*_case)
    def test_same_as_the_band_path_on_random_logits(self, h, w, n, out_h, out_w, seed):
        logits = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(h, w, n))
        contests = [(q, [k for k in range(n) if k != q]) for q in range(n)]
        with _band_rows(2, n, out_w):
            labels = upsample_and_argmax(logits, out_h, out_w)
            masks = masks_of_logits(logits, contests, out_h, out_w)
        assert np.array_equal(labels, band_argmax(logits, out_h, out_w))
        assert all(map(np.array_equal, masks, band_masks(logits, contests, out_h, out_w)))

    def test_columns_are_left_as_they_were(self):
        # the runner-up search sets the leaders aside in the columns
        logits = np.random.default_rng(2).uniform(-1.0, 1.0, size=(4, 4, 5))
        cols = segment._interp_weights(4, 9) @ logits
        before = cols.copy()
        segment._lead(cols, cols.argmax(axis=2))
        assert np.array_equal(cols, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, bad):
        logits = np.zeros((2, 2, 3))
        logits[1, 0, 2] = bad
        with pytest.raises(ValidationError, match="finite"):
            upsample_and_argmax(logits, 4, 4)

    @pytest.mark.parametrize("shape", [(2, 2, 0), (0, 2, 3), (2, 2)])
    def test_empty_or_flat_logits_rejected(self, shape):
        with pytest.raises(ValidationError):
            upsample_and_argmax(np.zeros(shape), 4, 4)


class TestSegmentation:
    def test_argmax_after_upsample_known(self):
        # the 0.75/0.25 crossover decides labels away from patch centers
        logits = np.zeros((1, 2, 2))
        logits[0, 0, 0] = 1.0
        logits[0, 1, 1] = 1.0
        labels = upsample_and_argmax(logits, 1, 4)
        assert labels.tolist() == [[0, 0, 1, 1]]

    def test_tie_goes_to_lowest_index(self):
        logits = np.zeros((1, 1, 3))
        labels = upsample_and_argmax(logits, 2, 2)
        assert np.all(labels == 0)

    def test_single_prompt_claims_everything(self):
        fm = make_scene_features()
        prompts = prompt_set(["boat"], [False], [0])
        pixmap = segment_pixels(fm, prompts, 8, 8)
        assert pixmap.shape == (8, 8)
        assert np.all(pixmap == 0)

    def test_labels_mode_matches_patch_argmax(self):
        fm = make_scene_features()
        prompts = prompt_set(["boat", "water", "background"], [False, False, False], [0, 1, 2])
        pixmap = segment_pixels(fm, prompts, 4, 4, upsample="labels")
        patch = patch_logits(fm, prompts).argmax(axis=2)
        assert np.array_equal(pixmap, patch)

    def test_bad_upsample_mode(self):
        fm = make_scene_features()
        prompts = prompt_set(["boat"], [False], [0])
        with pytest.raises(ValidationError):
            segment_pixels(fm, prompts, 4, 4, upsample="nearest")

    def test_dimension_mismatch(self):
        fm = FeatureMap(np.ones((2, 2, 4)))
        prompts = prompt_set(["boat"], [False], [0])
        with pytest.raises(ValidationError):
            patch_logits(fm, prompts)

    def test_argmax_invariant_to_scale_and_shift(self):
        rng = np.random.default_rng(7)
        fm = FeatureMap(rng.normal(size=(3, 5, 4)))
        vectors = rng.normal(size=(4, 4))
        prompts = PromptSet(["a", "b", "c", "q"], vectors, [False] * 4)
        logits = patch_logits(fm, prompts)
        base = upsample_and_argmax(logits, 9, 15)
        scaled = upsample_and_argmax(2.0 * logits + 0.25, 9, 15)
        assert np.array_equal(base, scaled)


class TestCCMask:
    def test_cc_pixels_erased(self):
        prompts = prompt_set(["boat", "background"], [False, True], [0, 2])
        pixmap = np.array([[0, 1], [1, 0]])
        masked = apply_cc_mask(pixmap, prompts)
        assert masked.tolist() == [[0, BOTTOM], [BOTTOM, 0]]

    def test_non_cc_pixels_untouched(self):
        prompts = prompt_set(["boat", "water", "background"], [False, False, True], [0, 1, 2])
        pixmap = np.array([[0, 1, 2]])
        masked = apply_cc_mask(pixmap, prompts)
        assert masked.tolist() == [[0, 1, BOTTOM]]

    def test_remap_to_background(self):
        prompts = prompt_set(
            ["background", "boat", "dock"], [False, False, True], [2, 0, 1]
        )
        pixmap = np.array([[1, 2, 0]])
        remapped = remap_cc_to_background(pixmap, prompts)
        assert remapped.tolist() == [[1, 0, 0]]

    def test_remap_requires_background_prompt(self):
        prompts = prompt_set(["boat", "dock"], [False, True], [0, 1])
        with pytest.raises(ValidationError, match="background"):
            remap_cc_to_background(np.zeros((1, 1), dtype=int), prompts)

    def test_remap_rejects_cc_background(self):
        prompts = prompt_set(["boat", "background"], [False, True], [0, 2])
        with pytest.raises(ValidationError):
            remap_cc_to_background(np.zeros((1, 1), dtype=int), prompts)


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_monotone(self):
        xs = np.linspace(-1, 1, 9)
        ys = sigmoid(xs)
        assert np.all(np.diff(ys) > 0)

    def test_score_field_range(self):
        fm = make_scene_features()
        field = bilinear_resize(sigmoid_patch_grid(fm, np.array([1.0, 0.0, 0.0])), 8, 8)
        assert field.shape == (8, 8)
        assert np.all((field > 0.0) & (field < 1.0))

    def test_zero_query_rejected(self):
        fm = make_scene_features()
        with pytest.raises(ValidationError):
            sigmoid_patch_grid(fm, np.zeros(3))


class TestSegMap:
    def test_roundtrip_with_bottom(self, tmp_path):
        labels = np.array([[0, 1], [BOTTOM, 0]])
        seg = SegMap(labels, {0: "boat", 1: "water"})
        path = tmp_path / "out.seg"
        seg.save(path)
        loaded = SegMap.load(path)
        assert np.array_equal(loaded.labels, labels)
        assert loaded.label_names == {0: "boat", 1: "water"}

    def test_sidecar_written(self, tmp_path):
        seg = SegMap(np.zeros((1, 1), dtype=int), {0: "boat"})
        path = tmp_path / "out.seg"
        seg.save(path)
        assert (tmp_path / "out.seg.json").exists()

    def test_missing_sidecar_rejected(self, tmp_path):
        seg = SegMap(np.zeros((1, 1), dtype=int), {0: "boat"})
        path = tmp_path / "out.seg"
        seg.save(path)
        (tmp_path / "out.seg.json").unlink()
        with pytest.raises(FormatError, match="sidecar"):
            SegMap.load(path)

    @pytest.mark.parametrize("text", ["{bad", "[]"])
    def test_sidecar_not_a_json_object_rejected(self, tmp_path, text):
        path = tmp_path / "out.seg"
        SegMap(np.zeros((1, 1), dtype=int), {0: "boat"}).save(path)
        (tmp_path / "out.seg.json").write_text(text)
        with pytest.raises(FormatError, match="sidecar"):
            SegMap.load(path)

    @pytest.mark.parametrize(
        "labels",
        [
            '{"0": "boat", "01": "water"}',
            '{"0": "boat", " 1": "water"}',
            '{"0": "boat", "+1": "water"}',
            '{"0": "boat", "-0": "water"}',
            '{"0": "boat", "1": "water", "1": "sky"}',
        ],
    )
    def test_sidecar_index_must_be_canonical_and_unique(self, tmp_path, labels):
        path = tmp_path / "out.seg"
        SegMap(np.array([[0, 1]]), {0: "boat", 1: "water"}).save(path)
        (tmp_path / "out.seg.json").write_text('{"labels": ' + labels + "}")
        with pytest.raises(FormatError, match="sidecar"):
            SegMap.load(path)

    def test_unnamed_index_rejected(self):
        with pytest.raises(ValidationError):
            SegMap(np.array([[3]]), {0: "boat"})

    def test_index_out_of_format_range(self):
        with pytest.raises(ValidationError):
            SegMap(np.array([[0]]), {0: "boat", 0xFFFF: "too big"})

    def test_bottom_is_transparent(self):
        seg = SegMap(np.array([[BOTTOM]]), {})
        data = seg.dumps()
        assert data[-2:] == b"\xff\xff"


class TestGridValues:
    @settings(max_examples=200, deadline=None)
    @given(
        grid=hnp.arrays(
            np.int32,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
            elements=st.integers(-(2**31), 2**31 - 1) | st.integers(-3, 3),
        )
    )
    def test_equals_np_unique(self, grid):
        assert segment.grid_values(grid) == np.unique(grid).tolist()
