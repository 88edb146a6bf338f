import math

import numpy as np
import pytest

from stereo_costvol import fast_acv, selftest
from stereo_costvol.fast_acv import (
    HypothesisSet,
    PropagationField,
    build_compact_concat,
    confidence,
    cross_propagate,
    cross_propagate_volume,
    estimate_uncertainty,
    f2i_mask,
    f2i_topk,
    fast_attention_filter,
    matching_score,
    predict_from_hypotheses,
    predict_from_mask,
    propagation_weights,
    read_disparity_planes,
    regress_initial_disparity,
    sample_cross_disparities,
)
from stereo_costvol.volume_core import (
    CostVolume,
    DisparityMap,
    FeatureMap,
    ProbabilityVolume,
    build_concat_volume,
    group_correlation,
    unfold_cross,
)

from oracle_sweep import randomized_oracles


def rand_feature(rng, c, h, w):
    return FeatureMap(rng.standard_normal((c, h, w)).astype(np.float32))


# ---------------------------------------------------------------------------
# regression and sampling

def test_regress_initial_one_hot():
    v = np.zeros((1, 12, 2, 2), dtype=np.float32)
    v[0, 7] = 50.0
    _, disp = regress_initial_disparity(CostVolume(v))
    assert np.max(np.abs(disp.data - 7.0)) < 1e-3


def test_regress_initial_constant_48_bins():
    v = CostVolume(np.full((1, 48, 2, 2), 0.25, dtype=np.float32))
    _, disp = regress_initial_disparity(v)
    assert np.allclose(disp.data, 23.5, atol=1e-9)


def test_sample_cross_constant_field():
    planes = sample_cross_disparities(DisparityMap(np.full((4, 5), 12.0)), 1)
    assert planes.shape == (5, 4, 5)
    assert np.all(planes == 12.0)


def test_sample_cross_center_and_up():
    rng = np.random.default_rng(0)
    d_init = DisparityMap(rng.random((5, 6)) * 9)
    planes = sample_cross_disparities(d_init, 1)
    assert np.array_equal(planes[0], d_init.data)
    for y in range(1, 5):
        for x in range(6):
            assert planes[1, y, x] == d_init.data[y - 1, x]


# ---------------------------------------------------------------------------
# matching score

def test_matching_score_self_is_squared_norm():
    rng = np.random.default_rng(1)
    f = rand_feature(rng, 6, 4, 7)
    scores = matching_score(f, f, np.zeros((5, 4, 7)))
    expect = (f.data.astype(np.float64) ** 2).sum(axis=0) / 6
    assert np.max(np.abs(scores - expect)) < 1e-5
    assert np.all(scores >= 0.0)


def test_matching_score_out_of_frame_is_zero():
    rng = np.random.default_rng(2)
    f = rand_feature(rng, 3, 3, 5)
    assert np.all(matching_score(f, f, np.full((5, 3, 5), 50.0)) == 0.0)


def test_matching_score_prefers_true_shift():
    rng = np.random.default_rng(3)
    h, w, c, shift = 8, 32, 6, 4
    base = rng.standard_normal((c, h, w + shift)).astype(np.float32)
    f_l = FeatureMap(base[:, :, :w].copy())
    f_r = FeatureMap(base[:, :, shift:].copy())  # f_r(x - shift) == f_l(x)
    at_true = matching_score(f_l, f_r, np.full((1, h, w), float(shift)))
    at_zero = matching_score(f_l, f_r, np.zeros((1, h, w)))
    interior = (slice(None), slice(None), slice(shift, None))
    assert (at_true[interior] > at_zero[interior]).mean() > 0.5


def test_matching_score_fractional_interpolation():
    selftest.check_matching_score(np.random.default_rng(4), 10)


# ---------------------------------------------------------------------------
# volume readout at disparity planes

def _no_signed_zero(a):
    # Adding +0 turns -0 into +0 and leaves every other value's bits alone.
    return (a + np.float32(0.0)).view(np.uint32)


def _vap_like_planes(rng, m, n_d, h, w):
    """Fractional planes in [0, n_d - 1] with the edge cases pinned.

    Plane 0 has d = 0 in the last column; plane 1 has d in (x, x + 1)
    wherever that stays in range, where the readout must be 0.
    """
    d = rng.random((m, h, w)) * (n_d - 1)
    d[0, :, w - 1] = 0.0
    xs = np.broadcast_to(np.arange(w, dtype=np.float64), (h, w))
    past = xs + rng.uniform(0.05, 0.95, size=(h, w))
    fits = past <= n_d - 1
    d[1][fits] = past[fits]
    return d, fits


@pytest.mark.parametrize("channels", [1, 3, 32])
@pytest.mark.parametrize("n_d, h, w", [(6, 5, 11), (9, 4, 5)])  # the second has D > W
def test_read_disparity_planes_matches_matching_score_fractional(channels, n_d, h, w):
    rng = np.random.default_rng(channels * 100 + n_d)
    f_l, f_r = (FeatureMap(rng.uniform(-1, 1, (channels, h, w)).astype(np.float32))
                for _ in range(2))
    d, past = _vap_like_planes(rng, 5, n_d, h, w)
    assert past.any()
    got = read_disparity_planes(group_correlation(f_l, f_r, n_d, 1), d)
    ref = matching_score(f_l, f_r, d)
    assert got.shape == d.shape and got.dtype == np.float32
    assert np.max(np.abs(got - ref)) < 1e-6
    assert np.all(got[1][past] == 0.0) and np.all(ref[1][past] == 0.0)


@pytest.mark.parametrize("channels", [1, 8, 32])
@pytest.mark.parametrize("n_d, h, w", [(6, 5, 11), (9, 4, 5)])
@pytest.mark.parametrize("planes", [1, 2, 8])
def test_read_disparity_planes_integer_planes_are_bitwise(channels, n_d, h, w, planes):
    # Sign-valued features over a power-of-two channel count, as the 32
    # tiled quarter-resolution census channels are: every sum and the
    # 1 / C scale are exact.
    rng = np.random.default_rng(channels * 100 + n_d)
    f_l, f_r = (FeatureMap(rng.integers(-1, 2, (channels, h, w)).astype(np.float32))
                for _ in range(2))
    d_hyp = rng.integers(0, n_d, size=(planes, h, w)).astype(np.int32)
    assert np.any(d_hyp > np.arange(w))  # some hypotheses leave the frame
    corr = group_correlation(f_l, f_r, n_d, 1)
    got = read_disparity_planes(corr, d_hyp)
    ref = matching_score(f_l, f_r, d_hyp)
    assert np.array_equal(_no_signed_zero(got), _no_signed_zero(ref))


def test_read_disparity_planes_edge_columns():
    n_d, h, w = 4, 2, 5
    vol = CostVolume(np.arange(1, 1 + n_d * h * w, dtype=np.float32).reshape(1, n_d, h, w))
    ys, xs = np.indices((h, w))
    # d in (x, x + 1) reads 0; d == x reads its bin, up to the top one.
    d_at = np.minimum(xs, n_d - 1)[None]
    fits = xs + 0.5 <= n_d - 1
    past = read_disparity_planes(vol, np.where(fits, xs + 0.5, 0.0)[None])
    assert fits.any() and np.all(past[0][fits] == 0.0)
    at = read_disparity_planes(vol, d_at.astype(np.float64))
    assert np.array_equal(at[0], vol.data[0][d_at[0], ys, xs])
    # d = 0 in the last column reads bin 0 exactly, integer or float plane.
    for d in (np.zeros((1, h, w), np.int32), np.zeros((1, h, w))):
        assert np.array_equal(read_disparity_planes(vol, d)[0, :, w - 1], vol.data[0, 0, :, w - 1])


def test_read_disparity_planes_input_checks():
    vol = CostVolume(np.ones((1, 4, 3, 5), dtype=np.float32))
    with pytest.raises(ValueError, match="single channel"):
        read_disparity_planes(CostVolume(np.ones((2, 4, 3, 5), dtype=np.float32)),
                              np.zeros((1, 3, 5)))
    for shape in ((1, 3, 4), (3, 5), (1, 1, 3, 5)):
        with pytest.raises(ValueError, match="M, height, width"):
            read_disparity_planes(vol, np.zeros(shape))
    for bad in (np.nan, np.inf, -1e-9, 3.0 + 1e-9, -1, 4):
        d = np.zeros((2, 3, 5), dtype=np.float64 if isinstance(bad, float) else np.int32)
        d[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite" if not np.isfinite(bad) else r"\[0, 3\]"):
            read_disparity_planes(vol, d)


# ---------------------------------------------------------------------------
# uncertainty and confidence

def test_uncertainty_one_hot_is_zero():
    p = np.zeros((6, 2, 2))
    p[3] = 1.0
    pv = ProbabilityVolume(p)
    disp = DisparityMap(np.full((2, 2), 3.0))
    assert np.all(estimate_uncertainty(pv, disp) == 0.0)


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_uncertainty_uniform_closed_form(d):
    pv = ProbabilityVolume(np.full((d, 3, 3), 1.0 / d))
    disp = DisparityMap(np.full((3, 3), (d - 1) / 2.0))
    assert np.all(estimate_uncertainty(pv, disp) == (d * d - 1) / 12.0)


def test_uncertainty_two_point():
    p = np.zeros((5, 1, 1))
    p[0] = p[4] = 0.5
    pv = ProbabilityVolume(p)
    disp = DisparityMap(np.full((1, 1), 2.0))
    assert estimate_uncertainty(pv, disp)[0, 0] == 4.0


def test_uncertainty_zero_only_for_one_hot():
    # any distribution with mass on two bins has positive variance
    rng = np.random.default_rng(20)
    for _ in range(20):
        d = int(rng.integers(2, 10))
        raw = rng.random((d, 3, 3)) + 1e-4
        pv = ProbabilityVolume(raw / raw.sum(axis=0, keepdims=True))
        from stereo_costvol.volume_core import soft_argmin
        u = estimate_uncertainty(pv, soft_argmin(pv))
        assert np.all(u > 0.0)


def test_confidence_affine_cases():
    assert np.all(confidence(np.zeros((2, 2)), 1.0, -1.0) == 1.0)
    assert np.all(confidence(np.random.default_rng(5).random((3, 3)), 0.0, 0.0) == 0.0)
    assert np.all(confidence(np.full((2, 2), 4.0), 2.0, -0.5) == 0.0)


# ---------------------------------------------------------------------------
# propagation

def test_propagation_weights_sigmoid_zero_and_saturation():
    rng = np.random.default_rng(6)
    s = rng.standard_normal((5, 4, 4)).astype(np.float32)
    at_zero = propagation_weights(s, np.zeros((5, 4, 4), dtype=np.float32))
    assert np.max(np.abs(at_zero.w - 0.5 * s)) < 1e-7
    saturated = propagation_weights(s, np.full((5, 4, 4), 20.0, dtype=np.float32))
    assert np.max(np.abs(saturated.w - s)) < 1e-8


def test_propagation_field_shape_validation():
    with pytest.raises(ValueError):
        PropagationField(np.zeros((4, 2, 2)))


def test_cross_propagate_uniform_weights_average():
    rng = np.random.default_rng(7)
    v_u = CostVolume(rng.standard_normal((5, 3, 4, 4)).astype(np.float32))
    field = propagation_weights(np.ones((5, 4, 4), dtype=np.float32),
                                np.zeros((5, 4, 4), dtype=np.float32))
    out = cross_propagate(v_u, field)
    assert np.max(np.abs(out.data[0] - v_u.data.mean(axis=0))) < 1e-6


def test_cross_propagate_center_dominant_reproduces_input():
    rng = np.random.default_rng(8)
    vol = CostVolume(rng.standard_normal((1, 4, 5, 5)).astype(np.float32))
    v_u = unfold_cross(vol, 1)
    w = np.full((5, 5, 5), -20.0, dtype=np.float32)
    w[0] = 20.0
    field = PropagationField(w)
    out = cross_propagate(v_u, field)
    assert np.max(np.abs(out.data - vol.data)) < 1e-6


def test_cross_propagate_convexity_bound():
    rng = np.random.default_rng(9)
    for _ in range(20):
        v_u = CostVolume(rng.standard_normal((5, 3, 5, 5)).astype(np.float32) * 10)
        field = propagation_weights(rng.standard_normal((5, 5, 5)).astype(np.float32),
                                    rng.standard_normal((5, 5, 5)).astype(np.float32))
        out = cross_propagate(v_u, field)
        assert np.all(out.data[0] >= v_u.data.min(axis=0))
        assert np.all(out.data[0] <= v_u.data.max(axis=0))


@pytest.mark.parametrize("radius", [1, 2, 3])
@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 9), (4, 9, 2), (5, 6, 7), (11, 12, 16)])
@pytest.mark.parametrize("weights", ["mixed", "zero", "negative"])
def test_cross_propagate_volume_is_bitwise_reference(radius, shape, weights):
    # shapes cover one partial block, several blocks, and radii >= height
    # or width, where every shifted sample clamps to the edge
    d, h, w = shape
    rng = np.random.default_rng(radius * 100 + d)
    data = (rng.standard_normal((1, d, h, w)) * 20).astype(np.float32)
    data[0, :, ::3] = 0.0
    data[0, :, 1::3, ::2] = -0.0
    vol = CostVolume(data)
    s = rng.standard_normal((5, h, w)).astype(np.float32) * 3
    if weights == "zero":
        s[:] = 0.0
    elif weights == "negative":
        s = -np.abs(s) - 0.5
    field = propagation_weights(s, rng.standard_normal((5, h, w)).astype(np.float32))
    out = cross_propagate_volume(vol, radius, field)
    ref = cross_propagate(unfold_cross(vol, radius), field)
    assert out.data.shape == ref.data.shape
    assert np.array_equal(out.data.view(np.uint32), ref.data.view(np.uint32))


def test_cross_propagate_volume_input_checks():
    field = propagation_weights(np.zeros((5, 3, 4), np.float32), np.zeros((5, 3, 4), np.float32))
    with pytest.raises(ValueError, match="single channel"):
        cross_propagate_volume(CostVolume(np.zeros((2, 2, 3, 4), np.float32)), 1, field)
    with pytest.raises(ValueError, match="radius"):
        cross_propagate_volume(CostVolume(np.zeros((1, 2, 3, 4), np.float32)), 0, field)
    with pytest.raises(ValueError, match="shape mismatch"):
        cross_propagate_volume(CostVolume(np.zeros((1, 2, 3, 5), np.float32)), 1, field)


def test_vap_identity_round_trip():
    # center-dominant propagation reproduces the input
    rng = np.random.default_rng(10)
    vol = CostVolume(rng.standard_normal((1, 6, 6, 8)).astype(np.float32))
    v_u = unfold_cross(vol, 1)
    w = np.full((5, 6, 8), -40.0, dtype=np.float32)
    w[0] = 40.0
    field = PropagationField(w)
    out = cross_propagate(v_u, field)
    assert np.max(np.abs(out.data - vol.data)) < 1e-5


# ---------------------------------------------------------------------------
# top-K selection

def test_f2i_topk_direct_example():
    p = np.array([0.1, 0.4, 0.05, 0.3, 0.15]).reshape(5, 1, 1)
    hyp = f2i_topk(ProbabilityVolume(p), 2)
    assert list(hyp.a_f[:, 0, 0]) == [0.4, 0.3]
    assert list(hyp.d_hyp[:, 0, 0]) == [1, 3]


def test_f2i_topk_full_k_is_descending_sort():
    rng = np.random.default_rng(11)
    raw = rng.random((6, 3, 3)) + 1e-6
    p = ProbabilityVolume(raw / raw.sum(axis=0, keepdims=True))
    hyp = f2i_topk(p, 6)
    assert np.all(np.diff(hyp.a_f, axis=0) <= 0)
    assert np.allclose(hyp.a_f.sum(axis=0), 1.0, atol=1e-5)


def test_f2i_topk_on_one_pixel_keeps_each_bin_with_its_weight():
    p = np.array([0.1, 0.3, 0.4, 0.2]).reshape(4, 1, 1)
    hyp = f2i_topk(ProbabilityVolume(p), 2)
    assert list(hyp.d_hyp[:, 0, 0]) == [2, 1]
    assert list(hyp.a_f[:, 0, 0]) == [0.4, 0.3]


def test_hypothesis_set_leaves_the_callers_array_unchanged():
    d_hyp = np.array([2, 1], dtype=np.int32).reshape(2, 1, 1)
    HypothesisSet(d_hyp, np.array([0.4, 0.3]).reshape(2, 1, 1))
    assert list(d_hyp[:, 0, 0]) == [2, 1]


def test_f2i_topk_tie_breaks_toward_smaller_index():
    p = np.array([0.25, 0.25, 0.25, 0.25]).reshape(4, 1, 1)
    hyp = f2i_topk(ProbabilityVolume(p), 2)
    assert list(hyp.d_hyp[:, 0, 0]) == [0, 1]


def test_f2i_topk_k_out_of_range():
    p = ProbabilityVolume(np.full((4, 2, 2), 0.25))
    for k in (0, 5):
        with pytest.raises(ValueError):
            f2i_topk(p, k)


def test_f2i_topk_matches_sort_oracle_with_duplicates():
    selftest.check_f2i_topk(np.random.default_rng(12), 20)


def test_f2i_topk_remainder_bounded_by_selected_minimum():
    rng = np.random.default_rng(18)
    for _ in range(10):
        d = int(rng.integers(3, 10))
        k = int(rng.integers(1, d))
        raw = rng.random((d, 4, 4)) + 1e-6
        p = ProbabilityVolume(raw / raw.sum(axis=0, keepdims=True))
        hyp = f2i_topk(p, k)
        dropped = np.copy(p.data)
        np.put_along_axis(dropped, hyp.d_hyp.astype(np.intp), -1.0, axis=0)
        assert np.all(dropped.max(axis=0) <= hyp.a_f.min(axis=0))


def test_f2i_mask_keeps_the_smaller_tied_bins():
    p = ProbabilityVolume(np.array([0.1, 0.3, 0.2, 0.2, 0.2]).reshape(5, 1, 1))
    assert list(f2i_mask(p, 3)[:, 0, 0]) == [False, True, True, True, False]
    for k in (0, 6):
        with pytest.raises(ValueError):
            f2i_mask(p, k)


def test_f2i_mask_matches_sort_oracle():
    # 40 cases take every K kind with 256 bins and with a constant distribution.
    selftest.check_f2i_mask(np.random.default_rng(23), 40)


def test_hypothesis_set_invariants():
    with pytest.raises(ValueError):  # duplicate hypothesis
        HypothesisSet(np.zeros((2, 1, 1), dtype=np.int32), np.full((2, 1, 1), 0.3))
    with pytest.raises(ValueError):  # ascending weights
        HypothesisSet(np.array([[[0]], [[1]]], dtype=np.int32),
                      np.array([[[0.2]], [[0.4]]]))
    with pytest.raises(ValueError):  # weight sum above 1
        HypothesisSet(np.array([[[0]], [[1]]], dtype=np.int32),
                      np.array([[[0.8]], [[0.7]]]))


# ---------------------------------------------------------------------------
# compact volume

def test_compact_concat_zero_hypothesis():
    rng = np.random.default_rng(13)
    f_l = rand_feature(rng, 3, 4, 6)
    f_r = rand_feature(rng, 3, 4, 6)
    vol = build_compact_concat(f_l, f_r, np.zeros((2, 4, 6), dtype=np.int32))
    for k in range(2):
        assert np.array_equal(vol.data[3:, k], f_r.data)


def test_compact_concat_constant_matches_full_volume_slice():
    rng = np.random.default_rng(14)
    f_l = rand_feature(rng, 4, 5, 9)
    f_r = rand_feature(rng, 4, 5, 9)
    c = 3
    compact = build_compact_concat(f_l, f_r, np.full((1, 5, 9), c, dtype=np.int32))
    full = build_concat_volume(f_l, f_r, 8)
    assert np.array_equal(compact.data[:, 0], full.data[:, c])


def test_compact_concat_requires_integer_hypotheses():
    rng = np.random.default_rng(15)
    f = rand_feature(rng, 2, 3, 4)
    with pytest.raises(ValueError):
        build_compact_concat(f, f, np.zeros((1, 3, 4), dtype=np.float32))


def test_fast_attention_filter_identity_zero_homogeneous():
    rng = np.random.default_rng(16)
    vol = CostVolume(rng.standard_normal((6, 3, 4, 4)).astype(np.float32))
    ones = np.ones((3, 4, 4), dtype=np.float32)
    assert np.array_equal(fast_attention_filter(ones, vol).data, vol.data)
    assert np.all(fast_attention_filter(np.zeros_like(ones), vol).data == 0.0)
    a = rng.random((3, 4, 4)).astype(np.float32)
    assert np.array_equal(fast_attention_filter(a * np.float32(2.0), vol).data,
                          fast_attention_filter(a, vol).data * np.float32(2.0))


# ---------------------------------------------------------------------------
# prediction

def test_predict_two_term_softmax():
    v = np.array([5.0, 1.0], dtype=np.float32).reshape(1, 2, 1, 1)
    d_hyp = np.array([10, 20], dtype=np.int32).reshape(2, 1, 1)
    a_f = np.array([0.3, 0.6]).reshape(2, 1, 1)
    disp = predict_from_hypotheses(CostVolume(v), d_hyp, a_f)
    sigma = math.exp(5.0) / (math.exp(5.0) + math.exp(1.0))
    assert abs(disp.data[0, 0] - (10 * sigma + 20 * (1 - sigma))) < 1e-9


def test_predict_saturated_value_wins():
    v = np.array([42.0, 2.0, 1.0], dtype=np.float32).reshape(1, 3, 1, 1)
    d_hyp = np.array([7, 3, 1], dtype=np.int32).reshape(3, 1, 1)
    a_f = np.array([0.1, 0.5, 0.2]).reshape(3, 1, 1)
    disp = predict_from_hypotheses(CostVolume(v), d_hyp, a_f)
    assert abs(disp.data[0, 0] - 7.0) < 1e-6


def test_predict_requires_weights_shaped_like_hypotheses():
    v = CostVolume(np.zeros((1, 2, 1, 1), dtype=np.float32))
    with pytest.raises(ValueError, match="shape mismatch"):
        predict_from_hypotheses(v, np.zeros((2, 1, 1), np.int32), np.zeros((1, 1, 1)))


def test_predict_checks_non_integer_hypotheses():
    v = CostVolume(np.array([1.0, 0.0], dtype=np.float32).reshape(1, 2, 1, 1))
    a_f = np.array([0.6, 0.4]).reshape(2, 1, 1)
    for bad in (np.nan, np.inf):
        d_hyp = np.array([bad, 3.0]).reshape(2, 1, 1)
        with pytest.raises(ValueError, match="non-finite"):
            predict_from_hypotheses(v, d_hyp, a_f)


def test_predict_top_equals_k_oracle():
    selftest.check_predict_from_hypotheses(np.random.default_rng(17), 15)


def test_predict_from_mask_breaks_equal_scores_by_p_then_bin():
    # Bins 1, 2 and 4 are kept; all three score 1.  Bin 2 has the largest p
    # and wins; bins 1 and 4 tie in p as well, so the smaller bin is second.
    p = ProbabilityVolume(np.array([0.3, 0.1, 0.3, 0.2, 0.1]).reshape(5, 1, 1))
    keep = np.array([False, True, True, False, True]).reshape(5, 1, 1)
    v = CostVolume(np.array([9.0, 1.0, 1.0, 9.0, 1.0], np.float32).reshape(1, 5, 1, 1))
    assert predict_from_mask(v, keep, p).data[0, 0] == 1.5
    with pytest.raises(ValueError, match="shape mismatch"):
        predict_from_mask(v, keep.astype(np.int8), p)


def test_predict_from_mask_equals_the_compacted_prediction():
    selftest.check_predict_from_mask(np.random.default_rng(29), 40)


test_randomized_oracles = randomized_oracles(fast_acv)
