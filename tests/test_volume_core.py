import math
import re

import numpy as np
import pytest

from stereo_costvol import volume_core
from stereo_costvol.pipeline import _census_codes, _tile_channels, census_features
from stereo_costvol.volume_core import (
    CROSS_OFFSETS,
    CensusCodes,
    CostVolume,
    DisparityMap,
    FeatureMap,
    ProbabilityVolume,
    _cross_sample_2d,
    build_concat_volume,
    census_correlation,
    group_correlation,
    soft_argmin,
    softmax_over_disparity,
    unfold_cross,
)

from oracle_sweep import randomized_oracles


def rand_feature(rng, c, h, w):
    return FeatureMap(rng.standard_normal((c, h, w)).astype(np.float32))


# ---------------------------------------------------------------------------
# containers

CONTAINERS = [
    (FeatureMap, np.float32, "channels, height, width"),
    (CostVolume, np.float32, "channels, disparities, height, width"),
    (ProbabilityVolume, np.float64, "disparities, height, width"),
    (DisparityMap, np.float64, "height, width"),
]


@pytest.mark.parametrize("cls, dtype, axes", CONTAINERS,
                         ids=[c[0].__name__ for c in CONTAINERS])
def test_container_rule(cls, dtype, axes):
    """Dtype, rank and finiteness checked in one constructor; _unchecked skips it."""
    name = cls.__name__
    shape = (1,) * (axes.count(",") - 1) + (2, 3)
    ones = np.ones(shape, dtype=np.int64)
    held = cls(ones)
    assert held.data.dtype == dtype and held.data.shape == shape
    assert (held.height, held.width) == (2, 3)
    for wrong in (ones[0], ones[None]):
        with pytest.raises(ValueError, match=re.escape(f"{name} data must be ({axes})")):
            cls(wrong)
    for bad in (np.nan, np.inf):
        arr = ones.astype(dtype)
        arr[(0,) * len(shape)] = bad
        with pytest.raises(ValueError, match=f"{name}: data contains non-finite values"):
            cls(arr)
        kept = volume_core._unchecked(cls, arr)
        assert type(kept) is cls and kept.data is arr


def test_probability_volume_requires_normalization():
    with pytest.raises(ValueError, match="per-pixel sums deviate from 1"):
        ProbabilityVolume(np.full((4, 2, 2), 0.3))
    with pytest.raises(ValueError, match="negative probability"):
        ProbabilityVolume(np.array([[[1.5]], [[-0.5]]]))


# ---------------------------------------------------------------------------
# softmax_over_disparity

def test_softmax_equal_logits_is_uniform():
    v = CostVolume(np.full((1, 4, 3, 3), 2.5, dtype=np.float32))
    p = softmax_over_disparity(v)
    assert np.allclose(p.data, 0.25, atol=1e-12)


def test_softmax_closed_form_ln2():
    v = CostVolume(np.array([0.0, math.log(2.0)], dtype=np.float32).reshape(1, 2, 1, 1))
    p = softmax_over_disparity(v)
    assert abs(p.data[0, 0, 0] - 1.0 / 3.0) < 1e-7
    assert abs(p.data[1, 0, 0] - 2.0 / 3.0) < 1e-7


def test_softmax_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((1, 5, 1, 1)).astype(np.float32)
    p = softmax_over_disparity(CostVolume(logits))
    col = logits[0, :, 0, 0].astype(np.float64)
    m = col.max()
    e = [math.exp(v - m) for v in col]
    s = sum(e)
    for i in range(5):
        assert abs(p.data[i, 0, 0] - e[i] / s) < 1e-12


def test_softmax_rejects_non_finite_cost():
    v = CostVolume(np.zeros((1, 3, 2, 2), dtype=np.float32))
    v.data[0, 1, 0, 0] = np.inf  # mutate past construction-time validation
    with pytest.raises(ValueError, match="non-finite cost"):
        softmax_over_disparity(v)


def test_softmax_requires_single_channel():
    with pytest.raises(ValueError):
        softmax_over_disparity(CostVolume(np.zeros((2, 3, 2, 2), dtype=np.float32)))


def test_softmax_sums_to_one_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(2, 16))
        logits = (rng.standard_normal((1, d, 4, 5)) * 30).astype(np.float32)
        p = softmax_over_disparity(CostVolume(logits))
        assert np.all(np.abs(p.data.sum(axis=0) - 1.0) <= 1e-5)


# ---------------------------------------------------------------------------
# soft_argmin

def test_soft_argmin_one_hot():
    p = np.zeros((8, 2, 2))
    p[2] = 1.0
    disp = soft_argmin(ProbabilityVolume(p))
    assert np.all(disp.data == 2.0)


def test_soft_argmin_uniform_and_bimodal():
    uniform = soft_argmin(ProbabilityVolume(np.full((4, 1, 1), 0.25)))
    assert uniform.data[0, 0] == 1.5
    bimodal = np.zeros((4, 1, 1))
    bimodal[0] = bimodal[3] = 0.5
    assert soft_argmin(ProbabilityVolume(bimodal)).data[0, 0] == 1.5


def test_soft_argmin_range_property():
    rng = np.random.default_rng(1)
    for _ in range(25):
        d = int(rng.integers(2, 12))
        raw = rng.random((d, 3, 4)) + 1e-6
        p = ProbabilityVolume(raw / raw.sum(axis=0, keepdims=True))
        disp = soft_argmin(p)
        assert disp.data.min() >= 0.0
        assert disp.data.max() <= d - 1
        # integer argmax recovered when the distribution is (nearly) one-hot
        hot = np.full((d, 2, 2), 1e-9)
        star = int(rng.integers(0, d))
        hot[star] = 1.0 - (d - 1) * 1e-9
        assert np.allclose(soft_argmin(ProbabilityVolume(hot)).data, star, atol=1e-6)


# ---------------------------------------------------------------------------
# group_correlation

def test_group_correlation_all_ones_is_one():
    ones = FeatureMap(np.ones((8, 4, 5), dtype=np.float32))
    vol = group_correlation(ones, ones, 1, 1)
    assert np.all(vol.data[:, 0] == 1.0)


def test_group_correlation_orthogonal_is_zero():
    f_l = np.zeros((4, 2, 3), dtype=np.float32)
    f_r = np.zeros((4, 2, 3), dtype=np.float32)
    f_l[0] = 1.0
    f_r[1] = 1.0
    vol = group_correlation(FeatureMap(f_l), FeatureMap(f_r), 1, 1)
    assert np.all(vol.data == 0.0)


def test_group_correlation_matches_loop_oracle():
    rng = np.random.default_rng(3)
    f_l = rand_feature(rng, 2 * 6, 12, 6)
    f_r = rand_feature(rng, 2 * 6, 12, 6)
    vol = group_correlation(f_l, f_r, 5, 2)
    scale = 2 / 12
    for g in range(2):
        for d in range(5):
            for y in range(12):
                for x in range(6):
                    if x - d < 0:
                        expect = 0.0
                    else:
                        expect = scale * sum(
                            float(f_l.data[g * 6 + c, y, x]) * float(f_r.data[g * 6 + c, y, x - d])
                            for c in range(6))
                    assert abs(vol.data[g, d, y, x] - expect) < 1e-6


def test_group_correlation_self_at_zero_disparity_nonnegative():
    rng = np.random.default_rng(4)
    f = rand_feature(rng, 12, 6, 7)
    vol = group_correlation(f, f, 3, 4)
    assert np.all(vol.data[:, 0] >= 0.0)


def test_group_correlation_bilinear_in_left():
    rng = np.random.default_rng(5)
    f_l = rand_feature(rng, 8, 5, 9)
    f_r = rand_feature(rng, 8, 5, 9)
    doubled = FeatureMap(f_l.data * np.float32(2.0))
    base = group_correlation(f_l, f_r, 4, 2)
    scaled = group_correlation(doubled, f_r, 4, 2)
    assert np.array_equal(scaled.data, base.data * np.float32(2.0))


def test_group_correlation_divisibility_error():
    rng = np.random.default_rng(6)
    f = rand_feature(rng, 10, 3, 3)
    with pytest.raises(ValueError):
        group_correlation(f, f, 2, 3)


# ---------------------------------------------------------------------------
# census_correlation

def _census_images(rng, h, w):
    """Three-level images, so census ties are common, with a flat left half."""
    imgs = [rng.integers(0, 3, (h, w)).astype(np.float32) for _ in range(2)]
    for img in imgs:
        img[:, : w // 2] = 0.5
    return imgs


@pytest.mark.parametrize("channels", [24, 32])
@pytest.mark.parametrize("h, w, d_max", [
    (6, 11, 5),
    (6, 11, 11),  # d_max == width
    (5, 7, 12),   # d_max > width: whole slices out of frame
    (1, 9, 4),    # one row
    (8, 1, 3),    # one column
    (1, 1, 2),    # one pixel: every census channel is a tie
])
def test_census_correlation_equals_group_correlation_bitwise(channels, h, w, d_max):
    rng = np.random.default_rng(channels * 100 + h * 10 + w)
    imgs = _census_images(rng, h, w)
    f_l, f_r = (FeatureMap(_tile_channels(census_features(img).data, channels)) for img in imgs)
    codes_l, codes_r = (_census_codes(img, channels) for img in imgs)
    got = census_correlation(codes_l, codes_r, d_max)
    ref = group_correlation(f_l, f_r, d_max, 1)
    assert got.data.dtype == np.float32 and got.data.shape == ref.data.shape
    assert np.array_equal(got.data.view(np.uint32), ref.data.view(np.uint32))
    if w > 1:
        assert np.any(ref.data != 0)  # the untextured half alone reads 0


def test_census_correlation_input_checks():
    codes = CensusCodes(np.zeros((2, 3, 4), np.uint32), 24)
    with pytest.raises(ValueError, match="shapes differ"):
        census_correlation(codes, CensusCodes(np.zeros((2, 3, 5), np.uint32), 24), 2)
    with pytest.raises(ValueError, match="shapes differ"):
        census_correlation(codes, CensusCodes(codes.words, 32), 2)
    with pytest.raises(ValueError, match="d_max"):
        census_correlation(codes, codes, 0)
    with pytest.raises(ValueError, match="uint32"):
        CensusCodes(np.zeros((2, 3, 4), np.int64), 24)
    with pytest.raises(ValueError, match="channels"):
        CensusCodes(np.zeros((2, 3, 4), np.uint32), 33)


# ---------------------------------------------------------------------------
# build_concat_volume

def test_concat_volume_zero_shift_slice():
    rng = np.random.default_rng(7)
    f_l = rand_feature(rng, 3, 4, 5)
    f_r = rand_feature(rng, 3, 4, 5)
    vol = build_concat_volume(f_l, f_r, 4)
    stacked = np.concatenate([f_l.data, f_r.data], axis=0)
    assert np.array_equal(vol.data[:, 0], stacked)


def test_concat_volume_out_of_frame_right_is_zero():
    rng = np.random.default_rng(8)
    f_l = rand_feature(rng, 2, 3, 6)
    f_r = rand_feature(rng, 2, 3, 6)
    vol = build_concat_volume(f_l, f_r, 5)
    assert np.all(vol.data[2:, 3, :, 1] == 0.0)  # x=1, d=3


def test_concat_volume_shape_is_doubled_channels():
    rng = np.random.default_rng(9)
    f_l = rand_feature(rng, 32, 4, 6)
    f_r = rand_feature(rng, 32, 4, 6)
    vol = build_concat_volume(f_l, f_r, 48)
    assert vol.data.shape == (64, 48, 4, 6)


# ---------------------------------------------------------------------------
# unfold_cross

def test_unfold_cross_constant_volume():
    vol = CostVolume(np.full((1, 2, 4, 4), 3.5, dtype=np.float32))
    out = unfold_cross(vol, 1)
    assert out.data.shape == (5, 2, 4, 4)
    assert np.all(out.data == 3.5)


def test_unfold_cross_center_is_input():
    rng = np.random.default_rng(12)
    vol = CostVolume(rng.standard_normal((1, 3, 5, 6)).astype(np.float32))
    out = unfold_cross(vol, 2)
    assert np.array_equal(out.data[0], vol.data[0])


def test_unfold_cross_left_channel_interior():
    rng = np.random.default_rng(13)
    vol = CostVolume(rng.standard_normal((1, 2, 4, 6)).astype(np.float32))
    out = unfold_cross(vol, 1)
    for d in range(2):
        for y in range(4):
            for x in range(1, 6):
                assert out.data[3, d, y, x] == vol.data[0, d, y, x - 1]


def test_unfold_cross_mirror_swaps_left_right():
    rng = np.random.default_rng(14)
    vol = CostVolume(rng.standard_normal((1, 2, 4, 6)).astype(np.float32))
    mirrored = CostVolume(vol.data[..., ::-1].copy())
    out = unfold_cross(vol, 1)
    out_m = unfold_cross(mirrored, 1)
    assert np.array_equal(out_m.data[3], out.data[4][..., ::-1])
    assert np.array_equal(out_m.data[4], out.data[3][..., ::-1])


@pytest.mark.parametrize("radius", [1, 2, 3])
@pytest.mark.parametrize("shape", [(5, 7), (2, 9), (6, 3), (1, 1), (3, 2, 4)])
def test_cross_sample_2d_equals_the_fancy_index_gather(radius, shape):
    # The slice copies give what the clamped-index gather gave, also where
    # the radius reaches past the frame (radius >= height or width).
    arr = np.random.default_rng(radius).standard_normal(shape).astype(np.float32)
    h, w = shape[-2:]
    ref = np.stack([arr[..., np.clip(np.arange(h) + dy * radius, 0, h - 1)[:, None],
                        np.clip(np.arange(w) + dx * radius, 0, w - 1)[None, :]]
                    for dx, dy in CROSS_OFFSETS])
    got = _cross_sample_2d(arr, radius)
    assert got.dtype == arr.dtype
    assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))


def test_unfold_cross_requires_radius():
    vol = CostVolume(np.zeros((1, 2, 3, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        unfold_cross(vol, 0)


# ---------------------------------------------------------------------------
# randomized oracles

test_randomized_oracles = randomized_oracles(volume_core)
