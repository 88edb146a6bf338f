import tracemalloc

import numpy as np
import pytest

from stereo_costvol import pipeline
from stereo_costvol.acv import CHANNELS_PER_GROUP, CONCAT_CHANNELS, GROUP_SPLIT, \
    PatchWeights, build_mapm_volume, generate_attention_weights
from stereo_costvol.io_formats import StereogramSpec, generate_stereogram
from stereo_costvol.metrics import epe, exclude_border
from stereo_costvol.pipeline import (
    FAST_CORR_GROUPS,
    MODES,
    PipelineConfig,
    RunReport,
    _tile_channels,
    box3d_regularize,
    box_downsample,
    build_feature_pyramid,
    census_features,
    compress_concat_volume,
    expected_volume_elements,
    run_acv_pipeline,
    run_fast_acv_pipeline,
    run_pipeline,
)
from stereo_costvol.fast_acv import (
    build_compact_concat,
    f2i_topk,
    fast_attention_filter,
    matching_score,
    predict_from_hypotheses,
)
from stereo_costvol.volume_core import (
    CensusCodes,
    CostVolume,
    DisparityMap,
    FeatureMap,
    ProbabilityVolume,
    build_concat_volume,
    group_correlation,
    soft_argmin,
    softmax_over_disparity,
    unfold_cross,
)

from oracle_sweep import randomized_oracles


def stereogram(disparity=8, seed=7, h=128, w=256):
    return generate_stereogram(StereogramSpec(h, w, disparity, 0.5, seed))


# ---------------------------------------------------------------------------
# config

def test_config_divisibility_rules():
    with pytest.raises(ValueError):
        PipelineConfig("acv", 30)
    with pytest.raises(ValueError):
        PipelineConfig("fast_acv", 36)  # multiple of 4 but not 8
    PipelineConfig("acv", 36, k=9)
    with pytest.raises(ValueError):
        PipelineConfig("fast_acv", 32, k=9)  # k above d_max / 4


@pytest.mark.parametrize("d_max, k", [(16, 4), (32, 8), (64, 16), (96, 24), (192, 24)])
def test_fast_config_defaults_k_to_a_quarter_of_d_max_up_to_24(d_max, k):
    cfg = PipelineConfig("fast_acv", d_max)
    assert cfg.k == cfg.as_dict()["k"] == k


@pytest.mark.parametrize("k", [None, 24, -5, np.int64(99)])
def test_acv_config_stores_no_k(k):
    # acv reads no K, so none is echoed; a non-integer is still rejected
    # (test_config_rejects_non_integer_counts).
    cfg = PipelineConfig("acv", 192, k=k)
    assert cfg.k is None and cfg.as_dict()["k"] is None


def test_config_rejects_unknown_names():
    with pytest.raises(ValueError):
        PipelineConfig("both", 32)
    with pytest.raises(TypeError):
        PipelineConfig("acv", 32, regularizer="hourglass")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("field, value", [
    ("d_max", 32.0), ("d_max", "32"), ("k", 2.5), ("k", 4.0), ("threads", 2.5),
    ("threads", True),
])
def test_config_rejects_non_integer_counts(mode, field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        PipelineConfig(**{"mode": mode, "d_max": 32, "k": 4, field: value})


def test_config_accepts_numpy_integers():
    cfg = PipelineConfig("fast_acv", np.int64(32), k=np.int32(4), threads=np.uint8(2))
    left, right, _, _ = stereogram(seed=3, h=32, w=64)
    ref = run_pipeline(left, right, PipelineConfig("fast_acv", 32, k=4, threads=2))
    assert np.array_equal(run_pipeline(left, right, cfg).data, ref.data)


# ---------------------------------------------------------------------------
# census features

def test_census_constant_image_is_zero():
    feats = census_features(np.full((6, 6), 0.5, dtype=np.float32))
    assert feats.channels == 24
    assert np.all(feats.data == 0.0)


def test_census_vertical_step_edge():
    img = np.zeros((6, 8), dtype=np.float32)
    img[:, 4:] = 1.0
    feats = census_features(img)
    # channel order: (-2,-2)..(2,2) row-major skipping center; "right
    # neighbor" channel is index 12, "left neighbor" channel is index 11
    right_ch, left_ch = 12, 11
    assert np.all(feats.data[right_ch, :, 3] == 1.0)   # brighter pixel to the right
    assert np.all(feats.data[left_ch, :, 4] == -1.0)   # darker pixel to the left
    assert np.all(feats.data[:, :, 0] == 0.0)          # flat region


# ---------------------------------------------------------------------------
# pyramid

def _float_census(image, factor, channels=24):
    """The float census map a fast_acv code level packs, tiled to `channels`."""
    img = np.asarray(getattr(image, "intensities", image), dtype=np.float32)
    return FeatureMap(_tile_channels(census_features(box_downsample(img, factor)).data, channels))


def _pyramid_arrays(pyr):
    return [lvl.words if isinstance(lvl, CensusCodes) else lvl.data for lvl in pyr]


def test_pyramid_channel_layout():
    img = np.random.default_rng(0).random((32, 64)).astype(np.float32)
    for mode in ("acv", "fast_acv"):
        cfg = PipelineConfig(mode, 32, k=8)
        pyr = build_feature_pyramid(img, cfg)
        if mode == "acv":
            # untiled census levels; filtered_correlation reads their distinct
            # groups, level 1's as bytes of its packed codes
            codes, l2, l3 = pyr
            assert codes.channels == 24 and codes.words.shape == (2, 8, 16)
            assert np.all(codes.words >> np.uint32(24) == 0)
            assert type(l2) is type(l3) is FeatureMap
            assert [lvl.data.shape for lvl in (l2, l3)] == [(24, 8, 16)] * 2
            continue
        # fast_acv reads only its quarter and eighth-resolution codes
        quarter, low = pyr
        assert quarter.channels == CONCAT_CHANNELS
        assert low.channels == 24
        assert quarter.words.shape == (2, 8, 16)
        assert low.words.shape == (2, 4, 8)
        assert quarter.words.dtype == low.words.dtype == np.uint32
        # bits 24-31 repeat channels 0-7; the low codes use 24 bits
        words = quarter.words
        assert np.array_equal(words >> np.uint32(24), words & np.uint32(0xFF))
        assert np.all(low.words >> np.uint32(24) == 0)
        assert np.all(words[1] & ~words[0] == 0)  # positive implies nonzero


def test_pyramid_determinism_and_constant_invariance():
    img = np.random.default_rng(1).random((32, 64)).astype(np.float32)
    for mode in MODES:
        cfg = PipelineConfig(mode, 32, k=8)
        a = build_feature_pyramid(img, cfg)
        b = build_feature_pyramid(img, cfg)
        for fa, fb in zip(_pyramid_arrays(a), _pyramid_arrays(b), strict=True):
            assert np.array_equal(fa, fb)
        const = build_feature_pyramid(np.full((32, 64), 0.3, dtype=np.float32), cfg)
        for arr in _pyramid_arrays(const):
            assert np.all(arr == 0)


def test_pyramid_rejects_bad_dimensions():
    cfg = PipelineConfig("acv", 32)
    with pytest.raises(ValueError):
        build_feature_pyramid(np.zeros((30, 64), dtype=np.float32), cfg)


def test_box_downsample_keeps_large_finite_values_finite():
    # A float32 sum of factor**2 values near the float32 maximum overflows;
    # their mean does not.
    img = np.full((32, 64), 3e38, dtype=np.float32)
    for factor in (4, 8, 16):
        np.testing.assert_allclose(box_downsample(img, factor), 3e38, rtol=1e-6)
    for mode in MODES:
        pred = run_pipeline(img, img, PipelineConfig(mode, 16, k=2))
        assert np.all(np.isfinite(pred.data))


@pytest.mark.parametrize("factor", [*range(1, 17), 130])
def test_box_downsample_adds_in_numpys_order(factor):
    # Pairwise row sums, then the rows in turn: bitwise numpy's two-axis sum
    # whenever the output has at least 2 columns.  Values span six decades
    # so that a different order would round differently; -0 entries too.
    # Factor 130 takes the pairwise sum's split above 128 terms.
    rng = np.random.default_rng(factor)
    for rows, cols in ((1, 2), (3, 5), (2, 17)):
        img = rng.standard_normal((rows * factor, cols * factor)).astype(np.float32)
        img *= np.float32(10.0) ** rng.integers(-3, 4, img.shape).astype(np.float32)
        img[rng.random(img.shape) < 0.1] = -0.0
        ref = (img * np.float32(1.0 / factor ** 2)).reshape(
            rows, factor, cols, factor).sum(axis=(1, 3))
        got = box_downsample(img, factor)
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))
    zeros = np.full((factor, 2 * factor), -0.0, dtype=np.float32)
    assert np.array_equal(box_downsample(zeros, factor).view(np.uint32),
                          np.zeros((1, 2), np.uint32))  # +0, as numpy's sum gives


def test_box_downsample_pads_ragged_edges():
    img = np.arange(15, dtype=np.float32).reshape(3, 5)
    out = box_downsample(img, 2)
    assert out.shape == (2, 3)


# ---------------------------------------------------------------------------
# box3d regularizer

def test_box3d_radius_zero_is_identity():
    rng = np.random.default_rng(2)
    vol = CostVolume(rng.standard_normal((2, 3, 4, 5)).astype(np.float32))
    out = box3d_regularize(vol, 0)
    assert np.array_equal(out.data, vol.data)


def test_box3d_constant_volume_unchanged():
    vol = CostVolume(np.full((1, 4, 4, 4), 2.5, dtype=np.float32))
    assert np.max(np.abs(box3d_regularize(vol, 1).data - 2.5)) < 1e-6


def test_box3d_matches_dense_oracle():
    rng = np.random.default_rng(3)
    vol = CostVolume(rng.standard_normal((1, 6, 6, 6)).astype(np.float32))
    out = box3d_regularize(vol, 1)
    for d in range(6):
        for y in range(6):
            for x in range(6):
                acc = 0.0
                for dd in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            acc += vol.data[0, min(max(d + dd, 0), 5),
                                            min(max(y + dy, 0), 5),
                                            min(max(x + dx, 0), 5)]
                assert abs(out.data[0, d, y, x] - acc / 27.0) < 1e-6


def test_compress_concat_requires_even_channels():
    with pytest.raises(ValueError):
        compress_concat_volume(CostVolume(np.zeros((3, 2, 2, 2), dtype=np.float32)))


# ---------------------------------------------------------------------------
# compressed concatenation costs vs the reference ops

def _signed_features(rng, c, h, w):
    """Normal features with exact +0/-0 entries mixed in, as census maps have."""
    data = rng.standard_normal((c, h, w)).astype(np.float32)
    data[rng.random((c, h, w)) < 0.2] = 0.0
    data[rng.random((c, h, w)) < 0.1] = -0.0
    return FeatureMap(data)


def _assert_bitwise(got, ref):
    assert got.data.shape == ref.data.shape
    assert np.array_equal(got.data.view(np.uint32), ref.data.view(np.uint32))


@pytest.mark.parametrize("channels", [3, 32])
@pytest.mark.parametrize("k", [1, 5])
def test_matching_score_matches_compact_reference(channels, k):
    # fast_acv's compact cost is matching_score at its integer hypotheses.
    rng = np.random.default_rng(channels * 10 + k)
    h, w = 6, 11
    f_l, f_r = _signed_features(rng, channels, h, w), _signed_features(rng, channels, h, w)
    # Hypotheses up to 2 * w: many point off the frame (d > x), some beyond w.
    d_hyp = rng.integers(0, 2 * w, size=(k, h, w)).astype(np.int32)
    assert np.any(d_hyp > w)
    ref = compress_concat_volume(build_compact_concat(f_l, f_r, d_hyp))
    _assert_bitwise(CostVolume(matching_score(f_l, f_r, d_hyp)[None]), ref)


@pytest.mark.parametrize("channels", [3, 32])
@pytest.mark.parametrize("d_max", [1, 7, 14])
def test_one_group_correlation_matches_compressed_concat(channels, d_max):
    # acv reads its cost as a one-group correlation instead of compressing a
    # dense concatenation volume; the two differ only in rounding order.
    rng = np.random.default_rng(channels * 10 + d_max)
    h, w = 6, 11  # d_max 14 > w leaves whole slices out of frame
    f_l, f_r = _signed_features(rng, channels, h, w), _signed_features(rng, channels, h, w)
    corr = group_correlation(f_l, f_r, d_max, 1)
    ref = compress_concat_volume(build_concat_volume(f_l, f_r, d_max))
    assert corr.data.shape == ref.data.shape
    assert np.max(np.abs(corr.data - ref.data)) < 1e-6
    # On sign-valued (census-like) features every partial sum is exact.
    s_l, s_r = FeatureMap(np.sign(f_l.data)), FeatureMap(np.sign(f_r.data))
    _assert_bitwise(group_correlation(s_l, s_r, d_max, 1),
                    compress_concat_volume(build_concat_volume(s_l, s_r, d_max)))


@pytest.mark.parametrize("radius", [0, 1])
def test_one_group_f_corr_attention_matches_tiled_groups(radius):
    # fast_acv correlates the untiled eighth-resolution census (f_corr)
    # as one group.  The paper's FAST_CORR_GROUPS groups over tiled
    # channels repeat the same blocks, so the group mean agrees, also after
    # a box smoothing of each correlation (radius 0 is the identity).
    left, right, _, _ = stereogram(disparity=16)
    cfg = PipelineConfig("fast_acv", 64, k=8)
    f_corr_l, f_corr_r = _float_census(left, 8), _float_census(right, 8)
    d_low = cfg.d_max // 8
    one = generate_attention_weights(box3d_regularize(
        group_correlation(f_corr_l, f_corr_r, d_low, 1), radius))
    tiled_l, tiled_r = (FeatureMap(_tile_channels(f.data, FAST_CORR_GROUPS * CHANNELS_PER_GROUP))
                        for f in (f_corr_l, f_corr_r))
    tiled = generate_attention_weights(box3d_regularize(
        group_correlation(tiled_l, tiled_r, d_low, FAST_CORR_GROUPS), radius))
    assert one.data.shape == tiled.data.shape == (1, d_low, 16, 32)
    assert np.abs(tiled.data).max() > 0.1
    assert np.max(np.abs(one.data - tiled.data)) <= 1e-6


def test_matching_score_keeps_reference_input_checks():
    # matching_score accepts real-valued planes, so only the shape checks
    # of build_compact_concat carry over, plus finiteness.
    f = FeatureMap(np.ones((2, 3, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="shapes differ"):
        matching_score(f, FeatureMap(np.ones((2, 3, 5), dtype=np.float32)),
                       np.zeros((2, 3, 4), dtype=np.int32))
    with pytest.raises(ValueError, match="M, height, width"):
        matching_score(f, f, np.zeros((2, 3, 5), dtype=np.int32))
    with pytest.raises(ValueError, match="finite"):
        matching_score(f, f, np.full((2, 3, 4), np.nan))


def _record_filter_inputs(monkeypatch):
    """Patch the runner's fast_attention_filter to record its (p_prop, corr_q)."""
    import stereo_costvol.pipeline as pipeline_mod

    seen = []

    def wrapped(*args):
        seen.append(args)
        return fast_attention_filter(*args)

    monkeypatch.setattr(pipeline_mod, "fast_attention_filter", wrapped)
    return seen


def test_fast_runner_reads_compact_cost_from_one_group_correlation(monkeypatch):
    # The runner filters the dense one-group quarter correlation; at the
    # K-set's bins that is matching_score on the tiled quarter census maps
    # bit for bit (up to the sign of zero), and the runner never gathers
    # features with matching_score itself.
    import stereo_costvol.pipeline as pipeline_mod

    def no_gather(*args, **kwargs):
        raise AssertionError("the fast_acv runner called matching_score")

    seen = _record_filter_inputs(monkeypatch)
    monkeypatch.setattr(pipeline_mod, "matching_score", no_gather)
    left, right, _, _ = stereogram(seed=3, h=64, w=128)
    run_fast_acv_pipeline(left, right, PipelineConfig("fast_acv", 32, k=8))

    [(p_prop, corr_q)] = seen
    d_hyp = f2i_topk(ProbabilityVolume(p_prop), 8).d_hyp
    ref = matching_score(_float_census(left, 4, CONCAT_CHANNELS),
                         _float_census(right, 4, CONCAT_CHANNELS), d_hyp)
    assert np.any(d_hyp > np.arange(128 // 4))  # out-of-frame hypotheses too
    got = np.take_along_axis(corr_q.data[0], d_hyp, axis=0)
    assert got.shape == ref.shape
    zero = np.float32(0.0)
    assert np.array_equal((got + zero).view(np.uint32), (ref + zero).view(np.uint32))


def test_fast_runner_equals_the_sorted_top_k_reference_chain(monkeypatch):
    # The runner keeps its hypotheses as a mask over every bin; the
    # reference chain f2i_topk -> read_disparity_planes ->
    # fast_attention_filter -> predict_from_hypotheses on the same
    # probabilities and correlation gives the same map bit for bit.
    import stereo_costvol.pipeline as pipeline_mod

    seen = _record_filter_inputs(monkeypatch)
    left, right, _, _ = stereogram(seed=5, h=64, w=128)
    cfg = PipelineConfig("fast_acv", 32, k=6)
    got = run_fast_acv_pipeline(left, right, cfg).data
    monkeypatch.undo()

    [(p_prop, corr_q)] = seen
    hyp = f2i_topk(ProbabilityVolume(p_prop), cfg.k)
    cost_k = CostVolume(pipeline_mod.read_disparity_planes(corr_q, hyp.d_hyp)[None])
    cost = fast_attention_filter(hyp.a_f, cost_k)
    d_quarter = predict_from_hypotheses(
        CostVolume(cost.data * np.float32(pipeline_mod.TEMPERATURE)), hyp.d_hyp, hyp.a_f)
    ref = pipeline_mod._resize_hw(d_quarter.data * 4.0, 64, 128)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


# ---------------------------------------------------------------------------
# end-to-end pipelines

@pytest.mark.parametrize("shape", [(8, 8), (8, 16)])
def test_acv_pipeline_runs_on_eight_row_frames(shape):
    # At quarter resolution these frames are 2 rows high, smaller than the
    # level-3 patch offsets, whose taps then fall wholly outside the frame.
    rng = np.random.default_rng(shape[1])
    left, right = rng.random(shape), rng.random(shape)
    runs = [run_pipeline(left, right, PipelineConfig("acv", 16, threads=t)).data
            for t in (1, 2)]
    assert runs[0].shape == shape
    assert runs[0].min() >= 0.0 and runs[0].max() <= 15.0
    assert np.array_equal(runs[0], runs[1])


def test_acv_pipeline_recovers_constant_disparity():
    left, right, gt, mask = stereogram()
    cfg = PipelineConfig("acv", 32)
    pred = run_acv_pipeline(left, right, cfg)
    interior = exclude_border(mask, 32)
    assert epe(pred, gt, interior) < 0.5
    assert pred.data.shape == (128, 256)


@pytest.mark.parametrize("mode", ["acv", "fast_acv"])
@pytest.mark.parametrize("seed", [7, 3])
def test_full_range_recovers_constant_disparity(mode, seed):
    # the CLI and bench defaults: D=192, K=24
    left, right, gt, mask = generate_stereogram(StereogramSpec(128, 256, 8, 0.5, seed))
    cfg = PipelineConfig(mode, 192, k=24)
    pred = run_pipeline(left, right, cfg)
    assert epe(pred, gt, exclude_border(mask, 32)) < 0.5


def test_fast_pipeline_recovers_constant_disparity():
    left, right, gt, mask = stereogram()
    interior = exclude_border(mask, 32)
    for k in (8, 4):
        cfg = PipelineConfig("fast_acv", 32, k=k)
        pred = run_fast_acv_pipeline(left, right, cfg)
        assert epe(pred, gt, interior) < 0.7


def test_k_sweep_self_consistency():
    left, right, gt, mask = stereogram(seed=21)
    interior = exclude_border(mask, 32)
    errors = {}
    for k in (8, 4):
        cfg = PipelineConfig("fast_acv", 32, k=k)
        errors[k] = epe(run_fast_acv_pipeline(left, right, cfg), gt, interior)
    assert abs(errors[8] - errors[4]) < 0.2


def test_identical_pair_collapses_to_zero():
    left, _, _, _ = stereogram(seed=3)
    for mode in ("acv", "fast_acv"):
        cfg = PipelineConfig(mode, 32, k=8)
        pred = run_pipeline(left, left, cfg)
        assert np.median(pred.data) < 1.0


def test_swapped_pair_search_range_semantics():
    # a swapped pair needs negative disparities, which the volume cannot
    # represent: outputs stay inside [0, D-1] and the attention signal
    # collapses toward zero instead of locking onto the true magnitude
    left, right, gt, mask = stereogram(seed=7)
    cfg = PipelineConfig("acv", 32)
    pred = run_acv_pipeline(right, left, cfg)
    assert pred.data.min() >= 0.0
    assert pred.data.max() <= cfg.d_max - 1

    def attention_stats(l_img, r_img):
        pyr_l = build_feature_pyramid(l_img.intensities, cfg)
        pyr_r = build_feature_pyramid(r_img.intensities, cfg)
        # the paper's 8/16/16 groups tiled from the untiled census levels,
        # level 1 as the float map its codes pack
        maps = [[census_features(box_downsample(img.intensities, 4))] + list(pyr[1:])
                for img, pyr in ((l_img, pyr_l), (r_img, pyr_r))]
        levels = [(FeatureMap(_tile_channels(maps[0][i].data, n * CHANNELS_PER_GROUP)),
                   FeatureMap(_tile_channels(maps[1][i].data, n * CHANNELS_PER_GROUP)),
                   PatchWeights.uniform(i + 1))
                  for i, n in enumerate(GROUP_SPLIT)]
        a = generate_attention_weights(build_mapm_volume(levels, cfg.d_max))
        inner = a.data[0][:, 8:-8, 8:-8]
        return inner.max(axis=0).mean(), np.median(inner.argmax(axis=0))

    aligned_peak, aligned_argmax = attention_stats(left, right)
    swapped_peak, swapped_argmax = attention_stats(right, left)
    assert swapped_peak < 0.5 * aligned_peak
    assert swapped_argmax <= aligned_argmax


def test_shift_equivariance():
    for mode in ("acv", "fast_acv"):
        medians = []
        for d in (8, 12):
            left, right, gt, mask = stereogram(disparity=d, seed=11)
            cfg = PipelineConfig(mode, 32, k=8)
            pred = run_pipeline(left, right, cfg)
            interior = exclude_border(mask, 32)
            medians.append(float(np.median(pred.data[interior.valid])))
        assert abs((medians[1] - medians[0]) - 4.0) <= 0.5


def test_pipelines_are_bitwise_deterministic_across_threads():
    left, right, _, _ = stereogram(seed=5, h=64, w=128)
    for mode in ("acv", "fast_acv"):
        runs = []
        for threads in (1, 8):
            cfg = PipelineConfig(mode, 32, k=8, threads=threads)
            runs.append(run_pipeline(left, right, cfg).data)
        assert np.array_equal(runs[0], runs[1])


def test_fast_runner_starts_no_thread_pool(monkeypatch):
    # fast_acv's correlations are single vectorized passes, so threads
    # changes nothing in its run; acv still fans its disparities out.
    from stereo_costvol import acv

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    left, right, _, _ = stereogram(seed=5, h=64, w=128)
    serial = run_fast_acv_pipeline(left, right, PipelineConfig("fast_acv", 32, k=8)).data
    monkeypatch.setattr(acv, "ThreadPoolExecutor", no_pool)
    got = run_fast_acv_pipeline(left, right, PipelineConfig("fast_acv", 32, k=8, threads=8)).data
    assert np.array_equal(got, serial)
    with pytest.raises(AssertionError, match="thread pool"):
        run_acv_pipeline(left, right, PipelineConfig("acv", 32, threads=8))


def test_concurrent_invocations_share_no_state():
    from concurrent.futures import ThreadPoolExecutor

    left, right, _, _ = stereogram(seed=5, h=64, w=128)
    cfg = PipelineConfig("fast_acv", 32, k=8, threads=2)
    reference = run_pipeline(left, right, cfg).data
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(run_pipeline, left, right, cfg) for _ in range(4)]
        for fut in futures:
            assert np.array_equal(fut.result().data, reference)


def test_output_range_invariant():
    left, right, _, _ = stereogram(seed=9, h=64, w=128)
    for mode in ("acv", "fast_acv"):
        cfg = PipelineConfig(mode, 32, k=8)
        pred = run_pipeline(left, right, cfg)
        assert pred.data.min() >= 0.0
        assert pred.data.max() <= cfg.d_max - 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_pixel_is_rejected_by_census(mode, bad):
    left, right, _, _ = stereogram(seed=3, h=32, w=64)
    img = left.intensities.copy()
    img[5, 9] = bad
    cfg = PipelineConfig(mode, 16, k=2)
    for pair in ((img, right), (left, img)):
        with pytest.raises(ValueError, match="census_features: non-finite intensity"):
            run_pipeline(*pair, cfg)
    with pytest.raises(ValueError, match="census_features: non-finite intensity"):
        census_features(img)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shape", [(0, 8), (8, 0)])
def test_empty_image_is_rejected_by_name(mode, shape):
    empty = np.zeros(shape, dtype=np.float32)
    cfg = PipelineConfig(mode, 16, k=2)
    with pytest.raises(ValueError, match="must be positive"):
        run_pipeline(empty, empty, cfg)
    with pytest.raises(ValueError, match="must be positive"):
        build_feature_pyramid(empty, cfg)


@pytest.mark.parametrize("mode, bound", [("fast_acv", 8.5), ("acv", 4.5)])
def test_runner_scans_few_values(monkeypatch, mode, bound):
    """Elements _all_finite scans in one run_pipeline, in quarter volumes.

    Only the data entering a runner and the results of ops that can
    overflow are scanned: 8.19 (fast_acv) and 4.33 (acv) quarter volumes of
    (D/4, H/4, W/4) = 16384 elements, against 39.75 and 35.12 while every
    computed container was re-checked.  Every module that imported
    _all_finite is patched, so no scan escapes the count.
    """
    import stereo_costvol
    import stereo_costvol.volume_core as vc

    left, right, _, _ = stereogram()
    scanned = []
    real = vc._all_finite

    def counting(arr):
        scanned.append(np.asarray(arr).size)
        return real(arr)

    for name in ("acv", "fast_acv", "pipeline", "volume_core"):
        module = getattr(stereo_costvol, name)
        if getattr(module, "_all_finite", None) is real:
            monkeypatch.setattr(module, "_all_finite", counting)
    run_pipeline(left, right, PipelineConfig(mode, 32, k=8))
    assert sum(scanned) / (8 * 32 * 64) <= bound


def test_unchecked_results_keep_their_container_dtype_and_rank():
    import stereo_costvol.pipeline as pm

    rng = np.random.default_rng(5)
    left, right, _, _ = stereogram(seed=4, h=64, w=128)
    for mode in MODES:
        cfg = PipelineConfig(mode, 32, k=4)
        pyr = build_feature_pyramid(left.intensities, cfg)
        # acv packs its level 1; fast_acv its quarter and low codes
        packed = pyr[:1] if mode == "acv" else pyr
        maps = [*pyr[len(packed):], census_features(left.intensities)]
        for fm in maps:
            assert type(fm) is FeatureMap
            assert fm.data.dtype == np.float32 and fm.data.ndim == 3
        for codes in packed:
            assert type(codes) is CensusCodes
            assert codes.words.dtype == np.uint32 and codes.words.ndim == 3
        out = run_pipeline(left, right, cfg)
        assert type(out) is DisparityMap
        assert out.data.dtype == np.float64 and out.data.shape == (64, 128)

    v = CostVolume(rng.standard_normal((1, 6, 5, 7)).astype(np.float32))
    p = softmax_over_disparity(v)
    assert type(p) is ProbabilityVolume
    assert p.data.dtype == np.float64 and p.data.shape == (6, 5, 7)
    d = soft_argmin(p)
    assert type(d) is DisparityMap
    assert d.data.dtype == np.float64 and d.data.shape == (5, 7)
    up = pm._resize_hw(d.data, 20, 28)
    assert up.dtype == np.float64 and up.shape == (20, 28)

    s = rng.standard_normal((5, 5, 7)).astype(np.float32)
    field = pm.propagation_weights(s, s)
    for vol in (pm.cross_propagate(unfold_cross(v, 1), field),
                pm.cross_propagate_volume(v, 1, field)):
        assert type(vol) is CostVolume
        assert vol.data.dtype == np.float32 and vol.data.ndim == 4
    d_hyp = np.stack([np.zeros((5, 7), np.int32), np.ones((5, 7), np.int32)])
    pred = pm.predict_from_hypotheses(CostVolume(v.data[:, :2]), d_hyp, np.ones((2, 5, 7)) / 2)
    assert type(pred) is DisparityMap
    assert pred.data.dtype == np.float64 and pred.data.shape == (5, 7)


@pytest.mark.parametrize("runner, mode, other", [
    (run_acv_pipeline, "acv", "fast_acv"), (run_fast_acv_pipeline, "fast_acv", "acv"),
])
def test_runner_rejects_the_other_modes_config(runner, mode, other):
    left, right, _, _ = stereogram(seed=1, h=32, w=64)
    report = RunReport()
    with pytest.raises(ValueError, match=f"needs mode '{mode}', got cfg.mode '{other}'"):
        runner(left, right, PipelineConfig(other, 32, k=4), report)
    assert report == RunReport()


def test_image_size_mismatch_rejected():
    left, right, _, _ = stereogram(seed=1, h=64, w=128)
    small = left.intensities[:32, :64]
    cfg = PipelineConfig("acv", 32)
    with pytest.raises(ValueError, match="image size mismatch"):
        run_acv_pipeline(left.intensities, small, cfg)


def test_report_counts_match_analytic_formulas():
    left, right, _, _ = stereogram(seed=2, h=64, w=128)
    for mode in ("acv", "fast_acv"):
        cfg = PipelineConfig(mode, 32, k=6)
        report = RunReport()
        run_pipeline(left, right, cfg, report)
        assert report.volume_elements == expected_volume_elements(cfg, 64, 128)
        assert report.peak_volume_elements > 0
        assert all(v >= 0.0 for v in report.stage_ms.values())
        assert report.config["mode"] == mode


def test_fast_peak_memory_below_acv_peak():
    left, right, _, _ = stereogram(seed=4, h=64, w=128)
    peaks = {}
    for mode in ("acv", "fast_acv"):
        cfg = PipelineConfig(mode, 32, k=8)
        report = RunReport()
        run_pipeline(left, right, cfg, report)
        peaks[mode] = report.peak_volume_elements
    assert peaks["fast_acv"] < peaks["acv"]


def test_acv_never_holds_its_forty_group_volume():
    # The meter books the paper's 40-group correlation; the runner builds
    # only its distinct groups, so its real peak stays below that volume's
    # bytes alone.
    left, right, _, _ = stereogram(disparity=16, seed=5, h=256, w=512)
    cfg = PipelineConfig("acv", 128)
    tracemalloc.start()
    try:
        run_acv_pipeline(left, right, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    forty_groups = sum(GROUP_SPLIT) * (128 // 4) * (256 // 4) * (512 // 4) * 4
    assert peak < forty_groups


def test_acv_holds_no_pyramid_or_attention_in_its_prediction_tail(monkeypatch):
    # The run's peak (~26.3 MiB at 960x512, D=192) is set inside
    # filtered_correlation, while both pyramids are held, so the peak is
    # read from the softmax on.  With the pyramids and the attention dropped
    # and the logits scaled in place it is ~17.1 MiB, 1.52 float64 quarter
    # volumes; with both pyramids kept alive it reads 2.56.
    real = pipeline.softmax_over_disparity

    def reset_peak(cost):
        tracemalloc.reset_peak()
        return real(cost)

    monkeypatch.setattr(pipeline, "softmax_over_disparity", reset_peak)
    left, right, _, _ = stereogram(disparity=16, seed=5, h=512, w=960)
    cfg = PipelineConfig("acv", 192, threads=2)
    tracemalloc.start()
    try:
        run_acv_pipeline(left, right, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (192 // 4) * (512 // 4) * (960 // 4) * 8


def test_fast_acv_holds_no_whole_quarter_volume():
    # The banded runner holds one band's volumes at a time: at 960x512,
    # D=192, K=24 the traced peak is ~9.0 MiB, 0.80 of one float64
    # (D/4, H/4, W/4) volume (11.25 MiB).  A whole float32 quarter volume
    # held through the bands lifts it to ~14.0 MiB (1.245 volumes), over
    # the bound of 1.1.
    left, right, _, _ = stereogram(disparity=16, seed=5, h=512, w=960)
    cfg = PipelineConfig("fast_acv", 192, k=24)
    tracemalloc.start()
    try:
        run_fast_acv_pipeline(left, right, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * (192 // 4) * (512 // 4) * (960 // 4) * 8


def _whole_volume_fast_chain(left, right, cfg):
    """The fast_acv runner's ops on whole quarter-resolution volumes.

    Its correlations are the float ones the packed census codes replace:
    group_correlation of the census maps, tiled to CONCAT_CHANNELS at
    quarter resolution.
    """
    import stereo_costvol.pipeline as pm

    l_img, r_img = pm._check_pair(left, right)
    h, w = l_img.shape
    corr = group_correlation(_float_census(l_img, 8), _float_census(r_img, 8),
                             cfg.d_max // 8, 1)
    # Upsampled to quarter resolution: disparity keeps its index scale,
    # then the spatial axes resize corner-aligned.
    a_disp = pm._resize_linear(generate_attention_weights(corr).data, 1, cfg.d_max // 4,
                               align_corners=False)
    v_init = CostVolume(pm._resize_hw(a_disp, h // 4, w // 4) * np.float32(pm.TEMPERATURE))
    p_init, d_init = pm.regress_initial_disparity(v_init)
    u = pm.estimate_uncertainty(p_init, d_init)
    corr_q = group_correlation(_float_census(l_img, 4, CONCAT_CHANNELS),
                               _float_census(r_img, 4, CONCAT_CHANNELS), cfg.d_max // 4, 1)
    planes = np.minimum(pm.sample_cross_disparities(d_init, pm.VAP_RADIUS),
                        corr_q.disparities - 1)
    conf = pm._cross_sample_2d(pm.confidence(u, pm.VAP_ALPHA, pm.VAP_BETA), pm.VAP_RADIUS)
    pw = pm.propagation_weights(pm.read_disparity_planes(corr_q, planes), conf)
    p_prop = pm.softmax_over_disparity(pm.cross_propagate_volume(v_init, pm.VAP_RADIUS, pw))
    hyp = pm.f2i_topk(p_prop, cfg.k)
    d_hyp, a_f = hyp.d_hyp, hyp.a_f
    cost_k = CostVolume(pm.read_disparity_planes(corr_q, d_hyp)[None])
    cost = pm.fast_attention_filter(a_f, cost_k)
    d_quarter = pm.predict_from_hypotheses(CostVolume(cost.data * np.float32(pm.TEMPERATURE)),
                                           d_hyp, a_f)
    return pm._resize_hw(d_quarter.data * 4.0, h, w)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("shape", [(64, 128), (8, 8), (8, 16)])
def test_fast_runner_bands_equal_the_whole_volume_chain(monkeypatch, shape, threads):
    # Bands of 1, 2 and 3 quarter-resolution rows (16 rows end in a ragged
    # band of 1) give the whole-volume chain's map bit for bit; so does the
    # default budget, one band at these sizes.  8-pixel-high frames have a
    # one-row low-resolution attention.
    import stereo_costvol.pipeline as pipeline_mod

    if shape[0] == 8:
        rng = np.random.default_rng(shape[1])
        left, right = rng.random(shape), rng.random(shape)
        cfg = PipelineConfig("fast_acv", 16, k=4, threads=threads)
    else:
        left, right, _, _ = stereogram(seed=5, h=shape[0], w=shape[1])
        cfg = PipelineConfig("fast_acv", 32, k=6, threads=threads)
    ref = _whole_volume_fast_chain(left, right, cfg)
    got = run_fast_acv_pipeline(left, right, cfg).data
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    for rows in (1, 2, 3):
        monkeypatch.setattr(pipeline_mod, "_BAND_ELEMENTS",
                            rows * (cfg.d_max // 4) * (shape[1] // 4))
        got = run_fast_acv_pipeline(left, right, cfg).data
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), rows


def test_compact_volume_element_arithmetic():
    cfg = PipelineConfig("fast_acv", 192, k=24)
    counts = expected_volume_elements(cfg, 512, 960)
    full_cfg = PipelineConfig("acv", 192)
    full = expected_volume_elements(full_cfg, 512, 960)
    assert counts["compact_concat"] / full["concat"] == 0.5
    assert counts["compact_concat"] * 2 == full["concat"]


test_randomized_oracles = randomized_oracles(pipeline)
