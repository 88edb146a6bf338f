import inspect
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import stereo_costvol
from stereo_costvol import acv, selftest
from stereo_costvol.acv import (
    CHANNELS_PER_GROUP,
    CONCAT_CHANNELS,
    GROUP_SPLIT,
    PatchWeights,
    attention_filter,
    build_mapm_volume,
    filtered_correlation,
    generate_attention_weights,
    mapm_level,
)
from stereo_costvol import pipeline
from stereo_costvol.io_formats import StereogramSpec, generate_stereogram
from stereo_costvol.pipeline import (
    PipelineConfig,
    _resize_hw,
    _tile_channels,
    box_downsample,
    build_feature_pyramid,
    census_features,
    run_acv_pipeline,
)
from stereo_costvol.volume_core import (
    CostVolume,
    DisparityMap,
    FeatureMap,
    _group_inner,
    group_correlation,
    soft_argmin,
    softmax_over_disparity,
)

from oracle_sweep import randomized_oracles

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import bench_scenes  # noqa: E402


def rand_feature(rng, c, h, w):
    return FeatureMap(rng.standard_normal((c, h, w)).astype(np.float32))


def test_patch_weights_validation():
    with pytest.raises(ValueError):
        PatchWeights(4, np.zeros(9))
    with pytest.raises(ValueError):
        PatchWeights(1, np.full(9, np.inf))
    assert PatchWeights.uniform(2).weights.sum() == pytest.approx(1.0)


def test_acv_config_invariants():
    # The paper's layout is fixed; the config echo still reports it.
    with pytest.raises(ValueError, match="positive multiple of 4"):
        PipelineConfig("acv", 30)
    echo = PipelineConfig("acv", 192).as_dict()
    assert echo["n_groups"] == 40
    assert echo["group_split"] == [8, 16, 16]
    assert echo["concat_channels"] == 32


# ---------------------------------------------------------------------------
# mapm_level

def test_mapm_center_one_hot_equals_group_correlation():
    rng = np.random.default_rng(0)
    f_l = rand_feature(rng, 12, 8, 10)
    f_r = rand_feature(rng, 12, 8, 10)
    for level in (1, 2, 3):
        patch = mapm_level(f_l, f_r, PatchWeights.center_only(level), 4, 3)
        plain = group_correlation(f_l, f_r, 4, 3)
        assert np.array_equal(patch.data, plain.data)


def test_mapm_uniform_on_constant_features_equals_center():
    # every tap sees the same value wherever the full patch is in frame
    f_l = FeatureMap(np.tile(np.linspace(0.5, 1.5, 6, dtype=np.float32)[:, None, None],
                             (1, 12, 14)))
    f_r = FeatureMap(np.full((6, 12, 14), 0.75, dtype=np.float32))
    level, d_max = 2, 3
    uniform = mapm_level(f_l, f_r, PatchWeights.uniform(level), d_max, 2)
    center = mapm_level(f_l, f_r, PatchWeights.center_only(level), d_max, 2)
    for d in range(d_max):
        inner = (slice(level, -level), slice(level + d, 14 - level))
        assert np.allclose(uniform.data[:, d][(slice(None),) + inner],
                           center.data[:, d][(slice(None),) + inner], atol=1e-5)


def _per_tap_mapm(f_l, f_r, w, d_max, n_groups):
    # One multiply per nonzero tap over its in-frame slice, added in
    # row-major tap order.
    c, h, width = f_l.data.shape
    fl_g = f_l.data.reshape(n_groups, c // n_groups, h, width)
    fr_g = f_r.data.reshape(n_groups, c // n_groups, h, width)
    scale = np.float32(n_groups / c)
    offs = (-w.level, 0, w.level)
    out = np.zeros((n_groups, d_max, h, width), dtype=np.float32)
    for d in range(d_max):
        base = _group_inner(fl_g, fr_g, d)
        for jj in range(3):
            for ii in range(3):
                if w.weights[jj, ii] == 0.0:
                    continue
                factor = np.float32(w.weights[jj, ii] * scale)
                dy, dx = offs[jj], offs[ii]
                for y in range(max(dy, 0), min(h, h + dy)):
                    x0, x1 = max(dx, 0), min(width, width + dx)
                    if x0 < x1:
                        out[:, d, y, x0:x1] += factor * base[:, y - dy, x0 - dx:x1 - dx]
    return out


@pytest.mark.parametrize("weights", [
    PatchWeights.uniform(2).weights,
    np.array([[0.25, 0.75, 0.25], [0.75, 0.25, 0.75], [0.25, 0.75, 0.25]]),
    PatchWeights.center_only(2).weights,
], ids=["uniform", "two_valued", "center_only"])
@pytest.mark.parametrize("level, h, w", [(1, 7, 9), (2, 9, 12), (3, 5, 6), (3, 2, 3)])
def test_mapm_level_shared_tap_products_equal_per_tap(weights, level, h, w):
    # Taps with equal weights share one product; the sums stay bitwise.
    rng = np.random.default_rng(14)
    f_l, f_r = rand_feature(rng, 12, h, w), rand_feature(rng, 12, h, w)
    pw = PatchWeights(level, weights)
    out = mapm_level(f_l, f_r, pw, 5, 3)
    expect = _per_tap_mapm(f_l, f_r, pw, 5, 3)
    assert np.array_equal(out.data, expect)
    assert np.array_equal(np.signbit(out.data), np.signbit(expect))


def test_mapm_matches_nine_tap_oracle():
    rng = np.random.default_rng(1)
    f_l = rand_feature(rng, 4, 10, 8)
    f_r = rand_feature(rng, 4, 10, 8)
    w = PatchWeights(2, rng.random((3, 3)).astype(np.float32))
    vol = mapm_level(f_l, f_r, w, 4, 2)
    expect = selftest._mapm_oracle(f_l, f_r, 2, w.weights, 4, 2)
    assert np.max(np.abs(vol.data - expect)) < 1e-6


# ---------------------------------------------------------------------------
# build_mapm_volume

def _pyramid_levels(rng, h, w, split=GROUP_SPLIT):
    levels = []
    for k, groups in zip((1, 2, 3), split):
        levels.append((rand_feature(rng, groups * CHANNELS_PER_GROUP, h, w),
                       rand_feature(rng, groups * CHANNELS_PER_GROUP, h, w),
                       PatchWeights.uniform(k)))
    return levels


def test_mapm_volume_has_forty_groups():
    rng = np.random.default_rng(3)
    vol = build_mapm_volume(_pyramid_levels(rng, 6, 8), 32)
    assert vol.channels == 40
    assert vol.disparities == 8


def test_mapm_volume_group_slices_match_levels():
    # 16/24/24 channels are 2 + 3 + 3 groups of CHANNELS_PER_GROUP.
    rng = np.random.default_rng(4)
    levels = _pyramid_levels(rng, 6, 9, split=(2, 3, 3))
    assert [f_l.channels for f_l, _, _ in levels] == [16, 24, 24]
    vol = build_mapm_volume(levels, 16)
    assert vol.channels == 8
    g0 = 0
    for (f_l, f_r, w), split in zip(levels, (2, 3, 3)):
        part = mapm_level(f_l, f_r, w, 4, split)
        assert np.array_equal(vol.data[g0:g0 + split], part.data)
        g0 += split


def test_mapm_volume_full_resolution_bins():
    vol = build_mapm_volume(_pyramid_levels(np.random.default_rng(7), 2, 3), 192)
    assert vol.disparities == 48


def test_mapm_volume_rejects_partial_groups():
    rng = np.random.default_rng(8)
    levels = _pyramid_levels(rng, 4, 5, split=(1, 1, 1))
    odd = (rand_feature(rng, 12, 4, 5), rand_feature(rng, 12, 4, 5), levels[2][2])
    with pytest.raises(ValueError, match="groups of 8"):
        build_mapm_volume(levels[:2] + [odd], 16)
    with pytest.raises(ValueError, match="d_max"):
        build_mapm_volume(levels, 3)


def test_mapm_volume_shape_mismatch_error():
    rng = np.random.default_rng(5)
    levels = _pyramid_levels(rng, 6, 8)
    bad = (rand_feature(rng, GROUP_SPLIT[2] * CHANNELS_PER_GROUP, 5, 8),) + levels[2][1:]
    with pytest.raises(ValueError):
        build_mapm_volume(levels[:2] + [bad], 16)


# ---------------------------------------------------------------------------
# attention weights and filtering

def test_attention_weights_identity_single_group():
    rng = np.random.default_rng(6)
    vol = CostVolume(rng.standard_normal((1, 3, 4, 5)).astype(np.float32))
    a = generate_attention_weights(vol)
    assert np.array_equal(a.data, vol.data)


def test_attention_weights_constant_and_mean():
    const = CostVolume(np.full((5, 2, 3, 3), 1.5, dtype=np.float32))
    assert np.all(generate_attention_weights(const).data == 1.5)
    two = np.stack([np.full((2, 3, 3), 1.0), np.full((2, 3, 3), 3.0)]).astype(np.float32)
    a = generate_attention_weights(CostVolume(two))
    assert np.all(a.data == 2.0)


def test_attention_weights_equal_numpy_mean():
    # The group mean folds in order like np.mean(axis=0), which the runner
    # used; at one element per group numpy sums pairwise instead.
    rng = np.random.default_rng(10)
    for g, shape in ((40, (48, 6, 10)), (40, (1, 1, 2)), (9, (3, 4, 5)), (2, (1, 1, 3))):
        vol = CostVolume(rng.standard_normal((g,) + shape).astype(np.float32))
        assert np.array_equal(generate_attention_weights(vol).data,
                              vol.data.mean(axis=0, keepdims=True))
    zeros = CostVolume(np.full((3, 1, 2, 2), -0.0, dtype=np.float32))
    a = generate_attention_weights(zeros).data
    assert np.array_equal(np.signbit(a), np.signbit(zeros.data.mean(axis=0, keepdims=True)))


@pytest.mark.parametrize("op", [build_mapm_volume, filtered_correlation],
                         ids=lambda op: op.__name__)
def test_mapm_ops_reject_bad_levels(op):
    rng = np.random.default_rng(12)
    levels = _pyramid_levels(rng, 4, 5, split=(1, 1, 1))
    odd = (rand_feature(rng, 12, 4, 5), rand_feature(rng, 12, 4, 5), levels[2][2])
    with pytest.raises(ValueError, match="groups of 8"):
        op(levels[:2] + [odd], 16)
    with pytest.raises(ValueError, match="d_max"):
        op(levels, 3)
    with pytest.raises(ValueError, match="expected 3 levels"):
        op(levels[:2], 16)


def _tiled_attention(levels, d_max):
    # The paper's 8/16/16 groups over channels tiled from the untiled levels.
    tiled = [(FeatureMap(_tile_channels(f_l.data, n * CHANNELS_PER_GROUP)),
              FeatureMap(_tile_channels(f_r.data, n * CHANNELS_PER_GROUP)), w)
             for (f_l, f_r, w), n in zip(levels, GROUP_SPLIT)]
    return generate_attention_weights(build_mapm_volume(tiled, d_max))


def _reference_acv_map(left, right, d_max):
    # The op-by-op chain the runner's one pass replaces: tiled MAPM volume,
    # attention, dense one-group correlation, filter, softmax, soft-argmin.
    # Level 1 is the float census map the pyramid's codes pack.
    cfg = PipelineConfig("acv", d_max)
    pyr_l, pyr_r = build_feature_pyramid(left, cfg), build_feature_pyramid(right, cfg)
    level1 = [census_features(box_downsample(img.intensities, 4)) for img in (left, right)]
    levels = [(*level1, PatchWeights.uniform(1))]
    levels += [(pyr_l.levels[i], pyr_r.levels[i], PatchWeights.uniform(i + 1)) for i in (1, 2)]
    a = _tiled_attention(levels, d_max)
    # level 1's census channels tiled to the concatenation width
    quarter_l, quarter_r = (FeatureMap(_tile_channels(f.data, CONCAT_CHANNELS)) for f in level1)
    compressed = group_correlation(quarter_l, quarter_r, d_max // 4, 1)
    cost = attention_filter(a, compressed)
    cost.data *= np.float32(pipeline.TEMPERATURE)
    d_quarter = soft_argmin(softmax_over_disparity(cost))
    h, w = left.intensities.shape
    return DisparityMap(_resize_hw(d_quarter.data * 4.0, h, w))


def test_acv_runner_equals_tiled_composition():
    # 16 bins split evenly into tasks; at D=36 the last of 9 bins is a task
    # of its own.
    left, right, _, _ = generate_stereogram(StereogramSpec(128, 256, 12, 0.5, 4))
    for d_max in (64, 36):
        expect = _reference_acv_map(left, right, d_max)
        for threads in (1, 2, 3, 8):
            out = run_acv_pipeline(left, right, PipelineConfig("acv", d_max, threads=threads))
            assert np.array_equal(out.data.view(np.uint64), expect.data.view(np.uint64))


def _runner_levels(left, right, d_max):
    cfg = PipelineConfig("acv", d_max)
    pyr_l, pyr_r = build_feature_pyramid(left, cfg), build_feature_pyramid(right, cfg)
    return [(pyr_l.levels[i], pyr_r.levels[i], PatchWeights.uniform(i + 1)) for i in range(3)]


@pytest.mark.parametrize("d_max", [36, 192])
def test_acv_keeps_every_bit_over_threads_and_bins_per_task(monkeypatch, d_max):
    # A seed-701 960x512 bench scene: the filtered cost and the map at 1, 2
    # and 8 threads are bitwise those of one bin per task on one thread.
    scene = bench_scenes.make_scene(701, 0, 512, 960, d_max)
    levels = _runner_levels(scene.left, scene.right, d_max)
    monkeypatch.setattr(acv, "_BINS_PER_TASK", 1)
    ref_cost = filtered_correlation(levels, d_max).data.view(np.uint32)
    ref_map = run_acv_pipeline(scene.left, scene.right, PipelineConfig("acv", d_max))
    monkeypatch.undo()
    for threads in (1, 2, 8):
        cost = filtered_correlation(levels, d_max, threads)
        assert np.array_equal(cost.data.view(np.uint32), ref_cost)
        cfg = PipelineConfig("acv", d_max, threads=threads)
        out = run_acv_pipeline(scene.left, scene.right, cfg)
        assert np.array_equal(out.data.view(np.uint64), ref_map.data.view(np.uint64))


def _packed_sign_levels(rng, h, w):
    """Random sign levels: level 1 packed as codes, ties included."""
    def signs():
        return rng.integers(-1, 2, size=(24, h, w)).astype(np.float32)

    l1 = (selftest._pack_signs(signs()), selftest._pack_signs(signs()), PatchWeights.uniform(1))
    return [l1] + [(FeatureMap(signs()), FeatureMap(signs()), PatchWeights.uniform(k))
                   for k in (2, 3)]


@pytest.mark.parametrize("bins_per_task", [1, 2, 3])
def test_bins_past_a_narrow_frame_read_positive_zero(monkeypatch, bins_per_task):
    # 7 columns and 12 bins: bins 7-11 have no in-frame right sample, and
    # with 2 or 3 bins per task one task holds bins on both sides of x = 7.
    monkeypatch.setattr(acv, "_BINS_PER_TASK", bins_per_task)
    levels = _packed_sign_levels(np.random.default_rng(19), 5, 7)
    for threads in (1, 2, 8):
        cost = filtered_correlation(levels, 48, threads).data
        assert np.all(cost[:, 7:].view(np.uint32) == 0)
        assert np.any(cost[:, :7] != 0)
    # the runner on a 32x32 pair, 8 quarter-resolution columns and 16 bins
    left, right, _, _ = generate_stereogram(StereogramSpec(32, 32, 2, 0.5, 3))
    cost = filtered_correlation(_runner_levels(left, right, 64), 64, 2).data
    assert np.all(cost[:, 8:].view(np.uint32) == 0)


def test_filtered_correlation_reads_level_1_as_codes():
    rng = np.random.default_rng(20)
    levels = _packed_sign_levels(rng, 4, 6)
    floats = (rand_feature(rng, 24, 4, 6), rand_feature(rng, 24, 4, 6), levels[0][2])
    with pytest.raises(ValueError, match="level 1 must be CensusCodes"):
        filtered_correlation([floats] + levels[1:], 16)
    with pytest.raises(ValueError, match="levels 2 and 3 must be FeatureMaps"):
        filtered_correlation(levels[:2] + [levels[0]], 16)


@pytest.mark.parametrize("threads", [1, 3])
def test_filtered_correlation_holds_one_volume(threads):
    # The attention, the correlation and their product were three volumes;
    # the one pass holds only its output beside per-task slices, which at
    # 256 bins stay under half the output's bytes.
    levels = _packed_sign_levels(np.random.default_rng(16), 32, 64)
    tracemalloc.start()
    try:
        cost = filtered_correlation(levels, 1024, threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cost.data.nbytes


def test_task_runner_hands_each_item_to_exactly_one_thread():
    # More threads than cores and a short switch interval: an index taken
    # twice or lost would show in the calls or the results.
    calls, out = [], []

    def square(i):
        calls.append(i)
        return i * i

    def body():
        with acv._task_runner(8) as run:
            out.append(run(square, range(2000)))
            out.append(run(square, ()))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=body)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert out == [[i * i for i in range(2000)], []]
    assert sorted(calls) == list(range(2000))


def test_task_runner_raises_a_task_error():
    def fail_on_3(i):
        if i == 3:
            raise KeyError(i)
        return i

    for threads in (1, 2, 8):
        with pytest.raises(KeyError):
            with acv._task_runner(threads) as run:
                run(fail_on_3, range(6))


def test_only_filtered_correlation_takes_threads():
    # The runner's one pass is the only public op that splits its work
    # over a thread pool; every other op is a plain loop.
    threaded = [name for name in stereo_costvol.__all__
                if inspect.isfunction(getattr(stereo_costvol, name))
                and "threads" in inspect.signature(getattr(stereo_costvol, name)).parameters]
    assert threaded == ["filtered_correlation"]


def test_attention_filter_identity_and_annihilator():
    rng = np.random.default_rng(7)
    concat = CostVolume(rng.standard_normal((6, 3, 4, 5)).astype(np.float32))
    ones = CostVolume(np.ones((1, 3, 4, 5), dtype=np.float32))
    zeros = CostVolume(np.zeros((1, 3, 4, 5), dtype=np.float32))
    assert np.array_equal(attention_filter(ones, concat).data, concat.data)
    assert np.all(attention_filter(zeros, concat).data == 0.0)


def test_attention_filter_elementwise_oracle():
    rng = np.random.default_rng(8)
    a = CostVolume(rng.standard_normal((1, 2, 3, 4)).astype(np.float32))
    concat = CostVolume(rng.standard_normal((5, 2, 3, 4)).astype(np.float32))
    out = attention_filter(a, concat)
    for c in range(5):
        for d in range(2):
            for y in range(3):
                for x in range(4):
                    assert out.data[c, d, y, x] == np.float32(
                        a.data[0, d, y, x] * concat.data[c, d, y, x])


def test_attention_filter_linear_in_weights():
    rng = np.random.default_rng(9)
    a = CostVolume(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
    concat = CostVolume(rng.standard_normal((4, 2, 4, 4)).astype(np.float32))
    doubled = CostVolume(a.data * np.float32(2.0))
    assert np.array_equal(attention_filter(doubled, concat).data,
                          attention_filter(a, concat).data * np.float32(2.0))


def test_attention_filter_shape_mismatch():
    a = CostVolume(np.zeros((1, 2, 3, 3), dtype=np.float32))
    concat = CostVolume(np.zeros((4, 3, 3, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        attention_filter(a, concat)


def test_identical_images_attention_peaks_at_zero():
    # random-texture features, left == right: regressed d_att stays below 1
    rng = np.random.default_rng(11)
    feats = [rand_feature(rng, split * CHANNELS_PER_GROUP, 12, 20) for split in GROUP_SPLIT]
    for fm in feats:
        fm.data *= 2.0
    levels = [(feats[i], feats[i], PatchWeights.uniform(i + 1)) for i in range(3)]
    a = generate_attention_weights(build_mapm_volume(levels, 32))
    d_att = soft_argmin(softmax_over_disparity(a))
    assert np.all(d_att.data[3:-3, 3:-3] < 1.0)


test_randomized_oracles = randomized_oracles(acv)
