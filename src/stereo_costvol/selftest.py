"""Embedded oracle suite: every operation checked against a naive reference.

Each check builds small randomized instances, recomputes the expected
result with straightforward scalar loops (or closed forms), and compares.
The checks are deliberately independent of the implementation paths they
verify.  `run_selftest` prints one line per operation and reports the
first failure; the same checks back the acceptance test suite at higher
case counts.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import acv, fast_acv, io_formats, metrics, pipeline, volume_core


def _rand_feature(rng, c, h, w):
    return volume_core.FeatureMap(rng.standard_normal((c, h, w)).astype(np.float32))


# ---------------------------------------------------------------------------
# volume_core oracles

def check_softmax_over_disparity(rng, cases):
    for _ in range(cases):
        d, h, w = int(rng.integers(2, 9)), int(rng.integers(1, 7)), int(rng.integers(1, 7))
        logits = rng.standard_normal((1, d, h, w)).astype(np.float32) * 3
        for logits in (logits, logits * np.float32(1e3)):
            p = volume_core.softmax_over_disparity(volume_core.CostVolume(logits))
            assert p.data.dtype == np.float64 and p.data.shape == (d, h, w)
            for y in range(h):
                for x in range(w):
                    col = logits[0, :, y, x].astype(np.float64)
                    m = col.max()
                    e = [math.exp(v - m) for v in col]
                    s = sum(e)
                    for i in range(d):
                        assert abs(p.data[i, y, x] - e[i] / s) < 1e-12
            assert p.data.min() >= 0.0 and np.all(np.abs(p.data.sum(axis=0) - 1.0) < 1e-5)


def check_soft_argmin(rng, cases):
    for _ in range(cases):
        d, h, w = int(rng.integers(2, 9)), int(rng.integers(1, 7)), int(rng.integers(1, 7))
        raw = rng.random((d, h, w)) + 1e-3
        p = volume_core.ProbabilityVolume(raw / raw.sum(axis=0, keepdims=True))
        disp = volume_core.soft_argmin(p)
        for y in range(h):
            for x in range(w):
                expect = sum(i * p.data[i, y, x] for i in range(d))
                assert abs(disp.data[y, x] - expect) < 1e-12
        assert disp.data.min() >= 0.0 and disp.data.max() <= d - 1
    one_hot = np.zeros((8, 2, 2))
    one_hot[2] = 1.0
    hit = volume_core.soft_argmin(volume_core.ProbabilityVolume(one_hot))
    assert np.all(hit.data == 2.0)


def check_group_correlation(rng, cases):
    for _ in range(cases):
        g, cpg = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        h, w = int(rng.integers(2, 10)), int(rng.integers(3, 16))
        d_max = int(rng.integers(1, 9))
        f_l = _rand_feature(rng, g * cpg, h, w)
        f_r = _rand_feature(rng, g * cpg, h, w)
        vol = volume_core.group_correlation(f_l, f_r, d_max, g)
        scale = g / (g * cpg)
        for gi in range(g):
            for d in range(d_max):
                for y in range(h):
                    for x in range(w):
                        if x - d < 0:
                            expect = 0.0
                        else:
                            expect = scale * sum(
                                float(f_l.data[gi * cpg + c, y, x]) *
                                float(f_r.data[gi * cpg + c, y, x - d])
                                for c in range(cpg))
                        assert abs(vol.data[gi, d, y, x] - expect) < 1e-6


def check_census_correlation(rng, cases):
    for case in range(cases):
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 10))
        channels = (pipeline.CENSUS_CHANNELS, acv.CONCAT_CHANNELS)[case % 2]
        d_max = int(rng.integers(1, w + 3))
        # three intensity levels, so many census channels are ties (zero)
        imgs = [rng.integers(0, 3, (h, w)).astype(np.float32) for _ in range(2)]
        f_l, f_r = (pipeline.census_features(img).data for img in imgs)
        codes_l, codes_r = (pipeline._census_codes(img, channels) for img in imgs)
        vol = volume_core.census_correlation(codes_l, codes_r, d_max)
        assert vol.data.dtype == np.float32 and vol.data.shape == (1, d_max, h, w)
        n = pipeline.CENSUS_CHANNELS
        for d in range(d_max):
            for y in range(h):
                for x in range(w):
                    got = vol.data[0, d, y, x]
                    if x - d < 0:
                        assert got == 0.0 and not np.signbit(got)
                        continue
                    expect = sum(float(f_l[c % n, y, x]) * float(f_r[c % n, y, x - d])
                                 for c in range(channels)) / channels
                    assert abs(got - expect) < 1e-6


def check_build_concat_volume(rng, cases):
    for _ in range(cases):
        c = int(rng.integers(1, 5))
        h, w = int(rng.integers(2, 8)), int(rng.integers(3, 12))
        d_max = int(rng.integers(1, 9))
        f_l = _rand_feature(rng, c, h, w)
        f_r = _rand_feature(rng, c, h, w)
        vol = volume_core.build_concat_volume(f_l, f_r, d_max)
        assert vol.channels == 2 * c
        for d in range(d_max):
            for y in range(h):
                for x in range(w):
                    for ci in range(c):
                        assert vol.data[ci, d, y, x] == f_l.data[ci, y, x]
                        expect = f_r.data[ci, y, x - d] if x - d >= 0 else 0.0
                        assert vol.data[c + ci, d, y, x] == expect


def check_unfold_cross(rng, cases):
    for _ in range(cases):
        d, h, w = int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(2, 9))
        radius = int(rng.integers(1, 3))
        vol = volume_core.CostVolume(rng.standard_normal((1, d, h, w)).astype(np.float32))
        unf = volume_core.unfold_cross(vol, radius)
        assert np.array_equal(unf.data[0], vol.data[0])
        offsets = {"up": (0, -radius), "down": (0, radius),
                   "left": (-radius, 0), "right": (radius, 0)}
        for m, name in enumerate(volume_core.CROSS_NAMES):
            dx, dy = (0, 0) if name == "center" else offsets[name]
            for di in range(d):
                for y in range(h):
                    for x in range(w):
                        sy = min(max(y + dy, 0), h - 1)
                        sx = min(max(x + dx, 0), w - 1)
                        assert unf.data[m, di, y, x] == vol.data[0, di, sy, sx]


# ---------------------------------------------------------------------------
# acv oracles

def _mapm_oracle(f_l, f_r, level, weights, d_max, n_groups):
    c, h, w = f_l.data.shape
    cpg = c // n_groups
    scale = n_groups / c
    offs = (-level, 0, level)
    out = np.zeros((n_groups, d_max, h, w))
    for gi in range(n_groups):
        for d in range(d_max):
            for y in range(h):
                for x in range(w):
                    acc = 0.0
                    for jj in range(3):
                        for ii in range(3):
                            yl, xl = y - offs[jj], x - offs[ii]
                            xr = xl - d
                            if not (0 <= yl < h and 0 <= xl < w and 0 <= xr):
                                continue
                            inner = sum(float(f_l.data[gi * cpg + cc, yl, xl]) *
                                        float(f_r.data[gi * cpg + cc, yl, xr])
                                        for cc in range(cpg))
                            acc += float(weights[jj, ii]) * inner
                    out[gi, d, y, x] = scale * acc
    return out


def _check_mapm_case(rng, level, h, w):
    g, cpg = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    d_max = int(rng.integers(1, 5))
    f_l = _rand_feature(rng, g * cpg, h, w)
    f_r = _rand_feature(rng, g * cpg, h, w)
    weights = acv.PatchWeights(level, rng.random((3, 3)).astype(np.float32))
    vol = acv.mapm_level(f_l, f_r, weights, d_max, g)
    expect = _mapm_oracle(f_l, f_r, level, weights.weights, d_max, g)
    assert np.max(np.abs(vol.data - expect)) < 1e-6
    center = acv.PatchWeights.center_only(level)
    direct = acv.mapm_level(f_l, f_r, center, d_max, g)
    plain = volume_core.group_correlation(f_l, f_r, d_max, g)
    assert np.array_equal(direct.data, plain.data)


def check_mapm_level(rng, cases):
    for _ in range(cases):
        level = int(rng.integers(1, 4))
        _check_mapm_case(rng, level, int(rng.integers(1, 11)), int(rng.integers(1, 13)))
    # Frames no larger than the level-3 offset: some taps fall wholly outside.
    for _ in range(2):
        _check_mapm_case(rng, 3, int(rng.integers(1, 4)), int(rng.integers(1, 4)))


def check_build_mapm_volume(rng, cases):
    # Each level contributes channels / CHANNELS_PER_GROUP groups.
    for _ in range(cases):
        split = [int(s) for s in rng.integers(1, 4, size=3)]
        h, w = int(rng.integers(6, 10)), int(rng.integers(8, 14))
        levels = []
        for k, s in zip((1, 2, 3), split):
            levels.append((_rand_feature(rng, s * acv.CHANNELS_PER_GROUP, h, w),
                           _rand_feature(rng, s * acv.CHANNELS_PER_GROUP, h, w),
                           acv.PatchWeights.uniform(k)))
        vol = acv.build_mapm_volume(levels, 8)
        assert vol.channels == sum(split)
        assert vol.disparities == 2
        g0 = 0
        for (f_l, f_r, w_), s in zip(levels, split):
            part = acv.mapm_level(f_l, f_r, w_, 2, s)
            assert np.array_equal(vol.data[g0:g0 + s], part.data)
            g0 += s


def _pack_signs(signs):
    """CensusCodes of a (channels, H, W) {-1, 0, +1} array, one bit pair per channel."""
    words = np.zeros((2,) + signs.shape[1:], dtype=np.uint32)
    for c, ch in enumerate(signs):
        words[0] |= (ch != 0).astype(np.uint32) << np.uint32(c)
        words[1] |= (ch > 0).astype(np.uint32) << np.uint32(c)
    return volume_core.CensusCodes(words, signs.shape[0])


def _check_filtered_correlation_case(rng, h, w, threads, signs, uniform):
    levels, tiled = [], []
    for level, n_tiled in zip((1, 2, 3), acv.GROUP_SPLIT):
        c = int(rng.integers(1, 4)) * acv.CHANNELS_PER_GROUP
        if signs or level == 1:  # census-like {-1, 0, +1} channels, ties included
            pair = [rng.integers(-1, 2, size=(c, h, w)).astype(np.float32) for _ in range(2)]
        else:
            pair = [rng.standard_normal((c, h, w)).astype(np.float32) for _ in range(2)]
        weights = (acv.PatchWeights.uniform(level) if uniform else
                   acv.PatchWeights(level, rng.random((3, 3)).astype(np.float32)))
        if level == 1:
            level1 = pair
            levels.append((_pack_signs(pair[0]), _pack_signs(pair[1]), weights))
        else:
            levels.append((volume_core.FeatureMap(pair[0]), volume_core.FeatureMap(pair[1]),
                           weights))
        n = n_tiled * acv.CHANNELS_PER_GROUP
        tiled.append((volume_core.FeatureMap(pipeline._tile_channels(pair[0], n)),
                      volume_core.FeatureMap(pipeline._tile_channels(pair[1], n)), weights))
    d_max = 4 * int(rng.integers(1, 5))
    with acv._task_runner(threads) as run:
        out = acv._filtered_cost(levels, d_max, run)
    t_l, t_r = (pipeline._tile_channels(f, acv.CONCAT_CHANNELS) for f in level1)
    corr = volume_core.group_correlation(volume_core.FeatureMap(t_l),
                                         volume_core.FeatureMap(t_r), d_max // 4, 1)
    a = acv.generate_attention_weights(acv.build_mapm_volume(tiled, d_max))
    expect = acv.attention_filter(a, corr)
    assert np.array_equal(out.data.view(np.uint32), expect.data.view(np.uint32))


def check_filtered_correlation(rng, cases):
    # Bit for bit attention_filter(the group mean of the tiled 40-group MAPM
    # volume it never builds, group_correlation of level 1 tiled to
    # CONCAT_CHANNELS, one group).  Level 1 is packed sign channels, whose
    # group sums are exact integers; levels 2 and 3 are sign-valued or
    # float features.
    for i in range(cases):
        _check_filtered_correlation_case(rng, int(rng.integers(4, 10)),
                                         int(rng.integers(4, 14)), threads=(1, 3)[i % 2],
                                         signs=i % 4 < 2, uniform=i % 3 == 0)
    # Frames no larger than the level-3 offset: some taps fall wholly outside.
    for threads in (1, 3):
        for signs in (True, False):
            _check_filtered_correlation_case(rng, int(rng.integers(1, 4)),
                                             int(rng.integers(1, 4)), threads, signs,
                                             uniform=signs)


def check_generate_attention_weights(rng, cases):
    for _ in range(cases):
        g = int(rng.integers(1, 6))
        d, h, w = int(rng.integers(1, 5)), int(rng.integers(2, 7)), int(rng.integers(2, 7))
        vol = volume_core.CostVolume(rng.standard_normal((g, d, h, w)).astype(np.float32))
        a = acv.generate_attention_weights(vol)
        assert a.channels == 1
        for di in range(d):
            for y in range(h):
                for x in range(w):
                    expect = sum(float(vol.data[gi, di, y, x]) for gi in range(g)) / g
                    assert abs(a.data[0, di, y, x] - expect) < 1e-6


def check_attention_filter(rng, cases):
    for _ in range(cases):
        c = int(rng.integers(1, 7))
        d, h, w = int(rng.integers(1, 5)), int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a = volume_core.CostVolume(rng.standard_normal((1, d, h, w)).astype(np.float32))
        concat = volume_core.CostVolume(rng.standard_normal((c, d, h, w)).astype(np.float32))
        out = acv.attention_filter(a, concat)
        for ci in range(c):
            for di in range(d):
                for y in range(h):
                    for x in range(w):
                        assert out.data[ci, di, y, x] == np.float32(
                            a.data[0, di, y, x] * concat.data[ci, di, y, x])
        ones = volume_core.CostVolume(np.ones((1, d, h, w), dtype=np.float32))
        assert np.array_equal(acv.attention_filter(ones, concat).data, concat.data)


# ---------------------------------------------------------------------------
# fast_acv oracles

def check_regress_initial_disparity(rng, cases):
    for _ in range(cases):
        d, h, w = int(rng.integers(2, 9)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
        v = volume_core.CostVolume(rng.standard_normal((1, d, h, w)).astype(np.float32))
        p, disp = fast_acv.regress_initial_disparity(v)
        p2 = volume_core.softmax_over_disparity(v)
        assert np.array_equal(p.data, p2.data)
        assert np.max(np.abs(disp.data - volume_core.soft_argmin(p2).data)) < 1e-9


def check_sample_cross_disparities(rng, cases):
    for _ in range(cases):
        h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        radius = int(rng.integers(1, 3))
        d_init = volume_core.DisparityMap(rng.random((h, w)) * 7)
        planes = fast_acv.sample_cross_disparities(d_init, radius)
        assert planes.shape == (5, h, w)
        assert np.array_equal(planes[0], d_init.data)
        offsets = {1: (0, -radius), 2: (0, radius), 3: (-radius, 0), 4: (radius, 0)}
        for m, (dx, dy) in offsets.items():
            for y in range(h):
                for x in range(w):
                    sy = min(max(y + dy, 0), h - 1)
                    sx = min(max(x + dx, 0), w - 1)
                    assert planes[m, y, x] == d_init.data[sy, sx]


def check_matching_score(rng, cases):
    for _ in range(cases):
        c, h, w = int(rng.integers(1, 6)), int(rng.integers(2, 7)), int(rng.integers(4, 12))
        f_l = _rand_feature(rng, c, h, w)
        f_r = _rand_feature(rng, c, h, w)
        d_m = (rng.random((5, h, w)) * (w + 2) - 1.0)
        # F2I hypotheses: integer planes, some pointing off the frame.
        d_hyp = rng.integers(0, w + 2, size=(int(rng.integers(1, 5)), h, w)).astype(np.int32)
        for d in (d_m, d_hyp):
            scores = fast_acv.matching_score(f_l, f_r, d)
            assert scores.shape == d.shape and scores.dtype == np.float32
            for m in range(d.shape[0]):
                for y in range(h):
                    for x in range(w):
                        u = x - float(d[m, y, x])
                        if u < 0 or u > w - 1:
                            expect = 0.0
                        else:
                            u0 = int(math.floor(u))
                            u1 = min(u0 + 1, w - 1)
                            t = u - u0
                            expect = sum(
                                float(f_l.data[ci, y, x]) *
                                ((1 - t) * float(f_r.data[ci, y, u0]) +
                                 t * float(f_r.data[ci, y, u1]))
                                for ci in range(c)) / c
                        assert abs(scores[m, y, x] - expect) < 1e-5
        # Integer-valued float planes take the same path as integer ones.
        as_float = fast_acv.matching_score(f_l, f_r, d_hyp.astype(np.float64))
        assert np.array_equal(as_float, fast_acv.matching_score(f_l, f_r, d_hyp))
    f = _rand_feature(rng, 4, 3, 6)
    self_score = fast_acv.matching_score(f, f, np.zeros((5, 3, 6)))
    assert np.all(self_score >= 0.0)
    far = fast_acv.matching_score(f, f, np.full((5, 3, 6), 99.0))
    assert np.all(far == 0.0)


def check_read_disparity_planes(rng, cases):
    for _ in range(cases):
        n_d, h, w = int(rng.integers(1, 9)), int(rng.integers(1, 6)), int(rng.integers(1, 9))
        vol = volume_core.CostVolume(rng.standard_normal((1, n_d, h, w)).astype(np.float32))
        m = int(rng.integers(1, 6))
        d_frac = rng.random((m, h, w)) * (n_d - 1)
        d_int = rng.integers(0, n_d, size=(m, h, w)).astype(np.int32)
        for d in (d_frac, d_int):
            out = fast_acv.read_disparity_planes(vol, d)
            assert out.shape == d.shape and out.dtype == np.float32
            for mi in range(m):
                for y in range(h):
                    for x in range(w):
                        dv = float(d[mi, y, x])
                        if dv > x:
                            expect = 0.0
                        else:
                            d0 = int(math.floor(dv))
                            t = dv - d0
                            expect = (1 - t) * float(vol.data[0, d0, y, x])
                            if t:
                                expect += t * float(vol.data[0, d0 + 1, y, x])
                        assert abs(out[mi, y, x] - expect) < 1e-6
        # Integer planes are direct lookups, whatever their dtype.
        direct = fast_acv.read_disparity_planes(vol, d_int)
        assert np.array_equal(fast_acv.read_disparity_planes(vol, d_int.astype(np.float64)),
                              direct)
        ys, xs = np.indices((h, w))
        inside = d_int <= xs
        assert np.array_equal(direct[inside], vol.data[0][d_int, ys, xs][inside])


def check_estimate_uncertainty(rng, cases):
    for _ in range(cases):
        d, h, w = int(rng.integers(2, 9)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
        raw = rng.random((d, h, w)) + 1e-3
        p = volume_core.ProbabilityVolume(raw / raw.sum(axis=0, keepdims=True))
        disp = volume_core.soft_argmin(p)
        u = fast_acv.estimate_uncertainty(p, disp)
        for y in range(h):
            for x in range(w):
                expect = sum(p.data[i, y, x] * (i - disp.data[y, x]) ** 2 for i in range(d))
                assert abs(u[y, x] - expect) < 1e-9
        assert np.all(u >= 0.0)
    for d in (2, 4, 8, 16):
        uni = volume_core.ProbabilityVolume(np.full((d, 2, 2), 1.0 / d))
        disp = volume_core.soft_argmin(uni)
        u = fast_acv.estimate_uncertainty(uni, disp)
        assert np.all(u == (d * d - 1) / 12.0)


def check_confidence(rng, cases):
    for _ in range(cases):
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        u = rng.random((h, w)) * 5
        alpha, beta = float(rng.normal()), float(rng.normal())
        c = fast_acv.confidence(u, alpha, beta)
        for y in range(h):
            for x in range(w):
                assert abs(c[y, x] - (alpha + beta * u[y, x])) < 1e-6
    assert np.all(fast_acv.confidence(np.zeros((2, 2)), 1.0, -1.0) == 1.0)
    assert np.all(fast_acv.confidence(np.full((2, 2), 4.0), 2.0, -0.5) == 0.0)


def check_propagation_weights(rng, cases):
    for _ in range(cases):
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        s = rng.standard_normal((5, h, w)).astype(np.float32)
        c = rng.standard_normal((5, h, w)).astype(np.float32) * 3
        field = fast_acv.propagation_weights(s, c)
        for m in range(5):
            for y in range(h):
                for x in range(w):
                    sig = 1.0 / (1.0 + math.exp(-float(c[m, y, x])))
                    assert abs(field.w[m, y, x] - s[m, y, x] * sig) < 1e-6
    s = rng.standard_normal((5, 3, 3)).astype(np.float32)
    half = fast_acv.propagation_weights(s, np.zeros((5, 3, 3), dtype=np.float32))
    assert np.max(np.abs(half.w - 0.5 * s)) < 1e-7
    sat = fast_acv.propagation_weights(s, np.full((5, 3, 3), 20.0, dtype=np.float32))
    assert np.max(np.abs(sat.w - s)) < 1e-8


def check_cross_propagate(rng, cases):
    for _ in range(cases):
        d, h, w = int(rng.integers(1, 6)), int(rng.integers(2, 8)), int(rng.integers(2, 8))
        v_u = volume_core.CostVolume(rng.standard_normal((5, d, h, w)).astype(np.float32))
        s = rng.standard_normal((5, h, w)).astype(np.float32)
        c = rng.standard_normal((5, h, w)).astype(np.float32)
        field = fast_acv.propagation_weights(s, c)
        out = fast_acv.cross_propagate(v_u, field)
        lo = v_u.data.min(axis=0)
        hi = v_u.data.max(axis=0)
        assert np.all(out.data[0] >= lo) and np.all(out.data[0] <= hi)
        for y in range(h):
            for x in range(w):
                col = field.w[:, y, x].astype(np.float64)
                e = np.exp(col - col.max())
                probs = e / e.sum()
                for di in range(d):
                    expect = sum(probs[m] * float(v_u.data[m, di, y, x]) for m in range(5))
                    assert abs(out.data[0, di, y, x] - expect) < 1e-6
    # center-dominant weights reproduce the center plane
    v_u = volume_core.CostVolume(rng.standard_normal((5, 3, 4, 4)).astype(np.float32))
    w_dom = np.full((5, 4, 4), -20.0, dtype=np.float32)
    w_dom[0] = 20.0
    field = fast_acv.PropagationField(w_dom)
    out = fast_acv.cross_propagate(v_u, field)
    assert np.max(np.abs(out.data[0] - v_u.data[0])) < 1e-6


def check_cross_propagate_volume(rng, cases):
    offsets = {"center": (0, 0), "up": (0, -1), "down": (0, 1), "left": (-1, 0), "right": (1, 0)}
    for case in range(cases):
        # more slices than one block, and radii reaching past the frame
        d, h, w = int(rng.integers(1, 10)), int(rng.integers(1, 7)), int(rng.integers(1, 7))
        radius = int(rng.integers(1, 4))
        vol = volume_core.CostVolume((rng.standard_normal((1, d, h, w)) * 10).astype(np.float32))
        s = rng.standard_normal((5, h, w)).astype(np.float32) * 3
        if case % 3 == 1:
            s[:, ::2] = 0.0
        elif case % 3 == 2:
            s = -np.abs(s)
        field = fast_acv.propagation_weights(s, rng.standard_normal((5, h, w)).astype(np.float32))
        out = fast_acv.cross_propagate_volume(vol, radius, field)
        ref = fast_acv.cross_propagate(volume_core.unfold_cross(vol, radius), field)
        assert np.array_equal(out.data.view(np.uint32), ref.data.view(np.uint32))
        for y in range(h):
            for x in range(w):
                col = field.w[:, y, x].astype(np.float64)
                e = np.exp(col - col.max())
                probs = e / e.sum()
                for di in range(d):
                    expect = 0.0
                    for m, name in enumerate(volume_core.CROSS_NAMES):
                        dx, dy = offsets[name]
                        sy = min(max(y + dy * radius, 0), h - 1)
                        sx = min(max(x + dx * radius, 0), w - 1)
                        expect += probs[m] * float(vol.data[0, di, sy, sx])
                    assert abs(out.data[0, di, y, x] - expect) < 1e-5


def check_f2i_topk(rng, cases):
    for _ in range(cases):
        d, h, w = int(rng.integers(2, 9)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
        # quantized logits produce exactly duplicated probabilities
        logits = rng.integers(0, 3, size=(1, d, h, w)).astype(np.float32)
        p = volume_core.softmax_over_disparity(volume_core.CostVolume(logits))
        k = int(rng.integers(1, d + 1))
        hyp = fast_acv.f2i_topk(p, k)
        assert hyp.k == k
        for y in range(h):
            for x in range(w):
                order = sorted(range(d), key=lambda i: (-p.data[i, y, x], i))[:k]
                assert list(hyp.d_hyp[:, y, x]) == order
                for j, i in enumerate(order):
                    assert hyp.a_f[j, y, x] == p.data[i, y, x]
        assert np.all(hyp.a_f.sum(axis=0) <= 1.0 + 1e-5)
        if k == d:
            assert np.all(np.abs(hyp.a_f.sum(axis=0) - 1.0) < 1e-5)


def _f2i_case(rng, case):
    """Probabilities with exact duplicates; K is 1, 2, D or a random one in turn.

    Every fifth case has 256 bins, more than an int8 count or rank holds,
    and every third is a constant distribution, where all bins tie.
    """
    d = 256 if case % 5 == 4 else int(rng.integers(1, 10))
    h, w = (2, 2) if d == 256 else (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
    levels = 1 if case % 3 == 2 else 3
    logits = rng.integers(0, levels, size=(1, d, h, w)).astype(np.float32)
    p = volume_core.softmax_over_disparity(volume_core.CostVolume(logits))
    return p, min((1, 2, d, int(rng.integers(1, d + 1)))[case % 4], d)


def check_f2i_mask(rng, cases):
    for case in range(cases):
        p, k = _f2i_case(rng, case)
        d, h, w = p.data.shape
        before = p.data.copy()
        keep = fast_acv.f2i_mask(p, k)
        assert np.array_equal(p.data, before)
        assert keep.dtype == np.bool_ and keep.shape == (d, h, w)
        hyp = fast_acv.f2i_topk(p, k)
        for y in range(h):
            for x in range(w):
                chosen = sorted(range(d), key=lambda i: (-p.data[i, y, x], i))[:k]
                kept = [i for i in range(d) if keep[i, y, x]]
                assert kept == sorted(chosen) == sorted(hyp.d_hyp[:, y, x])


def check_build_compact_concat(rng, cases):
    for _ in range(cases):
        c, h, w = int(rng.integers(1, 5)), int(rng.integers(2, 7)), int(rng.integers(3, 10))
        k = int(rng.integers(1, 5))
        f_l = _rand_feature(rng, c, h, w)
        f_r = _rand_feature(rng, c, h, w)
        d_hyp = rng.integers(0, w + 2, size=(k, h, w)).astype(np.int32)
        vol = fast_acv.build_compact_concat(f_l, f_r, d_hyp)
        assert vol.channels == 2 * c and vol.disparities == k
        for ki in range(k):
            for y in range(h):
                for x in range(w):
                    src = x - int(d_hyp[ki, y, x])
                    for ci in range(c):
                        assert vol.data[ci, ki, y, x] == f_l.data[ci, y, x]
                        expect = f_r.data[ci, y, src] if src >= 0 else 0.0
                        assert vol.data[c + ci, ki, y, x] == expect


def check_fast_attention_filter(rng, cases):
    for _ in range(cases):
        c, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a_f = rng.random((k, h, w)).astype(np.float32)
        vol = volume_core.CostVolume(rng.standard_normal((c, k, h, w)).astype(np.float32))
        out = fast_acv.fast_attention_filter(a_f, vol)
        for ci in range(c):
            for ki in range(k):
                for y in range(h):
                    for x in range(w):
                        assert out.data[ci, ki, y, x] == np.float32(
                            a_f[ki, y, x] * vol.data[ci, ki, y, x])
        ident = fast_acv.fast_attention_filter(np.ones((k, h, w), np.float32), vol)
        assert np.array_equal(ident.data, vol.data)
        zero = fast_acv.fast_attention_filter(np.zeros((k, h, w), np.float32), vol)
        assert np.all(zero.data == 0.0)


def check_predict_from_hypotheses(rng, cases):
    for case in range(cases):
        k, h, w = int(rng.integers(1, 8)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
        raw = rng.standard_normal((1, k, h, w)) * 4
        if case % 2:
            raw = np.round(raw / 4)  # few distinct values: many ties
        v = volume_core.CostVolume(raw.astype(np.float32))
        d_hyp = rng.integers(0, 48, size=(k, h, w)).astype(np.int32)
        # few distinct weights: ties in value and weight both come up
        a_f = rng.integers(0, 3, size=(k, h, w)) / 8.0
        disp = fast_acv.predict_from_hypotheses(v, d_hyp, a_f)
        if k == 1:
            assert np.array_equal(disp.data, d_hyp[0].astype(np.float64))
        for y in range(h):
            for x in range(w):
                # The top two by value, then by weight, then by index.
                order = sorted(range(k), key=lambda i: (-v.data[0, i, y, x],
                                                        -a_f[i, y, x], i))[:2]
                vals = [float(v.data[0, i, y, x]) for i in order]
                m = max(vals)
                e = [math.exp(val - m) for val in vals]
                s = sum(e)
                expect = sum(e[j] / s * float(d_hyp[order[j], y, x])
                             for j in range(len(order)))
                assert abs(disp.data[y, x] - expect) < 1e-9
    # Equal values go to the larger weight, whatever its position.
    v = volume_core.CostVolume(np.array([1.0, 1.0, 1.0], np.float32).reshape(1, 3, 1, 1))
    d_hyp = np.array([10, 20, 30], np.int32).reshape(3, 1, 1)
    a_f = np.array([0.1, 0.3, 0.2]).reshape(3, 1, 1)
    assert fast_acv.predict_from_hypotheses(v, d_hyp, a_f).data[0, 0] == 25.0


def check_predict_from_mask(rng, cases):
    for case in range(cases):
        p, k = _f2i_case(rng, case)
        d, h, w = p.data.shape
        keep = fast_acv.f2i_mask(p, k)
        # Half-integer scores: equal scores at equal and at distinct p, and
        # exact +0 and -0 among them.
        raw = rng.integers(-2, 3, size=(1, d, h, w)) / 2.0
        if case % 2:
            raw = raw + rng.standard_normal(raw.shape) * 4
        raw = raw.astype(np.float32)
        raw[(raw == 0) & (rng.random(raw.shape) < 0.5)] = -0.0
        v = volume_core.CostVolume(raw)
        before = v.data.copy()
        disp = fast_acv.predict_from_mask(v, keep, p)
        assert np.array_equal(v.data.view(np.uint32), before.view(np.uint32))
        for y in range(h):
            for x in range(w):
                # The top two kept bins by value, then by p, then by bin.
                kept = [i for i in range(d) if keep[i, y, x]]
                order = sorted(kept, key=lambda i: (-raw[0, i, y, x], -p.data[i, y, x], i))[:2]
                vals = [float(raw[0, i, y, x]) for i in order]
                e = [math.exp(val - max(vals)) for val in vals]
                expect = sum(e[j] / sum(e) * order[j] for j in range(len(order)))
                assert abs(disp.data[y, x] - expect) < 1e-9
        # Bit for bit the compacted hypotheses' prediction.
        hyp = fast_acv.f2i_topk(p, k)
        cost_k = volume_core.CostVolume(np.take_along_axis(raw[0], hyp.d_hyp, axis=0)[None])
        ref = fast_acv.predict_from_hypotheses(cost_k, hyp.d_hyp, hyp.a_f)
        assert np.array_equal(disp.data.view(np.uint64), ref.data.view(np.uint64))


# ---------------------------------------------------------------------------
# pipeline oracles

def check_census_features(rng, cases):
    for _ in range(cases):
        h, w = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        img = rng.random((h, w)).astype(np.float32)
        feats = pipeline.census_features(img)
        assert feats.channels == 24
        m = 0
        for dy in range(-2, 3):
            for dx in range(-2, 3):
                if dy == 0 and dx == 0:
                    continue
                for y in range(h):
                    for x in range(w):
                        sy = min(max(y + dy, 0), h - 1)
                        sx = min(max(x + dx, 0), w - 1)
                        diff = float(img[sy, sx]) - float(img[y, x])
                        expect = 0.0 if diff == 0 else math.copysign(1.0, diff)
                        assert feats.data[m, y, x] == expect
                m += 1
    flat = pipeline.census_features(np.full((6, 6), 0.5, dtype=np.float32))
    assert np.all(flat.data == 0.0)


def _assert_packs(codes, feats, channels):
    """codes hold census channel c % 24 of feats in bit c, for `channels` bits."""
    assert codes.channels == channels and codes.words.dtype == np.uint32
    assert codes.words.shape == (2,) + feats.shape[1:]
    nonzero, positive = (words.astype(np.int64) for words in codes.words)
    for c in range(32):
        ch = feats[c % feats.shape[0]] if c < channels else np.zeros(feats.shape[1:])
        assert np.array_equal(nonzero >> c & 1, ch != 0)
        assert np.array_equal(positive >> c & 1, ch > 0)


def check_build_feature_pyramid(rng, cases):
    img = rng.random((16, 32)).astype(np.float32)
    base8 = pipeline.census_features(pipeline.box_downsample(img, 8))
    base4 = pipeline.census_features(pipeline.box_downsample(img, 4))
    for mode in pipeline.MODES:
        cfg = pipeline.PipelineConfig(mode, 16, k=4)
        pyr_a = pipeline.build_feature_pyramid(img, cfg)
        pyr_b = pipeline.build_feature_pyramid(img, cfg)
        const = pipeline.build_feature_pyramid(np.full((16, 32), 0.75, np.float32), cfg)
        if mode == "acv":
            # three untiled census levels; the first is the quarter-res
            # map's packed codes
            assert len(pyr_a) == 3
            _assert_packs(pyr_a[0], base4.data, pipeline.CENSUS_CHANNELS)
            assert [lvl.data.shape for lvl in pyr_a[1:]] == [(24, 4, 8)] * 2
        else:
            # the quarter codes tile to the concatenation width; the
            # eighth-resolution codes are untiled
            assert len(pyr_a) == 2
            _assert_packs(pyr_a[0], base4.data, acv.CONCAT_CHANNELS)
            _assert_packs(pyr_a[1], base8.data, pipeline.CENSUS_CHANNELS)
        arrays = [[lvl.words if isinstance(lvl, volume_core.CensusCodes) else lvl.data
                   for lvl in pyr] for pyr in (pyr_a, pyr_b, const)]
        for arr_a, arr_b, arr_const in zip(*arrays):
            assert np.array_equal(arr_a, arr_b)
            assert np.all(arr_const == 0)


def _linear_tap(n, out_len, j, align_corners):
    """Lower input index and weight of output position j of a linear resize."""
    if n == 1:
        return 0, 0.0
    pos = j * (n - 1) / (out_len - 1) if align_corners else j * n / out_len
    i0 = min(int(math.floor(pos)), n - 2)
    return i0, min(pos - i0, 1.0)


def check_resize_hw(rng, cases):
    factor = pipeline.FAST_UPSAMPLE_FACTOR
    for case in range(cases):
        # one-row and one-column low-res volumes (8-pixel frames) tile
        d, h, w = int(rng.integers(1, 5)), 1 + case % 2 * int(rng.integers(1, 5)), \
            int(rng.integers(1, 6))
        data = rng.standard_normal((1, d, h, w)).astype(np.float32)
        data[rng.random(data.shape) < 0.3] = -0.0
        # the whole-volume composition the runner's bands replace
        a_disp = volume_core._resize_linear(data, 1, d * factor, align_corners=False)
        ref = volume_core._resize_linear(a_disp, 2, h * factor, align_corners=True)
        ref = volume_core._resize_linear(ref, 3, w * factor, align_corners=True)
        hq, wq = h * factor, w * factor
        whole = pipeline._resize_hw(a_disp, hq, wq)
        assert np.array_equal(whole.view(np.uint32), ref.view(np.uint32))
        mid = int(rng.integers(0, hq))
        for r0, r1 in ((0, 1), (hq - 1, hq), (mid, mid + 1), (1, hq - 1), (0, hq)):
            rows = pipeline._resize_hw(a_disp, hq, wq, r0, r1)
            assert np.array_equal(rows.view(np.uint32), ref[:, :, r0:r1].view(np.uint32))
        for di in range(d * factor):
            i_d, t_d = _linear_tap(d, d * factor, di, False)
            for y in range(hq):
                i_y, t_y = _linear_tap(h, hq, y, True)
                for x in range(wq):
                    i_x, t_x = _linear_tap(w, wq, x, True)
                    expect = 0.0
                    for a, wa in ((i_d, 1 - t_d), (min(i_d + 1, d - 1), t_d)):
                        for b, wb in ((i_y, 1 - t_y), (min(i_y + 1, h - 1), t_y)):
                            for c, wc in ((i_x, 1 - t_x), (min(i_x + 1, w - 1), t_x)):
                                expect += wa * wb * wc * float(data[0, a, b, c])
                    assert abs(whole[0, di, y, x] - expect) < 1e-5
        # a 2D map, as the runners upsample theirs, resizes as each plane does
        plane = pipeline._resize_hw(a_disp[0, 0], hq, wq)
        assert np.array_equal(plane.view(np.uint32), whole[0, 0].view(np.uint32))
    # A one-sample axis is copied, not interpolated, so a 1x1x1 volume (an
    # 8x8 frame at D=8) tiles its value bitwise, signed zero included.
    for value in (-0.0, 0.0, 1.5):
        one = np.full((1, 1, 1, 1), value, dtype=np.float32)
        a_disp = volume_core._resize_linear(one, 1, factor, align_corners=False)
        for r0, r1 in ((0, 1), (1, factor), (0, factor)):
            rows = pipeline._resize_hw(a_disp, factor, factor, r0, r1)
            tiled = np.full((1, factor, r1 - r0, factor), value, dtype=np.float32)
            assert np.array_equal(rows.view(np.uint32), tiled.view(np.uint32))


def check_box3d_regularize(rng, cases):
    for _ in range(cases):
        c = int(rng.integers(1, 3))
        d, h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(2, 7))
        vol = volume_core.CostVolume(rng.standard_normal((c, d, h, w)).astype(np.float32))
        ident = pipeline.box3d_regularize(vol, 0)
        assert np.array_equal(ident.data, vol.data)
        out = pipeline.box3d_regularize(vol, 1)
        for ci in range(c):
            for di in range(d):
                for y in range(h):
                    for x in range(w):
                        acc = 0.0
                        for dd in (-1, 0, 1):
                            for dy in (-1, 0, 1):
                                for dx in (-1, 0, 1):
                                    sd = min(max(di + dd, 0), d - 1)
                                    sy = min(max(y + dy, 0), h - 1)
                                    sx = min(max(x + dx, 0), w - 1)
                                    acc += float(vol.data[ci, sd, sy, sx])
                        assert abs(out.data[ci, di, y, x] - acc / 27.0) < 1e-6
    const = volume_core.CostVolume(np.full((1, 3, 4, 4), 2.5, dtype=np.float32))
    assert np.max(np.abs(pipeline.box3d_regularize(const, 2).data - 2.5)) < 1e-6


def _stereogram_case(seed, disparity=8):
    # disparity 8 stays an integer shift at 1/8 resolution, so the fast
    # path's low-resolution stage is well posed
    spec = io_formats.StereogramSpec(64, 128, disparity, 0.5, seed)
    return io_formats.generate_stereogram(spec)


def check_run_acv_pipeline(rng, cases):
    for seed in range(min(cases, 2)):
        left, right, gt, mask = _stereogram_case(seed)
        cfg = pipeline.PipelineConfig("acv", 16)
        pred = pipeline.run_acv_pipeline(left, right, cfg)
        interior = metrics.exclude_border(mask, 16)
        assert metrics.epe(pred, gt, interior) < 0.5
        assert pred.data.min() >= 0.0 and pred.data.max() <= cfg.d_max - 1


def check_run_fast_acv_pipeline(rng, cases):
    for seed in range(min(cases, 2)):
        left, right, gt, mask = _stereogram_case(seed)
        cfg = pipeline.PipelineConfig("fast_acv", 16, k=4)
        pred = pipeline.run_fast_acv_pipeline(left, right, cfg)
        interior = metrics.exclude_border(mask, 16)
        assert metrics.epe(pred, gt, interior) < 0.7
        assert pred.data.min() >= 0.0 and pred.data.max() <= cfg.d_max - 1


# ---------------------------------------------------------------------------
# metrics oracles

def _random_eval_case(rng, h, w):
    pred = volume_core.DisparityMap(rng.random((h, w)) * 30)
    gt = volume_core.DisparityMap(rng.random((h, w)) * 30)
    valid = rng.random((h, w)) < 0.8
    if not valid.any():
        valid[0, 0] = True
    return pred, gt, metrics.EvalMask(valid)


def check_epe(rng, cases):
    for _ in range(cases):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        pred, gt, mask = _random_eval_case(rng, h, w)
        got = metrics.epe(pred, gt, mask)
        acc, n = 0.0, 0
        for y in range(h):
            for x in range(w):
                if mask.valid[y, x]:
                    acc += abs(pred.data[y, x] - gt.data[y, x])
                    n += 1
        assert abs(got - acc / n) < 1e-12
    same = volume_core.DisparityMap(np.full((3, 3), 4.0))
    assert metrics.epe(same, same, metrics.EvalMask.full(3, 3)) == 0.0


def check_d1(rng, cases):
    for _ in range(cases):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        pred, gt, mask = _random_eval_case(rng, h, w)
        got = metrics.d1(pred, gt, mask)
        bad, n = 0, 0
        for y in range(h):
            for x in range(w):
                if mask.valid[y, x]:
                    err = abs(pred.data[y, x] - gt.data[y, x])
                    if err > max(3.0, 0.05 * abs(gt.data[y, x])):
                        bad += 1
                    n += 1
        assert abs(got - 100.0 * bad / n) < 1e-9
    m = metrics.EvalMask.full(1, 1)
    assert metrics.d1(volume_core.DisparityMap([[104.0]]),
                      volume_core.DisparityMap([[100.0]]), m) == 0.0
    assert metrics.d1(volume_core.DisparityMap([[14.0]]),
                      volume_core.DisparityMap([[10.0]]), m) == 100.0


def check_bad_x(rng, cases):
    for _ in range(cases):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        pred, gt, mask = _random_eval_case(rng, h, w)
        x_thr = float(rng.random() * 4 + 0.25)
        got = metrics.bad_x(pred, gt, mask, x_thr)
        bad, n = 0, 0
        for y in range(h):
            for xx in range(w):
                if mask.valid[y, xx]:
                    if abs(pred.data[y, xx] - gt.data[y, xx]) > x_thr:
                        bad += 1
                    n += 1
        assert abs(got - 100.0 * bad / n) < 1e-9


def check_smooth_l1(rng, cases):
    for _ in range(cases):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        pred, gt, mask = _random_eval_case(rng, h, w)
        got = metrics.smooth_l1(pred, gt, mask)
        acc, n = 0.0, 0
        for y in range(h):
            for x in range(w):
                if mask.valid[y, x]:
                    e = abs(pred.data[y, x] - gt.data[y, x])
                    acc += 0.5 * e * e if e < 1.0 else e - 0.5
                    n += 1
        assert abs(got - acc / n) < 1e-12
    m = metrics.EvalMask.full(1, 1)
    zero = volume_core.DisparityMap([[0.0]])
    assert metrics.smooth_l1(zero, zero, m) == 0.0
    assert metrics.smooth_l1(volume_core.DisparityMap([[0.5]]), zero, m) == 0.125
    assert metrics.smooth_l1(volume_core.DisparityMap([[2.0]]), zero, m) == 1.5


# ---------------------------------------------------------------------------
# io_formats oracles

def check_pfm_round_trip(rng, cases):
    for _ in range(cases):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        data = (rng.standard_normal((h, w)) * 40).astype(np.float32)
        m = volume_core.DisparityMap(data.astype(np.float64))
        back = io_formats.read_pfm(io_formats.write_pfm(m))
        assert np.array_equal(back.data, data.astype(np.float64))
        assert io_formats.write_pfm(back) == io_formats.write_pfm(m)
    # hand-packed big-endian fixture: positive scale, rows bottom to top
    import struct
    payload = struct.pack(">4f", 3.0, 4.0, 1.0, 2.0)
    parsed = io_formats.read_pfm(b"Pf\n2 2\n1.0\n" + payload)
    assert np.array_equal(parsed.data, np.array([[1.0, 2.0], [3.0, 4.0]]))
    try:
        io_formats.read_pfm(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
        raise AssertionError("color PFM accepted")
    except io_formats.PfmError as exc:
        assert "color" in str(exc)


def check_kitti_png_round_trip(rng, cases):
    for _ in range(cases):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        raw = rng.integers(0, 60000, size=(h, w)).astype(np.uint16)
        raw[rng.random((h, w)) < 0.2] = 0
        m = volume_core.DisparityMap(raw.astype(np.float64) / 256.0)
        mask = metrics.EvalMask(raw > 0)
        blob = io_formats.write_kitti_disp_png(m, mask)
        back, back_mask = io_formats.read_kitti_disp_png(blob)
        assert np.array_equal(back_mask.valid, raw > 0)
        assert np.array_equal(np.round(back.data * 256).astype(np.uint16), raw)
        assert io_formats.write_kitti_disp_png(back, back_mask) == blob
    img = io_formats.GrayImage(rng.random((4, 5)).astype(np.float32))
    try:
        io_formats.read_kitti_disp_png(io_formats.write_gray_png(img))
        raise AssertionError("8-bit PNG accepted as disparity")
    except io_formats.PngError:
        pass


def _unfilter_oracle(raw, h, stride, bpp):
    """Byte-at-a-time PNG unfiltering, straight from the specification's formulas."""
    out = bytearray(h * stride)
    pos = 0
    for y in range(h):
        ftype = raw[pos]
        pos += 1
        line = bytearray(raw[pos:pos + stride])
        pos += stride
        prev = out[(y - 1) * stride:y * stride] if y else bytes(stride)
        for i in range(stride):
            a = line[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            if ftype == 1:  # Sub
                pred = a
            elif ftype == 2:  # Up
                pred = b
            elif ftype == 3:  # Average
                pred = (a + b) >> 1
            elif ftype == 4:  # Paeth
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
            else:
                pred = 0
            line[i] = (line[i] + pred) & 0xFF
        out[y * stride:(y + 1) * stride] = line
    return out


def check_png_unfilter(rng, cases):
    # Residuals in [-2, 2] keep neighbouring bytes close, so Paeth's ties occur.
    alphabets = (np.arange(256), np.array([0, 1, 2, 254, 255]))
    for _ in range(cases):
        for bpp, w, values in itertools.product((1, 2), (1, int(rng.integers(2, 17))), alphabets):
            h = int(rng.integers(1, 9))
            stride = w * bpp
            lines = rng.choice(values, size=(h, stride + 1)).astype(np.uint8)
            lines[:, 0] = rng.integers(0, 5, size=h)
            raw = lines.tobytes()
            got = io_formats._unfilter_scanlines(raw, h, stride, bpp)
            assert got.tobytes() == bytes(_unfilter_oracle(raw, h, stride, bpp))


def check_generate_stereogram(rng, cases):
    for seed in range(cases):
        spec = io_formats.StereogramSpec(12, 40, int(seed % 5), 0.5, seed)
        left, right, gt, mask = io_formats.generate_stereogram(spec)
        left2, right2, _, _ = io_formats.generate_stereogram(spec)
        assert np.array_equal(left.intensities, left2.intensities)
        assert np.array_equal(right.intensities, right2.intensities)
        for y in range(12):
            for x in range(40):
                if mask.valid[y, x]:
                    d = int(gt.data[y, x])
                    assert left.intensities[y, x] == right.intensities[y, x - d]
    # two-region disparity: occlusion band of width (d2 - d1) left of the jump
    h, w, b = 16, 64, 32
    disp = np.full((h, w), 4, dtype=np.int64)
    disp[:, b:] = 12
    left, right, gt, mask = io_formats.generate_stereogram(
        io_formats.StereogramSpec(h, w, disp, 0.5, 1))
    expect_valid = np.ones((h, w), dtype=bool)
    expect_valid[:, :4] = False          # left border of the d=4 region
    expect_valid[:, b - 8:b] = False     # occlusion band, width 12 - 4
    assert np.array_equal(mask.valid, expect_valid)
    for y in range(h):
        for x in range(w):
            if mask.valid[y, x]:
                assert left.intensities[y, x] == right.intensities[y, x - int(gt.data[y, x])]


CHECKS = [
    ("softmax_over_disparity", check_softmax_over_disparity),
    ("soft_argmin", check_soft_argmin),
    ("group_correlation", check_group_correlation),
    ("census_correlation", check_census_correlation),
    ("build_concat_volume", check_build_concat_volume),
    ("unfold_cross", check_unfold_cross),
    ("mapm_level", check_mapm_level),
    ("build_mapm_volume", check_build_mapm_volume),
    ("filtered_correlation", check_filtered_correlation),
    ("generate_attention_weights", check_generate_attention_weights),
    ("attention_filter", check_attention_filter),
    ("regress_initial_disparity", check_regress_initial_disparity),
    ("sample_cross_disparities", check_sample_cross_disparities),
    ("matching_score", check_matching_score),
    ("read_disparity_planes", check_read_disparity_planes),
    ("estimate_uncertainty", check_estimate_uncertainty),
    ("confidence", check_confidence),
    ("propagation_weights", check_propagation_weights),
    ("cross_propagate", check_cross_propagate),
    ("cross_propagate_volume", check_cross_propagate_volume),
    ("f2i_topk", check_f2i_topk),
    ("f2i_mask", check_f2i_mask),
    ("build_compact_concat", check_build_compact_concat),
    ("fast_attention_filter", check_fast_attention_filter),
    ("predict_from_hypotheses", check_predict_from_hypotheses),
    ("predict_from_mask", check_predict_from_mask),
    ("census_features", check_census_features),
    ("build_feature_pyramid", check_build_feature_pyramid),
    ("resize_hw", check_resize_hw),
    ("box3d_regularize", check_box3d_regularize),
    ("run_acv_pipeline", check_run_acv_pipeline),
    ("run_fast_acv_pipeline", check_run_fast_acv_pipeline),
    ("epe", check_epe),
    ("d1", check_d1),
    ("bad_x", check_bad_x),
    ("smooth_l1", check_smooth_l1),
    ("pfm_round_trip", check_pfm_round_trip),
    ("kitti_png_round_trip", check_kitti_png_round_trip),
    ("png_unfilter", check_png_unfilter),
    ("generate_stereogram", check_generate_stereogram),
]


def run_selftest(cases: int = 6, seed: int = 0, emit=print) -> int:
    """Run every oracle check; returns 0 when all pass, 1 otherwise."""
    failures = []
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        try:
            fn(rng, cases)
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures.append((name, exc))
            emit(f"FAIL {name}: {exc}")
        else:
            emit(f"ok {name}: {cases} cases")
    emit(f"{len(CHECKS) - len(failures)}/{len(CHECKS)} operations passed")
    if failures:
        emit(f"selftest failed at {failures[0][0]}")
        return 1
    return 0
