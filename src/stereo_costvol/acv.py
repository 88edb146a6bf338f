"""Attention concatenation volume construction.

Builds a multi-level adaptive patch-matching correlation volume and
compresses it into single-channel attention weights that filter a matching
cost volume.  Patch weights are plain configuration here (uniform by
default) and the learned channel reduction is a plain group mean, so every
step stays a deterministic tensor operation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .volume_core import (
    CostVolume,
    FeatureMap,
    _all_finite,
    _group_inner,
)

_PATCH_LEVELS = (1, 2, 3)
# The paper's ACV layout: 40 correlation groups of 8 channels, split 8/16/16
# over the three patch levels, and 32-channel concatenation features.
GROUP_SPLIT = (8, 16, 16)
CHANNELS_PER_GROUP = 8
CONCAT_CHANNELS = 32


@dataclass
class PatchWeights:
    """Nine tap weights over the dilated 3x3 patch of one pyramid level.

    Taps cover offsets level * {-1, 0, +1} in both axes; weights are stored
    as a (3, 3) array indexed (row offset, column offset).
    """

    level: int
    weights: np.ndarray

    def __post_init__(self):
        if self.level not in _PATCH_LEVELS:
            raise ValueError(f"patch level must be one of {_PATCH_LEVELS}")
        w = np.asarray(self.weights, dtype=np.float32).reshape(3, 3)
        if not _all_finite(w):
            raise ValueError("PatchWeights: non-finite weight")
        self.weights = w

    @classmethod
    def uniform(cls, level: int) -> "PatchWeights":
        return cls(level, np.full((3, 3), 1.0 / 9.0, dtype=np.float32))

    @classmethod
    def center_only(cls, level: int) -> "PatchWeights":
        w = np.zeros((3, 3), dtype=np.float32)
        w[1, 1] = 1.0
        return cls(level, w)


def _shift_slices(h, w, dy, dx):
    """Destination/source slice pairs realizing out(y, x) = src(y - dy, x - dx).

    A shift by a whole axis or more gives empty slices; a negative stop
    would otherwise wrap around.
    """
    dy, dx = max(-h, min(dy, h)), max(-w, min(dx, w))
    ys_dst = slice(max(dy, 0), h + min(dy, 0))
    xs_dst = slice(max(dx, 0), w + min(dx, 0))
    ys_src = slice(max(-dy, 0), h + min(-dy, 0))
    xs_src = slice(max(-dx, 0), w + min(-dx, 0))
    return ys_dst, xs_dst, ys_src, xs_src


def _mapm_slicer(f_l: FeatureMap, f_r: FeatureMap, w: PatchWeights, n_groups: int):
    """Check one level's inputs; return (inner_at, patch).

    inner_at(d) is the level's raw (n_groups, H, W) group sums at d, and
    patch(inner) folds them over the taps into mapm_level's slice at d.
    """
    if f_l.data.shape != f_r.data.shape:
        raise ValueError("mapm_level: feature map shapes differ")
    c, h, width = f_l.data.shape
    if n_groups < 1 or c % n_groups != 0:
        raise ValueError(f"mapm_level: {c} channels not divisible into {n_groups} groups")
    cpg = c // n_groups
    scale = np.float32(n_groups / c)
    offsets = (-w.level, 0, w.level)
    # Weight and normalization fold into one factor per tap; a weight of
    # exactly 1.0 therefore reproduces group_correlation bit for bit.
    taps = [(np.float32(w.weights[jj, ii] * scale), offsets[jj], offsets[ii])
            for jj in range(3) for ii in range(3)
            if w.weights[jj, ii] != 0.0]
    fl_g = f_l.data.reshape(n_groups, cpg, h, width)
    fr_g = f_r.data.reshape(n_groups, cpg, h, width)

    def inner_at(d):
        return _group_inner(fl_g, fr_g, d)

    def patch(inner):
        # Taps sharing a factor share its product: uniform weights multiply
        # once.  The adds still run in row-major tap order.
        products = {factor: factor * inner for factor in {t[0] for t in taps}}
        acc = np.zeros_like(inner)
        for factor, dy, dx in taps:
            ys_dst, xs_dst, ys_src, xs_src = _shift_slices(h, width, dy, dx)
            acc[:, ys_dst, xs_dst] += products[factor][:, ys_src, xs_src]
        return acc

    return inner_at, patch


def mapm_level(f_l: FeatureMap, f_r: FeatureMap, w: PatchWeights,
               d_max: int, n_groups: int) -> CostVolume:
    """Multi-level adaptive patch matching correlation for one pyramid level.

    For every group g, disparity d and pixel (x, y):

        out = (n_groups / channels) * sum_{(i,j)} w_ij *
              <f_l^g(x - i, y - j), f_r^g(x - i - d, y - j)>

    with tap offsets i, j in w.level * {-1, 0, +1}, the weights' own level.
    Taps whose left or right sample falls outside the frame contribute zero.
    """
    inner_at, patch = _mapm_slicer(f_l, f_r, w, n_groups)
    out = np.zeros((n_groups, d_max) + f_l.data.shape[1:], dtype=np.float32)
    for d in range(d_max):
        out[:, d] = patch(inner_at(d))
    return CostVolume(out)


def _check_levels(levels, d_max, name):
    """Validate (left, right, weights) level triples; return each level's group count."""
    if len(levels) != len(GROUP_SPLIT):
        raise ValueError(f"expected {len(GROUP_SPLIT)} levels, got {len(levels)}")
    if d_max < 4:
        raise ValueError(f"{name}: d_max must be >= 4")
    shape_hw = levels[0][0].data.shape[1:]
    for f_l, f_r, _ in levels:
        if f_l.data.shape != f_r.data.shape:
            raise ValueError(f"{name}: left/right shapes differ")
        if f_l.data.shape[1:] != shape_hw:
            raise ValueError(f"{name}: levels disagree on spatial size")
        if f_l.channels % CHANNELS_PER_GROUP != 0:
            raise ValueError(f"{name}: {f_l.channels} channels are not groups "
                             f"of {CHANNELS_PER_GROUP}")
    return [f_l.channels // CHANNELS_PER_GROUP for f_l, _, _ in levels]


def build_mapm_volume(levels: Sequence[Tuple[FeatureMap, FeatureMap, PatchWeights]],
                      d_max: int) -> CostVolume:
    """Concatenate per-level patch matching volumes into one grouped volume.

    levels supplies one (left features, right features, patch weights)
    triple per pyramid level.  Level k contributes its channels /
    CHANNELS_PER_GROUP correlation groups; the groups are stacked in level
    order over d_max // 4 disparity bins.  run_acv_pipeline calls
    filtered_correlation instead, which holds no level volume; this volume's
    generate_attention_weights is the oracle for the attention it folds.
    """
    splits = _check_levels(levels, d_max, "build_mapm_volume")
    return CostVolume(np.concatenate(
        [mapm_level(f_l, f_r, w, d_max // 4, n).data
         for (f_l, f_r, w), n in zip(levels, splits)]))


def _group_mean(groups, out):
    """Mean of equal-shaped float32 arrays, written into out.

    The sum starts at +0.0 and runs in order, one float32 add at a time,
    and is then divided by the count: what np.mean(axis=0) computes on
    their stack, except that numpy sums pairwise when each group holds a
    single element.
    """
    out.fill(0.0)
    for g in groups:
        out += g
    np.true_divide(out, len(groups), out=out)


def _run_over_disparities(n_disp, worker, threads):
    """Run worker(d) for every disparity, optionally on a thread pool.

    Each worker writes a disjoint output slice, so scheduling order cannot
    change results.
    """
    if threads <= 1 or n_disp <= 1:
        for d in range(n_disp):
            worker(d)
        return
    with ThreadPoolExecutor(max_workers=min(threads, n_disp)) as pool:
        list(pool.map(worker, range(n_disp)))


def filtered_correlation(levels: Sequence[Tuple[FeatureMap, FeatureMap, PatchWeights]],
                         d_max: int, threads: int = 1) -> CostVolume:
    """acv's filtered cost in one pass: the attention times a one-group correlation.

    Computes attention_filter(a, corr).  The attention a is
    generate_attention_weights(build_mapm_volume(tiled, d_max)), where
    tiled repeats each level's channels out to GROUP_SPLIT[k] groups; corr
    is group_correlation(t_l, t_r, d_max // 4, 1), where t tiles level 1's
    channels out to CONCAT_CHANNELS.  No level, attention or correlation
    volume is held: each disparity computes each level's distinct groups
    and folds the GROUP_SPLIT groups in the tiled volume's order.  Tiled
    group g of level k is level k's group g % n, n its own group count,
    and the scale n / channels is the same, so a is the reference's bit
    for bit.  Likewise corr is the sum of level 1's raw group sums in that
    order times 1 / CONCAT_CHANNELS.

    The result is bitwise the reference's only when those sums are exact,
    as on census features: every product is -1, 0 or +1, so every partial
    sum is a small integer in any order, and the scale is a power of two.
    On other features the two differ by the float32 rounding of the
    reordered sum.
    """
    splits = _check_levels(levels, d_max, "filtered_correlation")
    slicers = [_mapm_slicer(f_l, f_r, w, n) for (f_l, f_r, w), n in zip(levels, splits)]
    n1 = splits[0]
    scale = np.float32(1.0 / CONCAT_CHANNELS)
    out = np.empty((1, d_max // 4) + levels[0][0].data.shape[1:], dtype=np.float32)

    def run(d):
        cost = out[0, d]
        inner = [inner_at(d) for inner_at, _ in slicers]
        slices = [patch(v) for (_, patch), v in zip(slicers, inner)]
        _group_mean([v[g % n] for v, n, tiled in zip(slices, splits, GROUP_SPLIT)
                     for g in range(tiled)], cost)
        level1 = inner[0]
        corr = level1[0].copy()
        for g in range(1, CONCAT_CHANNELS // CHANNELS_PER_GROUP):
            corr += level1[g % n1]
        corr *= scale
        cost *= corr

    _run_over_disparities(d_max // 4, run, threads)
    return CostVolume(out)


def generate_attention_weights(c_patch: CostVolume) -> CostVolume:
    """Compress a grouped correlation volume to one channel.

    The compression is the arithmetic mean over groups, the unweighted
    stand-in for a learned 1x1x1 channel-reduction convolution.
    """
    out = np.empty((1,) + c_patch.data.shape[1:], dtype=np.float32)
    _group_mean(c_patch.data, out[0])
    return CostVolume(out)


def attention_filter(a: CostVolume, c_concat: CostVolume) -> CostVolume:
    """Scale every channel of a volume by the single-channel attention weights.

    acv filters the compressed concatenation cost, so the weights enter
    linearly; filtering the concatenation volume itself and then reading it
    out would square them.  run_acv_pipeline computes the filtered cost with
    filtered_correlation, which this op checks.
    """
    if a.channels != 1:
        raise ValueError("attention_filter: attention volume must have a single channel")
    if a.data.shape[1:] != c_concat.data.shape[1:]:
        raise ValueError("attention_filter: attention/concat shape mismatch")
    return CostVolume(a.data * c_concat.data)
