"""Attention concatenation volume construction.

Builds a multi-level adaptive patch-matching correlation volume and
compresses it into single-channel attention weights that filter a matching
cost volume.  Patch weights are plain configuration here (uniform by
default) and the learned channel reduction is a plain group mean, so every
step stays a deterministic tensor operation.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .volume_core import (
    CensusCodes,
    CostVolume,
    FeatureMap,
    _all_finite,
    _group_sums,
    _sign_sums,
)

_PATCH_LEVELS = (1, 2, 3)
# The paper's ACV layout: 40 correlation groups of 8 channels, split 8/16/16
# over the three patch levels, and 32-channel concatenation features.
GROUP_SPLIT = (8, 16, 16)
CHANNELS_PER_GROUP = 8
CONCAT_CHANNELS = 32
# Adjacent quarter-resolution disparity bins per task of filtered_correlation;
# the per-element arithmetic does not depend on it.  acv's volume_construction
# at 960x512, D=192 and 2 threads (seed-701 scenes, 2-vCPU Xeon, numpy 2.4.6)
# read medians of 72-76 ms at 1 bin, 69-71 at 2, 67-71 at 3 and 72-78 at 4.
_BINS_PER_TASK = 2


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


def _tap_fold(w: PatchWeights, scale):
    """patch(inner): mapm_level's fold of raw group sums over the taps.

    inner is (..., H, W); the result is the weighted sum of its tap shifts,
    each weight times scale, with zero where a tap leaves the frame.
    """
    offsets = (-w.level, 0, w.level)
    # Weight and normalization fold into one factor per tap; a weight of
    # exactly 1.0 therefore reproduces group_correlation bit for bit.
    taps = [(np.float32(w.weights[jj, ii] * scale), offsets[jj], offsets[ii])
            for jj in range(3) for ii in range(3)
            if w.weights[jj, ii] != 0.0]

    def patch(inner):
        h, width = inner.shape[-2:]
        # Taps sharing a factor share its product: uniform weights multiply
        # once.  The adds still run in row-major tap order.
        products = {factor: factor * inner for factor in {t[0] for t in taps}}
        acc = np.zeros_like(inner)
        for factor, dy, dx in taps:
            ys_dst, xs_dst, ys_src, xs_src = _shift_slices(h, width, dy, dx)
            acc[..., ys_dst, xs_dst] += products[factor][..., ys_src, xs_src]
        return acc

    return patch


def _bins_inner(n_groups, d0, d1, h, width, sums_at):
    """(n_groups, d1 - d0, H, W) group sums of bins [d0, d1), zero where x < d.

    sums_at(d) gives bin d's sums over columns x >= d; bins at or past the
    frame's width read +0 throughout.
    """
    out = np.zeros((n_groups, d1 - d0, h, width), dtype=np.float32)
    for d in range(d0, min(d1, width)):
        out[:, d - d0, :, d:] = sums_at(d)
    return out


def _mapm_slicer(f_l: FeatureMap, f_r: FeatureMap, w: PatchWeights, n_groups: int):
    """Check one level's inputs; return (inner, patch).

    inner(d0, d1) is the level's raw (n_groups, d1 - d0, H, W) group sums
    over bins [d0, d1), and patch(inner) folds them over the taps into
    mapm_level's slice of those bins.
    """
    if f_l.data.shape != f_r.data.shape:
        raise ValueError("mapm_level: feature map shapes differ")
    c, h, width = f_l.data.shape
    if n_groups < 1 or c % n_groups != 0:
        raise ValueError(f"mapm_level: {c} channels not divisible into {n_groups} groups")
    fl_g = f_l.data.reshape(n_groups, c // n_groups, h, width)
    fr_g = f_r.data.reshape(n_groups, c // n_groups, h, width)

    def inner(d0, d1):
        return _bins_inner(n_groups, d0, d1, h, width, lambda d: _group_sums(fl_g, fr_g, d))

    return inner, _tap_fold(w, np.float32(n_groups / c))


def _code_slicer(codes_l: CensusCodes, codes_r: CensusCodes, w: PatchWeights):
    """_mapm_slicer for a level of packed sign channels, one group per byte.

    Group g holds channels 8g..8g+7, byte g of each code word, so its sum
    is a bit count (_sign_sums) over byte planes: the exact integer
    _group_sums's einsum reaches on the float maps the codes pack.  The
    words are read as little-endian bytes, whatever the host's order.
    """
    n_groups = codes_l.channels // CHANNELS_PER_GROUP
    _, h, width = codes_l.words.shape

    def byte_planes(codes):
        words = codes.words.astype("<u4", copy=False)
        planes = words.view(np.uint8).reshape(2, h, width, 4)[..., :n_groups]
        return np.ascontiguousarray(planes.transpose(0, 3, 1, 2))

    (nz_l, pos_l), (nz_r, pos_r) = byte_planes(codes_l), byte_planes(codes_r)

    def sums_at(d):
        return _sign_sums(nz_l[..., d:], pos_l[..., d:],
                          nz_r[..., :width - d], pos_r[..., :width - d])

    def inner(d0, d1):
        return _bins_inner(n_groups, d0, d1, h, width, sums_at)

    return inner, _tap_fold(w, np.float32(1.0 / CHANNELS_PER_GROUP))


def mapm_level(f_l: FeatureMap, f_r: FeatureMap, w: PatchWeights,
               d_max: int, n_groups: int) -> CostVolume:
    """Multi-level adaptive patch matching correlation for one pyramid level.

    For every group g, disparity d and pixel (x, y):

        out = (n_groups / channels) * sum_{(i,j)} w_ij *
              <f_l^g(x - i, y - j), f_r^g(x - i - d, y - j)>

    with tap offsets i, j in w.level * {-1, 0, +1}, the weights' own level.
    Taps whose left or right sample falls outside the frame contribute zero.
    """
    inner, patch = _mapm_slicer(f_l, f_r, w, n_groups)
    out = np.zeros((n_groups, d_max) + f_l.data.shape[1:], dtype=np.float32)
    for d0 in range(0, d_max, _BINS_PER_TASK):
        d1 = min(d0 + _BINS_PER_TASK, d_max)
        out[:, d0:d1] = patch(inner(d0, d1))
    return CostVolume(out)


def _check_levels(levels, d_max, name):
    """Validate (left, right, weights) level triples; return each level's group count.

    A level's maps are FeatureMaps or CensusCodes; the shape checks read
    (channels, height, width) from either.
    """
    if len(levels) != len(GROUP_SPLIT):
        raise ValueError(f"expected {len(GROUP_SPLIT)} levels, got {len(levels)}")
    if d_max < 4:
        raise ValueError(f"{name}: d_max must be >= 4")

    def shape(f):
        if isinstance(f, CensusCodes):
            return (f.channels,) + f.words.shape[1:]
        return f.data.shape

    shape_hw = shape(levels[0][0])[1:]
    for f_l, f_r, _ in levels:
        if shape(f_l) != shape(f_r):
            raise ValueError(f"{name}: left/right shapes differ")
        if shape(f_l)[1:] != shape_hw:
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


@contextmanager
def _task_runner(threads: int):
    """Yield run(fn, items), the list of fn(item) in item order.

    With threads > 1 one pool of threads - 1 workers lives for the
    with-block; this is the one place a pool starts.  Each run call hands
    its items out in order to the workers and the calling thread alike, so
    the caller does a share of the work and allocates it on its own heap:
    with the caller idle and 2 workers, acv at 960x512, D=192 read ~12 MiB
    more peak RSS (perfbench acv_hd_2t, 185-187 against 172-174 MiB).
    Tasks write disjoint outputs, so scheduling order cannot change results.
    """
    if threads <= 1:
        yield lambda fn, items: [fn(item) for item in items]
        return
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        def run(fn, items):
            results = [None] * len(items)
            todo = iter(range(len(items)))
            lock = threading.Lock()

            def drain():
                while True:
                    with lock:
                        i = next(todo, None)
                    if i is None:
                        return
                    results[i] = fn(items[i])

            helpers = [pool.submit(drain) for _ in range(threads - 1)]
            drain()
            for helper in helpers:
                helper.result()
            return results

        yield run


def _filtered_cost(levels, d_max: int, run) -> CostVolume:
    """filtered_correlation, its bin tasks handed to run (see _task_runner)."""
    splits = _check_levels(levels, d_max, "filtered_correlation")
    if not all(isinstance(f, CensusCodes) for f in levels[0][:2]):
        raise ValueError("filtered_correlation: level 1 must be CensusCodes")
    if any(isinstance(f, CensusCodes) for level in levels[1:] for f in level[:2]):
        raise ValueError("filtered_correlation: levels 2 and 3 must be FeatureMaps")
    slicers = [_code_slicer(*levels[0])]
    slicers += [_mapm_slicer(f_l, f_r, w, n) for (f_l, f_r, w), n in zip(levels[1:], splits[1:])]
    n1, n_bins = splits[0], d_max // 4
    scale = np.float32(1.0 / CONCAT_CHANNELS)
    out = np.empty((1, n_bins) + levels[0][0].words.shape[1:], dtype=np.float32)

    def task(d0):
        d1 = min(d0 + _BINS_PER_TASK, n_bins)
        cost = out[0, d0:d1]
        # Only level 1's raw sums outlive their fold: corr reads them.
        level1 = slicers[0][0](d0, d1)
        slices = [slicers[0][1](level1)]
        slices += [patch(inner_of(d0, d1)) for inner_of, patch in slicers[1:]]
        _group_mean([v[g % n] for v, n, tiled in zip(slices, splits, GROUP_SPLIT)
                     for g in range(tiled)], cost)
        corr = level1[0].copy()
        for g in range(1, CONCAT_CHANNELS // CHANNELS_PER_GROUP):
            corr += level1[g % n1]
        corr *= scale
        cost *= corr

    run(task, range(0, n_bins, _BINS_PER_TASK))
    return CostVolume(out)


def filtered_correlation(levels: Sequence[Tuple[object, object, PatchWeights]],
                         d_max: int, threads: int = 1) -> CostVolume:
    """acv's filtered cost in one pass: the attention times a one-group correlation.

    levels holds level 1 as 24-channel CensusCodes and levels 2 and 3 as
    FeatureMaps, each with its PatchWeights.  Computes
    attention_filter(a, corr).  The attention a is
    generate_attention_weights(build_mapm_volume(tiled, d_max)), where
    tiled repeats each level's channels (level 1's as the float map its
    codes pack) out to GROUP_SPLIT[k] groups; corr is
    group_correlation(t_l, t_r, d_max // 4, 1), where t tiles level 1's
    channels out to CONCAT_CHANNELS.  No level, attention or correlation
    volume is held: each task takes _BINS_PER_TASK adjacent disparity bins,
    computes each level's distinct groups over them and folds the
    GROUP_SPLIT groups in the tiled volume's order.  Tiled group g of
    level k is level k's group g % n, n its own group count, and the scale
    n / channels is the same, so a is the reference's bit for bit.

    Level 1's group sums are bit counts of its code bytes (_code_slicer):
    exact integers, so the fold over them and corr, their sum in the
    tiled order times 1 / CONCAT_CHANNELS, a power of two, are the float
    reference's bit for bit whatever order that sums in.  With threads > 1
    the tasks run on a pool; each writes its own bins, so the result does
    not depend on the thread count.
    """
    with _task_runner(threads) as run:
        return _filtered_cost(levels, d_max, run)


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
