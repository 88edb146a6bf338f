"""Volume attention propagation and fine-to-important hypothesis selection.

The fast construction path regresses an initial disparity from an upsampled
low-resolution correlation volume, scores cross-shaped neighbor disparities
by feature similarity and distribution confidence, propagates reliable
correlation values, and finally keeps only the top-K disparity hypotheses
per pixel to build a compact filtered concatenation volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .volume_core import (
    CROSS_NAMES,
    CostVolume,
    DisparityMap,
    FeatureMap,
    ProbabilityVolume,
    _all_finite,
    _cross_sample_2d,
    _cross_shifts,
    _pair_readout,
    _softmax0,
    _unchecked,
    soft_argmin,
    softmax_over_disparity,
)

N_CROSS = len(CROSS_NAMES)


@dataclass
class HypothesisSet:
    """Per-pixel K disparity hypotheses with their attention weights.

    a_f rows are sorted descending per pixel, d_hyp holds the matching
    disparity bin indices (distinct per pixel), and per-pixel weight sums
    never exceed 1 beyond rounding.
    """

    d_hyp: np.ndarray
    a_f: np.ndarray

    def __post_init__(self):
        d_hyp = np.asarray(self.d_hyp)
        a_f = np.asarray(self.a_f, dtype=np.float64)
        if d_hyp.ndim != 3 or a_f.shape != d_hyp.shape:
            raise ValueError("HypothesisSet: d_hyp and a_f must both be (K, height, width)")
        if not np.issubdtype(d_hyp.dtype, np.integer):
            raise ValueError("HypothesisSet: d_hyp must be integer disparity indices")
        if np.any(d_hyp < 0):
            raise ValueError("HypothesisSet: negative disparity index")
        if not _all_finite(a_f) or np.any(a_f < 0):
            raise ValueError("HypothesisSet: attention weights must be finite and non-negative")
        if d_hyp.shape[0] > 1:
            if np.any(np.diff(a_f, axis=0) > 0):
                raise ValueError("HypothesisSet: attention weights must be sorted descending")
            # Sort a copy of each pixel's hypotheses as one contiguous row;
            # ascontiguousarray would return the caller's array at H * W = 1.
            per_pixel = np.array(np.moveaxis(d_hyp, 0, -1), order="C")
            per_pixel.sort(axis=-1)
            if np.any(per_pixel[..., 1:] == per_pixel[..., :-1]):
                raise ValueError("HypothesisSet: duplicate disparity hypothesis")
        if np.any(a_f.sum(axis=0) > 1.0 + 1e-5):
            raise ValueError("HypothesisSet: weight sum exceeds 1")
        self.d_hyp = d_hyp.astype(np.int32)
        self.a_f = a_f

    @property
    def k(self) -> int:
        return self.d_hyp.shape[0]


@dataclass
class PropagationField:
    """Matching scores, confidences and combined cross-propagation weights."""

    s: np.ndarray
    c: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.float32)
        c = np.asarray(self.c, dtype=np.float32)
        w = np.asarray(self.w, dtype=np.float32)
        if not (s.shape == c.shape == w.shape) or s.ndim != 3 or s.shape[0] != N_CROSS:
            raise ValueError(f"PropagationField arrays must share shape ({N_CROSS}, height, width)")
        for name, arr in (("s", s), ("c", c), ("w", w)):
            if not _all_finite(arr):
                raise ValueError(f"PropagationField: non-finite {name}")
        self.s, self.c, self.w = s, c, w


def regress_initial_disparity(v_init: CostVolume) -> Tuple[ProbabilityVolume, DisparityMap]:
    """Probability volume and soft-argmin disparity from an initial volume."""
    p = softmax_over_disparity(v_init)
    return p, soft_argmin(p)


def sample_cross_disparities(d_init: DisparityMap, radius: int) -> np.ndarray:
    """Disparity candidates from the center and four cross neighbors.

    Returns a (5, height, width) array ordered (center, up, down, left,
    right); border samples replicate the nearest edge pixel.
    """
    if radius < 1:
        raise ValueError("sample_cross_disparities: radius must be >= 1")
    return _cross_sample_2d(d_init.data, radius).astype(np.float64)


def matching_score(f_l: FeatureMap, f_r: FeatureMap, d: np.ndarray) -> np.ndarray:
    """Channel-normalized inner product at per-pixel disparity planes.

    S(y, x) = (1 / C) * <F_l(y, x), F_r(y, x - d(y, x))> for each plane of
    `d` (M, height, width): VAP's fractional cross candidates or F2I's
    integer hypotheses.  Fractional disparities sample F_r by linear
    interpolation along width; a plane without them reads F_r directly, so
    at hypotheses this equals compress_concat_volume(build_compact_concat)
    bit for bit.  Out-of-frame samples read an appended zero column.

    A test-only reference op: the fast_acv runner reads the same scores
    from one dense one-group correlation with read_disparity_planes, and
    this plain gather over every channel of F_r is that op's oracle.
    """
    if f_l.data.shape != f_r.data.shape:
        raise ValueError("matching_score: feature map shapes differ")
    c, h, w = f_l.data.shape
    d = np.asarray(d)
    if d.ndim != 3 or d.shape[1:] != (h, w):
        raise ValueError("matching_score: disparity planes must be (M, height, width)")
    if not _all_finite(d):
        raise ValueError("matching_score: disparities must be finite")
    flat = np.concatenate([f_r.data.reshape(c, h * w), np.zeros((c, 1), np.float32)], axis=1)
    row_start = (np.arange(h) * w)[:, None]
    xs = np.arange(w, dtype=np.float64)

    def gather(col, inside):
        return flat[:, np.where(inside, row_start + col.astype(np.intp), h * w).ravel()]

    scores = np.empty((d.shape[0], h, w), dtype=np.float32)
    for m, plane in enumerate(d):
        u = xs - plane
        inside = (u >= 0.0) & (u <= w - 1)
        u0 = np.floor(u)
        blend = not np.array_equal(u0, u)
        u0 = np.clip(u0, 0, max(w - 2, 0) if blend else w - 1)
        sampled = gather(u0, inside)
        if blend:
            hi = gather(np.minimum(u0 + 1, w - 1), inside)
            t = np.clip(u - u0, 0.0, 1.0).astype(np.float32).reshape(-1)
            sampled = sampled + t * (hi - sampled)
        scores[m] = _pair_readout(f_l.data, sampled.reshape(c, h, w))
    return scores


def read_disparity_planes(v: CostVolume, d: np.ndarray) -> np.ndarray:
    """A single-channel volume read at per-pixel disparity planes.

    out[m, y, x] = v(d[m, y, x], y, x) for each plane of `d` (M, height,
    width) with values in [0, disparities - 1]: linear between the two
    nearest bins for a fractional d, the bin itself for an integer one, and
    0 wherever x - d < 0.  matching_score is linear in the sampled F_r, so
    on the one-group correlation of (f_l, f_r) this reads
    matching_score(f_l, f_r, d) up to rounding; at integer planes of
    sign-valued features over a power-of-two channel count every sum is
    exact and the two agree bit for bit (up to the sign of zero).
    """
    if v.channels != 1:
        raise ValueError("read_disparity_planes: volume must have a single channel")
    n_d, h, w = v.data.shape[1:]
    d = np.asarray(d)
    if d.ndim != 3 or d.shape[1:] != (h, w):
        raise ValueError("read_disparity_planes: disparity planes must be (M, height, width)")
    if not _all_finite(d):
        raise ValueError("read_disparity_planes: disparities must be finite")
    if d.size and (d.min() < 0 or d.max() > n_d - 1):
        raise ValueError(f"read_disparity_planes: disparities must lie in [0, {n_d - 1}]")
    flat = v.data.reshape(-1)
    d0 = d.astype(np.intp)  # truncation floors d >= 0
    idx = d0 * (h * w)
    idx += np.arange(h * w).reshape(h, w)
    out = np.take(flat, idx)
    t = d - d0 if d.dtype.kind == "f" else 0
    if np.any(t):  # lo + t * (hi - lo), rounded once to float32
        # Only the top bin reads past the volume; "clip" keeps that read in
        # range, and its t = 0 multiplies it away.
        hi = np.take(flat, idx + h * w, mode="clip")
        lo = out.astype(np.float64)
        out = (lo + t * (hi - lo)).astype(np.float32)
    np.copyto(out, 0.0, where=d > np.arange(w))
    return out


def estimate_uncertainty(p_init: ProbabilityVolume, d_init: DisparityMap) -> np.ndarray:
    """Variance of the disparity distribution around the regressed disparity."""
    if p_init.data.shape[1:] != d_init.data.shape:
        raise ValueError("estimate_uncertainty: shape mismatch")
    bins = np.arange(p_init.disparities, dtype=np.float64)[:, None, None]
    return ((bins - d_init.data[None]) ** 2 * p_init.data).sum(axis=0)


def confidence(u: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Affine confidence from uncertainty: C = alpha + beta * U."""
    return (alpha + beta * np.asarray(u, dtype=np.float64)).astype(np.float32)


def propagation_weights(s: np.ndarray, c: np.ndarray) -> PropagationField:
    """Combine matching scores with sigmoid-squashed confidences.

    W_m = S_m * sigmoid(C_m), computed in double precision so saturated
    confidences pass scores through unchanged.
    """
    s = np.asarray(s, dtype=np.float32)
    c = np.asarray(c, dtype=np.float32)
    if s.shape != c.shape:
        raise ValueError("propagation_weights: score/confidence shape mismatch")
    sig = 1.0 / (1.0 + np.exp(-c.astype(np.float64)))
    w = (s.astype(np.float64) * sig).astype(np.float32)
    return PropagationField(s, c, w)


def cross_propagate(v_u: CostVolume, w: PropagationField) -> CostVolume:
    """Convex combination of the unfolded planes, weighted per pixel.

    The weights are a per-pixel softmax over the five cross positions,
    shared across all disparity bins.
    """
    if v_u.channels != N_CROSS:
        raise ValueError(f"cross_propagate: expected {N_CROSS} unfolded channels")
    if w.w.shape[1:] != v_u.data.shape[2:]:
        raise ValueError("cross_propagate: weight/volume shape mismatch")
    probs = _softmax0(w.w.astype(np.float64))
    out = np.einsum("mdhw,mhw->dhw", v_u.data.astype(np.float64), probs)
    return _unchecked(CostVolume, out[None].astype(np.float32))


# Disparity slices per block of cross_propagate_volume.  A (D/4 = 48,
# 24-row, 240-column) band at 960x512 took 1.91 ms at 4 and 1.53 ms at 8
# (2-vCPU Xeon, numpy 2.4.6); the einsum's per-pixel sums do not depend on it.
_PROPAGATE_BLOCK = 8


def cross_propagate_volume(v: CostVolume, radius: int, w: PropagationField) -> CostVolume:
    """cross_propagate(unfold_cross(v, radius), w) without the unfolded volume.

    Works through a few disparity slices at a time: their five edge-clamped
    cross shifts go into a small float64 block that the reference's
    per-pixel contraction reduces, so the result is bitwise equal while the
    five-plane volume and its float64 copy are never held whole.
    """
    if v.channels != 1:
        raise ValueError("cross_propagate_volume: cost volume must have a single channel")
    if radius < 1:
        raise ValueError("cross_propagate_volume: radius must be >= 1")
    d, h, width = v.data.shape[1:]
    if w.w.shape[1:] != (h, width):
        raise ValueError("cross_propagate_volume: weight/volume shape mismatch")
    probs = _softmax0(w.w.astype(np.float64))
    block = np.empty((N_CROSS, min(_PROPAGATE_BLOCK, d), h, width))
    out = np.empty((1, d, h, width), dtype=np.float32)
    for d0 in range(0, d, _PROPAGATE_BLOCK):
        src = v.data[0, d0:d0 + _PROPAGATE_BLOCK]
        n = src.shape[0]
        _cross_shifts(src, radius, block[:, :n])
        out[0, d0:d0 + n] = np.einsum("mdhw,mhw->dhw", block[:, :n], probs)
    return _unchecked(CostVolume, out)


def _count_dtype(n: int):
    """The narrowest signed integer dtype that holds 0..n."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= n)


def f2i_mask(p: ProbabilityVolume, k: int) -> np.ndarray:
    """The K most probable disparity bins per pixel, as a bool mask.

    Returns keep, (disparities, height, width), True at each pixel's K
    bins; ties at the K-th largest probability go to the smaller bins.
    This is the one statement of the F2I rule: f2i_select and f2i_topk
    list this set.  An in-place sort of a C-ordered pixel-major copy gives
    each pixel's K-th largest value and every bin at or above it is kept;
    only the pixels whose ties at that value overflow K drop their larger
    tied bins.  The counts are integer sums in the narrowest type that
    holds the bin count (int8 up to 127 bins), not per-element branches.
    """
    n_d = p.disparities
    if not 1 <= k <= n_d:
        raise ValueError(f"f2i_mask: k must be in [1, {n_d}]")
    bins = p.data.reshape(n_d, -1)
    srt = np.array(bins.T, order="C")
    srt.sort(axis=1)
    kth = srt[:, n_d - k].copy()
    del srt
    keep = bins >= kth
    count = _count_dtype(n_d)
    # Only where ties at the K-th value overflow K are there more than K.
    over = np.flatnonzero(keep.view(np.int8).sum(axis=0, dtype=count) > k)
    if over.size:
        sub, at = bins[:, over], kth[over]
        above = sub > at
        tied = sub == at
        free = k - above.view(np.int8).sum(axis=0, dtype=count)  # >= 1: the K-th value
        tied &= np.cumsum(tied, axis=0, dtype=count) <= free
        keep[:, over] = above | tied
    return keep.reshape(p.data.shape)


def f2i_select(p: ProbabilityVolume, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """f2i_mask's K bins per pixel, listed in ascending bin order.

    Returns (d_hyp, a_f), both (K, height, width): d_hyp holds each pixel's
    bins ascending (int32) and a_f the probabilities at them.  The bins are
    distinct and a_f is a subset of a probability distribution, so a
    HypothesisSet's checks hold by construction.
    """
    n_d, shape = p.disparities, p.data.shape[1:]
    hw = p.data[0].size
    keep = f2i_mask(p, k).reshape(n_d, hw)
    # Pixel-major, the row-major order lists each pixel's K bins ascending.
    idx = np.flatnonzero(keep.T.copy()).reshape(hw, k)
    idx -= np.arange(0, hw * n_d, n_d)[:, None]
    d_hyp = np.ascontiguousarray(idx.T, dtype=np.int32)
    a_f = np.take(p.data.reshape(n_d, hw), d_hyp * np.intp(hw) + np.arange(hw))
    return d_hyp.reshape((k,) + shape), a_f.reshape((k,) + shape)


def f2i_topk(p: ProbabilityVolume, k: int) -> HypothesisSet:
    """Keep the K most probable disparities per pixel, descending.

    Ties between equal probabilities resolve toward the smaller disparity
    index, so results are independent of any internal sort details.  This
    is f2i_mask's set put in order; the fast_acv runner needs only the set
    and calls f2i_mask.
    """
    d_hyp, a_f = f2i_select(p, k)
    # The bins are ascending, so a stable sort by descending probability
    # puts equal probabilities in bin order.
    order = np.argsort(-a_f, axis=0, kind="stable")
    return HypothesisSet(np.take_along_axis(d_hyp, order, axis=0),
                         np.take_along_axis(a_f, order, axis=0))


def build_compact_concat(f_l: FeatureMap, f_r: FeatureMap, d_hyp: np.ndarray) -> CostVolume:
    """Concatenation volume restricted to the per-pixel disparity hypotheses.

    Slice k at (x, y) stacks f_l(x, y) on f_r(x - d_hyp[k](x, y), y); the
    right half is zero where the hypothesis points outside the frame.
    """
    if f_l.data.shape != f_r.data.shape:
        raise ValueError("build_compact_concat: feature map shapes differ")
    d_hyp = np.asarray(d_hyp)
    if not np.issubdtype(d_hyp.dtype, np.integer):
        raise ValueError("build_compact_concat: d_hyp must be integer indices")
    c, h, w = f_l.data.shape
    if d_hyp.ndim != 3 or d_hyp.shape[1:] != (h, w):
        raise ValueError("build_compact_concat: d_hyp must be (K, height, width)")
    k = d_hyp.shape[0]
    volume = np.zeros((2 * c, k, h, w), dtype=np.float32)
    xs = np.arange(w)[None, None, :]
    src = xs - d_hyp
    inside = (src >= 0) & (src <= w - 1)
    src = np.clip(src, 0, w - 1)
    rows = np.arange(h)[None, :, None]
    gathered = f_r.data[:, rows, src]
    volume[:c] = f_l.data[:, None]
    volume[c:] = np.where(inside[None], gathered, 0.0)
    return CostVolume(volume)


def fast_attention_filter(a_f: np.ndarray, c_compact: CostVolume) -> CostVolume:
    """Scale each hypothesis slice of the compact volume by its attention weight.

    The weights are cast to float32 first.  The fast_acv runner passes
    every bin's probability and the dense one-group correlation, whose
    slices at f2i_mask's bins are the compressed compact volume.
    """
    a_f = np.asarray(a_f, dtype=np.float32)
    if a_f.shape != c_compact.data.shape[1:]:
        raise ValueError("fast_attention_filter: weight/volume shape mismatch")
    return CostVolume(a_f[None] * c_compact.data)


def predict_from_hypotheses(v: CostVolume, d_hyp: np.ndarray,
                            a_f: np.ndarray) -> DisparityMap:
    """Softmax-expected disparity over the two strongest aggregated hypotheses.

    Picks the two largest values per pixel from the single-channel
    aggregated volume (one value when K = 1), softmaxes them, and returns
    the expectation of the matching hypothesis disparities (at the volume's
    resolution scale; the caller rescales to full resolution).  Equal
    values go to the larger attention weight a_f, then to the smaller
    hypothesis index, so the result does not depend on the order in which
    the hypotheses are listed when no two share both value and weight.
    """
    if v.channels != 1:
        raise ValueError("predict_from_hypotheses: volume must have a single channel")
    d_hyp = np.asarray(d_hyp)
    a_f = np.asarray(a_f)
    if d_hyp.shape != v.data.shape[1:] or a_f.shape != d_hyp.shape:
        raise ValueError("predict_from_hypotheses: hypothesis/volume shape mismatch")
    vals = v.data[0].astype(np.float64)
    sel, picked = [], []
    for _ in range(min(2, v.disparities)):
        # argmax takes the first maximum; the finite volume never picks -inf.
        i = vals.argmax(axis=0)[None]
        top = np.take_along_axis(vals, i, axis=0)
        tied = vals == top
        many = np.flatnonzero(np.count_nonzero(tied, axis=0) > 1)
        if many.size:  # the largest weight among the tied values, then the first
            cols = (slice(None), *np.unravel_index(many, top.shape[1:]))
            i[cols] = np.where(tied[cols], a_f[cols], -np.inf).argmax(axis=0)
        sel.append(top)
        picked.append(np.take_along_axis(d_hyp, i, axis=0))
        np.put_along_axis(vals, i, -np.inf, axis=0)
    weights = _softmax0(np.concatenate(sel))
    return DisparityMap((weights * np.concatenate(picked)).sum(axis=0))


def _first_max(scores: np.ndarray, p: np.ndarray, rank: np.ndarray):
    """Each column's maximum of (bins, pixels) scores and the bin that holds it.

    The bin is the first maximum: the largest of a descending rank over
    the equal bins.  Where several bins hold the maximum, the larger p
    wins, then the smaller bin; columns whose maximum is -inf have no
    bin left and keep the first.
    """
    top = scores.max(axis=0)
    equal = scores == top
    highest = np.multiply(equal.view(np.int8), rank, dtype=rank.dtype).max(axis=0)
    first = scores.shape[0] - highest.astype(np.intp)
    tied = equal.view(np.int8).sum(axis=0, dtype=rank.dtype) > 1
    many = np.flatnonzero(tied & (top > -np.inf))
    if many.size:
        first[many] = np.where(equal[:, many], p[:, many], -np.inf).argmax(axis=0)
    return top, first


def predict_from_mask(v: CostVolume, keep: np.ndarray, p: ProbabilityVolume) -> DisparityMap:
    """predict_from_hypotheses over the bins of a mask, with no compaction.

    v is the single-channel aggregated volume over every disparity bin,
    keep a (disparities, height, width) bool mask with at least one bin per
    pixel (f2i_mask's K-set) and p the probabilities whose larger value
    breaks equal scores, as a_f does for the listed hypotheses.  The two
    largest kept values per pixel (one when a pixel keeps one bin) are
    softmaxed and the expectation of their bins returned; equal values go
    to the larger p, then to the smaller bin.  With keep = f2i_mask(p, K)
    this is predict_from_hypotheses on f2i_select's hypotheses bit for bit.

    No pass branches per element: the bins outside keep are set to -inf
    through their uint32 bits (OR with an all-ones word, XOR of its
    mantissa), and each pick is a max, a compare and the max of a
    descending integer rank; only the pixels where several bins share the
    maximum are resolved by p.
    """
    if v.channels != 1:
        raise ValueError("predict_from_mask: volume must have a single channel")
    keep = np.asarray(keep)
    if keep.dtype != np.bool_ or keep.shape != v.data.shape[1:] or p.data.shape != keep.shape:
        raise ValueError("predict_from_mask: mask/volume shape mismatch")
    n_d = v.disparities
    hw = p.data[0].size
    drop = keep.reshape(n_d, hw).astype(np.uint32)
    drop -= np.uint32(1)  # 0 where kept, all ones where dropped
    scores = np.bitwise_or(v.data.reshape(n_d, hw).view(np.uint32), drop)
    drop &= np.uint32(0x007FFFFF)
    scores ^= drop  # dropped bins: all ones with the mantissa cleared, -inf
    del drop
    scores = scores.view(np.float32)
    rank = np.arange(n_d, 0, -1, dtype=_count_dtype(n_d))[:, None]
    probs = p.data.reshape(n_d, hw)
    sel, picked = [], []
    for _ in range(min(2, n_d)):
        top, first = _first_max(scores, probs, rank)
        sel.append(top)
        picked.append(first)
        scores[first, np.arange(hw)] = -np.inf
    weights = _softmax0(np.stack(sel).astype(np.float64))
    out = (weights * np.stack(picked)).sum(axis=0)
    return DisparityMap(out.reshape(p.data.shape[1:]))
