"""Dense volume containers and the elementary tensor operations on them.

Cost and feature volumes are stored as float32 arrays (sign-valued census
features may instead be packed as CensusCodes bits); probability volumes
and disparity maps are float64 so that regression results survive oracle
comparison at tight tolerances.  The four containers share one
constructor (_Checked): it converts to the container's dtype, checks the
rank and scans the values once; ops whose results stay finite on checked
inputs skip that scan with _unchecked.  Every operation is a pure
function over immutable inputs.  Per-pixel reductions always run over a
fixed axis of a fixed-shape array, and no op here starts a thread, so
results are bitwise reproducible regardless of the thread count used by
callers.  No public op takes a thread count.  Only acv's runner splits
work over a pool, one per run (acv._task_runner): its tasks build the
two feature pyramids, then the filtered cost's groups of adjacent
disparity bins (acv._filtered_cost), and each task writes its own
disjoint output.  One loop (_bins_inner) fills zero-padded group sums
over disparity bins, for group_correlation and acv's MAPM levels alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _all_finite(arr) -> bool:
    """One-pass finiteness check.

    A float64 sum of float32 data can only be non-finite if the data is;
    for float64 data a non-finite sum falls back to the exact check.
    """
    s = arr.sum(dtype=np.float64)
    if np.isfinite(s):
        return True
    return bool(np.all(np.isfinite(arr)))


def _unchecked(cls, data):
    out = object.__new__(cls)
    out.data = data
    return out


@dataclass
class _Checked:
    """The one constructor rule of the four volume containers.

    data is converted to the class's DTYPE, then a rank other than
    len(AXES) and any non-finite value are rejected, and last the class's
    _check_values hook runs.  The last two axes are (height, width).
    """

    data: np.ndarray

    DTYPE = np.float32
    AXES = ()

    def __post_init__(self):
        name = type(self).__name__
        self.data = np.asarray(self.data, dtype=self.DTYPE)
        if self.data.ndim != len(self.AXES):
            raise ValueError(f"{name} data must be ({', '.join(self.AXES)})")
        if not _all_finite(self.data):
            raise ValueError(f"{name}: data contains non-finite values")
        self._check_values()

    def _check_values(self):
        pass

    @property
    def height(self) -> int:
        return self.data.shape[-2]

    @property
    def width(self) -> int:
        return self.data.shape[-1]


class FeatureMap(_Checked):
    """Per-pixel feature vectors, laid out (channels, height, width)."""

    AXES = ("channels", "height", "width")

    @property
    def channels(self) -> int:
        return self.data.shape[0]


class CostVolume(_Checked):
    """4D cost volume, laid out (channels, disparities, height, width).

    The channel axis holds correlation groups, concatenated feature
    channels, or a single attention channel depending on the producer.
    """

    AXES = ("channels", "disparities", "height", "width")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def disparities(self) -> int:
        return self.data.shape[1]

    @property
    def elements(self) -> int:
        return self.data.size


class ProbabilityVolume(_Checked):
    """Softmax-normalized volume, (disparities, height, width), float64."""

    DTYPE = np.float64
    AXES = ("disparities", "height", "width")

    def _check_values(self):
        if np.any(self.data < 0.0):
            raise ValueError("ProbabilityVolume: negative probability")
        sums = self.data.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-5):
            raise ValueError("ProbabilityVolume: per-pixel sums deviate from 1")

    @property
    def disparities(self) -> int:
        return self.data.shape[0]


class DisparityMap(_Checked):
    """Real-valued disparities in pixels of the map's own resolution."""

    DTYPE = np.float64
    AXES = ("height", "width")


def _group_sums(fl_g, fr_g, d):
    """Per-group inner products <f_l(x), f_r(x - d)> over the columns x >= d.

    Inputs are (groups, cpg, height, width) views and d < width; output is
    (groups, height, width - d).  einsum with a fixed contraction order
    keeps the per-pixel reduction deterministic.
    """
    w = fl_g.shape[-1]
    return np.einsum("gchw,gchw->ghw", fl_g[..., d:], fr_g[..., :w - d])


def _bins_inner(n_groups, d0, d1, h, width, sums_at):
    """(n_groups, d1 - d0, H, W) group sums of bins [d0, d1), zero where x < d.

    sums_at(d) gives bin d's sums over columns x >= d; bins at or past the
    frame's width read +0 throughout.
    """
    out = np.zeros((n_groups, d1 - d0, h, width), dtype=np.float32)
    for d in range(d0, min(d1, width)):
        out[:, d - d0, :, d:] = sums_at(d)
    return out


def _softmax0(logits):
    """Softmax over axis 0 of a float64 array, computed in place.

    Stabilized by subtracting the per-pixel maximum before exponentiation.
    The caller hands over `logits`; it is overwritten by the result.
    """
    logits -= logits.max(axis=0, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0, keepdims=True)
    return logits


def softmax_over_disparity(v: CostVolume) -> ProbabilityVolume:
    """Convert a single-channel cost volume to per-pixel disparity probabilities."""
    if v.channels != 1:
        raise ValueError("softmax_over_disparity: cost volume must have a single channel")
    logits = v.data[0].astype(np.float64)
    if not _all_finite(logits):
        raise ValueError("non-finite cost")
    return _unchecked(ProbabilityVolume, _softmax0(logits))


def soft_argmin(p: ProbabilityVolume) -> DisparityMap:
    """Expected disparity under a probability volume (soft argmin regression)."""
    bins = np.arange(p.disparities, dtype=np.float64)
    return _unchecked(DisparityMap, np.einsum("d,dhw->hw", bins, p.data))


def group_correlation(f_l: FeatureMap, f_r: FeatureMap, d_max: int, n_groups: int) -> CostVolume:
    """Group-wise correlation volume between left and right feature maps.

    out(g, d, y, x) = (n_groups / channels) * <f_l^g(y, x), f_r^g(y, x - d)>
    where f^g is the g-th contiguous channel block.  Samples with x - d < 0
    contribute zero.
    """
    if f_l.data.shape != f_r.data.shape:
        raise ValueError("group_correlation: feature map shapes differ")
    c, h, w = f_l.data.shape
    if n_groups < 1 or c % n_groups != 0:
        raise ValueError(f"group_correlation: {c} channels not divisible into {n_groups} groups")
    if d_max < 1:
        raise ValueError("group_correlation: d_max must be >= 1")
    cpg = c // n_groups
    scale = np.float32(n_groups / c)
    fl_g = f_l.data.reshape(n_groups, cpg, h, w)
    fr_g = f_r.data.reshape(n_groups, cpg, h, w)
    volume = _bins_inner(n_groups, 0, d_max, h, w, lambda d: _group_sums(fl_g, fr_g, d))
    volume *= scale
    return CostVolume(volume)


@dataclass
class CensusCodes:
    """Sign-valued features packed as bits, two uint32 words per pixel.

    words is (2, height, width): bit c of words[0] is set where channel c
    is nonzero and bit c of words[1] where it is positive, for the low
    `channels` bits; the bits above them are zero.  A channel in
    {-1, 0, +1} is then its two bits.
    """

    words: np.ndarray
    channels: int

    def __post_init__(self):
        if self.words.dtype != np.uint32 or self.words.ndim != 3 or self.words.shape[0] != 2:
            raise ValueError("CensusCodes words must be uint32 (2, height, width)")
        if not 1 <= self.channels <= 32:
            raise ValueError("CensusCodes: channels must lie in [1, 32]")

    def rows(self, start: int, stop: int) -> "CensusCodes":
        return CensusCodes(self.words[:, start:stop], self.channels)


def _sign_sums(nz_l, pos_l, nz_r, pos_r):
    """Channel sums of the products of packed sign channels, as int8.

    The arguments are broadcastable unsigned "nonzero" and "positive" bit
    arrays of at most 32 bits each.  With both = nz_l & nz_r the sum is
    popcount(both) - 2 * popcount(both & (pos_l ^ pos_r)), the exact
    integer a float sum of the {-1, 0, +1} products reaches in any order.
    """
    both = np.bitwise_and(nz_l, nz_r)
    differ = np.bitwise_xor(pos_l, pos_r)
    differ &= both
    total = np.bitwise_count(both).view(np.int8)
    twice = np.bitwise_count(differ).view(np.int8)
    twice <<= 1
    total -= twice
    return total


def census_correlation(codes_l: CensusCodes, codes_r: CensusCodes, d_max: int) -> CostVolume:
    """group_correlation(f_l, f_r, d_max, 1) of the features the codes pack.

    A product of two sign channels is +1 where both are nonzero with equal
    signs and -1 where both are nonzero with opposite signs, so the channel
    sum is a bit count (_sign_sums): the exact integer the float einsum
    reaches, scaled by the same float32 1 / channels, so the volume is
    equal bit for bit.  The right codes are read for every disparity at once through a sliding-window
    view over a copy zero-padded on the left: out-of-frame samples have no
    nonzero bit and read +0, as group_correlation's fill does.
    """
    if codes_l.words.shape != codes_r.words.shape or codes_l.channels != codes_r.channels:
        raise ValueError("census_correlation: code shapes differ")
    if d_max < 1:
        raise ValueError("census_correlation: d_max must be >= 1")
    _, h, w = codes_l.words.shape
    padded = np.zeros((2, h, w + d_max - 1), dtype=np.uint32)
    padded[:, :, d_max - 1:] = codes_r.words
    # shifted[:, d, y, x] = codes_r.words[:, y, x - d], or 0 where x < d
    shifted = np.lib.stride_tricks.sliding_window_view(padded, w, axis=2)
    shifted = shifted[:, :, ::-1].transpose(0, 2, 1, 3)
    nz_l, pos_l = codes_l.words[:, None]
    total = _sign_sums(nz_l, pos_l, shifted[0], shifted[1])
    out = np.multiply(total, np.float32(1.0 / codes_l.channels), dtype=np.float32)
    return _unchecked(CostVolume, out[None])


def build_concat_volume(f_l: FeatureMap, f_r: FeatureMap, d_max: int) -> CostVolume:
    """Concatenation volume: left features stacked on d-shifted right features.

    The first half of the channels repeats f_l over every disparity level,
    the second half holds f_r(x - d, y), zero filled where x - d < 0.
    """
    if f_l.data.shape != f_r.data.shape:
        raise ValueError("build_concat_volume: feature map shapes differ")
    c, h, w = f_l.data.shape
    volume = np.zeros((2 * c, d_max, h, w), dtype=np.float32)
    volume[:c] = f_l.data[:, None]
    for d in range(d_max):
        if d == 0:
            volume[c:, 0] = f_r.data
        elif d < w:
            volume[c:, d, :, d:] = f_r.data[..., :w - d]
    return CostVolume(volume)


def _pair_readout(left, right):
    """Mean over axis 0 of the channel products left * right, as float32.

    The sum runs channel by channel in float32.  Every concatenation
    readout goes through here, so splitting the work along any other axis
    cannot change a single bit.
    """
    c = left.shape[0]
    return (left * right).sum(axis=0, dtype=np.float32) / np.float32(c)


def _resize_linear(arr, axis, out_len, align_corners=True, start=0, stop=None):
    """Linear resample of one axis, or of its output positions [start, stop).

    align_corners=True maps the first/last samples onto each other.  With
    align_corners=False the axis keeps its index scale (output index j reads
    input coordinate j * n / out_len) and the trailing positions clamp to
    the edge.  Each output position reads only its own two inputs, so a
    range of positions equals that slice of the whole result bit for bit.
    """
    n = arr.shape[axis]
    stop = out_len if stop is None else stop
    if out_len == n:
        return np.take(arr, np.arange(start, stop), axis=axis)
    if n == 1:  # a copy, so the sign of zero survives
        return np.take(arr, np.zeros(stop - start, dtype=np.intp), axis=axis)
    pos = np.arange(start, stop, dtype=np.float64)
    if align_corners:
        pos = pos * (n - 1) / (out_len - 1)
    else:
        pos = pos * n / out_len
    i0 = np.clip(np.floor(pos).astype(np.intp), 0, n - 2)
    t = np.clip(pos - i0, 0.0, 1.0).astype(arr.dtype)
    shape = [1] * arr.ndim
    shape[axis] = stop - start
    lo = np.take(arr, i0, axis=axis)
    hi = np.take(arr, i0 + 1, axis=axis)
    # lo + t * (hi - lo), written into hi: IEEE addition and multiplication
    # commute, so the bits are the same.
    hi -= lo
    hi *= t.reshape(shape)
    hi += lo
    return hi


CROSS_OFFSETS = ((0, 0), (0, -1), (0, 1), (-1, 0), (1, 0))
CROSS_NAMES = ("center", "up", "down", "left", "right")


def _shift_clamped(src, offset, axis, out):
    """out[..., i, ...] = src[..., clip(i + offset, 0, n - 1), ...] along axis -1 or -2.

    Two slice copies: the in-frame part and the edge sample broadcast over
    the |offset| positions past it, so any offset works, even |offset| >= n.
    """
    n = src.shape[axis]
    k = min(abs(offset), n)

    def at(start, stop):
        return (Ellipsis, slice(start, stop)) + (slice(None),) * (-1 - axis)

    if offset >= 0:
        out[at(0, n - k)] = src[at(k, n)]
        out[at(n - k, n)] = src[at(n - 1, n)]
    else:
        out[at(k, n)] = src[at(0, n - k)]
        out[at(0, k)] = src[at(0, 1)]


def _cross_shifts(src, radius, out):
    """Write src's center and four cross samples into out[0..4], edge replicated."""
    for plane, (dx, dy) in zip(out, CROSS_OFFSETS):
        if dx:
            _shift_clamped(src, dx * radius, -1, plane)
        else:
            _shift_clamped(src, dy * radius, -2, plane)


def _cross_sample_2d(arr, radius):
    """Stack arr sampled at the center and four cross offsets, edge replicated."""
    out = np.empty((len(CROSS_OFFSETS),) + arr.shape, dtype=arr.dtype)
    _cross_shifts(arr, radius, out)
    return out


def unfold_cross(v: CostVolume, radius: int) -> CostVolume:
    """Unfold a single-channel volume over a cross-shaped spatial neighborhood.

    Output channel order is (center, up, down, left, right); e.g. the
    "left" channel at (x, y) holds v at (x - radius, y).  Borders replicate
    the nearest edge value.
    """
    if v.channels != 1:
        raise ValueError("unfold_cross: cost volume must have a single channel")
    if radius < 1:
        raise ValueError("unfold_cross: radius must be >= 1")
    planes = _cross_sample_2d(v.data[0], radius)
    return CostVolume(planes)
