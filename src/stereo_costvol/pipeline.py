"""End-to-end non-learned stereo matchers built from the volume operations.

Census features stand in for a trained backbone, so the full and fast
attention-volume construction paths run as deterministic tensor
pipelines; nothing stands in for the paper's learned 3D aggregation.  Raw
census correlations live on a much smaller numeric scale than trained
network logits, so each pipeline multiplies its compressed cost volume by
the fixed TEMPERATURE before any softmax; without it the disparity
expectation collapses toward the range midpoint.
"""

from __future__ import annotations

import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .acv import (
    CONCAT_CHANNELS,
    GROUP_SPLIT,
    PatchWeights,
    _filtered_cost,
    _task_runner,
    attention_filter,
    build_mapm_volume,
    generate_attention_weights,
)
from .fast_acv import (
    N_CROSS,
    build_compact_concat,
    confidence,
    cross_propagate,
    cross_propagate_volume,
    estimate_uncertainty,
    f2i_mask,
    f2i_select,
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
from .volume_core import (
    CensusCodes,
    CostVolume,
    DisparityMap,
    FeatureMap,
    _all_finite,
    _cross_sample_2d,
    _pair_readout,
    _resize_linear,
    _unchecked,
    build_concat_volume,
    census_correlation,
    group_correlation,
    soft_argmin,
    softmax_over_disparity,
    unfold_cross,
)

# group_correlation, build_concat_volume, build_compact_concat,
# compress_concat_volume (below), matching_score, unfold_cross,
# cross_propagate, build_mapm_volume, attention_filter, f2i_topk,
# f2i_select and predict_from_hypotheses are reference ops:
# census_correlation equals group_correlation with one group on the
# census maps its codes pack, which equals the compressed dense
# concatenation volume; read_disparity_planes on it equals matching_score
# at VAP's candidates, and the volume itself at f2i_mask's bins is the
# compressed compact volume; cross_propagate_volume streams the unfolded
# propagation; filtered_correlation equals attention_filter of the
# attention (the group mean of the tiled 40-group MAPM volume) and the
# one-group correlation; f2i_mask is the set f2i_topk sorts and
# f2i_select lists; and predict_from_mask on that mask is
# predict_from_hypotheses on the listed hypotheses.  The runners no longer
# call them, but they stay attributes of this module so oracle tests and
# call-site tracing still find them here.  matching_score is a plain
# single-threaded gather: only tests and selftest call it.

# Logical group count of fast_acv's low-resolution correlation; the meter
# books it, while the runner computes the one group it equals.
FAST_CORR_GROUPS = 12
# Fast-path low-resolution correlation runs at 1 / (4 * this) scale.
FAST_UPSAMPLE_FACTOR = 2
# Elements of one band's (D/4, rows, W/4) volume in the fast_acv runner:
# 2 MiB as float64, about one core's L2.  960x512 at D=192 runs in 6 bands.
_BAND_ELEMENTS = 1 << 18
# VAP's cross-sampling radius and the confidence map C = alpha + beta * U.
# A trained network learns alpha and beta; here confidence falls linearly
# with the distribution variance.
VAP_RADIUS = 1
VAP_ALPHA = 1.0
VAP_BETA = -1.0
# Cost-to-logit gain applied before every softmax.  Raw census correlations
# are far smaller than trained logits.  On 384x192 random-dot pairs at D=64
# and disparity 16 (seeds 0-3), both matchers read 0.00 px interior EPE at
# 32, 64 and 128, so that scene cannot choose the gain.  On the seed-701
# bench scenes (320x192, D=192, 6 scenes, mean EPE / D1), acv reads
# 41.2 px / 92.4% at 32, 26.4 / 74.3 at 64, 19.8 / 59.9 at 128 and
# 18.3 / 53.7 at 256; fast_acv reads 31.3-32.0 px / ~73% at all four.
# acv still gains from a larger value, but 64 stays until the matchers get
# an aggregation step, which changes the cost scale the gain is chosen for.
TEMPERATURE = 64.0

MODES = ("acv", "fast_acv")

STAGES = ("feature_extraction", "volume_construction", "aggregation", "prediction")


@dataclass
class PipelineConfig:
    """Everything needed to run one matcher end to end."""

    mode: str
    d_max: int
    k: int = 24
    threads: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name, value in (("d_max", self.d_max), ("k", self.k), ("threads", self.threads)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.d_max < 4 or self.d_max % 4 != 0:
            raise ValueError(f"d_max must be a positive multiple of 4, got {self.d_max!r}")
        if self.mode == "fast_acv":
            low_scale = 4 * FAST_UPSAMPLE_FACTOR
            if self.d_max % low_scale != 0:
                raise ValueError(f"d_max must be divisible by {low_scale} in fast_acv mode, "
                                 f"got {self.d_max!r}")
            if not 1 <= self.k <= self.d_max // 4:
                raise ValueError(f"k must lie in [1, d_max / 4], got {self.k!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads!r}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "d_max": self.d_max,
            "n_groups": sum(GROUP_SPLIT),
            "group_split": list(GROUP_SPLIT),
            "concat_channels": CONCAT_CHANNELS,
            "upsample_factor": FAST_UPSAMPLE_FACTOR,
            "radius": VAP_RADIUS,
            "alpha": VAP_ALPHA,
            "beta": VAP_BETA,
            "k": self.k,
            "feature_backend": "census",
            "temperature": TEMPERATURE,
            "threads": self.threads,
        }


class AllocationMeter:
    """Tracks named volume allocations and the peak number of live elements.

    Counts are logical volume elements of the paper's architecture, not
    bytes held.  acv books its "correlation", "attention", "concat",
    "compressed" and "filtered" volumes in full, though it holds only the
    filtered one: filtered_correlation folds the distinct MAPM groups into
    the attention a few disparity bins at a time, reads the "concat" cost
    as the one-group quarter-resolution correlation of the same level-1
    sums, and multiplies the two in the same pass.  fast_acv reads its
    "compact_concat" cost from that one-group correlation at the
    hypotheses.  That dense correlation is not booked in fast_acv mode,
    where it stands in for the compact volume's feature gathers.  Nor is
    fast_acv's five-plane "unfolded" volume built; the propagation copies
    its cross shifts straight from v_init.  fast_acv's "correlation" is
    booked with FAST_CORR_GROUPS groups although one is computed, and
    fast_acv's counts are the same whether its correlations add float
    census channels or count bits of packed codes: "compact_concat" is
    still 2 * CONCAT_CHANNELS feature channels per hypothesis.  Nor does
    fast_acv hold any whole quarter-resolution volume: it runs from v_init
    to the prediction over bands of rows.  All are booked at full size in
    the order the architecture allocates and frees them.
    """

    def __init__(self):
        self.counts: Dict[str, int] = {}
        self._live = 0
        self.peak = 0

    def alloc(self, name: str, elements: int):
        if name in self.counts:
            raise ValueError(f"duplicate allocation name {name!r}")
        self.counts[name] = int(elements)
        self._live += int(elements)
        self.peak = max(self.peak, self._live)

    def release(self, name: str):
        self._live -= self.counts[name]


@dataclass
class RunReport:
    """Per-stage wall times, volume allocation accounting and a config echo."""

    mode: str = ""
    stage_ms: Dict[str, float] = field(default_factory=dict)
    volume_elements: Dict[str, int] = field(default_factory=dict)
    peak_volume_elements: int = 0
    config: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "stage_ms": dict(self.stage_ms),
            "volume_elements": dict(self.volume_elements),
            "peak_volume_elements": self.peak_volume_elements,
            "config": dict(self.config),
        }

    def lines(self):
        out = [f"mode: {self.mode}"]
        for stage in STAGES:
            if stage in self.stage_ms:
                out.append(f"stage {stage}: {self.stage_ms[stage]:.2f} ms")
        for name, count in self.volume_elements.items():
            out.append(f"volume {name}: {count} elements")
        out.append(f"peak volume elements: {self.peak_volume_elements}")
        cfg = " ".join(f"{k}={v}" for k, v in self.config.items())
        out.append(f"config: {cfg}")
        return out


# ---------------------------------------------------------------------------
# Deterministic feature extraction

# Census channels: the 5x5 window's off-center pixels.
CENSUS_CHANNELS = 24


def _census_neighbors(intensities):
    """The float32 image and views of its 24 census neighbors, row-major.

    The border replicates edge pixels.
    """
    img = np.asarray(intensities, dtype=np.float32)
    if img.ndim != 2:
        raise ValueError("census_features expects a 2D intensity array")
    if not _all_finite(img):
        raise ValueError("census_features: non-finite intensity")
    r = 2
    padded = np.pad(img, r, mode="edge")
    h, w = img.shape
    return img, [padded[r + dy:r + dy + h, r + dx:r + dx + w]
                 for dy in range(-r, r + 1) for dx in range(-r, r + 1) if dy or dx]


def census_features(intensities: np.ndarray) -> FeatureMap:
    """5x5 census transform: one +/-1 sign channel per off-center pixel.

    Channel b holds sign(I(neighbor_b) - I(center)) for the 24 neighbors in
    row-major order; ties map to 0 and the border replicates edge pixels.
    """
    img, neighbors = _census_neighbors(intensities)
    return _unchecked(FeatureMap, np.stack([np.sign(n - img) for n in neighbors]))


def _census_codes(intensities, channels: int) -> CensusCodes:
    """census_features packed as CensusCodes of CENSUS_CHANNELS or 32 bits.

    Bit c holds census channel c % CENSUS_CHANNELS, so 32 bits carry the
    channels tiled to CONCAT_CHANNELS as _tile_channels lays them out.
    """
    img, neighbors = _census_neighbors(intensities)
    words = np.zeros((2,) + img.shape, dtype=np.uint32)
    for c, n in enumerate(neighbors):
        diff = n - img
        words[0] |= (diff != 0).astype(np.uint32) << np.uint32(c)
        words[1] |= (diff > 0).astype(np.uint32) << np.uint32(c)
    if channels > CENSUS_CHANNELS:  # bits 24-31 repeat channels 0-7
        words |= words << np.uint32(CENSUS_CHANNELS)
    return CensusCodes(words, channels)


def _pairwise_sum(terms):
    """Elementwise sum of equal-shape arrays in numpy's pairwise order.

    For n terms this adds as numpy's pairwise sum adds n values: in turn
    below 8; up to 128 in 8 interleaved lanes combined as
    ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)), then the remainder in turn;
    above 128 as the halves split at a multiple of 8.  Returns a new array.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        total = _pairwise_sum(terms[:half])
        total += _pairwise_sum(terms[half:])
        return total

    def in_turn(run):
        total = run[0] + run[1] if len(run) > 1 else run[0].copy()
        for t in run[2:]:
            total += t
        return total

    if n < 8:
        return in_turn(terms)
    m = n - n % 8
    r = [in_turn(terms[j:m:8]) for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for t in terms[m:]:
        total += t
    return total


def box_downsample(img: np.ndarray, factor: int) -> np.ndarray:
    """Mean-pool by an integer factor, edge padding any ragged remainder.

    The padded image is scaled by 1 / factor**2, each row's factor pixels
    of a block are summed in numpy's pairwise order, and the block's
    factor row sums are added in turn onto +0.  That is the order of
    reshape(h / f, f, w / f, f).sum(axis=(1, 3)), so the two are equal bit
    for bit whenever the output has at least 2 columns; numpy sums a
    one-column output as one pairwise run of factor**2 values, which can
    differ in the last bit.
    """
    if factor < 1:
        raise ValueError("downsample factor must be >= 1")
    img = np.asarray(img, dtype=np.float32)
    h, w = img.shape
    hp = -(-h // factor) * factor
    wp = -(-w // factor) * factor
    padded = np.pad(img, ((0, hp - h), (0, wp - w)), mode="edge")
    # Scale before summing: the float32 sum of factor**2 large finite values
    # can overflow where their mean does not.  np.pad returns a fresh array.
    padded *= np.float32(1.0 / (factor * factor))
    rows = _pairwise_sum([padded[:, j::factor] for j in range(factor)])
    out = np.zeros((hp // factor, wp // factor), dtype=np.float32)
    for i in range(factor):
        out += rows[i::factor]
    return out


def _tile_channels(data: np.ndarray, n: int) -> np.ndarray:
    """Channels repeated cyclically to n; tests and selftest build float references with it."""
    return np.take(data, np.arange(n) % data.shape[0], axis=0)


def _resize_hw(data: np.ndarray, height: int, width: int, r0=0, r1=None) -> np.ndarray:
    """Corner-aligned linear resize of the last two axes, output rows [r0, r1).

    Each output row reads only its own two input rows, so a row range equals
    that slice of the whole resize bit for bit.
    """
    rows = _resize_linear(data, data.ndim - 2, height, align_corners=True, start=r0, stop=r1)
    return _resize_linear(rows, data.ndim - 1, width, align_corners=True)


@dataclass
class FeaturePyramid:
    """Census features at the scales one matcher reads, all from one image.

    In acv mode levels holds the three untiled 24-channel patch-matching
    levels, level 1 as packed CensusCodes and levels 2 and 3 as float
    FeatureMaps, and the codes are None; in fast_acv mode levels is None
    and quarter_codes (32 tiled channels) and low_codes (24 channels,
    eighth resolution) hold the packed census codes its correlations read.
    """

    levels: Optional[Tuple[CensusCodes, FeatureMap, FeatureMap]]
    quarter_codes: Optional[CensusCodes] = None
    low_codes: Optional[CensusCodes] = None


def build_feature_pyramid(image: np.ndarray, cfg: PipelineConfig) -> FeaturePyramid:
    """Census features at the scales the configured matcher reads.

    fast_acv correlates packed census codes: the quarter-resolution image's
    with its 24 channels tiled to the CONCAT_CHANNELS concatenation width,
    and the eighth-resolution image's untiled, as one group each.  acv's
    pseudo-levels l1..l3 at quarter resolution are the census maps of the
    quarter image and of its 2x / 4x box-downsampled versions (resized
    back), untiled: filtered_correlation reads their distinct groups in
    place of the paper's 8/16/16 tiled ones, and the concatenation cost
    from l1's group sums.  l1 is packed as 24-channel CensusCodes, whose
    three bytes are its groups; l2 and l3 hold values between the signs
    and stay float maps.
    """
    img = np.asarray(getattr(image, "intensities", image), dtype=np.float32)
    if img.ndim != 2:
        raise ValueError("expected a 2D grayscale image")
    h, w = img.shape
    if 0 in img.shape or h % 8 != 0 or w % 8 != 0:
        raise ValueError("image dimensions must be positive and divisible by 8")
    quarter, low = box_downsample(img, 4), box_downsample(img, 8)
    if cfg.mode != "acv":
        return FeaturePyramid(None, _census_codes(quarter, CONCAT_CHANNELS),
                              _census_codes(low, CENSUS_CHANNELS))

    base16 = census_features(box_downsample(img, 16))
    h4, w4 = h // 4, w // 4
    l2 = _unchecked(FeatureMap, _resize_hw(census_features(low).data, h4, w4))
    l3 = _unchecked(FeatureMap, _resize_hw(base16.data, h4, w4))
    return FeaturePyramid((_census_codes(quarter, CENSUS_CHANNELS), l2, l3))


# ---------------------------------------------------------------------------
# Box filter

def box3d_regularize(v: CostVolume, radius: int) -> CostVolume:
    """Separable mean filter over (d, y, x) windows of side 2*radius + 1.

    Edges replicate; radius 0 is the identity.  Neither matcher calls it;
    it stays as an oracle-checked reference op.
    """
    if radius < 0:
        raise ValueError("box3d radius must be >= 0")
    if radius == 0:
        return CostVolume(v.data.copy())
    out = v.data.astype(np.float64)
    win = 2 * radius + 1
    for axis in (1, 2, 3):
        pad = [(0, 0)] * 4
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode="edge")
        cs = np.cumsum(padded, axis=axis, dtype=np.float64)
        zero_shape = list(cs.shape)
        zero_shape[axis] = 1
        cs = np.concatenate([np.zeros(zero_shape), cs], axis=axis)
        n = v.data.shape[axis]
        upper = np.take(cs, np.arange(win, win + n), axis=axis)
        lower = np.take(cs, np.arange(0, n), axis=axis)
        out = (upper - lower) / win
    return CostVolume(out.astype(np.float32))


def compress_concat_volume(v: CostVolume) -> CostVolume:
    """Reduce a concatenation volume to one matching-cost channel.

    Averages the products of corresponding left/right channel pairs, i.e. a
    fixed correlation readout of the stacked halves.  A plain channel mean
    would cancel on sign-coded features and carry no matching evidence.
    """
    if v.channels % 2 != 0:
        raise ValueError("concatenation volume must have an even channel count")
    half = v.channels // 2
    return CostVolume(_pair_readout(v.data[:half], v.data[half:])[None])


# ---------------------------------------------------------------------------
# Volume accounting

def expected_volume_elements(cfg: PipelineConfig, height: int, width: int) -> Dict[str, int]:
    """Analytic element counts for every volume a pipeline run allocates.

    These are logical (paper-architecture) volume elements, matching what
    AllocationMeter books; the concatenation volumes (read as their
    compressed costs) and fast_acv's "unfolded" volume are never
    materialized, and fast_acv's grouped "correlation" is computed as the
    one group it equals.
    """
    h4, w4 = height // 4, width // 4
    d4 = cfg.d_max // 4
    nc2 = 2 * CONCAT_CHANNELS
    if cfg.mode == "acv":
        return {
            "correlation": sum(GROUP_SPLIT) * d4 * h4 * w4,
            "attention": d4 * h4 * w4,
            "concat": nc2 * d4 * h4 * w4,
            "compressed": d4 * h4 * w4,
            "filtered": d4 * h4 * w4,
        }
    low = 4 * FAST_UPSAMPLE_FACTOR
    dl, hl, wl = cfg.d_max // low, height // low, width // low
    return {
        "correlation": FAST_CORR_GROUPS * dl * hl * wl,
        "low_res_attention": dl * hl * wl,
        "v_init": d4 * h4 * w4,
        "unfolded": 5 * d4 * h4 * w4,
        "propagated": d4 * h4 * w4,
        "compact_concat": nc2 * cfg.k * h4 * w4,
        "compressed": cfg.k * h4 * w4,
        "filtered": cfg.k * h4 * w4,
    }


# ---------------------------------------------------------------------------
# Pipelines

def _check_pair(left, right):
    l = np.asarray(getattr(left, "intensities", left), dtype=np.float32)
    r = np.asarray(getattr(right, "intensities", right), dtype=np.float32)
    if l.ndim != 2 or r.ndim != 2:
        raise ValueError("expected 2D grayscale images")
    if l.shape != r.shape:
        raise ValueError("image size mismatch")
    if 0 in l.shape or l.shape[0] % 8 != 0 or l.shape[1] % 8 != 0:
        raise ValueError("image dimensions must be positive and divisible by 8")
    return l, r


@contextmanager
def _timed(stage_ms: Dict[str, float], stage: str):
    """Add the wall time of the with-block, in ms, to stage_ms[stage]."""
    t0 = time.perf_counter()
    yield
    stage_ms[stage] += (time.perf_counter() - t0) * 1000.0


def _run(left, right, cfg: PipelineConfig, report: Optional[RunReport], mode: str,
         quarter: Callable[..., np.ndarray]) -> DisparityMap:
    """The frame both matchers share around their quarter-resolution part.

    quarter(l_img, r_img, cfg, meter, stage_ms) books the mode's volumes and
    stage times and returns its (H/4, W/4) disparities; the frame scales
    them by 4 and upsamples them in the prediction stage.
    """
    if cfg.mode != mode:
        raise ValueError(f"run_{mode}_pipeline needs mode {mode!r}, got cfg.mode {cfg.mode!r}")
    l_img, r_img = _check_pair(left, right)
    meter = AllocationMeter()
    stage_ms = dict.fromkeys(STAGES, 0.0)
    d_quarter = quarter(l_img, r_img, cfg, meter, stage_ms)
    with _timed(stage_ms, "prediction"):
        full = _unchecked(DisparityMap, _resize_hw(d_quarter * 4.0, *l_img.shape))
    if report is not None:
        report.mode = mode
        report.stage_ms = stage_ms
        report.volume_elements = meter.counts
        report.peak_volume_elements = meter.peak
        report.config = cfg.as_dict()
    return full


def _upsample_fast_volume(v: CostVolume) -> CostVolume:
    """Fast-path volume upsampling by FAST_UPSAMPLE_FACTOR to quarter resolution.

    Spatial axes interpolate corner-aligned; the disparity axis keeps its
    index scale (output bin j reads input coordinate j / factor, clamped at
    the top) so that bin indices remain integer pixel disparities for
    hypothesis selection and compact gathers.  The runner resizes along
    disparity once and asks _resize_hw for one band of rows at a time, so
    it never holds this whole volume.
    """
    factor = FAST_UPSAMPLE_FACTOR
    a_disp = _resize_linear(v.data, 1, v.disparities * factor, align_corners=False)
    return CostVolume(_resize_hw(a_disp, v.height * factor, v.width * factor))


def _acv_quarter(l_img, r_img, cfg: PipelineConfig, meter: AllocationMeter,
                 stage_ms: Dict[str, float]) -> np.ndarray:
    """acv's quarter-resolution disparities (see run_acv_pipeline)."""
    # One pool per run: the two pyramids are its first tasks, then
    # filtered_correlation's groups of disparity bins.
    with _task_runner(cfg.threads) as run:
        with _timed(stage_ms, "feature_extraction"):
            pyr_l, pyr_r = run(lambda img: build_feature_pyramid(img, cfg), (l_img, r_img))

        with _timed(stage_ms, "volume_construction"):
            weights = [PatchWeights.uniform(k) for k in (1, 2, 3)]
            levels = [(pyr_l.levels[i], pyr_r.levels[i], weights[i]) for i in range(3)]
            del pyr_l, pyr_r
            cost = _filtered_cost(levels, cfg.d_max, run)
            del levels
            # The meter books the logical volumes in the order the architecture
            # allocates them, though the one pass holds only the filtered cost.
            meter.alloc("correlation", sum(GROUP_SPLIT) * cost.elements)
            meter.alloc("attention", cost.elements)
            meter.release("correlation")
            meter.alloc("concat", 2 * CONCAT_CHANNELS * cost.elements)
            meter.alloc("compressed", cost.elements)
            meter.release("concat")
            meter.alloc("filtered", cost.elements)
            meter.release("compressed")

    with _timed(stage_ms, "prediction"):
        cost.data *= np.float32(TEMPERATURE)
        p = softmax_over_disparity(cost)
        del cost
        return soft_argmin(p).data


def run_acv_pipeline(left, right, cfg: PipelineConfig,
                     report: Optional[RunReport] = None) -> DisparityMap:
    """Full attention-concatenation-volume matcher at full output resolution.

    Features -> patch-matching volume -> attention weights -> compressed
    concatenation cost -> attention filtering -> tempered softmax and
    soft-argmin -> x4 scale and bilinear upsampling.

    The attention is the group mean of the paper's 40-group patch-matching
    volume.  Its groups tile the 24 census channels, so the 3 distinct
    groups per level are computed one disparity at a time and the 40 are
    folded in their tiled order, bit for bit the mean of the full volume.

    The compressed concatenation volume is its fixed channel-pair readout,
    i.e. a one-group correlation of the 32 channels tiled from level 1.
    Filtering after that readout lets the attention enter the cost
    linearly, as in fast_acv; filtering the concatenation volume first
    would scale both halves and square it, losing its sign and flattening
    the peaks.

    filtered_correlation does all of this in one pass over the disparities:
    the correlation is the sum of the level-1 group sums the attention
    already computed, and those are bit counts of level 1's packed census
    codes, exact integers, so the filtered cost is bit for bit
    attention_filter(generate_attention_weights(build_mapm_volume(...)),
    group_correlation(...)) on the tiled float maps.  It holds no level
    volume and no attention or correlation volume.  Its time books to the
    volume_construction stage; the aggregation stage, where the filter
    ran, reads 0.

    With cfg.threads > 1 the run opens one pool (acv._task_runner): its
    first two tasks build the left and right pyramids, then each task
    computes filtered_correlation over acv._BINS_PER_TASK adjacent bins.
    The pool closes before the softmax, which runs on the calling thread.
    Every task writes its own output, so the map is the same bits at
    every thread count.

    Raises ValueError if cfg.mode is not "acv".
    """
    return _run(left, right, cfg, report, "acv", _acv_quarter)


def _fast_acv_rows(pyr_l: FeaturePyramid, pyr_r: FeaturePyramid, a_disp: np.ndarray,
                   y0: int, y1: int, cfg: PipelineConfig,
                   stage_ms: Dict[str, float]) -> np.ndarray:
    """Quarter-resolution disparity rows [y0, y1) of the fast_acv matcher.

    VAP's cross reaches VAP_RADIUS rows up and down and clamps at the
    frame, so everything up to the propagation runs on the rows widened by
    that halo (clipped at the frame); from the softmax on, every op works
    per pixel on the band's own rows.  Stage times add to stage_ms.
    """
    with _timed(stage_ms, "volume_construction"):
        h4, w4 = pyr_l.quarter_codes.words.shape[1:]
        r0, r1 = max(y0 - VAP_RADIUS, 0), min(y1 + VAP_RADIUS, h4)
        own = slice(y0 - r0, y1 - r0)
        v_init = _unchecked(CostVolume, _resize_hw(a_disp, h4, w4, r0, r1))
        v_init.data *= np.float32(TEMPERATURE)
        p_init, d_init = regress_initial_disparity(v_init)
        u = estimate_uncertainty(p_init, d_init)
        del p_init
        # VAP's scores and the compact cost are both read from this one volume.
        corr_q = census_correlation(pyr_l.quarter_codes.rows(r0, r1),
                                    pyr_r.quarter_codes.rows(r0, r1), cfg.d_max // 4)
        planes = sample_cross_disparities(d_init, VAP_RADIUS)
        # The soft-argmin can pass the top bin by a rounding error.
        np.minimum(planes, corr_q.disparities - 1, out=planes)
        scores = read_disparity_planes(corr_q, planes)
        conf = _cross_sample_2d(confidence(u, VAP_ALPHA, VAP_BETA), VAP_RADIUS)
        pw = propagation_weights(scores, conf)
        v_prop = cross_propagate_volume(v_init, VAP_RADIUS, pw)
        del v_init
        p_prop = softmax_over_disparity(_unchecked(CostVolume, v_prop.data[:, :, own]))
        del v_prop
        keep = f2i_mask(p_prop, cfg.k)
        corr_q = _unchecked(CostVolume, corr_q.data[:, :, own])

    # Filtering happens after compression so the attention enters the
    # per-hypothesis costs linearly rather than squared.  Every bin is
    # filtered; the prediction reads only the kept ones, where the
    # correlation is the compressed compact cost.
    with _timed(stage_ms, "aggregation"):
        cost = fast_attention_filter(p_prop.data, corr_q)
        del corr_q

    with _timed(stage_ms, "prediction"):
        cost.data *= np.float32(TEMPERATURE)
        return predict_from_mask(cost, keep, p_prop).data


def _fast_acv_quarter(l_img, r_img, cfg: PipelineConfig, meter: AllocationMeter,
                      stage_ms: Dict[str, float]) -> np.ndarray:
    """fast_acv's quarter-resolution disparities (see run_fast_acv_pipeline)."""
    with _timed(stage_ms, "feature_extraction"):
        pyr_l = build_feature_pyramid(l_img, cfg)
        pyr_r = build_feature_pyramid(r_img, cfg)

    with _timed(stage_ms, "volume_construction"):
        d_low = cfg.d_max // (4 * FAST_UPSAMPLE_FACTOR)
        corr = census_correlation(pyr_l.low_codes, pyr_r.low_codes, d_low)
        meter.alloc("correlation", FAST_CORR_GROUPS * corr.elements)
        a_low = generate_attention_weights(corr)
        meter.alloc("low_res_attention", a_low.elements)
        meter.release("correlation")
        del corr
        a_disp = _resize_linear(a_low.data, 1, cfg.d_max // 4, align_corners=False)
        del a_low

    # The meter books the whole logical volumes; each band holds a slice.
    h, w = l_img.shape
    d4, h4, w4 = cfg.d_max // 4, h // 4, w // 4
    quarter, compact = d4 * h4 * w4, cfg.k * h4 * w4
    meter.alloc("v_init", quarter)
    meter.release("low_res_attention")
    meter.alloc("unfolded", N_CROSS * quarter)
    meter.alloc("propagated", quarter)
    meter.release("unfolded")
    meter.release("v_init")
    meter.release("propagated")
    meter.alloc("compact_concat", 2 * CONCAT_CHANNELS * compact)
    meter.alloc("compressed", compact)
    meter.release("compact_concat")
    meter.alloc("filtered", compact)
    meter.release("compressed")

    band = max(1, _BAND_ELEMENTS // (d4 * w4))
    d_quarter = np.empty((h4, w4))
    for y0 in range(0, h4, band):
        y1 = min(y0 + band, h4)
        d_quarter[y0:y1] = _fast_acv_rows(pyr_l, pyr_r, a_disp, y0, y1, cfg, stage_ms)
    return d_quarter


def run_fast_acv_pipeline(left, right, cfg: PipelineConfig,
                          report: Optional[RunReport] = None) -> DisparityMap:
    """Fast attention-volume matcher: low-res correlation, VAP, top-K filter.

    Low-resolution group correlation -> attention compression ->
    upsampling -> volume attention propagation -> top-K hypothesis
    selection -> compact filtered concatenation volume -> top-2 softmax
    prediction -> x4 scale and bilinear upsampling.

    Only what the result reads is computed.  The FAST_CORR_GROUPS groups of
    the paper's correlation are tiled copies of the eighth-resolution
    census channels (four copies each of its three 8-channel blocks), so
    their group mean is the one-group correlation of the untiled channels.
    The propagation copies v_init's edge-clamped cross shifts with slices
    in place of the unfolded volume.  VAP's feature-similarity scores and
    the compact volume's compressed cost are both the one-channel readout
    (1 / C)<F_l(x), F_r(x - d)>, so both are read with
    read_disparity_planes from one dense one-group quarter-resolution
    correlation over the 32 tiled channels, the one acv builds: linearly
    between bins at VAP's fractional candidates, directly at the integer
    hypotheses.  The K hypotheses are never listed: f2i_mask marks them
    in a (D/4, rows, W/4) mask, fast_attention_filter scales every bin of
    the correlation by its probability, and predict_from_mask takes the
    top two of the kept bins, breaking equal scores by the larger
    probability, then the smaller bin, as predict_from_hypotheses does on
    f2i_topk's sorted list.

    Both correlations are census_correlation over the pyramid's packed
    census codes: bit counts give the exact integer channel sums the float
    group_correlation adds, so the volumes, and the map, are bit for bit
    those of the float census maps.  Each is one vectorized pass over all
    disparities, so the runner starts no thread pool and cfg.threads
    changes nothing here.

    Everything from the upsampling to the top-2 prediction runs over bands
    of quarter-resolution rows (_fast_acv_rows), each sized so that its
    (D/4, rows, W/4) volume has at most _BAND_ELEMENTS elements; the
    low-resolution attention is resized along disparity once per pair.  No
    whole quarter-resolution volume is held, and the map is bit for bit the
    whole-volume chain's.  The meter still books the paper's whole logical
    "v_init", "unfolded", "propagated" and "compact_concat" volumes and
    the grouped "correlation", in the order the architecture allocates and
    frees them, and not the dense correlation that stands in for the
    compact volume's feature gathers.

    Raises ValueError if cfg.mode is not "fast_acv".
    """
    return _run(left, right, cfg, report, "fast_acv", _fast_acv_quarter)


def run_pipeline(left, right, cfg: PipelineConfig,
                 report: Optional[RunReport] = None) -> DisparityMap:
    """Dispatch on cfg.mode."""
    quarter = _acv_quarter if cfg.mode == "acv" else _fast_acv_quarter
    return _run(left, right, cfg, report, cfg.mode, quarter)
