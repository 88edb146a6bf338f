"""Tests of the benchmark's own parts: scenes, PNG writer, span arithmetic, checks.

Run with the repository's sources importable, e.g.
``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import types
import zlib

import numpy as np
import pytest

from stereo_costvol.io_formats import GrayImage, read_gray_image, read_kitti_disp_png
from stereo_costvol.metrics import EvalMask
from stereo_costvol.volume_core import DisparityMap

import bench_png
import bench_scenes
from bench_trace import Span, Tracer, per_pair, self_times
from bench_workloads import Outcome, Workload, check_outcome, run_phase


# ---------------------------------------------------------------------------
# Scenes

def _scene_arrays(scene):
    return (scene.left.intensities, scene.right.intensities, scene.gt.data, scene.mask.valid)


def test_same_seed_gives_bitwise_identical_pairs():
    a = bench_scenes.make_scene_set(11, 2, 64, 160, 64)
    b = bench_scenes.make_scene_set(11, 2, 64, 160, 64)
    for sa, sb in zip(a, b):
        for x, y in zip(_scene_arrays(sa), _scene_arrays(sb)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    other = bench_scenes.make_scene(12, 0, 64, 160, 64)
    assert other.left.intensities.tobytes() != a[0].left.intensities.tobytes()


@pytest.mark.parametrize("height,width,d_max", [(64, 160, 64), (96, 320, 192)])
def test_scene_disparities_stay_inside_what_the_frame_admits(height, width, d_max):
    scene = bench_scenes.make_scene(3, 1, height, width, d_max)
    hi = min(d_max, width / 4)
    disp = scene.gt.data
    assert np.array_equal(disp, np.rint(disp))
    assert disp.min() >= bench_scenes.MIN_DISPARITY
    assert disp.max() < hi
    assert disp.max() - disp.min() > hi / 2
    # Occlusion bands: invalid pixels exist beyond the unmatched left strip.
    strip = np.arange(width)[None, :] < disp
    assert np.any(~scene.mask.valid & ~strip)


def test_quarter_bins_follow_block_means():
    scene = bench_scenes.make_scene(5, 0, 64, 160, 64)
    bins, valid = bench_scenes.quarter_bins(scene)
    assert bins.shape == valid.shape == (16, 40)
    y, x = np.argwhere(valid)[0]
    block = scene.gt.data[4 * y:4 * y + 4, 4 * x:4 * x + 4]
    assert bins[y, x] == np.rint(block.mean() / 4.0)


# ---------------------------------------------------------------------------
# Adaptive-filter PNG writer

def _png_with_one_filter(arr, bit_depth, ftype):
    """PNG whose every row uses filter ``ftype``, built from filter_rows."""
    h, w = arr.shape
    bpp = bit_depth // 8
    raw = np.ascontiguousarray(arr.astype(">u2" if bit_depth == 16 else np.uint8))
    rows = bench_png.filter_rows(raw.view(np.uint8).reshape(h, w * bpp), bpp)[ftype]
    lines = np.concatenate([np.full((h, 1), ftype, np.uint8), rows], axis=1)
    ihdr = np.array([w, h], ">u4").tobytes() + bytes([bit_depth, 0, 0, 0, 0])
    return (bench_png.SIGNATURE + bench_png._chunk(b"IHDR", ihdr)
            + bench_png._chunk(b"IDAT", zlib.compress(lines.tobytes()))
            + bench_png._chunk(b"IEND", b""))


@pytest.mark.parametrize("ftype", range(bench_png.N_FILTERS))
def test_each_filter_round_trips_through_the_repository_decoder(ftype):
    rng = np.random.default_rng(ftype)
    img = rng.integers(0, 256, (9, 13), dtype=np.uint8)
    back = read_gray_image(_png_with_one_filter(img, 8, ftype))
    assert np.array_equal(back.intensities, img.astype(np.float32) / 255.0)
    disp = rng.integers(1, 65536, (7, 11)).astype(np.uint16)
    parsed, mask = read_kitti_disp_png(_png_with_one_filter(disp, 16, ftype))
    assert np.array_equal(parsed.data * 256.0, disp) and mask.valid.all()


def test_adaptive_writer_round_trip_and_filter_choice():
    scene = bench_scenes.make_scene(2, 0, 64, 160, 64)
    blob, types_ = bench_png.image_to_png(scene.left.intensities)
    src = np.round(scene.left.intensities * 255.0)
    assert np.array_equal(read_gray_image(blob).intensities, src.astype(np.float32) / 255.0)
    raw = bench_png.kitti_raw(scene.gt.data, scene.mask.valid)
    gt_blob, gt_types = bench_png.encode_gray(raw, 16)
    disp, mask = read_kitti_disp_png(gt_blob)
    assert np.array_equal(disp.data * 256.0, raw)
    assert np.array_equal(mask.valid, scene.mask.valid)
    # Rows choose among several filters, never only None.
    assert len(set(types_.tolist()) | set(gt_types.tolist())) >= 3
    assert np.any(types_ != 0)


def test_filter_choice_is_the_minimum_sum_of_absolute_signed_bytes():
    rng = np.random.default_rng(4)
    raw = rng.integers(0, 256, (6, 10), dtype=np.uint8)
    filtered = bench_png.filter_rows(raw, 1)
    chosen = bench_png.choose_filters(filtered)
    for y in range(raw.shape[0]):
        costs = [sum(abs(int(b) - 256 if b > 127 else int(b)) for b in filtered[t, y])
                 for t in range(bench_png.N_FILTERS)]
        assert chosen[y] == costs.index(min(costs))


# ---------------------------------------------------------------------------
# Span arithmetic and the tracer

def _span(i, parent, start, end, name="f", pair=0):
    return Span(i, name, pair, parent, start, end)


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span(0, None, 0.0, 10.0),   # root
        _span(1, 0, 1.0, 3.0),       # two children overlapping (as on a pool)
        _span(2, 0, 2.0, 5.0),
        _span(3, 0, 6.0, 8.0),       # a child with its own child
        _span(4, 3, 6.5, 7.0),
        _span(5, None, 20.0, 21.0),  # a second root, no children
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 2, 2.0, 3.0, 1.5, 0.5, 1.0])


def test_per_pair_sums_and_zero_for_idle_layers():
    spans = [_span(0, None, 0, 1, "a", pair=0), _span(1, None, 1, 3, "a", pair=0),
             _span(2, None, 5, 6, "b", pair=1)]
    values = [1.0, 2.0, 4.0]
    assert per_pair(spans, values, ["a"], [0, 1]) == [3.0, 0.0]
    assert per_pair(spans, values, ["a", "b"], [0, 1, 2]) == [3.0, 4.0, 0.0]


def test_tracer_records_nested_calls_and_restores():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.instrument(mod, "inner", "m.inner", lambda a, k, r: {"arg": a[0]})
    tracer.instrument(mod, "outer", "m.outer", alloc=True)
    assert mod.outer(1) == 4 and tracer.spans == []  # no pair active: nothing recorded
    tracer.pair = 7
    assert mod.outer(2) == 6
    tracer.pair = None
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, outer_span.parent, outer_span.pair) == ("m.outer", None, 7)
    assert (inner_span.name, inner_span.parent, inner_span.attrs) == ("m.inner", 0, {"arg": 2})
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end
    assert outer_span.attrs["alloc_peak_bytes"] >= 0
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(outer_span.duration - inner_span.duration)


# ---------------------------------------------------------------------------
# Output checks and failure accounting

def _tiny_workload():
    return Workload("tiny", "fast_acv", 4, 2, 8, 2, 1, 2)


@pytest.mark.parametrize("disparity,error", [
    (np.zeros((2, 3)), "shape"),
    (np.full((2, 4), np.nan), "non-finite"),
    (np.full((2, 4), 8.5), "outside"),
    (np.full((2, 4), -0.1), "outside"),
])
def test_check_outcome_rejects_bad_outputs(disparity, error):
    msg = check_outcome(_tiny_workload(), Outcome(disparity, "x"), {}, 0)
    assert msg is not None and error in msg


def test_check_outcome_requires_bitwise_repeats():
    wl, first = _tiny_workload(), {}
    good = np.full((2, 4), 3.0)
    assert check_outcome(wl, Outcome(good, "a"), first, 0) is None
    assert check_outcome(wl, Outcome(good, "a"), first, 0) is None
    assert "differs" in check_outcome(wl, Outcome(good, "b"), first, 0)
    assert check_outcome(wl, Outcome(error="cli exit codes match=2 eval=0"), first, 1)


def test_run_phase_counts_raises_and_bad_outputs_as_failures():
    scene = bench_scenes.Scene(GrayImage(np.zeros((2, 4))), GrayImage(np.zeros((2, 4))),
                               DisparityMap(np.full((2, 4), 3.0)),
                               EvalMask(np.ones((2, 4), bool)))

    class Runner:
        scenes = [scene, scene, scene]

        def run(self, i):
            if i == 1:
                raise ValueError("boom")
            return i

        def inspect(self, i, raw):
            return Outcome(np.full((2, 4), 3.0 if raw == 0 else 99.0), "d")

    accuracy = {}
    lat, _, _, attempted, failures = run_phase(_tiny_workload(), Runner(), 0.0, {}, accuracy)
    assert attempted == 3 and len(lat) == 1 and len(failures) == 2
    assert "boom" in failures[0] and "outside" in failures[1]
    assert accuracy == {0: (0.0, 0.0)}
