"""Seeded piecewise-planar stereo scenes for the benchmark.

Each scene is a slanted background plane with a 3 x 4 grid of foreground
rectangles in front of it.  The rectangles alternate between
fronto-parallel and slanted planes, and their disparities are stratified
over the range the frame admits, so every scene of a set has about the same
difficulty and the set averages stay steady from seed to seed.  A nearer
rectangle hides the background behind its left edge in the right view,
which leaves an occlusion band that the generator's valid mask excludes.

The integer disparity map goes through the repository's own
``StereogramSpec``/``generate_stereogram``, so the ground truth is exact.
Its black and white dots are then mapped to two mid-gray levels, the same
map on both views, so every correspondence stays exact.  Camera images hold
no pure black or white runs, and without them a PNG encoder never picks
filter 0 (None), which the repository's decoder undoes for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from stereo_costvol.io_formats import GrayImage, StereogramSpec, generate_stereogram
from stereo_costvol.metrics import EvalMask
from stereo_costvol.volume_core import DisparityMap

GRID_ROWS, GRID_COLS = 3, 4
# Lowest disparity of any pixel.  KITTI PNG files read zero as "invalid", so
# a ground-truth disparity of 0 would silently drop out of the CLI's eval.
MIN_DISPARITY = 1
DOT_LEVELS = (0.3, 0.7)


@dataclass
class Scene:
    left: GrayImage
    right: GrayImage
    gt: DisparityMap
    mask: EvalMask


def max_disparity(width: int, d_max: int) -> int:
    """Largest disparity a scene may hold: below both D and width / 4."""
    return min(d_max, -(-width // 4)) - 1


def disparity_map(rng: np.random.Generator, height: int, width: int, d_max: int) -> np.ndarray:
    """Integer piecewise-planar disparity map drawn from ``rng``."""
    hi = max_disparity(width, d_max)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    # Background: far plane slanted in both axes, in the lower quarter of the range.
    base = 0.12 * hi + rng.uniform(-1.0, 1.0)
    slope_x = rng.uniform(-0.05, 0.05) * hi / width
    slope_y = rng.uniform(0.03, 0.08) * hi / height
    disp = base + slope_x * (xx - width / 2) + slope_y * yy

    n_cells = GRID_ROWS * GRID_COLS
    # One stratum of [0.3, 0.95] * hi per rectangle, dealt out at random.
    strata = rng.permutation(n_cells)
    cell_h, cell_w = height / GRID_ROWS, width / GRID_COLS
    for cell in range(n_cells):
        row, col = divmod(cell, GRID_COLS)
        rect_h = rng.uniform(0.55, 0.8) * cell_h
        rect_w = rng.uniform(0.45, 0.7) * cell_w
        y0 = row * cell_h + rng.uniform(0.0, cell_h - rect_h)
        x0 = col * cell_w + rng.uniform(0.0, cell_w - rect_w)
        inside = (yy >= y0) & (yy < y0 + rect_h) & (xx >= x0) & (xx < x0 + rect_w)
        level = (0.3 + 0.65 * (strata[cell] + 0.5) / n_cells) * hi + rng.uniform(-1.0, 1.0)
        if cell % 2:
            tilt = rng.uniform(0.1, 0.25) * rng.choice((-1.0, 1.0)) * hi / width
            plane = level + tilt * (xx - x0 - rect_w / 2)
        else:
            plane = np.full_like(disp, level)
        disp = np.where(inside, np.maximum(disp, plane), disp)
    return np.clip(np.rint(disp), MIN_DISPARITY, hi).astype(np.int64)


def make_scene(seed: int, index: int, height: int, width: int, d_max: int) -> Scene:
    """Scene ``index`` of the set drawn from ``seed``; equal arguments give equal bits."""
    rng = np.random.default_rng([seed, index])
    disp = disparity_map(rng, height, width, d_max)
    dot_seed = int(rng.integers(0, 2**63))
    left, right, gt, mask = generate_stereogram(
        StereogramSpec(height, width, disp, dot_density=0.5, seed=dot_seed))
    lo, hi = DOT_LEVELS
    left, right = (GrayImage(lo + (hi - lo) * im.intensities) for im in (left, right))
    return Scene(left, right, gt, mask)


def make_scene_set(seed: int, count: int, height: int, width: int, d_max: int) -> List[Scene]:
    return [make_scene(seed, i, height, width, d_max) for i in range(count)]


def scene_set_summary(scenes: List[Scene]) -> dict:
    """Valid-pixel share and disparity range of a scene set, for the output."""
    valid = float(np.mean([s.mask.valid.mean() for s in scenes]))
    lo = int(min(s.gt.data.min() for s in scenes))
    hi = int(max(s.gt.data.max() for s in scenes))
    return {"scenes": len(scenes), "valid_share": round(valid, 4),
            "disparity_min": lo, "disparity_max": hi}


def quarter_bins(scene: Scene) -> Tuple[np.ndarray, np.ndarray]:
    """True quarter-resolution disparity bins and where they are defined.

    A quarter-resolution pixel covers a 4 x 4 block of the full image.  It
    counts when all 16 pixels are valid; its true bin is the block's mean
    disparity divided by 4, rounded to the nearest bin.
    """
    h, w = scene.gt.data.shape
    blocks = scene.gt.data.reshape(h // 4, 4, w // 4, 4)
    valid = scene.mask.valid.reshape(h // 4, 4, w // 4, 4).all(axis=(1, 3))
    bins = np.rint(blocks.mean(axis=(1, 3)) / 4.0).astype(np.int64)
    return bins, valid
