"""Disparity evaluation metrics.

All reductions run over masked pixels only; invalid ground truth is always
expressed through the mask, never through sentinel values inside the
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume_core import DisparityMap


@dataclass
class EvalMask:
    """Boolean per-pixel validity mask for metric reductions."""

    valid: np.ndarray

    def __post_init__(self):
        valid = np.asarray(self.valid)
        if valid.ndim != 2:
            raise ValueError("EvalMask must be (height, width)")
        self.valid = valid.astype(bool)

    @property
    def height(self) -> int:
        return self.valid.shape[0]

    @property
    def width(self) -> int:
        return self.valid.shape[1]

    @property
    def count(self) -> int:
        return int(self.valid.sum())

    @classmethod
    def full(cls, height: int, width: int) -> "EvalMask":
        return cls(np.ones((height, width), dtype=bool))

    def intersect(self, other: "EvalMask") -> "EvalMask":
        return EvalMask(self.valid & other.valid)


def exclude_border(mask: EvalMask, border: int) -> EvalMask:
    """Invalidate a band of the given width along all four image edges."""
    if border < 0:
        raise ValueError("border must be >= 0")
    valid = mask.valid.copy()
    if border > 0:
        valid[:border, :] = False
        valid[-border:, :] = False
        valid[:, :border] = False
        valid[:, -border:] = False
    return EvalMask(valid)


def _masked_errors(pred: DisparityMap, gt: DisparityMap, mask: EvalMask):
    if pred.data.shape != gt.data.shape or pred.data.shape != mask.valid.shape:
        raise ValueError("prediction, ground truth and mask shapes differ")
    if mask.count == 0:
        raise ValueError("empty mask")
    return pred.data[mask.valid], gt.data[mask.valid]


def epe(pred: DisparityMap, gt: DisparityMap, mask: EvalMask) -> float:
    """Mean absolute disparity error over valid pixels."""
    p, g = _masked_errors(pred, gt, mask)
    return float(np.abs(p - g).mean())


def d1(pred: DisparityMap, gt: DisparityMap, mask: EvalMask) -> float:
    """Percentage of valid pixels whose error exceeds max(3 px, 5% of truth)."""
    p, g = _masked_errors(pred, gt, mask)
    err = np.abs(p - g)
    threshold = np.maximum(3.0, 0.05 * np.abs(g))
    return float(100.0 * (err > threshold).mean())


def bad_x(pred: DisparityMap, gt: DisparityMap, mask: EvalMask, x: float) -> float:
    """Percentage of valid pixels with absolute error larger than x."""
    if x <= 0:
        raise ValueError("bad_x threshold must be positive")
    p, g = _masked_errors(pred, gt, mask)
    return float(100.0 * (np.abs(p - g) > x).mean())


def smooth_l1(pred: DisparityMap, gt: DisparityMap, mask: EvalMask) -> float:
    """Mean smooth-L1 penalty: 0.5 e^2 below 1 px error, |e| - 0.5 above."""
    p, g = _masked_errors(pred, gt, mask)
    e = np.abs(p - g)
    rho = np.where(e < 1.0, 0.5 * e * e, e - 0.5)
    return float(rho.mean())
