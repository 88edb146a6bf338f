import numpy as np
import pytest

from stereo_costvol import metrics
from stereo_costvol.metrics import (
    EvalMask,
    bad_x,
    d1,
    epe,
    exclude_border,
    smooth_l1,
)

from oracle_sweep import randomized_oracles
from stereo_costvol.volume_core import DisparityMap


def dm(values):
    return DisparityMap(np.asarray(values, dtype=np.float64))


FULL22 = EvalMask.full(2, 2)


# ---------------------------------------------------------------------------
# epe

def test_epe_perfect_prediction():
    m = dm([[4.0, 5.0], [6.0, 7.0]])
    assert epe(m, m, FULL22) == 0.0


def test_epe_constant_offset():
    gt = dm([[1.0, 2.0], [3.0, 4.0]])
    pred = dm([[3.0, 4.0], [5.0, 6.0]])
    assert epe(pred, gt, FULL22) == 2.0


def test_epe_two_point_mean():
    gt = dm([[0.0, 0.0]])
    pred = dm([[1.0, 3.0]])
    assert epe(pred, gt, EvalMask.full(1, 2)) == 2.0


def test_epe_empty_mask_raises():
    m = dm([[1.0]])
    with pytest.raises(ValueError, match="empty mask"):
        epe(m, m, EvalMask(np.zeros((1, 1), dtype=bool)))


def test_epe_respects_mask():
    gt = dm([[0.0, 0.0]])
    pred = dm([[1.0, 99.0]])
    mask = EvalMask(np.array([[True, False]]))
    assert epe(pred, gt, mask) == 1.0


# ---------------------------------------------------------------------------
# d1

def test_d1_threshold_scales_with_truth():
    assert d1(dm([[104.0]]), dm([[100.0]]), EvalMask.full(1, 1)) == 0.0
    assert d1(dm([[14.0]]), dm([[10.0]]), EvalMask.full(1, 1)) == 100.0


def test_d1_perfect_is_zero():
    m = dm([[10.0, 200.0], [3.0, 50.0]])
    assert d1(m, m, FULL22) == 0.0


# ---------------------------------------------------------------------------
# bad_x

def test_bad_x_below_threshold():
    gt = dm([[0.0, 0.0], [0.0, 0.0]])
    pred = dm([[0.5, 0.5], [0.5, 0.5]])
    assert bad_x(pred, gt, FULL22, 1.0) == 0.0


def test_bad_x_above_threshold():
    gt = dm([[0.0, 0.0], [0.0, 0.0]])
    pred = dm([[2.5, 2.5], [2.5, 2.5]])
    assert bad_x(pred, gt, FULL22, 2.0) == 100.0


def test_bad_x_half_and_half():
    gt = dm([[0.0, 0.0], [0.0, 0.0]])
    pred = dm([[0.0, 5.0], [0.0, 5.0]])
    assert bad_x(pred, gt, FULL22, 3.0) == 50.0


def test_bad_x_requires_positive_threshold():
    m = dm([[1.0]])
    with pytest.raises(ValueError):
        bad_x(m, m, EvalMask.full(1, 1), 0.0)


def test_bad_x_monotone_in_threshold():
    rng = np.random.default_rng(0)
    pred = dm(rng.random((6, 6)) * 20)
    gt = dm(rng.random((6, 6)) * 20)
    mask = EvalMask.full(6, 6)
    values = [bad_x(pred, gt, mask, x) for x in (0.5, 1.0, 2.0, 3.0, 5.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_d1_never_exceeds_bad_three():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pred = dm(rng.random((5, 5)) * 120)
        gt = dm(rng.random((5, 5)) * 120)
        mask = EvalMask(rng.random((5, 5)) < 0.9)
        if mask.count == 0:
            continue
        assert d1(pred, gt, mask) <= bad_x(pred, gt, mask, 3.0)


# ---------------------------------------------------------------------------
# smooth_l1

def test_smooth_l1_branch_values():
    zero = dm([[0.0]])
    m = EvalMask.full(1, 1)
    assert smooth_l1(zero, zero, m) == 0.0
    assert smooth_l1(dm([[0.5]]), zero, m) == 0.125
    assert smooth_l1(dm([[2.0]]), zero, m) == 1.5


# ---------------------------------------------------------------------------
# mask helpers and properties

def test_exclude_border():
    mask = exclude_border(EvalMask.full(6, 8), 2)
    assert mask.count == 2 * 4
    assert mask.valid[2, 2] and not mask.valid[1, 3] and not mask.valid[3, 6]


def test_permutation_invariance():
    rng = np.random.default_rng(2)
    pred = rng.random((4, 4)) * 10
    gt = rng.random((4, 4)) * 10
    perm = rng.permutation(16)
    mask = EvalMask.full(4, 4)
    args = (dm(pred), dm(gt), mask)
    shuffled = (dm(pred.ravel()[perm].reshape(4, 4)),
                dm(gt.ravel()[perm].reshape(4, 4)), mask)
    assert epe(*args) == pytest.approx(epe(*shuffled), abs=1e-12)
    assert d1(*args) == d1(*shuffled)
    assert bad_x(*args, 2.0) == bad_x(*shuffled, 2.0)
    assert smooth_l1(*args) == pytest.approx(smooth_l1(*shuffled), abs=1e-12)


def test_metrics_are_nonnegative_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pred = dm(rng.random((5, 5)) * 50)
        gt = dm(rng.random((5, 5)) * 50)
        mask = EvalMask.full(5, 5)
        assert epe(pred, gt, mask) >= 0.0
        assert smooth_l1(pred, gt, mask) >= 0.0
        assert 0.0 <= d1(pred, gt, mask) <= 100.0
        assert 0.0 <= bad_x(pred, gt, mask, 1.0) <= 100.0


test_randomized_oracles = randomized_oracles(metrics)
