import numpy as np
import pytest
from hypothesis import given, strategies as st

from kqr.losses import Dataset, clip, empirical_risk, pinball_loss, tau_value

units = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
taus = st.floats(min_value=0.01, max_value=0.99)


def test_tau_rejects_boundaries():
    with pytest.raises(ValueError):
        tau_value(0.0)
    with pytest.raises(ValueError):
        tau_value(1.0)
    with pytest.raises(ValueError, match=r"open interval \(0, 1\), got -0\.2"):
        tau_value(-0.2)
    assert tau_value(0.5) == 0.5


def test_pinball_loss_examples():
    assert pinball_loss(0.5, 0.0, 0.0) == 0.0
    assert pinball_loss(0.3, 1.0, 0.0) == pytest.approx(0.3)
    assert pinball_loss(0.3, -1.0, 0.0) == pytest.approx(0.7)


def test_loss_zero_iff_equal():
    ys = np.linspace(-1, 1, 21)
    vals = pinball_loss(0.7, ys, 0.3)
    assert np.all(vals[ys != 0.3] > 0)
    assert pinball_loss(0.7, 0.3, 0.3) == 0.0


@given(taus, units, units, units, st.floats(min_value=0.0, max_value=1.0))
def test_pinball_convex_in_t(tau, y, t1, t2, theta):
    mid = theta * t1 + (1 - theta) * t2
    lhs = pinball_loss(tau, y, mid)
    rhs = theta * pinball_loss(tau, y, t1) + (1 - theta) * pinball_loss(tau, y, t2)
    assert lhs <= rhs + 1e-12


@given(taus, units, units, units)
def test_pinball_lipschitz_in_t(tau, y, t1, t2):
    lip = max(tau, 1 - tau)
    diff = abs(pinball_loss(tau, y, t1) - pinball_loss(tau, y, t2))
    assert diff <= lip * abs(t1 - t2) + 1e-12


def test_clip_examples_and_idempotence():
    assert clip(1.5) == 1.0
    assert clip(-2.0) == -1.0
    assert clip(0.3) == 0.3
    xs = np.linspace(-3, 3, 41)
    assert np.array_equal(clip(clip(xs)), clip(xs))


@given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10))
def test_clip_one_lipschitz(a, b):
    assert abs(clip(a) - clip(b)) <= abs(a - b) + 1e-15


def test_empirical_risk_examples():
    x = np.zeros((2, 1))
    data = Dataset(x, np.array([1.0, -1.0]))
    zero = lambda xs: np.zeros(len(xs))
    assert empirical_risk(0.5, data, zero) == pytest.approx(0.5)

    single = Dataset(np.zeros((1, 1)), np.array([0.8]))
    assert empirical_risk(0.25, single, zero) == pytest.approx(0.2)
    exact = lambda xs: np.full(len(xs), 0.8)
    assert empirical_risk(0.25, single, exact) == 0.0


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 1)), np.array([]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((1, 1)), np.array([1.5]))
    with pytest.raises(ValueError):
        Dataset(np.array([[2.0]]), np.array([0.0]))


def test_clipping_never_increases_risk():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(50, 1))
    y = rng.uniform(-1, 1, size=50)
    data = Dataset(x, y)
    raw_vals = rng.uniform(-3, 3, size=50)
    f_raw = lambda xs: raw_vals
    f_clipped = lambda xs: clip(raw_vals)
    for tau in (0.1, 0.5, 0.9):
        assert empirical_risk(tau, data, f_clipped) <= empirical_risk(tau, data, f_raw) + 1e-12
