import numpy as np
import pytest

from kqr.distributions import (
    TypeQParams,
    ZeroLocation,
    dirac_atom_mixture,
    type_q_params,
)
from kqr.inner_risk import (
    excess_in_frame,
    excess_inner_risk,
    inner_risk,
    lower_pol_delta,
    min_inner_risk,
    noise_frame,
    self_cal_lower_bound,
    self_calibration_fn,
)

from .conftest import quad_pinball_oracle
from .test_noise import reference_laws

X0 = np.array([0.0])


def test_inner_risk_uniform_values(unit_uniform):
    assert inner_risk(unit_uniform, X0, 0.5, 0.0) == pytest.approx(0.25, abs=1e-14)
    assert inner_risk(unit_uniform, X0, 0.5, 0.4) == pytest.approx(0.29, abs=1e-14)


def test_inner_risk_matches_quadrature(all_families):
    rng = np.random.default_rng(5)
    for model in all_families:
        for _ in range(3):
            x = rng.uniform(-1, 1, size=1)
            tau = rng.uniform(0.1, 0.9)
            t = rng.uniform(-1, 1)
            want = quad_pinball_oracle(model, x, tau, t)
            assert inner_risk(model, x, tau, t) == pytest.approx(want, abs=1e-9)


def test_inner_risk_point_mass_zero_at_atom():
    dm = dirac_atom_mixture(atom=0.3, uniform_weight=0.001, halfwidth=0.5,
                            location=ZeroLocation())
    # nearly all mass at the atom: risk at the atom is almost zero
    assert inner_risk(dm, X0, 0.7, 0.3) < 5e-4


def test_min_inner_risk_profiles(unit_uniform, pure_two_atom):
    prof = min_inner_risk(unit_uniform, X0, 0.5)
    assert prof.c_star == pytest.approx(0.25, abs=1e-14)
    assert prof.q_plus == 0.0 and prof.q_minus == 0.0

    prof = min_inner_risk(pure_two_atom, X0, 0.5)
    assert prof.q_plus == pytest.approx(0.5)
    assert prof.q_minus == pytest.approx(0.5)
    assert prof.c_star == pytest.approx(0.25, abs=1e-14)
    assert (prof.quantile.t_min, prof.quantile.t_max) == (-0.5, 0.5)


def test_min_inner_risk_point_mass_balance():
    from kqr.noise import Atom, NoiseLaw
    from kqr.distributions import ConditionalModel

    point = ConditionalModel(
        family="two-atom",
        noise=NoiseLaw([], [Atom(0.0, 1.0)]),
        location=ZeroLocation(),
    )
    prof = min_inner_risk(point, X0, 0.3)
    assert (prof.quantile.t_min, prof.quantile.t_max) == (0.0, 0.0)
    assert prof.q_plus == pytest.approx(0.7)
    assert prof.q_minus == pytest.approx(0.3)
    assert prof.c_star == 0.0


def test_profile_mass_identity(all_families):
    for model in all_families:
        for tau in (0.1, 0.5, 0.9):
            prof = min_inner_risk(model, X0, tau)
            law = model.noise
            g = model.g_scalar(X0)
            t1, t2 = prof.quantile.t_min - g, prof.quantile.t_max - g
            interval_mass = (
                law.interval_moments(t1, t2)[0]
                + law.atom_mass_at(t1)
                + (law.atom_mass_at(t2) if t2 > t1 else 0.0)
            )
            assert prof.q_plus + prof.q_minus == pytest.approx(interval_mass, abs=1e-12)


def test_excess_examples(unit_uniform, pure_two_atom):
    assert excess_inner_risk(unit_uniform, X0, 0.5, 0.4) == pytest.approx(0.04, abs=1e-14)
    prof = min_inner_risk(unit_uniform, X0, 0.5)
    direct = inner_risk(unit_uniform, X0, 0.5, 0.4) - prof.c_star
    assert excess_inner_risk(unit_uniform, X0, 0.5, 0.4) == pytest.approx(direct, abs=1e-12)

    assert excess_inner_risk(pure_two_atom, X0, 0.5, 0.7) == pytest.approx(0.1, abs=1e-14)
    assert excess_inner_risk(pure_two_atom, X0, 0.5, 0.2) == 0.0
    # a NaN t has a NaN excess, as inner_risk(t) - c_star has, not 0
    assert np.isnan(excess_inner_risk(unit_uniform, X0, 0.5, np.nan))
    ex = excess_inner_risk(pure_two_atom, X0, 0.5, np.array([0.7, np.nan]))
    assert np.isnan(ex).tolist() == [False, True]


def test_excess_agrees_with_direct_route(all_families):
    rng = np.random.default_rng(11)
    ts = np.linspace(-1, 1, 50)
    for model in all_families:
        for tau in (0.1, 0.5, 0.9):
            for _ in range(5):
                x = rng.uniform(-1, 1, size=1)
                prof = min_inner_risk(model, x, tau)
                closed = excess_inner_risk(model, x, tau, ts)
                direct = inner_risk(model, x, tau, ts) - prof.c_star
                assert np.max(np.abs(closed - direct)) <= 1e-8


def test_excess_zero_exactly_on_quantile_interval(all_families):
    ts = np.linspace(-1, 1, 201)
    for model in all_families:
        for tau in (0.1, 0.5, 0.9):
            x = np.array([0.21])
            prof = min_inner_risk(model, x, tau)
            vals = excess_inner_risk(model, x, tau, ts)
            inside = prof.quantile.contains(ts)
            assert np.all(vals[inside] <= 1e-12)
            assert np.all(vals[~inside] > 1e-12)


def test_inner_risk_midpoint_convexity(all_families):
    ts = np.linspace(-1.5, 1.5, 121)
    for model in all_families:
        vals = inner_risk(model, X0, 0.3, ts)
        mid = 0.5 * (vals[:-2] + vals[2:])
        assert np.all(vals[1:-1] <= mid + 1e-12)


def test_self_calibration_examples(unit_uniform, pure_two_atom):
    assert self_calibration_fn(unit_uniform, X0, 0.5, 0.4) == pytest.approx(0.04, abs=1e-14)
    assert self_calibration_fn(unit_uniform, X0, 0.5, 0.0) == 0.0
    assert self_calibration_fn(pure_two_atom, X0, 0.5, 0.2) == pytest.approx(0.1, abs=1e-14)
    with pytest.raises(ValueError):
        self_calibration_fn(unit_uniform, X0, 0.5, -0.1)


def test_self_calibration_is_grid_infimum(all_families):
    """Check the inf over {dist >= eps} by brute-force minimization."""
    ts = np.linspace(-2.0, 2.0, 4001)
    for model in all_families:
        x = np.array([-0.4])
        for tau in (0.25, 0.5):
            prof = min_inner_risk(model, x, tau)
            dist = prof.quantile.dist(ts)
            vals = excess_inner_risk(model, x, tau, ts)
            for eps in (0.1, 0.4, 0.9):
                grid_inf = np.min(vals[dist >= eps])
                got = self_calibration_fn(model, x, tau, eps)
                assert got <= grid_inf + 1e-12
                # grid_inf overshoots the true infimum by up to one grid step
                # times the excess slope, hence the loose lower tolerance
                assert got >= grid_inf - 2e-3


def test_lower_pol_delta_values():
    assert lower_pol_delta(1.0, 2.0, 0.5) == pytest.approx(0.25)
    assert lower_pol_delta(1.0, 2.0, 2.0) == pytest.approx(3.0)
    assert lower_pol_delta(2.0, 3.0, 2.0) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        lower_pol_delta(2.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        lower_pol_delta(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        lower_pol_delta(1.0, 2.0, 2.5)


@pytest.mark.parametrize("alpha", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_lower_pol_dominates_power(alpha, q):
    for eps in np.linspace(0.0, 2.0, 101):
        assert lower_pol_delta(alpha, q, eps) >= (alpha / 2.0) ** (q - 1.0) * eps**q - 1e-12


def test_self_cal_lower_bound_values():
    assert self_cal_lower_bound(TypeQParams(2, 0.5, 1.0), 0.4) == pytest.approx(0.02)
    assert self_cal_lower_bound(TypeQParams(2, 0.5, 1.0), 0.0) == 0.0
    assert self_cal_lower_bound(TypeQParams(1, 0.5, 2.0), 1.0) == pytest.approx(0.5)


def test_self_calibration_dominates_lower_bound(all_families):
    from kqr.distributions import CertificateError

    eps_grid = np.linspace(0.0, 2.0, 101)
    rng = np.random.default_rng(2)
    for model in all_families:
        for tau in (0.1, 0.5, 0.9):
            for _ in range(3):
                x = rng.uniform(-1, 1, size=1)
                try:
                    params = type_q_params(model, x, tau)
                except CertificateError:
                    continue
                for eps in eps_grid:
                    actual = self_calibration_fn(model, x, tau, eps)
                    bound = self_cal_lower_bound(params, eps)
                    assert actual >= bound - 1e-8


def reference_excess_in_frame(frame, t):
    """excess_in_frame as first written: one moment call on the points above
    the quantile set and one on those below."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros(t.shape)
    above = t > frame.t2
    if np.any(above):
        ta = t[above]
        m0, m1, _ = frame.law.interval_moments(np.full(ta.shape, frame.t2), ta)
        out[above] = (ta - frame.t2) * frame.q_plus + (ta * m0 - m1)
    below = t < frame.t1
    if np.any(below):
        tb = t[below]
        m0, m1, _ = frame.law.interval_moments(tb, np.full(tb.shape, frame.t1))
        out[below] = (frame.t1 - tb) * frame.q_minus + (m1 - tb * m0)
    out = np.maximum(out, 0.0)
    if scalar:
        return float(out[0])
    return out


@pytest.mark.parametrize("tau", [0.1, 0.3, 0.5, 0.9])
def test_excess_in_frame_matches_two_subset_reference(tau):
    """One moment call over [proj t, t] gives the bits of the two subset
    calls, on scalars, 1-D and 2-D inputs, the quantile ends included."""
    rng = np.random.default_rng(9)
    for law in reference_laws():
        frame = noise_frame(law, tau)
        ends = np.array([frame.t1, frame.t2])
        ts = np.concatenate([rng.uniform(-1.2, 1.2, 300), law.breakpoints, ends,
                             np.nextafter(ends, -2.0), np.nextafter(ends, 2.0)])
        assert np.array_equal(excess_in_frame(frame, ts), reference_excess_in_frame(frame, ts))
        grid = rng.uniform(-1.2, 1.2, (7, 40))
        got = excess_in_frame(frame, grid)
        assert got.shape == grid.shape
        assert np.array_equal(got, reference_excess_in_frame(frame, grid))
        for t in ts[::7]:
            got = excess_in_frame(frame, t)
            assert isinstance(got, float) and got == reference_excess_in_frame(frame, t)
