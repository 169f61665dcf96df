import math

import numpy as np
import pytest
from scipy.integrate import quad

from kqr.calibration import (
    PiecewiseConstant,
    check_self_calibration,
    check_variance_bound,
    dist_norm,
    excess_risk,
    random_test_functions,
    theta_exponent,
    variance_term,
)
from kqr.distributions import ZeroLocation, quantile_set, uniform_noise


def const_fn(c):
    return PiecewiseConstant(np.array([-1.0, 1.0]), np.array([c]))


def test_excess_risk_constant_functions(unit_uniform, pure_two_atom):
    assert excess_risk(unit_uniform, 0.5, const_fn(0.4)) == pytest.approx(0.04, abs=1e-12)
    assert excess_risk(pure_two_atom, 0.5, const_fn(0.7)) == pytest.approx(0.1, abs=1e-12)
    assert excess_risk(pure_two_atom, 0.5, const_fn(0.2)) == 0.0


def test_excess_risk_zero_at_quantile_selection():
    m = uniform_noise()

    def f_star(xs):
        return np.array([quantile_set(m, x, 0.3).t_min for x in xs])

    assert excess_risk(m, 0.3, f_star) <= 1e-10


def test_excess_risk_sine_location_oracle():
    """Cross-check the piecewise x-quadrature against scipy on a bumpy case."""
    m = uniform_noise()  # halfwidth 0.5, density floor 1, sine location
    c, tau = 0.45, 0.3
    t_star = -0.5 + 0.5 * 2 * tau  # base-law quantile at -0.2
    edge = 0.5 - t_star            # distance from the quantile to the support edge

    def scalar_excess(u):
        # integral_0^u of the running interval mass min(s, edge) * floor
        u = abs(u)
        if u <= edge:
            return 0.5 * u * u
        return 0.5 * edge * edge + edge * (u - edge)

    def integrand(x):
        u = c - 0.5 * math.sin(math.pi * x) - t_star
        return scalar_excess(u) if u > 0 else 0.0

    want = quad(integrand, -1, 1, limit=400)[0] / 2.0
    got = excess_risk(m, tau, const_fn(c))
    assert got == pytest.approx(want, abs=1e-9)


def test_dist_norm_examples(unit_uniform, pure_two_atom):
    assert dist_norm(unit_uniform, 0.5, const_fn(0.4), 2.0) == pytest.approx(0.4, abs=1e-12)
    assert dist_norm(pure_two_atom, 0.5, const_fn(0.7), 1.0) == pytest.approx(0.2, abs=1e-12)
    m = uniform_noise()

    def f_star(xs):
        return np.array([quantile_set(m, x, 0.5).t_min for x in xs])

    assert dist_norm(m, 0.5, f_star, 2.0) <= 1e-10


def test_variance_term_against_quadrature(unit_uniform):
    for c in (0.3, -0.6, 0.9):
        want = quad(lambda y: (abs(y - c) - abs(y)) ** 2 / 4.0 * 0.5, -1, 1,
                    points=[0.0, c], limit=400)[0]
        got = variance_term(unit_uniform, 0.5, const_fn(c))
        assert got == pytest.approx(want, abs=1e-10)
    assert variance_term(unit_uniform, 0.5, const_fn(0.0)) == 0.0


def test_variance_below_squared_distance(all_families):
    fs = random_test_functions(4, 20, seed=8)
    for model in all_families:
        for tau in (0.25, 0.5):
            for f in fs:
                v = variance_term(model, tau, f)
                d2 = dist_norm(model, tau, f, 2.0) ** 2
                assert v <= d2 + 1e-10


def test_random_test_functions_deterministic():
    a = random_test_functions(8, 5, seed=3)
    b = random_test_functions(8, 5, seed=3)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)
    assert all(np.max(np.abs(f.values)) <= 1.0 for f in random_test_functions(8, 1000, 3))
    single = random_test_functions(1, 1, seed=0)[0]
    xs = np.linspace(-1, 1, 11).reshape(-1, 1)
    assert len(set(single(xs))) == 1
    with pytest.raises(ValueError):
        random_test_functions(0, 1, seed=0)


def test_check_self_calibration_worked_example(unit_uniform):
    rep = check_self_calibration(unit_uniform, 0.5, math.inf, [const_fn(0.4)])
    assert rep.lhs[0] == pytest.approx(0.4, abs=1e-12)
    assert rep.rhs[0] == pytest.approx(0.4 * math.sqrt(2.0), abs=1e-12)
    assert rep.passed
    assert rep.params["q"] == 2.0 and rep.params["gamma_inv_norm"] == pytest.approx(2.0)


def test_check_of_no_function_is_rejected(unit_uniform):
    """An empty report would pass with nothing checked."""
    for check in (check_self_calibration, check_variance_bound):
        with pytest.raises(ValueError, match="at least one"):
            check(unit_uniform, 0.5, math.inf, [])
        with pytest.raises(ValueError, match="at least one"):
            check(unit_uniform, 0.5, 4.0, random_test_functions(8, 0, seed=1))


def test_check_both_sides_vanish_at_quantile():
    m = uniform_noise(location=ZeroLocation())

    def f_star(xs):
        return np.full(len(xs), -0.5 + 2 * 0.5 * 0.5)  # tau=0.5 quantile is 0

    rep = check_self_calibration(m, 0.5, math.inf, [f_star])
    assert rep.lhs[0] <= 1e-10 and rep.rhs[0] <= 1e-5
    rep_v = check_variance_bound(m, 0.5, math.inf, [f_star])
    assert rep_v.lhs[0] <= 1e-12


def test_zero_location_cuts_no_cell_at_the_sine_extrema():
    """g = 0 has no extrema, so a constant f that meets no level of the law
    gets one segment on [-1, 1]: the quadrature knows no sine shape."""
    from kqr.calibration import _ORDER, _nodes
    from kqr.inner_risk import noise_frame

    model = uniform_noise(location=ZeroLocation())
    w, _, bounds = _nodes(model, noise_frame(model.noise, 0.5), [const_fn(0.3)])
    assert len(w) == _ORDER and list(bounds) == [0, _ORDER]


def test_theta_exponent():
    assert theta_exponent(math.inf, 2.0) == 1.0
    assert theta_exponent(1.0, 2.0) == 0.5
    assert theta_exponent(math.inf, 4.0) == 0.5


@pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("p", [1.0, 4.0, math.inf])
def test_small_calibration_sweep(tau, p, all_families):
    """Reduced version of the acceptance sweep: 50 functions per combo."""
    from kqr.distributions import CertificateError

    for model in all_families:
        fs = random_test_functions(8, 50, seed=17)
        try:
            rep = check_self_calibration(model, tau, p, fs)
        except CertificateError:
            continue
        assert rep.passed, (model.family, tau, p, float(np.min(rep.slack)))
        rep_v = check_variance_bound(model, tau, p, fs)
        assert rep_v.passed, (model.family, tau, p, float(np.min(rep_v.slack)))


def test_monotone_consistency(all_families):
    """excess == 0 forces dist == 0 (both computed by quadrature)."""
    for model in all_families:
        def f_star(xs, _m=model):
            return np.array([quantile_set(_m, x, 0.5).project(0.0) for x in xs])

        if excess_risk(model, 0.5, f_star) <= 1e-12:
            assert dist_norm(model, 0.5, f_star, 2.0) <= 1e-8


def test_function_values_validated(unit_uniform):
    edges = np.array([-1.0, 0.0, 1.0])
    bad = [
        lambda xs: np.full(len(xs), 1.5),
        # NaN must fail the range check, not pass as an excess of 0
        lambda xs: np.full(len(xs), np.nan),
        lambda xs: np.where(xs[:, 0] > 0, np.nan, 0.2),
    ]
    for f in bad:
        with pytest.raises(ValueError):
            excess_risk(unit_uniform, 0.5, f)
    for values in ([np.nan, 0.2], [5.0, 0.2]):
        with pytest.raises(ValueError):
            PiecewiseConstant(edges, np.array(values))
    # breakpoints that do not partition [-1, 1] would integrate another set
    for breakpoints in ([0.0, 0.5, 1.0], [1.0, 0.0, -1.0], [-1.0, np.nan, 1.0]):
        with pytest.raises(ValueError, match="breakpoints"):
            PiecewiseConstant(np.array(breakpoints), np.array([0.3, -0.2]))


@pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
def test_batch_equals_single_function(tau, all_families):
    """A function gets the same numbers alone as inside a batch of others."""
    fs = random_test_functions(8, 12, seed=5)
    for model in all_families:
        sc = check_self_calibration(model, tau, 4.0, fs)
        vb = check_variance_bound(model, tau, 4.0, fs)
        for i, f in enumerate(fs):
            assert sc.lhs[i] == dist_norm(model, tau, f, sc.params["r"])
            assert vb.lhs[i] == variance_term(model, tau, f)


def test_piecewise_constant_against_scipy_quad():
    """Excess, L_1.5 distance and variance of a 4-cell f under the |y|
    density with the sine location, against scipy quad without kqr: the
    inner excess is the integral of F(u) - tau from the quantile to s, the
    inner variance an adaptive integral over the noise."""
    from kqr.distributions import polynomial_density

    model = polynomial_density()  # density 4|y| on [-0.5, 0.5], g = 0.5 sin(pi x)
    tau, r = 0.3, 1.5
    t_star = -math.sqrt((0.5 - tau) / 2.0)  # the single tau-quantile of the noise

    def loss(y, t):
        return (tau - 1.0) * (y - t) if y < t else tau * (y - t)

    def inner_excess(s):
        cdf = lambda u: 0.5 + math.copysign(2.0 * min(abs(u), 0.5) ** 2, u)
        return quad(lambda u: cdf(u) - tau, t_star, s, points=[0.0], limit=200,
                    epsabs=1e-14)[0]

    def inner_variance(s):
        pts = sorted({0.0, min(max(s, -0.5), 0.5), t_star})
        return quad(lambda y: (loss(y, s) - loss(y, t_star)) ** 2 * 4.0 * abs(y), -0.5, 0.5,
                    points=pts, limit=200, epsabs=1e-14)[0]

    inner = (inner_excess, lambda s: abs(s - t_star) ** r, inner_variance)
    edges = np.array([-1.0, -0.4, 0.1, 0.6, 1.0])
    values = np.array([0.35, -0.8, 0.05, -0.2])
    totals = np.zeros(3)
    for c, a, b in zip(values, edges[:-1], edges[1:]):
        # split where s = c - g(x) meets t_star or a density breakpoint
        pts = {a, b, -0.5, 0.5}
        for level in (t_star, 0.0, -0.5, 0.5):
            v = (c - level) / 0.5
            if abs(v) <= 1.0:
                x0 = math.asin(v) / math.pi
                pts.update((x0, 1.0 - x0, -1.0 - x0))
        pts = sorted(p for p in pts if a <= p <= b)
        for u, v in zip(pts[:-1], pts[1:]):
            for k, fn in enumerate(inner):
                totals[k] += quad(lambda x: fn(c - 0.5 * math.sin(math.pi * x)), u, v,
                                  limit=200, epsabs=1e-14)[0] / 2.0
    f = PiecewiseConstant(edges, values)
    assert excess_risk(model, tau, f) == pytest.approx(totals[0], abs=1e-9)
    assert dist_norm(model, tau, f, r) == pytest.approx(totals[1] ** (1.0 / r), abs=1e-9)
    assert variance_term(model, tau, f) == pytest.approx(totals[2], abs=1e-9)


def test_piecewise_constant_without_crossings():
    """With g = 0 there are no crossings: each cell is cut only at the sine
    extrema, and the integrals reduce to weighted sums over the cells."""
    model = uniform_noise(location=ZeroLocation())  # U(-0.5, 0.5), median 0
    assert model.location.crossings(np.zeros((3, 4)), -1.0, 1.0).shape == (3, 4, 0)
    edges = np.array([-1.0, -0.2, 0.3, 1.0])
    values = np.array([0.3, -0.7, 0.1])
    f = PiecewiseConstant(edges, values)
    p_cell = np.diff(edges) / 2.0
    # C(c) - C* = integral_0^c (F(u) - 1/2) du for F the uniform CDF
    inner = np.where(np.abs(values) <= 0.5, values**2 / 2.0,
                     0.125 + 0.5 * (np.abs(values) - 0.5))
    assert excess_risk(model, 0.5, f) == pytest.approx(np.sum(p_cell * inner), abs=1e-12)
    assert dist_norm(model, 0.5, f, 3.0) == pytest.approx(
        np.sum(p_cell * np.abs(values) ** 3) ** (1.0 / 3.0), abs=1e-12)


def test_evaluate_matches_the_integrands_it_replaced():
    """One moment evaluation per node set, shared by the excess and the
    variance, gives the bits of the integrands as first written: the excess
    from two subset moment calls, the variance from its own order-2 call."""
    from kqr import distributions as d
    from kqr.calibration import _dist_values, _evaluate, _nodes
    from kqr.inner_risk import noise_frame

    from .test_inner_risk import reference_excess_in_frame

    def reference_variance(frame, s, tau):
        b = np.clip(s, frame.t1, frame.t2)
        lo, hi = np.minimum(s, b), np.maximum(s, b)
        kappa = tau * lo + (1.0 - tau) * hi
        m0, m1, m2 = frame.law.interval_moments(lo, hi)
        mid = m2 - 2.0 * kappa * m1 + kappa**2 * m0
        below = frame.law.cdf(lo)
        above = 1.0 - frame.law.cdf(hi, strict=True)
        c1, c2 = (1.0 - tau) * (hi - lo), tau * (hi - lo)
        return c1**2 * below + mid + c2**2 * above

    models = [
        d.bounded_density_mixture(),
        d.uniform_noise(halfwidth=0.3),
        d.polynomial_density(),
        d.dirac_atom_mixture(),
        d.two_atom(),
        d.bounded_density_mixture(contaminant_weight=0.2, contaminant_atom=0.1),
    ]
    fs = random_test_functions(8, 6, seed=21) + [lambda x: 0.8 * np.cos(3.0 * x[:, 0])]
    for model in models:
        for tau, r in [(0.1, 1.5), (0.5, 2.0), (0.9, 1.0)]:
            frame = noise_frame(model.noise, tau)
            w, s, bounds = _nodes(model, frame, fs)

            def integrals(values):
                wv = w * values
                return np.array([np.add.reduce(wv[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])

            want = {
                "excess": integrals(reference_excess_in_frame(frame, s)),
                "dist": np.array([v ** (1.0 / r) for v in integrals(_dist_values(frame, s) ** r)]),
                "variance": integrals(reference_variance(frame, s, tau)),
            }
            for kinds in [("excess", "dist", "variance"), ("excess", "dist"), ("variance",),
                          ("excess",)]:
                got = _evaluate(model, tau, fs, kinds, r=r)
                assert set(got) == set(kinds)
                for kind in kinds:
                    assert np.array_equal(got[kind], want[kind]), (kind, tau)
