import math

import numpy as np
import pytest

from kqr.distributions import (
    CertificateError,
    QuantileInterval,
    SineLocation,
    TypeQParams,
    ZeroLocation,
    bounded_density_mixture,
    conditional_cdf,
    dirac_atom_mixture,
    gamma_inv_norm,
    polynomial_density,
    quantile_set,
    sample_joint,
    two_atom,
    type_q_params,
    uniform_noise,
)

X0 = np.array([0.0])


def test_conditional_cdf_examples():
    m = uniform_noise(halfwidth=0.5, location=ZeroLocation())
    assert conditional_cdf(m, X0, 0.0) == pytest.approx(0.5)
    assert conditional_cdf(m, X0, 0.25) == pytest.approx(0.75)
    ta = two_atom(location=ZeroLocation())
    assert conditional_cdf(ta, X0, 0.0) == pytest.approx(0.5)
    # monte-carlo cross-check of the atom CDF
    data = sample_joint(ta, 100_000, seed=3)
    assert np.mean(data.y - ta.g(data.x) <= 0.0) == pytest.approx(0.5, abs=0.01)


def test_cdf_monotone_and_saturates():
    m = polynomial_density(location=SineLocation())
    x = np.array([0.37])
    ys = np.linspace(-1.2, 1.2, 401)
    vals = np.array([conditional_cdf(m, x, y) for y in ys])
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[0] == 0.0 and vals[-1] == 1.0


def test_quantile_set_examples():
    m = uniform_noise(halfwidth=0.5, location=ZeroLocation())
    qs = quantile_set(m, X0, 0.25)
    assert qs.t_min == pytest.approx(-0.25, abs=1e-12)
    assert qs.t_max == pytest.approx(-0.25, abs=1e-12)

    ta = two_atom(location=ZeroLocation())
    assert quantile_set(ta, X0, 0.5) == QuantileInterval(-0.5, 0.5)

    dm = dirac_atom_mixture(atom=0.5, uniform_weight=0.4, halfwidth=1.0, location=ZeroLocation())
    assert quantile_set(dm, X0, 0.5) == QuantileInterval(0.5, 0.5)


def test_quantile_set_shifts_with_location():
    m = uniform_noise()
    for x in (np.array([-0.8]), np.array([0.3])):
        qs = quantile_set(m, x, 0.25)
        base = quantile_set(m, np.array([0.0]), 0.25)
        shift = m.g_scalar(x)
        assert qs.t_min == pytest.approx(base.t_min + shift, abs=1e-12)


def test_type_q_params_examples():
    m = uniform_noise(halfwidth=0.5, location=ZeroLocation())
    tq = type_q_params(m, X0, 0.5)
    assert (tq.q, tq.b, tq.alpha, tq.gamma) == (2.0, 1.0, 0.5, 0.5)

    pm = polynomial_density(exponent=1.0, halfwidth=1.0, location=ZeroLocation())
    tq = type_q_params(pm, X0, 0.5)
    assert tq.q == 3.0
    assert tq.b == pytest.approx(0.5)

    ta = two_atom(location=ZeroLocation())
    tq = type_q_params(ta, X0, 0.5)
    assert (tq.q, tq.b, tq.alpha, tq.gamma) == (1.0, 0.5, 2.0, 0.5)


def test_typeq_invariant():
    with pytest.raises(ValueError):
        TypeQParams(q=2, b=1.0, alpha=2.5)
    assert TypeQParams(q=3, b=0.5, alpha=0.5).gamma == 0.5 * 0.5**2


# (model, the half-width it was built with, certificate (q, b, alpha, gamma)
# at tau = 0.1, 0.5, 0.9, None where there is none); literal floats, so a
# read of the wrong noise piece or atom shows in the last bit
DERIVED_READS = [
    (bounded_density_mixture(halfwidth=0.4), 0.4, [
        (2.0, 1.25, 0.08000000000000002, 0.10000000000000002),
        (2.0, 1.25, 0.4, 0.5),
        (2.0, 1.25, 0.08000000000000007, 0.10000000000000009)]),
    (bounded_density_mixture(halfwidth=0.45, contaminant_weight=0.1, contaminant_atom=0.2),
     0.45, [
        (2.0, 1.0, 0.10000000000000003, 0.10000000000000003),
        (2.0, 1.0, 0.4, 0.4),
        (2.0, 1.0, 0.09999999999999998, 0.09999999999999998)]),
    (polynomial_density(exponent=1.5, halfwidth=0.4), 0.4, [
        (2.0, 0.9664046709718492, 0.0341559584581389, 0.033008477795465875),
        (3.5, 4.941058844013092, 0.4, 0.5),
        (2.0, 0.9664046709718491, 0.03415595845813896, 0.033008477795465924)]),
    (polynomial_density(exponent=1.5, halfwidth=0.4, contaminant_weight=0.1,
                        contaminant_atom=0.15), 0.4, [
        (2.0, 0.8551865383970871, 0.03825527779125265, 0.03271539858972032),
        (2.0, 0.22834654201347498, 0.075, 0.017125990651010625),
        (2.0, 0.8551865383970871, 0.03825527779125265, 0.03271539858972032)]),
    (dirac_atom_mixture(atom=0.1, uniform_weight=0.2), 0.5, [
        None,
        (1.0, 0.38, 2.0, 0.38),
        (1.0, 0.020000000000000018, 2.0, 0.020000000000000018)]),
    (two_atom(locations=(0.1, 0.4)), 0.4, [
        (1.0, 0.1, 2.0, 0.1),
        (1.0, 0.5, 2.0, 0.5),
        (1.0, 0.09999999999999998, 2.0, 0.09999999999999998)]),
]


@pytest.mark.parametrize("model, halfwidth, certificates", DERIVED_READS, ids=[
    "bounded", "bounded-atom", "polynomial", "polynomial-atom", "dirac-atom", "two-atom"])
def test_derived_reads_reproduce_certificates(model, halfwidth, certificates):
    """The half-width and the certificate come from the noise law alone and
    reproduce, bit for bit, what each family's constructor arguments give."""
    assert model.halfwidth == halfwidth
    for tau, want in zip((0.1, 0.5, 0.9), certificates):
        if want is None:
            with pytest.raises(CertificateError):
                type_q_params(model, X0, tau)
        else:
            got = type_q_params(model, X0, tau)
            assert (got.q, got.b, got.alpha, got.gamma) == want


def test_dirac_certificate_window():
    dm = dirac_atom_mixture(atom=0.5, uniform_weight=0.4, halfwidth=1.0, location=ZeroLocation())
    # valid levels are (0.3, 0.9) for this parameterization
    tq = type_q_params(dm, X0, 0.5)
    assert tq.q == 1.0
    assert tq.b == pytest.approx(min(0.5 - 0.3, 0.9 - 0.5))
    for tau in (0.25, 0.3, 0.9, 0.95):
        with pytest.raises(CertificateError):
            type_q_params(dm, X0, tau)


def certificate_grid_check(model, tau, n_grid=100, slack=1e-12):
    """Definitional check of the certificate via the conditional CDF."""
    law = model.noise
    tq = type_q_params(model, X0, tau)
    t1, t2 = law.quantile_interval(tau)
    for s in np.linspace(0.0, tq.alpha, n_grid + 1)[1:]:
        lower_mass = law.interval_moments(t1 - s, t1)[0] + sum(
            a.mass for a in law.atoms if t1 - s < a.location < t1
        )
        upper_mass = law.interval_moments(t2, t2 + s)[0] + sum(
            a.mass for a in law.atoms if t2 < a.location < t2 + s
        )
        if tq.q == 1.0:
            # q = 1 is certified through the endpoint atoms
            assert law.cdf(t2) - tau >= tq.b - slack
            assert tau - law.cdf(t1, strict=True) >= tq.b - slack
        else:
            bound = tq.b * s ** (tq.q - 1.0)
            assert lower_mass >= bound - slack
            assert upper_mass >= bound - slack


@pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
def test_certificates_hold_on_grid(tau, centered_families):
    for model in centered_families:
        try:
            certificate_grid_check(model, tau)
        except CertificateError:
            pytest.skip(f"certificate not applicable: {model.family} at {tau}")


def test_polynomial_offcenter_certificate_holds():
    pm = polynomial_density(location=ZeroLocation())
    for tau in (0.1, 0.35, 0.9):
        certificate_grid_check(pm, tau)
        assert type_q_params(pm, X0, tau).q == 2.0
    assert type_q_params(pm, X0, 0.5).q == 3.0


def test_polynomial_negative_exponent_certificate():
    # p in (-1, 0): the density blows up at the center but is floored by
    # scale * w^p everywhere, so off-center levels still certify type 2
    pm = polynomial_density(exponent=-0.5, location=ZeroLocation())
    assert type_q_params(pm, X0, 0.5).q == pytest.approx(1.5)
    for tau in (0.3, 0.5, 0.8):
        certificate_grid_check(pm, tau)


def test_gamma_inv_norm_examples():
    m = uniform_noise(halfwidth=0.5, location=ZeroLocation())
    assert gamma_inv_norm(m, 0.5, math.inf) == pytest.approx(2.0)
    assert gamma_inv_norm(m, 0.5, 1.0) == pytest.approx(2.0)
    ta = two_atom(location=ZeroLocation())
    assert gamma_inv_norm(ta, 0.5, math.inf) == pytest.approx(2.0)
    dm = dirac_atom_mixture(atom=0.5, uniform_weight=0.4, halfwidth=1.0, location=ZeroLocation())
    with pytest.raises(CertificateError):
        gamma_inv_norm(dm, 0.95, math.inf)


def test_sample_joint_structure_and_determinism():
    m = bounded_density_mixture()
    data = sample_joint(m, 5, seed=7)
    assert len(data) == 5
    assert np.all(np.abs(data.x) <= 1.0) and np.all(np.abs(data.y) <= 1.0)
    again = sample_joint(m, 5, seed=7)
    assert np.array_equal(data.x, again.x) and np.array_equal(data.y, again.y)
    with pytest.raises(ValueError):
        sample_joint(m, 0, seed=1)


def test_sample_joint_marginal_cdf():
    """Empirical P(Y <= 0) against the quadrature of the conditional CDF."""
    from kqr.util import gauss_legendre

    m = uniform_noise()
    data = sample_joint(m, 100_000, seed=1)
    empirical = float(np.mean(data.y <= 0.0))
    nodes, weights = gauss_legendre(128)
    vals = np.array([conditional_cdf(m, np.array([x]), 0.0) for x in nodes])
    expected = float(np.sum(weights * vals) / 2.0)
    assert empirical == pytest.approx(expected, abs=0.01)


def test_conditional_sampling_ks(centered_families):
    from .test_noise import ks_distance

    for model in centered_families:
        rng = np.random.default_rng(9)
        ys = model.noise.sample(rng, 100_000)
        assert ks_distance(model.noise, ys) < 0.01


def test_interior_mass_zero(all_families):
    for model in all_families:
        for tau in (0.1, 0.5, 0.9):
            t1, t2 = model.noise.quantile_interval(tau)
            assert model.noise.interval_moments(t1, t2)[0] == 0.0


def test_support_constraint_enforced():
    with pytest.raises(ValueError):
        uniform_noise(halfwidth=0.8)  # sine amplitude 0.5 + 0.8 > 1
    uniform_noise(halfwidth=0.8, location=ZeroLocation())  # fine with g = 0


def test_zero_location_has_no_amplitude_to_set():
    """g is 0 whatever is asked: amplitude is a constant, not a parameter,
    so the support check reads 0 and a model up to half-width 1 fits."""
    with pytest.raises(TypeError):
        ZeroLocation(amplitude=0.7)
    assert ZeroLocation.amplitude == 0.0 and ZeroLocation.extrema == ()
    model = bounded_density_mixture(halfwidth=1.0, location=ZeroLocation())
    assert model.halfwidth == 1.0 and np.all(model.g(np.linspace(-1, 1, 5)[:, None]) == 0.0)


def test_model_config_roundtrip():
    """Model definitions survive the key-value config format both ways."""
    import configparser
    import io

    from kqr.cli import build_model

    models = [
        bounded_density_mixture(contaminant_weight=0.1, contaminant_atom=0.2),
        polynomial_density(exponent=1.5),
        dirac_atom_mixture(atom=0.1, uniform_weight=0.2),
        two_atom(weights=(0.3, 0.7)),
    ]
    for m in models:
        cfg = configparser.ConfigParser()
        cfg["model"] = m.to_config()
        buf = io.StringIO()
        cfg.write(buf)
        parsed = configparser.ConfigParser()
        parsed.read_string(buf.getvalue())
        back = build_model(parsed["model"])
        assert back.family == m.family
        assert np.array_equal(back.noise.breakpoints, m.noise.breakpoints)
        assert [a.mass for a in back.noise.atoms] == [a.mass for a in m.noise.atoms]
        assert back.location == m.location
        for tau in (0.2, 0.8):
            assert back.noise.quantile_interval(tau) == m.noise.quantile_interval(tau)
