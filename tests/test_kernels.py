import math

import numpy as np
import pytest

from kqr.kernels import (
    GaussianKernel,
    MaternKernel,
    PolynomialKernel,
    fit_power_law,
    gram,
    kernel_eval,
    kernel_spec_from_dict,
    spectrum_decay,
)

ALL_SPECS = [
    GaussianKernel(0.5),
    GaussianKernel(1.0),
    PolynomialKernel(degree=4),
    MaternKernel(nu=0.5, lengthscale=0.4),
    MaternKernel(nu=1.5, lengthscale=0.4),
    MaternKernel(nu=2.5, lengthscale=0.4),
]


def test_kernel_eval_examples():
    g = GaussianKernel(1.0)
    assert kernel_eval(g, [0.3], [0.3]) == pytest.approx(1.0)
    assert kernel_eval(g, [0.0], [1.0]) == pytest.approx(math.exp(-1.0))
    poly = PolynomialKernel(degree=3)
    assert kernel_eval(poly, [0.0], [0.0]) <= 1.0


def test_kernel_bounded_by_one():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, size=(40, 1))
    for spec in ALL_SPECS:
        g = gram(spec, xs)
        assert np.max(np.diag(g)) <= 1.0 + 1e-12


def test_gram_examples():
    g = GaussianKernel(1.0)
    m = gram(g, np.array([[0.0]]))
    assert m.shape == (1, 1) and m[0, 0] == pytest.approx(1.0)
    m2 = gram(g, np.array([[0.2], [0.2]]))
    assert np.allclose(m2, 1.0)
    m3 = gram(g, np.array([[0.0], [1.0]]))
    assert m3[0, 1] == pytest.approx(math.exp(-1.0))


def test_gram_symmetric_psd():
    rng = np.random.default_rng(1)
    for spec in ALL_SPECS:
        xs = rng.uniform(-1, 1, size=(30, 1))
        g = gram(spec, xs)
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g)[0] >= -1e-8


def test_gram_over_n_trace_identity():
    rng = np.random.default_rng(2)
    for spec in ALL_SPECS:
        xs = rng.uniform(-1, 1, size=(25, 1))
        evals = np.linalg.eigvalsh(gram(spec, xs) / 25)
        assert np.all(evals >= -1e-8)
        assert np.sum(evals) == pytest.approx(np.mean(np.diag(gram(spec, xs))), abs=1e-10)
        assert np.sum(evals) <= 1.0 + 1e-10


def test_fit_power_law_exact_recovery():
    idx = np.arange(1, 51, dtype=float)
    est = fit_power_law(idx**-4.0)
    assert est.rho_hat == pytest.approx(0.25, abs=1e-6)
    est_scaled = fit_power_law(3.0 * idx**-2.5)
    assert est_scaled.rho_hat == pytest.approx(0.4, abs=1e-6)
    assert est_scaled.a_hat == pytest.approx(3.0, rel=1e-6)
    assert est_scaled.residual < 1e-12


def test_fit_power_law_needs_usable_eigenvalues():
    with pytest.raises(ValueError, match="usable"):
        fit_power_law(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="usable"):
        fit_power_law(np.array([1.0, 0.5, 1e-14, 1e-15, 0.0, 0.0]))


def test_spectrum_decay_rank_deficient():
    # 20 copies of one point: Gram is rank one, like a constant kernel
    xs = np.zeros((20, 1))
    with pytest.raises(ValueError, match="usable"):
        spectrum_decay(GaussianKernel(0.5), xs)


def test_spectrum_decay_needs_20_points():
    with pytest.raises(ValueError, match="20"):
        spectrum_decay(GaussianKernel(0.5), np.zeros((3, 1)))


def test_spectrum_decay_gaussian_fast():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1, 1, size=(500, 1))
    est = spectrum_decay(GaussianKernel(0.5), xs)
    assert est.rho_hat <= 0.5
    assert est.n_used >= 5
    assert est.a_hat >= 1.0


def test_matern_decays_slower_than_gaussian():
    rng = np.random.default_rng(8)
    xs = rng.uniform(-1, 1, size=(300, 1))
    rough = spectrum_decay(MaternKernel(nu=0.5, lengthscale=0.4), xs)
    smooth = spectrum_decay(GaussianKernel(0.5), xs)
    assert rough.rho_hat > smooth.rho_hat


def test_spec_roundtrip():
    for spec in ALL_SPECS:
        back = kernel_spec_from_dict(spec.to_dict())
        assert back == spec
    with pytest.raises(ValueError):
        kernel_spec_from_dict({"family": "nope"})
    with pytest.raises(ValueError):
        MaternKernel(nu=2.0)


@pytest.mark.parametrize("cls, kwargs", [
    (GaussianKernel, {"bandwidth": math.nan}),
    (GaussianKernel, {"bandwidth": math.inf}),
    (GaussianKernel, {"bandwidth": 0.0}),
    (MaternKernel, {"lengthscale": math.nan}),
    (MaternKernel, {"lengthscale": math.inf}),
    (MaternKernel, {"lengthscale": -0.5}),
    (PolynomialKernel, {"offset": math.nan}),
    (PolynomialKernel, {"offset": math.inf}),
    (PolynomialKernel, {"offset": -1.0}),
])
def test_bad_hyperparameters_rejected(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)


def test_polynomial_dim_must_match_points():
    corner = np.ones((1, 2))
    with pytest.raises(ValueError, match="dim"):
        gram(PolynomialKernel(dim=1), corner)
    with pytest.raises(ValueError, match="dim"):
        PolynomialKernel(dim=2).pairwise(corner, np.ones((1, 1)))
    assert kernel_eval(PolynomialKernel(dim=2), corner, corner) == pytest.approx(1.0)


def test_spec_from_config_strings_takes_defaults():
    assert kernel_spec_from_dict({}) == GaussianKernel()
    assert kernel_spec_from_dict({"family": "polynomial", "dim": "2"}) == PolynomialKernel(dim=2)
    assert kernel_spec_from_dict({"family": "matern", "nu": "0.5"}) == MaternKernel(nu=0.5)


@pytest.mark.parametrize("spec", [
    GaussianKernel(0.5),
    GaussianKernel(0.07),
    MaternKernel(nu=0.5, lengthscale=0.4),
    MaternKernel(nu=1.5, lengthscale=0.3),
    MaternKernel(nu=2.5, lengthscale=0.8),
])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_matrices_keep_the_formula_bits(spec, dim):
    """The kernels build their matrices in place; every entry must keep the
    bits of the formula written out with fresh arrays."""
    rng = np.random.default_rng(dim)
    xs = rng.uniform(-1, 1, size=(123, dim))
    ys = rng.uniform(-1, 1, size=(77, dim))
    xs[5] = ys[9]   # a zero distance

    def formula(a, b):
        d = a[:, None, :] - b[None, :, :]
        sq = np.einsum("ijk,ijk->ij", d, d)
        if isinstance(spec, GaussianKernel):
            return np.exp(-sq / spec.bandwidth**2)
        z = math.sqrt(2.0 * spec.nu) * np.sqrt(np.maximum(sq, 0.0)) / spec.lengthscale
        poly = {0.5: np.ones_like(z), 1.5: 1.0 + z, 2.5: 1.0 + z + z**2 / 3.0}[spec.nu]
        return poly * np.exp(-z)

    assert np.array_equal(spec.pairwise(xs, ys), formula(xs, ys))
    k = formula(xs, xs)
    assert np.array_equal(gram(spec, xs), 0.5 * (k + k.T))
