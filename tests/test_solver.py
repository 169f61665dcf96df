import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from kqr.distributions import dirac_atom_mixture, uniform_noise, sample_joint
from kqr.kernels import GaussianKernel, MaternKernel, PolynomialKernel
from kqr.losses import Dataset, empirical_risk, pinball_loss
from kqr.solver import (
    SvmModel,
    kkt_residual,
    model_from_json,
    model_to_json,
    objective,
    predict,
    predict_clipped,
    reference_train,
    train,
)

SPEC = GaussianKernel(0.5)
UNIT_SPEC = GaussianKernel(1.0)


def one_point_data(y=0.9):
    return Dataset(np.array([[0.0]]), np.array([y]))


def one_point_optimum(lam, tau, y):
    """Scalar oracle: minimize lam*a^2 + L(y, a) by golden-section search."""
    res = minimize_scalar(
        lambda a: lam * a * a + pinball_loss(tau, y, a),
        bounds=(-2, 2), method="bounded",
        options={"xatol": 1e-12},
    )
    return res.x


def test_train_one_point_analytic_cases():
    data = one_point_data()
    m, diag = train(data, UNIT_SPEC, 1.0, 0.5, tol=1e-12)
    assert m.coef[0] == pytest.approx(0.25, abs=1e-10)
    assert m.coef[0] == pytest.approx(one_point_optimum(1.0, 0.5, 0.9), abs=1e-8)
    assert diag.kkt_residual <= 1e-12
    assert diag.converged

    m2, diag2 = train(data, UNIT_SPEC, 0.25, 0.5, tol=1e-12)
    assert m2.coef[0] == pytest.approx(0.9, abs=1e-10)
    assert m2.coef[0] == pytest.approx(one_point_optimum(0.25, 0.5, 0.9), abs=1e-7)
    assert diag2.kkt_residual <= 1e-12


def test_train_zero_data():
    m, diag = train(one_point_data(0.0), UNIT_SPEC, 1.0, 0.3)
    assert m.coef[0] == 0.0
    assert diag.final_objective == 0.0


def test_predict_examples():
    data = one_point_data()
    m, _ = train(data, UNIT_SPEC, 1.0, 0.5)
    assert predict(m, np.array([[0.0]])) == pytest.approx(0.25, abs=1e-12)
    zero = SvmModel(data.x, np.zeros(1), UNIT_SPEC, 1.0, 0.5)
    assert predict(zero, np.array([[0.3]])) == 0.0
    doubled = SvmModel(m.support_x, 2.0 * m.coef, m.kernel, m.lam, m.tau)
    xs = np.linspace(-1, 1, 7).reshape(-1, 1)
    assert np.allclose(predict(doubled, xs), 2.0 * np.asarray(predict(m, xs)))


def test_predict_clipped():
    m = SvmModel(np.array([[0.0]]), np.array([1.5]), UNIT_SPEC, 1.0, 0.5)
    assert predict_clipped(m, np.array([[0.0]])) == 1.0
    m2 = SvmModel(np.array([[0.0]]), np.array([-0.2]), UNIT_SPEC, 1.0, 0.5)
    assert predict_clipped(m2, np.array([[0.0]])) == pytest.approx(-0.2)
    m3 = SvmModel(np.array([[0.0]]), np.array([-3.0]), UNIT_SPEC, 1.0, 0.5)
    assert predict_clipped(m3, np.array([[0.0]])) == -1.0


def test_objective_value():
    data = one_point_data()
    m, _ = train(data, UNIT_SPEC, 1.0, 0.5, tol=1e-12)
    # lam * alpha^2 + tau * (y - alpha) at alpha = 0.25
    assert objective(m, data) == pytest.approx(1.0 * 0.0625 + 0.5 * 0.65, abs=1e-10)
    zero = SvmModel(data.x, np.zeros(1), UNIT_SPEC, 1.0, 0.5)
    trained_obj = objective(m, data)
    assert trained_obj <= objective(zero, data)


def test_kkt_residual_cases():
    data = one_point_data()
    m, _ = train(data, UNIT_SPEC, 1.0, 0.5, tol=1e-12)
    assert kkt_residual(m, data) <= 1e-12
    zero = SvmModel(data.x, np.zeros(1), UNIT_SPEC, 1.0, 0.5)
    assert kkt_residual(zero, data) > 0.0
    outside = SvmModel(data.x, np.array([5.0]), UNIT_SPEC, 1.0, 0.5)
    assert kkt_residual(outside, data) >= 5.0 - 0.25


def test_dual_box_feasible_exactly():
    data = sample_joint(uniform_noise(), 80, seed=3)
    for lam, tau in [(0.01, 0.5), (0.001, 0.25), (0.1, 0.9)]:
        m, _ = train(data, SPEC, lam, tau, tol=1e-6)
        lo = -(1 - tau) / (2 * lam * len(data))
        up = tau / (2 * lam * len(data))
        assert np.all(m.coef >= lo) and np.all(m.coef <= up)


def test_convergence_flag_honest():
    data = sample_joint(uniform_noise(), 60, seed=5)
    _, diag = train(data, SPEC, 0.05, 0.5, tol=1e-6, max_iter=200)
    assert diag.converged and diag.kkt_residual <= 1e-6
    _, diag_short = train(data, SPEC, 1e-9, 0.5, tol=1e-12, max_iter=2)
    assert not diag_short.converged


def test_reference_train_one_point():
    data = one_point_data()
    for lam, want in [(1.0, 0.25), (0.25, 0.9)]:
        ref = reference_train(data, UNIT_SPEC, lam, 0.5, 200_000)
        analytic = lam * want**2 + pinball_loss(0.5, 0.9, want)
        assert objective(ref, data) <= analytic + 1e-4


def test_reference_train_zero_data():
    ref = reference_train(one_point_data(0.0), UNIT_SPEC, 1.0, 0.5, 1000)
    assert ref.coef[0] == 0.0


def test_dual_beats_reference_on_random_instances():
    model = uniform_noise()
    for seed in range(5):
        data = sample_joint(model, 30, seed=40 + seed)
        m, _ = train(data, SPEC, 0.05, 0.5, tol=1e-8)
        ref = reference_train(data, SPEC, 0.05, 0.5, 50_000)
        assert objective(m, data) <= objective(ref, data) + 1e-3


def test_clipping_never_hurts_training_risk():
    model = uniform_noise()
    data = sample_joint(model, 100, seed=6)
    m, _ = train(data, SPEC, 1e-4, 0.3, tol=1e-5, max_iter=200)
    raw = empirical_risk(0.3, data, lambda xs: np.atleast_1d(predict(m, xs)))
    clipped = empirical_risk(0.3, data, lambda xs: np.atleast_1d(predict_clipped(m, xs)))
    assert clipped <= raw + 1e-12


def test_quantile_fraction_property():
    model = uniform_noise()
    tau = 0.25
    for seed in range(5):
        data = sample_joint(model, 500, seed=70 + seed)
        m, diag = train(data, SPEC, 1e-3, tau, tol=1e-6, max_iter=400)
        fvals = np.atleast_1d(predict(m, data.x))
        r = data.y - fvals
        band = 1e-8
        s = int(np.sum(np.abs(r) <= band))
        frac_below = float(np.mean(r < -band))
        assert tau - s / 500 - 0.01 <= frac_below <= tau + s / 500 + 0.01


def test_psd_check_rejects_bad_gram():
    data = sample_joint(uniform_noise(), 10, seed=1)
    bad = -np.eye(10)
    with pytest.raises(ValueError, match="PSD"):
        train(data, SPEC, 0.1, 0.5, gram_matrix=bad)


def test_psd_check_no_weaker_than_eigenvalues():
    from kqr.kernels import gram
    from kqr.solver import _pivoted_cholesky

    data = sample_joint(uniform_noise(), 100, seed=1)
    g = gram(SPEC, data.x).copy()
    g[2, 5] += 1e-6
    g[5, 2] += 1e-6
    # neither point is a pivot: the factorization completes and every
    # residual diagonal is zero to roundoff, so only the off-diagonal
    # residual shows the negative eigenvalue
    chol = _pivoted_cholesky(g)
    assert np.max(np.abs(np.diag(g - chol @ chol.T))) <= 1e-12
    assert np.linalg.eigvalsh(g)[0] < -1e-7
    with pytest.raises(ValueError, match="PSD"):
        train(data, SPEC, 0.1, 0.5, gram_matrix=g)


def test_model_with_nonfinite_lambda_does_not_load():
    data = sample_joint(uniform_noise(), 25, seed=8)
    m, _ = train(data, SPEC, 0.02, 0.7, tol=1e-8)
    text = model_to_json(m)
    for bad in ("nan", "inf"):
        with pytest.raises(ValueError, match="lambda"):
            model_from_json(text.replace(float(m.lam).hex(), bad))


def test_serialization_bit_faithful():
    data = sample_joint(uniform_noise(), 25, seed=8)
    m, _ = train(data, SPEC, 0.02, 0.7, tol=1e-8)
    back = model_from_json(model_to_json(m))
    assert np.array_equal(back.coef, m.coef)
    assert np.array_equal(back.support_x, m.support_x)
    assert back.lam == m.lam and back.tau == m.tau
    assert back.kernel == m.kernel


def own_gap(x, y, coef, lam, tau, bandwidth):
    """P - D from the definitions, with the Gaussian Gram built here."""
    g = np.exp(-((x - x.T) ** 2) / bandwidth**2)
    f = g @ coef
    reg = lam * float(coef @ f)
    primal = reg + float(np.mean(np.where(y < f, (1 - tau) * (f - y), tau * (y - f))))
    return primal - (2.0 * lam * float(coef @ y) - reg)


@pytest.mark.parametrize("model, n, seed, floor", [
    (uniform_noise(halfwidth=0.5), 512, 11, 2.0**-18),
    # 85 % of the mass on one atom: most y_i sit exactly on g(x_i)
    (dirac_atom_mixture(), 1024, 7, 2.0**-20),
], ids=["uniform", "dirac-atom"])
def test_tv_svm_path_certified_down_to_tiny_lambda(monkeypatch, model, n, seed, floor):
    from kqr import experiments
    from kqr.experiments import lambda_grid, tv_svm

    fits = []

    def recording(*args, **kwargs):
        model, diag = train(*args, **kwargs)
        fits.append((model, diag))
        return model, diag

    monkeypatch.setattr(experiments, "train", recording)
    data = sample_joint(model, n, seed=seed)
    grid = lambda_grid(n)
    assert grid.values[-1] == floor
    tv_svm(data, SPEC, grid, 0.5, tol=1e-4, max_iter=300)
    assert [m.lam for m, _ in fits] == list(grid.values)
    m = n // 2 + 1
    for fit, diag in fits:
        assert diag.converged and diag.iterations < 50
        gap = own_gap(data.x[:m], data.y[:m], fit.coef, fit.lam, 0.5, 0.5)
        assert -1e-9 <= gap <= 1e-6
        assert abs(gap - diag.duality_gap) <= 1e-9


def test_tv_svm_factors_its_gram_once(monkeypatch):
    from kqr import solver
    from kqr.experiments import lambda_grid, tv_svm
    from kqr.solver import _PATH_BLOCK

    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "_pivoted_cholesky",
                        counting("cholesky", solver._pivoted_cholesky))
    monkeypatch.setattr(solver, "_interior_point",
                        counting("interior_point", solver._interior_point))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    data = sample_joint(uniform_noise(), 200, seed=15)
    for grid in (lambda_grid(200), lambda_grid(12, "strict")):  # 17 and 144 lambdas
        calls.update(cholesky=0, eigvalsh=0, interior_point=0)
        result = tv_svm(data, SPEC, grid, 0.5)
        assert len(result.diagnostics) == len(grid.values)
        # one factorization for the whole path, and it certifies the low-rank
        # Gram PSD without an eigen-solve; one Newton loop per block of lambdas
        assert calls == {"cholesky": 1, "eigvalsh": 0,
                         "interior_point": -(-len(grid.values) // _PATH_BLOCK)}


@pytest.mark.parametrize("model, n, seed, spec, tau", [
    (uniform_noise(halfwidth=0.5), 512, 11, SPEC, 0.5),
    # exact ties in y: rounding that couples the rows of a block shows here
    (dirac_atom_mixture(), 1024, 7, SPEC, 0.5),
    (uniform_noise(), 300, 12, PolynomialKernel(degree=3), 0.3),
], ids=["uniform", "dirac-atom", "cubic"])
def test_tv_svm_fits_match_standalone_train(monkeypatch, model, n, seed, spec, tau):
    from kqr import experiments
    from kqr.experiments import lambda_grid, tv_svm

    fits = []

    def recording(*args, **kwargs):
        model, diag = train(*args, **kwargs)
        fits.append((args[0], model, diag))
        return model, diag

    monkeypatch.setattr(experiments, "train", recording)
    data = sample_joint(model, n, seed=seed)
    grid = lambda_grid(n)
    tv_svm(data, spec, grid, tau, tol=1e-4, max_iter=300)
    assert [m.lam for _, m, _ in fits] == list(grid.values)
    for d1, fit, diag in fits:
        alone, alone_diag = train(d1, spec, fit.lam, tau, 1e-4, 300)
        assert np.array_equal(fit.coef, alone.coef), fit.lam
        assert diag.iterations == alone_diag.iterations
        assert diag.duality_gap == alone_diag.duality_gap


# the cases of test_tv_svm_fits_match_standalone_train, and a full-rank
# Matern(1/2) path: m = 202 passes the rank cutoff, so coordinate descent runs
@pytest.mark.parametrize("model, n, seed, spec, tau", [
    (uniform_noise(halfwidth=0.5), 512, 11, SPEC, 0.5),
    (dirac_atom_mixture(), 1024, 7, SPEC, 0.5),
    (uniform_noise(), 300, 12, PolynomialKernel(degree=3), 0.3),
    (uniform_noise(), 402, 16, MaternKernel(0.5, 0.5), 0.5),
], ids=["uniform", "dirac-atom", "cubic", "matern-cd"])
def test_path_certificates_match_a_fresh_gram(monkeypatch, model, n, seed, spec, tau):
    """Both engines derive f = G alpha of a polished candidate from the
    iterate's; every reported objective and gap must still be those of
    alpha on the full Gram, recomputed here from scratch."""
    from kqr import experiments
    from kqr.experiments import lambda_grid, tv_svm
    from kqr.kernels import gram

    fits = []

    def recording(*args, **kwargs):
        model, diag = train(*args, **kwargs)
        fits.append((args[0], model, diag))
        return model, diag

    monkeypatch.setattr(experiments, "train", recording)
    data = sample_joint(model, n, seed=seed)
    tv_svm(data, spec, lambda_grid(n), tau, tol=1e-4, max_iter=300)
    g = gram(spec, fits[0][0].x)
    eps = np.finfo(float).eps
    for d1, fit, diag in fits:
        a, y, lam, m = fit.coef, d1.y, fit.lam, len(d1)
        f = g @ a
        resid = y - f
        primal = lam * (a @ f) + np.mean(np.maximum(tau * resid, (tau - 1.0) * resid))
        dual = 2.0 * lam * (a @ y) - lam * (a @ f)
        # each term is a sum of at most 2m products, each off by at most
        # m eps times the sum of their magnitudes, on both sides
        abs_f = np.abs(g) @ np.abs(a)
        scale = (lam * np.abs(a) @ abs_f + 2.0 * lam * np.abs(a) @ np.abs(y)
                 + np.mean(np.abs(y) + abs_f))
        bound = 16.0 * m * eps * scale
        assert abs(diag.final_objective - primal) <= bound, fit.lam
        assert abs(diag.duality_gap - (primal - dual)) <= bound, fit.lam


def test_train_takes_a_stored_row_only_when_it_matches():
    from kqr.kernels import gram
    from kqr.solver import _prepare

    lams = (2.0**-4, 2.0**-9)
    # a low-rank Gaussian Gram runs the interior point; m = 260 passes the
    # rank cutoff for Matern(1/2), where coordinate descent warm-starts the
    # stored fit at lams[1] from lams[0], and its fits depend on tol
    for spec, n, seed in [(SPEC, 150, 13), (MaternKernel(0.5, 0.5), 260, 14)]:
        data = sample_joint(uniform_noise(), n, seed=seed)
        halved = Dataset(data.x, 0.5 * data.y)
        # a fit solved for tau 0.4, tol 1e-4, max_iter 300 and data.y serves
        # none of these
        for d, tau, tol, max_iter in [(data, 0.6, 1e-4, 300), (data, 0.4, 1e-4, 5),
                                      (halved, 0.4, 1e-4, 300), (data, 0.4, 1e-5, 300)]:
            g = _prepare(gram(spec, data.x))
            assert (g.chol is None) == (spec is not SPEC)
            g.solve_block(data.y, lams, 0.4, 1e-4, 300)
            fit, diag = train(d, spec, lams[1], tau, tol, max_iter, gram_matrix=g)
            alone, alone_diag = train(d, spec, lams[1], tau, tol, max_iter)
            assert np.array_equal(fit.coef, alone.coef)
            assert diag.iterations == alone_diag.iterations


def test_coordinate_descent_path_warm_starts_each_lambda(monkeypatch):
    """tv_svm on a full-rank Gram equals, bit for bit, the chain that starts
    the first lambda from zero and each next one from the previous
    coefficients times lam_prev / lam, clipped to the box."""
    from kqr import experiments
    from kqr.experiments import lambda_grid, tv_svm
    from kqr.kernels import gram
    from kqr.solver import _bounds, _coordinate_descent

    fits = []

    def recording(*args, **kwargs):
        model, diag = train(*args, **kwargs)
        fits.append((model, diag))
        return model, diag

    monkeypatch.setattr(experiments, "train", recording)
    spec, n = MaternKernel(0.5, 0.5), 402
    data = sample_joint(uniform_noise(), n, seed=16)
    grid = lambda_grid(n)
    tv_svm(data, spec, grid, 0.5, tol=1e-4, max_iter=300)
    assert [fit.lam for fit, _ in fits] == list(grid.values)
    m = n // 2 + 1
    d1 = data.subset(0, m)
    g = gram(spec, d1.x)
    prev = None
    for fit, diag in fits:
        lo, up = _bounds(0.5, fit.lam, m)
        start = np.zeros(m) if prev is None else np.clip(prev[1] * (prev[0] / fit.lam), lo, up)
        alpha, _, primal, gap, epochs = _coordinate_descent(
            g, d1.y, fit.lam, 0.5, lo, up, start, 1e-4, 300)
        assert np.array_equal(fit.coef, alpha), fit.lam
        assert (diag.iterations, diag.duality_gap, diag.final_objective) == (epochs, gap, primal)
        prev = fit.lam, alpha


def test_rank_four_polynomial_gram():
    from kqr.kernels import gram
    from kqr.solver import _pivoted_cholesky

    spec = PolynomialKernel(degree=3)
    data = sample_joint(uniform_noise(), 300, seed=12)
    g = gram(spec, data.x)
    chol = _pivoted_cholesky(g)
    assert chol.shape[1] == 4 and np.max(np.abs(g - chol @ chol.T)) <= 1e-12
    for lam in (1e-2, 1e-5):
        m, diag = train(data, spec, lam, 0.3, tol=1e-8, max_iter=100)
        assert diag.converged and kkt_residual(m, data) <= 1e-8
        assert abs(diag.duality_gap) <= 1e-10
        lo, up = -0.7 / (2 * lam * 300), 0.3 / (2 * lam * 300)
        # a cubic interpolates at most four points, so at most four
        # coefficients sit strictly inside the box
        assert np.sum((m.coef > lo) & (m.coef < up)) <= 4


def _count_engines(monkeypatch):
    """Count the calls of each solver engine."""
    from kqr import solver

    calls = {"coordinate_descent": 0, "interior_point": 0}
    for name in calls:
        fn = getattr(solver, "_" + name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solver, "_" + name, counted)
    return calls


def test_interior_point_agrees_with_coordinate_descent(monkeypatch):
    from kqr import solver

    calls = _count_engines(monkeypatch)
    data = sample_joint(uniform_noise(), 150, seed=13)
    low_rank, d_ip = train(data, SPEC, 0.01, 0.4, tol=1e-10)
    assert calls == {"coordinate_descent": 0, "interior_point": 1}
    monkeypatch.setattr(solver, "_RANK_CUTOFF", 0)
    dense, d_cd = train(data, SPEC, 0.01, 0.4, tol=1e-10)
    assert calls == {"coordinate_descent": 1, "interior_point": 1}
    assert d_cd.converged and d_ip.converged
    assert abs(d_ip.final_objective - d_cd.final_objective) <= 1e-8
    assert abs(objective(low_rank, data) - objective(dense, data)) <= 1e-8


def test_full_rank_matern_takes_coordinate_descent(monkeypatch):
    calls = _count_engines(monkeypatch)
    data = sample_joint(uniform_noise(), 260, seed=14)
    _, diag = train(data, MaternKernel(0.5, 0.5), 0.01, 0.5, tol=1e-10, max_iter=60)
    assert calls == {"coordinate_descent": 1, "interior_point": 0}
    assert diag.iterations >= 2
    assert diag.duality_gap >= -1e-12


def _count_psd_work(monkeypatch):
    """Count np.linalg.cholesky calls, their failures and eigvalsh calls."""
    calls = {"cholesky": 0, "cholesky_failed": 0, "eigvalsh": 0}
    cholesky, eigvalsh = np.linalg.cholesky, np.linalg.eigvalsh

    def counted_cholesky(*args, **kwargs):
        calls["cholesky"] += 1
        try:
            return cholesky(*args, **kwargs)
        except np.linalg.LinAlgError:
            calls["cholesky_failed"] += 1
            raise

    def counted_eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    return calls


def _matern_gram(points):
    from kqr.kernels import MaternKernel, gram

    spec = MaternKernel(nu=0.5, lengthscale=0.5)
    return spec, gram(spec, points)


def test_full_rank_gram_with_a_duplicated_point_is_accepted_by_eigenvalues(monkeypatch):
    """A duplicated point makes a full-rank Matern(1/2) Gram singular: its
    Cholesky fails, and the eigenvalue fallback accepts it as PSD."""
    from kqr.solver import _prepare

    data = sample_joint(uniform_noise(), 300, seed=4)
    x = np.vstack([data.x[:1], data.x])
    y = np.concatenate([data.y[:1], data.y])
    spec, g = _matern_gram(x)
    calls = _count_psd_work(monkeypatch)
    prepared = _prepare(g)
    assert prepared.chol is None
    assert calls == {"cholesky": 1, "cholesky_failed": 1, "eigvalsh": 1}
    _, diag = train(Dataset(x, y), spec, 0.05, 0.5, gram_matrix=prepared)
    assert diag.converged


def test_full_rank_gram_below_psd_tolerance_is_rejected(monkeypatch):
    """A full-rank Gram shifted to a smallest eigenvalue of about -1e-6 has
    no Cholesky, and the eigenvalue check rejects it as before."""
    from kqr.solver import _prepare

    data = sample_joint(uniform_noise(), 300, seed=4)
    _, g = _matern_gram(data.x)
    g = g - (np.linalg.eigvalsh(g)[0] + 1e-6) * np.eye(len(g))
    calls = _count_psd_work(monkeypatch)
    with pytest.raises(ValueError, match="Gram matrix is not PSD within tolerance: min eig -1e-06"):
        _prepare(g)
    assert calls == {"cholesky": 1, "cholesky_failed": 1, "eigvalsh": 1}


def test_full_rank_psd_gram_is_certified_by_one_cholesky(monkeypatch):
    from kqr.solver import _prepare

    data = sample_joint(uniform_noise(), 300, seed=4)
    _, g = _matern_gram(data.x)
    calls = _count_psd_work(monkeypatch)
    prepared = _prepare(g)
    assert prepared.chol is None and prepared.matrix is g
    assert calls == {"cholesky": 1, "cholesky_failed": 0, "eigvalsh": 0}
