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
    assert predict(m, np.array([[0.0]])).shape == (1,)
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


def test_tiny_lambda_fit_at_tau_one_tenth_is_certified():
    """Far below the grids' floor lambda * m >= 1/(4n), the interior point
    certifies this fit."""
    data = sample_joint(uniform_noise(), 60, seed=3)
    _, diag = train(data, SPEC, 1e-9, 0.1)
    assert diag.converged and diag.duality_gap <= 1e-8


def test_corrector_refinement_keeps_a_small_lambda_fit_at_roundoff():
    """The TV-SVM training half of the rate experiment's polynomial-density
    sample at n = 1024, rep 0, seed 1, at the grid's floor lambda = 2^-20.
    The corrector's one refinement keeps its gap at roundoff; without it the
    interior point stops at a gap of 1.6e-6."""
    from kqr.distributions import polynomial_density
    from kqr.util import derive_seed_sequence

    n = 1024
    seed = int(derive_seed_sequence(1, "sample", n, 0).generate_state(1)[0])
    data = sample_joint(polynomial_density(), n, seed).subset(0, n // 2 + 1)
    _, diag = train(data, SPEC, 2.0**-20, 0.5, tol=1e-4, max_iter=300)
    assert diag.duality_gap <= 1e-9


def test_reference_train_one_point():
    data = one_point_data()
    cases = [(1.0, 0.25), (0.25, 0.9)]
    refs = reference_train([data] * 2, UNIT_SPEC, [lam for lam, _ in cases], 0.5, 200_000)
    for (lam, want), ref in zip(cases, refs):
        analytic = lam * want**2 + pinball_loss(0.5, 0.9, want)
        assert objective(ref, data) <= analytic + 1e-4


def test_reference_train_zero_data():
    [ref] = reference_train([one_point_data(0.0)], UNIT_SPEC, [1.0], 0.5, 1000)
    assert ref.coef[0] == 0.0


def test_reference_train_batch_gives_each_problem_its_own_bits():
    """A problem stepped in a batch ends with the coefficients it gets
    alone; a batch of mixed sizes, or with a lambda per problem missing,
    is refused."""
    model = uniform_noise()
    datas = [sample_joint(model, 12, seed=70 + seed) for seed in range(3)]
    lams = [0.05, 0.01, 0.2]
    batch = reference_train(datas, SPEC, lams, 0.3, 500)
    for data, lam, got in zip(datas, lams, batch):
        [alone] = reference_train([data], SPEC, [lam], 0.3, 500)
        assert np.array_equal(got.coef, alone.coef) and got.lam == lam
    with pytest.raises(ValueError, match=r"one size, got sizes \[12, 13\]"):
        reference_train([datas[0], sample_joint(model, 13, seed=1)], SPEC, [0.05] * 2, 0.3, 10)
    with pytest.raises(ValueError, match="3 datasets but 2 lambdas"):
        reference_train(datas, SPEC, lams[:2], 0.3, 10)


def test_dual_beats_reference_on_random_instances():
    model = uniform_noise()
    datas = [sample_joint(model, 30, seed=40 + seed) for seed in range(5)]
    refs = reference_train(datas, SPEC, [0.05] * len(datas), 0.5, 50_000)
    for data, ref in zip(datas, refs):
        m, _ = train(data, SPEC, 0.05, 0.5, tol=1e-8)
        assert objective(m, data) <= objective(ref, data) + 1e-3


def test_clipping_never_hurts_training_risk():
    model = uniform_noise()
    data = sample_joint(model, 100, seed=6)
    m, _ = train(data, SPEC, 1e-4, 0.3, tol=1e-5, max_iter=200)
    raw = empirical_risk(0.3, data, lambda xs: predict(m, xs))
    clipped = empirical_risk(0.3, data, lambda xs: predict_clipped(m, xs))
    assert clipped <= raw + 1e-12


def test_quantile_fraction_property():
    model = uniform_noise()
    tau = 0.25
    for seed in range(5):
        data = sample_joint(model, 500, seed=70 + seed)
        m, diag = train(data, SPEC, 1e-3, tau, tol=1e-6, max_iter=400)
        fvals = predict(m, data.x)
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
    chol, done = _pivoted_cholesky(g)
    assert done and np.max(np.abs(np.diag(g - chol @ chol.T))) <= 1e-12
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
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    data = sample_joint(uniform_noise(), 200, seed=15)
    for grid in (lambda_grid(200), lambda_grid(12, "strict")):  # 17 and 144 lambdas
        calls.update(cholesky=0, eigh=0, interior_point=0)
        result = tv_svm(data, SPEC, grid, 0.5)
        assert len(result.diagnostics) == len(grid.values)
        # one factorization for the whole path, and it certifies the low-rank
        # Gram PSD without an eigen-solve; one Newton loop per block of lambdas
        assert calls == {"cholesky": 1, "eigh": 0,
                         "interior_point": -(-len(grid.values) // _PATH_BLOCK)}


@pytest.mark.parametrize("model, n, seed, spec, tau", [
    (uniform_noise(halfwidth=0.5), 512, 11, SPEC, 0.5),
    # exact ties in y: rounding that couples the rows of a block shows here
    (dirac_atom_mixture(), 1024, 7, SPEC, 0.5),
    (uniform_noise(), 300, 12, PolynomialKernel(degree=3), 0.3),
    # m = 202 past the rank cutoff: the interior point runs on the cut factor
    (uniform_noise(), 402, 16, MaternKernel(0.5, 0.5), 0.5),
], ids=["uniform", "dirac-atom", "cubic", "matern-full-rank"])
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


# the cases of test_tv_svm_fits_match_standalone_train, with a full-rank
# Matern(1/2) path: m = 202 passes the rank cutoff, so the factor is cut
@pytest.mark.parametrize("model, n, seed, spec, tau", [
    (uniform_noise(halfwidth=0.5), 512, 11, SPEC, 0.5),
    (dirac_atom_mixture(), 1024, 7, SPEC, 0.5),
    (uniform_noise(), 300, 12, PolynomialKernel(degree=3), 0.3),
    (uniform_noise(), 402, 16, MaternKernel(0.5, 0.5), 0.5),
], ids=["uniform", "dirac-atom", "cubic", "matern-full-rank"])
def test_path_certificates_match_a_fresh_gram(monkeypatch, model, n, seed, spec, tau):
    """The crossover derives f = G alpha of a polished candidate from the
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


def test_crossover_keeps_no_fit_worse_than_the_raw_or_snapped_iterate(monkeypatch):
    """The crossover builds a raw and a snapped iterate from each row of the
    interior point, and returns the polished, the snapped or the raw one.
    Recomputed here from the interior point's rows, on a fresh Gram, neither
    candidate has a smaller gap than the fit returned.  Exact ties in y
    make this Dirac-atom path reach all three outcomes."""
    from kqr import experiments, solver
    from kqr.experiments import lambda_grid, tv_svm

    rows = {}
    interior_point = solver._interior_point

    def recording_rows(chol, y, lams, tau, max_iter):
        out = interior_point(chol, y, lams, tau, max_iter)
        for i, lam in enumerate(lams):
            rows[lam] = tuple(v[i] for v in out[:3])
        return out

    fits = []

    def recording(*args, **kwargs):
        model, diag = train(*args, **kwargs)
        fits.append((args[0], model))
        return model, diag

    monkeypatch.setattr(solver, "_interior_point", recording_rows)
    monkeypatch.setattr(experiments, "train", recording)
    data = sample_joint(dirac_atom_mixture(), 256, seed=1)
    tv_svm(data, SPEC, lambda_grid(256), 0.5, tol=1e-4, max_iter=300)
    kept = set()
    for d1, fit in fits:
        lam, m = fit.lam, len(d1)
        u, at_lo, at_up = rows[lam]
        lo, up = -0.5 / (2 * lam * m), 0.5 / (2 * lam * m)
        raw = np.clip(u / (2 * lam * m), lo, up)
        snapped = raw.copy()
        snapped[at_lo], snapped[at_up] = lo, up
        gap_raw, gap_snap, gap = (own_gap(d1.x, d1.y, a, lam, 0.5, 0.5)
                                  for a in (raw, snapped, fit.coef))
        assert gap <= gap_raw and gap <= gap_snap, lam
        kept.add("raw" if np.array_equal(fit.coef, raw)
                 else "snapped" if np.array_equal(fit.coef, snapped) else "polished")
    assert kept == {"raw", "snapped", "polished"}


def test_train_takes_a_stored_row_only_when_it_matches():
    from kqr.kernels import gram
    from kqr.solver import _RANK_CUTOFF, _prepare

    lams = (2.0**-4, 2.0**-9)
    # a low-rank Gaussian Gram has a finished factor; m = 260 passes the
    # rank cutoff for Matern(1/2), whose factor is cut
    for spec, n, seed in [(SPEC, 150, 13), (MaternKernel(0.5, 0.5), 260, 14)]:
        data = sample_joint(uniform_noise(), n, seed=seed)
        halved = Dataset(data.x, 0.5 * data.y)
        # a fit solved for tau 0.4, tol 1e-4, max_iter 300 and data.y serves
        # none of these
        for d, tau, tol, max_iter in [(data, 0.6, 1e-4, 300), (data, 0.4, 1e-4, 5),
                                      (halved, 0.4, 1e-4, 300), (data, 0.4, 1e-5, 300)]:
            g = _prepare(gram(spec, data.x))
            assert (g.chol.shape[1] == _RANK_CUTOFF) == (spec is not SPEC)
            g.solve_block(data.y, lams, 0.4, 1e-4, 300)
            fit, diag = train(d, spec, lams[1], tau, tol, max_iter, gram_matrix=g)
            alone, alone_diag = train(d, spec, lams[1], tau, tol, max_iter)
            assert np.array_equal(fit.coef, alone.coef)
            assert diag.iterations == alone_diag.iterations


def test_rank_four_polynomial_gram():
    from kqr.kernels import gram
    from kqr.solver import _pivoted_cholesky

    spec = PolynomialKernel(degree=3)
    data = sample_joint(uniform_noise(), 300, seed=12)
    g = gram(spec, data.x)
    chol, done = _pivoted_cholesky(g)
    assert done and chol.shape[1] == 4 and np.max(np.abs(g - chol @ chol.T)) <= 1e-12
    for lam in (1e-2, 1e-5):
        m, diag = train(data, spec, lam, 0.3, tol=1e-8, max_iter=100)
        assert diag.converged and kkt_residual(m, data) <= 1e-8
        assert abs(diag.duality_gap) <= 1e-10
        lo, up = -0.7 / (2 * lam * 300), 0.3 / (2 * lam * 300)
        # a cubic interpolates at most four points, so at most four
        # coefficients sit strictly inside the box
        assert np.sum((m.coef > lo) & (m.coef < up)) <= 4


def _count_engines(monkeypatch):
    """Record the factor width and the Newton steps of every call of the
    interior point, one (columns, steps) pair per call."""
    from kqr import solver

    calls = []
    interior_point = solver._interior_point

    def counted(chol, *args, **kwargs):
        out = interior_point(chol, *args, **kwargs)
        calls.append((chol.shape[1], int(np.sum(out[3]))))
        return out

    monkeypatch.setattr(solver, "_interior_point", counted)
    return calls


def test_interior_point_agrees_across_factors(monkeypatch):
    """The fit on the pivoted factor of a low-rank Gram and the fit on the
    same Gram's m-column eigen factor reach one optimum."""
    from kqr.kernels import gram
    from kqr.solver import _prepare

    calls = _count_engines(monkeypatch)
    data = sample_joint(uniform_noise(), 150, seed=13)
    low_rank, d_ip = train(data, SPEC, 0.01, 0.4, tol=1e-10)
    assert len(calls) == 1 and calls[0][0] < 150
    g = _prepare(gram(SPEC, data.x))
    eigs, vecs = np.linalg.eigh(g.matrix)
    dense = vecs * np.sqrt(np.maximum(eigs, 0.0))
    (alpha, _, primal, gap, _), = g._newton(dense, data.y, [0.01], 0.4, 1000)
    assert calls[1][0] == 150
    other = SvmModel(support_x=data.x, coef=alpha, kernel=SPEC, lam=0.01, tau=0.4)
    assert d_ip.converged and d_ip.duality_gap <= 1e-10 and gap <= 1e-10
    assert abs(d_ip.final_objective - primal) <= 1e-8
    assert abs(objective(low_rank, data) - objective(other, data)) <= 1e-8


def test_full_rank_matern_takes_the_interior_point_on_its_cut_factor(monkeypatch):
    """Past the rank cutoff the interior point steps on the cut factor and
    the crossover on the full Gram certifies the fit.  A fit the crossover
    leaves above tol runs the interior point again on the Gram's dense
    factor, and its Newton steps add to the first run's."""
    calls = _count_engines(monkeypatch)
    data = sample_joint(uniform_noise(), 260, seed=14)
    spec = MaternKernel(0.5, 0.5)
    _, diag = train(data, spec, 0.01, 0.5, tol=1e-10, max_iter=60)
    assert [width for width, _ in calls] == [200]
    assert diag.converged and diag.iterations >= 2
    assert diag.duality_gap >= -1e-12
    # three Newton steps leave the gap above tol: three more follow on the
    # 260-column dense factor
    _, diag = train(data, spec, 0.01, 0.5, tol=1e-10, max_iter=3)
    assert calls[1:] == [(200, 3), (260, 3)]
    assert not diag.converged and diag.iterations == 3 + 3


@pytest.mark.parametrize("tau, gap", [(0.5, 0.0201), (0.9, 1.1e-9)])
def test_tiny_lambda_train_on_a_finished_factor_takes_one_run(monkeypatch, tau, gap):
    """The fit of test_tiny_lambda_fit_at_tau_one_tenth_is_certified at two
    more levels: the interior point certifies tau = 0.9 and stops at its
    roundoff bound at tau = 0.5.  The pivoted factor of this Gaussian Gram
    is finished, hence exact: no second run follows, and iterations are
    the Newton steps."""
    calls = _count_engines(monkeypatch)
    data = sample_joint(uniform_noise(), 60, seed=3)
    _, diag = train(data, SPEC, 1e-9, tau)
    assert len(calls) == 1 and calls[0][0] < 60
    assert diag.iterations == calls[0][1]
    assert diag.duality_gap == pytest.approx(gap, rel=0.05)
    assert diag.converged == (tau != 0.5)


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_full_rank_matern_path_is_certified(nu):
    """A Matern(nu) Gram at m = 301 passes the rank cutoff.  On the Dirac
    atom's ties in y, the cut factor alone left one nu = 3/2 fit
    uncertified (lambda = 2^-17, gap 1.1e-5); its second run on the dense
    factor certifies all 20."""
    from kqr.experiments import lambda_grid, tv_svm

    data = sample_joint(dirac_atom_mixture(), 600, seed=3)
    result = tv_svm(data, MaternKernel(nu, 0.5), lambda_grid(600), 0.5, tol=1e-5, max_iter=300)
    assert len(result.diagnostics) == 20
    for lam, diag in result.diagnostics.items():
        assert diag.converged and diag.duality_gap >= -1e-12, lam


def _count_psd_work(monkeypatch):
    """Count np.linalg.cholesky calls, their failures and eigh calls."""
    calls = {"cholesky": 0, "cholesky_failed": 0, "eigh": 0}
    cholesky, eigh = np.linalg.cholesky, np.linalg.eigh

    def counted_cholesky(*args, **kwargs):
        calls["cholesky"] += 1
        try:
            return cholesky(*args, **kwargs)
        except np.linalg.LinAlgError:
            calls["cholesky_failed"] += 1
            raise

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    return calls


def _matern_gram(points):
    from kqr.kernels import MaternKernel, gram

    spec = MaternKernel(nu=0.5, lengthscale=0.5)
    return spec, gram(spec, points)


def test_full_rank_gram_with_a_duplicated_point_is_accepted_by_eigenvalues(monkeypatch):
    """A duplicated point makes a full-rank Matern(1/2) Gram singular: its
    Cholesky fails, and the eigenvalue fallback accepts it as PSD and gives
    it an eigen factor, on which the fits at small lambdas are certified."""
    from kqr.solver import _RANK_CUTOFF, _prepare

    data = sample_joint(uniform_noise(), 300, seed=4)
    x = np.vstack([data.x[:1], data.x])
    y = np.concatenate([data.y[:1], data.y])
    spec, g = _matern_gram(x)
    calls = _count_psd_work(monkeypatch)
    prepared = _prepare(g)
    assert prepared.chol.shape == (301, _RANK_CUTOFF) and prepared.dense.shape == (301, 301)
    assert calls == {"cholesky": 1, "cholesky_failed": 1, "eigh": 1}
    engines = _count_engines(monkeypatch)
    for lam in (0.05, 1e-3, 1e-5):
        engines.clear()
        _, diag = train(Dataset(x, y), spec, lam, 0.5, gram_matrix=prepared)
        assert diag.converged, lam
        # the cut factor certifies lambda = 0.05 alone; the smaller two take
        # a second run on the eigen factor
        assert [width for width, _ in engines] == ([200] if lam == 0.05 else [200, 301])


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
    assert calls == {"cholesky": 1, "cholesky_failed": 1, "eigh": 1}


def test_full_rank_psd_gram_is_certified_by_one_cholesky(monkeypatch):
    from kqr.solver import _RANK_CUTOFF, _prepare

    data = sample_joint(uniform_noise(), 300, seed=4)
    _, g = _matern_gram(data.x)
    calls = _count_psd_work(monkeypatch)
    prepared = _prepare(g)
    assert prepared.chol.shape == (300, _RANK_CUTOFF) and prepared.matrix is g
    assert calls == {"cholesky": 1, "cholesky_failed": 0, "eigh": 0}
    # the Cholesky that certified it is kept as the dense factor
    assert np.allclose(prepared.dense @ prepared.dense.T, g, rtol=0, atol=1e-12)
