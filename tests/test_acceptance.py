"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with pytest -v -s).  The
learning-rate experiment is shared between the two slope criteria through a
module-scoped fixture because it dominates the runtime.  The tests that use
the two module-scoped fixtures are marked slow, so `pytest -m "not slow"`
leaves them out.
"""

import math
import time

import numpy as np
import pytest

from kqr.calibration import (
    check_self_calibration,
    check_variance_bound,
    random_test_functions,
)
from kqr.distributions import (
    CertificateError,
    bounded_density_mixture,
    dirac_atom_mixture,
    polynomial_density,
    sample_joint,
    two_atom,
    type_q_params,
    uniform_noise,
)
from kqr.experiments import RateConfig, learning_rate_experiment
from kqr.inner_risk import (
    excess_inner_risk,
    inner_risk,
    lower_pol_delta,
    min_inner_risk,
    self_cal_lower_bound,
    self_calibration_fn,
)
from kqr.kernels import GaussianKernel, fit_power_law, spectrum_decay
from kqr.losses import Dataset
from kqr.solver import objective, predict, reference_train, train

TAUS = (0.1, 0.5, 0.9)
PS = (1.0, 4.0, math.inf)
SPEC = GaussianKernel(0.5)


def _families():
    return [
        bounded_density_mixture(),
        polynomial_density(),
        dirac_atom_mixture(),
        two_atom(),
    ]


def _report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{' -- ' + detail if detail else ''}")
    return ok


def test_criterion_01_excess_inner_risk_agreement():
    start = time.time()
    rng = np.random.default_rng(2024)
    ts = np.linspace(-1.0, 1.0, 50)
    worst = 0.0
    for model in _families():
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=model.dim)
            for tau in TAUS:
                prof = min_inner_risk(model, x, tau)
                closed = excess_inner_risk(model, x, tau, ts)
                direct = inner_risk(model, x, tau, ts) - prof.c_star
                worst = max(worst, float(np.max(np.abs(closed - direct))))
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    assert _report("1 (inner-risk closed form)", ok,
                   f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_comparison_function_bound():
    eps_grid = np.linspace(0.0, 2.0, 101)
    worst = 0.0
    for alpha in (0.25, 1.0, 2.0):
        for q in (1.0, 1.5, 2.0, 3.0):
            bound = (alpha / 2.0) ** (q - 1.0) * eps_grid**q
            vals = np.array([lower_pol_delta(alpha, q, e) for e in eps_grid])
            worst = min(worst, float(np.min(vals - bound)))
    ok = worst >= -1e-12
    assert _report("2 (comparison-function bound)", ok, f"min slack {worst:.2e}")


def test_criterion_03_self_calibration_lower_bound():
    eps_grid = np.linspace(0.0, 2.0, 101)
    rng = np.random.default_rng(7)
    worst = math.inf
    checked = 0
    for model in _families():
        for tau in TAUS:
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, size=model.dim)
                try:
                    params = type_q_params(model, x, tau)
                except CertificateError:
                    continue
                actual = np.array(
                    [self_calibration_fn(model, x, tau, e) for e in eps_grid]
                )
                bound = np.array([self_cal_lower_bound(params, e) for e in eps_grid])
                worst = min(worst, float(np.min(actual - bound)))
                checked += 1
    ok = worst >= -1e-8 and checked >= 9
    assert _report("3 (self-calibration lower bound)", ok,
                   f"min slack {worst:.2e} over {checked} certificates")


@pytest.fixture(scope="module")
def calibration_sweeps():
    """lhs/rhs sweeps shared by criteria 4 and 5."""
    start = time.time()
    results = []
    for model in _families():
        for tau in TAUS:
            for p in PS:
                fs = random_test_functions(8, 1000, seed=int(tau * 100 + (0 if math.isinf(p) else p)))
                sc = check_self_calibration(model, tau, p, fs)
                vb = check_variance_bound(model, tau, p, fs)
                results.append((model.family, tau, p, sc, vb))
    return results, time.time() - start


@pytest.mark.slow
def test_criterion_04_self_calibration_inequality(calibration_sweeps):
    results, elapsed = calibration_sweeps
    worst = min(float(np.min(sc.slack)) for _, _, _, sc, _ in results)
    violations = sum(int(np.sum(sc.slack < -1e-8)) for _, _, _, sc, _ in results)
    total = sum(len(sc.slack) for _, _, _, sc, _ in results)
    ok = violations == 0 and elapsed < 120.0
    assert _report("4 (self-calibration inequality)", ok,
                   f"{total} checks, min slack {worst:.2e}, {elapsed:.0f}s for both sweeps")


@pytest.mark.slow
def test_criterion_05_variance_bound(calibration_sweeps):
    results, _ = calibration_sweeps
    worst = min(float(np.min(vb.slack)) for _, _, _, _, vb in results)
    violations = sum(int(np.sum(vb.slack < -1e-8)) for _, _, _, _, vb in results)
    total = sum(len(vb.slack) for _, _, _, _, vb in results)
    ok = violations == 0
    assert _report("5 (variance bound)", ok,
                   f"{total} checks, min slack {worst:.2e}")


def test_criterion_06_solver_correctness():
    unit = GaussianKernel(1.0)
    data1 = Dataset(np.array([[0.0]]), np.array([0.9]))
    m1, d1 = train(data1, unit, 1.0, 0.5, tol=1e-12)
    m2, d2 = train(data1, unit, 0.25, 0.5, tol=1e-12)
    a_ok = abs(m1.coef[0] - 0.25) <= 1e-10 and abs(m2.coef[0] - 0.9) <= 1e-10

    model = uniform_noise()
    b_ok = True
    c_ok = True
    for seed in range(20):
        data = sample_joint(model, 30, seed=1000 + seed)
        m, diag = train(data, SPEC, 0.05, 0.5, tol=1e-6)
        if diag.converged and diag.kkt_residual > 1e-6:
            b_ok = False
        ref = reference_train(data, SPEC, 0.05, 0.5, 50_000)
        if objective(m, data) > objective(ref, data) + 1e-3:
            c_ok = False
    ok = a_ok and b_ok and c_ok
    assert _report("6 (solver correctness)", ok,
                   f"analytic {a_ok}, kkt {b_ok}, oracle {c_ok}")


def test_criterion_07_quantile_fraction():
    model = uniform_noise()
    tau = 0.25
    ok = True
    detail = []
    for seed in range(10):
        data = sample_joint(model, 500, seed=3000 + seed)
        m, _ = train(data, SPEC, 1e-3, tau, tol=1e-6, max_iter=400)
        fvals = np.atleast_1d(predict(m, data.x))
        r = data.y - fvals
        band = 1e-8
        s = int(np.sum(np.abs(r) <= band))
        frac = float(np.mean(r < -band))
        lo, hi = tau - s / 500 - 0.01, tau + s / 500 + 0.01
        if not lo <= frac <= hi:
            ok = False
        detail.append(f"{frac:.3f}")
    assert _report("7 (quantile fraction)", ok, "fractions " + " ".join(detail))


@pytest.fixture(scope="module")
def rate_report():
    config = RateConfig(
        model=uniform_noise(),
        kernel=SPEC,
        tau=0.5,
        sample_sizes=(128, 256, 512, 1024, 2048),
        repetitions=20,
        seed=1,
        p=math.inf,
        q=2.0,
        rho=0.1,
        tol=1e-4,
        max_iter=300,
    )
    start = time.time()
    report = learning_rate_experiment(config)
    return report, time.time() - start


@pytest.mark.slow
def test_criterion_08_excess_risk_rate(rate_report):
    report, elapsed = rate_report
    means = [report.mean_excess[n] for n in sorted(report.mean_excess)]
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    ok = (
        report.excess_slope is not None
        and report.excess_slope <= -0.4
        and decreasing
        and elapsed < 900.0
    )
    assert _report("8 (excess-risk rate)", ok,
                   f"slope {report.excess_slope:.3f}, means {['%.4g' % m for m in means]}, "
                   f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_09_distance_norm_rate(rate_report):
    report, _ = rate_report
    ok = report.dist_slope is not None and report.dist_slope <= -0.2
    assert _report("9 (distance-norm rate)", ok, f"slope {report.dist_slope:.3f}")


@pytest.mark.slow
def test_rate_monotone_trend(rate_report):
    """Spearman correlation between n and mean excess risk on the default
    experiment (supporting invariant, not a numbered criterion)."""
    from scipy.stats import spearmanr

    report, _ = rate_report
    ns = sorted(report.mean_excess)
    corr = spearmanr(ns, [report.mean_excess[n] for n in ns]).statistic
    assert corr <= -0.8


def test_criterion_10_spectrum_fitter():
    idx = np.arange(1, 61, dtype=float)
    est = fit_power_law(idx**-4.0)
    exact_ok = abs(est.rho_hat - 0.25) <= 1e-6
    rng = np.random.default_rng(123)
    xs = rng.uniform(-1.0, 1.0, size=(500, 1))
    emp = spectrum_decay(SPEC, xs)
    emp_ok = emp.rho_hat <= 0.5
    ok = exact_ok and emp_ok
    assert _report("10 (spectrum fitter)", ok,
                   f"exact rho {est.rho_hat:.8f}, empirical rho {emp.rho_hat:.3f}")


def test_criterion_11_cli_reproducibility(tmp_path):
    from kqr.cli import main

    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[run]\nseed = 4\n\n[model]\nfamily = bounded-density-mixture\n\n"
        "[check]\ntaus = 0.5\nps = inf\ncells = 4\ncount = 20\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["check-calibration", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append((out / "report.csv").read_bytes())
    ok = outs[0] == outs[1]
    assert _report("11 (CLI reproducibility)", ok,
                   f"{len(outs[0])} bytes, identical {ok}")
