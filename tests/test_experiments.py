import math

import numpy as np
import pytest

from kqr.distributions import uniform_noise, sample_joint
from kqr.kernels import GaussianKernel
from kqr.losses import Dataset, pinball_loss
from kqr.experiments import (
    RateConfig,
    RateReport,
    RateRow,
    fit_loglog_slope,
    lambda_grid,
    learning_rate_experiment,
    theoretical_gamma,
    theoretical_theta,
    tv_svm,
)

SPEC = GaussianKernel(0.5)


def test_lambda_grid_strict():
    g = lambda_grid(3, "strict")
    assert len(g.values) == 9
    assert g.values[0] == 1.0
    assert g.values[-1] == pytest.approx(1.0 / 9.0)
    g10 = lambda_grid(10, "strict")
    assert len(g10.values) == 100
    gaps = -np.diff(np.array(g10.values))
    assert np.max(gaps) == pytest.approx(0.01)


def test_lambda_grid_strict_is_net():
    for n in (3, 10, 25):
        g = np.sort(np.array(lambda_grid(n, "strict").values))
        probes = np.linspace(1e-9, 1.0, 10 * n * n)
        idx = np.clip(np.searchsorted(g, probes), 0, len(g) - 1)
        left = np.clip(idx - 1, 0, len(g) - 1)
        dist = np.minimum(np.abs(g[idx] - probes), np.abs(g[left] - probes))
        assert np.max(dist) <= 1.0 / (n * n) + 1e-12


def test_lambda_grid_geometric():
    g = lambda_grid(10, "geometric")
    assert g.values == tuple(2.0**-j for j in range(8))
    with pytest.raises(ValueError):
        lambda_grid(2, "geometric")
    with pytest.raises(ValueError):
        lambda_grid(10, "other")


def test_lambda_grid_rejects_non_finite_values():
    # NaN does not sort, so a check of the first and last value misses it
    from kqr.experiments import LambdaGrid

    for values in [(0.5, math.nan, 0.25), (math.nan,), (0.5, math.inf), (-math.inf, 0.5)]:
        with pytest.raises(ValueError):
            LambdaGrid(values=values, mode="geometric")


def test_tv_svm_split_sizes():
    data = sample_joint(uniform_noise(), 7, seed=1)
    res = tv_svm(data, SPEC, lambda_grid(7, "geometric"), 0.5, tol=1e-4)
    assert len(res.model.coef) == 4  # m = floor(7/2) + 1
    with pytest.raises(ValueError):
        tv_svm(sample_joint(uniform_noise(), 2, seed=1), SPEC,
               lambda_grid(3, "geometric"), 0.5)


def test_tv_svm_singleton_grid():
    from kqr.experiments import LambdaGrid

    data = sample_joint(uniform_noise(), 20, seed=2)
    res = tv_svm(data, SPEC, LambdaGrid((0.125,), "geometric"), 0.5, tol=1e-5)
    assert res.chosen_lambda == 0.125


def test_tv_svm_prefers_fitting_lambda():
    """y = 0.9 everywhere: lambda = 1 forces a near-zero model whose
    validation risk ~ tau * 0.9; a small lambda fits and must win."""
    from kqr.experiments import LambdaGrid

    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(40, 1))
    data = Dataset(x, np.full(40, 0.9))
    res = tv_svm(data, SPEC, LambdaGrid((1.0, 0.001), "geometric"), 0.5, tol=1e-6)
    assert res.chosen_lambda == 0.001
    assert res.validation_risks[1.0] > res.validation_risks[0.001]


def test_tv_svm_selection_is_argmin():
    data = sample_joint(uniform_noise(), 60, seed=4)
    res = tv_svm(data, SPEC, lambda_grid(60, "geometric"), 0.5, tol=1e-4)
    best = min(res.validation_risks.values())
    assert res.validation_risks[res.chosen_lambda] == best
    ties = [lam for lam, r in res.validation_risks.items() if r == best]
    assert res.chosen_lambda == min(ties)


def test_tv_svm_validation_risk_recompute():
    data = sample_joint(uniform_noise(), 31, seed=5)
    grid = lambda_grid(31, "geometric")
    res = tv_svm(data, SPEC, grid, 0.3, tol=1e-6)
    m = 31 // 2 + 1
    d2 = data.subset(m, 31)
    k21 = SPEC.pairwise(d2.x, res.model.support_x)
    preds = np.clip(k21 @ res.model.coef, -1, 1)
    want = float(np.mean(pinball_loss(0.3, d2.y, preds)))
    assert res.validation_risks[res.chosen_lambda] == pytest.approx(want, abs=1e-12)


def test_theoretical_theta():
    assert theoretical_theta(math.inf, 2.0) == 1.0
    assert theoretical_theta(1.0, 2.0) == 0.5
    assert theoretical_theta(math.inf, 4.0) == 0.5
    with pytest.raises(ValueError):
        theoretical_theta(-1.0, 2.0)


def test_theoretical_gamma():
    assert theoretical_gamma(1.0, 1.0, 0.5) == pytest.approx(2.0 / 3.0)
    assert theoretical_gamma(0.5, 0.0, 0.5) == pytest.approx(0.4)
    # limit rho -> 0+ of the first branch approaches 1
    assert theoretical_gamma(1.0, 1.0, 1e-9) == pytest.approx(1.0, abs=1e-6)
    for bad in [(0.0, 1.0, 0.5), (1.0, 1.5, 0.5), (1.0, 1.0, 1.0)]:
        with pytest.raises(ValueError):
            theoretical_gamma(*bad)


def test_fit_loglog_slope_exact():
    ns = np.array([100, 200, 400, 800])
    vals = 5.0 * ns ** (-2.0 / 3.0)
    assert fit_loglog_slope(ns, vals) == pytest.approx(-2.0 / 3.0, abs=1e-9)
    with pytest.raises(ValueError):
        fit_loglog_slope([100, 200], [1.0, 0.5])


def small_config(**kw):
    defaults = dict(
        model=uniform_noise(),
        kernel=SPEC,
        tau=0.5,
        sample_sizes=(32, 64),
        repetitions=2,
        seed=1,
        tol=1e-4,
        max_iter=150,
    )
    defaults.update(kw)
    return RateConfig(**defaults)


def test_rate_report_structure_single_size():
    rep = learning_rate_experiment(small_config(sample_sizes=(32,), repetitions=1))
    assert len(rep.rows) == 1
    assert rep.excess_slope is None  # needs >= 3 sizes
    assert rep.theoretical_gamma == pytest.approx(
        theoretical_gamma(1.0, 1.0, 0.1)
    )


def test_rate_experiment_deterministic():
    cfg = small_config()
    a = learning_rate_experiment(cfg)
    b = learning_rate_experiment(cfg)
    assert a.to_csv() == b.to_csv()
    assert a.summary() == b.summary()


def test_rate_report_csv_columns():
    rep = learning_rate_experiment(small_config(sample_sizes=(32,), repetitions=1))
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "n,rep,lambda_chosen,excess_risk,dist_norm,converged"
    assert len(lines) == 2


def test_rate_config_validation():
    with pytest.raises(ValueError):
        small_config(sample_sizes=(2,))
    with pytest.raises(ValueError):
        small_config(repetitions=0)
    with pytest.raises(ValueError):
        small_config(beta=1.5)


def test_rho_estimation_path():
    cfg = small_config(rho=None, sample_sizes=(64, 128), repetitions=1)
    rep = learning_rate_experiment(cfg)
    assert 0.0 < rep.rho_used < 1.0


def test_summary_lists_excluded_rows():
    """Rows whose chosen fit did not converge are named in the summary."""
    rows = [RateRow(n, rep, 0.5, 0.1 * (rep + 1), 0.2, converged)
            for n, rep, converged in [(32, 0, True), (32, 1, False), (64, 0, False),
                                      (64, 1, False), (128, 0, True)]]
    report = RateReport(rows=rows, r_norm=2.0, excess_slope=None, dist_slope=None,
                        theoretical_gamma=0.5, theoretical_gamma_over_q=0.25, rho_used=0.1)
    assert report.summary()["excluded_rows"] == {"32": [1], "64": [0, 1], "128": []}

    rep = learning_rate_experiment(small_config(max_iter=3))
    excluded = rep.summary()["excluded_rows"]
    assert sorted(excluded) == ["32", "64"]
    for n, reps in excluded.items():
        kept = [row for row in rep.rows if row.n == int(n) and row.rep not in reps]
        assert all(row.converged for row in kept)
        assert all(not row.converged for row in rep.rows if row.n == int(n) and row.rep in reps)
        if kept:
            assert rep.mean_excess[int(n)] == np.mean([row.excess_risk for row in kept])
        else:
            assert int(n) not in rep.mean_excess
    assert any(excluded.values())
