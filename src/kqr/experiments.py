"""Model selection and learning-rate experiments.

The training-validation SVM splits the sample at m = floor(n/2) + 1, trains
one model per grid value of the regularization parameter on the first part,
and keeps the value whose clipped predictor minimizes the empirical risk on
the second part (smallest value wins ties).  Rate experiments repeat this
over growing sample sizes, measure the excess risk of the selected clipped
predictor by exact quadrature against the generating model, and compare the
fitted log-log slope with the theoretical exponent

    gamma = min( beta / (beta*(2 - theta + rho*theta - rho) + rho),
                 2*beta / (beta + 1) ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import _evaluate, theta_exponent
from .distributions import ConditionalModel, sample_joint
from .kernels import gram, spectrum_decay
from .losses import Dataset, pinball_loss, tau_value
from .solver import (
    _MAX_ITER,
    _TOL,
    SolveDiagnostics,
    SvmModel,
    _check_stopping,
    _prepare,
    predict_clipped,
    train,
)
from .util import csv_text, derive_rng, derive_seed_sequence, fmt17

__all__ = [
    "LambdaGrid",
    "lambda_grid",
    "TvSvmResult",
    "tv_svm",
    "theoretical_theta",
    "theoretical_gamma",
    "RateConfig",
    "RateRow",
    "RateReport",
    "fit_loglog_slope",
    "learning_rate_experiment",
]


@dataclass(frozen=True)
class LambdaGrid:
    """Finite descending grid of regularization values in (0, 1]."""

    values: tuple[float, ...]
    mode: str

    def __post_init__(self):
        vals = tuple(sorted(set(float(v) for v in self.values), reverse=True))
        if not vals:
            raise ValueError("grid must be nonempty")
        if not all(map(math.isfinite, vals)):  # NaN does not sort, so test every value
            raise ValueError("grid values must be finite")
        if vals[0] > 1.0 or vals[-1] <= 0.0:
            raise ValueError("grid values must lie in (0, 1]")
        object.__setattr__(self, "values", vals)


def lambda_grid(n: int, mode: str = "geometric") -> LambdaGrid:
    """strict: {i/n^2 : i=1..n^2}, an exact n^-2 net of (0,1].
    geometric: {2^-j : j=0..ceil(2 log2 n)}, the practical surrogate."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if mode == "strict":
        step = 1.0 / (n * n)
        values = tuple(i * step for i in range(1, n * n + 1))
    elif mode == "geometric":
        jmax = math.ceil(2.0 * math.log2(n))
        values = tuple(2.0**-j for j in range(jmax + 1))
    else:
        raise ValueError("mode must be 'strict' or 'geometric'")
    return LambdaGrid(values=values, mode=mode)


# tv_svm runs the interior point on this many lambdas of its grid at once,
# which bounds the path's memory at O(block m + m r) on any grid.  On a
# rate round (Gaussian(0.5), n = 128 ... 2048, paths of 15 to 23 lambdas,
# 2-core machine) a round took 0.61 s with a scalar solve per lambda,
# 0.47 s in blocks of 4, and 0.41 to 0.42 s in blocks of 8, 12 or 16 and
# in one block per path.  Peak RSS over 15 rounds in one process read
# 89.3 MB with scalar solves, 89.6 at 4, 100.8 at 8, 88.9 at 12 and 89.3
# at 16: glibc heap retention, since block 8 reads 88.8 MB with its mmap
# threshold pinned.
_PATH_BLOCK = 16


@dataclass(frozen=True)
class TvSvmResult:
    model: SvmModel
    chosen_lambda: float
    validation_risks: dict[float, float]
    diagnostics: dict[float, SolveDiagnostics]

    def convergence(self) -> dict:
        return _convergence(self.diagnostics.values())


def _convergence(diags) -> dict:
    """How many fits converged and their worst duality gap, for summary.json."""
    diags = list(diags)
    return {
        "fits": len(diags),
        "converged": sum(d.converged for d in diags),
        "worst_gap": max(d.duality_gap for d in diags),
    }


def tv_svm(
    data: Dataset,
    spec,
    grid: LambdaGrid,
    tau,
    tol: float = _TOL,
    *,
    max_iter: int = _MAX_ITER,
) -> TvSvmResult:
    """Training-validation SVM over the given grid.

    Models are trained on the first m = floor(n/2)+1 points along the
    descending grid, validated on the rest with clipped predictions, and
    the smallest lambda among the minimizers is returned.  The training
    Gram is factored and checked PSD once for the whole path.  On a
    factored Gram the interior point steps the grid in blocks of
    _PATH_BLOCK lambdas, one row per lambda, and train is still called once
    per lambda to take its row and run the crossover; each fit has the bits
    of a train call at that lambda alone.  Coordinate descent, on a Gram
    past the rank cutoff, is warm-started along the path (the dual box
    rescales exactly by the ratio of consecutive lambdas).  A fit converged
    when its duality gap is at most tol.  A tol that is NaN or negative, or
    max_iter < 1, raises ValueError before the Gram is built.
    """
    n = len(data)
    if n < 3:
        raise ValueError("training-validation split needs n >= 3")
    _check_stopping(tol, max_iter)
    tv = tau_value(tau)
    m = n // 2 + 1
    d1, d2 = data.subset(0, m), data.subset(m, n)
    g1 = _prepare(gram(spec, d1.x))
    k21 = spec.pairwise(d2.x, d1.x)

    risks: dict[float, float] = {}
    diags: dict[float, SolveDiagnostics] = {}
    models: dict[float, SvmModel] = {}
    warm = None
    prev_lam = None
    for start in range(0, len(grid.values), _PATH_BLOCK):
        block = grid.values[start:start + _PATH_BLOCK]
        if g1.chol is not None:
            g1.solve_block(d1.y, block, tv, max_iter)
        for lam in block:  # descending
            if warm is not None:
                warm = warm * (prev_lam / lam)
            model, diag = train(d1, spec, lam, tv, tol, max_iter, warm_start=warm, gram_matrix=g1)
            warm = model.coef.copy()
            prev_lam = lam
            preds = np.clip(k21 @ model.coef, -1.0, 1.0)
            risks[lam] = float(np.mean(pinball_loss(tv, d2.y, preds)))
            diags[lam] = diag
            models[lam] = model

    chosen = None
    best = math.inf
    for lam in sorted(risks):  # ascending: ties resolve to the smallest lambda
        if risks[lam] < best:
            best = risks[lam]
            chosen = lam
    return TvSvmResult(
        model=models[chosen],
        chosen_lambda=chosen,
        validation_risks=risks,
        diagnostics=diags,
    )


def theoretical_theta(p, q) -> float:
    if not p > 0:
        raise ValueError("p must be positive or inf")
    if not q >= 1:
        raise ValueError("q must be >= 1")
    return theta_exponent(p, q)


def _check_rho(rho: float) -> None:
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")


def theoretical_gamma(beta: float, theta: float, rho: float) -> float:
    """Rate exponent: the learned risk decays like n^(-gamma)."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    _check_rho(rho)
    first = beta / (beta * (2.0 - theta + rho * theta - rho) + rho)
    second = 2.0 * beta / (beta + 1.0)
    return min(first, second)


@dataclass(frozen=True)
class RateConfig:
    model: ConditionalModel
    kernel: object
    tau: float
    sample_sizes: tuple[int, ...]
    repetitions: int
    seed: int
    beta: float = 1.0
    p: float = math.inf
    q: float = 2.0
    rho: float | None = 0.1          # None: estimate via spectrum_decay
    grid_mode: str = "geometric"
    tol: float = 1e-4
    max_iter: int = 300

    def __post_init__(self):
        if any(n < 4 for n in self.sample_sizes):
            raise ValueError("sample sizes must be >= 4")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        # the exponents' own checks, so that bad values fail before any fit;
        # an estimated rho is checked once it is known
        theoretical_theta(self.p, self.q)
        if self.rho is not None:
            _check_rho(self.rho)
        _check_stopping(self.tol, self.max_iter)


@dataclass(frozen=True)
class RateRow:
    n: int
    rep: int
    lambda_chosen: float
    excess_risk: float
    dist_norm: float
    converged: bool


@dataclass
class RateReport:
    rows: list[RateRow]
    r_norm: float
    excess_slope: float | None
    dist_slope: float | None
    theoretical_gamma: float
    theoretical_gamma_over_q: float
    rho_used: float
    mean_excess: dict[int, float] = field(default_factory=dict)
    mean_dist: dict[int, float] = field(default_factory=dict)
    convergence: dict[int, dict] = field(default_factory=dict)   # n -> every fit of every rep

    def to_csv(self) -> str:
        return csv_text(
            ["n", "rep", "lambda_chosen", "excess_risk", "dist_norm", "converged"],
            ([row.n, row.rep, fmt17(row.lambda_chosen),
              fmt17(row.excess_risk), fmt17(row.dist_norm), int(row.converged)]
             for row in self.rows))

    def summary(self) -> dict:
        return {
            "excess_slope": self.excess_slope,
            "dist_slope": self.dist_slope,
            "theoretical_gamma": self.theoretical_gamma,
            "theoretical_gamma_over_q": self.theoretical_gamma_over_q,
            "rho_used": self.rho_used,
            "r_norm": self.r_norm,
            "mean_excess": {str(k): v for k, v in sorted(self.mean_excess.items())},
            "mean_dist": {str(k): v for k, v in sorted(self.mean_dist.items())},
            # rows whose chosen fit did not converge are left out of the means
            "excluded_rows": {
                str(n): [row.rep for row in self.rows if row.n == n and not row.converged]
                for n in sorted({row.n for row in self.rows})
            },
            "convergence": {str(k): v for k, v in sorted(self.convergence.items())},
        }


def fit_loglog_slope(ns, values) -> float:
    """Least-squares slope of log(values) against log(ns)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ns) < 3:
        raise ValueError("need at least 3 points for a slope")
    if np.any(values <= 0):
        raise ValueError("values must be positive for a log-log fit")
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


def _resolve_rho(config: RateConfig) -> float:
    if config.rho is not None:
        return float(config.rho)
    rng = derive_rng(config.seed, "rho-estimate")
    xs = rng.uniform(-1.0, 1.0, size=(min(500, max(config.sample_sizes)), config.model.dim))
    return spectrum_decay(config.kernel, xs).rho_hat


def learning_rate_experiment(config: RateConfig) -> RateReport:
    """Run the TV-SVM over the configured sample sizes and fit rate slopes.

    Per-item seeds derive deterministically from (seed, n, repetition), so
    the report is reproducible and items could run in any order.
    """
    tv = tau_value(config.tau)
    r = config.q if math.isinf(config.p) else config.p * config.q / (config.p + 1.0)
    rho = _resolve_rho(config)
    rows: list[RateRow] = []
    diags: dict[int, list[SolveDiagnostics]] = {}
    for n in config.sample_sizes:
        grid = lambda_grid(n, config.grid_mode)
        for rep in range(config.repetitions):
            item_seed = derive_seed_sequence(config.seed, "sample", n, rep).generate_state(1)[0]
            data = sample_joint(config.model, n, int(item_seed))
            result = tv_svm(
                data, config.kernel, grid, tv,
                tol=config.tol, max_iter=config.max_iter,
            )
            diags.setdefault(n, []).extend(result.diagnostics.values())

            def f(xs):
                return np.atleast_1d(predict_clipped(result.model, xs))

            # excess risk and distance from one evaluation of f on the nodes
            risks = _evaluate(config.model, tv, [f], ("excess", "dist"), r=r)
            rows.append(RateRow(
                n=n,
                rep=rep,
                lambda_chosen=result.chosen_lambda,
                excess_risk=float(risks["excess"][0]),
                dist_norm=float(risks["dist"][0]),
                converged=result.diagnostics[result.chosen_lambda].converged,
            ))

    mean_excess: dict[int, float] = {}
    mean_dist: dict[int, float] = {}
    for n in config.sample_sizes:
        ok = [row for row in rows if row.n == n and row.converged]
        if ok:
            mean_excess[n] = float(np.mean([row.excess_risk for row in ok]))
            mean_dist[n] = float(np.mean([row.dist_norm for row in ok]))

    ns = sorted(mean_excess)
    excess_slope = dist_slope = None
    if len(ns) >= 3:
        excess_slope = fit_loglog_slope(ns, [mean_excess[n] for n in ns])
        dist_slope = fit_loglog_slope(ns, [mean_dist[n] for n in ns])

    theta = theoretical_theta(config.p, config.q)
    gamma = theoretical_gamma(config.beta, theta, rho)
    return RateReport(
        rows=rows,
        r_norm=r,
        excess_slope=excess_slope,
        dist_slope=dist_slope,
        theoretical_gamma=gamma,
        theoretical_gamma_over_q=gamma / config.q,
        rho_used=rho,
        mean_excess=mean_excess,
        mean_dist=mean_dist,
        convergence={n: _convergence(v) for n, v in diags.items()},
    )
