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

theta, q and the distance's norm L_r come from the model's certificate at
the run's tau (calibration.exponents), and the distance decays like n^(-gamma/q).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .calibration import _evaluate, exponents
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
    "theoretical_gamma",
    "RateConfig",
    "RateRow",
    "RateReport",
    "fit_loglog_slope",
    "learning_rate_experiment",
    "UncertifiedFitError",
]


class UncertifiedFitError(ValueError):
    """A rate run's chosen fit whose duality gap exceeds tol: the config
    was valid, and the solver fell short of it."""


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
    Gram is factored and checked PSD once for the whole path, and its
    _Gram.path solves the grid in blocks; train is called once per lambda
    to take the finished fit, which has the bits of a train call at that
    lambda alone.  A fit converged when its duality gap is at most tol.  A
    tol that is not finite and nonnegative, or max_iter < 1, raises
    ValueError before the Gram is built.
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
    chosen, best, best_model = None, math.inf, None
    for lam in g1.path(d1.y, grid.values, tv, tol, max_iter):  # descending
        model, diag = train(d1, spec, lam, tv, tol, max_iter, gram_matrix=g1)
        preds = np.clip(k21 @ model.coef, -1.0, 1.0)
        risks[lam] = float(np.mean(pinball_loss(tv, d2.y, preds)))
        diags[lam] = diag
        if risks[lam] <= best:  # descending: ties resolve to the smallest lambda
            chosen, best, best_model = lam, risks[lam], model
    return TvSvmResult(
        model=best_model,
        chosen_lambda=chosen,
        validation_risks=risks,
        diagnostics=diags,
    )


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


# gamma is the same at every x for every family, so each ||1/gamma||_{L_p} is
# finite, and p = inf gives the largest theta
_RATE_P = math.inf


@dataclass(frozen=True)
class RateConfig:
    model: ConditionalModel
    kernel: object
    tau: float
    sample_sizes: tuple[int, ...]
    repetitions: int
    seed: int
    beta: float = 1.0
    # accepted only at the certificate's values, and they drive nothing; they
    # go once the benchmark harness stops passing them
    p: InitVar[float | None] = None
    q: InitVar[float | None] = None
    rho: float | None = 0.1          # None: estimate via spectrum_decay
    grid_mode: str = "geometric"
    tol: float = 1e-4
    max_iter: int = 300

    def __post_init__(self, p, q):
        if not self.sample_sizes:
            raise ValueError("sample_sizes needs at least one size")
        if len(set(self.sample_sizes)) != len(self.sample_sizes):
            raise ValueError(f"sample sizes must be distinct, got {self.sample_sizes}")
        if any(n < 4 for n in self.sample_sizes):
            raise ValueError("sample sizes must be >= 4")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        # the certificate and rho fail here, before any fit; an estimated rho
        # is checked once it is known
        certified = exponents(self.model, self.tau, _RATE_P)
        for name, given in (("p", p), ("q", q)):
            if given is not None and given != certified[name]:
                raise ValueError(f"{name} = {given} disagrees with the certificate's "
                                 f"{name} = {certified[name]}")
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
    converged: bool   # True in every row learning_rate_experiment returns


@dataclass
class RateReport:
    rows: list[RateRow]
    r_norm: float
    excess_slope: float | None
    dist_slope: float | None
    theoretical_gamma: float
    theoretical_gamma_over_q: float
    rho_used: float
    exponents: dict = field(default_factory=dict)   # calibration.exponents at the run's tau
    sources: dict = field(default_factory=dict)     # exponent -> certificate, config or estimate
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
        p = self.exponents.get("p")
        return {
            "excess_slope": self.excess_slope,
            "dist_slope": self.dist_slope,
            "theoretical_gamma": self.theoretical_gamma,
            "theoretical_gamma_over_q": self.theoretical_gamma_over_q,
            "rho_used": self.rho_used,
            "r_norm": self.r_norm,
            "mean_excess": {str(k): v for k, v in sorted(self.mean_excess.items())},
            "mean_dist": {str(k): v for k, v in sorted(self.mean_dist.items())},
            # the rows whose chosen fit did not converge: none from
            # learning_rate_experiment, which stops at such a fit
            "excluded_rows": {
                str(n): [row.rep for row in self.rows if row.n == n and not row.converged]
                for n in sorted({row.n for row in self.rows})
            },
            "convergence": {str(k): v for k, v in sorted(self.convergence.items())},
            "q": self.exponents.get("q"),
            # "inf", as the check CSVs spell it, so that the file stays strict JSON
            "p": "inf" if p == math.inf else p,
            "theta": self.exponents.get("theta"),
            "sources": self.sources,
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
    the report is reproducible and items could run in any order.  Every row
    rests on a certified fit: a chosen fit whose duality gap exceeds tol
    raises UncertifiedFitError, a ValueError naming its n, rep, lambda, gap
    and tol, before any later fit.
    """
    tv = tau_value(config.tau)
    exps = exponents(config.model, tv, _RATE_P)
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
            chosen = result.diagnostics[result.chosen_lambda]
            if not chosen.converged:
                raise UncertifiedFitError(
                    f"the chosen fit at n={n}, rep={rep}, lambda={result.chosen_lambda:g} "
                    f"is not certified: duality gap {chosen.duality_gap:.3g} > tol {config.tol:g}")

            def f(xs):
                return predict_clipped(result.model, xs)

            # excess risk and distance from one evaluation of f on the nodes
            risks = _evaluate(config.model, tv, [f], ("excess", "dist"), r=exps["r"])
            rows.append(RateRow(
                n=n,
                rep=rep,
                lambda_chosen=result.chosen_lambda,
                excess_risk=float(risks["excess"][0]),
                dist_norm=float(risks["dist"][0]),
                converged=True,
            ))

    ns = sorted(config.sample_sizes)
    mean_excess = {n: float(np.mean([row.excess_risk for row in rows if row.n == n])) for n in ns}
    mean_dist = {n: float(np.mean([row.dist_norm for row in rows if row.n == n])) for n in ns}

    # no slope from fewer than 3 sizes, nor through a mean of 0: a predictor
    # inside the quantile set has no excess and no distance to it
    excess_slope, dist_slope = (
        fit_loglog_slope(ns, values) if len(ns) >= 3 and min(values) > 0 else None
        for values in ([mean_excess[n] for n in ns], [mean_dist[n] for n in ns]))

    gamma = theoretical_gamma(config.beta, exps["theta"], rho)
    return RateReport(
        rows=rows,
        r_norm=exps["r"],
        excess_slope=excess_slope,
        dist_slope=dist_slope,
        theoretical_gamma=gamma,
        theoretical_gamma_over_q=gamma / exps["q"],
        rho_used=rho,
        exponents=exps,
        sources={"q": "certificate", "p": "certificate", "beta": "config",
                 "rho": "config" if config.rho is not None else "estimate"},
        mean_excess=mean_excess,
        mean_dist=mean_dist,
        convergence={n: _convergence(v) for n, v in diags.items()},
    )
