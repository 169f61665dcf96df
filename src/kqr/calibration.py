"""Numerical verification of the self-calibration and variance inequalities.

For a model with a tau-quantile certificate of p-average type q, every
f: X -> [-1, 1] must satisfy

    || dist(f, F*) ||_{L_r}  <=  2^(1-1/q) q^(1/q) ||1/gamma||_{L_p}^(1/q)
                                 * (excess risk of f)^(1/q),        r = pq/(p+1),

and, with theta = min(2/q, p/(p+1)),

    E (L o f - L o f*)^2  <=  2^(2-theta) q^theta ||1/gamma||_{L_p}^theta
                              * (excess risk of f)^theta,

where f*(x) is the metric projection of f(x) onto the quantile interval.
The checkers evaluate both sides by quadrature over the uniform marginal
and report the slack per test function.

Quadrature strategy: one node set serves a whole list of test functions
and every functional.  Each (function, cell) pair of a piecewise-constant
f is split, all pairs at once, where f(x) - g(x) crosses a breakpoint of
the noise law or a quantile endpoint and at the extrema of g, leaving
analytic integrands on each segment; a generic callable gets a composite
rule on a uniform panel grid instead.  One batched Gauss-Legendre call
places the nodes of every segment, the integrands are evaluated once over
all nodes, and each function's contiguous slice is summed on its own, so
a function gets the same numbers alone as in a batch.  The excess and
variance integrands both read the noise moments over the interval between
s = f(x) - g(x) and its projection onto the quantile set, so one
moment evaluation per node set serves both, with m2 only when the
variance is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ConditionalModel, type_q_params
from .inner_risk import excess_from_moments, noise_frame
from .losses import tau_value
from .util import segment_nodes

__all__ = [
    "PiecewiseConstant",
    "random_test_functions",
    "excess_risk",
    "dist_norm",
    "variance_term",
    "check_self_calibration",
    "check_variance_bound",
    "CalibrationReport",
]


def _check_range(values) -> None:
    """Reject test function values outside [-1, 1]; NaN fails too."""
    if not np.all(np.abs(values) <= 1.0 + 1e-9):
        raise ValueError("test function values must lie in [-1, 1]")


@dataclass(frozen=True)
class PiecewiseConstant:
    """Constant on each cell of a partition of [-1, 1] (first axis)."""

    breakpoints: np.ndarray   # cell edges, length cells + 1
    values: np.ndarray        # one value per cell

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if len(b) != len(v) + 1:
            raise ValueError("need one more breakpoint than values")
        # the quadrature integrates over the cells; NaN fails the comparisons
        if not (b[0] == -1.0 and b[-1] == 1.0 and np.all(b[1:] > b[:-1])):
            raise ValueError("breakpoints must increase strictly from -1 to 1")
        _check_range(v)
        b.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)

    def __call__(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        idx = np.searchsorted(self.breakpoints[1:-1], xs[:, 0], side="right")
        return self.values[idx]


def random_test_functions(cells: int, count: int, seed: int) -> list[PiecewiseConstant]:
    """Piecewise-constant functions with i.i.d. uniform [-1,1] cell values."""
    if cells < 1:
        raise ValueError("cells must be >= 1")
    rng = np.random.default_rng(seed)
    edges = np.linspace(-1.0, 1.0, cells + 1)
    vals = rng.uniform(-1.0, 1.0, size=(count, cells))
    return [PiecewiseConstant(edges, v) for v in vals]


# ---------------------------------------------------------------------------
# quadrature: one node set for a list of test functions
# ---------------------------------------------------------------------------

_ORDER = 24     # Gauss-Legendre nodes per segment
_PANELS = 128   # equal panels of [-1, 1] for a callable test function


def _nodes(model, frame, fs):
    """Weights integrating dP_X and s = f(x) - g(x) at the quadrature nodes of
    every f in fs; fs[i] owns the nodes bounds[i]:bounds[i + 1]."""
    calls = [i for i, f in enumerate(fs) if not isinstance(f, PiecewiseConstant)]
    # one row per (function, cell); a callable's cells are _PANELS equal
    # panels of [-1, 1], with its values unknown (NaN) until it is called
    edges = np.linspace(-1.0, 1.0, _PANELS + 1)
    cells = [(f.breakpoints, f.values) if isinstance(f, PiecewiseConstant)
             else (edges, np.full(_PANELS, np.nan)) for f in fs]
    lo = np.concatenate([np.empty(0)] + [e[:-1] for e, _ in cells])[:, None]
    hi = np.concatenate([np.empty(0)] + [e[1:] for e, _ in cells])[:, None]
    c = np.concatenate([np.empty(0)] + [v for _, v in cells])[:, None]
    # cut a cell where c - g(x) crosses a breakpoint of the noise law or a
    # quantile endpoint, and at the extrema of g, so g is monotone on each
    # segment and every crossing, tangential ones included, is a segment edge
    targets = np.union1d(frame.law.breakpoints, (frame.t1, frame.t2))
    crossings = model.location.crossings(c - targets, lo, hi)
    turns = np.asarray(model.location.extrema, dtype=float)
    extrema = np.where((lo < turns) & (turns < hi), turns, np.nan)
    cuts = np.sort(np.hstack([lo, hi, extrema, *crossings.swapaxes(0, 1)]), axis=1)
    keep = cuts[:, 1:] - cuts[:, :-1] > 1e-14   # NaN pads compare false
    x, w = segment_nodes(cuts[:, :-1][keep], cuts[:, 1:][keep], _ORDER)
    x = x.ravel()
    f_x = np.repeat(np.broadcast_to(c, keep.shape)[keep], _ORDER)
    segments = np.concatenate([[0], np.cumsum(np.sum(keep, axis=1))])
    bounds = _ORDER * segments[np.cumsum([0] + [len(v) for _, v in cells])]
    for i in calls:
        at = slice(bounds[i], bounds[i + 1])
        f_x[at] = np.asarray(fs[i](x[at].reshape(-1, 1)), dtype=float).ravel()
        _check_range(f_x[at])
    g = model.g(x.reshape(-1, 1))
    return w.ravel() / 2.0, f_x - g, bounds  # uniform P_X on [-1, 1]


def _dist_values(frame, s: np.ndarray) -> np.ndarray:
    return np.maximum(np.maximum(frame.t1 - s, s - frame.t2), 0.0)


def _variance_values(frame, lo, hi, moments, tau: float) -> np.ndarray:
    """E_y (L(y, a) - L(y, b))^2 in the noise frame, a = s, b = proj(s), from
    lo = min(a, b), hi = max(a, b) and the moments (m0, m1, m2) of the law
    over (lo, hi)."""
    kappa = tau * lo + (1.0 - tau) * hi
    law = frame.law
    m0, m1, m2 = moments
    mid = m2 - 2.0 * kappa * m1 + kappa**2 * m0
    below = law.cdf(lo)
    above = 1.0 - law.cdf(hi, strict=True)
    c1 = (1.0 - tau) * (hi - lo)
    c2 = tau * (hi - lo)
    return c1**2 * below + mid + c2**2 * above


def _evaluate(model, tau, fs, kinds, *, r: float = 1.0):
    """The functionals named in kinds ("excess", "dist", "variance") of every
    f in fs, integrated over one node set; "dist" is the L_r norm.  Each f's
    slice is summed alone, so its values do not depend on the rest of fs.
    The excess and the variance read one moment evaluation over the
    intervals between s and its projection onto [t1, t2]."""
    frame = noise_frame(model.noise, tau_value(tau))
    w, s, bounds = _nodes(model, frame, fs)

    def integrals(values):
        wv = w * values
        # np.add.reduce is np.sum's pairwise sum without the wrapper
        return np.array([np.add.reduce(wv[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])

    out = {}
    if "excess" in kinds or "variance" in kinds:
        proj = np.clip(s, frame.t1, frame.t2)
        lo, hi = np.minimum(s, proj), np.maximum(s, proj)
        moments = frame.law.interval_moments(lo, hi, 2 if "variance" in kinds else 1)
    if "excess" in kinds:
        out["excess"] = integrals(excess_from_moments(frame, s, *moments[:2]))
    if "dist" in kinds:
        out["dist"] = np.array([v ** (1.0 / r) for v in integrals(_dist_values(frame, s) ** r)])
    if "variance" in kinds:
        out["variance"] = integrals(_variance_values(frame, lo, hi, moments, frame.tau))
    return out


# ---------------------------------------------------------------------------
# public functionals
# ---------------------------------------------------------------------------


def excess_risk(model: ConditionalModel, tau, f) -> float:
    """Excess pinball risk of f: quadrature over P_X of the inner excess."""
    return float(_evaluate(model, tau, [f], ("excess",))["excess"][0])


def dist_norm(model: ConditionalModel, tau, f, r: float) -> float:
    """L_r(P_X) norm of x -> dist(f(x), quantile set at x)."""
    if r <= 0:
        raise ValueError("r must be positive")
    return float(_evaluate(model, tau, [f], ("dist",), r=r)["dist"][0])


def variance_term(model: ConditionalModel, tau, f) -> float:
    """Second moment of L o f - L o f*, with f* the projected selection."""
    return float(_evaluate(model, tau, [f], ("variance",))["variance"][0])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CalibrationReport:
    """Per-test-function lhs/rhs records for one inequality sweep."""

    lhs: np.ndarray
    rhs: np.ndarray
    params: dict
    tol: float

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return bool(np.all(self.slack >= -self.tol))


def _check(kind, model, tau, p, fs, *, tol) -> CalibrationReport:
    """lhs, rhs = const * excess^exponent, and the params of one inequality."""
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    if len(fs) == 0:
        raise ValueError("need at least one test function")
    tv = tau_value(tau)
    cert = type_q_params(model, np.zeros(model.dim), tv)
    if not p > 0:
        raise ValueError("p must be positive or inf")
    # gamma is the same at every x, so its L_p(P_X) norm is 1/gamma
    q, gnorm = cert.q, 1.0 / cert.gamma
    r = q if math.isinf(p) else p * q / (p + 1.0)
    theta = theta_exponent(p, q)
    if kind == "self-calibration":
        lhs_kind, exponent = "dist", 1.0 / q
        const = 2.0 ** (1.0 - 1.0 / q) * q ** (1.0 / q) * gnorm ** (1.0 / q)
    else:
        lhs_kind, exponent = "variance", theta
        const = 2.0 ** (2.0 - theta) * q**theta * gnorm**theta
    vals = _evaluate(model, tv, fs, ("excess", lhs_kind), r=r)
    return CalibrationReport(
        lhs=vals[lhs_kind],
        rhs=const * np.maximum(vals["excess"], 0.0) ** exponent,
        params={"tau": tv, "p": p, "q": q, "r": r, "theta": theta, "gamma_inv_norm": gnorm},
        tol=tol,
    )


def check_self_calibration(
    model: ConditionalModel, tau, p, fs, *, tol: float = 1e-8
) -> CalibrationReport:
    """Check the distance-vs-excess-risk inequality on each f in fs."""
    return _check("self-calibration", model, tau, p, fs, tol=tol)


def check_variance_bound(
    model: ConditionalModel, tau, p, fs, *, tol: float = 1e-8
) -> CalibrationReport:
    """Check the variance bound with theta = min(2/q, p/(p+1)) on each f."""
    return _check("variance-bound", model, tau, p, fs, tol=tol)


def theta_exponent(p, q) -> float:
    """theta = min(2/q, p/(p+1)); p = inf maps the second term to 1."""
    second = 1.0 if math.isinf(p) else p / (p + 1.0)
    return min(2.0 / q, second)
