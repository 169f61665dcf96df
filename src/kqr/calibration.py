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

Quadrature strategy: for piecewise-constant test functions each cell is
split at the x-values where f(x) - g(x) crosses a breakpoint of the noise
law or a quantile endpoint, leaving analytic integrands on each segment;
Gauss-Legendre then integrates them to near machine precision.  Generic
callables fall back to a composite rule on a uniform panel grid.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import ConditionalModel, gamma_inv_norm, type_q_params
from .inner_risk import excess_in_frame, noise_frame
from .losses import tau_value
from .util import panel_nodes, segment_nodes

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


@dataclass(frozen=True)
class PiecewiseConstant:
    """Constant on each cell of a uniform partition of [-1, 1] (first axis)."""

    breakpoints: np.ndarray   # cell edges, length cells + 1
    values: np.ndarray        # one value per cell

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if len(b) != len(v) + 1:
            raise ValueError("need one more breakpoint than values")
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
# quadrature cores
# ---------------------------------------------------------------------------


def _cell_segments(model, frame, c: float, lo: float, hi: float) -> np.ndarray:
    """Split [lo, hi] where c - g(x) crosses a breakpoint of the noise law."""
    targets = set(frame.law.breakpoints.tolist())
    targets.update((frame.t1, frame.t2))
    cuts = {lo, hi}
    for b in targets:
        for x in model.location.crossings(c - b, lo, hi):
            cuts.add(x)
    # split at the sine extrema so g is monotone on each segment and every
    # breakpoint crossing lands on a segment edge, including tangential ones
    for x in (-0.5, 0.5):
        if lo < x < hi:
            cuts.add(x)
    return np.array(sorted(cuts))


@dataclass
class _NodeBatch:
    """Quadrature nodes for a piecewise-constant f against a model."""

    x: np.ndarray       # nodes in [-1, 1]
    w: np.ndarray       # weights integrating dP_X (sum to 1)
    s: np.ndarray       # f(x) - g(x), in the noise frame


def _nodes_for_pc(model, frame, f: PiecewiseConstant, order: int) -> _NodeBatch:
    xs, ws, cs = [], [], []
    for c, a, b in zip(f.values, f.breakpoints[:-1], f.breakpoints[1:]):
        edges = _cell_segments(model, frame, float(c), float(a), float(b))
        for s0, s1 in zip(edges[:-1], edges[1:]):
            if s1 - s0 <= 1e-14:
                continue
            x, w = segment_nodes(float(s0), float(s1), order)
            xs.append(x)
            ws.append(w)
            cs.append(np.full(x.shape, float(c)))
    x = np.concatenate(xs)
    w = np.concatenate(ws) / 2.0  # uniform P_X on [-1, 1]
    c = np.concatenate(cs)
    g = model.g(x.reshape(-1, 1))
    return _NodeBatch(x=x, w=w, s=c - g)


def _nodes_for_callable(model, f, panels: int, order: int) -> _NodeBatch:
    if model.dim != 1:
        raise NotImplementedError("quadrature checks are implemented for d=1")
    x, w = panel_nodes(-1.0, 1.0, panels, order)
    vals = np.asarray(f(x.reshape(-1, 1)), dtype=float).ravel()
    if np.max(np.abs(vals)) > 1.0 + 1e-9:
        raise ValueError("test function values must lie in [-1, 1]")
    g = model.g(x.reshape(-1, 1))
    return _NodeBatch(x=x, w=w / 2.0, s=vals - g)


def _batch(model, frame, f, *, order: int, panels: int) -> _NodeBatch:
    if isinstance(f, PiecewiseConstant):
        return _nodes_for_pc(model, frame, f, order)
    return _nodes_for_callable(model, f, panels, order)


def _dist_values(frame, s: np.ndarray) -> np.ndarray:
    return np.maximum(np.maximum(frame.t1 - s, s - frame.t2), 0.0)


def _variance_values(frame, s: np.ndarray, tau: float) -> np.ndarray:
    """E_y (L(y, a) - L(y, b))^2 in the noise frame, a = s, b = proj(s)."""
    b = np.clip(s, frame.t1, frame.t2)
    lo = np.minimum(s, b)
    hi = np.maximum(s, b)
    kappa = tau * lo + (1.0 - tau) * hi
    law = frame.law
    m0, m1, m2 = law.interval_moments(lo, hi)
    mid = m2 - 2.0 * kappa * m1 + kappa**2 * m0
    below = law.cdf(lo)
    above = 1.0 - law.cdf(hi, strict=True)
    c1 = (1.0 - tau) * (hi - lo)
    c2 = tau * (hi - lo)
    return c1**2 * below + mid + c2**2 * above


# ---------------------------------------------------------------------------
# public functionals
# ---------------------------------------------------------------------------


def excess_risk(model: ConditionalModel, tau, f, *, order: int = 24, panels: int = 128) -> float:
    """Excess pinball risk of f: quadrature over P_X of the inner excess."""
    tv = tau_value(tau)
    frame = noise_frame(model.noise, tv)
    nb = _batch(model, frame, f, order=order, panels=panels)
    return float(np.sum(nb.w * excess_in_frame(frame, nb.s)))


def dist_norm(model: ConditionalModel, tau, f, r: float, *, order: int = 24, panels: int = 128) -> float:
    """L_r(P_X) norm of x -> dist(f(x), quantile set at x)."""
    if r <= 0:
        raise ValueError("r must be positive")
    tv = tau_value(tau)
    frame = noise_frame(model.noise, tv)
    nb = _batch(model, frame, f, order=order, panels=panels)
    return float(np.sum(nb.w * _dist_values(frame, nb.s) ** r) ** (1.0 / r))


def variance_term(model: ConditionalModel, tau, f, *, order: int = 24, panels: int = 128) -> float:
    """Second moment of L o f - L o f*, with f* the projected selection."""
    tv = tau_value(tau)
    frame = noise_frame(model.noise, tv)
    nb = _batch(model, frame, f, order=order, panels=panels)
    return float(np.sum(nb.w * _variance_values(frame, nb.s, tv)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CalibrationReport:
    """Per-test-function lhs/rhs records for one inequality sweep."""

    kind: str                      # "self-calibration" or "variance-bound"
    lhs: np.ndarray
    rhs: np.ndarray
    params: dict = field(default_factory=dict)
    tol: float = 1e-8

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return bool(np.all(self.slack >= -self.tol))

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "params": {k: (str(v) if v == math.inf else v) for k, v in self.params.items()},
            "tol": self.tol,
            "pass": self.passed,
            "min_slack": float(np.min(self.slack)),
            "rows": [
                {"lhs": float(a), "rhs": float(b), "slack": float(b - a)}
                for a, b in zip(self.lhs, self.rhs)
            ],
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        from .util import fmt17

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "lhs", "rhs", "slack"])
        for i, (a, b) in enumerate(zip(self.lhs, self.rhs)):
            writer.writerow([i, fmt17(a), fmt17(b), fmt17(b - a)])
        return buf.getvalue()


def _sweep(model, tau, p, fs, *, order, panels, want_variance: bool):
    """Evaluate dist/excess (and variance) integrals for a family of fs."""
    tv = tau_value(tau)
    frame = noise_frame(model.noise, tv)
    q = type_q_params(model, np.zeros(model.dim), tv).q
    gnorm = gamma_inv_norm(model, tv, p)
    r = q if math.isinf(p) else p * q / (p + 1.0)
    excesses = np.empty(len(fs))
    dists = np.empty(len(fs))
    variances = np.empty(len(fs)) if want_variance else None
    for i, f in enumerate(fs):
        nb = _batch(model, frame, f, order=order, panels=panels)
        excesses[i] = np.sum(nb.w * excess_in_frame(frame, nb.s))
        dists[i] = np.sum(nb.w * _dist_values(frame, nb.s) ** r) ** (1.0 / r)
        if want_variance:
            variances[i] = np.sum(nb.w * _variance_values(frame, nb.s, tv))
    return q, gnorm, r, excesses, dists, variances


def check_self_calibration(
    model: ConditionalModel, tau, p, fs, *, tol: float = 1e-8, order: int = 24, panels: int = 128
) -> CalibrationReport:
    """Check the distance-vs-excess-risk inequality on each f in fs."""
    q, gnorm, r, excesses, dists, _ = _sweep(
        model, tau, p, fs, order=order, panels=panels, want_variance=False
    )
    const = 2.0 ** (1.0 - 1.0 / q) * q ** (1.0 / q) * gnorm ** (1.0 / q)
    rhs = const * np.maximum(excesses, 0.0) ** (1.0 / q)
    return CalibrationReport(
        kind="self-calibration",
        lhs=dists,
        rhs=rhs,
        params={
            "tau": tau_value(tau), "p": p, "q": q, "r": r,
            "theta": theta_exponent(p, q), "gamma_inv_norm": gnorm,
        },
        tol=tol,
    )


def check_variance_bound(
    model: ConditionalModel, tau, p, fs, *, tol: float = 1e-8, order: int = 24, panels: int = 128
) -> CalibrationReport:
    """Check the variance bound with theta = min(2/q, p/(p+1)) on each f."""
    q, gnorm, r, excesses, _, variances = _sweep(
        model, tau, p, fs, order=order, panels=panels, want_variance=True
    )
    theta = theta_exponent(p, q)
    const = 2.0 ** (2.0 - theta) * q**theta * gnorm**theta
    rhs = const * np.maximum(excesses, 0.0) ** theta
    return CalibrationReport(
        kind="variance-bound",
        lhs=variances,
        rhs=rhs,
        params={
            "tau": tau_value(tau), "p": p, "q": q, "r": r,
            "theta": theta, "gamma_inv_norm": gnorm,
        },
        tol=tol,
    )


def theta_exponent(p, q) -> float:
    """theta = min(2/q, p/(p+1)); p = inf maps the second term to 1."""
    second = 1.0 if math.isinf(p) else p / (p + 1.0)
    return min(2.0 / q, second)
