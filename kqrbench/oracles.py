"""Reference computations made apart from kqr.

Everything here is written from the definitions: the kernels from their
formulas, the duality gap from the primal and dual objectives, and the
risks of the uniform-noise model from a Gauss-Legendre quadrature over
(x, y) of the pinball loss itself.  Nothing imports kqr, so a fault in the
library cannot hide in the check that is meant to find it.
"""

from __future__ import annotations

import math

import numpy as np

WEAK_DUALITY_RTOL = 1e-12   # P - D >= -WEAK_DUALITY_RTOL * (size of the terms)
BOX_RTOL = 1e-12            # alpha may leave its box by this share of the box width


def pinball(tau, y, t):
    """L_tau(y, t) = (1 - tau)(t - y) if y < t, else tau (y - t)."""
    return np.where(y < t, (1.0 - tau) * (t - y), tau * (y - t))


def _sqdist(xs, ys):
    xs = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    ys = np.asarray(ys, dtype=float).reshape(len(ys), -1)
    d = xs[:, None, :] - ys[None, :, :]
    return np.sum(d * d, axis=2)


def kernel_matrix(kernel: dict, xs, ys) -> np.ndarray:
    """k(x_i, y_j) from the kernel's parameters (the dict of model.json)."""
    fam = kernel["family"]
    if fam == "gaussian":
        return np.exp(-_sqdist(xs, ys) / float(kernel["bandwidth"]) ** 2)
    if fam == "matern":
        nu, ell = float(kernel["nu"]), float(kernel["lengthscale"])
        z = math.sqrt(2.0 * nu) * np.sqrt(_sqdist(xs, ys)) / ell
        poly = {0.5: 1.0, 1.5: 1.0 + z, 2.5: 1.0 + z + z * z / 3.0}[nu]
        return poly * np.exp(-z)
    if fam == "polynomial":
        xs = np.asarray(xs, dtype=float).reshape(len(xs), -1)
        ys = np.asarray(ys, dtype=float).reshape(len(ys), -1)
        off, dim = float(kernel["offset"]), int(kernel["dim"])
        return ((off + xs @ ys.T) / (off + dim)) ** int(kernel["degree"])
    raise ValueError(f"unknown kernel family {fam!r}")


# ---------------------------------------------------------------------------
# solver certificates
# ---------------------------------------------------------------------------


def box_violation(alpha, lam, tau) -> float:
    """Largest distance of alpha from [-(1-tau)/(2 lam m), tau/(2 lam m)],
    as a share of the box width."""
    m = len(alpha)
    lo, up = -(1.0 - tau) / (2.0 * lam * m), tau / (2.0 * lam * m)
    out = np.maximum(alpha - up, 0.0) + np.maximum(lo - alpha, 0.0)
    return float(np.max(out)) / (up - lo)


def primal_dual(g, y, alpha, lam, tau):
    """(P, D, scale): P = lam a'Ga + mean L(y, Ga), D = 2 lam a'y - lam a'Ga.

    `scale` bounds the size of the terms, for a roundoff-aware P >= D test."""
    f = g @ alpha
    reg = lam * float(alpha @ f)
    lin = 2.0 * lam * float(alpha @ y)
    risk = float(np.mean(pinball(tau, y, f)))
    return reg + risk, lin - reg, abs(reg) + abs(lin) + risk + 1.0


def smallest_minimizer(risks: dict, tie: float = 1e-12) -> float:
    """Smallest lambda whose risk is within `tie` of the least risk."""
    best = min(risks.values())
    return min(lam for lam, r in risks.items() if r <= best + tie)


# ---------------------------------------------------------------------------
# uniform noise: y = A sin(pi x) + U(-h, h), x ~ U(-1, 1)
# ---------------------------------------------------------------------------


def uniform_quantile(h, tau) -> float:
    """The tau-quantile of U(-h, h)."""
    return -h + 2.0 * h * tau


def _frame_moments(s, h, tau):
    """Per action s (noise frame): E[L(y,s) - L(y,t)] and E[(L(y,s) - L(y,t))^2]
    for y ~ U(-h, h) and t the tau-quantile, by Gauss-Legendre in y on the
    pieces between the kinks at s and t, where both integrands are
    polynomials of degree <= 2 and a 3-point rule is exact."""
    t = uniform_quantile(h, tau)
    n = len(s)
    cuts = np.sort(np.stack([np.full(n, -h), np.clip(s, -h, h), np.full(n, t), np.full(n, h)],
                            axis=1), axis=1)
    xi, wi = np.polynomial.legendre.leggauss(3)
    a, b = cuts[:, :-1, None], cuts[:, 1:, None]
    y = (a + 0.5 * (b - a) * (xi + 1.0)).reshape(n, -1)
    w = (0.5 * (b - a) * wi / (2.0 * h)).reshape(n, -1)
    diff = pinball(tau, y, s[:, None]) - pinball(tau, y, t)
    return np.sum(w * diff, axis=1), np.sum(w * diff * diff, axis=1)


def _integrate(w, s, h, tau, r):
    """excess, L_r norm of the distance to the quantile, variance term."""
    excess, var = _frame_moments(s, h, tau)
    dist = np.abs(s - uniform_quantile(h, tau))
    return (float(np.sum(w * excess)),
            float(np.sum(w * dist**r) ** (1.0 / r)),
            float(np.sum(w * var)))


def _sine_solutions(amp, value, lo, hi):
    if amp == 0.0 or abs(value / amp) > 1.0:
        return []
    x0 = math.asin(value / amp) / math.pi
    return [x for x in (x0, 1.0 - x0, -1.0 - x0) if lo < x < hi]


def piecewise_risks(edges, values, amp, h, tau, r, order: int = 20):
    """(excess, dist_r, variance) of a piecewise-constant f under uniform noise.

    Each cell is cut where f - g crosses -h, the quantile or h, and at the
    extrema of g, so every x-segment carries an analytic integrand."""
    t = uniform_quantile(h, tau)
    xi, wi = np.polynomial.legendre.leggauss(order)
    ws, ss = [], []
    for c, a, b in zip(values, edges[:-1], edges[1:]):
        cuts = {float(a), float(b)}
        for level in (-h, t, h):
            cuts.update(_sine_solutions(amp, c - level, a, b))
        cuts.update(x for x in (-0.5, 0.5) if a < x < b)
        cuts = np.array(sorted(cuts))
        lo, hi = cuts[:-1, None], cuts[1:, None]
        x = (lo + 0.5 * (hi - lo) * (xi + 1.0)).ravel()
        ws.append((0.5 * (hi - lo) * wi).ravel() / 2.0)   # dP_X = dx / 2
        ss.append(c - amp * np.sin(np.pi * x))
    return _integrate(np.concatenate(ws), np.concatenate(ss), h, tau, r)


def predictor_risks(predict, amp, h, tau, r, panels: int = 256, order: int = 16):
    """(excess, dist_r, variance) of a clipped predictor x -> predict(x)
    under uniform noise, by a composite Gauss-Legendre rule in x."""
    xi, wi = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    x = (lo + 0.5 * (hi - lo) * (xi + 1.0)).ravel()
    w = (0.5 * (hi - lo) * wi).ravel() / 2.0
    s = np.clip(predict(x), -1.0, 1.0) - amp * np.sin(np.pi * x)
    return _integrate(w, s, h, tau, r)


def uniform_certificate(h, tau) -> tuple[float, float]:
    """(q, gamma) of U(-h, h) at level tau: type 2 with density floor b = 1/(2h)
    and alpha the distance of the quantile to the support edge."""
    t = uniform_quantile(h, tau)
    alpha = min(t + h, h - t)
    return 2.0, alpha / (2.0 * h)


def calibration_bounds(excess, q, gamma, p):
    """Right-hand sides of the self-calibration and variance inequalities
    for a certificate constant in x, so that ||1/gamma||_p = 1/gamma."""
    theta = min(2.0 / q, 1.0 if math.isinf(p) else p / (p + 1.0))
    excess = max(excess, 0.0)
    self_cal = 2.0 ** (1.0 - 1.0 / q) * q ** (1.0 / q) * (1.0 / gamma) ** (1.0 / q) * excess ** (1.0 / q)
    variance = 2.0 ** (2.0 - theta) * q**theta * (1.0 / gamma) ** theta * excess**theta
    return self_cal, variance


def close(a, b, rtol, atol=1e-14) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= atol + rtol * np.abs(np.asarray(b))))


# ---------------------------------------------------------------------------
# self-test on analytic cases
# ---------------------------------------------------------------------------


def self_test() -> list[str]:
    """Check the oracles on cases with known answers; returns the failures."""
    bad = []
    # One training point, k(x, x) = 1, lambda = 1, tau = 0.5, y = 0.5: the box
    # is [-1/4, 1/4] and the optimum alpha = 1/4 has P = D = 3/16.
    g, y = np.ones((1, 1)), np.array([0.5])
    p, d, _ = primal_dual(g, y, np.array([0.25]), 1.0, 0.5)
    if not (abs(p - 0.1875) < 1e-15 and abs(d - 0.1875) < 1e-15):
        bad.append(f"one-point optimum: P={p!r} D={d!r}, want 0.1875")
    p, d, _ = primal_dual(g, y, np.array([0.1]), 1.0, 0.5)
    if not abs((p - d) - 0.12) < 1e-15:
        bad.append(f"one-point gap at alpha=0.1: {p - d!r}, want 0.12")
    if box_violation(np.array([0.25]), 1.0, 0.5) != 0.0 or box_violation(np.array([0.3]), 1.0, 0.5) <= 0:
        bad.append("box violation of the one-point box")
    if smallest_minimizer({1.0: 0.3, 0.5: 0.2, 0.25: 0.2, 0.125: 0.25}) != 0.25:
        bad.append("smallest minimizer")
    # f = 0.2 under U(-1/2, 1/2) noise, g = 0, tau = 0.5: excess t^2/(4h) = 0.02,
    # variance (1/4)[t^2 (2h - t) + t^3/3] / (2h) = 0.0086666..., dist 0.2.
    ex, dist, var = piecewise_risks(np.array([-1.0, 1.0]), np.array([0.2]), 0.0, 0.5, 0.5, 1.0)
    want_var = 0.25 * (0.04 * 0.8 + 0.008 / 3.0)
    if not (close(ex, 0.02, 1e-13) and close(dist, 0.2, 1e-13) and close(var, want_var, 1e-13)):
        bad.append(f"constant action under uniform noise: {ex!r} {dist!r} {var!r}")
    ex2, dist2, var2 = predictor_risks(lambda x: np.full(x.shape, 0.2), 0.0, 0.5, 0.5, 1.0)
    if not (close(ex2, ex, 1e-13) and close(dist2, dist, 1e-13) and close(var2, var, 1e-13)):
        bad.append("composite rule disagrees with the cut rule on a constant")
    if not close(kernel_matrix({"family": "matern", "nu": 0.5, "lengthscale": 0.5},
                               np.array([[0.0]]), np.array([[0.5]])), math.exp(-1.0), 1e-15):
        bad.append("Matern(1/2) at distance = lengthscale")
    return bad
