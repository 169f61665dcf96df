"""Pinball-loss SVM solver.

The primal problem over the span of the kernel sections is

    min_alpha  lam * alpha' G alpha + (1/n) sum_i L(y_i, (G alpha)_i).

Writing the loss as L(y, t) = max_{u in [-(1-tau), tau]} u (y - t) and
exchanging min and max gives the box-constrained dual

    min_alpha  alpha' G alpha - 2 alpha' y
    s.t.       alpha_i in [-(1-tau)/(2 lam n), tau/(2 lam n)],

whose solution expands the primal optimum as f = sum_i alpha_i k(x_i, .).
Coordinate descent projects each Newton step onto the box, so dual
feasibility holds exactly at every iterate.  Optimality is certified by
the KKT residual: with r_i = y_i - f(x_i),

    r_i >  band  requires alpha_i at the upper bound,
    r_i < -band  requires alpha_i at the lower bound,
    |r_i| <= band leaves alpha_i anywhere in the box,

and the residual is the largest distance from alpha_i to its required set.
A periodic polish step solves the free-coordinate block exactly by least
squares; it is accepted only when it lowers both the dual objective and
the KKT residual, so per-epoch descent of the dual is preserved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .kernels import gram, kernel_spec_from_dict
from .losses import Dataset, clip as clip_value, empirical_risk, pinball_loss, tau_value

__all__ = [
    "SvmModel",
    "SolveDiagnostics",
    "train",
    "predict",
    "predict_clipped",
    "objective",
    "kkt_residual",
    "reference_train",
    "model_to_json",
    "model_from_json",
]

_DEFAULT_BAND = 1e-10
_PSD_TOL = 1e-8


@dataclass(frozen=True)
class SvmModel:
    """Kernel expansion f(x) = sum_i coef_i k(support_x_i, x)."""

    support_x: np.ndarray
    coef: np.ndarray
    kernel: object
    lam: float
    tau: float

    def __post_init__(self):
        sx = np.ascontiguousarray(np.atleast_2d(np.asarray(self.support_x, dtype=float)))
        co = np.ascontiguousarray(np.asarray(self.coef, dtype=float).ravel())
        if sx.shape[0] != co.shape[0]:
            raise ValueError("support/coefficient length mismatch")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        sx.flags.writeable = False
        co.flags.writeable = False
        object.__setattr__(self, "support_x", sx)
        object.__setattr__(self, "coef", co)
        object.__setattr__(self, "tau", tau_value(self.tau))


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    final_objective: float
    kkt_residual: float
    converged: bool
    dual_history: tuple[float, ...] = ()


def predict(model: SvmModel, x) -> np.ndarray | float:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = model.kernel.pairwise(x, model.support_x) @ model.coef
    if out.shape[0] == 1:
        return float(out[0])
    return out


def predict_clipped(model: SvmModel, x):
    return clip_value(predict(model, x))


def objective(model: SvmModel, data: Dataset) -> float:
    """lam * ||f||_H^2 + empirical pinball risk on the data."""
    g = gram(model.kernel, model.support_x)
    reg = float(model.coef @ g @ model.coef)
    def f(xs):
        return np.atleast_1d(predict(model, xs))
    return model.lam * reg + empirical_risk(model.tau, data, f)


def _bounds(tau: float, lam: float, n: int) -> tuple[float, float]:
    return -(1.0 - tau) / (2.0 * lam * n), tau / (2.0 * lam * n)


def _kkt_vector(alpha, fvals, y, lo, up, band):
    box = np.maximum(alpha - up, 0.0) + np.maximum(lo - alpha, 0.0)
    r = y - fvals
    v = np.zeros_like(alpha)
    need_up = r > band
    need_lo = r < -band
    v[need_up] = np.abs(up - alpha[need_up])
    v[need_lo] = np.abs(alpha[need_lo] - lo)
    return np.maximum(v, box)


def kkt_residual(model: SvmModel, data: Dataset, band: float = _DEFAULT_BAND) -> float:
    """Largest KKT violation of the model's coefficients on its training data.

    `band` is the tie tolerance around f(x_i) = y_i; inside it the only
    requirement on alpha_i is box membership.
    """
    n = len(data)
    if model.support_x.shape != data.x.shape or not np.array_equal(model.support_x, data.x):
        raise ValueError("kkt_residual expects the model's own training data")
    lo, up = _bounds(model.tau, model.lam, n)
    fvals = np.atleast_1d(predict(model, data.x))
    return float(np.max(_kkt_vector(model.coef, fvals, data.y, lo, up, band)))


def _dual_value(alpha, fvals, y) -> float:
    return float(alpha @ fvals - 2.0 * alpha @ y)


def _polish(g, y, alpha, lo, up, cap: int = 600, rounds: int = 12):
    """Endgame refinement: solve the coordinates not parked at a bound as a
    small box QP via a shrinking active-set loop (equality solve, clip
    violators to their bounds, drop them from the working set).  Returns a
    candidate iterate; the caller accepts it only on strict improvement."""
    work = np.where((alpha != lo) & (alpha != up))[0]
    if len(work) == 0 or len(work) > cap:
        return None
    a = alpha.copy()
    idx = np.arange(len(y))
    for _ in range(rounds):
        if len(work) == 0:
            break
        others = np.setdiff1d(idx, work, assume_unique=True)
        rhs = y[work] - g[np.ix_(work, others)] @ a[others]
        try:
            sol, *_ = np.linalg.lstsq(g[np.ix_(work, work)], rhs, rcond=None)
        except np.linalg.LinAlgError:
            return None
        inside = (sol >= lo) & (sol <= up)
        a[work] = np.clip(sol, lo, up)
        if np.all(inside):
            break
        work = work[inside]
    return a


def _pair_update(g, y, alpha, fvals, i, j, lo, up) -> float:
    """Exact minimization of the dual over (alpha_i, alpha_j) in the box.

    Resolves the slow zig-zag of plain coordinate descent along the
    near-flat valley spanned by strongly coupled (near-duplicate) points.
    Returns the achieved decrease of the local objective (>= 0).
    """
    gii, gjj, gij = g[i, i], g[j, j], g[i, j]
    ci = fvals[i] - gii * alpha[i] - gij * alpha[j] - y[i]
    cj = fvals[j] - gij * alpha[i] - gjj * alpha[j] - y[j]

    def local(u, v):
        return gii * u * u + gjj * v * v + 2.0 * gij * u * v + 2.0 * u * ci + 2.0 * v * cj

    candidates = [(alpha[i], alpha[j])]
    det = gii * gjj - gij * gij
    if det > 1e-18:
        u = (-ci * gjj + cj * gij) / det
        v = (-cj * gii + ci * gij) / det
        candidates.append((min(max(u, lo), up), min(max(v, lo), up)))
    for u_edge in (lo, up):
        if gjj > 1e-14:
            v = (-cj - gij * u_edge) / gjj
            candidates.append((u_edge, min(max(v, lo), up)))
    for v_edge in (lo, up):
        if gii > 1e-14:
            u = (-ci - gij * v_edge) / gii
            candidates.append((min(max(u, lo), up), v_edge))

    base = local(alpha[i], alpha[j])
    best = min(candidates, key=lambda uv: local(*uv))
    gain = base - local(*best)
    if gain > 0.0:
        du, dv = best[0] - alpha[i], best[1] - alpha[j]
        alpha[i], alpha[j] = best
        fvals += du * g[i] + dv * g[j]
    return max(gain, 0.0)


def _pair_sweep(g, y, alpha, fvals, lo, up, band, count: int = 8) -> None:
    """Pair updates on the worst KKT violators with their strongest coupler."""
    viol = _kkt_vector(alpha, fvals, y, lo, up, band)
    order = np.argsort(viol)[::-1][:count]
    for i in order:
        if viol[i] <= 0.0:
            break
        row = np.abs(g[i].copy())
        row[i] = -np.inf
        j = int(np.argmax(row))
        _pair_update(g, y, alpha, fvals, int(i), j, lo, up)


def _coordinate_descent(g, y, lo, up, alpha0, tol, max_iter, band, seed):
    n = len(y)
    diag = np.diag(g).copy()
    alpha = alpha0.copy()
    fvals = g @ alpha
    rng = np.random.default_rng(seed)
    history = []
    best_kkt = np.inf
    best_alpha = alpha.copy()
    epochs = 0
    converged = False
    for epoch in range(max_iter):
        epochs = epoch + 1
        order = rng.permutation(n)
        for i in order:
            gii = diag[i]
            if gii <= 1e-14:
                continue
            new = alpha[i] + (y[i] - fvals[i]) / gii
            if new > up:
                new = up
            elif new < lo:
                new = lo
            d = new - alpha[i]
            if d != 0.0:
                alpha[i] = new
                fvals += d * g[i]
        fvals = g @ alpha  # refresh to kill incremental drift
        kkt = float(np.max(_kkt_vector(alpha, fvals, y, lo, up, band)))
        if kkt > tol:
            _pair_sweep(g, y, alpha, fvals, lo, up, band)
            fvals = g @ alpha
            kkt = float(np.max(_kkt_vector(alpha, fvals, y, lo, up, band)))
        if kkt < best_kkt:
            best_kkt = kkt
            best_alpha = alpha.copy()
        if epoch % 5 == 4 and kkt > tol:
            cand = _polish(g, y, alpha, lo, up)
            if cand is not None:
                cand_f = g @ cand
                dual_now = _dual_value(alpha, fvals, y)
                dual_cand = _dual_value(cand, cand_f, y)
                cand_kkt = float(np.max(_kkt_vector(cand, cand_f, y, lo, up, band)))
                # accept only strict improvement; the dual slack absorbs
                # least-squares roundoff without breaking per-epoch descent
                if cand_kkt < kkt and dual_cand <= dual_now + 1e-12 * max(1.0, abs(dual_now)):
                    alpha, fvals, kkt = cand, cand_f, cand_kkt
                    if kkt < best_kkt:
                        best_kkt = kkt
                        best_alpha = alpha.copy()
        history.append(_dual_value(alpha, fvals, y))
        if kkt <= tol:
            converged = True
            break
    return best_alpha, best_kkt, epochs, converged, tuple(history)


def check_psd(g: np.ndarray) -> None:
    """Raise ValueError unless the Gram matrix is PSD to within roundoff."""
    min_eig = float(np.linalg.eigvalsh(g)[0])
    if min_eig < -_PSD_TOL:
        raise ValueError(f"Gram matrix is not PSD within tolerance: min eig {min_eig:g}")


def train(
    data: Dataset,
    spec,
    lam: float,
    tau,
    tol: float = 1e-6,
    max_iter: int = 1000,
    *,
    band: float = _DEFAULT_BAND,
    warm_start: np.ndarray | None = None,
    gram_matrix: np.ndarray | None = None,
    psd_check: bool = True,
    seed: int = 0,
) -> tuple[SvmModel, SolveDiagnostics]:
    """Solve the regularized pinball-risk problem by dual coordinate descent.

    Returns the best iterate with converged=False if max_iter epochs do not
    reach the requested KKT tolerance.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    tv = tau_value(tau)
    n = len(data)
    g = gram(spec, data.x) if gram_matrix is None else gram_matrix
    if psd_check:
        check_psd(g)
    lo, up = _bounds(tv, lam, n)
    alpha0 = np.zeros(n) if warm_start is None else np.clip(warm_start, lo, up)
    alpha, kkt, epochs, converged, history = _coordinate_descent(
        g, data.y, lo, up, alpha0, tol, max_iter, band, seed
    )
    model = SvmModel(support_x=data.x, coef=alpha, kernel=spec, lam=lam, tau=tv)
    reg = float(alpha @ g @ alpha)
    risk = float(np.mean(pinball_loss(tv, data.y, g @ alpha)))
    diagnostics = SolveDiagnostics(
        iterations=epochs,
        final_objective=lam * reg + risk,
        kkt_residual=kkt,
        converged=converged,
        dual_history=history,
    )
    return model, diagnostics


def reference_train(data: Dataset, spec, lam: float, tau, iterations: int) -> SvmModel:
    """Independent oracle: subgradient descent on the primal, tail-averaged.

    Steps 1/(2 lam t) exploit the 2*lam strong convexity in the RKHS norm;
    the average over the second half of the iterates is returned.  Used in
    tests as a second opinion on the dual solver.
    """
    tv = tau_value(tau)
    n = len(data)
    g = gram(spec, data.x)
    c = np.zeros(n)
    acc = np.zeros(n)
    kept = 0
    start_avg = iterations // 2
    for t in range(1, iterations + 1):
        fvals = g @ c
        s = np.where(fvals > data.y, 1.0 - tv, np.where(fvals < data.y, -tv, 0.0))
        grad = 2.0 * lam * c + s / n
        c -= grad / (2.0 * lam * t)
        if t > start_avg:
            acc += c
            kept += 1
    coef = acc / max(kept, 1)
    return SvmModel(support_x=data.x, coef=coef, kernel=spec, lam=lam, tau=tv)


# ---------------------------------------------------------------------------
# serialization (bit-faithful doubles via hex floats)
# ---------------------------------------------------------------------------


def model_to_json(model: SvmModel) -> str:
    payload = {
        "kernel": model.kernel.to_dict(),
        "lambda": float(model.lam).hex(),
        "tau": float(model.tau).hex(),
        "support_x": [[float(v).hex() for v in row] for row in model.support_x],
        "coef": [float(v).hex() for v in model.coef],
    }
    return json.dumps(payload, indent=2)


def model_from_json(text: str) -> SvmModel:
    payload = json.loads(text)
    return SvmModel(
        support_x=np.array([[float.fromhex(v) for v in row] for row in payload["support_x"]]),
        coef=np.array([float.fromhex(v) for v in payload["coef"]]),
        kernel=kernel_spec_from_dict(payload["kernel"]),
        lam=float.fromhex(payload["lambda"]),
        tau=float.fromhex(payload["tau"]),
    )
