"""Pinball-loss SVM solver.

The primal problem over the span of the kernel sections is

    min_alpha  lam * alpha' G alpha + (1/n) sum_i L(y_i, (G alpha)_i).

Writing the loss as L(y, t) = max_{u in [-(1-tau), tau]} u (y - t) and
exchanging min and max gives the box-constrained dual

    min_alpha  alpha' G alpha - 2 alpha' y
    s.t.       alpha_i in [-(1-tau)/(2 lam n), tau/(2 lam n)],

whose solution expands the primal optimum as f = sum_i alpha_i k(x_i, .).

`train` picks one of two engines by the numerical rank of G.  A pivoted
incomplete Cholesky G = L L' (Fine & Scheinberg, JMLR 2001) stops once
every residual diagonal is below 1e-13, or once the rank r passes
_RANK_CUTOFF.

- Low rank: a Mehrotra predictor-corrector interior point (in the spirit
  of the Frisch-Newton method of Portnoy & Koenker, Stat. Sci. 1997)
  solves the dual with G replaced by L L'.  Each Newton step forms one
  r x r core I/c + L' D^-1 L, O(n r^2), and its eigen-decomposition
  V E V'; every Woodbury solve of the step then runs against the shared
  factor L itself, x = D^-1 v and x - D^-1 L V E^-1 V' L' x, two
  matrix-vector products with L and two with V, O(n r) (the low-rank
  interior point of Fine & Scheinberg, JMLR 2001).  The iteration count
  does not grow as lambda shrinks.  The lambdas of a path share L, y and
  tau, so a block of them steps together, one row each, in one Newton
  loop; each row stops on its own test and keeps the bits a solve of that
  lambda alone gives.  A crossover then snaps every coordinate to the
  bound its multiplier selects and solves the free block exactly on the
  full G.
- Otherwise: coordinate descent projects each Newton step onto the box,
  with pair updates on the worst violators and a periodic polish of the
  free block, accepted only when it lowers both the dual objective and the
  duality gap, so the dual descends at every epoch.

Each Gram is factored once: a caller that trains along a lambda path
prepares it with _prepare, solves each block of lambdas on it with
_Gram.solve_block, and passes it to train as gram_matrix.  The
factorization is also the PSD check.  With G = L L' + E and L L' PSD,
Gershgorin's discs of the residual E bound the smallest eigenvalue of G
from below.  Past _RANK_CUTOFF, one dense Cholesky of G certifies it
instead: one that succeeds in floating point bounds the smallest
eigenvalue below by -O(m^2 eps max_i G_ii), far inside -_PSD_TOL.  The
exact eigenvalue check runs only when neither certifies the matrix, as
for a singular Gram of full numerical rank (a duplicated point), and it
alone decides whether the Gram is rejected.

Both engines return a box-feasible alpha, certified by one number, the
duality gap on the full G with f = G alpha,

    P - D = 2 lam alpha' f + (1/n) sum_i L(y_i, f(x_i)) - 2 lam alpha' y,

in objective units: the fit's objective is at most the gap above the
optimum.  It reads G once, for f; alpha' G alpha is alpha' f.  A fit
converged when its gap is at most tol.  Coordinate descent stops on it,
and the crossover keeps whichever candidate has the smaller gap, with one
full pass over G per lambda, plus one when no polished candidate is kept.
The KKT residual stays as a diagnostic: with r_i = y_i - f(x_i),

    r_i >  1e-10  requires alpha_i at the upper bound,
    r_i < -1e-10  requires alpha_i at the lower bound,
    otherwise alpha_i may lie anywhere in the box,

and the residual is the largest distance from alpha_i to its required set,
in alpha units, so it scales with 1/lambda.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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

_TOL = 1e-6
_MAX_ITER = 1000
# The KKT residual's tie band around f(x_i) = y_i.
_TIE_BAND = 1e-10
_PSD_TOL = 1e-8
# Coordinate descent sweeps the coordinates in an order drawn afresh every
# epoch from a generator with this fixed seed, so a fit is reproducible.
_ORDER_SEED = 0
# Pivoting stops once every residual diagonal of G - L L' is at most this;
# the kernels have k(x, x) <= 1, so it is relative to the largest diagonal.
_PIVOT_TOL = 1e-13
# The interior point runs when the numerical rank r is at most this.  Its
# Newton step costs O(n r^2) per lambda: at n = 1025 on a 2-core machine, a
# batched step of 16 lambdas takes 6.2 ms at r = 21 (0.39 ms per lambda,
# against 0.80 ms for a lambda alone) and 84 ms at r = 200 (5.3 ms per
# lambda, against 7.5 ms alone), and a fit takes 10 to 26 steps at every
# lambda of the experiments' grids.  At r = 200 that is the price of about 50
# coordinate-descent epochs of 2 ms, and CD needs hundreds at small
# lambda.  Past the cutoff, where full-rank Grams such as Matern(1/2) land,
# the factorization has cost O(n _RANK_CUTOFF^2) (9 ms at n = 1025) and CD
# takes over.
_RANK_CUTOFF = 200
# The interior point stops at mu = (s'z + t'w)/(2n) <= _IP_MU_TOL, where the
# multipliers already select the right bounds for the crossover, or when a
# residual, relative to the size of its terms, passes _IP_RES_TOL: past
# mu ~ 1e-12 the Newton solves can lose the residuals, and the last iterate
# within roundoff is kept.
_IP_MU_TOL = 1e-12
_IP_RES_TOL = 1e-9


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
        if not 0 < self.lam < math.inf:
            raise ValueError("lambda must be finite and positive")
        sx.flags.writeable = False
        co.flags.writeable = False
        object.__setattr__(self, "support_x", sx)
        object.__setattr__(self, "coef", co)
        object.__setattr__(self, "tau", tau_value(self.tau))


@dataclass(frozen=True)
class SolveDiagnostics:
    """How a fit went.  iterations counts CD epochs or interior-point steps;
    duality_gap is P - D of the returned alpha on the full Gram, in
    objective units, and converged means it is at most the fit's tol;
    kkt_residual is a diagnostic in alpha units with a tie band of 1e-10;
    dual_history holds the dual objective after each CD epoch, or once, at
    the crossover point, for the interior point."""

    iterations: int
    final_objective: float
    kkt_residual: float
    converged: bool
    duality_gap: float
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


def _check_stopping(tol, max_iter) -> None:
    """Reject a stopping rule that leaves every fit uncertified."""
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    if not max_iter >= 1:
        raise ValueError("max_iter must be >= 1")


def _bounds(tau: float, lam: float, n: int) -> tuple[float, float]:
    return -(1.0 - tau) / (2.0 * lam * n), tau / (2.0 * lam * n)


def _kkt_vector(alpha, fvals, y, lo, up):
    box = np.maximum(alpha - up, 0.0) + np.maximum(lo - alpha, 0.0)
    r = y - fvals
    v = np.zeros_like(alpha)
    need_up = r > _TIE_BAND
    need_lo = r < -_TIE_BAND
    v[need_up] = np.abs(up - alpha[need_up])
    v[need_lo] = np.abs(alpha[need_lo] - lo)
    return np.maximum(v, box)


def kkt_residual(model: SvmModel, data: Dataset) -> float:
    """Largest KKT violation of the model's coefficients on its training data.

    The tie tolerance around f(x_i) = y_i is 1e-10; inside it the only
    requirement on alpha_i is box membership.
    """
    n = len(data)
    if model.support_x.shape != data.x.shape or not np.array_equal(model.support_x, data.x):
        raise ValueError("kkt_residual expects the model's own training data")
    lo, up = _bounds(model.tau, model.lam, n)
    fvals = np.atleast_1d(predict(model, data.x))
    return float(np.max(_kkt_vector(model.coef, fvals, data.y, lo, up)))


def _dual_value(alpha, fvals, y) -> float:
    return float(alpha @ fvals - 2.0 * alpha @ y)


def _certificate(alpha, fvals, y, lam, tau) -> tuple[float, float]:
    """The primal objective P and the duality gap P - D of alpha, with
    fvals = G alpha on the full Gram; the gap is the one optimality
    certificate.  The caller pays the one pass over G that fvals takes."""
    reg = float(alpha @ fvals)
    primal = lam * reg + float(np.mean(pinball_loss(tau, y, fvals)))
    return primal, primal - (2.0 * lam * float(alpha @ y) - lam * reg)


def _polish(g, y, alpha, lo, up, cap: int = 600, rounds: int = 12):
    """Solve the coordinates not parked at a bound as a small box QP via a
    shrinking active-set loop (equality solve, clip violators to their
    bounds, drop them from the working set).  Returns the new iterate, or
    None when no coordinate or more than `cap` of them are free."""
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


def _pair_sweep(g, y, alpha, fvals, lo, up, count: int = 8) -> None:
    """Pair updates on the worst KKT violators with their strongest coupler."""
    viol = _kkt_vector(alpha, fvals, y, lo, up)
    order = np.argsort(viol)[::-1][:count]
    for i in order:
        if viol[i] <= 0.0:
            break
        row = np.abs(g[i].copy())
        row[i] = -np.inf
        j = int(np.argmax(row))
        _pair_update(g, y, alpha, fvals, int(i), j, lo, up)


def _coordinate_descent(g, y, lam, tau, lo, up, alpha0, tol, max_iter):
    """Returns the last iterate, its f = G alpha, the epochs run and the dual
    after each."""
    n = len(y)
    diag = np.diag(g).copy()
    alpha = alpha0.copy()
    fvals = g @ alpha
    rng = np.random.default_rng(_ORDER_SEED)
    history = []
    epochs = 0
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
        # a fresh f = G alpha also kills the incremental drift
        fvals = g @ alpha
        _, gap = _certificate(alpha, fvals, y, lam, tau)
        if gap > tol:
            _pair_sweep(g, y, alpha, fvals, lo, up)
            fvals = g @ alpha
            _, gap = _certificate(alpha, fvals, y, lam, tau)
        if epoch % 5 == 4 and gap > tol:
            cand = _polish(g, y, alpha, lo, up)
            if cand is not None:
                cand_f = g @ cand
                _, cand_gap = _certificate(cand, cand_f, y, lam, tau)
                dual_now = _dual_value(alpha, fvals, y)
                dual_cand = _dual_value(cand, cand_f, y)
                # accept only strict improvement; the dual slack absorbs
                # least-squares roundoff without breaking per-epoch descent
                if cand_gap < gap and dual_cand <= dual_now + 1e-12 * max(1.0, abs(dual_now)):
                    alpha, fvals, gap = cand, cand_f, cand_gap
        history.append(_dual_value(alpha, fvals, y))
        if gap <= tol:
            break
    return alpha, fvals, epochs, tuple(history)


def _pivoted_cholesky(g):
    """L (m x r) with G = L L' up to residual diagonals <= _PIVOT_TOL, by
    greedy pivoting on the largest residual diagonal (Fine & Scheinberg,
    JMLR 2001); None once r passes _RANK_CUTOFF."""
    m = len(g)
    diag = np.diag(g).copy()
    chol = np.zeros((m, min(m, _RANK_CUTOFF)))
    for k in range(m):
        j = int(np.argmax(diag))
        if diag[j] <= _PIVOT_TOL:
            return chol[:, :k]
        if k == _RANK_CUTOFF:
            return None
        col = (g[:, j] - chol[:, :k] @ chol[j, :k]) / math.sqrt(diag[j])
        chol[:, k] = col
        diag -= col * col
        diag[j] = 0.0
    return chol


def _step_to_boundary(*pairs) -> np.ndarray:
    """Per row, the largest step in (0, 1] that keeps every v + step * dv
    nonnegative, for v > 0."""
    step = np.ones(len(pairs[0][0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for v, dv in pairs:
            # |v / min(dv, 0)| is -v/dv where dv < 0 and inf (or NaN, which
            # fmin skips) elsewhere: no masked division, which numpy runs
            # an order of magnitude slower
            ratio = np.minimum(dv, 0.0)
            np.divide(v, ratio, out=ratio)
            step = np.minimum(step, np.fmin.reduce(np.abs(ratio, out=ratio), axis=1))
    return step


def _rows(v, mat):
    """Row i of v times mat, or times mat[i] for a stack: one matrix-vector
    product per row, so no row's bits depend on the others (a 2-D v @ mat
    goes through a matrix-matrix kernel that sums in another order)."""
    return (v[:, None, :] @ mat)[:, 0, :]


def _row_dots(v, w):
    """The dot product of row i of v with row i of w, one per row."""
    return (v[:, None, :] @ w[:, :, None])[:, 0, 0]


def _interior_point(chol, y, lams, tau, max_iter):
    """Mehrotra predictor-corrector on the box dual in u = 2 lam m alpha,

        min (c/2) |L'u|^2 - y'u,   u in [a, b]^m,   c = 1/(2 lam m),

    with the slacks s = u - a, t = b - u and their multipliers z, w as
    iterates: recomputing u - a would lose the slack's digits near a bound.

    Each Newton step solves with c L L' + D, D = z/s + w/t, by Woodbury:
    one r x r core I/c + L' D^-1 L = V E V' per row is the only product
    that reads a (k, m, r) stack, and each solve is x = D^-1 v, then
    p = V E^-1 V' L' x applied as three products in turn, and
    x - D^-1 L p, against the shared L.

    The lambdas of a block share L, y and tau, so they step together as the
    rows of (k, m) arrays and one Newton step pays numpy's dispatch once for
    the block.  Each row stops on its own mu or residual test and is not
    updated after, and every product is taken row by row, so a row's bits
    are those of a block of one.  Returns (u, z > s, w > t, iterations),
    one row per lambda; the masks are the coordinates whose multiplier
    selects the lower or the upper bound."""
    m, r = chol.shape
    # both x L and p L' take the unit-stride gemv kernel with L in column order
    chol = np.asfortranarray(chol)
    c = 1.0 / (2.0 * np.asarray(lams, dtype=float) * m)
    a, b = -(1.0 - tau), tau
    u = np.full((len(c), m), 0.5 * (a + b))
    s, t = u - a, b - u
    grad = c[:, None] * _rows(_rows(u, chol), chol.T) - y
    z, w = np.maximum(grad, 0.0) + 1.0, np.maximum(-grad, 0.0) + 1.0   # dual feasible
    y_size = float(np.max(np.abs(y), initial=0.0))
    u_out, lo_out, up_out = np.empty(u.shape), np.empty(u.shape, bool), np.empty(u.shape, bool)
    iters_out = np.empty(len(c), int)
    rows = np.arange(len(c))   # the rows still stepping
    iters, last = 0, (u, s, t, z, w)
    while len(rows) and iters < max_iter:
        q = c[:, None] * _rows(_rows(u, chol), chol.T)
        r_d, r_s, r_t = q - y - z + w, u - a - s, b - u - t
        lost = ((np.max(np.abs(r_d), axis=1) / (1.0 + y_size + np.max(np.abs(q), axis=1))
                 > _IP_RES_TOL)
                | (np.max(np.abs(r_s), axis=1) > _IP_RES_TOL)
                | (np.max(np.abs(r_t), axis=1) > _IP_RES_TOL))
        mu = (_row_dots(s, z) + _row_dots(t, w)) / (2 * m)
        done = lost | (mu <= _IP_MU_TOL)
        if np.any(done):
            # a row that lost its residuals keeps its last iterate
            u, s, t, z, w = (np.where(lost[:, None], old, new)
                             for old, new in zip(last, (u, s, t, z, w)))
            pos = rows[done]
            u_out[pos], lo_out[pos], up_out[pos] = u[done], z[done] > s[done], w[done] > t[done]
            iters_out[pos] = iters
            keep = ~done
            rows, c, mu = rows[keep], c[keep], mu[keep]
            u, s, t, z, w, r_d, r_s, r_t = (v[keep] for v in (u, s, t, z, w, r_d, r_s, r_t))
            if not len(rows):
                break
        last = u, s, t, z, w
        iters += 1
        diag = z / s + w / t
        # the r x r core goes through a symmetric eigen-solve, which does not
        # break down when D spans many decades near the solution; V, 1/E and
        # V' apply in turn, since an explicit V E^-1 V' rounds worse and
        # leaves some small-lambda fits uncertified
        evals, evecs = np.linalg.eigh(np.eye(r) / c[:, None, None]
                                      + (chol.T / diag[:, None, :]) @ chol)
        evecs_t = evecs.transpose(0, 2, 1)

        def woodbury(v):
            x = v / diag
            p = _rows(_rows(_rows(x, chol), evecs) / evals, evecs_t)
            return x - _rows(p, chol.T) / diag

        def newton(r_sz, r_tw):
            rhs = -r_d + (r_sz - z * r_s) / s - (r_tw - w * r_t) / t
            du = woodbury(rhs)
            for _ in range(2):  # iterative refinement keeps the dual residual down
                du += woodbury(rhs - c[:, None] * _rows(_rows(du, chol), chol.T) - diag * du)
            ds, dt = du + r_s, r_t - du
            return du, ds, dt, (r_sz - z * ds) / s, (r_tw - w * dt) / t

        du, ds, dt, dz, dw = newton(-s * z, -t * w)
        step = _step_to_boundary((s, ds), (t, dt), (z, dz), (w, dw))[:, None]
        mu_aff = (_row_dots(s + step * ds, z + step * dz)
                  + _row_dots(t + step * dt, w + step * dw)) / (2 * m)
        # a scalar power per row: numpy's vectorized power can round differently
        target = np.array([ratio ** 3 for ratio in (mu_aff / mu).tolist()]) * mu
        du, ds, dt, dz, dw = newton(target[:, None] - s * z - ds * dz,
                                    target[:, None] - t * w - dt * dw)
        step = 0.99 * _step_to_boundary((s, ds), (t, dt), (z, dz), (w, dw))
        step = np.minimum(1.0, step)[:, None]
        u, s, t = u + step * du, s + step * ds, t + step * dt
        z, w = z + step * dz, w + step * dw
    u_out[rows], lo_out[rows], up_out[rows] = u, z > s, w > t
    iters_out[rows] = iters
    return u_out, lo_out, up_out, iters_out


@dataclass(frozen=True)
class _Gram:
    """A Gram matrix checked PSD, with its pivoted Cholesky factor (None once
    the rank passes _RANK_CUTOFF).  Build it with _prepare.

    A lambda path on a factored Gram runs the interior point on a block of
    lambdas at once with solve_block; each row waits in `solved`, keyed by
    lambda, until train takes it."""

    matrix: np.ndarray
    chol: np.ndarray | None
    solved: dict = field(default_factory=dict)

    def solve_block(self, y, lams, tau, max_iter) -> None:
        """Step the interior point on every lambda of lams together and keep
        each row for the train call at that lambda."""
        y = np.array(y)   # a copy, to match against train's y
        u, at_lo, at_up, iters = _interior_point(self.chol, y, lams, tau, max_iter)
        for i, lam in enumerate(lams):
            self.solved[lam] = (tau, max_iter, y, u[i], at_lo[i], at_up[i], int(iters[i]))

    def solution(self, y, lam, tau, max_iter):
        """(u, at_lo, at_up, iterations) at lam: the row solve_block kept if
        it was solved with the same tau, max_iter and y, else a block of one."""
        row = self.solved.pop(lam, None)
        if row is None or row[:2] != (tau, max_iter) or not np.array_equal(row[2], y):
            self.solve_block(y, [lam], tau, max_iter)
            row = self.solved.pop(lam)
        return row[3:]


def _prepare(g: np.ndarray) -> _Gram:
    """Factor g and check it PSD within _PSD_TOL; raise ValueError if not.

    Low rank: G = L L' + E with L L' PSD, so by Gershgorin the smallest
    eigenvalue of G is at least min_i (E_ii - sum_{j != i} |E_ij|).
    Past _RANK_CUTOFF: a dense Cholesky of G that succeeds in floating point
    certifies a smallest eigenvalue of at least -O(m^2 eps max_i G_ii)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 10.1),
    about -7e-11 at m = 800, well inside -_PSD_TOL.  When the Gershgorin
    bound is below -_PSD_TOL, or the Cholesky fails (a singular PSD Gram
    has none either), a dense eigen-solve decides."""
    chol = _pivoted_cholesky(g)
    if chol is not None:
        resid = chol @ chol.T
        np.subtract(g, resid, out=resid)
        d = resid.diagonal().copy()
        bound = float(np.min(d + np.abs(d) - np.sum(np.abs(resid, out=resid), axis=1)))
        if bound >= -_PSD_TOL:
            return _Gram(g, chol)
    else:
        try:
            np.linalg.cholesky(g)
            return _Gram(g, None)
        except np.linalg.LinAlgError:
            pass
    min_eig = float(np.linalg.eigvalsh(g)[0])
    if min_eig < -_PSD_TOL:
        raise ValueError(f"Gram matrix is not PSD within tolerance: min eig {min_eig:g}")
    return _Gram(g, chol)


def _crossover(g, y, lam, tau, raw, snapped, lo, up):
    """The snapped iterate with its free block solved exactly on the full
    Gram, if that does not raise the gap; otherwise whichever of the snapped
    and the raw iterate has the smaller gap.  Exact ties in y can make the
    free block singular, and its solve then lands far from the optimum.
    Returns (alpha, f, P, P - D) of the one kept.

    One pass over G gives the snapped f; the polished f adds the rows of
    the few coordinates the polish moved, and the raw f is paid for only
    when no polished candidate is kept."""
    f_snap = g @ snapped
    snap = (snapped, f_snap, *_certificate(snapped, f_snap, y, lam, tau))
    polished = _polish(g, y, snapped, lo, up)
    if polished is not None:
        moved = np.flatnonzero(polished != snapped)
        f_pol = f_snap + (polished[moved] - snapped[moved]) @ g[moved]
        pol = (polished, f_pol, *_certificate(polished, f_pol, y, lam, tau))
        if pol[3] <= snap[3]:
            return pol
    f_raw = g @ raw
    unsnapped = (raw, f_raw, *_certificate(raw, f_raw, y, lam, tau))
    return snap if snap[3] <= unsnapped[3] else unsnapped


def train(
    data: Dataset,
    spec,
    lam: float,
    tau,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
    *,
    warm_start: np.ndarray | None = None,
    gram_matrix: np.ndarray | _Gram | None = None,
) -> tuple[SvmModel, SolveDiagnostics]:
    """Solve the regularized pinball-risk problem in the dual.

    gram_matrix is the training Gram, or the value _prepare made of it, so
    that a lambda path factors and checks it once; a Gram that is not PSD
    raises ValueError before any solve.  A Gram of numerical rank at most
    _RANK_CUTOFF goes to the interior point and its crossover, with max_iter
    capping the Newton iterations.  When gram_matrix holds a row that
    _Gram.solve_block stepped with a block of lambdas, solved at this lam,
    tau, max_iter and y, train takes it; otherwise it solves a block of
    one, and the row has the same bits either way.  Any other Gram goes to
    coordinate descent, with max_iter capping the epochs and warm_start
    setting its start (the interior point ignores it).  Either way the
    result is box feasible and converged means a duality gap of at most
    tol, in objective units; otherwise the last iterate comes back with
    converged=False.  A lambda that is not finite and positive, a tol that
    is NaN or negative, or max_iter < 1 raises ValueError before any work.
    """
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be finite and positive")
    _check_stopping(tol, max_iter)
    tv = tau_value(tau)
    n = len(data)
    if not isinstance(gram_matrix, _Gram):
        gram_matrix = _prepare(gram(spec, data.x) if gram_matrix is None else gram_matrix)
    g, chol = gram_matrix.matrix, gram_matrix.chol
    lo, up = _bounds(tv, lam, n)
    if chol is None:
        alpha0 = np.zeros(n) if warm_start is None else np.clip(warm_start, lo, up)
        alpha, fvals, iters, history = _coordinate_descent(
            g, data.y, lam, tv, lo, up, alpha0, tol, max_iter
        )
        primal, gap = _certificate(alpha, fvals, data.y, lam, tv)
    else:
        u, at_lo, at_up, iters = gram_matrix.solution(data.y, lam, tv, max_iter)
        # crossover: snap to the bounds the multipliers select
        raw = np.clip(u / (2.0 * lam * n), lo, up)
        snapped = raw.copy()
        snapped[at_lo], snapped[at_up] = lo, up
        alpha, fvals, primal, gap = _crossover(g, data.y, lam, tv, raw, snapped, lo, up)
        history = (_dual_value(alpha, fvals, data.y),)
    model = SvmModel(support_x=data.x, coef=alpha, kernel=spec, lam=lam, tau=tv)
    diagnostics = SolveDiagnostics(
        iterations=iters,
        final_objective=primal,
        kkt_residual=float(np.max(_kkt_vector(alpha, fvals, data.y, lo, up))),
        converged=gap <= tol,
        duality_gap=gap,
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
        "support_x": [[v.hex() for v in row] for row in model.support_x.tolist()],
        "coef": [v.hex() for v in model.coef.tolist()],
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
