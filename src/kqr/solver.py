"""Pinball-loss SVM solver.

The primal problem over the span of the kernel sections is

    min_alpha  lam * alpha' G alpha + (1/n) sum_i L(y_i, (G alpha)_i).

Writing the loss as L(y, t) = max_{u in [-(1-tau), tau]} u (y - t) and
exchanging min and max gives the box-constrained dual

    min_alpha  alpha' G alpha - 2 alpha' y
    s.t.       alpha_i in [-(1-tau)/(2 lam n), tau/(2 lam n)],

whose solution expands the primal optimum as f = sum_i alpha_i k(x_i, .).

`train` runs one path on every Gram.  A pivoted incomplete Cholesky
G ~ L L' (Fine & Scheinberg, JMLR 2001) stops once every residual diagonal
is below 1e-13, or at _RANK_CUTOFF columns, which cuts the factor of a
full-rank Gram.  A Mehrotra predictor-corrector interior point (in the
spirit of the Frisch-Newton method of Portnoy & Koenker, Stat. Sci. 1997)
solves the dual with G replaced by L L', each Newton step a Woodbury solve
with one r x r core per lambda, O(n r^2) (the low-rank interior point of
Fine & Scheinberg, JMLR 2001).  The iteration count does not grow as lambda
shrinks.  The lambdas of a path share L, y and tau, so a block of them
steps together, one row each, in one Newton loop; each row stops on its own
test and keeps the bits a solve of that lambda alone gives.  One
finishing step, _crossover, takes each row of the interior point to a fit
on the full G: it snaps every coordinate to the bound its multiplier
selects and polishes the result.  A fit whose gap is still above tol, as a
cut factor can leave it, runs the interior point and the crossover again,
alone, on the m-column dense factor of G that the PSD check computed; the
smaller of the two gaps is kept.  A finished factor is exact, and its fits
take no second run.

Each Gram is factored once: a caller that trains along a lambda path
prepares it with _prepare, walks the grid with _Gram.path, which solves
it in blocks, and passes it to train as gram_matrix to take each fit.
The factorization is also the PSD check.  With G = L L' + E and L L' PSD,
Gershgorin's discs of the residual E bound the smallest eigenvalue of G
from below.  When the factor is cut, one dense Cholesky of G certifies it
instead, and is kept as the dense factor: one that succeeds in floating
point bounds the smallest eigenvalue below by -O(m^2 eps max_i G_ii), far
inside -_PSD_TOL.  The exact eigen-solve runs only when neither certifies
the matrix, as for a singular Gram of full numerical rank (a duplicated
point); it alone decides whether the Gram is rejected, and it gives a cut
Gram its dense factor.

Every fit is a box-feasible alpha, certified by one number, the duality
gap on the full G with f = G alpha,

    P - D = 2 lam alpha' f + (1/n) sum_i L(y_i, f(x_i)) - 2 lam alpha' y,

in objective units: the fit's objective is at most the gap above the
optimum.  It reads G once, for f; alpha' G alpha is alpha' f.  A fit
converged when its gap is at most tol.  The gap decides whether the second
run on the dense factor runs, and which of the polished, snapped and raw
iterates the crossover keeps; that takes one full pass over G per lambda,
plus one for the raw iterate when no polished fit is kept.
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
# Pivoting stops once every residual diagonal of G - L L' is at most this;
# the kernels have k(x, x) <= 1, so it is relative to the largest diagonal.
_PIVOT_TOL = 1e-13
# The pivoted factor has at most this many columns: the numerical rank r of a
# low-rank Gram, and the width at which a full-rank one (Matern) is cut.  A
# Newton step costs O(n r^2) per lambda: on a 2-core machine, at n = 1025 a
# batched step of 16 lambdas takes 2.9 ms at r = 21 (0.18 ms per lambda,
# against 0.32 ms alone), and at n = 800, r = 200 a step for one lambda
# takes 2.4 ms (Matern(1/2), after a 4.0 ms factorization).  A fit takes 10
# to 26 steps at every lambda of the experiments' grids.  A narrower factor
# leaves fits uncertified: at 100, the Dirac-atom and two-atom Matern(3/2)
# paths at n = 600 (tol 1e-5) certified 13 and 18 of 20 fits, against 19
# and 20 at 200.
_RANK_CUTOFF = 200
# The interior point stops at mu = (s'z + t'w)/(2n) <= _IP_MU_TOL, where the
# multipliers already select the right bounds for the crossover, or when a
# residual, relative to the size of its terms, passes _IP_RES_TOL: past
# mu ~ 1e-12 the Newton solves can lose the residuals, and the last iterate
# within roundoff is kept.
_IP_MU_TOL = 1e-12
_IP_RES_TOL = 1e-9
# _Gram.path solves this many lambdas at once, which bounds a path's memory
# at O(block m r).  A rate round (Gaussian(0.5), n = 128 ... 2048, 15 to 23
# lambdas a path, 2-core machine, the median of 15 rounds in one process)
# took 0.225 to 0.229 s in blocks of 8 (two processes), 0.209 to 0.305 s in
# blocks of 16 and 0.203 to 0.230 s in blocks of 23, one block per path
# (five processes each, alternating).  Peak RSS read 85.3 MB at 8, 89.1 to
# 89.4 at 16 and 70.6 to 70.8 at 23 (glibc heap retention).
_PATH_BLOCK = 23


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
    """How a fit went.  iterations counts the interior point's Newton steps,
    those of a second run on the dense factor included; duality_gap is
    P - D of the returned alpha on the full Gram, in objective units, the
    one optimality certificate; converged means it is at most the fit's
    tol; kkt_residual is a diagnostic in alpha units with a tie band of
    1e-10."""

    iterations: int
    final_objective: float
    kkt_residual: float
    converged: bool
    duality_gap: float


def predict(model: SvmModel, x) -> np.ndarray:
    """f at each row of x, one value per row, as an array."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return model.kernel.pairwise(x, model.support_x) @ model.coef


def predict_clipped(model: SvmModel, x):
    return clip_value(predict(model, x))


def objective(model: SvmModel, data: Dataset) -> float:
    """lam * ||f||_H^2 + empirical pinball risk on the data."""
    g = gram(model.kernel, model.support_x)
    reg = float(model.coef @ g @ model.coef)
    return model.lam * reg + empirical_risk(model.tau, data, lambda xs: predict(model, xs))


def _check_stopping(tol, max_iter) -> None:
    """Reject a stopping rule that leaves every fit uncertified, or that
    certifies any fit: an infinite tol passes every duality gap."""
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 0")
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
    fvals = predict(model, data.x)
    return float(np.max(_kkt_vector(model.coef, fvals, data.y, lo, up)))


def _certificate(alpha, fvals, y, lam, tau) -> tuple[float, float]:
    """The primal objective P and the duality gap P - D of alpha, with
    fvals = G alpha on the full Gram; the gap is the one optimality
    certificate.  The caller pays the one pass over G that fvals takes."""
    reg = float(alpha @ fvals)
    primal = lam * reg + float(np.mean(pinball_loss(tau, y, fvals)))
    return primal, primal - (2.0 * lam * float(alpha @ y) - lam * reg)


def _polish(g, y, alpha, lo, up):
    """Solve the coordinates not parked at a bound as a small box QP via a
    shrinking active-set loop of at most 12 rounds (equality solve, clip
    violators to their bounds, drop them from the working set).  Returns
    the new iterate, or None when no coordinate or more than 600 of them
    are free."""
    work = np.where((alpha != lo) & (alpha != up))[0]
    if len(work) == 0 or len(work) > 600:
        return None
    a = alpha.copy()
    idx = np.arange(len(y))
    for _ in range(12):
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


def _pivoted_cholesky(g):
    """(L, done): L (m x r) with G ~ L L' by greedy pivoting on the largest
    residual diagonal (Fine & Scheinberg, JMLR 2001), r <= _RANK_CUTOFF;
    done says pivoting ended with every residual diagonal <= _PIVOT_TOL,
    not cut at _RANK_CUTOFF columns."""
    m = len(g)
    diag = np.diag(g).copy()
    chol = np.zeros((m, min(m, _RANK_CUTOFF)))
    for k in range(chol.shape[1]):
        j = int(np.argmax(diag))
        if diag[j] <= _PIVOT_TOL:
            return chol[:, :k], True
        col = (g[:, j] - chol[:, :k] @ chol[j, :k]) / math.sqrt(diag[j])
        chol[:, k] = col
        diag -= col * col
        diag[j] = 0.0
    return chol, bool(np.max(diag, initial=0.0) <= _PIVOT_TOL)


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
    one r x r core I/c + L' D^-1 L = R R' per row is the only product
    that reads a (k, m, r) stack, and each solve is x = D^-1 v, then
    p = R^-T R^-1 L' x applied as three products in turn, and
    x - D^-1 L p, against the shared L.  The predictor solve is not
    refined, and the corrector solve is refined once.

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
        # the r x r core, I/c plus a PSD term, is R R' with R lower
        # triangular; R^-T and R^-1 apply in turn, since an explicit core^-1
        # rounds worse and leaves some small-lambda fits uncertified
        r_inv = np.linalg.inv(np.linalg.cholesky(np.eye(r) / c[:, None, None]
                                                 + (chol.T / diag[:, None, :]) @ chol))
        r_inv_t = r_inv.transpose(0, 2, 1)

        def woodbury(v):
            x = v / diag
            p = _rows(_rows(_rows(x, chol), r_inv_t), r_inv)
            return x - _rows(p, chol.T) / diag

        def newton(r_sz, r_tw, refine):
            rhs = -r_d + (r_sz - z * r_s) / s - (r_tw - w * r_t) / t
            du = woodbury(rhs)
            if refine:  # one refinement keeps the corrector's dual residual down
                du += woodbury(rhs - c[:, None] * _rows(_rows(du, chol), chol.T) - diag * du)
            ds, dt = du + r_s, r_t - du
            return du, ds, dt, (r_sz - z * ds) / s, (r_tw - w * dt) / t

        # the predictor only sets the step length, mu_aff and the
        # second-order term, so its solve is not refined
        du, ds, dt, dz, dw = newton(-s * z, -t * w, refine=False)
        step = _step_to_boundary((s, ds), (t, dt), (z, dz), (w, dw))[:, None]
        mu_aff = (_row_dots(s + step * ds, z + step * dz)
                  + _row_dots(t + step * dt, w + step * dw)) / (2 * m)
        # a scalar power per row: numpy's vectorized power can round differently
        target = np.array([ratio ** 3 for ratio in (mu_aff / mu).tolist()]) * mu
        du, ds, dt, dz, dw = newton(target[:, None] - s * z - ds * dz,
                                    target[:, None] - t * w - dt * dw, refine=True)
        step = 0.99 * _step_to_boundary((s, ds), (t, dt), (z, dz), (w, dw))
        step = np.minimum(1.0, step)[:, None]
        u, s, t = u + step * du, s + step * ds, t + step * dt
        z, w = z + step * dz, w + step * dw
    u_out[rows], lo_out[rows], up_out[rows] = u, z > s, w > t
    iters_out[rows] = iters
    return u_out, lo_out, up_out, iters_out


@dataclass(frozen=True)
class _Gram:
    """A Gram matrix checked PSD, with its pivoted Cholesky factor of at
    most _RANK_CUTOFF columns and, when that factor was cut, the m-column
    dense factor of the PSD check (None when the pivoted factor finished).
    Build it with _prepare.

    path solves a lambda grid in blocks with solve_block; each fit waits in
    `solved`, keyed by lambda, until train takes it."""

    matrix: np.ndarray
    chol: np.ndarray
    dense: np.ndarray | None
    solved: dict = field(default_factory=dict)

    def _newton(self, chol, y, lams, tau, max_iter):
        """The fit (alpha, f, P, P - D, iterations) of every lambda of lams:
        the interior point steps the block together on the factor chol, and
        _crossover finishes each row on the full Gram."""
        u, at_lo, at_up, iters = _interior_point(chol, y, lams, tau, max_iter)
        return [(*_crossover(self.matrix, y, lam, tau, *row), int(k))
                for lam, *row, k in zip(lams, u, at_lo, at_up, iters)]

    def solve_block(self, y, lams, tau, tol, max_iter):
        """Keep the fit (alpha, f, P, P - D, iterations) of every lambda of
        lams for train, from _newton on the pivoted factor.  A row left with
        a gap above tol runs _newton again, alone, on the dense factor when
        the pivoted one was cut; the smaller gap is kept, and iterations
        counts the Newton steps of both runs."""
        y = np.array(y)   # a copy, to match against train's y
        for lam, fit in zip(lams, self._newton(self.chol, y, lams, tau, max_iter)):
            if fit[3] > tol and self.dense is not None:
                (again,) = self._newton(self.dense, y, [lam], tau, max_iter)
                fit = (*(again if again[3] < fit[3] else fit)[:4], fit[4] + again[4])
            self.solved[lam] = (tau, tol, max_iter, y, fit)

    def path(self, y, lams, tau, tol, max_iter):
        """Solve the descending lams in blocks of _PATH_BLOCK and yield each
        lambda once its fit waits in `solved`."""
        for i in range(0, len(lams), _PATH_BLOCK):
            self.solve_block(y, lams[i:i + _PATH_BLOCK], tau, tol, max_iter)
            yield from lams[i:i + _PATH_BLOCK]

    def solution(self, y, lam, tau, tol, max_iter):
        """The fit at lam that solve_block kept for the same tau, tol,
        max_iter and y, else that of a cold block of one."""
        row = self.solved.pop(lam, None)
        if row is None or row[:3] != (tau, tol, max_iter) or not np.array_equal(row[3], y):
            self.solve_block(y, [lam], tau, tol, max_iter)
            row = self.solved.pop(lam)
        return row[4]


def _prepare(g: np.ndarray) -> _Gram:
    """Factor g and check it PSD within _PSD_TOL; raise ValueError if not.

    A finished factor: G = L L' + E with L L' PSD, so by Gershgorin the
    smallest eigenvalue of G is at least min_i (E_ii - sum_{j != i} |E_ij|).
    A factor cut at _RANK_CUTOFF: a dense Cholesky of G that succeeds in
    floating point certifies a smallest eigenvalue of at least
    -O(m^2 eps max_i G_ii) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, 10.1), about -7e-11 at m = 800, well inside
    -_PSD_TOL, and it is kept as the dense factor.  When the Gershgorin
    bound is below -_PSD_TOL, or the Cholesky fails (a singular PSD Gram
    has none either), a dense eigen-solve G = V E V' decides, and a cut
    Gram it accepts keeps V sqrt(max(E, 0)) as its dense factor."""
    chol, done = _pivoted_cholesky(g)
    if done:
        resid = chol @ chol.T
        np.subtract(g, resid, out=resid)
        d = resid.diagonal().copy()
        bound = float(np.min(d + np.abs(d) - np.sum(np.abs(resid, out=resid), axis=1)))
        if bound >= -_PSD_TOL:
            return _Gram(g, chol, None)
    else:
        try:
            return _Gram(g, chol, np.linalg.cholesky(g))
        except np.linalg.LinAlgError:
            pass
    eigs, vecs = np.linalg.eigh(g)
    if eigs[0] < -_PSD_TOL:
        raise ValueError(f"Gram matrix is not PSD within tolerance: min eig {eigs[0]:g}")
    return _Gram(g, chol, None if done else vecs * np.sqrt(np.maximum(eigs, 0.0)))


def _crossover(g, y, lam, tau, u, at_lo, at_up):
    """Finish one row (u, at_lo, at_up) of _interior_point on the full Gram
    g; returns (alpha, f, P, P - D) of the fit it keeps.

    The raw iterate is u / (2 lam m) clipped to the box, and the snapped
    one moves each coordinate to the bound its multiplier selects.  _polish
    solves the snapped iterate's free block, and that fit is kept when its
    gap is no larger than the snapped one's; otherwise whichever of the
    snapped and the raw iterate has the smaller gap, the snapped on a tie.
    Exact ties in y can make the free block singular, and its solve then
    lands far from the optimum.

    One pass over G gives the snapped f; the polished f is that f plus the
    rows of the few coordinates the polish moved, and the raw f is paid for
    only when no polished fit is kept."""
    m = len(y)
    lo, up = _bounds(tau, lam, m)
    raw = np.clip(u / (2.0 * lam * m), lo, up)
    snapped = raw.copy()
    snapped[at_lo], snapped[at_up] = lo, up
    f_snap = g @ snapped
    snap = (snapped, f_snap, *_certificate(snapped, f_snap, y, lam, tau))
    cand = _polish(g, y, snapped, lo, up)
    if cand is not None:
        moved = np.flatnonzero(cand != snapped)
        f_cand = f_snap + (cand[moved] - snapped[moved]) @ g[moved]
        polished = (cand, f_cand, *_certificate(cand, f_cand, y, lam, tau))
        if polished[3] <= snap[3]:
            return polished
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
    gram_matrix: np.ndarray | _Gram | None = None,
) -> tuple[SvmModel, SolveDiagnostics]:
    """Solve the regularized pinball-risk problem in the dual.

    gram_matrix is the training Gram, or the value _prepare made of it, so
    that a lambda path factors and checks it once; a Gram that is not PSD
    raises ValueError before any solve.  Every Gram goes to the interior
    point on its pivoted factor and the crossover on the full Gram; on a
    cut factor, a fit the crossover leaves with a gap above tol runs both
    again on the Gram's dense factor.  max_iter caps the Newton steps of
    each run.  train takes the fit _Gram.path left in gram_matrix at this
    lam, tau, tol, max_iter and y, or solves a cold block of one.  Either
    way the result is box feasible and converged means a duality gap of at
    most tol, in objective units; otherwise the last iterate comes back
    with converged=False.  A lambda that is not finite and positive, a tol
    that is not finite and nonnegative, or max_iter < 1 raises ValueError
    before any work.
    """
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be finite and positive")
    _check_stopping(tol, max_iter)
    tv = tau_value(tau)
    if not isinstance(gram_matrix, _Gram):
        gram_matrix = _prepare(gram(spec, data.x) if gram_matrix is None else gram_matrix)
    alpha, fvals, primal, gap, iters = gram_matrix.solution(data.y, lam, tv, tol, max_iter)
    lo, up = _bounds(tv, lam, len(data))
    model = SvmModel(support_x=data.x, coef=alpha, kernel=spec, lam=lam, tau=tv)
    diagnostics = SolveDiagnostics(
        iterations=iters,
        final_objective=primal,
        kkt_residual=float(np.max(_kkt_vector(alpha, fvals, data.y, lo, up))),
        converged=gap <= tol,
        duality_gap=gap,
    )
    return model, diagnostics


def reference_train(datasets, spec, lams, tau, iterations: int) -> list[SvmModel]:
    """Independent oracle: subgradient descent on the primal, tail-averaged.

    Steps 1/(2 lam t) exploit the 2*lam strong convexity in the RKHS norm;
    the average over the second half of the iterates is returned.  Problem
    i is datasets[i] at lams[i]; the problems must all have one size, and
    they are stepped together as stacked arrays, one model each, with the
    bits each would get alone.  Used in tests as a second opinion on the
    dual solver.
    """
    tv = tau_value(tau)
    datasets, lams = list(datasets), np.asarray(lams, dtype=float)
    if len(datasets) != len(lams):
        raise ValueError(f"{len(datasets)} datasets but {len(lams)} lambdas")
    sizes = sorted({len(data) for data in datasets})
    if len(sizes) != 1:
        raise ValueError(f"a batch needs problems of one size, got sizes {sizes}")
    n = sizes[0]
    g = np.stack([gram(spec, data.x) for data in datasets])
    y = np.stack([data.y for data in datasets])
    two_lam = 2.0 * lams[:, None]
    c = np.zeros(y.shape)
    acc = np.zeros(y.shape)
    kept = 0
    start_avg = iterations // 2
    for t in range(1, iterations + 1):
        fvals = (g @ c[:, :, None])[:, :, 0]
        s = np.where(fvals > y, 1.0 - tv, np.where(fvals < y, -tv, 0.0))
        grad = two_lam * c + s / n
        c -= grad / (two_lam * t)
        if t > start_avg:
            acc += c
            kept += 1
    coef = acc / max(kept, 1)
    return [SvmModel(support_x=data.x, coef=w, kernel=spec, lam=float(lam), tau=tv)
            for data, w, lam in zip(datasets, coef, lams)]


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
