"""Exact piecewise machinery for one-dimensional noise laws.

A law is a convex combination of point masses and power-density pieces
``scale * |y - anchor|**exponent`` on intervals not straddling their anchor.
Everything downstream (CDFs, quantile sets, partial moments, pinball
integrals) reduces to closed-form antiderivatives of these pieces, so no
generic numeric quadrature is involved on the y-axis.

Each quantity is evaluated once.  A law computes its support, breakpoints,
total mean and the CDF levels P(Y <= z) and P(Y < z) at its breakpoints on
first use and keeps them, so every quantile query only scans the stored
levels.  ``cdf`` evaluates the zeroth moment of each piece alone, a piece
takes sign(u) and |u| once per interval end for all its moments, and
``interval_moments`` computes the moments up to the order its caller
reads, so m2 is paid for only by the variance integrand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Atom", "PowerPiece", "NoiseLaw"]

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class Atom:
    location: float
    mass: float

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError("atom mass must be positive")


@dataclass(frozen=True)
class PowerPiece:
    """Density scale*|y-anchor|**exponent on [lo, hi]; anchor not interior."""

    lo: float
    hi: float
    anchor: float
    exponent: float
    scale: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("piece needs lo < hi")
        if self.exponent <= -1.0:
            raise ValueError("exponent must exceed -1 for integrability")
        if self.scale < 0.0:
            raise ValueError("scale must be nonnegative")
        if self.lo < self.anchor < self.hi:
            raise ValueError("anchor must not lie strictly inside the piece")

    # Antiderivatives in u = y - anchor, from sign(u) and |u|. J0/J2 are
    # odd, J1 even.
    def _j0(self, s, r):
        p = self.exponent
        return s * r ** (p + 1.0) / (p + 1.0)

    def _j1(self, r):
        p = self.exponent
        return r ** (p + 2.0) / (p + 2.0)

    def _j2(self, s, r):
        p = self.exponent
        return s * r ** (p + 3.0) / (p + 3.0)

    def _ends(self, a, b):
        """sign(u) and |u| at both ends of [a, b] clipped to the piece."""
        # minimum/maximum clip as np.clip does, without its Python wrapper
        a = np.minimum(np.maximum(np.asarray(a, dtype=float), self.lo), self.hi)
        b = np.minimum(np.maximum(np.asarray(b, dtype=float), self.lo), self.hi)
        b = np.maximum(a, b)
        ua, ub = a - self.anchor, b - self.anchor
        return np.sign(ua), np.abs(ua), np.sign(ub), np.abs(ub)

    def mass_between(self, a, b):
        """m0 of the density over [a, b] clipped to the piece: the zeroth
        moment alone, the same expression as in `moments`."""
        sa, ra, sb, rb = self._ends(a, b)
        return self.scale * (self._j0(sb, rb) - self._j0(sa, ra))

    def moments(self, a, b, order: int = 2):
        """(m0, ..., m_order) of the density over [a, b] clipped to the
        piece, order 1 or 2: a caller asks for the highest moment it reads."""
        sa, ra, sb, rb = self._ends(a, b)
        d0 = self._j0(sb, rb) - self._j0(sa, ra)
        d1 = self._j1(rb) - self._j1(ra)
        c = self.anchor
        m0 = self.scale * d0
        m1 = self.scale * (d1 + c * d0)
        if order < 2:
            return m0, m1
        d2 = self._j2(sb, rb) - self._j2(sa, ra)
        m2 = self.scale * (d2 + 2.0 * c * d1 + c * c * d0)
        return m0, m1, m2

    @property
    def mass(self) -> float:
        return float(self.mass_between(self.lo, self.hi))

    def ppf_from_lo(self, m):
        """y with piece-mass m accumulated from lo; m may be an array."""
        m = np.asarray(m, dtype=float)
        p = self.exponent
        u_lo = self.lo - self.anchor
        target = self._j0(np.sign(u_lo), np.abs(u_lo)) + m / self.scale
        u = np.sign(target) * ((p + 1.0) * np.abs(target)) ** (1.0 / (p + 1.0))
        return np.clip(self.anchor + u, self.lo, self.hi)


class NoiseLaw:
    """Probability law on an interval: atoms plus power-density pieces.

    The law is immutable, and what depends on it alone (support,
    breakpoints, total mean, the CDF levels at the breakpoints) is computed
    once per law, on first use.
    """

    def __init__(self, pieces=(), atoms=()):
        pieces = tuple(sorted(pieces, key=lambda p: p.lo))
        atoms = tuple(sorted(atoms, key=lambda a: a.location))
        for left, right in zip(pieces[:-1], pieces[1:]):
            if right.lo < left.hi - 1e-15:
                raise ValueError("density pieces overlap")
        locs = [a.location for a in atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("duplicate atom locations")
        total = sum(p.mass for p in pieces) + sum(a.mass for a in atoms)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"total mass must be 1, got {total!r}")
        self.pieces = pieces
        self.atoms = atoms

    # -- static structure ---------------------------------------------------

    @cached_property
    def support(self) -> tuple[float, float]:
        z = self.breakpoints  # every piece end and atom
        return float(z[0]), float(z[-1])

    @cached_property
    def breakpoints(self) -> np.ndarray:
        pts = set()
        for p in self.pieces:
            pts.update((p.lo, p.hi))
        for a in self.atoms:
            pts.add(a.location)
        out = np.array(sorted(pts))
        out.flags.writeable = False
        return out

    @cached_property
    def _levels(self) -> tuple[np.ndarray, np.ndarray]:
        """P(Y <= z) and P(Y < z) at each breakpoint z, one scalar cdf each."""
        z = self.breakpoints
        f = np.array([self.cdf(v) for v in z])
        fl = np.array([self.cdf(v, strict=True) for v in z])
        f.flags.writeable = False
        fl.flags.writeable = False
        return f, fl

    @cached_property
    def _atom_locs(self) -> np.ndarray:
        return np.array([a.location for a in self.atoms])

    @cached_property
    def _atom_masses(self) -> np.ndarray:
        return np.array([a.mass for a in self.atoms])

    @cached_property
    def total_mean(self) -> float:
        m1 = sum(float(p.moments(p.lo, p.hi, 1)[1]) for p in self.pieces)
        m1 += float(np.sum(self._atom_locs * self._atom_masses)) if self.atoms else 0.0
        return m1

    # -- pointwise queries ----------------------------------------------------

    def atom_mass_at(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for a in self.atoms:
            out = out + np.where(y == a.location, a.mass, 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def cdf(self, y, strict: bool = False):
        """P(Y <= y), or P(Y < y) when strict=True. Vectorized in y.

        Each piece contributes its zeroth moment alone, up to y."""
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape)
        for p in self.pieces:
            out = out + p.mass_between(p.lo, y)
        for a in self.atoms:
            hit = (y > a.location) if strict else (y >= a.location)
            out = out + np.where(hit, a.mass, 0.0)
        out = np.clip(out, 0.0, 1.0)
        if out.ndim == 0:
            return float(out)
        return out

    def interval_moments(self, a, b, order: int = 2):
        """(m0, ..., m_order) over the OPEN interval (a, b); vectorized.

        order is 1 or 2, the highest moment the caller reads: m2 costs a
        third power per piece and interval end, and only the variance
        integrand reads it.  A caller that needs the moments of several
        integrands over the same intervals makes one call for all of them."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        zero = np.zeros(np.broadcast(a, b).shape)
        m = [zero] * (order + 1)
        for p in self.pieces:
            m = [acc + d for acc, d in zip(m, p.moments(a, b, order))]
        for at in self.atoms:
            inside = (a < at.location) & (at.location < b)
            w = np.where(inside, at.mass, 0.0)
            # w * location**k is w, w * location and w * location**2 exactly
            m = [acc + w * at.location**k for k, acc in enumerate(m)]
        return tuple(m)

    # -- pinball integral -----------------------------------------------------

    def pinball(self, tau: float, t):
        """C(t) = integral of the tau-pinball loss L(y, t) against the law."""
        t = np.asarray(t, dtype=float)
        below_edge = self.support[0] - 1.0
        # mass and first moment strictly below t; the open interval from
        # under the support captures them without cancellation
        m0b = self.cdf(t, strict=True)
        _, m1b = self.interval_moments(np.full(t.shape, below_edge), t, 1)
        at_mass = self.atom_mass_at(t)  # contributes zero loss either way
        m0a = 1.0 - m0b - at_mass
        m1a = self.total_mean - m1b - at_mass * t
        c = (1.0 - tau) * (t * m0b - m1b) + tau * (m1a - t * m0a)
        c = np.maximum(c, 0.0)
        if c.ndim == 0:
            return float(c)
        return c

    # -- quantiles --------------------------------------------------------------

    def _piece_covering(self, lo: float, hi: float):
        for p in self.pieces:
            if p.lo <= lo + 1e-15 and hi <= p.hi + 1e-15 and p.scale > 0.0:
                return p
        return None

    def _crossing(self, tau: float, above: bool) -> float:
        """inf{t : F(t) >= tau}, or inf{t : F(t) > tau} when above is true,
        by one upward scan of the law's stored CDF levels."""
        z = self.breakpoints
        f, fl = self._levels
        for k in range(len(z)):
            if f[k] > tau if above else f[k] >= tau:
                # F jumps across tau at z[k]; always so at k = 0, where fl is 0
                if fl[k] <= tau if above else fl[k] < tau:
                    return float(z[k])
                # the crossing lies in (z[k-1], z[k]]; invert the piece there.
                # Landing on a gap edge is resolved exactly: inverting there
                # would amplify roundoff through the flat CDF of a vanishing
                # density.
                need = tau - f[k - 1]
                if need <= 0.0:
                    return float(z[k - 1])
                if need >= fl[k] - f[k - 1]:
                    return float(z[k])
                piece = self._piece_covering(z[k - 1], z[k])
                if piece is None:
                    return float(z[k - 1])
                base = piece.mass_between(piece.lo, z[k - 1])
                return float(piece.ppf_from_lo(base + need))
        return float(z[-1])

    def quantile_interval(self, tau: float) -> tuple[float, float]:
        """Exact [t_min, t_max] of the tau-quantile set: t_min = inf{t :
        F(t) >= tau} and t_max = sup{t : F(t-) <= tau} = inf{t : F(t) > tau},
        both the first crossing of level tau in the stored CDF levels."""
        if not 0.0 < tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        t_min, t_max = self._crossing(tau, False), self._crossing(tau, True)
        if t_max < t_min:  # can only be roundoff dust
            t_min = t_max = 0.5 * (t_min + t_max)
        return t_min, t_max

    # -- sampling ---------------------------------------------------------------

    @cached_property
    def _components(self):
        comps = []
        for p in self.pieces:
            comps.append((p.mass, p))
        for a in self.atoms:
            comps.append((a.mass, a))
        comps.sort(key=lambda c: c[1].lo if isinstance(c[1], PowerPiece) else c[1].location)
        masses = np.array([m for m, _ in comps])
        return np.cumsum(masses), masses, [c for _, c in comps]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. draws by inverse-transform within mixture components."""
        cum, masses, comps = self._components
        u = rng.random(n) * cum[-1]
        idx = np.searchsorted(cum, u, side="left")
        idx = np.minimum(idx, len(comps) - 1)
        out = np.empty(n)
        for j, comp in enumerate(comps):
            sel = idx == j
            if not np.any(sel):
                continue
            local = u[sel] - (cum[j] - masses[j])
            if isinstance(comp, Atom):
                out[sel] = comp.location
            else:
                out[sel] = comp.ppf_from_lo(np.clip(local, 0.0, masses[j]))
        return out
