"""Synthetic conditional distributions with analytic quantile structure.

Each model is a base noise law on [-halfwidth, halfwidth] shifted by a
location function g, with x drawn uniformly from [-1, 1].  Because the
conditional law at x is a pure shift of the base law, quantile sets shift
with g(x) while the quantile-type certificate (q, b, alpha) is the same
at every x.

Four families are provided:

* ``bounded-density-mixture`` -- uniform density (optionally contaminated
  by an interior atom); every quantile has type q = 2.
* ``polynomial-density`` -- density proportional to |y|^p, so the central
  quantile has type q = 2 + p; off-center quantiles fall back to a type-2
  certificate from the local density floor.
* ``dirac-atom-mixture`` -- an atom inside a uniform background; type q = 1
  on an open interval of quantile levels, no certificate outside it.
* ``two-atom`` -- two point masses; type q = 1 at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .losses import Dataset, tau_value
from .noise import Atom, NoiseLaw, PowerPiece

__all__ = [
    "QuantileInterval",
    "TypeQParams",
    "CertificateError",
    "SineLocation",
    "ZeroLocation",
    "ConditionalModel",
    "bounded_density_mixture",
    "uniform_noise",
    "polynomial_density",
    "dirac_atom_mixture",
    "two_atom",
    "conditional_cdf",
    "quantile_set",
    "type_q_params",
    "gamma_inv_norm",
    "sample_joint",
]


class CertificateError(ValueError):
    """Raised when a family has no quantile-type certificate at (x, tau)."""


@dataclass(frozen=True)
class QuantileInterval:
    """Closed interval [t_min, t_max] of tau-quantiles."""

    t_min: float
    t_max: float

    def __post_init__(self):
        if self.t_min > self.t_max:
            raise ValueError("t_min must not exceed t_max")

    def contains(self, t):
        return (np.asarray(t) >= self.t_min) & (np.asarray(t) <= self.t_max)

    def dist(self, t):
        t = np.asarray(t, dtype=float)
        out = np.maximum(np.maximum(self.t_min - t, t - self.t_max), 0.0)
        return float(out) if out.ndim == 0 else out

    def project(self, t):
        out = np.clip(np.asarray(t, dtype=float), self.t_min, self.t_max)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TypeQParams:
    """Quantile type q with constants b and alpha: the law puts mass at least
    b * s**(q-1) within s of the quantile set on each side, for s up to
    alpha.  gamma = b * alpha**(q-1) is derived from the three."""

    q: float
    b: float
    alpha: float

    def __post_init__(self):
        if self.q < 1.0:
            raise ValueError("q must be >= 1")
        if not self.b > 0.0:
            raise ValueError("b must be positive")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")

    @property
    def gamma(self) -> float:
        return self.b * self.alpha ** (self.q - 1.0)


# ---------------------------------------------------------------------------
# location functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SineLocation:
    """g(x) = amplitude * sin(pi * x_1)."""

    amplitude: float = 0.5
    extrema: ClassVar[tuple[float, ...]] = (-0.5, 0.5)  # x_1 where g turns

    def __call__(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return self.amplitude * np.sin(np.pi * xs[:, 0])

    def crossings(self, value, lo, hi) -> np.ndarray:
        """Solutions of g(x) = value with lo < x < hi (first coordinate), for
        arrays of value, lo and hi: shape (..., 3), NaN where none."""
        with np.errstate(divide="ignore", invalid="ignore"):
            x0 = np.arcsin(np.asarray(value, dtype=float) / self.amplitude) / np.pi
        x = np.stack([x0, 1.0 - x0, -1.0 - x0], axis=-1)
        lo = np.asarray(lo, dtype=float)[..., None]
        hi = np.asarray(hi, dtype=float)[..., None]
        return np.where((lo < x) & (x < hi), x, np.nan)

    def to_dict(self):
        return {"kind": "sine", "amplitude": self.amplitude}


@dataclass(frozen=True)
class ZeroLocation:
    """g(x) = 0."""

    amplitude: ClassVar[float] = 0.0
    extrema: ClassVar[tuple[float, ...]] = ()

    def __call__(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.zeros(xs.shape[0])

    def crossings(self, value, lo, hi) -> np.ndarray:
        """g is constant: no crossings, an empty last axis."""
        return np.empty(np.broadcast(value, lo, hi).shape + (0,))

    def to_dict(self):
        return {"kind": "zero"}


# ---------------------------------------------------------------------------
# conditional models
# ---------------------------------------------------------------------------

_CENTER_TOL = 1e-12


@dataclass(frozen=True)
class ConditionalModel:
    """Distribution on X x R: uniform marginal, shifted noise conditionals."""

    family: str
    noise: NoiseLaw
    location: SineLocation | ZeroLocation
    dim = 1  # x is one-dimensional

    def __post_init__(self):
        if self.location.amplitude + self.halfwidth > 1.0 + 1e-12:
            raise ValueError(
                "location amplitude plus noise half-width must not exceed 1 "
                "(conditional support must stay inside [-1, 1])"
            )

    @property
    def halfwidth(self) -> float:
        """Half-width of the smallest centred interval holding the noise."""
        lo, hi = self.noise.support
        return max(-lo, hi)

    def g(self, xs) -> np.ndarray:
        return self.location(xs)

    def g_scalar(self, x) -> float:
        return float(self.location(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def to_config(self) -> dict[str, str]:
        """Flat key-value form, the inverse of the CLI's [model] section."""
        out: dict[str, str] = {"family": self.family}
        if self.family != "two-atom":  # two atoms take their half-width from the locations
            out["halfwidth"] = repr(self.halfwidth)
        loc = self.location.to_dict()
        out["location"] = loc["kind"]
        if "amplitude" in loc:
            out["amplitude"] = repr(loc["amplitude"])
        if self.family == "bounded-density-mixture":
            atoms = self.noise.atoms
            if atoms:
                out["contaminant_weight"] = repr(atoms[0].mass)
                out["contaminant_atom"] = repr(atoms[0].location)
        elif self.family == "polynomial-density":
            out["exponent"] = repr(self.noise.pieces[0].exponent)
            atoms = self.noise.atoms
            if atoms:
                out["contaminant_weight"] = repr(atoms[0].mass)
                out["contaminant_atom"] = repr(atoms[0].location)
        elif self.family == "dirac-atom-mixture":
            out["atom"] = repr(self.noise.atoms[0].location)
            out["uniform_weight"] = repr(sum(p.mass for p in self.noise.pieces))
        elif self.family == "two-atom":
            out["locations"] = " ".join(repr(a.location) for a in self.noise.atoms)
            out["weights"] = " ".join(repr(a.mass) for a in self.noise.atoms)
        return out


def _sine_or(location):
    return SineLocation() if location is None else location


def bounded_density_mixture(
    halfwidth: float = 0.5,
    contaminant_weight: float = 0.0,
    contaminant_atom: float = 0.0,
    location=None,
) -> ConditionalModel:
    """Uniform density with floor (1-w)/2h, optionally mixed with an atom."""
    if not 0.0 <= contaminant_weight < 1.0:
        raise ValueError("contaminant weight must lie in [0, 1)")
    if contaminant_weight > 0.0 and not abs(contaminant_atom) < halfwidth:
        raise ValueError("contaminant atom must lie strictly inside the support")
    floor = (1.0 - contaminant_weight) / (2.0 * halfwidth)
    pieces = [PowerPiece(-halfwidth, halfwidth, anchor=-halfwidth, exponent=0.0, scale=floor)]
    atoms = [Atom(contaminant_atom, contaminant_weight)] if contaminant_weight > 0 else []
    return ConditionalModel(
        family="bounded-density-mixture",
        noise=NoiseLaw(pieces, atoms),
        location=_sine_or(location),
    )


def uniform_noise(halfwidth: float = 0.5, location=None) -> ConditionalModel:
    """Pure uniform noise; the continuous reference family."""
    return bounded_density_mixture(halfwidth=halfwidth, location=location)


def polynomial_density(
    exponent: float = 1.0,
    halfwidth: float = 0.5,
    contaminant_weight: float = 0.0,
    contaminant_atom: Optional[float] = None,
    location=None,
) -> ConditionalModel:
    """Density (1-w) * c * |y|^p on [-h, h] with c normalizing the density.

    The central quantile (at the level putting mass tau on each side of 0)
    has type q = 2 + p with b = (1-w) * c / (1 + p).
    """
    if exponent <= -1.0:
        raise ValueError("exponent must exceed -1")
    if not 0.0 <= contaminant_weight < 1.0:
        raise ValueError("contaminant weight must lie in [0, 1)")
    c = (exponent + 1.0) / (2.0 * halfwidth ** (exponent + 1.0))
    scale = (1.0 - contaminant_weight) * c
    pieces = [
        PowerPiece(-halfwidth, 0.0, anchor=0.0, exponent=exponent, scale=scale),
        PowerPiece(0.0, halfwidth, anchor=0.0, exponent=exponent, scale=scale),
    ]
    atoms = []
    if contaminant_weight > 0.0:
        if contaminant_atom is None or abs(contaminant_atom) >= halfwidth or contaminant_atom == 0.0:
            raise ValueError("contaminant atom must lie strictly inside the support, away from 0")
        atoms.append(Atom(contaminant_atom, contaminant_weight))
    return ConditionalModel(
        family="polynomial-density",
        noise=NoiseLaw(pieces, atoms),
        location=_sine_or(location),
    )


def dirac_atom_mixture(
    atom: float = 0.0,
    uniform_weight: float = 0.15,
    halfwidth: float = 0.5,
    location=None,
) -> ConditionalModel:
    """Atom of mass 1-w inside a uniform background of mass w on [-h, h]."""
    if not 0.0 < uniform_weight < 1.0:
        raise ValueError("uniform weight must lie in (0, 1)")
    if not abs(atom) < halfwidth:
        raise ValueError("the atom must lie strictly inside the support")
    pieces = [
        PowerPiece(
            -halfwidth, halfwidth, anchor=-halfwidth, exponent=0.0,
            scale=uniform_weight / (2.0 * halfwidth),
        )
    ]
    atoms = [Atom(atom, 1.0 - uniform_weight)]
    return ConditionalModel(
        family="dirac-atom-mixture",
        noise=NoiseLaw(pieces, atoms),
        location=_sine_or(location),
    )


def two_atom(
    locations: tuple[float, float] = (-0.5, 0.5),
    weights: tuple[float, float] = (0.5, 0.5),
    location=None,
) -> ConditionalModel:
    """Two point masses; every quantile level has a type-1 certificate."""
    a1, a2 = float(locations[0]), float(locations[1])
    w1, w2 = float(weights[0]), float(weights[1])
    if not a1 < a2:
        raise ValueError("atom locations must be increasing")
    if not (w1 > 0 and w2 > 0 and abs(w1 + w2 - 1.0) < 1e-12):
        raise ValueError("atom weights must be positive and sum to 1")
    return ConditionalModel(
        family="two-atom",
        noise=NoiseLaw([], [Atom(a1, w1), Atom(a2, w2)]),
        location=_sine_or(location),
    )


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def conditional_cdf(model: ConditionalModel, x, y):
    """P(Y <= y | x); right-continuous and nondecreasing in y."""
    shift = model.g_scalar(x)
    return model.noise.cdf(np.asarray(y, dtype=float) - shift)


def quantile_set(model: ConditionalModel, x, tau) -> QuantileInterval:
    tv = tau_value(tau)
    t1, t2 = model.noise.quantile_interval(tv)
    shift = model.g_scalar(x)
    return QuantileInterval(t1 + shift, t2 + shift)


def _certificate(model: ConditionalModel, tau: float) -> TypeQParams:
    """Certificate of the base law (shift-invariant, hence x-free)."""
    law = model.noise
    w = model.halfwidth
    t1, t2 = law.quantile_interval(tau)

    if model.family == "bounded-density-mixture":
        alpha = min(t1 + w, w - t2)
        if alpha <= 0.0:
            raise CertificateError("quantile touches the support edge")
        return TypeQParams(q=2.0, b=law.pieces[0].scale, alpha=min(alpha, 2.0))

    if model.family == "polynomial-density":
        p, s = law.pieces[0].exponent, law.pieces[0].scale
        t_star = 0.5 * (t1 + t2)
        if abs(t_star) <= _CENTER_TOL:
            alpha = min(t1 + w, w - t2)
            return TypeQParams(q=2.0 + p, b=s / (1.0 + p), alpha=min(alpha, 2.0))
        # Off-center quantile: the density is bounded below near t*, which
        # yields a plain type-2 certificate.
        d = abs(t_star)
        if p >= 0.0:
            alpha = min(0.5 * d, w - abs(t_star))
            b = s * (0.5 * d) ** p
        else:
            alpha = min(t1 + w, w - t2)
            b = s * w**p
        if alpha <= 0.0:
            raise CertificateError("quantile touches the support edge")
        return TypeQParams(q=2.0, b=b, alpha=min(alpha, 2.0))

    if model.family == "dirac-atom-mixture":
        a = law.atoms[0].location
        lo_level = law.cdf(a, strict=True)
        hi_level = law.cdf(a)
        if not lo_level < tau < hi_level:
            raise CertificateError(
                f"type certificate not applicable: tau={tau} outside "
                f"({lo_level}, {hi_level})"
            )
        b = min(tau - lo_level, hi_level - tau)
        return TypeQParams(q=1.0, b=b, alpha=2.0)

    if model.family == "two-atom":
        if t1 != t2:
            b = min(law.atom_mass_at(t1), law.atom_mass_at(t2))
            if b <= 0.0:
                raise CertificateError("quantile endpoints carry no atoms")
        else:
            if law.atom_mass_at(t1) <= 0.0:
                raise CertificateError("quantile point carries no atom")
            b = min(tau - law.cdf(t1, strict=True), law.cdf(t1) - tau)
            if b <= 0.0:
                raise CertificateError("tau sits at the edge of the atom's jump")
        return TypeQParams(q=1.0, b=b, alpha=2.0)

    raise CertificateError(f"unknown family {model.family!r}")


def type_q_params(model: ConditionalModel, x, tau) -> TypeQParams:
    """Quantile-type certificate at (x, tau); x-free by shift invariance."""
    return _certificate(model, tau_value(tau))


def gamma_inv_norm(model: ConditionalModel, tau, p) -> float:
    """L_p(P_X) norm of x -> 1/gamma(x); p = inf gives the supremum.

    The certificate is shift-invariant, so gamma is the same at every x and
    every L_p norm under the probability P_X is 1/gamma.  Raises
    CertificateError where the certificate does not apply.
    """
    if not p > 0:
        raise ValueError("p must be positive or inf")
    return 1.0 / _certificate(model, tau_value(tau)).gamma


def sample_joint(model: ConditionalModel, n: int, seed: int) -> Dataset:
    """n i.i.d. draws (x, y): x ~ uniform, y ~ shifted noise. Seeded."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(n, model.dim))
    ys = model.g(xs) + model.noise.sample(rng, n)
    return Dataset(xs, np.clip(ys, -1.0, 1.0))
