"""Kernels, Gram matrices and empirical eigenvalue-decay estimation.

All kernels are normalized so that sup_x sqrt(k(x, x)) <= 1.  The decay
estimator fits log lambda_i against log i for the eigenvalues of Gram/n,
an empirical stand-in for the spectrum of the kernel integral operator;
the fitted exponent is a diagnostic, not the operator's true decay rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "GaussianKernel",
    "PolynomialKernel",
    "MaternKernel",
    "kernel_spec_from_dict",
    "kernel_eval",
    "gram",
    "gram_spectrum",
    "DecayEstimate",
    "fit_power_law",
    "spectrum_decay",
]


def _sqdist(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    d = xs[:, None, :] - ys[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, x') = exp(-|x - x'|^2 / bandwidth^2)."""

    bandwidth: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("bandwidth must be finite and positive")

    def pairwise(self, xs, ys) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        return np.exp(-_sqdist(xs, ys) / self.bandwidth**2)

    def to_dict(self):
        return {"family": "gaussian", "bandwidth": self.bandwidth}


@dataclass(frozen=True)
class PolynomialKernel:
    """k(x, x') = ((offset + <x, x'>) / (offset + d))^degree on [-1,1]^d."""

    degree: int = 3
    offset: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if not (math.isfinite(self.offset) and self.offset >= 0):
            raise ValueError("offset must be finite and nonnegative")

    def pairwise(self, xs, ys) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        # the normalization by offset + dim keeps k <= 1 only on [-1, 1]^dim
        if xs.shape[1] != self.dim or ys.shape[1] != self.dim:
            raise ValueError(f"polynomial kernel of dim {self.dim} needs points of dim {self.dim}")
        base = (self.offset + xs @ ys.T) / (self.offset + self.dim)
        return base**self.degree

    def to_dict(self):
        return {"family": "polynomial", "degree": self.degree,
                "offset": self.offset, "dim": self.dim}


_MATERN_POLY = {
    0.5: lambda r: np.ones_like(r),
    1.5: lambda r: 1.0 + r,
    2.5: lambda r: 1.0 + r + r**2 / 3.0,
}


@dataclass(frozen=True)
class MaternKernel:
    """Matern kernel with half-integer smoothness nu in {1/2, 3/2, 5/2}."""

    nu: float = 1.5
    lengthscale: float = 0.5

    def __post_init__(self):
        if self.nu not in _MATERN_POLY:
            raise ValueError("nu must be one of 0.5, 1.5, 2.5")
        if not (math.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise ValueError("lengthscale must be finite and positive")

    def pairwise(self, xs, ys) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        r = np.sqrt(np.maximum(_sqdist(xs, ys), 0.0))
        z = math.sqrt(2.0 * self.nu) * r / self.lengthscale
        return _MATERN_POLY[self.nu](z) * np.exp(-z)

    def to_dict(self):
        return {"family": "matern", "nu": self.nu, "lengthscale": self.lengthscale}


_FAMILIES = {"gaussian": GaussianKernel, "polynomial": PolynomialKernel, "matern": MaternKernel}


def kernel_spec_from_dict(d) -> GaussianKernel | PolynomialKernel | MaternKernel:
    """Kernel from its to_dict() form or from a config section of strings.

    A missing family means Gaussian and a missing hyperparameter takes the
    constructor's default; a key that is not a hyperparameter is an error.
    """
    family = d.get("family", "gaussian")
    if family not in _FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    cls = _FAMILIES[family]
    unknown = sorted(set(d) - {"family"} - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {family} kernel key(s): {', '.join(unknown)}")
    # every hyperparameter has a default, and the default's type parses the value
    return cls(**{f.name: type(f.default)(d[f.name]) for f in fields(cls) if f.name in d})


def kernel_eval(spec, x, x2) -> float:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    return float(spec.pairwise(x, x2)[0, 0])


def gram(spec, xs) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[0] == 0:
        raise ValueError("need at least one point")
    g = spec.pairwise(xs, xs)
    return 0.5 * (g + g.T)  # kill roundoff asymmetry


@dataclass(frozen=True)
class DecayEstimate:
    """Fitted polynomial decay lambda_i ~ a_hat * i^(-1/rho_hat)."""

    a_hat: float
    rho_hat: float
    index_range: tuple[int, int]   # 1-based, inclusive
    residual: float                # RMS of the log-log fit
    n_used: int


def fit_power_law(eigenvalues, *, floor: float = 1e-10) -> DecayEstimate:
    """Least-squares fit of log lambda_i vs log i over the (5 or more) eigenvalues above floor."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    usable = lam[lam > floor]
    if len(usable) < 5:
        raise ValueError(f"fewer than 5 usable eigenvalues above floor {floor:g}")
    idx = np.arange(1, len(usable) + 1, dtype=float)
    li, ll = np.log(idx), np.log(usable)
    slope, intercept = np.polyfit(li, ll, 1)
    resid = float(np.sqrt(np.mean((ll - (slope * li + intercept)) ** 2)))
    if slope >= 0:
        rho = 1.0 - 1e-12  # non-decaying spectrum: flag via rho near 1
    else:
        rho = float(np.clip(-1.0 / slope, 1e-12, 1.0 - 1e-12))
    return DecayEstimate(
        a_hat=max(1.0, float(np.exp(intercept))),
        rho_hat=rho,
        index_range=(1, len(usable)),
        residual=resid,
        n_used=len(usable),
    )


def gram_spectrum(spec, xs) -> np.ndarray:
    """Eigenvalues of Gram/n at the given points, largest first."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[0] < 20:
        raise ValueError("need at least 20 points to estimate the spectrum")
    return np.sort(np.linalg.eigvalsh(gram(spec, xs) / xs.shape[0]))[::-1]


def spectrum_decay(spec, xs) -> DecayEstimate:
    """Decay estimate from the eigenvalues of Gram/n at the given points."""
    return fit_power_law(gram_spectrum(spec, xs))
