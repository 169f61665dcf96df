"""Pinball loss, clipping and empirical risk.

The loss for quantile level tau is

    L(y, t) = (1 - tau) * (t - y)   if y < t,
              tau * (y - t)         if y >= t,

so L(y, t) = 0 exactly when y = t, and the y >= t branch owns the tie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "pinball_loss", "clip", "empirical_risk", "tau_value"]


def tau_value(tau) -> float:
    """tau as a float, strictly inside (0, 1)."""
    v = float(tau)
    if not 0.0 < v < 1.0:
        raise ValueError(f"tau must lie in the open interval (0, 1), got {v}")
    return v


@dataclass(frozen=True)
class Dataset:
    """Training sample: rows of x in [-1,1]^d with responses y in [-1,1]."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(np.atleast_2d(np.asarray(self.x, dtype=float)))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float).ravel())
        if x.shape[0] == 0:
            raise ValueError("dataset must be nonempty")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x/y length mismatch: {x.shape[0]} vs {y.shape[0]}")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("dataset contains non-finite values")
        if np.any(np.abs(x) > 1.0) or np.any(np.abs(y) > 1.0):
            raise ValueError("dataset values must lie in [-1, 1]")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, start: int, stop: int) -> "Dataset":
        return Dataset(self.x[start:stop], self.y[start:stop])


def pinball_loss(tau, y, t):
    """Pointwise pinball loss; broadcasts over array arguments."""
    tv = tau_value(tau)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.where(y < t, (1.0 - tv) * (t - y), tv * (y - t))
    if out.ndim == 0:
        return float(out)
    return out


def clip(t):
    """Project onto [-1, 1]."""
    out = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def empirical_risk(tau, data: Dataset, f) -> float:
    """Mean pinball loss of f over the sample. f maps (n,d) arrays to (n,)."""
    preds = np.asarray(f(data.x), dtype=float).ravel()
    if preds.shape[0] != len(data):
        raise ValueError("prediction length does not match dataset size")
    return float(np.mean(pinball_loss(tau, data.y, preds)))
