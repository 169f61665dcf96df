"""Inner-risk calculus for the pinball loss.

C(t) denotes the expected loss of the action t under a single conditional
law, C* its minimum.  The excess C(t) - C* admits a closed form: writing
[t1, t2] for the quantile interval and q_plus, q_minus for the level slack
at its endpoints,

    C(t2 + u) - C* = u * q_plus  + integral_{(t2, t2+u)} (t2 + u - y) dQ(y),
    C(t1 - u) - C* = u * q_minus + integral_{(t1-u, t1)} (y - t1 + u) dQ(y),

for u >= 0 (the integral form follows from Fubini applied to the running
mass of the open interval).  This module computes the closed form directly;
``inner_risk(t) - c_star`` is kept as an independent route for testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ConditionalModel, QuantileInterval, TypeQParams
from .losses import tau_value
from .noise import NoiseLaw

__all__ = [
    "InnerRiskProfile",
    "inner_risk",
    "min_inner_risk",
    "excess_inner_risk",
    "self_calibration_fn",
    "lower_pol_delta",
    "self_cal_lower_bound",
]


@dataclass(frozen=True)
class InnerRiskProfile:
    """Minimum of C together with the level slack at the quantile endpoints."""

    q_plus: float
    q_minus: float
    quantile: QuantileInterval
    c_star: float


@dataclass(frozen=True)
class _NoiseFrame:
    """Quantile data of a base law at a fixed level (location removed)."""

    law: NoiseLaw
    tau: float
    t1: float
    t2: float
    q_plus: float
    q_minus: float


def noise_frame(law: NoiseLaw, tau: float) -> _NoiseFrame:
    t1, t2 = law.quantile_interval(tau)
    q_plus = max(law.cdf(t2) - tau, 0.0)
    q_minus = max(tau - law.cdf(t1, strict=True), 0.0)
    return _NoiseFrame(law, tau, t1, t2, q_plus, q_minus)


def excess_in_frame(frame: _NoiseFrame, t):
    """Vectorized closed-form excess inner risk in the noise frame.

    One order-1 moment evaluation over the interval between each t and its
    projection onto [t1, t2], [t2, t] above the quantile set and [t, t1]
    below it, feeds the closed form on both sides."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    proj = np.clip(t, frame.t1, frame.t2)
    m0, m1 = frame.law.interval_moments(np.minimum(t, proj), np.maximum(t, proj), 1)
    out = excess_from_moments(frame, t, m0, m1)
    if scalar:
        return float(out[0])
    return out


def excess_from_moments(frame: _NoiseFrame, t: np.ndarray, m0, m1) -> np.ndarray:
    """The closed form of excess_in_frame from m0 and m1 of the law over the
    open interval between each t and its projection onto [t1, t2], so that a
    caller which reads other moments over the same intervals evaluates them
    in the same call.  A NaN t has a NaN excess."""
    out = np.where(np.isnan(t), np.nan, 0.0)
    above = t > frame.t2
    ta = t[above]
    out[above] = (ta - frame.t2) * frame.q_plus + (ta * m0[above] - m1[above])
    below = t < frame.t1
    tb = t[below]
    out[below] = (frame.t1 - tb) * frame.q_minus + (m1[below] - tb * m0[below])
    return np.maximum(out, 0.0)


def inner_risk(model: ConditionalModel, x, tau, t):
    """C(t): exact piecewise integral of the pinball loss at x."""
    tv = tau_value(tau)
    shift = model.g_scalar(x)
    return model.noise.pinball(tv, np.asarray(t, dtype=float) - shift)


def min_inner_risk(model: ConditionalModel, x, tau) -> InnerRiskProfile:
    tv = tau_value(tau)
    frame = noise_frame(model.noise, tv)
    shift = model.g_scalar(x)
    c_star = float(model.noise.pinball(tv, frame.t1))
    return InnerRiskProfile(
        q_plus=frame.q_plus,
        q_minus=frame.q_minus,
        quantile=QuantileInterval(frame.t1 + shift, frame.t2 + shift),
        c_star=c_star,
    )


def excess_inner_risk(model: ConditionalModel, x, tau, t):
    """C(t) - C*, from the closed form (not from subtracting risks)."""
    tv = tau_value(tau)
    frame = noise_frame(model.noise, tv)
    shift = model.g_scalar(x)
    return excess_in_frame(frame, np.asarray(t, dtype=float) - shift)


def self_calibration_fn(model: ConditionalModel, x, tau, eps) -> float:
    """Least excess risk among actions at distance >= eps from the quantile set.

    By convexity of C this is the smaller of the two boundary excesses at
    t1 - eps and t2 + eps.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    tv = tau_value(tau)
    frame = noise_frame(model.noise, tv)
    lo = excess_in_frame(frame, frame.t1 - eps)
    hi = excess_in_frame(frame, frame.t2 + eps)
    return float(min(lo, hi))


def lower_pol_delta(alpha: float, q: float, eps: float) -> float:
    """Piecewise comparison function: eps^q near 0, its tangent line beyond.

    delta(eps) = eps^q on [0, alpha] and q*alpha^(q-1)*eps - alpha^q*(q-1)
    on [alpha, 2]; it dominates (alpha/2)^(q-1) * eps^q on all of [0, 2].
    """
    if not 0.0 <= alpha <= 2.0:
        raise ValueError("alpha must lie in [0, 2]")
    if q < 1.0:
        raise ValueError("q must be >= 1")
    if not 0.0 <= eps <= 2.0:
        raise ValueError("eps must lie in [0, 2]")
    if eps <= alpha:
        return eps**q
    return q * alpha ** (q - 1.0) * eps - alpha**q * (q - 1.0)


def self_cal_lower_bound(params: TypeQParams, eps: float) -> float:
    """Certified lower bound gamma * eps^q * 2^(1-q) / q for the excess."""
    if not 0.0 <= eps <= 2.0:
        raise ValueError("eps must lie in [0, 2]")
    q = params.q
    return (1.0 / q) * 2.0 ** (1.0 - q) * params.gamma * eps**q
