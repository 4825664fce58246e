"""Closed-form proximal and gradient primitives shared by both experiments.

All functions are pure and accept scalars or numpy arrays elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "quantile_loss",
    "soft_threshold",
    "ball_project",
    "LogL1Penalty",
    "logl1_value_grad",
    "logl1_grad",
    "qexp",
    "qexp_slopes",
    "quantile_prox_update",
]


def quantile_loss(t, q: float):
    """Pinball loss q*max(t,0) + (1-q)*max(-t,0) as max(q*t, (q-1)*t): for q in (0, 1),
    the same bits but for a zero's sign, as (q-1)*t is exactly (1-q)*(-t).

    q must lie in the open interval (0, 1), as `QuantileProblemSpec` ensures;
    it is not checked per call. At q = 0 or 1 an infinite t gives NaN (0 * inf).
    """
    t = np.asarray(t, dtype=float)
    out = np.maximum(q * t, (q - 1.0) * t)
    return float(out) if out.ndim == 0 else out


def soft_threshold(v, thresh: float):
    """Shrink toward zero by `thresh` as v - clip(v, -thresh, thresh): the bits of
    sign(v)*max(|v| - thresh, 0), but +0.0 where that gives -0.0 on [-thresh, 0)."""
    if thresh < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    out = v - np.minimum(np.maximum(v, -thresh), thresh)
    return float(out) if out.ndim == 0 else out


def ball_project(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the ball of the given radius (inf = identity)."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    if math.isinf(radius):
        return v
    norm = float(np.linalg.norm(v))
    if norm <= radius:
        return v
    return v * (radius / norm)


@dataclass(frozen=True)
class LogL1Penalty:
    """Sparsity penalty lam * sum_j beta*log(1 + |x_j|/beta).

    beta = inf degenerates to the plain L1 penalty lam*||x||_1, in which case
    the differentiable remainder below is identically zero.
    """

    lam: float
    beta: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not self.beta > 0:
            raise ValueError("beta must be positive (inf allowed)")

    def value(self, x: np.ndarray) -> float:
        """Full penalty value."""
        ax = np.abs(np.asarray(x, dtype=float))
        if math.isinf(self.beta):
            return self.lam * float(np.add.reduce(ax, axis=None))
        return self.lam * self.beta * float(np.add.reduce(np.log1p(ax / self.beta), axis=None))


def logl1_value_grad(penalty: LogL1Penalty, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and gradient of the differentiable remainder of the log-L1 penalty.

    The remainder is lam * sum_j (beta*log(1+|x_j|/beta) - |x_j|): the full
    penalty minus its convex L1 part. It is concave, C^1, and has gradient
    -lam*x_j/(beta+|x_j|), which vanishes at 0.
    """
    x = np.asarray(x, dtype=float)
    if math.isinf(penalty.beta):
        return 0.0, np.zeros_like(x)
    ax = np.abs(x)
    value = penalty.lam * float((penalty.beta * np.log1p(ax / penalty.beta) - ax).sum())
    return value, logl1_grad(penalty, x)


def logl1_grad(penalty: LogL1Penalty, x: np.ndarray) -> np.ndarray:
    """The gradient of `logl1_value_grad` alone: -lam*x_j/(beta+|x_j|), zero for beta = inf."""
    x = np.asarray(x, dtype=float)
    if math.isinf(penalty.beta):
        return np.zeros_like(x)
    return -penalty.lam * x / (penalty.beta + np.abs(x))


def qexp_slopes(t, out=None):
    """First and second derivative of `qexp`, without its value.

    d2 = exp(min(t, 0)) and d1 = max(t, 0) + d2: 1 + t, 1 for t >= 0 and
    exp(t), exp(t) for t <= 0. Newton on the spliced exponential needs only
    these two. `out`, a pair of float arrays shaped like t, receives them;
    its second array may be t itself, which then ends up holding d2.
    """
    t = np.asarray(t, dtype=float)
    d1, d2 = (np.empty_like(t), np.empty_like(t)) if out is None else out
    # max(t, 0) is taken before d2 can overwrite t.
    np.maximum(t, 0.0, out=d1)
    np.exp(np.minimum(t, 0.0, out=d2), out=d2)
    d1 += d2
    return d1, d2


def qexp(t):
    """exp spliced with its second-order Taylor polynomial at 0.

    Returns (value, first derivative, second derivative):
    exp(t) for t <= 0, and 1 + t + t^2/2, 1 + t, 1 for t >= 0.
    Both branches agree to second order at t = 0, so the splice is C^2.

    Computed branchlessly: with tp = max(t, 0) and the slopes of
    `qexp_slopes`, the value is d1 + tp^2/2, exactly, on either side of 0.
    """
    t = np.asarray(t, dtype=float)
    d1, d2 = qexp_slopes(t)
    value = np.maximum(t, 0.0)
    value *= 0.5 * value
    value += d1
    if value.ndim == 0:
        return float(value), float(d1), float(d2)
    return value, d1, d2


def quantile_prox_update(w, anchor, q: float, n: int, sigma: float):
    """Coordinatewise minimizer of (1/n)*pinball(w - y) + (sigma/2)(y - anchor)^2.

    Three cases: lo = anchor + q/(n*sigma) if lo < w, hi = anchor - (1-q)/(n*sigma)
    if hi > w, else w. For q in [0, 1] hi <= lo, so this is the clip min(lo, max(hi, w)),
    which keeps w's bits on a tie and gives NaN for a NaN anchor.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    w = np.asarray(w, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    lo = anchor + q / (n * sigma)
    hi = anchor - (1.0 - q) / (n * sigma)
    out = np.minimum(lo, np.maximum(hi, w))
    return float(out) if out.ndim == 0 else out
