"""Quantities adapted online while a chain runs.

RMSProp supplies the diagonal preconditioner for preconditioned Langevin
steps; the Welford accumulator tracks streaming mean/variance (used for the
tempered-swap noise correction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError


def rmsprop_step(v: np.ndarray, grad: np.ndarray, alpha: float, lam: float):
    """Update the second-moment estimate V <- alpha V + (1-alpha) g*g; return
    (V', preconditioner).

    The preconditioner 1/(lam + sqrt(V)) is strictly positive and bounded by
    1/lam elementwise.
    """
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient fed to rmsprop_step")
    v = alpha * v + (1.0 - alpha) * grad * grad
    return v, 1.0 / (lam + np.sqrt(v))


@dataclass(frozen=True)
class OnlineCovState:
    """Welford accumulator: count, running mean, sum of squared deviations."""

    count: int
    mean: np.ndarray
    m2: np.ndarray  # (d,): one sum per coordinate

    @classmethod
    def init(cls, dim: int) -> "OnlineCovState":
        return cls(0, np.zeros(dim), np.zeros(dim))


def welford_step(state: OnlineCovState, x) -> OnlineCovState:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != state.mean.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {state.mean.shape}")
    count = state.count + 1
    delta = x - state.mean
    mean = state.mean + delta / count
    m2 = state.m2 + delta * (x - mean)
    return OnlineCovState(count, mean, m2)


def welford_finalize(state: OnlineCovState):
    """Return (mean, unbiased variance); needs at least two observations."""
    if state.count < 2:
        raise ValueError(f"variance needs count >= 2, have {state.count}")
    return state.mean.copy(), state.m2 / (state.count - 1)
