"""Quantities adapted online while a chain runs.

RMSProp supplies the diagonal preconditioner for preconditioned Langevin
steps; the Welford accumulator tracks the streaming mean and variance of one
scalar (the noise variance in the tempered-swap correction).
"""

from __future__ import annotations

import numpy as np


def rmsprop_step(v: np.ndarray, grad: np.ndarray, alpha: float, lam: float):
    """Update the second-moment estimate V <- alpha V + (1-alpha) g*g; return
    (V', preconditioner).

    The preconditioner 1/(lam + sqrt(V)) is positive and at most 1/lam where V
    is finite; a non-finite V is returned, and ``sgmc_update`` refuses its step.
    """
    v = alpha * v + (1.0 - alpha) * grad * grad
    return v, 1.0 / (lam + np.sqrt(v))


def welford_step(state: tuple, x: float) -> tuple:
    """Fold ``x`` into ``(count, mean, m2)``: Welford's count, mean and squared deviations."""
    count, mean, m2 = state
    count += 1
    delta = x - mean
    mean += delta / count
    return count, mean, m2 + delta * (x - mean)


def welford_finalize(state: tuple):
    """Return (mean, unbiased variance) of at least two observations."""
    count, mean, m2 = state
    return mean, m2 / (count - 1)
