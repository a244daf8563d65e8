"""The plan every chain follows: step size, temperature, burn-in, thinning.

:func:`init_scheduler` fixes the plan before any chain starts: a step size and
a keep flag for each iteration, the burn-in and the temperature.  Every chain
shares it, and :func:`scheduler_next` reads one iteration's item from it.
Thinning is drawn up front as a random plan: kept iterations are drawn without
replacement outside burn-in, weighted by the step size.  Only the blocks
adapt: dual averaging, the one step-size rule that needs acceptance feedback,
belongs to a chain, not to the plan, and the ``Adaptive`` block of
:mod:`sgmc.solver` owns it whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RandomKey
from .errors import ConfigurationError, check_type


@dataclass
class ScheduleItem:
    """Bundle consumed by the chain loop for one iteration."""

    step_size: float
    temperature: float
    burn_in: bool
    keep: bool


def polynomial_schedule(first: float, last: float, gamma: float, n_iterations: int):
    """eps(t) = a (b + t)^(-gamma), hitting ``first`` at t=0 and ``last`` at t=n_iterations."""
    for field, value in (("step_size_first", first), ("step_size_last", last),
                         ("step_size_decay", gamma)):
        check_type(field, value, (float,))
    check_type("iterations", n_iterations, (int,))
    if not last > 0:
        raise ConfigurationError("need step_size_last > 0", field="step_size_last")
    if not first > last:
        raise ConfigurationError("need step_size_first > step_size_last",
                                 field="step_size_first")
    if not 0 < gamma <= 1:
        raise ConfigurationError("decay exponent must lie in (0, 1]", field="step_size_decay")
    b = n_iterations / ((first / last) ** (1.0 / gamma) - 1.0)
    a = first * b**gamma
    return lambda t: a * (b + np.asarray(t, dtype=np.float64)) ** (-gamma)


def random_thinning_plan(step_sizes: np.ndarray, burn_in: int, selections: int,
                         n_iterations: int, key: RandomKey) -> frozenset[int]:
    """Pick ``selections`` distinct non-burn-in iterations, P(t) ~ ``step_sizes[t]``.

    Drawn without replacement; with a constant schedule the inclusion
    frequency is uniform over the eligible range.
    """
    eligible = np.arange(burn_in, n_iterations)
    if not 0 <= selections <= eligible.shape[0]:
        raise ConfigurationError(
            f"cannot keep {selections} of {eligible.shape[0]} eligible iterations",
            field="selections")
    weights = np.asarray(step_sizes, dtype=np.float64)[eligible]
    if selections == eligible.shape[0]:
        return frozenset(int(t) for t in eligible)
    rng = key.generator()
    chosen = rng.choice(eligible, size=selections, replace=False, p=weights / weights.sum())
    return frozenset(int(t) for t in chosen)


@dataclass(frozen=True)
class Schedule:
    """The plan, fixed before any chain starts; its arrays are read-only."""

    step_sizes: np.ndarray  # float64, one per iteration
    keep: np.ndarray  # bool, one per iteration; False throughout burn-in
    burn_in: int
    temperature: float


def init_scheduler(n_iterations: int, *, step_size, burn_in: int = 0, selections: int = None,
                   temperature: float = 1.0, key: RandomKey = None) -> Schedule:
    """Fix the plan of ``n_iterations`` iterations.

    ``step_size`` is a function of the iteration index (such as
    :func:`polynomial_schedule`) or a float.  ``selections=None`` keeps every
    non-burn-in iteration; otherwise ``key`` draws the kept ones.
    """
    check_type("iterations", n_iterations, (int,))
    check_type("burn_in", burn_in, (int,))
    check_type("selections", selections, (int, type(None)))
    check_type("temperature", temperature, (float,))
    if n_iterations < 1:
        raise ConfigurationError("need at least one iteration", field="iterations")
    if not 0 <= burn_in <= n_iterations:
        raise ConfigurationError("burn-in outside [0, iterations]", field="burn_in")
    if not temperature >= 0:
        raise ConfigurationError("temperature must be >= 0", field="temperature")
    if callable(step_size):
        eps = np.asarray(step_size(np.arange(n_iterations)), dtype=np.float64)
    else:
        check_type("step_size", step_size, (float,))
        eps = np.full(n_iterations, float(step_size))
    if not np.all(eps > 0):
        raise ConfigurationError("step sizes must be positive", field="step_size")
    keep = np.zeros(n_iterations, dtype=bool)
    if selections is None:
        keep[burn_in:] = True
    else:
        if key is None:
            raise ConfigurationError("thinning needs a random key", field="key")
        keep[list(random_thinning_plan(eps, burn_in, selections, n_iterations, key))] = True
    eps.flags.writeable = keep.flags.writeable = False
    return Schedule(eps, keep, burn_in, temperature)


def scheduler_next(schedule: Schedule, t: int) -> ScheduleItem:
    """The item of iteration ``t``; keep implies not burn_in."""
    return ScheduleItem(float(schedule.step_sizes[t]), schedule.temperature,
                        t < schedule.burn_in, bool(schedule.keep[t]))
