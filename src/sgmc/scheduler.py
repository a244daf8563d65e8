"""Per-iteration process parameters: step size, temperature, burn-in, thinning.

Static schedules are pure functions of the iteration index; the adaptive
(dual-averaging) schedule consumes acceptance feedback from Metropolis-based
solvers, explores with the primal iterate during burn-in and freezes at the
averaged iterate afterwards.  Thinning is decided up front as a random plan:
kept iterations are drawn without replacement outside burn-in, weighted by
the static step size (uniformly for adaptive runs, where future step sizes
are unknown when the plan is drawn).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import RandomKey
from .errors import ConfigurationError


@dataclass
class ScheduleItem:
    """Bundle consumed by the chain loop for one iteration."""

    step_size: float
    temperature: float
    burn_in: bool
    keep: bool


def polynomial_schedule(first: float, last: float, gamma: float, n_iterations: int):
    """eps(t) = a (b + t)^(-gamma), hitting ``first`` at t=0 and ``last`` at t=n_iterations."""
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


# dual-averaging constants: shrinkage, iteration offset, averaging decay
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75


@dataclass(frozen=True)
class DualAveragingState:
    """Step-size adaptation toward a target acceptance probability ``delta``."""

    iteration: int
    h_bar: float
    log_eps: float
    log_eps_avg: float
    delta: float
    mu: float

    @classmethod
    def init(cls, eps_init: float, delta: float = 0.65) -> "DualAveragingState":
        if eps_init <= 0:
            raise ConfigurationError("initial step size must be > 0", field="step_size_init")
        if not 0 < delta < 1:
            raise ConfigurationError("target acceptance must lie in (0, 1)",
                                     field="target_accept")
        return cls(0, 0.0, math.log(eps_init), math.log(eps_init), delta,
                   math.log(10.0 * eps_init))

    @property
    def eps(self) -> float:
        return math.exp(self.log_eps)

    @property
    def eps_avg(self) -> float:
        return math.exp(self.log_eps_avg)


def dual_averaging_step(state: DualAveragingState, accept_prob: float) -> DualAveragingState:
    """Fold one observed acceptance probability into the adaptation."""
    if not 0.0 <= accept_prob <= 1.0:
        raise ValueError("acceptance probability must lie in [0, 1]")
    m = state.iteration + 1
    eta = 1.0 / (m + _DA_T0)
    h_bar = (1.0 - eta) * state.h_bar + eta * (state.delta - accept_prob)
    log_eps = state.mu - math.sqrt(m) * h_bar / _DA_GAMMA
    w = m ** (-_DA_KAPPA)
    log_eps_avg = w * log_eps + (1.0 - w) * state.log_eps_avg
    return DualAveragingState(m, h_bar, log_eps, log_eps_avg, state.delta, state.mu)


def random_thinning_plan(step_sizes, burn_in: int, selections: int, n_iterations: int,
                         key: RandomKey) -> frozenset[int]:
    """Pick ``selections`` distinct non-burn-in iterations, P(t) ~ eps_t.

    Drawn without replacement; with a constant schedule the inclusion
    frequency is uniform over the eligible range.
    """
    eligible = np.arange(burn_in, n_iterations)
    if not 0 <= selections <= eligible.shape[0]:
        raise ConfigurationError(
            f"cannot keep {selections} of {eligible.shape[0]} eligible iterations",
            field="selections")
    if callable(step_sizes):
        weights = np.asarray(step_sizes(eligible), dtype=np.float64)
    else:
        weights = np.asarray(step_sizes, dtype=np.float64)[eligible]
    if np.any(weights <= 0):
        raise ValueError("step sizes must be positive")
    if selections == eligible.shape[0]:
        return frozenset(int(t) for t in eligible)
    rng = key.generator()
    chosen = rng.choice(eligible, size=selections, replace=False, p=weights / weights.sum())
    return frozenset(int(t) for t in chosen)


@dataclass
class SchedulerState:
    """Scheduler position; ``scheduler_next`` never mutates it but returns the next one,
    so one initial state serves every chain."""

    iteration: int
    n_iterations: int
    burn_in: int
    temperature: float
    step_sizes: Optional[np.ndarray]  # static schedule, None when adaptive
    plan: frozenset[int]
    adaptive: Optional[DualAveragingState] = None
    seen_proposals: int = 0

    @property
    def is_adaptive(self) -> bool:
        return self.adaptive is not None


def init_scheduler(n_iterations: int, *, step_size=None, adaptive: DualAveragingState = None,
                   burn_in: int = 0, selections: int = None, temperature: float = 1.0,
                   key: RandomKey = None) -> SchedulerState:
    """Assemble the per-iteration schedule bundle.

    ``step_size`` is a function of the iteration index (such as
    :func:`polynomial_schedule`), an array of length n, or a constant;
    pass ``adaptive`` instead for dual averaging.  ``selections=None`` keeps
    every non-burn-in iteration.
    """
    if n_iterations < 1:
        raise ConfigurationError("need at least one iteration", field="iterations")
    if not 0 <= burn_in <= n_iterations:
        raise ConfigurationError("burn-in outside [0, iterations]", field="burn_in")
    if temperature < 0:
        raise ConfigurationError("temperature must be >= 0", field="temperature")
    if (step_size is None) == (adaptive is None):
        raise ConfigurationError("provide exactly one of step_size / adaptive",
                                 field="step_size")
    eps = None
    if step_size is not None:
        if callable(step_size):
            eps = np.asarray(step_size(np.arange(n_iterations)), dtype=np.float64)
        elif np.ndim(step_size) == 0:
            eps = np.full(n_iterations, float(step_size))
        else:
            eps = np.asarray(step_size, dtype=np.float64)
            if eps.shape[0] != n_iterations:
                raise ConfigurationError("step-size array length != iterations",
                                         field="step_size")
        if np.any(eps <= 0):
            raise ConfigurationError("step sizes must be positive", field="step_size")
    eligible = n_iterations - burn_in
    if selections is None:
        plan = frozenset(range(burn_in, n_iterations))
    else:
        if key is None:
            raise ConfigurationError("thinning needs a random key", field="key")
        weights = eps if eps is not None else np.ones(n_iterations)
        plan = random_thinning_plan(weights, burn_in, selections, n_iterations, key)
        assert len(plan) == min(selections, eligible)
    return SchedulerState(0, n_iterations, burn_in, temperature, eps, plan,
                          adaptive=adaptive)


def scheduler_next(state: SchedulerState, feedback=None):
    """Emit the next ScheduleItem; ``feedback`` carries solver acceptance stats.

    Guarantees keep => not burn_in for every emitted item.
    """
    t = state.iteration
    if t >= state.n_iterations:
        raise ValueError(f"schedule exhausted after {state.n_iterations} iterations")
    adaptive = state.adaptive
    seen = state.seen_proposals
    if adaptive is not None and feedback is not None:
        # one adaptation step per completed MH round, burn-in only
        if feedback.proposals > seen and feedback.last_alpha is not None and t <= state.burn_in:
            adaptive = dual_averaging_step(adaptive, feedback.last_alpha)
        seen = max(seen, feedback.proposals)
    if adaptive is not None:
        eps = adaptive.eps if t < state.burn_in else adaptive.eps_avg
    else:
        eps = float(state.step_sizes[t])
    burn = t < state.burn_in
    item = ScheduleItem(eps, state.temperature, burn, (not burn) and (t in state.plan))
    return item, SchedulerState(t + 1, state.n_iterations, state.burn_in, state.temperature,
                                state.step_sizes, state.plan, adaptive, seen)
