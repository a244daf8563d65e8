"""Markov-chain transitions composed from explicit blocks, and the chain driver.

A sampler is one frozen block whose fields are its knobs:

- an accept-all move, advanced by :func:`sgmc_update` with one mini-batch
  gradient and one integrator step per iteration: :class:`Langevin` (SGLD,
  or pSGLD with ``rms_prop``) or :class:`SGHMC`;
- a Metropolis trajectory, :class:`AMAGOLD` (noisy leapfrog) or
  :class:`SGGMC` (OBABO), inside the shared round :func:`metropolis_round`.
  It resamples the momentum, runs the trajectory and accepts with
  exp((U(start) - U(end) + W) / tau): the exact potential U is evaluated only
  at the endpoints (the start value is cached from the last accept) and W is
  the trajectory's stochastic work.  A rejection keeps the position;
- :class:`Tempering`, replica exchange around any accept-all move, with a
  variance correction for the mini-batch noise in the swap test;
- :class:`Adaptive`, dual averaging of the step size around a Metropolis
  trajectory, which it runs in place of the schedule's step size; the block
  checks its two knobs and folds each burn-in round into its chain's averages.

Each block owns the state ``aux`` a chain carries for it and its ``check`` of the schedule.
Every chain follows one fixed schedule (:mod:`sgmc.scheduler`); only the blocks adapt.
:class:`Solver` binds a block to a density, its dataset, the batch size and the
batching strategy.  :data:`SAMPLERS` maps each name to a block constructor
whose parameters are the sampler's knobs (:data:`KNOBS`).

Per-chain randomness comes from fixed streams of the chain key, each built once
as a generator and read in order: child(0) batches, child(1) iterations, child(2) swaps.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import io as sample_io
from .adaption import rmsprop_step, welford_finalize, welford_step
from .core import RandomKey, normal_flat
from .data import BatchSpec, BatchState, Dataset, init_batch_state, next_batch
from .errors import (ChainError, ConfigurationError, NumericError, check_kwargs,
                     check_type, parameters)
from .integrator import (langevin_step, obabo_trajectory,
                         reversible_leapfrog_trajectory, sghmc_step)
from .models import BuiltinModel
from .potential import LogDensityModel, full_value, minibatch_value_grad
from .scheduler import (Schedule, ScheduleItem, init_scheduler, polynomial_schedule,
                        scheduler_next)

# fixed per-chain stream indices (see module docstring)
_STREAM_BATCH = 0
_STREAM_ITER = 1
_STREAM_SWAP = 2


@dataclass(frozen=True)
class AcceptanceStats:
    proposals: int = 0
    accepts: int = 0
    last_alpha: float | None = None
    last_exponent: float | None = None
    last_delta_h: float | None = None  # Metropolis rounds only

    @property
    def rate(self) -> float:
        return self.accepts / self.proposals if self.proposals else 0.0


@dataclass
class SolverState:
    """Per-chain state; only the block reads ``aux``.  A step never mutates it but builds
    a new one, which shares the streams ``rng`` and ``batch_state``, moved on in place."""

    theta: np.ndarray
    rng: np.random.Generator
    batch_spec: BatchSpec
    batch_state: BatchState
    aux: object = None  # the block's own state, from its ``start``
    stats: AcceptanceStats = AcceptanceStats()
    gradient_evals: int = 0


@dataclass(frozen=True)
class Solver:
    """A sampler block bound to a density, its data and the batching."""

    block: AcceptAll | Metropolis | Tempering | Adaptive
    density: LogDensityModel
    dataset: Dataset
    batch_size: int
    batch_strategy: str = "draw_replacement"

    def __post_init__(self):  # the data layer's batch rules, checked at build time
        init_batch_state(self.dataset, BatchSpec(self.batch_size, self.batch_strategy))

    def potential(self, state: SolverState, flat: np.ndarray, value: bool = True):
        """The stochastic (U~, grad U~) at ``flat`` on the chain's next mini-batch, drawn
        only for a density with a likelihood; without ``value``, U~ is None and not computed."""
        batch = None
        if self.density.batch_score is not None:
            batch, _ = next_batch(self.dataset, state.batch_spec, state.batch_state)
        return minibatch_value_grad(self.density, flat, batch, value)


def _require(ok: bool, knob: str, message: str):
    if not ok:
        raise ConfigurationError(message, field=knob)


class Move:
    """Base of the blocks that advance one chain: ``init`` builds the chain's
    streams and takes ``aux`` from the block's ``start(solver, theta)``."""

    def init(self, solver: Solver, theta0: np.ndarray, key: RandomKey) -> SolverState:
        spec = BatchSpec(solver.batch_size, solver.batch_strategy, key.child(_STREAM_BATCH))
        theta = np.array(theta0, dtype=np.float64)
        return SolverState(theta, key.child(_STREAM_ITER).generator(), spec,
                           init_batch_state(solver.dataset, spec), self.start(solver, theta))

    def check(self, schedule: Schedule):
        """Refuse a schedule the block cannot run, naming the field; no rule by default."""


# ---------------------------------------------------------------------------
# Accept-all moves

class AcceptAll(Move):
    """Base of the accept-all moves: :func:`sgmc_update` takes the step ``integrate(state,
    grad, item) -> (theta, aux)`` with the mini-batch gradient.  A replica swap moves
    ``aux`` with the position if ``follows_theta`` is set; otherwise it stays with its chain."""

    follows_theta = False

    def step(self, solver: Solver, state: SolverState, item: ScheduleItem) -> SolverState:
        return sgmc_update(self, solver, state, item)


@dataclass(frozen=True)
class Langevin(AcceptAll):
    """SGLD; with ``rms_prop``, pSGLD preconditioned by RMSProp(``rms_alpha``, ``rms_lam``)."""

    rms_prop: bool = False
    rms_alpha: float = 0.99
    rms_lam: float = 1e-5
    follows_theta = True  # the RMSProp second moments (aux) travel with the position

    def __post_init__(self):
        _require(0.0 < self.rms_alpha < 1.0, "rms_alpha", "rms_alpha must lie in (0, 1)")
        _require(self.rms_lam > 0.0, "rms_lam", "rms_lam must be > 0")

    def start(self, solver, theta):
        return np.zeros(len(theta)) if self.rms_prop else None

    def integrate(self, state, grad, item):
        rms, precond = (rmsprop_step(state.aux, grad, self.rms_alpha, self.rms_lam)
                        if self.rms_prop else (None, None))
        return langevin_step(state.theta, grad, item.step_size, item.temperature, precond,
                             rng=state.rng), rms


@dataclass(frozen=True)
class SGHMC(AcceptAll):
    """SGHMC with friction C and gradient-noise estimate B-hat (``noise_estimate``);
    its momentum (aux) stays with its chain in a replica swap."""

    friction: float
    noise_estimate: float = 0.0

    def __post_init__(self):
        _require(self.friction >= 0, "friction", "friction must be >= 0")
        _require(0.0 <= self.noise_estimate <= self.friction, "noise_estimate",
                 "need 0 <= noise_estimate <= friction (noise variance 2 (C - B) >= 0)")

    def start(self, solver, theta):
        return np.zeros(len(theta))

    def integrate(self, state, grad, item):
        return sghmc_step(state.theta, state.aux, grad, item.step_size, self.friction,
                          self.noise_estimate, item.temperature, rng=state.rng)


def sgmc_update(move: AcceptAll, solver: Solver, state: SolverState,
                item: ScheduleItem) -> SolverState:
    """One accept-all transition: a mini-batch gradient, then one step of ``move``."""
    _, grad = solver.potential(state, state.theta, value=False)
    theta, aux = move.integrate(state, grad, item)
    stats = AcceptanceStats(state.stats.proposals + 1, state.stats.accepts + 1)
    return SolverState(theta, state.rng, state.batch_spec, state.batch_state, aux, stats,
                       state.gradient_evals + 1)


# ---------------------------------------------------------------------------
# Metropolis trajectories and the amortized MH round

class Metropolis(Move):
    """Base of the trajectories whose ``step`` is :func:`metropolis_round`, with
    ``trajectory(theta, p0, grad_fn, item, rng) -> (theta, p, W)``; ``aux`` is the
    exact potential at the position."""

    def start(self, solver, theta):
        return full_value(solver.density, theta, solver.dataset)

    def check(self, schedule: Schedule):
        _require(schedule.temperature > 0, "temperature",
                 "Metropolis samplers need temperature > 0")


@dataclass(frozen=True)
class AMAGOLD(Metropolis):
    """Time-reversible noisy leapfrog of ``leapfrog_steps`` steps with friction C."""

    leapfrog_steps: int
    friction: float = 0.1

    def __post_init__(self):
        _require(self.leapfrog_steps >= 1, "leapfrog_steps", "need at least one leapfrog step")
        _require(self.friction >= 0, "friction", "friction must be >= 0")

    def step(self, solver, state, item):
        return amagold_round(self, solver, state, item)

    def check(self, schedule):  # and beta below 1 at the largest step
        super().check(schedule)
        _require(0.5 * schedule.step_sizes.max() * self.friction < 1.0, "friction",
                 "half-step friction beta = step size * friction / 2 must be < 1")

    def trajectory(self, theta, p0, grad_fn, item, rng):
        beta = 0.5 * item.step_size * self.friction  # half-step friction
        if beta >= 1.0:  # an adapted step size can grow past 2 / friction
            raise NumericError(f"half-step friction step_size * friction / 2 = {beta} >= 1")
        return reversible_leapfrog_trajectory(theta, p0, self.leapfrog_steps, item.step_size,
                                              beta, grad_fn, tau=item.temperature, rng=rng)


@dataclass(frozen=True)
class SGGMC(Metropolis):
    """OBABO trajectory of ``obabo_steps`` steps; OU half-steps with friction gamma."""

    obabo_steps: int
    friction: float = 0.0

    def __post_init__(self):
        _require(self.obabo_steps >= 1, "obabo_steps", "need at least one OBABO step")
        _require(self.friction >= 0, "friction", "friction must be >= 0")

    def step(self, solver, state, item):
        return sggmc_round(self, solver, state, item)

    def trajectory(self, theta, p0, grad_fn, item, rng):
        return obabo_trajectory(theta, p0, self.obabo_steps, item.step_size, self.friction,
                                grad_fn, tau=item.temperature, rng=rng)


def metropolis_round(traj: Metropolis, solver: Solver, state: SolverState,
                     item: ScheduleItem) -> SolverState:
    """One amortized MH round around the trajectory of ``traj``."""
    tau = item.temperature
    p0 = normal_flat(state.rng, state.theta.shape[0], math.sqrt(tau))
    evals = [0]

    def grad_fn(flat):
        evals[0] += 1
        return solver.potential(state, flat, value=False)[1]

    theta_new, p_new, work = traj.trajectory(state.theta, p0, grad_fn, item, state.rng)

    u0 = state.aux
    u_new = full_value(solver.density, theta_new, solver.dataset)
    exponent = (u0 - u_new + work) / tau
    # -inf (an endpoint outside the support) is a certain rejection
    if math.isnan(exponent) or exponent == math.inf:
        raise NumericError(f"non-finite acceptance exponent {exponent}")
    alpha = math.exp(min(exponent, 0.0))
    accept = math.log(state.rng.random()) < exponent

    k0, k_new = 0.5 * float(p0 @ p0), 0.5 * float(p_new @ p_new)
    delta_h = (u_new + k_new - u0 - k0) / tau
    stats = AcceptanceStats(state.stats.proposals + 1,
                            state.stats.accepts + (1 if accept else 0),
                            alpha, exponent, delta_h)
    if not accept:
        theta_new, u_new = state.theta, u0
    return SolverState(theta_new, state.rng, state.batch_spec, state.batch_state, u_new,
                       stats, state.gradient_evals + evals[0])


# the round under each built-in trajectory's name, so that traces tell them apart
amagold_round = sggmc_round = metropolis_round


# dual-averaging constants: shrinkage, iteration offset, averaging decay
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75


@dataclass
class AdaptiveChain:
    """A Metropolis chain, which the chain loop reads, and its step size's dual averaging:
    the rounds folded in, h_bar, and the logs of the primal and the averaged iterate."""

    chain: SolverState
    rounds: int
    h_bar: float
    log_eps: float
    log_eps_avg: float

    theta = property(lambda self: self.chain.theta)
    stats = property(lambda self: self.chain.stats)
    gradient_evals = property(lambda self: self.chain.gradient_evals)


@dataclass(frozen=True)
class Adaptive:
    """Dual averaging (Hoffman & Gelman, JMLR 2014) of the Metropolis ``move``'s step size,
    from ``step_size_init`` toward acceptance ``target_accept``, in place of the schedule's:
    the primal iterate in burn-in, each round's acceptance folded in after it, then the
    averaged iterate."""

    move: Metropolis
    target_accept: float
    step_size_init: float

    def __post_init__(self):
        check_type("step_size_init", self.step_size_init, (float,))
        check_type("target_accept", self.target_accept, (float,))
        _require(self.step_size_init > 0, "step_size_init", "initial step size must be > 0")
        _require(0 < self.target_accept < 1, "target_accept",
                 "target acceptance must lie in (0, 1)")
        _require(isinstance(self.move, Metropolis), "target_accept",
                 "adaptive step sizes need a Metropolis sampler (no acceptance statistics)")

    def init(self, solver: Solver, theta0: np.ndarray, key: RandomKey) -> AdaptiveChain:
        log_eps = math.log(self.step_size_init)
        return AdaptiveChain(self.move.init(solver, theta0, key), 0, 0.0, log_eps, log_eps)

    def step(self, solver: Solver, state: AdaptiveChain, item: ScheduleItem) -> AdaptiveChain:
        eps = math.exp(state.log_eps if item.burn_in else state.log_eps_avg)
        chain = self.move.step(solver, state.chain,
                               ScheduleItem(eps, item.temperature, item.burn_in, item.keep))
        if not item.burn_in:
            return AdaptiveChain(chain, state.rounds, state.h_bar, state.log_eps,
                                 state.log_eps_avg)
        # fold the round's acceptance probability, which lies in [0, 1], into the averages
        m = state.rounds + 1
        eta = 1.0 / (m + _DA_T0)
        h_bar = (1.0 - eta) * state.h_bar + eta * (self.target_accept - chain.stats.last_alpha)
        log_eps = math.log(10.0 * self.step_size_init) - math.sqrt(m) * h_bar / _DA_GAMMA
        w = m ** (-_DA_KAPPA)
        return AdaptiveChain(chain, m, h_bar, log_eps, w * log_eps + (1.0 - w) * state.log_eps_avg)

    def check(self, schedule: Schedule):  # the move's rules at the first step size
        self.move.check(Schedule(np.full_like(schedule.step_sizes, self.step_size_init),
                                 schedule.keep, schedule.burn_in, schedule.temperature))


# ---------------------------------------------------------------------------
# Replica exchange

@dataclass
class TemperingPair:
    """A chain at the schedule's temperature coupled to a tempered one."""

    low: SolverState
    high: SolverState
    noise_var: tuple  # Welford (count, mean, m2) of the swap test's noise
    rng: np.random.Generator  # the swap stream
    stats: AcceptanceStats = AcceptanceStats()  # of the swaps

    # chain-loop protocol: expose the cold chain
    @property
    def theta(self) -> np.ndarray:
        return self.low.theta

    @property
    def gradient_evals(self) -> int:
        return self.low.gradient_evals + self.high.gradient_evals


@dataclass(frozen=True)
class Tempering:
    """Replica exchange around the accept-all ``move``: the tempered chain runs
    at temperature ``tau_high`` with ``hot_step_factor`` times the step size,
    a swap is proposed every ``swap_interval`` steps, and ``correction`` is F
    in the noise-corrected swap exponent."""

    move: AcceptAll
    tau_high: float
    swap_interval: int = 50
    correction: float = 1.0
    hot_step_factor: float = 1.0

    def __post_init__(self):
        _require(self.swap_interval >= 1, "swap_interval", "swap interval must be >= 1")
        _require(self.correction > 0, "correction", "correction factor must be > 0")
        _require(self.hot_step_factor > 0, "hot_step_factor", "hot step factor must be > 0")

    def init(self, solver: Solver, theta0: np.ndarray, key: RandomKey) -> TemperingPair:
        return TemperingPair(self.move.init(solver, theta0, key.child(0)),
                             self.move.init(solver, theta0, key.child(1)),
                             (0, 0.0, 0.0),
                             key.child(0).child(_STREAM_SWAP).generator())

    def step(self, solver: Solver, pair: TemperingPair, item: ScheduleItem) -> TemperingPair:
        return resgld_step(self, solver, pair, item)

    def check(self, schedule: Schedule):
        self.move.check(schedule)
        _require(self.tau_high > schedule.temperature, "tau_high",
                 "tempered chain needs tau_high above the temperature")


def resgld(tau_high: float, swap_interval: int = 50, correction: float = 1.0,
           hot_step_factor: float = 1.0, rms_prop: bool = False) -> Tempering:
    """reSGLD: :class:`Tempering` around :class:`Langevin` (pSGLD with ``rms_prop``)."""
    return Tempering(Langevin(rms_prop), tau_high, swap_interval, correction,
                     hot_step_factor)


def swap_exponent(tau_low: float, tau_high: float, u_low: float, u_high: float,
                  noise_var: float = 0.0, correction: float = 1.0) -> float:
    """Log swap probability with the mini-batch noise correction."""
    dbeta = 1.0 / tau_low - 1.0 / tau_high
    return dbeta * (u_low - u_high - dbeta * noise_var / correction)


def resgld_swap(block: Tempering, solver: Solver, pair: TemperingPair,
                tau: float) -> TemperingPair:
    """Attempt one state swap between the chain at ``tau`` and the tempered one.

    The noise variance of the stochastic potential is estimated online from
    paired fresh-batch evaluations, Var(U~) ~= Var((U~_a - U~_b)/sqrt(2)),
    which isolates mini-batch noise from the drift of the chains.
    """
    low, high = pair.low, pair.high
    # two fresh-batch estimates per chain, drawn low, low, high, high
    u_low, u_low_b, u_high, u_high_b = (solver.potential(s, s.theta)[0]
                                        for s in (low, low, high, high))
    nv = welford_step(pair.noise_var, (u_low - u_low_b) / math.sqrt(2.0))
    nv = welford_step(nv, (u_high - u_high_b) / math.sqrt(2.0))
    sigma2 = welford_finalize(nv)[1] if nv[0] >= 2 else 0.0  # count >= 2
    exponent = swap_exponent(tau, block.tau_high, u_low, u_high, sigma2, block.correction)
    accept = math.log(pair.rng.random()) < exponent
    if accept:  # exchange the positions, and aux if it follows them; streams stay put
        follows = block.move.follows_theta
        low, high = (
            SolverState(high.theta.copy(), low.rng, low.batch_spec, low.batch_state,
                        high.aux if follows else low.aux, low.stats, low.gradient_evals),
            SolverState(low.theta.copy(), high.rng, high.batch_spec, high.batch_state,
                        low.aux if follows else high.aux, high.stats, high.gradient_evals))
    stats = AcceptanceStats(pair.stats.proposals + 1,
                            pair.stats.accepts + (1 if accept else 0),
                            math.exp(min(exponent, 0.0)), exponent)
    return TemperingPair(low, high, nv, pair.rng, stats)


def resgld_step(block: Tempering, solver: Solver, pair: TemperingPair,
                item: ScheduleItem) -> TemperingPair:
    """Advance both chains one step of ``block.move``; swap every ``swap_interval`` steps."""
    hot_item = ScheduleItem(item.step_size * block.hot_step_factor, block.tau_high,
                            item.burn_in, item.keep)
    pair = TemperingPair(block.move.step(solver, pair.low, item),
                         block.move.step(solver, pair.high, hot_item),
                         pair.noise_var, pair.rng, pair.stats)
    if pair.low.stats.proposals % block.swap_interval == 0:
        pair = resgld_swap(block, solver, pair, item.temperature)
    return pair


# ---------------------------------------------------------------------------
# The sampler table

SAMPLERS = {
    "sgld": Langevin,
    "psgld": functools.partial(Langevin, rms_prop=True),
    "sghmc": SGHMC,
    "amagold": AMAGOLD,
    "sggmc": SGGMC,
    "resgld": resgld,
}
SAMPLER_NAMES = tuple(SAMPLERS)

# name -> {knob: default}, read once from the constructor's parameters; a bare
# type in place of the default marks a required knob
KNOBS = {name: {p.name: p.annotation if p.default is p.empty else p.default
                for p in parameters(make).values()}
         for name, make in SAMPLERS.items()}


def make_solver(name: str, density: LogDensityModel, dataset: Dataset, batch_size: int,
                batch_strategy: str = "draw_replacement", **knobs) -> Solver:
    """Bind sampler ``name`` to a model and a dataset.

    ``knobs`` are knobs of the sampler (:data:`KNOBS`); an omitted knob takes
    its default.  :func:`~sgmc.errors.check_kwargs` refuses an unknown knob, a
    value (None too) without the knob's annotated type, and a missing required one.
    """
    if name not in SAMPLERS:
        raise ConfigurationError(f"unknown sampler {name!r}", field="sampler")
    check_kwargs(f"sampler {name!r}", SAMPLERS[name], knobs)
    return Solver(SAMPLERS[name](**knobs), density, dataset, batch_size, batch_strategy)


# ---------------------------------------------------------------------------
# Chain driver

def _chain_result(store, stats, runtime, gradient_evals, iterations, status="ok"):
    return {"status": status, "chain_id": store.chain_id, "sample_count": store.sample_count,
            "acceptance_rate": stats.rate, "runtime": runtime, "iterations": iterations,
            "gradient_evaluations": gradient_evals, "store": store}


def _run_chain(solver: Solver, schedule: Schedule, init_theta: np.ndarray,
               chain_key: RandomKey, chain_id: int):
    state = solver.block.init(solver, init_theta, chain_key)
    store = sample_io.SampleStore(solver.density.layout, int(schedule.keep.sum()), chain_id)
    step = solver.block.step
    iterations = len(schedule.keep)
    started = time.perf_counter()
    for t in range(iterations):
        item = scheduler_next(schedule, t)
        try:
            state = step(solver, state, item)
        except ArithmeticError as exc:  # NumericError, or overflow in model code
            partial = _chain_result(store, state.stats, time.perf_counter() - started,
                                    state.gradient_evals, t, "failed")
            raise ChainError(str(exc), iteration=t, partial=partial) from exc
        if item.keep:
            sample_io.collect_sample(store, state.theta, t)
    return _chain_result(store, state.stats, time.perf_counter() - started,
                         state.gradient_evals, iterations)


def run_mcmc(solver: Solver, schedule: Schedule, init_theta: np.ndarray, *,
             key: RandomKey, chains: int = 1) -> list[dict]:
    """Run ``chains`` independent chains of the schedule's iterations in turn, each
    from a copy of the flat start ``init_theta`` of shape ``(dim,)``; returns one
    result per chain, its samples in ``result["store"]``.

    Chain c draws every stream from ``key.child(c)``, so each chain is a pure
    function of its key.  Each result's ``status`` is "ok" or "failed".  A
    failing chain does not stop the others: after the last chain, the first
    ChainError propagates with ``.partial`` holding the failing chain's
    collected samples and ``.results`` every chain's result.
    """
    check_type("chains", chains, (int,))
    _require(chains >= 1, "chains", "need at least one chain")
    solver.block.check(schedule)
    solver.density.check_start(init_theta)
    results, failure = [], None
    for c in range(chains):
        try:
            results.append(_run_chain(solver, schedule, init_theta, key.child(c), c))
        except ChainError as exc:
            results.append(exc.partial)
            failure = failure or exc
    if failure is not None:
        failure.results = results
        raise failure
    return results


# ---------------------------------------------------------------------------
# High-level assembly

@dataclass
class SamplerBundle:
    """Everything run_mcmc needs, assembled from one configuration."""

    solver: Solver
    schedule: Schedule
    init_theta: np.ndarray
    run_key: RandomKey

    def run(self, chains: int = 1) -> list[dict]:
        return run_mcmc(self.solver, self.schedule, self.init_theta, key=self.run_key,
                        chains=chains)


# build_sampler's own settings; any other key must be a knob of some sampler
SETTINGS = frozenset({
    "model", "dataset", "init_theta", "iterations", "batch_size", "batch_strategy", "seed",
    "step_size_first", "step_size_last", "step_size_decay", "target_accept",
    "step_size_init", "burn_in", "selections", "temperature"})
STEP_SIZE_DECAY = 0.33  # build_sampler's polynomial decay exponent when none is set


def build_sampler(name: str, config: dict) -> SamplerBundle:
    """Assemble a ready-to-run sampler from a flat configuration mapping.

    Required for every sampler: model (BuiltinModel), dataset, iterations,
    batch_size, seed, and a step-size block (step_size_first/step_size_last/
    step_size_decay, or target_accept/step_size_init for adaptive runs, whose
    block :class:`Adaptive` wraps).  Unset batch_strategy, burn_in, selections
    and temperature take the defaults of :func:`make_solver` and :func:`init_scheduler`.
    The sampler's knobs come from the same mapping (:data:`KNOBS`); another
    sampler's knob is ignored, and a key that is neither a knob nor in
    :data:`SETTINGS` is a ConfigurationError.  A None value counts as unset.
    """
    cfg = {k: v for k, v in config.items() if v is not None}
    for key in cfg:
        if key not in SETTINGS and not any(key in table for table in KNOBS.values()):
            raise ConfigurationError("no sampler takes this setting", field=key)

    def need(field_name):
        if field_name not in cfg:
            raise ConfigurationError(f"sampler {name!r} requires a value",
                                     field=field_name)
        return cfg[field_name]

    def given(*names):
        return {key: cfg[key] for key in names if key in cfg}

    model: BuiltinModel = need("model")
    dataset: Dataset = need("dataset")
    iterations = need("iterations")
    solver = make_solver(name, model.density, dataset, need("batch_size"),
                         **given("batch_strategy", *KNOBS.get(name, ())))
    root = RandomKey(need("seed"))

    if cfg.get("target_accept") is not None:
        solver = replace(solver, block=Adaptive(solver.block, cfg["target_accept"],
                                                cfg.get("step_size_init", 0.1)))
        step_sizes = 1.0  # unused by Adaptive; unit weights thin every iteration alike
    else:
        step_sizes = polynomial_schedule(need("step_size_first"),
                                         need("step_size_last"),
                                         cfg.get("step_size_decay", STEP_SIZE_DECAY), iterations)

    schedule = init_scheduler(iterations, step_size=step_sizes, key=root.child(1),
                              **given("burn_in", "selections", "temperature"))
    return SamplerBundle(solver, schedule, cfg.get("init_theta", model.init), root.child(2))
