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
  the trajectory's stochastic work.  A rejection keeps the position and flips
  the round's initial momentum;
- :class:`Tempering`, replica exchange around any accept-all move, with a
  variance correction for the mini-batch noise in the swap test.

:class:`Solver` binds a block to a :class:`Binding` (density, dataset, batch
size and strategy).  :data:`SAMPLERS` maps each name to a block constructor
whose parameters are the sampler's knobs (:data:`KNOBS`).

Per-chain randomness comes from fixed streams of the chain key, each built once
as a generator and read in order: child(0) batches, child(1) iterations, child(2) swaps.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import io as sample_io
from .adaption import (OnlineCovState, RMSPropState, rmsprop_step,
                       welford_finalize, welford_step)
from .core import ParameterVector, RandomKey, normal_flat
from .data import (STRATEGIES, BatchSpec, BatchState, Dataset, init_batch_state,
                   next_batch)
from .errors import ChainError, ConfigurationError, NumericError
from .integrator import (langevin_step, obabo_trajectory,
                         reversible_leapfrog_trajectory, sghmc_step)
from .models import BuiltinModel
from .potential import LogDensityModel, full_value, minibatch_value_grad
from .scheduler import (DualAveragingState, ScheduleItem, SchedulerState,
                        init_scheduler, polynomial_schedule, scheduler_next)

# fixed per-chain stream indices (see module docstring)
_STREAM_BATCH = 0
_STREAM_ITER = 1
_STREAM_SWAP = 2


@dataclass(frozen=True)
class AcceptanceStats:
    proposals: int = 0
    accepts: int = 0
    last_alpha: Optional[float] = None
    last_exponent: Optional[float] = None
    last_delta_h: Optional[float] = None  # Metropolis rounds only

    @property
    def rate(self) -> float:
        return self.accepts / self.proposals if self.proposals else 0.0


@dataclass
class SolverState:
    """Per-chain sampler state.  A step never mutates it but builds a new one,
    which shares ``rng`` and ``batch_state.rng``: stepping moves the streams forward."""

    theta: np.ndarray
    rng: np.random.Generator
    batch_spec: BatchSpec
    batch_state: BatchState
    p: Optional[np.ndarray] = None
    rms: Optional[RMSPropState] = None
    cached_potential: Optional[float] = None
    stats: AcceptanceStats = AcceptanceStats()
    gradient_evals: int = 0


@dataclass(frozen=True)
class Binding:
    """What the blocks of one sampler act on: a density, its data and the batching."""

    density: LogDensityModel
    dataset: Dataset
    batch_size: int
    batch_strategy: str = "draw_replacement"

    def __post_init__(self):
        _require(1 <= self.batch_size <= self.dataset.size, "batch_size",
                 f"batch size outside [1, {self.dataset.size}] (the dataset's size)")
        _require(self.batch_strategy in STRATEGIES, "batch_strategy",
                 f"unknown batching strategy {self.batch_strategy!r}")


def _init_state(bound: Binding, theta0: ParameterVector, key: RandomKey, **fields):
    spec = BatchSpec(bound.batch_size, bound.batch_strategy, key.child(_STREAM_BATCH))
    return SolverState(theta0.values.copy(), key.child(_STREAM_ITER).generator(), spec,
                       init_batch_state(bound.dataset, spec), **fields)


def _require(ok: bool, knob: str, message: str):
    if not ok:
        raise ConfigurationError(message, field=knob)


# ---------------------------------------------------------------------------
# Accept-all moves

class AcceptAll:
    """Base of the accept-all moves: ``init(binding, theta0, key)`` gives the
    state and ``integrate(state, grad, item) -> (theta, p, rms)`` is the step
    that :func:`sgmc_update` takes with the mini-batch gradient."""

    def step(self, bound: Binding, state: SolverState, item: ScheduleItem) -> SolverState:
        return sgmc_update(self, bound, state, item)


@dataclass(frozen=True)
class Langevin(AcceptAll):
    """SGLD; with ``rms_prop``, pSGLD preconditioned by RMSProp(``rms_alpha``, ``rms_lam``)."""

    rms_prop: bool = False
    rms_alpha: float = 0.99
    rms_lam: float = 1e-5

    def __post_init__(self):
        _require(0.0 < self.rms_alpha < 1.0, "rms_alpha", "rms_alpha must lie in (0, 1)")
        _require(self.rms_lam > 0.0, "rms_lam", "rms_lam must be > 0")

    def init(self, bound, theta0, key):
        rms = (RMSPropState.init(theta0.size, self.rms_alpha, self.rms_lam)
               if self.rms_prop else None)
        return _init_state(bound, theta0, key, rms=rms)

    def integrate(self, state, grad, item):
        rms, precond = rmsprop_step(state.rms, grad) if self.rms_prop else (None, None)
        return langevin_step(state.theta, grad, item.step_size, item.temperature, precond,
                             rng=state.rng), None, rms


@dataclass(frozen=True)
class SGHMC(AcceptAll):
    """SGHMC with friction C and gradient-noise estimate B-hat (``noise_estimate``)."""

    friction: float
    noise_estimate: float = 0.0

    def __post_init__(self):
        _require(0.0 <= self.noise_estimate <= self.friction, "noise_estimate",
                 "need 0 <= noise_estimate <= friction (noise variance 2 (C - B) >= 0)")

    def init(self, bound, theta0, key):
        return _init_state(bound, theta0, key, p=np.zeros(theta0.size))

    def integrate(self, state, grad, item):
        theta, p = sghmc_step(state.theta, state.p, grad, item.step_size, self.friction,
                              self.noise_estimate, item.temperature, rng=state.rng)
        return theta, p, None


def sgmc_update(move: AcceptAll, bound: Binding, state: SolverState,
                item: ScheduleItem) -> SolverState:
    """One accept-all transition: a mini-batch gradient, then one step of ``move``."""
    batch, bstate = next_batch(bound.dataset, state.batch_spec, state.batch_state)
    _, grad = minibatch_value_grad(bound.density, state.theta, batch)
    theta, p, rms = move.integrate(state, grad, item)
    stats = AcceptanceStats(state.stats.proposals + 1, state.stats.accepts + 1)
    return SolverState(theta, state.rng, state.batch_spec, bstate, p, rms,
                       state.cached_potential, stats, state.gradient_evals + 1)


# ---------------------------------------------------------------------------
# Metropolis trajectories and the amortized MH round

class Metropolis:
    """Base of the trajectories whose ``step`` is :func:`metropolis_round`, with
    ``trajectory(theta, p0, grad_fn, item, rng) -> (theta, p, W)``."""

    def init(self, bound: Binding, theta0: ParameterVector, key: RandomKey) -> SolverState:
        return _init_state(bound, theta0, key, p=np.zeros(theta0.size),
                           cached_potential=full_value(bound.density, theta0.values,
                                                       bound.dataset))


@dataclass(frozen=True)
class AMAGOLD(Metropolis):
    """Time-reversible noisy leapfrog of ``leapfrog_steps`` steps with friction C."""

    leapfrog_steps: int
    friction: float = 0.1

    def __post_init__(self):
        _require(self.leapfrog_steps >= 1, "leapfrog_steps", "need at least one leapfrog step")

    def step(self, bound, state, item):
        return amagold_round(self, bound, state, item)

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

    def step(self, bound, state, item):
        return sggmc_round(self, bound, state, item)

    def trajectory(self, theta, p0, grad_fn, item, rng):
        return obabo_trajectory(theta, p0, self.obabo_steps, item.step_size, self.friction,
                                grad_fn, tau=item.temperature, rng=rng)


def metropolis_round(traj: Metropolis, bound: Binding, state: SolverState,
                     item: ScheduleItem) -> SolverState:
    """One amortized MH round around the trajectory of ``traj``."""
    tau = item.temperature
    if tau <= 0:
        raise ValueError("Metropolis solvers need temperature > 0")
    p0 = normal_flat(state.rng, state.theta.shape[0], math.sqrt(tau))

    box = [state.batch_state]  # the batch cursor, advanced by every gradient
    evals = [0]

    def grad_fn(flat):
        evals[0] += 1
        batch, box[0] = next_batch(bound.dataset, state.batch_spec, box[0])
        return minibatch_value_grad(bound.density, flat, batch)[1]

    theta_new, p_new, work = traj.trajectory(state.theta, p0, grad_fn, item, state.rng)

    u0 = state.cached_potential
    u_new = full_value(bound.density, theta_new, bound.dataset)
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
        theta_new, p_new, u_new = state.theta, -p0, u0
    return SolverState(theta_new, state.rng, state.batch_spec, box[0], p_new, state.rms,
                       u_new, stats, state.gradient_evals + evals[0])


# the round under each built-in trajectory's name, so that traces tell them apart
amagold_round = sggmc_round = metropolis_round


# ---------------------------------------------------------------------------
# Replica exchange

@dataclass
class TemperingPair:
    """A chain at the schedule's temperature coupled to a tempered one."""

    low: SolverState
    high: SolverState
    noise_var: OnlineCovState
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
        _require(self.tau_high > 1.0, "tau_high", "tempered chain needs tau_high > 1")
        _require(self.swap_interval >= 1, "swap_interval", "swap interval must be >= 1")
        _require(self.correction > 0, "correction", "correction factor must be > 0")
        _require(self.hot_step_factor > 0, "hot_step_factor", "hot step factor must be > 0")

    def init(self, bound: Binding, theta0: ParameterVector, key: RandomKey) -> TemperingPair:
        return TemperingPair(self.move.init(bound, theta0, key.child(0)),
                             self.move.init(bound, theta0, key.child(1)),
                             OnlineCovState.init(1),
                             key.child(0).child(_STREAM_SWAP).generator())

    def step(self, bound: Binding, pair: TemperingPair, item: ScheduleItem) -> TemperingPair:
        return resgld_step(self, bound, pair, item)


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


def _stochastic_u_pair(bound: Binding, state: SolverState):
    """Two independent fresh-batch potential estimates at the current position."""
    batch_a, bstate = next_batch(bound.dataset, state.batch_spec, state.batch_state)
    u_a, _ = minibatch_value_grad(bound.density, state.theta, batch_a)
    batch_b, bstate = next_batch(bound.dataset, state.batch_spec, bstate)
    u_b, _ = minibatch_value_grad(bound.density, state.theta, batch_b)
    return u_a, u_b, bstate


def resgld_swap(block: Tempering, bound: Binding, pair: TemperingPair,
                tau: float) -> TemperingPair:
    """Attempt one state swap between the chain at ``tau`` and the tempered one.

    The noise variance of the stochastic potential is estimated online from
    paired fresh-batch evaluations, Var(U~) ~= Var((U~_a - U~_b)/sqrt(2)),
    which isolates mini-batch noise from the drift of the chains.
    """
    u_low, u_low_b, bstate_low = _stochastic_u_pair(bound, pair.low)
    u_high, u_high_b, bstate_high = _stochastic_u_pair(bound, pair.high)
    nv = welford_step(pair.noise_var, (u_low - u_low_b) / math.sqrt(2.0))
    nv = welford_step(nv, (u_high - u_high_b) / math.sqrt(2.0))
    sigma2 = float(welford_finalize(nv)[1][0]) if nv.count >= 2 else 0.0
    exponent = swap_exponent(tau, block.tau_high, u_low, u_high, sigma2, block.correction)
    accept = math.log(pair.rng.random()) < exponent
    low, high = pair.low, pair.high
    theta_low, rms_low, theta_high, rms_high = low.theta, low.rms, high.theta, high.rms
    if accept:  # exchange position and position-bound solver state; streams stay put
        theta_low, rms_low, theta_high, rms_high = (high.theta.copy(), high.rms,
                                                    low.theta.copy(), low.rms)
    low = SolverState(theta_low, low.rng, low.batch_spec, bstate_low, low.p, rms_low,
                      low.cached_potential, low.stats, low.gradient_evals)
    high = SolverState(theta_high, high.rng, high.batch_spec, bstate_high, high.p, rms_high,
                       high.cached_potential, high.stats, high.gradient_evals)
    stats = AcceptanceStats(pair.stats.proposals + 1,
                            pair.stats.accepts + (1 if accept else 0),
                            math.exp(min(exponent, 0.0)), exponent)
    return TemperingPair(low, high, nv, pair.rng, stats)


def resgld_step(block: Tempering, bound: Binding, pair: TemperingPair,
                item: ScheduleItem) -> TemperingPair:
    """Advance both chains one step of ``block.move``; swap every ``swap_interval`` steps."""
    hot_item = ScheduleItem(item.step_size * block.hot_step_factor, block.tau_high,
                            item.burn_in, item.keep)
    pair = TemperingPair(block.move.step(bound, pair.low, item),
                         block.move.step(bound, pair.high, hot_item),
                         pair.noise_var, pair.rng, pair.stats)
    if pair.low.stats.proposals % block.swap_interval == 0:
        pair = resgld_swap(block, bound, pair, item.temperature)
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
                for p in inspect.signature(make, eval_str=True).parameters.values()}
         for name, make in SAMPLERS.items()}


@dataclass(frozen=True)
class Solver:
    """A sampler block bound to a density and its data."""

    name: str
    binding: Binding
    block: AcceptAll | Metropolis | Tempering

    def init(self, theta0: ParameterVector, key: RandomKey):
        return self.block.init(self.binding, theta0, key)

    def step(self, state, item: ScheduleItem):
        return self.block.step(self.binding, state, item)


def make_solver(name: str, density: LogDensityModel, dataset: Dataset, batch_size: int,
                batch_strategy: str = "draw_replacement", **knobs) -> Solver:
    """Bind sampler ``name`` to a model and a dataset.

    ``knobs`` are knobs of the sampler (:data:`KNOBS`); an omitted (or None)
    knob takes its default, and a required one raises ConfigurationError.
    Given values are converted to the type of the default.
    """
    if name not in SAMPLERS:
        raise ConfigurationError(f"unknown sampler {name!r}", field="sampler")
    table = KNOBS[name]
    for knob in knobs:
        if knob not in table:
            raise ConfigurationError(f"sampler {name!r} has no such knob", field=knob)
    values = {}
    for knob, default in table.items():
        kind = default if isinstance(default, type) else type(default)
        value = knobs.get(knob)
        if value is None:
            if isinstance(default, type):
                raise ConfigurationError(f"sampler {name!r} requires a value", field=knob)
            value = default
        values[knob] = kind(value)
    return Solver(name, Binding(density, dataset, batch_size, batch_strategy),
                  SAMPLERS[name](**values))


# ---------------------------------------------------------------------------
# Chain driver

def _check_schedule(block, scheduler: SchedulerState):
    """Adaptive step sizes need a Metropolis block; AMAGOLD's half-step friction beta,
    at a static schedule's largest step or an adaptive one's first, must be below 1."""
    _require(not scheduler.is_adaptive or isinstance(block, Metropolis), "target_accept",
             "adaptive step sizes need a Metropolis sampler (no acceptance statistics)")
    if isinstance(block, AMAGOLD):
        eps = scheduler.adaptive.eps if scheduler.is_adaptive else scheduler.step_sizes.max()
        _require(0.5 * eps * block.friction < 1.0, "friction",
                 "half-step friction beta = step size * friction / 2 must be < 1")


def _chain_result(store, stats, runtime, gradient_evals, iterations, status="ok"):
    return {"status": status, "chain_id": store.chain_id, "sample_count": store.sample_count,
            "acceptance_rate": stats.rate, "runtime": runtime, "iterations": iterations,
            "gradient_evaluations": gradient_evals, "store": store}


def _run_chain(solver: Solver, scheduler: SchedulerState, init_theta: ParameterVector,
               chain_key: RandomKey, chain_id: int):
    state = solver.init(init_theta, chain_key)
    store = sample_io.SampleStore(solver.binding.density.layout, chain_id)
    step, bound = solver.block.step, solver.binding
    iterations = scheduler.n_iterations
    started = time.perf_counter()
    for t in range(iterations):
        item, scheduler = scheduler_next(scheduler, feedback=state.stats)
        try:
            state = step(bound, state, item)
        except ArithmeticError as exc:  # NumericError, or overflow in model code
            partial = _chain_result(store, state.stats, time.perf_counter() - started,
                                    state.gradient_evals, t, "failed")
            raise ChainError(str(exc), iteration=t, partial=partial) from exc
        if item.keep:
            sample_io.collect_sample(store, state.theta, t)
    return _chain_result(store, state.stats, time.perf_counter() - started,
                         state.gradient_evals, iterations)


def run_mcmc(solver: Solver, scheduler: SchedulerState, init_theta: ParameterVector, *,
             key: RandomKey, chains: int = 1) -> list[dict]:
    """Run ``chains`` independent chains of ``scheduler.n_iterations`` iterations in
    turn; returns one result per chain, its samples in ``result["store"]``.

    Chain c draws every stream from ``key.child(c)``, so each chain is a pure
    function of its key.  Each result's ``status`` is "ok" or "failed".  A
    failing chain does not stop the others: after the last chain, the first
    ChainError propagates with ``.partial`` holding the failing chain's
    collected samples and ``.results`` every chain's result.
    """
    if chains < 1:
        raise ConfigurationError("need at least one chain", field="chains")
    _check_schedule(solver.block, scheduler)
    results, failure = [], None
    for c in range(chains):
        try:
            results.append(_run_chain(solver, scheduler, init_theta, key.child(c), c))
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
    scheduler: SchedulerState
    init_theta: ParameterVector
    run_key: RandomKey

    def run(self, chains: int = 1) -> list[dict]:
        return run_mcmc(self.solver, self.scheduler, self.init_theta, key=self.run_key,
                        chains=chains)


def build_sampler(name: str, config: dict) -> SamplerBundle:
    """Assemble a ready-to-run sampler from a flat configuration mapping.

    Required for every sampler: model (BuiltinModel), dataset, iterations,
    batch_size, seed, and a step-size block (step_size_first/step_size_last/
    step_size_decay, or target_accept/step_size_init for adaptive runs).
    The sampler's knobs are read from the same mapping; :data:`KNOBS` says
    which are required.  A None value counts as unset and takes the default.
    """
    cfg = {k: v for k, v in config.items() if v is not None}

    def need(field_name):
        if field_name not in cfg:
            raise ConfigurationError(f"sampler {name!r} requires a value",
                                     field=field_name)
        return cfg[field_name]

    model: BuiltinModel = need("model")
    dataset: Dataset = need("dataset")
    iterations = int(need("iterations"))
    batch_size = int(need("batch_size"))
    seed = int(need("seed"))
    solver = make_solver(name, model.density, dataset, batch_size,
                         cfg.get("batch_strategy", "draw_replacement"),
                         **{knob: cfg.get(knob) for knob in KNOBS.get(name, ())})
    root = RandomKey(seed)
    burn_in = int(cfg.get("burn_in", 0))
    selections = cfg.get("selections")
    temperature = float(cfg.get("temperature", 1.0))

    adaptive = None
    step_sizes = None
    if cfg.get("target_accept") is not None:
        adaptive = DualAveragingState.init(
            float(cfg.get("step_size_init", 0.1)), float(cfg["target_accept"]))
    else:
        first = need("step_size_first")
        last = need("step_size_last")
        decay = float(cfg.get("step_size_decay", 0.33))
        step_sizes = polynomial_schedule(float(first), float(last), decay, iterations)

    if isinstance(solver.block, Metropolis) and temperature <= 0:
        raise ConfigurationError("Metropolis solvers need temperature > 0",
                                 field="temperature")
    if isinstance(solver.block, Tempering):
        _require(solver.block.tau_high > temperature, "tau_high",
                 "tempered chain needs tau_high above the temperature")

    scheduler = init_scheduler(
        iterations,
        step_size=step_sizes,
        adaptive=adaptive,
        burn_in=burn_in,
        selections=selections,
        temperature=temperature,
        key=root.child(1),
    )
    _check_schedule(solver.block, scheduler)
    init_theta = cfg.get("init_theta") or model.init
    return SamplerBundle(solver, scheduler, init_theta, root.child(2))
