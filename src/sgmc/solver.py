"""Markov-chain transitions and the chain driver.

Accept-all solvers (SGLD, pSGLD, SGHMC) take one integrator step per
iteration.  The amortized Metropolis solvers (AMAGOLD, SGGMC) run a stochastic
multi-step trajectory per round, resample momenta at the start of every round,
and accept with exp((U(start) - U(end) + W) / tau) where the exact potential
is evaluated only at the endpoints (the start value is cached from the last
accept) and W is the trajectory's accumulated stochastic work.  On rejection
the position is kept and the round's initial momentum is flipped.

Replica exchange couples a tau=1 chain with a tempered one and proposes state
swaps at a fixed interval, with a variance correction for the mini-batch noise
of the potential estimate.

Each sampler is one entry of :data:`SAMPLERS`: its knobs with their defaults,
its transition and how its chains start.  :func:`make_solver` binds an entry
to a model and a dataset; :func:`build_sampler` adds the schedule from a flat
configuration mapping.

Per-chain randomness is split from the chain key into fixed streams:
child(0) batches, child(1).child(t) iteration t, child(2) extras.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import io as sample_io
from .adaption import (OnlineCovState, RMSPropState, rmsprop_step,
                       welford_finalize, welford_step)
from .core import ParameterVector, RandomKey, normal_flat
from .data import BatchSpec, BatchState, Dataset, init_batch_state, next_batch
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
_STREAM_EXTRA = 2


@dataclass(frozen=True)
class AcceptanceStats:
    proposals: int = 0
    accepts: int = 0
    last_alpha: Optional[float] = None
    last_exponent: Optional[float] = None
    last_delta_h: Optional[float] = None  # debug runs only

    @property
    def rate(self) -> float:
        return self.accepts / self.proposals if self.proposals else 0.0


@dataclass(frozen=True)
class SolverState:
    """Per-chain sampler state; value-semantic, replaced on every step."""

    theta: np.ndarray
    key: RandomKey
    batch_spec: BatchSpec
    batch_state: BatchState
    step_index: int = 0
    p: Optional[np.ndarray] = None
    rms: Optional[RMSPropState] = None
    cached_potential: Optional[float] = None
    stats: AcceptanceStats = AcceptanceStats()
    gradient_evals: int = 0


@dataclass(frozen=True)
class SamplerContext:
    """Static bindings shared by every step of one sampler.

    The knob fields are set from the sampler's table entry; knobs the
    sampler does not have keep the defaults below.
    """

    density: LogDensityModel
    dataset: Dataset
    batch_size: int
    batch_strategy: str = "draw_replacement"
    friction: Optional[float] = None        # C for sghmc/amagold, gamma for sggmc
    noise_estimate: Optional[float] = None  # sghmc B-hat
    leapfrog_steps: Optional[int] = None
    obabo_steps: Optional[int] = None
    debug: Optional[bool] = None
    rms_prop: Optional[bool] = None
    rms_alpha: float = 0.99  # also the values of reSGLD, which has no knobs for them
    rms_lam: float = 1e-5
    temperature: Optional[float] = None     # tau of the cold replica
    tau_high: Optional[float] = None        # tau of the tempered replica
    swap_interval: Optional[int] = None
    correction: Optional[float] = None      # F in the noise-corrected swap exponent
    hot_step_factor: Optional[float] = None  # step-size multiplier, tempered replica


def _init_state(ctx: SamplerContext, theta0: ParameterVector, key: RandomKey,
                momentum: bool = False, cache_potential: bool = False) -> SolverState:
    spec = BatchSpec(ctx.batch_size, ctx.batch_strategy, key.child(_STREAM_BATCH))
    flat = theta0.values.copy()
    dim = flat.shape[0]
    return SolverState(
        theta=flat,
        key=key,
        batch_spec=spec,
        batch_state=init_batch_state(ctx.dataset, spec),
        p=np.zeros(dim) if momentum else None,
        rms=RMSPropState.init(dim, ctx.rms_alpha, ctx.rms_lam) if ctx.rms_prop else None,
        cached_potential=(full_value(ctx.density, flat, ctx.dataset)
                          if cache_potential else None),
    )


# ---------------------------------------------------------------------------
# Accept-all solvers

def sgmc_update(ctx: SamplerContext, state: SolverState, item: ScheduleItem) -> SolverState:
    """One accept-all transition: SGHMC if the state carries momentum, else
    SGLD, preconditioned (pSGLD) if it carries an RMSProp estimate."""
    t = state.step_index
    it_key = state.key.child(_STREAM_ITER).child(t)
    batch, bstate = next_batch(ctx.dataset, state.batch_spec, state.batch_state)
    _, grad = minibatch_value_grad(ctx.density, state.theta, batch)
    rms = state.rms
    p = state.p
    if p is not None:
        theta, p = sghmc_step(state.theta, state.p, grad, item.step_size,
                              ctx.friction, ctx.noise_estimate, item.temperature,
                              key=it_key.child(0))
    else:
        precond = None
        if rms is not None:
            rms, precond = rmsprop_step(rms, grad)
        theta = langevin_step(state.theta, grad, item.step_size, item.temperature,
                              precond, key=it_key.child(0))
    stats = replace(state.stats, proposals=state.stats.proposals + 1,
                    accepts=state.stats.accepts + 1)
    return replace(state, theta=theta, p=p, rms=rms, batch_state=bstate,
                   step_index=t + 1, stats=stats,
                   gradient_evals=state.gradient_evals + 1)


# ---------------------------------------------------------------------------
# Amortized Metropolis solvers

def _check_cached(ctx: SamplerContext, state: SolverState):
    if not ctx.debug:
        return
    fresh = full_value(ctx.density, state.theta, ctx.dataset)
    if abs(fresh - state.cached_potential) > 1e-8 * max(1.0, abs(fresh)):
        raise AssertionError(
            f"cached potential {state.cached_potential} stale (fresh {fresh})"
        )


def _mh_round(ctx: SamplerContext, state: SolverState, item: ScheduleItem,
              trajectory) -> SolverState:
    tau = item.temperature
    if tau <= 0:
        raise ValueError("Metropolis solvers need temperature > 0")
    _check_cached(ctx, state)
    t = state.step_index
    it_key = state.key.child(_STREAM_ITER).child(t)
    dim = state.theta.shape[0]
    p0 = normal_flat(it_key.child(0), dim, math.sqrt(tau))

    box = [state.batch_state]  # the batch cursor, advanced by every gradient
    evals = [0]

    def grad_fn(flat):
        evals[0] += 1
        batch, box[0] = next_batch(ctx.dataset, state.batch_spec, box[0])
        return minibatch_value_grad(ctx.density, flat, batch)[1]

    theta_new, p_new, work = trajectory(state.theta, p0, grad_fn, it_key.child(1))

    u0 = state.cached_potential
    u_new = full_value(ctx.density, theta_new, ctx.dataset)
    exponent = (u0 - u_new + work) / tau
    # -inf (an endpoint outside the support) is a certain rejection
    if math.isnan(exponent) or exponent == math.inf:
        raise NumericError(f"non-finite acceptance exponent {exponent}")
    alpha = math.exp(min(exponent, 0.0))
    accept = math.log(it_key.child(2).generator().random()) < exponent

    delta_h = None
    if ctx.debug:
        k0 = 0.5 * float(p0 @ p0)
        k_new = 0.5 * float(p_new @ p_new)
        delta_h = (u_new + k_new - u0 - k0) / tau
    stats = AcceptanceStats(state.stats.proposals + 1,
                            state.stats.accepts + (1 if accept else 0),
                            alpha, exponent, delta_h)
    if accept:
        return replace(state, theta=theta_new, p=p_new, cached_potential=u_new,
                       batch_state=box[0], step_index=t + 1, stats=stats,
                       gradient_evals=state.gradient_evals + evals[0])
    return replace(state, p=-p0, batch_state=box[0], step_index=t + 1, stats=stats,
                   gradient_evals=state.gradient_evals + evals[0])


def amagold_round(ctx: SamplerContext, state: SolverState, item: ScheduleItem) -> SolverState:
    """Time-reversible noisy leapfrog round with amortized MH correction."""
    beta = 0.5 * item.step_size * ctx.friction
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"half-step friction beta={beta} outside [0, 1)")

    def trajectory(theta, p0, grad_fn, key):
        return reversible_leapfrog_trajectory(
            theta, p0, ctx.leapfrog_steps, item.step_size, beta, grad_fn,
            tau=item.temperature, key=key)

    return _mh_round(ctx, state, item, trajectory)


def sggmc_round(ctx: SamplerContext, state: SolverState, item: ScheduleItem) -> SolverState:
    """OBABO round: OU half-steps bracket the Metropolized BAB cores."""

    def trajectory(theta, p0, grad_fn, key):
        return obabo_trajectory(theta, p0, ctx.obabo_steps, item.step_size,
                                ctx.friction, grad_fn, tau=item.temperature, key=key)

    return _mh_round(ctx, state, item, trajectory)


# ---------------------------------------------------------------------------
# Replica exchange

@dataclass(frozen=True)
class TemperingPair:
    """A tau=1 chain coupled to a tempered one, swapping states periodically."""

    low: SolverState
    high: SolverState
    noise_var: OnlineCovState
    steps_since_swap: int = 0
    swap_attempts: int = 0
    stats: AcceptanceStats = AcceptanceStats()

    # chain-loop protocol: expose the cold chain
    @property
    def theta(self) -> np.ndarray:
        return self.low.theta

    @property
    def gradient_evals(self) -> int:
        return self.low.gradient_evals + self.high.gradient_evals


def swap_exponent(tau_low: float, tau_high: float, u_low: float, u_high: float,
                  noise_var: float = 0.0, correction: float = 1.0) -> float:
    """Log swap probability with the mini-batch noise correction."""
    dbeta = 1.0 / tau_low - 1.0 / tau_high
    return dbeta * (u_low - u_high - dbeta * noise_var / correction)


def _stochastic_u_pair(ctx: SamplerContext, state: SolverState):
    """Two independent fresh-batch potential estimates at the current position."""
    box = [state.batch_state, state.batch_spec]
    batch_a, box[0] = next_batch(ctx.dataset, box[1], box[0])
    u_a, _ = minibatch_value_grad(ctx.density, state.theta, batch_a)
    batch_b, box[0] = next_batch(ctx.dataset, box[1], box[0])
    u_b, _ = minibatch_value_grad(ctx.density, state.theta, batch_b)
    return u_a, u_b, box[0]


def resgld_swap(ctx: SamplerContext, pair: TemperingPair) -> TemperingPair:
    """Attempt one state swap between the two chains of the pair.

    The noise variance of the stochastic potential is estimated online from
    paired fresh-batch evaluations, Var(U~) ~= Var((U~_a - U~_b)/sqrt(2)),
    which isolates mini-batch noise from the drift of the chains.
    """
    u_low, u_low_b, bstate_low = _stochastic_u_pair(ctx, pair.low)
    u_high, u_high_b, bstate_high = _stochastic_u_pair(ctx, pair.high)
    nv = welford_step(pair.noise_var, (u_low - u_low_b) / math.sqrt(2.0))
    nv = welford_step(nv, (u_high - u_high_b) / math.sqrt(2.0))
    sigma2 = float(welford_finalize(nv)[1][0]) if nv.count >= 2 else 0.0
    exponent = swap_exponent(ctx.temperature, ctx.tau_high, u_low, u_high,
                             sigma2, ctx.correction)
    key = pair.low.key.child(_STREAM_EXTRA).child(pair.swap_attempts)
    accept = math.log(key.generator().random()) < exponent
    low = replace(pair.low, batch_state=bstate_low)
    high = replace(pair.high, batch_state=bstate_high)
    if accept:
        # exchange position and position-bound solver state; streams stay put
        low, high = (
            replace(low, theta=high.theta.copy(), rms=high.rms,
                    cached_potential=high.cached_potential),
            replace(high, theta=low.theta.copy(), rms=low.rms,
                    cached_potential=low.cached_potential),
        )
    stats = AcceptanceStats(pair.stats.proposals + 1,
                            pair.stats.accepts + (1 if accept else 0),
                            math.exp(min(exponent, 0.0)), exponent)
    return replace(pair, low=low, high=high, noise_var=nv, steps_since_swap=0,
                   swap_attempts=pair.swap_attempts + 1, stats=stats)


def resgld_step(ctx: SamplerContext, pair: TemperingPair, item: ScheduleItem) -> TemperingPair:
    """Advance both chains one SGLD step; swap every ``swap_interval`` steps."""
    if abs(item.temperature - ctx.temperature) > 1e-12:
        raise ValueError("replica exchange requires a constant temperature schedule")
    hot_item = replace(item,
                       temperature=item.temperature * ctx.tau_high / ctx.temperature,
                       step_size=item.step_size * ctx.hot_step_factor)
    pair = replace(pair,
                   low=sgmc_update(ctx, pair.low, item),
                   high=sgmc_update(ctx, pair.high, hot_item),
                   steps_since_swap=pair.steps_since_swap + 1)
    if pair.steps_since_swap >= ctx.swap_interval:
        pair = resgld_swap(ctx, pair)
    return pair


# ---------------------------------------------------------------------------
# The sampler table

@dataclass(frozen=True)
class SamplerSpec:
    """One sampler: its knobs, its transition and how its chains start.

    ``knobs`` maps each knob to its default; a bare type in place of the
    default marks a required knob.  Given values are converted to the type.
    """

    knobs: dict
    step: Callable            # (ctx, state, item) -> state
    metropolis: bool = False  # amortized MH rounds; caches the exact potential
    momentum: bool = False
    tempered: bool = False    # a replica pair instead of a single state


_RMS = {"rms_alpha": SamplerContext.rms_alpha, "rms_lam": SamplerContext.rms_lam}

# The steps look the transition functions up when called, so that wrappers
# set on these module attributes (tracing, profiling) see every call.
SAMPLERS = {
    "sgld": SamplerSpec({"rms_prop": False, **_RMS},
                        lambda ctx, s, item: sgmc_update(ctx, s, item)),
    "psgld": SamplerSpec({"rms_prop": True, **_RMS},
                         lambda ctx, s, item: sgmc_update(ctx, s, item)),
    "sghmc": SamplerSpec({"friction": float, "noise_estimate": 0.0},
                         lambda ctx, s, item: sgmc_update(ctx, s, item), momentum=True),
    "amagold": SamplerSpec({"leapfrog_steps": int, "friction": 0.1, "debug": False},
                           lambda ctx, s, item: amagold_round(ctx, s, item),
                           metropolis=True, momentum=True),
    "sggmc": SamplerSpec({"obabo_steps": int, "friction": 0.0, "debug": False},
                         lambda ctx, s, item: sggmc_round(ctx, s, item),
                         metropolis=True, momentum=True),
    "resgld": SamplerSpec({"tau_high": float, "swap_interval": 50, "correction": 1.0,
                           "hot_step_factor": 1.0, "temperature": 1.0, "rms_prop": False},
                          lambda ctx, s, item: resgld_step(ctx, s, item), tempered=True),
}
SAMPLER_NAMES = tuple(SAMPLERS)

# knob -> (validity test, message), applied wherever the knob appears
_KNOB_CHECKS = {
    "leapfrog_steps": (lambda v: v >= 1, "need at least one leapfrog step"),
    "obabo_steps": (lambda v: v >= 1, "need at least one OBABO step"),
    "tau_high": (lambda v: v > 1.0, "tempered chain needs tau_high > 1"),
    "swap_interval": (lambda v: v >= 1, "swap interval must be >= 1"),
    "correction": (lambda v: v > 0, "correction factor must be > 0"),
    "hot_step_factor": (lambda v: v > 0, "hot-chain step factor must be > 0"),
}


def _spec(name: str) -> SamplerSpec:
    if name not in SAMPLERS:
        raise ConfigurationError(f"unknown sampler {name!r}", field="sampler")
    return SAMPLERS[name]


@dataclass(frozen=True)
class Solver:
    """A table entry bound to a model and a dataset."""

    name: str
    context: SamplerContext
    spec: SamplerSpec

    def init(self, theta0: ParameterVector, key: RandomKey):
        ctx = self.context
        if self.spec.tempered:
            return TemperingPair(_init_state(ctx, theta0, key.child(0)),
                                 _init_state(ctx, theta0, key.child(1)),
                                 OnlineCovState.init(1))
        return _init_state(ctx, theta0, key, self.spec.momentum, self.spec.metropolis)

    def step(self, state, item: ScheduleItem):
        return self.spec.step(self.context, state, item)


def make_solver(name: str, density: LogDensityModel, dataset: Dataset, batch_size: int,
                batch_strategy: str = "draw_replacement", **knobs) -> Solver:
    """Bind sampler ``name`` to a model and a dataset.

    ``knobs`` are knobs of the sampler's table entry; an omitted (or None)
    knob takes its default, and a required one raises ConfigurationError.
    """
    spec = _spec(name)
    for knob in knobs:
        if knob not in spec.knobs:
            raise ConfigurationError(f"sampler {name!r} has no such knob", field=knob)
    values = {}
    for knob, default in spec.knobs.items():
        kind = default if isinstance(default, type) else type(default)
        value = knobs.get(knob)
        if value is None:
            if isinstance(default, type):
                raise ConfigurationError(f"sampler {name!r} requires a value", field=knob)
            value = default
        values[knob] = kind(value)
        valid, message = _KNOB_CHECKS.get(knob, (None, None))
        if valid is not None and not valid(values[knob]):
            raise ConfigurationError(message, field=knob)
    ctx = SamplerContext(density, dataset, batch_size, batch_strategy, **values)
    return Solver(name, ctx, spec)


# ---------------------------------------------------------------------------
# Chain driver

def _chain_result(store, stats, runtime, chain_id, gradient_evals, iterations,
                  status="ok"):
    mem = sample_io.finalize_results(store, "memory")
    mem.update({
        "status": status,
        "acceptance_rate": stats.rate,
        "runtime": runtime,
        "iterations": iterations,
        "gradient_evaluations": gradient_evals,
        "store": store,
    })
    return mem


def _run_chain(solver: Solver, scheduler: SchedulerState, init_theta: ParameterVector,
               iterations: int, chain_key: RandomKey, chain_id: int, metadata: dict,
               collector_factory=None):
    layout = solver.context.density.layout
    state = solver.init(init_theta, chain_key)
    sched = scheduler
    if collector_factory is None:
        store = sample_io.SampleStore(layout, chain_id, dict(metadata))
    else:
        store = collector_factory(chain_id, layout)
    started = time.perf_counter()
    for t in range(iterations):
        item, sched = scheduler_next(sched, feedback=state.stats)
        try:
            state = solver.step(state, item)
        except (NumericError, FloatingPointError) as exc:
            partial = _chain_result(store, state.stats, time.perf_counter() - started,
                                    chain_id, state.gradient_evals, t, "failed")
            raise ChainError(str(exc), iteration=t, partial=partial) from exc
        if item.keep:
            sample_io.collect_sample(store, ParameterVector(layout, state.theta.copy()), t)
    return _chain_result(store, state.stats, time.perf_counter() - started,
                         chain_id, state.gradient_evals, iterations)


def run_mcmc(solver: Solver, scheduler: SchedulerState, init_theta: ParameterVector,
             iterations: int, *, key: RandomKey, chains: int = 1,
             metadata: dict | None = None, collector_factory=None) -> list[dict]:
    """Run ``chains`` independent chains in turn; returns one result per chain.

    Chain c draws every stream from ``key.child(c)``, so each chain is a pure
    function of its key.  ``collector_factory`` (chain_id, layout) ->
    SampleStore swaps in a custom collector.  Each result's ``status`` is
    "ok" or "failed".  A failing chain does not stop the others: after the
    last chain, the first ChainError propagates with ``.partial`` holding the
    failing chain's collected samples and ``.results`` every chain's result.
    """
    if iterations < 1:
        raise ConfigurationError("need at least one iteration", field="iterations")
    if chains < 1:
        raise ConfigurationError("need at least one chain", field="chains")
    metadata = metadata or {}
    if scheduler.is_adaptive and not solver.spec.metropolis:
        raise ConfigurationError(
            "adaptive step sizes need a Metropolis solver (no acceptance statistics "
            f"exist for {solver.name})", field="step_size")
    results, failure = [], None
    for c in range(chains):
        try:
            results.append(_run_chain(solver, scheduler, init_theta, iterations,
                                      key.child(c), c, metadata, collector_factory))
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

    name: str
    solver: Solver
    scheduler: SchedulerState
    init_theta: ParameterVector
    run_key: RandomKey
    iterations: int
    config: dict

    def run(self, iterations: int | None = None, chains: int = 1,
            metadata: dict | None = None) -> list[dict]:
        return run_mcmc(self.solver, self.scheduler, self.init_theta,
                        iterations or self.iterations, key=self.run_key,
                        chains=chains, metadata=metadata)


def build_sampler(name: str, config: dict) -> SamplerBundle:
    """Assemble a ready-to-run sampler from a flat configuration mapping.

    Required for every sampler: model (BuiltinModel), dataset, iterations,
    batch_size, seed, and a step-size block (step_size_first/step_size_last/
    step_size_decay, or target_accept/step_size_init for adaptive runs).
    The sampler's knobs are read from the same mapping; its entry in
    :data:`SAMPLERS` says which are required.  A None value counts as unset
    and takes the default.
    """
    spec = _spec(name)
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
                         **{knob: cfg.get(knob) for knob in spec.knobs})
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1", field="iterations")

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

    if adaptive is not None and not spec.metropolis:
        raise ConfigurationError(
            f"adaptive step size is not available for accept-all sampler {name!r}",
            field="target_accept")
    if spec.metropolis and temperature <= 0:
        raise ConfigurationError("Metropolis solvers need temperature > 0",
                                 field="temperature")

    scheduler = init_scheduler(
        iterations,
        step_size=step_sizes,
        adaptive=adaptive,
        burn_in=burn_in,
        selections=selections,
        temperature=temperature,
        key=root.child(1),
    )
    init_theta = cfg.get("init_theta") or model.init
    return SamplerBundle(name, solver, scheduler, init_theta, root.child(2),
                         iterations, cfg)
