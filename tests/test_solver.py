import dataclasses
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from sgmc import solver as solver_module
from sgmc.adaption import rmsprop_step
from sgmc.core import RandomKey, make_layout, normal_flat
from sgmc.data import BatchSpec, init_batch_state, next_batch
from sgmc.diagnostics import effective_sample_size
from sgmc.errors import ChainError, ConfigurationError, NumericError
from sgmc.integrator import langevin_step
from sgmc.models import get_model, surrogate_from_logdensity, synth_data_generate
from sgmc.potential import full_value, minibatch_value_grad
from sgmc.scheduler import Schedule, init_scheduler, scheduler_next
from sgmc.solver import (_STREAM_BATCH, _STREAM_ITER, AMAGOLD, KNOBS, SAMPLER_NAMES,
                         SAMPLERS, SGGMC, SGHMC, AcceptAll, Adaptive, Langevin, SamplerBundle,
                         Solver, Tempering, TemperingPair, build_sampler, make_solver,
                         resgld_swap, run_mcmc, swap_exponent)

from conftest import quadratic_model


def std_normal_setup():
    model = get_model("std_normal")
    dataset = synth_data_generate(model, RandomKey(0), 1)
    return model, dataset


def half_normal_run(name, kw, outside):
    """Metropolis run on a target whose log-density is ``outside`` below 0."""
    layout = make_layout({"theta": ()})
    model = surrogate_from_logdensity(
        "half_normal", layout,
        lambda flat: -0.5 * flat[0] ** 2 if flat[0] >= 0 else outside,
        lambda flat: -flat)
    dataset = synth_data_generate(model, RandomKey(0), 1)
    solver = make_solver(name, model.density, dataset, 1, **kw)
    sched = init_scheduler(200, step_size=0.5)
    return run_mcmc(solver, sched, np.array([1.0]), key=RandomKey(4))[0]


TRUNCATED = [("amagold", {"leapfrog_steps": 3, "friction": 0.0}),
             ("sggmc", {"obabo_steps": 3, "friction": 0.0})]


def run_solver(solver, model, n_iters, seed=5, step=0.2, burn_in=0, temperature=1.0):
    sched = init_scheduler(n_iters, step_size=step, burn_in=burn_in,
                           temperature=temperature)
    return run_mcmc(solver, sched, model.init, key=RandomKey(seed))[0]


class TestAcceptAll:
    def test_psgld_is_langevin_with_rmsprop_preconditioner(self):
        # white-box replay of one pSGLD step from the documented streams
        model = get_model("gaussian_mean")
        dataset = synth_data_generate(model, RandomKey(2), 30)
        solver = make_solver("psgld", model.density, dataset, 8)
        chain_key = RandomKey(77).child(0)
        state0 = solver.block.init(solver, model.init, chain_key)
        sched = init_scheduler(5, step_size=0.01)
        item = scheduler_next(sched, 0)
        state1 = solver.block.step(solver, state0, item)

        spec = BatchSpec(8, "draw_replacement", chain_key.child(_STREAM_BATCH))
        batch, _ = next_batch(dataset, spec, init_batch_state(dataset, spec))
        _, grad = minibatch_value_grad(model.density, state0.theta, batch)
        _, precond = rmsprop_step(np.zeros(1), grad, 0.99, 1e-5)
        expected = langevin_step(state0.theta, grad, 0.01, 1.0, precond,
                                 rng=chain_key.child(_STREAM_ITER).generator())
        assert np.array_equal(state1.theta, expected)

    def test_sgld_zero_gradient_zero_temperature_fixed_point(self):
        model = quadratic_model([0.0, 0.0])  # constant potential
        dataset = synth_data_generate(model, RandomKey(0), 1)
        solver = make_solver("sgld", model.density, dataset, 1)
        result = run_solver(solver, model, 20, temperature=0.0)
        assert np.allclose(result["store"].variables()["theta"], 0.0)

    def test_accept_all_rate_is_one(self):
        model, dataset = std_normal_setup()
        solver = make_solver("sgld", model.density, dataset, 1)
        result = run_solver(solver, model, 50, step=0.05)
        assert result["acceptance_rate"] == 1.0

    def test_sgld_conjugate_gaussian_moments(self):
        model = get_model("gaussian_mean")
        dataset = synth_data_generate(model, RandomKey(12), 100, {"mu": 1.0})
        post = model.analytic_posterior(dataset)
        solver = make_solver("sgld", model.density, dataset, 20)
        result = run_solver(solver, model, 30000, step=0.002, burn_in=2000)
        x = result["store"].variables()["mu"]
        assert abs(x.mean() - post["mean"]["mu"]) < 0.2 * post["std"]["mu"]
        assert abs(x.std() / post["std"]["mu"] - 1.0) < 0.2


class TestMetropolisRounds:
    def test_constant_potential_always_accepts(self):
        model = quadratic_model([0.0])
        dataset = synth_data_generate(model, RandomKey(0), 1)
        for name, kw in (("amagold", {"leapfrog_steps": 4, "friction": 0.0}),
                         ("sggmc", {"obabo_steps": 3, "friction": 0.0})):
            solver = make_solver(name, model.density, dataset, 1, **kw)
            state = solver.block.init(solver, model.init, RandomKey(1))
            sched = init_scheduler(10, step_size=0.3)
            for t in range(10):
                item = scheduler_next(sched, t)
                state = solver.block.step(solver, state, item)
                assert state.stats.last_alpha == 1.0
            assert state.stats.accepts == state.stats.proposals == 10

    @pytest.mark.parametrize("name,kw", [
        ("amagold", {"leapfrog_steps": 15, "friction": 0.0}),
        ("sggmc", {"obabo_steps": 7, "friction": 0.0}),
    ])
    def test_exponent_equals_minus_delta_h(self, name, kw):
        rng = RandomKey(3).generator()
        model = quadratic_model(rng.uniform(0.5, 2.0, 3), rng.uniform(-1, 1, 3))
        dataset = synth_data_generate(model, RandomKey(0), 1)
        solver = make_solver(name, model.density, dataset, 1, **kw)
        state = solver.block.init(solver, model.init, RandomKey(8))
        sched = init_scheduler(50, step_size=0.15)
        for t in range(50):
            item = scheduler_next(sched, t)
            state = solver.block.step(solver, state, item)
            assert abs(state.stats.last_exponent + state.stats.last_delta_h) <= 1e-10

    def test_rejection_keeps_theta_flips_momentum(self):
        model = quadratic_model([30.0])  # steep: large steps reject often
        dataset = synth_data_generate(model, RandomKey(0), 1)
        solver = make_solver("amagold", model.density, dataset, 1, leapfrog_steps=5,
                             friction=0.0)
        chain_key = RandomKey(5)
        state = solver.block.init(solver, model.init, chain_key)
        sched = init_scheduler(60, step_size=0.5)
        # replay the iteration stream: per round p0, then the trajectory's noise
        # (none without friction), then the accept uniform, and nothing else
        replay = chain_key.child(_STREAM_ITER).generator()
        saw_reject = False
        for t in range(60):
            item = scheduler_next(sched, t)
            before = state
            state = solver.block.step(solver, state, item)
            normal_flat(replay, 1, 1.0)
            replay.random()
            assert state.rng.bit_generator.state == replay.bit_generator.state
            assert state.stats.accepts <= state.stats.proposals
            assert 0.0 <= state.stats.last_alpha <= 1.0
            if state.stats.accepts == before.stats.accepts:  # rejected round
                saw_reject = True
                assert np.array_equal(state.theta, before.theta)
                assert state.aux == before.aux  # the cached exact potential
        assert saw_reject

    def test_accept_refreshes_cached_potential(self):
        model, dataset = std_normal_setup()
        solver = make_solver("amagold", model.density, dataset, 1, leapfrog_steps=3,
                             friction=0.0)
        state = solver.block.init(solver, model.init, RandomKey(5))
        sched = init_scheduler(200, step_size=0.3)
        for t in range(200):
            item = scheduler_next(sched, t)
            state = solver.block.step(solver, state, item)
            assert state.aux == full_value(model.density, state.theta, dataset)
        assert 0.5 < state.stats.rate <= 1.0

    def test_metropolis_needs_positive_temperature(self):
        model, dataset = std_normal_setup()
        solver = make_solver("amagold", model.density, dataset, 1, leapfrog_steps=2)
        with pytest.raises(ValueError):
            run_solver(solver, model, 5, temperature=0.0)

    def test_amagold_half_step_friction_below_one(self):
        model, dataset = std_normal_setup()
        solver = make_solver("amagold", model.density, dataset, 1, leapfrog_steps=2,
                             friction=10.0)
        with pytest.raises(ValueError, match="beta"):
            run_solver(solver, model, 5, step=0.2)  # beta = 0.2 * 10 / 2 = 1

    def test_amagold_with_friction_and_noise_runs(self):
        model, dataset = std_normal_setup()
        solver = make_solver("amagold", model.density, dataset, 1, leapfrog_steps=5,
                             friction=0.5)
        result = run_solver(solver, model, 300, step=0.2)
        x = result["store"].variables()["theta"]
        assert np.all(np.isfinite(x))
        assert 0.0 < result["acceptance_rate"] <= 1.0

    @pytest.mark.parametrize("name,kw", TRUNCATED)
    def test_infinite_potential_is_a_rejection(self, name, kw):
        result = half_normal_run(name, kw, -math.inf)
        x = result["store"].variables()["theta"]
        assert x.shape[0] == 200 and np.all(x >= 0.0)
        assert 0.0 < result["acceptance_rate"] < 1.0

    @pytest.mark.parametrize("name,kw", TRUNCATED)
    @pytest.mark.parametrize("outside", [math.nan, math.inf])
    def test_nan_or_plus_inf_exponent_fails_the_chain(self, name, kw, outside):
        with pytest.raises(ChainError, match="non-finite acceptance exponent"):
            half_normal_run(name, kw, outside)

    def test_detailed_balance_three_state(self):
        # empirical reversibility of the amortized-MH chain on a 1D Gaussian
        model, dataset = std_normal_setup()
        solver = make_solver("sggmc", model.density, dataset, 1, obabo_steps=2,
                             friction=0.0)
        sched = init_scheduler(100000, step_size=0.9)
        result = run_mcmc(solver, sched, model.init, key=RandomKey(31))[0]
        x = result["store"].variables()["theta"]
        bins = np.digitize(x, [-0.5, 0.5])
        counts = np.zeros((3, 3))
        np.add.at(counts, (bins[:-1], bins[1:]), 1)
        for i in range(3):
            for j in range(i + 1, 3):
                nij, nji = counts[i, j], counts[j, i]
                assert abs(nij - nji) < 3.0 * math.sqrt(nij + nji)


class TestReplicaExchange:
    def test_swap_exponent_direct_value(self):
        assert swap_exponent(1.0, 10.0, 5.0, 3.0) == pytest.approx(1.8)

    def test_swap_exponent_antisymmetry(self):
        s = swap_exponent(1.0, 10.0, 5.0, 3.0)
        assert swap_exponent(1.0, 10.0, 3.0, 5.0) == pytest.approx(-s)

    def test_equal_potentials_swap_certainly(self):
        assert swap_exponent(1.0, 10.0, 4.0, 4.0) == 0.0
        assert math.exp(0.0) == 1.0  # boundary of min(1, e^S)

    def test_noise_correction_lowers_exponent(self):
        base = swap_exponent(1.0, 10.0, 5.0, 3.0, noise_var=0.0)
        corrected = swap_exponent(1.0, 10.0, 5.0, 3.0, noise_var=2.0, correction=1.0)
        assert corrected == pytest.approx(base - 0.9**2 * 2.0)

    def test_swaps_happen_and_are_counted(self):
        model = get_model("mixture_1d", width=0.7)
        dataset = synth_data_generate(model, RandomKey(0), 1)
        solver = make_solver("resgld", model.density, dataset, 1, tau_high=10.0,
                             swap_interval=10, hot_step_factor=50.0)
        sched = init_scheduler(500, step_size=3e-4)
        result = run_mcmc(solver, sched, model.init, key=RandomKey(2))[0]
        assert result["sample_count"] == 500
        # 500 steps / interval 10 -> 50 attempts recorded in acceptance stats
        assert 0.0 <= result["acceptance_rate"] <= 1.0

    def test_tau_high_must_exceed_the_temperature(self):
        model, dataset = std_normal_setup()
        solver = make_solver("resgld", model.density, dataset, 1, tau_high=1.0)
        with pytest.raises(ConfigurationError) as err:
            run_mcmc(solver, init_scheduler(20, step_size=0.1, temperature=1.0), model.init,
                     key=RandomKey(0))
        assert err.value.field == "tau_high"

    def test_tau_high_below_one_runs_above_the_temperature(self):
        model, dataset = std_normal_setup()
        solver = make_solver("resgld", model.density, dataset, 1, tau_high=0.9)
        result = run_mcmc(solver, init_scheduler(20, step_size=0.1, temperature=0.5),
                          model.init, key=RandomKey(0))[0]
        assert result["status"] == "ok" and result["sample_count"] == 20

    def swap_with_uniform(self, u):
        """One reSGLD swap attempt whose swap stream draws the uniform ``u``."""
        model, dataset = std_normal_setup()
        block = Tempering(Langevin(rms_prop=True), tau_high=3.0)
        solver = Solver(block, model.density, dataset, 1)
        pair = block.init(solver, model.init, RandomKey(0))
        pair.high.theta, pair.high.aux = np.array([2.0]), np.array([0.5])  # RMSProp moments
        pair = TemperingPair(pair.low, pair.high, pair.noise_var,
                             SimpleNamespace(random=lambda: u))
        return pair, resgld_swap(block, solver, pair, 1.0)

    def test_rejected_swap_keeps_both_states(self):
        pair, out = self.swap_with_uniform(math.inf)  # log u = inf: no exponent beats it
        assert out.stats.proposals == 1 and out.stats.accepts == 0
        assert out.low is pair.low and out.high is pair.high

    def test_accepted_swap_exchanges_positions_not_streams(self):
        # log u = -691, far below this pair's exponent of about -4/3
        pair, out = self.swap_with_uniform(1e-300)
        assert out.stats.accepts == 1
        for new, old, other in ((out.low, pair.low, pair.high),
                                (out.high, pair.high, pair.low)):
            assert np.array_equal(new.theta, other.theta) and new.aux is other.aux
            assert new.batch_state is old.batch_state and new.rng is old.rng

    def test_replica_exchange_sghmc_from_public_blocks(self):
        # reSGHMC is not in SAMPLERS: tempering around an SGHMC move
        model, dataset = std_normal_setup()
        block = Tempering(SGHMC(friction=1.0), tau_high=3.0)
        solver = Solver(block, model.density, dataset, 1)
        sched = init_scheduler(20000, step_size=0.1)
        result = run_mcmc(solver, sched, model.init, key=RandomKey(0))[0]
        x = result["store"].variables()["theta"].reshape(-1)
        ess = effective_sample_size(x)
        assert ess > 500
        # four standard errors: Var(mean) = 1/ESS, Var(sample variance) = 2/ESS
        assert abs(x.mean()) < 4.0 / math.sqrt(ess)
        assert abs(x.var() - 1.0) < 4.0 * math.sqrt(2.0 / ess)
        assert 0.0 < result["acceptance_rate"] < 1.0  # swaps both taken and refused


@dataclasses.dataclass(frozen=True)
class SGNHT(AcceptAll):
    """Stochastic-gradient Nose-Hoover thermostat (Ding et al., NeurIPS 2014), built
    from public pieces only.  Its aux is the momentum p and the thermostat xi, which
    stay with their chain in a replica swap (``follows_theta`` is left unset)."""

    diffusion: float = 1.0  # A: the injected noise, and the thermostat's start

    def start(self, solver, theta):
        return np.zeros(len(theta)), self.diffusion

    def integrate(self, state, grad, item):
        (p, xi), h, tau = state.aux, item.step_size, item.temperature
        p = (p - h * xi * p - h * grad
             + normal_flat(state.rng, len(p), math.sqrt(2.0 * self.diffusion * h * tau)))
        return state.theta + h * p, (p, xi + h * (p @ p / len(p) - tau))

    def check(self, scheduler):
        super().check(scheduler)
        if not scheduler.temperature > 0:  # the thermostat steers p.p / d to it
            raise ConfigurationError("SGNHT needs temperature > 0", field="temperature")


class TestCustomBlock:
    """A sampler that sgmc does not ship runs through the public chain driver."""

    @staticmethod
    def run(block, temperature=1.0):
        model = get_model("std_normal", dim=3)
        solver = Solver(block, model.density, synth_data_generate(model, RandomKey(0), 1), 1)
        sched = init_scheduler(20000, step_size=0.2, burn_in=2000, temperature=temperature)
        return run_mcmc(solver, sched, model.init, key=RandomKey(0))[0]

    def test_sgnht_recovers_std_normal(self):
        # criterion 1's tolerances, per coordinate: |mean|/sd <= 0.1, sd within 15%
        x = self.run(SGNHT())["store"].variables()["theta"]
        assert x.shape == (18000, 3)
        assert np.all(np.abs(x.mean(axis=0)) <= 0.1)
        assert np.all(np.abs(x.std(axis=0) - 1.0) <= 0.15)

    def test_sgnht_check_refuses_zero_temperature(self):
        with pytest.raises(ConfigurationError) as err:
            self.run(SGNHT(), temperature=0.0)
        assert err.value.field == "temperature"

    def test_sgnht_runs_under_tempering(self):
        result = self.run(Tempering(SGNHT(), tau_high=3.0, swap_interval=10))
        x = result["store"].variables()["theta"]
        assert result["status"] == "ok" and np.all(np.isfinite(x))
        assert 0.0 < result["acceptance_rate"] < 1.0  # swaps both taken and refused
        assert np.all(np.abs(x.std(axis=0) - 1.0) <= 0.15)  # the cold chain keeps the target


class TestGradientOnlySteps:
    @staticmethod
    def count_value_calls(name, kw, iterations=40):
        """Mini-batch log-likelihood, full-data log-likelihood and log-prior calls of a run."""
        model = get_model("gaussian_mean")
        dataset = synth_data_generate(model, RandomKey(1), 20)
        density, calls = model.density, {"batch": 0, "full": 0, "prior": 0}

        def log_likelihood(flat, arrays):
            calls["full" if len(arrays["y"]) == dataset.size else "batch"] += 1
            return density.batch_log_likelihood(flat, arrays)

        def log_prior(flat):
            calls["prior"] += 1
            return density.log_prior(flat)

        counting = dataclasses.replace(density, batch_log_likelihood=log_likelihood,
                                       log_prior=log_prior)
        solver = make_solver(name, counting, dataset, 4, **kw)
        run_mcmc(solver, init_scheduler(iterations, step_size=0.01), model.init,
                 key=RandomKey(3))
        return calls

    @pytest.mark.parametrize("name,kw,full", [
        ("sgld", {}, 0),
        ("sghmc", {"friction": 1.0}, 0),
        # the exact potential at the start and once per round
        ("amagold", {"leapfrog_steps": 3, "friction": 0.1}, 41)])
    def test_steps_evaluate_no_minibatch_value(self, name, kw, full):
        assert self.count_value_calls(name, kw) == {"batch": 0, "full": full, "prior": full}

    def test_resgld_evaluates_four_minibatch_values_per_swap_attempt(self):
        calls = self.count_value_calls("resgld", {"tau_high": 3.0, "swap_interval": 5})
        assert calls == {"batch": 4 * 8, "full": 0, "prior": 4 * 8}  # 40 steps / 5


class TestWithoutLikelihood:
    @pytest.mark.parametrize("name, kw", [
        ("sgld", {}), ("sghmc", {"friction": 1.0}), ("amagold", {"leapfrog_steps": 3}),
        ("sggmc", {"obabo_steps": 2}), ("resgld", {"tau_high": 3.0, "swap_interval": 4})])
    def test_a_chain_leaves_its_batch_stream_undrawn(self, name, kw):
        model = get_model("std_normal", dim=2)
        dataset = synth_data_generate(model, RandomKey(0), 5)
        solver = make_solver(name, model.density, dataset, 2, **kw)
        state = solver.block.init(solver, model.init, RandomKey(8))
        sched = init_scheduler(30, step_size=0.1)
        for t in range(30):
            state = solver.block.step(solver, state, scheduler_next(sched, t))
        if isinstance(state, TemperingPair):
            assert state.stats.proposals > 0  # its swaps evaluate U~ too
        chains = (state.low, state.high) if isinstance(state, TemperingPair) else (state,)
        for chain in chains:  # each stream is as fresh as the key that builds it
            fresh = chain.batch_spec.key.generator().bit_generator.state
            assert chain.batch_state.rng.bit_generator.state == fresh
            assert chain.batch_state.position == 0 and chain.batch_state.perm is None


class TestRunMCMC:
    # generators per chain: batch and iteration streams per state, and for
    # replica exchange two states plus the swap stream
    @pytest.mark.parametrize("name,kw,built", [
        ("sgld", {}, 2),
        ("amagold", {"leapfrog_steps": 3, "friction": 0.5}, 2),
        ("resgld", {"tau_high": 3.0, "swap_interval": 5}, 5)])
    def test_streams_are_built_once_per_chain(self, monkeypatch, name, kw, built):
        model, dataset = std_normal_setup()
        solver = make_solver(name, model.density, dataset, 1, **kw)
        calls = []
        generator = RandomKey.generator

        def counting(key):
            calls.append(key)
            return generator(key)

        monkeypatch.setattr(RandomKey, "generator", counting)
        counts = []
        for n in (10, 1000):
            calls.clear()
            run_mcmc(solver, init_scheduler(n, step_size=0.1), model.init,
                     key=RandomKey(3), chains=2)
            counts.append(len(calls))
        assert counts == [2 * built, 2 * built]

    @pytest.mark.parametrize("name,kw,adaptive", [
        ("sgld", {}, False),
        ("sghmc", {"friction": 1.0}, False),
        ("amagold", {"leapfrog_steps": 3, "friction": 0.1}, True),
        ("resgld", {"tau_high": 3.0, "swap_interval": 5}, False)])
    def test_loop_builds_no_record_with_replace(self, monkeypatch, name, kw, adaptive):
        model, dataset = std_normal_setup()
        solver = make_solver(name, model.density, dataset, 1, **kw)
        if adaptive:
            solver = Solver(Adaptive(solver.block, 0.65, 0.1), model.density, dataset, 1)
        calls = []
        replace = dataclasses.replace

        def counting(obj, **changes):
            calls.append(type(obj).__name__)
            return replace(obj, **changes)

        # patch every name the package could call it by
        monkeypatch.setattr(dataclasses, "replace", counting)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("sgmc") and getattr(module, "replace", None) is replace:
                monkeypatch.setattr(module, "replace", counting)
        sched = init_scheduler(200, step_size=0.1, burn_in=100 if adaptive else 0)
        results = run_mcmc(solver, sched, model.init, key=RandomKey(3), chains=2)
        assert [r["status"] for r in results] == ["ok", "ok"]
        assert calls == []

    def test_sample_count_from_plan(self):
        model, dataset = std_normal_setup()
        solver = make_solver("sgld", model.density, dataset, 1)
        sched = init_scheduler(100, step_size=0.05, burn_in=20, selections=30,
                               key=RandomKey(3))
        result = run_mcmc(solver, sched, model.init, key=RandomKey(4))[0]
        assert result["sample_count"] == 30

    def test_all_burn_in_collects_nothing(self):
        model, dataset = std_normal_setup()
        solver = make_solver("sgld", model.density, dataset, 1)
        sched = init_scheduler(1, step_size=0.05, burn_in=1)
        result = run_mcmc(solver, sched, model.init, key=RandomKey(4))[0]
        assert result["sample_count"] == 0

    def test_same_seed_bit_identical(self):
        model, dataset = std_normal_setup()
        solver = make_solver("sgld", model.density, dataset, 1)

        def go():
            sched = init_scheduler(200, step_size=0.05, burn_in=10)
            return run_mcmc(solver, sched, model.init, key=RandomKey(9), chains=2)

        a, again = go(), go()
        for ra, rb in zip(a, again):
            assert np.array_equal(ra["store"].stacked(), rb["store"].stacked())

    def test_chains_differ_from_each_other(self):
        model, dataset = std_normal_setup()
        solver = make_solver("sgld", model.density, dataset, 1)
        sched = init_scheduler(50, step_size=0.05)
        res = run_mcmc(solver, sched, model.init, key=RandomKey(9), chains=2)
        assert not np.array_equal(res[0]["store"].stacked(), res[1]["store"].stacked())

    @pytest.mark.parametrize("chains", [2.0, "2", True, 0])
    def test_chains_of_the_wrong_type_names_the_field(self, chains):
        model, dataset = std_normal_setup()
        solver = make_solver("sgld", model.density, dataset, 1)
        with pytest.raises(ConfigurationError) as err:
            run_mcmc(solver, init_scheduler(5, step_size=0.1), model.init, key=RandomKey(1),
                     chains=chains)
        assert err.value.field == "chains"

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_failure_carries_iteration_and_partial(self):
        model = quadratic_model([1.0])
        dataset = synth_data_generate(model, RandomKey(0), 1)
        solver = make_solver("sgld", model.density, dataset, 1)
        sched = init_scheduler(500, step_size=1e160)  # guaranteed blow-up
        with pytest.raises(ChainError) as err:
            run_mcmc(solver, sched, model.init, key=RandomKey(5))
        assert err.value.iteration is not None
        assert err.value.partial is not None
        assert err.value.partial["sample_count"] >= 0
        assert err.value.results == [err.value.partial]

    def test_failed_chain_keeps_exactly_the_rows_kept_before_it_failed(self):
        @dataclasses.dataclass(frozen=True)
        class FailsAt(AcceptAll):  # moves theta by +1 per step; fails at step ``at``
            at: int

            def start(self, solver, theta):
                return None

            def integrate(self, state, grad, item):
                if state.stats.proposals == self.at:
                    raise NumericError("planned failure")
                return state.theta + 1.0, None

        model = get_model("std_normal", dim=2)
        dataset = synth_data_generate(model, RandomKey(0), 1)
        solver = Solver(FailsAt(25), model.density, dataset, 1)
        sched = init_scheduler(40, step_size=0.1, burn_in=5, selections=15, key=RandomKey(2))
        with pytest.raises(ChainError) as err:
            run_mcmc(solver, sched, model.init, key=RandomKey(5))
        assert err.value.iteration == 25
        store = err.value.partial["store"]
        kept = np.flatnonzero(sched.keep[:25])
        assert 0 < len(kept) < 15 and err.value.partial["sample_count"] == len(kept)
        assert np.array_equal(store.iterations(), kept)
        assert store.stacked().shape == (len(kept), 2)
        assert np.array_equal(store.stacked(), np.repeat(kept[:, None] + 1.0, 2, axis=1))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("name, kw", [("sghmc", {"friction": 1.0}),
                                          ("sggmc", {"obabo_steps": 1})])
    def test_diverging_integrator_fails_the_chains_keeping_their_rows(self, name, kw):
        # the step size jumps to 1e160 at iteration 20, whose step overflows the position
        model = quadratic_model([1.0])
        dataset = synth_data_generate(model, RandomKey(0), 1)
        solver = make_solver(name, model.density, dataset, 1, **kw)
        sched = init_scheduler(40, step_size=lambda t: np.where(t < 20, 0.1, 1e160),
                               burn_in=5)
        with pytest.raises(ChainError) as err:
            run_mcmc(solver, sched, model.init, key=RandomKey(5), chains=2)
        failed = err.value.results
        assert [(r["status"], r["iterations"]) for r in failed] == [("failed", 20)] * 2
        # the same chains stopped just before the jump keep the same rows
        head = Schedule(sched.step_sizes[:20], sched.keep[:20], 5, sched.temperature)
        for result, ok in zip(failed, run_mcmc(solver, head, model.init, key=RandomKey(5),
                                               chains=2)):
            assert result["sample_count"] == ok["sample_count"] == 15
            assert np.array_equal(result["store"].iterations(), ok["store"].iterations())
            assert np.array_equal(result["store"].stacked(), ok["store"].stacked())

    def test_adaptive_rejected_for_accept_all(self):
        with pytest.raises(ConfigurationError) as err:
            Adaptive(Langevin(), 0.65, 0.1)
        assert err.value.field == "target_accept"

    @pytest.mark.parametrize("block", [AMAGOLD(leapfrog_steps=2), SGGMC(obabo_steps=2)])
    def test_metropolis_at_zero_temperature_fails_before_any_chain(self, monkeypatch, block):
        model, dataset = std_normal_setup()
        solver = Solver(block, model.density, dataset, 1)
        chains = []
        monkeypatch.setattr(solver_module, "_run_chain", lambda *args: chains.append(args))
        with pytest.raises(ConfigurationError) as err:
            run_mcmc(solver, init_scheduler(5, step_size=0.1, temperature=0.0), model.init,
                     key=RandomKey(1), chains=2)
        assert err.value.field == "temperature"
        assert chains == []

    @pytest.mark.parametrize("path", ["run_mcmc", "build_sampler"])
    @pytest.mark.parametrize("init", [np.zeros(2), np.zeros((1, 1))],
                             ids=["length-2", "shape-1x1"])
    def test_wrong_shape_init_theta_fails_before_any_chain(self, monkeypatch, path, init):
        model, dataset = std_normal_setup()  # dim 1
        chains = []
        monkeypatch.setattr(solver_module, "_run_chain", lambda *args: chains.append(args))
        with pytest.raises(ConfigurationError) as err:
            if path == "run_mcmc":
                run_mcmc(make_solver("sgld", model.density, dataset, 1),
                         init_scheduler(5, step_size=0.1), init, key=RandomKey(1), chains=2)
            else:
                build_sampler("sgld", dict(
                    model=model, dataset=dataset, iterations=5, batch_size=1, seed=1,
                    step_size_first=0.1, step_size_last=0.05, init_theta=init)).run(chains=2)
        assert err.value.field == "init_theta"
        assert chains == []

    def test_tempered_chain_below_the_temperature_names_tau_high(self):
        model, dataset = std_normal_setup()
        solver = Solver(Tempering(Langevin(), tau_high=2.0), model.density, dataset, 1)
        with pytest.raises(ConfigurationError) as err:
            run_mcmc(solver, init_scheduler(5, step_size=0.1, temperature=5.0), model.init,
                     key=RandomKey(1))
        assert err.value.field == "tau_high"

    def test_adaptive_amagold_reaches_target_acceptance(self):
        # dual averaging steers the rounds it adapts on, those before burn_in;
        # the averaged step size frozen after it is not steered to the target
        model, dataset = std_normal_setup()
        for seed in (11, 12, 13):
            bundle = build_sampler("amagold", dict(
                model=model, dataset=dataset, iterations=6000, burn_in=3000,
                batch_size=1, seed=seed, target_accept=0.65, step_size_init=0.05,
                leapfrog_steps=5, friction=0.0))
            state = bundle.solver.block.init(bundle.solver, bundle.init_theta,
                                             bundle.run_key.child(0))
            for t in range(3000):
                item = scheduler_next(bundle.schedule, t)
                assert item.burn_in
                state = bundle.solver.block.step(bundle.solver, state, item)
            assert abs(state.stats.rate - 0.65) < 0.02, seed


RMS = {"rms_alpha": 0.99, "rms_lam": 1e-5}
KNOB_TABLE = {  # a bare type marks a required knob
    "sgld": {"rms_prop": False, **RMS},
    "psgld": {"rms_prop": True, **RMS},
    "sghmc": {"friction": float, "noise_estimate": 0.0},
    "amagold": {"leapfrog_steps": int, "friction": 0.1},
    "sggmc": {"obabo_steps": int, "friction": 0.0},
    "resgld": {"tau_high": float, "swap_interval": 50, "correction": 1.0,
               "hot_step_factor": 1.0, "rms_prop": False},
}


class TestSamplerTable:
    def test_one_entry_per_sampler(self):
        assert SAMPLER_NAMES == tuple(SAMPLERS) == (
            "sgld", "psgld", "sghmc", "amagold", "sggmc", "resgld")

    def test_missing_required_knob_is_named(self):
        model, dataset = std_normal_setup()
        with pytest.raises(ConfigurationError) as err:
            make_solver("amagold", model.density, dataset, 1)
        assert err.value.field == "leapfrog_steps"

    def test_unknown_knob_is_named(self):
        model, dataset = std_normal_setup()
        with pytest.raises(ConfigurationError) as err:
            make_solver("sgld", model.density, dataset, 1, leapfrog_steps=3)
        assert err.value.field == "leapfrog_steps"

    @pytest.mark.parametrize("name", sorted(KNOB_TABLE))
    def test_knob_table(self, name):
        assert KNOBS[name] == KNOB_TABLE[name]
        # required knobs take the given value (an int also for a float knob); the
        # others their default
        model, dataset = std_normal_setup()
        required = [k for k, v in KNOB_TABLE[name].items() if isinstance(v, type)]
        solver = make_solver(name, model.density, dataset, 1, **{k: 4 for k in required})
        expected = {k: 4 if k in required else v for k, v in KNOB_TABLE[name].items()}
        assert solver.block == SAMPLERS[name](**expected)

    def test_none_is_not_a_default(self):
        model, dataset = std_normal_setup()
        with pytest.raises(ConfigurationError) as err:
            make_solver("sghmc", model.density, dataset, 1, friction=1.0, noise_estimate=None)
        assert err.value.field == "noise_estimate"

    @pytest.mark.parametrize("batch_size", [0, 1.0])
    def test_bad_batch_size_names_the_field(self, batch_size):
        model, dataset = std_normal_setup()
        with pytest.raises(ConfigurationError) as err:
            Solver(Langevin(), model.density, dataset, batch_size)
        assert err.value.field == "batch_size"

    def test_knob_count(self):
        assert sum(len(table) for table in KNOBS.values()) == 17

    def test_resgld_has_no_temperature_knob(self):
        model, dataset = std_normal_setup()
        with pytest.raises(ConfigurationError) as err:
            make_solver("resgld", model.density, dataset, 1, tau_high=3.0, temperature=1.0)
        assert err.value.field == "temperature"


class TestBuildSampler:
    def config(self, **over):
        model, dataset = std_normal_setup()
        cfg = dict(model=model, dataset=dataset, iterations=50, batch_size=1,
                   seed=1, step_size_first=0.1, step_size_last=0.05)
        cfg.update(over)
        return cfg

    def test_unknown_sampler(self):
        with pytest.raises(ConfigurationError):
            build_sampler("nuts", self.config())

    def test_missing_field_is_named(self):
        with pytest.raises(ConfigurationError) as err:
            build_sampler("resgld", self.config())
        assert err.value.field == "tau_high"

    @pytest.mark.parametrize("key", ["fricton", "burnin", "selection"])
    def test_unknown_setting_is_named(self, key):
        # a misspelt key would leave its default in force; another sampler's knob
        # (tau_high, for sgld) is still accepted
        assert build_sampler("sgld", self.config(tau_high=3.0)).solver.block == Langevin()
        with pytest.raises(ConfigurationError) as err:
            build_sampler("amagold", self.config(leapfrog_steps=2, **{key: 5}))
        assert err.value.field == key

    def test_psgld_bundle_runs(self):
        bundle = build_sampler("psgld", self.config())
        assert isinstance(bundle, SamplerBundle)
        result = bundle.run()[0]
        assert result["sample_count"] == 50

    def test_sgld_without_rmsprop_is_plain(self):
        bundle = build_sampler("sgld", self.config())
        state = bundle.solver.block.init(bundle.solver, bundle.init_theta, RandomKey(0))
        assert state.aux is None

    def test_init_theta_is_used_as_given(self):
        # a length-5 array, whose truth value is ambiguous, must not be read with `or`
        model = get_model("linreg_sigma")
        init = np.array([0.5, -1.0, 2.0, 0.25, -0.7])
        bundle = build_sampler("sgld", self.config(
            model=model, dataset=synth_data_generate(model, RandomKey(0), 20), init_theta=init,
            step_size_first=1e-3, step_size_last=5e-4))
        state = bundle.solver.block.init(bundle.solver, bundle.init_theta, RandomKey(0))
        assert np.array_equal(state.theta, init) and state.theta is not init
        assert bundle.run()[0]["status"] == "ok"
        assert np.array_equal(init, [0.5, -1.0, 2.0, 0.25, -0.7])  # copied, never moved

    ADAPTIVE = dict(step_size_first=None, step_size_last=None, target_accept=0.65,
                    leapfrog_steps=2)

    @pytest.mark.parametrize("name, over, field", [
        # values are type-checked where they are owned, never converted
        ("sgld", {"iterations": 10.7}, "iterations"),
        ("sgld", {"iterations": "10"}, "iterations"),
        ("sgld", {"step_size_first": "0.01", "step_size_last": 0.001}, "step_size_first"),
        ("sgld", {"step_size_last": "0.05"}, "step_size_last"),
        ("sgld", {"step_size_decay": "0.33"}, "step_size_decay"),
        ("sgld", {"burn_in": 2.5}, "burn_in"),
        ("sgld", {"selections": 5.0}, "selections"),
        ("sgld", {"temperature": "1.0"}, "temperature"),
        ("sgld", {"batch_size": 1.0}, "batch_size"),
        ("sgld", {"seed": 1.5}, "seed"),
        ("amagold", {**ADAPTIVE, "step_size_init": "0.1"}, "step_size_init"),
        ("amagold", {**ADAPTIVE, "target_accept": "0.65"}, "target_accept"),
        # and range-checked there
        ("sgld", {"step_size_last": 0.0}, "step_size_last"),
        ("sgld", {"burn_in": 60}, "burn_in"),
        ("sgld", {"batch_size": None}, "batch_size"),
        ("sgld", {"seed": -1}, "seed")])
    def test_invalid_sampler_setting_names_the_field(self, name, over, field):
        with pytest.raises(ConfigurationError) as err:
            build_sampler(name, self.config(**over))
        assert err.value.field == field

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            build_sampler("sgld", self.config(iterations=0))

    def test_adaptive_sgld_rejected_at_build(self):
        cfg = self.config(step_size_first=None, step_size_last=None,
                          target_accept=0.6, step_size_init=0.1)
        with pytest.raises(ConfigurationError):
            build_sampler("sgld", cfg)

    def test_gradient_evaluations_reported(self):
        model, dataset = std_normal_setup()
        bundle = build_sampler("amagold", dict(
            model=model, dataset=dataset, iterations=10, batch_size=1, seed=2,
            step_size_first=0.2, step_size_last=0.1, leapfrog_steps=7))
        result = bundle.run()[0]
        assert result["gradient_evaluations"] == 70
        assert result["iterations"] == 10
