import dataclasses
import math
import sys

import numpy as np
import pytest

from sgmc.adaption import RMSPropState, rmsprop_step
from sgmc.core import ParameterVector, RandomKey, make_layout, normal_flat
from sgmc.data import BatchSpec, init_batch_state, next_batch
from sgmc.diagnostics import effective_sample_size
from sgmc.errors import ChainError, ConfigurationError
from sgmc.integrator import langevin_step
from sgmc.models import get_model, surrogate_from_logdensity, synth_data_generate
from sgmc.potential import full_value, minibatch_value_grad
from sgmc.scheduler import DualAveragingState, init_scheduler, scheduler_next
from sgmc.solver import (_STREAM_BATCH, _STREAM_ITER, KNOBS, SAMPLER_NAMES, SAMPLERS,
                         SGHMC, Binding, SamplerBundle, Solver, Tempering, build_sampler,
                         make_solver, run_mcmc, swap_exponent)

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
    init = ParameterVector(layout, np.array([1.0]))
    return run_mcmc(solver, sched, init, key=RandomKey(4))[0]


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
        state0 = solver.init(model.init, chain_key)
        sched = init_scheduler(5, step_size=0.01)
        item, _ = scheduler_next(sched)
        state1 = solver.step(state0, item)

        spec = BatchSpec(8, "draw_replacement", chain_key.child(_STREAM_BATCH))
        batch, _ = next_batch(dataset, spec, init_batch_state(dataset, spec))
        _, grad = minibatch_value_grad(model.density, state0.theta, batch)
        _, precond = rmsprop_step(RMSPropState.init(1), grad)
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
            state = solver.init(model.init, RandomKey(1))
            sched = init_scheduler(10, step_size=0.3)
            for _ in range(10):
                item, sched = scheduler_next(sched)
                state = solver.step(state, item)
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
        state = solver.init(model.init, RandomKey(8))
        sched = init_scheduler(50, step_size=0.15)
        for _ in range(50):
            item, sched = scheduler_next(sched)
            state = solver.step(state, item)
            assert abs(state.stats.last_exponent + state.stats.last_delta_h) <= 1e-10

    def test_rejection_keeps_theta_flips_momentum(self):
        model = quadratic_model([30.0])  # steep: large steps reject often
        dataset = synth_data_generate(model, RandomKey(0), 1)
        solver = make_solver("amagold", model.density, dataset, 1, leapfrog_steps=5,
                             friction=0.0)
        chain_key = RandomKey(5)
        state = solver.init(model.init, chain_key)
        sched = init_scheduler(60, step_size=0.5)
        # replay the iteration stream: per round p0, then the trajectory's noise
        # (none without friction), then the accept uniform
        replay = chain_key.child(_STREAM_ITER).generator()
        saw_reject = False
        for _ in range(60):
            item, sched = scheduler_next(sched)
            before = state
            state = solver.step(state, item)
            p0 = normal_flat(replay, 1, 1.0)
            replay.random()
            assert state.stats.accepts <= state.stats.proposals
            assert 0.0 <= state.stats.last_alpha <= 1.0
            if state.stats.accepts == before.stats.accepts:  # rejected round
                saw_reject = True
                assert np.array_equal(state.theta, before.theta)
                assert state.cached_potential == before.cached_potential
                assert np.array_equal(state.p, -p0)
        assert saw_reject

    def test_accept_refreshes_cached_potential(self):
        model, dataset = std_normal_setup()
        solver = make_solver("amagold", model.density, dataset, 1, leapfrog_steps=3,
                             friction=0.0)
        state = solver.init(model.init, RandomKey(5))
        sched = init_scheduler(200, step_size=0.3)
        for _ in range(200):
            item, sched = scheduler_next(sched)
            state = solver.step(state, item)
            assert state.cached_potential == full_value(model.density, state.theta, dataset)
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

    def test_tau_high_must_exceed_one(self):
        model, dataset = std_normal_setup()
        with pytest.raises(ConfigurationError):
            make_solver("resgld", model.density, dataset, 1, tau_high=1.0)

    def test_replica_exchange_sghmc_from_public_blocks(self):
        # reSGHMC is not in SAMPLERS: tempering around an SGHMC move
        model, dataset = std_normal_setup()
        block = Tempering(SGHMC(friction=1.0), tau_high=3.0)
        solver = Solver("resghmc", Binding(model.density, dataset, 1), block)
        sched = init_scheduler(20000, step_size=0.1)
        result = run_mcmc(solver, sched, model.init, key=RandomKey(0))[0]
        x = result["store"].variables()["theta"].reshape(-1)
        ess = effective_sample_size(x)
        assert ess > 500
        # four standard errors: Var(mean) = 1/ESS, Var(sample variance) = 2/ESS
        assert abs(x.mean()) < 4.0 / math.sqrt(ess)
        assert abs(x.var() - 1.0) < 4.0 * math.sqrt(2.0 / ess)
        assert 0.0 < result["acceptance_rate"] < 1.0  # swaps both taken and refused


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
        sched = (init_scheduler(200, adaptive=DualAveragingState.init(0.1, 0.65), burn_in=100)
                 if adaptive else init_scheduler(200, step_size=0.1))
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

    def test_adaptive_rejected_for_accept_all(self):
        model, dataset = std_normal_setup()
        solver = make_solver("sgld", model.density, dataset, 1)
        from sgmc.scheduler import DualAveragingState
        sched = init_scheduler(10, adaptive=DualAveragingState.init(0.1))
        with pytest.raises(ConfigurationError):
            run_mcmc(solver, sched, model.init, key=RandomKey(1))

    def test_adaptive_amagold_reaches_target_acceptance(self):
        # dual averaging steers the rounds it adapts on, those before burn_in;
        # the averaged step size frozen after it is not steered to the target
        model, dataset = std_normal_setup()
        for seed in (11, 12, 13):
            bundle = build_sampler("amagold", dict(
                model=model, dataset=dataset, iterations=6000, burn_in=3000,
                batch_size=1, seed=seed, target_accept=0.65, step_size_init=0.05,
                leapfrog_steps=5, friction=0.0))
            state = bundle.solver.init(bundle.init_theta, bundle.run_key.child(0))
            sched = bundle.scheduler
            for _ in range(3000):
                item, sched = scheduler_next(sched, feedback=state.stats)
                assert item.burn_in
                state = bundle.solver.step(state, item)
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
        # required knobs given as strings take their type; the others their default
        model, dataset = std_normal_setup()
        required = [k for k, v in KNOB_TABLE[name].items() if isinstance(v, type)]
        solver = make_solver(name, model.density, dataset, 1, **{k: "4" for k in required})
        expected = {k: 4 if k in required else v for k, v in KNOB_TABLE[name].items()}
        assert solver.block == SAMPLERS[name](**expected)

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

    def test_psgld_bundle_runs(self):
        bundle = build_sampler("psgld", self.config())
        assert isinstance(bundle, SamplerBundle)
        result = bundle.run()[0]
        assert result["sample_count"] == 50

    def test_sgld_without_rmsprop_is_plain(self):
        bundle = build_sampler("sgld", self.config())
        assert bundle.solver.name == "sgld"
        state = bundle.solver.init(bundle.init_theta, RandomKey(0))
        assert state.rms is None

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
