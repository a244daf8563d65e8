"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a PASS line with the measured quantities so a plain
``pytest tests/test_acceptance.py -s`` doubles as the acceptance report.
Runs are fully seeded; tolerances and budgets are fixed here, not tuned at
runtime.
"""

import math
import time

import numpy as np
import pytest

from sgmc.core import ParameterVector, RandomKey
from sgmc.data import BatchSpec, MiniBatch, init_batch_state, next_batch
from sgmc.diagnostics import effective_sample_size, weighted_moments
from sgmc.models import (builtin_names, get_model, rwmh_oracle,
                         synth_data_generate)
from sgmc.potential import fd_gradient, full_value, minibatch_value_grad
from sgmc.scheduler import (init_scheduler, polynomial_schedule,
                            random_thinning_plan, scheduler_next)
from sgmc.solver import build_sampler, make_solver, run_mcmc

from conftest import quadratic_model


def test_criterion_1_conjugate_recovery():
    budget = 30.0
    model = get_model("gaussian_mean")
    dataset = synth_data_generate(model, RandomKey(42).child(0), 200, {"mu": 0.5})
    post = model.analytic_posterior(dataset)
    mu_ref, sd_ref = post["mean"]["mu"], post["std"]["mu"]

    iterations, burn_in = 100000, 20000
    started = time.perf_counter()
    bundle = build_sampler("sgld", dict(
        model=model, dataset=dataset, iterations=iterations, burn_in=burn_in,
        batch_size=32, batch_strategy="shuffle_in_epochs", seed=42,
        step_size_first=0.01, step_size_last=0.0005, step_size_decay=0.33))
    result = bundle.run()[0]
    elapsed = time.perf_counter() - started

    schedule = polynomial_schedule(0.01, 0.0005, 0.33, iterations)
    weights = schedule(result["store"].iterations())
    mean, var = weighted_moments(result["store"].variables()["mu"], weights)
    mean_err = abs(mean - mu_ref) / sd_ref
    std_ratio = math.sqrt(var) / sd_ref

    assert mean_err <= 0.1
    assert abs(std_ratio - 1.0) <= 0.15
    assert elapsed < budget
    print(f"PASS criterion 1: conjugate recovery |dmean|/sd={mean_err:.3f} "
          f"(<=0.1), sd ratio={std_ratio:.3f} (within 15%), {elapsed:.1f}s < {budget}s")


def test_criterion_2_regression_vs_oracle():
    budget = 60.0
    started = time.perf_counter()
    model = get_model("linreg_sigma", n_weights=4)
    true = {"w": [0.5, -1.0, 2.0, 0.25], "sigma": 0.25, "x_scale": 2.0}
    dataset = synth_data_generate(model, RandomKey(7).child(0), 256, true)

    bundle = build_sampler("psgld", dict(
        model=model, dataset=dataset, iterations=10000, burn_in=2000,
        selections=1000, batch_size=128, batch_strategy="shuffle_in_epochs",
        seed=7, step_size_first=0.05, step_size_last=0.001, step_size_decay=0.33))
    results = bundle.run(chains=2)
    assert all(r["sample_count"] == 1000 for r in results)
    flat = np.concatenate([r["store"].stacked() for r in results], axis=0)
    mean_s, std_s = flat.mean(axis=0), flat.std(axis=0, ddof=1)

    # gradient-free reference: pilot pass tunes the proposal, long pass scores
    start = ParameterVector(model.layout, mean_s)
    pilot = rwmh_oracle(model, dataset, start, std_s * 2.4 / math.sqrt(5),
                        steps=40000, key=RandomKey(7).child(8))
    scale = pilot["samples"].std(axis=0, ddof=1) * 2.4 / math.sqrt(5)
    oracle = rwmh_oracle(model, dataset, start, scale, steps=300000,
                         key=RandomKey(7).child(9))
    om = oracle["samples"]
    mean_o, std_o = om.mean(axis=0), om.std(axis=0, ddof=1)

    weight_disc = np.abs(mean_s - mean_o)[:4] / std_o[:4]
    sigma_sampler = float(np.exp(flat[:, 4]).mean())
    sigma_oracle = float(np.exp(om[:, 4]).mean())
    sigma_rel = abs(sigma_sampler - sigma_oracle) / sigma_oracle
    elapsed = time.perf_counter() - started

    assert np.all(weight_disc <= 0.1)
    assert sigma_rel <= 0.15
    assert elapsed < budget
    print(f"PASS criterion 2: regression vs oracle, max weight disc "
          f"{weight_disc.max():.3f} (<=0.1), sigma mean rel {sigma_rel:.3f} "
          f"(<=0.15), {elapsed:.1f}s < {budget}s")


def test_criterion_3_hmc_reduction():
    budget = 60.0
    started = time.perf_counter()

    # (a) the acceptance exponent reproduces -dH on random quadratics
    rng = RandomKey(19).generator()
    worst = 0.0
    for name, kw, rounds in (
        ("amagold", {"leapfrog_steps": 15, "friction": 0.0}, 100),
        ("sggmc", {"obabo_steps": 9, "friction": 0.0}, 100),
    ):
        model = quadratic_model(rng.uniform(0.5, 2.5, 3), rng.uniform(-1, 1, 3))
        dataset = synth_data_generate(model, RandomKey(0), 1)
        solver = make_solver(name, model.density, dataset, 1, **kw)
        state = solver.init(model.init, RandomKey(23))
        sched = init_scheduler(rounds, step_size=0.12)
        for _ in range(rounds):
            item, sched = scheduler_next(sched)
            state = solver.step(state, item)
            worst = max(worst, abs(state.stats.last_exponent
                                   + state.stats.last_delta_h))
    assert worst <= 1e-10

    # (b) standard-normal moments over 2e4 Metropolis rounds
    model = get_model("std_normal")
    dataset = synth_data_generate(model, RandomKey(0), 1)
    stats = {}
    for name, kw, step in (
        ("amagold", {"leapfrog_steps": 5, "friction": 0.0}, 0.31),
        ("sggmc", {"obabo_steps": 3, "friction": 0.0}, 0.5),
    ):
        solver = make_solver(name, model.density, dataset, 1, **kw)
        sched = init_scheduler(20000, step_size=step)
        result = run_mcmc(solver, sched, model.init, key=RandomKey(29))[0]
        x = result["store"].variables()["theta"]
        ess = effective_sample_size(x)
        se_mean = x.std(ddof=1) / math.sqrt(ess)
        assert abs(x.mean()) <= 3 * se_mean, name
        assert abs(x.var(ddof=1) - 1.0) <= 0.05, name
        stats[name] = (x.mean(), x.var(ddof=1), result["acceptance_rate"])
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    print(f"PASS criterion 3: HMC reduction, max |exponent-(-dH)| {worst:.2e} "
          f"(<=1e-10); moments " +
          "; ".join(f"{k}: mean {v[0]:+.3f} var {v[1]:.3f} acc {v[2]:.2f}"
                    for k, v in stats.items()) +
          f"; {elapsed:.1f}s < {budget}s")


def test_criterion_4_tempering_explores_both_modes():
    budget = 60.0
    started = time.perf_counter()
    model = get_model("mixture_1d", width=0.7)
    dataset = synth_data_generate(model, RandomKey(3).child(0), 1)
    init = ParameterVector(model.layout, np.array([-3.0]))
    common = dict(model=model, dataset=dataset, iterations=100000, burn_in=10000,
                  batch_size=1, seed=3, step_size_first=3e-4, step_size_last=1.5e-4,
                  init_theta=init)

    tempered = build_sampler("resgld", dict(
        tau_high=10.0, swap_interval=50, correction=1.0, hot_step_factor=100.0,
        **common)).run()[0]
    x = tempered["store"].variables()["theta"]
    weight = float((x > 0).mean())
    visits_both = (x > 1.0).any() and (x < -1.0).any()

    baseline = build_sampler("sgld", dict(common)).run()[0]
    xb = baseline["store"].variables()["theta"]
    baseline_weight = float((xb > 0).mean())
    elapsed = time.perf_counter() - started

    assert visits_both
    assert abs(weight - 0.5) <= 0.1
    assert abs(baseline_weight - 0.5) > 0.1  # same budget, no tempering: stuck
    assert elapsed < budget
    print(f"PASS criterion 4: tempering, mode weight {weight:.3f} (within 0.1 of "
          f"0.5), baseline weight {baseline_weight:.3f} (fails as expected), "
          f"swap rate {tempered['acceptance_rate']:.2f}, {elapsed:.1f}s < {budget}s")


def test_criterion_5_schedule_exactness():
    schedule = polynomial_schedule(0.05, 0.001, 0.33, 10000)
    assert abs(schedule(0) - 0.05) <= 1e-12
    assert abs(schedule(10000) - 0.001) <= 1e-12
    plan = random_thinning_plan(schedule, 2000, 1000, 10000, RandomKey(31))
    assert len(plan) == 1000
    assert min(plan) >= 2000
    print("PASS criterion 5: schedule endpoints exact to 1e-12; thinning plan has "
          f"exactly {len(plan)} indices, min index {min(plan)} >= 2000")


def test_criterion_6_gradient_suite():
    worst = 0.0
    for name in sorted(builtin_names()):
        model = get_model(name)
        dataset = synth_data_generate(model, RandomKey(101), 12)
        n_rows = min(6, dataset.size)
        for key in [RandomKey(57).child(i) for i in range(100)]:
            rng = key.generator()
            rows = rng.integers(0, dataset.size, size=n_rows)
            batch = MiniBatch({k: v[rows] for k, v in dataset.arrays.items()},
                              np.ones(n_rows, dtype=bool), dataset.size, rows)
            flat = rng.standard_normal(model.density.dim) * 0.8
            theta = ParameterVector(model.layout, flat)
            _, analytic = minibatch_value_grad(model.density, flat, batch)
            fd = fd_gradient(
                lambda pv: minibatch_value_grad(model.density, pv.values, batch)[0],
                theta, h=1e-5)
            rel = np.linalg.norm(analytic - fd.values) / max(np.linalg.norm(analytic), 1e-8)
            worst = max(worst, rel)
            assert rel <= 1e-5, f"{name}: relative error {rel}"
    print(f"PASS criterion 6: gradient suite over {len(builtin_names())} models x "
          f"100 points, worst relative error {worst:.2e} (<=1e-5)")


def test_criterion_7_demo_determinism(tmp_path):
    import json

    from sgmc.cli import main

    def run(out):
        argv = ["run", "--demo", "regression", "--chains", "2",
                "--output", str(out)]
        assert main(argv) == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert [c["sample_count"] for c in summary["chains"]] == [1000, 1000]
    for chain in (0, 1):
        fa = (tmp_path / "a" / f"samples_chain{chain}.jsonl").read_bytes()
        fb = (tmp_path / "b" / f"samples_chain{chain}.jsonl").read_bytes()
        assert fa == fb
    print("PASS criterion 7: regression demo rerun with the same seed is "
          "byte-identical across 2 chains (1000 samples each)")


def test_criterion_8_data_layer_properties():
    # epoch partition
    model = get_model("gaussian_mean")
    dataset = synth_data_generate(model, RandomKey(400), 37, {"mu": 0.0})
    spec = BatchSpec(8, "shuffle_in_epochs", RandomKey(41))
    state = init_batch_state(dataset, spec)
    seen = []
    for _ in range(5):  # ceil(37/8) = 5 batches per epoch
        batch, state = next_batch(dataset, spec, state)
        seen.extend(int(i) for i in batch.indices[batch.mask])
    assert sorted(seen) == list(range(37))

    # mask soundness: poisoned pad rows leave the potential untouched
    flat = np.array([0.3])
    rows = np.array([5, 9, 0])
    mask = np.array([True, True, False])
    clean = MiniBatch({"y": dataset["y"][rows] * mask}, mask, 37, rows)
    poisoned = MiniBatch({"y": np.where(mask, dataset["y"][rows], 1e9)}, mask, 37, rows)
    v1, g1 = minibatch_value_grad(model.density, flat, clean)
    v2, g2 = minibatch_value_grad(model.density, flat, poisoned)
    assert v1 == v2 and np.array_equal(g1, g2)

    # unbiasedness of the stochastic potential
    exact = full_value(model.density, flat, dataset)
    spec = BatchSpec(8, "draw_replacement", RandomKey(42))
    state = init_batch_state(dataset, spec)
    draws = np.empty(10000)
    for i in range(draws.shape[0]):
        batch, state = next_batch(dataset, spec, state)
        draws[i], _ = minibatch_value_grad(model.density, flat, batch)
    se = draws.std(ddof=1) / math.sqrt(draws.shape[0])
    assert abs(draws.mean() - exact) <= 3 * se
    print(f"PASS criterion 8: epoch partition exact, masks sound, stochastic "
          f"potential unbiased (|bias| {abs(draws.mean() - exact):.4f} <= "
          f"3 s.e. {3 * se:.4f})")
