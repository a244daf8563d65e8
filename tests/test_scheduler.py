import math
from types import SimpleNamespace

import numpy as np
import pytest

from sgmc.core import RandomKey
from sgmc.errors import ConfigurationError
from sgmc.scheduler import (ScheduleItem, init_scheduler, polynomial_schedule,
                            random_thinning_plan, scheduler_next)
from sgmc.solver import AcceptanceStats, Adaptive, Metropolis


class Reporting(Metropolis):
    """A Metropolis move whose rounds report the acceptance probabilities ``alphas`` in
    turn; it records the step size each round is given and carries no chain state."""

    def __init__(self, alphas):
        self.alphas = iter(alphas)
        self.sizes = []

    def init(self, solver, theta0, key):
        return None

    def step(self, solver, state, item):
        self.sizes.append(item.step_size)
        return SimpleNamespace(stats=AcceptanceStats(1, 0, next(self.alphas)))


BURN_IN = ScheduleItem(1.0, 1.0, True, False)  # a burn-in round; its step size is unused
SAMPLING = ScheduleItem(1.0, 1.0, False, True)


def adapt(alphas, step_size_init):
    """The Adaptive block's chain state after one burn-in round per alpha, in turn."""
    block = Adaptive(Reporting(alphas), 0.65, step_size_init)
    state = block.init(None, None, None)
    for _ in alphas:
        state = block.step(None, state, BURN_IN)
        yield state


class TestPolynomialSchedule:
    def test_endpoints_exact(self):
        sched = polynomial_schedule(0.05, 0.001, 0.33, 10000)
        assert abs(sched(0) - 0.05) < 1e-12
        assert abs(sched(10000) - 0.001) < 1e-12

    def test_strictly_decreasing(self):
        values = polynomial_schedule(0.05, 0.001, 0.33, 10000)(np.arange(10001))
        assert np.all(np.diff(values) < 0)

    def test_midpoint_against_closed_form(self):
        first, last, gamma, n = 0.05, 0.001, 0.33, 10000
        sched = polynomial_schedule(first, last, gamma, n)
        # independent evaluation of eps_t = a (b + t)^(-gamma)
        b = n / ((first / last) ** (1.0 / gamma) - 1.0)
        a = first * b**gamma
        assert sched(5000) == pytest.approx(a * (b + 5000) ** (-gamma), rel=1e-14)

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            polynomial_schedule(0.001, 0.05, 0.33, 100)
        with pytest.raises(ValueError):
            polynomial_schedule(0.05, 0.001, 1.5, 100)


class TestDualAveraging:
    # the Adaptive block folding in the acceptance its move reports each burn-in round
    def test_on_target_is_fixed_point(self):
        *_, state = adapt([0.65] * 50, step_size_init=0.1)
        assert state.h_bar == 0.0
        assert math.exp(state.log_eps) == pytest.approx(10.0 * 0.1)

    def test_zero_acceptance_shrinks_step(self):
        sizes = [math.exp(state.log_eps) for state in adapt([0.0] * 30, step_size_init=0.1)]
        assert all(b < a for a, b in zip(sizes, sizes[1:]))

    def test_averaged_iterate_settles(self):
        # i.i.d. feedback around the target: averaged step size goes Cauchy
        rng = RandomKey(40).generator()
        tail = []
        n = 20000
        for m, state in enumerate(adapt([float(rng.beta(65, 35)) for _ in range(n)],
                                        step_size_init=1e-3)):
            if m >= int(0.9 * n):
                tail.append(math.exp(state.log_eps_avg))
        assert max(tail) - min(tail) < 1e-3
        assert (max(tail) - min(tail)) / math.exp(state.log_eps_avg) < 0.2

    def test_block_follows_the_recurrence_bit_for_bit(self):
        # the dual-averaging recurrence of Hoffman & Gelman (2014) with gamma 0.05, t0 10,
        # kappa 0.75 and mu = log(10 eps0); rounds run the primal, then the averaged iterate
        alphas = [0.0, 1.0] + [float(a) for a in RandomKey(7).generator().random(40)]
        eps0, delta = 0.05, 0.7
        move = Reporting(alphas + [0.5, 0.5])
        block = Adaptive(move, delta, eps0)
        state = block.init(None, None, None)
        h_bar, log_eps, log_eps_avg = 0.0, math.log(eps0), math.log(eps0)
        for m, alpha in enumerate(alphas, start=1):
            state = block.step(None, state, BURN_IN)
            assert move.sizes[-1] == math.exp(log_eps)
            eta = 1.0 / (m + 10.0)
            h_bar = (1.0 - eta) * h_bar + eta * (delta - alpha)
            log_eps = math.log(10.0 * eps0) - math.sqrt(m) * h_bar / 0.05
            w = m ** (-0.75)
            log_eps_avg = w * log_eps + (1.0 - w) * log_eps_avg
            assert (state.rounds, state.h_bar, state.log_eps, state.log_eps_avg) == (
                m, h_bar, log_eps, log_eps_avg)
        for _ in range(2):  # sampling rounds fold in nothing
            state = block.step(None, state, SAMPLING)
            assert move.sizes[-1] == math.exp(log_eps_avg)
            assert (state.rounds, state.h_bar, state.log_eps, state.log_eps_avg) == (
                len(alphas), h_bar, log_eps, log_eps_avg)


class TestThinningPlan:
    def test_counts_and_range(self):
        eps = polynomial_schedule(0.05, 0.001, 0.33, 10000)
        plan = random_thinning_plan(eps(np.arange(10000)), 2000, 1000, 10000,
                                    RandomKey(4))
        assert len(plan) == 1000
        assert min(plan) >= 2000 and max(plan) < 10000

    def test_all_eligible_kept(self):
        plan = random_thinning_plan(np.ones(10), 4, 6, 10, RandomKey(4))
        assert plan == frozenset(range(4, 10))

    def test_no_eligible_iteration_keeps_none(self):
        # the all-eligible shortcut serves it: NumPy's choice refuses an empty p
        assert random_thinning_plan(np.ones(10), 10, 0, 10, RandomKey(4)) == frozenset()

    def test_infeasible(self):
        with pytest.raises(ValueError):
            random_thinning_plan(np.ones(10), 4, 7, 10, RandomKey(4))

    def test_uniform_inclusion_for_constant_step(self):
        counts = np.zeros(80)
        key = RandomKey(123)
        for i in range(10000):
            plan = random_thinning_plan(np.ones(100), 20, 20, 100, key.child(i))
            for t in plan:
                counts[t - 20] += 1
        expected = 10000 * 20 / 80
        stat = ((counts - expected) ** 2 / expected).sum()
        # chi-square with 79 dof, 99th percentile ~= 111.1
        assert stat < 111.1

    def test_inclusion_tracks_step_size(self):
        # weights 9:1 -> inclusion frequencies near 9:1 for small selections
        eps = np.concatenate([np.full(50, 0.9), np.full(50, 0.1)])
        hot = cold = 0
        key = RandomKey(9)
        for i in range(4000):
            plan = random_thinning_plan(eps, 0, 5, 100, key.child(i))
            hot += sum(1 for t in plan if t < 50)
            cold += sum(1 for t in plan if t >= 50)
        assert hot / (hot + cold) > 0.8


class TestSchedulerNext:
    def test_static_bundle(self):
        state = init_scheduler(10, step_size=polynomial_schedule(0.1, 0.01, 0.5, 10),
                               burn_in=3, selections=4, temperature=2.0,
                               key=RandomKey(0))
        items = [scheduler_next(state, t) for t in range(10)]
        assert all(i.temperature == 2.0 for i in items)
        assert all(not (i.keep and i.burn_in) for i in items)
        assert sum(i.keep for i in items) == 4
        assert [i.burn_in for i in items[:3]] == [True] * 3
        with pytest.raises(IndexError):  # the plan holds 10 iterations
            scheduler_next(state, 10)

    def test_burn_in_blocks_keep(self):
        state = init_scheduler(5, step_size=0.1, burn_in=5, key=RandomKey(1))
        for t in range(5):
            item = scheduler_next(state, t)
            assert item.burn_in and not item.keep

    def test_replay_is_identical(self):
        def run():
            state = init_scheduler(50, step_size=polynomial_schedule(0.1, 0.01, 0.5, 50),
                                   burn_in=10, selections=20, key=RandomKey(7))
            return [scheduler_next(state, t) for t in range(50)]

        assert run() == run()

    def test_adaptive_uses_feedback_then_freezes(self):
        # the Adaptive block around a move whose every round has acceptance 0
        move = Reporting([0.0] * 52)
        sizes = move.sizes
        block = Adaptive(move, 0.65, 0.1)
        schedule = init_scheduler(100, step_size=1.0, burn_in=50)
        state = block.init(None, None, None)
        for t in range(52):
            state = block.step(None, state, scheduler_next(schedule, t))
        assert sizes[0] == pytest.approx(0.1)
        assert sizes[49] < 0.1  # persistent rejects shrink epsilon
        assert sizes[50] == sizes[51]  # averaged iterate after burn-in

    def test_selections_need_key(self):
        with pytest.raises(ConfigurationError):
            init_scheduler(10, step_size=0.1, selections=2)

    @pytest.mark.parametrize("field, build", [
        ("step_size", lambda: init_scheduler(10, step_size=math.nan)),
        ("step_size", lambda: init_scheduler(10, step_size=lambda t: np.full(len(t), math.nan))),
        ("temperature", lambda: init_scheduler(10, step_size=0.1, temperature=math.nan)),
        ("step_size_init", lambda: Adaptive(Reporting([]), 0.65, math.nan))],
        ids=["float", "function", "temperature", "step_size_init"])
    def test_nan_is_refused(self, field, build):
        # each range check holds in the positive form (not x > 0), which NaN fails
        with pytest.raises(ConfigurationError) as err:
            build()
        assert err.value.field == field

    @pytest.mark.parametrize("step_size", [np.full(10, 0.1), [0.1] * 10, "0.1"],
                             ids=["array", "list", "str"])
    def test_step_size_is_a_float_or_a_function(self, step_size):
        with pytest.raises(ConfigurationError) as err:
            init_scheduler(10, step_size=step_size)
        assert err.value.field == "step_size"
