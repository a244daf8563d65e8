import math

import numpy as np
import pytest

from sgmc.core import RandomKey
from sgmc.integrator import (langevin_step, obabo_trajectory,
                             reversible_leapfrog_trajectory, sghmc_step)
from sgmc.scheduler import init_scheduler, polynomial_schedule
from sgmc.solver import AMAGOLD, SGHMC


def kinetic(p):
    return 0.5 * float(p @ p)


class TestLangevin:
    def test_pure_drift(self):
        out = langevin_step(np.array([1.0]), np.array([2.0]), 0.1, tau=0.0)
        assert out[0] == pytest.approx(0.9)

    def test_identity_at_zero_gradient(self):
        theta = np.array([1.5, -2.0])
        out = langevin_step(theta, np.zeros(2), 0.3, tau=0.0)
        assert np.array_equal(out, theta)

    def test_preconditioner_scales_drift_and_noise(self):
        key = RandomKey(1)
        g = np.array([1.0, 1.0])
        precond = np.array([4.0, 0.25])
        no_noise = langevin_step(np.zeros(2), g, 0.1, tau=0.0, precond=precond)
        assert np.allclose(no_noise, [-0.2, -0.0125])
        # same key: noise of the preconditioned step is sqrt(P) times the plain one
        plain = langevin_step(np.zeros(2), np.zeros(2), 0.1, tau=1.0, rng=key.generator())
        scaled = langevin_step(np.zeros(2), np.zeros(2), 0.1, tau=1.0,
                               precond=precond, rng=key.generator())
        assert np.allclose(scaled, np.sqrt(precond) * plain)

    def test_annealed_stationary_variance(self):
        # U = theta^2 / 2 with exact gradient; eps-weighted variance -> 1
        n = 100000
        eps = polynomial_schedule(0.3, 0.1, 0.55, n)(np.arange(n))
        theta = np.zeros(1)
        rng = RandomKey(314).generator()
        total = mean_acc = wsum = 0.0
        for t in range(n):
            theta = langevin_step(theta, theta, eps[t], tau=1.0, rng=rng)
            if t > n // 10:
                total += eps[t] * theta[0] ** 2
                mean_acc += eps[t] * theta[0]
                wsum += eps[t]
        assert abs(total / wsum - 1.0) < 0.1
        assert abs(mean_acc / wsum) < 0.05  # ~3 s.e. for this chain length


class TestSGHMC:
    def test_free_flight(self):
        theta, p = sghmc_step(np.zeros(1), np.array([1.0]), np.zeros(1), 0.1,
                              friction=0.0, tau=0.7)
        assert theta[0] == pytest.approx(0.1)
        assert p[0] == pytest.approx(1.0)

    def test_friction_contracts_momentum(self):
        p = np.array([1.0])
        for _ in range(3):
            _, p = sghmc_step(np.zeros(1), p, np.zeros(1), 0.1, friction=0.5, tau=0.0)
        assert p[0] == pytest.approx((1 - 0.1 * 0.5) ** 3)

    def test_negative_noise_variance_rejected(self):
        # the SGHMC block owns the check: sghmc_step trusts C >= B >= 0
        with pytest.raises(ValueError):
            SGHMC(friction=0.1, noise_estimate=0.2)

    def test_stationary_variance(self):
        theta, p = np.zeros(1), np.zeros(1)
        rng = RandomKey(2718).generator()
        acc = acc_mean = 0.0
        n = 100000
        for t in range(n):
            theta, p = sghmc_step(theta, p, theta, 0.05, friction=1.0, tau=1.0,
                                  rng=rng)
            acc += theta[0] ** 2
            acc_mean += theta[0]
        assert abs(acc / n - 1.0) < 0.1
        assert abs(acc_mean / n) < 0.05  # ~3 s.e. for this chain length


class TestReversibleLeapfrog:
    def test_work_telescopes_to_kinetic_drop(self):
        rng = RandomKey(5).generator()
        for trial in range(20):
            dim = rng.integers(1, 4)
            a = rng.uniform(0.5, 3.0, dim)
            quartic = rng.uniform(0.0, 0.3, dim)

            def grad(th):
                return a * th + quartic * th**3

            theta0 = rng.standard_normal(dim)
            p0 = rng.standard_normal(dim)
            steps = int(rng.integers(1, 50))
            _, p_end, work = reversible_leapfrog_trajectory(
                theta0, p0, steps, 0.05, beta=0.0, grad_fn=grad, tau=0.0)
            assert abs(work - (kinetic(p0) - kinetic(p_end))) < 1e-10

    def test_single_step_free_flight(self):
        theta, p, work = reversible_leapfrog_trajectory(
            np.array([1.0]), np.array([2.0]), 1, 0.1, 0.0,
            grad_fn=lambda th: np.zeros(1), tau=0.0)
        assert theta[0] == pytest.approx(1.2)
        assert p[0] == pytest.approx(2.0)
        assert work == 0.0

    def test_momentum_flip_reversal(self):
        def grad(th):
            return th  # U = |theta|^2/2

        theta0, p0 = np.array([0.3, -1.1]), np.array([0.8, 0.2])
        thetaL, pL, _ = reversible_leapfrog_trajectory(
            theta0, p0, 7, 0.2, 0.0, grad, tau=0.0)
        back_theta, back_p, _ = reversible_leapfrog_trajectory(
            thetaL, -pL, 7, 0.2, 0.0, grad, tau=0.0)
        assert np.allclose(back_theta, theta0, atol=1e-10)
        assert np.allclose(back_p, -p0, atol=1e-10)

    def test_beta_bounds(self):
        # the AMAGOLD block owns beta = step size * friction / 2 in [0, 1): the block
        # refuses friction < 0, and its check refuses beta >= 1 at the schedule's step
        with pytest.raises(ValueError):
            AMAGOLD(leapfrog_steps=1, friction=-1.0)
        with pytest.raises(ValueError):
            AMAGOLD(leapfrog_steps=1, friction=20.0).check(init_scheduler(5, step_size=0.1))


class TestOBABO:
    def test_free_flight(self):
        theta, p, work = obabo_trajectory(
            np.array([0.0]), np.array([1.0]), 5, 0.1, 0.0,
            grad_fn=lambda th: np.zeros(1), tau=0.0)
        assert theta[0] == pytest.approx(0.5)
        assert p[0] == pytest.approx(1.0)
        assert work == pytest.approx(0.0, abs=1e-15)

    def test_ou_decay_factor(self):
        # friction * eps = 2 ln 2 makes the OU half-step factor exactly 0.5
        eps, gamma = 0.1, 2.0 * math.log(2.0) / 0.1
        theta, p, _ = obabo_trajectory(
            np.zeros(1), np.array([1.0]), 1, eps, gamma,
            grad_fn=lambda th: np.zeros(1), tau=0.0)
        assert p[0] == pytest.approx(0.25)  # two half-steps of a = 0.5

    def test_matches_velocity_verlet_when_friction_zero(self):
        def grad(th):
            return 2.0 * th

        theta, p = np.array([0.7]), np.array([-0.4])
        ref_t, ref_p = theta.copy(), p.copy()
        for _ in range(6):
            ref_p = ref_p - 0.05 * grad(ref_t)
            ref_t = ref_t + 0.1 * ref_p
            ref_p = ref_p - 0.05 * grad(ref_t)
        out_t, out_p, work = obabo_trajectory(theta, p, 6, 0.1, 0.0, grad, tau=0.0)
        assert np.allclose(out_t, ref_t, atol=1e-14)
        assert np.allclose(out_p, ref_p, atol=1e-14)
        assert abs(work - (kinetic(p) - kinetic(out_p))) < 1e-12

    def test_work_equals_kinetic_drop_across_cores(self):
        rng = RandomKey(12).generator()
        a = rng.uniform(0.5, 2.0, 3)

        def grad(th):
            return a * th

        theta0 = rng.standard_normal(3)
        p0 = rng.standard_normal(3)
        _, p_end, work = obabo_trajectory(theta0, p0, 10, 0.08, 0.0, grad, tau=0.0)
        assert abs(work - (kinetic(p0) - kinetic(p_end))) < 1e-10


def test_diverging_input_is_returned_not_refused():
    # pure arithmetic: the solver's step functions own the non-finite rule
    g = np.array([np.inf, 1.0])
    ends = [langevin_step(np.zeros(2), g, 0.1, tau=0.0),
            *sghmc_step(np.zeros(2), np.ones(2), g, 0.1, 0.5, tau=0.0),
            *reversible_leapfrog_trajectory(np.zeros(2), np.ones(2), 2, 0.1, 0.0,
                                            lambda theta: g, tau=0.0)[:2],
            *obabo_trajectory(np.zeros(2), np.ones(2), 2, 0.1, 0.0, lambda theta: g,
                              tau=0.0)[:2]]
    assert not any(np.isfinite(end).all() for end in ends)


def test_zero_noise_zero_gradient_pure_drift():
    theta0, p0 = np.array([1.0, -2.0]), np.array([0.5, 0.25])
    zero = lambda th: np.zeros(2)
    out = langevin_step(theta0, np.zeros(2), 0.2, tau=0.0)
    assert np.allclose(out, theta0, atol=1e-12)
    t1, p1 = sghmc_step(theta0, p0, np.zeros(2), 0.2, friction=0.0, tau=0.0)
    assert np.allclose(t1, theta0 + 0.2 * p0, atol=1e-12)
    t2, p2, _ = reversible_leapfrog_trajectory(theta0, p0, 4, 0.2, 0.0, zero, tau=0.0)
    assert np.allclose(t2, theta0 + 4 * 0.2 * p0, atol=1e-12)
    assert np.allclose(p2, p0, atol=1e-12)
    t3, p3, _ = obabo_trajectory(theta0, p0, 4, 0.2, 0.0, zero, tau=0.0)
    assert np.allclose(t3, theta0 + 4 * 0.2 * p0, atol=1e-12)
    assert np.allclose(p3, p0, atol=1e-12)
