import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmc.adaption import rmsprop_step, welford_finalize, welford_step
from sgmc.core import RandomKey


class TestRMSProp:
    def test_single_update(self):
        v, _ = rmsprop_step(np.zeros(1), np.array([2.0]), 0.9, 1e-5)
        assert v == pytest.approx([0.4])

    def test_preconditioner_value(self):
        _, precond = rmsprop_step(np.zeros(1), np.array([2.0]), 0.9, 1e-5)
        assert precond[0] == pytest.approx(1.0 / (1e-5 + np.sqrt(0.4)), rel=1e-12)
        assert precond[0] == pytest.approx(1.5811, abs=1e-4)

    def test_zero_gradient_decays_to_cap(self):
        v = np.array([1.0])
        for _ in range(60):
            v, precond = rmsprop_step(v, np.zeros(1), 0.5, 1e-5)
        assert v[0] < 1e-15
        assert precond[0] == pytest.approx(1e5, rel=1e-4)

    def test_bounds(self):
        v = np.zeros(3)
        rng = RandomKey(4).generator()
        for _ in range(50):
            v, precond = rmsprop_step(v, rng.standard_normal(3) * 10, 0.99, 1e-5)
            assert np.all(precond > 0)
            assert np.all(precond <= 1e5)

    def test_non_finite_gradient(self):
        # pure arithmetic: sgmc_update refuses the non-finite position that follows
        v, precond = rmsprop_step(np.zeros(2), np.array([1.0, np.inf]), 0.99, 1e-5)
        assert not np.isfinite(v).all()
        assert precond[1] == 0.0


class TestWelford:
    def test_textbook_stream(self):
        state = (0, 0.0, 0.0)
        for x in (1.0, 2.0, 3.0):
            state = welford_step(state, x)
        mean, var = welford_finalize(state)
        assert mean == 2.0
        assert var == pytest.approx(1.0)

    def test_monte_carlo_variance(self):
        draws = RandomKey(66).generator().standard_normal(10000)
        state = (0, 0.0, 0.0)
        for x in draws:
            state = welford_step(state, x)
        _, var = welford_finalize(state)
        assert abs(var - 1.0) < 0.05

    def test_matches_two_pass(self):
        rng = RandomKey(8).generator()
        data = rng.standard_normal(400) * 5.0 + 7.0
        state = (0, 0.0, 0.0)
        for x in data:
            state = welford_step(state, x)
        mean, var = welford_finalize(state)
        assert np.allclose(mean, data.mean(), atol=1e-10)
        assert np.allclose(var, data.var(ddof=1), atol=1e-10)

    @given(st.integers(0, 10000))
    @settings(max_examples=20, deadline=None)
    def test_permutation_insensitive(self, seed):
        rng = RandomKey(seed).generator()
        data = rng.standard_normal(50)
        perm = rng.permutation(50)

        def run(xs):
            state = (0, 0.0, 0.0)
            for x in xs:
                state = welford_step(state, x)
            return welford_finalize(state)

        m1, v1 = run(data)
        m2, v2 = run(data[perm])
        assert np.allclose(m1, m2, atol=1e-12)
        assert np.allclose(v1, v2, atol=1e-10)
