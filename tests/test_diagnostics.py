import numpy as np
import pytest

from sgmc.core import RandomKey
from sgmc.diagnostics import (diagnostics_summary, effective_sample_size,
                              weighted_moments)


class TestWeightedMoments:
    def test_uniform_weights_reduce_exactly(self):
        x = RandomKey(1).generator().standard_normal(101)
        mean_w, var_w = weighted_moments(x, np.ones(101))
        mean_u, var_u = weighted_moments(x)
        assert mean_w == x.mean()
        assert var_w == pytest.approx(x.var(ddof=1), rel=1e-14)
        assert (mean_w, var_w) == (mean_u, var_u)

    def test_weights_concentrate(self):
        x = np.array([0.0, 10.0])
        w = np.array([1.0, 3.0])
        mean, _ = weighted_moments(x, w)
        assert mean == 7.5

    def test_one_nonzero_weight_has_zero_variance(self):
        # the frequency-style denominator sum(w) - sum(w^2)/sum(w) is 0 here
        assert weighted_moments(np.array([1.0, 4.0, 9.0]), np.array([0.0, 2.0, 0.0])) == (
            4.0, 0.0)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            weighted_moments(np.ones(3), np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            weighted_moments(np.ones(3), np.ones(4))


class TestESS:
    def test_iid_near_n(self):
        n = 10000
        x = RandomKey(5).generator().standard_normal(n)
        ess = effective_sample_size(x)
        assert 0.8 * n <= ess <= 1.2 * n

    def test_constant_chain_floor(self):
        assert effective_sample_size(np.full(100, 3.7)) == 1.0

    def test_chain_far_from_zero_is_not_constant(self):
        # a varying chain is not constant, however large its values
        x = RandomKey(5).generator().standard_normal(2000)
        assert effective_sample_size(1e6 + x) == pytest.approx(effective_sample_size(x),
                                                               rel=1e-3)

    def test_correlated_chain_shrinks(self):
        rng = RandomKey(6).generator()
        x = np.empty(20000)
        x[0] = 0.0
        rho = 0.95
        noise = rng.standard_normal(20000) * np.sqrt(1 - rho**2)
        for i in range(1, 20000):
            x[i] = rho * x[i - 1] + noise[i]
        ess = effective_sample_size(x)
        # AR(1) integrated autocorrelation: (1+rho)/(1-rho) = 39
        assert 20000 / 80 < ess < 20000 / 20

    def test_overflowing_autocovariance_floors_at_one(self):
        # the centred square overflows, so autocorrelation returns zeros: no usable lag
        x = np.tile([1e200, -1e200], 50)
        with pytest.warns(RuntimeWarning):
            assert effective_sample_size(x) == 1.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            effective_sample_size(np.array([1.0]))


class TestSummary:
    def test_bundle(self):
        x = RandomKey(9).generator().standard_normal(5000) * 2.0 + 1.0
        out = diagnostics_summary(x)
        assert out["mean"] == pytest.approx(1.0, abs=0.1)
        assert out["std"] == pytest.approx(2.0, abs=0.1)
        assert out["ess"] > 3000

    def test_too_short(self):
        with pytest.raises(ValueError):
            diagnostics_summary(np.array([1.0]))
