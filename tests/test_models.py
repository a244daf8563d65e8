import math

import numpy as np
import pytest

from sgmc.core import ParameterVector, RandomKey, make_layout
from sgmc.data import MiniBatch
from sgmc.models import builtin_names, get_model, rwmh_oracle, synth_data_generate
from sgmc.potential import fd_gradient, minibatch_value_grad


class TestLogDensities:
    def test_gaussian_mean_values(self):
        density = get_model("gaussian_mean").density
        arrays = {"y": np.array([1.0])}
        logp = density.batch_log_likelihood(np.zeros(1), arrays)
        score = density.batch_score(np.zeros(1), arrays)
        assert logp.shape == (1,) and score.shape == (1, 1)
        assert logp[0] == pytest.approx(-1.4189385, abs=1e-6)
        assert score[0, 0] == pytest.approx(1.0)

    def test_linreg_zero_residual_score(self):
        density = get_model("linreg_sigma", n_weights=2).density
        theta = ParameterVector(make_layout({"w": (2,), "log_sigma": ()}), [1.0, -2.0, 0.3])
        x = np.array([[0.5, 1.5]])
        score = density.batch_score(theta.values, {"x": x, "y": x @ [1.0, -2.0]})
        assert np.allclose(score[0, :2], 0.0, atol=1e-14)

    def test_logreg_symmetry_at_zero_logit(self):
        density = get_model("logreg_2d").density
        arrays = {"x": np.array([[1.0, 2.0], [1.0, 2.0]]), "y": np.array([0.0, 1.0])}
        logp = density.batch_log_likelihood(np.zeros(2), arrays)
        assert logp == pytest.approx([-math.log(2.0)] * 2, rel=1e-12)

    def test_mixture_modes_equal_height(self):
        model = get_model("mixture_1d")
        at = lambda v: model.density.log_prior(np.array([v]))
        assert at(3.0) == pytest.approx(at(-3.0), rel=1e-12)
        assert at(0.0) < at(3.0)


class TestGradientChecks:
    @pytest.mark.parametrize("name", sorted(builtin_names()))
    def test_analytic_matches_finite_differences(self, name):
        model = get_model(name)
        dataset = synth_data_generate(model, RandomKey(100), 12)
        rows = np.arange(min(6, dataset.size))
        batch = MiniBatch({k: v[rows] for k, v in dataset.arrays.items()},
                          np.ones(rows.shape[0], dtype=bool), dataset.size, rows)
        for key in [RandomKey(55).child(i) for i in range(20)]:
            flat = key.generator().standard_normal(model.density.dim) * 0.8
            theta = ParameterVector(model.layout, flat)
            _, analytic = minibatch_value_grad(model.density, flat, batch)
            fd = fd_gradient(
                lambda pv: minibatch_value_grad(model.density, pv.values, batch)[0],
                theta, h=1e-5)
            rel = np.linalg.norm(analytic - fd.values) / max(np.linalg.norm(analytic), 1e-8)
            assert rel <= 1e-5, f"{name}: rel err {rel}"


class TestGenerators:
    def test_reproducible(self):
        model = get_model("linreg_sigma")
        a = synth_data_generate(model, RandomKey(4), 20)
        b = synth_data_generate(model, RandomKey(4), 20)
        assert np.array_equal(a["x"], b["x"])
        assert np.array_equal(a["y"], b["y"])

    def test_linreg_residual_variance(self):
        model = get_model("linreg_sigma")
        true = {"w": [0.5, -1.0, 2.0, 0.25], "sigma": 0.5, "x_scale": 1.0}
        ds = synth_data_generate(model, RandomKey(6), 10000, true)
        resid = ds["y"] - ds["x"] @ np.asarray(true["w"])
        assert abs(resid.var() - 0.25) / 0.25 < 0.10

    def test_gaussian_mean_clt(self):
        model = get_model("gaussian_mean")
        n = 10000
        ds = synth_data_generate(model, RandomKey(8), n, {"mu": 1.3})
        assert abs(ds["y"].mean() - 1.3) < 3.0 / math.sqrt(n)

    def test_mixture_draws_cover_both_modes(self):
        model = get_model("mixture_1d")
        ds = synth_data_generate(model, RandomKey(10), 2000)
        frac = (ds["y"] > 0).mean()
        assert 0.4 < frac < 0.6


class TestRWMHOracle:
    def test_standard_normal_moments(self):
        model = get_model("std_normal")
        ds = synth_data_generate(model, RandomKey(0), 1)
        out = rwmh_oracle(model, ds, model.init, 2.4, steps=100000, key=RandomKey(13))
        x = out["samples"][:, 0]
        ess_floor = x.shape[0] / 50  # generous autocorrelation allowance
        assert abs(x.mean()) < 3.0 / math.sqrt(ess_floor)
        assert abs(x.var(ddof=1) - 1.0) < 0.05
        assert 0.2 < out["acceptance_rate"] < 0.7

    def test_zero_proposal_scale_freezes_chain(self):
        model = get_model("std_normal")
        ds = synth_data_generate(model, RandomKey(0), 1)
        theta0 = ParameterVector(model.layout, np.array([0.4]))
        out = rwmh_oracle(model, ds, theta0, 0.0, steps=500, key=RandomKey(3))
        assert out["acceptance_rate"] == 1.0
        assert np.all(out["samples"] == 0.4)

    def test_detailed_balance_three_bins(self):
        model = get_model("std_normal")
        ds = synth_data_generate(model, RandomKey(0), 1)
        out = rwmh_oracle(model, ds, model.init, 1.5, steps=100000,
                          key=RandomKey(21), burn_in=1000)
        x = out["samples"][:, 0]
        bins = np.digitize(x, [-0.5, 0.5])
        counts = np.zeros((3, 3))
        np.add.at(counts, (bins[:-1], bins[1:]), 1)
        for i in range(3):
            for j in range(i + 1, 3):
                nij, nji = counts[i, j], counts[j, i]
                # reversibility: N_ij ~= N_ji within 3 s.e. of the difference
                assert abs(nij - nji) < 3.0 * math.sqrt(nij + nji)

