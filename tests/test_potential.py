import math

import numpy as np
import pytest

from sgmc.core import ParameterVector, RandomKey, make_layout
from sgmc.data import BatchSpec, MiniBatch, init_batch_state, load_in_memory, next_batch
from sgmc.models import builtin_names, get_model, synth_data_generate
from sgmc.potential import fd_gradient, full_value, minibatch_value_grad, per_observation

LOG_NORM_1 = -1.4189385332046727  # log N(1; 0, 1)
LOG_2PI = np.log(2.0 * np.pi)


def gaussian_two_points():
    """y ~ N(theta, 1) with an improper flat prior, over y = [1, 3]."""
    layout = make_layout({"mu": ()})

    def log_likelihood(theta, obs):
        r = float(obs["y"]) - theta.values[0]
        return -0.5 * r * r - 0.5 * LOG_2PI

    def grad_log_likelihood(theta, obs):
        return ParameterVector(layout, np.array([float(obs["y"]) - theta.values[0]]))

    density = per_observation(
        layout, log_likelihood, grad_log_likelihood,
        log_prior=lambda theta: 0.0,
        grad_log_prior=lambda theta: ParameterVector(layout, np.zeros(1)),
    )
    ds = load_in_memory(arrays={"y": np.array([1.0, 3.0])})
    return density, ds


def batch_of(ds, rows, mask=None, full_size=None):
    rows = np.asarray(rows)
    mask = np.ones(len(rows), dtype=bool) if mask is None else np.asarray(mask)
    return MiniBatch({"y": ds["y"][rows]}, mask, full_size or ds.size, rows)


class TestMinibatchPotential:
    def test_hand_evaluated_value(self):
        density, ds = gaussian_two_points()
        batch = batch_of(ds, [0])  # y = 1, N = 2
        value, _ = minibatch_value_grad(density, np.zeros(1), batch)
        # prior term is ~0 by the huge prior scale; U~ = -(2/1) log N(1;0,1)
        assert value == pytest.approx(-2.0 * LOG_NORM_1, abs=1e-6)

    def test_gradient_is_scaled_score_sum(self):
        density, ds = gaussian_two_points()
        batch = batch_of(ds, [0, 1])
        _, grad = minibatch_value_grad(density, np.array([0.25]), batch)
        scores = (ds["y"] - 0.25)  # per-row d/dtheta log p
        expected = -(2 / 2) * scores.sum() - (-0.25 / 1e18)
        assert grad[0] == pytest.approx(expected, rel=1e-12)

    def test_mask_equivalent_to_smaller_batch(self):
        density, ds = gaussian_two_points()
        flat = np.array([0.7])
        masked = batch_of(ds, [0, 1], mask=[True, False])
        solo = batch_of(ds, [0])
        va, ga = minibatch_value_grad(density, flat, masked)
        vb, gb = minibatch_value_grad(density, flat, solo)
        assert va == pytest.approx(vb, rel=1e-14)
        assert np.array_equal(ga, gb)

    def test_masked_rows_may_hold_nan(self):
        density, ds = gaussian_two_points()
        flat = np.array([0.7])
        poisoned = MiniBatch({"y": np.array([1.0, np.nan])},
                             np.array([True, False]), 2, np.array([0, 0]))
        solo = batch_of(ds, [0])
        va, ga = minibatch_value_grad(density, flat, poisoned)
        vb, gb = minibatch_value_grad(density, flat, solo)
        assert va == vb and np.array_equal(ga, gb)

    def test_all_masked_rejected(self):
        density, ds = gaussian_two_points()
        with pytest.raises(ValueError, match="masked"):
            minibatch_value_grad(density, np.zeros(1),
                                 batch_of(ds, [0, 1], mask=[False, False]))

    @pytest.mark.parametrize("name", ["gaussian_two_points", *builtin_names()])
    def test_full_batch_equals_full_potential_exactly(self, name):
        if name == "gaussian_two_points":
            density, ds = gaussian_two_points()
        else:
            model = get_model(name)
            density, ds = model.density, synth_data_generate(model, RandomKey(12), 23)
        rows = np.arange(ds.size)
        whole = MiniBatch(dict(ds.arrays), np.ones(ds.size, dtype=bool), ds.size, rows)
        for key in [RandomKey(6).child(i) for i in range(5)]:
            flat = key.generator().standard_normal(density.dim) * 0.5
            value, _ = minibatch_value_grad(density, flat, whole)
            assert full_value(density, flat, ds) == value


class TestFullPotential:
    def test_hand_evaluated_value(self):
        density, ds = gaussian_two_points()
        value = full_value(density, np.zeros(1), ds)
        # -log N(1;0,1) - log N(3;0,1) = 1.4189385 + 5.4189385
        assert value == pytest.approx(6.8378771, abs=1e-6)

    def test_minibatch_estimator_unbiased(self):
        model = get_model("gaussian_mean")
        ds = model.generate(RandomKey(8), 40, {"mu": 0.2})
        flat = np.array([-0.1])
        exact = full_value(model.density, flat, ds)
        spec = BatchSpec(8, "draw_replacement", RandomKey(1234))
        state = init_batch_state(ds, spec)
        draws = np.empty(10000)
        for i in range(draws.shape[0]):
            batch, state = next_batch(ds, spec, state)
            draws[i], _ = minibatch_value_grad(model.density, flat, batch)
        se = draws.std(ddof=1) / math.sqrt(draws.shape[0])
        assert abs(draws.mean() - exact) < 3 * se


class TestFiniteDifferences:
    def test_quadratic(self):
        layout = make_layout({"x": (2,)})
        theta = ParameterVector(layout, np.array([1.0, 2.0]))
        grad = fd_gradient(lambda pv: 0.5 * float(pv.values @ pv.values), theta)
        assert np.allclose(grad.values, [1.0, 2.0], atol=1e-8)

    def test_constant(self):
        layout = make_layout({"x": (3,)})
        grad = fd_gradient(lambda pv: 4.2, ParameterVector(layout, np.ones(3)))
        assert np.array_equal(grad.values, np.zeros(3))

    def test_h_must_be_positive(self, tiny_pv):
        with pytest.raises(ValueError):
            fd_gradient(lambda pv: 0.0, tiny_pv, h=0.0)

    def test_oracle_self_check_on_stochastic_potential(self):
        model = get_model("gaussian_mean")
        ds = model.generate(RandomKey(9), 20, {"mu": 1.0})
        batch = MiniBatch({"y": ds["y"][:4]}, np.ones(4, dtype=bool), 20,
                          np.arange(4))
        theta = ParameterVector(model.layout, np.array([0.6]))
        _, analytic = minibatch_value_grad(model.density, theta.values, batch)
        fd = fd_gradient(
            lambda pv: minibatch_value_grad(model.density, pv.values, batch)[0],
            theta, h=1e-5)
        rel = np.linalg.norm(analytic - fd.values) / max(np.linalg.norm(analytic), 1e-8)
        assert rel <= 1e-5


def gaussian_mean_rows(layout):
    def log_likelihood(theta, obs):
        r = float(obs["y"]) - float(theta.values[0])
        return -0.5 * r * r - 0.5 * LOG_2PI

    def grad_log_likelihood(theta, obs):
        return ParameterVector(layout, np.array([float(obs["y"]) - theta.values[0]]))

    return log_likelihood, grad_log_likelihood


def linreg_sigma_rows(layout):
    d = layout[0][1][0]

    def log_likelihood(theta, obs):
        w, ls = theta.values[:d], theta.values[d]
        r = float(obs["y"]) - float(obs["x"] @ w)
        return -0.5 * (r / math.exp(ls)) ** 2 - ls - 0.5 * LOG_2PI

    def grad_log_likelihood(theta, obs):
        w, ls = theta.values[:d], theta.values[d]
        sigma2 = math.exp(2.0 * ls)
        r = float(obs["y"]) - float(obs["x"] @ w)
        return ParameterVector(layout, np.append((r / sigma2) * obs["x"],
                                                 r * r / sigma2 - 1.0))

    return log_likelihood, grad_log_likelihood


def logreg_2d_rows(layout):
    def log_likelihood(theta, obs):
        z = float(obs["x"] @ theta.values)
        return float(obs["y"]) * z - np.logaddexp(0.0, z)

    def grad_log_likelihood(theta, obs):
        z = float(obs["x"] @ theta.values)
        resid = float(obs["y"]) - 1.0 / (1.0 + math.exp(-z))
        return ParameterVector(layout, resid * np.asarray(obs["x"], dtype=np.float64))

    return log_likelihood, grad_log_likelihood


ROW_REFERENCES = {"gaussian_mean": gaussian_mean_rows,
                  "linreg_sigma": linreg_sigma_rows,
                  "logreg_2d": logreg_2d_rows}


class TestBatchFastPath:
    """The built-in batch evaluators against per-observation references."""

    @pytest.mark.parametrize("name", sorted(ROW_REFERENCES))
    def test_vectorized_paths_match_row_loop(self, name):
        model = get_model(name)
        ds = synth_data_generate(model, RandomKey(31), 16)
        density = model.density
        layout = density.layout
        stripped = per_observation(
            layout, *ROW_REFERENCES[name](layout),
            lambda theta: density.log_prior(theta.values),
            lambda theta: ParameterVector(layout, density.grad_log_prior(theta.values)))
        keys = [RandomKey(5).child(i) for i in range(10)]
        for key in keys:
            flat = key.generator().standard_normal(density.dim) * 0.5
            rows = key.generator().integers(0, 16, size=6)
            batch = MiniBatch({k: v[rows] for k, v in ds.arrays.items()},
                              np.ones(6, dtype=bool), 16, rows)
            v_fast, g_fast = minibatch_value_grad(density, flat, batch)
            v_slow, g_slow = minibatch_value_grad(stripped, flat, batch)
            assert v_fast == pytest.approx(v_slow, rel=1e-12)
            assert np.allclose(g_fast, g_slow, rtol=1e-12)
