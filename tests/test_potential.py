import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sgmc.core import RandomKey, make_layout
from sgmc.data import BatchSpec, MiniBatch, init_batch_state, load_in_memory, next_batch
from sgmc.models import builtin_names, get_model, surrogate_from_logdensity, synth_data_generate
from sgmc.potential import FULL_BLOCK_ROWS, full_value, minibatch_value_grad, per_observation

from conftest import fd_gradient

LOG_NORM_1 = -1.4189385332046727  # log N(1; 0, 1)
LOG_2PI = np.log(2.0 * np.pi)


def gaussian_two_points():
    """y ~ N(theta, 1) with an improper flat prior, over y = [1, 3]."""
    layout = make_layout({"mu": ()})

    def log_likelihood(theta, obs):
        r = float(obs["y"]) - float(theta["mu"])
        return -0.5 * r * r - 0.5 * LOG_2PI

    def grad_log_likelihood(theta, obs):
        return np.array([float(obs["y"]) - float(theta["mu"])])

    density = per_observation(
        layout, log_likelihood, grad_log_likelihood,
        log_prior=lambda theta: 0.0,
        grad_log_prior=lambda theta: np.zeros(1),
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


class TestGradientOnly:
    @pytest.mark.parametrize("name", builtin_names())
    def test_gradient_equals_the_value_and_gradient_one(self, name):
        # N = 7 in batches of 3: the third batch is the epoch's 1-row tail
        model = get_model(name)
        ds = synth_data_generate(model, RandomKey(12), 7)
        spec = BatchSpec(3, "shuffle_in_epochs", RandomKey(4))
        state = init_batch_state(ds, spec)

        def refuse(*args):
            raise AssertionError("a gradient-only evaluation asked for a value")

        grad_only = dataclasses.replace(model.density, batch_log_likelihood=refuse,
                                        log_prior=refuse)
        flat = RandomKey(6).generator().standard_normal(model.density.dim) * 0.5
        masks = []
        for _ in range(3):
            batch, _ = next_batch(ds, spec, state)
            masks.append(batch.mask.tolist())
            _, grad = minibatch_value_grad(model.density, flat, batch)
            value, only = minibatch_value_grad(grad_only, flat, batch, value=False)
            assert value is None and np.array_equal(only, grad)
        assert masks[2] == [True]

    @pytest.mark.parametrize("name", builtin_names())
    def test_short_tail_equals_its_padded_form(self, name):
        # the tail of N mod n rows gives, bit for bit, what the same rows gave when
        # they were padded to n with zeroed copies of row 0 and masked
        model = get_model(name)
        ds = synth_data_generate(model, RandomKey(12), 61)
        spec = BatchSpec(7, "shuffle_in_epochs", RandomKey(4))
        state = init_batch_state(ds, spec)
        tail = [next_batch(ds, spec, state)[0] for _ in range(9)][-1]
        assert tail.size == 5
        indices = np.concatenate([tail.indices, np.zeros(2, dtype=tail.indices.dtype)])
        arrays = {field: arr[indices] for field, arr in ds.arrays.items()}
        for rows in arrays.values():
            rows[5:] = 0.0
        padded = MiniBatch(arrays, np.arange(7) < 5, ds.size, indices, 5)
        for key in [RandomKey(6).child(i) for i in range(3)]:
            flat = key.generator().standard_normal(model.density.dim) * 0.5
            for value in (True, False):
                short_u, short_grad = minibatch_value_grad(model.density, flat, tail, value)
                pad_u, pad_grad = minibatch_value_grad(model.density, flat, padded, value)
                assert short_u == pad_u and np.array_equal(short_grad, pad_grad)


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


def whole_dataset_value(density, flat, ds):
    """U from one whole-array log-likelihood call, summed as full_value sums it."""
    ll = np.asarray(density.batch_log_likelihood(flat, ds.arrays), dtype=np.float64)
    return -float(ll.sum()) - float(density.log_prior(flat))


class TestBlockedFullPotential:
    N = 2 * FULL_BLOCK_ROWS + 3  # two full row blocks and a three-row tail

    @pytest.mark.parametrize("name", [name for name in builtin_names()
                                      if get_model(name).density.batch_log_likelihood])
    def test_blocks_give_the_bits_of_one_whole_call(self, name):
        model = get_model(name)
        ds = synth_data_generate(model, RandomKey(21), self.N)
        for key in [RandomKey(22).child(i) for i in range(5)]:
            flat = key.generator().standard_normal(model.density.dim) * 0.5
            assert full_value(model.density, flat, ds) == whole_dataset_value(
                model.density, flat, ds)

    def test_per_observation_model_blocks_give_the_bits_of_one_whole_call(self):
        density = per_observation(make_layout({"mu": ()}), *gaussian_mean_rows(),
                                  lambda theta: -0.5 * float(theta["mu"]) ** 2,
                                  lambda theta: -theta["mu"].reshape(1))
        y = RandomKey(23).generator().standard_normal(self.N) + 0.3
        ds = load_in_memory(arrays={"y": y})
        flat = np.array([0.4])
        assert full_value(density, flat, ds) == whole_dataset_value(density, flat, ds)

    @staticmethod
    def called_arrays(n):
        model = get_model("logreg_2d")
        ds = synth_data_generate(model, RandomKey(24), n)
        seen = []

        def log_likelihood(flat, arrays):
            seen.append(arrays)
            return model.density.batch_log_likelihood(flat, arrays)

        counting = dataclasses.replace(model.density, batch_log_likelihood=log_likelihood)
        full_value(counting, np.array([0.5, -1.0]), ds)
        return ds, seen

    def test_one_block_dataset_is_one_call_on_its_arrays(self):
        for n in (1, FULL_BLOCK_ROWS):
            ds, seen = self.called_arrays(n)
            assert len(seen) == 1 and list(seen[0]) == list(ds.arrays)
            for name, arr in seen[0].items():  # every row, as a view of the dataset's array
                assert arr.shape == ds[name].shape and np.shares_memory(arr, ds[name])
                assert np.array_equal(arr, ds[name])

    def test_larger_dataset_is_called_on_row_blocks(self):
        ds, seen = self.called_arrays(self.N)
        assert [arrays["y"].shape[0] for arrays in seen] == [FULL_BLOCK_ROWS, FULL_BLOCK_ROWS, 3]
        assert np.array_equal(np.concatenate([arrays["x"] for arrays in seen]), ds["x"])

    def test_one_call_peaks_at_most_one_and_a_half_vectors(self):
        n = 100_000
        model = get_model("logreg_2d")
        ds = synth_data_generate(model, RandomKey(25), n)
        tracemalloc.start()
        try:
            full_value(model.density, np.array([0.5, -1.0]), ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n  # a whole-array call peaks at 3 (N,) float vectors


class TestWithoutLikelihood:
    """Data-free targets: both batch evaluators are None, and U is the prior's."""

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("name, kwargs", [("mixture_1d", {}), ("std_normal", {"dim": 3})])
    def test_potentials_are_the_negated_log_density_bit_for_bit(self, name, kwargs):
        model = get_model(name, **kwargs)
        density = model.density
        assert density.batch_log_likelihood is None and density.batch_score is None
        ds = synth_data_generate(model, RandomKey(26), 4)
        batch, _ = next_batch(ds, BatchSpec(2), init_batch_state(ds, BatchSpec(2)))
        rng = RandomKey(27).generator()
        points = [np.zeros(density.dim), np.full(density.dim, -0.0),
                  *(rng.standard_normal(density.dim) * 3.0 for _ in range(20))]
        for flat in points:
            u, g = -density.log_prior(flat), -density.grad_log_prior(flat)
            assert self.bits(full_value(density, flat, ds)) == self.bits(u)
            for given in (batch, None):  # a batch, if given, is not read
                value, grad = minibatch_value_grad(density, flat, given)
                assert self.bits(value) == self.bits(u) and self.bits(grad) == self.bits(g)
                none, grad = minibatch_value_grad(density, flat, given, value=False)
                assert none is None and self.bits(grad) == self.bits(g)

    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324, 1.5, -1e300, np.inf, -np.inf])
    def test_signed_zeros_and_extremes_keep_their_bits(self, x):
        # log-density and gradient both x: each potential is -x, bit for bit the
        # (-0.0) - x that a likelihood of zeros would add up to
        model = surrogate_from_logdensity("identity", make_layout({"t": ()}),
                                          lambda flat: flat[0], lambda flat: flat.copy())
        flat = np.array([x])
        ds = synth_data_generate(model, RandomKey(28), 1)
        assert self.bits(full_value(model.density, flat, ds)) == self.bits(-0.0 - x)
        value, grad = minibatch_value_grad(model.density, flat, None)
        assert self.bits(value) == self.bits(-0.0 - x) == self.bits(-x)
        assert self.bits(grad) == self.bits(-0.0 - flat) == self.bits(-flat)


class TestFiniteDifferences:
    def test_quadratic(self):
        grad = fd_gradient(lambda x: 0.5 * float(x @ x), np.array([1.0, 2.0]))
        assert np.allclose(grad, [1.0, 2.0], atol=1e-8)

    def test_constant(self):
        grad = fd_gradient(lambda x: 4.2, np.ones(3))
        assert np.array_equal(grad, np.zeros(3))

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda x: 0.0, np.array([1.0, 2.0, 0.5]), h=0.0)

    def test_oracle_self_check_on_stochastic_potential(self):
        model = get_model("gaussian_mean")
        ds = model.generate(RandomKey(9), 20, {"mu": 1.0})
        batch = MiniBatch({"y": ds["y"][:4]}, np.ones(4, dtype=bool), 20,
                          np.arange(4))
        theta = np.array([0.6])
        _, analytic = minibatch_value_grad(model.density, theta, batch)
        fd = fd_gradient(lambda x: minibatch_value_grad(model.density, x, batch)[0],
                         theta, h=1e-5)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-8)
        assert rel <= 1e-5


def gaussian_mean_rows():
    def log_likelihood(theta, obs):
        r = float(obs["y"]) - float(theta["mu"])
        return -0.5 * r * r - 0.5 * LOG_2PI

    def grad_log_likelihood(theta, obs):
        return np.array([float(obs["y"]) - float(theta["mu"])])

    return log_likelihood, grad_log_likelihood


def linreg_sigma_rows():
    def log_likelihood(theta, obs):
        w, ls = theta["w"], float(theta["log_sigma"])
        r = float(obs["y"]) - float(obs["x"] @ w)
        return -0.5 * (r / math.exp(ls)) ** 2 - ls - 0.5 * LOG_2PI

    def grad_log_likelihood(theta, obs):
        w, ls = theta["w"], float(theta["log_sigma"])
        sigma2 = math.exp(2.0 * ls)
        r = float(obs["y"]) - float(obs["x"] @ w)
        return np.append((r / sigma2) * obs["x"], r * r / sigma2 - 1.0)

    return log_likelihood, grad_log_likelihood


def logreg_2d_rows():
    def log_likelihood(theta, obs):
        z = float(obs["x"] @ theta["w"])
        return float(obs["y"]) * z - np.logaddexp(0.0, z)

    def grad_log_likelihood(theta, obs):
        z = float(obs["x"] @ theta["w"])
        resid = float(obs["y"]) - 1.0 / (1.0 + math.exp(-z))
        return resid * np.asarray(obs["x"], dtype=np.float64)

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
        flat_of = lambda theta: np.concatenate([v.reshape(-1) for v in theta.values()])
        stripped = per_observation(
            layout, *ROW_REFERENCES[name](),
            lambda theta: density.log_prior(flat_of(theta)),
            lambda theta: density.grad_log_prior(flat_of(theta)))
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
