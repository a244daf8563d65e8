import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from sgmc.core import RandomKey
from sgmc.data import MiniBatch
from sgmc.errors import ConfigurationError
from sgmc.models import builtin_names, get_model, rwmh_oracle, synth_data_generate
from sgmc.potential import full_value, minibatch_value_grad

from conftest import fd_gradient


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
        x = np.array([[0.5, 1.5]])
        score = density.batch_score(np.array([1.0, -2.0, 0.3]), {"x": x, "y": x @ [1.0, -2.0]})
        assert np.allclose(score[0, :2], 0.0, atol=1e-14)

    def test_logreg_symmetry_at_zero_logit(self):
        density = get_model("logreg_2d").density
        arrays = {"x": np.array([[1.0, 2.0], [1.0, 2.0]]), "y": np.array([0.0, 1.0])}
        logp = density.batch_log_likelihood(np.zeros(2), arrays)
        assert logp == pytest.approx([-math.log(2.0)] * 2, rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, 40.0, -40.0, 800.0, -800.0])
    @pytest.mark.parametrize("y", [0.0, 1.0])
    def test_logreg_matches_logaddexp(self, z, y):
        density = get_model("logreg_2d").density
        arrays = {"x": np.array([[1.0, 0.0]]), "y": np.array([y])}
        logp = density.batch_log_likelihood(np.array([z, 0.0]), arrays)
        assert logp[0] == pytest.approx(y * z - np.logaddexp(0.0, z), rel=1e-12, abs=1e-15)

    def test_mixture_modes_equal_height(self):
        model = get_model("mixture_1d")
        at = lambda v: model.density.log_prior(np.array([v]))
        assert at(3.0) == pytest.approx(at(-3.0), rel=1e-12)
        assert at(0.0) < at(3.0)

    @pytest.mark.parametrize("separation, width", [(3.0, 1.0), (2.0, 0.5)])
    @pytest.mark.parametrize("theta", [119.0, -119.0, 1e3, -1e3, 1e6, -1e6])
    def test_mixture_gradient_far_out_is_the_near_modes(self, theta, separation, width):
        # beyond b - a = 709.78 the far mode's weight exp(a - b) underflows to 0
        density = get_model("mixture_1d", separation=separation, width=width).density
        grad = density.grad_log_prior(np.array([theta]))
        assert np.isfinite(grad).all()
        assert grad[0] == -(theta - math.copysign(separation, theta)) / width**2

    @pytest.mark.parametrize("separation, width", [(3.0, 1.0), (2.0, 0.5), (0.5, 3.0)])
    def test_mixture_gradient_keeps_its_bits_below_the_overflow(self, separation, width):
        # the formula without a guard, wherever exp(b - a) is finite
        density = get_model("mixture_1d", separation=separation, width=width).density
        s, inv2 = separation, 1.0 / (width * width)
        edge = 709.78 / (2.0 * s * inv2)  # b - a = 2 s theta / width^2
        near_edge = 0
        for t in np.linspace(-2.0 * edge, 1.01 * edge, 20001):
            a, b = -0.5 * (t + s) ** 2 * inv2, -0.5 * (t - s) ** 2 * inv2
            try:
                w_lo = 1.0 / (1.0 + math.exp(b - a))
            except OverflowError:
                continue
            near_edge += b - a >= 709.0
            expected = -(w_lo * (t + s) + (1.0 - w_lo) * (t - s)) * inv2
            got = density.grad_log_prior(np.array([t]))
            assert got.tobytes() == np.array([expected]).tobytes()
        assert near_edge > 0


class TestLogregFullValue:
    @pytest.fixture(scope="class")
    def dataset(self):
        return synth_data_generate(get_model("logreg_2d"), RandomKey(17), 100_000)

    @pytest.mark.parametrize("w", [(0.02, -0.03), (1.0, -1.5), (40.0, -30.0)])
    def test_matches_logaddexp(self, dataset, w):
        density = get_model("logreg_2d").density
        flat = np.array(w)
        z = dataset["x"] @ flat
        expected = -np.sum(dataset["y"] * z - np.logaddexp(0.0, z)) - density.log_prior(flat)
        assert full_value(density, flat, dataset) == pytest.approx(expected, rel=1e-12)

    def test_leaves_the_data_unchanged(self, dataset):
        x, y = dataset["x"].copy(), dataset["y"].copy()
        full_value(get_model("logreg_2d").density, np.array([1.0, -1.5]), dataset)
        assert np.array_equal(dataset["x"], x)
        assert np.array_equal(dataset["y"], y)


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
            _, analytic = minibatch_value_grad(model.density, flat, batch)
            fd = fd_gradient(lambda x: minibatch_value_grad(model.density, x, batch)[0],
                             flat, h=1e-5)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-8)
            assert rel <= 1e-5, f"{name}: rel err {rel}"


@pytest.mark.parametrize("name", sorted(builtin_names()))
def test_init_is_the_flat_origin(name):
    model = get_model(name)
    assert type(model.init) is np.ndarray
    assert np.array_equal(model.init, np.zeros(model.density.dim))


@pytest.mark.parametrize("n_weights", ["4", 4.0], ids=repr)
def test_model_argument_of_the_wrong_type_names_the_field(n_weights):
    with pytest.raises(ConfigurationError) as err:
        get_model("linreg_sigma", n_weights=n_weights)
    assert err.value.field == "n_weights"


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
        out = rwmh_oracle(model, ds, np.array([0.4]), 0.0, steps=500, key=RandomKey(3))
        assert out["acceptance_rate"] == 1.0
        assert np.all(out["samples"] == 0.4)

    @pytest.mark.parametrize("scale", [-1.0, math.nan, [math.nan]])
    def test_negative_or_nan_proposal_scale_rejected(self, scale):
        model = get_model("std_normal")
        ds = synth_data_generate(model, RandomKey(0), 1)
        with pytest.raises(ValueError):
            rwmh_oracle(model, ds, model.init, scale, steps=100, key=RandomKey(1))

    @pytest.mark.parametrize("name", ["std_normal", "gaussian_mean"])
    @pytest.mark.parametrize("shape", [(3,), (1, 1), ()], ids=str)
    def test_wrong_shape_start_names_the_field(self, name, shape):
        model = get_model(name)
        ds = synth_data_generate(model, RandomKey(0), 5)
        with pytest.raises(ConfigurationError) as err:
            rwmh_oracle(model, ds, np.zeros(shape), 1.0, steps=100, key=RandomKey(1))
        assert err.value.field == "init_theta"

    def test_fixed_key_gives_the_recorded_samples_and_acceptance(self):
        # pinned draws: how the kept samples are stored must not change them
        model = get_model("linreg_sigma", n_weights=3)
        ds = synth_data_generate(model, RandomKey(4), 50)
        out = rwmh_oracle(model, ds, model.init, 0.05, steps=3000, key=RandomKey(17))
        assert out["samples"].shape == (2400, 4) and out["samples"].flags.c_contiguous
        assert hashlib.sha256(out["samples"].tobytes()).hexdigest() == (
            "9bda551be34340394b760577b0abd4f1b69860e39c8b49d4f75a05f51926eabd")
        assert out["acceptance_rate"] == 0.5926666666666667

    def test_peak_memory_is_at_most_one_and_a_half_samples(self):
        model = get_model("linreg_sigma", n_weights=3)
        ds = synth_data_generate(model, RandomKey(4), 50)
        tracemalloc.start()
        try:
            out = rwmh_oracle(model, ds, model.init, 0.05, steps=20000, key=RandomKey(17))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out["samples"].shape == (16000, 4)
        assert peak <= 1.5 * out["samples"].nbytes + 256 * 1024

    @pytest.mark.parametrize("burn_in, kept", [(-5, 10), (0, 10), (10, 0), (15, 0)])
    def test_burn_in_outside_the_steps_keeps_what_it_can(self, burn_in, kept):
        model = get_model("std_normal")
        ds = synth_data_generate(model, RandomKey(0), 1)
        out = rwmh_oracle(model, ds, model.init, 1.0, steps=10, key=RandomKey(2),
                          burn_in=burn_in)
        assert out["samples"].shape == (kept, 1)

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

