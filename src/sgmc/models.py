"""Built-in example models, synthetic data and the full-batch Metropolis oracle.

Each model supplies analytic vectorized batch log-likelihood and score, a
flat log-prior and its gradient and a seeded synthetic-data generator.
``gaussian_mean`` additionally exposes its conjugate closed-form posterior,
which the sampler tests treat as exact ground truth.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Layout, ParameterVector, RandomKey, make_layout
from .data import Dataset, load_in_memory
from .errors import ConfigurationError
from .potential import LogDensityModel, full_value

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class BuiltinModel:
    name: str
    density: LogDensityModel
    generate: Callable  # (key, N, params) -> Dataset
    default_params: dict
    init: ParameterVector
    analytic_posterior: Optional[Callable] = None  # dataset -> {"mean","std"}

    @property
    def layout(self) -> Layout:
        return self.density.layout


def synth_data_generate(model: BuiltinModel, key: RandomKey, n_obs: int,
                        true_params: dict | None = None) -> Dataset:
    """Reproducible synthetic dataset from the model's generative process."""
    if n_obs < 1:
        raise ConfigurationError("need at least one observation", field="n_obs")
    params = dict(model.default_params)
    for name in true_params or {}:
        if name not in params:
            raise ConfigurationError(f"model {model.name!r} has no such parameter",
                                     field=name)
    params.update(true_params or {})
    return model.generate(key, n_obs, params)


# ---------------------------------------------------------------------------
# gaussian_mean: y ~ N(mu, 1), prior mu ~ N(0, prior_std^2).  Conjugate.

def make_gaussian_mean(prior_std: float = 10.0) -> BuiltinModel:
    layout = make_layout({"mu": ()})
    var0 = prior_std * prior_std

    def log_prior(flat):
        mu = float(flat[0])
        return -0.5 * mu * mu / var0 - 0.5 * math.log(2.0 * math.pi * var0)

    def grad_log_prior(flat):
        return np.array([-flat[0] / var0])

    def batch_log_likelihood(flat, arrays):
        r = arrays["y"] - flat[0]
        return -0.5 * r * r - 0.5 * LOG_2PI

    def batch_score(flat, arrays):
        return (arrays["y"] - flat[0])[:, None]

    def generate(key, n_obs, params):
        y = params["mu"] + key.generator().standard_normal(n_obs)
        return load_in_memory(arrays={"y": y})

    def analytic_posterior(dataset):
        y = dataset["y"]
        var_n = 1.0 / (1.0 / var0 + y.shape[0])
        return {"mean": {"mu": var_n * y.sum()}, "std": {"mu": math.sqrt(var_n)}}

    density = LogDensityModel(layout, batch_log_likelihood, batch_score,
                              log_prior, grad_log_prior)
    return BuiltinModel(
        name="gaussian_mean",
        density=density,
        generate=generate,
        default_params={"mu": 0.5},
        init=ParameterVector(layout, np.zeros(1)),
        analytic_posterior=analytic_posterior,
    )


# ---------------------------------------------------------------------------
# linreg_sigma: y = x.w + eps, eps ~ N(0, sigma^2), sigma = exp(log_sigma).
# Improper uniform prior on w, exponential(1) prior on sigma (log-prior -sigma).

def make_linreg_sigma(n_weights: int = 4) -> BuiltinModel:
    layout = make_layout({"w": (n_weights,), "log_sigma": ()})
    d = n_weights

    def _parts(flat):
        return flat[:d], flat[d]

    def log_prior(flat):
        return -math.exp(flat[d])  # exponential(1) on sigma; flat on w

    def grad_log_prior(flat):
        g = np.zeros(d + 1)
        g[d] = -math.exp(flat[d])
        return g

    def batch_log_likelihood(flat, arrays):
        w, ls = _parts(flat)
        sigma = math.exp(ls)
        r = arrays["y"] - arrays["x"] @ w
        return -0.5 * (r / sigma) ** 2 - ls - 0.5 * LOG_2PI

    def batch_score(flat, arrays):
        w, ls = _parts(flat)
        sigma2 = math.exp(2.0 * ls)
        r = arrays["y"] - arrays["x"] @ w
        out = np.empty((r.shape[0], d + 1))
        out[:, :d] = (r / sigma2)[:, None] * arrays["x"]
        out[:, d] = r * r / sigma2 - 1.0
        return out

    def generate(key, n_obs, params):
        w = np.asarray(params["w"], dtype=np.float64)
        if w.shape[0] != d:
            raise ValueError(f"expected {d} true weights, got {w.shape[0]}")
        kx, ke = key.child(0), key.child(1)
        x = kx.generator().standard_normal((n_obs, d)) * params.get("x_scale", 1.0)
        y = x @ w + params["sigma"] * ke.generator().standard_normal(n_obs)
        return load_in_memory(arrays={"x": x, "y": y})

    density = LogDensityModel(layout, batch_log_likelihood, batch_score,
                              log_prior, grad_log_prior)
    init = np.zeros(d + 1)
    init[d] = 0.0  # sigma starts at 1
    return BuiltinModel(
        name="linreg_sigma",
        density=density,
        generate=generate,
        default_params={"w": [0.5, -1.0, 2.0, 0.25][:d] + [0.0] * max(0, d - 4),
                        "sigma": 0.5, "x_scale": 1.0},
        init=ParameterVector(layout, init),
    )


# ---------------------------------------------------------------------------
# logreg_2d: Bernoulli labels with logistic link, N(0, prior_std^2) prior.

def make_logreg_2d(prior_std: float = 10.0) -> BuiltinModel:
    layout = make_layout({"w": (2,)})
    var0 = prior_std * prior_std

    def log_prior(flat):
        return float(-0.5 * (flat @ flat) / var0 - math.log(2.0 * math.pi * var0))

    def grad_log_prior(flat):
        return -flat / var0

    def batch_log_likelihood(flat, arrays):
        z = arrays["x"] @ flat
        return arrays["y"] * z - np.logaddexp(0.0, z)

    def batch_score(flat, arrays):
        z = arrays["x"] @ flat
        resid = arrays["y"] - 1.0 / (1.0 + np.exp(-z))
        return resid[:, None] * arrays["x"]

    def generate(key, n_obs, params):
        w = np.asarray(params["w"], dtype=np.float64)
        kx, ky = key.child(0), key.child(1)
        x = kx.generator().standard_normal((n_obs, 2))
        prob = 1.0 / (1.0 + np.exp(-(x @ w)))
        y = (ky.generator().random(n_obs) < prob).astype(np.float64)
        return load_in_memory(arrays={"x": x, "y": y})

    density = LogDensityModel(layout, batch_log_likelihood, batch_score,
                              log_prior, grad_log_prior)
    return BuiltinModel(
        name="logreg_2d",
        density=density,
        generate=generate,
        default_params={"w": [1.0, -1.5]},
        init=ParameterVector(layout, np.zeros(2)),
    )


# ---------------------------------------------------------------------------
# Prior-only surrogates: the potential is the (negative) log-density itself,
# served through a single dummy observation so the data plumbing stays uniform.

def surrogate_from_logdensity(name: str, layout: Layout, log_density, grad_log_density,
                              sample=None) -> BuiltinModel:
    """Wrap a closed-form target density as a data-free builtin model.

    ``log_density``/``grad_log_density`` act on the flat parameter vector; the
    likelihood is identically zero so U(theta) = -log_density(theta) for any
    batch, making stochastic and exact potentials coincide.
    """
    dim = sum(int(np.prod(s)) for _, s in layout)

    def generate(key, n_obs, params):
        if sample is not None:
            return load_in_memory(arrays={"y": sample(key, n_obs)})
        return load_in_memory(arrays={"y": np.zeros(n_obs)})

    density = LogDensityModel(
        layout,
        lambda flat, arrays: np.zeros(arrays["y"].shape[0]),
        lambda flat, arrays: np.zeros((arrays["y"].shape[0], dim)),
        lambda flat: float(log_density(flat)),
        lambda flat: np.asarray(grad_log_density(flat), dtype=np.float64),
    )
    return BuiltinModel(
        name=name,
        density=density,
        generate=generate,
        default_params={},
        init=ParameterVector(layout, np.zeros(dim)),
    )


def make_mixture_1d(separation: float = 3.0, width: float = 1.0) -> BuiltinModel:
    """Equal-weight two-Gaussian target with modes at +-separation."""
    layout = make_layout({"theta": ()})
    s, sd = float(separation), float(width)
    if sd <= 0:
        raise ValueError("component width must be > 0")
    inv2 = 1.0 / (sd * sd)

    def log_density(flat):
        t = flat[0]
        return float(
            np.logaddexp(-0.5 * (t + s) ** 2 * inv2, -0.5 * (t - s) ** 2 * inv2)
            + math.log(0.5) - 0.5 * LOG_2PI - math.log(sd)
        )

    def grad_log_density(flat):
        t = flat[0]
        a, b = -0.5 * (t + s) ** 2 * inv2, -0.5 * (t - s) ** 2 * inv2
        w_lo = 1.0 / (1.0 + math.exp(b - a))  # responsibility of the -s mode
        return np.array([-(w_lo * (t + s) + (1.0 - w_lo) * (t - s)) * inv2])

    def sample(key, n_obs):
        rng = key.generator()
        signs = np.where(rng.random(n_obs) < 0.5, -1.0, 1.0)
        return signs * s + sd * rng.standard_normal(n_obs)

    model = surrogate_from_logdensity("mixture_1d", layout, log_density,
                                      grad_log_density, sample=sample)
    return model


def make_std_normal(dim: int = 1) -> BuiltinModel:
    """Standard normal target U = |theta|^2 / 2 (solver calibration runs)."""
    layout = make_layout({"theta": (dim,)} if dim > 1 else {"theta": ()})
    return surrogate_from_logdensity(
        "std_normal", layout,
        lambda flat: float(-0.5 * flat @ flat - 0.5 * dim * LOG_2PI),
        lambda flat: -flat,
        sample=lambda key, n: key.generator().standard_normal(n),
    )


_REGISTRY = {
    "gaussian_mean": make_gaussian_mean,
    "linreg_sigma": make_linreg_sigma,
    "logreg_2d": make_logreg_2d,
    "mixture_1d": make_mixture_1d,
    "std_normal": make_std_normal,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def get_model(name: str, **kwargs) -> BuiltinModel:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(f"unknown model {name!r}", field="model") from None
    accepted = inspect.signature(factory).parameters
    for key in kwargs:
        if key not in accepted:
            raise ConfigurationError(f"model {name!r} takes no such argument", field=key)
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# Full-batch random-walk Metropolis oracle.

def rwmh_oracle(model: BuiltinModel, dataset: Dataset, theta0: ParameterVector,
                proposal_scale, steps: int, key: RandomKey, burn_in: int | None = None):
    """Gradient-free random-walk Metropolis targeting exp(-U) on the full data.

    ``proposal_scale`` is a scalar or per-coordinate vector of Gaussian jump
    widths.  Returns post-burn-in samples plus the overall acceptance rate.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if burn_in is None:
        burn_in = steps // 5
    density = model.density
    scale = np.asarray(proposal_scale, dtype=np.float64)
    if np.any(scale < 0):
        raise ValueError("proposal scale must be >= 0")
    flat = theta0.values.copy()
    dim = flat.shape[0]
    u = full_value(density, flat, dataset)
    rng = key.generator()
    kept = []
    accepts = 0
    for t in range(steps):
        prop = flat + scale * rng.standard_normal(dim)
        u_prop = full_value(density, prop, dataset)
        if math.log(rng.random()) < u - u_prop:
            flat, u = prop, u_prop
            accepts += 1
        if t >= burn_in:
            kept.append(flat.copy())
    samples = np.stack(kept) if kept else np.empty((0, dim))
    return {"samples": samples, "acceptance_rate": accepts / steps}

