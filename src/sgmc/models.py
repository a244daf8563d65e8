"""Built-in example models, synthetic data and the full-batch Metropolis oracle.

Each model supplies analytic vectorized batch log-likelihood and score, a
flat log-prior and its gradient and a seeded synthetic-data generator.
``gaussian_mean`` additionally exposes its conjugate closed-form posterior,
which the sampler tests treat as exact ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Layout, RandomKey, make_layout
from .data import Dataset, load_in_memory
from .errors import ConfigurationError, check_kwargs, check_type
from .potential import LogDensityModel, full_value

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class BuiltinModel:
    name: str
    density: LogDensityModel
    generate: Callable  # (key, N, params) -> Dataset
    default_params: dict
    analytic_posterior: Optional[Callable] = None  # dataset -> {"mean","std"}

    @property
    def init(self) -> np.ndarray:
        """The origin, where every built-in model starts."""
        return np.zeros(self.density.dim)


def synth_data_generate(model: BuiltinModel, key: RandomKey, n_obs: int,
                        true_params: dict | None = None) -> Dataset:
    """Reproducible synthetic dataset from the model's generative process; each
    true parameter must be finite numbers of the type and shape of the model's default."""
    if n_obs < 1:
        raise ConfigurationError("need at least one observation", field="n_obs")
    params = dict(model.default_params)
    for name, value in (true_params or {}).items():
        if name not in params:
            raise ConfigurationError(f"model {model.name!r} has no such parameter",
                                     field=name)
        check_type(name, value, (type(params[name]),))
        try:
            arr = np.asarray(value)
        except ValueError:  # a ragged nesting: an object array, refused below
            arr = np.array(None)
        shape = np.shape(params[name])
        if arr.shape != shape or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            raise ConfigurationError(f"need finite numbers of shape {shape}", field=name)
    params.update(true_params or {})
    return model.generate(key, n_obs, params)


def _gaussian_prior(prior_std: float, dim: int):
    """The N(0, prior_std^2 I) log-prior on ``dim`` coordinates and its gradient."""
    if not prior_std > 0:
        raise ConfigurationError("prior_std must be > 0", field="prior_std")
    var0 = prior_std * prior_std

    def log_prior(flat):
        return float(-0.5 * (flat @ flat) / var0 - 0.5 * dim * math.log(2.0 * math.pi * var0))

    def grad_log_prior(flat):
        return -flat / var0

    return log_prior, grad_log_prior


# ---------------------------------------------------------------------------
# gaussian_mean: y ~ N(mu, 1), prior mu ~ N(0, prior_std^2).  Conjugate.

def make_gaussian_mean(prior_std: float = 10.0) -> BuiltinModel:
    log_prior, grad_log_prior = _gaussian_prior(prior_std, 1)
    layout = make_layout({"mu": ()})

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
        var_n = 1.0 / (1.0 / (prior_std * prior_std) + y.shape[0])
        return {"mean": {"mu": var_n * y.sum()}, "std": {"mu": math.sqrt(var_n)}}

    density = LogDensityModel(layout, batch_log_likelihood, batch_score,
                              log_prior, grad_log_prior)
    return BuiltinModel(
        name="gaussian_mean",
        density=density,
        generate=generate,
        default_params={"mu": 0.5},
        analytic_posterior=analytic_posterior,
    )


# ---------------------------------------------------------------------------
# linreg_sigma: y = x.w + eps, eps ~ N(0, sigma^2), sigma = exp(log_sigma).
# Improper uniform prior on w, exponential(1) prior on sigma (log-prior -sigma).

def make_linreg_sigma(n_weights: int = 4) -> BuiltinModel:
    if n_weights < 1:
        raise ConfigurationError("need at least one weight", field="n_weights")
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
        kx, ke = key.child(0), key.child(1)
        x = kx.generator().standard_normal((n_obs, d)) * params.get("x_scale", 1.0)
        y = x @ w + params["sigma"] * ke.generator().standard_normal(n_obs)
        return load_in_memory(arrays={"x": x, "y": y})

    density = LogDensityModel(layout, batch_log_likelihood, batch_score,
                              log_prior, grad_log_prior)
    return BuiltinModel(
        name="linreg_sigma",
        density=density,
        generate=generate,
        default_params={"w": [0.5, -1.0, 2.0, 0.25][:d] + [0.0] * max(0, d - 4),
                        "sigma": 0.5, "x_scale": 1.0},
    )


# ---------------------------------------------------------------------------
# logreg_2d: Bernoulli labels with logistic link, N(0, prior_std^2) prior.

def make_logreg_2d(prior_std: float = 10.0) -> BuiltinModel:
    log_prior, grad_log_prior = _gaussian_prior(prior_std, 2)
    layout = make_layout({"w": (2,)})

    def batch_log_likelihood(flat, arrays):
        # y*z - softplus(z), with softplus(z) = max(z, 0) + log(1 + exp(-|z|)):
        # overflow-free, and np.exp/np.log are SIMD loops where np.logaddexp
        # and np.log1p are scalar.  As exp(-|z|) <= 1, log(1 + e) is off by at
        # most ~2e-16 absolute.  z is fresh from x @ flat, so it and one
        # scratch array are written in place.
        z = arrays["x"] @ flat
        s = np.abs(z)
        np.negative(s, out=s)
        np.exp(s, out=s)
        s += 1.0
        np.log(s, out=s)
        s += np.maximum(z, 0.0)
        z *= arrays["y"]
        z -= s
        return z

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
    )


# ---------------------------------------------------------------------------
# Prior-only surrogates: a density without a likelihood, whose potential is the
# (negative) log-density itself.

def surrogate_from_logdensity(name: str, layout: Layout, log_density,
                              grad_log_density) -> BuiltinModel:
    """Wrap a closed-form target density as a data-free builtin model.

    ``log_density``/``grad_log_density`` act on the flat parameter vector and are
    the prior of a density without a likelihood: U(theta) = -log_density(theta),
    exactly and on every mini-batch.  Its dataset, ``n_obs`` zeros, is never read.
    """

    def generate(key, n_obs, params):
        return load_in_memory(arrays={"y": np.zeros(n_obs)})

    density = LogDensityModel(
        layout, None, None,
        lambda flat: float(log_density(flat)),
        lambda flat: np.asarray(grad_log_density(flat), dtype=np.float64),
    )
    return BuiltinModel(
        name=name,
        density=density,
        generate=generate,
        default_params={},
    )


def make_mixture_1d(separation: float = 3.0, width: float = 1.0) -> BuiltinModel:
    """Equal-weight two-Gaussian target with modes at +-separation."""
    layout = make_layout({"theta": ()})
    s, sd = float(separation), float(width)
    if not math.isfinite(s):
        raise ConfigurationError("separation must be finite", field="separation")
    if not sd > 0:
        raise ConfigurationError("component width must be > 0", field="width")
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
        # responsibility of the -s mode; 0 where exp(b - a) would overflow
        w_lo = 0.0 if b - a >= 709.0 else 1.0 / (1.0 + math.exp(b - a))
        return np.array([-(w_lo * (t + s) + (1.0 - w_lo) * (t - s)) * inv2])

    return surrogate_from_logdensity("mixture_1d", layout, log_density, grad_log_density)


def make_std_normal(dim: int = 1) -> BuiltinModel:
    """Standard normal target U = |theta|^2 / 2 (solver calibration runs)."""
    if dim < 1:
        raise ConfigurationError("need dim >= 1", field="dim")
    layout = make_layout({"theta": (dim,)} if dim > 1 else {"theta": ()})
    return surrogate_from_logdensity(
        "std_normal", layout,
        lambda flat: float(-0.5 * flat @ flat - 0.5 * dim * LOG_2PI),
        lambda flat: -flat,
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
    check_kwargs(f"model {name!r}", factory, kwargs)
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# Full-batch random-walk Metropolis oracle.

def rwmh_oracle(model: BuiltinModel, dataset: Dataset, theta0: np.ndarray,
                proposal_scale, steps: int, key: RandomKey, burn_in: int | None = None):
    """Gradient-free random-walk Metropolis targeting exp(-U) on the full data.

    ``theta0`` is the flat start of shape ``(dim,)``.  ``proposal_scale`` is
    a scalar or per-coordinate vector of Gaussian jump widths.  Returns
    post-burn-in samples plus the overall acceptance rate; each kept draw is
    written into one ``(steps - burn_in, dim)`` array allocated up front.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    burn_in = steps // 5 if burn_in is None else max(burn_in, 0)
    density = model.density
    density.check_start(theta0)
    scale = np.asarray(proposal_scale, dtype=np.float64)
    if not np.all(scale >= 0):
        raise ValueError("proposal scale must be >= 0")
    flat = np.array(theta0, dtype=np.float64)
    u = full_value(density, flat, dataset)
    rng = key.generator()
    samples = np.empty((max(steps - burn_in, 0), *flat.shape))
    accepts = 0
    for t in range(steps):
        prop = flat + scale * rng.standard_normal(flat.shape)
        u_prop = full_value(density, prop, dataset)
        if math.log(rng.random()) < u - u_prop:
            flat, u = prop, u_prop
            accepts += 1
        if t >= burn_in:
            samples[t - burn_in] = flat
    return {"samples": samples, "acceptance_rate": accepts / steps}

