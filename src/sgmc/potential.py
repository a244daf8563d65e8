"""Potentials: negative unnormalized log posterior and its gradient.

A model supplies the vectorized log-likelihood and score of a batch of
observations plus the log-prior and its gradient, all on the flat parameter
vector and in log space.  The stochastic potential scales the mini-batch
likelihood sum by N/n_eff, where n_eff counts unmasked rows, so padded epoch
tails stay unbiased; the true potential sums the whole dataset via masked
sweeps.  :func:`per_observation` lifts per-observation functions of a
:class:`ParameterVector` to this contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Layout, ParameterVector, layout_size, structure
from .data import Dataset, MiniBatch, full_data_map, sequential_batches


@dataclass(frozen=True)
class LogDensityModel:
    """Batch log-likelihood/score plus flat log-prior/gradient.

    ``batch_log_likelihood(flat, arrays)`` and ``batch_score(flat, arrays)``
    take the flat parameter vector and a mapping name -> (n, ...) array and
    return shape (n,) and (n, dim); ``log_prior(flat)`` returns a float and
    ``grad_log_prior(flat)`` a (dim,) array.
    """

    layout: Layout
    batch_log_likelihood: Callable
    batch_score: Callable
    log_prior: Callable
    grad_log_prior: Callable

    @property
    def dim(self) -> int:
        return layout_size(self.layout)


def per_observation(layout: Layout, log_likelihood, grad_log_likelihood,
                    log_prior, grad_log_prior) -> LogDensityModel:
    """Build a model from per-observation functions of a ParameterVector.

    ``log_likelihood(theta, obs)`` consumes one observation (a mapping
    name -> row) and returns a float; ``grad_log_likelihood`` returns the
    score as a ParameterVector, and so does ``grad_log_prior(theta)``.  The
    batch evaluators loop over the rows, so a vectorized model is faster.
    """

    def rows(arrays):
        n = next(iter(arrays.values())).shape[0]
        return ({name: arr[i] for name, arr in arrays.items()} for i in range(n))

    def batch_log_likelihood(flat, arrays):
        theta = structure(layout, flat)
        return np.array([log_likelihood(theta, obs) for obs in rows(arrays)])

    def batch_score(flat, arrays):
        theta = structure(layout, flat)
        return np.stack([grad_log_likelihood(theta, obs).values for obs in rows(arrays)])

    return LogDensityModel(
        layout, batch_log_likelihood, batch_score,
        lambda flat: log_prior(structure(layout, flat)),
        lambda flat: grad_log_prior(structure(layout, flat)).values,
    )


def minibatch_value_grad(model: LogDensityModel, flat: np.ndarray, batch: MiniBatch):
    """Flat-vector stochastic potential: (U~, grad U~)."""
    n_eff = batch.n_effective
    if n_eff == 0:
        raise ValueError("mini-batch is fully masked")
    scale = batch.full_size / n_eff
    ll = np.asarray(model.batch_log_likelihood(flat, batch.arrays), dtype=np.float64)
    scores = np.asarray(model.batch_score(flat, batch.arrays), dtype=np.float64)
    if batch.mask.all():
        ll_sum, score_sum = float(ll.sum()), scores.sum(axis=0)
    else:
        # select, don't multiply: masked rows may hold arbitrary garbage
        ll_sum = float(ll[batch.mask].sum())
        score_sum = scores[batch.mask].sum(axis=0)
    value = -scale * ll_sum - float(model.log_prior(flat))
    grad = -scale * score_sum - model.grad_log_prior(flat)
    return value, grad


def minibatch_potential_eval(model: LogDensityModel, theta: ParameterVector, batch: MiniBatch):
    """Stochastic potential U~ and its gradient for one mini-batch."""
    value, grad = minibatch_value_grad(model, theta.values, batch)
    return value, ParameterVector(model.layout, grad)


def full_value(model: LogDensityModel, flat: np.ndarray, dataset: Dataset, n: int) -> float:
    def fn(_, batch):
        ll = np.asarray(model.batch_log_likelihood(flat, batch.arrays), dtype=np.float64)
        return float(ll[batch.mask].sum())

    total = full_data_map(fn, dataset, None, n, reduce="sum")
    return -total - float(model.log_prior(flat))


def full_potential_eval(model: LogDensityModel, theta: ParameterVector, dataset: Dataset, n: int):
    """True potential U = -sum_i log p(y_i | x_i, theta) - log p(theta)."""
    flat = theta.values
    total_ll = 0.0
    total_score = np.zeros(model.dim)
    for batch in sequential_batches(dataset, n):
        ll = np.asarray(model.batch_log_likelihood(flat, batch.arrays), dtype=np.float64)
        scores = np.asarray(model.batch_score(flat, batch.arrays), dtype=np.float64)
        total_ll += float(ll[batch.mask].sum())
        total_score += scores[batch.mask].sum(axis=0)
    value = -total_ll - float(model.log_prior(flat))
    grad = -total_score - model.grad_log_prior(flat)
    return value, ParameterVector(model.layout, grad)


def fd_gradient(f, theta: ParameterVector, h: float = 1e-5) -> ParameterVector:
    """Central finite differences of a scalar function of theta (oracle use)."""
    if h <= 0:
        raise ValueError("step h must be > 0")
    flat = theta.values
    grad = np.zeros_like(flat)
    for i in range(flat.shape[0]):
        up, dn = flat.copy(), flat.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (
            f(ParameterVector(theta.layout, up)) - f(ParameterVector(theta.layout, dn))
        ) / (2.0 * h)
    return ParameterVector(theta.layout, grad)
