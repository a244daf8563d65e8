"""Potentials: negative unnormalized log posterior and its gradient.

A model supplies the vectorized log-likelihood and score of a batch of
observations plus the log-prior and its gradient, all on the flat parameter
vector and in log space.  There is one evaluator per quantity:
:func:`minibatch_value_grad` gives the stochastic (U~, grad U~), scaling the
mini-batch sums by N/n_eff, where n_eff counts unmasked rows (only a hand-built batch
masks any), so a short epoch tail of k rows is scaled by N/k and stays unbiased; with
``value=False`` it gives only grad U~ and evaluates no log-likelihood or log-prior.
:func:`full_value` gives the exact U from calls on row blocks, holding one (N,) vector.
Without a likelihood, neither reads a batch or the dataset.  :func:`per_observation`
lifts per-observation functions of the named parameters to this contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Layout, layout_size, named
from .data import Dataset, MiniBatch
from .errors import ConfigurationError

FULL_BLOCK_ROWS = 8192  # rows per batch_log_likelihood call of full_value


@dataclass(frozen=True)
class LogDensityModel:
    """Batch log-likelihood/score plus flat log-prior/gradient.

    ``batch_log_likelihood(flat, arrays)`` and ``batch_score(flat, arrays)``
    take the flat parameter vector and a mapping name -> (n, ...) array and
    return shape (n,) and (n, dim); ``log_prior(flat)`` returns a float and
    ``grad_log_prior(flat)`` a (dim,) array.  The batch evaluators may get row
    blocks (views) of the dataset and must not keep the arrays they are given.
    With both batch evaluators None, a density has no likelihood: U is its prior's.
    """

    layout: Layout
    batch_log_likelihood: Callable | None
    batch_score: Callable | None
    log_prior: Callable
    grad_log_prior: Callable

    @property
    def dim(self) -> int:
        return layout_size(self.layout)

    def check_start(self, theta):
        """Refuse, naming ``init_theta``, a chain start that is not of shape ``(dim,)``."""
        if np.shape(theta) != (self.dim,):
            raise ConfigurationError(
                f"initial position must be a flat vector of shape ({self.dim},)",
                field="init_theta")


def per_observation(layout: Layout, log_likelihood, grad_log_likelihood,
                    log_prior, grad_log_prior) -> LogDensityModel:
    """Build a model from per-observation functions of the named parameters.

    ``log_likelihood(theta, obs)`` takes ``theta``, the read-only views
    ``{name: array}`` of :func:`~sgmc.core.named`, and one observation (a
    mapping name -> row), and returns a float; ``grad_log_likelihood`` returns
    the score as a flat (dim,) array, and so does ``grad_log_prior(theta)``.
    The batch evaluators loop over the rows, so a vectorized model is faster.
    """

    def rows(arrays):
        n = next(iter(arrays.values())).shape[0]
        return ({name: arr[i] for name, arr in arrays.items()} for i in range(n))

    def batch_log_likelihood(flat, arrays):
        theta = named(layout, flat)
        return np.array([log_likelihood(theta, obs) for obs in rows(arrays)])

    def batch_score(flat, arrays):
        theta = named(layout, flat)
        return np.stack([grad_log_likelihood(theta, obs) for obs in rows(arrays)])

    return LogDensityModel(
        layout, batch_log_likelihood, batch_score,
        lambda flat: log_prior(named(layout, flat)),
        lambda flat: grad_log_prior(named(layout, flat)),
    )


def minibatch_value_grad(model: LogDensityModel, flat: np.ndarray, batch: MiniBatch,
                         value: bool = True):
    """Flat-vector stochastic potential: (U~, grad U~), or (None, grad U~) without ``value``."""
    if model.batch_score is None:
        return (-float(model.log_prior(flat)) if value else None), -model.grad_log_prior(flat)
    n_eff = batch.n_effective
    if n_eff == 0:
        raise ValueError("mini-batch is fully masked")
    scale = batch.full_size / n_eff
    # select, don't multiply: masked rows may hold arbitrary garbage
    rows = slice(None) if n_eff == batch.size else batch.mask
    scores = np.asarray(model.batch_score(flat, batch.arrays), dtype=np.float64)
    grad = -scale * scores[rows].sum(axis=0) - model.grad_log_prior(flat)
    if not value:
        return None, grad
    ll = np.asarray(model.batch_log_likelihood(flat, batch.arrays), dtype=np.float64)
    return -scale * float(ll[rows].sum()) - float(model.log_prior(flat)), grad


def full_value(model: LogDensityModel, flat: np.ndarray, dataset: Dataset) -> float:
    """Exact potential U = -sum_i log p(y_i | x_i, theta) - log p(theta), by row blocks."""
    if model.batch_log_likelihood is None:  # no likelihood: no pass over the dataset
        return -float(model.log_prior(flat))
    ll = np.empty(dataset.size)
    for start in range(0, dataset.size, FULL_BLOCK_ROWS):
        rows = slice(start, start + FULL_BLOCK_ROWS)
        ll[rows] = model.batch_log_likelihood(
            flat, {name: arr[rows] for name, arr in dataset.arrays.items()})
    return -float(ll.sum()) - float(model.log_prior(flat))

