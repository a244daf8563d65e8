"""Chain summaries: (weighted) moments and effective sample size."""

from __future__ import annotations

import numpy as np


def weighted_moments(samples, weights=None):
    """Weighted mean and frequency-style unbiased variance.

    With uniform weights this reproduces the plain sample mean and the
    ddof=1 sample variance exactly.
    """
    x = np.asarray(samples, dtype=np.float64)
    if weights is None:
        w = np.ones(x.shape[0])
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape[0] != x.shape[0]:
            raise ValueError("weights and samples must have equal length")
        if np.any(w < 0) or w.sum() == 0:
            raise ValueError("weights must be nonnegative and not all zero")
    total = w.sum()
    mean = float((w * x).sum() / total)
    denom = total - (w * w).sum() / total
    if denom <= 0:
        return mean, 0.0
    var = float((w * (x - mean) ** 2).sum() / denom)
    return mean, var


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Normalized autocorrelation function via FFT."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spec * np.conj(spec), size)[:n] / n
    if not np.isfinite(acov[0]) or acov[0] <= 0:
        return np.zeros(n)
    return acov / acov[0]


def effective_sample_size(samples) -> float:
    """ESS via Geyer's initial positive sequence truncation.

    A degenerate (constant) chain returns the floor value 1.
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("ESS needs at least two samples")
    if (x == x[0]).all() or not np.all(np.isfinite(x)):
        return 1.0
    rho = autocorrelation(x)
    if not rho.any():
        return 1.0
    tau = -1.0
    m = 0
    while 2 * m + 1 < n:
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 1
    tau = max(tau, 1.0)
    return float(min(max(n / tau, 1.0), n))


def diagnostics_summary(samples) -> dict:
    """{mean, std, ess} of a scalar chain."""
    ess = effective_sample_size(samples)  # refuses fewer than two samples
    mean, var = weighted_moments(samples)
    return {"mean": mean, "std": float(np.sqrt(var)), "ess": ess}
