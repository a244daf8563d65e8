import numpy as np
import pytest

from sgmc.core import make_layout
from sgmc.data import load_in_memory
from sgmc.models import surrogate_from_logdensity

# chi-square 99th percentiles, indexed by degrees of freedom
CHI2_99 = {2: 9.210, 3: 11.345, 9: 21.666, 15: 30.578}


def quadratic_model(curvatures, offsets=None):
    """Prior-only surrogate with U(theta) = 0.5 sum a_i theta_i^2 + b.theta."""
    a = np.asarray(curvatures, dtype=np.float64)
    b = np.zeros_like(a) if offsets is None else np.asarray(offsets, dtype=np.float64)
    layout = make_layout({"theta": (a.shape[0],)})
    return surrogate_from_logdensity(
        f"quadratic_{a.shape[0]}d", layout,
        lambda flat: float(-0.5 * (a * flat) @ flat - b @ flat),
        lambda flat: -(a * flat + b),
    )


@pytest.fixture
def dummy_dataset():
    return load_in_memory(arrays={"y": np.zeros(1)})


def fd_gradient(f, flat, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of the flat vector: the
    oracle that the analytic gradients are checked against."""
    if h <= 0:
        raise ValueError("step h must be > 0")
    flat = np.asarray(flat, dtype=np.float64)
    grad = np.zeros_like(flat)
    for i in range(flat.shape[0]):
        up, dn = flat.copy(), flat.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (f(up) - f(dn)) / (2.0 * h)
    return grad


@pytest.fixture
def tiny_layout():
    return make_layout({"w": (2,), "log_sigma": ()})
