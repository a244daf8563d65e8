"""One-step / one-trajectory simulators of the sampling dynamics.

All integrators operate on flat float64 arrays from the solver, never written into, with
unit mass, a temperature ``tau >= 0`` (tau = 0 switches noise off) and a noise generator ``rng``.
Their step sizes and knobs are checked where they are set: by the scheduler and the blocks.
Work accumulators (``W``) follow the amortized Metropolis convention: with
exact gradients and no friction the acceptance exponent U0 - UL + W of the
wrapping solver reduces to -dH, which the test suite enforces.
"""

from __future__ import annotations

import math

import numpy as np

from .core import normal_flat
from .errors import NumericError


def langevin_step(theta, grad, step_size, tau=1.0, precond=None,
                  rng: np.random.Generator = None):
    """Overdamped Langevin update with optional diagonal preconditioner P:

    theta' = theta - (eps/2) P g + sqrt(eps tau) sqrt(P) xi,   xi ~ N(0, I)
    """
    drift = grad if precond is None else precond * grad
    out = theta - 0.5 * step_size * drift
    if tau > 0.0:
        noise = normal_flat(rng, theta.shape[0], math.sqrt(step_size * tau))
        out = out + (noise if precond is None else np.sqrt(precond) * noise)
    if not np.isfinite(out).all():
        raise NumericError("langevin_step produced a non-finite position")
    return out


def sghmc_step(theta, p, grad, step_size, friction, noise_estimate=0.0, tau=1.0,
               rng: np.random.Generator = None):
    """Leapfrog-with-friction update (momentum first, then position):

    p' = p - eps g - eps C p + xi,  xi ~ N(0, 2 (C - B) eps tau I)
    theta' = theta + eps p'
    """
    var = 2.0 * (friction - noise_estimate) * step_size * tau
    p_new = p - step_size * grad - step_size * friction * p
    if var > 0.0:
        p_new = p_new + normal_flat(rng, p.shape[0], math.sqrt(var))
    theta_new = theta + step_size * p_new
    if not (np.isfinite(theta_new).all() and np.isfinite(p_new).all()):
        raise NumericError("sghmc_step produced a non-finite state")
    return theta_new, p_new


def reversible_leapfrog_trajectory(theta, p, n_steps, step_size, beta, grad_fn,
                                   tau=1.0, rng: np.random.Generator = None):
    """Time-reversible noisy leapfrog over ``n_steps``; returns (theta, p, W).

    Positions live at half steps; each momentum update damps by
    (1-beta)/(1+beta) and injects N(0, 4 beta tau I) noise.  W is the
    trapezoidal work of the (stochastic) gradient force,
    sum_t (eps/2) (p_{t-1} + p_t) . g_t, which telescopes to -dK when
    beta = 0 and the gradients are exact.
    """
    eps = float(step_size)
    theta = theta + 0.5 * eps * p
    noise_scale = math.sqrt(4.0 * beta * tau) if beta > 0 and tau > 0 else 0.0
    work = 0.0
    for t in range(n_steps):
        g = grad_fn(theta)
        kick = (1.0 - beta) * p - eps * g
        if noise_scale > 0.0:
            kick = kick + normal_flat(rng, p.shape[0], noise_scale)
        p_new = kick / (1.0 + beta)
        work += 0.5 * eps * float((p + p_new) @ g)
        p = p_new
        theta = theta + (eps if t < n_steps - 1 else 0.5 * eps) * p
    if not (np.isfinite(theta).all() and np.isfinite(p).all()):
        raise NumericError("leapfrog trajectory diverged")
    return theta, p, work


def obabo_trajectory(theta, p, n_steps, step_size, friction_gamma, grad_fn,
                     tau=1.0, rng: np.random.Generator = None):
    """Symmetric OU / kick / drift / kick / OU splitting; returns (theta, p, W).

    Per step, with a = exp(-gamma eps / 2):
      O: p <- a p + sqrt((1 - a^2) tau) xi
      B: p <- p - (eps/2) g(theta)
      A: theta <- theta + eps p
      B: p <- p - (eps/2) g(theta)
      O: as above
    W accumulates the kinetic-energy drop across each BAB core (equivalently
    the trapezoidal stochastic work, the two coincide exactly), so the
    wrapping solver's exponent U_start - U_end + W is the exact -dH of the
    Metropolized segment when gradients are exact.
    """
    eps = float(step_size)
    a = math.exp(-0.5 * friction_gamma * eps)
    ou_scale = math.sqrt(max(0.0, (1.0 - a * a) * tau))
    dim = p.shape[0]
    work = 0.0

    def ou_half(p_in):
        out = a * p_in if a < 1.0 else p_in
        if ou_scale > 0.0:
            out = out + normal_flat(rng, dim, ou_scale)
        return out

    for _ in range(n_steps):
        p = ou_half(p)
        k_in = 0.5 * float(p @ p)
        p = p - 0.5 * eps * grad_fn(theta)
        theta = theta + eps * p
        p = p - 0.5 * eps * grad_fn(theta)
        work += k_in - 0.5 * float(p @ p)
        p = ou_half(p)
    if not (np.isfinite(theta).all() and np.isfinite(p).all()):
        raise NumericError("OBABO trajectory diverged")
    return theta, p, work
