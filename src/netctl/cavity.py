"""Ensemble-averaged driver-node fraction from degree distributions.

A directed ensemble is described by its in- and out-degree distributions;
the expected driver fraction follows from a six-variable self-consistent
fixed point evaluated through the distributions' generating functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvariantViolation, NonConvergence


class PoissonDist:
    """Poisson degree distribution with the given per-direction mean.

    Generating functions: G(x) = exp(mean (x-1)); the edge-excess
    function H coincides with G.
    """

    def __init__(self, mean: float):
        if mean < 0:
            raise InvalidArgument("mean must be nonnegative")
        self.mean = float(mean)

    def pmf(self, k: int) -> float:
        return math.exp(-self.mean) * self.mean**k / math.factorial(k)

    def g(self, x: float) -> float:
        return math.exp(self.mean * (x - 1.0))

    def h(self, x: float) -> float:
        return self.g(x)


class SFStaticDist:
    """Power-law degree distribution of the static model with exponent
    gamma > 2 and per-direction mean degree `mean`.

    The distribution is a Poisson mixture: node u ∈ (0,1) has rate
    lam(u) = mean (1-a) u^(-a) with a = 1/(gamma-1), which yields
    P(k) ~ k^(-gamma) for large k.  Generating functions are computed by
    400-point Gauss–Legendre quadrature after the substitution u = t^p (p
    grows as gamma -> 2 to resolve the integrable singularity at u = 0).
    """

    def __init__(self, mean: float, gamma: float):
        if gamma <= 2:
            raise InvalidArgument("gamma must exceed 2")
        if mean <= 0:
            raise InvalidArgument("mean must be positive")
        self.mean = float(mean)
        self.gamma = float(gamma)
        a = 1.0 / (gamma - 1.0)
        # u = t^p flattens the u^(-a) singularity exactly; with this p the
        # transformed mean integrand is constant in t
        p = 1.0 / (1.0 - a)
        t, wt = np.polynomial.legendre.leggauss(400)
        t = 0.5 * (t + 1.0)
        wt = 0.5 * wt
        # All node quantities are kept in log space: near u = 0 the rate
        # overflows while the jacobian-weighted quadrature weight
        # underflows, but their product wt*p*mean*(1-a) stays finite.
        log_t = np.log(t)
        self._log_lam = math.log(mean * (1.0 - a)) - a * p * log_t
        self._log_w = np.log(wt * p) + (p - 1.0) * log_t
        self._log_wl = np.log(wt * p) + math.log(mean * (1.0 - a))
        # clamped rate: huge-but-finite so lam*(x-1) is -inf-like for any
        # x < 1 yet exactly 0 at x = 1
        self._lam = np.exp(np.minimum(self._log_lam, 705.0))
        # quadrature must reproduce the mean: <k> = ∫ lam(u) du
        quad_mean = float(np.exp(self._log_wl).sum())
        if not abs(quad_mean - mean) < 1e-8 * mean:
            raise InvariantViolation(
                f"quadrature mean {quad_mean!r} differs from <k> = {mean!r}")

    def pmf(self, k: int) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            e = self._log_w + k * self._log_lam - self._lam - math.lgamma(k + 1)
        return float(np.exp(e).sum())

    def g(self, x: float) -> float:
        # clip: quadrature roundoff can overshoot the exact range by a few ulp
        return min(float(np.exp(self._log_w + self._lam * (x - 1.0)).sum()), 1.0)

    def h(self, x: float) -> float:
        e = self._log_wl + self._lam * (x - 1.0)
        return min(float(np.exp(e).sum()) / self.mean, 1.0)


@dataclass
class CavityState:
    w1: float
    w2: float
    w3: float
    w1_hat: float
    w2_hat: float
    w3_hat: float


def solve_cavity(dist_in, dist_out, z: float, max_iter: int = 100_000):
    """Driver-node fraction for an ensemble with the given in/out degree
    distributions and mean total degree z, via fixed-point iteration of the
    self-consistency equations, each sweep moving halfway to the update.

    Returns (n_d, CavityState).  Raises NonConvergence if the residual,
    times max(1, z/2), stays at or above 1e-10 after max_iter sweeps.
    """
    if z <= 0:
        raise InvalidArgument("mean degree must be positive")
    g, h = dist_out.g, dist_out.h
    g_hat, h_hat = dist_in.g, dist_in.h
    # The submanifold {w2 = 1 - w1_hat, w2_hat = 1 - w1} is invariant under
    # the iteration and carries a spurious fixed point for dense ensembles;
    # the initial point is chosen off it.  Both physical branches give the
    # same driver fraction.
    w1, w2 = 0.5, 0.25
    w1h, w2h = 0.5, 0.25
    residual = math.inf
    for _ in range(max_iter):
        n1 = h(w2h)
        n2 = 1.0 - h(1.0 - w1h)
        n1h = h_hat(w2)
        n2h = 1.0 - h_hat(1.0 - w1)
        residual = max(abs(n1 - w1), abs(n2 - w2),
                       abs(n1h - w1h), abs(n2h - w2h))
        w1 = 0.5 * w1 + 0.5 * n1
        w2 = 0.5 * w2 + 0.5 * n2
        w1h = 0.5 * w1h + 0.5 * n1h
        w2h = 0.5 * w2h + 0.5 * n2h
        # n_d below weighs the w's by z/2, and so their error
        if residual * max(1.0, z / 2.0) < 1e-10:
            break
    else:
        raise NonConvergence(residual, max_iter)
    n_d = 0.5 * (
        (g(w2h) + g(1.0 - w1h) - 1.0)
        + (g_hat(w2) + g_hat(1.0 - w1) - 1.0)
        + (z / 2.0) * (w1h * (1.0 - w2) + w1 * (1.0 - w2h))
    )
    if not -1e-9 <= n_d <= 1.0 + 1e-9:
        raise InvariantViolation(f"driver fraction {n_d!r} outside [0, 1]")
    state = CavityState(w1, w2, 1.0 - w1 - w2, w1h, w2h, 1.0 - w1h - w2h)
    return n_d, state


def solve_cavity_er(k_mean: float, **kwargs):
    """Driver fraction of the directed Erdős–Rényi ensemble with mean
    total degree k_mean."""
    d = PoissonDist(k_mean / 2.0)
    return solve_cavity(d, d, k_mean, **kwargs)


def solve_cavity_sf(k_mean: float, gamma: float, **kwargs):
    """Driver fraction of the static-model scale-free ensemble with mean
    total degree k_mean and exponent gamma (same in and out)."""
    d = SFStaticDist(k_mean / 2.0, gamma)
    return solve_cavity(d, d, k_mean, **kwargs)
