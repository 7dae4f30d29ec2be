"""Gramian-based control energy: optimal inputs, bounds, and spectra."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NonFiniteInput, SingularGramian
from .exact import DenseSystem, _expm

_SINGULAR_ETA = 1e-12


@dataclass
class GramianResult:
    w: np.ndarray  # reachability Gramian W(T)
    h: np.ndarray  # normalized Gramian e^{-AT} W e^{-A^T T}
    eta: np.ndarray  # eigenvalues of H, ascending
    w_min: float  # smallest eigenvalue of W
    # w_min < 1e-12 max(1, W's largest eigenvalue); read off W because H's
    # spectrum can span a huge but legitimate range for strongly stable A
    singular: bool


@dataclass
class ControlTrace:
    t: np.ndarray  # time grid, shape (n_steps + 1,)
    u: np.ndarray  # sampled input, shape (n_steps + 1, M)
    x: np.ndarray  # simulated state, shape (n_steps + 1, N)
    energy: float  # v_f^T W^{-1} v_f


def gramian(sys: DenseSystem, t_final: float) -> GramianResult:
    """Reachability Gramian W(T) = ∫_0^T e^{Aτ} B Bᵀ e^{Aᵀτ} dτ.

    Evaluated through the augmented matrix exponential
    exp([[-A, BBᵀ], [0, Aᵀ]] T): the integral equals F22ᵀ F12.
    """
    if not 0 < t_final < math.inf:
        raise InvalidArgument("horizon must be positive and finite")
    a, b = sys.a, sys.b
    n = sys.n
    # overflow shows up as non-finite entries, checked after the block
    with np.errstate(over="ignore", invalid="ignore"):
        # the augmented exponential contains e^{-At}, which loses accuracy
        # for stable A over long horizons; halve the step until ||A|| t is
        # modest and rebuild with W(2t) = W(t) + e^{At} W(t) e^{A^T t}
        norm_a = np.linalg.norm(a, 2)
        doublings = 0
        t_step = t_final
        while norm_a * t_step > 2.0:
            t_step *= 0.5
            doublings += 1
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = -a
        m[:n, n:] = b @ b.T
        m[n:, n:] = a.T
        f = _expm(m * t_step)
        w = f[n:, n:].T @ f[:n, n:]
        w = 0.5 * (w + w.T)
        e_step = _expm(a * t_step)
        for _ in range(doublings):
            w = w + e_step @ w @ e_step.T
            w = 0.5 * (w + w.T)
            e_step = e_step @ e_step
        e_neg = _expm(-a * t_final)
        h = e_neg @ w @ e_neg.T
        h = 0.5 * (h + h.T)
    if not np.isfinite(w).all():
        raise InvalidArgument("the Gramian overflows at this horizon")
    # eigvalsh returns arbitrary numbers for a matrix that holds NaN
    eta = np.linalg.eigvalsh(h) if np.isfinite(h).all() \
        else np.full(n, np.nan)
    w_eig = np.linalg.eigvalsh(w)
    return GramianResult(w, h, eta, w_eig[0],
                         w_eig[0] < _SINGULAR_ETA * max(1.0, w_eig[-1]))


def min_energy_input(
    sys: DenseSystem,
    x_i,
    x_f,
    t_final: float,
    n_steps: int = 1000,
) -> ControlTrace:
    """Minimum-energy input u(t) = Bᵀ e^{Aᵀ(T-t)} W⁻¹ v_f steering x_i to
    x_f over [0, T], with the closed-loop trajectory simulated alongside.

    State and costate p(t) = e^{Aᵀ(T-t)} W⁻¹ v_f obey the linear system
    z' = [[A, BBᵀ], [0, -Aᵀ]] z for z = [x; p], so one exponential of
    the grid step propagates both exactly from grid point to grid point.
    """
    x_i = np.asarray(x_i, dtype=float)
    x_f = np.asarray(x_f, dtype=float)
    if x_i.shape != (sys.n,) or x_f.shape != (sys.n,):
        raise InvalidArgument(f"x_i and x_f must each have length {sys.n}")
    if not (np.isfinite(x_i).all() and np.isfinite(x_f).all()):
        raise NonFiniteInput("x_i and x_f must be finite")
    if n_steps < 1:
        raise InvalidArgument("need at least one step")
    gr = gramian(sys, t_final)
    if gr.singular:
        raise SingularGramian(f"Gramian numerically singular (min eigenvalue "
                              f"{gr.w_min:.3e})")
    a, b = sys.a, sys.b
    n = sys.n
    e_final = _expm(a * t_final)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        v_f = x_f - e_final @ x_i
        alpha = np.linalg.solve(gr.w, v_f)
        energy = float(v_f @ alpha)
    if not math.isfinite(energy):
        raise InvalidArgument("x_i and x_f are too large: the minimum energy "
                              "overflows")

    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = a
    m[:n, n:] = b @ b.T
    m[n:, n:] = -a.T
    step = _expm(m * (t_final / n_steps))
    z = np.empty((n_steps + 1, 2 * n))
    z[0, :n] = x_i
    z[0, n:] = e_final.T @ alpha
    for k in range(n_steps):
        z[k + 1] = step @ z[k]
    t = np.linspace(0.0, t_final, n_steps + 1)
    return ControlTrace(t, z[:, n:] @ b, z[:, :n], energy)


def _inverse(eta, n):
    """1/η for eigenvalues η of the n×n H(T), among them η_max.  Each must
    be finite and above n·ε·η_max: a smaller one is rounding noise of η_max,
    and its inverse can be wrong by tens of orders of magnitude."""
    if not (np.isfinite(eta)
            & (eta > n * np.finfo(float).eps * eta.max())).all():
        raise SingularGramian("H(T) has an eigenvalue that is not finite "
                              "or not above n·ε·η_max at this horizon")
    return 1.0 / eta


def energy_bounds(sys: DenseSystem, t_final: float):
    """Rayleigh-Ritz bounds for unit-norm targets: E_min = 1/η_max and
    E_max = 1/η_min (inf when the Gramian is singular)."""
    gr = gramian(sys, t_final)
    energies = _inverse(gr.eta[-1:] if gr.singular else gr.eta, sys.n)
    return energies[-1], math.inf if gr.singular else energies[0]


def energy_spectrum(sys: DenseSystem, t_final: float):
    """Eigen-direction energies 1/η_i of H(T) with their eigenvectors.

    Returns (energies ascending, eigenvectors as columns aligned with the
    energies)."""
    gr = gramian(sys, t_final)
    if gr.singular:
        raise SingularGramian("energy spectrum undefined for singular Gramian")
    _inverse(gr.eta, sys.n)  # H(T) is finite before eigh reads it
    eta, vec = np.linalg.eigh(gr.h)
    return _inverse(eta[::-1], sys.n), vec[:, ::-1]
