"""Numeric linear-algebra controllability: the eigenvalue-wise (PBH)
minimum driver count with driver selection, plus the matrix exponential
that the Gramian and the observer use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, InvalidArgument, InvariantViolation,
                     NonFiniteInput)


def _require_finite(m):
    if not np.isfinite(m).all():
        raise NonFiniteInput("matrix entries must be finite")


def _square_finite(a):
    """A as a float matrix, checked to be square with finite entries."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"A must be square, got shape {a.shape}")
    _require_finite(a)
    return a


@dataclass
class DenseSystem:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray = None

    def __post_init__(self):
        self.a = _square_finite(self.a)
        self.b = np.asarray(self.b, dtype=float)
        if self.b.ndim == 1:
            self.b = self.b[:, None]
        n = self.a.shape[0]
        if self.b.shape[0] != n:
            raise DimensionMismatch("B must have one row per state")
        if self.c is not None:
            self.c = np.atleast_2d(np.asarray(self.c, dtype=float))
            if self.c.shape[1] != n:
                raise DimensionMismatch("C must have one column per state")
        for m in (self.b,) + (() if self.c is None else (self.c,)):
            _require_finite(m)

    @property
    def n(self):
        return self.a.shape[0]


# Coefficients of the degree-13 Padé approximant of e^x, and the 1-norm
# up to which it meets double precision without scaling (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179, 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a):
    """e^A of a square matrix by scaling and squaring: A is scaled by 2^-s
    until its 1-norm is at most θ₁₃, the degree-13 Padé approximant is
    evaluated with one solve, and the result is squared s times.

    A with a non-finite entry gives an all-NaN matrix; callers check the
    result, which is also where overflow in the squarings shows."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    b = _PADE13
    with np.errstate(over="ignore", invalid="ignore"):
        a = a * 0.5 ** s
        ident = np.eye(a.shape[0])
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
        r = np.linalg.solve(v - u, v + u)
        for _ in range(s):
            r = r @ r
    return r


def _matrix_rank(m, tol):
    return int((np.linalg.svd(m, compute_uv=False) > tol).sum())


def _pbh_scale(a):
    """max(1, ||A||_2): the rank tolerance of the eigenvalue-wise tests is
    1e-8 times this, and eigenvalues closer than that are one cluster.
    Past 1e150 the Gram matrices (A - λI)ᴴ(A - λI) overflow."""
    norm = np.linalg.norm(a, 2) if a.size else 0.0
    if norm > 1e150:
        raise InvalidArgument(f"||A||₂ = {norm:.3e} exceeds 1e150")
    return max(1.0, norm)


def _cluster_eigenvalues(eig, tol):
    """Single-linkage clusters of eigenvalues closer than tol.

    Returns (centroids, sizes) in (real, imag) order of the centroids; a
    centroid is the mean of its members taken in index order.
    """
    # imported here so that `energy` and `spectrum` do not load graphs.py
    from .graphs import weak_component_ids

    eig = np.asarray(eig)
    n = len(eig)
    # |λi - λj| < tol implies |Re λi - Re λj| < tol, so only pairs inside a
    # real-part window need the exact test; the window is twice as wide so
    # that rounding in re + tol cannot drop a pair
    by_re = np.argsort(eig.real, kind="stable")
    re = eig.real[by_re]
    width = np.searchsorted(re, re + 2 * tol) - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), width)
    second = first + 1 + np.arange(len(first)) \
        - np.repeat(np.cumsum(width) - width, width)
    first, second = by_re[first], by_re[second]
    close = np.abs(eig[first] - eig[second]) < tol
    label = weak_component_ids(n, first[close], second[close])
    counts = np.bincount(label)
    groups = np.split(np.argsort(label, kind="stable"), np.cumsum(counts)[:-1])
    clusters = [eig[idx].mean() for idx in groups]
    order = np.lexsort((np.array(clusters).imag, np.array(clusters).real))
    return [clusters[i] for i in order], counts[order].tolist()


def _shifted(a, lam):
    """A - λI, in real arithmetic when λ is real: eigvals returns every
    eigenvalue as complex once one is, and a complex SVD or sweep costs
    several times a real one."""
    return a - (lam.real if lam.imag == 0 else lam) * np.eye(a.shape[0])


def _max_geometric(a, first=True):
    """(N_D, λ, tol): the largest geometric multiplicity over the
    eigenvalue clusters of a nonempty square A, the first cluster in
    (real, imag) order that attains it (any that does when first is
    False), and the rank tolerance.

    A cluster is rank-tested only while bounds on its multiplicity leave
    it able to raise N_D or win the tie.  Each cluster visited yields
    lower bounds on the singular values of A - λI from the eigenvalues of
    (A - λI)ᴴ(A - λI), which bound every other cluster by Weyl's
    inequality, σ_i(A - μI) >= σ_i(A - λI) - |μ - λ|, around λ and, A
    being real, around its conjugate.  The rank test, a values-only SVD,
    is made only where the bounds cannot exclude the cluster itself.  For
    a symmetric A, σ_i(A - μI) = |λ_i - μ|, so the cluster sizes bound
    the multiplicities from the start.
    """
    n = a.shape[0]
    tol = 1e-8 * _pbh_scale(a)
    centers, alg = _cluster_eigenvalues(np.linalg.eigvals(a), tol)
    centers, alg = np.asarray(centers), np.asarray(alg)
    # the cluster sizes bound only an exactly symmetric A; the check that
    # they equal the multiplicities covers the nearly symmetric ones too
    bound = alg.copy() if np.array_equal(a, a.T) \
        else np.full(len(alg), n)
    symmetric = np.allclose(a, a.T)
    skew = a - a.T
    index = np.arange(len(alg))
    unvisited = np.ones(len(alg), dtype=bool)
    distance = np.full(len(alg), np.inf)  # to the nearest visited λ
    n_d, best = -1, len(alg)
    while True:
        live = unvisited & (bound > n_d)
        if first:
            live |= unvisited & (bound == n_d) & (index < best)
        if not live.any():
            return n_d, centers[best], tol
        # the largest cluster first; then the one farthest from every
        # visited λ, where the Weyl bounds are weakest
        k = max(np.flatnonzero(live).tolist(),
                key=lambda j: (distance[j], alg[j], -j))
        unvisited[k] = False
        lam = centers[k]
        # (A - λI)ᴴ(A - λI) = RᵀR + β²I + iβ(A - Aᵀ) with R = A - αI for
        # λ = α + iβ, A being real: no complex product is formed
        r = a - lam.real * np.eye(n)
        gram = r.T @ r
        if lam.imag:
            gram = gram.astype(complex)
            gram.imag = lam.imag * skew
            gram.flat[::n + 1] += lam.imag ** 2
        # rounding moves its eigenvalues by at most about n eps ||A - λI||_F²
        # in forming it and eps ||A - λI||₂² in eigvalsh
        slack = 2 * n * np.finfo(float).eps \
            * (np.vdot(r, r) + n * lam.imag ** 2)
        lower = np.sqrt(np.maximum(np.linalg.eigvalsh(gram) - slack, 0.0))
        most = int((lower <= tol).sum())
        if most > n_d or (first and most == n_d and k < best):
            geo = int((np.linalg.svd(_shifted(a, lam), compute_uv=False)
                       <= tol).sum())
            if symmetric and geo != alg[k]:  # symmetric: diagonalizable
                raise InvariantViolation(
                    f"eigenvalue {complex(centers[k]):.10g} of a symmetric "
                    f"matrix: geometric multiplicity {geo}, algebraic "
                    f"{alg[k]}")
            if geo > n_d or (geo == n_d and k < best):
                n_d, best = geo, k
        for z in {lam, lam.conjugate()}:
            distance = np.minimum(distance, np.abs(centers - z))
            bound = np.minimum(bound, np.searchsorted(
                lower, tol + np.abs(centers - z), side="right"))


# Relative margin around tol inside which the sweep's bounds do not settle
# a row and the rank test decides.  Rounding moves the sweep's quantities
# and the SVD's smallest singular value by about eps ||A||₂ / tol = 2e-8
# of tol, far inside it; a wider margin costs only more SVDs.
_MARGIN = 1e-4


def _row_order_drivers(m, tol):
    """Indices of rows that depend on lower-index rows at tolerance tol.

    Row i depends on the independent rows K before it when the smallest
    singular value of [K; m_i] is <= tol: appending it does not raise the
    numeric rank.  One sweep of two-pass Gram–Schmidt in row order writes
    K = L Q with Q orthonormal and L lower triangular, and m_i = c Q + ρ q,
    so [K; m_i] has the singular values of T = [[L, 0], [c, ρ]].  With
    x = c L⁻¹ and s = ρ / ||(x, 1)||, the unit vector ∝ (-x, 1) gives
    σ_min(T) <= s, and T⁻¹ = [[L⁻¹, 0], [-x / ρ, 1 / ρ]] gives
    σ_min(T) >= 1 / sqrt(||L⁻¹||² + 1 / s²).  Only a row for which these
    bounds straddle tol gets the rank test itself, one values-only SVD
    of [K; m_i].
    """
    basis = np.empty_like(m)
    l_inv = np.zeros_like(m)  # L⁻¹, grown one row per kept row
    l_inv_norm = 0.0  # an upper bound on ||L⁻¹||₂
    kept, dependent = [], []
    for i, r in enumerate(m):
        k = len(kept)
        c = np.zeros(k, dtype=m.dtype)
        for _ in range(2):
            # conj(basis @ conj(r)) is basis^H r without copying the basis
            step = (basis[:k] @ r.conj()).conj()
            c = c + step
            r = r - step @ basis[:k]
        rho = np.linalg.norm(r)
        x = c @ l_inv[:k, :k]
        s = rho / np.sqrt(1.0 + np.vdot(x, x).real)
        if s <= tol * (1 - _MARGIN):
            dependent.append(i)
            continue
        next_norm = np.hypot(l_inv_norm, 1.0 / s)
        if next_norm >= 1.0 / (tol * (1 + _MARGIN)):
            sv_min = np.linalg.svd(m[kept + [i]], compute_uv=False)[-1]
            if sv_min <= tol:
                dependent.append(i)
                continue
            next_norm = (1 + _MARGIN) / sv_min
        l_inv_norm = next_norm
        kept.append(i)
        basis[k] = r / rho
        # [[L, 0], [c, ρ]]⁻¹ = [[L⁻¹, 0], [-x / ρ, 1 / ρ]]
        l_inv[k, :k] = -x / rho
        l_inv[k, k] = 1.0 / rho
    return dependent


def pbh_min_drivers(a):
    """Exact minimum driver count N_D = max geometric multiplicity over
    the eigenvalues, with a driver set for the maximizing eigenvalue.

    Ties go to the first eigenvalue in (real, imag) order.  The driver set
    is the rows of (A - λ I) that depend linearly on preceding rows; it is
    one of many valid choices (driver sets of this kind are not unique).
    It is checked to hold N_D rows that restore rank [A - λI, B] = N.
    Returns (n_d, lam_max, drivers).
    """
    a = _square_finite(a)
    n = a.shape[0]
    if n == 0:
        return 0, 0.0, []
    n_d, lam, tol = _max_geometric(a)
    m = _shifted(a, lam)
    drivers = _row_order_drivers(m, tol)
    # each driver row holds the only nonzero of one column of B, so
    # rank [A - λI, B] is the number of drivers plus the rank of the other
    # rows, measured here at the tolerance the row rule used
    if len(drivers) != n_d or \
            _matrix_rank(np.delete(m, drivers, axis=0), tol=tol) != n - n_d:
        raise InvariantViolation(
            f"row-order driver set {drivers} does not give rank "
            f"[A - λI, B] = {n} with {n_d} inputs at "
            f"λ = {complex(lam):.10g}")
    return n_d, lam, drivers


def self_loop_sweep(a, loop_weights, densities, seeds):
    """n_D samples when self-loop weights are assigned to random node
    subsets of the given densities.

    For each seed, nodes are randomly partitioned into len(loop_weights)
    groups with the given fractions, each node's diagonal entry is set to
    its group's weight, and N_D is computed eigenvalue-wise.  Returns the
    per-seed n_D list.
    """
    a = _square_finite(a)
    n = a.shape[0]
    if len(loop_weights) != len(densities):
        raise InvalidArgument("one density per loop weight")
    if abs(sum(densities) - 1.0) > 1e-9:
        raise InvalidArgument("densities must sum to 1")
    counts = [int(round(d * n)) for d in densities]
    counts[-1] = n - sum(counts[:-1])
    if min(counts) < 0:
        raise InvalidArgument("densities incompatible with N")
    samples = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        diag = np.empty(n)
        start = 0
        for w, cnt in zip(loop_weights, counts):
            diag[perm[start:start + cnt]] = w
            start += cnt
        m = a.copy()
        np.fill_diagonal(m, diag)
        samples.append(_max_geometric(m, first=False)[0] / n)
    return samples


def chain_matrix(n):
    """Adjacency of the undirected path on n nodes."""
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def ring_matrix(n):
    a = chain_matrix(n)
    a[0, n - 1] = a[n - 1, 0] = 1.0
    return a


def star_matrix(n):
    """Hub node 0 linked to n-1 leaves."""
    a = np.zeros((n, n))
    a[0, 1:] = a[1:, 0] = 1.0
    return a


def complete_matrix(n):
    return np.ones((n, n)) - np.eye(n)
