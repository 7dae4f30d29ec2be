import random

import numpy as np
import pytest

from netctl.errors import (
    DimensionMismatch,
    InvalidArgument,
    InvariantViolation,
    NonFiniteInput,
)
from netctl.exact import (
    DenseSystem,
    _cluster_eigenvalues,
    _expm,
    chain_matrix,
    complete_matrix,
    pbh_min_drivers,
    ring_matrix,
    self_loop_sweep,
    star_matrix,
)
from netctl.generators import er_digraph
from netctl.graphs import DiGraph
from netctl.structural import driver_count, min_driver_set
from oracles import cluster_reference, pbh_min_drivers_reference


def random_weighted(rng, n, density=0.3):
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                a[i, j] = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
    return a


class TestDenseSystem:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DenseSystem(np.eye(3), np.ones(2))


class TestPbhMinDrivers:
    def test_norm_past_overflow_rejected(self):
        # (A - λI)ᴴ(A - λI) would overflow; 1e150 itself is still accepted
        huge = np.diag([1e300, 1.0])
        with pytest.raises(InvalidArgument):
            pbh_min_drivers(huge)
        assert pbh_min_drivers(np.diag([1e150, 1.0]))[0] == 1

    def test_symmetric_matches_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 9)
            a = random_weighted(rng, n)
            a = a + a.T
            assert pbh_min_drivers(a) == pbh_min_drivers_reference(a)

    def test_table_of_canonical_graphs(self):
        for n in (5, 10, 20):
            assert pbh_min_drivers(chain_matrix(n))[0] == 1
            assert pbh_min_drivers(ring_matrix(n))[0] == 2
            assert pbh_min_drivers(star_matrix(n))[0] == n - 2
            assert pbh_min_drivers(complete_matrix(n))[0] == n - 1

    def test_chain_needs_one_driver(self):
        # every eigenvalue of a chain is simple, so one input suffices
        for n in (4, 7):
            n_d, _lam, drivers = pbh_min_drivers(chain_matrix(n))
            assert n_d == len(drivers) == 1

    def test_star_needs_n_minus_2_drivers(self):
        # eigenvalue 0 of the star has geometric multiplicity n - 2
        n = 6
        n_d, lam, drivers = pbh_min_drivers(star_matrix(n))
        assert n_d == len(drivers) == n - 2
        assert abs(lam) < 1e-8

    def test_identity_needs_n_drivers(self):
        n_d, lam, drivers = pbh_min_drivers(np.eye(5))
        assert n_d == len(drivers) == 5
        assert abs(lam - 1.0) < 1e-8

    def test_star_maximal_eigenvalue_is_zero(self):
        n_d, lam, drivers = pbh_min_drivers(star_matrix(8))
        assert abs(lam) < 1e-8
        assert len(drivers) == n_d == 6

    def test_driver_set_fixes_worst_eigenvalue(self):
        # the returned driver set restores full rank for the maximizing
        # eigenvalue (other eigenvalues may need their own driver choices)
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a = random_weighted(rng, n)
            n_d, lam, drivers = pbh_min_drivers(a)
            b = np.zeros((n, max(n_d, 1)))
            for j, v in enumerate(drivers):
                b[v, j] = 1.0
            m = np.hstack([a - lam * np.eye(n), b])
            tol = 1e-8 * max(1.0, np.linalg.norm(a, 2))
            s = np.linalg.svd(m, compute_uv=False)
            assert (s > tol).sum() == n

    def test_rank_shift_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            a = random_weighted(rng, n, 0.2)
            w = rng.normal()
            assert pbh_min_drivers(a)[0] == pbh_min_drivers(a + w * np.eye(n))[0]

    def test_generic_agreement_with_matching(self):
        rng = random.Random(19)
        nprng = np.random.default_rng(19)
        for _ in range(40):
            n = rng.randint(2, 5)
            pairs = [(i, j) for i in range(n) for j in range(n)
                     if rng.random() < 0.35]
            g = DiGraph.from_pairs(n, sorted(set(pairs)))
            nd_struct = min_driver_set(g).n_drivers
            votes = []
            for _ in range(5):
                a = np.zeros((n, n))
                for s, d, _w in g.edges:
                    a[d, s] = nprng.uniform(0.5, 2.0) * nprng.choice([-1, 1])
                votes.append(pbh_min_drivers(a)[0])
            assert max(nd_struct, 1) == max(set(votes), key=votes.count)

    def test_never_below_the_structural_bound(self):
        # a controllable (A, B) is structurally controllable on A's pattern,
        # diagonal entries counted as self-loops (Lin 1974), so N_D is at
        # least max(1, n - |M|) for a maximum matching M of that pattern
        rng = np.random.default_rng(12)
        equal = 0
        for i in range(600):
            n = int(rng.integers(2, 30))
            mask = rng.random((n, n)) < rng.uniform(0.05, 0.4)
            weights = (rng.normal(size=(n, n)), np.ones((n, n)),
                       rng.integers(-3, 4, size=(n, n)))[i % 3]
            a = mask * weights.astype(float)
            rows, cols = np.nonzero(a)
            bound = driver_count(DiGraph.from_pairs(
                n, list(zip(cols.tolist(), rows.tolist()))))
            n_d = pbh_min_drivers(a)[0]
            assert n_d >= bound
            equal += n_d == bound
        assert equal > 550  # the two counts agree for almost all weights


def random_matrix(rng, kind):
    """Sparse random matrix of one of four kinds: weighted or 0/1,
    asymmetric or symmetric."""
    n = int(rng.integers(2, 40))
    mask = rng.random((n, n)) < rng.uniform(0.05, 0.4)
    if kind == "weighted":
        return mask * rng.normal(size=(n, n))
    if kind == "binary":
        return mask.astype(float)
    if kind == "weighted-symmetric":
        a = np.triu(mask * rng.normal(size=(n, n)))
        return a + np.triu(a, 1).T
    a = np.triu(mask, 1).astype(float)
    return a + a.T


def defective_derogatory_matrix():
    """21-node matrix with a defective eigenvalue near 0 (algebraic
    multiplicity 3, geometric 2) at which the row rule finds three
    dependent rows, [16, 19, 20], one more than N_D."""
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        a = (rng.random((n, n)) < rng.uniform(0.05, 0.4)) \
            * rng.normal(size=(n, n))
    return a


def criterion07_matrix(seed, rho):
    """Weighted ER matrix with self-loops 0.8 on a fraction rho of the
    nodes and -1.2 on the rest, as self_loop_sweep builds it."""
    rng = np.random.default_rng(300 + seed)
    a = er_digraph(200, 4.0, rng).adjacency_matrix()
    a[a != 0] = rng.uniform(0.5, 1.5, int((a != 0).sum()))
    perm = np.random.default_rng(seed).permutation(200)
    diag = np.full(200, -1.2)
    diag[perm[:int(round(rho * 200))]] = 0.8
    np.fill_diagonal(a, diag)
    return a


DEFECTIVE_01_ENTRIES = [
    (0, 2), (0, 5), (0, 6), (0, 7), (0, 10), (0, 13), (1, 11), (2, 7),
    (2, 14), (3, 0), (3, 3), (3, 12), (4, 0), (4, 4), (4, 5), (4, 7), (5, 4),
    (5, 10), (7, 14), (8, 1), (8, 5), (8, 8), (8, 13), (8, 14), (9, 6),
    (9, 7), (9, 9), (10, 0), (11, 14), (12, 3), (13, 6), (13, 7), (13, 8),
    (13, 10), (13, 11), (13, 12), (14, 8),
]


SCATTERED_01_ENTRIES = [
    (0, 7), (0, 14), (0, 16), (0, 17), (1, 17), (1, 20), (2, 13), (2, 14),
    (2, 20), (2, 23), (3, 4), (3, 9), (3, 12), (4, 8), (4, 16), (5, 4),
    (5, 15), (5, 17), (5, 22), (6, 9), (6, 11), (6, 16), (6, 21), (7, 4),
    (8, 16), (8, 21), (9, 21), (9, 22), (10, 4), (11, 19), (12, 0), (12, 11),
    (14, 9), (14, 11), (14, 21), (14, 23), (15, 5), (15, 10), (15, 13),
    (15, 17), (15, 18), (15, 22), (16, 5), (16, 21), (17, 11), (18, 10),
    (18, 18), (19, 16), (20, 13), (20, 19), (21, 1), (21, 7), (21, 15),
    (22, 10), (22, 17), (23, 2), (23, 3), (23, 5),
]


class TestPbhAgainstReference:
    """pbh_min_drivers against the brute-force rank-increment rule."""

    def test_random_matrices(self):
        rng = np.random.default_rng(41)
        kinds = ("weighted", "binary", "weighted-symmetric",
                 "binary-symmetric")
        complex_lam = 0
        for i in range(160):
            a = random_matrix(rng, kinds[i % 4])
            n_d, lam, drivers = pbh_min_drivers(a)
            assert (n_d, lam, drivers) == pbh_min_drivers_reference(a)
            complex_lam += complex(lam).imag != 0
        assert complex_lam > 0

    def test_criterion07_matrices(self):
        for seed, rho in ((0, 0.1), (1, 0.5), (2, 0.9)):
            a = criterion07_matrix(seed, rho)
            assert pbh_min_drivers(a) == pbh_min_drivers_reference(a)

    def test_inconsistent_driver_rows_raise(self):
        a = defective_derogatory_matrix()
        n_d, _, drivers = pbh_min_drivers_reference(a)
        assert (n_d, len(drivers)) == (2, 3)
        with pytest.raises(InvariantViolation, match="λ"):
            pbh_min_drivers(a)

    def test_defective_eigenvalue_split_across_clusters(self):
        # λ = 0 has algebraic multiplicity 4 and geometric multiplicity 2;
        # three computed copies scatter by 5e-6 >> tol, so the cluster at
        # 0 holds one copy, yet its geometric multiplicity is 2
        a = np.zeros((15, 15))
        a[tuple(zip(*DEFECTIVE_01_ENTRIES))] = 1.0
        assert pbh_min_drivers(a) == pbh_min_drivers_reference(a) \
            == (2, 0j, [6, 11])

    def test_weak_row_dependence_at_a_scattered_copy(self):
        # the maximising λ is a copy of the defective eigenvalue 0 that
        # scattered to -3.1e-6 - 5.4e-6i; row 22 depends on the rows
        # before it through a combination of norm 1e-11 in which its own
        # coefficient is small, so its Gram–Schmidt residual (8.8e-6) is
        # far above tol although the rank test counts it
        a = np.zeros((24, 24))
        a[tuple(zip(*SCATTERED_01_ENTRIES))] = 1.0
        n_d, lam, drivers = pbh_min_drivers(a)
        assert (n_d, drivers) == (2, [20, 22]) and abs(lam) < 1e-5
        assert (n_d, lam, drivers) == pbh_min_drivers_reference(a)

    def test_row_dependent_within_a_hair_of_tol(self):
        # λ = 1.99999994 is a centroid 1.1 tol below the defective
        # eigenvalue 2; appending row 41 leaves a smallest singular value
        # of 4.64e-8 against tol 5.6e-8, while the least-squares
        # combination the sweep forms has norm above tol, so only the
        # rank test itself settles the row
        rng = np.random.default_rng(31)
        a = (rng.random((60, 60)) < 0.05).astype(float)
        diag = np.full(60, 2.0)
        diag[np.random.default_rng(4).permutation(60)[:6]] = 1.0
        np.fill_diagonal(a, diag)
        n_d, lam, drivers = pbh_min_drivers(a)
        assert (n_d, drivers) == (6, [25, 38, 41, 46, 47, 55])
        assert abs(lam - 2.0) < 1e-6
        assert (n_d, lam, drivers) == pbh_min_drivers_reference(a)
        # the same matrix as test_two_type_symmetry builds it
        assert self_loop_sweep(a, [1.0, 2.0], [0.1, 0.9], [4]) == [0.1]

    @pytest.mark.parametrize("seed", range(4))
    def test_jordan_ring_around_a_derogatory_eigenvalue(self, seed):
        # 0 has blocks J6 ⊕ J1 under an orthogonal similarity: the J6
        # copies scatter to a ring of radius 4.8e-3, each its own cluster
        # of multiplicity 1, and the J1 copy sits at the centre, where the
        # geometric multiplicity is 2
        rng = np.random.default_rng(seed)
        j = np.diag(np.r_[np.zeros(7), rng.uniform(0.5, 3.0, 13)
                          * rng.choice([-1.0, 1.0], 13)])
        j[np.arange(5), np.arange(1, 6)] = 3.0
        q, _ = np.linalg.qr(rng.normal(size=(20, 20)))
        a = q @ j @ q.T
        n_d, lam, drivers = pbh_min_drivers(a)
        assert n_d == 2 and abs(lam) < 1e-12
        assert (n_d, lam, drivers) == pbh_min_drivers_reference(a)

    def test_jordan_structures(self):
        # Jordan blocks of sizes 1-6 sharing a few eigenvalues, under a
        # random orthogonal similarity or a permutation
        rng = np.random.default_rng(11)
        for _ in range(80):
            n = int(rng.integers(6, 30))
            shared = rng.normal(size=3) * rng.choice([0.0, 1.0], 3)
            j = np.zeros((n, n))
            i = 0
            while i < n:
                size = int(min(rng.integers(1, 7), n - i))
                lam = shared[rng.integers(0, 3)] if rng.random() < 0.6 \
                    else rng.normal()
                j[i:i + size, i:i + size] = lam * np.eye(size) + np.diag(
                    np.full(size - 1, rng.uniform(0.5, 3.0)), 1)
                i += size
            if rng.random() < 0.5:
                q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                a = q @ j @ q.T
            else:
                p = rng.permutation(n)
                a = j[p][:, p]
            assert pbh_min_drivers(a) == pbh_min_drivers_reference(a)

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(DimensionMismatch):
            pbh_min_drivers(np.ones((2, 3)))
        with pytest.raises(NonFiniteInput):
            pbh_min_drivers(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(NonFiniteInput):
            DenseSystem(np.eye(2), np.array([np.inf, 0.0]))


def eigenvalue_spectrum(rng, tol):
    """1-59 eigenvalues: real and complex, conjugate pairs, exact repeats,
    and chains of copies spaced well inside or just outside tol."""
    n = int(rng.integers(1, 60))
    eig = rng.normal(size=n) + 1j * rng.normal(size=n) * (rng.random(n) < 0.5)
    k = int(rng.integers(0, n // 2 + 1))
    eig[n - k:] = eig[:k].conj()
    repeat = rng.random(n) < 0.2
    eig[repeat] = eig[rng.integers(0, n, repeat.sum())]
    for _ in range(int(rng.integers(0, 4))):
        start, length = int(rng.integers(0, n)), int(rng.integers(1, 8))
        # a spacing of exactly tol is left out: there the scalar and the
        # vectorised |λi - λj| can round to opposite sides of tol
        step = tol * rng.choice([0.3, 0.7, 0.999, 1.001]) \
            * np.exp(2j * np.pi * rng.random())
        eig[(start + np.arange(length)) % n] = eig[start] \
            + step * np.arange(length)
    return rng.permutation(eig)


def test_cluster_eigenvalues_against_pairwise_linkage():
    rng = np.random.default_rng(5)
    merged = 0
    for _ in range(1000):
        tol = 10.0 ** rng.uniform(-9, -3)
        eig = eigenvalue_spectrum(rng, tol)
        centers, sizes = _cluster_eigenvalues(eig, tol)
        want_centers, want_sizes = cluster_reference(eig, tol)
        assert sizes == want_sizes
        assert np.array_equal(centers, want_centers)  # bit for bit
        merged += max(sizes) > 1
    assert merged > 900


class TestSelfLoopSweep:
    def test_uniform_loops_leave_nd_unchanged(self):
        rng = np.random.default_rng(29)
        a = random_weighted(rng, 30, 0.12)
        base = self_loop_sweep(a, [0.0], [1.0], [0])[0]
        shifted = self_loop_sweep(a, [1.7], [1.0], [0])[0]
        assert base == shifted

    def test_two_type_symmetry(self):
        rng = np.random.default_rng(31)
        a = (rng.random((60, 60)) < 0.05).astype(float)
        np.fill_diagonal(a, 0.0)
        seeds = range(12)
        curve = {}
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
            vals = self_loop_sweep(a, [1.0, 2.0], [rho, 1 - rho], seeds)
            curve[rho] = np.mean(vals)
        for rho in (0.1, 0.3):
            assert abs(curve[rho] - curve[round(1 - rho, 1)]) < 0.05
        assert curve[0.5] <= min(curve.values()) + 1e-12

    def test_bad_densities(self):
        with pytest.raises(ValueError):
            self_loop_sweep(np.eye(4), [1.0, 2.0], [0.6, 0.6], [0])


class TestExpm:
    """The scaling-and-squaring exponential against scipy's."""

    @staticmethod
    def assert_matches_scipy(a, rtol=1e-12):
        from scipy.linalg import expm

        want = expm(a)
        got = _expm(a)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= rtol * max(np.abs(want).max(), 1)

    @pytest.mark.parametrize("norm", [1e-8, 1e-3, 0.5, 5.0, 5.4, 20.0, 50.0])
    @pytest.mark.parametrize("kind", ["normal", "non-normal"])
    def test_seeded_matrices(self, norm, kind):
        # norms past θ₁₃ ≈ 5.37 take the scaling and squaring path
        rng = np.random.default_rng(int(norm * 1e3) % 997)
        for n in (2, 7, 30, 60):
            a = rng.normal(size=(n, n))
            if kind == "non-normal":
                a = np.triu(a) + 4 * np.eye(n, k=1)
            else:
                a = a + a.T
            a *= norm / np.abs(a).sum(axis=0).max()
            self.assert_matches_scipy(a)

    def test_small_and_trivial_matrices(self):
        assert _expm(np.zeros((0, 0))).shape == (0, 0)
        assert np.allclose(_expm(np.zeros((4, 4))), np.eye(4), rtol=0,
                           atol=1e-15)
        assert np.isclose(_expm(np.array([[-3.0]]))[0, 0], np.exp(-3.0),
                          rtol=1e-14, atol=0)
        self.assert_matches_scipy(np.array([[2.5]]))

    def test_nilpotent_jordan_block(self):
        # e^{tN} of the nilpotent shift is the truncated series t^k / k!
        from math import factorial

        n, t = 6, 3.0
        got = _expm(t * np.eye(n, k=1))
        want = sum(t ** k / factorial(k) * np.eye(n, k=k) for k in range(n))
        assert np.allclose(got, want, rtol=1e-13, atol=0)
        self.assert_matches_scipy(t * np.eye(n, k=1))

    def test_van_loan_block(self):
        # the block gramian exponentiates: [[-A, BBᵀ], [0, Aᵀ]] t
        rng = np.random.default_rng(11)
        n = 8
        a = rng.normal(size=(n, n)) - 3 * np.eye(n)
        b = rng.normal(size=(n, 2))
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = -a
        m[:n, n:] = b @ b.T
        m[n:, n:] = a.T
        for t in (0.05, 0.4, 2.0):
            self.assert_matches_scipy(m * t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_gives_nan(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        assert np.isnan(_expm(a)).all()
