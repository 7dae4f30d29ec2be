import numpy as np
import pytest

from netctl.collective import (
    PinningConfig,
    _neighbour_sums,
    laplacian_matrix,
    msf_eigenratio,
    order_parameter,
    pinning_eigenratio,
    pinning_sync_simulate,
    vicsek_init,
    vicsek_leader_run,
    vicsek_order_parameter,
    vicsek_step,
)
from netctl.errors import DisconnectedGraph, InvalidArgument, NoPinnedNodes
from netctl.generators import ba_graph
from netctl.graphs import UnGraph
from netctl.steering import OdeSystem, make_system
from oracles import (
    extended_matrix,
    neighbour_sums_reference,
    vicsek_leader_reference,
)


def ring(n):
    return UnGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return UnGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n):
    return UnGraph(n, [(0, i) for i in range(1, n)])


class TestMsf:
    def test_complete_ratio_one(self):
        lam2, lam_n, r = msf_eigenratio(complete(6))
        assert abs(lam2 - 6) < 1e-10 and abs(lam_n - 6) < 1e-10
        assert abs(r - 1.0) < 1e-12

    def test_star_spectrum(self):
        n = 7
        lam2, lam_n, r = msf_eigenratio(star(n))
        assert abs(lam2 - 1.0) < 1e-10
        assert abs(lam_n - n) < 1e-10
        assert abs(r - n) < 1e-9

    def test_ring_closed_form(self):
        for n in (8, 9):
            lam2, lam_n, r = msf_eigenratio(ring(n))
            expect = (1 - np.cos(2 * np.pi * (n // 2) / n)) / \
                (1 - np.cos(2 * np.pi / n))
            assert abs(r - expect) < 1e-9

    def test_disconnected(self):
        g = UnGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraph):
            msf_eigenratio(g)

    def test_zero_row_sums(self):
        lap = laplacian_matrix(ring(10))
        assert np.abs(lap.sum(axis=1)).max() < 1e-12


class TestPinningSpectrum:
    def _cfg(self, g, pinned, kappa=2.0, sigma=1.0):
        return PinningConfig(sigma=sigma, kappa=kappa, pinned=pinned,
                             coupling=laplacian_matrix(g))

    def test_validation(self):
        with pytest.raises(ValueError):
            PinningConfig(1.0, 1.0, [0], np.eye(3))
        with pytest.raises(ValueError):
            PinningConfig(1.0, -1.0, [0], laplacian_matrix(ring(3)))

    def test_no_pinned_nodes(self):
        with pytest.raises(NoPinnedNodes):
            pinning_eigenratio(self._cfg(ring(5), []))

    def test_extended_matrix_spectrum(self):
        cfg = self._cfg(ring(6), [0, 3], kappa=1.5)
        m = extended_matrix(cfg)
        # all-ones (states plus virtual node) spans the zero mode
        assert np.abs(m @ np.ones(7)).max() < 1e-12
        lam = np.linalg.eigvals(m)
        assert lam.real.min() > -1e-10
        lam2, lam_top, _ = pinning_eigenratio(cfg)
        sorted_re = np.sort(lam.real)
        assert abs(sorted_re[0]) < 1e-10
        assert abs(sorted_re[1] - lam2) < 1e-8
        assert abs(sorted_re[-1] - lam_top) < 1e-8

    def test_complete_all_pinned_closed_form(self):
        n, kappa = 5, 0.7
        cfg = self._cfg(complete(n), list(range(n)), kappa=kappa)
        lam2, lam_top, r = pinning_eigenratio(cfg)
        assert abs(lam2 - kappa) < 1e-10
        assert abs(lam_top - (n + kappa)) < 1e-10
        assert abs(r - (n + kappa) / kappa) < 1e-9

    def test_interior_minimum_over_gain(self):
        rng = np.random.default_rng(0)
        g = ba_graph(300, 2, rng)
        lap = laplacian_matrix(g)
        pinned = list(rng.choice(300, 30, replace=False))
        kappas = np.logspace(-1, 2, 12)
        ratios = [pinning_eigenratio(
            PinningConfig(1.0, k, pinned, lap))[2] for k in kappas]
        best = int(np.argmin(ratios))
        assert 0 < best < len(kappas) - 1

    def test_more_pinning_helps(self):
        rng = np.random.default_rng(1)
        g = ba_graph(200, 2, rng)
        lap = laplacian_matrix(g)
        order = rng.permutation(200)
        ratios = []
        for frac in (0.1, 0.2, 0.4):
            pinned = list(order[:int(frac * 200)])
            ratios.append(pinning_eigenratio(
                PinningConfig(1.0, 5.0, pinned, lap))[2])
        assert ratios[0] >= ratios[1] >= ratios[2]

    def test_degree_ordered_beats_random(self):
        rng = np.random.default_rng(2)
        diffs = []
        for _ in range(5):
            g = ba_graph(200, 2, rng)
            lap = laplacian_matrix(g)
            deg = np.diag(lap)
            hubs = list(np.argsort(-deg)[:20])
            rand = list(rng.choice(200, 20, replace=False))
            r_hub = pinning_eigenratio(PinningConfig(1.0, 5.0, hubs, lap))[2]
            r_rnd = pinning_eigenratio(PinningConfig(1.0, 5.0, rand, lap))[2]
            diffs.append(r_hub - r_rnd)
        assert np.mean(diffs) <= 0


class TestPinningSimulate:
    def test_all_pinned_stable_converges(self):
        # stable node dynamics plus strong feedback: exponential collapse
        osc = OdeSystem(n=2, f=lambda t, x: -x)
        cfg = PinningConfig(1.0, 10.0, list(range(4)),
                            laplacian_matrix(ring(4)))
        rng = np.random.default_rng(3)
        trace = pinning_sync_simulate(cfg, osc, np.eye(2),
                                      rng.normal(size=(4, 2)),
                                      [0.5, -0.5], t_final=5.0)
        assert trace.error[-1] < 1e-6
        assert trace.error[-1] < trace.error[0] * 1e-4

    def test_decoupled_chaos_stays_apart(self):
        osc = make_system("rossler")
        cfg = PinningConfig(0.0, 1.0, [], laplacian_matrix(ring(4)))
        rng = np.random.default_rng(4)
        x0 = np.array([1.0, 1.0, 0.0]) + 0.1 * rng.normal(size=(4, 3))
        trace = pinning_sync_simulate(cfg, osc, np.eye(3), x0,
                                      [1.0, 1.0, 0.0], t_final=60.0)
        assert trace.error[-1] > 0.1

    def test_adaptive_ring_of_rossler(self):
        osc = make_system("rossler")
        lap = laplacian_matrix(ring(10))
        rng = np.random.default_rng(5)
        x0 = np.array([1.0, 1.0, 0.0]) + 0.2 * rng.normal(size=(10, 3))
        final_errors = []
        for q in (0.5, 2.0):
            cfg = PinningConfig(1.0, 0.1, list(range(10)), lap)
            trace = pinning_sync_simulate(cfg, osc, np.eye(3), x0,
                                          [1.0, 1.0, 0.0], t_final=60.0,
                                          adaptive=True, q=q)
            assert (trace.kappas >= 0.1 - 1e-12).all()  # gains only grow
            assert trace.kappas.max() < 1e3  # ... and stay bounded
            final_errors.append(trace.error[-1])
        assert min(final_errors) < 1e-3


class TestVicsekStep:
    def test_global_average_one_step(self):
        state = vicsek_init(20, 1.0, 0.03, 2.0, 0.0, seed=6)
        nxt = vicsek_step(state)
        assert np.ptp(nxt.theta) < 1e-12
        assert abs(order_parameter(nxt) - 1.0) < 1e-12

    def test_single_agent_noise_only(self):
        state = vicsek_init(1, 1.0, 0.03, 0.1, 0.0, seed=7)
        nxt = vicsek_step(state)
        assert abs(nxt.theta[0] - state.theta[0]) < 1e-12

    def test_distant_agents_independent(self):
        state = vicsek_init(2, 10.0, 0.03, 0.5, 0.0, seed=8)
        state.pos = np.array([[1.0, 1.0], [6.0, 6.0]])
        nxt = vicsek_step(state)
        assert np.allclose(nxt.theta, state.theta)

    def test_counter_rng_reproducible(self):
        a = vicsek_init(50, 5.0, 0.03, 1.0, 0.5, seed=9)
        b = vicsek_init(50, 5.0, 0.03, 1.0, 0.5, seed=9)
        for _ in range(5):
            a = vicsek_step(a)
            b = vicsek_step(b)
        assert np.array_equal(a.pos, b.pos)
        assert np.array_equal(a.theta, b.theta)

    def test_state_wrapping(self):
        state = vicsek_init(30, 2.0, 0.5, 0.5, 3.0, seed=10)
        for _ in range(10):
            state = vicsek_step(state)
        assert (state.pos >= 0).all() and (state.pos < 2.0).all()
        assert (state.theta > -np.pi - 1e-12).all()
        assert (state.theta <= np.pi + 1e-12).all()


class TestNeighbourSums:
    @pytest.mark.parametrize("seed", range(6))
    def test_against_scatter_add(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        i, j = np.nonzero(np.triu(rng.random((n, n)) < rng.uniform(0, 0.3),
                                  k=1))
        pairs = rng.permutation(np.column_stack([i, j]))
        values = rng.normal(size=n)
        # the same additions in the same order: equal bit for bit
        assert np.array_equal(_neighbour_sums(pairs, values),
                              neighbour_sums_reference(pairs, values))

    @pytest.mark.parametrize("n", [1, 5])
    def test_no_pairs(self, n):
        values = np.random.default_rng(n).normal(size=n)
        pairs = np.empty((0, 2), dtype=np.intp)
        assert np.array_equal(_neighbour_sums(pairs, values), values)


class TestVicsekOrder:
    def test_phi_in_unit_interval(self):
        res = vicsek_order_parameter(60, 5.0, 0.03, 1.0, 2.0, 100, seed=11)
        assert (res.phi >= 0).all() and (res.phi <= 1 + 1e-12).all()

    @pytest.mark.parametrize("transient", [-1, 40, 41])
    def test_transient_must_leave_two_samples(self, transient):
        with pytest.raises(InvalidArgument):
            vicsek_order_parameter(10, 5.0, 0.03, 1.0, 2.0, 40, seed=1,
                                   transient=transient)

    def test_ordered_and_disordered_regimes(self):
        ordered = vicsek_order_parameter(300, 5.0, 0.03, 1.0, 0.1, 300,
                                         seed=12)
        disordered = vicsek_order_parameter(300, 25.0, 0.03, 1.0, 5.0, 300,
                                            seed=12)
        assert ordered.mean > 0.7
        assert disordered.mean < 0.3

    def test_noise_monotonicity_trend(self):
        means = []
        for eta in (0.5, 2.5, 5.0):
            runs = [vicsek_order_parameter(100, 5.0, 0.03, 1.0, eta, 200,
                                           seed=s).mean for s in range(3)]
            means.append(np.mean(runs))
        assert means[0] > means[-1]


class TestLeader:
    def test_dense_alignment(self):
        dev = vicsek_leader_run(30, 1.0, 0.03, 0.5, theta0=0.7, steps=500,
                                seed=13)
        assert dev[500] < 1e-2

    def test_zero_radius_no_influence(self):
        dev = vicsek_leader_run(10, 1.0, 0.03, 0.0, theta0=0.7, steps=50,
                                seed=14)
        assert dev[-1] == dev[0]

    @pytest.mark.parametrize("args", [
        (30, 1.0, 0.03, 0.5, 0.7, 500, 3, 0.0),  # criterion 16's run
        (100, 5.0, 0.03, 1.0, 0.7, 300, 4, 0.0),  # r < l/2: the k-d tree
        (40, 2.0, 0.05, 0.6, -1.2, 300, 5, 0.4),  # with noise
        (10, 1.0, 0.03, 0.0, 0.7, 50, 14, 0.0),  # r = 0
    ])
    def test_against_separate_leader(self, args):
        *head, seed, eta = args
        dev = vicsek_leader_run(*head, seed=seed, eta=eta)
        want = vicsek_leader_reference(*head, seed=seed, eta=eta)
        assert np.abs(dev - want).max() <= 1e-12
