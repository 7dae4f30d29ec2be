import math

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from netctl.energy import (
    energy_bounds,
    energy_spectrum,
    gramian,
    min_energy_input,
)
from netctl.errors import InvalidArgument, NonFiniteInput, SingularGramian
from netctl.exact import DenseSystem
from oracles import min_energy_trace_reference


def stable_chain(n, loop=-1.0):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i + 1, i] = 1.0
    np.fill_diagonal(a, loop)
    b = np.zeros((n, 1))
    b[0, 0] = 1.0
    return DenseSystem(a, b)


class TestGramian:
    def test_single_integrator(self):
        sys = DenseSystem(np.zeros((1, 1)), np.ones((1, 1)))
        for t in (0.5, 1.0, 3.0):
            assert abs(gramian(sys, t).w[0, 0] - t) < 1e-12

    def test_two_node_chain_positive_definite(self):
        gr = gramian(stable_chain(2), 1.0)
        assert np.linalg.eigvalsh(gr.w)[0] > 0

    def test_uncontrollable_star_singular(self):
        a = np.array([[0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        b = np.array([1.0, 0, 0])
        gr = gramian(DenseSystem(a, b), 1.0)
        assert gr.singular

    def test_matches_lyapunov_at_large_t(self):
        sys = stable_chain(4, loop=-1.5)
        w_inf = solve_continuous_lyapunov(sys.a, -sys.b @ sys.b.T)
        w = gramian(sys, 40.0).w
        assert np.allclose(w, w_inf, rtol=1e-6)

    def test_overflow_and_bad_horizons_raise(self):
        with pytest.raises(InvalidArgument):
            gramian(DenseSystem(np.diag([1e300, 1.0]), np.ones((2, 1))), 1.0)
        for t in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(InvalidArgument):
                gramian(stable_chain(2), t)

    def test_additivity_in_time(self):
        # W(2T) = W(T) + e^{AT} W(T) e^{A^T T}
        sys = stable_chain(3)
        w1 = gramian(sys, 1.0).w
        w2 = gramian(sys, 2.0).w
        e = expm(sys.a)
        assert np.allclose(w2, w1 + e @ w1 @ e.T, atol=1e-10)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            gramian(stable_chain(2), 0.0)


class TestMinEnergyInput:
    def test_single_integrator_constant_input(self):
        sys = DenseSystem(np.zeros((1, 1)), np.ones((1, 1)))
        for t_final in (0.5, 2.0):
            tr = min_energy_input(sys, [0.0], [1.0], t_final)
            assert np.allclose(tr.u, 1.0 / t_final, atol=1e-9)
            assert abs(tr.energy - 1.0 / t_final) < 1e-9

    def test_free_evolution_zero_input(self):
        sys = stable_chain(3)
        x_i = np.array([1.0, -0.5, 0.2])
        x_f = expm(sys.a * 2.0) @ x_i
        tr = min_energy_input(sys, x_i, x_f, 2.0)
        assert np.abs(tr.u).max() < 1e-8
        assert tr.energy < 1e-12

    def test_three_node_chain_reaches_targets(self):
        sys = stable_chain(3)
        x_i = np.zeros(3)
        rng = np.random.default_rng(0)
        for _ in range(3):
            x_f = rng.normal(size=3)
            x_f /= np.linalg.norm(x_f)
            tr = min_energy_input(sys, x_i, x_f, 3.0)
            err = np.linalg.norm(tr.x[-1] - x_f)
            assert err < 1e-6 * (1 + np.linalg.norm(x_f))

    def test_energy_matches_input_quadrature(self):
        sys = stable_chain(3)
        tr = min_energy_input(sys, np.zeros(3), [0.3, -0.1, 0.7], 2.0,
                              n_steps=4000)
        energy = np.trapezoid((tr.u**2).sum(axis=1), tr.t)
        assert abs(energy - tr.energy) < 1e-4 * tr.energy

    def test_trace_matches_integrated_reference(self):
        # the acceptance-criterion chain: five states driven at the head
        sys = stable_chain(5)
        rng = np.random.default_rng(23)
        for _ in range(3):
            x_i, x_f = rng.normal(size=5), rng.normal(size=5)
            tr = min_energy_input(sys, x_i, x_f, 2.0)
            u, x = min_energy_trace_reference(sys.a, sys.b, x_i, x_f, 2.0,
                                              tr.t)
            assert np.abs(tr.u - u).max() <= 1e-7 * max(1.0, np.abs(u).max())
            assert np.abs(tr.x - x).max() <= 1e-7 * max(1.0, np.abs(x).max())

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            min_energy_input(stable_chain(2), [0.0, 0.0], [1.0, 0.0], 1.0,
                             n_steps=0)

    def test_rejects_wrong_state_length(self):
        for x_i, x_f in (([0.0, 0.0], [1.0]), ([0.0], [1.0, 0.0])):
            with pytest.raises(InvalidArgument):
                min_energy_input(stable_chain(2), x_i, x_f, 1.0)

    def test_rejects_non_finite_or_overflowing_states(self):
        with pytest.raises(NonFiniteInput):
            min_energy_input(stable_chain(2), [0.0, np.nan], [1.0, 0.0], 1.0)
        with pytest.raises(InvalidArgument):
            min_energy_input(stable_chain(2), [0.0, 0.0], [1e300, 0.0], 1.0)

    def test_singular_gramian_raises(self):
        a = np.array([[0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        b = np.array([1.0, 0, 0])
        with pytest.raises(SingularGramian):
            min_energy_input(DenseSystem(a, b), np.zeros(3), np.ones(3), 1.0)


class TestEnergyBounds:
    def test_small_t_scaling(self):
        sys = stable_chain(5)
        ts = np.geomspace(1e-3, 1e-1, 7)
        es = [energy_bounds(sys, t)[0] for t in ts]
        slope = np.polyfit(np.log(ts), np.log(es), 1)[0]
        assert abs(slope + 1.0) < 0.1

    def test_emax_decay_rate_negative_definite(self):
        a = np.diag([-1.0, -2.0, -3.0])
        sys = DenseSystem(a, np.eye(3))
        ts = np.array([4.0, 6.0, 8.0])
        ems = [energy_bounds(sys, t)[1] for t in ts]
        slope = np.polyfit(ts, np.log(ems), 1)[0]
        # E_max decays like exp(2 lambda_1 T), lambda_1 the slowest mode
        assert abs(slope + 2.0) < 0.05

    def test_rayleigh_ritz_sandwich(self):
        sys = stable_chain(3)
        e_min, e_max = energy_bounds(sys, 2.0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            # bounds apply to steering a unit-norm initial state to the
            # origin: E = x0^T H^{-1} x0
            x0 = rng.normal(size=3)
            x0 /= np.linalg.norm(x0)
            tr = min_energy_input(sys, x0, np.zeros(3), 2.0, n_steps=10)
            assert e_min - 1e-10 <= tr.energy <= e_max * (1 + 1e-9)

    def test_horizon_beyond_double_raises(self):
        # H(T) = e^{-AT} W e^{-AᵀT}: its smallest eigenvalue rounds to
        # zero or below by T = 20, and H overflows by T = 300
        sys = DenseSystem(np.array([[0.0, 1.0], [-2.0, -3.0]]),
                          np.ones((2, 1)))
        for t in (20.0, 100.0, 300.0):
            with pytest.raises(SingularGramian):
                energy_bounds(sys, t)
            with pytest.raises(SingularGramian):
                energy_spectrum(sys, t)

    def test_singular_reports_infinite_emax(self):
        a = np.array([[0, 0], [0, 0.0]])
        b = np.array([1.0, 0])
        e_min, e_max = energy_bounds(DenseSystem(a, b), 1.0)
        assert math.isinf(e_max) and e_min > 0


class TestEnergySpectrum:
    def test_isotropic_gramian(self):
        sys = DenseSystem(-np.eye(4), np.eye(4))
        energies, _ = energy_spectrum(sys, 1.0)
        assert np.allclose(energies, energies[0])

    def test_single_driver_chain_dynamic_range(self):
        spans = {}
        for n in (4, 5, 6, 7, 8):
            try:
                energies, _ = energy_spectrum(stable_chain(n), 2.0)
            except SingularGramian:
                continue  # deep chains underflow; smaller sizes suffice
            spans[n] = energies[-1] / energies[0]
        sizes = sorted(spans)
        assert len(sizes) >= 3
        # dynamic range grows at least exponentially with N
        logs = np.array([math.log(spans[n]) for n in sizes])
        growth = np.diff(logs) / np.diff(sizes)
        assert (growth > 1.0).all()
        assert spans[sizes[-1]] > math.e ** sizes[-1]

    def test_directions_align_with_energies(self):
        sys = stable_chain(3)
        energies, vecs = energy_spectrum(sys, 2.0)
        gr = gramian(sys, 2.0)
        for e_i, v in zip(energies, vecs.T):
            # v is an eigendirection of H with eigenvalue 1/e_i
            assert np.allclose(gr.h @ v, v / e_i, atol=1e-10 * (1 / e_i + 1))
