import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctl.cavity import (
    PoissonDist,
    SFStaticDist,
    solve_cavity,
    solve_cavity_er,
    solve_cavity_sf,
)
from netctl.errors import InvariantViolation, NetctlError, NonConvergence
from oracles import cavity_residual, poisson_pmf, sf_static_pmf


class TestDistributions:
    def test_poisson_pmf_sums_to_one(self):
        d = PoissonDist(3.0)
        assert abs(sum(poisson_pmf(d, k) for k in range(80)) - 1.0) < 1e-10

    def test_sf_pmf_sums_to_one(self):
        d = SFStaticDist(2.0, 3.0)
        assert abs(sum(sf_static_pmf(d, k) for k in range(5000)) - 1.0) < 1e-6

    def test_sf_tail_exponent(self):
        # P(k) ~ k^-gamma: ratio of log-pmf slopes at large k
        d = SFStaticDist(2.0, 3.0)
        slope = (math.log(sf_static_pmf(d, 400))
                 - math.log(sf_static_pmf(d, 100))) / math.log(4.0)
        assert abs(slope + 3.0) < 0.25  # finite-k correction to the pure power law

    @given(st.floats(0.1, 6.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_generating_functions_map_unit_interval(self, mean, x):
        for d in (PoissonDist(mean), SFStaticDist(mean, 2.8)):
            assert 0.0 <= d.g(x) <= 1.0
            assert 0.0 <= d.h(x) <= 1.0

    def test_g_at_one(self):
        for d in (PoissonDist(2.5), SFStaticDist(1.7, 2.3)):
            assert abs(d.g(1.0) - 1.0) < 1e-9
            assert abs(d.h(1.0) - 1.0) < 1e-9

    def test_sf_requires_gamma_above_two(self):
        with pytest.raises(ValueError):
            SFStaticDist(2.0, 2.0)

    def test_sf_quadrature_must_reproduce_mean(self, monkeypatch):
        gauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: (gauss(n)[0], 1.01 * gauss(n)[1]))
        with pytest.raises(InvariantViolation):
            SFStaticDist(2.0, 3.0)


class TestSolveCavity:
    def test_sparse_limit_needs_all_drivers(self):
        nd, _ = solve_cavity_er(1e-3)
        assert nd > 0.999

    def test_er_k8_matches_decay_scale(self):
        nd, _ = solve_cavity_er(8.0)
        assert abs(nd - 0.02216) < 5e-4

    def test_fixed_point_residual(self):
        d_in = PoissonDist(3.0)
        d_out = SFStaticDist(3.0, 2.6)
        nd, state = solve_cavity(d_in, d_out, 6.0)
        assert cavity_residual(d_in, d_out, state) < 1e-8
        assert 0.0 < nd < 1.0

    def test_state_components_in_unit_interval(self):
        _, s = solve_cavity_er(5.0)
        for v in dataclasses.astuple(s):
            assert -1e-9 <= v <= 1.0 + 1e-9
        assert abs(s.w3 - (1 - s.w1 - s.w2)) < 1e-12

    def test_monotone_in_mean_degree(self):
        grid = np.arange(0.5, 12.01, 0.25)
        vals = [solve_cavity_er(k)[0] for k in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_sf_approaches_one_near_critical_exponent(self):
        nd_05, _ = solve_cavity_sf(4.0, 2.05)
        nd_01, _ = solve_cavity_sf(4.0, 2.01)
        assert nd_05 > 0.9 and nd_01 > nd_05

    def test_sf_large_gamma_recovers_er(self):
        nd_sf, _ = solve_cavity_sf(4.0, 60.0)
        nd_er, _ = solve_cavity_er(4.0)
        assert abs(nd_sf - nd_er) < 2e-3

    def test_iteration_cap_raises_nonconvergence(self):
        with pytest.raises(NonConvergence) as info:
            solve_cavity_er(24.0, max_iter=3)
        assert isinstance(info.value, NetctlError)
        assert info.value.iterations == 3
        assert info.value.residual > 1e-10
        assert "after 3 iterations" in str(info.value)

    @pytest.mark.parametrize("k_mean", [100.0, 1e3, 1e4, 1e100, 1e308])
    @pytest.mark.parametrize("gamma", [None, 2.05, 2.5, 3.0])
    def test_dense_driver_fraction_in_unit_interval(self, k_mean, gamma):
        # n_d weighs the fixed point's error by z/2, so the stopping rule
        # scales with it; an unscaled stop gave -1.9e-14 at <k> = 1e3 and
        # 6.35e286 at 1e308.  Static-model weights summing to 1 - 2.5e-13
        # (gamma = 2.05) gave n_d = -2.5e-13 from <k> = 1e4
        nd, _ = solve_cavity_er(k_mean) if gamma is None \
            else solve_cavity_sf(k_mean, gamma)
        assert 0.0 <= nd <= 1.0

    def test_driver_fraction_outside_unit_interval_raises(self):
        class Broken(PoissonDist):
            def g(self, x):
                return 2.0

        with pytest.raises(InvariantViolation, match=r"outside \[0, 1\]"):
            solve_cavity(Broken(2.0), Broken(2.0), 4.0)

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(ValueError):
            solve_cavity_er(0.0)
