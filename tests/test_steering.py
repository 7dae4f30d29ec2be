import math
import random

import networkx as nx
import numpy as np
import pytest

from netctl.errors import (
    InfeasibleConstraints,
    InvalidArgument,
    InvariantViolation,
    MissingTrajectory,
    NoCompensation,
    NonConvergence,
    NonFiniteInput,
    SingularB,
    UnknownSystem,
)
from netctl.graphs import DiGraph
from netctl.steering import (
    HenonParams,
    OdeSystem,
    compensatory_perturbation,
    fvs_clamp,
    fvs_find,
    gene_toggle_attractors,
    henon_fixed_point,
    henon_step,
    hubler_input,
    make_system,
    ogy_stabilize_henon,
    pyragas_feedback,
)
from oracles import (
    brute_force_fvs,
    finite_difference_jacobian,
    fvs_rounds_reference,
    henon_lyapunov,
    is_acyclic,
)


def linear_system(a):
    a = np.asarray(a, dtype=float)
    return OdeSystem(n=a.shape[0], f=lambda t, x: a @ x,
                     jac=lambda t, x: a)


def close_return_period(sys, x0, t_transient, t_max, dt=0.01, t_min=1.0,
                        t_search=300.0):
    """Locate a periodic-orbit period by recurrence search: scan reference
    points along the post-transient flow and find the pair (point, lag)
    with the smallest return distance for lags in [t_min, t_max].  A point
    shadowing the orbit returns almost exactly after one period.  Returns
    (period, return_distance)."""
    from netctl.steering import _rk45
    if not (0 < dt < math.inf
            and 1 <= t_min / dt <= t_max / dt < t_search / dt < math.inf):
        raise InvalidArgument("need 0 < dt ≤ t_min ≤ t_max < t_search, all "
                              "finite")
    ref = _rk45(sys.f, t_transient, x0, 1e-9, 1e-11)
    t_eval = np.arange(0.0, t_search + dt / 2, dt)
    xs = _rk45(sys.f, t_search, ref, 1e-9, 1e-11, t_eval)
    lo, hi = int(t_min / dt), int(t_max / dt)
    best = (np.inf, lo, 0)
    for lag in range(lo, hi + 1):
        d = np.linalg.norm(xs[lag:] - xs[:-lag], axis=1)
        i = int(np.argmin(d))
        if d[i] < best[0]:
            best = (float(d[i]), lag, i)
    dist_best, lag, i = best
    # parabolic refinement of the lag at the best reference point
    if lo < lag < hi:
        seg = [np.linalg.norm(xs[i + k] - xs[i]) for k in
               (lag - 1, lag, lag + 1)]
        denom = seg[0] - 2 * seg[1] + seg[2]
        shift = 0.5 * (seg[0] - seg[2]) / denom if denom > 0 else 0.0
    else:
        shift = 0.0
    return float((lag + shift) * dt), dist_best


class TestRk4Step:
    def test_fourth_order_on_linear_flow(self):
        from scipy.linalg import expm

        from netctl.steering import _rk4_step
        a = np.array([[0.0, 1.0], [-2.0, -0.3]])
        x0 = np.array([1.0, 0.5])
        exact = expm(2.0 * a) @ x0
        errors = []
        for n_steps in (10, 20, 40, 80):
            h, x = 2.0 / n_steps, x0
            for k in range(n_steps):
                x = _rk4_step(lambda t, x: a @ x, k * h, x, h)
            errors.append(np.linalg.norm(x - exact))
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert ((ratios > 14) & (ratios < 18)).all(), ratios


def counted(rhs):
    """rhs plus a list whose length counts its calls."""
    calls = []

    def wrapped(t, x):
        calls.append(t)
        return rhs(t, x)

    return wrapped, calls


def variational(sys):
    """Right-hand side of _flow_matrix's state-plus-sensitivity system."""
    n = sys.n

    def rhs(t, z):
        dm = sys.jac(t, z[:n]) @ z[n:].reshape(n, n)
        return np.concatenate([sys.f(t, z[:n]), dm.ravel()])

    return rhs


class TestRk45:
    """The Dormand-Prince port against scipy's RK45, at each call site's
    tolerances: (rtol, atol) = (1e-6, 1e-9) in hubler_input and
    compensatory_perturbation, (1e-8, 1e-10) in _flow_matrix and
    (1e-9, 1e-11) in close_return_period."""

    @staticmethod
    def assert_matches_scipy(rhs, t_final, y0, rtol, atol, t_eval=None):
        from scipy.integrate import solve_ivp

        from netctl.steering import _rk45
        ref_rhs, ref_calls = counted(rhs)
        with np.errstate(over="ignore", invalid="ignore"):  # x0 = 1e100
            sol = solve_ivp(ref_rhs, (0.0, t_final), np.asarray(y0, float),
                            t_eval=t_eval, rtol=rtol, atol=atol)
        assert sol.success
        got_rhs, got_calls = counted(rhs)
        got = _rk45(got_rhs, t_final, y0, rtol, atol, t_eval)
        want = sol.y[:, -1] if t_eval is None else sol.y.T
        assert len(got_calls) == len(ref_calls)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("t_final", [40.0, -0.5])
    def test_rossler(self, t_final):
        rhs = make_system("rossler").f
        x0 = [1.0, 1.0, 0.0]
        self.assert_matches_scipy(rhs, t_final, x0, 1e-9, 1e-11)
        self.assert_matches_scipy(rhs, t_final, x0, 1e-9, 1e-11,
                                  np.arange(0.0, t_final, t_final / 997))
        self.assert_matches_scipy(rhs, t_final, x0, 1e-6, 1e-9,
                                  np.linspace(0.0, t_final, 401))

    @pytest.mark.parametrize("t_final", [20.0, -3.0])
    def test_double_well_and_gene(self, t_final):
        t_eval = np.linspace(0.0, t_final, 401)
        starts = [("double-well", [-0.3]), ("bistable-gene", [0.3, 1.2])]
        if t_final > 0:  # backwards, x' = x - x^3 blows up from 1e100
            starts.append(("double-well", [1e100]))
        for name, x0 in starts:
            rhs = make_system(name).f
            self.assert_matches_scipy(rhs, t_final, x0, 1e-6, 1e-9, t_eval)
            self.assert_matches_scipy(rhs, t_final, x0, 1e-6, 1e-9)

    def test_flow_matrix_system(self):
        for name, x0 in (("bistable-gene", [0.8, 0.9]),
                         ("rossler", [1.0, 1.0, 0.0]),
                         ("double-well", [-0.5])):
            sys = make_system(name)
            z0 = np.concatenate([x0, np.eye(sys.n).ravel()])
            for t_c in (1.5, 7.3, -0.4):
                self.assert_matches_scipy(variational(sys), t_c, z0, 1e-8,
                                          1e-10)

    def test_seeded_stable_linear_systems(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            for _ in range(3):
                a = rng.normal(size=(n, n))
                a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.1, 1)) \
                    * np.eye(n)
                x0 = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
                for t_final in (rng.uniform(1, 15), -rng.uniform(0.1, 1)):
                    for rtol, atol in ((1e-6, 1e-9), (1e-8, 1e-10),
                                       (1e-9, 1e-11)):
                        self.assert_matches_scipy(lambda t, x: a @ x,
                                                  t_final, x0, rtol, atol)
                    self.assert_matches_scipy(
                        lambda t, x: a @ x, t_final, x0, 1e-6, 1e-9,
                        np.linspace(0.0, t_final, 401))

    def test_zero_horizon_returns_the_start(self):
        from netctl.steering import _rk45
        y0 = np.array([1.0, 2.0])
        assert np.array_equal(_rk45(lambda t, x: x, 0.0, y0, 1e-6, 1e-9), y0)
        assert np.array_equal(
            _rk45(lambda t, x: x, 0.0, y0, 1e-6, 1e-9, [0.0]), [y0])

    def test_overflow_is_a_typed_error(self):
        from netctl.steering import _rk45
        for rhs, y0 in ((lambda t, x: 5.0 * x, [1.0]),
                        (make_system("double-well").f, [1e200]),
                        (make_system("rossler").f, [1e200, 0.0, 0.0])):
            with pytest.raises(InvalidArgument, match="diverges"):
                _rk45(rhs, 1000.0, y0, 1e-6, 1e-9)

    def test_stalled_step_is_nonconvergence(self):
        # x' = x^2 from 1 blows up at t = 1, and backwards in time the
        # Rossler flow near t = -1.55; scipy's RK45 stops at both ("Required
        # step size is less than spacing between numbers")
        from scipy.integrate import solve_ivp

        from netctl.steering import _rk45
        for rhs, y0, t_final, stall in (
                (lambda t, x: x * x, [1.0], 2.0, "t = 1:"),
                (make_system("rossler").f, [1.0, 1.0, 0.0], -3.0,
                 "t = -1.54")):
            assert not solve_ivp(rhs, (0.0, t_final), y0, rtol=1e-9,
                                 atol=1e-11).success
            with pytest.raises(NonConvergence, match=stall):
                _rk45(rhs, t_final, y0, 1e-9, 1e-11)


class TestBvls:
    def test_matches_scipy_bvls(self):
        from scipy.optimize import lsq_linear

        from netctl.steering import _bvls
        rng = np.random.default_rng(5)
        active = infinite = 0
        for _ in range(500):
            n = int(rng.integers(1, 6))
            m = rng.normal(size=(int(rng.integers(n, n + 4)), n))
            r = rng.normal(size=len(m)) * 3
            lb = rng.uniform(-2, 0.5, n)
            ub = lb + rng.uniform(1e-3, 2, n)
            lb[rng.random(n) < 0.2] = -np.inf
            ub[rng.random(n) < 0.2] = np.inf
            want = lsq_linear(m, r, bounds=(lb, ub), method="bvls")
            np.testing.assert_allclose(_bvls(m, r, lb, ub), want.x,
                                       rtol=0, atol=1e-12)
            active += (want.active_mask != 0).any()
            infinite += np.isinf(np.r_[lb, ub]).any()
        assert active > 300 and infinite > 200

    def test_feasible_least_squares_is_returned(self):
        from netctl.steering import _bvls
        m = np.array([[2.0, 0.0], [0.0, 4.0]])
        x = _bvls(m, np.array([1.0, 1.0]), np.full(2, -np.inf),
                  np.full(2, np.inf))
        assert np.allclose(x, [0.5, 0.25])

    def test_equal_bounds_fix_the_variable(self):
        from netctl.steering import _bvls
        x = _bvls(np.eye(2), np.array([3.0, -3.0]), np.array([1.0, -1.0]),
                  np.array([1.0, 1.0]))
        assert np.array_equal(x, [1.0, -1.0])


class TestJacobian:
    def test_finite_difference_matches_analytic(self):
        rng = np.random.default_rng(3)
        for name in ("rossler", "bistable-gene", "double-well"):
            sys = make_system(name)
            for _ in range(10):
                # the toggle's states are concentrations
                x = rng.uniform(0.05 if name == "bistable-gene" else -5, 5,
                                sys.n)
                jn = finite_difference_jacobian(sys.f, 0.0, x)
                assert np.allclose(sys.jac(0.0, x), jn, rtol=1e-4,
                                   atol=1e-6)


class TestHubler:
    def test_fixed_point_goal_zero_input(self):
        sys = linear_system([[-1.0, 0.0], [0.0, -2.0]])
        trace = hubler_input(sys, np.eye(2), lambda t: np.zeros(2),
                             lambda t: np.zeros(2), 5.0)
        assert np.abs(trace.u).max() < 1e-12

    def test_exact_tracking_from_goal_start(self):
        sys = linear_system([[-1.0, 0.5], [0.0, -2.0]])
        goal = lambda t: np.array([np.sin(t), np.cos(2 * t)])
        goal_dot = lambda t: np.array([np.cos(t), -2 * np.sin(2 * t)])
        trace = hubler_input(sys, np.eye(2), goal, goal_dot, 10.0)
        err = max(np.linalg.norm(trace.x[i] - goal(t))
                  for i, t in enumerate(trace.t))
        assert err < 1e-5

    def test_entrainment_from_offset_start(self):
        a = np.array([[-1.0, 0.5], [0.0, -2.0]])
        sys = linear_system(a)
        goal = lambda t: np.array([np.sin(t), np.cos(2 * t)])
        goal_dot = lambda t: np.array([np.cos(t), -2 * np.sin(2 * t)])
        trace = hubler_input(sys, np.eye(2), goal, goal_dot, 12.0,
                             x0=[3.0, -2.0])
        # tracking error obeys the free linear error equation exactly
        from scipy.linalg import expm
        e0 = np.array([3.0, -2.0]) - goal(0)
        for i in (len(trace.t) // 2, len(trace.t) - 1):
            t = trace.t[i]
            predicted = expm(a * t) @ e0
            actual = trace.x[i] - goal(t)
            assert np.linalg.norm(actual - predicted) < 1e-4
        assert np.linalg.norm(trace.x[-1] - goal(trace.t[-1])) < 1e-4

    def test_singular_b(self):
        sys = linear_system(np.eye(2))
        with pytest.raises(SingularB):
            hubler_input(sys, np.ones((2, 2)), lambda t: np.zeros(2),
                         lambda t: np.zeros(2), 1.0)


    def test_overflowing_flow_is_a_typed_error(self):
        for a, x0, t in (([[5.0]], None, 1000.0),
                         ([[50.0, 0.0], [0.0, -1.0]], [1.0, 0.0], 100.0)):
            sys = linear_system(a)
            n = sys.n
            with pytest.raises(InvalidArgument, match="diverges"):
                hubler_input(sys, np.eye(n), lambda t: np.sin(t) * np.ones(n),
                             lambda t: np.cos(t) * np.ones(n), t, x0=x0)

    def test_negative_horizon(self):
        sys = linear_system([[-1.0, 0.5], [0.0, -2.0]])
        goal = lambda t: np.array([np.sin(t), np.cos(2 * t)])
        goal_dot = lambda t: np.array([np.cos(t), -2 * np.sin(2 * t)])
        trace = hubler_input(sys, np.eye(2), goal, goal_dot, -3.0)
        assert trace.t[-1] == -3.0 and trace.x.shape == (401, 2)
        # backwards the tracking error grows like e^{2|t|}
        assert max(np.linalg.norm(x - goal(t))
                   for x, t in zip(trace.x, trace.t)) < 1e-4

    def test_wrong_x0_length(self):
        sys = linear_system(np.eye(2))
        with pytest.raises(InvalidArgument):
            hubler_input(sys, np.eye(2), lambda t: np.zeros(2),
                         lambda t: np.zeros(2), 1.0, x0=[0.0, 0.0, 0.0])


class TestOgy:
    def test_fixed_point_quadratic_oracle(self):
        x = henon_fixed_point(1.4, 0.3)
        assert abs(x * x + 0.7 * x - 1.4) < 1e-12
        assert abs(x - 0.8839) < 5e-4
        nxt = henon_step(x, x, 1.4, 0.3)
        assert np.allclose(nxt, (x, x))

    def test_capture_and_hold(self):
        hp = HenonParams()
        x_star = henon_fixed_point(hp.p, hp.b)
        captured = 0
        for seed in range(10):
            try:
                trace = ogy_stabilize_henon(hp, n_steps=2000, seed=seed)
            except Exception:
                continue
            tail = trace.x[-100:]
            if np.abs(tail[:, 0] - x_star).max() < 1e-3:
                captured += 1
            assert np.abs(trace.u).max() <= 0.01 * hp.p + 1e-15
        assert captured >= 8

    def test_uncontrolled_lyapunov(self):
        lam = henon_lyapunov(1.4, 0.3)
        assert abs(lam - 0.42) < 0.03


class TestPyragas:
    def test_zero_gain_zero_control(self):
        sys = make_system("rossler")
        trace = pyragas_feedback(sys, 0, [0.0, 0.0, 0.0], 5.0, 20.0,
                                 [1.0, 1.0, 0.0])
        assert np.abs(trace.u).max() == 0.0

    def test_periodic_start_zero_mismatch(self):
        # harmonic oscillator: every orbit has period 2*pi
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])

        sys = OdeSystem(n=2, f=lambda t, x: a @ x)
        trace = pyragas_feedback(sys, 0, [0.5, 0.0], 2 * np.pi, 30.0,
                                 [1.0, 0.0], dt=0.01)
        assert trace.mismatch < 1e-6
        # one input per state, zero where the gain is
        assert trace.u.shape == (len(trace.t), 2)
        assert (trace.u[:, 1] == 0).all()

    def test_gain_of_wrong_length(self):
        sys = make_system("rossler")
        for gain in (0.5, [0.0, -0.2], [0.0, -0.2, 0.0, 0.0]):
            with pytest.raises(InvalidArgument, match="length 3"):
                pyragas_feedback(sys, 1, gain, 5.0, 20.0, [1.0, 1.0, 0.0])

    def test_fourth_order_with_delayed_input(self):
        # (x0, x1) rotate freely and x2' = -x2 + K[x0(t) - x0(t-tau)]; the
        # history through x(-tau) = (1, 0, 1) is the free flow, so
        # x0(t) = cos(t + tau) on both sides of t = 0 and the solution is
        # smooth: halving dt must cut the error of RK4 about 16x
        a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        sys = OdeSystem(n=3, f=lambda t, x: a @ x)
        tau, k = 1.0, 0.8

        def x2(t):  # e^{-t} x2(0) + K int_0^t e^{-(t-s)} [cos(s+tau) - cos s]
            ramp = lambda p: (np.cos(t + p) + np.sin(t + p)
                              - np.exp(-t) * (np.cos(p) + np.sin(p))) / 2
            return np.exp(-t - tau) + k * (ramp(tau) - ramp(0.0))

        errors = []
        for dt in (0.1, 0.05):
            trace = pyragas_feedback(sys, 0, [0.0, 0.0, k], tau, 6.0,
                                     [1.0, 0.0, 1.0], dt=dt)
            assert np.abs(trace.u[:, 2]).max() > 0.5
            errors.append(np.abs(trace.x[:, 2] - x2(trace.t)).max())
        assert errors[0] < 1e-5
        assert 12 < errors[0] / errors[1] < 20

    @pytest.mark.parametrize("change, error", [
        ({"output": 3}, InvalidArgument),
        ({"output": -1}, InvalidArgument),
        ({"x0": [1.0, 1.0]}, InvalidArgument),
        ({"x0": [1.0, np.nan, 0.0]}, NonFiniteInput),
        ({"tau": np.inf}, InvalidArgument),
        ({"t_final": np.nan}, InvalidArgument),
        ({"dt": 0.0}, InvalidArgument)],
        ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_bad_arguments(self, change, error):
        args = dict(output=1, k_gain=[0.0, -0.2, 0.0], tau=5.0, t_final=20.0,
                    x0=[1.0, 1.0, 0.0]) | change
        with pytest.raises(error):
            pyragas_feedback(make_system("rossler"), **args)

    @pytest.mark.parametrize("kwargs", [
        {"t_min": 0.001}, {"t_max": 400.0}, {"dt": 0.0}], ids=repr)
    def test_return_period_lag_window(self, kwargs):
        sys = OdeSystem(n=2, f=lambda t, x: np.array([x[1], -x[0]]))
        args = dict(t_transient=1.0, t_max=8.0, t_min=4.0, t_search=20.0,
                    dt=0.01) | kwargs
        with pytest.raises(InvalidArgument):
            close_return_period(sys, [1.0, 0.0], **args)

    def test_rossler_period_one_orbit(self):
        sys = make_system("rossler")
        period, dist = close_return_period(sys, [1.0, 1.0, 0.0],
                                           t_transient=300.0, t_max=7.0,
                                           dt=0.005, t_min=4.0,
                                           t_search=1500.0)
        assert abs(period - 5.88) < 0.05
        assert dist < 0.02
        # feedback measured from and applied to the second coordinate
        best = min(
            pyragas_feedback(sys, 1, [0.0, -k, 0.0], period, 400.0,
                             [1.0, 1.0, 0.0], dt=0.02).mismatch
            for k in (0.1, 0.2, 0.4))
        assert best < 1e-2


class TestCompensatory:
    def test_already_in_basin(self):
        sys = make_system("double-well")
        x0p, its = compensatory_perturbation(sys, [0.5], [1.0])
        assert its == 0 and x0p[0] == 0.5

    def test_positive_shift_crosses_basin(self):
        sys = make_system("double-well")
        x0p, its = compensatory_perturbation(
            sys, [-0.5], [1.0], bounds=([0.0], [3.0]), budget=40)
        assert x0p[0] > 0.0 and its > 0

    def test_negative_only_shift_fails(self):
        sys = make_system("double-well")
        with pytest.raises((NoCompensation, InfeasibleConstraints)):
            compensatory_perturbation(sys, [-0.5], [1.0],
                                      bounds=([-3.0], [0.0]), budget=10)

    def test_nan_bounds_rejected(self):
        sys = make_system("double-well")
        for bounds in (([np.nan], [1.0]), ([-1.0], [np.nan])):
            with pytest.raises(InvalidArgument, match="NaN"):
                compensatory_perturbation(sys, [-0.5], [1.0], bounds=bounds)

    def test_far_start_in_basin_needs_no_step(self):
        # x' = x - x^3 draws x0 = 1e100 to +1 without overflowing
        sys = make_system("double-well")
        x0p, its = compensatory_perturbation(sys, [1e100], [1.0])
        assert its == 0 and x0p[0] == 1e100

    def test_overflowing_orbit_is_a_typed_error(self):
        for name, x0, target in (("double-well", [1e200], [1.0]),
                                 ("rossler", [1e200, 0, 0], [0, 0, 0])):
            with pytest.raises(InvalidArgument, match="diverges"):
                compensatory_perturbation(make_system(name), x0, target)

    def test_wrong_vector_lengths(self):
        sys = make_system("double-well")
        for x0, target, bounds in (([0.5, 1.0], [1.0], None),
                                   ([0.5], [1.0, 0.0], None),
                                   ([0.5], [1.0], ([0.0, 0.0], [1.0]))):
            with pytest.raises(InvalidArgument):
                compensatory_perturbation(sys, x0, target, bounds=bounds)

    def test_flow_matrix_matches_finite_difference(self):
        from netctl.steering import _flow_matrix
        sys = make_system("bistable-gene")
        x0 = np.array([0.8, 0.9])
        t_c = 1.5
        m = _flow_matrix(sys, x0, t_c)
        from scipy.integrate import solve_ivp

        def flow(x):
            return solve_ivp(sys.f, (0, t_c), x, rtol=1e-10,
                             atol=1e-12).y[:, -1]

        eps = 1e-5
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = eps
            col = (flow(x0 + dx) - flow(x0 - dx)) / (2 * eps)
            assert np.allclose(col, m[:, j], rtol=1e-3, atol=1e-6)


class TestFvs:
    def test_single_cycle(self):
        g = DiGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        for mode in ("exact", "heuristic"):
            res = fvs_find(g, mode)
            assert len(res.nodes) == 1
            assert len(res.order) == 3

    def test_heuristic_ties_go_to_lowest_index(self):
        # every node of the 4-cycle has the same traffic score
        g = DiGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert fvs_find(g, "heuristic").nodes == [0]

    def test_heuristic_rejects_cyclic_remainder(self, monkeypatch):
        import netctl.steering as steering

        monkeypatch.setattr(steering, "_acyclic_order",
                            lambda n, src, dst, alive: None)
        g = DiGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(InvariantViolation):
            fvs_find(g, "heuristic")

    def test_dag_empty(self):
        g = DiGraph.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        for mode in ("exact", "heuristic"):
            res = fvs_find(g, mode)
            assert res.nodes == []
            assert sorted(res.order) == [0, 1, 2, 3]

    def test_self_loop_forced(self):
        g = DiGraph.from_pairs(3, [(0, 0), (1, 2)])
        assert fvs_find(g, "heuristic").nodes == [0]
        assert fvs_find(g, "exact").nodes == [0]

    def test_heuristic_near_optimal_and_certified(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(3, 12)
            pairs = sorted({(rng.randrange(n), rng.randrange(n))
                            for _ in range(rng.randint(n, 3 * n))})
            g = DiGraph.from_pairs(n, pairs)
            opt = brute_force_fvs(n, pairs)[0]
            res = fvs_find(g, "heuristic")
            assert len(res.nodes) <= opt + 2
            assert len(res.nodes) >= opt
            # certificate: the returned order really is topological
            pos = {v: i for i, v in enumerate(res.order)}
            removed = set(res.nodes)
            for s, d, _ in g.edges:
                if s not in removed and d not in removed:
                    assert pos[s] < pos[d]
            # minimality: every proper subset leaves a cycle
            for v in res.nodes:
                assert not is_acyclic(n, pairs, removed - {v})
                # certificate: returning v closes a cycle through v
                back = nx.DiGraph((s, d) for s, d in pairs
                                  if {s, d}.isdisjoint(removed - {v}))
                assert v in back and any(nx.has_path(back, w, v)
                                         for w in back.successors(v))

    def test_heuristic_matches_round_reference(self):
        rng = np.random.default_rng(17)
        larger = 0
        for _ in range(400):
            n = int(rng.integers(2, 40))
            m = int(rng.uniform(0.5, 3.5) * n)
            pairs = sorted(set(zip(rng.integers(0, n, m).tolist(),
                                   rng.integers(0, n, m).tolist())))
            want = fvs_rounds_reference(n, pairs)
            assert fvs_find(DiGraph.from_pairs(n, pairs)).nodes == want
            larger += len(want) >= 3
        assert larger >= 100

    def test_exact_matches_oracle(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(3, 8)
            pairs = sorted({(rng.randrange(n), rng.randrange(n))
                            for _ in range(2 * n)})
            g = DiGraph.from_pairs(n, pairs)
            assert len(fvs_find(g, "exact").nodes) == brute_force_fvs(n, pairs)[0]

    def test_both_modes_against_references(self):
        """Nodes equal the first minimum set in subset order (exact) or the
        round-by-round heuristic (heuristic); `order` lists the remainder
        with every kept arc pointing forward."""
        rng = random.Random(11)
        for _ in range(1500):
            n = rng.randint(1, 11)
            p = rng.uniform(0.05, 0.5)
            pairs = [(u, v) for u in range(n) for v in range(n)
                     if rng.random() < p]
            g = DiGraph.from_pairs(n, pairs)
            for mode, want in (
                    ("exact", sorted(brute_force_fvs(n, pairs)[1])),
                    ("heuristic", fvs_rounds_reference(n, pairs))):
                res = fvs_find(g, mode)
                assert res.nodes == want
                removed = set(res.nodes)
                assert sorted(res.order) == sorted(set(range(n)) - removed)
                pos = {v: i for i, v in enumerate(res.order)}
                assert all(pos[u] < pos[v] for u, v in pairs
                           if u not in removed and v not in removed)

    def test_exact_size_limit(self):
        g = DiGraph.from_pairs(16, [])
        with pytest.raises(ValueError):
            fvs_find(g, "exact")


class TestTwoArgumentSystems:
    """ẋ = f(t, x) + u: the steering kernels call f (and jac) with (t, x)
    alone and add their own input; TestPyragas covers pyragas_feedback."""

    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])  # every orbit has period 2π

    def test_hubler_input(self):
        sys = OdeSystem(n=2, f=lambda t, x: -x)
        goal = lambda t: np.array([np.sin(t), np.cos(2 * t)])
        goal_dot = lambda t: np.array([np.cos(t), -2 * np.sin(2 * t)])
        trace = hubler_input(sys, np.eye(2), goal, goal_dot, 5.0)
        want_u = np.array([goal_dot(t) + goal(t) for t in trace.t])
        assert np.allclose(trace.u, want_u, rtol=0, atol=1e-12)
        assert max(np.linalg.norm(x - goal(t))
                   for x, t in zip(trace.x, trace.t)) < 1e-5

    def test_close_return_period(self):
        sys = OdeSystem(n=2, f=lambda t, x: self.rotation @ x)
        period, dist = close_return_period(sys, [1.0, 0.0], t_transient=1.0,
                                           t_max=8.0, t_min=4.0,
                                           t_search=20.0)
        assert abs(period - 2 * np.pi) < 1e-3 and dist < 1e-2

    def test_flow_matrix_without_jac(self):
        # the flow matrix integrates jac; a start already in the basin, which
        # needs none, is refused all the same
        a = np.array([[-1.0, 0.5], [0.0, -2.0]])
        sys = OdeSystem(n=2, f=lambda t, x: a @ x)  # no jac
        with pytest.raises(InvalidArgument, match="Jacobian jac"):
            compensatory_perturbation(sys, [0.01, 0.0], [0.0, 0.0])

    def test_compensatory_perturbation(self):
        sys = OdeSystem(n=1, f=lambda t, x: x - x ** 3)
        with pytest.raises(InvalidArgument, match="Jacobian jac"):
            compensatory_perturbation(sys, [-0.5], [1.0],
                                      bounds=([0.0], [3.0]), budget=40)
        jac = lambda t, x: np.array([[1.0 - 3.0 * x[0] ** 2]])
        x0p, its = compensatory_perturbation(
            OdeSystem(n=1, f=sys.f, jac=jac), [-0.5], [1.0],
            bounds=([0.0], [3.0]), budget=40)
        assert x0p[0] > 0.0 and its > 0

    def test_fvs_clamp(self):
        sys = OdeSystem(n=2, f=lambda t, x: -x)
        times = np.linspace(0.0, 5.0, 101)
        samples = np.column_stack([np.sin(times), np.exp(-times)])
        trace = fvs_clamp(sys, [0], times, samples)
        assert (trace.x[:, 0] == samples[:, 0]).all()
        assert abs(trace.x[-1, 1] - np.exp(-5.0)) < 1e-8

    def test_gene_toggle_attractors(self):
        toggle = make_system("bistable-gene")
        for state in gene_toggle_attractors():
            assert np.linalg.norm(toggle.f(0.0, state)) < 1e-9

    def test_pinning_sync_simulate(self):
        from netctl.collective import (PinningConfig, laplacian_matrix,
                                       pinning_sync_simulate)
        from netctl.graphs import UnGraph
        osc = OdeSystem(n=2, f=lambda t, x: self.rotation @ x)
        ring = UnGraph(3, [(0, 1), (1, 2), (2, 0)])
        cfg = PinningConfig(1.0, 10.0, [0, 1, 2], laplacian_matrix(ring))
        x0 = np.random.default_rng(6).normal(size=(3, 2))
        trace = pinning_sync_simulate(cfg, osc, np.eye(2), x0, [1.0, 0.0],
                                      t_final=5.0)
        assert trace.error[-1] < 1e-6 * trace.error[0]


class TestToySystems:
    def test_unknown_name(self):
        with pytest.raises(UnknownSystem, match="choices"):
            make_system("foo")
        # still a KeyError for callers that catch the lookup failure
        with pytest.raises(KeyError):
            make_system("foo")

    def test_rossler_free_takes_one_state_per_column(self):
        # pinning_sync_simulate evaluates all its oscillators in one call
        osc = make_system("rossler")
        states = np.random.default_rng(2).normal(size=(3, 7)) * 5
        one_call = osc.f(0.0, states)
        assert one_call.shape == (3, 7)
        for k in range(7):
            assert np.array_equal(one_call[:, k], osc.f(0.0, states[:, k]))

    def test_toggle_iteration_without_fixed_point(self):
        # with a Hill exponent of 2 the corner iteration does not settle
        # within its cap
        with pytest.raises(NonConvergence):
            gene_toggle_attractors(a=2.0, h=2.0)


class TestFvsClamp:
    def test_toggle_switching(self):
        sys = make_system("bistable-gene")
        s1, s3 = gene_toggle_attractors()
        times = np.linspace(0.0, 25.0, 501)
        samples = np.tile(s3, (len(times), 1))
        # interaction digraph is one 2-cycle; either gene is a minimal FVS
        g = DiGraph.from_pairs(2, [(0, 1), (1, 0)])
        fvs = fvs_find(g, "exact").nodes
        assert len(fvs) == 1
        trace = fvs_clamp(sys, fvs, times, samples)
        assert trace.terminal_distance < 1e-3
        # clamped coordinate equals the prescription exactly at sample times
        assert (trace.x[:, fvs[0]] == samples[:, fvs[0]]).all()

    def test_empty_clamp_stays_put(self):
        sys = make_system("bistable-gene")
        s1, _ = gene_toggle_attractors()
        times = np.linspace(0.0, 10.0, 201)
        samples = np.tile(s1, (len(times), 1))
        trace = fvs_clamp(sys, [], times, samples)
        assert trace.terminal_distance < 1e-6

    def test_non_fvs_clamp_fails_to_switch(self):
        # two independent toggles; clamping only the first leaves the
        # second bistable cycle free, so from S1 the second pair stays put
        base = make_system("bistable-gene")

        sys = OdeSystem(n=4, f=lambda t, x: np.concatenate(
            [base.f(t, x[:2]), base.f(t, x[2:])]))
        s1, s3 = gene_toggle_attractors()
        times = np.linspace(0.0, 25.0, 501)
        target = np.concatenate([s3, s3])
        samples = np.tile(target, (len(times), 1))
        start = np.concatenate([s1, s1])
        samples[0] = start
        trace = fvs_clamp(sys, [0], times, samples)
        assert trace.terminal_distance > 0.5

    def test_uneven_times_linear_prescription(self):
        # x1' = x0 - x1 with x0 clamped to sin(3t) on uneven sample times:
        # x0 is held at the prescription's value at the start of each RK4
        # step, a quarter of its sample interval, so one step maps x1 to
        # c + (x1 - c) R(h) with R the RK4 polynomial of e^{-h}
        sys = OdeSystem(n=2, f=lambda t, x: np.array([0.0, x[0] - x[1]]))
        times = np.linspace(0.0, 2.0, 41) ** 2
        samples = np.column_stack([np.sin(3 * times), np.zeros(41)])
        trace = fvs_clamp(sys, [0], times, samples)
        assert (trace.x[:, 0] == samples[:, 0]).all()
        want = [0.0]
        for t0, t1 in zip(times[:-1], times[1:]):
            h = (t1 - t0) / 4
            r = 1 - h + h ** 2 / 2 - h ** 3 / 6 + h ** 4 / 24
            x1 = want[-1]
            for j in range(4):
                c = np.interp(t0 + j * h, times, samples[:, 0])
                x1 = c + (x1 - c) * r
            want.append(x1)
        assert np.allclose(trace.x[:, 1], want, rtol=0, atol=1e-12)

    def test_clamped_node_out_of_range(self):
        sys = make_system("bistable-gene")
        times = np.linspace(0.0, 1.0, 21)
        samples = np.tile([1.0, 2.0], (21, 1))
        for nodes in ([2], [-1], [0, 2]):
            with pytest.raises(InvalidArgument, match="0..1"):
                fvs_clamp(sys, nodes, times, samples)

    def test_times_not_increasing_or_not_finite(self):
        sys = make_system("bistable-gene")
        s1, s3 = gene_toggle_attractors()
        samples = np.tile(s3, (21, 1))
        samples[0] = s1
        reversed_times = np.linspace(1.0, 0.0, 21)
        nan_time = np.linspace(0.0, 1.0, 21)
        nan_time[5] = np.nan
        for times in (reversed_times, nan_time):
            with pytest.raises(InvalidArgument, match="increasing"):
                fvs_clamp(sys, [0], times, samples)

    def test_non_finite_samples(self):
        sys = make_system("bistable-gene")
        times = np.linspace(0.0, 1.0, 21)
        for i, j, v in ((0, 1, np.nan), (5, 0, np.inf)):
            samples = np.tile([1.0, 2.0], (21, 1))
            samples[i, j] = v
            with pytest.raises(NonFiniteInput):
                fvs_clamp(sys, [0], times, samples)

    def test_missing_trajectory(self):
        sys = make_system("bistable-gene")
        with pytest.raises(MissingTrajectory):
            fvs_clamp(sys, [0], [0.0, 1.0], [[1.0, 2.0]])
