"""Steering nonlinear systems: open-loop entrainment, chaos control via
small parameter kicks or delayed feedback, basin-hopping perturbations, and
attractor switching by clamping a feedback vertex set."""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleConstraints,
    InvalidArgument,
    InvariantViolation,
    MissingTrajectory,
    NoCapture,
    NoCompensation,
    NonConvergence,
    NonFiniteInput,
    SingularB,
    UnknownSystem,
)
from .graphs import DiGraph, _lists, _tarjan, component_ids, reach_mask


@dataclass
class OdeSystem:
    """Control-affine system ẋ = f(t, x) + u: f(t, x) returns the drift as
    a fresh float array, and each steering method adds its own input.  Where
    f allows it, x may hold one state per column, (n, k), and f(t, x) then
    has the same shape.  jac(t, x) is the analytic Jacobian ∂f/∂x, which
    only `compensatory_perturbation` needs."""

    n: int
    f: Callable
    jac: Optional[Callable] = None


def _rk4_step(rhs, t, x, h):
    """One classical Runge-Kutta step of ẋ = rhs(t, x) from (t, x)."""
    k1 = rhs(t, x)
    k2 = rhs(t + h / 2, x + h / 2 * k1)
    k3 = rhs(t + h / 2, x + h / 2 * k2)
    k4 = rhs(t + h, x + h * k3)
    return x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _steps_that_fit(steps, width, what, unit):
    """round(steps), once a trajectory of steps + 2 rows of `width` floats
    is known to fit in one array; otherwise, and for a count of inf or
    NaN, InvalidArgument "<what> need <steps> <unit>"."""
    if not steps + 2 <= np.iinfo(np.intp).max // (width * 8):  # 8-byte floats
        # an int count may be too large to format as a float
        shown = math.inf if steps > float(np.finfo(float).max) else steps
        raise InvalidArgument(f"{what} need {shown:.3g} {unit}, more than "
                              f"one array holds")
    return round(steps)


# Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6, 19,
# 1980): nodes, stage rows, 5th-order weights, error weights (5th minus
# 4th order, last entry for the first-same-as-last stage) and the
# coefficients of the free 4th-order interpolant.
_DP_C = [1/5, 3/10, 4/5, 8/9, 1.0]
_DP_A = [np.array(row) for row in (
    [1/5],
    [3/40, 9/40],
    [44/45, -56/15, 32/9],
    [19372/6561, -25360/2187, 64448/6561, -212/729],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656])]
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rms(v):
    return np.sqrt(v.dot(v)) / v.size ** 0.5


def _rk45(rhs, t_final, y0, rtol, atol, t_eval=None):
    """Integrate ẋ = rhs(t, x) from x(0) = y0 to t = t_final, forward or
    backward in time, by the Dormand-Prince 5(4) pair with the step control
    of Hairer, Nørsett & Wanner (Solving ODEs I, sec. II.4): RMS error norm
    scaled by atol + rtol·|x|, step factors 0.9 / 0.2 / 10, and a minimum
    step of 10 ulp of t.  The arithmetic is that of scipy's RK45, so it
    takes the same steps.  Returns the state at t_final or, given times
    t_eval ordered from 0 towards t_final, one row per time from the
    4th-order interpolant of the step that covers it."""
    y = np.asarray(y0, dtype=float)
    direction = 1.0 if t_final >= 0 else -1.0
    key = None if t_eval is None else direction * np.asarray(t_eval, float)
    if t_final == 0:
        return y.copy() if key is None else np.tile(y, (len(key), 1))
    span = abs(t_final)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        f = np.asarray(rhs(0.0, y), dtype=float)
        # initial step
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, span)
        f1 = np.asarray(rhs(h0 * direction, y + h0 * direction * f), float)
        d2 = _rms((f1 - f) / scale) / h0
        h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 \
            else (0.01 / max(d1, d2)) ** 0.2
        h_abs = min(100 * h0, h1, span)

        stages = np.empty((7, y.size))
        # views reused by every step: the stages so far, as columns
        columns = [stages[:s].T for s in range(1, 6)]
        columns_b, columns_e = stages[:-1].T, stages.T
        rows = []
        done = 0  # t_eval entries reported so far
        t = 0.0
        steps = 0
        while direction * (t - t_final) < 0:
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise NonConvergence(
                        error_norm, steps,
                        f"the integration stalls at t = {t:.6g}: its step "
                        f"fell below 10 ulp after {steps} steps")
                t_new = t + h_abs * direction
                if direction * (t_new - t_final) > 0:
                    t_new = t_final
                h = t_new - t
                h_abs = abs(h)
                stages[0] = f
                for s, (c, a, k) in enumerate(zip(_DP_C, _DP_A, columns),
                                              start=1):
                    stages[s] = rhs(t + c * h, y + np.dot(k, a) * h)
                y_new = y + h * np.dot(columns_b, _DP_B)
                f_new = np.asarray(rhs(t + h, y_new), dtype=float)
                stages[-1] = f_new
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                error_norm = _rms(np.dot(columns_e, _DP_E) * h / scale)
                if error_norm < 1:
                    factor = 10.0 if error_norm == 0 else \
                        min(10.0, 0.9 * error_norm ** -0.2)
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                if not math.isfinite(error_norm):
                    raise InvalidArgument("the flow diverges: its state "
                                          "overflows")
                h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
                rejected = True
            steps += 1
            if key is not None and done < len(key) \
                    and key[done] <= direction * t_new:
                end = int(np.searchsorted(key, direction * t_new, "right"))
                x = (key[done:end] * direction - t) / h
                p = np.cumprod(x[None].repeat(4, axis=0), axis=0)
                block = h * np.dot(columns_e.dot(_DP_P), p)
                block += y[:, None]
                rows.append(block)
                done = end
            t, y, f = t_new, y_new, f_new
    out = y if key is None else np.hstack(rows).T
    if not np.isfinite(out).all():
        raise InvalidArgument("the flow diverges: its state overflows")
    return out


@dataclass
class HenonParams:
    p: float = 1.4
    b: float = 0.3
    delta: float = 0.2

    def __post_init__(self):
        if self.delta <= 0:
            raise InvalidArgument("activation radius must be positive")


@dataclass
class SimTrace:
    t: np.ndarray
    x: np.ndarray
    u: Optional[np.ndarray] = None
    capture_step: Optional[int] = None
    mismatch: Optional[float] = None
    terminal_distance: Optional[float] = None


@dataclass
class FvsResult:
    nodes: list
    order: list  # topological order of the remainder (acyclicity certificate)
    exact: bool


# ---------------------------------------------------------------------------
# Open-loop entrainment


def hubler_input(sys, b, goal, goal_dot, t_final, x0=None):
    """Drive ẋ = F(x) + B u onto the goal trajectory with the open-loop
    input u(t) = B⁻¹ [ġ(t) − F(g(t))]."""
    if t_final == 0:
        raise InvalidArgument("horizon must be nonzero")
    b = np.asarray(b, dtype=float)
    if b.shape != (sys.n, sys.n):
        raise DimensionMismatch(f"B must be {sys.n}x{sys.n}")
    if abs(np.linalg.det(b)) < 1e-12:
        raise SingularB("input matrix is not invertible")
    b_inv = np.linalg.inv(b)

    def input_at(t):
        return b_inv @ (np.asarray(goal_dot(t), dtype=float)
                        - sys.f(t, np.asarray(goal(t), dtype=float)))

    def rhs(t, x):
        return sys.f(t, x) + b @ input_at(t)

    if x0 is None:
        x0 = goal(0.0)
    elif np.shape(x0) != (sys.n,):
        raise InvalidArgument(f"x0 must have length {sys.n}")
    elif not np.isfinite(x0).all():
        raise NonFiniteInput("x0 must be finite")
    t_eval = np.linspace(0.0, t_final, 401)
    xs = _rk45(rhs, t_final, x0, 1e-6, 1e-9, t_eval)
    u = np.array([input_at(t) for t in t_eval])
    return SimTrace(t=t_eval, x=xs, u=u)


# ---------------------------------------------------------------------------
# Chaos control of the quadratic map pair


def henon_step(x, y, p, b):
    return p + b * y - x * x, x


def henon_fixed_point(p, b):
    """Positive solution of x² + (1−b)x − p = 0; the period-1 saddle."""
    c = 1.0 - b
    return (-c + np.sqrt(c * c + 4.0 * p)) / 2.0


def ogy_gain(hp):
    """Deadbeat gain row on the unstable direction of the period-1 saddle:
    δp = C·z kills the component of z along the expanding eigenvector."""
    x_star = henon_fixed_point(hp.p, hp.b)
    jac = np.array([[-2.0 * x_star, hp.b], [1.0, 0.0]])
    g = np.array([1.0, 0.0])  # sensitivity of the map to the parameter
    eigvals, eigvecs = np.linalg.eig(jac.T)  # left eigenvectors of jac
    i_u = int(np.argmax(np.abs(eigvals)))
    lam_u = eigvals[i_u].real
    f_u = eigvecs[:, i_u].real
    return -lam_u * f_u / (f_u @ g)


def ogy_stabilize_henon(hp, n_steps=2000, seed=None):
    """Stabilize the period-1 saddle from a seeded random start with kicks
    of the parameter inside the activation radius, capped at 1% of it."""
    if n_steps < 1:
        raise InvalidArgument("need at least one step")
    _steps_that_fit(n_steps, 2, "the orbit and its kicks", "map steps")
    x0 = np.random.default_rng(seed).uniform(-0.5, 0.5, 2)
    x_star = henon_fixed_point(hp.p, hp.b)
    target = np.array([x_star, x_star])
    gain = ogy_gain(hp)
    cap = 0.01 * hp.p

    states = np.empty((n_steps + 1, 2))
    kicks = np.zeros(n_steps)
    states[0] = x0
    for k in range(n_steps):
        z = states[k] - target
        dp = 0.0
        if np.hypot(*z) <= hp.delta:
            dp = float(gain @ z)
            if abs(dp) > cap:
                dp = 0.0
        kicks[k] = dp
        states[k + 1] = henon_step(states[k, 0], states[k, 1],
                                   hp.p + dp, hp.b)

    inside = np.hypot(states[:, 0] - x_star,
                      states[:, 1] - x_star) <= hp.delta
    # capture step: first index after which the orbit never leaves the
    # activation neighbourhood
    outside = np.nonzero(~inside)[0]
    capture = 0 if inside.all() else int(outside[-1]) + 1
    if capture >= n_steps:
        raise NoCapture(f"orbit not captured within {n_steps} steps")
    return SimTrace(t=np.arange(n_steps + 1), x=states, u=kicks,
                    capture_step=capture)


# ---------------------------------------------------------------------------
# Delayed self-referencing feedback


def pyragas_feedback(sys, output, k_gain, tau, t_final, x0, dt=0.02):
    """Integrate ẋ = f(t, x) + u with u(t) = K [y(t) − y(t−τ)], y = x[output]
    and K one gain per state, by fixed-step RK4 with dt snapped so that τ is
    a whole number of steps.  The history over [−τ, 0] is the free flow
    through x0 at −τ, stored with one free step before it, so y(t−τ) at an
    RK4 stage is a stored step or the cubic midpoint of the four around it."""
    if not (isinstance(output, (int, np.integer)) and 0 <= output < sys.n):
        raise InvalidArgument(f"output must be a state index in "
                              f"0..{sys.n - 1}")
    k_gain = np.atleast_1d(np.asarray(k_gain, dtype=float))
    x0 = np.asarray(x0, dtype=float)
    if k_gain.shape != (sys.n,) or x0.shape != (sys.n,):
        raise InvalidArgument(f"the gain and x0 must have length {sys.n}")
    if not np.isfinite(x0).all():
        raise NonFiniteInput("x0 must be finite")
    if not 0 < tau < math.inf:
        raise InvalidArgument("delay must be positive and finite")
    if not (0 < dt < math.inf and math.isfinite(t_final)):
        raise InvalidArgument("the step must be positive and finite, and "
                              "the horizon finite")

    what = f"the delay {tau:g} and horizon {t_final:g}"
    n_delay = max(_steps_that_fit(tau / dt, sys.n, what, "RK4 steps"), 4)
    dt = tau / n_delay  # snap the step so the delay is a whole number of steps
    _steps_that_fit(n_delay + (t_final / dt if dt else math.inf), sys.n, what,
                    "RK4 steps")
    n_main = int(round(t_final / dt))
    if n_main < 1:
        raise InvalidArgument("horizon must span at least one step")

    xs = np.empty((n_delay + n_main + 2, sys.n))  # row r: x(−τ + (r−1)·dt)
    xs[1] = x0
    y = xs[:, output]  # a view, filled as the rows are

    def closed(t, x):
        i, half = divmod(round(2 * t / dt), 2)  # t − τ is row i + 1 + half/2
        # between rows: the cubic through the four around t − τ, at its centre
        y_del = (9 * (y[i + 1] + y[i + 2]) - y[i] - y[i + 3]) / 16 if half \
            else y[i + 1]
        return sys.f(t, x) + k_gain * (x[output] - y_del)

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        xs[0] = _rk4_step(sys.f, -tau, x0, -dt)
        for r in range(1, n_delay + n_main + 1):
            k = r - n_delay - 1  # the step from row r starts at t = k·dt
            rhs = closed if k >= 0 else sys.f
            xs[r + 1] = _rk4_step(rhs, k * dt, xs[r], dt)
    if not np.isfinite(xs).all():
        raise InvalidArgument("the controlled flow diverges: its state "
                              "overflows")
    lag = y[n_delay + 1:] - y[1:n_main + 2]  # y(t) − y(t−τ) on the grid
    tail = max(1, n_main // 10)
    return SimTrace(t=np.arange(n_main + 1) * dt, x=xs[n_delay + 1:],
                    u=lag[:, None] * k_gain,
                    mismatch=float(np.abs(lag[-tail:]).max()))


# ---------------------------------------------------------------------------
# Compensatory perturbations of the initial state


def compensatory_perturbation(sys, x0, x_target, bounds=None, budget=20):
    """Nudge the initial state into the target basin by repeated corrections,
    each at most a tenth of the initial distance, along the linearized flow
    at the orbit's closest approach to the target; an orbit within 0.05 of
    the target over t ∈ [0, 20] is captured.  Returns (new_x0, iterations)."""
    x0 = np.asarray(x0, dtype=float).copy()
    x_target = np.asarray(x_target, dtype=float)
    if budget < 0:
        raise InvalidArgument("budget must not be negative")
    if sys.jac is None:
        raise InvalidArgument("the linearized flow needs the system's "
                              "Jacobian jac")
    if bounds is None:
        lo = np.full(sys.n, -np.inf)
        hi = np.full(sys.n, np.inf)
    else:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
    if any(v.shape != (sys.n,) for v in (x0, x_target, lo, hi)):
        raise InvalidArgument(f"x0, the target and the bounds must each "
                              f"have length {sys.n}")
    if not (np.isfinite(x0).all() and np.isfinite(x_target).all()):
        raise NonFiniteInput("x0 and the target must be finite")
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise InvalidArgument("the bounds must be numbers or ±inf, not NaN")
    if np.any(lo > hi):
        raise InfeasibleConstraints("empty perturbation box")
    shift = np.zeros(sys.n)  # cumulative perturbation applied so far
    t_eval = np.linspace(0.0, 20.0, 401)

    for it in range(budget + 1):
        xs = _rk45(sys.f, 20.0, x0, 1e-6, 1e-9, t_eval)
        dist = np.linalg.norm(xs - x_target, axis=1)
        k = int(np.argmin(dist))
        if dist[k] < 0.05:
            return x0, it
        if it == budget:
            break
        t_c = t_eval[k]
        m = _flow_matrix(sys, x0, t_c)
        residual = x_target - xs[k]
        cap = 0.1 * np.linalg.norm(x_target - x0)
        lb = np.maximum(lo - shift, -cap)
        ub = np.minimum(hi - shift, cap)
        if np.any(lb > ub):
            raise InfeasibleConstraints("bounds leave no admissible step")
        delta = _bvls(m, residual, lb, ub)
        if np.linalg.norm(delta) < 1e-12:
            raise NoCompensation("no admissible perturbation makes progress")
        x0 = x0 + delta
        shift = shift + delta
    raise NoCompensation(f"budget of {budget} iterations exhausted")


def _flow_matrix(sys, x0, t_c):
    """Variational matrix M(t_c) = ∂x(t_c)/∂x(0) along the free orbit."""
    n = sys.n
    if t_c == 0.0:
        return np.eye(n)

    def rhs(t, z):
        dm = sys.jac(t, z[:n]) @ z[n:].reshape(n, n)
        return np.concatenate([sys.f(t, z[:n]), dm.ravel()])

    z0 = np.concatenate([np.asarray(x0, dtype=float), np.eye(n).ravel()])
    return _rk45(rhs, t_c, z0, 1e-8, 1e-10)[n:].reshape(n, n)


def _bvls(m, r, lb, ub):
    """Bounded-variable least squares (Stark & Parker, Comput. Stat. 10,
    129, 1995): x minimising ‖m x − r‖ subject to lb ≤ x ≤ ub, where a bound
    may be ±inf.  The unconstrained solution is returned when it is
    feasible; otherwise free variables that leave the box are pinned to it,
    and each outer step frees the bound variable with the largest KKT
    violation and solves on the free set, stepping back to the first bound
    crossed, as in scipy's lsq_linear(method="bvls") with tol 1e-10."""
    tol = 1e-10
    x = np.linalg.lstsq(m, r, rcond=-1)[0]
    if ((x >= lb) & (x <= ub)).all():
        return x
    on_bound = np.zeros(len(x))  # -1 at the lower bound, +1 at the upper
    low, high = x <= lb, x >= ub
    x[low], on_bound[low] = lb[low], -1
    x[high], on_bound[high] = ub[high], 1

    def solve_free(free):
        fixed = m.dot(x * (on_bound != 0))
        return np.linalg.lstsq(m[:, free], r - fixed, rcond=None)[0]

    def kkt_violation(g):
        g_kkt = g * on_bound
        free = on_bound == 0
        g_kkt[free] = np.abs(g[free])
        return np.max(g_kkt)

    # start: solve on the free variables, pin those that leave the box,
    # and repeat until the free solution is feasible
    free = np.flatnonzero(on_bound == 0)
    while free.size:
        z = solve_free(free)
        lbv, ubv = z < lb[free], z > ub[free]
        x[free[lbv]], on_bound[free[lbv]] = lb[free[lbv]], -1
        x[free[ubv]], on_bound[free[ubv]] = ub[free[ubv]], 1
        inside = ~(lbv | ubv)
        x[free[inside]] = z[inside]
        if inside.all():
            break
        free = free[inside]
    res = m.dot(x) - r
    cost = 0.5 * np.dot(res, res)
    g = m.T.dot(res)
    for _ in range(len(x)):
        if kkt_violation(g) < tol:
            break
        on_bound[np.argmax(g * on_bound)] = 0
        while True:
            free = np.flatnonzero(on_bound == 0)
            x_free, lb_free, ub_free = x[free], lb[free], ub[free]
            z = solve_free(free)
            lbv, = np.nonzero(z < lb_free)
            ubv, = np.nonzero(z > ub_free)
            v = np.hstack((lbv, ubv))
            if not v.size:
                x[free] = z
                break
            # move towards z until the first variable reaches its bound
            alphas = np.hstack((lb_free[lbv] - x_free[lbv],
                                ub_free[ubv] - x_free[ubv])) \
                / (z[v] - x_free[v])
            i = np.argmin(alphas)
            alpha = alphas[i]
            x_free *= 1 - alpha
            x_free += alpha * z
            x[free] = x_free
            on_bound[free[v[i]]] = -1 if i < lbv.size else 1
        res = m.dot(x) - r
        cost_new = 0.5 * np.dot(res, res)
        stalled = cost - cost_new < tol * cost
        cost = cost_new
        g = m.T.dot(res)
        if stalled:
            break
    return x


# ---------------------------------------------------------------------------
# Feedback vertex sets


def _acyclic_order(n, src, dst, alive):
    """The nodes of `alive` in a topological order of the arcs src[i] ->
    dst[i] between them, or None if those arcs close a cycle.  They are
    acyclic iff no kept node has a self-loop and each strong component is
    one node; Tarjan closes components sinks first, so descending component
    id is the order."""
    keep = alive[src] & alive[dst]
    src, dst = src[keep], dst[keep]
    if (src == dst).any():
        return None
    comp, count = _tarjan(n, *_lists(n, src, dst))
    if count < n:
        return None
    order = np.argsort(comp)[::-1]  # comp is a permutation of 0..n-1
    return order[alive[order]].tolist()


def fvs_find(g: DiGraph, mode="heuristic") -> FvsResult:
    """Feedback vertex set: smallest node set whose removal leaves the
    digraph acyclic.  Exact mode enumerates subsets by size (N ≤ 15);
    the heuristic shrinks strongly connected components by removing
    high-traffic nodes, then restores any node not actually needed."""
    n = g.n_nodes
    src, dst = g.src, g.dst
    if mode == "exact":
        if n > 15:
            raise InvalidArgument("exact mode limited to 15 nodes")
        for size in range(n + 1):
            for combo in itertools.combinations(range(n), size):
                alive = np.ones(n, dtype=bool)
                alive[list(combo)] = False
                order = _acyclic_order(n, src, dst, alive)
                if order is not None:
                    return FvsResult(nodes=list(combo), order=order,
                                     exact=True)
        raise InvariantViolation("removing all nodes always leaves a DAG")
    if mode != "heuristic":
        raise InvalidArgument(f"unknown mode {mode!r}")

    alive = np.ones(n, dtype=bool)  # False on the nodes in the set
    alive[src[src == dst]] = False
    s, d = src, dst
    while True:
        keep = alive[s] & alive[d]
        s, d = s[keep], d[keep]
        comp = component_ids(n, s, d)
        cyclic = np.flatnonzero(np.bincount(comp)[comp] > 1)
        if not cyclic.size:
            break
        # removing nodes only splits components, so an arc between two
        # components never lies on a cycle again
        inner = comp[s] == comp[d]
        s, d = s[inner], d[inner]
        # traffic score: in-component out-degree times in-degree
        score = (np.bincount(s, minlength=n)
                 * np.bincount(d, minlength=n))
        # each cyclic SCC gives up its highest-score node, lowest index on
        # ties: the first of its run once sorted by (component, -score, index)
        ranked = cyclic[np.lexsort((cyclic, -score[cyclic], comp[cyclic]))]
        c = comp[ranked]
        alive[ranked[np.r_[True, c[1:] != c[:-1]]]] = False
    # minimality pass: put back each node whose return keeps the remainder
    # acyclic, i.e. whose out-neighbours outside the set do not reach it
    for v in np.flatnonzero(~alive).tolist():
        alive[v] = True
        keep = alive[src] & alive[dst]
        alive[v] = not reach_mask(n, src[keep], dst[keep],
                                  dst[keep & (src == v)])[v]
    order = _acyclic_order(n, src, dst, alive)
    if order is None:
        raise InvariantViolation("feedback vertex set leaves a cycle")
    return FvsResult(nodes=np.flatnonzero(~alive).tolist(), order=order,
                     exact=False)


def fvs_clamp(sys, clamp_nodes, times, samples):
    """Override the clamped coordinates with the samples, linear in between,
    while integrating the rest; reports terminal distance to the final
    sample."""
    times = np.asarray(times, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (len(times), sys.n):
        raise MissingTrajectory("samples must cover every node at each time")
    if len(times) < 2:
        raise MissingTrajectory("need at least two trajectory samples")
    clamp_nodes = sorted(clamp_nodes)
    if clamp_nodes and not 0 <= clamp_nodes[0] <= clamp_nodes[-1] < sys.n:
        raise InvalidArgument(f"clamped nodes must lie in 0..{sys.n - 1}")
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise InvalidArgument("sample times must be finite and strictly "
                              "increasing")
    if not np.isfinite(samples).all():
        raise NonFiniteInput("the prescribed samples must be finite")
    # linear between samples: clamped[k] + (j/4)·ramp[k] at step j of k
    clamped = samples[:, clamp_nodes]
    ramp = np.diff(clamped, axis=0)

    def rhs(t, x):
        dx = sys.f(t, x)
        dx[clamp_nodes] = 0.0
        return dx

    xs = np.empty_like(samples)
    xs[0] = samples[0]
    state = samples[0].copy()
    for k in range(len(times) - 1):
        h = (times[k + 1] - times[k]) / 4  # four RK4 steps per sample
        for j in range(4):
            state[clamp_nodes] = clamped[k] + j / 4 * ramp[k]
            state = _rk4_step(rhs, times[k] + j * h, state, h)
        state[clamp_nodes] = clamped[k + 1]
        xs[k + 1] = state
    terminal = float(np.linalg.norm(xs[-1] - samples[-1]))
    return SimTrace(t=times, x=xs, terminal_distance=terminal)


# ---------------------------------------------------------------------------
# Toy systems


def _rossler():
    a, b, c = 0.2, 0.2, 5.7

    def f(t, x):
        return np.array([-x[1] - x[2], x[0] + a * x[1],
                         b + x[2] * (x[0] - c)])

    def jac(t, x):
        return np.array([[0.0, -1.0, -1.0],
                         [1.0, a, 0.0],
                         [x[2], 0.0, x[0] - c]])

    return OdeSystem(n=3, f=f, jac=jac)


def _bistable_gene(a=2.0, h=4.0):
    """Two mutually repressing genes with first-order decay: a bistable
    toggle whose interaction digraph is a single 2-cycle."""
    def f(t, x):
        return np.array([a / (1.0 + x[1] ** h) - x[0],
                         a / (1.0 + x[0] ** h) - x[1]])

    def jac(t, x):
        d01 = -a * h * x[1] ** (h - 1) / (1.0 + x[1] ** h) ** 2
        d10 = -a * h * x[0] ** (h - 1) / (1.0 + x[0] ** h) ** 2
        return np.array([[-1.0, d01], [d10, -1.0]])

    return OdeSystem(n=2, f=f, jac=jac)


def _double_well():
    def f(t, x):
        return np.array([x[0] - x[0] ** 3])

    def jac(t, x):
        return np.array([[1.0 - 3.0 * x[0] ** 2]])

    return OdeSystem(n=1, f=f, jac=jac)


_TOYS = {
    "rossler": _rossler,
    "bistable-gene": _bistable_gene,
    "double-well": _double_well,
}


def make_system(name) -> OdeSystem:
    try:
        factory = _TOYS[name]
    except KeyError:
        raise UnknownSystem(f"unknown toy system {name!r}; "
                            f"choices: {sorted(_TOYS)}") from None
    return factory()


def gene_toggle_attractors(a=2.0, h=4.0):
    """The two stable states of the toggle, found by fixed-point iteration
    from the two biased corners."""
    sys = _bistable_gene(a, h)
    out = []
    for start in (np.array([a, 0.0]), np.array([0.0, a])):
        x = start
        for iterations in range(1, 10001):
            nxt = np.array([a / (1.0 + x[1] ** h), a / (1.0 + x[0] ** h)])
            if np.linalg.norm(nxt - x) < 1e-12:
                break
            x = nxt
        residual = float(np.linalg.norm(sys.f(0, x)))
        if not residual < 1e-9:
            raise NonConvergence(residual, iterations)
        out.append(x)
    return out[0], out[1]
