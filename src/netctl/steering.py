"""Steering nonlinear systems: open-loop entrainment, chaos control via
small parameter kicks or delayed feedback, basin-hopping perturbations, and
attractor switching by clamping a feedback vertex set."""

import itertools
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
from .graphs import DiGraph, component_ids, reach_mask


@dataclass
class OdeSystem:
    """Continuous-time system ẋ = f(t, x, u) with an optional analytic
    Jacobian ∂f/∂x; a central finite difference is used when none is given."""

    n: int
    f: Callable
    jac: Optional[Callable] = None

    def free(self, t, x):
        """ẋ at zero input, as a float array.  Where f allows it, x may hold
        one state per column, (n, k), and ẋ then has the same shape."""
        return np.asarray(self.f(t, x, np.zeros(np.shape(x))), dtype=float)

    def jacobian(self, t, x, u):
        if self.jac is not None:
            return np.asarray(self.jac(t, x, u), dtype=float)
        x = np.asarray(x, dtype=float)
        eps = 1e-6
        cols = []
        for i in range(self.n):
            dx = np.zeros(self.n)
            dx[i] = eps * max(1.0, abs(x[i]))
            fp = np.asarray(self.f(t, x + dx, u), dtype=float)
            fm = np.asarray(self.f(t, x - dx, u), dtype=float)
            cols.append((fp - fm) / (2 * dx[i]))
        return np.column_stack(cols)


def _rk4_step(rhs, t, x, h):
    """One classical Runge-Kutta step of ẋ = rhs(t, x) from (t, x)."""
    k1 = rhs(t, x)
    k2 = rhs(t + h / 2, x + h / 2 * k1)
    k3 = rhs(t + h / 2, x + h / 2 * k2)
    k4 = rhs(t + h, x + h * k3)
    return x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


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
    from scipy.integrate import solve_ivp

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
                        - sys.free(t, np.asarray(goal(t), dtype=float)))

    def rhs(t, x):
        return sys.free(t, x) + b @ input_at(t)

    if x0 is None:
        x0 = goal(0.0)
    elif np.shape(x0) != (sys.n,):
        raise InvalidArgument(f"x0 must have length {sys.n}")
    elif not np.isfinite(x0).all():
        raise NonFiniteInput("x0 must be finite")
    t_eval = np.linspace(0.0, t_final, 401)
    sol = solve_ivp(rhs, (0.0, t_final), np.asarray(x0, dtype=float),
                    t_eval=t_eval, rtol=1e-6, atol=1e-9)
    u = np.array([input_at(t) for t in t_eval])
    return SimTrace(t=t_eval, x=sol.y.T, u=u)


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


def _lagrange4(states, pos):
    """Cubic Lagrange interpolation of a uniformly sampled history at
    fractional index pos."""
    i = int(np.floor(pos))
    if float(pos) == i:
        return states[i]
    i0 = min(max(i - 1, 0), len(states) - 4)
    s = pos - i0
    out = 0.0
    for j in range(4):
        w = 1.0
        for m in range(4):
            if m != j:
                w *= (s - m) / (j - m)
        out = out + w * states[i0 + j]
    return out


def pyragas_feedback(sys, output, k_gain, tau, t_final, x0, dt=0.02):
    """Integrate ẋ = f(t, x, u) with u(t) = K [y(t) − y(t−τ)], y = x[output],
    by fixed-step RK4, interpolating y(t−τ) from the stored history.  The
    history over [−τ, 0] is the uncontrolled flow started at x0."""
    if tau <= 0:
        raise InvalidArgument("delay must be positive")
    k_gain = np.atleast_1d(np.asarray(k_gain, dtype=float))

    n_delay = max(int(round(tau / dt)), 4)
    dt = tau / n_delay  # snap the step so the delay is a whole number of steps
    n_main = int(round(t_final / dt))
    if n_main < 1:
        raise InvalidArgument("horizon must span at least one step")

    states = [np.asarray(x0, dtype=float)]  # index k holds x(−τ + k·dt)
    for k in range(n_delay):
        states.append(_rk4_step(sys.free, -tau + k * dt, states[-1], dt))

    def controlled(tc, xc):
        pos = (tc + tau) / dt - n_delay  # index of t−τ in `states`
        y_del = _lagrange4(states, pos)[output]
        return k_gain * (xc[output] - y_del)

    closed = lambda t, x: np.asarray(sys.f(t, x, controlled(t, x)), float)
    us = []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for k in range(n_main):
            tc = k * dt
            us.append(controlled(tc, states[-1]))
            states.append(_rk4_step(closed, tc, states[-1], dt))
        us.append(controlled(n_main * dt, states[-1]))

    t = np.arange(n_main + 1) * dt
    xs = np.array(states[n_delay:])
    if not np.isfinite(xs).all():
        raise InvalidArgument("the controlled flow diverges: its state "
                              "overflows")
    ys = np.array([x[output] for x in states])
    tail = max(1, n_main // 10)
    diff = np.abs(ys[n_delay:] - ys[:-n_delay])
    mismatch = float(diff[-tail:].max())
    return SimTrace(t=t, x=xs, u=np.array(us), mismatch=mismatch)


def close_return_period(sys, x0, t_transient, t_max, dt=0.01, t_min=1.0,
                        t_search=300.0):
    """Locate a periodic-orbit period by recurrence search: scan reference
    points along the post-transient flow and find the pair (point, lag)
    with the smallest return distance for lags in [t_min, t_max].  A point
    shadowing the orbit returns almost exactly after one period.  Returns
    (period, return_distance)."""
    from scipy.integrate import solve_ivp

    ref = solve_ivp(sys.free, (0.0, t_transient), np.asarray(x0, dtype=float),
                    rtol=1e-9, atol=1e-11).y[:, -1]
    t_eval = np.arange(0.0, t_search + dt / 2, dt)
    xs = solve_ivp(sys.free, (0.0, t_search), ref, t_eval=t_eval,
                   rtol=1e-9, atol=1e-11).y.T
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


# ---------------------------------------------------------------------------
# Compensatory perturbations of the initial state


def compensatory_perturbation(sys, x0, x_target, bounds=None, budget=20):
    """Nudge the initial state into the target basin by repeated corrections,
    each at most a tenth of the initial distance, along the linearized flow
    at the orbit's closest approach to the target; an orbit within 0.05 of
    the target over t ∈ [0, 20] is captured.  Returns (new_x0, iterations)."""
    from scipy.integrate import solve_ivp
    from scipy.optimize import lsq_linear

    x0 = np.asarray(x0, dtype=float).copy()
    x_target = np.asarray(x_target, dtype=float)
    if budget < 0:
        raise InvalidArgument("budget must not be negative")
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
    if np.any(lo > hi):
        raise InfeasibleConstraints("empty perturbation box")
    shift = np.zeros(sys.n)  # cumulative perturbation applied so far
    t_eval = np.linspace(0.0, 20.0, 401)

    for it in range(budget + 1):
        sol = solve_ivp(sys.free, (0.0, 20.0), x0, t_eval=t_eval,
                        rtol=1e-6, atol=1e-9)
        dist = np.linalg.norm(sol.y.T - x_target, axis=1)
        k = int(np.argmin(dist))
        if dist[k] < 0.05:
            return x0, it
        if it == budget:
            break
        t_c = t_eval[k]
        m = _flow_matrix(sys, x0, t_c)
        residual = x_target - sol.y[:, k]
        cap = 0.1 * np.linalg.norm(x_target - x0)
        lb = np.maximum(lo - shift, -cap)
        ub = np.minimum(hi - shift, cap)
        if np.any(lb > ub):
            raise InfeasibleConstraints("bounds leave no admissible step")
        delta = lsq_linear(m, residual, bounds=(lb, ub)).x
        if np.linalg.norm(delta) < 1e-12:
            raise NoCompensation("no admissible perturbation makes progress")
        x0 = x0 + delta
        shift = shift + delta
    raise NoCompensation(f"budget of {budget} iterations exhausted")


def _flow_matrix(sys, x0, t_c):
    """Variational matrix M(t_c) = ∂x(t_c)/∂x(0) along the free orbit."""
    from scipy.integrate import solve_ivp

    n = sys.n
    if t_c == 0.0:
        return np.eye(n)

    def rhs(t, z):
        dm = sys.jacobian(t, z[:n], np.zeros(n)) @ z[n:].reshape(n, n)
        return np.concatenate([sys.free(t, z[:n]), dm.ravel()])

    z0 = np.concatenate([np.asarray(x0, dtype=float), np.eye(n).ravel()])
    sol = solve_ivp(rhs, (0.0, t_c), z0, rtol=1e-8, atol=1e-10)
    return sol.y[n:, -1].reshape(n, n)


# ---------------------------------------------------------------------------
# Feedback vertex sets


def _topo_order(g, removed):
    """Kahn order of the nodes outside `removed`, or None if a cycle stays."""
    indeg = {v: 0 for v in range(g.n_nodes) if v not in removed}
    for s, d in zip(g.src.tolist(), g.dst.tolist()):
        if s not in removed and d not in removed:
            indeg[d] += 1
    indptr, heads = (a.tolist() for a in g.sorted_heads())
    stack = [v for v, c in indeg.items() if c == 0]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for d in heads[indptr[v]:indptr[v + 1]]:
            if d in indeg and d != v:
                indeg[d] -= 1
                if indeg[d] == 0:
                    stack.append(d)
    return order if len(order) == len(indeg) else None


def fvs_find(g: DiGraph, mode="heuristic") -> FvsResult:
    """Feedback vertex set: smallest node set whose removal leaves the
    digraph acyclic.  Exact mode enumerates subsets by size (N ≤ 15);
    the heuristic shrinks strongly connected components by removing
    high-traffic nodes, then restores any node not actually needed."""
    if mode == "exact":
        if g.n_nodes > 15:
            raise InvalidArgument("exact mode limited to 15 nodes")
        for size in range(g.n_nodes + 1):
            for combo in itertools.combinations(range(g.n_nodes), size):
                order = _topo_order(g, set(combo))
                if order is not None:
                    return FvsResult(nodes=sorted(combo), order=order,
                                     exact=True)
        raise InvariantViolation("removing all nodes always leaves a DAG")
    if mode != "heuristic":
        raise InvalidArgument(f"unknown mode {mode!r}")

    n = g.n_nodes
    src, dst = g.src, g.dst
    alive = np.ones(n, dtype=bool)  # False on the nodes in the set
    alive[src[src == dst]] = False
    while True:
        keep = alive[src] & alive[dst]
        s, d = src[keep], dst[keep]
        comp = component_ids(n, s, d)
        cyclic = np.flatnonzero(np.bincount(comp)[comp] > 1)
        if not cyclic.size:
            break
        inner = comp[s] == comp[d]
        # traffic score: in-component out-degree times in-degree
        score = (np.bincount(s[inner], minlength=n)
                 * np.bincount(d[inner], minlength=n))
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
    fvs = set(np.flatnonzero(~alive).tolist())
    order = _topo_order(g, fvs)
    if order is None:
        raise InvariantViolation("feedback vertex set leaves a cycle")
    return FvsResult(nodes=sorted(fvs), order=order, exact=False)


def fvs_clamp(sys, clamp_nodes, times, samples):
    """Override the clamped coordinates with a prescribed trajectory while
    integrating the rest; reports terminal distance to the final sample."""
    times = np.asarray(times, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (len(times), sys.n):
        raise MissingTrajectory("samples must cover every node at each time")
    if len(times) < 2:
        raise MissingTrajectory("need at least two trajectory samples")
    clamp_nodes = sorted(clamp_nodes)

    def prescribed(t):
        return np.array([np.interp(t, times, samples[:, j])
                         for j in clamp_nodes])

    def rhs(t, x):
        dx = sys.free(t, x)
        dx[clamp_nodes] = 0.0
        return dx

    xs = np.empty_like(samples)
    xs[0] = samples[0]
    state = samples[0].copy()
    for k in range(len(times) - 1):
        h = (times[k + 1] - times[k]) / 4  # four RK4 steps per sample
        for j in range(4):
            tc = times[k] + j * h
            state[clamp_nodes] = prescribed(tc)
            state = _rk4_step(rhs, tc, state, h)
        state[clamp_nodes] = samples[k + 1, clamp_nodes]
        xs[k + 1] = state
    terminal = float(np.linalg.norm(xs[-1] - samples[-1]))
    return SimTrace(t=times, x=xs, terminal_distance=terminal)


# ---------------------------------------------------------------------------
# Toy systems


def _rossler():
    a, b, c = 0.2, 0.2, 5.7

    def f(t, x, u):
        drive = np.zeros((3,) + np.shape(x)[1:])
        drive[:len(u)] = u
        return np.array([-x[1] - x[2], x[0] + a * x[1],
                         b + x[2] * (x[0] - c)]) + drive

    def jac(t, x, u):
        return np.array([[0.0, -1.0, -1.0],
                         [1.0, a, 0.0],
                         [x[2], 0.0, x[0] - c]])

    return OdeSystem(n=3, f=f, jac=jac)


def _bistable_gene(a=2.0, h=4.0):
    """Two mutually repressing genes with first-order decay: a bistable
    toggle whose interaction digraph is a single 2-cycle."""
    def f(t, x, u):
        return np.array([a / (1.0 + x[1] ** h) - x[0],
                         a / (1.0 + x[0] ** h) - x[1]])

    def jac(t, x, u):
        d01 = -a * h * x[1] ** (h - 1) / (1.0 + x[1] ** h) ** 2
        d10 = -a * h * x[0] ** (h - 1) / (1.0 + x[0] ** h) ** 2
        return np.array([[-1.0, d01], [d10, -1.0]])

    return OdeSystem(n=2, f=f, jac=jac)


def _double_well():
    def f(t, x, u):
        return np.array([x[0] - x[0] ** 3])

    def jac(t, x, u):
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
        residual = float(np.linalg.norm(sys.free(0, x)))
        if not residual < 1e-9:
            raise NonConvergence(residual, iterations)
        out.append(x)
    return out[0], out[1]
