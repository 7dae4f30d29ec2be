"""Collective control: spectral synchronizability, pinning a network to a
reference trajectory, and flocking with and without a leader."""

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraph, InvalidArgument, NoPinnedNodes
from .graphs import UnGraph
from .steering import _rk4_step


def laplacian_matrix(g: UnGraph) -> np.ndarray:
    lap = np.zeros((g.n_nodes, g.n_nodes))
    lap[g.u, g.v] = lap[g.v, g.u] = -1.0
    np.fill_diagonal(lap, np.bincount(np.concatenate([g.u, g.v]),
                                      minlength=g.n_nodes))
    return lap


@dataclass
class PinningConfig:
    """Diffusively coupled network with feedback applied to a pinned subset:
    ẋ_i = f(x_i) − σ Σ_j g_ij h(x_j) + δ_i σ κ_i [h(s) − h(x_i)]."""

    sigma: float
    kappa: np.ndarray  # per-node control gains
    pinned: list
    coupling: np.ndarray  # Laplacian convention: zero row sums

    def __post_init__(self):
        self.coupling = np.asarray(self.coupling, dtype=float)
        n = self.coupling.shape[0]
        self.kappa = np.broadcast_to(
            np.asarray(self.kappa, dtype=float), (n,)).copy()
        self.pinned = sorted(self.pinned)
        if np.abs(self.coupling.sum(axis=1)).max() > 1e-12:
            raise InvalidArgument("coupling matrix must have zero row sums")
        if any(self.kappa[i] <= 0 for i in self.pinned):
            raise InvalidArgument("pinned nodes need positive gains")

    @property
    def n_nodes(self):
        return self.coupling.shape[0]

    def indicator(self):
        delta = np.zeros(self.n_nodes)
        delta[self.pinned] = 1.0
        return delta


@dataclass
class PinningTrace:
    error: np.ndarray  # max_i ||x_i - s|| over time
    kappas: np.ndarray  # final control gains (evolved in adaptive mode)


def msf_eigenratio(g: UnGraph):
    """Laplacian spectrum endpoints and the eigenratio R = λ_N/λ₂; smaller
    R means a wider stable-coupling window for synchronization."""
    lam = np.linalg.eigvalsh(laplacian_matrix(g))
    lam2, lam_n = lam[1], lam[-1]
    if lam2 < 1e-10:
        raise DisconnectedGraph("λ₂ = 0: graph is not connected")
    return float(lam2), float(lam_n), float(lam_n / lam2)


def pinning_eigenratio(cfg: PinningConfig):
    """Returns (Re λ₂, Re λ_{N+1}, R^{N+1}) of the extended matrix.  Its
    spectrum is {0} ∪ eig(G + diag(δκ)) because the virtual row vanishes."""
    if not cfg.pinned:
        raise NoPinnedNodes("eigenratio undefined without pinned nodes")
    block = cfg.coupling + np.diag(cfg.indicator() * cfg.kappa)
    if np.allclose(block, block.T):
        lam = np.linalg.eigvalsh(block)
    else:
        lam = np.sort(np.linalg.eigvals(block).real)
    lam2, lam_top = float(lam[0]), float(lam[-1])
    return lam2, lam_top, lam_top / lam2


def pinning_sync_simulate(cfg, osc, h, x0, s0, t_final, adaptive=False,
                          q=1.0):
    """Integrate the pinned network alongside the reference ṡ = f(s) by RK4
    steps of 0.01 and report the worst-node deviation.  In adaptive mode
    the pinned gains grow as κ̇_i = q_i |e_i| until the errors die out.
    `osc.f` takes the node states and the reference together, as the
    n + 1 columns of one (dim, n + 1) array."""
    if t_final < 0:
        raise InvalidArgument("horizon must not be negative")
    n, dim = cfg.n_nodes, osc.n
    h = np.asarray(h, dtype=float)
    delta = cfg.indicator()
    q = np.broadcast_to(np.asarray(q, dtype=float), (n,))
    m = n * dim  # the state z is (node states, reference, gains)

    def drift(t, z):
        xc, sc, kc = z[:m].reshape(n, dim), z[m:m + dim], z[m + dim:]
        f_all = osc.f(0.0, z[:m + dim].reshape(n + 1, dim).T).T
        coupling = -cfg.sigma * cfg.coupling @ (xc @ h.T)
        control = (cfg.sigma * (delta * kc))[:, None] * ((sc - xc) @ h.T)
        dk = q * np.linalg.norm(xc - sc, axis=1) * delta if adaptive \
            else np.zeros(n)
        return np.concatenate([(f_all[:n] + coupling + control).ravel(),
                               f_all[n], dk])

    z = np.concatenate([np.asarray(x0, dtype=float).reshape(m),
                        np.asarray(s0, dtype=float), cfg.kappa])
    dt = 0.01
    n_steps = int(round(t_final / dt))
    err = np.empty(n_steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for k in range(n_steps + 1):
            if k:
                z = _rk4_step(drift, (k - 1) * dt, z, dt)
            x, s = z[:m].reshape(n, dim), z[m:m + dim]
            err[k] = np.linalg.norm(x - s, axis=1).max()
    if not np.isfinite(z).all():
        raise InvalidArgument("the pinned network diverges: its state "
                              "overflows")
    return PinningTrace(error=err, kappas=z[m + dim:])


# ---------------------------------------------------------------------------
# Flocking


def _wrap_angle(theta):
    return (theta + np.pi) % (2 * np.pi) - np.pi


def _step_rng(seed, step):
    """Counter-based stream: draws depend only on (seed, step), not on how
    many draws earlier steps made."""
    return np.random.default_rng([np.uint64(seed), np.uint64(step)])


@dataclass
class VicsekState:
    pos: np.ndarray  # (N, 2) in [0, L)
    theta: np.ndarray  # headings in (−π, π]
    v0: float
    r: float
    eta: float
    l: float
    seed: int = 0
    step: int = 0

    def __post_init__(self):
        self.pos = np.mod(np.asarray(self.pos, dtype=float), self.l)
        self.theta = _wrap_angle(np.asarray(self.theta, dtype=float))

    @property
    def n_agents(self):
        return len(self.theta)


def vicsek_init(n, l, v0, r, eta, seed=0):
    rng = _step_rng(seed, 0)
    pos = rng.uniform(0.0, l, (n, 2))
    theta = rng.uniform(-np.pi, np.pi, n)
    return VicsekState(pos=pos, theta=theta, v0=v0, r=r, eta=eta, l=l,
                       seed=seed, step=0)


def _neighbor_lists(pos, r, l):
    if r < l / 2:
        from scipy.spatial import cKDTree

        tree = cKDTree(np.mod(pos, l), boxsize=l)
        return tree.query_pairs(r, output_type="ndarray")
    # the periodic tree gives the same pairs at r >= l/2 too (scipy 1.17.1:
    # r = 0.5 and 0.7 at l = 1, r = 3 at l = 5); the direct minimum-image
    # search is kept because `vicsek-leader` defaults to r = l/2, and this
    # way loads no scipy module
    diff = np.abs(pos[:, None, :] - pos[None, :, :])
    diff = np.minimum(diff, l - diff)
    close = (diff ** 2).sum(axis=2) <= r * r
    i, j = np.nonzero(np.triu(close, k=1))
    return np.column_stack([i, j])


def _neighbour_sums(pairs, values):
    """Each agent's value plus its neighbours' under the (i, j) pairs, by
    one weighted bincount that adds them in the order that a scatter-add
    over the pairs, i's then j's, would."""
    n = len(values)
    i, j = pairs[:, 0], pairs[:, 1]
    return np.bincount(np.concatenate([np.arange(n), i, j]),
                       np.concatenate([values, values[j], values[i]]),
                       minlength=n)


def vicsek_step(state: VicsekState) -> VicsekState:
    """One synchronous update: headings move to the full-quadrant mean of
    the neighborhood (self included) plus bounded noise, then positions
    advance with the new headings and wrap periodically."""
    pairs = _neighbor_lists(state.pos, state.r, state.l)
    sin_sum = _neighbour_sums(pairs, np.sin(state.theta))
    cos_sum = _neighbour_sums(pairs, np.cos(state.theta))
    rng = _step_rng(state.seed, state.step + 1)
    noise = rng.uniform(-state.eta / 2.0, state.eta / 2.0, state.n_agents)
    theta = _wrap_angle(np.arctan2(sin_sum, cos_sum) + noise)
    vel = state.v0 * np.column_stack([np.cos(theta), np.sin(theta)])
    pos = np.mod(state.pos + vel, state.l)
    return VicsekState(pos=pos, theta=theta, v0=state.v0, r=state.r,
                       eta=state.eta, l=state.l, seed=state.seed,
                       step=state.step + 1)


def order_parameter(state: VicsekState) -> float:
    v = np.array([np.cos(state.theta).sum(), np.sin(state.theta).sum()])
    return float(np.linalg.norm(v) / state.n_agents)


@dataclass
class VicsekResult:
    phi: np.ndarray  # order parameter per recorded step
    mean: float
    stderr: float


def vicsek_order_parameter(n, l, v0, r, eta, steps, seed=0,
                           transient=None) -> VicsekResult:
    if n < 1:
        raise InvalidArgument("need at least one agent")
    if steps < 1:
        raise InvalidArgument("need at least one step")
    if not l > 0:
        raise InvalidArgument("box side must be positive")
    if r < 0:
        raise InvalidArgument("interaction radius must not be negative")
    if eta < 0:
        raise InvalidArgument("noise amplitude must not be negative")
    if transient is None:
        transient = steps // 2
    if not 0 <= transient < steps:
        raise InvalidArgument("transient must lie in [0, steps)")
    state = vicsek_init(n, l, v0, r, eta, seed)
    phi = np.empty(steps + 1)
    phi[0] = order_parameter(state)
    for k in range(steps):
        state = vicsek_step(state)
        phi[k + 1] = order_parameter(state)
    tail = phi[transient:]
    return VicsekResult(phi=phi, mean=float(tail.mean()),
                        stderr=float(tail.std(ddof=1) / np.sqrt(len(tail))))


def vicsek_leader_run(n, l, v0, r, theta0, steps, seed=0, eta=0.0):
    """Scalar-consensus flock with one extra leader agent locked to heading
    θ₀: followers average raw heading values (no angle wrap) over their
    neighborhood, weighting the leader like an extra neighbor.  Returns
    the trace of max_i |θ_i − θ₀|."""
    if n < 1:
        raise InvalidArgument("need at least one follower")
    if steps < 0:
        raise InvalidArgument("steps must not be negative")
    if not l > 0:
        raise InvalidArgument("box side must be positive")
    if r < 0:
        raise InvalidArgument("interaction radius must not be negative")
    if eta < 0:
        raise InvalidArgument("noise amplitude must not be negative")
    rng = _step_rng(seed, 0)
    pos = rng.uniform(0.0, l, (n, 2))
    # the leader is agent n, held at θ₀ and found by the same pair search
    theta = np.append(rng.uniform(-np.pi, np.pi, n), theta0)
    pos = np.vstack([pos, rng.uniform(0.0, l, 2)])
    ones = np.ones(n + 1)
    deviation = np.empty(steps + 1)
    deviation[0] = np.abs(theta[:n] - theta0).max()
    for step in range(1, steps + 1):
        pairs = _neighbor_lists(pos, r, l)
        mean = _neighbour_sums(pairs, theta) / _neighbour_sums(pairs, ones)
        noise = _step_rng(seed, step).uniform(-eta / 2.0, eta / 2.0, n) \
            if eta > 0 else 0.0
        theta[:n] = mean[:n] + noise
        vel = v0 * np.column_stack([np.cos(theta), np.sin(theta)])
        pos = np.mod(pos + vel, l)
        deviation[step] = np.abs(theta[:n] - theta0).max()
    return deviation
