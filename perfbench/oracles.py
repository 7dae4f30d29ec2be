"""Reference answers computed without netctl.

Every function here reads the same generated input files the program
reads and recomputes the answer with numpy/scipy code of its own, so a
bug in a netctl kernel cannot hide in its own oracle.
"""
import math

import numpy as np
from scipy import linalg, sparse
from scipy.optimize import brentq, linear_sum_assignment
from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                  maximum_bipartite_matching)


# ---------------------------------------------------------------------------
# Edge lists


class EdgeList:
    """An edge-list file parsed with labels numbered in first-appearance
    order, which is the order the program numbers them in too."""

    def __init__(self, path):
        index = {}
        src, dst = [], []
        with open(path) as fh:
            for line in fh:
                a, b = line.split()[:2]
                src.append(index.setdefault(a, len(index)))
                dst.append(index.setdefault(b, len(index)))
        self.labels = list(index)
        self.index = index
        self.n = len(index)
        self.src = np.array(src, dtype=np.int64)
        self.dst = np.array(dst, dtype=np.int64)

    def indices(self, labels):
        return np.array([self.index[str(v)] for v in labels], dtype=np.int64)


def _csr(n, src, dst):
    return sparse.csr_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))


def _matching(n, src, dst):
    """match[u] = in-copy matched to out-copy u, or -1."""
    return maximum_bipartite_matching(_csr(n, src, dst), perm_type="column")


def n_drivers(n, src, dst):
    """N_D = max(N - |M*|, 1) (Liu, Slotine & Barabási 2011)."""
    size = int((_matching(n, src, dst) >= 0).sum())
    return max(n - size, 1) if n else 0


def _reachable(graph, sources):
    """Boolean mask of the nodes reachable from any of `sources`."""
    n = graph.shape[0]
    if len(sources) == 0:
        return np.zeros(n, dtype=bool)
    hub = sparse.csr_matrix(
        (np.ones(len(sources), dtype=np.int8),
         (np.zeros(len(sources), dtype=np.int64), np.asarray(sources))),
        shape=(1, n))
    aug = sparse.bmat([[graph, sparse.csr_matrix((n, 1))],
                       [hub, sparse.csr_matrix((1, 1))]], format="csr")
    order = breadth_first_order(aug, n, directed=True,
                                return_predecessors=False)
    mask = np.zeros(n + 1, dtype=bool)
    mask[order] = True
    return mask[:n]


def link_fractions(g):
    """Critical / redundant / ordinary link fractions from the
    Dulmage-Mendelsohn structure of one maximum matching: a link is in
    some but not all maximum matchings iff it lies on an alternating
    cycle or on an even alternating path from an exposed vertex."""
    n, src, dst = g.n, g.src, g.dst
    match = _matching(n, src, dst)
    matched = match[src] == dst
    # alternating digraph on out-copies 0..n-1 and in-copies n..2n-1
    rows = np.where(matched, n + dst, src)
    cols = np.where(matched, src, n + dst)
    d = _csr(2 * n, rows, cols)
    _, comp = connected_components(d, directed=True, connection="strong")
    right_matched = np.zeros(n, dtype=bool)
    right_matched[match[match >= 0]] = True
    from_left = _reachable(d, np.flatnonzero(match < 0))
    from_right = _reachable(d.T.tocsr(), n + np.flatnonzero(~right_matched))
    exchangeable = ((comp[src] == comp[n + dst]) | from_left[src]
                    | from_right[n + dst])
    ne = len(src)
    return {
        "critical": int((matched & ~exchangeable).sum()) / ne,
        "redundant": int((~matched & ~exchangeable).sum()) / ne,
        "ordinary": int(exchangeable.sum()) / ne,
    }


def degrees(g):
    return (np.bincount(g.src, minlength=g.n),
            np.bincount(g.dst, minlength=g.n))


def switchboard_count(g):
    """Divergent nodes plus one per weakly connected balanced component."""
    out_deg, in_deg = degrees(g)
    divergent = out_deg > in_deg
    ncomp, comp = connected_components(_csr(g.n, g.src, g.dst),
                                       directed=True, connection="weak")
    unbalanced = np.bincount(comp, weights=(in_deg != out_deg) | (in_deg < 1),
                             minlength=ncomp)
    return int(divergent.sum()) + int((unbalanced == 0).sum()), \
        {g.labels[v] for v in np.flatnonzero(divergent)}


def profile(g):
    out_deg, in_deg = degrees(g)
    n_s = int((in_deg == 0).sum())
    n_t = int((out_deg == 0).sum())
    n_e = max(0, n_t - n_s)
    n_i = n_drivers(g.n, g.src, g.dst) - n_s - n_e
    return {"eta_source": n_s / g.n, "eta_external": n_e / g.n,
            "eta_internal": n_i / g.n}


def root_components(n, src, dst):
    """(component id per node, boolean mask of components with no
    incoming link from another component)."""
    ncomp, comp = connected_components(_csr(n, src, dst), directed=True,
                                       connection="strong")
    has_in = np.zeros(ncomp, dtype=bool)
    cross = comp[src] != comp[dst]
    has_in[comp[dst][cross]] = True
    return comp, ~has_in


def lin_test(g, drivers):
    """Lin's structural controllability test with one dedicated input per
    node of `drivers`: (controllable, indices of the inaccessible nodes).
    With every node accessible, the system is controllable iff state and
    input out-copies can be matched onto every state in-copy (no
    dilation)."""
    drivers = np.unique(drivers)
    reach = _reachable(_csr(g.n, g.src, g.dst), drivers)
    if not reach.all():
        return False, np.flatnonzero(~reach)
    m = len(drivers)
    b = sparse.csr_matrix(
        (np.ones(len(g.src) + m, dtype=np.int8),
         (np.r_[g.src, g.n + np.arange(m)], np.r_[g.dst, drivers])),
        shape=(g.n + m, g.n))
    match = maximum_bipartite_matching(b, perm_type="column")
    return int((match >= 0).sum()) == g.n, np.zeros(0, dtype=np.int64)


def generic_rank(g, drivers):
    """Generic dimension of the subspace controllable from one dedicated
    input per node of `drivers` (Hosoe): the most accessible nodes that
    disjoint stems, each starting at an input, and cycles can cover.
    Solved as a maximum-weight cycle partition of the accessible nodes
    plus the inputs: links weigh 1, a node left uncovered (its own loop)
    and a stem's last node returning to an input weigh 0."""
    drivers = np.unique(drivers)
    reach = _reachable(_csr(g.n, g.src, g.dst), drivers)
    keep = np.flatnonzero(reach)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[keep] = np.arange(len(keep))
    r, m = len(keep), len(drivers)
    size = r + m
    w = np.full((size, size), -float(size + 1))  # no such link
    w[np.arange(size), np.arange(size)] = 0.0
    w[:r, r:] = 0.0
    inside = reach[g.src] & reach[g.dst]
    w[pos[g.src[inside]], pos[g.dst[inside]]] = 1.0
    w[r + np.arange(m), pos[drivers]] = 1.0
    rows, cols = linear_sum_assignment(w, maximize=True)
    return int(round(w[rows, cols].sum()))


def deletion_fractions(g):
    """Deletion classes by recomputing N_D on every node-deleted graph."""
    base = n_drivers(g.n, g.src, g.dst)
    counts = {"deletion-critical": 0, "deletion-ordinary": 0,
              "deletion-redundant": 0}
    for v in range(g.n):
        keep = (g.src != v) & (g.dst != v)
        s, d = g.src[keep], g.dst[keep]
        s = s - (s > v)
        d = d - (d > v)
        nd = n_drivers(g.n - 1, s, d)
        key = ("deletion-critical" if nd > base else
               "deletion-redundant" if nd < base else "deletion-ordinary")
        counts[key] += 1
    return {k: c / g.n for k, c in counts.items()}


def is_acyclic_without(g, removed):
    keep_node = np.ones(g.n, dtype=bool)
    keep_node[removed] = False
    keep = keep_node[g.src] & keep_node[g.dst]
    s, d = g.src[keep], g.dst[keep]
    if (s == d).any():
        return False
    ncomp, _ = connected_components(_csr(g.n, s, d), directed=True,
                                    connection="strong")
    return ncomp == g.n


# ---------------------------------------------------------------------------
# Undirected graphs


def laplacian(g):
    a = np.zeros((g.n, g.n))
    a[g.src, g.dst] = 1.0
    a[g.dst, g.src] = 1.0
    return np.diag(a.sum(axis=1)) - a


def is_dominating(g, nodes):
    covered = np.zeros(g.n, dtype=bool)
    nodes = np.asarray(nodes, dtype=np.int64)
    covered[nodes] = True
    chosen = covered.copy()
    covered[g.dst[chosen[g.src]]] = True
    covered[g.src[chosen[g.dst]]] = True
    return bool(covered.all())


def observed_fraction(g, phi, trials, seed):
    """Largest observed component when floor(phi N) random monitors each
    observe themselves and their neighbours, drawn as the program draws
    them: default_rng(seed).choice once per trial."""
    rng = np.random.default_rng(seed)
    n = g.n
    k = int(phi * n)
    adj = sparse.csr_matrix(
        (np.ones(2 * len(g.src)), (np.r_[g.src, g.dst], np.r_[g.dst, g.src])),
        shape=(n, n))
    sizes = []
    for _ in range(trials):
        monitors = rng.choice(n, size=k, replace=False)
        mask = np.zeros(n, dtype=bool)
        mask[monitors] = True
        mask[adj[monitors].indices] = True
        idx = np.flatnonzero(mask)
        _, lab = connected_components(adj[idx][:, idx], directed=False)
        sizes.append(np.bincount(lab).max())
    return float(np.mean(sizes)) / n


# ---------------------------------------------------------------------------
# Reaction networks


def inference_diagram(text):
    """Species list and edges i -> l (species l enters the balance of
    species i) for "rates: lhs -> rhs" / "<->" reaction lines."""
    species, index, edges = [], {}, set()

    def side(s):
        out = {}
        for term in s.split("+"):
            parts = term.split()
            coef = float(parts[0]) if len(parts) == 2 else 1.0
            name = parts[-1]
            if name not in index:
                index[name] = len(species)
                species.append(name)
            out[index[name]] = out.get(index[name], 0.0) + coef
        return out

    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if not line:
            continue
        _, body = line.split(":", 1)
        arrow = "<->" if "<->" in body else "->"
        lhs, rhs = (side(s) for s in body.split(arrow))
        directions = [(lhs, rhs)] + ([(rhs, lhs)] if arrow == "<->" else [])
        for reac, prod in directions:
            changed = {s for s in set(reac) | set(prod)
                       if reac.get(s, 0.0) != prod.get(s, 0.0)}
            edges |= {(i, l) for i in changed for l in reac}
    src, dst = (np.array(v, dtype=np.int64) for v in zip(*sorted(edges)))
    return species, src, dst


def sensor_structure(text):
    species, src, dst = inference_diagram(text)
    comp, roots = root_components(len(species), src, dst)
    sizes = sorted(int((comp == c).sum()) for c in np.flatnonzero(roots))
    return species, comp, roots, sizes


def target_sensor_costs(text, targets):
    """Cost of every non-target species that reaches all targets: total
    size of the strong components it reaches."""
    species, src, dst = inference_diagram(text)
    n = len(species)
    comp, _ = root_components(n, src, dst)
    size = np.bincount(comp)
    graph = _csr(n, src, dst)
    tset = {species.index(t) for t in targets}
    costs = {}
    for v in range(n):
        if v in tset:
            continue
        reach = _reachable(graph, [v])
        if all(reach[t] for t in tset):
            costs[species[v]] = int(size[np.unique(comp[reach])].sum())
    return costs


# ---------------------------------------------------------------------------
# Dense linear systems


def pbh_structure(a):
    """(N_D, tol, clusters) with N_D the largest geometric multiplicity
    over eigenvalue clusters; clusters are single-linkage groups of
    eigenvalues closer than tol = 1e-8 max(1, ||A||_2)."""
    n = a.shape[0]
    tol = 1e-8 * max(1.0, np.linalg.norm(a, 2))
    eig = np.linalg.eigvals(a)
    close = sparse.csr_matrix(np.abs(eig[:, None] - eig[None, :]) < tol)
    ncl, lab = connected_components(close, directed=False)
    best = 0
    for c in range(ncl):
        lam = eig[lab == c].mean()
        geo = n - np.linalg.matrix_rank(lam * np.eye(n) - a, tol=tol)
        best = max(best, int(geo))
    return best, tol, ncl


def pbh_drivers_ok(a, lam, drivers, tol):
    """PBH at lam: [A - lam I, B] has full row rank with B the columns
    of I at the driver rows."""
    n = a.shape[0]
    b = np.eye(n)[:, list(drivers)]
    m = np.hstack([a - lam * np.eye(n), b])
    return np.linalg.matrix_rank(m, tol=tol) == n


def gramian_quadrature(a, b, t_final, n_nodes=96):
    """W(T) by Gauss-Legendre quadrature of e^{Aτ} B Bᵀ e^{Aᵀτ}."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    tau = 0.5 * t_final * (x + 1.0)
    out = np.zeros_like(a)
    for tk, wk in zip(tau, w):
        eb = linalg.expm(a * tk) @ b
        out += wk * (eb @ eb.T)
    out *= 0.5 * t_final
    return 0.5 * (out + out.T)


def min_energy(a, b, x0, xf, t_final):
    w = gramian_quadrature(a, b, t_final)
    v = xf - linalg.expm(a * t_final) @ x0
    return float(v @ np.linalg.solve(w, v))


def energy_eigs(a, b, t_final):
    """1/η_i ascending, with η the eigenvalues of H = e^{-AT} W e^{-AᵀT},
    and the condition number of W."""
    w = gramian_quadrature(a, b, t_final)
    e = linalg.expm(-a * t_final)
    h = e @ w @ e.T
    eta = np.linalg.eigvalsh(0.5 * (h + h.T))
    return np.sort(1.0 / eta), float(np.linalg.cond(w))


def observer_error(a, c, l_gain, x0, z0, t_final):
    """||x - z|| at T: the estimation error obeys ė = (A - LC) e."""
    return float(np.linalg.norm(linalg.expm((a - l_gain @ c) * t_final)
                                @ (x0 - z0)))


# ---------------------------------------------------------------------------
# Cavity method


def _generating_functions(kind, k_mean, gamma):
    mu = k_mean / 2.0
    if kind == "er":
        g = lambda x: np.exp(mu * (np.atleast_1d(np.asarray(x, float)) - 1.0))
        return g, g
    # static model: rate lam(u) = mu (1-a) u^-a, substituted u = t^p with
    # p = 1/(1-a); then lam du = mu dt and the integrands are bounded
    a = 1.0 / (gamma - 1.0)
    p = 1.0 / (1.0 - a)
    x_gl, w_gl = np.polynomial.legendre.leggauss(2000)
    t = 0.5 * (x_gl + 1.0)
    w_gl = 0.5 * w_gl
    with np.errstate(over="ignore"):
        lam = mu * (1.0 - a) * t ** (-a * p)

    def weighted(x, weights):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(np.outer(x - 1.0, lam))
        e[x == 1.0] = 1.0
        return np.minimum(e @ weights, 1.0)

    g = lambda x: weighted(x, w_gl * p * t ** (p - 1.0))
    h = lambda x: weighted(x, w_gl)
    return g, h


def cavity_nd(kind, k_mean, gamma=None):
    """Driver fraction from the symmetric cavity equations
    w1 = H(w2), w2 = 1 - H(1 - w1), solved as the roots of
    f(w) = H(1 - H(1 - w)) - w by bracketing.  Roots that are fixed
    points of w -> H(1 - w) lie on the invariant submanifold and are used
    only when no other root exists."""
    g, h = _generating_functions(kind, k_mean, gamma)
    phi = lambda w: h(1.0 - np.asarray(w))
    f = lambda w: phi(phi(w)) - w
    grid = np.linspace(0.0, 1.0, 1001)
    vals = f(grid)
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:])):
        roots.append(brentq(lambda w: float(f(w)[0]), grid[i], grid[i + 1],
                            xtol=1e-15))
    physical = [w for w in roots if abs(float(phi(w)[0]) - w) > 1e-7]
    roots = physical or roots
    out = []
    for w1 in roots:
        w2 = 1.0 - float(h(1.0 - w1)[0])
        out.append(float(g(w2)[0] + g(1.0 - w1)[0] - 1.0
                         + (k_mean / 2.0) * w1 * (1.0 - w2)))
    return out


def henon_fixed_point(p=1.4, b=0.3):
    return (-(1.0 - b) + math.sqrt((1.0 - b) ** 2 + 4.0 * p)) / 2.0
