"""Independent brute-force oracles and result checkers used across the
test suite.

Nothing here calls the algorithms under test.
"""
import dataclasses
import itertools

import numpy as np


def all_matchings(edges):
    """Yield every matching (as a frozenset of (src, dst)) of a digraph
    edge list, in the shared-no-heads / shared-no-tails sense."""
    edges = list(edges)

    def rec(i, used_src, used_dst, current):
        if i == len(edges):
            yield frozenset(current)
            return
        yield from rec(i + 1, used_src, used_dst, current)
        s, d = edges[i]
        if s not in used_src and d not in used_dst:
            current.append((s, d))
            yield from rec(i + 1, used_src | {s}, used_dst | {d}, current)
            current.pop()

    yield from rec(0, frozenset(), frozenset(), [])


def maximum_matchings(edges):
    """All maximum matchings by exhaustive enumeration."""
    best = []
    best_size = -1
    for m in all_matchings(edges):
        if len(m) > best_size:
            best, best_size = [m], len(m)
        elif len(m) == best_size:
            best.append(m)
    return best, best_size


def kalman_rank_numeric(a, b_cols):
    """Numeric rank of [B, AB, ..., A^{N-1}B]."""
    n = a.shape[0]
    b = np.asarray(b_cols, dtype=float)
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    c = np.hstack(blocks)
    return np.linalg.matrix_rank(c)


def generic_min_drivers(pairs, n, rng, draws=5):
    """Brute-force minimum number of independent input signals giving
    numeric Kalman rank N under generic weights.  Each signal may attach
    to any subset of nodes, so B is drawn fully dense (best over `draws`)."""
    for size in range(1, n + 1):
        for _ in range(draws):
            a = np.zeros((n, n))
            for s, d in pairs:
                a[d, s] = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
            b = rng.uniform(0.5, 2.0, (n, size)) * rng.choice([-1, 1], (n, size))
            if kalman_rank_numeric(a, b) == n:
                return size
    return n


def brute_force_mds(n, edges):
    """Minimum dominating set size by bitmask subset search, n <= ~20."""
    cover = [1 << i for i in range(n)]
    for u, v in edges:
        cover[u] |= 1 << v
        cover[v] |= 1 << u
    full = (1 << n) - 1
    best = n
    for mask in range(1 << n):
        if bin(mask).count("1") >= best:
            continue
        dom = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            dom |= cover[i]
            m &= m - 1
        if dom == full:
            best = bin(mask).count("1")
    return best


def brute_force_fvs(n, pairs):
    """Minimum feedback vertex set size by increasing-size subset search."""

    def acyclic(removed):
        adj = [[] for _ in range(n)]
        for s, d in pairs:
            if s not in removed and d not in removed:
                if s == d:
                    return False
                adj[s].append(d)
        indeg = [0] * n
        for s in range(n):
            for d in adj[s]:
                indeg[d] += 1
        stack = [v for v in range(n) if v not in removed and indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for d in adj[v]:
                indeg[d] -= 1
                if indeg[d] == 0:
                    stack.append(d)
        return seen == n - len(removed)

    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            if acyclic(set(subset)):
                return size, set(subset)
    raise AssertionError("unreachable")


def longest_path_layers(n, pairs, source):
    """Layer index of `source` in a DAG: number of nodes on the longest
    directed path starting at source (source included)."""
    adj = [[] for _ in range(n)]
    for s, d in pairs:
        adj[s].append(d)
    memo = {}

    def depth(v):
        if v in memo:
            return memo[v]
        memo[v] = 1 + max((depth(w) for w in adj[v]), default=0)
        return memo[v]

    return depth(source)


def control_centrality_reference(n, pairs, controlled):
    """Generic dimension of the subspace controllable from `controlled`,
    as a dense square cycle cover of the accessible part.

    The accessible nodes come from a breadth-first search.  The cover
    runs over the accessible states plus one input vertex per controlled
    node: a link or an input link weighs 1, and weight-0 self-loops
    wherever missing plus weight-0 return arcs from every state to every
    input close the cover.  Every other pair is forbidden.
    """
    from scipy.optimize import linear_sum_assignment

    adj = [[] for _ in range(n)]
    for s, d in pairs:
        adj[s].append(d)
    reach = set(controlled)
    frontier = list(reach)
    while frontier:
        for d in adj[frontier.pop()]:
            if d not in reach:
                reach.add(d)
                frontier.append(d)
    index = {v: i for i, v in enumerate(sorted(reach))}
    k = len(index)
    inputs = sorted(set(controlled))
    size = k + len(inputs)
    w = np.full((size, size), -float(size + 1))
    np.fill_diagonal(w, 0.0)
    w[:k, k:] = 0.0
    for s, d in pairs:
        if s in index and d in index:
            w[index[s], index[d]] = 1.0
    for j, v in enumerate(inputs):
        w[k + j, index[v]] = 1.0
    rows, cols = linear_sum_assignment(w, maximize=True)
    return int(round(w[rows, cols].sum()))


def henon_lyapunov(p, b, n_iter=30000, n_skip=500, x0=(0.1, 0.1)):
    """Largest Lyapunov exponent of the quadratic map pair by tangent-vector
    iteration with per-step renormalization."""
    import numpy as np

    x, y = x0
    v = np.array([1.0, 0.0])
    total = 0.0
    counted = 0
    for k in range(n_iter):
        jac = np.array([[-2.0 * x, b], [1.0, 0.0]])
        x, y = p + b * y - x * x, x
        v = jac @ v
        norm = np.linalg.norm(v)
        v /= norm
        if k >= n_skip:
            total += np.log(norm)
            counted += 1
    return total / counted


def cluster_reference(eig, tol):
    """Single-linkage clusters of eigenvalues closer than tol, compared
    pairwise.  Returns (centroids, sizes) in (real, imag) order of the
    centroids; a centroid is the mean of its members in index order."""
    n = len(eig)
    label = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(eig[i] - eig[j]) < tol and label[i] != label[j]:
                old = label[j]
                label = [label[i] if x == old else x for x in label]
    groups = {}
    for i in range(n):
        groups.setdefault(label[i], []).append(i)
    centers = [np.mean([eig[i] for i in idx]) for idx in groups.values()]
    sizes = [len(idx) for idx in groups.values()]
    order = np.lexsort((np.imag(centers), np.real(centers)))
    return [centers[k] for k in order], [sizes[k] for k in order]


def pbh_min_drivers_reference(a):
    """Exact N_D, the maximising eigenvalue and its row-order driver set by
    brute force: every eigenvalue cluster gets a full rank test, and a row
    of A - λI is a driver when appending it to the independent rows
    before it does not raise the numeric rank (one SVD per row).

    Clusters are `cluster_reference`'s at tol = 1e-8 max(1, ||A||_2);
    ties in geometric multiplicity go to the first cluster in (real, imag)
    order.  Returns (n_d, lam, drivers); the driver count may differ from
    n_d where the rank test and the row rule disagree numerically.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    tol = 1e-8 * max(1.0, np.linalg.norm(a, 2))

    def rank(m):
        return int((np.linalg.svd(m, compute_uv=False) > tol).sum())

    centers, _ = cluster_reference(np.linalg.eigvals(a), tol)
    geo = [n - rank(lam * np.eye(n) - a) for lam in centers]
    best = int(np.argmax(geo))
    lam = centers[best]
    m = a - lam * np.eye(n)
    kept, drivers = [], []
    for i, row in enumerate(m):
        if rank(np.vstack(kept + [row])) > len(kept):
            kept.append(row)
        else:
            drivers.append(i)
    return geo[best], lam, drivers


def min_energy_trace_reference(a, b, x_i, x_f, t_final, t_eval):
    """Minimum-energy input and trajectory of a stable system by direct
    integration: W(T) = W∞ - e^{AT} W∞ e^{AᵀT} from the Lyapunov equation,
    u(t) = Bᵀ e^{Aᵀ(T-t)} W⁻¹ (x_f - e^{AT} x_i), and ẋ = Ax + Bu
    integrated by solve_ivp at rtol 1e-10.  Returns (u, x) on t_eval."""
    from scipy.integrate import solve_ivp
    from scipy.linalg import expm, solve_continuous_lyapunov

    w_inf = solve_continuous_lyapunov(a, -b @ b.T)
    e_final = expm(a * t_final)
    w = w_inf - e_final @ w_inf @ e_final.T
    alpha = np.linalg.solve(w, x_f - e_final @ x_i)

    def u_of(t):
        return b.T @ expm(a.T * (t_final - t)) @ alpha

    sol = solve_ivp(lambda t, x: a @ x + b @ u_of(t), (0.0, t_final), x_i,
                    t_eval=t_eval, rtol=1e-10, atol=1e-12)
    return np.array([u_of(t) for t in t_eval]), sol.y.T


def hopcroft_karp_reference(n, pairs):
    """Canonical Hopcroft-Karp matching of the bipartite split of a digraph
    on n nodes with edge list `pairs`, over Python adjacency lists: each
    phase is a full BFS layering from the free out-copies, then an
    iterative DFS from each free out-copy in index order along index-sorted
    adjacency.  Returns (pair_left, pair_right) lists."""
    from collections import deque

    adj = [[] for _ in range(n)]
    for s, d in pairs:
        adj[s].append(d)
    for a in adj:
        a.sort()
    pair_l = [-1] * n
    pair_r = [-1] * n
    INF = float("inf")
    dist = [INF] * n

    def bfs():
        q = deque()
        for u in range(n):
            if pair_l[u] < 0 and adj[u]:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = pair_r[v]
                if w < 0:
                    found = True
                elif dist[w] is INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    iters = [0] * n

    def dfs(root):
        path = [root]
        iters[root] = 0
        while path:
            u = path[-1]
            advanced = False
            while iters[u] < len(adj[u]):
                v = adj[u][iters[u]]
                iters[u] += 1
                w = pair_r[v]
                if w < 0:
                    for x in reversed(path):
                        pair_r[v], pair_l[x], v = x, v, pair_l[x]
                    return True
                if dist[w] == dist[u] + 1:
                    iters[w] = 0
                    path.append(w)
                    advanced = True
                    break
            if not advanced:
                dist[u] = INF
                path.pop()
        return False

    while bfs():
        for u in range(n):
            if pair_l[u] < 0 and adj[u]:
                dfs(u)
    return pair_l, pair_r


def parse_edge_list_reference(text, directed=True):
    """Line-by-line edge-list reader.  Returns (labels, edges): edges are
    (src, dst, weight) triples, or (min, max) pairs when undirected.
    Raises ParseError / DuplicateEdge with the 1-based line number of the
    first bad line; an undirected self-pair is a ParseError."""
    from netctl.errors import DuplicateEdge, ParseError

    labels = {}
    order = []

    def intern(name):
        if name not in labels:
            labels[name] = len(order)
            order.append(name)
        return labels[name]

    edges = []
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(line_no, f"expected 'src dst [weight]', got {raw!r}")
        src, dst = intern(parts[0]), intern(parts[1])
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(line_no, f"bad weight {parts[2]!r}") from None
        else:
            w = 1.0
        if not directed and src == dst:
            raise ParseError(line_no, f"self-pair {parts[0]!r} in an "
                                      f"undirected graph")
        key = (src, dst) if directed else (min(src, dst), max(src, dst))
        if key in seen:
            raise DuplicateEdge(line_no, parts[0], parts[1])
        seen.add(key)
        edges.append((src, dst, w))
    if directed:
        return order, edges
    return order, [(min(s, d), max(s, d)) for s, d, _ in edges]


def mds_scan_reference(n, pairs):
    """Generalized leaf removal plus greedy completion as a plain scan over
    per-node neighbour sets: the rules of `mds_solve` are applied in full
    passes over the nodes in index order until a pass changes nothing,
    then the node covering the most unobserved nodes (lowest index on
    ties) is occupied until every node is observed.  This is the pinned
    reference for `mds_solve`'s exact output.  Returns (sorted nodes,
    exact flag)."""
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    observed = [False] * n
    alive = [True] * n
    occupied = []

    def occupy(v):
        occupied.append(v)
        observed[v] = True
        for u in list(adj[v]):
            observed[u] = True
        remove(v)

    def remove(v):
        alive[v] = False
        for u in list(adj[v]):
            adj[u].discard(v)
        adj[v].clear()

    changed = True
    while changed:
        changed = False
        for v in range(n):
            if not alive[v]:
                continue
            unobserved_nb = [u for u in adj[v] if not observed[u]]
            if not observed[v]:
                if not adj[v]:
                    occupy(v)
                    changed = True
                elif len(adj[v]) == 1:
                    occupy(next(iter(adj[v])))
                    changed = True
            elif len(unobserved_nb) <= 1:
                remove(v)
                changed = True
    exact = not any(alive)
    while any(alive[v] and not observed[v] for v in range(n)):
        best, gain = None, -1
        for v in range(n):
            if not alive[v]:
                continue
            cover = (0 if observed[v] else 1) + sum(
                1 for u in adj[v] if not observed[u])
            if cover > gain:
                best, gain = v, cover
        if best is None or gain <= 0:
            break
        occupy(best)
    return sorted(occupied), exact


def core_by_rounds(n, pairs):
    """Core of greedy leaf removal on a digraph's bipartite split (out-copy
    s joined to in-copy n + d per edge s -> d) by whole-graph rounds: each
    round deletes, at once, every edge at a vertex adjacent to a degree-1
    vertex, until a round deletes nothing.  Returns the sorted list of
    digraph nodes with a copy of positive degree left."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    a, b = pairs[:, 0], pairs[:, 1] + n
    live = np.ones(len(a), dtype=bool)
    while True:
        deg = np.bincount(np.concatenate([a[live], b[live]]),
                          minlength=2 * n)
        gone = np.zeros(2 * n, dtype=bool)
        gone[b[live & (deg[a] == 1)]] = True
        gone[a[live & (deg[b] == 1)]] = True
        drop = live & (gone[a] | gone[b])
        if not drop.any():
            return sorted(set((np.flatnonzero(deg > 0) % n).tolist()))
        live &= ~drop


def fvs_rounds_reference(n, pairs):
    """The heuristic of `fvs_find` as per-node lists and networkx SCCs:
    self-loop nodes join the set; then, round by round, every strongly
    connected component with more than one node gives up its node of
    highest in-component out-degree times in-degree (lowest index on
    ties); last, each set node in increasing order is put back when the
    remainder stays acyclic with it.  Returns the sorted set."""
    import networkx as nx

    h = nx.DiGraph()
    h.add_nodes_from(range(n))
    h.add_edges_from(pairs)
    fvs = {u for u, v in pairs if u == v}
    while True:
        rest = h.subgraph(v for v in range(n) if v not in fvs)
        cyclic = [sorted(c) for c in nx.strongly_connected_components(rest)
                  if len(c) > 1]
        if not cyclic:
            break
        for members in cyclic:
            inner = rest.subgraph(members)
            score = {v: inner.out_degree(v) * inner.in_degree(v)
                     for v in members}
            fvs.add(max(members, key=score.__getitem__))
    for v in sorted(fvs):
        if nx.is_directed_acyclic_graph(
                h.subgraph(u for u in range(n) if u not in fvs or u == v)):
            fvs.discard(v)
    return sorted(fvs)


def cavity_residual(dist_in, dist_out, state) -> float:
    """Max violation of the six self-consistency equations at `state`."""
    w1, w2, w3, w1h, w2h, w3h = dataclasses.astuple(state)
    return max(
        abs(w1 - dist_out.h(w2h)),
        abs(w2 - (1.0 - dist_out.h(1.0 - w1h))),
        abs(w3 - (1.0 - w1 - w2)),
        abs(w1h - dist_in.h(w2)),
        abs(w2h - (1.0 - dist_in.h(1.0 - w1))),
        abs(w3h - (1.0 - w1h - w2h)),
    )


def is_dominating_set(g, nodes) -> bool:
    """Whether every node of g is in `nodes` or next to one of them."""
    indptr, nbrs = g.neighbours()
    chosen = np.zeros(g.n_nodes, dtype=bool)
    chosen[np.fromiter(nodes, dtype=np.intp)] = True
    owner = np.repeat(np.arange(g.n_nodes), np.diff(indptr))
    dominated = chosen.copy()
    dominated[owner[chosen[nbrs]]] = True
    return bool(dominated.all())


def extended_matrix(cfg) -> np.ndarray:
    """(N+1)-node matrix whose spectrum governs pinned synchronization: the
    reference enters as a virtual node wired to the pinned set."""
    n = cfg.n_nodes
    delta_kappa = cfg.indicator() * cfg.kappa
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = cfg.coupling + np.diag(delta_kappa)
    m[:n, n] = -delta_kappa
    return m


def classify_nodes_deletion_reference(g):
    """Deletion tags: recount N_D on each node-deleted graph, with scipy's
    C Hopcroft-Karp for the maximum matchings."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    from netctl.structural import (
        DELETION_CRITICAL,
        DELETION_ORDINARY,
        DELETION_REDUNDANT,
        NodeClass,
    )

    def driver_count(n, src, dst):
        if not n:
            return 0
        adjacency = csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
        matched = maximum_bipartite_matching(adjacency, perm_type="column")
        return max(n - int(np.count_nonzero(matched >= 0)), 1)

    n = g.n_nodes
    base = driver_count(n, g.src, g.dst)
    tags = []
    for v in range(n):
        keep = (g.src != v) & (g.dst != v)
        src, dst = g.src[keep], g.dst[keep]
        nd = driver_count(n - 1, src - (src > v), dst - (dst > v))
        if nd > base:
            tags.append(DELETION_CRITICAL)
        elif nd < base:
            tags.append(DELETION_REDUNDANT)
        else:
            tags.append(DELETION_ORDINARY)
    fractions = {
        t: (tags.count(t) / n if n else 0.0)
        for t in (DELETION_CRITICAL, DELETION_ORDINARY, DELETION_REDUNDANT)
    }
    return NodeClass(tags, fractions)


def neighbour_sums_reference(pairs, values):
    """Each agent's value plus its neighbours' under the (i, j) pairs, by
    one scatter-add per direction."""
    total = np.array(values, dtype=float)
    if len(pairs):
        i, j = pairs[:, 0], pairs[:, 1]
        np.add.at(total, i, values[j])
        np.add.at(total, j, values[i])
    return total


def vicsek_leader_reference(n, l, v0, r, theta0, steps, seed=0, eta=0.0):
    """Leader-following consensus flock with the leader kept apart: the
    followers' pairs by an all-pairs minimum-image search, the followers
    near the leader by a separate distance test.  Returns the trace of
    max_i |θ_i − θ₀|; draws from the same (seed, step) streams."""
    def rng(step):
        return np.random.default_rng([np.uint64(seed), np.uint64(step)])

    def min_image_sq(d):
        d = np.mod(d, l)
        d = np.minimum(d, l - d)
        return (d ** 2).sum(axis=-1)

    first = rng(0)
    pos = first.uniform(0.0, l, (n, 2))
    theta = first.uniform(-np.pi, np.pi, n)
    leader_pos = first.uniform(0.0, l, 2)
    leader_vel = v0 * np.array([np.cos(theta0), np.sin(theta0)])
    deviation = np.empty(steps + 1)
    deviation[0] = np.abs(theta - theta0).max()
    for step in range(1, steps + 1):
        close = min_image_sq(pos[:, None, :] - pos[None, :, :]) <= r * r
        pairs = np.column_stack(np.nonzero(np.triu(close, k=1)))
        theta_sum = neighbour_sums_reference(pairs, theta)
        count = neighbour_sums_reference(pairs, np.ones(n))
        near_leader = min_image_sq(pos - leader_pos) <= r * r
        theta_sum[near_leader] += theta0
        count[near_leader] += 1.0
        noise = rng(step).uniform(-eta / 2.0, eta / 2.0, n) if eta > 0 \
            else 0.0
        theta = theta_sum / count + noise
        vel = v0 * np.column_stack([np.cos(theta), np.sin(theta)])
        pos = np.mod(pos + vel, l)
        leader_pos = np.mod(leader_pos + leader_vel, l)
        deviation[step] = np.abs(theta - theta0).max()
    return deviation
