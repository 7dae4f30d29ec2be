"""Directed/undirected graph model and the combinatorial kernels.

Node labels are interned to dense indices in first-appearance order and
every algorithm iterates in index order, so all results are deterministic
for a given input.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import DuplicateEdge, ParseError


@dataclass
class DiGraph:
    """Weighted digraph with interned string labels.  Self-loops allowed."""

    n_nodes: int
    edges: list  # list of (src, dst, weight)
    labels: list = None

    def __post_init__(self):
        if self.labels is None:
            self.labels = [str(i) for i in range(self.n_nodes)]
        seen = set()
        for s, d, _ in self.edges:
            if not (0 <= s < self.n_nodes and 0 <= d < self.n_nodes):
                raise ValueError(f"edge ({s},{d}) out of range")
            if (s, d) in seen:
                raise ValueError(f"duplicate edge ({s},{d})")
            seen.add((s, d))

    @classmethod
    def from_pairs(cls, n_nodes, pairs, labels=None):
        return cls(n_nodes, [(s, d, 1.0) for s, d in pairs], labels)

    @property
    def n_edges(self):
        return len(self.edges)

    def out_adj(self):
        adj = [[] for _ in range(self.n_nodes)]
        for s, d, _ in self.edges:
            adj[s].append(d)
        for a in adj:
            a.sort()
        return adj

    def in_adj(self):
        adj = [[] for _ in range(self.n_nodes)]
        for s, d, _ in self.edges:
            adj[d].append(s)
        for a in adj:
            a.sort()
        return adj

    def arc_arrays(self):
        """Edge endpoints as two index arrays (src, dst)."""
        return np.array([(s, d) for s, d, _ in self.edges],
                        dtype=np.intp).reshape(-1, 2).T

    def out_degrees(self):
        k = [0] * self.n_nodes
        for s, _, _ in self.edges:
            k[s] += 1
        return k

    def in_degrees(self):
        k = [0] * self.n_nodes
        for _, d, _ in self.edges:
            k[d] += 1
        return k

    def adjacency_matrix(self):
        a = np.zeros((self.n_nodes, self.n_nodes))
        for s, d, w in self.edges:
            a[d, s] = w  # a[i, j] != 0 iff edge j -> i, matching x' = A x
        return a

    def delete_node(self, v):
        """Graph with node v removed (labels preserved, indices compacted)."""
        keep = [i for i in range(self.n_nodes) if i != v]
        remap = {old: new for new, old in enumerate(keep)}
        edges = [
            (remap[s], remap[d], w)
            for s, d, w in self.edges
            if s != v and d != v
        ]
        return DiGraph(self.n_nodes - 1, edges, [self.labels[i] for i in keep])


@dataclass
class UnGraph:
    """Simple undirected graph: no self-pairs, no duplicate pairs."""

    n_nodes: int
    edges: list  # list of (u, v) with u < v
    labels: list = None

    def __post_init__(self):
        if self.labels is None:
            self.labels = [str(i) for i in range(self.n_nodes)]
        norm = []
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-pair ({u},{v})")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"pair ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate pair ({u},{v})")
            seen.add(key)
            norm.append(key)
        self.edges = norm

    @property
    def n_edges(self):
        return len(self.edges)

    def adj(self):
        adj = [[] for _ in range(self.n_nodes)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for a in adj:
            a.sort()
        return adj


@dataclass
class BipartiteRep:
    """Bipartite split of a digraph: out-copy x+ on the left, in-copy x-
    on the right, one bipartite edge per digraph edge."""

    n_nodes: int
    edges: list  # list of (src, dst): left index src, right index dst

    def left_adj(self):
        adj = [[] for _ in range(self.n_nodes)]
        for s, d in self.edges:
            adj[s].append(d)
        for a in adj:
            a.sort()
        return adj


@dataclass
class Matching:
    """Bipartite matching: pair_left[u] = matched right vertex or -1."""

    pair_left: list
    pair_right: list

    @property
    def size(self):
        return sum(1 for v in self.pair_left if v >= 0)

    def matched_edges(self):
        return [(u, v) for u, v in enumerate(self.pair_left) if v >= 0]

    def matched(self, i):
        """A node is matched iff it is the head (in-copy) of a matching edge."""
        return self.pair_right[i] >= 0

    def unmatched_nodes(self):
        return [i for i, u in enumerate(self.pair_right) if u < 0]


@dataclass
class SccDecomposition:
    component_of: list  # node -> component id
    components: list  # component id -> sorted member list
    condensation: list  # component id -> sorted list of successor component ids
    is_root: list  # component id -> True iff no incoming condensation edge

    @property
    def n_components(self):
        return len(self.components)

    def root_components(self):
        return [c for c in range(self.n_components) if self.is_root[c]]


def parse_edge_list(text, directed=True):
    """Parse "src dst [weight]" lines into a DiGraph or UnGraph.

    Lines starting with '#' and blank lines are ignored.  Labels are
    interned in first-appearance order.
    """
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
        key = (src, dst) if directed else (min(src, dst), max(src, dst))
        if key in seen:
            raise DuplicateEdge(line_no, parts[0], parts[1])
        seen.add(key)
        edges.append((src, dst, w))
    if directed:
        return DiGraph(len(order), edges, order)
    return UnGraph(len(order), [(s, d) for s, d, _ in edges], order)


def transpose(g: DiGraph) -> DiGraph:
    return DiGraph(g.n_nodes, [(d, s, w) for s, d, w in g.edges], list(g.labels))


def bipartite_rep(g: DiGraph) -> BipartiteRep:
    return BipartiteRep(g.n_nodes, [(s, d) for s, d, _ in g.edges])


def maximum_matching(b: BipartiteRep) -> Matching:
    """Hopcroft-Karp maximum matching, O(sqrt(V) E).

    Deterministic: free left vertices are processed in index order and
    adjacency lists are index-sorted, so augmentation prefers the lowest
    available right index.
    """
    n = b.n_nodes
    adj = b.left_adj()
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
        # iterative alternating DFS along the BFS layering
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
                    # augment along the stored path
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
    return Matching(pair_l, pair_r)


def _csgraph(n, src, dst):
    return csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))


def component_ids(n, src, dst, connection="strong"):
    """Strong or weak component of each of n nodes under the arcs
    src[i] -> dst[i], as an int array; components are numbered in order of
    their smallest member."""
    _, labels = connected_components(_csgraph(n, src, dst), directed=True,
                                     connection=connection)
    _, first = np.unique(labels, return_index=True)
    return np.unique(first[labels], return_inverse=True)[1]


def group_by_component(ids):
    """Member lists of each component id, each in increasing node order."""
    groups = [[] for _ in range(int(ids.max()) + 1 if len(ids) else 0)]
    for v, c in enumerate(ids.tolist()):
        groups[c].append(v)
    return groups


def reach_mask(n, src, dst, sources):
    """Boolean mask of the nodes reachable from any of `sources` (sources
    included) under the arcs src[i] -> dst[i]."""
    sources = np.asarray(sources, dtype=np.intp)
    # breadth-first search from a virtual root n with one arc into each source
    graph = _csgraph(n + 1, np.concatenate([src, np.full(len(sources), n)]),
                     np.concatenate([dst, sources]))
    mask = np.zeros(n + 1, dtype=bool)
    mask[breadth_first_order(graph, n, return_predecessors=False)] = True
    return mask[:n]


def scc_decompose(g: DiGraph) -> SccDecomposition:
    """Strongly connected components with sorted member lists, component
    ids following the smallest member, and the condensation digraph."""
    src, dst = g.arc_arrays()
    comp = component_ids(g.n_nodes, src, dst)
    components = group_by_component(comp)
    cs, cd = comp[src], comp[dst]
    cross = cs != cd
    succ = [[] for _ in components]
    is_root = [True] * len(components)
    for a, b in np.unique(np.stack([cs[cross], cd[cross]], axis=1),
                          axis=0).tolist():
        succ[a].append(b)
        is_root[b] = False
    return SccDecomposition(comp.tolist(), components, succ, is_root)


def reachable_from(g: DiGraph, sources) -> set:
    src, dst = g.arc_arrays()
    mask = reach_mask(g.n_nodes, src, dst, list(sources))
    return set(np.flatnonzero(mask).tolist())


def max_weight_assignment(weight):
    """Maximum-weight perfect assignment on a square weight matrix.

    Returns (total_weight, col_of_row).  Thin wrapper over the Hungarian
    solver in scipy; deterministic for a given matrix.
    """
    from scipy.optimize import linear_sum_assignment

    w = np.asarray(weight, dtype=float)
    rows, cols = linear_sum_assignment(w, maximize=True)
    assign = np.empty(w.shape[0], dtype=int)
    assign[rows] = cols
    return float(w[rows, cols].sum()), assign


def max_weight_cycle_partition(g: DiGraph, inputs):
    """Maximum-weight node-disjoint cycle cover of the augmented graph.

    The augmented graph adds one input vertex per element of `inputs` with
    a weight-1 edge into its controlled node, weight-0 return edges from
    every state vertex to every input vertex, and weight-0 self-loops
    wherever missing.  Original (state and input) edges weigh 1.  The
    optimum weight is the generic dimension of the controllable subspace.
    """
    inputs = sorted(set(inputs))
    n = g.n_nodes
    m = len(inputs)
    size = n + m
    # weight matrix over (out-copy, in-copy) pairs of the augmented digraph;
    # pairs that are not augmented-graph edges are strictly forbidden
    big = float(size + 1)
    w = np.full((size, size), -big)
    np.fill_diagonal(w, 0.0)  # added self-loops
    for i in range(n):
        w[i, n:] = 0.0  # added return edges state -> input
    for s, d, _ in g.edges:
        w[s, d] = 1.0
    for j, tgt in enumerate(inputs):
        w[n + j, tgt] = 1.0  # input edge, part of the original system graph
    total, assign = max_weight_assignment(w)
    # recover the cycle partition on augmented vertex ids
    partition = []
    seen = [False] * size
    for start in range(size):
        if seen[start]:
            continue
        cyc = []
        v = start
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = int(assign[v])
        if len(cyc) > 1 or assign[start] == start:
            partition.append(cyc)
    return int(round(total)), partition


def directed_core(g: DiGraph):
    """Residual core of the greedy leaf-removal procedure.

    Works on the bipartite split: a degree-1 vertex forces its neighbour
    to be removed together with all incident edges.  A digraph node is in
    the core if either of its copies survives with positive degree.
    Returns (core node set, core fraction).
    """
    n = g.n_nodes
    # vertices 0..n-1 are out-copies, n..2n-1 in-copies
    adj = [set() for _ in range(2 * n)]
    for s, d, _ in g.edges:
        adj[s].add(n + d)
        adj[n + d].add(s)
    removed = [False] * (2 * n)
    q = deque(v for v in range(2 * n) if len(adj[v]) == 1)
    while q:
        v = q.popleft()
        if removed[v] or len(adj[v]) != 1:
            continue
        (w,) = adj[v]
        # remove w entirely
        removed[w] = True
        for x in adj[w]:
            adj[x].discard(w)
            if not removed[x] and len(adj[x]) == 1:
                q.append(x)
        adj[w] = set()
    core = sorted(
        {v % n for v in range(2 * n) if not removed[v] and len(adj[v]) >= 1}
    )
    return set(core), len(core) / n if n else 0.0


def weakly_connected_components(g: DiGraph):
    """Weak components as sorted member lists, ordered by smallest member."""
    src, dst = g.arc_arrays()
    return group_by_component(
        component_ids(g.n_nodes, src, dst, connection="weak"))
