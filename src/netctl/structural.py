"""Matching-based structural controllability analyses.

All operations report one canonical optimum (the Hopcroft-Karp matching
with lowest-index augmentation) plus counts; optima are exponentially
numerous and never enumerated here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDriverSet, InvariantViolation
from .graphs import (
    BipartiteRep,
    DiGraph,
    bipartite_rep,
    component_ids,
    max_weight_assignment,
    max_weight_cycle_partition,
    maximum_matching,
    reach_mask,
    reachable_from,
    scc_decompose,
    weakly_connected_components,
)

CRITICAL = "critical"
REDUNDANT = "redundant"
ORDINARY = "ordinary"
INTERMITTENT = "intermittent"


@dataclass
class DriverReport:
    n_drivers: int
    drivers: list  # canonical minimum driver node set, sorted indices
    matching_size: int
    node_tags: dict = None  # optional critical/intermittent/redundant tags

    def driver_labels(self, g):
        return [g.labels[i] for i in self.drivers]


@dataclass
class LinkClass:
    tags: list  # per-edge tag, aligned with g.edges
    fractions: dict  # {"critical": l_c, "redundant": l_r, "ordinary": l_o}


@dataclass
class NodeClass:
    tags: list  # per-node tag
    fractions: dict


@dataclass
class ControlProfile:
    n_sources: int
    n_sinks: int
    n_external: int
    n_internal: int
    eta: tuple  # (eta_s, eta_e, eta_i)


def min_driver_set(g: DiGraph) -> DriverReport:
    """Minimum driver nodes: the unmatched nodes of the canonical maximum
    matching; one driver (lowest index) if the matching is perfect."""
    m = maximum_matching(bipartite_rep(g))
    unmatched = m.unmatched_nodes()
    if unmatched:
        drivers = unmatched
    else:
        drivers = [0] if g.n_nodes else []
    return DriverReport(max(g.n_nodes - m.size, 1) if g.n_nodes else 0,
                        drivers, m.size)


def _controlled_matching(g: DiGraph, drivers):
    """Maximum matching of the bipartite representation of (A, B): state
    edges plus one input column per driver."""
    n = g.n_nodes
    drivers = sorted(set(drivers))
    # left: 0..n-1 state out-copies, n..n+m-1 input copies; right: in-copies
    edges = [(s, d) for s, d, _ in g.edges]
    for j, v in enumerate(drivers):
        edges.append((n + j, v))
    b = BipartiteRep(n + len(drivers), edges)
    m = maximum_matching(b)
    return b, m


def structural_controllability_check(g: DiGraph, drivers):
    """Lin's test: controllable iff no inaccessible node and no dilation.

    Returns (ok, witness) where witness is None, ("inaccessible", node),
    or ("dilation", S, T_S) with |T(S)| < |S|.
    """
    drivers = sorted(set(drivers))
    if not drivers:
        raise EmptyDriverSet("driver set must be nonempty")
    n = g.n_nodes
    reach = reachable_from(g, drivers)
    for v in range(n):
        if v not in reach:
            return False, ("inaccessible", v)
    b, m = _controlled_matching(g, drivers)
    exposed = [v for v in range(n) if m.pair_right[v] < 0]
    if not exposed:
        return True, None
    # Hall violator on the in-copy side: alternating search from one exposed
    # in-copy over in-copy v -> each out-/input copy u feeding it -> u's
    # matched in-copy; S = in-copies reached, T(S) = out-/input copies
    # reached.  Vertex ids: in-copy v -> v, out-/input copy u -> n + u.
    left, right = np.array(b.edges, dtype=np.intp).T
    pair_left = np.array(m.pair_left)
    matched = np.flatnonzero(pair_left >= 0)
    reached = reach_mask(n + b.n_nodes,
                         np.concatenate([right, n + matched]),
                         np.concatenate([n + left, pair_left[matched]]),
                         [exposed[0]])
    S = np.flatnonzero(reached[:n]).tolist()
    T = np.flatnonzero(reached[n:]).tolist()
    return False, ("dilation", S, T)


def _alternating_structure(g: DiGraph):
    """Shared machinery for link/node classification.

    Builds the alternating-path digraph D on bipartite copies (unmatched
    edge u+ -> v-, matched edge v- -> u+) and returns the canonical
    matching plus three per-vertex lists:
      comp[x]             -- SCC of x in D (alternating cycle iff equal)
      from_free_left[x]   -- x reachable from an exposed out-copy
      to_free_right[x]    -- x reaches an exposed in-copy
    Vertex ids: out-copy i -> i, in-copy i -> n + i.
    """
    n = g.n_nodes
    b = bipartite_rep(g)
    m = maximum_matching(b)
    u, v = np.array(b.edges, dtype=np.intp).reshape(-1, 2).T
    pair_left = np.array(m.pair_left, dtype=np.intp)
    pair_right = np.array(m.pair_right, dtype=np.intp)
    in_matching = pair_left[u] == v
    src = np.where(in_matching, n + v, u)
    dst = np.where(in_matching, u, n + v)
    comp = component_ids(2 * n, src, dst)
    from_free_left = reach_mask(2 * n, src, dst, np.flatnonzero(pair_left < 0))
    to_free_right = reach_mask(2 * n, dst, src,
                               n + np.flatnonzero(pair_right < 0))
    return m, comp.tolist(), from_free_left.tolist(), to_free_right.tolist()


def classify_links(g: DiGraph) -> LinkClass:
    """Tag each link critical / redundant / ordinary from one maximum
    matching plus alternating-path reachability (Berge's property)."""
    n = g.n_nodes
    m, comp, from_free_left, to_free_right = _alternating_structure(g)
    tags = []
    for s, d, _ in g.edges:
        u, v = s, n + d
        exchangeable = (
            comp[u] == comp[v]
            or from_free_left[u]
            or to_free_right[v]
        )
        if m.pair_left[u] == d:  # in the canonical matching
            tags.append(ORDINARY if exchangeable else CRITICAL)
        else:
            in_some = (
                m.pair_left[u] < 0 and m.pair_right[d] >= 0
            ) or (
                m.pair_right[d] < 0 and m.pair_left[u] >= 0
            ) or exchangeable
            tags.append(ORDINARY if in_some else REDUNDANT)
    ne = len(tags)
    fractions = {
        t: (tags.count(t) / ne if ne else 0.0)
        for t in (CRITICAL, REDUNDANT, ORDINARY)
    }
    return LinkClass(tags, fractions)


def classify_nodes(g: DiGraph) -> NodeClass:
    """Matching-role tags: a node is critical if unmatched in every
    maximum matching, redundant if matched in every, else intermittent."""
    n = g.n_nodes
    m, comp, from_free_left, to_free_right = _alternating_structure(g)
    in_deg = g.in_degrees()
    tags = []
    for v in range(n):
        if m.pair_right[v] < 0:
            # exposed in the canonical matching; matched in some matching
            # iff it has any in-edge (trivial exchange with its neighbour)
            tags.append(INTERMITTENT if in_deg[v] > 0 else CRITICAL)
        else:
            tags.append(INTERMITTENT if to_free_right[n + v] else REDUNDANT)
    fractions = {
        t: (tags.count(t) / n if n else 0.0)
        for t in (CRITICAL, INTERMITTENT, REDUNDANT)
    }
    return NodeClass(tags, fractions)


DELETION_CRITICAL = "deletion-critical"
DELETION_ORDINARY = "deletion-ordinary"
DELETION_REDUNDANT = "deletion-redundant"


def classify_nodes_deletion(g: DiGraph) -> NodeClass:
    """Deletion tags: recompute the driver count on each node-deleted graph."""
    base = min_driver_set(g).n_drivers
    tags = []
    for v in range(g.n_nodes):
        sub = g.delete_node(v)
        nd = min_driver_set(sub).n_drivers if sub.n_nodes else 0
        if nd > base:
            tags.append(DELETION_CRITICAL)
        elif nd < base:
            tags.append(DELETION_REDUNDANT)
        else:
            tags.append(DELETION_ORDINARY)
    n = g.n_nodes
    fractions = {
        t: (tags.count(t) / n if n else 0.0)
        for t in (DELETION_CRITICAL, DELETION_ORDINARY, DELETION_REDUNDANT)
    }
    return NodeClass(tags, fractions)


def control_profile(g: DiGraph) -> ControlProfile:
    n_d = min_driver_set(g).n_drivers
    in_deg = g.in_degrees()
    out_deg = g.out_degrees()
    n_s = sum(1 for k in in_deg if k == 0)
    n_t = sum(1 for k in out_deg if k == 0)
    n_e = max(0, n_t - n_s)
    n_i = n_d - n_s - n_e
    n = g.n_nodes
    return ControlProfile(n_s, n_t, n_e, n_i,
                          (n_s / n, n_e / n, n_i / n) if n else (0.0,) * 3)


def control_centrality(g: DiGraph, controlled) -> int:
    """Generic dimension of the subspace controllable from `controlled`
    (maximum-weight cycle partition on the accessible part)."""
    controlled = sorted(set(controlled))
    if not controlled:
        raise EmptyDriverSet("controlled set must be nonempty")
    reach = reachable_from(g, controlled)
    keep = sorted(reach)
    remap = {old: new for new, old in enumerate(keep)}
    sub = DiGraph(
        len(keep),
        [(remap[s], remap[d], w) for s, d, w in g.edges
         if s in reach and d in reach],
        [g.labels[i] for i in keep],
    )
    weight, _ = max_weight_cycle_partition(sub, [remap[v] for v in controlled])
    return weight


@dataclass
class ActuatorReport:
    n_actuators: int
    actuators: list
    n_drivers: int
    beta: int  # number of root SCCs
    alpha: int  # maximum assignability index


def min_actuators(g: DiGraph) -> ActuatorReport:
    """Minimum dedicated actuators N_da = N_D + beta - alpha.

    alpha (the maximum number of root SCCs holding a driver node over all
    maximum matchings) is found exactly with a two-level weighted
    matching: real bipartite edges get a weight large enough that
    cardinality is never sacrificed, and one unit-weight slack left
    vertex per root SCC marks an exposed in-copy inside it.
    """
    n = g.n_nodes
    scc = scc_decompose(g)
    roots = scc.root_components()
    beta = len(roots)
    m = maximum_matching(bipartite_rep(g))
    m_size = m.size

    if m_size == n and n > 0:
        # perfectly matched: the single floor driver can sit in any root SCC
        alpha = 1
        first = scc.components[roots[0]][0]
        drivers = [first]
        actuators = sorted({first} | {scc.components[c][0] for c in roots[1:]})
        return ActuatorReport(1 + beta - alpha, actuators, 1, beta, alpha)

    n_d = max(n - m_size, 1) if n else 0
    # slack left vertices, one per root SCC
    big = float(beta + 1)
    size = n + beta  # left: out-copies + slacks
    cols = n  # right: in-copies
    dim = max(size, cols)
    w = np.zeros((dim, dim))
    for s, d, _ in g.edges:
        w[s, d] = big
    for j, c in enumerate(roots):
        for v in scc.components[c]:
            w[n + j, v] = 1.0
    total, assign = max_weight_assignment(w)
    real_pairs = {}
    slack_hits = []
    for u in range(dim):
        v = int(assign[u])
        if v >= cols:
            continue
        if u < n and w[u, v] == big:
            real_pairs[v] = u
        elif n <= u < n + beta and w[u, v] == 1.0:
            slack_hits.append((u - n, v))
    if len(real_pairs) != m_size:
        raise InvariantViolation(
            f"weighted assignment matched {len(real_pairs)} edges, "
            f"maximum matching has {m_size}")
    alpha = len(slack_hits)
    drivers = sorted(v for v in range(n) if v not in real_pairs)
    hit_roots = {roots[j] for j, _ in slack_hits}
    extra = [scc.components[c][0] for c in roots if c not in hit_roots]
    actuators = sorted(set(drivers) | set(extra))
    return ActuatorReport(n_d + beta - alpha, actuators, n_d, beta, alpha)


def switchboard_drivers(g: DiGraph):
    """Driver nodes of the edge (switchboard) dynamics: divergent nodes
    plus one representative per balanced component."""
    in_deg = g.in_degrees()
    out_deg = g.out_degrees()
    drivers = {v for v in range(g.n_nodes) if out_deg[v] > in_deg[v]}
    for comp in weakly_connected_components(g):
        if all(in_deg[v] == out_deg[v] and in_deg[v] >= 1 for v in comp):
            drivers.add(comp[0])
    return sorted(drivers)
