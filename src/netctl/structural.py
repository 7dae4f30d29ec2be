"""Matching-based structural controllability analyses.

Everything here starts from one canonical optimum, the Hopcroft-Karp
matching with lowest-index augmentation (`graphs.maximum_matching`).
Driver sets report it.  Their size N_D (`min_driver_set(g).n_drivers`),
the link and node classes and Lin's test hold for every maximum matching;
the last three are searches in its alternating digraph D, merged onto the
n out-copies (`_contracted`).
Optima are exponentially numerous and never enumerated here.  Only
`control_centrality` loads scipy (`scipy.sparse.csgraph`'s LAPJV).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDriverSet, InvariantViolation
from .graphs import (
    DiGraph,
    _augment,
    component_ids,
    maximum_matching,
    reach_mask,
    reach_pairs,
    scc_roots,
    weak_component_ids,
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
    n_external: int
    n_internal: int
    eta: tuple  # (eta_s, eta_e, eta_i)


def min_driver_set(g: DiGraph) -> DriverReport:
    """Minimum driver nodes: the unmatched nodes of the canonical maximum
    matching; one driver (lowest index) if the matching is perfect."""
    m = maximum_matching(g)
    drivers = m.unmatched_nodes() or ([0] if g.n_nodes else [])
    return DriverReport(max(g.n_nodes - m.size, 1) if g.n_nodes else 0,
                        drivers, m.size)


def structural_controllability_check(g: DiGraph, drivers):
    """Lin's test: controllable iff no inaccessible node and no dilation.

    Returns (ok, witness) where witness is None, ("inaccessible", node)
    with the lowest-index inaccessible node, or ("dilation", S, T_S).
    S is every in-copy reachable by an alternating path from an in-copy
    left exposed by a maximum matching of (A, B), and T_S = N(S) are the
    state out-copies u and input copies n + j feeding S.  |S| - |T_S| is
    the number of exposed in-copies, the largest deficiency any in-copy
    set has, and S is the smallest set with that deficiency (the
    intersection of all of them), so the witness is the same for every
    maximum matching.  T_S is the copies `_feeding` marks on (A, B), and
    S the exposed state in-copies and the partners of T_S's members.
    """
    drivers = sorted(set(drivers))
    if not drivers:
        raise EmptyDriverSet("driver set must be nonempty")
    n = g.n_nodes
    reach = reach_mask(n, g.src, g.dst, drivers)
    if not reach.all():
        return False, ("inaccessible", int(np.argmin(reach)))
    # bipartite split of (A, B): left 0..n-1 state out-copies and
    # n..n+k-1 input copies, one per driver; right: state in-copies
    nk = n + len(drivers)
    split = DiGraph._of(nk, np.concatenate([g.src, np.arange(n, nk)]),
                        np.concatenate([g.dst, drivers]))
    m = maximum_matching(split)
    mate = m.pair_right[:n]
    if (mate >= 0).all():
        return True, None
    feeding = _feeding(split, m, *_contracted(split, m))
    # mate -1 reads an arbitrary entry, masked by mate < 0
    S = np.flatnonzero((mate < 0) | feeding[mate]).tolist()
    T = np.flatnonzero(feeding).tolist()
    return False, ("dilation", S, T)


def _contracted(g: DiGraph, m):
    """(src, dst): the alternating digraph D of the maximum matching m on
    the n out-copies.  D has an arc u+ -> v- for each edge u -> v outside
    m (v- not matched to u) and v- -> u+ for each edge in m; merging each
    matched v- into its partner w leaves an arc u -> w.  An exposed
    in-copy has no out-arc, so out-copies reach each other in D iff they
    do here.  No arc is a loop, as g repeats no edge."""
    mate = m.pair_right[g.dst]
    arc = (mate >= 0) & (mate != g.src)
    return g.src[arc], mate[arc]


def _feeding(g: DiGraph, m, src, dst):
    """Mask of the out-copies from which D reaches an exposed in-copy: one
    search of the contracted D (src, dst), backwards from those with an
    edge into one."""
    return reach_mask(g.n_nodes, dst, src, g.src[m.pair_right[g.dst] < 0])


def _exposable(g: DiGraph, m, src, dst):
    """(out, in_): masks over the nodes of the copies some maximum matching
    exposes, from m's contracted D (src, dst).  Out-copy i+: D reaches it
    from an exposed out-copy, by a path that enters no exposed in-copy
    (it would augment m), so it shows here.  In-copy i-: it reaches an
    exposed in-copy in D, so it is exposed or its partner, the end of its
    only out-arc, is `_feeding`."""
    mate = m.pair_right
    out = reach_mask(g.n_nodes, src, dst, np.flatnonzero(m.pair_left < 0))
    # mate -1 reads an arbitrary entry, masked by mate < 0
    return out, (mate < 0) | _feeding(g, m, src, dst)[mate]


def _tagged(code, names, total):
    """Tag list and {tag: fraction} from per-item indices into `names`."""
    counts = np.bincount(code, minlength=len(names)).tolist()
    tags = np.array(names, dtype=object)[code].tolist()
    return tags, {t: (c / total if total else 0.0)
                  for t, c in zip(names, counts)}


def classify_links(g: DiGraph) -> LinkClass:
    """Tag each link critical / redundant / ordinary from one maximum
    matching plus alternating-path reachability (Berge's property); the
    tags hold for every maximum matching, so any one will do.

    A link u -> v lies on an alternating cycle iff u+ and v- share an SCC
    of D.  The SCCs come from the contracted D (`_contracted`), half D's
    nodes.  The only out-arc of a matched v- is v- -> w+ to its partner
    w, so v- shares an SCC with u+ iff it lies on a cycle of D and w and
    u share a contracted SCC; v- lies on a cycle iff the SCC of w holds
    more than w (arcs into w are exactly the arcs into v- of D); an
    exposed v- lies on none."""
    n = g.n_nodes
    m = maximum_matching(g)
    u, v = g.src, g.dst
    src, dst = _contracted(g, m)
    comp = component_ids(n, src, dst)
    mate = m.pair_right[v]
    w = np.maximum(mate, 0)  # the partner of v-, or a stand-in if exposed
    on_cycle = (mate >= 0) & (comp[u] == comp[w]) \
        & (np.bincount(comp, minlength=n)[comp[w]] > 1)
    out, in_ = _exposable(g, m, src, dst)
    exchangeable = on_cycle | out[u] | in_[v]
    in_some = ((m.pair_left[u] < 0) != (mate < 0)) | exchangeable
    # 0 critical, 1 redundant, 2 ordinary
    code = np.where(mate == u, np.where(exchangeable, 2, 0),
                    np.where(in_some, 2, 1))
    tags, fractions = _tagged(code, (CRITICAL, REDUNDANT, ORDINARY),
                              g.n_edges)
    return LinkClass(tags, fractions)


def classify_nodes(g: DiGraph) -> NodeClass:
    """Matching-role tags: a node is critical if unmatched in every
    maximum matching, redundant if matched in every, else intermittent.
    A matched node is unmatched in some other maximum matching iff its
    partner is `_feeding`."""
    n = g.n_nodes
    m = maximum_matching(g)
    feeding = _feeding(g, m, *_contracted(g, m))
    # a node exposed in this matching is matched in some other one iff it
    # has an in-edge (trivial exchange with its neighbour)
    has_in = np.bincount(g.dst, minlength=n) > 0
    # 0 critical, 1 intermittent, 2 redundant
    code = np.where(m.pair_right < 0, np.where(has_in, 1, 0),
                    np.where(feeding[m.pair_right], 1, 2))
    tags, fractions = _tagged(code, (CRITICAL, INTERMITTENT, REDUNDANT), n)
    return NodeClass(tags, fractions)


DELETION_CRITICAL = "deletion-critical"
DELETION_ORDINARY = "deletion-ordinary"
DELETION_REDUNDANT = "deletion-redundant"


def classify_nodes_deletion(g: DiGraph) -> NodeClass:
    """Deletion tags: whether deleting a node raises (critical), keeps
    (ordinary) or lowers (redundant) N_D, from one maximum matching.

    Deleting node i removes out-copy i+ and in-copy i-.  The matching
    loses no edge if some maximum matching exposes both copies, one if
    exactly one (`_exposable`), and else one if the out-copy b matched to
    i- reaches i+ in D (b = i is a matched self-loop) and two if not
    (Dulmage-Mendelsohn).  The "does b reach i+" queries are answered
    together, on the contracted D (`_contracted`)."""
    n = g.n_nodes
    m = maximum_matching(g)
    src, dst = _contracted(g, m)
    out, in_ = _exposable(g, m, src, dst)
    lost = 2 - out.astype(np.intp) - in_
    both = np.flatnonzero(lost == 2)
    lost[both] -= reach_pairs(n, src, dst, m.pair_right[both], both)
    base = max(n - m.size, 1) if n else 0
    # the graph left after deleting the only node is empty: N_D = 0
    nd = np.where(n > 1, np.maximum(n - 1 - m.size + lost, 1), 0)
    # 0 critical, 1 ordinary, 2 redundant
    tags, fractions = _tagged(1 - np.sign(nd - base), (
        DELETION_CRITICAL, DELETION_ORDINARY, DELETION_REDUNDANT), n)
    return NodeClass(tags, fractions)


def control_profile(g: DiGraph) -> ControlProfile:
    n_d = min_driver_set(g).n_drivers
    n = g.n_nodes
    n_s = n - np.count_nonzero(np.bincount(g.dst, minlength=n))
    n_t = n - np.count_nonzero(np.bincount(g.src, minlength=n))
    n_e = max(0, n_t - n_s)
    n_i = n_d - n_s - n_e
    return ControlProfile(n_s, n_e, n_i,
                          (n_s / n, n_e / n, n_i / n) if n else (0.0,) * 3)


def control_centrality(g: DiGraph, controlled) -> int:
    """Generic dimension of the subspace controllable from `controlled`:
    the most accessible nodes that disjoint stems and cycles cover.

    One maximum-weight full matching on the accessible part.  Rows are
    the state out-copies plus one input per controlled node, columns the
    state in-copies.  A link or an input link weighs 2 and each column's
    added own loop 1 (2 where the node has a self-loop), so a matching
    weighs n plus the nodes it covers.  The m rows it leaves unmatched
    are those a square cycle cover would close with weightless return
    arcs, which thus need no entries.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    controlled = sorted(set(controlled))
    if not controlled:
        raise EmptyDriverSet("controlled set must be nonempty")
    reach = reach_mask(g.n_nodes, g.src, g.dst, controlled)
    sub = g.subgraph(reach)
    n, m = sub.n_nodes, len(controlled)
    loop = sub.src == sub.dst
    own = np.ones(n)
    own[sub.src[loop]] = 2.0
    rows = np.concatenate([sub.src[~loop], n + np.arange(m), np.arange(n)])
    cols = np.concatenate([sub.dst[~loop], (np.cumsum(reach) - 1)[controlled],
                           np.arange(n)])
    weight = np.concatenate([np.full(len(rows) - n, 2.0), own])
    w = csr_matrix((weight, (rows, cols)), shape=(n + m, n))
    matched = min_weight_full_bipartite_matching(w, maximize=True)
    return int(w[matched].sum()) - n


@dataclass
class ActuatorReport:
    n_actuators: int
    actuators: list
    n_drivers: int
    beta: int  # number of root SCCs
    alpha: int  # maximum assignability index


def min_actuators(g: DiGraph) -> ActuatorReport:
    """Minimum dedicated actuators N_a = N_D + beta - alpha.

    alpha is the most root SCCs that hold a driver node in one maximum
    matching.  The canonical matching is continued by Hopcroft-Karp on a
    combined graph with one slack out-copy per root SCC, joined to that
    SCC's in-copies.  Augmenting never unmatches an out-copy, so the real
    part keeps its size, and the slacks matched at the end number alpha
    (Mendelsohn-Dulmage).  The actuators are the in-copies left without a
    real partner plus the first member of each root SCC no slack reached.
    """
    n = g.n_nodes
    comp, is_root = scc_roots(g)
    roots = np.flatnonzero(is_root)
    beta = len(roots)
    # first member of each root SCC, in increasing order (component ids
    # follow the smallest member)
    first = np.unique(comp, return_index=True)[1][roots]
    m = maximum_matching(g)

    if m.size == n and n > 0:
        # perfectly matched: the single floor driver can sit in any root SCC
        alpha = 1
        return ActuatorReport(1 + beta - alpha, first.tolist(), 1, beta, alpha)

    n_d = n - m.size
    # slack out-copy n + j for root SCC roots[j], with arcs to its members
    slack = np.full(len(is_root), -1, dtype=np.intp)
    slack[roots] = np.arange(beta)
    slack_of = slack[comp]
    in_root = np.flatnonzero(slack_of >= 0)
    combined = DiGraph._of(n + beta,
                           np.concatenate([g.src, n + slack_of[in_root]]),
                           np.concatenate([g.dst, in_root]))
    pair_l = m.pair_left.tolist() + [-1] * beta
    pair_r = m.pair_right.tolist() + [-1] * beta
    _augment(combined, pair_l, pair_r)
    partner = np.array(pair_r[:n], dtype=np.intp)
    real = (partner >= 0) & (partner < n)
    if np.count_nonzero(real) != m.size:
        raise InvariantViolation(
            f"augmented matching kept {np.count_nonzero(real)} real edges, "
            f"maximum matching has {m.size}")
    missed = first[np.array(pair_l[n:], dtype=np.intp) < 0].tolist()
    alpha = beta - len(missed)
    actuators = sorted(np.flatnonzero(~real).tolist() + missed)
    return ActuatorReport(n_d + beta - alpha, actuators, n_d, beta, alpha)


def switchboard_drivers(g: DiGraph):
    """Driver nodes of the edge (switchboard) dynamics: divergent nodes
    plus one representative (the lowest index) per balanced weak
    component."""
    n = g.n_nodes
    in_deg = np.bincount(g.dst, minlength=n)
    out_deg = np.bincount(g.src, minlength=n)
    comp = weak_component_ids(n, g.src, g.dst)
    unbalanced = np.bincount(comp, weights=(in_deg != out_deg) | (in_deg < 1))
    _, lowest = np.unique(comp, return_index=True)
    drivers = np.union1d(np.flatnonzero(out_deg > in_deg),
                         lowest[unbalanced == 0])
    return drivers.tolist()
