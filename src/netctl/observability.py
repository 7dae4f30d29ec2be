"""Sensor placement and observability: inference diagrams, root-SCC
sensor sets, target observability, dominating sets, observability
transitions, and a Luenberger observer simulator.
"""
from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NonFiniteInput,
    NoPathToTarget,
    ParseError,
)
from .graphs import (
    DiGraph,
    UnGraph,
    reach_mask,
    scc_roots,
    transpose,
    weak_component_ids,
)
from .structural import DriverReport, min_driver_set


@dataclass
class ReactionSystem:
    species: list  # species names, first-appearance order
    rates: list  # rate constant per elementary reaction
    alpha: np.ndarray  # reactant stoichiometry, shape (R, N)
    beta: np.ndarray  # product stoichiometry, shape (R, N)

    @property
    def gamma(self):
        """Stoichiometric matrix, shape (N, R): net change of species i
        in reaction j."""
        return (self.beta - self.alpha).T

    @property
    def n_species(self):
        return len(self.species)


_TERM = re.compile(r"^\s*(?:(\d+(?:\.\d+)?)\s+)?(\S+)\s*$")


def _parse_side(side, line_no):
    terms = {}
    side = side.strip()
    if side in ("", "0"):
        return terms
    for part in side.split("+"):
        m = _TERM.match(part)
        if not m:
            raise ParseError(line_no, f"bad species term {part!r}")
        coeff = float(m.group(1)) if m.group(1) else 1.0
        name = m.group(2)
        terms[name] = terms.get(name, 0.0) + coeff
    return terms


def parse_reactions(text: str) -> ReactionSystem:
    """Parse reaction lines "k: a A + b B -> c C + d D".

    The leading token is the rate constant (a number, or "name=value");
    "<->" expands into the two elementary directions, the reverse taking
    the rate after a comma when given ("k1,k2: A <-> B") and the forward
    rate otherwise.  '#' starts a comment.
    """
    species = []
    index = {}
    rows = []

    def intern(name):
        if name not in index:
            index[name] = len(species)
            species.append(name)
        return index[name]

    def rate_value(token, line_no):
        token = token.strip()
        if "=" in token:
            token = token.split("=", 1)[1]
        try:
            return float(token)
        except ValueError:
            raise ParseError(line_no, f"bad rate constant {token!r}")

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(line_no, "missing rate separator ':'")
        rate_part, eq = line.split(":", 1)
        reversible = "<->" in eq
        arrow = "<->" if reversible else "->"
        if "->" not in eq:
            raise ParseError(line_no, "missing '->'")
        lhs, rhs = eq.split(arrow, 1)
        left = _parse_side(lhs, line_no)
        right = _parse_side(rhs, line_no)
        rates = [rate_value(t, line_no) for t in rate_part.split(",")]
        for name in list(left) + list(right):
            intern(name)
        rows.append((rates[0], left, right))
        if reversible:
            back = rates[1] if len(rates) > 1 else rates[0]
            rows.append((back, right, left))
    alpha = np.zeros((len(rows), len(species)))
    beta = np.zeros_like(alpha)
    for j, (_, left, right) in enumerate(rows):
        for stoich, side in ((alpha, left), (beta, right)):
            for name, c in side.items():
                stoich[j, index[name]] = c
    return ReactionSystem(species, [k for k, _, _ in rows], alpha, beta)


def inference_diagram(sys: ReactionSystem) -> DiGraph:
    """Digraph with an edge i -> l when species l appears in species i's
    balance equation: some reaction j both changes i (gamma_ij != 0) and
    consumes l (alpha_jl > 0)."""
    linked = (sys.gamma != 0).astype(int) @ (sys.alpha != 0).astype(int)
    src, dst = np.nonzero(linked)
    return DiGraph.from_arrays(sys.n_species, src, dst,
                               labels=list(sys.species))


@dataclass
class SensorReport:
    root_sccs: list  # node lists of components with no incoming links
    sensors: list  # canonical choice: lowest-index node per root SCC
    n_sensors: int
    multiplicity: int  # number of minimum sensor sets (product of sizes)


def min_sensors(g: DiGraph) -> SensorReport:
    comp, is_root = scc_roots(g)
    # the members of each root SCC, in node order; a stable sort by
    # component keeps node order inside each component
    nodes = np.flatnonzero(is_root[comp])
    nodes = nodes[np.argsort(comp[nodes], kind="stable")]
    _, first, size = np.unique(comp[nodes], return_index=True,
                               return_counts=True)
    roots = [nodes[i:i + k].tolist()
             for i, k in zip(first.tolist(), size.tolist())]
    # a product of Python ints is exact; a numpy one overflows past 2**63
    mult = math.prod(size.tolist())
    return SensorReport(roots, [r[0] for r in roots], len(roots), mult)


def is_valid_sensor_set(g: DiGraph, sensors) -> bool:
    """A sensor set is sufficient at the graph level iff every node is
    reachable from some sensor (equivalently: it hits every root SCC)."""
    return bool(reach_mask(g.n_nodes, g.src, g.dst, list(sensors)).all())


def sensors_via_duality(g: DiGraph) -> DriverReport:
    """Structural sensor count = minimum drivers of the transpose."""
    return min_driver_set(transpose(g))


def target_sensor(g_inf: DiGraph, targets):
    """One sensor observing all target nodes at minimum cost.

    Candidates are non-target nodes with directed paths (in the inference
    diagram) to every target; the cost of a candidate is the total size
    of the SCCs reachable from it, and ties break to the lowest index.
    Returns (sensor, cost).
    """
    n = g_inf.n_nodes
    targets = set(targets)
    if not targets:
        raise InvalidArgument("need at least one target")
    t = np.array(sorted(targets), dtype=np.intp)
    best = None
    # an index outside 0..n-1 names no node, and no node reaches it
    for v in range(n if 0 <= t[0] and t[-1] < n else 0):
        if v in targets:
            continue
        # whatever reaches one node of an SCC reaches all of it
        reach = reach_mask(n, g_inf.src, g_inf.dst, [v])
        if reach[t].all() and (best is None or reach.sum() < best[1]):
            best = (v, int(reach.sum()))
    if best is None:
        names = sorted(g_inf.labels[i] if 0 <= i < n else str(i)
                       for i in t.tolist())
        raise NoPathToTarget(f"no non-target node reaches all of "
                             f"{', '.join(names)}")
    return best


def mds_solve(g: UnGraph):
    """Dominating set via generalized leaf removal, completed greedily on
    the residual core.

    Reduction rules on the evolving graph (every node starts unobserved):
      - an isolated unobserved node is occupied;
      - the neighbor of an unobserved leaf is occupied (it covers at
        least as much); occupied nodes observe their neighborhood and
        are removed;
      - an observed node with at most one unobserved neighbor is removed:
        occupying it could cover only that neighbor, which any of the
        neighbor's dominators covers too.
    If the rules exhaust the graph the result is a minimum dominating set
    (exact = True); otherwise the remaining core is covered greedily.
    Returns (sorted node list, exact flag).
    """
    n = g.n_nodes
    indptr_a, nbrs_a = g.neighbours()
    indptr, nbrs = indptr_a.tolist(), nbrs_a.tolist()
    deg = np.diff(indptr_a).tolist()  # alive neighbours
    unobserved_nb = list(deg)  # alive unobserved neighbours
    observed = [False] * n
    alive = [True] * n
    occupied = []

    def alive_nbrs(v):
        return [u for u in nbrs[indptr[v]:indptr[v + 1]] if alive[u]]

    # occupy and remove return the nodes whose counters they changed
    def occupy(v):
        occupied.append(v)
        touched = []
        for u in [v] + alive_nbrs(v):
            if not observed[u]:
                observed[u] = True
                touched += alive_nbrs(u)
        for x in touched:
            unobserved_nb[x] -= 1
        return touched + remove(v)

    def remove(v):
        alive[v] = False
        touched = alive_nbrs(v)
        for u in touched:
            deg[u] -= 1
        return touched

    def apply_rule(v):  # None if no rule fits v
        if not observed[v] and deg[v] <= 1:
            return occupy(alive_nbrs(v)[0] if deg[v] else v)
        if observed[v] and unobserved_nb[v] <= 1:
            return remove(v)
        return None

    # Passes over the nodes in index order until one changes nothing.  A
    # pass visits only the nodes whose counters changed since their last
    # visit: one touched at v waits for this pass if it comes after v.
    queue, last = [(0, v) for v in range(n)], None
    while queue:
        step, v = key = heapq.heappop(queue)
        if key != last and alive[v]:
            for u in set(apply_rule(v) or ()):
                heapq.heappush(queue, (step + (u <= v), u))
        last = key
    exact = not any(alive)

    # greedy completion on the residual core: occupy the node covering the
    # most still-unobserved nodes, lowest index first.  Covers only fall,
    # so a stale heap entry is an upper bound and is refreshed when met.
    def cover(v):
        return (not observed[v]) + unobserved_nb[v]

    heap = [(-cover(v), v) for v in range(n) if alive[v]]
    heapq.heapify(heap)
    while heap and heap[0][0] < 0:
        neg, v = heapq.heappop(heap)
        if alive[v] and cover(v) == -neg:
            occupy(v)
        elif alive[v]:
            heapq.heappush(heap, (-cover(v), v))
    return sorted(occupied), exact


def observability_transition(
    g: UnGraph,
    phi: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Mean fraction of nodes in the largest connected observed component
    when floor(phi N) monitors are placed uniformly at random (a monitor
    observes itself and its neighbors)."""
    if not 0.0 <= phi <= 1.0:
        raise InvalidArgument("phi must lie in [0, 1]")
    if trials < 1:
        raise InvalidArgument("trials must be at least 1")
    n = g.n_nodes
    k = int(phi * n)
    indptr, nbrs = g.neighbours()
    owner = np.repeat(np.arange(n), np.diff(indptr))
    sizes = []
    for _ in range(trials):
        monitors = rng.choice(n, size=k, replace=False) if k else np.array([], int)
        chosen = np.zeros(n, dtype=bool)
        chosen[monitors] = True
        observed = chosen.copy()
        observed[owner[chosen[nbrs]]] = True
        keep = observed[g.u] & observed[g.v]
        ids = weak_component_ids(n, g.u[keep], g.v[keep])
        sizes.append(np.bincount(ids[observed], minlength=1).max())
    return float(np.mean(sizes)) / n


def luenberger_observe(sys, l_gain, x0, z0, t_final: float, n_steps: int = 200):
    """Co-simulate plant and observer; the observer corrects its copy of
    the dynamics with the output mismatch.  Returns (t, ||x - z||)."""
    from .exact import _expm

    if sys.c is None:
        raise DimensionMismatch("system needs an output matrix C")
    a, c = sys.a, sys.c
    l_gain = np.atleast_2d(np.asarray(l_gain, dtype=float))
    n = sys.n
    if l_gain.shape != (n, c.shape[0]):
        raise DimensionMismatch("gain must map outputs to states")
    x0 = np.asarray(x0, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    if x0.shape != (n,) or z0.shape != (n,):
        raise InvalidArgument(f"x0 and z0 must each have length {n}")
    if not (np.isfinite(x0).all() and np.isfinite(z0).all()):
        raise NonFiniteInput("x0 and z0 must be finite")
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = a
    big[n:, :n] = l_gain @ c
    big[n:, n:] = a - l_gain @ c
    t = np.linspace(0.0, t_final, n_steps + 1)
    step = _expm(big * (t[1] - t[0])) if n_steps else np.eye(2 * n)
    state = np.concatenate([x0, z0])
    errs = [float(np.linalg.norm(x0 - z0))]
    for _ in range(n_steps):
        state = step @ state
        errs.append(float(np.linalg.norm(state[:n] - state[n:])))
    return t, np.array(errs)


# Eleven-species mass-action demo network: two reversible conversions,
# one condensation, and one synthesis reaction.  Its inference diagram
# has three root SCCs, of sizes 1, 2, and 3.
DEMO_REACTIONS = """\
1.0,0.5: x7 + x8 <-> x9
1.0,0.5: x4 <-> x5
1.0: x1 + x2 -> x6
1.0: x3 + x10 + x11 -> x1
"""
