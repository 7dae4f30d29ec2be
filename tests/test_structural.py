import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctl import graphs, structural
from netctl.errors import EmptyDriverSet, InvariantViolation
from netctl.generators import er_digraph
from netctl.graphs import DiGraph, component_ids, reach_mask, transpose
from netctl.structural import (
    CRITICAL,
    INTERMITTENT,
    ORDINARY,
    REDUNDANT,
    classify_links,
    classify_nodes,
    classify_nodes_deletion,
    control_centrality,
    control_profile,
    min_actuators,
    min_driver_set,
    structural_controllability_check,
    switchboard_drivers,
)
from oracles import (
    classify_nodes_deletion_reference,
    control_centrality_reference,
    generic_min_drivers,
    maximum_matchings,
)


def digraph(n, pairs):
    return DiGraph.from_pairs(n, pairs)


def random_digraph(rng, n, density=0.3, self_loops=True):
    pairs = sorted(
        {
            (i, j)
            for i in range(n)
            for j in range(n)
            if (self_loops or i != j) and rng.random() < density
        }
    )
    return digraph(n, pairs)


PATH3 = digraph(3, [(0, 1), (1, 2)])
STAR = digraph(3, [(0, 1), (0, 2)])
CYCLE3 = digraph(3, [(0, 1), (1, 2), (2, 0)])
FIG3 = digraph(5, [(0, 1), (0, 3), (3, 2), (4, 4)])


class TestMinDriverSet:
    def test_path(self):
        r = min_driver_set(PATH3)
        assert r.n_drivers == 1 and r.drivers == [0]

    def test_star(self):
        r = min_driver_set(STAR)
        assert r.n_drivers == 2 and r.drivers == [0, 2]

    def test_cycle(self):
        r = min_driver_set(CYCLE3)
        assert r.n_drivers == 1 and r.drivers == [0]

    def test_matches_generic_rank_small(self):
        rng_np = np.random.default_rng(42)
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(2, 5)
            g = random_digraph(rng, n, 0.35)
            pairs = [(s, d) for s, d, _ in g.edges]
            nd = min_driver_set(g).n_drivers
            assert nd == generic_min_drivers(pairs, n, rng_np)


class TestStructuralCheck:
    def test_star_hub_only_dilation(self):
        ok, witness = structural_controllability_check(STAR, {0})
        assert not ok
        kind, s, t = witness
        assert kind == "dilation"
        assert set(s) == {1, 2} and len(t) < len(s)

    def test_star_hub_plus_leaf(self):
        ok, witness = structural_controllability_check(STAR, {0, 2})
        assert ok and witness is None

    def test_inaccessible(self):
        g = digraph(2, [])
        ok, witness = structural_controllability_check(g, {0})
        assert not ok and witness == ("inaccessible", 1)

    def test_empty_drivers(self):
        with pytest.raises(EmptyDriverSet):
            structural_controllability_check(STAR, set())

    def test_actuator_set_always_passes(self):
        # one input signal may attach to several actuator nodes, so the
        # driver set alone need not pass the dedicated-input test; the
        # actuator set always does
        rng = random.Random(9)
        for _ in range(50):
            g = random_digraph(rng, rng.randint(2, 7))
            r = min_actuators(g)
            ok, _ = structural_controllability_check(g, set(r.actuators))
            assert ok


def root_sccs(g):
    """Sorted member lists of the root SCCs, by smallest member, from
    networkx's condensation."""
    h = nx.DiGraph()
    h.add_nodes_from(range(g.n_nodes))
    h.add_edges_from(zip(g.src.tolist(), g.dst.tolist()))
    cond = nx.condensation(h)
    return sorted(sorted(cond.nodes[c]["members"]) for c in cond
                  if cond.in_degree(c) == 0)


@st.composite
def accessible_driver_sets(draw):
    """A digraph and a driver set that reaches every node (it holds a node
    of every root SCC), so Lin's test can fail only by dilation."""
    n = draw(st.integers(2, 8))
    out = [draw(st.sets(st.integers(0, n - 1), max_size=3)) for _ in range(n)]
    g = digraph(n, [(s, d) for s in range(n) for d in sorted(out[s])])
    drivers = {draw(st.sampled_from(members)) for members in root_sccs(g)}
    return g, drivers | draw(st.sets(st.integers(0, n - 1), max_size=1))


@given(accessible_driver_sets())
@settings(max_examples=300, deadline=None)
def test_dilation_witness_is_hall_violator(case):
    g, drivers = case
    ok, witness = structural_controllability_check(g, drivers)
    assert ok == (witness is None)
    if ok:
        return
    kind, S, T = witness
    assert kind == "dilation"
    # T(S): every state out-copy u and input copy n + j with an edge into S
    n = g.n_nodes
    feeding = {s for s, d, _ in g.edges if d in S}
    feeding |= {n + j for j, v in enumerate(sorted(drivers)) if v in S}
    assert T == sorted(feeding)
    assert len(T) < len(S)


@given(accessible_driver_sets())
@settings(max_examples=200, deadline=None)
def test_dilation_witness_is_smallest_max_deficiency_set(case):
    """The witness S is the intersection of all in-copy sets of maximum
    deficiency |S| - |T(S)|, found here by enumerating every subset; so it
    does not depend on the matching that found it."""
    g, drivers = case
    ok, witness = structural_controllability_check(g, drivers)
    if ok:
        return
    n = g.n_nodes
    feeders = [set() for _ in range(n)]
    for s, d, _ in g.edges:
        feeders[d].add(s)
    for j, v in enumerate(sorted(drivers)):
        feeders[v].add(n + j)
    best, common = 0, set()
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            gap = size - len(set().union(*(feeders[v] for v in subset)))
            if gap > best:
                best, common = gap, set(subset)
            elif gap == best and gap > 0:
                common &= set(subset)
    _, S, T = witness
    assert S == sorted(common)
    assert len(S) - len(T) == best


def oracle_link_tags(g):
    pairs = [(s, d) for s, d, _ in g.edges]
    maxima, _ = maximum_matchings(pairs)
    tags = []
    for e in pairs:
        count = sum(1 for m in maxima if e in m)
        if count == len(maxima):
            tags.append(CRITICAL)
        elif count == 0:
            tags.append(REDUNDANT)
        else:
            tags.append(ORDINARY)
    return tags


def oracle_node_tags(g):
    pairs = [(s, d) for s, d, _ in g.edges]
    maxima, _ = maximum_matchings(pairs)
    tags = []
    for v in range(g.n_nodes):
        matched_count = sum(1 for m in maxima if any(d == v for _, d in m))
        if matched_count == 0:
            tags.append(CRITICAL)
        elif matched_count == len(maxima):
            tags.append(REDUNDANT)
        else:
            tags.append(INTERMITTENT)
    return tags


class TestClassifyLinks:
    def test_path_both_critical(self):
        assert classify_links(PATH3).tags == [CRITICAL, CRITICAL]

    def test_diamond_ordinary(self):
        g = digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        lc = classify_links(g)
        tags = dict(zip([(s, d) for s, d, _ in g.edges], lc.tags))
        assert tags[(1, 3)] == ORDINARY and tags[(2, 3)] == ORDINARY

    def test_fractions_sum_to_one(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_digraph(rng, rng.randint(2, 8))
            if not g.edges:
                continue
            f = classify_links(g).fractions
            assert abs(sum(f.values()) - 1.0) < 1e-12

    def test_matches_enumeration(self):
        rng = random.Random(23)
        for _ in range(120):
            g = random_digraph(rng, rng.randint(2, 6), 0.35)
            assert classify_links(g).tags == oracle_link_tags(g)

    def test_critical_removal_shrinks_matching(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_digraph(rng, rng.randint(2, 6), 0.3)
            if not g.edges:
                continue
            tags = classify_links(g).tags
            base = min_driver_set(g).matching_size
            for (s, d, w), tag in zip(g.edges, tags):
                rest = [e for e in g.edges if e != (s, d, w)]
                size = min_driver_set(DiGraph(g.n_nodes, rest)).matching_size
                if tag == CRITICAL:
                    assert size == base - 1
                else:
                    assert size == base


def full_d_link_tags(g):
    """Link tags with the SCCs taken on the whole alternating digraph D:
    a link u -> v lies on an alternating cycle iff u+ and v- share one."""
    n = g.n_nodes
    m, in_matching, src, dst = structural._alternating_structure(g)
    comp = component_ids(2 * n, src, dst)
    from_free_left = reach_mask(2 * n, src, dst,
                                np.flatnonzero(m.pair_left < 0))
    to_free_right = reach_mask(2 * n, dst, src,
                               n + np.flatnonzero(m.pair_right < 0))
    u, v = g.src, g.dst
    exchangeable = (comp[u] == comp[n + v]) | from_free_left[u] \
        | to_free_right[n + v]
    in_some = ((m.pair_left[u] < 0) != (m.pair_right[v] < 0)) | exchangeable
    return [(ORDINARY if x else CRITICAL) if matched else
            (ORDINARY if s else REDUNDANT)
            for matched, x, s in zip(in_matching.tolist(),
                                     exchangeable.tolist(), in_some.tolist())]


class TestContractedLinkSccs:
    """`classify_links` reads the SCCs of D contracted onto the
    out-copies; the tags equal those from the SCCs of D itself."""

    def test_small_digraphs(self):
        rng = random.Random(61)
        for _ in range(600):
            g = random_digraph(rng, rng.randint(1, 14), rng.random() ** 2)
            assert classify_links(g).tags == full_d_link_tags(g)

    @pytest.mark.parametrize("n, k", [(2000, 2.0), (2000, 4.0), (5000, 8.0)])
    def test_er_digraphs(self, n, k):
        g = er_digraph(n, k, np.random.default_rng(int(k)))
        tags = classify_links(g).tags
        assert tags == full_d_link_tags(g)
        assert len(set(tags)) == 3


class TestClassifyNodes:
    def test_star(self):
        assert classify_nodes(STAR).tags == [
            CRITICAL, INTERMITTENT, INTERMITTENT,
        ]

    def test_cycle_all_redundant(self):
        assert classify_nodes(CYCLE3).tags == [REDUNDANT] * 3

    def test_path(self):
        assert classify_nodes(PATH3).tags == [CRITICAL, REDUNDANT, REDUNDANT]

    def test_matches_enumeration(self):
        rng = random.Random(29)
        for _ in range(120):
            g = random_digraph(rng, rng.randint(2, 6), 0.35)
            assert classify_nodes(g).tags == oracle_node_tags(g)

    def test_fractions(self):
        rng = random.Random(37)
        for _ in range(20):
            g = random_digraph(rng, rng.randint(2, 8))
            f = classify_nodes(g).fractions
            assert abs(sum(f.values()) - 1.0) < 1e-12


class TestClassifyNodesDeletion:
    def test_path_middle_critical(self):
        tags = classify_nodes_deletion(PATH3).tags
        assert tags[1] == "deletion-critical"

    def test_star_leaf_redundant_hub_ordinary(self):
        tags = classify_nodes_deletion(STAR).tags
        assert tags[2] == "deletion-redundant"
        assert tags[0] == "deletion-ordinary"

    def test_matches_node_deleted_recount(self):
        """Tags and fractions equal those of recounting N_D on each of the
        n node-deleted graphs, self-loops and one-node graphs included."""
        rng = random.Random(41)
        for _ in range(600):
            g = random_digraph(rng, rng.randint(1, 14), rng.random() ** 2)
            got = classify_nodes_deletion(g)
            want = classify_nodes_deletion_reference(g)
            assert got.tags == want.tags
            assert list(got.fractions.items()) == \
                list(want.fractions.items())

    @pytest.mark.parametrize("seed, k", [(1, 2.0), (2, 3.0), (3, 5.0)])
    def test_er_against_networkx_matchings(self, seed, k):
        """N_D(G - i) from networkx's Hopcroft-Karp on the bipartite split
        of each node-deleted graph."""
        g = er_digraph(60, k, np.random.default_rng(seed))
        n, pairs = g.n_nodes, list(zip(g.src.tolist(), g.dst.tolist()))

        def nd(removed):
            h = nx.Graph()
            left = [("out", u) for u in range(n) if u != removed]
            h.add_nodes_from(left)
            h.add_edges_from((("out", u), ("in", v)) for u, v in pairs
                             if removed not in (u, v))
            size = len(nx.bipartite.hopcroft_karp_matching(h, left)) // 2
            return max(n - (removed is not None) - size, 1)

        base = nd(None)
        names = {1: "deletion-critical", 0: "deletion-ordinary",
                 -1: "deletion-redundant"}
        want = [names[np.sign(nd(i) - base)] for i in range(n)]
        assert classify_nodes_deletion(g).tags == want
        assert len(set(want)) == 3

    @pytest.mark.parametrize("k", [2.0, 4.0, 8.0])
    def test_er_batched_queries(self, k):
        """All "does b reach i+" queries in one condensation sweep."""
        g = er_digraph(2000, k, np.random.default_rng(1))
        got = classify_nodes_deletion(g)
        want = classify_nodes_deletion_reference(g)
        assert got.tags == want.tags
        assert got.fractions == want.fractions

    def test_queries_across_chunk_boundaries(self, monkeypatch):
        """Sweeps of 64 queries, the last one partial.  On ER digraphs
        almost every answer is "no"; self-loops on half the nodes make
        about a quarter of them "yes" (a matched loop answers its own
        query)."""
        g = er_digraph(2000, 4.0, np.random.default_rng(1))
        loops = np.flatnonzero(np.random.default_rng(2).random(2000) < 0.5)
        loops = np.setdiff1d(loops, g.src[g.src == g.dst])
        g = DiGraph.from_arrays(2000, np.concatenate([g.src, loops]),
                                np.concatenate([g.dst, loops]))
        calls = []
        real = structural.reach_pairs
        monkeypatch.setattr(structural, "reach_pairs", lambda *a: calls.append(
            (a, real(*a))) or calls[-1][1])
        monkeypatch.setattr(graphs, "_PAIR_CHUNK", 64)
        classify_nodes_deletion(g)
        (n, src, dst, starts, ends), answers = calls[0]
        assert len(starts) > 3 * 64 and len(starts) % 64
        assert answers.sum() > len(starts) // 5
        assert answers.tolist() == [
            bool(reach_mask(n, src, dst, [b])[i])
            for b, i in zip(starts.tolist(), ends.tolist())]

    def test_one_matching_no_subgraph(self, monkeypatch):
        calls = []
        real = structural.maximum_matching
        monkeypatch.setattr(structural, "maximum_matching",
                            lambda g: calls.append(g) or real(g))
        monkeypatch.setattr(DiGraph, "subgraph", None)
        classify_nodes_deletion(er_digraph(200, 4.0,
                                           np.random.default_rng(9)))
        assert len(calls) == 1


class TestControlProfile:
    def test_path(self):
        p = control_profile(PATH3)
        assert p.eta == (1 / 3, 0.0, 0.0)

    def test_star(self):
        p = control_profile(STAR)
        assert p.eta == (1 / 3, 1 / 3, 0.0)

    def test_cycle(self):
        p = control_profile(CYCLE3)
        assert p.eta == (0.0, 0.0, 1 / 3)

    def test_components_sum_to_nd(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_digraph(rng, rng.randint(2, 8))
            p = control_profile(g)
            nd = min_driver_set(g).n_drivers
            assert p.n_sources + p.n_external + p.n_internal == nd


class TestControlCentrality:
    def test_stem_plus_cycle(self):
        # x1 feeds a 2-cycle; x4 inaccessible from x1
        g = digraph(4, [(0, 1), (1, 2), (2, 1), (3, 0)])
        assert control_centrality(g, {0}) == 3

    def test_cycle_any_node(self):
        for v in range(3):
            assert control_centrality(CYCLE3, {v}) == 3

    def test_chain_head(self):
        for length in range(1, 6):
            g = digraph(length, [(i, i + 1) for i in range(length - 1)])
            assert control_centrality(g, {0}) == length

    def test_all_nodes_full_dimension(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_digraph(rng, rng.randint(2, 7))
            assert control_centrality(g, range(g.n_nodes)) == g.n_nodes

    def test_monotone_in_controlled_set(self):
        rng = random.Random(47)
        for _ in range(20):
            g = random_digraph(rng, rng.randint(2, 6))
            nodes = list(range(g.n_nodes))
            rng.shuffle(nodes)
            prev = 0
            chosen = set()
            for v in nodes:
                chosen.add(v)
                cur = control_centrality(g, chosen)
                assert cur >= prev
                prev = cur

    def test_matches_dense_cycle_cover(self):
        rng = random.Random(67)
        partly_accessible = 0
        for _ in range(1200):
            n = rng.randint(1, 11)
            g = random_digraph(rng, n, rng.choice([0.08, 0.15, 0.3]))
            controlled = rng.sample(range(n), rng.randint(1, min(n, 3)))
            pairs = [(s, d) for s, d, _ in g.edges]
            assert control_centrality(g, controlled) == \
                control_centrality_reference(n, pairs, controlled), \
                (pairs, controlled)
            partly_accessible += not reach_mask(n, g.src, g.dst,
                                                controlled).all()
        assert partly_accessible >= 300

    def test_er_one_node_at_scale(self):
        # a dense cycle cover of this graph would take about 3.2 GB
        g = er_digraph(20_000, 6.0, np.random.default_rng(71))
        keep = reach_mask(g.n_nodes, g.src, g.dst, [0])
        c = control_centrality(g, [0])
        assert 1 <= c <= keep.sum()
        # Lin: the accessible part is structurally controllable from node 0
        # iff the whole of it is controllable
        ok, _ = structural_controllability_check(g.subgraph(keep), [0])
        assert ok == (c == keep.sum())
        assert control_centrality(g, min_actuators(g).actuators) == g.n_nodes


def oracle_alpha(g):
    """Maximum number of root SCCs holding an unmatched node, over all
    maximum matchings (exhaustive)."""
    roots = root_sccs(g)
    root_of = {v: i for i, members in enumerate(roots) for v in members}
    pairs = [(s, d) for s, d, _ in g.edges]
    maxima, best = maximum_matchings(pairs)
    n = g.n_nodes
    if best == n:
        return 1, len(roots)
    alpha = 0
    for m in maxima:
        heads = {d for _, d in m}
        exposed = set(range(n)) - heads
        hit = {root_of[v] for v in exposed if v in root_of}
        alpha = max(alpha, len(hit))
    return alpha, len(roots)


class TestMinActuators:
    def test_fig3_graph(self):
        r = min_actuators(FIG3)
        assert r.n_drivers == 2 and r.beta == 2 and r.alpha == 1
        assert r.n_actuators == 3
        assert set(r.actuators) in ({0, 1, 4}, {0, 3, 4})

    def test_single_path(self):
        assert min_actuators(PATH3).n_actuators == 1

    def test_two_disjoint_2cycles(self):
        g = digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        r = min_actuators(g)
        assert (r.n_drivers, r.beta, r.alpha, r.n_actuators) == (1, 2, 1, 2)

    def test_matches_brute_force(self):
        rng = random.Random(53)
        for _ in range(60):
            g = random_digraph(rng, rng.randint(2, 7), 0.3)
            alpha, beta = oracle_alpha(g)
            nd = min_driver_set(g).n_drivers
            r = min_actuators(g)
            assert r.alpha == alpha, (g.edges, r.alpha, alpha)
            assert r.n_actuators == nd + beta - alpha
            assert len(r.actuators) == r.n_actuators

    def test_canonical_drivers_not_kept(self):
        # the canonical drivers {3, 4} leave node 2 inaccessible
        g = digraph(5, [(0, 1), (2, 2), (2, 3), (3, 0)])
        assert min_driver_set(g).drivers == [3, 4]
        r = min_actuators(g)
        assert r.actuators == [2, 4]
        assert structural_controllability_check(g, r.actuators)[0]

    def test_lost_cardinality_raises(self, monkeypatch):
        import netctl.structural as structural

        def unmatch_all(g, pair_l, pair_r):
            # an augmentation that leaves every real in-copy unmatched
            pair_l[:] = [-1] * len(pair_l)
            pair_r[:] = [-1] * len(pair_r)

        monkeypatch.setattr(structural, "_augment", unmatch_all)
        with pytest.raises(InvariantViolation):
            min_actuators(PATH3)

    def test_er_at_scale(self):
        # a dense (n + beta)^2 assignment here would need about 20 GiB
        g = er_digraph(50_000, 6.0, np.random.default_rng(73))
        r = min_actuators(g)
        assert len(r.actuators) == r.n_actuators
        assert structural_controllability_check(g, r.actuators) == \
            (True, None)

    def test_bounds(self):
        rng = random.Random(59)
        for _ in range(40):
            g = random_digraph(rng, rng.randint(2, 8))
            r = min_actuators(g)
            assert r.n_drivers <= r.n_actuators <= r.n_drivers + r.beta


class TestSwitchboardDrivers:
    def test_out_star(self):
        assert switchboard_drivers(STAR) == [0]

    def test_cycle_one_node(self):
        assert switchboard_drivers(CYCLE3) == [0]

    def test_convergent_tail_excluded(self):
        g = digraph(3, [(0, 2), (1, 2)])
        drv = switchboard_drivers(g)
        assert 2 not in drv
        assert drv == [0, 1]

    def test_self_loop_is_balanced_component(self):
        g = digraph(2, [(0, 0)])
        assert switchboard_drivers(g) == [0]


class TestDuality:
    def test_sensor_count_is_nd_of_transpose(self):
        rng = random.Random(61)
        for _ in range(30):
            g = random_digraph(rng, rng.randint(2, 8))
            nd_t = min_driver_set(transpose(g)).n_drivers
            # |M*| is invariant under transposition, so counts agree
            assert nd_t == max(
                g.n_nodes
                - len(maximum_matchings([(s, d) for s, d, _ in g.edges])[0][0]),
                1,
            )
