import random
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctl import graphs
from netctl.errors import DuplicateEdge, ParseError
from netctl.graphs import (
    DiGraph,
    UnGraph,
    component_ids,
    directed_core,
    maximum_matching,
    parse_edge_list,
    reach_mask,
    reach_pairs,
    scc_roots,
    transpose,
    weak_component_ids,
)
from netctl.generators import er_digraph
from netctl.structural import control_centrality
from oracles import (
    core_by_rounds,
    hopcroft_karp_reference,
    longest_path_layers,
    maximum_matchings,
    parse_edge_list_reference,
)


def digraph(n, pairs):
    return DiGraph.from_pairs(n, pairs)


small_digraphs = st.integers(2, 6).flatmap(
    lambda n: st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=n * n,
    ).map(lambda pairs: digraph(n, sorted(pairs)))
)


class TestParse:
    def test_basic(self):
        g = parse_edge_list("a b\nb c")
        assert g.n_nodes == 3
        assert g.labels == ["a", "b", "c"]
        assert [(s, d) for s, d, _ in g.edges] == [(0, 1), (1, 2)]

    def test_weight(self):
        g = parse_edge_list("a b 0.5")
        assert g.edges[0][2] == 0.5

    def test_duplicate(self):
        with pytest.raises(DuplicateEdge):
            parse_edge_list("a b\na b")

    def test_malformed(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("a b\nbroken")
        assert exc.value.line_no == 2

    def test_comments_and_crlf(self):
        g = parse_edge_list("# header\r\na b\r\n\r\nb c\r\n")
        assert g.n_edges == 2

    def test_undirected(self):
        g = parse_edge_list("a b\nb c", directed=False)
        assert isinstance(g, UnGraph)
        assert g.edges == [(0, 1), (1, 2)]


# pieces of generated edge lists: labels (some with '#' or non-ASCII
# letters), weights (some malformed), whitespace and line boundaries of
# every kind str.split() and str.splitlines() know
LABEL = st.sampled_from(["a", "b", "c", "d", "0", "1", "#x", "x#", "é", "日本"])
WEIGHT = st.sampled_from(["2", "0.5", "-1e3", "inf", "nan", "1_0", " 3",
                          "bad", "0x1"])
SPACE = st.sampled_from([" ", "  ", "\t", "\xa0", "\u2003", "\x1f",
                         "\u3000"])
BREAK = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
                         "\x85", "\u2028"])


@st.composite
def edge_list_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["edge"] * 8 + ["weighted"] * 3 + ["comment", "blank", "short",
                                               "long"]))
        tokens = {"edge": 2, "weighted": 2, "comment": 2, "blank": 0,
                  "short": 1, "long": 4}[kind]
        parts = [draw(LABEL) for _ in range(tokens)]
        if kind == "weighted":
            parts.append(draw(WEIGHT))
        if kind == "comment":
            parts[0] = "#" + parts[0]
        body = "".join(draw(SPACE) + p if i else p
                       for i, p in enumerate(parts))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + body + draw(st.sampled_from(["", " "])))
    ends = [draw(BREAK) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\n\r")


def parse_outcome(parse, text, directed):
    """(labels, edges) or (exception class, line number, message)."""
    try:
        got = parse(text, directed)
    except (ParseError, DuplicateEdge, ValueError) as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    if isinstance(got, tuple):
        return got[0], repr(got[1])  # repr: nan weights compare equal
    return got.labels, repr(got.edges)


class TestParseAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(edge_list_text(), st.booleans())
    def test_same_graph_or_same_error(self, text, directed):
        assert parse_outcome(parse_edge_list, text, directed) == \
            parse_outcome(parse_edge_list_reference, text, directed)

    def test_undirected_reversed_duplicate(self):
        with pytest.raises(DuplicateEdge) as exc:
            parse_edge_list("a b\nb c\nb a\n", directed=False)
        assert exc.value.line_no == 3

    def test_earliest_error_wins(self):
        text = "a b\nc d x\nbroken\na b\n"
        with pytest.raises(ParseError) as exc:
            parse_edge_list(text)
        assert exc.value.line_no == 2 and "bad weight" in str(exc.value)

    def test_character_tables_match_python(self):
        space = [c for c in range(0x110000) if chr(c).isspace()]
        breaks = [c for c in range(0x110000)
                  if len(("a" + chr(c) + "b").splitlines()) == 2]
        assert np.flatnonzero(graphs._SPACE).tolist() == space
        assert np.flatnonzero(graphs._BREAK).tolist() == breaks

    def test_seeded_er_file(self):
        g = er_digraph(3000, 4.0, np.random.default_rng(5))
        text = "# seeded ER\n" + "".join(
            f"n{s} n{d} {w}\n" if s % 7 == 0 else f"n{s}\tn{d}\n"
            for s, d, w in g.edges)
        labels, edges = parse_edge_list_reference(text)
        got = parse_edge_list(text)
        assert got.labels == labels and got.edges == edges


class TestTranspose:
    def test_path(self):
        g = parse_edge_list("a b\nb c")
        t = transpose(g)
        assert [(s, d) for s, d, _ in t.edges] == [(1, 0), (2, 1)]
        assert t.labels == g.labels

    def test_involution(self):
        g = parse_edge_list("a b 2.0\nb c 0.25\nc a 1.5\nc c 3.0")
        tt = transpose(transpose(g))
        assert tt.edges == g.edges

    def test_self_loop(self):
        g = parse_edge_list("a a")
        assert transpose(g).edges == g.edges


def arcs(g):
    return list(zip(g.src.tolist(), g.dst.tolist()))


class TestArcArrays:
    """The arc arrays are the bipartite split the matchings run on: edge i
    joins out-copy src[i] to in-copy dst[i]."""

    def test_edges_and_self_loops(self):
        assert arcs(digraph(3, [(0, 1), (2, 2)])) == [(0, 1), (2, 2)]

    def test_empty(self):
        assert arcs(digraph(4, [])) == []

    def test_star(self):
        assert arcs(digraph(3, [(0, 1), (0, 2)])) == [(0, 1), (0, 2)]


class TestMatching:
    def test_path3(self):
        m = maximum_matching(digraph(3, [(0, 1), (1, 2)]))
        assert m.size == 2
        assert m.unmatched_nodes() == [0]

    def test_star(self):
        m = maximum_matching(digraph(3, [(0, 1), (0, 2)]))
        assert m.size == 1
        # canonical augmentation prefers the lowest right index
        assert m.pair_left[0] == 1

    def test_cycle_perfect(self):
        m = maximum_matching(digraph(3, [(0, 1), (1, 2), (2, 0)]))
        assert m.size == 3
        assert m.unmatched_nodes() == []

    @settings(max_examples=150, deadline=None)
    @given(small_digraphs)
    def test_cardinality_matches_enumeration(self, g):
        pairs = [(s, d) for s, d, _ in g.edges]
        _, best = maximum_matchings(pairs)
        m = maximum_matching(g)
        assert m.size == best

    @settings(max_examples=100, deadline=None)
    @given(small_digraphs)
    def test_structural_validity(self, g):
        m = maximum_matching(g)
        tails = np.flatnonzero(m.pair_left >= 0).tolist()
        heads = m.pair_left[tails].tolist()
        assert len(set(tails)) == len(tails)
        assert len(set(heads)) == len(heads)
        for i in range(g.n_nodes):
            assert bool(m.pair_right[i] >= 0) == (i in heads)


def seeded_small_digraphs(count, seed, max_nodes=12):
    """Digraphs on 1..max_nodes nodes at random density (mostly sparse),
    with self-loops, isolated nodes and empty rows, edges in shuffled
    order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_nodes)
        pairs = list({(rng.randrange(n), rng.randrange(n))
                      for _ in range(int(rng.random() ** 2 * n * n))})
        rng.shuffle(pairs)
        yield n, pairs


class TestMatchingAgainstReference:
    """The layered Hopcroft-Karp returns exactly the reference's pairs."""

    @pytest.mark.parametrize("max_nodes", [12, 40])
    def test_small_digraphs(self, max_nodes):
        for n, pairs in seeded_small_digraphs(2000, 2024, max_nodes):
            m = maximum_matching(digraph(n, pairs))
            pair_l, pair_r = hopcroft_karp_reference(n, pairs)
            assert m.pair_left.tolist() == pair_l
            assert m.pair_right.tolist() == pair_r

    @pytest.mark.parametrize("k", [2.0, 4.0, 8.0])
    def test_er_digraphs(self, k):
        g = er_digraph(10_000, k, np.random.default_rng(int(k)))
        m = maximum_matching(g)
        pair_l, pair_r = hopcroft_karp_reference(
            g.n_nodes, list(zip(g.src.tolist(), g.dst.tolist())))
        assert m.pair_left.tolist() == pair_l
        assert m.pair_right.tolist() == pair_r

    def test_alternating_chain(self):
        """Arcs i -> n-1-i and i -> n-2-i: the greedy pass matches every
        out-copy but n - 1, and the one augmenting path left alternates
        through all n of them, so the layering is n levels deep."""
        n = 10_000
        src = np.concatenate([np.arange(n), np.arange(n - 1)])
        dst = np.concatenate([n - 1 - np.arange(n), n - 2 - np.arange(n - 1)])
        g = DiGraph.from_arrays(n, src, dst)
        m = maximum_matching(g)
        pair_l, pair_r = hopcroft_karp_reference(
            n, list(zip(src.tolist(), dst.tolist())))
        assert m.pair_left.tolist() == pair_l
        assert m.pair_right.tolist() == pair_r
        assert m.size == n

    def test_maximum_matching_is_a_maximum_matching(self):
        """Pairs are edges, the two sides agree, and the size is that of
        scipy's C Hopcroft-Karp."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching

        for n, pairs in seeded_small_digraphs(500, 77):
            g = digraph(n, pairs)
            m = maximum_matching(g)
            edges = set(pairs)
            tails = np.flatnonzero(m.pair_left >= 0).tolist()
            matched = list(zip(tails, m.pair_left[tails].tolist()))
            assert all(e in edges for e in matched)
            assert all(m.pair_right[v] == u for u, v in matched)
            assert np.count_nonzero(m.pair_right >= 0) == len(matched)
            adjacency = csr_matrix((np.ones(g.n_edges), (g.src, g.dst)),
                                   shape=(n, n))
            assert m.size == np.count_nonzero(maximum_bipartite_matching(
                adjacency, perm_type="column") >= 0)


def reached(g, sources):
    return np.flatnonzero(reach_mask(g.n_nodes, g.src, g.dst,
                                     sources)).tolist()


def members(ids):
    """Member lists of each component id, in increasing node order."""
    if not len(ids):
        return []
    order = np.argsort(ids, kind="stable")
    return [part.tolist() for part in
            np.split(order, np.cumsum(np.bincount(ids))[:-1])]


class TestScc:
    def test_cycle(self):
        comp, is_root = scc_roots(digraph(3, [(0, 1), (1, 2), (2, 0)]))
        assert comp.tolist() == [0, 0, 0]
        assert is_root.tolist() == [True]

    def test_dag(self):
        comp, is_root = scc_roots(digraph(4, [(0, 1), (0, 2), (1, 3),
                                              (2, 3)]))
        assert comp.tolist() == [0, 1, 2, 3]
        assert np.flatnonzero(is_root).tolist() == [comp[0]]

    def test_condensation_acyclic(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 9)
            pairs = {
                (rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)
            }
            g = digraph(n, sorted(pairs))
            comp, is_root = scc_roots(g)
            cs, cd = comp[g.src], comp[g.dst]
            cross = cs != cd
            cond = nx.DiGraph(zip(cs[cross].tolist(), cd[cross].tolist()))
            cond.add_nodes_from(range(len(is_root)))
            assert nx.is_directed_acyclic_graph(cond)
            # arcs inside one component lie on a cycle
            assert all(nx.has_path(nx_digraph(g), d, s)
                       for s, d in zip(g.src[~cross].tolist(),
                                       g.dst[~cross].tolist()))
            assert is_root.tolist() == [cond.in_degree(c) == 0
                                        for c in range(len(is_root))]

    def test_dag_n_components_equals_n(self):
        g = digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        comp, is_root = scc_roots(g)
        assert len(is_root) == 5 and comp.tolist() == list(range(5))


class TestReachable:
    def test_path(self):
        g = parse_edge_list("a b\nb c")
        assert reached(g, [0]) == [0, 1, 2]

    def test_empty_sources(self):
        assert reached(digraph(3, [(0, 1)]), []) == []

    def test_disjoint_cycles(self):
        g = digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert reached(g, [0]) == [0, 1]


# seeded ER digraphs (n, mean total degree, seed) on both sides of the giant
# strongly connected component's onset at mean total degree 2
NX_CASES = [(1000, 1.5, 1), (2000, 2.5, 2), (5000, 3.0, 3), (10000, 4.0, 4)]


def nx_digraph(g):
    h = nx.DiGraph()
    h.add_nodes_from(range(g.n_nodes))
    h.add_edges_from((s, d) for s, d, _ in g.edges)
    return h


@pytest.mark.parametrize("n, k, seed", NX_CASES)
class TestAgainstNetworkx:
    def test_scc_partition(self, n, k, seed):
        g = er_digraph(n, k, np.random.default_rng(seed))
        comp = component_ids(n, g.src, g.dst)
        want = sorted(sorted(c) for c in
                      nx.strongly_connected_components(nx_digraph(g)))
        assert members(comp) == want
        assert np.array_equal(scc_roots(g)[0], comp)

    def test_condensation_and_roots(self, n, k, seed):
        g = er_digraph(n, k, np.random.default_rng(seed))
        comp, is_root = scc_roots(g)
        cond = nx.condensation(nx_digraph(g))
        ours = {c: comp[min(cond.nodes[c]["members"])] for c in cond}
        cs, cd = comp[g.src], comp[g.dst]
        cross = cs != cd
        assert {(ours[a], ours[b]) for a, b in cond.edges} == set(
            zip(cs[cross].tolist(), cd[cross].tolist()))
        assert np.flatnonzero(is_root).tolist() == sorted(
            ours[c] for c in cond if cond.in_degree(c) == 0)

    def test_weak_components(self, n, k, seed):
        g = er_digraph(n, k, np.random.default_rng(seed))
        want = sorted(sorted(c) for c in
                      nx.weakly_connected_components(nx_digraph(g)))
        assert members(weak_component_ids(n, g.src, g.dst)) == want

    def test_matching_size(self, n, k, seed):
        g = er_digraph(n, k, np.random.default_rng(seed))
        h = nx.Graph()
        h.add_nodes_from(("out", u) for u in range(n))
        h.add_nodes_from(("in", v) for v in range(n))
        h.add_edges_from((("out", s), ("in", d)) for s, d, _ in g.edges)
        want = len(nx.bipartite.hopcroft_karp_matching(
            h, top_nodes=[("out", u) for u in range(n)])) // 2
        assert maximum_matching(g).size == want

    def test_reachable_from_several_sources(self, n, k, seed):
        g = er_digraph(n, k, np.random.default_rng(seed))
        h = nx_digraph(g)
        sources = random.Random(seed).sample(range(n), 5)
        want = set(sources).union(*(nx.descendants(h, s) for s in sources))
        assert reached(g, sources) == sorted(want)


class _CountingNumpy:
    """numpy, counting the calls of `minimum.at`: `weak_component_ids`
    makes two per hooking round."""

    def __init__(self):
        self.calls = 0
        self.minimum = SimpleNamespace(at=self._minimum_at)

    def _minimum_at(self, *args):
        self.calls += 1
        np.minimum.at(*args)

    def __getattr__(self, name):
        return getattr(np, name)


def shuffled_path(n, seed):
    order = np.random.default_rng(seed).permutation(n)
    return order[:-1], order[1:]


def star_of_stars(hubs, leaves, seed):
    """A centre joined to `hubs` hubs, each with `leaves` leaves of its
    own, under shuffled labels and arc directions."""
    rng = np.random.default_rng(seed)
    n = 1 + hubs * (1 + leaves)
    hub = 1 + np.arange(hubs)
    leaf = np.arange(1 + hubs, n)
    tail = np.concatenate([np.zeros(hubs, dtype=np.intp),
                           np.repeat(hub, leaves)])
    label = rng.permutation(n)
    src, dst = label[tail], label[np.concatenate([hub, leaf])]
    flip = rng.random(len(src)) < 0.5
    return n, np.where(flip, dst, src), np.where(flip, src, dst)


class TestWeakComponents:
    def test_small_digraphs(self):
        for n, pairs in seeded_small_digraphs(2000, 31):
            g = digraph(n, pairs)
            want = sorted(sorted(c) for c in
                          nx.weakly_connected_components(nx_digraph(g)))
            assert members(weak_component_ids(n, g.src, g.dst)) == want

    def test_empty(self):
        none = np.zeros(0, dtype=np.intp)
        assert weak_component_ids(0, none, none).tolist() == []
        assert weak_component_ids(3, none, none).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("n, src, dst", [
        (10_000, *shuffled_path(10_000, 1)),
        (100_000, *shuffled_path(100_000, 2)),
        star_of_stars(100, 100, 3),
        star_of_stars(1000, 3, 4),
    ], ids=["path-1e4", "path-1e5", "star-100x100", "star-1000x3"])
    def test_one_component_in_logarithmic_rounds(self, monkeypatch, n, src,
                                                 dst):
        counting = _CountingNumpy()
        monkeypatch.setattr(graphs, "np", counting)
        ids = weak_component_ids(n, src, dst)
        monkeypatch.undo()
        assert ids.tolist() == [0] * n
        assert 1 <= counting.calls // 2 <= np.log2(n)

    def test_forest_against_networkx(self):
        """Shuffled paths and stars of stars side by side."""
        parts = [(n, src, dst) for n, src, dst in (
            (300, *shuffled_path(300, 5)), star_of_stars(7, 9, 6),
            (1, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)),
            star_of_stars(20, 2, 7), (50, *shuffled_path(50, 8)))]
        offsets = np.cumsum([0] + [n for n, _, _ in parts])
        n = int(offsets[-1])
        label = np.random.default_rng(9).permutation(n)
        src = label[np.concatenate([s + o for (_, s, _), o in
                                    zip(parts, offsets)])]
        dst = label[np.concatenate([d + o for (_, _, d), o in
                                    zip(parts, offsets)])]
        h = nx.DiGraph()
        h.add_nodes_from(range(n))
        h.add_edges_from(zip(src.tolist(), dst.tolist()))
        want = sorted(sorted(c) for c in nx.weakly_connected_components(h))
        assert len(want) == len(parts)
        assert members(weak_component_ids(n, src, dst)) == want


def two_cycle_chain(count, increasing):
    """`count` 2-cycles {2j, 2j + 1}, each with an arc into the next one
    along the chain; the chain runs up the indices or down them."""
    j = np.arange(count - 1)
    if increasing:
        tails, heads = 2 * j + 1, 2 * j + 2
    else:
        tails, heads = 2 * j + 2, 2 * j + 1
    pairs = 2 * np.arange(count)
    return (2 * count, np.concatenate([pairs, pairs + 1, tails]),
            np.concatenate([pairs + 1, pairs, heads]))


def self_loops_and_arcs():
    """Self-loops on nodes in and out of a 3-cycle, and a loop alone."""
    src = np.array([0, 0, 1, 2, 3, 3, 5])
    dst = np.array([0, 1, 2, 0, 3, 4, 5])
    return 6, src, dst


NONE = np.zeros(0, dtype=np.intp)


@pytest.mark.parametrize("n, src, dst", [
    (100_000, *shuffled_path(100_000, 11)),
    two_cycle_chain(10_000, increasing=False),
    two_cycle_chain(10_000, increasing=True),
    self_loops_and_arcs(),
    (0, NONE, NONE),
    (1, NONE, NONE),
    (1, np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)),
], ids=["path-1e5", "2-cycles-down", "2-cycles-up", "self-loops", "n0",
        "n1", "n1-loop"])
class TestDeepAgainstNetworkx:
    """Strong components and reachability on shapes whose searches run
    10^5 deep, where a recursive search would overflow the stack."""

    def test_component_ids(self, n, src, dst):
        h = nx.DiGraph()
        h.add_nodes_from(range(n))
        h.add_edges_from(zip(src.tolist(), dst.tolist()))
        want = sorted(sorted(c) for c in nx.strongly_connected_components(h))
        assert members(component_ids(n, src, dst)) == want

    def test_reach_mask(self, n, src, dst):
        h = nx.DiGraph()
        h.add_nodes_from(range(n))
        h.add_edges_from(zip(src.tolist(), dst.tolist()))
        roots = np.setdiff1d(np.arange(n), dst).tolist()  # no arc enters
        for sources in ([0], [n // 2], [0, n - 1], roots):
            sources = [s for s in sources if 0 <= s < n]
            want = set(sources).union(*(nx.descendants(h, s)
                                        for s in sources))
            assert np.flatnonzero(reach_mask(n, src, dst, sources)
                                  ).tolist() == sorted(want)


class TestReachPairs:
    @pytest.mark.parametrize("chunk", [1, 5, 2048])
    def test_against_networkx(self, monkeypatch, chunk):
        monkeypatch.setattr(graphs, "_PAIR_CHUNK", chunk)
        rng = random.Random(13)
        for n, pairs in seeded_small_digraphs(200, 13):
            g = digraph(n, pairs)
            h = nx_digraph(g)
            starts = [rng.randrange(n) for _ in range(rng.randint(0, 12))]
            ends = [rng.randrange(n) for _ in starts]
            want = [nx.has_path(h, s, t) for s, t in zip(starts, ends)]
            assert reach_pairs(n, g.src, g.dst, starts,
                               ends).tolist() == want

    def test_deep_chain(self):
        n, src, dst = two_cycle_chain(10_000, increasing=True)
        starts = [0, 1, 5000, n - 1, n - 2]
        ends = [n - 1, 0, 4000, n - 2, 0]
        assert reach_pairs(n, src, dst, starts, ends).tolist() == [
            True, True, False, True, False]


class TestCyclePartition:
    """Control centrality is the weight of a maximum-weight cycle
    partition of the graph augmented by the inputs."""

    def test_chain_from_input(self):
        # u -> x1 -> x2 -> x3: weight equals the layer index of x1
        g = digraph(3, [(0, 1), (1, 2)])
        assert control_centrality(g, [0]) == 3

    def test_isolated_node_single_input(self):
        g = digraph(1, [])
        assert control_centrality(g, [0]) == 1

    def test_stem_plus_cycle(self):
        # x1 -> x2, x2 <-> x3, x4 unreachable: dimension 3 from x1
        g = digraph(4, [(0, 1), (1, 2), (2, 1), (3, 0)])
        sub = digraph(3, [(0, 1), (1, 2), (2, 1)])
        assert control_centrality(g, [0]) == 3
        assert control_centrality(sub, [0]) == 3

    def test_all_inputs_equals_n(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 7)
            pairs = sorted(
                {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}
            )
            g = digraph(n, pairs)
            assert control_centrality(g, range(n)) == n

    def test_dag_single_input_layer_index(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 8)
            pairs = sorted(
                {
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.4
                }
            )
            reach = {0}
            frontier = [0]
            adj = [[] for _ in range(n)]
            for s, d in pairs:
                adj[s].append(d)
            while frontier:
                v = frontier.pop()
                for w_ in adj[v]:
                    if w_ not in reach:
                        reach.add(w_)
                        frontier.append(w_)
            keep = sorted(reach)
            remap = {o: i for i, o in enumerate(keep)}
            sub_pairs = [
                (remap[s], remap[d]) for s, d in pairs
                if s in reach and d in reach
            ]
            sub = digraph(len(keep), sub_pairs)
            want = longest_path_layers(len(keep), sub_pairs, remap[0])
            assert control_centrality(sub, [remap[0]]) == want
            assert control_centrality(digraph(n, pairs), [0]) == want


class TestDirectedCore:
    def test_tree_empty(self):
        g = digraph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
        core, frac = directed_core(g)
        assert core == set() and frac == 0.0

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        for _ in range(10):
            n = 8
            pairs = sorted(
                {(rng.randrange(n), rng.randrange(n)) for _ in range(20)}
            )
            core1, _ = directed_core(digraph(n, pairs))
            perm = list(range(n))
            rng.shuffle(perm)
            pairs2 = sorted((perm[s], perm[d]) for s, d in pairs)
            core2, _ = directed_core(digraph(n, pairs2))
            assert {perm[v] for v in core1} == core2

    def test_cycle_dissolves(self):
        # bipartite copies of a bare cycle are all leaves
        g = digraph(3, [(0, 1), (1, 2), (2, 0)])
        core, _ = directed_core(g)
        assert core == set()

    def test_complete_digraph_is_core(self):
        pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
        core, frac = directed_core(digraph(3, pairs))
        assert core == {0, 1, 2}
        assert frac == 1.0

    def test_matches_whole_graph_rounds(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            s, d = np.nonzero(rng.random((n, n)) < rng.uniform(0.5, 4) / n)
            core, frac = directed_core(DiGraph.from_arrays(n, s, d))
            assert sorted(core) == core_by_rounds(n, np.stack([s, d], 1))
            assert frac == len(core) / n

    def test_zigzag_matches_whole_graph_rounds(self):
        # arcs i -> i and i -> i + 1: the leaves peel one step per round
        n = 2000
        i = np.arange(n)
        s = np.concatenate([i, i[:-1]])
        d = np.concatenate([i, i[1:]])
        core, _ = directed_core(DiGraph.from_arrays(n, s, d))
        assert sorted(core) == core_by_rounds(n, np.stack([s, d], 1))


class TestUnGraphNeighbours:
    def test_sorted_rows_of_both_endpoints(self):
        g = UnGraph(5, [(3, 1), (0, 3), (4, 1), (1, 0)])
        indptr, nbrs = g.neighbours()
        rows = [nbrs[indptr[u]:indptr[u + 1]].tolist() for u in range(5)]
        assert rows == [[1, 3], [0, 3, 4], [], [0, 1], [1]]

    def test_empty(self):
        indptr, nbrs = UnGraph(3).neighbours()
        assert indptr.tolist() == [0, 0, 0, 0] and nbrs.size == 0
