import numpy as np
import pytest

from netctl.generators import ba_graph, er_digraph


class TestErDigraph:
    def test_mean_degree(self):
        g = er_digraph(20000, 6.0, np.random.default_rng(0))
        k = 2 * g.n_edges / g.n_nodes
        assert abs(k - 6.0) < 0.15

    def test_no_self_loops_or_duplicates(self):
        g = er_digraph(500, 4.0, np.random.default_rng(1))
        pairs = [(s, d) for s, d, _ in g.edges]
        assert all(s != d for s, d in pairs)
        assert len(set(pairs)) == len(pairs)

    def test_deterministic_under_seed(self):
        a = er_digraph(300, 3.0, np.random.default_rng(7))
        b = er_digraph(300, 3.0, np.random.default_rng(7))
        assert a.edges == b.edges


class TestBaGraph:
    def test_edge_count(self):
        g = ba_graph(1000, 2, np.random.default_rng(4))
        # m seed-star edges, then m per new node
        assert g.n_edges == 2 + 2 * (1000 - 3)

    def test_hub_emerges(self):
        g = ba_graph(2000, 2, np.random.default_rng(5))
        degs = np.diff(g.neighbours()[0])
        assert max(degs) > 40
        assert min(degs) >= 2

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ba_graph(2, 2, np.random.default_rng(0))
