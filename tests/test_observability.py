import math
import random

import networkx as nx
import numpy as np
import pytest

from netctl.errors import (
    DimensionMismatch,
    InvalidArgument,
    NoPathToTarget,
    ParseError,
)
from netctl.exact import DenseSystem
from netctl.generators import ba_graph, er_digraph
from netctl.graphs import DiGraph, UnGraph, transpose
from netctl.observability import (
    DEMO_REACTIONS,
    ReactionSystem,
    inference_diagram,
    is_valid_sensor_set,
    luenberger_observe,
    mds_solve,
    min_sensors,
    observability_transition,
    parse_reactions,
    sensors_via_duality,
    target_sensor,
)
from netctl.structural import min_driver_set
from oracles import brute_force_mds, is_dominating_set, mds_scan_reference


def random_ungraph(rng, n, p=0.25):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return UnGraph(n, pairs)


class TestParseReactions:
    def test_simple_conversion(self):
        rs = parse_reactions("2.0: A -> B")
        assert rs.species == ["A", "B"]
        assert rs.alpha.tolist() == [[1.0, 0.0]]
        assert rs.beta.tolist() == [[0.0, 1.0]]
        assert rs.gamma.tolist() == [[-1.0], [1.0]]

    def test_reversible_expands(self):
        rs = parse_reactions("1.5,0.5: A <-> B")
        assert len(rs.rates) == 2
        assert rs.rates == [1.5, 0.5]

    def test_coefficients_and_comments(self):
        rs = parse_reactions("# header\n3: 2 A + B -> C  # inline\n")
        assert rs.alpha.tolist() == [[2.0, 1.0, 0.0]]

    def test_malformed_line_number(self):
        with pytest.raises(ParseError) as e:
            parse_reactions("1: A -> B\nno arrow here")
        assert e.value.line_no == 2

    def test_bad_rate(self):
        with pytest.raises(ParseError):
            parse_reactions("fast: A -> B")


class TestInferenceDiagram:
    def test_single_conversion(self):
        g = inference_diagram(parse_reactions("1: A -> B"))
        pairs = {(s, d) for s, d, _ in g.edges}
        # both balance equations depend on A only
        assert pairs == {(0, 0), (1, 0)}
        rep = min_sensors(g)
        assert rep.root_sccs == [[1]]  # B is the only root SCC

    def test_reversible_single_scc(self):
        g = inference_diagram(parse_reactions("1,1: A <-> B"))
        rep = min_sensors(g)
        assert rep.n_sensors == 1 and len(rep.root_sccs[0]) == 2

    def test_demo_network_root_sccs(self):
        g = inference_diagram(parse_reactions(DEMO_REACTIONS))
        rep = min_sensors(g)
        assert sorted(len(c) for c in rep.root_sccs) == [1, 2, 3]
        assert rep.n_sensors == 3
        assert rep.multiplicity == 6


class TestMinSensors:
    def test_cycle_single_sensor(self):
        g = DiGraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        rep = min_sensors(g)
        assert rep.n_sensors == 1 and rep.multiplicity == 3

    def test_edgeless_all_sensors(self):
        g = DiGraph.from_pairs(4, [])
        rep = min_sensors(g)
        assert rep.n_sensors == 4 and rep.multiplicity == 1

    def test_multiplicity_recount(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 9)
            pairs = sorted({(rng.randrange(n), rng.randrange(n))
                            for _ in range(2 * n)})
            g = DiGraph.from_pairs(n, pairs)
            rep = min_sensors(g)
            prod = 1
            for c in rep.root_sccs:
                prod *= len(c)
            assert rep.multiplicity == prod
            assert is_valid_sensor_set(g, rep.sensors)

    @pytest.mark.parametrize("n, k, seed", [(300, 1.0, 1), (2000, 2.0, 2),
                                            (5000, 3.0, 3)])
    def test_roots_match_networkx(self, n, k, seed):
        # an ER digraph with half of its arcs doubled back has many root
        # SCCs of more than one node
        rng = np.random.default_rng(seed)
        er = er_digraph(n, k, rng)
        back = rng.random(er.n_edges) < 0.5
        pairs = sorted(set(zip(er.src.tolist(), er.dst.tolist()))
                       | set(zip(er.dst[back].tolist(),
                                 er.src[back].tolist())))
        g = DiGraph.from_pairs(n, pairs)
        h = nx.DiGraph(pairs)
        h.add_nodes_from(range(n))
        cond = nx.condensation(h)
        roots = sorted(sorted(cond.nodes[c]["members"]) for c in cond
                       if cond.in_degree(c) == 0)
        rep = min_sensors(g)
        assert rep.root_sccs == roots
        assert rep.sensors == [r[0] for r in roots]
        assert rep.multiplicity == math.prod(len(r) for r in roots)
        assert any(len(r) > 1 for r in roots)

    def test_multiplicity_exact_past_int64(self):
        pairs = [p for i in range(0, 140, 2) for p in ((i, i + 1), (i + 1, i))]
        rep = min_sensors(DiGraph.from_pairs(140, pairs))
        assert rep.n_sensors == 70 and rep.multiplicity == 2 ** 70

    def test_demo_named_sensor_set(self):
        g = inference_diagram(parse_reactions(DEMO_REACTIONS))
        idx = {lab: i for i, lab in enumerate(g.labels)}
        assert is_valid_sensor_set(g, [idx["x5"], idx["x6"], idx["x7"]])
        assert not is_valid_sensor_set(g, [idx["x5"], idx["x6"]])


class TestDuality:
    def test_path_sensor_is_sink(self):
        g = DiGraph.from_pairs(3, [(0, 1), (1, 2)])
        rep = sensors_via_duality(g)
        assert rep.n_drivers == 1 and rep.drivers == [2]

    def test_reversal_pairs(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 9)
            pairs = sorted({(rng.randrange(n), rng.randrange(n))
                            for _ in range(2 * n)})
            g = DiGraph.from_pairs(n, pairs)
            assert (sensors_via_duality(g).n_drivers
                    == min_driver_set(transpose(g)).n_drivers)

    def test_symmetric_digraph_self_dual(self):
        pairs = [(0, 1), (1, 0), (1, 2), (2, 1)]
        g = DiGraph.from_pairs(3, pairs)
        assert sensors_via_duality(g).n_drivers == min_driver_set(g).n_drivers


class TestTargetSensor:
    def test_demo_target_x4(self):
        g = inference_diagram(parse_reactions(DEMO_REACTIONS))
        idx = {lab: i for i, lab in enumerate(g.labels)}
        sensor, cost = target_sensor(g, [idx["x4"]])
        assert g.labels[sensor] == "x5"
        assert cost == 2

    def test_target_in_cycle_any_other_member(self):
        g = DiGraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        sensor, cost = target_sensor(g, [1])
        assert sensor == 0 and cost == 3

    def test_unreachable_target(self):
        g = DiGraph.from_pairs(2, [(0, 1)])
        with pytest.raises(NoPathToTarget):
            target_sensor(g, [0])

    def test_target_outside_graph(self):
        g = DiGraph.from_pairs(3, [(0, 1), (1, 2)])
        for targets in ([3], [-1], [2, 3]):
            with pytest.raises(NoPathToTarget):
                target_sensor(g, targets)

    def test_matches_networkx(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(2, 12)
            pairs = sorted({(rng.randrange(n), rng.randrange(n))
                            for _ in range(rng.randint(1, 3 * n))})
            g = DiGraph.from_pairs(n, pairs)
            h = nx.DiGraph(pairs)
            h.add_nodes_from(range(n))
            targets = set(rng.sample(range(n), rng.randint(1, 2)))
            reach = {v: nx.descendants(h, v) | {v} for v in range(n)}
            fits = [(len(reach[v]), v) for v in range(n)
                    if v not in targets and targets <= reach[v]]
            if not fits:
                with pytest.raises(NoPathToTarget):
                    target_sensor(g, targets)
                continue
            cost, sensor = min(fits)
            assert target_sensor(g, targets) == (sensor, cost)

    def test_cost_minimized(self):
        # node 3 reaches the target cheaply; node 0 reaches everything
        g = DiGraph.from_pairs(4, [(0, 1), (0, 2), (3, 1)])
        sensor, cost = target_sensor(g, [1])
        assert sensor == 3 and cost == 2


class TestMds:
    def test_star(self):
        g = UnGraph(5, [(0, i) for i in range(1, 5)])
        ds, exact = mds_solve(g)
        assert ds == [0] and exact

    def test_path3(self):
        g = UnGraph(3, [(0, 1), (1, 2)])
        ds, exact = mds_solve(g)
        assert ds == [1] and exact

    def test_always_dominating(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_ungraph(rng, rng.randint(1, 14))
            ds, _ = mds_solve(g)
            assert is_dominating_set(g, ds)

    def test_dominating_set_check(self):
        g = UnGraph(4, [(0, 1), (1, 2)])  # node 3 is isolated
        assert is_dominating_set(g, [1, 3])
        assert is_dominating_set(g, {0, 2, 3})
        assert not is_dominating_set(g, [1])
        assert not is_dominating_set(g, [0, 3])

    def test_exact_instances_match_brute_force(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(80):
            g = random_ungraph(rng, rng.randint(2, 13), 0.18)
            ds, exact = mds_solve(g)
            opt = brute_force_mds(g.n_nodes, g.edges)
            assert len(ds) >= opt
            if exact:
                assert len(ds) == opt
                checked += 1
        assert checked > 10

    def test_matches_scan_reference(self):
        rng = np.random.default_rng(23)
        residual = 0
        for _ in range(400):
            n = int(rng.integers(1, 40))
            iu, iv = np.triu_indices(n, 1)
            keep = rng.random(len(iu)) < rng.uniform(0.02, 0.4)
            pairs = list(zip(iu[keep].tolist(), iv[keep].tolist()))
            want = mds_scan_reference(n, pairs)
            assert mds_solve(UnGraph(n, pairs)) == want
            residual += not want[1]
        assert residual > 50  # cores left for the greedy completion

    @pytest.mark.parametrize("n", [200, 2000])
    def test_ba_matches_scan_reference(self, n):
        g = ba_graph(n, 3, np.random.default_rng(n))
        assert mds_solve(g) == mds_scan_reference(n, g.edges)

    def test_transition_threshold_decreases_with_degree(self):
        rng = np.random.default_rng(19)
        n = 3000

        def er(k):
            pairs = set()
            m = int(k * n / 2)
            while len(pairs) < m:
                i, j = rng.integers(0, n, 2)
                if i != j:
                    pairs.add((min(i, j), max(i, j)))
            return UnGraph(n, sorted(pairs))

        g4, g8 = er(4.0), er(8.0)
        phi = 0.08
        f4 = observability_transition(g4, phi, 5, rng)
        f8 = observability_transition(g8, phi, 5, rng)
        assert f8 > f4

    def test_transition_trivial_cases(self):
        rng = np.random.default_rng(23)
        n = 40
        complete = UnGraph(n, [(i, j) for i in range(n)
                               for j in range(i + 1, n)])
        assert observability_transition(complete, 1 / n, 3, rng) == 1.0
        empty = UnGraph(n, [])
        assert observability_transition(empty, 0.5, 3, rng) == 1 / n
        # no monitor observes nothing
        assert observability_transition(complete, 0.0, 3, rng) == 0.0

    def test_monotone_in_monitors(self):
        rng = np.random.default_rng(29)
        g = random_ungraph(random.Random(31), 60, 0.05)
        vals = [observability_transition(g, phi, 20, rng)
                for phi in (0.05, 0.2, 0.5, 0.9)]
        assert all(b >= a - 0.05 for a, b in zip(vals, vals[1:]))


class TestLuenberger:
    def _sys(self):
        a = np.array([[0.0, 1.0], [-2.0, -3.0]])
        c = np.array([[1.0, 0.0]])
        return DenseSystem(a, np.zeros((2, 1)), c)

    def test_exact_start_stays_exact(self):
        sys = self._sys()
        l_gain = np.array([[1.0], [1.0]])
        _, err = luenberger_observe(sys, l_gain, [1.0, -1.0], [1.0, -1.0], 5.0)
        assert err.max() < 1e-9

    def test_error_decay_rate(self):
        # place both observer eigenvalues at -1
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        c = np.array([[1.0, 0.0]])
        sys = DenseSystem(a, np.zeros((2, 1)), c)
        l_gain = np.array([[2.0], [1.0]])  # A - LC has double pole at -1
        t, err = luenberger_observe(sys, l_gain, [1.0, 0.0], [0.0, 0.0], 8.0,
                                    n_steps=400)
        half = len(t) // 2
        # defective pole: err ~ t * exp(-t), so strip the polynomial prefactor
        slope = np.polyfit(t[half:], np.log(err[half:]) - np.log(t[half:]),
                           1)[0]
        assert abs(slope + 1.0) < 0.05

    def test_hidden_mode_error_plateau(self):
        # second state unobservable and undriven by the output correction
        a = np.diag([-1.0, 0.0])
        c = np.array([[1.0, 0.0]])
        sys = DenseSystem(a, np.zeros((2, 1)), c)
        l_gain = np.array([[1.0], [0.0]])
        _, err = luenberger_observe(sys, l_gain, [1.0, 1.0], [0.0, 0.0], 10.0)
        assert err[-1] > 1e-3

    def test_dimension_checks(self):
        sys = self._sys()
        with pytest.raises(DimensionMismatch):
            luenberger_observe(sys, np.ones((3, 1)), [0, 0], [0, 0], 1.0)
        with pytest.raises(InvalidArgument):
            luenberger_observe(sys, np.ones((2, 1)), [0, 0, 0], [0, 0], 1.0)
        no_c = DenseSystem(np.eye(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            luenberger_observe(no_c, np.ones((2, 1)), [0, 0], [0, 0], 1.0)
