"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single ``criterion NN: PASS/FAIL`` line (bypassing
capture so the verdicts are visible in any run) and then asserts.  One
check encodes a target the implementation does not meet and is expected
to fail: criterion 03 asks for a static-model scale-free driver density
of at least 0.95 at gamma = 2.05, <k> = 4, but the model's value there is
0.92094, which an independent adaptive quadrature of the same cavity
equations confirms to 1e-12.  The paper only states n_D -> 1 as
gamma -> 2; see the repository notes for the analysis.
"""

import itertools
import math
import random

import numpy as np
import pytest

from netctl.cavity import solve_cavity_er, solve_cavity_sf
from netctl.collective import (
    PinningConfig,
    laplacian_matrix,
    pinning_eigenratio,
    vicsek_leader_run,
    vicsek_order_parameter,
)
from netctl.energy import energy_bounds, gramian, min_energy_input
from netctl.exact import (
    DenseSystem,
    chain_matrix,
    complete_matrix,
    pbh_min_drivers,
    ring_matrix,
    self_loop_sweep,
    star_matrix,
)
from netctl.generators import ba_graph, er_digraph
from netctl.graphs import DiGraph, UnGraph, directed_core, transpose
from netctl.observability import (
    DEMO_REACTIONS,
    inference_diagram,
    is_valid_sensor_set,
    mds_solve,
    min_sensors,
    observability_transition,
    parse_reactions,
    sensors_via_duality,
)
from netctl.steering import (
    HenonParams,
    fvs_clamp,
    fvs_find,
    gene_toggle_attractors,
    henon_fixed_point,
    make_system,
    ogy_stabilize_henon,
)
from netctl.structural import (
    classify_links,
    driver_count,
    min_actuators,
    min_driver_set,
)
from oracles import (
    brute_force_fvs,
    brute_force_mds,
    generic_min_drivers,
)
from test_structural import oracle_alpha, oracle_link_tags, random_digraph


def report(capsys, num, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {num:02d}: {verdict} — {detail}", flush=True)
    assert ok, detail


# ---------------------------------------------------------------------------
# helpers


def _nonisomorphic_digraphs(n):
    """Edge lists of one representative per isomorphism class of simple
    loop-free digraphs on n nodes (canonical form = minimum edge bitmask
    over all node relabellings, evaluated vectorially)."""
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    n_bits = len(slots)
    pos = {p: k for k, p in enumerate(slots)}
    masks = np.arange(1 << n_bits, dtype=np.int64)
    canon = masks.copy()
    for perm in itertools.permutations(range(n)):
        out = np.zeros_like(masks)
        for k, (i, j) in enumerate(slots):
            out |= ((masks >> np.int64(k)) & 1) << np.int64(pos[perm[i], perm[j]])
        np.minimum(canon, out, out=canon)
    reps = masks[canon == masks]
    return [
        [slots[k] for k in range(n_bits) if (int(m) >> k) & 1] for m in reps
    ]


def _big_er_ungraph(n, k_mean, rng):
    m = int(k_mean * n / 2)
    ij = rng.integers(0, n, (int(m * 1.1) + 100, 2))
    ij = ij[ij[:, 0] != ij[:, 1]]
    ij.sort(axis=1)
    ij = np.unique(ij, axis=0)[:m]
    return UnGraph(n, [tuple(e) for e in ij.tolist()])


def _stable_chain(n, loop=-1.0):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i + 1, i] = 1.0
    np.fill_diagonal(a, loop)
    b = np.zeros((n, 1))
    b[0, 0] = 1.0
    return DenseSystem(a, b)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_matching_vs_brute_force(capsys):
    rng = np.random.default_rng(11)
    counts, checked = [], 0
    mismatches = []
    for n in range(1, 6):
        reps = _nonisomorphic_digraphs(n)
        counts.append(len(reps))
        for pairs in reps:
            nd = min_driver_set(DiGraph.from_pairs(n, pairs)).n_drivers
            brute = generic_min_drivers(pairs, n, rng)
            checked += 1
            if nd != brute:
                mismatches.append((n, pairs, nd, brute))
    # one representative per isomorphism class (known class counts)
    assert counts == [1, 3, 16, 218, 9608]
    r = random.Random(13)
    for _ in range(200):
        n = r.randint(2, 8)
        g = random_digraph(r, n)
        pairs = [(s, d) for s, d, _ in g.edges]
        nd = min_driver_set(g).n_drivers
        brute = generic_min_drivers(pairs, n, rng)
        checked += 1
        if nd != brute:
            mismatches.append((n, pairs, nd, brute))
    report(
        capsys, 1, not mismatches,
        f"{checked} digraphs, {len(mismatches)} mismatches",
    )


def test_criterion_02_cavity_vs_simulation(capsys):
    n = 100_000
    worst = 0.0
    nd_cavity = {}
    for k in (2.0, 4.0, 6.0, 8.0):
        nd_cavity[k] = solve_cavity_er(k)[0]
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            nd_sim = driver_count(er_digraph(n, k, rng)) / n
            worst = max(worst, abs(nd_cavity[k] - nd_sim))
    # n_D ≈ e^{-<k>/2} is a large-<k> limit, not a bound at <k> = 8: the
    # relative gap n_D e^{<k>/2} - 1 decays like (<k>^2/8) e^{-<k>/2}, which
    # alone is 14.7 % at <k> = 8.  Check that the cavity n_D closes the gap.
    ks = (8.0, 12.0, 16.0, 20.0, 24.0)
    gaps = [solve_cavity_er(k)[0] * math.exp(k / 2.0) - 1.0 for k in ks]
    closing = all(g > 0 for g in gaps) and all(
        b < a for a, b in zip(gaps, gaps[1:]))
    small = gaps[ks.index(20.0)] < 0.01
    ok = worst < 0.02 and closing and small
    report(
        capsys, 2, ok,
        f"max |cavity − matching| = {worst:.4f} (< 0.02: {worst < 0.02}); "
        f"n_D(k=8) = {nd_cavity[8.0]:.5f} vs e^-4 = {math.exp(-4.0):.5f}, "
        f"off by {gaps[0]:.1%} (information); n_D e^(k/2) - 1 at k = "
        + ", ".join(f"{k:g}: {g:.3%}" for k, g in zip(ks, gaps))
        + f" (positive and decreasing: {closing}; < 1% at k = 20: {small})",
    )


def test_criterion_03_scale_free_critical_density(capsys):
    nd = solve_cavity_sf(4.0, 2.05)[0]
    report(capsys, 3, nd >= 0.95, f"cavity n_D(gamma=2.05, k=4) = {nd:.5f}")


def test_criterion_04_core_percolation_onset(capsys):
    n = 10_000
    ks = np.round(np.arange(4.0, 7.0 + 1e-9, 0.2), 1)
    onset = None
    for k in ks:
        fracs = []
        for seed in range(10):
            rng = np.random.default_rng(int(k * 100) * 37 + seed)
            fracs.append(directed_core(er_digraph(n, float(k), rng))[1])
        if np.mean(fracs) > 0.01:
            onset = float(k)
            break
    ok = onset is not None and 5.2 <= onset <= 5.7
    report(capsys, 4, ok, f"core onset at <k> = {onset} (target [5.2, 5.7])")


def test_criterion_05_link_class_fractions(capsys):
    r = random.Random(17)
    ok_sum = ok_tags = True
    for i in range(100):
        n = r.randint(2, 8) if i < 50 else r.randint(2, 6)
        g = random_digraph(r, n)
        while not g.edges:
            g = random_digraph(r, n)
        cls = classify_links(g)
        if abs(sum(cls.fractions.values()) - 1.0) > 1e-12:
            ok_sum = False
        if n <= 6 and cls.tags != oracle_link_tags(g):
            ok_tags = False
    report(
        capsys, 5, ok_sum and ok_tags,
        f"fractions sum to 1: {ok_sum}; tags match enumeration: {ok_tags}",
    )


def test_criterion_06_pbh_reference_topologies(capsys):
    def closed_form(kind, n):
        if kind == "chain":
            return np.sort(2 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
        if kind == "ring":
            return np.sort(2 * np.cos(2 * np.pi * np.arange(n) / n))
        if kind == "star":
            return np.sort(np.r_[np.zeros(n - 2), [-1.0, 1.0]] * np.sqrt(n - 1.0))
        return np.sort(np.r_[np.full(n - 1, -1.0), [n - 1.0]])

    builders = {
        "chain": (chain_matrix, lambda n: 1),
        "ring": (ring_matrix, lambda n: 2),
        "star": (star_matrix, lambda n: n - 2),
        "complete": (complete_matrix, lambda n: n - 1),
    }
    ok = True
    for n in (5, 10, 20):
        for kind, (build, expect) in builders.items():
            a = build(n)
            if pbh_min_drivers(a)[0] != expect(n):
                ok = False
            if np.abs(np.sort(np.linalg.eigvalsh(a)) - closed_form(kind, n)).max() > 1e-8:
                ok = False
    report(capsys, 6, ok, "chain/ring/star/complete N_D and spectra at N in {5,10,20}")


def test_criterion_07_self_loop_symmetry(capsys):
    n, n_seeds = 200, 20
    rhos = np.round(np.arange(0.1, 0.91, 0.1), 1)
    samples = np.empty((n_seeds, len(rhos)))
    for s in range(n_seeds):
        rng = np.random.default_rng(300 + s)
        a = er_digraph(n, 4.0, rng).adjacency_matrix()
        a[a != 0] = rng.uniform(0.5, 1.5, int((a != 0).sum()))
        for j, rho in enumerate(rhos):
            samples[s, j] = self_loop_sweep(
                a, (0.8, -1.2), (float(rho), float(1 - rho)), [s],
            )[0]
    means = samples.mean(axis=0)
    symmetric = True
    for j, rho in enumerate(rhos):
        jm = len(rhos) - 1 - j  # index of 1 - rho
        diff = samples[:, j] - samples[:, jm]
        se = max(diff.std(ddof=1) / np.sqrt(n_seeds), 1e-12)
        if abs(diff.mean()) >= 2 * se:
            symmetric = False
    at_half = rhos[int(np.argmin(means))] == 0.5
    report(
        capsys, 7, symmetric and at_half,
        f"symmetric within 2 stderr: {symmetric}; "
        f"grid minimum at rho = {rhos[int(np.argmin(means))]}",
    )


def test_criterion_08_minimum_actuators(capsys):
    fig = DiGraph.from_pairs(5, [(0, 1), (0, 3), (3, 2), (4, 4)])
    r = min_actuators(fig)
    ok_fig = r.n_actuators == 3 and set(r.actuators) in ({0, 1, 4}, {0, 3, 4})
    rnd = random.Random(19)
    ok_rnd = True
    for _ in range(100):
        g = random_digraph(rnd, rnd.randint(2, 10), 0.25)
        alpha, beta = oracle_alpha(g)
        res = min_actuators(g)
        nd = min_driver_set(g).n_drivers
        if res.alpha != alpha or res.n_actuators != nd + beta - alpha:
            ok_rnd = False
    report(
        capsys, 8, ok_fig and ok_rnd,
        f"reference graph N_da = {r.n_actuators}, set {sorted(r.actuators)}; "
        f"100 random digraphs match brute force: {ok_rnd}",
    )


def test_criterion_09_energy_scaling_and_bounds(capsys):
    sys = _stable_chain(5)
    ts = np.geomspace(1e-3, 1e-1, 7)
    es = [energy_bounds(sys, t)[0] for t in ts]
    slope = np.polyfit(np.log(ts), np.log(es), 1)[0]
    ok_slope = abs(slope + 1.0) < 0.1

    gr = gramian(sys, 2.0)
    e_min, e_max = energy_bounds(sys, 2.0)
    rng = np.random.default_rng(23)
    ok_bounds = True
    for _ in range(1000):
        x0 = rng.normal(size=5)
        x0 /= np.linalg.norm(x0)
        e = float(x0 @ np.linalg.solve(gr.h, x0))
        if not (e_min * (1 - 1e-10) <= e <= e_max * (1 + 1e-10)):
            ok_bounds = False

    ok_reach = True
    for _ in range(5):
        x_i = rng.normal(size=5)
        x_f = rng.normal(size=5)
        tr = min_energy_input(sys, x_i, x_f, 2.0)
        rel = np.linalg.norm(tr.x[-1] - x_f) / np.linalg.norm(x_f)
        if rel > 1e-6:
            ok_reach = False
    report(
        capsys, 9, ok_slope and ok_bounds and ok_reach,
        f"small-T slope = {slope:.3f}; Rayleigh-Ritz sandwich on 1000 "
        f"targets: {ok_bounds}; terminal accuracy 1e-6: {ok_reach}",
    )


def test_criterion_10_reaction_system_sensors(capsys):
    g = inference_diagram(parse_reactions(DEMO_REACTIONS))
    rep = min_sensors(g)
    sizes = sorted(len(c) for c in rep.root_sccs)
    idx = {name: i for i, name in enumerate(g.labels)}
    valid = is_valid_sensor_set(g, [idx["x5"], idx["x6"], idx["x7"]])
    ok = sizes == [1, 2, 3] and rep.n_sensors == 3 and rep.multiplicity == 6 and valid
    report(
        capsys, 10, ok,
        f"root-SCC sizes {sizes}, {rep.n_sensors} sensors, "
        f"multiplicity {rep.multiplicity}, {{x5,x6,x7}} valid: {valid}",
    )


def test_criterion_11_sensor_driver_duality(capsys):
    r = random.Random(29)
    rng = np.random.default_rng(29)
    ok = True
    for _ in range(100):
        g = random_digraph(r, r.randint(2, 7))
        ns = sensors_via_duality(g).n_drivers
        tpairs = [(s, d) for s, d, _ in transpose(g).edges]
        if ns != generic_min_drivers(tpairs, g.n_nodes, rng):
            ok = False
    report(capsys, 11, ok, "sensor count equals brute-force N_D of the transpose")


def test_criterion_12_mds_and_transition_threshold(capsys):
    r = random.Random(31)
    ok_mds, collected = True, 0
    while collected < 50:
        n = r.randint(4, 16)
        pairs = sorted(
            {(i, j) for i in range(n) for j in range(i + 1, n)
             if r.random() < 1.8 / n}
        )
        nodes, exact = mds_solve(UnGraph(n, pairs))
        if not exact:
            continue  # residual core left; not a leaf-removal-solvable case
        collected += 1
        if len(nodes) != brute_force_mds(n, pairs):
            ok_mds = False

    rng = np.random.default_rng(37)
    grid = np.round(np.arange(0.01, 0.071, 0.01), 2)

    def threshold(k):
        g = _big_er_ungraph(100_000, k, rng)
        for phi in grid:
            if observability_transition(g, float(phi), 10, rng) > 0.05:
                return float(phi)
        return 1.0

    th8, th4 = threshold(8.0), threshold(4.0)
    ok = ok_mds and th8 < th4
    report(
        capsys, 12, ok,
        f"leaf removal == brute force on 50 core-free graphs: {ok_mds}; "
        f"thresholds phi_c(k=8) = {th8} < phi_c(k=4) = {th4}: {th8 < th4}",
    )


def test_criterion_13_ogy_capture(capsys):
    hp = HenonParams()
    x_star = henon_fixed_point(hp.p, hp.b)
    quad = (-(1.0 - hp.b) + math.sqrt((1.0 - hp.b) ** 2 + 4 * hp.p)) / 2
    captured = 0
    for seed in range(10):
        try:
            trace = ogy_stabilize_henon(hp, n_steps=2000, seed=seed)
        except Exception:
            continue
        if (
            np.abs(trace.x[-100:, 0] - x_star).max() < 1e-3
            and np.abs(trace.u).max() <= 0.01 * hp.p + 1e-15
        ):
            captured += 1
    ok = captured >= 8 and abs(quad - 0.8839) < 5e-4 and abs(x_star - quad) < 1e-12
    report(
        capsys, 13, ok,
        f"{captured}/10 seeds captured and held; x* = {x_star:.4f}",
    )


def test_criterion_14_fvs_clamping(capsys):
    sys = make_system("bistable-gene")
    s1, s3 = gene_toggle_attractors()
    times = np.linspace(0.0, 25.0, 501)
    samples = np.tile(s3, (len(times), 1))
    g2 = DiGraph.from_pairs(2, [(0, 1), (1, 0)])
    fvs = fvs_find(g2, "exact").nodes
    trace = fvs_clamp(sys, fvs, times, samples)
    ok_switch = len(fvs) == 1 and trace.terminal_distance < 1e-3

    r = random.Random(41)
    ok_fvs = True
    for _ in range(40):
        n = r.randint(2, 12)
        g = random_digraph(r, n)
        res = fvs_find(g, "heuristic")
        exact_size = brute_force_fvs(n, [(s, d) for s, d, _ in g.edges])[0]
        if len(res.nodes) > exact_size + 2:
            ok_fvs = False
        # acyclicity certificate: the returned order must cover the
        # remainder and respect every surviving edge
        posn = {v: i for i, v in enumerate(res.order)}
        if set(res.order) != set(range(n)) - set(res.nodes):
            ok_fvs = False
        for s, d, _ in g.edges:
            if s in posn and d in posn and posn[s] >= posn[d]:
                ok_fvs = False
    report(
        capsys, 14, ok_switch and ok_fvs,
        f"toggle switch terminal distance = {trace.terminal_distance:.2e}; "
        f"heuristic certified and within +2 of exact: {ok_fvs}",
    )


def test_criterion_15_pinning_eigenratio(capsys):
    sigma, kappa_ref = 0.3, 10.0

    def ratio(lap, pinned, kappa):
        cfg = PinningConfig(
            sigma=sigma, kappa=sigma * kappa, pinned=list(pinned),
            coupling=sigma * lap,
        )
        return pinning_eigenratio(cfg)[2]

    rng = np.random.default_rng(43)
    g = ba_graph(1000, 2, rng)
    lap = laplacian_matrix(g)
    pinned = rng.choice(1000, 100, replace=False)
    kappas = np.geomspace(0.1, 100.0, 20)
    rs = [ratio(lap, pinned, k) for k in kappas]
    imin = int(np.argmin(rs))
    ok_interior = 0 < imin < len(kappas) - 1

    ps = np.round(np.arange(0.05, 0.51, 0.05), 2)
    table = np.empty((10, len(ps)))
    r_deg, r_rand = [], []
    for s in range(10):
        rng = np.random.default_rng(47 + s)
        g = ba_graph(1000, 2, rng)
        lap = laplacian_matrix(g)
        deg = np.diag(lap)
        for j, p in enumerate(ps):
            chosen = rng.choice(1000, int(p * 1000), replace=False)
            table[s, j] = ratio(lap, chosen, kappa_ref)
        top = np.argsort(deg)[::-1][:100]
        rand = rng.choice(1000, 100, replace=False)
        r_deg.append(ratio(lap, top, kappa_ref))
        r_rand.append(ratio(lap, rand, kappa_ref))
    means, ses = table.mean(axis=0), table.std(axis=0, ddof=1) / np.sqrt(10)
    ok_mono = all(
        means[j + 1] <= means[j] + 2 * np.hypot(ses[j], ses[j + 1])
        for j in range(len(ps) - 1)
    )
    ok_degree = np.mean(r_deg) <= np.mean(r_rand)
    ok = ok_interior and ok_mono and ok_degree
    report(
        capsys, 15, ok,
        f"kappa minimum at grid point {imin} (interior: {ok_interior}); "
        f"R nonincreasing in pinned fraction: {ok_mono}; degree-ordered "
        f"mean R = {np.mean(r_deg):.2f} vs random {np.mean(r_rand):.2f}",
    )


def test_criterion_16_vicsek_regimes(capsys):
    n, v0, r = 300, 0.03, 1.0
    phi_ord = np.mean(
        [vicsek_order_parameter(n, 5.0, v0, r, 0.1, 400, seed=s).mean
         for s in range(3)]
    )
    phi_dis = np.mean(
        [vicsek_order_parameter(n, 25.0, v0, r, 5.0, 400, seed=s).mean
         for s in range(3)]
    )
    ok_gap = phi_ord - phi_dis > 0.4

    etas = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
    runs = np.array(
        [[vicsek_order_parameter(n, 5.0, v0, r, eta, 400, seed=s).mean
          for s in range(8)] for eta in etas]
    )
    means, ses = runs.mean(axis=1), runs.std(axis=1, ddof=1) / np.sqrt(8)
    ok_mono = all(
        means[j + 1] <= means[j] + 2 * np.hypot(ses[j], ses[j + 1])
        for j in range(len(etas) - 1)
    )

    dev = vicsek_leader_run(30, 1.0, v0, 0.5, theta0=0.7, steps=500, seed=3)
    ok_leader = dev[500] < 1e-2
    ok = ok_gap and ok_mono and ok_leader
    report(
        capsys, 16, ok,
        f"phi(ordered) − phi(disordered) = {phi_ord - phi_dis:.3f}; "
        f"phi(eta) monotone within 2 stderr: {ok_mono}; leader deviation "
        f"at step 500 = {dev[500]:.2e}",
    )
