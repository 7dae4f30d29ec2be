"""Command-line front end: one subcommand per analysis, deterministic
seeding, and JSON/CSV reports."""

import argparse
import functools
import io
import json
import math
import os
import sys
import warnings

from .errors import InputError, InvalidArgument, NetctlError, UnknownNode

SCHEMA = "netctl/1"


class _Parser(argparse.ArgumentParser):
    """An unset --seed is taken from NETCTL_SEED (else 0) when the command
    line is parsed, not when the parser is built, so that one parser
    serves every call in a process."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if getattr(namespace, "seed", 0) is None:
            text = os.environ.get("NETCTL_SEED", "0")
            try:
                namespace.seed = int(text)
            except ValueError:
                self.error(f"NETCTL_SEED: invalid int value: {text!r}")
        return namespace, extras


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") \
            from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text (byte "
                         f"{exc.start})") from None


def _read_graph(path, directed):
    from .graphs import parse_edge_list

    g = parse_edge_list(_read_text(path), directed=directed)
    if g.n_nodes == 0:
        raise InputError(f"{path} holds no edges")
    return g


def _read_matrix(path):
    import numpy as np

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # no numbers: reported below
            m = np.loadtxt(path, ndmin=2)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") \
            from None
    except ValueError as exc:
        raise InputError(f"{path}: not a numeric matrix ({exc})") from None
    if m.size == 0:
        raise InputError(f"{path} holds no numbers")
    return m


def _read_vector(text):
    import numpy as np

    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise InputError(f"not a comma-separated list of numbers: "
                         f"{text!r}") from None


def _labels(g, nodes):
    return [g.labels[v] for v in nodes]


def _indices(g, text):
    """Node indices for comma-separated tokens: a token names a node by
    its label, or else by its index."""
    lookup = {lab: i for i, lab in enumerate(g.labels)}
    out = []
    for token in text.split(","):
        token = token.strip()
        if token in lookup:
            out.append(lookup[token])
            continue
        try:
            v = int(token)
        except ValueError:
            v = -1
        if not 0 <= v < g.n_nodes:
            raise UnknownNode(f"{token!r} is neither a node label nor an "
                              f"index in 0..{g.n_nodes - 1}")
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Handlers (one per subcommand, attached to its subparser in
# `build_parser`; each returns a JSON-ready payload).  Each imports the
# analysis module it calls, so a run loads only what it uses and `--help`
# loads neither numpy nor scipy.


def cmd_drivers(args):
    from . import structural

    g = _read_graph(args.input, directed=True)
    rep = structural.min_driver_set(g)
    return {"n_drivers": rep.n_drivers, "n_d": rep.n_drivers / g.n_nodes,
            "drivers": _labels(g, rep.drivers)}


def cmd_check(args):
    from . import structural

    g = _read_graph(args.input, directed=True)
    ok, witness = structural.structural_controllability_check(
        g, _indices(g, args.drivers))
    return {"controllable": ok, "witness": witness}


def cmd_classify_links(args):
    from . import structural

    g = _read_graph(args.input, directed=True)
    cls = structural.classify_links(g)
    return dict(cls.fractions)


def cmd_classify_nodes(args):
    from . import structural

    g = _read_graph(args.input, directed=True)
    cls = structural.classify_nodes_deletion(g) if args.deletion \
        else structural.classify_nodes(g)
    return dict(cls.fractions)


def cmd_profile(args):
    from . import structural

    g = _read_graph(args.input, directed=True)
    p = structural.control_profile(g)
    eta_s, eta_e, eta_i = p.eta
    return {"eta_source": eta_s, "eta_external": eta_e,
            "eta_internal": eta_i}


def cmd_centrality(args):
    from . import structural

    g = _read_graph(args.input, directed=True)
    nodes = list(dict.fromkeys(_indices(g, args.nodes)))
    return {"nodes": _labels(g, nodes),
            "control_centrality": structural.control_centrality(g, nodes)}


def cmd_actuators(args):
    from . import structural

    g = _read_graph(args.input, directed=True)
    rep = structural.min_actuators(g)
    return {"n_drivers": rep.n_drivers, "beta": rep.beta, "alpha": rep.alpha,
            "n_actuators": rep.n_actuators,
            "actuators": _labels(g, rep.actuators)}


def cmd_switchboard(args):
    from . import structural

    g = _read_graph(args.input, directed=True)
    drivers = structural.switchboard_drivers(g)
    return {"n_drivers": len(drivers), "drivers": _labels(g, drivers)}


def cmd_cavity(args):
    from . import cavity

    if args.dist == "er":
        n_d, _ = cavity.solve_cavity_er(args.kmean)
    else:
        n_d, _ = cavity.solve_cavity_sf(args.kmean, args.gamma)
    return {"dist": args.dist, "kmean": args.kmean, "n_d": n_d}


def cmd_exact_nd(args):
    from . import exact

    a = _read_matrix(args.a)
    n_d, lam, drivers = exact.pbh_min_drivers(a)
    lam = complex(lam)
    return {"n_drivers": n_d, "eigenvalue": lam.real,
            "eigenvalue_imag": lam.imag,
            "drivers": [int(v) for v in drivers]}


def cmd_energy(args):
    from . import energy, exact

    sys_ = exact.DenseSystem(_read_matrix(args.a), _read_matrix(args.b))
    if args.x0 is not None and args.xf is not None:
        trace = energy.min_energy_input(sys_, _read_vector(args.x0),
                                        _read_vector(args.xf), args.t)
        return {"t_final": args.t, "energy": trace.energy}
    e_min, e_max = energy.energy_bounds(sys_, args.t)
    # JSON has no infinity: an unbounded E_max (singular Gramian) is null
    return {"t_final": args.t, "e_min": e_min,
            "e_max": None if e_max == float("inf") else e_max}


def cmd_spectrum(args):
    from . import energy, exact

    sys_ = exact.DenseSystem(_read_matrix(args.a), _read_matrix(args.b))
    energies, _ = energy.energy_spectrum(sys_, args.t)
    return {"t_final": args.t,
            "rows": [{"index": i, "energy": float(e)}
                     for i, e in enumerate(energies)]}


def _read_inference(path):
    """Inference diagram of a reaction file that names some species."""
    from .observability import inference_diagram, parse_reactions

    rs = parse_reactions(_read_text(path))
    if rs.n_species == 0:
        raise InputError(f"{path} holds no reactions")
    return inference_diagram(rs)


def cmd_sensors(args):
    from . import observability

    g = _read_inference(args.reactions)
    rep = observability.min_sensors(g)
    return {"n_sensors": rep.n_sensors,
            "sensors": _labels(g, rep.sensors),
            "multiplicity": rep.multiplicity,
            "root_scc_sizes": sorted(len(c) for c in rep.root_sccs)}


def cmd_target_sensor(args):
    from . import observability

    g = _read_inference(args.reactions)
    sensor, cost = observability.target_sensor(g, _indices(g, args.targets))
    return {"sensor": g.labels[sensor], "cost": cost}


def cmd_mds(args):
    from . import observability

    g = _read_graph(args.input, directed=False)
    nodes, exact_flag = observability.mds_solve(g)
    return {"size": len(nodes), "nodes": _labels(g, nodes),
            "exact": exact_flag}


def cmd_obs_transition(args):
    import numpy as np

    from . import observability

    g = _read_graph(args.input, directed=False)
    rng = np.random.default_rng(args.seed)
    frac = observability.observability_transition(g, args.phi, args.trials,
                                                  rng)
    return {"phi": args.phi, "observed_fraction": frac}


def cmd_observer(args):
    import numpy as np

    from . import exact, observability

    a = _read_matrix(args.a)
    sys_ = exact.DenseSystem(a, np.zeros((a.shape[0], 1)),
                             _read_matrix(args.c))
    t, err = observability.luenberger_observe(
        sys_, _read_matrix(args.l), _read_vector(args.x0),
        _read_vector(args.z0), args.t)
    return {"t_final": args.t, "final_error": float(err[-1]),
            "rows": [{"t": float(tv), "error": float(ev)}
                     for tv, ev in zip(t[::10], err[::10])]}


def cmd_hubler(args):
    import numpy as np

    from . import exact, steering

    a = exact._square_finite(_read_matrix(args.a))
    sys_ = steering.OdeSystem(n=a.shape[0], f=lambda t, x: a @ x)
    goal = lambda t: args.amp * np.sin(args.freq * t) * np.ones(a.shape[0])
    goal_dot = lambda t: args.amp * args.freq * np.cos(args.freq * t) \
        * np.ones(a.shape[0])
    trace = steering.hubler_input(sys_, np.eye(a.shape[0]), goal, goal_dot,
                                  args.t, x0=_read_vector(args.x0)
                                  if args.x0 else None)
    err = max(np.linalg.norm(trace.x[i] - goal(tv))
              for i, tv in enumerate(trace.t))
    return {"t_final": args.t, "max_tracking_error": float(err)}


def cmd_ogy(args):
    import numpy as np

    from . import steering

    hp = steering.HenonParams(delta=args.delta)
    trace = steering.ogy_stabilize_henon(hp, n_steps=args.steps,
                                         seed=args.seed)
    x_star = steering.henon_fixed_point(hp.p, hp.b)
    tail = trace.x[trace.capture_step:]
    return {"capture_step": trace.capture_step, "x_star": x_star,
            "post_capture_deviation": float(
                np.abs(tail[:, 0] - x_star).max())}


def cmd_pyragas(args):
    from . import steering

    sys_ = steering.make_system("rossler")
    trace = steering.pyragas_feedback(sys_, 1, [0.0, -args.k, 0.0],
                                      args.tau, args.t, [1.0, 1.0, 0.0])
    return {"k": args.k, "tau": args.tau, "mismatch": trace.mismatch}


def cmd_compensate(args):
    from . import steering

    if (args.lo is None) != (args.hi is None):
        raise InvalidArgument("--lo and --hi bound the perturbation "
                              "together: give both or neither")
    sys_ = steering.make_system(args.system)
    bounds = None
    if args.lo is not None:
        bounds = (_read_vector(args.lo), _read_vector(args.hi))
    x0p, iters = steering.compensatory_perturbation(
        sys_, _read_vector(args.x0), _read_vector(args.target),
        bounds=bounds, budget=args.budget)
    return {"x0_new": [float(v) for v in x0p], "iterations": iters}


def cmd_fvs(args):
    from . import steering

    g = _read_graph(args.input, directed=True)
    res = steering.fvs_find(g, args.mode)
    return {"size": len(res.nodes), "nodes": _labels(g, res.nodes),
            "exact": res.exact}


def cmd_clamp(args):
    import numpy as np

    from . import steering

    if args.t < 0:
        raise InvalidArgument("horizon must not be negative")
    steering._steps_that_fit(20 * args.t, 2, f"the horizon {args.t:g} and "
                             f"20 samples per unit time", "samples")
    sys_ = steering.make_system("bistable-gene")
    s1, s3 = steering.gene_toggle_attractors()
    times = np.linspace(0.0, args.t, int(20 * args.t) + 1)
    samples = np.tile(s3, (len(times), 1))
    trace = steering.fvs_clamp(sys_, [0], times, samples)
    return {"t_final": args.t,
            "terminal_distance": trace.terminal_distance}


def cmd_msf(args):
    from . import collective

    g = _read_graph(args.input, directed=False)
    lam2, lam_n, r = collective.msf_eigenratio(g)
    return {"lambda2": lam2, "lambda_n": lam_n, "eigenratio": r}


def cmd_pinning(args):
    import numpy as np

    from . import collective

    if not 0 < args.fraction <= 1:
        raise InvalidArgument("the pinned fraction must lie in (0, 1]")
    g = _read_graph(args.input, directed=False)
    lap = collective.laplacian_matrix(g)
    n = g.n_nodes
    k = max(1, int(args.fraction * n))
    if args.strategy == "degree":
        deg = np.diag(lap)
        pinned = list(np.argsort(-deg)[:k])
    else:
        rng = np.random.default_rng(args.seed)
        pinned = list(rng.choice(n, k, replace=False))
    # the eigenratio does not depend on the coupling strength σ
    cfg = collective.PinningConfig(1.0, args.kappa, pinned, lap)
    lam2, lam_top, r = collective.pinning_eigenratio(cfg)
    return {"lambda2": lam2, "lambda_top": lam_top, "eigenratio": r,
            "pinned": sorted(int(v) for v in pinned)}


def cmd_pinning_sim(args):
    import numpy as np

    from . import collective, steering

    if args.nodes < 3:
        raise InvalidArgument("a ring needs at least 3 nodes")
    osc = steering.make_system("rossler")
    g = collective.laplacian_matrix(
        collective.UnGraph(args.nodes, [(i, (i + 1) % args.nodes)
                                        for i in range(args.nodes)]))
    cfg = collective.PinningConfig(args.sigma, args.kappa,
                                   list(range(args.nodes)), g)
    rng = np.random.default_rng(args.seed)
    x0 = np.array([1.0, 1.0, 0.0]) + 0.2 * rng.normal(size=(args.nodes, 3))
    trace = collective.pinning_sync_simulate(
        cfg, osc, np.eye(3), x0, [1.0, 1.0, 0.0], args.t,
        adaptive=args.adaptive, q=args.q)
    return {"final_error": float(trace.error[-1]),
            "max_gain": float(trace.kappas.max())}


def cmd_vicsek(args):
    import numpy as np

    from . import collective

    if args.seeds < 1:
        raise InvalidArgument("need at least one seed")
    if args.seed + args.seeds > 2 ** 64:
        raise InvalidArgument("the last seed, --seed + --seeds - 1, must "
                              "not pass 2**64 - 1")
    rows = []
    for seed in range(args.seed, args.seed + args.seeds):
        res = collective.vicsek_order_parameter(
            args.n, args.l, args.v0, args.r, args.eta, args.steps, seed)
        rows.append({"seed": seed, "phi_mean": res.mean,
                     "phi_stderr": res.stderr})
    means = [row["phi_mean"] for row in rows]
    return {"phi_mean": float(np.mean(means)),
            "phi_stderr": float(np.std(means, ddof=1) / np.sqrt(len(means)))
            if len(means) > 1 else 0.0,
            "rows": rows}


def cmd_vicsek_leader(args):
    from . import collective

    dev = collective.vicsek_leader_run(args.n, args.l, args.v0, args.r,
                                       theta0=args.theta0, steps=args.steps,
                                       seed=args.seed, eta=args.eta)
    return {"final_deviation": float(dev[-1]),
            "steps": args.steps}


@functools.cache
def build_parser():
    """The netctl parser, built once per process."""
    parser = _Parser(
        prog="netctl",
        description="Network controllability and observability toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None)
        return p

    for name, handler in (("drivers", cmd_drivers),
                          ("classify-links", cmd_classify_links),
                          ("profile", cmd_profile),
                          ("actuators", cmd_actuators),
                          ("switchboard", cmd_switchboard)):
        add(name, handler).add_argument("--input", required=True)

    p = add("check", cmd_check)
    p.add_argument("--input", required=True)
    p.add_argument("--drivers", required=True)

    p = add("classify-nodes", cmd_classify_nodes)
    p.add_argument("--input", required=True)
    p.add_argument("--deletion", action="store_true")

    p = add("centrality", cmd_centrality)
    p.add_argument("--input", required=True)
    p.add_argument("--nodes", required=True)

    p = add("cavity", cmd_cavity)
    p.add_argument("--dist", choices=("er", "sf-static"), required=True)
    p.add_argument("--kmean", type=float, required=True)
    p.add_argument("--gamma", type=float, default=3.0)

    add("exact-nd", cmd_exact_nd).add_argument("--a", required=True)

    p = add("energy", cmd_energy)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x0")
    p.add_argument("--xf")

    p = add("spectrum", cmd_spectrum)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--t", type=float, required=True)

    add("sensors", cmd_sensors).add_argument("--reactions", required=True)

    p = add("target-sensor", cmd_target_sensor)
    p.add_argument("--reactions", required=True)
    p.add_argument("--targets", required=True)

    add("mds", cmd_mds).add_argument("--input", required=True)

    p = add("obs-transition", cmd_obs_transition)
    p.add_argument("--input", required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--trials", type=int, default=10)

    p = add("observer", cmd_observer)
    p.add_argument("--a", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--z0", required=True)
    p.add_argument("--t", type=float, required=True)

    p = add("hubler", cmd_hubler)
    p.add_argument("--a", required=True)
    p.add_argument("--t", type=float, default=10.0)
    p.add_argument("--amp", type=float, default=1.0)
    p.add_argument("--freq", type=float, default=1.0)
    p.add_argument("--x0")

    p = add("ogy", cmd_ogy)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--steps", type=int, default=2000)

    p = add("pyragas", cmd_pyragas)
    p.add_argument("--k", type=float, default=0.2)
    p.add_argument("--tau", type=float, default=5.88)
    p.add_argument("--t", type=float, default=200.0)

    p = add("compensate", cmd_compensate)
    p.add_argument("--system", default="double-well")
    p.add_argument("--x0", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--lo")
    p.add_argument("--hi")
    p.add_argument("--budget", type=int, default=20)

    p = add("fvs", cmd_fvs)
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("exact", "heuristic"),
                   default="heuristic")

    add("clamp", cmd_clamp).add_argument("--t", type=float, default=25.0)

    add("msf", cmd_msf).add_argument("--input", required=True)

    p = add("pinning", cmd_pinning)
    p.add_argument("--input", required=True)
    p.add_argument("--fraction", type=float, default=0.1)
    p.add_argument("--kappa", type=float, default=5.0)
    p.add_argument("--strategy", choices=("random", "degree"),
                   default="random")

    p = add("pinning-sim", cmd_pinning_sim)
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--kappa", type=float, default=0.1)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--t", type=float, default=60.0)
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("--q", type=float, default=1.0)

    p = add("vicsek", cmd_vicsek)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--l", type=float, default=5.0)
    p.add_argument("--v0", type=float, default=0.03)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--seeds", type=int, default=1)

    p = add("vicsek-leader", cmd_vicsek_leader)
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--l", type=float, default=1.0)
    p.add_argument("--v0", type=float, default=0.03)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--theta0", type=float, default=0.7)
    p.add_argument("--steps", type=int, default=500)

    return parser


def _cell(value):
    """CSV cell text: nested values as JSON, scalars as str()."""
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value)
    return str(value)


def _render(payload, fmt, command):
    if fmt == "json":
        doc = {"schema": SCHEMA, "command": command}
        doc.update(payload)
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    import csv  # only CSV output needs it

    rows = payload.pop("rows", None)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if payload:
        keys = sorted(payload)
        writer.writerow(keys)
        writer.writerow([_cell(payload[k]) for k in keys])
    if rows:
        keys = list(rows[0])
        writer.writerow(keys)
        writer.writerows([_cell(row[k]) for k in keys] for row in rows)
    return out.getvalue() or "\n"


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidArgument(f"--{name} must be finite")
        # the flocking streams take the seed as one unsigned 64-bit word
        if not 0 <= args.seed < 2 ** 64:
            raise InvalidArgument("--seed must lie in 0..2**64 - 1")
        payload = args.handler(args)
    except NetctlError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the size it could not allocate
        print(f"MemoryError: {exc}", file=sys.stderr)
        return 1
    text = _render(payload, args.format, args.command)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
