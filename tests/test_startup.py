"""Start-up cost: which modules a `netctl` process loads.

Every check runs in a fresh interpreter, since this process has long
since imported numpy and scipy.  None of them measures time.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netctl import cli

SRC = Path(__file__).resolve().parent.parent / "src"

# prints {"out": stdout of main(ARGV), "code": exit code, "modules": [...]}
PROBE = """
import contextlib, io, json, sys
from netctl.cli import main
out = io.StringIO()
try:
    with contextlib.redirect_stdout(out):
        code = main(ARGV)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"out": out.getvalue(), "code": code,
                  "modules": sorted(sys.modules)}))
"""


def fresh(code):
    """Run `code` in a new interpreter that sees only this source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def run_fresh(argv):
    return fresh(PROBE.replace("ARGV", repr(argv)))


def scipy_modules(modules):
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


# scipy.sparse.csgraph imports scipy.linalg
CSGRAPH = {"sparse", "linalg"}

# every subcommand with short arguments, and the public scipy subpackages
# its run may load
FOOTPRINT = [
    (["drivers", "--input", "{di}"], set()),
    (["check", "--input", "{di}", "--drivers", "a"], set()),
    (["classify-links", "--input", "{di}"], set()),
    (["classify-nodes", "--input", "{di}"], set()),
    (["classify-nodes", "--input", "{di}", "--deletion"], set()),
    (["profile", "--input", "{di}"], set()),
    (["centrality", "--input", "{di}", "--nodes", "a"], CSGRAPH),
    (["actuators", "--input", "{di}"], set()),
    (["switchboard", "--input", "{di}"], set()),
    (["cavity", "--dist", "sf-static", "--kmean", "4"], set()),
    (["exact-nd", "--a", "{a}"], set()),
    (["energy", "--a", "{a}", "--b", "{b}", "--t", "2"], set()),
    (["spectrum", "--a", "{a}", "--b", "{b}", "--t", "2"], set()),
    (["sensors", "--reactions", "{reactions}"], set()),
    (["target-sensor", "--reactions", "{reactions}", "--targets", "x1"],
     set()),
    (["mds", "--input", "{un}"], set()),
    (["obs-transition", "--input", "{un}", "--phi", "0.5", "--trials", "2"],
     set()),
    (["observer", "--a", "{a}", "--c", "{c}", "--l", "{l}", "--x0", "1,0,0",
      "--z0", "0,0,0", "--t", "1"], set()),
    (["hubler", "--a", "{a}"], set()),
    (["ogy", "--steps", "20000"], set()),
    (["pyragas", "--t", "5"], set()),
    (["compensate", "--x0=-0.5", "--target", "1"], set()),
    (["compensate", "--x0=-0.5", "--target", "1", "--lo", "0", "--hi", "3"],
     set()),
    (["fvs", "--input", "{di}"], set()),
    (["clamp", "--t", "1"], set()),
    (["msf", "--input", "{un}"], set()),
    (["pinning", "--input", "{un}"], set()),
    (["pinning-sim", "--nodes", "3", "--t", "1"], set()),
    # the periodic k-d tree at r < l/2
    (["vicsek", "--n", "10", "--steps", "5"],
     CSGRAPH | {"spatial", "special", "constants"}),
    (["vicsek-leader", "--n", "5", "--steps", "5"], set()),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    from netctl.observability import DEMO_REACTIONS

    root = tmp_path_factory.mktemp("footprint")
    paths = {}
    for name, text in (("di", "a b\nb c\nc a\nc d\n"),
                       ("un", "a b\nb c\nc d\nd a\na c\nd e\n"),
                       ("reactions", DEMO_REACTIONS),
                       ("a", "-1 1 0\n0 -2 1\n0 0 -3\n"), ("b", "0\n0\n1\n"),
                       ("c", "1 0 0\n"), ("l", "1\n1\n1\n")):
        paths[name] = root / name
        paths[name].write_text(text)
    return paths


def test_footprint_lists_every_subcommand():
    subcommands = next(
        a.choices for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv, _ in FOOTPRINT} == set(subcommands)


@pytest.mark.parametrize("argv, allowed", FOOTPRINT,
                         ids=[" ".join(a[:1] + [f for f in a if f in (
                             "--deletion", "--lo")]) for a, _ in FOOTPRINT])
def test_scipy_footprint(inputs, argv, allowed):
    """A fresh run loads no public scipy subpackage beyond its entry."""
    got = run_fresh([a.format(**inputs) for a in argv])
    assert got["code"] == 0
    loaded = {m.split(".")[1] for m in scipy_modules(got["modules"])
              if "." in m}
    assert {p for p in loaded
            if not p.startswith("_") and p != "version"} <= allowed


def test_build_parser_loads_neither_numpy_nor_scipy():
    modules = fresh("import json, sys, netctl.cli; "
                    "netctl.cli.build_parser(); "
                    "print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in modules
    assert not scipy_modules(modules)


def test_help_loads_neither_numpy_nor_scipy():
    got = run_fresh(["--help"])
    assert got["code"] == 0
    assert "cavity" in got["out"]
    assert "numpy" not in got["modules"]
    assert not scipy_modules(got["modules"])


def test_no_module_imports_scipy_when_loaded():
    modules = fresh("import json, pkgutil, importlib, sys, netctl\n"
                    "for m in pkgutil.iter_modules(netctl.__path__):\n"
                    "    importlib.import_module('netctl.' + m.name)\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert "netctl.cli" in modules and "netctl.steering" in modules
    assert not scipy_modules(modules)


def test_cavity_runs_without_scipy(capsys):
    argv = ["cavity", "--dist", "er", "--kmean", "4"]
    got = run_fresh(argv)
    assert got["code"] == 0
    assert not scipy_modules(got["modules"])
    assert cli.main(argv) == 0
    assert got["out"] == capsys.readouterr().out


def test_exact_nd_runs_without_scipy(tmp_path, capsys):
    a = tmp_path / "a.mat"
    np.savetxt(a, np.diag([1.0, 1.0, 2.0]) + np.eye(3, k=1))
    argv = ["exact-nd", "--a", str(a)]
    got = run_fresh(argv)
    assert got["code"] == 0
    assert not scipy_modules(got["modules"])
    assert cli.main(argv) == 0
    assert got["out"] == capsys.readouterr().out


def test_mds_runs_without_scipy(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("a b\nb c\nc d\nd a\na c\nd e\n")
    argv = ["mds", "--input", str(edges)]
    got = run_fresh(argv)
    assert got["code"] == 0
    assert not scipy_modules(got["modules"])
    assert cli.main(argv) == 0
    assert got["out"] == capsys.readouterr().out


def test_drivers_switchboard_obs_transition_run_without_scipy(tmp_path,
                                                             capsys):
    """The canonical matching and the weak components are numpy."""
    edges = tmp_path / "g.edges"
    edges.write_text("a b\nb c\nc a\nc d\nd e\ne c\nf e\n")
    for argv in (["drivers", "--input", str(edges)],
                 ["switchboard", "--input", str(edges)],
                 ["obs-transition", "--input", str(edges), "--phi", "0.4",
                  "--trials", "3"]):
        got = run_fresh(argv)
        assert got["code"] == 0
        assert not scipy_modules(got["modules"]), argv
        assert cli.main(argv) == 0
        assert got["out"] == capsys.readouterr().out


def test_simulations_run_without_scipy():
    """The fixed-step simulations (RK4, maps, flocking at r = l/2) need no
    scipy, also where `collective` imports the RK4 step from `steering`."""
    argvs = [["pyragas"], ["clamp"], ["pinning-sim"],
             ["ogy", "--steps", "20000"], ["vicsek-leader"]]
    modules = fresh("import contextlib, io, json, sys\n"
                    "from netctl.cli import main\n"
                    f"for argv in {argvs!r}:\n"
                    "    with contextlib.redirect_stdout(io.StringIO()):\n"
                    "        if main(argv):\n"
                    "            sys.exit(f'{argv} failed')\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert "netctl.collective" in modules and "netctl.steering" in modules
    assert not scipy_modules(modules)


def test_energy_spectrum_observer_run_without_scipy(tmp_path, capsys):
    """The Gramian, the minimum-energy input and the observer exponentiate
    in numpy."""
    files = {}
    for name, text in (("a", "-1 1 0\n0 -2 1\n0 0 -3\n"), ("b", "0\n0\n1\n"),
                       ("c", "1 0 0\n"), ("l", "1\n1\n1\n")):
        files[name] = tmp_path / f"{name}.mat"
        files[name].write_text(text)
    a, b = str(files["a"]), str(files["b"])
    for argv in (["energy", "--a", a, "--b", b, "--t", "2"],
                 ["energy", "--a", a, "--b", b, "--t", "2",
                  "--x0", "0,0,0", "--xf", "1,0,0"],
                 ["spectrum", "--a", a, "--b", b, "--t", "2"],
                 ["observer", "--a", a, "--c", str(files["c"]),
                  "--l", str(files["l"]), "--x0", "1,0,0", "--z0", "0,0,0",
                  "--t", "1"]):
        got = run_fresh(argv)
        assert got["code"] == 0
        assert not scipy_modules(got["modules"]), argv
        assert cli.main(argv) == 0
        assert got["out"] == capsys.readouterr().out
