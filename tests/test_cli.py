import argparse
import contextlib
import csv
import io
import json
import re
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctl import cli
from netctl.exact import chain_matrix
from netctl.observability import DEMO_REACTIONS
from test_exact import defective_derogatory_matrix

EXPECTED_COMMANDS = {
    "drivers", "check", "classify-links", "classify-nodes", "profile",
    "centrality", "actuators", "switchboard", "cavity", "exact-nd",
    "energy", "spectrum", "sensors", "target-sensor", "mds",
    "obs-transition", "observer", "hubler", "ogy", "pyragas", "compensate",
    "fvs", "clamp", "msf", "pinning", "pinning-sim", "vicsek",
    "vicsek-leader",
}


@pytest.fixture
def files(tmp_path):
    star = tmp_path / "star.edges"
    star.write_text("h a\nh b\nh c\n")
    ring = tmp_path / "ring.edges"
    ring.write_text("0 1\n1 2\n2 3\n3 0\n")
    un = tmp_path / "un.edges"
    un.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
    reactions = tmp_path / "demo.reactions"
    reactions.write_text(DEMO_REACTIONS)
    a = tmp_path / "a.mat"
    np.savetxt(a, chain_matrix(3) - 0.5 * np.eye(3))
    b = tmp_path / "b.mat"
    np.savetxt(b, np.array([[1.0], [0.0], [0.0]]))
    c = tmp_path / "c.mat"
    np.savetxt(c, np.array([[1.0, 0.0]]))
    a2 = tmp_path / "a2.mat"
    np.savetxt(a2, np.array([[0.0, 1.0], [-2.0, -3.0]]))
    b2 = tmp_path / "b2.mat"
    np.savetxt(b2, np.array([[0.0], [1.0]]))
    l = tmp_path / "l.mat"
    np.savetxt(l, np.array([[1.0], [1.0]]))
    a5 = tmp_path / "a5.mat"
    a5.write_text("5\n")
    a50 = tmp_path / "a50.mat"
    np.savetxt(a50, np.diag([50.0, -1.0]))
    no_reactions = tmp_path / "none.reactions"
    no_reactions.write_text("# no reactions\n\n")
    return {
        "star": str(star), "ring": str(ring), "un": str(un),
        "reactions": str(reactions), "a": str(a), "b": str(b),
        "c": str(c), "a2": str(a2), "b2": str(b2), "l": str(l),
        "a5": str(a5), "a50": str(a50),
        "no_reactions": str(no_reactions),
    }


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 JSON lacks."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    doc = strict_json(out)
    assert doc["schema"] == "netctl/1"
    return doc


def subparsers():
    """{name: subparser} of the netctl parser."""
    parser = cli.build_parser()
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


class TestDispatch:
    def test_every_subcommand_registered_once(self):
        subs = subparsers()
        assert set(subs) == EXPECTED_COMMANDS
        for name, sub in subs.items():
            assert callable(sub.get_default("handler")), name

    def test_parser_knows_every_subcommand(self):
        assert set(subparsers()) == EXPECTED_COMMANDS

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md") \
            .read_text(encoding="utf-8")
        lines = [line.split("#")[0].strip()
                 for block in re.findall(r"^```\w*\n(.*?)^```", readme,
                                         flags=re.M | re.S)
                 for line in block.splitlines()
                 if line.startswith("netctl ")]
        assert lines
        for line in lines:
            cli.build_parser().parse_args(shlex.split(line)[1:])


class TestExitCodes:
    def test_unknown_flag_exits_two(self, files):
        with pytest.raises(SystemExit) as e:
            cli.main(["drivers", "--bogus"])
        assert e.value.code == 2

    def test_no_jobs_flag(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["vicsek", "--jobs", "2"])
        assert e.value.code == 2

    def test_pinning_has_no_sigma_flag(self):
        # the pinned eigenratio does not depend on σ; the simulation does
        with pytest.raises(SystemExit) as e:
            cli.main(["pinning", "--input", "g.edges", "--sigma", "2"])
        assert e.value.code == 2
        assert "--sigma" in subparsers()["pinning-sim"]._option_string_actions

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as e:
            cli.main([])
        assert e.value.code == 2

    def test_analysis_error_exits_one(self, files, tmp_path, capsys):
        disc = tmp_path / "disc.edges"
        disc.write_text("0 1\n2 3\n")
        code = cli.main(["msf", "--input", str(disc)])
        assert code == 1
        assert "DisconnectedGraph" in capsys.readouterr().err


def run_error(capsys, argv, error):
    """The command exits 1 and reports the typed error as one line."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"{error}: ")
    assert err.count("\n") == 1
    return err


class TestTypedErrors:
    def test_exact_nd_non_square(self, tmp_path, capsys):
        a = tmp_path / "wide.mat"
        np.savetxt(a, np.ones((2, 3)))
        run_error(capsys, ["exact-nd", "--a", str(a)], "DimensionMismatch")

    def test_exact_nd_nan(self, tmp_path, capsys):
        a = tmp_path / "nan.mat"
        np.savetxt(a, np.array([[1.0, np.nan], [0.0, 1.0]]))
        run_error(capsys, ["exact-nd", "--a", str(a)], "NonFiniteInput")

    def test_hubler_non_square(self, tmp_path, capsys):
        a = tmp_path / "row.mat"
        a.write_text("1 2 3\n")
        run_error(capsys, ["hubler", "--a", str(a)], "DimensionMismatch")

    def test_hubler_nan(self, tmp_path, capsys):
        a = tmp_path / "nan.mat"
        np.savetxt(a, np.array([[1.0, np.nan], [0.0, 1.0]]))
        run_error(capsys, ["hubler", "--a", str(a)], "NonFiniteInput")

    def test_energy_nan(self, files, tmp_path, capsys):
        b = tmp_path / "nan_b.mat"
        np.savetxt(b, np.array([[np.nan], [0.0], [0.0]]))
        run_error(capsys, ["energy", "--a", files["a"], "--b", str(b),
                           "--t", "1"], "NonFiniteInput")

    def test_missing_a_file(self, tmp_path, capsys):
        run_error(capsys, ["exact-nd", "--a", str(tmp_path / "none.mat")],
                  "InputError")

    def test_missing_b_file(self, files, tmp_path, capsys):
        run_error(capsys, ["spectrum", "--a", files["a"], "--b",
                           str(tmp_path / "none.mat"), "--t", "1"],
                  "InputError")

    def test_exact_nd_inconsistent_driver_rows(self, tmp_path, capsys):
        path = tmp_path / "defective.mat"
        np.savetxt(path, defective_derogatory_matrix(), fmt="%.17g")
        run_error(capsys, ["exact-nd", "--a", str(path)],
                  "InvariantViolation")

    def test_missing_input_file(self, tmp_path, capsys):
        run_error(capsys, ["drivers", "--input", str(tmp_path / "none")],
                  "InputError")

    def test_non_utf8_input(self, tmp_path, capsys):
        raw = tmp_path / "raw.edges"
        raw.write_bytes(b"\xff\xfe")
        run_error(capsys, ["drivers", "--input", str(raw)], "InputError")

    def test_undirected_self_pair(self, tmp_path, capsys):
        loop = tmp_path / "loop.edges"
        loop.write_text("a a\na b\n")
        run_error(capsys, ["mds", "--input", str(loop)], "ParseError")

    def test_empty_edge_list(self, tmp_path, capsys):
        empty = tmp_path / "empty.edges"
        empty.write_text("# no edges\n")
        run_error(capsys, ["drivers", "--input", str(empty)], "InputError")

    @pytest.mark.parametrize("command", [["sensors"],
                                         ["target-sensor", "--targets", "0"]])
    def test_no_reactions(self, files, capsys, command):
        run_error(capsys, [command[0], "--reactions", files["no_reactions"]]
                  + command[1:], "InputError")

    def test_driver_token_not_a_label(self, files, capsys):
        run_error(capsys, ["check", "--input", files["star"],
                           "--drivers", "zz"], "UnknownNode")

    def test_negative_driver_index(self, files, capsys):
        run_error(capsys, ["check", "--input", files["star"],
                           "--drivers", "-1"], "UnknownNode")

    def test_driver_index_out_of_range(self, files, capsys):
        run_error(capsys, ["check", "--input", files["star"],
                           "--drivers", "9999"], "UnknownNode")

    def test_driver_index_in_range(self, files, capsys):
        # tokens that are not labels of the star (h, a, b, c) are indices
        doc = run_json(capsys, ["check", "--input", files["star"],
                                "--drivers", "0,1,b"])
        assert doc["controllable"] is True

    @pytest.mark.parametrize("argv", [
        ["observer", "--a", "{a2}", "--c", "{c}", "--l", "{l}", "--t", "1",
         "--x0", "nan,0", "--z0", "0,0"],
        ["hubler", "--a", "{a2}", "--x0", "inf,0", "--t", "1"],
        ["compensate", "--x0", "inf", "--target", "0"],
    ], ids=" ".join)
    def test_non_finite_state(self, files, capsys, argv):
        run_error(capsys, [a.format(**files) for a in argv],
                  "NonFiniteInput")

    @pytest.mark.parametrize("command", ["energy", "spectrum"])
    @pytest.mark.parametrize("horizon", ["20", "50", "100", "300", "1e308"])
    def test_energy_horizon_beyond_double(self, files, tmp_path, capsys,
                                          command, horizon):
        # H(T) = e^{-AT} W e^{-AᵀT} loses its small eigenvalues to rounding
        # noise of the largest, then overflows; neither a wrong, negative
        # or NaN energy may be printed
        b = tmp_path / "b11.mat"
        np.savetxt(b, np.ones((2, 1)))
        run_error(capsys, [command, "--a", files["a2"], "--b", str(b),
                           "--t", horizon], "SingularGramian")

    @pytest.mark.parametrize("command", ["energy", "spectrum", "exact-nd"])
    def test_huge_entry(self, files, tmp_path, capsys, command):
        a = tmp_path / "big.mat"
        np.savetxt(a, np.array([[1e300, 0.0], [0.0, 1.0]]))
        argv = [command, "--a", str(a)]
        if command != "exact-nd":
            argv += ["--b", files["b2"], "--t", "1"]
        run_error(capsys, argv, "InvalidArgument")

    def test_empty_matrix_file(self, tmp_path, capsys):
        a = tmp_path / "empty.mat"
        a.write_text("# nothing\n")
        run_error(capsys, ["exact-nd", "--a", str(a)], "InputError")

    def test_unknown_toy_system(self, capsys):
        run_error(capsys, ["compensate", "--system", "foo", "--x0", "1",
                           "--target", "0"], "UnknownSystem")

    def test_compensate_zero_width_box(self, capsys):
        # --lo = --hi = 0 forbids every step (a scipy ValueError before)
        run_error(capsys, ["compensate", "--x0=-0.5", "--target", "1",
                           "--lo", "0", "--hi", "0"], "NoCompensation")

    @pytest.mark.parametrize("targets", ["x4,x7", "x9,x5"])
    def test_no_path_to_target_names_labels(self, files, capsys, targets):
        """The message names the targets by label, as the user gave them."""
        err = run_error(capsys, ["target-sensor", "--reactions",
                                 files["reactions"], "--targets", targets],
                        "NoPathToTarget")
        assert err == ("NoPathToTarget: no non-target node reaches all of "
                       + ", ".join(sorted(targets.split(","))) + "\n")

    def test_allocation_failure(self, capsys):
        # 2·10¹⁶ time samples (142 PiB), more than any 57-bit address
        # space: the allocation is refused before any memory is touched
        run_error(capsys, ["clamp", "--t", "1e15"], "MemoryError")

    @pytest.mark.parametrize("argv", [
        ["obs-transition", "--input", "{un}", "--phi", "2"],
        ["obs-transition", "--input", "{un}", "--phi", "0.5",
         "--trials", "0"],
        ["pinning", "--input", "{un}", "--kappa", "0"],
        ["pinning", "--input", "{un}", "--fraction", "2"],
        ["pinning", "--input", "{un}", "--fraction", "0"],
        ["pinning", "--input", "{un}", "--fraction", "-1"],
        ["pinning", "--input", "{un}", "--fraction", "2", "--strategy",
         "degree"],
        ["cavity", "--dist", "er", "--kmean", "-1"],
        ["cavity", "--dist", "er", "--kmean", "0"],
        ["cavity", "--dist", "sf-static", "--kmean", "0"],
        ["cavity", "--dist", "sf-static", "--kmean", "4", "--gamma", "1.5"],
        ["energy", "--a", "{a}", "--b", "{b}", "--t", "0"],
        ["energy", "--a", "{a}", "--b", "{b}", "--t", "nan"],
        ["spectrum", "--a", "{a}", "--b", "{b}", "--t", "inf"],
        ["spectrum", "--a", "{a}", "--b", "{b}", "--t", "-1"],
        ["pyragas", "--tau", "0"],
        ["hubler", "--a", "{a2}", "--t", "0"],
        ["energy", "--a", "{a2}", "--b", "{b2}", "--t", "1", "--x0", "1,2",
         "--xf", "1"],
        ["observer", "--a", "{a2}", "--c", "{c}", "--l", "{l}", "--t", "1",
         "--x0", "1,2,3", "--z0", "0,0"],
        ["hubler", "--a", "{a2}", "--x0", "1,2,3"],
        ["compensate", "--x0", "1,2", "--target", "0"],
        # orbits that overflow, and bounds that are NaN or come alone
        ["hubler", "--a", "{a5}", "--t", "1000"],
        ["hubler", "--a", "{a50}", "--x0", "1,0", "--t", "100"],
        ["compensate", "--x0", "1e200", "--target", "1"],
        ["compensate", "--system", "rossler", "--x0", "1e200,0,0",
         "--target", "0,0,0"],
        ["compensate", "--x0=-0.5", "--target", "1.0", "--lo", "nan",
         "--hi", "1"],
        ["compensate", "--x0=-0.5", "--target", "1.0", "--lo=-1",
         "--hi", "nan"],
        ["compensate", "--x0=-0.5", "--target", "1.0", "--lo", "0.5"],
        ["compensate", "--x0=-0.5", "--target", "1.0", "--hi", "0.5"],
        ["clamp", "--t", "-1"],
        ["ogy", "--delta", "0"],
        ["fvs", "--input", "{long_ring}", "--mode", "exact"],
        ["pinning-sim", "--nodes", "1"],
        ["pinning-sim", "--nodes", "2"],
        ["pinning-sim", "--nodes", "3", "--sigma", "-1", "--t", "5"],
        ["pyragas", "--k", "1000", "--t", "5"],
        ["vicsek-leader", "--n", "0"],
        ["vicsek", "--n", "0"],
        ["vicsek", "--steps", "0"],
        ["vicsek", "--seeds", "0"],
        ["vicsek", "--seed", "18446744073709551616"],
        ["vicsek", "--n", "10", "--steps", "5",
         "--seed", "18446744073709551615", "--seeds", "2"],
        ["vicsek-leader", "--seed", "18446744073709551616"],
        ["vicsek", "--r", "-1"],
        ["vicsek-leader", "--r", "-0.5"],
        ["vicsek-leader", "--eta", "-1"],
        ["ogy", "--seed", "-1"],
    ], ids=" ".join)
    def test_invalid_argument(self, files, tmp_path, capsys, argv):
        long_ring = tmp_path / "long_ring.edges"
        long_ring.write_text("".join(f"{i} {(i + 1) % 16}\n"
                                     for i in range(16)))
        paths = dict(files, long_ring=str(long_ring))
        run_error(capsys, [a.format(**paths) for a in argv],
                  "InvalidArgument")

    @pytest.mark.parametrize("argv, steps", [
        (["pyragas", "--tau", "1e-300"], "8e+302"),
        (["pyragas", "--tau", "5e-324"], "inf"),
        (["pyragas", "--tau", "1e-300", "--t", "1e10"], "inf"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_pyragas_step_count_beyond_any_array(self, capsys, argv, steps):
        """A delay far below the step gives t/τ·4 steps: a count no array
        can hold is refused before the trajectory is allocated."""
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("InvalidArgument: ") and err.count("\n") == 1
        assert f"need {steps} RK4 steps" in err


FUZZ_LABEL = st.sampled_from(["a", "b", "c", "d", "0", "1", "2", "-1", "é",
                              "节点", "x#", "#", "1.5"])
FUZZ_WEIGHT = st.sampled_from(["1", "-2.5", "0", "1e-300", "٣"])
FUZZ_BAD_WEIGHT = st.sampled_from(["nan", "inf", "1e309", "x", "--"])
FUZZ_TOKENS = st.lists(st.one_of(FUZZ_LABEL, st.integers(-2, 15).map(str),
                                 st.sampled_from(["", " a", "zz"])),
                       min_size=1, max_size=4).map(",".join)


@st.composite
def fuzz_edge_file(draw):
    """Bytes of an edge list.  Half the files are well formed (edges,
    weights, comments, blank lines, non-ASCII labels, possibly none at
    all); the other half may also hold bad token counts, bad weights,
    repeated edges, self-pairs and a byte that is not UTF-8."""
    malformed = draw(st.booleans())
    kinds = ["edge"] * 6 + ["weighted", "comment", "blank"]
    if malformed:
        kinds += ["bad-weight", "short", "long", "loop", "repeat"]
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "repeat":
            if lines:
                lines.append(draw(st.sampled_from(lines)))
            continue
        src, dst = draw(FUZZ_LABEL), draw(FUZZ_LABEL)
        lines.append({
            "edge": f"{src} {dst}",
            "weighted": f"{src} {dst} {draw(FUZZ_WEIGHT)}",
            "bad-weight": f"{src} {dst} {draw(FUZZ_BAD_WEIGHT)}",
            "comment": f"# {src} {dst}",
            "blank": "",
            "short": src,
            "long": f"{src} {dst} 1 {src}",
            "loop": f"{src}\t{src}",
        }[kind])
    data = "\n".join(lines).encode("utf-8")
    if malformed and draw(st.integers(0, 9)) == 0:
        data += b"\xff"
    return data


FUZZ_SPECIES = st.sampled_from(["A", "B", "C", "x1", "é", "节点", "0"])
FUZZ_TARGETS = st.lists(st.one_of(FUZZ_SPECIES, st.integers(-1, 6).map(str)),
                        min_size=1, max_size=3).map(",".join)
FUZZ_RATE = st.sampled_from(["1", "0.5", "k=2", "1,0.5", "-1", "x", "1e309",
                             ""])


@st.composite
def fuzz_reaction_file(draw):
    """Bytes of a reaction file.  Half the files are well formed
    (irreversible and reversible reactions, stoichiometric coefficients,
    empty sides, comments, blank lines, possibly no reaction at all); the
    other half may also hold lines without ':' or '->', bad rates, bad
    terms and a byte that is not UTF-8."""
    malformed = draw(st.booleans())
    kinds = ["reaction"] * 6 + ["comment", "blank"]
    if malformed:
        kinds += ["no-colon", "no-arrow", "bad-term"]

    def side():
        terms = draw(st.lists(st.tuples(
            st.sampled_from(["", "2 ", "0.5 "]), FUZZ_SPECIES), max_size=3))
        return " + ".join(c + name for c, name in terms) or "0"

    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        arrow = draw(st.sampled_from(["->", "<->"]))
        rate = draw(FUZZ_RATE) if malformed else "1"
        lines.append({
            "reaction": f"{rate}: {side()} {arrow} {side()}",
            "comment": f"# {side()} -> {side()}",
            "blank": "",
            "no-colon": f"{side()} -> {side()}",
            "no-arrow": f"{rate}: {side()}",
            "bad-term": f"{rate}: 2 {side()} -> + {side()}",
        }[kind])
    data = "\n".join(lines).encode("utf-8")
    if malformed and draw(st.integers(0, 9)) == 0:
        data += b"\xff"
    return data


FUZZ_ENTRY = st.sampled_from(["1", "-2.5", "0", "1e200", "1e308", "nan",
                              "inf", "", "x", " 1"])
# half the vectors have the length of the 3-state test system
FUZZ_VECTOR = st.one_of(st.lists(FUZZ_ENTRY, min_size=3, max_size=3),
                        st.lists(FUZZ_ENTRY, min_size=1, max_size=4)) \
    .map(",".join)


FUZZ_NUMBER = st.sampled_from(["1", "-2.5", "0", "0.5", "3", "-1"])
FUZZ_HUGE = st.sampled_from(["1e300", "-1e300"])
FUZZ_BAD_NUMBER = st.sampled_from(["nan", "inf", "1e309", "x"])
FUZZ_HORIZON = st.sampled_from(["1", "0.5", "2", "30", "0", "-1", "nan",
                                "1e308"])
FUZZ_MATRIX_KINDS = ["small", "huge", "bad-token", "ragged", "wide", "empty"]


@st.composite
def fuzz_matrix_file(draw, n_rows, n_cols, kinds):
    """Text of an n_rows x n_cols matrix file of the kind drawn from
    `kinds`: small finite numbers, some of them ±1e300 ("huge"), some nan,
    inf, 1e309 or x ("bad-token"), a longer last row ("ragged"), one more
    column ("wide") or no text at all ("empty")."""
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        return ""
    odd = {"huge": FUZZ_HUGE, "bad-token": FUZZ_BAD_NUMBER}.get(kind)
    number = FUZZ_NUMBER if odd is None else st.one_of(FUZZ_NUMBER, odd)
    rows = [[draw(number) for _ in range(n_cols + (kind == "wide"))]
            for _ in range(n_rows)]
    if kind == "ragged":
        rows[-1].append("1")
    return "".join(" ".join(row) + "\n" for row in rows)


@st.composite
def fuzz_system_files(draw):
    """(A, B) file texts.  A is well formed in half the draws; B in most,
    with one row per state in most."""
    n = draw(st.integers(1, 4))
    b_rows = n if draw(st.integers(0, 3)) else draw(st.integers(1, 5))
    b_kinds = ["small"] * 10 + FUZZ_MATRIX_KINDS
    return (draw(fuzz_matrix_file(n, n, ["small"] * 4 + FUZZ_MATRIX_KINDS)),
            draw(fuzz_matrix_file(b_rows, draw(st.integers(1, 2)), b_kinds)))


# short runs of the commands with numeric flags that simulate or sample;
# fuzzed flags come after these and override them
FUZZ_SIMULATIONS = {
    "observer": ["--a", "{a2}", "--c", "{c}", "--l", "{l}", "--x0", "1,0",
                 "--z0", "0,0", "--t", "1"],
    "hubler": ["--a", "{a2}", "--t", "1"],
    "ogy": ["--steps", "300"],
    "pyragas": ["--t", "5"],
    "compensate": ["--x0=-0.5", "--target", "1", "--budget", "3"],
    "clamp": ["--t", "1"],
    "obs-transition": ["--input", "{un}", "--phi", "0.5", "--trials", "2"],
    "pinning": ["--input", "{un}"],
    "pinning-sim": ["--nodes", "3", "--t", "1"],
    "vicsek": ["--n", "10", "--steps", "5", "--seeds", "2"],
    "vicsek-leader": ["--n", "5", "--steps", "5"],
}


@st.composite
def fuzz_simulation_argv(draw):
    """argv of a short simulation run with up to three of its numeric
    flags set to 0 or -1, float flags also to nan or inf and --seed also
    to 2⁶⁴.  Other huge finite values are left out: run time and memory
    grow with some horizons."""
    command = draw(st.sampled_from(sorted(FUZZ_SIMULATIONS)))
    flags = [(a.option_strings[0], a.type)
             for a in subparsers()[command]._actions
             if a.type in (int, float)]
    chosen = draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3,
                           unique=True))
    ints, floats = ["0", "-1"], ["0", "-1", "nan", "inf"]
    argv = [command] + FUZZ_SIMULATIONS[command]
    for flag, kind in chosen:
        values = ints if kind is int else floats
        if flag == "--seed":
            values = values + [str(2 ** 64)]
        argv.append(f"{flag}={draw(st.sampled_from(values))}")
    return argv


def run_fuzzed(argv):
    """Runs the CLI; it exits 0 with strict JSON, or 1 with one stderr
    line, no traceback and no warning (which would print to stderr).
    Returns the JSON document, or None after an exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    if code == 0:
        doc = strict_json(out.getvalue())
        assert doc["command"] == argv[0]
        return doc
    assert code == 1
    assert err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    return None


class TestFuzzedInput:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(fuzz_simulation_argv())
    def test_simulation_flags(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, text in (("a2", "0 1\n-2 -3\n"), ("c", "1 0\n"),
                               ("l", "1\n1\n"),
                               ("un", "0 1\n1 2\n2 3\n3 0\n0 2\n")):
                paths[name] = Path(tmp) / name
                paths[name].write_text(text)
            run_fuzzed([a.format(**paths) for a in argv])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(fuzz_edge_file(), FUZZ_TOKENS,
           st.sampled_from([["drivers"], ["check", "--drivers={}"],
                            ["centrality", "--nodes={}"],
                            ["fvs", "--mode", "exact"], ["fvs"], ["mds"],
                            ["actuators"]]))
    def test_exits_0_or_1_without_traceback(self, data, tokens, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.edges"
            path.write_bytes(data)
            run_fuzzed([command[0], "--input", str(path)]
                       + [a.format(tokens) for a in command[1:]])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(fuzz_reaction_file(), FUZZ_TARGETS,
           st.sampled_from([["sensors"], ["target-sensor", "--targets={}"]]))
    def test_reaction_files(self, data, tokens, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.reactions"
            path.write_bytes(data)
            run_fuzzed([command[0], "--reactions", str(path)]
                       + [a.format(tokens) for a in command[1:]])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(FUZZ_VECTOR, FUZZ_VECTOR)
    def test_energy_vectors(self, x0, xf):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.mat", Path(tmp) / "b.mat"
            np.savetxt(a, chain_matrix(3) - 0.5 * np.eye(3))
            np.savetxt(b, np.array([[1.0], [0.0], [0.0]]))
            run_fuzzed(["energy", "--a", str(a), "--b", str(b), "--t", "1",
                        f"--x0={x0}", f"--xf={xf}"])

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(fuzz_system_files(), FUZZ_HORIZON,
           st.sampled_from(["exact-nd", "energy", "spectrum"]))
    def test_matrix_files(self, texts, horizon, command):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.mat", Path(tmp) / "b.mat"
            a.write_text(texts[0])
            b.write_text(texts[1])
            argv = [command, "--a", str(a)]
            if command != "exact-nd":
                argv += ["--b", str(b), f"--t={horizon}"]
            doc = run_fuzzed(argv)
        if doc is not None and command != "exact-nd":
            energies = [doc.get("e_min"), doc.get("e_max")] + \
                [row["energy"] for row in doc.get("rows", [])]
            assert all(e > 0 for e in energies if e is not None), energies


class TestStructuralCommands:
    def test_drivers(self, files, capsys):
        doc = run_json(capsys, ["drivers", "--input", files["star"]])
        assert doc["n_drivers"] == 3
        assert len(doc["drivers"]) == 3

    def test_check(self, files, capsys):
        doc = run_json(capsys, ["check", "--input", files["star"],
                                "--drivers", "h,a,b"])
        assert doc["controllable"] is True

    def test_classify_links(self, files, capsys):
        doc = run_json(capsys, ["classify-links", "--input", files["ring"]])
        assert abs(doc["critical"] + doc["redundant"] + doc["ordinary"]
                   - 1.0) < 1e-12

    def test_classify_nodes(self, files, capsys):
        doc = run_json(capsys, ["classify-nodes", "--input", files["ring"]])
        assert set(doc) >= {"critical", "redundant", "intermittent"}

    def test_profile(self, files, capsys):
        doc = run_json(capsys, ["profile", "--input", files["star"]])
        assert doc["eta_source"] > 0

    def test_centrality(self, files, capsys):
        doc = run_json(capsys, ["centrality", "--input", files["star"],
                                "--nodes", "h"])
        assert doc["control_centrality"] == 2

    def test_centrality_echoes_each_node_once(self, files, capsys):
        """The kernel controls a set, so repeated nodes are echoed once,
        in the order of their first mention."""
        doc = run_json(capsys, ["centrality", "--input", files["star"],
                                "--nodes", "a,h,a,0,1"])
        assert doc["nodes"] == ["a", "h"]
        assert doc["control_centrality"] == run_json(capsys, [
            "centrality", "--input", files["star"],
            "--nodes", "a,h"])["control_centrality"]

    def test_actuators(self, files, capsys):
        doc = run_json(capsys, ["actuators", "--input", files["star"]])
        assert doc["n_actuators"] >= doc["n_drivers"]

    def test_switchboard(self, files, capsys):
        doc = run_json(capsys, ["switchboard", "--input", files["ring"]])
        assert doc["n_drivers"] >= 1


class TestCsvOutput:
    """--format csv is valid CSV: nested values are JSON strings, quoted by
    the csv module; each cell reads back to the JSON output's value."""

    def round_trip(self, capsys, argv):
        doc = run_json(capsys, argv)
        assert cli.main(argv + ["--format", "csv"]) == 0
        header, values = csv.reader(capsys.readouterr().out.splitlines())
        assert header == sorted(k for k in doc if k not in ("schema",
                                                            "command"))
        for key, cell in zip(header, values):
            want = doc[key]
            if isinstance(want, (list, dict)):
                assert json.loads(cell) == want
            else:
                assert cell == str(want)
        return dict(zip(header, values))

    def test_drivers(self, files, capsys):
        row = self.round_trip(capsys, ["drivers", "--input", files["star"]])
        assert json.loads(row["drivers"]) == ["h", "b", "c"]

    def test_check_inaccessible(self, files, capsys):
        row = self.round_trip(capsys, ["check", "--input", files["star"],
                                       "--drivers", "a"])
        assert json.loads(row["witness"]) == ["inaccessible", 0]

    def test_check_dilation(self, files, capsys):
        row = self.round_trip(capsys, ["check", "--input", files["star"],
                                       "--drivers", "h"])
        assert json.loads(row["witness"]) == ["dilation", [1, 2, 3], [0]]

    def test_classify_links(self, files, capsys):
        row = self.round_trip(capsys, ["classify-links", "--input",
                                       files["star"]])
        assert sum(float(row[k]) for k in row) == pytest.approx(1.0)


class TestAnalyticCommands:
    def test_cavity(self, files, capsys):
        doc = run_json(capsys, ["cavity", "--dist", "er", "--kmean", "4"])
        assert 0 < doc["n_d"] < 1

    def test_cavity_csv(self, files, capsys):
        code = cli.main(["cavity", "--dist", "er", "--kmean", "4",
                         "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert "n_d" in header

    def test_exact_nd(self, files, capsys):
        doc = run_json(capsys, ["exact-nd", "--a", files["a"]])
        assert doc["n_drivers"] == 1
        assert doc["eigenvalue_imag"] == 0.0

    def test_exact_nd_complex_eigenvalue(self, tmp_path, capsys):
        # R ⊕ R with R a rotation generator: λ = ±i, each twice
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        path = tmp_path / "rot2.mat"
        np.savetxt(path, np.kron(np.eye(2), rot))
        doc = run_json(capsys, ["exact-nd", "--a", str(path)])
        assert doc["n_drivers"] == 2
        assert (doc["eigenvalue"], doc["eigenvalue_imag"]) == (0.0, -1.0)

    def test_energy_bounds(self, files, capsys):
        doc = run_json(capsys, ["energy", "--a", files["a"],
                                "--b", files["b"], "--t", "1.0"])
        assert doc["e_min"] > 0
        assert doc["e_max"] >= doc["e_min"]

    def test_energy_singular_gramian_reports_null_emax(self, tmp_path,
                                                       capsys):
        a, b = tmp_path / "diag.mat", tmp_path / "b.mat"
        np.savetxt(a, np.diag([-1.0, -2.0]))
        np.savetxt(b, np.array([[1.0], [0.0]]))
        doc = run_json(capsys, ["energy", "--a", str(a), "--b", str(b),
                                "--t", "1"])
        assert doc["e_max"] is None and doc["e_min"] > 0

    def test_energy_steering(self, files, capsys):
        doc = run_json(capsys, ["energy", "--a", files["a"],
                                "--b", files["b"], "--t", "1.0",
                                "--x0", "0,0,0", "--xf", "1,0,0"])
        assert doc["energy"] > 0

    def test_spectrum(self, files, capsys):
        doc = run_json(capsys, ["spectrum", "--a", files["a"],
                                "--b", files["b"], "--t", "1.0"])
        energies = [row["energy"] for row in doc["rows"]]
        assert energies == sorted(energies)


class TestObservabilityCommands:
    def test_sensors(self, files, capsys):
        doc = run_json(capsys, ["sensors", "--reactions",
                                files["reactions"]])
        assert doc["n_sensors"] == 3
        assert doc["multiplicity"] == 6
        assert doc["root_scc_sizes"] == [1, 2, 3]

    def test_target_sensor(self, files, capsys):
        doc = run_json(capsys, ["target-sensor", "--reactions",
                                files["reactions"], "--targets", "x4"])
        assert doc["sensor"] == "x5"

    def test_mds(self, files, capsys):
        doc = run_json(capsys, ["mds", "--input", files["un"]])
        assert doc["size"] >= 1

    def test_obs_transition(self, files, capsys):
        doc = run_json(capsys, ["obs-transition", "--input", files["un"],
                                "--phi", "0.5", "--trials", "5"])
        assert 0 <= doc["observed_fraction"] <= 1

    def test_observer(self, files, capsys):
        doc = run_json(capsys, ["observer", "--a", files["a2"],
                                "--c", files["c"], "--l", files["l"],
                                "--x0", "1,0", "--z0", "0,0", "--t", "8"])
        assert doc["final_error"] < 0.1


class TestSteeringCommands:
    def test_hubler(self, files, capsys):
        doc = run_json(capsys, ["hubler", "--a", files["a2"], "--t", "5"])
        assert doc["max_tracking_error"] < 1e-4

    def test_ogy(self, files, capsys):
        doc = run_json(capsys, ["ogy", "--steps", "3000", "--seed", "1"])
        assert abs(doc["x_star"] - 0.8839) < 5e-4
        assert doc["capture_step"] < 3000

    def test_pyragas(self, files, capsys):
        doc = run_json(capsys, ["pyragas", "--k", "0.2", "--tau", "5.881",
                                "--t", "60"])
        assert doc["mismatch"] < 10.0

    def test_compensate(self, files, capsys):
        doc = run_json(capsys, ["compensate", "--x0", "-0.5",
                                "--target", "1", "--lo", "0", "--hi", "3",
                                "--budget", "40"])
        assert doc["x0_new"][0] > 0

    def test_hubler_backwards_in_time(self, files, capsys):
        doc = run_json(capsys, ["hubler", "--a", files["a5"], "--t", "-3"])
        assert doc["max_tracking_error"] < 1e-4

    def test_compensate_far_start_in_basin(self, capsys):
        # x' = x - x^3 draws 1e100 to the target +1 without overflowing
        doc = run_json(capsys, ["compensate", "--x0", "1e100",
                                "--target", "1"])
        assert doc == {"schema": "netctl/1", "command": "compensate",
                       "iterations": 0, "x0_new": [1e100]}

    def test_compensate_infinite_bounds(self, capsys):
        doc = run_json(capsys, ["compensate", "--x0=-0.5", "--target", "1.0",
                                "--lo=-inf", "--hi", "inf"])
        assert doc["x0_new"][0] > -0.5

    def test_fvs(self, files, capsys):
        doc = run_json(capsys, ["fvs", "--input", files["ring"],
                                "--mode", "exact"])
        assert doc["size"] == 1

    def test_clamp(self, files, capsys):
        doc = run_json(capsys, ["clamp", "--t", "25"])
        assert doc["terminal_distance"] < 1e-3


class TestCollectiveCommands:
    def test_msf(self, files, capsys):
        doc = run_json(capsys, ["msf", "--input", files["un"]])
        assert doc["eigenratio"] >= 1

    def test_pinning(self, files, capsys):
        doc = run_json(capsys, ["pinning", "--input", files["un"],
                                "--fraction", "0.5"])
        assert doc["eigenratio"] >= 1

    def test_pinning_sim(self, files, capsys):
        doc = run_json(capsys, ["pinning-sim", "--nodes", "4",
                                "--kappa", "10", "--t", "5"])
        assert doc["final_error"] < 10.0

    def test_vicsek(self, files, capsys):
        doc = run_json(capsys, ["vicsek", "--n", "50", "--steps", "50",
                                "--seeds", "2"])
        assert 0 <= doc["phi_mean"] <= 1
        assert len(doc["rows"]) == 2

    def test_vicsek_leader(self, files, capsys):
        doc = run_json(capsys, ["vicsek-leader", "--n", "20",
                                "--steps", "500"])
        assert doc["final_deviation"] < 1e-2


class TestPlumbing:
    def test_byte_identical_reruns(self, files, capsys):
        argv = ["vicsek", "--n", "40", "--steps", "30", "--seed", "5"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_output_file(self, files, tmp_path, capsys):
        dest = tmp_path / "out.json"
        code = cli.main(["drivers", "--input", files["star"],
                         "--output", str(dest)])
        assert code == 0
        assert json.loads(dest.read_text())["schema"] == "netctl/1"

    def test_env_seed_override(self, files, monkeypatch):
        monkeypatch.setenv("NETCTL_SEED", "77")
        parser = cli.build_parser()
        args = parser.parse_args(["vicsek"])
        assert args.seed == 77

    def test_parser_built_once_and_seed_read_per_parse(self, monkeypatch):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        for text, seed in (("5", 5), ("12", 12)):
            monkeypatch.setenv("NETCTL_SEED", text)
            assert parser.parse_args(["ogy"]).seed == seed
        assert parser.parse_args(["ogy", "--seed", "3"]).seed == 3
        monkeypatch.delenv("NETCTL_SEED")
        assert parser.parse_args(["ogy"]).seed == 0

    def test_env_seed_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("NETCTL_SEED", "x")
        with pytest.raises(SystemExit) as e:
            cli.main(["ogy"])
        assert e.value.code == 2
        assert "NETCTL_SEED: invalid int value: 'x'" in capsys.readouterr().err
