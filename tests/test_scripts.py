"""Smoke runs of the sweep scripts at tiny sizes: each must write its CSV
header and one row per sweep point."""
import csv
import io
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header, rows", [
    ("cavity_sweep.py", ["--n", "300", "--steps", "2", "--seeds", "2"],
     ["k_mean", "n_d_cavity", "n_d_matching_mean", "n_d_matching_stderr"], 2),
    ("core_percolation.py", ["--n", "300", "--steps", "2", "--seeds", "2"],
     ["k_mean", "core_fraction_mean", "core_fraction_stderr"], 2),
    ("pinning_sweep.py", ["--n", "60", "--points", "2", "--seeds", "2"],
     ["kappa", "ratio_random_mean", "ratio_random_stderr",
      "ratio_degree_mean", "ratio_degree_stderr"], 2),
    ("vicsek_phase.py", ["--n", "20", "--points", "2", "--steps", "10",
                         "--seeds", "2"],
     ["eta", "phi_mean", "phi_stderr"], 2),
])
def test_script_writes_csv(script, args, header, rows):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    table = list(csv.reader(io.StringIO(done.stdout)))
    assert table[0] == header
    assert len(table) == 1 + rows
    assert all(len(row) == len(header) for row in table[1:])
