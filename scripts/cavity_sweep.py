#!/usr/bin/env python3
"""Sweep the driver-node density of Erdős–Rényi digraphs over mean degree,
comparing the cavity prediction with matching on sampled graphs.

Writes CSV: k_mean, n_d_cavity, n_d_matching_mean, n_d_matching_stderr.
"""

import argparse
import csv
import sys

import numpy as np

from netctl.cavity import solve_cavity_er
from netctl.generators import er_digraph
from netctl.structural import driver_count


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20000, help="graph size")
    ap.add_argument("--k-min", type=float, default=1.0)
    ap.add_argument("--k-max", type=float, default=10.0)
    ap.add_argument("--steps", type=int, default=19)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--seed0", type=int, default=0, help="first RNG seed")
    ap.add_argument("--output", type=argparse.FileType("w"), default=sys.stdout)
    args = ap.parse_args()

    w = csv.writer(args.output)
    w.writerow(["k_mean", "n_d_cavity", "n_d_matching_mean", "n_d_matching_stderr"])
    for k in np.linspace(args.k_min, args.k_max, args.steps):
        n_d_cavity = solve_cavity_er(float(k))[0]
        samples = []
        for s in range(args.seeds):
            rng = np.random.default_rng(args.seed0 + s)
            g = er_digraph(args.n, float(k), rng)
            samples.append(driver_count(g) / args.n)
        mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / np.sqrt(args.seeds)) if args.seeds > 1 else 0.0
        w.writerow([f"{k:.3f}", f"{n_d_cavity:.6f}", f"{mean:.6f}", f"{se:.6f}"])


if __name__ == "__main__":
    main()
