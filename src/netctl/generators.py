"""Seeded random graph generators used for ensemble experiments."""
from __future__ import annotations

import numpy as np

from .errors import InvalidArgument
from .graphs import DiGraph, UnGraph


def er_digraph(n: int, k_mean: float, rng: np.random.Generator) -> DiGraph:
    """Directed Erdős–Rényi graph with mean total degree k_mean (each of
    the n(n-1) ordered pairs present independently, no self-loops)."""
    if n < 2:
        return DiGraph.from_pairs(n, [])
    p = min(k_mean / (2.0 * (n - 1)), 1.0)
    n_pairs = n * (n - 1)
    m = rng.binomial(n_pairs, p)
    codes = np.unique(rng.integers(0, n_pairs, size=m))
    while codes.size < m:
        extra = rng.integers(0, n_pairs, size=m - codes.size)
        codes = np.unique(np.concatenate([codes, extra]))
    src = codes // (n - 1)
    rem = codes % (n - 1)
    dst = rem + (rem >= src)
    return DiGraph.from_arrays(n, src, dst)


def ba_graph(n: int, m: int, rng: np.random.Generator) -> UnGraph:
    """Undirected Barabási–Albert preferential attachment: each new node
    attaches to m distinct existing nodes chosen by degree."""
    if n <= m:
        raise InvalidArgument("need n > m")
    pairs = []
    repeated = []  # node listed once per incident edge endpoint
    for v in range(m):  # seed star keeps early degrees nonzero
        pairs.append((v, m))
        repeated += [v, m]
    for v in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[rng.integers(0, len(repeated))])
        for t in targets:
            pairs.append((t, v))
            repeated += [t, v]
    return UnGraph(n, pairs)
