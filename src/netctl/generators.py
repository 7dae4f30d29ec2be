"""Seeded random graph generators used for ensemble experiments."""
from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, RejectionFailure
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


def poisson_degree_pair(n: int, k_mean: float, rng: np.random.Generator):
    """In/out degree sequences, each Poisson(k_mean/2), repaired to equal
    stub totals by adding stubs at uniformly chosen nodes."""
    out_deg = rng.poisson(k_mean / 2.0, n)
    in_deg = rng.poisson(k_mean / 2.0, n)
    diff = int(out_deg.sum() - in_deg.sum())
    short = in_deg if diff > 0 else out_deg
    for v in rng.integers(0, n, size=abs(diff)):
        short[v] += 1
    return out_deg, in_deg


def config_model_digraph(out_deg, in_deg, rng: np.random.Generator) -> DiGraph:
    """Directed configuration model: out-stubs paired with a uniformly
    shuffled list of in-stubs.  Self-loops and multi-edges are repaired by
    re-pairing the offending stubs; after 100 passes a graph that still
    contains either raises RejectionFailure."""
    out_deg = np.asarray(out_deg, dtype=np.int64)
    in_deg = np.asarray(in_deg, dtype=np.int64)
    if out_deg.sum() != in_deg.sum():
        raise InvalidArgument("stub totals differ")
    n = out_deg.size
    src = np.repeat(np.arange(n), out_deg)
    dst = np.repeat(np.arange(n), in_deg)
    rng.shuffle(dst)
    m = src.size
    for _ in range(100):
        codes = src * n + dst
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        dup = np.zeros(m, dtype=bool)
        dup[order[1:]] = sorted_codes[1:] == sorted_codes[:-1]
        bad = np.flatnonzero(dup | (src == dst))
        if bad.size == 0:
            return DiGraph.from_arrays(n, src, dst)
        # swap each offending in-stub with a uniformly random partner
        partners = rng.integers(0, m, size=bad.size)
        for b, r in zip(bad, partners):
            dst[b], dst[r] = dst[r], dst[b]
    raise RejectionFailure("configuration model failed after 100 repair "
                           "passes")


def poisson_config_digraph(n, k_mean, rng) -> DiGraph:
    out_deg, in_deg = poisson_degree_pair(n, k_mean, rng)
    return config_model_digraph(out_deg, in_deg, rng)


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
