"""Seeded instance generators for tests and benchmarks.

Every family is deterministic for a fixed (family, params, seed).
"""
from __future__ import annotations

import random

from .graphs import Graph, is_connected

_CONNECT_RETRIES = 100


class GenerationError(ValueError):
    """Parameters that cannot produce a graph meeting the family's promises."""


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GenerationError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices total, center 0."""
    if n < 1:
        raise GenerationError("a star needs at least 1 vertex")
    return Graph(n, [(0, i) for i in range(1, n)])


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """Connected G(n, p); resamples up to a bounded number of times."""
    if not 0.0 <= p <= 1.0:
        raise GenerationError("p must lie in [0, 1]")
    if n > 1 and p == 0.0:
        raise GenerationError("p=0 cannot produce a connected graph on n>1 vertices")
    rng = random.Random(seed)
    for _ in range(_CONNECT_RETRIES):
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph(n, edges)
        if is_connected(g):
            return g
    raise GenerationError(f"no connected sample in {_CONNECT_RETRIES} tries (n={n}, p={p})")


def bounded_cover_graph(n: int, s: int, p: float, seed: int) -> Graph:
    """Connected graph with a planted vertex cover 0..s-1.

    Cover pairs are joined with probability p; every outside vertex gets a
    p-sampled set of cover neighbors (at least one), and no other edges, so
    the outside is an independent set and the plant really is a cover.
    """
    if not 0 <= s <= n:
        raise GenerationError("need 0 <= s <= n")
    if s == 0 and n > 1:
        raise GenerationError("an empty cover forces an edgeless graph; not connected for n>1")
    if not 0.0 <= p <= 1.0:
        raise GenerationError("p must lie in [0, 1]")
    rng = random.Random(seed)
    for _ in range(_CONNECT_RETRIES):
        edges = []
        for u in range(s):
            for v in range(u + 1, s):
                if rng.random() < p:
                    edges.append((u, v))
        for w in range(s, n):
            picked = [c for c in range(s) if rng.random() < p]
            if not picked:
                picked = [rng.randrange(s)]
            edges.extend((c, w) for c in picked)
        g = Graph(n, edges)
        if is_connected(g):
            return g
    raise GenerationError(f"no connected sample in {_CONNECT_RETRIES} tries (n={n}, s={s}, p={p})")


FAMILIES = ("gnp", "path", "cycle", "star", "bounded_cover")


def generate(family: str, seed: int = 0, **params) -> Graph:
    """Dispatch by family name; see FAMILIES."""
    if family == "gnp":
        return gnp_graph(params["n"], params["p"], seed)
    if family == "path":
        return path_graph(params["n"])
    if family == "cycle":
        return cycle_graph(params["n"])
    if family == "star":
        return star_graph(params["n"])
    if family == "bounded_cover":
        return bounded_cover_graph(params["n"], params["s"], params["p"], seed)
    raise GenerationError(f"unknown family {family!r}; choose one of {FAMILIES}")
