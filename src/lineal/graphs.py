"""Simple undirected graphs and the handful of queries shared by every solver.

Graphs are immutable after construction, so all queries here are read-only
and safe to call from concurrent workers.
"""
from __future__ import annotations

from typing import Iterable, Iterator


class Graph:
    """Undirected simple graph on dense vertex ids ``0 .. vertex_count-1``.

    Rejects self-loops, duplicate edges, and out-of-range endpoints at
    construction time. Adjacency lists are kept sorted.
    """

    __slots__ = ("vertex_count", "adjacency", "_neighbor_sets", "edge_count")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self.vertex_count = vertex_count
        sets: list[set[int]] = [set() for _ in range(vertex_count)]
        m = 0
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in sets[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            sets[u].add(v)
            sets[v].add(u)
            m += 1
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in sets
        )
        self._neighbor_sets: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in sets)
        self.edge_count = m

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        return self._neighbor_sets[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._neighbor_sets[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, ascending lexicographic."""
        for u in range(self.vertex_count):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def without(self, removed: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Delete `removed`, relabel survivors densely.

        Returns the new graph and the survivors in ascending original id;
        survivor i of the result carries original id ``survivors[i]``.
        """
        gone = set(removed)
        survivors = tuple(v for v in range(self.vertex_count) if v not in gone)
        new_id = {old: new for new, old in enumerate(survivors)}
        edges = [
            (new_id[u], new_id[v])
            for u, v in self.edges()
            if u not in gone and v not in gone
        ]
        return Graph(len(survivors), edges), survivors

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, m={self.edge_count})"


def is_connected(g: Graph) -> bool:
    """True iff g has exactly one connected component; the empty graph counts as connected."""
    n = g.vertex_count
    if n <= 1:
        return True
    seen = bytearray(n)
    seen[0] = 1
    frontier = [0]
    reached = 1
    while frontier:
        v = frontier.pop()
        for w in g.adjacency[v]:
            if not seen[w]:
                seen[w] = 1
                reached += 1
                frontier.append(w)
    return reached == n


def greedy_cover(g: Graph) -> tuple[tuple[tuple[int, int], ...], frozenset[int]]:
    """Inclusion-maximal matching by ascending (u, v) edge order, plus its endpoint set.

    The endpoint set is a vertex cover of size at most twice the minimum.
    The fixed edge order makes repeated runs reproducible.
    """
    matched = set()
    matching = []
    for u, v in g.edges():
        if u not in matched and v not in matched:
            matching.append((u, v))
            matched.add(u)
            matched.add(v)
    return tuple(matching), frozenset(matched)


def components_outside(g: Graph, removed: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of the subgraph induced on V(g) minus `removed`.

    Listed in ascending order of their minimum member.
    """
    gone = set(removed)
    seen = set(gone)
    out: list[frozenset[int]] = []
    for start in range(g.vertex_count):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in g.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    frontier.append(w)
        out.append(frozenset(comp))
    return out
