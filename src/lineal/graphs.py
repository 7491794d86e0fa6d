"""Simple undirected graphs and the handful of queries shared by every solver.

A graph keeps one adjacency representation: a sorted tuple of neighbours per
vertex. Code that needs set membership over a neighbourhood builds the sets
it needs from that. Graphs are immutable after construction, so all queries
here are read-only and safe to call from concurrent workers.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator


class Graph:
    """Undirected simple graph on dense vertex ids ``0 .. vertex_count-1``.

    The public constructor rejects self-loops, duplicate edges, and
    out-of-range endpoints. ``_adopt`` is the private constructor for callers
    that have already checked their edges themselves (the parsers, and
    ``without``, whose edges come from a valid graph); it does no second
    check. ``adjacency[v]`` lists v's neighbours in ascending order.
    """

    __slots__ = ("vertex_count", "adjacency", "edge_count")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
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
        self._fill(sets, m)

    @classmethod
    def _adopt(cls, neighbors: list, edge_count: int) -> "Graph":
        """The graph whose vertex v has the neighbours ``neighbors[v]``.

        The caller guarantees a simple graph: symmetric neighbour
        collections without self-loops or repeats, ``edge_count`` edges.
        """
        g = cls.__new__(cls)
        g._fill(neighbors, edge_count)
        return g

    def _fill(self, neighbors: list, edge_count: int) -> None:
        self.vertex_count = len(neighbors)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(map(tuple, map(sorted, neighbors)))
        self.edge_count = edge_count

    def adjacent(self, u: int, v: int) -> bool:
        nu = self.adjacency[u]
        i = bisect_left(nu, v)
        return i < len(nu) and nu[i] == v

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
        adj = self.adjacency
        # relabelling is monotone, so each list comes out sorted already
        neighbors = [[new_id[w] for w in adj[v] if w not in gone] for v in survivors]
        return Graph._adopt(neighbors, sum(map(len, neighbors)) // 2), survivors

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
