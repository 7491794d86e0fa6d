"""Rooted spanning trees, DFS-tree predicates, and the exhaustive tree oracle.

A rooted spanning tree T of a graph G is a DFS tree iff every edge of G not
in T joins an ancestor-descendant pair of T. The predicates here also cover
partial trees (covering a subset of V(G)). Two builders extend a partial
tree to a full DFS tree, or say that none exists:
`extension_all_internal` keeps every covered vertex internal and
`extension_all_leaves` makes every uncovered vertex a leaf. The
tuple-guessing solvers call them on each complete tuple.

The exhaustive oracle walk, `dfs_runs`, yields every DFS execution from
every root with its internal-vertex count; its one consumer in the
package is `solve.solve_exact_oracle`. `dfs_runs` holds the one size check:
it refuses graphs above a vertex limit, ORACLE_LIMIT_DEFAULT unless the
caller raises it.

Everything in this module is a pure function of immutable inputs; the
walk's generator is single-consumer but independent walks may run
concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Graph, components_outside

#: Largest graph the exhaustive enumeration accepts unless told otherwise.
ORACLE_LIMIT_DEFAULT = 10

_UNCOVERED = object()  # parent slot of a vertex outside a partial tree


class OracleLimitError(RuntimeError):
    """Raised when exhaustive enumeration is asked for a graph above the size limit."""


class InvalidTreeError(ValueError):
    """Raised when a claimed tree is structurally broken or does not fit its graph."""


@dataclass(slots=True)
class RootedSpanningTree:
    """Rooted tree as a parent map over the vertices it covers.

    ``parent[root] is None``; every other covered vertex maps to its parent.
    The covered set may be a proper subset of the host graph's vertices
    (a partial tree).
    """

    root: int
    parent: dict[int, int | None]

    def internal_vertices(self) -> frozenset[int]:
        """Covered vertices with at least one child.

        A one-vertex tree has no internal vertices: a root without
        descendants is a leaf.
        """
        return frozenset(self.parent.values()) - {None}

    def leaf_vertices(self) -> frozenset[int]:
        return frozenset(self.parent.keys() - self.internal_vertices())

    def internal_count(self) -> int:
        return len(self.internal_vertices())


class AncestorIndex:
    """Enter/exit timestamps of one tree traversal.

    A vertex is an ancestor of another exactly when it is entered no later
    and left no earlier, so sorting by ``enter`` and comparing ``exit``
    tells whether a set of vertices lies on one root-to-leaf path.

    ``enter`` and ``exit`` are lists indexed by vertex, one slot per id up to
    the largest covered one; only covered vertices' slots mean anything.
    """

    __slots__ = ("enter", "exit")

    def __init__(self, enter, exit_):
        self.enter = enter
        self.exit = exit_

    @classmethod
    def build(cls, t: RootedSpanningTree) -> "AncestorIndex":
        """Timestamp every covered vertex; rejects parent maps that are not a
        single tree over non-negative ids."""
        parent = t.parent
        if t.root not in parent or parent[t.root] is not None:
            raise InvalidTreeError("root must be covered with no parent")
        if (low := min(parent)) < 0:
            raise InvalidTreeError(f"vertex {low} has a negative id")
        n = len(parent)
        size = max(parent) + 1
        kids: list[list[int]] = [[] for _ in range(size)]
        enter, exit_ = [0] * size, [0] * size
        for v, p in parent.items():
            if p is None:
                if v != t.root:
                    raise InvalidTreeError(f"vertex {v} has no parent but is not the root")
                continue
            if p not in parent:
                raise InvalidTreeError(f"parent {p} of {v} is not covered")
            kids[p].append(v)
        enter[t.root] = 0
        clock = 1
        stack: list[tuple[int, Iterator[int]]] = [(t.root, iter(kids[t.root]))]
        while stack:
            v, it = stack[-1]
            for child in it:
                enter[child] = clock
                if grandkids := kids[child]:
                    clock += 1
                    stack.append((child, iter(grandkids)))
                    break
                exit_[child] = clock + 1  # a leaf is left as soon as it is entered
                clock += 2
            else:
                exit_[v] = clock
                clock += 1
                stack.pop()
        if clock != 2 * n:  # each reached vertex is entered and left once
            raise InvalidTreeError("parent links contain a cycle or a second component")
        return cls(enter, exit_)

    def chain_end(self, vertices: Iterable[int]) -> int | None:
        """The deepest of the vertices when they lie on one root-to-leaf path, else None.

        The deepest is the one entered last. An empty set has none, so it
        gives None too.
        """
        vs = sorted(vertices, key=self.enter.__getitem__)
        for a, b in zip(vs, vs[1:]):
            if self.exit[b] > self.exit[a]:
                return None
        return vs[-1] if vs else None


def dfs_tree_violation(
    g: Graph, t: RootedSpanningTree, index: AncestorIndex | None = None
) -> tuple[int, int] | None:
    """First edge of G inside t's covered set joining incomparable non-adjacent-in-T vertices.

    Edges are taken in ascending (u, w) order with u < w. Returns None when t
    is a DFS tree of the subgraph induced on its covered set. Raises
    InvalidTreeError when t is not a tree over G's edges at all.
    """
    idx = index if index is not None else AncestorIndex.build(t)
    enter, exit_ = idx.enter, idx.exit
    n = g.vertex_count
    adj = g.adjacency
    cov = t.parent
    parent: list = [_UNCOVERED] * n
    for v, p in cov.items():
        if p is not None and p not in adj[v]:
            raise InvalidTreeError(f"tree edge ({p}, {v}) is not an edge of the graph")
        parent[v] = p
    for u in range(n) if len(cov) == n else sorted(cov):
        pu = parent[u]
        eu, xu = enter[u], exit_[u]
        for w in adj[u]:
            if w <= u or pu == w:
                continue
            pw = parent[w]
            if pw == u or pw is _UNCOVERED:
                continue
            ew = enter[w]
            # intervals nest, so w is comparable to u iff one's entry lies inside the other's
            if not (eu < ew < xu or ew < eu < exit_[w]):
                return (u, w)
    return None


def is_dfs_tree(g: Graph, t: RootedSpanningTree) -> bool:
    """True iff the spanning tree t is a DFS tree of g.

    Raises InvalidTreeError when t does not span g or is not a tree of g.
    """
    n = g.vertex_count
    if len(t.parent) != n or t.parent and (min(t.parent) < 0 or max(t.parent) >= n):
        raise InvalidTreeError("tree does not span the graph")
    return dfs_tree_violation(g, t) is None


def _walk(adj, parent: dict, start: int) -> None:
    """Grow `parent`, which holds `start`, by the DFS from `start` over the
    vertices not yet in it, neighbors ascending, in discovery order; the DFS
    stack is a list of (vertex, neighbor iterator), not Python calls."""
    stack = [(start, iter(adj[start]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w not in parent:
                parent[w] = v
                stack.append((w, iter(adj[w])))
                break
        else:
            stack.pop()


def dfs_any(g: Graph, root: int) -> RootedSpanningTree:
    """The DFS tree from `root` exploring neighbors in ascending id order; it
    covers the root's component, so on a disconnected graph it is partial.
    Its parent map lists the vertices in discovery order."""
    if not (0 <= root < g.vertex_count):
        raise ValueError(f"root {root} out of range")
    parent: dict[int, int | None] = {root: None}
    _walk(g.adjacency, parent, root)
    return RootedSpanningTree(root, parent)


# ---------------------------------------------------------------------------
# Extensions of partial trees.

def _indexed(g: Graph, t: RootedSpanningTree) -> AncestorIndex | None:
    """t's ancestor index when t is a DFS tree of the subgraph induced on its
    covered set, else None."""
    idx = AncestorIndex.build(t)
    return idx if dfs_tree_violation(g, t, idx) is None else None


def _hang_components(
    g: Graph, t: RootedSpanningTree, idx: AncestorIndex
) -> RootedSpanningTree | None:
    """Grow t by hanging each outside component below the deepest vertex of
    its neighborhood, via a DFS of the component from its lowest vertex
    adjacent to that anchor; None when some neighborhood is not a chain,
    an empty one (a component that does not touch t) included.
    """
    parent = dict(t.parent)
    inside = t.parent
    adj = g.adjacency
    for comp in components_outside(g, inside):
        anchor = idx.chain_end({u for w in comp for u in adj[w] if u in inside})
        if anchor is None:
            return None
        start = min(w for w in comp if g.adjacent(w, anchor))
        parent[start] = anchor
        _walk(adj, parent, start)  # stays in comp: its other neighbors are in t
    return RootedSpanningTree(t.root, parent)


def extension_all_internal(g: Graph, t: RootedSpanningTree) -> RootedSpanningTree | None:
    """A DFS tree of g that contains t with every covered vertex internal, or None.

    One exists iff t is a DFS tree of the subgraph induced on its covered
    set, the neighborhood of every outside component is a nonempty set on
    one root-to-leaf path of t, and every leaf of t has a neighbor outside
    the covered set: the component holding that neighbor hangs below the
    leaf or below a descendant of it, so the leaf gains a child.
    """
    idx = _indexed(g, t)
    if idx is None:
        return None
    inside = t.parent
    if not all(any(u not in inside for u in g.adjacency[v]) for v in t.leaf_vertices()):
        return None
    return _hang_components(g, t, idx)


def extension_all_leaves(g: Graph, t: RootedSpanningTree) -> RootedSpanningTree | None:
    """A DFS tree of g that contains t with every uncovered vertex a leaf, or None.

    One exists iff t is a DFS tree of the subgraph induced on its covered
    set and the uncovered set is independent with each uncovered vertex's
    (nonempty) neighborhood on one root-to-leaf path of t; each uncovered
    vertex then goes under its deepest neighbor.
    """
    idx = _indexed(g, t)
    if idx is None:
        return None
    parent = dict(t.parent)
    inside = t.parent
    for v in range(g.vertex_count):
        if v not in inside:
            av = g.adjacency[v]
            if any(u not in inside for u in av):
                return None
            anchor = idx.chain_end(av)
            if anchor is None:
                return None
            parent[v] = anchor
    return RootedSpanningTree(t.root, parent)


# ---------------------------------------------------------------------------
# Exhaustive oracle walk.

def _forced_runs(g: Graph):
    """Every complete DFS execution from every root, one per discovery order.

    Yields the live (root, parent, order, internal) state of each run, roots
    ascending: `parent` is a list indexed by vertex (None at the root),
    `order` the discovery order and `internal` the run's number of vertices
    with a child. Consumers must copy what they keep. Distinct runs can
    build the same tree, so callers wanting distinct trees must deduplicate;
    `tuple(parent)` identifies the tree, root included. Nothing is yielded
    when g is disconnected: the walk returns at the first run that stalls
    before it spans, as the root's component is then finished.

    Each step branches over the undiscovered neighbors, ascending, of the
    deepest stack vertex that has any. The DFS stack is always the tree path
    from the root to the last discovered vertex, so it is walked through
    `parent` rather than kept. The discovered set is an int bitmask tested
    against one neighbor mask per vertex. A run is extended down its
    leftmost branch, taking the lowest candidate at each step; the internal
    count rises by one exactly when the parent is the last discovered
    vertex, the only stack vertex without a child. A frame exists only
    where a step had other candidates: (parent, candidates not yet taken,
    discovered set before the step, internal count after it, length of
    `order` before it). After a run the walk resumes at the deepest frame:
    it cuts `order` back to the stored length, takes the next candidate and
    keeps the frame while candidates remain. The frames sit on an explicit
    stack, so a long path does not exhaust Python's recursion limit.
    """
    n = g.vertex_count
    nb = [0] * n
    for v, av in enumerate(g.adjacency):
        for u in av:
            nb[v] |= 1 << u
    full = (1 << n) - 1
    parent: list[int | None] = [None] * n
    frames: list[tuple[int, int, int, int, int]] = []
    for root in range(n):
        parent[root] = None
        order = [root]
        seen = 1 << root
        internal = 0
        while True:
            if seen == full:
                yield root, parent, order, internal
                if not frames:
                    break
                v, left, seen, internal, size = frames.pop()
                del order[size:]
            else:
                v = order[-1]
                while v is not None:
                    left = nb[v] & ~seen
                    if left:
                        break
                    v = parent[v]
                else:
                    return  # the run stalled before it spans: g is disconnected
                internal += v == order[-1]
            low = left & -left
            if left != low:
                frames.append((v, left ^ low, seen, internal, len(order)))
            w = low.bit_length() - 1
            parent[w] = v
            order.append(w)
            seen |= low


def dfs_runs(g: Graph, *, limit: int) -> Iterator[tuple[int, list[int | None], list[int], int]]:
    """Every complete DFS execution of g from every root, roots ascending.

    Yields the live (root, parent, order, internal) state of each run, which
    the consumer must copy to keep (see `_forced_runs`). A plain function,
    so it checks at the call, not on the first step: a non-positive `limit`
    is a ValueError, and a graph above `limit` vertices an OracleLimitError.
    """
    if limit <= 0:
        raise ValueError("oracle limit must be positive")
    if g.vertex_count > limit:
        raise OracleLimitError(f"graph has {g.vertex_count} vertices, oracle limit is {limit}")
    return _forced_runs(g)
