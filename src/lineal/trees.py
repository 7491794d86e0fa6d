"""Rooted spanning trees, DFS-tree predicates, and the exhaustive tree oracle.

A rooted spanning tree T of a graph G is a DFS tree iff every edge of G not
in T joins an ancestor-descendant pair of T. The predicates here also cover
partial trees (covering a subset of V(G)). Three builders extend a partial
tree to a full DFS tree, or say that none exists: `extension` keeps only
the partial tree, `extension_all_internal` also keeps every covered vertex
internal and `extension_all_leaves` makes every uncovered vertex a leaf.
The tuple-guessing solvers call the last two on each complete tuple.

The exhaustive oracle (`enumerate_dfs_trees`, `internal_profile`, and
`solve.solve_exact_oracle` outside this module) walks every DFS execution
from every root through `dfs_runs`, which yields each run with its root and
internal-vertex count. `dfs_runs` holds the one size check: it refuses
graphs above a vertex limit, ORACLE_LIMIT_DEFAULT unless the caller raises
it.

Everything in this module is a pure function of immutable inputs; the
enumeration generators are single-consumer but independent enumerations may
run concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    (a partial tree). ``order`` records one discovery order that produces
    the tree; it is provenance only and does not take part in equality.
    """

    root: int
    parent: dict[int, int | None]
    order: tuple[int, ...] | None = field(default=None, compare=False)

    def internal_vertices(self) -> frozenset[int]:
        """Covered vertices with at least one child.

        A one-vertex tree has no internal vertices: a root without
        descendants is a leaf.
        """
        return frozenset(p for p in self.parent.values() if p is not None)

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
                clock += 1
                stack.append((child, iter(kids[child])))
                break
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
    if len(t.parent) != g.vertex_count or any(
        not (0 <= v < g.vertex_count) for v in t.parent
    ):
        raise InvalidTreeError("tree does not span the graph")
    return dfs_tree_violation(g, t) is None


def tree_respecting_ordering(
    g: Graph, ordering: Iterable[int]
) -> RootedSpanningTree | None:
    """The unique DFS tree discovered exactly in `ordering`, or None if there is none.

    Operates on the subgraph induced by the ordering's vertex set. Simulates
    the only possible DFS run: the stack pops while its top has no
    undiscovered neighbor inside the set, and the next vertex must attach to
    the surviving top. Linear in vertices plus edges.
    """
    order = tuple(ordering)
    if not order:
        raise ValueError("ordering must be nonempty")
    members = set(order)
    if len(members) != len(order):
        raise ValueError("ordering has repeated vertices")
    for v in order:
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"vertex {v} out of range")
    root = order[0]
    parent: dict[int, int | None] = {root: None}
    stack = [root]
    adj = g.adjacency
    scan = {}  # per-vertex resume position into its adjacency list
    for w in order[1:]:
        while stack:
            v = stack[-1]
            av = adj[v]
            i = scan.get(v, 0)
            while i < len(av) and (av[i] in parent or av[i] not in members):
                i += 1
            scan[v] = i
            if i < len(av):
                break
            stack.pop()
        if not stack or not g.adjacent(stack[-1], w):
            return None
        parent[w] = stack[-1]
        stack.append(w)
    return RootedSpanningTree(root, parent, order)


def dfs_any(g: Graph, root: int) -> RootedSpanningTree:
    """The DFS tree from `root` exploring neighbors in ascending id order."""
    n = g.vertex_count
    if not (0 <= root < n):
        raise ValueError(f"root {root} out of range")
    adj = g.adjacency
    seen = bytearray(n)
    seen[root] = 1
    parent: dict[int, int | None] = {root: None}
    order = [root]
    stack = [(root, iter(adj[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if not seen[w]:
                seen[w] = 1
                parent[w] = v
                order.append(w)
                stack.append((w, iter(adj[w])))
                break
        else:
            stack.pop()
    if len(order) != n:
        raise ValueError("graph is disconnected; DFS covers only one component")
    return RootedSpanningTree(root, parent, tuple(order))


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
    adjacent to that anchor; None when some neighborhood is not a chain.
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
        stack = [[start, 0]]
        seen = {start}
        while stack:
            v, i = stack[-1]
            av = adj[v]
            while i < len(av) and (av[i] not in comp or av[i] in seen):
                i += 1
            if i == len(av):
                stack.pop()
                continue
            stack[-1][1] = i + 1
            w = av[i]
            parent[w] = v
            seen.add(w)
            stack.append([w, 0])
    return RootedSpanningTree(t.root, parent)


def extension(g: Graph, t: RootedSpanningTree) -> RootedSpanningTree | None:
    """A DFS tree of g with t's root that contains t, or None when there is none.

    One exists iff t is a DFS tree of the subgraph induced on its covered
    set and the neighborhood of every outside component is a nonempty set
    on one root-to-leaf path of t. Raises InvalidTreeError when t is not a
    tree over g's edges.
    """
    idx = _indexed(g, t)
    return None if idx is None else _hang_components(g, t, idx)


def extension_all_internal(g: Graph, t: RootedSpanningTree) -> RootedSpanningTree | None:
    """A DFS tree of g that contains t with every covered vertex internal, or None.

    Adds to `extension` that every leaf of t has a neighbor outside the
    covered set: the component holding that neighbor hangs below the leaf or
    below a descendant of it, so the leaf gains a child.
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

    One exists iff t extends and the uncovered set is independent with each
    uncovered vertex's (nonempty) neighborhood on one root-to-leaf path of
    t; each uncovered vertex then goes under its deepest neighbor.
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
# Exhaustive enumeration oracle.

def _forced_runs(g: Graph):
    """Every complete DFS execution from every root, one per discovery order.

    Yields the live (root, parent, order, internal) state of each run, roots
    ascending: `parent` is a list indexed by vertex (None at the root),
    `order` the discovery order and `internal` the run's number of vertices
    with a child. Consumers must copy what they keep. Distinct runs can
    build the same tree, so callers wanting distinct trees must deduplicate;
    `tuple(parent)` identifies the tree, root included. Nothing is yielded
    when g is disconnected.

    Each step branches over the undiscovered neighbors, ascending, of the
    deepest stack vertex that has any. The DFS stack is always the tree path
    from the root to the last discovered vertex, so it is walked through
    `parent` rather than kept. The discovered set is an int bitmask tested
    against one neighbor mask per vertex. One frame per discovered vertex
    after the root holds its parent, the mask of candidates not yet taken,
    and the discovered set and internal count the run had on opening it;
    the internal count rises by one exactly when the parent is the last
    discovered vertex, the only stack vertex without a child. The frames
    sit on an explicit stack, so a long path does not exhaust Python's
    recursion limit.
    """
    n = g.vertex_count
    nb = [0] * n
    for v, av in enumerate(g.adjacency):
        for u in av:
            nb[v] |= 1 << u
    full = (1 << n) - 1
    parent: list[int | None] = [None] * n
    frames: list[list] = []  # [parent, candidates left, seen before, internal after]
    for root in range(n):
        parent[root] = None
        order = [root]
        seen = 1 << root
        internal = 0
        while True:
            if seen == full:
                yield root, parent, order, internal
            else:
                v = order[-1]
                while v is not None:
                    left = nb[v] & ~seen
                    if left:
                        frames.append([v, left, seen, internal + (v == order[-1])])
                        order.append(v)  # placeholder for the frame's candidate
                        break
                    v = parent[v]
            while frames:
                frame = frames[-1]
                left = frame[1]
                if left:
                    low = left & -left
                    frame[1] = left ^ low
                    w = low.bit_length() - 1
                    parent[w] = frame[0]
                    order[-1] = w
                    seen = frame[2] | low
                    internal = frame[3]
                    break
                frames.pop()
                order.pop()
            else:
                break


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


def enumerate_dfs_trees(
    g: Graph, *, limit: int = ORACLE_LIMIT_DEFAULT
) -> Iterator[RootedSpanningTree]:
    """Every DFS tree of g over every root, each (root, parent map) exactly once.

    Branches over all neighbor-exploration orders and deduplicates, since
    different orders can produce identical trees. Refuses graphs larger than
    `limit` vertices rather than running for hours.
    """

    def distinct(runs):
        seen: set[tuple[int | None, ...]] = set()
        for root, parent, order, _ in runs:
            key = tuple(parent)
            if key not in seen:
                seen.add(key)
                yield RootedSpanningTree(root, {v: parent[v] for v in order}, tuple(order))

    return distinct(dfs_runs(g, limit=limit))


def internal_profile(g: Graph, *, limit: int = ORACLE_LIMIT_DEFAULT) -> frozenset[int]:
    """The set of internal-vertex counts realized by DFS trees of g.

    Ground truth for checking that reductions preserve achievable counts
    exactly. Subject to the same size limit as enumerate_dfs_trees.
    """
    return frozenset(internal for _, _, _, internal in dfs_runs(g, limit=limit))
