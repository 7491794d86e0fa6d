"""Shared test fixtures: small graph builders, brute-force oracles, corpora.

The oracles here are deliberately independent of the library paths they
check (plain subset enumeration, union-find connectivity, networkx for
cross-checks). The reference implementations of the tree oracle (the
forced-order reconstruction, the distinct-tree enumeration and the
internal-count profile) use only the package's public names.
"""
from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable, Iterator

from hypothesis import strategies as st

from lineal import (
    ORACLE_LIMIT_DEFAULT,
    Graph,
    RootedSpanningTree,
    dfs_runs,
    extension_all_internal,
    extension_all_leaves,
)
from lineal.generate import gnp_graph


def graph(n, edges):
    return Graph(n, edges)


P3 = Graph(3, [(0, 1), (1, 2)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
STAR3 = Graph(4, [(0, 1), (0, 2), (0, 3)])  # K_{1,3}, center 0
STAR5 = Graph(6, [(0, i) for i in range(1, 6)])  # K_{1,5}, center 0
STAR5_AT_5 = Graph(6, [(i, 5) for i in range(5)])  # K_{1,5}, center 5
NET = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])  # triangle, a pendant on each corner
DISCONNECTED = [
    Graph(2, []),
    Graph(3, [(0, 1)]),
    Graph(4, [(0, 1), (2, 3)]),
    Graph(5, [(0, 1), (0, 2), (0, 3)]),
    Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]),
]


# ---------------------------------------------------------------------------
# Brute-force oracles.

def bf_is_connected(g: Graph) -> bool:
    """Union-find connectivity, independent of the library's BFS."""
    if g.vertex_count <= 1:
        return True
    par = list(range(g.vertex_count))

    def find(x):
        while par[x] != x:
            par[x] = par[par[x]]
            x = par[x]
        return x

    for u, v in g.edges():
        par[find(u)] = find(v)
    roots = {find(v) for v in range(g.vertex_count)}
    return len(roots) == 1


def reference_label_ids(labels, n: int) -> dict[str, int] | None:
    """Each written label's vertex id when every label is the canonical
    numeral str(int(label)) of an integer in 0..n-1; None when the labels
    are opaque."""
    ids = {}
    for lab in labels:
        try:
            value = int(lab)
        except ValueError:
            return None
        if str(value) != lab or not 0 <= value < n:
            return None
        ids[lab] = value
    return ids


def is_vertex_cover(g: Graph, s) -> bool:
    ss = set(s)
    return all(u in ss or v in ss for u, v in g.edges())


def bf_min_cover(g: Graph) -> frozenset[int]:
    """Smallest vertex cover by ascending subset size (fine up to n ~ 12)."""
    verts = range(g.vertex_count)
    for size in range(g.vertex_count + 1):
        for cand in combinations(verts, size):
            if is_vertex_cover(g, cand):
                return frozenset(cand)
    raise AssertionError("unreachable")


def bf_minimal_covers(g: Graph) -> list[frozenset[int]]:
    """All inclusion-minimal vertex covers (subset enumeration, n <= 10 or so)."""
    n = g.vertex_count
    out = []
    for mask in range(1 << n):
        s = {v for v in range(n) if mask >> v & 1}
        if not is_vertex_cover(g, s):
            continue
        if any(is_vertex_cover(g, s - {v}) for v in s):
            continue
        out.append(frozenset(s))
    return out


def bf_first_accepted_tuple(g: Graph, k: int, dual_min: bool) -> tuple[int, ...] | None:
    """Lexicographically first ordered k-tuple whose forced DFS tree extends
    keeping the tuple internal (dual-min) or everything else a leaf (dual-max).

    Walks every permutation in order, with no pruning at all.
    """
    extension = extension_all_internal if dual_min else extension_all_leaves
    for tup in permutations(range(g.vertex_count), k):
        t = tree_respecting_ordering(g, tup)
        if t is not None and extension(g, t) is not None:
            return tup
    return None


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
    return RootedSpanningTree(root, parent)


def enumerate_dfs_trees(
    g: Graph, *, limit: int = ORACLE_LIMIT_DEFAULT
) -> Iterator[tuple[RootedSpanningTree, tuple[int, ...]]]:
    """Every DFS tree of g over every root, each (root, parent map) exactly
    once, next to the discovery order of the first run that builds it.

    Deduplicates `dfs_runs`, since different orders can produce identical
    trees. A plain function, so `dfs_runs` checks `limit` at the call.
    """

    def distinct(runs):
        seen: set[tuple[int | None, ...]] = set()
        for root, parent, order, _ in runs:
            key = tuple(parent)
            if key not in seen:
                seen.add(key)
                yield RootedSpanningTree(root, {v: parent[v] for v in order}), tuple(order)

    return distinct(dfs_runs(g, limit=limit))


def internal_profile(g: Graph, *, limit: int = ORACLE_LIMIT_DEFAULT) -> frozenset[int]:
    """The set of internal-vertex counts realized by DFS trees of g.

    Ground truth for checking that reductions preserve achievable counts
    exactly. Subject to the same size limit as `dfs_runs`.
    """
    return frozenset(internal for _, _, _, internal in dfs_runs(g, limit=limit))


def reference_dfs_runs(g: Graph, root: int) -> list[tuple[dict, tuple[int, ...]]]:
    """Every complete DFS run from `root` as (parent map, discovery order).

    Plain recursion: each step branches, in ascending order, over the
    undiscovered neighbors of the deepest stack vertex that has any. Runs
    come out in branching order, repeats included (different orders can
    build the same tree); a disconnected graph gives none.
    """
    n = g.vertex_count
    runs = []

    def grow(parent, order, stack):
        if len(order) == n:
            runs.append((dict(parent), tuple(order)))
            return
        while stack:
            cand = sorted(w for w in g.adjacency[stack[-1]] if w not in parent)
            if cand:
                break
            stack = stack[:-1]
        for w in cand:  # empty when the stack ran out
            parent[w] = stack[-1]
            grow(parent, order + [w], stack + [w])
            del parent[w]

    grow({root: None}, [root], [root])
    return runs


def reference_all_internal_tree(g: Graph, t: RootedSpanningTree) -> RootedSpanningTree:
    """The tree that `extension_all_internal` builds from t, where it builds one.

    The components of g minus t's covered set, by ascending minimum, each
    hang below the deepest vertex of their neighbourhood in t, via a plain
    recursive DFS of the component (neighbours ascending) from its lowest
    vertex adjacent to that anchor. The parent map lists t's vertices
    first, then each component's in discovery order.
    """
    inside = t.parent
    adj = g.adjacency

    def depth(v):
        return 0 if inside[v] is None else 1 + depth(inside[v])

    comps, seen = [], set()
    for s in range(g.vertex_count):
        if s in inside or s in seen:
            continue
        comp, frontier = {s}, [s]
        while frontier:
            for w in adj[frontier.pop()]:
                if w not in inside and w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        comps.append(comp)
    parent = dict(inside)

    def visit(v, comp):
        for w in adj[v]:
            if w in comp and w not in parent:
                parent[w] = v
                visit(w, comp)

    for comp in comps:
        anchor = max({u for w in comp for u in adj[w] if u in inside}, key=depth)
        start = min(w for w in comp if anchor in adj[w])
        parent[start] = anchor
        visit(start, comp)
    return RootedSpanningTree(t.root, parent)


def all_partial_trees(g: Graph):
    """Every rooted subtree of g: a connected vertex subset, a spanning tree
    of its induced subgraph, and a choice of root."""
    n = g.vertex_count
    all_edges = list(g.edges())
    for r in range(1, n + 1):
        for subset in combinations(range(n), r):
            sub = set(subset)
            if r == 1:
                yield RootedSpanningTree(subset[0], {subset[0]: None})
                continue
            inner = [(u, v) for u, v in all_edges if u in sub and v in sub]
            if len(inner) < r - 1:
                continue
            for tree_edges in combinations(inner, r - 1):
                par = {v: v for v in sub}

                def find(x):
                    while par[x] != x:
                        par[x] = par[par[x]]
                        x = par[x]
                    return x

                ok = True
                for u, v in tree_edges:
                    ru, rv = find(u), find(v)
                    if ru == rv:
                        ok = False
                        break
                    par[ru] = rv
                if not ok:
                    continue
                adj = {v: [] for v in sub}
                for u, v in tree_edges:
                    adj[u].append(v)
                    adj[v].append(u)
                for root in subset:
                    parent = {root: None}
                    stack = [root]
                    while stack:
                        x = stack.pop()
                        for y in adj[x]:
                            if y not in parent:
                                parent[y] = x
                                stack.append(y)
                    yield RootedSpanningTree(root, parent)


# ---------------------------------------------------------------------------
# Corpora.

_atlas_cache: dict[int, list[Graph]] = {}


def atlas_connected(max_n: int = 6) -> list[Graph]:
    """All connected graphs on 1..max_n vertices, one per isomorphism class."""
    if max_n not in _atlas_cache:
        import networkx as nx
        from networkx.generators.atlas import graph_atlas_g

        out = []
        for G in graph_atlas_g():
            n = G.number_of_nodes()
            if n < 1 or n > max_n:
                continue
            if n > 1 and not nx.is_connected(G):
                continue
            out.append(Graph(n, [tuple(e) for e in G.edges()]))
        _atlas_cache[max_n] = out
    return _atlas_cache[max_n]


def random_connected(ns, per_n: int, seed0: int = 20240) -> list[Graph]:
    """Seeded connected G(n, p) samples, alternating sparse and denser."""
    out = []
    for n in ns:
        for i in range(per_n):
            p = 0.3 if i % 2 == 0 else 0.45
            out.append(gnp_graph(n, p, seed=seed0 + 1000 * n + i))
    return out


_profile_cache: dict[Graph, frozenset[int]] = {}


def profile_of(g: Graph, limit: int = 10) -> frozenset[int]:
    got = _profile_cache.get(g)
    if got is None:
        got = internal_profile(g, limit=limit)
        _profile_cache[g] = got
    return got


# ---------------------------------------------------------------------------
# Hypothesis strategy: connected graphs built around a random spanning tree.

@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.add((u, v))
    extra = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    for flag, (u, v) in zip(extra, combinations(range(n), 2)):
        if flag:
            edges.add((u, v))
    return Graph(n, sorted(edges))


@st.composite
def disconnected_graphs(draw, max_n: int = 8):
    """Two or more connected pieces, their vertex ids shuffled together, so
    vertex 0 lies in any of them."""
    pieces = [draw(connected_graphs(max_n=max_n - 1))]
    while True:
        room = max_n - sum(p.vertex_count for p in pieces)
        pieces.append(draw(connected_graphs(max_n=room)))
        if room == pieces[-1].vertex_count or not draw(st.booleans()):
            break
    n = sum(p.vertex_count for p in pieces)
    ids = draw(st.permutations(range(n)))
    edges, offset = [], 0
    for p in pieces:
        edges += [(ids[offset + u], ids[offset + v]) for u, v in p.edges()]
        offset += p.vertex_count
    return Graph(n, edges)
