"""The benchmark's own graph reasoning, independent of the program under test.

Nothing here imports ``lineal``. Graphs are plain adjacency lists over dense
ids ``0 .. n-1``. The functions pick each instance's k, certify its expected
answer, and check every witness the program prints.

Certificates used for expected answers:

* a DFS tree found here with at least k internal vertices proves dual-min yes;
* a matching with more than k edges proves dual-max no, because the internal
  vertices of a DFS tree form a vertex cover (two leaves are never adjacent);
* more than k vertices of degree above k prove dual-max no for the same
  reason: a cover of size at most k must contain each of them;
* a vertex cover C bounds every DFS tree to at most 2|C| internal vertices,
  because an internal vertex outside C has all its children in C;
* for graphs of at most 10 vertices, the exact set of achievable internal
  counts (``internal_profile``) decides every variant.
"""
from __future__ import annotations

import random


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for row in adj:
        row.sort()
    return adj


def first_dfs_internal(adj: list[list[int]], root: int = 0) -> int:
    """Internal count of the DFS from `root` that always takes the smallest unvisited neighbour."""
    seen = [False] * len(adj)
    seen[root] = True
    has_child = set()
    stack = [(root, 0)]
    while stack:
        v, i = stack.pop()
        row = adj[v]
        while i < len(row) and seen[row[i]]:
            i += 1
        if i == len(row):
            continue
        w = row[i]
        stack.append((v, i + 1))
        seen[w] = True
        has_child.add(v)
        stack.append((w, 0))
    return len(has_child)


def random_dfs_internal(adj: list[list[int]], rng: random.Random) -> int:
    """Internal count of a DFS from a random root with random neighbour choices."""
    n = len(adj)
    root = rng.randrange(n)
    seen = [False] * n
    seen[root] = True
    has_child = set()
    stack = [root]
    while stack:
        v = stack[-1]
        fresh = [w for w in adj[v] if not seen[w]]
        if not fresh:
            stack.pop()
            continue
        w = rng.choice(fresh)
        seen[w] = True
        has_child.add(v)
        stack.append(w)
    return len(has_child)


def found_internal_at_least(adj: list[list[int]], k: int, rng: random.Random, tries: int) -> bool:
    """True when one of `tries` random DFS trees has at least k internal vertices."""
    return any(random_dfs_internal(adj, rng) >= k for _ in range(tries))


def greedy_matching_size(adj: list[list[int]]) -> int:
    """Size of the maximal matching taken greedily over edges in ascending (u, v) order."""
    matched = [False] * len(adj)
    size = 0
    for u, row in enumerate(adj):
        for v in row:
            if u < v and not matched[u] and not matched[v]:
                matched[u] = matched[v] = True
                size += 1
    return size


def high_degree_count(adj: list[list[int]], k: int) -> int:
    """Vertices of degree above k; more than k of them rule out a vertex cover of size k."""
    return sum(1 for row in adj if len(row) > k)


def is_vertex_cover(adj: list[list[int]], cover) -> bool:
    cov = set(cover)
    return all(u in cov or v in cov for u, row in enumerate(adj) for v in row)


def internal_profile(adj: list[list[int]]) -> tuple[frozenset[int], int]:
    """Achievable internal-vertex counts over all DFS runs, and the number of runs.

    Memoised over (visited set, stack vertices that still have an unvisited
    neighbour, which of those already have a child): the rest of a run
    depends on nothing else. Meant for n <= 10.
    """
    n = len(adj)
    nbr = [sum(1 << w for w in row) for row in adj]
    memo: dict[tuple[int, tuple[int, ...], int], tuple[int, int]] = {}

    def go(visited: int, stack: tuple[int, ...], parents: int) -> tuple[int, int]:
        # A stack vertex with no unvisited neighbour only waits to be popped.
        live = tuple(v for v in stack if nbr[v] & ~visited)
        if not live:
            return 1, 1  # count set {0}, one run
        stack = live
        parents &= sum(1 << v for v in live)
        key = (visited, stack, parents)
        hit = memo.get(key)
        if hit is not None:
            return hit
        top = stack[-1]
        gain = 0 if parents >> top & 1 else 1
        counts = runs = 0
        fresh = nbr[top] & ~visited
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            w = low.bit_length() - 1
            c, r = go(visited | low, stack + (w,), parents | (1 << top))
            counts |= c << gain
            runs += r
        memo[key] = (counts, runs)
        return counts, runs

    total = runs = 0
    for root in range(n):
        c, r = go(1 << root, (root,), 0)
        total |= c
        runs += r
    return frozenset(i for i in range(n + 1) if total >> i & 1), runs


def answer_from_profile(profile: frozenset[int], n: int, variant: str, k: int) -> bool:
    leaves = {n - i for i in profile}
    return {
        "min-llt": any(x <= k for x in leaves),
        "max-llt": any(x >= k for x in leaves),
        "dual-min": any(i >= k for i in profile),
        "dual-max": any(i <= k for i in profile),
    }[variant]


def witness_error(adj: list[list[int]], labels: list[str], witness, variant: str, k: int) -> str | None:
    """Why `witness` (root plus parent map, in labels) is not a valid yes-certificate, or None.

    Checks that the parent map is a spanning tree of the graph, that every
    non-tree edge joins an ancestor and a descendant, and that the tree's
    internal or leaf count meets k for the variant.
    """
    n = len(adj)
    if not isinstance(witness, dict) or "root" not in witness or "parents" not in witness:
        return "witness lacks root or parents"
    ids = {lab: i for i, lab in enumerate(labels)}
    parents = witness["parents"]
    if not isinstance(parents, dict) or len(parents) != n:
        return "parent map does not cover every vertex"
    parent = [-2] * n
    for v_lab, p_lab in parents.items():
        v = ids.get(str(v_lab))
        if v is None:
            return f"unknown vertex {v_lab!r}"
        if p_lab is None:
            parent[v] = -1
            continue
        p = ids.get(str(p_lab))
        if p is None:
            return f"unknown parent {p_lab!r}"
        parent[v] = p
    root = ids.get(str(witness["root"]))
    if root is None or parent[root] != -1:
        return "root is missing or has a parent"
    if parent.count(-1) != 1 or -2 in parent:
        return "parent map does not have exactly one root"
    edge_sets = [set(row) for row in adj]
    children: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p >= 0:
            if p not in edge_sets[v]:
                return f"tree edge {labels[p]}-{labels[v]} is not a graph edge"
            children[p].append(v)
    enter = [-1] * n
    leave = [-1] * n
    clock = 0
    stack = [(root, 0)]
    enter[root] = clock
    while stack:
        v, i = stack.pop()
        if i < len(children[v]):
            stack.append((v, i + 1))
            w = children[v][i]
            clock += 1
            enter[w] = clock
            stack.append((w, 0))
        else:
            clock += 1
            leave[v] = clock
    if -1 in enter:
        return "parent map has a cycle or is not connected to the root"
    for u, row in enumerate(adj):
        for v in row:
            if u < v and not (
                enter[u] <= enter[v] <= leave[u] or enter[v] <= enter[u] <= leave[v]
            ):
                return f"edge {labels[u]}-{labels[v]} joins two vertices on different branches"
    internal = sum(1 for c in children if c)
    leaves = n - internal
    ok = {
        "min-llt": leaves <= k,
        "max-llt": leaves >= k,
        "dual-min": internal >= k,
        "dual-max": internal <= k,
    }[variant]
    if not ok:
        return f"tree has {internal} internal vertices, which does not meet {variant} k={k}"
    return None


def twin_share(adj) -> float:
    """Share of vertices whose open neighbourhood equals another vertex's."""
    if not adj:
        return 0.0
    classes: dict[tuple[int, ...], int] = {}
    for row in adj:
        key = tuple(row)
        classes[key] = classes.get(key, 0) + 1
    return sum(c for c in classes.values() if c > 1) / len(adj)


def read_graph(path: str) -> tuple[list[str], list[list[int]]]:
    """Labels and adjacency of an edge-list or DIMACS file, read without the program's parser.

    Labels map to ids in any consistent way; witnesses name vertices by label.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip()]
    if rows[0][0] == "p":
        n = int(rows[0][2])
        labels = [str(i) for i in range(1, n + 1)]
        pairs = [(int(r[1]) - 1, int(r[2]) - 1) for r in rows[1:] if r[0] == "e"]
        return labels, adjacency(n, pairs)
    n = int(rows[0][0])
    ids: dict[str, int] = {}
    numeric = all(tok.isdigit() and int(tok) < n for r in rows[1:] for tok in r)
    if numeric:
        labels = [str(i) for i in range(n)]
        ids = {lab: i for i, lab in enumerate(labels)}
    else:
        for r in rows[1:]:
            for tok in r:
                ids.setdefault(tok, len(ids))
        labels = sorted(ids, key=ids.__getitem__)
        if len(labels) != n:
            raise ValueError(f"{path}: {len(labels)} labels for {n} vertices")
    return labels, adjacency(n, [(ids[a], ids[b]) for a, b in rows[1:]])
