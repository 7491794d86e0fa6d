from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings

from lineal import (
    AncestorIndex,
    Graph,
    InvalidTreeError,
    OracleLimitError,
    ProblemInstance,
    RootedSpanningTree,
    Variant,
    dfs_any,
    dfs_runs,
    dfs_tree_violation,
    extension_all_internal,
    extension_all_leaves,
    is_dfs_tree,
    solve_exact_oracle,
)
from lineal.generate import bounded_cover_graph, cycle_graph, gnp_graph, path_graph, star_graph

from helpers import (
    C4,
    DISCONNECTED,
    K3,
    P3,
    P4,
    STAR3,
    atlas_connected,
    connected_graphs,
    disconnected_graphs,
    enumerate_dfs_trees,
    internal_profile,
    reference_dfs_runs,
    tree_respecting_ordering,
)


tree = RootedSpanningTree


# ---------------------------------------------------------------------------
# is_dfs_tree

def test_is_dfs_tree_hamiltonian_path_on_cycle():
    assert is_dfs_tree(C4, tree(0, {0: None, 1: 0, 2: 1, 3: 2}))


def test_is_dfs_tree_rejects_cross_edge():
    t = tree(0, {0: None, 1: 0, 3: 0, 2: 3})
    assert not is_dfs_tree(C4, t)
    assert dfs_tree_violation(C4, t) == (1, 2)


def test_is_dfs_tree_complete_graph_paths():
    assert is_dfs_tree(K3, tree(2, {2: None, 0: 2, 1: 0}))


def test_is_dfs_tree_errors_on_non_spanning():
    with pytest.raises(InvalidTreeError):
        is_dfs_tree(C4, tree(0, {0: None, 1: 0}))


def test_is_dfs_tree_errors_on_broken_trees():
    with pytest.raises(InvalidTreeError):
        # parent edge that the graph does not have
        is_dfs_tree(P3, tree(0, {0: None, 2: 0, 1: 2}))
    with pytest.raises(InvalidTreeError):
        # cycle in the parent links
        AncestorIndex.build(tree(0, {0: None, 1: 2, 2: 1}))
    with pytest.raises(InvalidTreeError):
        # two parentless vertices
        AncestorIndex.build(tree(0, {0: None, 1: None}))
    with pytest.raises(InvalidTreeError, match="negative"):
        AncestorIndex.build(tree(0, {0: None, -1: 0}))


# ---------------------------------------------------------------------------
# tree_respecting_ordering (the reference reconstruction in helpers.py)

def test_ordering_fails_when_forced_adjacency_fails():
    assert tree_respecting_ordering(P3, (0, 2, 1)) is None


def test_ordering_builds_the_unique_tree():
    t = tree_respecting_ordering(P3, (1, 0, 2))
    assert t == tree(1, {1: None, 0: 1, 2: 1})
    t = tree_respecting_ordering(K3, (2, 0, 1))
    assert t == tree(2, {2: None, 0: 2, 1: 0})


def test_all_orderings_of_complete_graph_succeed():
    from itertools import permutations

    for perm in permutations(range(3)):
        assert tree_respecting_ordering(K3, perm) is not None


def test_ordering_validates_input():
    with pytest.raises(ValueError):
        tree_respecting_ordering(P3, ())
    with pytest.raises(ValueError):
        tree_respecting_ordering(P3, (0, 0, 1))
    with pytest.raises(ValueError):
        tree_respecting_ordering(P3, (0, 7))


def test_ordering_on_vertex_subset():
    # only {1, 2} take part; the rest of P4 is ignored
    t = tree_respecting_ordering(P4, (1, 2))
    assert t == tree(1, {1: None, 2: 1})


# ---------------------------------------------------------------------------
# dfs_any / internal vertices

def test_dfs_any_examples():
    t = dfs_any(STAR3, 0)
    assert t.parent == {0: None, 1: 0, 2: 0, 3: 0}
    assert t.internal_count() == 1

    t = dfs_any(STAR3, 1)
    assert t.parent == {1: None, 0: 1, 2: 0, 3: 0}
    assert t.internal_vertices() == {0, 1}

    t = dfs_any(P4, 0)
    assert t.parent == {0: None, 1: 0, 2: 1, 3: 2}
    assert t.internal_count() == 3


def test_dfs_any_covers_the_root_component():
    # on a disconnected graph the tree is partial: the root's component only
    t = dfs_any(Graph(2, []), 0)
    assert (t.root, t.parent) == (0, {0: None})
    t = dfs_any(Graph(5, [(0, 3), (1, 2), (3, 4)]), 4)
    assert t.parent == {4: None, 3: 4, 0: 3}
    assert t.internal_vertices() == {3, 4}
    with pytest.raises(ValueError):
        dfs_any(Graph(2, []), 2)


@given(connected_graphs(max_n=7))
@settings(max_examples=100, deadline=None)
def test_dfs_any_is_the_first_reference_run(g):
    # the first run takes the lowest undiscovered neighbour at every step
    for root in range(g.vertex_count):
        parent, order = reference_dfs_runs(g, root)[0]
        t = dfs_any(g, root)
        assert t.root == root and list(t.parent.items()) == list(parent.items())
        assert tuple(t.parent) == order  # the parent map lists the discovery order


def test_internal_vertices_examples():
    assert tree(0, {0: None, 1: 0, 2: 1, 3: 2}).internal_count() == 3
    assert tree(0, {0: None, 1: 0, 2: 0, 3: 0}).internal_count() == 1
    # a lone root has no descendants, so it is a leaf
    single = tree(5, {5: None})
    assert single.internal_vertices() == frozenset()
    assert single.leaf_vertices() == {5}


# ---------------------------------------------------------------------------
# ancestor index / chains

def test_chain_on_path_tree():
    t = tree(0, {0: None, 1: 0, 2: 1, 3: 2})
    idx = AncestorIndex.build(t)
    assert idx.chain_end({0, 2, 3}) == 3
    assert idx.chain_end({1}) == 1
    # an empty set has no deepest vertex
    assert idx.chain_end(()) is None


def test_chain_rejects_siblings():
    idx = AncestorIndex.build(tree(0, {0: None, 1: 0, 2: 0, 3: 0}))
    assert idx.chain_end({1, 2}) is None
    assert idx.chain_end({0, 3}) == 3


def test_ancestor_semantics():
    idx = AncestorIndex.build(tree(0, {0: None, 1: 0, 2: 1, 3: 1}))
    assert idx.chain_end({0, 3}) == 3
    assert idx.chain_end({2, 3}) is None
    assert idx.chain_end({1}) == 1
    assert idx.chain_end({0, 1, 2}) == 2


# ---------------------------------------------------------------------------
# extendability

def test_extendable_all_internal_examples():
    assert extension_all_internal(C4, tree(0, {0: None, 1: 0, 2: 1})) is not None
    assert extension_all_internal(P4, tree(1, {1: None, 2: 1})) is not None
    # spanning trees cannot gain children for their leaves
    assert extension_all_internal(C4, dfs_any(C4, 0)) is None


def test_extendable_all_leaves_examples():
    assert extension_all_leaves(STAR3, tree(0, {0: None})) is not None
    assert extension_all_leaves(P4, tree(1, {1: None, 2: 1})) is not None
    # C4 minus one vertex is not independent
    assert extension_all_leaves(C4, tree(0, {0: None})) is None


# ---------------------------------------------------------------------------
# the oracle walk, and the reference enumeration and profile built on it

def test_enumerate_k3():
    trees = [t for t, _ in enumerate_dfs_trees(K3)]
    assert len(trees) == 6
    assert {t.internal_count() for t in trees} == {2}
    assert len({(t.root, tuple(sorted(t.parent.items()))) for t in trees}) == 6


def test_enumerate_p3():
    trees = [t for t, _ in enumerate_dfs_trees(P3)]
    assert len(trees) == 3
    assert sorted(t.internal_count() for t in trees) == [1, 2, 2]


def test_enumerate_single_vertex():
    trees = [t for t, _ in enumerate_dfs_trees(Graph(1, []))]
    assert len(trees) == 1
    assert trees[0].internal_count() == 0


def test_enumerate_refuses_large_graphs():
    big = Graph(11, [(i, i + 1) for i in range(10)])
    with pytest.raises(OracleLimitError):
        enumerate_dfs_trees(big)
    with pytest.raises(OracleLimitError):
        internal_profile(big)
    # the limit is a runtime parameter
    assert len(internal_profile(big, limit=11)) > 0


def test_dfs_runs_checks_its_limit_at_once():
    for limit in (0, -1):
        for oracle in (dfs_runs, enumerate_dfs_trees, internal_profile):
            with pytest.raises(ValueError, match="positive"):
                oracle(P3, limit=limit)
    with pytest.raises(OracleLimitError, match="graph has 3 vertices, oracle limit is 2"):
        dfs_runs(P3, limit=2)


def _assert_walks_like_reference(g):
    """dfs_runs yields the reference's runs, run for run: the same root,
    tree, discovery order and internal count, in the same order."""
    n = g.vertex_count
    expected = [
        (root, parent, order, len({p for p in parent.values() if p is not None}))
        for root in range(n)
        for parent, order in reference_dfs_runs(g, root)
    ]
    got = [
        (root, {v: parent[v] for v in order}, tuple(order), internal)
        for root, parent, order, internal in dfs_runs(g, limit=n)
    ]
    assert got == expected


# Long forced stretches before a branch, so a resumed run cuts `order` back
# past vertices that were discovered with no other candidate.
SPIDER = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])  # centre 0, 3 legs of length 2


def _complete(n):
    return Graph(n, list(combinations(range(n), 2)))


def test_dfs_runs_walks_every_root_in_the_reference_order():
    corpus = atlas_connected(5) + DISCONNECTED + [
        path_graph(8),
        cycle_graph(8),
        SPIDER,
        _complete(6),
        bounded_cover_graph(10, 3, 0.5, seed=3),
        gnp_graph(9, 0.5, seed=4),
    ]
    for g in corpus:
        _assert_walks_like_reference(g)


@given(connected_graphs(max_n=7) | disconnected_graphs(max_n=7))
@settings(max_examples=100, deadline=None)
def test_dfs_runs_matches_the_reference_walk(g):
    _assert_walks_like_reference(g)


@pytest.mark.parametrize(
    "build, ns, runs",
    [
        (_complete, range(1, 8), factorial),
        (cycle_graph, range(3, 11), lambda n: 2 * n),
        (path_graph, range(2, 11), lambda n: 2 * n - 2),
        (star_graph, range(2, 9), lambda n: 2 * factorial(n - 1)),
    ],
    ids=["complete", "cycle", "path", "star"],
)
def test_dfs_runs_counts_in_closed_form(build, ns, runs):
    # counted apart from the reference walk: from each root of K_n every order
    # of the others is a run; a cycle runs each way round from every root; a
    # path's ends run once and its inner vertices twice; a star gives every
    # order of the leaves from the centre and every order of the other leaves
    # from each leaf
    for n in ns:
        assert sum(1 for _ in dfs_runs(build(n), limit=n)) == runs(n), n


def test_profile_examples():
    assert internal_profile(C4) == {3}
    assert internal_profile(STAR3) == {1, 2}
    assert internal_profile(K3) == {2}
    assert internal_profile(Graph(0, [])) == frozenset()


# Each variant's yes condition on a tree's (internal, leaf) counts, stated
# apart from Variant.internal_bounds.
_QUALIFIES = {
    Variant.MIN_LLT: lambda internal, leaves, k: leaves <= k,
    Variant.MAX_LLT: lambda internal, leaves, k: leaves >= k,
    Variant.DUAL_MIN_LLT: lambda internal, leaves, k: internal >= k,
    Variant.DUAL_MAX_LLT: lambda internal, leaves, k: internal <= k,
}


def test_enumeration_follows_the_reference_order():
    corpus = atlas_connected(6) + [
        gnp_graph(8, 0.5, seed=1), gnp_graph(8, 0.7, seed=2), gnp_graph(9, 0.4, seed=3)
    ] + DISCONNECTED
    for g in corpus:
        n = g.vertex_count
        runs = []  # (root, parent, order, internal) over every root, in walk order
        for root in range(n):
            for parent, order in reference_dfs_runs(g, root):
                internal = len({p for p in parent.values() if p is not None})
                runs.append((root, parent, order, internal))
        distinct, seen = [], set()
        for root, parent, order, _ in runs:
            key = (root, tuple(sorted(parent.items())))
            if key not in seen:
                seen.add(key)
                distinct.append((root, parent, order))
        got = [(t.root, t.parent, order) for t, order in enumerate_dfs_trees(g)]
        assert got == distinct
        assert internal_profile(g) == {internal for *_, internal in runs}
        for variant, qualifies in _QUALIFIES.items():
            for k in range(n + 2):
                first = next(
                    (run[:2] for run in runs if qualifies(run[3], n - run[3], k)), None
                )
                decision = solve_exact_oracle(ProblemInstance(g, k, variant))
                assert decision.answer is (first is not None)
                w = decision.witness
                assert (None if w is None else (w.root, w.parent)) == first


def test_every_enumerated_tree_is_a_dfs_tree_and_round_trips():
    for g in atlas_connected(5):
        for t, order in enumerate_dfs_trees(g):
            assert is_dfs_tree(g, t)
            assert tree_respecting_ordering(g, order) == t


def test_leaves_of_dfs_trees_are_never_adjacent():
    for g in atlas_connected(5):
        for t, _ in enumerate_dfs_trees(g):
            leaves = sorted(t.leaf_vertices())
            for i, u in enumerate(leaves):
                for v in leaves[i + 1 :]:
                    assert not g.adjacent(u, v)


@given(connected_graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_internal_set_is_a_vertex_cover(g):
    for t, _ in enumerate_dfs_trees(g):
        internal = t.internal_vertices()
        for u, v in g.edges():
            assert u in internal or v in internal


@given(connected_graphs(max_n=6))
@settings(max_examples=25, deadline=None)
def test_profile_matches_enumeration_definition(g):
    by_enumeration = frozenset(t.internal_count() for t, _ in enumerate_dfs_trees(g))
    assert internal_profile(g) == by_enumeration
