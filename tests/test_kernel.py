import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineal import (
    Decided,
    Graph,
    ProblemInstance,
    Reduced,
    Variant,
    dfs_any,
    greedy_cover,
    is_dfs_tree,
    kernel_dual_max,
    kernel_dual_min,
    kernelize,
    reduce_with_cover,
    size_bound,
    solve_exact_oracle,
)

import lineal.kernel
from lineal.generate import bounded_cover_graph, star_graph

from helpers import (
    C4,
    NET,
    P3,
    P4,
    STAR5,
    STAR5_AT_5,
    atlas_connected,
    bf_min_cover,
    connected_graphs,
    internal_profile,
    profile_of,
)


def inst(g, k, variant):
    return ProblemInstance(g, k, variant)


def kernel_answer(outcome):
    """Decided answer, or the exhaustive answer of the reduced instance."""
    if isinstance(outcome, Decided):
        return outcome.answer
    return solve_exact_oracle(outcome.instance, None).answer


# ---------------------------------------------------------------------------
# pendant trimming (rule 1); no vertex here has two cover neighbors

def test_trim_pendants_keeps_two_lowest():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    reduced, trace = reduce_with_cover(g, {0})
    assert reduced == Graph(3, [(0, 1), (0, 2)])
    assert (trace.pendants, trace.unlabeled) == ((3, 4), ())
    assert trace.survivors == (0, 1, 2)


def test_trim_pendants_no_op_below_threshold():
    reduced, trace = reduce_with_cover(P3, {1})
    assert reduced == P3 and trace.pendants == trace.unlabeled == ()
    g = Graph(5, [(0, 1), (0, 2), (3, 1), (4, 1)])
    reduced, trace = reduce_with_cover(g, {0, 1})
    assert reduced == g and trace.pendants == trace.unlabeled == ()


# ---------------------------------------------------------------------------
# common-neighbor trimming (rule 2); no vertex here is a pendant

def test_trim_common_neighbors_caps_at_twice_cover():
    # cover {0,1}, seven shared neighbors: keep the 4 lowest, delete 3
    g = Graph(9, [(0, w) for w in range(2, 9)] + [(1, w) for w in range(2, 9)])
    reduced, trace = reduce_with_cover(g, {0, 1})
    assert (trace.pendants, trace.unlabeled) == ((), (6, 7, 8))
    assert reduced.vertex_count == 6
    assert internal_profile(g) == internal_profile(reduced)


def test_trim_common_neighbors_no_op_when_small():
    g = Graph(5, [(0, w) for w in (2, 3, 4)] + [(1, w) for w in (2, 3, 4)])
    reduced, trace = reduce_with_cover(g, {0, 1})
    assert reduced == g and trace.pendants == trace.unlabeled == ()


def test_any_label_keeps_a_vertex():
    # vertices 3..8 shared by the pair (0,1) fill its label quota of six;
    # vertex 9 misses that quota but is labeled through the pairs with 2;
    # vertex 10 is labeled by nobody and goes
    edges = []
    for w in range(3, 9):
        edges += [(0, w), (1, w)]
    edges += [(0, 9), (1, 9), (2, 9), (0, 10), (1, 10)]
    g = Graph(11, edges)
    reduced, trace = reduce_with_cover(g, {0, 1, 2})
    assert (trace.pendants, trace.unlabeled) == ((), (10,))
    assert 9 in trace.survivors
    assert internal_profile(g, limit=11) == internal_profile(reduced, limit=11)


# ---------------------------------------------------------------------------
# the combined reduction

# cover {0,1} (s = 2, label quota 4); shared neighbors 2-6 and 10, pendants
# 7-9 of 0 and 11-13 of 1: rule 2 deletes 6 (below the pendants deleted)
# and 10 (between them)
BOTH_RULES = Graph(
    14,
    [(c, w) for c in (0, 1) for w in (2, 3, 4, 5, 6, 10)]
    + [(0, w) for w in (7, 8, 9)]
    + [(1, w) for w in (11, 12, 13)],
)


def test_both_rules_report_input_ids():
    g = BOTH_RULES
    reduced, trace = reduce_with_cover(g, {1, 0})
    assert trace.cover == (0, 1)
    assert trace.pendants == (9, 13)
    assert trace.unlabeled == (6, 10)
    assert trace.survivors == (0, 1, 2, 3, 4, 5, 7, 8, 11, 12)
    assert reduced == g.without({6, 9, 10, 13})[0]
    assert (trace.pendant_deletions, trace.unlabeled_deletions) == (2, 2)


def test_lift_reattaches_each_deletion_as_a_leaf():
    g = BOTH_RULES
    reduced, trace = reduce_with_cover(g, {0, 1})
    kernel_tree = dfs_any(reduced, 0)
    lifted = trace.lift(g, kernel_tree)
    assert is_dfs_tree(g, lifted)
    assert lifted.internal_count() == kernel_tree.internal_count()
    parent = lifted.parent

    def depth(v):
        return 0 if parent[v] is None else 1 + depth(parent[v])

    # pendants go under their only neighbor, unlabeled vertices under the
    # deeper of their neighbors 0 and 1
    assert (parent[9], parent[13]) == (0, 1)
    assert parent[6] == parent[10] == max((0, 1), key=depth)

def test_reduce_star_to_bound():
    reduced, trace = reduce_with_cover(STAR5, {0})
    assert reduced.vertex_count == 3 == size_bound(1)
    assert internal_profile(reduced) == internal_profile(STAR5) == {1, 2}


def test_size_bound_values():
    assert size_bound(1) == 3
    assert size_bound(2) == 10
    assert size_bound(3) == 27


@given(connected_graphs(max_n=8))
@settings(max_examples=40, deadline=None)
def test_reduce_preserves_profile_and_bound(g):
    _, cover = greedy_cover(g)
    reduced, trace = reduce_with_cover(g, cover)
    assert internal_profile(reduced) == profile_of(g)
    if cover:
        assert reduced.vertex_count <= size_bound(len(cover))
    removed = set(trace.pendants + trace.unlabeled)
    # deletions never touch the cover
    assert not removed & cover
    # the survivors are the undeleted vertices, one per kernel vertex, ascending
    assert trace.survivors == tuple(sorted(set(range(g.vertex_count)) - removed))
    assert len(trace.survivors) == reduced.vertex_count


@given(connected_graphs(max_n=8))
@settings(max_examples=30, deadline=None)
def test_reduce_is_idempotent(g):
    _, cover = greedy_cover(g)
    reduced, trace = reduce_with_cover(g, cover)
    kernel_cover = {i for i, v in enumerate(trace.survivors) if v in cover}
    again, trace2 = reduce_with_cover(reduced, kernel_cover)
    assert again == reduced
    assert trace2.pendants == trace2.unlabeled == ()


def test_post_rule_structure_bounds():
    from lineal.generate import bounded_cover_graph

    for seed in range(8):
        g = bounded_cover_graph(40, 4, 0.4, seed)
        _, cover = greedy_cover(g)
        s = len(cover)
        reduced, trace = reduce_with_cover(g, cover)
        kernel_cover = {i for i, v in enumerate(trace.survivors) if v in cover}
        outside = [v for v in range(reduced.vertex_count) if v not in kernel_cover]
        pendants = [v for v in outside if len(reduced.adjacency[v]) == 1]
        assert len(pendants) <= 2 * s
        busy = [v for v in outside if len(reduced.adjacency[v]) >= 2]
        assert len(busy) <= s * s * (s - 1)


# ---------------------------------------------------------------------------
# kernelization front-ends

def test_kernel_min_llt_examples():
    # min-llt asks for at least n - k internal vertices, through kernel_dual_min
    out = kernel_dual_min(inst(STAR5, 2, Variant.MIN_LLT))
    assert out == Decided(False, "every DFS tree has at least one leaf")

    out = kernel_dual_min(inst(Graph(2, []), 5, Variant.MIN_LLT))
    assert isinstance(out, Decided) and not out.answer

    # the DFS from the centre has 1 internal vertex, 2 are asked for
    out = kernel_dual_min(inst(STAR5, 4, Variant.MIN_LLT))
    assert isinstance(out, Reduced)
    assert out.instance.graph.vertex_count == 3 and out.instance.k == 1
    assert kernel_answer(out) is True

    # the DFS from vertex 0 is a Hamiltonian path
    out = kernel_dual_min(inst(C4, 1, Variant.MIN_LLT))
    assert out == Decided(True, "DFS tree from vertex 0 has 3 internal vertices")
    assert solve_exact_oracle(inst(C4, 1, Variant.MIN_LLT)).answer is True


def test_kernel_max_llt_examples():
    # max-llt asks for at most n - k internal vertices, through kernel_dual_max;
    # the DFS from leaf 0 has 2 internal vertices, 1 is asked for
    out = kernel_dual_max(inst(STAR5_AT_5, 5, Variant.MAX_LLT))
    assert isinstance(out, Reduced)
    assert out.instance.k == 3 and out.instance.graph.vertex_count == 4
    assert kernel_answer(out) is True

    # the DFS from vertex 0 is a Hamiltonian path, and 3 internal vertices are allowed
    assert kernel_dual_max(inst(C4, 1, Variant.MAX_LLT)) == Decided(
        True, "DFS tree from vertex 0 has 3 internal vertices"
    )
    assert kernel_dual_max(inst(Graph(3, []), 2, Variant.MAX_LLT)).answer is False


def test_kernel_dual_min_examples():
    out = kernel_dual_min(inst(STAR5, 2, Variant.DUAL_MIN_LLT))
    assert isinstance(out, Reduced)
    assert out.instance.graph.vertex_count == 3 and out.instance.k == 2
    assert kernel_answer(out) is True

    out = kernel_dual_min(inst(P4, 3, Variant.DUAL_MIN_LLT))
    assert isinstance(out, Decided) and out.answer

    out = kernel_dual_min(inst(C4, 0, Variant.DUAL_MIN_LLT))
    assert isinstance(out, Decided) and out.answer


def test_kernel_dual_max_examples():
    # P4's matching of 2 edges and its 2 vertices of degree 2 both say no;
    # the degree count runs first, and no matching is built
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lineal.kernel, "greedy_cover", None)
        out = kernel_dual_max(inst(P4, 1, Variant.DUAL_MAX_LLT))
    assert out == Decided(False, "2 vertices of degree above 1 must all be internal")

    # the DFS from leaf 0 has 2 internal vertices, 1 is allowed
    out = kernel_dual_max(inst(STAR5_AT_5, 1, Variant.DUAL_MAX_LLT))
    assert isinstance(out, Reduced)
    assert internal_profile(out.instance.graph) == {1, 2}
    assert kernel_answer(out) is True

    out = kernel_dual_max(inst(Graph(1, []), 0, Variant.DUAL_MAX_LLT))
    assert kernel_answer(out) is True

    # the net: its greedy matching has 2 edges, but its 3 vertices of degree
    # 3 > 2 must all be internal (its internal profile is {3, 4})
    out = kernel_dual_max(inst(NET, 2, Variant.DUAL_MAX_LLT))
    assert len(greedy_cover(NET)[0]) == 2 and internal_profile(NET) == {3, 4}
    assert out == Decided(False, "3 vertices of degree above 2 must all be internal")


def test_kernel_front_ends_reject_wrong_variant():
    with pytest.raises(ValueError):
        kernel_dual_min(inst(C4, 1, Variant.MAX_LLT))
    with pytest.raises(ValueError):
        kernel_dual_max(inst(C4, 1, Variant.MIN_LLT))


def test_instance_rejects_negative_k():
    with pytest.raises(ValueError):
        ProblemInstance(C4, -1, Variant.MIN_LLT)


@given(connected_graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_kernel_outcomes_match_oracle(g):
    prof = profile_of(g)
    n = g.vertex_count
    for k in range(0, n + 2):
        truths = {
            Variant.MIN_LLT: n - max(prof) <= k,
            Variant.MAX_LLT: n - min(prof) >= k,
            Variant.DUAL_MIN_LLT: max(prof) >= k,
            Variant.DUAL_MAX_LLT: min(prof) <= k,
        }
        for variant in Variant:
            out = kernelize(inst(g, k, variant))
            assert kernel_answer(out) == truths[variant], (variant, k)
            if isinstance(out, Decided) and out.answer:
                # every kernel yes carries a DFS tree of g that certifies it
                lo, hi = variant.internal_bounds(n, k)
                assert is_dfs_tree(g, out.tree), (variant, k)
                assert lo <= out.tree.internal_count() <= hi, (variant, k)


def _assert_kernel_dfs_lifts_to_the_input_dfs(g, small_cover, rng):
    # the kernel front-ends settle by the input's DFS from vertex 0 because
    # the kernel's own DFS from vertex 0 is that tree with vertices deleted;
    # any cover will do, so the third one is small_cover plus random vertices
    first = dfs_any(g, 0)
    _, matching_cover = greedy_cover(g)
    extra = {v for v in range(g.vertex_count) if rng.random() < 0.2}
    deleted = 0
    for cover in (matching_cover, first.internal_vertices(), small_cover | extra):
        reduced, trace = reduce_with_cover(g, cover)
        assert trace.lift(g, dfs_any(reduced, 0)) == first, (g.adjacency, sorted(cover))
        deleted += trace.unlabeled_deletions
    return deleted


@given(connected_graphs(max_n=8), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_kernel_dfs_lifts_to_the_input_dfs(g, rng):
    _assert_kernel_dfs_lifts_to_the_input_dfs(g, bf_min_cover(g), rng)


def test_kernel_dfs_lifts_to_the_input_dfs_on_atlas_and_shrinking_graphs():
    rng = random.Random(17)
    for g in atlas_connected(6) + [STAR5, STAR5_AT_5, star_graph(51)]:
        _assert_kernel_dfs_lifts_to_the_input_dfs(g, bf_min_cover(g), rng)
    # planted covers 0..2, relabelled so that they are not the lowest ids
    deleted = 0
    for seed in range(10):
        g = bounded_cover_graph(40, 3, 0.5, seed)
        ids = rng.sample(range(40), 40)
        g = Graph(40, [(ids[u], ids[v]) for u, v in g.edges()])
        deleted += _assert_kernel_dfs_lifts_to_the_input_dfs(g, {ids[0], ids[1], ids[2]}, rng)
    assert deleted > 0  # common-neighbor trimming took part


def test_reduce_with_minimum_cover_also_preserves_profile():
    for g in (C4, P4, STAR5, P3):
        cover = bf_min_cover(g)
        reduced, _ = reduce_with_cover(g, cover)
        assert internal_profile(reduced) == internal_profile(g)
