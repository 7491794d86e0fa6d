import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lineal import (
    BudgetExceeded,
    Decided,
    Graph,
    OracleLimitError,
    ProblemInstance,
    Reduced,
    SolverBudget,
    Variant,
    dfs_any,
    greedy_cover,
    is_dfs_tree,
    kernelize,
    solve_dual_fpt,
    solve_dual_fpt_with_kernel,
    solve_dual_max_xp,
    solve_dual_min_xp,
    solve_exact_oracle,
)
from lineal.generate import bounded_cover_graph, cycle_graph, gnp_graph, path_graph, star_graph
from lineal.solve import _min_cover

from helpers import (
    C4,
    DISCONNECTED,
    K3,
    P3,
    P4,
    STAR3,
    STAR5,
    atlas_connected,
    bf_first_accepted_tuple,
    bf_is_connected,
    bf_min_cover,
    connected_graphs,
    disconnected_graphs,
    profile_of,
    random_connected,
    tree_respecting_ordering,
)


def inst(g, k, variant):
    return ProblemInstance(g, k, variant)


# ---------------------------------------------------------------------------
# tuple solvers

def test_dual_min_xp_examples():
    assert solve_dual_min_xp(C4, 3).answer is True
    assert solve_dual_min_xp(STAR3, 2).answer is True
    assert solve_dual_min_xp(STAR3, 3).answer is False
    d = solve_dual_min_xp(C4, 0)
    assert d.answer and d.witness is not None
    assert solve_dual_min_xp(Graph(2, []), 1).answer is False
    # a tree on n <= k vertices cannot carry k internal vertices
    assert solve_dual_min_xp(P4, 4).answer is False
    # every DFS tree has at least 0 > k internal vertices
    assert solve_dual_min_xp(P3, -1).answer is True


def test_dual_max_xp_examples():
    assert solve_dual_max_xp(STAR3, 1).answer is True
    assert solve_dual_max_xp(C4, 2).answer is False
    assert solve_dual_max_xp(P4, 4).answer is True  # n <= k
    assert solve_dual_max_xp(Graph(1, []), 0).answer is True
    assert solve_dual_max_xp(Graph(3, []), 2).answer is False
    assert solve_dual_max_xp(P3, -1).answer is False


def test_witnesses_meet_their_thresholds():
    d = solve_dual_min_xp(C4, 3)
    assert is_dfs_tree(C4, d.witness) and d.witness.internal_count() >= 3
    d = solve_dual_max_xp(STAR3, 1)
    assert is_dfs_tree(STAR3, d.witness) and d.witness.internal_count() <= 1


def test_accepted_tuple_is_a_viable_guess():
    d = solve_dual_min_xp(C4, 3)
    assert d.accepted_tuple is not None
    assert tree_respecting_ordering(C4, d.accepted_tuple) is not None
    # trivial branches carry no tuple
    assert solve_dual_min_xp(C4, 0).accepted_tuple is None


@given(st.one_of(connected_graphs(max_n=7), disconnected_graphs(max_n=7)))
@example(DISCONNECTED[0])
@example(DISCONNECTED[1])
@example(DISCONNECTED[2])
@example(DISCONNECTED[3])
@example(DISCONNECTED[4])
@settings(max_examples=50, deadline=None)
def test_xp_solvers_agree_with_oracle(g):
    # a disconnected graph has an empty profile: both solvers must say no
    # at every k, although neither tests connectivity
    prof = profile_of(g)
    for k in range(-1, g.vertex_count + 2):
        want_min = max(prof) >= k if prof else False
        want_max = min(prof) <= k if prof else False
        d_min = solve_dual_min_xp(g, k)
        d_max = solve_dual_max_xp(g, k)
        assert d_min.answer == want_min
        assert d_max.answer == want_max
        if d_min.answer:
            assert is_dfs_tree(g, d_min.witness)
            assert d_min.witness.internal_count() >= k
        if d_max.answer:
            assert is_dfs_tree(g, d_max.witness)
            assert d_max.witness.internal_count() <= k


def test_tuple_completeness_instrumented():
    # whenever the oracle exhibits a tree with exactly k internal vertices,
    # the tuple search must accept some guess
    for g in (C4, P4, STAR3, K3, cycle_graph(5)):
        for k in sorted(profile_of(g)):
            if k == 0:
                continue
            d = solve_dual_min_xp(g, k)
            assert d.answer and d.accepted_tuple is not None
            assert len(d.accepted_tuple) == k


def _assert_first_accepted_tuples(g, ks=None):
    for k in range(1, g.vertex_count) if ks is None else ks:
        for solver, dual_min in ((solve_dual_min_xp, True), (solve_dual_max_xp, False)):
            want = bf_first_accepted_tuple(g, k, dual_min)
            d = solver(g, k)
            assert d.accepted_tuple == want, (solver.__name__, k)
            assert d.answer is (want is not None)


@given(connected_graphs(min_n=2, max_n=7))
@settings(max_examples=100, deadline=None)
def test_accepted_tuple_is_lexicographically_first(g):
    # twin symmetry breaking and the pop-time leaf test prune the walk but
    # must not change which tuple is accepted first
    _assert_first_accepted_tuples(g)


K24 = Graph(6, [(a, b) for a in (0, 1) for b in range(2, 6)])


@pytest.mark.parametrize(
    "g",
    [STAR3, STAR5, K24, C4, bounded_cover_graph(8, 2, 0.5, seed=0),
     bounded_cover_graph(8, 2, 0.5, seed=1)],
    ids=["star3", "star5", "k24", "c4", "bc8-seed0", "bc8-seed1"],
)
def test_accepted_tuple_is_lexicographically_first_on_twin_rich_graphs(g):
    _assert_first_accepted_tuples(g)


def test_accepted_tuple_is_lexicographically_first_on_the_corpora():
    for g in atlas_connected(6) + random_connected((7, 8), per_n=20):
        _assert_first_accepted_tuples(g)


# ---------------------------------------------------------------------------
# counting bounds

P5 = path_graph(5)
K25 = Graph(7, [(a, b) for a in (0, 1) for b in range(2, 7)])
K33 = Graph(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
ONE_TUPLE = SolverBudget(max_tuple_count=1)


def test_min_cover_is_minimum_up_to_its_limit():
    for g in atlas_connected(6) + random_connected((7, 8), per_n=10):
        tau = len(bf_min_cover(g))
        for limit in range(g.vertex_count):
            got = _min_cover(g, limit, float("inf"))
            if tau > limit:
                assert got is None
            else:
                assert len(got) == tau and all(u in got or v in got for u, v in g.edges())


def test_dual_min_cover_bound_is_tight_on_p5():
    # tau(P5) = 2, so at most 4 internal vertices, and at most 3 from a root in {1, 3}
    d = solve_dual_min_xp(P5, 4)
    assert d.accepted_tuple == (0, 1, 2, 3) == bf_first_accepted_tuple(P5, 4, True)
    assert solve_dual_min_xp(P5, 5).answer is False
    # the same path with its cover on the lowest ids: roots 0 and 1 are capped at 3
    p5 = Graph(5, [(2, 0), (0, 3), (3, 1), (1, 4)])
    d = solve_dual_min_xp(p5, 4, SolverBudget(max_tuple_count=4))
    assert d.accepted_tuple == (2, 0, 3, 1) == bf_first_accepted_tuple(p5, 4, True)
    d = solve_dual_min_xp(p5, 3)
    assert d.accepted_tuple == (0, 3, 1) == bf_first_accepted_tuple(p5, 3, True)


def test_dual_min_cover_bound_answers_no_before_any_visit():
    # tau(K_{2,5}) = 2 < k/2
    assert solve_dual_min_xp(K25, 5, ONE_TUPLE).answer is False
    assert bf_first_accepted_tuple(K25, 5, True) is None


def test_dual_max_degree_bound():
    # every vertex of K_{3,3} has degree 3 > 2, and six of them cannot all be internal
    assert solve_dual_max_xp(K33, 2, ONE_TUPLE).answer is False
    assert bf_first_accepted_tuple(K33, 2, False) is None
    # the center of a star is its one vertex of degree above 1
    star = star_graph(6)
    d = solve_dual_max_xp(star, 1, ONE_TUPLE)
    assert d.answer and d.accepted_tuple == (0,) == bf_first_accepted_tuple(star, 1, False)
    # 0 is the one vertex of degree above 4: once it is in the prefix, a shut
    # neighbor of it ends nothing
    g = Graph(7, [(0, 1), (0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (3, 6), (4, 5)])
    d = solve_dual_max_xp(g, 4)
    assert d.accepted_tuple == (0, 1, 4, 6) == bf_first_accepted_tuple(g, 4, False)


def test_every_bound_term_prunes():
    # the tuple budgets are the visits with both bounds whole; leaving out the
    # root, parent-in-cover or excluded-cover term (dual-min), or the slot
    # count or shut test (dual-max), visits more prefixes on these graphs
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 3), (3, 5)])
    d = solve_dual_min_xp(g, 5, SolverBudget(max_tuple_count=10))
    assert d.accepted_tuple == bf_first_accepted_tuple(g, 5, True)
    g = Graph(7, [(0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 6)])
    d = solve_dual_max_xp(g, 4, SolverBudget(max_tuple_count=8))
    assert d.accepted_tuple == bf_first_accepted_tuple(g, 4, False)


def test_accepted_tuple_is_first_around_twice_the_cover():
    for s in (1, 2, 3):
        for seed in range(6):
            g = bounded_cover_graph(8, s, 0.5, seed=seed)
            tau = len(bf_min_cover(g))
            _assert_first_accepted_tuples(g, [k for k in range(2 * tau - 1, 2 * tau + 2) if k < 8])


@pytest.mark.parametrize(
    "n, s, seed, k, variant, visits, answer",
    [
        # dual-min yes, k = d + 2: the walk backtracks before it accepts
        (80, 5, 8, 8, Variant.DUAL_MIN_LLT, 404, True),
        # dual-max no: the whole prefix tree is walked
        (300, 4, 0, 5, Variant.DUAL_MAX_LLT, 215, False),
        # dual-min k = 2 tau - 1: the cover bound leaves one path (3295 visits without it)
        (80, 5, 1, 9, Variant.DUAL_MIN_LLT, 9, True),
        # dual-max yes: tuples are completed by extension_all_leaves and backtracked
        (30, 5, 0, 7, Variant.DUAL_MAX_LLT, 7844, True),
    ],
    ids=["min-yes", "max-no", "cover-bound", "max-yes"],
)
def test_search_decides_at_a_pinned_visit_count(n, s, seed, k, variant, visits, answer):
    # the prunings drop exactly the same prefixes whatever the state is kept in
    g = bounded_cover_graph(n, s, 0.3, seed=seed)
    d = solve_dual_fpt(inst(g, k, variant), SolverBudget(max_tuple_count=visits))
    assert d.answer is answer and d.reason == "tuple search on the kernel"
    with pytest.raises(BudgetExceeded) as err:
        solve_dual_fpt(inst(g, k, variant), SolverBudget(max_tuple_count=visits - 1))
    assert err.value.phase == "tuple"


def test_dual_max_search_tries_only_high_degree_vertices_when_they_fill_the_slots():
    # 9 slots: once the vertices of degree above 9 outside the prefix fill the
    # slots left, every other child is dropped before it is built
    g = bounded_cover_graph(300, 8, 0.3, seed=2)
    kern = kernelize(inst(g, 9, Variant.DUAL_MAX_LLT)).instance.graph
    assert solve_dual_max_xp(kern, 9, SolverBudget(time_limit=1.5)).answer is False


def test_search_002_reach_min_is_decided():
    # perfbench search seed 7, instance search-002: k = 2 tau on a 115-vertex kernel
    g = bounded_cover_graph(300, 5, 0.3, seed=991707165)
    d = solve_dual_fpt(inst(g, 10, Variant.DUAL_MIN_LLT), SolverBudget(time_limit=5))
    assert d.answer
    assert is_dfs_tree(g, d.witness) and d.witness.internal_count() >= 10


# ---------------------------------------------------------------------------
# budgets

def test_tuple_budget_raises():
    g = cycle_graph(6)
    with pytest.raises(BudgetExceeded) as err:
        solve_dual_max_xp(g, 2, SolverBudget(max_tuple_count=5))
    assert err.value.phase == "tuple"


def test_budget_validation():
    with pytest.raises(ValueError):
        SolverBudget(max_tuple_count=0)
    with pytest.raises(ValueError):
        SolverBudget(time_limit=0)


def test_time_budget_raises():
    g = gnp_graph(30, 0.2, seed=1)  # over 1024 prefixes left after the degree bound
    with pytest.raises(BudgetExceeded) as err:
        solve_dual_max_xp(g, 8, SolverBudget(time_limit=1e-9))
    assert err.value.phase == "time"


def test_time_limit_covers_kernelization(monkeypatch):
    import lineal.solve as solve

    def slow_kernelize(inst, **kwargs):
        time.sleep(0.05)
        return kernelize(inst, **kwargs)

    monkeypatch.setattr(solve, "kernelize", slow_kernelize)
    g = bounded_cover_graph(60, 4, 0.3, seed=0)
    with pytest.raises(BudgetExceeded) as err:
        solve_dual_fpt(inst(g, 7, Variant.DUAL_MIN_LLT), SolverBudget(time_limit=0.01))
    assert err.value.phase == "time"
    assert err.value.kernel.instance.graph.vertex_count < 60


# ---------------------------------------------------------------------------
# FPT pipeline

def test_fpt_examples():
    big_star = star_graph(51)
    d = solve_dual_fpt(inst(big_star, 2, Variant.DUAL_MIN_LLT))
    assert d.answer and is_dfs_tree(big_star, d.witness)
    assert d.witness.internal_count() >= 2

    assert solve_dual_fpt(inst(path_graph(100), 1, Variant.DUAL_MAX_LLT)).answer is False
    assert solve_dual_fpt(inst(C4, 3, Variant.DUAL_MIN_LLT)).answer is True


def test_fpt_decides_cover_variants_on_the_kernel():
    # the kernel of a 51-vertex star keeps 4 vertices; centred at 50, the DFS
    # from leaf 0 has 2 internal vertices and max-llt k = 50 allows 1
    off_centre = Graph(51, [(i, 50) for i in range(50)])
    d, outcome = solve_dual_fpt_with_kernel(inst(off_centre, 50, Variant.MAX_LLT))
    assert outcome.instance.graph.vertex_count == 4 and outcome.instance.k == 3
    assert d.answer and is_dfs_tree(off_centre, d.witness) and d.accepted_tuple == (50,)
    assert len(d.witness.leaf_vertices()) == 50
    # centred at 0, the DFS from the centre has 1 internal vertex and min-llt
    # k = 49 asks for 2
    big_star = star_graph(51)
    d = solve_dual_fpt(inst(big_star, 49, Variant.MIN_LLT))
    assert d.answer and len(d.witness.leaf_vertices()) <= 49
    assert solve_dual_fpt(inst(big_star, 48, Variant.MIN_LLT)).answer is False


def test_first_dfs_settles_max_variants_without_a_search():
    # the first DFS's internal count is at most dual-max k = 35 and max-llt
    # k = 60's 40: the front-end says yes by that tree, before any reduction
    g = bounded_cover_graph(100, 4, 0.3, seed=0)
    first = dfs_any(g, 0)
    for k, variant in [(35, Variant.DUAL_MAX_LLT), (60, Variant.MAX_LLT)]:
        d, outcome = solve_dual_fpt_with_kernel(inst(g, k, variant), ONE_TUPLE)
        assert isinstance(outcome, Decided) and outcome.tree == first
        assert d.answer and d.accepted_tuple is None and d.witness == first
        assert d.reason == f"DFS tree from vertex 0 has {first.internal_count()} internal vertices"
        assert _meets(variant, 100, first.internal_count(), k)


def test_fpt_lifts_witnesses_through_the_kernel():
    # big stars force actual deletions, so the witness must be reconstructed
    for n, k, variant in [
        (40, 2, Variant.DUAL_MIN_LLT),
        (40, 1, Variant.DUAL_MAX_LLT),
        (25, 3, Variant.DUAL_MIN_LLT),
    ]:
        g = bounded_cover_graph(n, 3, 0.4, seed=n + k)
        d, outcome = solve_dual_fpt_with_kernel(inst(g, k, variant))
        if d.answer:
            assert is_dfs_tree(g, d.witness)
            ic = d.witness.internal_count()
            assert ic >= k if variant is Variant.DUAL_MIN_LLT else ic <= k


@given(connected_graphs(max_n=7))
@settings(max_examples=25, deadline=None)
def test_fpt_agrees_with_xp(g):
    for k in range(0, g.vertex_count + 1):
        assert (
            solve_dual_fpt(inst(g, k, Variant.DUAL_MIN_LLT)).answer
            == solve_dual_min_xp(g, k).answer
        )
        assert (
            solve_dual_fpt(inst(g, k, Variant.DUAL_MAX_LLT)).answer
            == solve_dual_max_xp(g, k).answer
        )


def _meets(variant, n, internal, k):
    return {
        Variant.MIN_LLT: n - internal <= k,
        Variant.MAX_LLT: n - internal >= k,
        Variant.DUAL_MIN_LLT: internal >= k,
        Variant.DUAL_MAX_LLT: internal <= k,
    }[variant]


def _no_rule_fires(g, variant, k):
    """Does none of the at-most front-end's no-rules (k above n, high degree,
    greedy matching) fire before its DFS? The at-least one has none."""
    if variant.at_least:
        return True
    _, hi = variant.internal_bounds(g.vertex_count, k)
    high = sum(len(a) > hi for a in g.adjacency)
    return 0 <= hi and high <= hi and len(greedy_cover(g)[0]) <= hi


@given(st.one_of(connected_graphs(max_n=8), disconnected_graphs(max_n=8)))
@example(Graph(1, []))  # settled by the front-ends' own rules, k = 0..3
@example(DISCONNECTED[0])
@example(DISCONNECTED[1])
@example(DISCONNECTED[2])
@example(DISCONNECTED[3])
@example(DISCONNECTED[4])
@settings(max_examples=80, deadline=None)
def test_pipeline_matches_the_profile_on_every_variant(g):
    # a disconnected graph has an empty profile: every answer is no, and the
    # front-ends' DFS from vertex 0 finds it unless a no-rule fires first
    n = g.vertex_count
    profile = profile_of(g)
    connected = bf_is_connected(g)
    for variant in Variant:
        for k in range(n + 3):
            d, _ = solve_dual_fpt_with_kernel(inst(g, k, variant))
            assert d.answer == any(_meets(variant, n, c, k) for c in profile), (
                g.adjacency, variant, k,
            )
            if d.answer:
                assert is_dfs_tree(g, d.witness)
                assert _meets(variant, n, d.witness.internal_count(), k)
            if not connected and _no_rule_fires(g, variant, k):
                assert d.reason == "disconnected graph has no spanning tree", (
                    g.adjacency, variant, k,
                )


# graphs whose cover kernels lose vertices: stars, and planted covers of size at most 3
SHRINKING = [star_graph(n) for n in range(5, 11)] + [
    bounded_cover_graph(10, s, 0.5, seed=seed)
    for s, seeds in [(1, [0]), (2, range(8)), (3, [2, 4, 6])]
    for seed in seeds
]


def test_pipeline_matches_the_profile_on_shrinking_kernels():
    # the Hypothesis graphs above rarely reduce
    for g in SHRINKING:
        n = g.vertex_count
        profile = profile_of(g)
        first = dfs_any(g, 0).internal_count()
        for variant in Variant:
            for k in range(n + 2):
                d, outcome = solve_dual_fpt_with_kernel(inst(g, k, variant))
                if variant is Variant.MIN_LLT and k == n - first - 1:
                    # one internal vertex more than the first DFS has: reduced
                    assert isinstance(outcome, Reduced), g.adjacency
                    assert outcome.instance.graph.vertex_count < n, g.adjacency
                assert d.answer == any(_meets(variant, n, c, k) for c in profile), (
                    g.adjacency, variant, k,
                )
                if d.answer:
                    assert is_dfs_tree(g, d.witness)
                    assert _meets(variant, n, d.witness.internal_count(), k)


def _assert_one_front_end_per_direction(g):
    # a leaf variant with k and its dual with n - k ask for the same internal
    # counts, so they get the same outcome; only the kernel's k differs
    n = g.vertex_count
    for k in range(n + 1):
        for leaf, dual in [(Variant.MIN_LLT, Variant.DUAL_MIN_LLT),
                           (Variant.MAX_LLT, Variant.DUAL_MAX_LLT)]:
            a, b = kernelize(inst(g, k, leaf)), kernelize(inst(g, n - k, dual))
            if isinstance(b, Decided):
                assert a == b, (g.adjacency, leaf, k)
                continue
            assert isinstance(a, Reduced), (g.adjacency, leaf, k)
            kern = b.instance.graph
            assert (a.instance.graph, a.trace) == (kern, b.trace), (g.adjacency, leaf, k)
            assert a.instance.k == kern.vertex_count - b.instance.k, (g.adjacency, leaf, k)


@given(connected_graphs(max_n=8))
@settings(max_examples=60, deadline=None)
def test_leaf_variants_share_the_dual_front_ends(g):
    _assert_one_front_end_per_direction(g)


def test_leaf_variants_share_the_dual_front_ends_on_shrinking_kernels():
    for g in SHRINKING:
        _assert_one_front_end_per_direction(g)


# ---------------------------------------------------------------------------
# exhaustive oracle

def test_oracle_examples():
    assert solve_exact_oracle(inst(K3, 1, Variant.MIN_LLT)).answer is True
    assert solve_exact_oracle(inst(C4, 2, Variant.MAX_LLT)).answer is False
    assert solve_exact_oracle(inst(P3, 1, Variant.DUAL_MAX_LLT)).answer is True
    d = solve_exact_oracle(inst(K3, 1, Variant.MIN_LLT))
    assert is_dfs_tree(K3, d.witness) and len(d.witness.leaf_vertices()) <= 1


def test_oracle_refuses_above_limit():
    g = path_graph(12)
    with pytest.raises(OracleLimitError):
        solve_exact_oracle(inst(g, 1, Variant.MIN_LLT))
    d = solve_exact_oracle(inst(g, 1, Variant.MIN_LLT), limit=12)
    assert d.answer is True
    for limit in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            solve_exact_oracle(inst(P3, 1, Variant.MIN_LLT), limit=limit)


def test_oracle_respects_time_budget():
    from itertools import combinations

    # K9: plenty of trees before any qualifying count of 9
    g = Graph(9, list(combinations(range(9), 2)))
    with pytest.raises(BudgetExceeded):
        solve_exact_oracle(inst(g, 9, Variant.DUAL_MIN_LLT), SolverBudget(time_limit=1e-9), limit=9)


def test_oracle_degenerate_graphs():
    from itertools import combinations

    assert solve_exact_oracle(inst(Graph(0, []), 0, Variant.MAX_LLT)).answer is False
    assert solve_exact_oracle(inst(Graph(2, []), 1, Variant.MIN_LLT)).answer is False
    # K10 plus an isolated vertex: the walk stops at its first stalled run
    # instead of walking all 10! runs of K10 first
    g = Graph(11, list(combinations(range(10), 2)))
    start = time.perf_counter()
    d = solve_exact_oracle(inst(g, 3, Variant.DUAL_MIN_LLT), limit=11)
    assert d.answer is False and time.perf_counter() - start < 1.0


def test_cross_variant_complement_identity():
    # at most k leaves is the same question as at least n-k internal, and
    # at least k leaves the same as at most n-k internal
    for g in (C4, P4, STAR3, K3, cycle_graph(5)):
        n = g.vertex_count
        for k in range(0, n + 1):
            assert (
                solve_exact_oracle(inst(g, k, Variant.MIN_LLT)).answer
                == solve_exact_oracle(inst(g, n - k, Variant.DUAL_MIN_LLT)).answer
            )
            assert (
                solve_exact_oracle(inst(g, k, Variant.MAX_LLT)).answer
                == solve_exact_oracle(inst(g, n - k, Variant.DUAL_MAX_LLT)).answer
            )
