import pytest
from hypothesis import given, settings

from lineal import (
    BudgetExceeded,
    Graph,
    OracleLimitError,
    ProblemInstance,
    SolverBudget,
    Variant,
    is_dfs_tree,
    solve_dual_fpt,
    solve_dual_fpt_with_kernel,
    solve_dual_max_xp,
    solve_dual_min_xp,
    solve_exact_oracle,
    tree_respecting_ordering,
)
from lineal.generate import bounded_cover_graph, cycle_graph, path_graph, star_graph

from helpers import (
    C4,
    K3,
    P3,
    P4,
    STAR3,
    STAR5,
    atlas_connected,
    bf_first_accepted_tuple,
    connected_graphs,
    profile_of,
    random_connected,
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


def test_dual_max_xp_examples():
    assert solve_dual_max_xp(STAR3, 1).answer is True
    assert solve_dual_max_xp(C4, 2).answer is False
    assert solve_dual_max_xp(P4, 4).answer is True  # n <= k
    assert solve_dual_max_xp(Graph(1, []), 0).answer is True
    assert solve_dual_max_xp(Graph(3, []), 2).answer is False


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


@given(connected_graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_xp_solvers_agree_with_oracle(g):
    prof = profile_of(g)
    for k in range(0, g.vertex_count + 2):
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


def _assert_first_accepted_tuples(g):
    for k in range(1, g.vertex_count):
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
    g = bounded_cover_graph(60, 6, 0.5, seed=9)
    with pytest.raises(BudgetExceeded) as err:
        solve_dual_max_xp(g, 5, SolverBudget(time_limit=1e-9))
    assert err.value.phase == "time"


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
    # the kernel of a 51-vertex star keeps 4 vertices, within the oracle limit
    big_star = star_graph(51)
    d, outcome = solve_dual_fpt_with_kernel(inst(big_star, 50, Variant.MAX_LLT))
    assert outcome.instance.graph.vertex_count == 4 and outcome.instance.k == 3
    assert d.answer and is_dfs_tree(big_star, d.witness)
    assert len(d.witness.leaf_vertices()) == 50
    d = solve_dual_fpt(inst(big_star, 49, Variant.MIN_LLT))
    assert d.answer and len(d.witness.leaf_vertices()) <= 49
    assert solve_dual_fpt(inst(big_star, 48, Variant.MIN_LLT)).answer is False
    with pytest.raises(OracleLimitError) as err:
        solve_dual_fpt(inst(big_star, 50, Variant.MAX_LLT), SolverBudget(oracle_vertex_limit=3))
    assert err.value.kernel.instance.graph.vertex_count == 4


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


@given(connected_graphs(max_n=8))
@settings(max_examples=60, deadline=None)
def test_pipeline_matches_the_profile_on_every_variant(g):
    n = g.vertex_count
    profile = profile_of(g)
    for variant in Variant:
        for k in range(n + 2):
            d = solve_dual_fpt(inst(g, k, variant))
            assert d.answer == any(_meets(variant, n, c, k) for c in profile), (
                g.adjacency, variant, k,
            )
            if d.answer:
                assert is_dfs_tree(g, d.witness)
                assert _meets(variant, n, d.witness.internal_count(), k)


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
    d = solve_exact_oracle(inst(g, 1, Variant.MIN_LLT), SolverBudget(oracle_vertex_limit=12))
    assert d.answer is True


def test_oracle_respects_time_budget():
    from lineal.generate import complete_graph

    g = complete_graph(9)  # plenty of trees before any qualifying count of 9
    with pytest.raises(BudgetExceeded):
        solve_exact_oracle(
            inst(g, 9, Variant.DUAL_MIN_LLT),
            SolverBudget(time_limit=1e-9, oracle_vertex_limit=9),
        )


def test_oracle_degenerate_graphs():
    assert solve_exact_oracle(inst(Graph(0, []), 0, Variant.MAX_LLT)).answer is False
    assert solve_exact_oracle(inst(Graph(2, []), 1, Variant.MIN_LLT)).answer is False


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
