"""Acceptance suite: one test per criterion, exact tolerances, one PASS line each.

Corpus:
* ATLAS6: every connected graph on 1..6 vertices, one per isomorphism class
  (143 graphs, via the networkx atlas).
* RAND789: 300 seeded random connected graphs, 100 each at n = 7, 8, 9.
* RAND78: the n in {7, 8} slice of RAND789 (the "n <= 8 grid" with ATLAS6).
* Criterion 8's partial-tree sweep uses ATLAS6 plus 10 of the n = 7 graphs.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""
from __future__ import annotations

import time

from lineal import (
    Decided,
    Graph,
    ProblemInstance,
    Reduced,
    Variant,
    dfs_any,
    extension_all_internal,
    extension_all_leaves,
    greedy_cover,
    is_dfs_tree,
    kernel_dual_max,
    kernel_dual_min,
    kernelize,
    reduce_with_cover,
    size_bound,
    solve_dual_fpt,
    solve_dual_max_xp,
    solve_dual_min_xp,
)
from lineal.generate import bounded_cover_graph, star_graph

from helpers import (
    DISCONNECTED,
    all_partial_trees,
    atlas_connected,
    bf_min_cover,
    bf_minimal_covers,
    enumerate_dfs_trees,
    profile_of,
    random_connected,
    reference_all_internal_tree,
    tree_respecting_ordering,
)

KS = range(0, 6)

_corpora: dict[str, list[Graph]] = {}


def atlas6():
    return atlas_connected(6)


def rand789():
    if "rand789" not in _corpora:
        _corpora["rand789"] = random_connected((7, 8, 9), per_n=100)
    return _corpora["rand789"]


def rand78():
    return [g for g in rand789() if g.vertex_count <= 8]


def grid8():
    return atlas6() + rand78()


def _passed(n, name):
    print(f"[acceptance] criterion {n} ({name}): PASS")


def _covers_for(g):
    _, greedy = greedy_cover(g)
    return [greedy, bf_min_cover(g)]


def test_criterion_1_reduction_preserves_profiles():
    """Exact internal-count profile equality across the reduction, for greedy
    and minimum covers, over >= 500 instances."""
    instances = 0
    for g in atlas6() + rand789():
        original = profile_of(g)
        for cover in _covers_for(g):
            reduced, _ = reduce_with_cover(g, cover)
            assert profile_of(reduced) == original, (g.adjacency, sorted(cover))
            instances += 1
    assert instances >= 500, instances
    _passed(1, f"profile equivalence on {instances} instances")


def test_criterion_2_size_bound_and_tightness():
    """Every reduction lands within s^2(s-1)+3s vertices (s >= 1), and stars
    meet the bound exactly at s = 1."""
    for g in atlas6() + rand789():
        for cover in _covers_for(g):
            s = len(cover)
            reduced, _ = reduce_with_cover(g, cover)
            if s >= 1:
                assert reduced.vertex_count <= size_bound(s), (g.adjacency, s)
            else:
                # an empty cover means an edgeless graph; nothing to trim
                assert reduced == g
    for m in range(3, 41):
        star = star_graph(m + 1)
        reduced, _ = reduce_with_cover(star, {0})
        assert reduced.vertex_count == 3 == size_bound(1)
    _passed(2, "size bound, tight on stars at s=1")


def _oracle_answers(g, k):
    prof = profile_of(g)
    n = g.vertex_count
    return {
        Variant.MIN_LLT: n - max(prof) <= k if prof else False,
        Variant.MAX_LLT: n - min(prof) >= k if prof else False,
        Variant.DUAL_MIN_LLT: max(prof) >= k if prof else False,
        Variant.DUAL_MAX_LLT: min(prof) <= k if prof else False,
    }


def _kernel_answer(outcome):
    if isinstance(outcome, Decided):
        return outcome.answer
    inst = outcome.instance
    reduced_truth = _oracle_answers(inst.graph, inst.k)
    return reduced_truth[inst.variant]


def test_criterion_3_dual_kernels_match_oracle():
    """Dual kernelization outcomes equal exhaustive answers on the n <= 8 grid."""
    checked = 0
    for g in grid8():
        for k in KS:
            truth = _oracle_answers(g, k)
            out = kernel_dual_min(ProblemInstance(g, k, Variant.DUAL_MIN_LLT))
            assert _kernel_answer(out) == truth[Variant.DUAL_MIN_LLT], (g.adjacency, k)
            if isinstance(out, Reduced):
                s = len(out.trace.cover)
                assert s <= max(k - 1, 0)
                if s >= 1:
                    assert out.instance.graph.vertex_count <= size_bound(s)
            out = kernel_dual_max(ProblemInstance(g, k, Variant.DUAL_MAX_LLT))
            assert _kernel_answer(out) == truth[Variant.DUAL_MAX_LLT], (g.adjacency, k)
            if isinstance(out, Reduced):
                assert len(out.trace.cover) <= 2 * k
            checked += 2
    _passed(3, f"dual kernels vs oracle, {checked} outcomes")


def test_criterion_4_cover_kernels_match_oracle():
    """Min/Max leaf kernels with the shifted parameter equal exhaustive answers."""
    checked = 0
    for g in grid8():
        n = g.vertex_count
        for k in KS:
            truth = _oracle_answers(g, k)
            out = kernelize(ProblemInstance(g, k, Variant.MIN_LLT))
            assert _kernel_answer(out) == truth[Variant.MIN_LLT], (g.adjacency, k)
            if isinstance(out, Reduced):
                assert out.instance.k == k - (n - out.instance.graph.vertex_count)
            out = kernelize(ProblemInstance(g, k, Variant.MAX_LLT))
            assert _kernel_answer(out) == truth[Variant.MAX_LLT], (g.adjacency, k)
            checked += 2
    _passed(4, f"cover-parameter kernels vs oracle, {checked} outcomes")


def test_criterion_5_tuple_solvers_match_oracle():
    """Both tuple solvers agree with the oracle on the n <= 8 grid, witnesses included."""
    checked = 0
    for g in grid8():
        for k in KS:
            truth = _oracle_answers(g, k)
            d = solve_dual_min_xp(g, k)
            assert d.answer == truth[Variant.DUAL_MIN_LLT], (g.adjacency, k)
            if d.answer:
                assert is_dfs_tree(g, d.witness) and d.witness.internal_count() >= k
            d = solve_dual_max_xp(g, k)
            assert d.answer == truth[Variant.DUAL_MAX_LLT], (g.adjacency, k)
            if d.answer:
                assert is_dfs_tree(g, d.witness) and d.witness.internal_count() <= k
            checked += 2
    _passed(5, f"tuple solvers vs oracle, {checked} decisions")


def test_criterion_6_fpt_scales_and_agrees():
    """Kernel-then-solve finishes fast at n = 200 and matches the direct
    tuple search on n <= 30 instances."""
    worst = 0.0
    for seed in (1, 2, 3):
        g = bounded_cover_graph(200, 4, 0.3, seed=seed)
        for variant in (Variant.DUAL_MIN_LLT, Variant.DUAL_MAX_LLT):
            t0 = time.perf_counter()
            d = solve_dual_fpt(ProblemInstance(g, 3, variant))
            elapsed = time.perf_counter() - t0
            worst = max(worst, elapsed)
            assert elapsed < 60.0, (seed, variant, elapsed)
            if d.answer:
                assert is_dfs_tree(g, d.witness)
    for n in (15, 22, 30):
        for seed in (0, 1):
            g = bounded_cover_graph(n, 3, 0.35, seed=seed)
            for k in (1, 2, 3):
                assert (
                    solve_dual_fpt(ProblemInstance(g, k, Variant.DUAL_MIN_LLT)).answer
                    == solve_dual_min_xp(g, k).answer
                )
                assert (
                    solve_dual_fpt(ProblemInstance(g, k, Variant.DUAL_MAX_LLT)).answer
                    == solve_dual_max_xp(g, k).answer
                )
    _passed(6, f"n=200 within budget (worst {worst:.2f}s), agreement at n<=30")


def test_criterion_7_internal_sets_are_small_covers():
    """Every enumerated DFS tree's internal set covers the graph, and against
    every minimal vertex cover S: |internal| <= 2|S| and |internal - S| <= |S|."""
    trees_checked = 0
    for g in grid8():
        covers = bf_minimal_covers(g)
        for t, _ in enumerate_dfs_trees(g):
            internal = t.internal_vertices()
            for u, v in g.edges():
                assert u in internal or v in internal, (g.adjacency, t.parent)
            for s in covers:
                assert len(internal) <= 2 * len(s)
                assert len(internal - s) <= len(s)
            trees_checked += 1
    _passed(7, f"cover structure of {trees_checked} enumerated trees")


def test_criterion_8_orderings_and_extendability():
    """Every enumerated tree's discovery order rebuilds the identical tree;
    the extension builders find a tree exactly when exhaustive extension
    search over all partial trees of graphs with n <= 7 does, and every tree
    they build is a DFS tree of the graph that contains the partial tree and
    has the promised property. Disconnected graphs have no extension."""
    for g in grid8():
        for t, order in enumerate_dfs_trees(g):
            assert tree_respecting_ordering(g, order) == t

    partials_checked = 0
    small = atlas6() + [g for g in rand789() if g.vertex_count == 7][:10] + DISCONNECTED
    for g in small:
        by_root: dict[int, list] = {}
        for t, _ in enumerate_dfs_trees(g):
            by_root.setdefault(t.root, []).append((t.parent, t.internal_vertices()))
        for pt in all_partial_trees(g):
            covered = set(pt.parent)
            exts = [
                (parent, internal)
                for parent, internal in by_root.get(pt.root, [])
                if all(parent[v] == p for v, p in pt.parent.items())
            ]
            built = {
                "all internal": (
                    extension_all_internal(g, pt),
                    any(covered <= internal for _, internal in exts),
                ),
                "all leaves": (
                    extension_all_leaves(g, pt),
                    any(internal <= covered for _, internal in exts),
                ),
            }
            for kind, (ext, exists) in built.items():
                case = (kind, g.adjacency, pt.parent)
                assert (ext is not None) == exists, case
                if ext is None:
                    continue
                assert ext.root == pt.root and is_dfs_tree(g, ext), case
                assert all(ext.parent[v] == p for v, p in pt.parent.items()), case
                if kind == "all internal":
                    assert covered <= ext.internal_vertices(), case
                    # the very tree, insertion order included
                    ref = reference_all_internal_tree(g, pt)
                    assert list(ext.parent.items()) == list(ref.parent.items()), case
                if kind == "all leaves":
                    assert ext.internal_vertices() <= covered, case
            partials_checked += 1
    _passed(8, f"order round-trips, extendability on {partials_checked} partial trees")
