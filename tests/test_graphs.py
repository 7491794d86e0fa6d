import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineal import (
    Graph,
    components_outside,
    greedy_cover,
    is_connected,
)

from helpers import (
    C4,
    K3,
    P3,
    P4,
    atlas_connected,
    bf_is_connected,
    bf_min_cover,
    connected_graphs,
    is_vertex_cover,
)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_basics():
    g = Graph(4, [(2, 0), (0, 1)])
    assert g.adjacency[0] == (1, 2) and g.adjacency[3] == ()
    assert g.adjacent(0, 2) and not g.adjacent(1, 2)
    assert list(g.edges()) == [(0, 1), (0, 2)]
    assert g == Graph(4, [(0, 1), (0, 2)])


def test_without_relabels_densely():
    g2, survivors = C4.without({1})
    assert survivors == (0, 2, 3)
    assert g2 == Graph(3, [(1, 2), (0, 2)])


@given(connected_graphs(max_n=8), st.sets(st.integers(0, 7)))
@settings(max_examples=60)
def test_without_matches_the_checked_construction(g, removed):
    g2, survivors = g.without(removed)
    assert survivors == tuple(v for v in range(g.vertex_count) if v not in removed)
    new_id = {old: new for new, old in enumerate(survivors)}
    expected = Graph(len(survivors), [
        (new_id[u], new_id[v]) for u, v in g.edges() if u in new_id and v in new_id
    ])
    assert g2 == expected and g2.edge_count == expected.edge_count


def test_is_connected_examples():
    assert is_connected(P3)
    assert not is_connected(Graph(2, []))
    assert is_connected(Graph(1, []))
    assert is_connected(Graph(0, []))


def test_is_connected_matches_union_find():
    import random

    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.25
        ]
        g = Graph(n, edges)
        assert is_connected(g) == bf_is_connected(g)


def test_greedy_cover_examples():
    matching, cover = greedy_cover(P4)
    assert matching == ((0, 1), (2, 3))
    assert cover == {0, 1, 2, 3}

    matching, cover = greedy_cover(Graph(3, []))
    assert matching == () and cover == frozenset()

    matching, cover = greedy_cover(K3)
    assert matching == ((0, 1),)
    assert cover == {0, 1}


@given(connected_graphs(max_n=8))
def test_greedy_cover_is_a_maximal_matching_cover(g):
    matching, cover = greedy_cover(g)
    used = set()
    for u, v in matching:
        assert g.adjacent(u, v)
        assert u not in used and v not in used
        used.update((u, v))
    assert cover == used
    assert is_vertex_cover(g, cover)
    # maximality: every edge has a matched endpoint
    for u, v in g.edges():
        assert u in used or v in used


def test_greedy_cover_within_twice_minimum():
    for g in atlas_connected(6):
        _, cover = greedy_cover(g)
        assert len(cover) <= 2 * len(bf_min_cover(g))


@given(connected_graphs(max_n=8))
@settings(max_examples=30)
def test_greedy_cover_deterministic(g):
    assert greedy_cover(g) == greedy_cover(Graph(g.vertex_count, list(g.edges())))


def test_components_outside_examples():
    assert components_outside(P4, {1}) == [frozenset({0}), frozenset({2, 3})]
    assert components_outside(C4, {0, 2}) == [frozenset({1}), frozenset({3})]
    assert components_outside(C4, {0, 1, 2, 3}) == []


@given(connected_graphs(max_n=8))
@settings(max_examples=60)
def test_components_outside_partition(g):
    removed = set(range(0, g.vertex_count, 2))
    comps = components_outside(g, removed)
    seen = set()
    for comp in comps:
        assert not comp & removed
        assert not comp & seen
        seen |= comp
        # no edges leave the component except into `removed`
        for v in comp:
            for w in g.adjacency[v]:
                assert w in comp or w in removed
        # the component is internally connected
        sub = {v: [w for w in g.adjacency[v] if w in comp] for v in comp}
        start = next(iter(comp))
        reach = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in sub[v]:
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        assert reach == comp
    assert seen == set(range(g.vertex_count)) - removed
