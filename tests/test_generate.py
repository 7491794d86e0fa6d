import pytest

from lineal import Graph, GenerationError, generate, is_connected
from lineal.generate import (
    bounded_cover_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    star_graph,
)

from helpers import C4, STAR3, is_vertex_cover


def test_fixed_families():
    assert star_graph(4) == STAR3
    assert cycle_graph(4) == C4
    assert path_graph(1) == Graph(1, [])
    with pytest.raises(GenerationError):
        cycle_graph(2)
    with pytest.raises(GenerationError):
        star_graph(0)


def test_generate_dispatch():
    assert generate("star", n=4) == STAR3
    assert generate("cycle", n=4) == C4
    with pytest.raises(GenerationError):
        generate("mystery", n=3)
    with pytest.raises(GenerationError, match="family gnp needs p"):
        generate("gnp", n=5)
    with pytest.raises(GenerationError, match="family bounded_cover needs s"):
        generate("bounded_cover", n=5, p=0.3)
    with pytest.raises(GenerationError, match="family bounded_cover needs p"):
        generate("bounded_cover", n=5, s=2)
    # a family ignores the parameters it does not use
    assert generate("path", n=3, s=2, p=0.5) == path_graph(3)


def test_gnp_connected_and_deterministic():
    a = gnp_graph(20, 0.3, seed=7)
    b = gnp_graph(20, 0.3, seed=7)
    assert a == b
    assert is_connected(a)
    assert gnp_graph(12, 0.3, seed=1) != gnp_graph(12, 0.3, seed=2)


def test_gnp_unsatisfiable():
    with pytest.raises(GenerationError):
        gnp_graph(5, 0.0, seed=1)
    assert gnp_graph(1, 0.0, seed=1) == Graph(1, [])


def test_bounded_cover_plants_a_cover():
    for seed in range(5):
        g = bounded_cover_graph(20, 3, 0.5, seed=seed)
        assert is_connected(g)
        assert is_vertex_cover(g, range(3))
        # the outside is an independent set
        for u, v in g.edges():
            assert u < 3 or v < 3
        # every outside vertex is wired to the cover
        for w in range(3, 20):
            assert g.adjacency[w]


def test_bounded_cover_deterministic():
    assert bounded_cover_graph(20, 3, 0.5, seed=7) == bounded_cover_graph(20, 3, 0.5, seed=7)


def test_bounded_cover_unsatisfiable():
    with pytest.raises(GenerationError):
        bounded_cover_graph(10, 0, 0.5, seed=1)
    with pytest.raises(GenerationError):
        bounded_cover_graph(10, 2, 0.0, seed=1)  # cover can never link up
    with pytest.raises(GenerationError):
        bounded_cover_graph(3, 5, 0.5, seed=1)
