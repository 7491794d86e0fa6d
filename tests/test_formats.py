import pytest

from lineal import (
    DuplicateEdgeError,
    Graph,
    LabelOverflowError,
    MalformedLineError,
    RootedSpanningTree,
    SelfLoopError,
    parse_graph,
    parse_witness,
    serialize_graph,
    witness_to_jsonable,
)

from helpers import C4, K3, P3, atlas_connected


def test_parse_edgelist_p3():
    loaded = parse_graph("3 2\n0 1\n1 2\n")
    assert loaded.graph == P3
    assert loaded.labels == ("0", "1", "2")


def test_parse_dimacs_k3():
    loaded = parse_graph("c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert loaded.graph == K3
    assert loaded.labels == ("1", "2", "3")


def test_parse_header_only_single_vertex():
    loaded = parse_graph("1 0\n")
    assert loaded.graph == Graph(1, [])


def test_parse_opaque_labels():
    loaded = parse_graph("3 2\na b\nb c\n")
    assert loaded.graph == P3
    assert loaded.labels == ("a", "b", "c")


def test_parse_comments_and_blanks_ignored():
    loaded = parse_graph("# a path\n\n3 2\n0 1\n# middle\n1 2\n")
    assert loaded.graph == P3


def test_parse_errors_are_distinct_and_carry_lines():
    with pytest.raises(MalformedLineError) as err:
        parse_graph("3 1\n0 1 2\n")
    assert err.value.line == 2
    with pytest.raises(SelfLoopError):
        parse_graph("2 1\n1 1\n")
    with pytest.raises(DuplicateEdgeError):
        parse_graph("3 2\n0 1\n1 0\n")
    with pytest.raises(LabelOverflowError):
        parse_graph("2 2\na b\nb c\n")
    with pytest.raises(MalformedLineError):
        parse_graph("3 5\n0 1\n")
    with pytest.raises(MalformedLineError):
        parse_graph("")
    with pytest.raises(MalformedLineError):
        parse_graph("p edge 2 1\ne 1 5\n")
    with pytest.raises(MalformedLineError):
        parse_graph("p edge 2 1\nx 1 2\ne 1 2\n")


def test_roundtrip_both_formats():
    for g in atlas_connected(5):
        for fmt in ("edgelist", "dimacs"):
            text = serialize_graph(g, fmt=fmt)
            again = parse_graph(text)
            assert again.graph == g, (fmt, text)


def test_roundtrip_keeps_labels():
    loaded = parse_graph("3 2\nx y\ny z\n")
    text = serialize_graph(loaded.graph, loaded.labels)
    again = parse_graph(text)
    assert again.graph == loaded.graph
    assert again.labels == loaded.labels


def test_witness_roundtrip():
    t = RootedSpanningTree(0, {0: None, 1: 0, 2: 1, 3: 2})
    labels = ("a", "b", "c", "d")
    doc = witness_to_jsonable(t, labels)
    assert doc == {"root": "a", "parents": {"a": None, "b": "a", "c": "b", "d": "c"}}
    import json

    loaded = parse_graph("4 4\na b\nb c\nc d\na d\n")
    back = parse_witness(json.dumps(doc), loaded)
    assert back == RootedSpanningTree(0, {0: None, 1: 0, 2: 1, 3: 2})


def test_witness_rejects_unknown_labels():
    from lineal import GraphParseError

    loaded = parse_graph("2 1\na b\n")
    with pytest.raises(GraphParseError):
        parse_witness('{"root": "z", "parents": {"z": null}}', loaded)
    with pytest.raises(GraphParseError):
        parse_witness("not json", loaded)
