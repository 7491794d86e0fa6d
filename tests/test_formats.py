import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lineal import (
    DuplicateEdgeError,
    Graph,
    GraphParseError,
    LabelOverflowError,
    MalformedLineError,
    RootedSpanningTree,
    SelfLoopError,
    parse_graph,
    parse_witness,
    serialize_graph,
    witness_to_jsonable,
)

from helpers import C4, K3, P3, atlas_connected, connected_graphs, reference_label_ids


def test_parse_edgelist_p3():
    loaded = parse_graph("3 2\n0 1\n1 2\n")
    assert loaded.graph == P3
    assert loaded.labels == ("0", "1", "2")


def test_parse_dimacs_k3():
    for text in (
        "c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
        "  c x\np edge 3 3\n\t# x\ne\t1\t2\ne 2 3\nc\ne 1 3\n",
        "p\tedge 3 3\ne 1 2\ne 2 3\ne 1 3\n",  # any whitespace after 'p'
    ):
        loaded = parse_graph(text)
        assert loaded.graph == K3
        assert loaded.labels == ("1", "2", "3")


def test_dimacs_endpoints_are_read_by_int():
    loaded = parse_graph("p edge 3 2\ne 01 +2\ne 2 \u0663\n")
    assert loaded.graph == P3
    assert loaded.labels == ("1", "2", "3")


def test_a_large_declared_vertex_count_costs_nothing_until_the_lines_are_read():
    tracemalloc.start()
    try:
        with pytest.raises(MalformedLineError, match="declared 5 edges but found 1"):
            parse_graph("p edge 1000000 5\ne 1 1000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a table of a million labels takes tens of megabytes
    assert parse_graph("p edge 9 1\ne 1 9\n").labels == tuple(map(str, range(1, 10)))


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
    assert parse_graph("3 2\n # indented\n0 1\n1 2\n").graph == P3


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


@pytest.mark.parametrize(
    "text, error, message, line",
    [
        ("p edge 3 2\ne 1 2\ne 2 2\n", SelfLoopError, "self-loop at '2'", 3),
        ("c x\np edge 3 2\ne 1 2\ne 2 1\n", DuplicateEdgeError, "duplicate edge '2' '1'", 4),
        ("3 2\n0 1\n1 0\n", DuplicateEdgeError, "duplicate edge '1' '0'", 3),
        ("3 2\n0 1\n\n01 01\n", SelfLoopError, "self-loop at '01'", 4),
        ("3 2\na b\n# x\nb a\n", DuplicateEdgeError, "duplicate edge 'b' 'a'", 4),
        (
            "2 2\na b\nb c\n",
            LabelOverflowError,
            "label 'c' brings the distinct labels to 3, but only 2 vertices are declared",
            3,
        ),
        (
            "p edge -1 0\np edge 3 2\ne 1 2\ne 2 3\n",
            MalformedLineError,
            "problem line fields must be non-negative",
            1,
        ),
        ("p edge -2 -1\n", MalformedLineError, "problem line fields must be non-negative", 1),
        ("p edge 2 1\nc\tx\ne 1 2\n", MalformedLineError, "unknown line type 'c'", 2),
        ("p edge 2 1\ncx\ne 1 2\n", MalformedLineError, "unknown line type 'cx'", 2),
        ("p\n", MalformedLineError, "expected 'p edge <vertices> <edges>'", 1),
        # the first error in line order, whatever kind of error comes later
        ("p edge 3 2\ne 1 x\nq 2 3\n", MalformedLineError, "edge endpoints must be integers", 2),
        ("p edge 3 2\ne 1 -1\ne 1 2\n", MalformedLineError, "endpoint out of range 1..3", 2),
        ("p edge 3 1\ne 1 2\ne 2 9\n", MalformedLineError, "more than the declared 1 edges", 3),
        ("3 1\n0 1\n1 2 3\n", MalformedLineError, "expected an edge as two labels", 3),
    ],
    ids=["dimacs-loop", "dimacs-reversed-duplicate", "edgelist-duplicate",
         "edgelist-loop-raw-label", "opaque-duplicate", "label-overflow",
         "dimacs-negative-then-valid", "dimacs-negative", "dimacs-c-then-tab",
         "dimacs-c-glued", "dimacs-bare-p", "dimacs-non-integer-first",
         "dimacs-out-of-range-first", "dimacs-extra-edge-first", "edgelist-long-line-first"],
)
def test_parse_error_text_and_line(text, error, message, line):
    with pytest.raises(error) as err:
        parse_graph(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@st.composite
def written_graphs(draw, max_n: int = 8):
    """A document for a connected or arbitrary graph: its edges shuffled, each
    written either way round, as DIMACS or as an edge list with numeric or
    opaque labels. A DIMACS endpoint is sometimes written with a leading zero
    or a '+'. Returns the text and the edges as label pairs."""
    if draw(st.booleans()):
        g = draw(connected_graphs(max_n=max_n))
        n, edges = g.vertex_count, list(g.edges())
    else:
        n = draw(st.integers(0, max_n))
        pairs = list(combinations(range(n), 2))
        edges = [pair for pair in pairs if draw(st.booleans())]
    edges = draw(st.permutations(edges))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    fmt = draw(st.sampled_from(["dimacs", "numeric", "opaque"]))
    if fmt == "dimacs":
        written = [(str(u + 1), str(v + 1)) for u, v in edges]
        spell = st.sampled_from(["{}", "0{}", "+{}"])  # all three are read by int()
        lines = [f"p edge {n} {len(edges)}"]
        lines += [f"e {draw(spell).format(a)} {draw(spell).format(b)}" for a, b in written]
    else:
        name = str if fmt == "numeric" else "v{}".format
        written = [(name(u), name(v)) for u, v in edges]
        lines = [f"{n} {len(edges)}"] + [f"{a} {b}" for a, b in written]
    return "\n".join(lines) + "\n", written


@given(written_graphs())
@settings(max_examples=150, deadline=None)
def test_parsed_graph_equals_the_checked_construction(doc):
    text, written = doc
    loaded = parse_graph(text)
    ids = {lab: i for i, lab in enumerate(loaded.labels)}
    g = loaded.graph
    expected = Graph(g.vertex_count, [(ids[a], ids[b]) for a, b in written])
    assert g.adjacency == expected.adjacency
    assert g.edge_count == expected.edge_count == len(written)
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            assert g.adjacent(u, v) == expected.adjacent(u, v) == (v in expected.adjacency[u])


@st.composite
def labelled_edge_lists(draw, max_n: int = 6):
    """n and an edge list whose labels mix the numerals 0..n (n is one past
    the last id) with strings int() reads in other ways, or not at all."""
    n = draw(st.integers(1, max_n))
    pool = [str(i) for i in range(n + 1)] + ["01", "+1", "-0", "1_0", "\u0663", "-1", "x"]
    label = st.sampled_from(pool)
    return n, draw(st.lists(st.tuples(label, label).filter(lambda p: p[0] != p[1]), max_size=8))


@given(labelled_edge_lists())
@example((11, [("1_0", "01"), ("+1", "-0")]))  # int() reads 10, 1, 1, 0; all four opaque
@example((4, [("\u0663", "+1"), ("3", "0")]))  # int() reads the Arabic-Indic 3 as 3; all opaque
@example((4, [("4", "0")]))  # n is out of range, so the labels are opaque
@example((4, [("+1", "1")]))  # two labels, two vertices: no self-loop
@example((3, [("0", "01"), ("01", "2")]))  # "01" is a third vertex, not "1"
@example((3, [("0", "01"), ("1", "2")]))  # four labels for three vertices
@settings(max_examples=200, deadline=None)
def test_numeric_labels_are_read_only_as_canonical_numerals(doc):
    n, pairs = doc
    text = "\n".join([f"{n} {len(pairs)}"] + [f"{a} {b}" for a, b in pairs]) + "\n"
    distinct = list(dict.fromkeys(lab for pair in pairs for lab in pair))
    ids = reference_label_ids(distinct, n)
    numeric = ids is not None
    if not numeric:  # opaque labels take ids in order of first appearance
        ids = {lab: i for i, lab in enumerate(distinct)}
    edges = {frozenset((ids[a], ids[b])) for a, b in pairs}
    if len(ids) > n or len(edges) < len(pairs) or any(len(e) == 1 for e in edges):
        with pytest.raises(GraphParseError):  # too many labels, a repeat or a loop
            parse_graph(text)
        return
    loaded = parse_graph(text)
    if numeric:
        assert loaded.labels == tuple(map(str, range(n)))
    else:
        assert loaded.labels[: len(distinct)] == tuple(distinct)
        assert len(set(loaded.labels)) == len(loaded.labels) == n
    assert loaded.graph == Graph(n, [(ids[a], ids[b]) for a, b in pairs])


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
    loaded = parse_graph("2 1\na b\n")
    with pytest.raises(GraphParseError):
        parse_witness('{"root": "z", "parents": {"z": null}}', loaded)
    with pytest.raises(GraphParseError):
        parse_witness("not json", loaded)
