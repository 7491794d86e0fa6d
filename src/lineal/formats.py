"""Graph file formats (edge list and DIMACS) and the witness exchange format.

Edge-list labels are opaque strings mapped injectively to dense 0-based ids;
when every label is the canonical numeral `str(i)` of an id i below n, ids
are taken verbatim, so "01" and "1" always name two vertices. Both formats
turn canonical numerals into ids through one dict; a DIMACS endpoint spelled
otherwise ("01", "+1") falls back to `int()`. Each edge keeps the line it
was written on, and an error about an edge names that line.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .graphs import Graph
from .trees import RootedSpanningTree


class GraphParseError(ValueError):
    """Base for all parse failures; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedLineError(GraphParseError):
    pass


class SelfLoopError(GraphParseError):
    pass


class DuplicateEdgeError(GraphParseError):
    pass


class LabelOverflowError(GraphParseError):
    """More distinct labels than the declared vertex count."""


@dataclass(frozen=True)
class LoadedGraph:
    """A parsed graph plus the original label of every dense id."""

    graph: Graph
    labels: tuple[str, ...]


def parse_graph(text: str) -> LoadedGraph:
    """Parse an edge-list or DIMACS document.

    The first data line decides, by the line rules of `_parse_dimacs`: a
    first token 'p' (the problem line) or a DIMACS comment means DIMACS.
    """
    lines = text.splitlines()
    for raw in lines:
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if parts[0] == "p" or _is_dimacs_comment(raw, parts):
            return _parse_dimacs(lines)
        return _parse_edgelist(lines)
    raise MalformedLineError("empty document")


def _parse_edgelist(lines: list[str]) -> LoadedGraph:
    n = m = -1
    tokens: list[str] = []  # the two written labels of each edge, in turn
    rows: list[int] = []  # the line of each edge
    for lineno, raw in enumerate(lines, 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if n < 0:
            if len(parts) != 2:
                raise MalformedLineError("expected header '<vertices> <edges>'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedLineError("header fields must be integers", lineno) from None
            if n < 0 or m < 0:
                raise MalformedLineError("header fields must be non-negative", lineno)
            continue
        if len(parts) != 2:
            raise MalformedLineError("expected an edge as two labels", lineno)
        if len(rows) == m:
            raise MalformedLineError(f"more than the declared {m} edges", lineno)
        tokens += parts
        rows.append(lineno)
    if n < 0:
        raise MalformedLineError("missing header line")
    if len(rows) != m:
        raise MalformedLineError(f"declared {m} edges but found {len(rows)}")
    return _assemble(n, tokens, rows)


def _parse_dimacs(lines: list[str]) -> LoadedGraph:
    """Edge lines are tested first, as most lines are edges. A comment is a
    line whose first token starts with '#', or whose first token is a bare
    'c' that ends the line or is followed by a space."""
    n = m = -1
    us: list[int] = []  # the first endpoint of each edge, as an id
    vs: list[int] = []  # the second endpoint of each edge
    rows: list[int] = []  # the line of each edge
    for lineno, raw in enumerate(lines, 1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "e":
            if n < 0:
                raise MalformedLineError("edge before the problem line", lineno)
            if len(parts) != 3:
                raise MalformedLineError("expected 'e <u> <v>'", lineno)
            if len(rows) == m:
                raise MalformedLineError(f"more than the declared {m} edges", lineno)
            u, v = ids.get(parts[1]), ids.get(parts[2])
            if u is None or v is None:  # not both canonical numerals: read them as int() does
                try:
                    u, v = int(parts[1]) - 1, int(parts[2]) - 1
                except ValueError:
                    raise MalformedLineError("edge endpoints must be integers", lineno) from None
                if not (0 <= u < n and 0 <= v < n):
                    raise MalformedLineError(f"endpoint out of range 1..{n}", lineno)
            us.append(u)
            vs.append(v)
            rows.append(lineno)
        elif kind[0] == "#" or _is_dimacs_comment(raw, parts):
            continue
        elif kind == "p":
            if n >= 0:
                raise MalformedLineError("second problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise MalformedLineError("expected 'p edge <vertices> <edges>'", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise MalformedLineError("problem line fields must be integers", lineno) from None
            if n < 0 or m < 0:
                raise MalformedLineError("problem line fields must be non-negative", lineno)
            # two endpoints a line at most: the rest of 1..n waits until every line is read
            labels = tuple(map(str, range(1, min(n, 2 * len(lines)) + 1)))
            ids = dict(zip(labels, range(n)))
        else:
            raise MalformedLineError(f"unknown line type {kind!r}", lineno)
    if n < 0:
        raise MalformedLineError("missing problem line")
    if len(rows) != m:
        raise MalformedLineError(f"declared {m} edges but found {len(rows)}")
    return _build(labels + tuple(map(str, range(len(labels) + 1, n + 1))), us, vs, rows)


def _is_dimacs_comment(raw: str, parts: list[str]) -> bool:
    """Is `raw`, split into `parts`, a 'c' comment: a bare 'c' that ends the
    line or is followed by a space?"""
    return parts[0] == "c" and (len(parts) == 1 or raw.lstrip()[1] == " ")


def _assemble(n: int, tokens: list[str], rows: list[int]) -> LoadedGraph:
    """Give ids to `tokens`, the labels of edge i at 2i and 2i + 1."""
    labels = tuple(map(str, range(n)))
    flat = list(map(dict(zip(labels, range(n))).get, tokens))
    if None in flat:  # some label is not the numeral of an id below n
        ids = dict.fromkeys(tokens)  # distinct labels, first appearance first
        if len(ids) > n:
            extra = list(ids)[n]
            raise LabelOverflowError(
                f"label {extra!r} brings the distinct labels to {n + 1}, "
                f"but only {n} vertices are declared",
                rows[tokens.index(extra) // 2],
            )
        ids = dict(zip(ids, range(len(ids))))
        i = 0
        while len(ids) < n:  # fill up with the lowest numerals not already taken
            ids.setdefault(str(i), len(ids))
            i += 1
        labels = tuple(ids)
        flat = list(map(ids.__getitem__, tokens))
    return _build(labels, flat[0::2], flat[1::2], rows)


def _build(labels, us, vs, rows) -> LoadedGraph:
    """Check the edges (us[i], vs[i]) over dense ids, edge i written on line
    rows[i], and adopt them as a graph.

    This is the only check of the parsed edges: the graph is built through
    the private constructor. Error text names an endpoint by its label,
    which in an edge list is the label as written.
    """
    neighbors: list[set[int]] = [set() for _ in labels]
    for i, (u, v) in enumerate(zip(us, vs)):
        nu = neighbors[u]
        if u == v or v in nu:
            a, b = labels[u], labels[v]
            if u == v:
                raise SelfLoopError(f"self-loop at {a!r}", rows[i])
            raise DuplicateEdgeError(f"duplicate edge {a!r} {b!r}", rows[i])
        nu.add(v)
        neighbors[v].add(u)
    return LoadedGraph(Graph._adopt(neighbors, len(rows)), labels)


def serialize_graph(g: Graph, labels: tuple[str, ...] | None = None, fmt: str = "edgelist") -> str:
    """Render a graph back to text; round-trips through parse_graph."""
    if labels is None:
        labels = tuple(str(i) for i in range(g.vertex_count))
    if fmt == "edgelist":
        out = [f"{g.vertex_count} {g.edge_count}"]
        out += [f"{labels[u]} {labels[v]}" for u, v in g.edges()]
    elif fmt == "dimacs":
        out = [f"p edge {g.vertex_count} {g.edge_count}"]
        out += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(out) + "\n"


def witness_to_jsonable(t: RootedSpanningTree, labels: tuple[str, ...]) -> dict:
    """Witness exchange form: root plus a parent array in original labels."""
    parent = t.parent
    return {
        "root": labels[t.root],
        "parents": {
            labels[v]: (None if (p := parent[v]) is None else labels[p])
            for v in sorted(parent)
        },
    }


def parse_witness(text: str, loaded: LoadedGraph) -> RootedSpanningTree:
    """Read the JSON witness form against a loaded graph's labels."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"witness is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "root" not in doc or "parents" not in doc:
        raise GraphParseError("witness must be an object with 'root' and 'parents'")
    if not isinstance(doc["parents"], dict):
        raise GraphParseError("witness 'parents' must be an object mapping vertex to parent labels")
    by_label = {lab: i for i, lab in enumerate(loaded.labels)}
    try:
        root = by_label[str(doc["root"])]
        parent: dict[int, int | None] = {}
        for v_lab, p_lab in doc["parents"].items():
            parent[by_label[str(v_lab)]] = None if p_lab is None else by_label[str(p_lab)]
    except KeyError as exc:
        raise GraphParseError(f"witness refers to unknown vertex label {exc.args[0]!r}") from None
    return RootedSpanningTree(root, parent)
