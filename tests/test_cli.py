import contextlib
import io
import json
import os
import re
import tempfile
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineal import Graph, dfs_any, generate, parse_graph, serialize_graph, witness_to_jsonable
from lineal.cli import run_command

from helpers import C4, connected_graphs


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    return str(path)


@pytest.fixture()
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n")
    return str(path)


@pytest.fixture()
def p6_file(tmp_path):
    path = tmp_path / "p6.txt"
    path.write_text("6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n")
    return str(path)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    return json.loads(out)


def test_solve_dual_min_yes_with_witness(capsys, c4_file):
    code, out, _ = run(capsys, "solve", c4_file, "--variant", "dual-min", "-k", "3")
    assert code == 0
    rep = report_of(out)
    assert rep["outcome"] == "yes"
    assert rep["witness"]["root"] == "0"
    assert set(rep["witness"]["parents"]) == {"0", "1", "2", "3"}


def test_kernelize_decided_no(capsys, p6_file):
    # no vertex of P6 has degree above 2, but its greedy matching has 3 edges
    code, out, _ = run(capsys, "kernelize", p6_file, "--variant", "dual-max", "-k", "2")
    assert code == 1
    rep = report_of(out)
    assert rep["outcome"] == "no"
    assert rep["reason"] == "maximal matching of size 3 needs more than 2 internal vertices"


def test_dual_max_high_degree_rule_answers_no(capsys, tmp_path):
    # the net: a 2-edge matching, but 3 vertices of degree 3 > k = 2
    net = tmp_path / "net.txt"
    net.write_text("6 6\n0 1\n0 2\n1 2\n0 3\n1 4\n2 5\n")
    reason = "3 vertices of degree above 2 must all be internal"
    for command in ("kernelize", "solve"):
        code, out, _ = run(capsys, command, str(net), "--variant", "dual-max", "-k", "2")
        assert code == 1
        rep = report_of(out)
        assert (rep["outcome"], rep["reason"]) == ("no", reason)


def test_max_llt_above_the_vertex_count_answers_no(capsys, tmp_path):
    # more leaves asked for than there are vertices: the reason names k and
    # n, never a negative bound on the internal vertices
    for text, n, k in [("3 2\n0 1\n1 2\n", 3, 5), ("1 0\n", 1, 2)]:
        path = tmp_path / f"n{n}.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "solve", str(path), "--variant", "max-llt", "-k", str(k))
        assert code == 1
        rep = report_of(out)
        assert (rep["outcome"], rep["reason"]) == (
            "no", f"more leaves (k = {k}) than vertices (n = {n})"
        )
        assert not re.search(r"-\d", rep["reason"])


def test_kernelize_reduced_writes_kernel(capsys, tmp_path):
    star = tmp_path / "star.txt"
    star.write_text("6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n")
    kern = tmp_path / "kern.txt"
    code, out, _ = run(
        capsys, "kernelize", str(star), "--variant", "dual-min", "-k", "2",
        "--output", str(kern),
    )
    assert code == 2
    rep = report_of(out)
    assert rep["outcome"] == "reduced"
    stats = rep["kernel"]
    assert stats["ran"] and stats["n_before"] == 6 and stats["n_after"] == 3
    assert stats["n_after"] <= stats["bound"]
    assert parse_graph(kern.read_text()).graph.vertex_count == 3


def test_verify_accepts_and_rejects(capsys, c4_file, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps({"root": "0", "parents": {"0": None, "1": "0", "2": "1", "3": "2"}})
    )
    code, out, _ = run(capsys, "verify", c4_file, "--witness", str(good))
    assert code == 0
    assert report_of(out)["outcome"] == "yes"

    code, out, _ = run(
        capsys, "verify", c4_file, "--witness", str(good), "--variant", "dual-min", "-k", "3"
    )
    assert code == 0

    code, out, _ = run(
        capsys, "verify", c4_file, "--witness", str(good), "--variant", "dual-max", "-k", "2"
    )
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"root": "0", "parents": {"0": None, "1": "0", "3": "0", "2": "3"}})
    )
    code, out, err = run(capsys, "verify", c4_file, "--witness", str(bad))
    assert code == 1
    assert "not a DFS tree" in report_of(out)["reason"]
    assert "1-2" in err

    not_spanning = tmp_path / "partial.json"
    not_spanning.write_text(json.dumps({"root": "0", "parents": {"0": None, "1": "0"}}))
    code, out, _ = run(capsys, "verify", c4_file, "--witness", str(not_spanning))
    assert code == 1
    assert "not a spanning tree" in report_of(out)["reason"]


def test_a_non_canonical_numeral_is_a_label_of_its_own(capsys, tmp_path):
    # str() writes 1 as "1", not "01", so the labels are opaque: "01" names a
    # vertex of its own, and verify accepts the witness solve writes with it
    path = tmp_path / "zero-one.txt"
    path.write_text("3 2\n0 01\n01 2\n")
    code, out, _ = run(capsys, "solve", str(path), "--variant", "dual-min", "-k", "1")
    assert code == 0
    witness = report_of(out)["witness"]
    assert witness == {"root": "0", "parents": {"0": None, "01": "0", "2": "01"}}
    (tmp_path / "w.json").write_text(json.dumps(witness))
    assert run(capsys, "verify", str(path), "--witness", str(tmp_path / "w.json"))[0] == 0
    # "01" and "1" are two labels, so three vertices cannot hold four
    path.write_text("3 2\n0 01\n1 2\n")
    code, _, err = run(capsys, "solve", str(path), "--variant", "dual-min", "-k", "1")
    assert code == 65
    assert "label '2' brings the distinct labels to 4" in err


@pytest.mark.parametrize("parents", [[], "0", 0], ids=["list", "string", "number"])
def test_verify_rejects_parents_that_are_not_an_object(capsys, c4_file, tmp_path, parents):
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"root": 0, "parents": parents}))
    code, out, err = run(capsys, "verify", c4_file, "--witness", str(witness))
    assert code == 65
    assert out == ""
    assert err.startswith("parse error:") and "parents" in err


@pytest.mark.parametrize("variant", ["min-llt", "max-llt", "dual-min", "dual-max"])
def test_verify_rejects_a_negative_k(capsys, c4_file, tmp_path, variant):
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps(witness_to_jsonable(dfs_any(C4, 0), ("0", "1", "2", "3"))))
    code, out, err = run(
        capsys, "verify", c4_file, "--witness", str(witness), "--variant", variant, "-k", "-1"
    )
    assert code == 64
    assert out == ""
    assert "k must be non-negative" in err


@pytest.mark.parametrize("given", [["-k", "3"], ["--variant", "dual-min"]], ids=["k", "variant"])
def test_verify_takes_variant_and_k_together(capsys, c4_file, tmp_path, given):
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps(witness_to_jsonable(dfs_any(C4, 0), ("0", "1", "2", "3"))))
    code, out, err = run(capsys, "verify", c4_file, "--witness", str(witness), *given)
    assert code == 64
    assert out == ""
    assert "--variant and -k together" in err


def test_verify_refuses_graph_and_witness_both_from_stdin(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"2 1\n0 1\n"))
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "verify", "-", "--witness", "-")
    assert code == 64
    assert out == ""
    assert "both the graph and --witness from stdin" in err
    assert stdin.read() == "2 1\n0 1\n"  # refused before anything was read


def test_oracle_and_limit(capsys, c4_file):
    argv = ["oracle", c4_file, "--variant", "max-llt", "-k", "2"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    code, out, _ = run(capsys, *argv, "--oracle-limit", "3")
    assert code == 2
    assert report_of(out)["outcome"] == "undecided"


def test_solve_non_dual_searches_the_kernel(capsys, star_file):
    # at most 4 leaves: the DFS from the centre has 1 internal vertex, 2 are asked for
    code, out, _ = run(capsys, "solve", star_file, "--variant", "min-llt", "-k", "4")
    assert code == 0
    rep = report_of(out)
    assert rep["reason"] == "tuple search on the kernel"


def test_solve_max_llt_settles_the_star_by_its_first_dfs(capsys, tmp_path):
    # the DFS from the centre has 1 internal vertex, as many as 51 - 50 allows:
    # the front-end says yes before reducing
    star = tmp_path / "star51.txt"
    star.write_text("51 50\n" + "".join(f"0 {i}\n" for i in range(1, 51)))
    code, out, _ = run(capsys, "solve", str(star), "--variant", "max-llt", "-k", "50")
    assert code == 0
    rep = report_of(out)
    assert rep["outcome"] == "yes"
    assert rep["reason"] == "DFS tree from vertex 0 has 1 internal vertices"
    assert rep["kernel"] == {"ran": True, "n_before": 51}
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps(rep["witness"]))
    code, out, _ = run(
        capsys, "verify", str(star), "--witness", str(witness), "--variant", "max-llt", "-k", "50"
    )
    assert code == 0
    assert report_of(out)["leaves"] == 50


def test_min_llt_is_decided_on_a_kernel_above_ten_vertices(capsys, tmp_path):
    path = tmp_path / "bc40.txt"
    path.write_text(serialize_graph(generate("bounded_cover", seed=0, n=40, s=4, p=0.3)))
    code, out, _ = run(capsys, "solve", str(path), "--variant", "min-llt", "-k", "33")
    assert code == 0
    rep = report_of(out)
    assert rep["reason"] == "tuple search on the kernel"
    assert (rep["kernel"]["n_before"], rep["kernel"]["n_after"]) == (40, 22)
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps(rep["witness"]))
    code, out, _ = run(
        capsys, "verify", str(path), "--witness", str(witness), "--variant", "min-llt", "-k", "33"
    )
    assert code == 0
    assert report_of(out)["leaves"] <= 33
    # the planted cover 0..3 allows at most 8 internal vertices, so 32 leaves at least
    code, out, _ = run(capsys, "solve", str(path), "--variant", "min-llt", "-k", "31")
    assert code == 1
    assert report_of(out)["outcome"] == "no"


def test_solve_reports_a_kernelization_the_front_end_decided(capsys, tmp_path):
    path = tmp_path / "p6.txt"
    path.write_text("6 5\n" + "".join(f"{i} {i + 1}\n" for i in range(5)))
    code, out, _ = run(capsys, "solve", str(path), "--variant", "dual-min", "-k", "3")
    assert code == 0
    rep = report_of(out)
    assert rep["reason"] == "DFS tree from vertex 0 has 5 internal vertices"
    assert rep["kernel"] == {"ran": True, "n_before": 6}
    code, out, _ = run(capsys, "oracle", str(path), "--variant", "dual-min", "-k", "3")
    assert code == 0
    assert report_of(out)["kernel"] == {"ran": False}


def test_oracle_on_a_long_path(capsys, tmp_path):
    n = 1500
    path = tmp_path / "p1500.txt"
    path.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    code, out, _ = run(
        capsys, "oracle", str(path), "--variant", "dual-min", "-k", str(n - 2),
        "--oracle-limit", "2000",
    )
    assert code == 0
    assert report_of(out)["reason"] == "exhaustive enumeration"


def test_gen_roundtrip_and_determinism(capsys):
    code1, out1, _ = run(capsys, "gen", "--family", "gnp", "--n", "12", "--p", "0.4", "--seed", "5")
    assert code1 == 0
    code2, out2, _ = run(capsys, "gen", "--family", "gnp", "--n", "12", "--p", "0.4", "--seed", "5")
    assert out1 == out2
    g = parse_graph(out1).graph
    assert g.vertex_count == 12

    code, out, _ = run(capsys, "gen", "--family", "cycle", "--n", "4", "--format", "dimacs")
    assert out.startswith("p edge 4 4")
    assert parse_graph(out).graph == C4


def test_bench_csv_shape_and_determinism(capsys):
    argv = [
        "bench", "--variant", "dual-max", "--n-grid", "12,18", "--k-grid", "1,2",
        "--seed", "3",
    ]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    lines = out1.strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "n", "m", "variant", "k", "s", "kernel_n", "bound", "answer",
        "t_kernelize_ms", "t_solve_ms",
    ]
    assert len(lines) == 5
    for row in lines[1:]:
        fields = dict(zip(header, row.split(",")))
        assert fields["answer"] in ("yes", "no", "undecided")
        if fields["kernel_n"]:
            assert int(fields["kernel_n"]) <= int(fields["bound"])
    code, out2, _ = run(capsys, *argv)
    # byte-identical apart from the timing columns
    strip = lambda text: [row.rsplit(",", 2)[0] for row in text.splitlines()]
    assert strip(out1) == strip(out2)


def test_usage_errors(capsys, c4_file):
    assert run(capsys, "solve", c4_file, "--variant", "dual-min")[0] == 64
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys, "gen", "--family", "gnp", "--n", "5")[0] == 64
    assert run(capsys, "gen", "--family", "gnp", "--n", "5", "--p", "0.0")[0] == 64
    for command in ("solve", "kernelize"):  # every DFS starts at vertex 0
        argv = [command, c4_file, "--variant", "dual-min", "-k", "3", "--root", "0"]
        assert run(capsys, *argv)[0] == 64


def test_an_unwritable_output_is_a_usage_error(capsys, tmp_path):
    graph = tmp_path / "bc40.txt"
    graph.write_text(serialize_graph(generate("bounded_cover", seed=0, n=40, s=4, p=0.3)))
    target = str(tmp_path / "missing" / "x")
    for argv in (
        ["gen", "--family", "path", "--n", "3"],
        ["kernelize", str(graph), "--variant", "dual-max", "-k", "4"],
        ["bench", "--variant", "dual-max", "--n-grid", "12", "--k-grid", "1"],
    ):
        code, out, err = run(capsys, *argv, "--output", target)
        assert code == 64
        assert out == ""
        assert f"cannot write {target}" in err and "internal error" not in err


def test_one_parser_serves_a_sequence_of_calls(capsys, monkeypatch, star_file):
    import lineal.cli as cli

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    instance = [star_file, "--variant", "dual-min", "-k", "2"]
    sequence = [
        ["solve", star_file, "--variant", "dual-min"],  # usage error: no -k
        ["solve", "--help"],
        ["solve", *instance],
        ["oracle", *instance, "--oracle-limit", "5"],
        ["oracle", *instance],
    ]

    def outputs(argv):
        code, out, err = run(capsys, *argv)
        if out.startswith("{"):
            out = report_of(out)
            out.pop("timings_ms")
        return code, out, err

    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(outputs(argv))
    # a flag given to one call must not leak into the next
    assert (fresh[3][0], fresh[4][0]) == (2, 0)
    cli._parser.cache_clear()
    builds.clear()
    assert [outputs(argv) for argv in sequence] == fresh
    assert len(builds) == 1


def test_parse_errors(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 0\n")
    code, _, err = run(capsys, "solve", str(bad), "--variant", "dual-min", "-k", "1")
    assert code == 65
    assert "parse error" in err
    assert run(capsys, "solve", str(tmp_path / "missing.txt"), "--variant", "dual-min", "-k", "1")[0] == 65


def test_non_utf8_input_is_a_parse_error(capsys, monkeypatch, tmp_path, c4_file):
    # a file and stdin read the same bytes the same way
    latin1 = b"2 1\n\xe9 b\n"
    path = tmp_path / "latin1.txt"
    path.write_bytes(latin1)
    solve = ("--variant", "dual-min", "-k", "1")
    code, out, err = run(capsys, "solve", str(path), *solve)
    assert (code, out) == (65, "")
    assert err == f"parse error: cannot read {path}: not UTF-8 (byte 4)\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(latin1)))
    code, out, err = run(capsys, "solve", "-", *solve)
    assert (code, out) == (65, "")
    assert err == "parse error: cannot read -: not UTF-8 (byte 4)\n"
    witness = tmp_path / "w.json"
    witness.write_bytes(b'{"root": "\xe9", "parents": {}}')
    code, out, err = run(capsys, "verify", c4_file, "--witness", str(witness))
    assert (code, out) == (65, "")
    assert "not UTF-8 (byte 10)" in err
    code, out, err = run(capsys, "verify", c4_file, "--witness", str(tmp_path / "missing.json"))
    assert (code, out) == (65, "")
    assert err.startswith(f"parse error: cannot read {tmp_path / 'missing.json'}:")


def test_report_determinism_modulo_timings(capsys, c4_file):
    argv = ["solve", c4_file, "--variant", "dual-min", "-k", "3"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    r1, r2 = report_of(out1), report_of(out2)
    r1.pop("timings_ms")
    r2.pop("timings_ms")
    assert r1 == r2


def test_every_report_is_one_line(capsys, c4_file, star_file, tmp_path):
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps(witness_to_jsonable(dfs_any(C4, 0), ("0", "1", "2", "3"))))
    for argv in (
        ["solve", c4_file, "--variant", "dual-min", "-k", "3"],
        ["oracle", c4_file, "--variant", "dual-max", "-k", "2"],
        ["kernelize", star_file, "--variant", "dual-min", "-k", "2"],  # holds the kernel text
        ["verify", c4_file, "--witness", str(witness)],
    ):
        _, out, _ = run(capsys, *argv)
        line, newline, rest = out.partition("\n")
        assert newline and not rest, argv
        assert json.loads(line) == json.loads(out), argv


@pytest.mark.parametrize("flag", ["--time-limit", "--budget-tuples", "--oracle-limit"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_budget_flags_are_usage_errors(capsys, star_file, flag, value):
    command = "oracle" if flag == "--oracle-limit" else "solve"
    argv = [command, star_file, "--variant", "dual-min", "-k", "2", flag, value]
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "positive" in err
    if command == "solve":
        code, _, _ = run(
            capsys, "bench", "--variant", "dual-max", "--n-grid", "12", "--k-grid", "1", flag, value
        )
        assert code == 64


@pytest.mark.parametrize("command", ["solve", "oracle", "bench"])
def test_a_nan_time_limit_is_a_usage_error(capsys, star_file, command):
    if command == "bench":
        argv = ["bench", "--variant", "dual-max", "--n-grid", "12", "--k-grid", "1"]
    else:
        argv = [command, star_file, "--variant", "dual-min", "-k", "2"]
    code, out, err = run(capsys, *argv, "--time-limit", "nan")
    assert code == 64
    assert out == ""
    assert "positive" in err


def test_only_oracle_takes_an_oracle_limit(capsys, star_file):
    argv = [star_file, "--variant", "max-llt", "-k", "5", "--oracle-limit", "5"]
    code, out, err = run(capsys, "solve", *argv)
    assert code == 64 and out == ""
    assert "--oracle-limit" in err
    code, _, _ = run(
        capsys, "bench", "--variant", "max-llt", "--n-grid", "12", "--k-grid", "1",
        "--oracle-limit", "5",
    )
    assert code == 64
    code, out, _ = run(capsys, "oracle", *argv)
    assert code == 2
    assert report_of(out)["reason"] == "graph has 6 vertices, oracle limit is 5"
    assert report_of(out)["kernel"] == {"ran": False}


def test_oracle_takes_no_tuple_budget(capsys, tmp_path):
    g9 = tmp_path / "g9.txt"
    g9.write_text(serialize_graph(generate("gnp", seed=2, n=9, p=0.5)))
    argv = ["oracle", str(g9), "--variant", "dual-max", "-k", "2"]
    code, out, err = run(capsys, *argv, "--budget-tuples", "1")
    assert code == 64 and out == ""
    assert "--budget-tuples" in err
    code, out, _ = run(capsys, *argv, "--time-limit", "5")
    assert code == 1
    assert report_of(out)["reason"] == "exhaustive enumeration"
    code, out, _ = run(capsys, "oracle", "--help")
    assert code == 0
    assert "--time-limit" in out and "--budget-tuples" not in out


def test_undecided_search_reports_the_kernel(capsys, star_file):
    code, out, _ = run(
        capsys, "solve", star_file, "--variant", "dual-min", "-k", "2", "--budget-tuples", "1"
    )
    assert code == 2
    rep = report_of(out)
    assert rep["outcome"] == "undecided"
    assert rep["reason"] == "undecided: tuple budget exhausted"
    stats = rep["kernel"]
    assert stats["ran"] and stats["n_before"] == 6 and stats["n_after"] == 3
    assert stats["cover_size"] == 1 and stats["rule1_deleted"] == 3


@pytest.mark.parametrize(
    "budget, reason",
    [
        # the tuple search walks prefixes a thousand vertices deep
        (["-k", "1003", "--budget-tuples", "5000"], "undecided: tuple budget exhausted"),
        # the cover search for the counting bound branches a thousand levels deep
        (["-k", "2000", "--time-limit", "0.5"], "undecided: time budget exhausted"),
    ],
    ids=["tuple-search", "cover-search"],
)
def test_a_search_deeper_than_the_recursion_limit_ends_undecided(capsys, tmp_path, budget, reason):
    # a spider with 1000 legs of length 2 around vertex 0; nothing reduces it
    legs = range(1, 1001)
    spider = Graph(2001, [(0, i) for i in legs] + [(i, 1000 + i) for i in legs])
    path = tmp_path / "spider.txt"
    path.write_text(serialize_graph(spider))
    code, out, _ = run(capsys, "solve", str(path), "--variant", "dual-min", *budget)
    assert code == 2
    rep = report_of(out)
    assert (rep["outcome"], rep["reason"]) == ("undecided", reason)


def test_unexpected_exception_exits_internal(capsys, c4_file, monkeypatch):
    import lineal.cli as cli

    def crash(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli._HANDLERS, "oracle", crash)
    code, out, err = run(capsys, "oracle", c4_file, "--variant", "max-llt", "-k", "2")
    assert code == cli.EX_INTERNAL == 70
    assert out == ""
    assert err.startswith("internal error: RecursionError")


@pytest.mark.parametrize("variant, ks", [("dual-min", "4,6,8"), ("dual-max", "2,3,4")])
def test_bench_kernelizes_once_per_cell(capsys, monkeypatch, variant, ks):
    import lineal.kernel as kernel

    name = {"dual-min": "kernel_dual_min", "dual-max": "kernel_dual_max"}[variant]
    front_end = getattr(kernel, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return front_end(*args, **kwargs)

    monkeypatch.setattr(kernel, name, counted)
    code, out, _ = run(
        capsys, "bench", "--variant", variant, "--n-grid", "12,18", "--k-grid", ks, "--seed", "3",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 6
    assert len(calls) == 6
    assert any(row.split(",")[5] for row in rows)  # some cell reached the search


def test_bench_time_limit_covers_kernelization(capsys, monkeypatch):
    import lineal.cli as cli

    fast = cli.kernelize

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return fast(*args, **kwargs)

    monkeypatch.setattr(cli, "kernelize", slow)
    code, out, _ = run(
        capsys, "bench", "--variant", "dual-min", "--n-grid", "60", "--k-grid", "7",
        "--time-limit", "0.05",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[7] == "undecided"
    assert float(row[8]) >= 200


def test_kernel_decided_answer_keeps_the_time_limit(capsys, monkeypatch, tmp_path):
    import lineal.solve as solve

    fast = solve.kernelize

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return fast(*args, **kwargs)

    monkeypatch.setattr(solve, "kernelize", slow)
    path = tmp_path / "p6.txt"
    path.write_text("6 5\n" + "".join(f"{i} {i + 1}\n" for i in range(5)))
    code, out, _ = run(
        capsys, "solve", str(path), "--variant", "dual-min", "-k", "3", "--time-limit", "0.05"
    )
    assert code == 2
    rep = report_of(out)
    assert rep["outcome"] == "undecided"
    assert rep["reason"] == "undecided: time budget exhausted"
    assert rep["kernel"] == {"ran": True, "n_before": 6}
    assert rep["witness"] is None


def test_kernel_decided_yes_reuses_the_certificate_tree(capsys, monkeypatch, tmp_path):
    import lineal.kernel as kernel
    import lineal.solve as solve

    g = Graph(8, [(i, i + 1) for i in range(7)])
    path = tmp_path / "p8.txt"
    path.write_text(serialize_graph(g))
    calls = []

    def counted(*args):
        calls.append(args)
        return dfs_any(*args)

    monkeypatch.setattr(kernel, "dfs_any", counted)
    monkeypatch.setattr(solve, "dfs_any", counted)
    code, out, _ = run(capsys, "solve", str(path), "--variant", "dual-min", "-k", "3")
    assert code == 0
    rep = report_of(out)
    assert rep["reason"] == "DFS tree from vertex 0 has 7 internal vertices"
    assert len(calls) == 1
    labels = tuple(str(i) for i in range(8))
    assert rep["witness"] == witness_to_jsonable(dfs_any(g, 0), labels)


@st.composite
def any_graphs(draw, max_n: int = 7):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for flag, pair in zip(flags, pairs) if flag])


@given(st.one_of(connected_graphs(max_n=7), any_graphs()))
@settings(max_examples=30, deadline=None)
def test_exit_code_matches_the_reported_outcome(g):
    exits = {"yes": 0, "no": 1, "undecided": 2}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_graph(g))
        for command in ("solve", "oracle"):
            for variant in ("min-llt", "max-llt", "dual-min", "dual-max"):
                for k in range(g.vertex_count + 2):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = run_command(
                            [command, path, "--variant", variant, "-k", str(k), "--time-limit", "1"]
                        )
                    assert code in {0, 1, 2, 64, 65, 70}, (command, variant, k)
                    if code in exits.values():
                        outcome = report_of(out.getvalue())["outcome"]
                        assert code == exits[outcome], (command, variant, k)
                    else:
                        assert out.getvalue() == ""
