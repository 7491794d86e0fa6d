"""Command-line interface: kernelize, solve, oracle, verify, gen, bench.

`solve` and `bench` run one pipeline for all four variants: kernelize, then
decide the kernel by the tuple search and lift the witness back; every DFS
the pipeline runs starts at vertex 0. `oracle` enumerates the DFS trees of
the input graph itself, up to --oracle-limit vertices; it runs no tuple
search, so it takes --time-limit but not --budget-tuples.

Machine-readable output (JSON reports, generated graphs, CSV sweeps) goes to
stdout or --output; diagnostics go to stderr. `kernelize`, `solve`, `oracle`
and `verify` each print their JSON report as one line. Exit codes: 0 yes, 1 no,
2 undecided (budget, `oracle` refusal, or a reduced-but-unsolved instance),
64 usage error (an unwritable --output and `verify - --witness -` included),
65 parse error (an unreadable or non-UTF-8 input included), 70 internal error
(an unexpected exception; never read as an answer).
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
import traceback
from dataclasses import replace

from .formats import (
    GraphParseError,
    LoadedGraph,
    parse_graph,
    parse_witness,
    serialize_graph,
    witness_to_jsonable,
)
from .generate import FAMILIES, GenerationError, generate
from .graphs import Graph
from .kernel import (
    Decided,
    ProblemInstance,
    Reduced,
    Variant,
    kernelize,
    size_bound,
)
from .solve import (
    BudgetExceeded,
    SolverBudget,
    solve_dual_fpt_with_kernel,
    solve_exact_oracle,
)
from .trees import (
    ORACLE_LIMIT_DEFAULT,
    InvalidTreeError,
    OracleLimitError,
    dfs_tree_violation,
    is_dfs_tree,
)

EX_YES = 0
EX_NO = 1
EX_UNDECIDED = 2
EX_USAGE = 64
EX_PARSE = 65
EX_INTERNAL = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lineal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p):
        p.add_argument("graph", help="graph file (edge list or DIMACS), or '-' for stdin")
        p.add_argument(
            "--variant",
            required=True,
            choices=[v.value for v in Variant],
            help="which leaf-count decision problem to address",
        )
        p.add_argument("-k", type=int, required=True, help="the parameter k (>= 0)")

    def add_budget_args(p):
        p.add_argument("--budget-tuples", type=int, default=None,
                       help="max tuple-prefix expansions of the search")
        p.add_argument("--time-limit", type=float, default=None,
                       help="time limit in seconds for the whole decision, kernelization included")

    p = sub.add_parser("kernelize", help="reduce an instance, emit kernel graph and report")
    add_instance_args(p)
    p.add_argument("--format", choices=["edgelist", "dimacs"], default="edgelist")
    p.add_argument("--output", help="write the kernel graph here")

    p = sub.add_parser(
        "solve", help="decide an instance: kernelize, then search the kernel"
    )
    add_instance_args(p)
    add_budget_args(p)

    p = sub.add_parser("oracle", help="decide by exhaustive DFS-tree enumeration")
    add_instance_args(p)
    p.add_argument("--time-limit", type=float, default=None,
                   help="time limit in seconds for the enumeration")
    p.add_argument("--oracle-limit", type=int, default=ORACLE_LIMIT_DEFAULT,
                   help="max vertices for exhaustive enumeration")

    p = sub.add_parser("verify", help="check a witness tree against a graph and threshold")
    p.add_argument("graph")
    p.add_argument("--witness", required=True, help="JSON witness file (root + parent map)")
    p.add_argument("--variant", choices=[v.value for v in Variant], default=None)
    p.add_argument("-k", type=int, default=None)

    p = sub.add_parser("gen", help="generate a graph from a seeded family")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=None, help="planted cover size (bounded_cover)")
    p.add_argument("--p", type=float, default=None, help="edge probability (gnp, bounded_cover)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["edgelist", "dimacs"], default="edgelist")
    p.add_argument("--output", help="write the graph here instead of stdout")

    p = sub.add_parser("bench", help="sweep an (n, k) grid, emit CSV")
    p.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    p.add_argument("--family", default="bounded_cover", choices=list(FAMILIES))
    p.add_argument("--n-grid", required=True, help="comma-separated vertex counts")
    p.add_argument("--k-grid", required=True, help="comma-separated parameter values")
    p.add_argument("--s", type=int, default=4)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    add_budget_args(p)
    p.add_argument("--output", help="write the CSV here instead of stdout")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parse_args keeps no state in it."""
    return build_parser()


def _budget(args) -> SolverBudget:
    """Budget from the flags; omitted ones take SolverBudget's defaults.

    Given values pass through unchanged, so SolverBudget rejects zero or
    negative ones as a usage error.
    """
    given = {
        "max_tuple_count": getattr(args, "budget_tuples", None),  # `oracle` has no search
        "time_limit": args.time_limit,
    }
    return SolverBudget(**{k: v for k, v in given.items() if v is not None})


def _read_text(path: str) -> str:
    """The strict UTF-8 text of `path`, or of stdin for '-'; a failed read is a parse error."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return data.decode("utf-8")
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"cannot read {path}: not UTF-8 (byte {exc.start})") from None


def _emit(doc: dict) -> None:
    print(json.dumps(doc))


def _write(text: str, path: str | None) -> None:
    """Write `text` to `path`, or to stdout without one; a failed write is a usage error."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from None


def _kernel_stats(g_before: Graph, outcome) -> dict:
    """Report block of a kernelization outcome; None means no kernelization ran."""
    if outcome is None:
        return {"ran": False}
    stats = {"ran": True, "n_before": g_before.vertex_count}
    if isinstance(outcome, Reduced):
        trace = outcome.trace
        s = len(trace.cover)
        stats.update({
            "n_after": outcome.instance.graph.vertex_count,
            "cover_size": s,
            "bound": size_bound(s),
            "rule1_deleted": trace.pendant_deletions,
            "rule2_deleted": trace.unlabeled_deletions,
        })
    return stats


def _outcome_exit(outcome: str) -> int:
    return {"yes": EX_YES, "no": EX_NO}.get(outcome, EX_UNDECIDED)


def cmd_kernelize(args) -> int:
    t0 = time.perf_counter()
    loaded = parse_graph(_read_text(args.graph))
    t1 = time.perf_counter()
    inst = ProblemInstance(loaded.graph, args.k, Variant(args.variant))
    outcome = kernelize(inst)
    t2 = time.perf_counter()
    report = {
        "instance": _instance_desc(args.graph, loaded, args),
        "outcome": None,
        "reason": None,
        "kernel": _kernel_stats(loaded.graph, outcome),
        "timings_ms": {"parse": _ms(t0, t1), "kernelize": _ms(t1, t2), "total": _ms(t0, t2)},
    }
    if isinstance(outcome, Decided):
        report["outcome"] = "yes" if outcome.answer else "no"
        report["reason"] = outcome.reason
    else:
        report["outcome"] = "reduced"
        report["reason"] = f"reduced instance with k'={outcome.instance.k}"
        report["kernel"]["k_after"] = outcome.instance.k
        kernel_text = serialize_graph(outcome.instance.graph, fmt=args.format)
        report["kernel"]["graph"] = kernel_text
        if args.output:
            _write(kernel_text, args.output)
    _emit(report)
    return _outcome_exit(report["outcome"])


def cmd_solve(args) -> int:
    return _decide(args, solve_dual_fpt_with_kernel)


def cmd_oracle(args) -> int:
    return _decide(
        args,
        lambda inst, budget: (solve_exact_oracle(inst, budget, limit=args.oracle_limit), None),
    )


def _decide(args, run) -> int:
    """Report `run(inst, budget)`, which returns a decision and the kernel outcome or None."""
    t0 = time.perf_counter()
    loaded = parse_graph(_read_text(args.graph))
    t1 = time.perf_counter()
    inst = ProblemInstance(loaded.graph, args.k, Variant(args.variant))
    budget = _budget(args)
    report = {
        "instance": _instance_desc(args.graph, loaded, args),
        "outcome": "undecided",
        "reason": None,
        "witness": None,
        "kernel": None,
        "timings_ms": {},
    }
    decision = outcome = None
    try:
        decision, outcome = run(inst, budget)
    except BudgetExceeded as exc:
        report["reason"] = str(exc)
        outcome = exc.kernel
    except OracleLimitError as exc:
        report["reason"] = str(exc)
    t2 = time.perf_counter()
    if decision is not None:
        report["outcome"] = "yes" if decision.answer else "no"
        report["reason"] = decision.reason
        if decision.witness is not None:
            report["witness"] = witness_to_jsonable(decision.witness, loaded.labels)
    report["kernel"] = _kernel_stats(loaded.graph, outcome)
    report["timings_ms"] = {"parse": _ms(t0, t1), "solve": _ms(t1, t2), "total": _ms(t0, t2)}
    _emit(report)
    return _outcome_exit(report["outcome"])


def cmd_verify(args) -> int:
    if (args.variant is None) != (args.k is None):
        raise _UsageError("verify takes --variant and -k together")
    if args.k is not None and args.k < 0:
        raise _UsageError("k must be non-negative")
    if args.graph == args.witness == "-":
        raise _UsageError("verify cannot read both the graph and --witness from stdin")
    loaded = parse_graph(_read_text(args.graph))
    tree = parse_witness(_read_text(args.witness), loaded)
    g = loaded.graph
    report = {"outcome": "no", "reason": None, "internal": None, "leaves": None}
    try:
        if len(tree.parent) != g.vertex_count:
            raise InvalidTreeError("tree does not span the graph")
        violation = dfs_tree_violation(g, tree)
    except InvalidTreeError as exc:
        report["reason"] = f"not a spanning tree: {exc}"
        _emit(report)
        print(report["reason"], file=sys.stderr)
        return EX_NO
    if violation is not None:
        u, v = violation
        report["reason"] = (
            f"not a DFS tree: edge {loaded.labels[u]}-{loaded.labels[v]} joins incomparable vertices"
        )
        _emit(report)
        print(report["reason"], file=sys.stderr)
        return EX_NO
    internal = tree.internal_count()
    leaves = g.vertex_count - internal
    report["internal"] = internal
    report["leaves"] = leaves
    if args.variant is None:
        report["outcome"] = "yes"
        report["reason"] = "valid DFS tree"
    else:
        lo, hi = Variant(args.variant).internal_bounds(g.vertex_count, args.k)
        report["outcome"] = "yes" if lo <= internal <= hi else "no"
        report["reason"] = (
            f"valid DFS tree with {internal} internal vertices and {leaves} leaves"
        )
    _emit(report)
    return _outcome_exit(report["outcome"])


def cmd_gen(args) -> int:
    g = generate(args.family, seed=args.seed, n=args.n, s=args.s, p=args.p)
    _write(serialize_graph(g, fmt=args.format), args.output)
    return EX_YES


def cmd_bench(args) -> int:
    variant = Variant(args.variant)
    budget = _budget(args)
    ns = [int(x) for x in args.n_grid.split(",") if x]
    ks = [int(x) for x in args.k_grid.split(",") if x]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["n", "m", "variant", "k", "s", "kernel_n", "bound", "answer", "t_kernelize_ms", "t_solve_ms"]
    )
    index = 0
    for n in ns:
        for k in ks:
            g = generate(args.family, seed=args.seed + index, n=n, s=min(args.s, n), p=args.p)
            index += 1
            inst = ProblemInstance(g, k, variant)
            t0 = time.perf_counter()
            outcome = kernelize(inst)
            t1 = time.perf_counter()
            left = budget.time_limit - (t1 - t0)  # the limit covers kernelization
            try:
                if left <= 0:
                    raise BudgetExceeded("time")
                decision, _ = solve_dual_fpt_with_kernel(
                    inst, replace(budget, time_limit=left), kernel=outcome
                )
                answer = "yes" if decision.answer else "no"
            except BudgetExceeded:
                answer = "undecided"
            t2 = time.perf_counter()
            stats = _kernel_stats(g, outcome)
            s, kernel_n, bound = (stats.get(key, "") for key in ("cover_size", "n_after", "bound"))
            writer.writerow(
                [n, g.edge_count, variant.value, k, s, kernel_n, bound, answer,
                 _ms(t0, t1), _ms(t1, t2)]
            )
    _write(buf.getvalue(), args.output)
    return EX_YES


def _instance_desc(source: str, loaded: LoadedGraph, args) -> dict:
    return {
        "source": source,
        "n": loaded.graph.vertex_count,
        "m": loaded.graph.edge_count,
        "variant": getattr(args, "variant", None),
        "k": getattr(args, "k", None),
    }


def _ms(t0: float, t1: float) -> float:
    return round((t1 - t0) * 1000.0, 3)


_HANDLERS = {
    "kernelize": cmd_kernelize,
    "solve": cmd_solve,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
    "gen": cmd_gen,
    "bench": cmd_bench,
}


def run_command(argv: list[str]) -> int:
    """Run one `lineal` command line and return its exit code.

    The argument parser is built on the first call and reused by every later
    call in the process, so a caller that runs many commands in one process
    (a benchmark loop, a test suite, an embedding script) builds it once,
    and a one-shot `lineal` process builds it exactly once.
    """
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else EX_USAGE
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_PARSE
    except GenerationError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except Exception as exc:  # a crash must never come out as an answer
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EX_INTERNAL


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
