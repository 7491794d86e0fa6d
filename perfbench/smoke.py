#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the repository root:

    python3 perfbench/smoke.py

Every workload runs at smoke size (8-vertex graphs) through the same code
path as a real run, untraced and traced, and must come out correct with the
metric names that BENCHMARK.json declares. At that size the plan also checks
each certified answer against the exact internal profile. The checker must
reject deliberately corrupted witnesses, an escaped exception must count as
a failed call, and an exit code that contradicts the report must count as
wrong. Exits 0 when all of that holds.
"""
from __future__ import annotations

import io
import json
import os
import sys

import harness
import reference
import run
import workloads


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def declared_metrics() -> tuple[set[str], set[str]]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def workloads_at_smoke_size(end_to_end: set[str], per_layer: set[str]) -> None:
    for name in sorted(workloads.WORKLOADS):
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            log = io.StringIO()
            result = run.bench(name, 1, 0.5, trace, tiny=True, log=log)
            label = f"{name} {'traced' if trace else 'untraced'}"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct, nothing failed ({result['attempted']} calls)")
            check(set(result["metrics"]) == expected, f"{label}: reports exactly the declared metrics")
            if trace:
                mismatches = result["metrics"]["trace.count_mismatches"]["value"]
                check(mismatches == 0, f"{label}: counts repeat exactly between traced passes")


def corrupted_witnesses() -> None:
    # A 4-cycle 0-1-2-3-0. The path 0-1-2-3 is a DFS tree; the breadth-first
    # tree from 0 is a spanning tree whose edge 2-3 joins two branches.
    adj = reference.adjacency(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    labels = ["0", "1", "2", "3"]
    path = {"root": "0", "parents": {"0": None, "1": "0", "2": "1", "3": "2"}}
    check(reference.witness_error(adj, labels, path, "dual-min", 2) is None, "valid DFS tree accepted")
    bfs = {"root": "0", "parents": {"0": None, "1": "0", "2": "1", "3": "0"}}
    check(reference.witness_error(adj, labels, bfs, "dual-max", 3) is not None,
          "spanning tree with a cross edge rejected")
    not_an_edge = {"root": "0", "parents": {"0": None, "1": "0", "2": "0", "3": "2"}}
    check(reference.witness_error(adj, labels, not_an_edge, "dual-max", 3) is not None,
          "tree edge that is not a graph edge rejected")
    cyclic = {"root": "0", "parents": {"0": None, "1": "2", "2": "1", "3": "0"}}
    check(reference.witness_error(adj, labels, cyclic, "dual-max", 3) is not None,
          "parent map with a cycle rejected")
    check(reference.witness_error(adj, labels, path, "dual-min", 4) is not None,
          "tree short of k rejected")


def failure_accounting() -> None:
    inst = next(i for i in workloads.plan("search", 1, tiny=True) if i.expected)
    workloads.materialize([inst], os.path.join(run.HERE, "work", "smoke-failure"))
    lineal = harness.load_program()
    checker = harness.Checker()
    _, rc, stdout, error = harness.call(lineal, inst)
    check(checker.judge(inst, rc, stdout, error)[0] == "yes", "the program's own witness passes")
    report = json.loads(stdout)
    labels, adj = reference.read_graph(inst.path)
    parents = report["witness"]["parents"]
    v = next(lab for lab, p in parents.items() if p is not None)
    stranger = next(labels[u] for u in range(len(adj))
                    if labels[u] != v and u not in adj[labels.index(v)])
    parents[v] = stranger
    status, detail = checker.judge(inst, rc, json.dumps(report), None)
    check(status == "wrong", f"the same witness with {v} re-hung under {stranger} is rejected ({detail})")

    class Crashing:
        class cli:
            @staticmethod
            def run_command(argv):
                raise RecursionError("maximum recursion depth exceeded")

    _, rc, stdout, error = harness.call(Crashing, inst)
    check(checker.judge(inst, rc, stdout, error)[0] == "crashed",
          "an exception escaping run_command is a failed call, not an answer")
    status, _ = checker.judge(inst, 2, json.dumps({"outcome": "yes"}), None)
    check(status == "wrong", "an exit code that contradicts the report's outcome is wrong")


def main() -> int:
    end_to_end, per_layer = declared_metrics()
    workloads_at_smoke_size(end_to_end, per_layer)
    corrupted_witnesses()
    failure_accounting()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    try:
        harness.load_program()
    except harness.BenchError as exc:
        print(f"smoke: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
