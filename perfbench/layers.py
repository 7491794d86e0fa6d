"""The traced run: one untraced pass, two traced passes, and the per-layer metrics.

Timings and ``failed_ratio`` come from the first traced pass. Counts are
taken over instances that are not expected to run out of budget (reach and
above-limit instances are excluded), because how far a budget-limited search
gets depends on the clock. Every count, and the number of those instances
left undecided, must repeat exactly in the second traced pass; one that does
not is reported as a defect, and so is an accepted tuple that differs
between the passes. An accepted tuple that does not fit its witness makes
the run incorrect.
"""
from __future__ import annotations

import json
import os
from collections import defaultdict

import reference
from harness import Result, Speed, run_calls
from tracer import LAYERS, Tracer

FRONT_ENDS = ("kernel.kernel_min_llt", "kernel.kernel_max_llt",
              "kernel.kernel_dual_min", "kernel.kernel_dual_max")
SEARCHES = ("solve.solve_dual_min_xp", "solve.solve_dual_max_xp")
REPORTED_COUNTS = (
    "formats.input_bytes", "graphs.without_calls", "graphs.components_outside_calls",
    "kernel.cover_size", "kernel.kernel_n", "kernel.rule1_deleted", "kernel.rule2_deleted",
    "kernel.decided_ratio", "kernel.twin_share", "solve.search_calls", "solve.budget_exhausted",
    "trees.validate_calls", "trees.ancestor_index_builds",
)
COUNTS = REPORTED_COUNTS + ("steady_failed",)  # all must repeat between the traced passes


def _observers() -> dict:
    from lineal.kernel import Decided
    from lineal.solve import BudgetExceeded

    def parse(tr, args, result, exc):
        tr.observe("input_bytes", len(args[0]))

    def front_end(tr, args, result, exc):
        if exc is None:
            tr.observe("decided", isinstance(result, Decided))

    def reduced(tr, args, result, exc):
        if exc is None:
            graph, trace = result
            tr.observe("reduction", (len(trace.cover), graph.vertex_count, trace.pendant_deletions,
                                     trace.unlabeled_deletions, graph.adjacency))

    def budgeted(tr, args, result, exc):
        if isinstance(exc, BudgetExceeded):
            tr.observe("budget_exhausted", 1)

    def pipeline(tr, args, result, exc):
        if exc is None:
            decision, _ = result
            tr.observe("accepted", (decision.accepted_tuple, decision.witness))

    observers = {name: front_end for name in FRONT_ENDS}
    observers.update({name: budgeted for name in SEARCHES + ("solve.solve_exact_oracle",)})
    observers["formats.parse_graph"] = parse
    observers["kernel.reduce_with_cover"] = reduced
    observers["solve.solve_dual_fpt_with_kernel"] = pipeline
    return observers


def _pass(lineal, checker, instances, tracer=None) -> tuple[list[Result], float, float]:
    """One pass: its results, its call time, and its call time rescaled by the machine's speed."""
    speed = Speed()
    results = run_calls(lineal, checker, instances, seconds=None, tracer=tracer, speed=speed)
    return results, sum(r.seconds for r in results), sum(speed.rescale(r) for r in results)


def traced_run(lineal, checker, instances, work: str, *, log) -> tuple[dict, list[Result], list[str]]:
    """Per-layer metrics, every call's result, and the witness/tuple mismatches found."""
    untraced, _, untraced_rescaled = _pass(lineal, checker, instances)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(lineal, _observers())
        try:
            results, busy, rescaled = _pass(lineal, checker, instances, tracer)
        finally:
            tracer.uninstall()
        passes.append((tracer, results, busy, rescaled))
    (first, first_results, first_s, first_rescaled), (second, second_results, _, _) = passes
    metrics = _timings(first, first_s, first_rescaled - untraced_rescaled)
    counts = [_counts(t, r, instances) for t, r, _, _ in passes]
    metrics.update({name: counts[0][name] for name in REPORTED_COUNTS})
    metrics["failed_ratio"] = (sum(1 for r in first_results if not r.decided) / len(first_results),
                               "ratio")
    defects = [f"count {name}: {counts[0][name][0]} then {counts[1][name][0]}"
               for name in COUNTS if counts[0][name][0] != counts[1][name][0]]
    tuples = [_accepted(t, instances) for t, _, _, _ in passes]
    defects += [f"accepted tuple of {name}: {tuples[0].get(name)} then {tuples[1].get(name)}"
                for name in sorted(set(tuples[0]) | set(tuples[1]))
                if tuples[0].get(name) != tuples[1].get(name)]
    metrics["trace.count_mismatches"] = (float(len(defects)), "count")
    for line in defects:
        print(f"  DEFECT: {line}", file=log)
    first.write(os.path.join(work, "spans.tsv"))
    with open(os.path.join(work, "accepted_tuples.json"), "w", encoding="utf-8") as fh:
        json.dump(tuples[0], fh, indent=1, sort_keys=True)
    broken = _tuple_witness_mismatches(first, instances)
    return metrics, untraced + first_results + second_results, broken


def _timings(tr: Tracer, traced_s: float, overhead_s: float) -> dict:
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for name, _, _, _, _, _, dur, self_t in tr.rows():
        total[name] += dur
        own[name] += self_t
    layer_self = {layer: sum((v for k, v in own.items() if k.startswith(layer + ".")), 0.0)
                  for layer in LAYERS}
    s = "s"
    out = {f"{layer}.self_s": (layer_self[layer], s) for layer in LAYERS}
    out.update({
        "formats.parse_s": (total["formats.parse_graph"], s),
        "formats.witness_json_s": (total["formats.witness_to_jsonable"], s),
        "graphs.is_connected_s": (total["graphs.is_connected"], s),
        "graphs.greedy_cover_s": (total["graphs.greedy_cover"], s),
        "graphs.without_s": (total["graphs.Graph.without"], s),
        "kernel.front_end_s": (sum(total[n] for n in FRONT_ENDS), s),
        "kernel.reduce_s": (total["kernel.reduce_with_cover"], s),
        "solve.search_s": (sum(total[n] for n in SEARCHES), s),
        "solve.lift_validate_s": (own["solve.solve_dual_fpt_with_kernel"], s),
        "solve.oracle_s": (total["solve.solve_exact_oracle"], s),
        "trees.dfs_any_s": (total["trees.dfs_any"], s),
        "trees.validate_s": (total["trees.is_dfs_tree"], s),
        "trace.pass_s": (traced_s, s),
        "trace.overhead_s": (overhead_s, s),
        "trace.unaccounted_s": (traced_s - sum(layer_self.values()), s),
    })
    return out


def _counts(tr: Tracer, results: list[Result], instances) -> dict:
    """Count metrics over the pass's instances that are not expected to run out of budget."""
    steady = {i for i, inst in enumerate(instances) if not inst.reach}
    calls: dict[str, int] = defaultdict(int)
    for name, _, inst, _, _, count, _, _ in tr.rows():
        if inst in steady:
            calls[name] += count
    obs: dict[str, list] = defaultdict(list)
    exhausted = 0
    for inst, key, value in tr.observations:
        if key == "budget_exhausted":
            exhausted += 1
        elif inst in steady:
            obs[key].append(value)
    reductions = obs["reduction"]
    kernel_vertices = sum(r[1] for r in reductions)
    decided = obs["decided"]
    steady_results = [r for i, r in enumerate(results) if i in steady]
    c = "count"
    return {
        "formats.input_bytes": (float(sum(obs["input_bytes"])), "bytes"),
        "graphs.without_calls": (float(calls["graphs.Graph.without"]), c),
        "graphs.components_outside_calls": (float(calls["graphs.components_outside"]), c),
        "kernel.cover_size": (_mean([r[0] for r in reductions]), c),
        "kernel.kernel_n": (_mean([r[1] for r in reductions]), c),
        "kernel.rule1_deleted": (float(sum(r[2] for r in reductions)), c),
        "kernel.rule2_deleted": (float(sum(r[3] for r in reductions)), c),
        "kernel.decided_ratio": (sum(decided) / len(decided) if decided else 0.0, "ratio"),
        "kernel.twin_share": (sum(reference.twin_share(r[4]) * r[1] for r in reductions) / kernel_vertices
                              if kernel_vertices else 0.0, "ratio"),
        "solve.search_calls": (float(sum(calls[n] for n in SEARCHES)), c),
        "solve.budget_exhausted": (float(exhausted), c),
        "trees.validate_calls": (float(calls["trees.is_dfs_tree"]), c),
        "trees.ancestor_index_builds": (float(calls["trees.AncestorIndex.build"]), c),
        "steady_failed": (float(sum(1 for r in steady_results if not r.decided)), c),
    }


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _accepted(tr: Tracer, instances) -> dict[str, list[int] | None]:
    return {instances[i].name: (list(value[0]) if value[0] is not None else None)
            for i, key, value in tr.observations if key == "accepted"}


def _tuple_witness_mismatches(tr: Tracer, instances) -> list[str]:
    """An accepted tuple must be the internal set the witness was built around."""
    out = []
    for i, key, value in tr.observations:
        if key != "accepted" or value[0] is None:
            continue
        tup, witness = value
        internal = {p for p in witness.parent.values() if p is not None}
        inst = instances[i]
        if tup[0] != witness.root or len(set(tup)) != len(tup) or (
            not set(tup) <= internal if inst.variant == "dual-min" else not internal <= set(tup)
        ):
            out.append(f"witness of {inst.name} does not fit accepted tuple {list(tup)}")
    return out
