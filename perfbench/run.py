#!/usr/bin/env python3
"""The lineal benchmark: CLI decision throughput on one workload.

Run from the root of a checkout that holds ``src/lineal``:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

It plans the workload's instances from the seed, writes them as graph files
(the timed set-up, repeated and reported as a median), then calls
``lineal.cli.run_command`` in this process, one instance after another, until
the calls have used ``--seconds``. Every answer is compared with the
certified expected answer and every witness goes through the benchmark's own
checker. Between calls a fixed calibration kernel measures the machine's
speed, and the end-to-end times are rescaled by it to the reference machine.
The last line of stdout is one JSON object; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` runs an untraced pass and two traced
passes over the whole list and reports the per-layer metrics. See METRICS.md.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layers
import workloads
from harness import CALIBRATION_WINDOW, BenchError, Checker, Result, Speed, load_program, run_calls

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 200
FAILED_SECONDS = 1e9  # stands in for +infinity: a failed call misses every latency


def nearest_rank(values: list[float], percent: int) -> float:
    """The smallest value with at least `percent` % of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, -(-percent * len(ordered) // 100) - 1)]


def per_instance(results: list[Result], seconds) -> list[tuple[float, float]]:
    """(median call seconds, median latency) per distinct instance, in first-call order.

    `seconds` gives a call's time. A run makes several passes over the list;
    taking each instance's median over its passes keeps a slow stretch of the
    machine from moving the figures. A failed call's latency counts as
    +infinity.
    """
    by_instance: dict[int, list[Result]] = {}
    for r in results:
        by_instance.setdefault(id(r.instance), []).append(r)
    return [(statistics.median(seconds(r) for r in rs),
             statistics.median(seconds(r) if r.decided else FAILED_SECONDS for r in rs))
            for rs in by_instance.values()]


def call_metrics(samples: list[tuple[float, float]]) -> dict:
    latencies = [lat for _, lat in samples]
    decided = sum(1 for lat in latencies if lat < FAILED_SECONDS)
    return {
        "decisions_per_s": (decided / sum(secs for secs, _ in samples), "1/s"),
        "decision_s.p50": (nearest_rank(latencies, 50), "s"),
        "decision_s.p90": (nearest_rank(latencies, 90), "s"),
    }


def end_to_end(results: list[Result], setup_times: list[float], setup_speed: Speed,
               call_speed: Speed, log) -> dict:
    """The end-to-end metrics, every time rescaled to the reference machine (see METRICS.md)."""
    metrics = call_metrics(per_instance(results, call_speed.rescale))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["setup_s"] = (statistics.median(setup_times) * setup_speed.factor, "s")
    measured = call_metrics(per_instance(results, lambda r: r.seconds))
    print(f"  speed factor: set-up {setup_speed.factor:.4f} ({len(setup_speed.samples)} samples), "
          f"calls {call_speed.factor:.4f} ({len(call_speed.samples)} samples); as measured: "
          + ", ".join(f"{name} {value:.6g}" for name, (value, _) in measured.items())
          + f", setup_s {statistics.median(setup_times):.6g}", file=log)
    return metrics


def summarize(workload: str, seed: int, results: list[Result], log) -> None:
    """Per-workload account on stderr: sample count, failures by name."""
    calls = len(results)
    distinct = len({id(r.instance) for r in results})
    failed = [r for r in results if not r.decided]
    print(f"[{workload} seed {seed}] {calls} calls over {distinct} distinct instances, "
          f"{calls - len(failed)} decided, failed_ratio {len(failed) / max(calls, 1):.4f}; "
          f"percentiles rest on {distinct} instance medians ({distinct - -(-9 * distinct // 10)} "
          f"beyond p90)", file=log)
    seen = set()
    for r in failed:
        if r.instance.name in seen:
            continue
        seen.add(r.instance.name)
        kind = "expected at the seed" if r.instance.reach else "unexpected"
        print(f"  {r.status} ({kind}): {r.instance.name}: {r.detail}", file=log)


def write_manifest(path: str, instances) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{
            "name": i.name, "file": os.path.basename(i.path), "family": i.family,
            "params": i.params, "gen_seed": i.gen_seed, "format": i.fmt, "labels": i.labels,
            "argv": i.argv_tail, "expected": "yes" if i.expected else "no",
            "certificate": i.certificate, "reach": i.reach,
        } for i in instances], fh, indent=1)


PLAN_CHILD = ("import pickle, sys, workloads; sys.stdout.buffer.write(pickle.dumps("
              "workloads.plan(sys.argv[1], int(sys.argv[2]), tiny=sys.argv[3] == '1')))")
PLAN_TIMEOUT_S = 150


def plan_apart(workload: str, seed: int, tiny: bool):
    """Plan in a child process, so that the planner's memory stays out of peak_rss_mb.

    The child is a plain interpreter that this process waits for (and kills
    and waits for on a timeout), so nothing it starts outlives the run.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(os.getcwd(), "src")]))
    try:
        done = subprocess.run([sys.executable, "-c", PLAN_CHILD, workload, str(seed), str(int(tiny))],
                              env=env, capture_output=True, timeout=PLAN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"planning {workload} seed {seed} took over {PLAN_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"planning {workload} seed {seed} failed: {done.stderr.decode()[-2000:]}")
    return pickle.loads(done.stdout)


def prepare(workload: str, seed: int, work: str, speed: Speed, *, tiny: bool = False):
    """Plan the instances, then write their files repeatedly; returns (instances, set-up times).

    Set-up repeats at least SETUP_REPEATS times and until SETUP_MIN_S have
    passed, so that a set-up of a few milliseconds still yields a steady median.
    The machine's speed is sampled before every repeat, and at least
    2 * CALIBRATION_WINDOW times in all.
    """
    instances = plan_apart(workload, seed, tiny)
    times: list[float] = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        speed.sample()
        t0 = time.perf_counter()
        workloads.materialize(instances, work)
        times.append(time.perf_counter() - t0)
    while len(speed.samples) < 2 * CALIBRATION_WINDOW:
        speed.sample()
    write_manifest(os.path.join(work, "manifest.json"), instances)
    return instances, times


def bench(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
          log=sys.stderr) -> dict:
    """One run: plan, timed set-up, then the measured calls; returns the result object."""
    lineal = load_program()
    work = os.path.join(HERE, "work", f"{workload}-{seed}{'-tiny' if tiny else ''}")
    setup_speed, call_speed = Speed(), Speed()
    instances, setup_times = prepare(workload, seed, work, setup_speed, tiny=tiny)
    checker = Checker()
    if trace:
        metrics, results, broken = layers.traced_run(lineal, checker, instances, work, log=log)
    else:
        results = run_calls(lineal, checker, instances, seconds=seconds, speed=call_speed)
        metrics, broken = end_to_end(results, setup_times, setup_speed, call_speed, log), []
    summarize(workload, seed, results, log)
    broken += [f"{r.instance.name}: {r.detail}" for r in results if r.status == "wrong"]
    for line in broken:
        print(f"  WRONG: {line}", file=log)
    return {
        "correct": not broken,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.status in ("crashed", "error")),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
