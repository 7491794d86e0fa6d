"""Calling the program and judging its output.

Calls go through ``lineal.cli.run_command`` in this process with stdout and
stderr captured. An exception that escapes it is a failed instance, never
an answer. Each answer is compared with the instance's certified expected
answer, and each yes-witness is checked by ``reference``.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field

import reference

EXIT_CODES = {"yes": 0, "no": 1, "undecided": 2}
CALIBRATION_NOMINAL_S = 0.005
"""Median time of `calibration_kernel` on the reference machine (2-vCPU Intel Xeon VM, 2.0 GHz)."""
CALIBRATION_EVERY_S = 0.25  # call time between two calibration samples
CALIBRATION_WINDOW = 4  # samples on each side of a call that rescale it


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    """Import lineal from ./src of the working directory, and only from there."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "lineal", "cli.py")):
        raise BenchError(f"no lineal sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import lineal
    import lineal.cli

    if not os.path.abspath(lineal.__file__).startswith(src + os.sep):
        raise BenchError(f"imported lineal from {lineal.__file__}, not from {src}")
    return lineal


@dataclass
class Result:
    instance: object
    seconds: float
    status: str  # yes, no, undecided, crashed, error, wrong
    detail: str = ""
    mark: int = 0  # calibration samples taken before this call

    @property
    def decided(self) -> bool:
        return self.status in ("yes", "no")


class Checker:
    """Judges one call against the instance's certified answer."""

    def __init__(self):
        self._verified: set[tuple] = set()  # witnesses already checked, by digest

    def witness_problem(self, inst, witness) -> str | None:
        """The checker's complaint about a yes-witness; each distinct witness is checked once."""
        key = (inst.path, inst.variant, inst.k,
               hashlib.sha256(json.dumps(witness, sort_keys=True).encode()).digest())
        if key in self._verified:
            return None
        labels, adj = reference.read_graph(inst.path)
        problem = reference.witness_error(adj, labels, witness, inst.variant, inst.k)
        if problem is None:
            self._verified.add(key)
        return problem

    def judge(self, inst, rc, stdout: str, error: str | None) -> tuple[str, str]:
        if error is not None:
            return "crashed", error
        try:
            report = json.loads(stdout)
            outcome = report["outcome"]
        except (ValueError, KeyError, TypeError):
            return "error", f"exit {rc} without a report"
        if EXIT_CODES.get(outcome) != rc:
            return "wrong", f"exit {rc} disagrees with outcome {outcome!r}"
        if outcome == "undecided":
            return "undecided", str(report.get("reason"))
        if (outcome == "yes") != inst.expected:
            return "wrong", f"answered {outcome}, expected {'yes' if inst.expected else 'no'} ({inst.certificate})"
        if outcome == "yes":
            problem = self.witness_problem(inst, report.get("witness"))
            if problem is not None:
                return "wrong", f"invalid witness: {problem}"
        return outcome, ""


def calibration_kernel() -> int:
    """A fixed pure-Python graph task that does not touch the program: build, DFS, matching, JSON."""
    rng = random.Random(0)
    n = 400
    pairs = ((rng.randrange(n), rng.randrange(n)) for _ in range(1200))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    adj = reference.adjacency(n, edges)
    return reference.first_dfs_internal(adj) + reference.greedy_matching_size(adj) + len(json.dumps(edges))


@dataclass
class Speed:
    """The machine's speed during a run, from the calibration kernel timed between calls.

    A shared machine runs the same code up to 1.5 times faster or slower for
    stretches of seconds to minutes. A factor rescales a measured time to
    what it would have taken on the reference machine; the program's own
    speed is untouched by it, since the kernel never calls the program.
    """

    samples: list[float] = field(default_factory=list)

    def sample(self) -> None:
        gc.collect()
        t0 = time.perf_counter()
        calibration_kernel()
        self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        """From every sample: for a phase whose speed was sampled throughout, such as set-up."""
        return CALIBRATION_NOMINAL_S / statistics.median(self.samples)

    def factor_at(self, mark: int) -> float:
        """From the CALIBRATION_WINDOW samples on each side of a call made after `mark` samples."""
        window = self.samples[max(0, mark - CALIBRATION_WINDOW):mark + CALIBRATION_WINDOW]
        return CALIBRATION_NOMINAL_S / statistics.median(window)

    def rescale(self, r: Result) -> float:
        """A decided call's time rescaled by the speed around it.

        An undecided call keeps its time as measured: one that ran out of its
        `--time-limit` took that much wall time whatever the machine's speed.
        """
        return r.seconds * self.factor_at(r.mark) if r.decided else r.seconds


def call(lineal, inst) -> tuple[float, int | None, str, str | None]:
    """One closed-loop call: (seconds, exit code, stdout, escaped exception).

    Garbage left by earlier calls is collected first, untimed, so that every
    call starts from the heap a fresh CLI process would have.
    """
    out, err = io.StringIO(), io.StringIO()
    argv = inst.argv()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = lineal.cli.run_command(argv)
            error = None
        except Exception as exc:  # an escaped exception is a failed instance, never an answer
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return seconds, rc, out.getvalue(), error


def run_calls(lineal, checker, instances, *, seconds: float | None, tracer=None,
              speed: Speed | None = None) -> list[Result]:
    """Call instances in list order; stop after `seconds` of call time, or after one pass.

    With `speed`, the calibration kernel runs CALIBRATION_WINDOW times before
    the first call and after the last, and between two calls after every
    CALIBRATION_EVERY_S of call time; its own time is not call time.
    """
    results: list[Result] = []
    busy = 0.0
    since_sample = 0.0
    i = 0
    gc.collect()
    gc.freeze()  # the plan and the checker's state are not the program's garbage
    if speed is not None:
        for _ in range(CALIBRATION_WINDOW):
            speed.sample()
    while (busy < seconds) if seconds is not None else (i < len(instances)):
        inst = instances[i % len(instances)]
        if tracer is not None:
            tracer.current = i
        if speed is not None and since_sample >= CALIBRATION_EVERY_S:
            speed.sample()
            since_sample = 0.0
        spent, rc, stdout, error = call(lineal, inst)
        busy += spent
        since_sample += spent
        status, detail = checker.judge(inst, rc, stdout, error)
        results.append(Result(inst, spent, status, detail, len(speed.samples) if speed else 0))
        i += 1
    if speed is not None:
        for _ in range(CALIBRATION_WINDOW):
            speed.sample()
    return results
