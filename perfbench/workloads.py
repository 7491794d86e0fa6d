"""Seeded instance plans for the three workloads, and the files they are written to.

A plan is made once per run from ``--seed``: for every round and stratum it
draws generator seeds until the graph has the stratum's property, then picks
k from properties computed by ``reference`` and records the certified
expected answer. ``materialize`` writes the planned graphs to files with the
program's own generators and serializer; it is the timed set-up.

Strata fix n, s, format and the k rule, so that the seed changes the graphs
but not the kind of work; that keeps run-to-run spread small. Within a round
the strata are shuffled, so any prefix of the list holds a fair mix.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

import reference

CERTIFICATE_TRIES = 400
MAX_DRAWS = 200


@dataclass(frozen=True)
class Stratum:
    name: str
    family: str
    params: dict
    command: str  # "solve" or "oracle"
    variant: str
    rule: str  # how k is chosen; see _pick
    fmt: str = "edgelist"
    labels: str = "numeric"  # or "opaque"
    per_round: int = 1
    reach: bool = False  # undecided at the seed: out of search budget or above the oracle limit
    every: int = 1  # present in rounds r with r % every == offset
    offset: int = 0
    runs: tuple[int, int] | None = None  # band of DFS runs (oracle strata)


@dataclass
class Instance:
    name: str
    stratum: str
    family: str
    params: dict
    gen_seed: int
    fmt: str
    labels: str
    label_seed: int
    argv_tail: list[str]
    variant: str
    k: int
    expected: bool
    certificate: str
    reach: bool
    n: int
    path: str = ""

    def argv(self) -> list[str]:
        return [self.argv_tail[0], self.path, *self.argv_tail[1:]]


_BC4 = {"s": 4, "p": 0.3}
_BC5 = {"s": 5, "p": 0.3}

WORKLOADS: dict[str, dict] = {
    "ingest": {
        "rounds": 15,
        "tiny_rounds": 1,
        "strata": [
            Stratum("el-num-min", "bounded_cover", {"n": 1500, **_BC4}, "solve", "dual-min", "d"),
            Stratum("el-opq-min", "bounded_cover", {"n": 1500, **_BC4}, "solve", "dual-min", "d",
                    labels="opaque"),
            Stratum("el-num-max-below", "bounded_cover", {"n": 1500, **_BC4}, "solve", "dual-max",
                    "M-1"),
            Stratum("el-opq-max-below", "bounded_cover", {"n": 1500, **_BC4}, "solve", "dual-max",
                    "M-1", labels="opaque"),
            Stratum("el-num-max-at", "bounded_cover", {"n": 1500, **_BC4}, "solve", "dual-max",
                    "M=3"),
            Stratum("dimacs-min", "bounded_cover", {"n": 10000, **_BC4}, "solve", "dual-min", "d",
                    fmt="dimacs"),
            Stratum("dimacs-max-below", "bounded_cover", {"n": 5000, **_BC4}, "solve", "dual-max",
                    "M-1", fmt="dimacs"),
        ],
    },
    "search": {
        "rounds": 10,
        "tiny_rounds": 2,
        # Decided strata finish well inside this budget at the seed; reach
        # strata do not finish within several times it.
        "extra_args": ["--time-limit", "1.0"],
        "strata": [
            Stratum("max-s4", "bounded_cover", {"n": 300, **_BC4}, "solve", "dual-max", "M=3",
                    per_round=6),
            Stratum("max-s5", "bounded_cover", {"n": 200, **_BC5}, "solve", "dual-max", "M=3",
                    per_round=5, fmt="dimacs"),
            Stratum("min-s5", "bounded_cover", {"n": 80, **_BC5}, "solve", "dual-min", "d+1,d=5",
                    per_round=3),
            Stratum("min-s4", "bounded_cover", {"n": 60, **_BC4}, "solve", "dual-min", "d+1,d=4",
                    fmt="dimacs"),
            Stratum("reach-min", "bounded_cover", {"n": 300, **_BC5}, "solve", "dual-min", "d+2",
                    reach=True, every=4, offset=0),
            Stratum("reach-max", "bounded_cover", {"n": 500, **_BC5}, "solve", "dual-max", "M=4",
                    reach=True, every=4, offset=2),
        ],
    },
    "oracle": {
        "rounds": 6,
        "tiny_rounds": 1,
        "strata": [
            Stratum("gnp9-sparse", "gnp", {"n": 9, "p": 0.3}, "oracle", "*", "profile",
                    runs=(450, 650)),
            Stratum("gnp9-mid", "gnp", {"n": 9, "p": 0.5}, "oracle", "*", "profile",
                    runs=(3000, 4000)),
            Stratum("gnp10-sparse", "gnp", {"n": 10, "p": 0.3}, "oracle", "*", "profile",
                    runs=(900, 1300)),
            Stratum("gnp8-dense", "gnp", {"n": 8, "p": 0.7}, "oracle", "*", "profile",
                    runs=(3500, 4500)),
            Stratum("bc10", "bounded_cover", {"n": 10, "s": 3, "p": 0.5}, "oracle", "*", "profile",
                    runs=(4500, 6000)),
            Stratum("cycle8", "cycle", {"n": 8}, "oracle", "*", "profile"),
            Stratum("cycle9", "cycle", {"n": 9}, "oracle", "*", "profile"),
            Stratum("cycle10", "cycle", {"n": 10}, "oracle", "*", "profile"),
            Stratum("star-max", "star", {"n": 51}, "solve", "max-llt", "star-leaves", reach=True),
            Stratum("bc-min", "bounded_cover", {"n": 40, "s": 3, "p": 0.5}, "solve", "min-llt",
                    "cover-bound", reach=True, every=2, offset=0),
            Stratum("bc-max", "bounded_cover", {"n": 40, "s": 3, "p": 0.5}, "solve", "max-llt",
                    "first-dfs-leaves", reach=True, every=2, offset=1),
        ],
    },
}

TINY_N = 8
"""Smoke-test size: every stratum's graph shrinks to this many vertices."""


def program_adjacency(g, labels: str) -> list[list[int]]:
    """Adjacency as the program numbers the vertices after parsing the written file.

    Numeric labels and DIMACS keep their ids; opaque labels are numbered in
    order of first appearance in the edge list, which lists edges in
    ascending original (u, v) order.
    """
    edges = list(g.edges())
    if labels == "opaque":
        ids: dict[int, int] = {}
        for u, v in edges:
            ids.setdefault(u, len(ids))
            ids.setdefault(v, len(ids))
        edges = [(ids[u], ids[v]) for u, v in edges]
    return reference.adjacency(g.vertex_count, edges)


def opaque_labels(n: int, seed: int) -> tuple[str, ...]:
    rng = random.Random(seed)
    return tuple(f"v{x:06x}" for x in rng.sample(range(16**6), n))


def _pick(st: Stratum, adj, rng: random.Random, strict: bool):
    """[(variant, k, expected, certificate)] for a graph, or None when it lacks the stratum's property.

    With `strict` off (smoke size) the exact-value conditions are dropped;
    the k formula and the certificate stay the same.
    """
    n = len(adj)
    rule = st.rule
    if rule == "profile":
        profile, runs = reference.internal_profile(adj)
        if strict and st.runs and not st.runs[0] <= runs <= st.runs[1]:
            return None
        lo, hi = min(profile), max(profile)
        sides = [
            ("dual-min", hi), ("dual-min", hi + 1),
            ("dual-max", lo), ("dual-max", lo - 1),
            ("min-llt", n - hi), ("min-llt", n - hi - 1),
            ("max-llt", n - lo), ("max-llt", n - lo + 1),
        ]
        cert = f"profile {sorted(profile)} over {runs} runs"
        return [(v, k, reference.answer_from_profile(profile, n, v, k), cert)
                for v, k in sides if k >= 0]
    d = reference.first_dfs_internal(adj)
    m = reference.greedy_matching_size(adj)
    if rule == "d":
        return [(st.variant, d, True, f"first DFS from 0 has {d} internal")]
    if rule.startswith("d+"):
        step, _, want = rule[2:].partition(",d=")
        k = d + int(step)
        if strict and want and d != int(want):
            return None
        if not reference.found_internal_at_least(adj, k, rng, CERTIFICATE_TRIES):
            return None
        return [(st.variant, k, True, f"a random DFS found {k} internal")]
    if rule == "M-1":
        return [(st.variant, m - 1, False, f"matching of size {m} > k")]
    if rule.startswith("M="):
        forced = reference.high_degree_count(adj, m)
        if (strict and m != int(rule[2:])) or forced <= m:
            return None
        return [(st.variant, m, False, f"{forced} vertices of degree > k={m}")]
    if rule == "star-leaves":
        return [(st.variant, n - 1, True, "star rooted at its centre")]
    if rule == "first-dfs-leaves":
        return [(st.variant, n - d, True, f"first DFS from 0 has {n - d} leaves")]
    if rule == "cover-bound":
        s = st.params["s"]
        if not reference.is_vertex_cover(adj, range(s)):
            raise RuntimeError(f"{st.name}: vertices 0..{s - 1} are not a cover")
        return [(st.variant, n - 2 * s - 1, False, f"cover of size {s} forces at least {n - 2 * s} leaves")]
    raise ValueError(f"unknown k rule {rule!r}")


def plan(workload: str, seed: int, *, tiny: bool = False) -> list[Instance]:
    """The workload's instance list for `seed`; same seed, same list.

    At smoke size every graph fits the oracle, so each certified answer is
    also checked against the exact internal profile.
    """
    from lineal.generate import generate

    spec = WORKLOADS[workload]
    out: list[Instance] = []
    for r in range(spec["tiny_rounds"] if tiny else spec["rounds"]):
        batch: list[Instance] = []
        for st in spec["strata"]:
            if r % st.every != st.offset:
                continue
            params = dict(st.params)
            if tiny:
                params["n"] = TINY_N
            for j in range(st.per_round):
                rng = random.Random(f"{workload}:{seed}:{st.name}:{r}:{j}")
                for _ in range(MAX_DRAWS):
                    gen_seed = rng.randrange(2**31)
                    g = generate(st.family, seed=gen_seed, **params)
                    adj = program_adjacency(g, st.labels)
                    picks = _pick(st, adj, rng, strict=not tiny)
                    if picks is not None:
                        break
                else:
                    raise RuntimeError(f"no graph with the {st.name} property in {MAX_DRAWS} draws")
                if tiny:
                    _cross_check(st, adj, picks)
                label_seed = rng.randrange(2**31)
                for variant, k, expected, cert in picks:
                    tail = [st.command, "--variant", variant, "-k", str(k), *spec.get("extra_args", ())]
                    batch.append(Instance(
                        name="", stratum=st.name, family=st.family, params=params,
                        gen_seed=gen_seed, fmt=st.fmt, labels=st.labels, label_seed=label_seed,
                        argv_tail=tail, variant=variant, k=k, expected=expected,
                        certificate=cert, reach=st.reach and not tiny, n=len(adj),
                    ))
        random.Random(f"{workload}:{seed}:order:{r}").shuffle(batch)
        out.extend(batch)
    for i, inst in enumerate(out):
        inst.name = f"{workload}-{i:03d}-{inst.stratum}-{inst.variant}-k{inst.k}"
    return out


def _cross_check(st: Stratum, adj, picks) -> None:
    profile, _ = reference.internal_profile(adj)
    for variant, k, expected, cert in picks:
        exact = reference.answer_from_profile(profile, len(adj), variant, k)
        if exact != expected:
            raise RuntimeError(
                f"{st.name}: certificate '{cert}' says {expected} for {variant} k={k}, "
                f"profile {sorted(profile)} says {exact}"
            )


def materialize(instances: list[Instance], directory: str) -> None:
    """Generate every planned graph with the program's generators and write its file."""
    from lineal.formats import serialize_graph
    from lineal.generate import generate

    os.makedirs(directory, exist_ok=True)
    written: dict[tuple, str] = {}
    for inst in instances:
        key = (inst.family, inst.n, inst.gen_seed, inst.fmt, inst.labels)
        path = written.get(key)
        if path is None:
            g = generate(inst.family, seed=inst.gen_seed, **inst.params)
            labels = opaque_labels(g.vertex_count, inst.label_seed) if inst.labels == "opaque" else None
            path = os.path.join(directory, f"g{len(written):03d}.{inst.fmt}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_graph(g, labels, inst.fmt))
            written[key] = path
        inst.path = path
