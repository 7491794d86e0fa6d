"""Brute-force tuple solvers for the dual variants, the exhaustive oracle,
and the one kernel-then-solve pipeline for all four variants.

The pipeline kernelizes the instance, then decides every kernel by the tuple
search: min-llt and max-llt with the shifted k ask for at least, or at most,
n' - k' internal vertices. A kernel witness is lifted back through the
reduction trace and validated on the input graph before it is returned.

The tuple solvers guess the discovery order of the k vertices that must end
up internal (or must absorb all internal vertices). A guessed order is only
viable if it is the discovery order of a DFS tree of the subgraph it
induces, so the search walks a prefix tree of orders instead of materializing
all n^k tuples: a prefix dies as soon as its forced DFS simulation does.
Extending a prefix by w is possible exactly when w has a neighbor on the
simulation stack and none among the already-popped vertices, which keeps the
walk equivalent to simulating every tuple from scratch.

Six prunings cut the walk. Each drops only prefixes that no accepting
tuple extends, or mirror images of searched ones, so the lexicographically
first accepting tuple is unchanged:

* Twin symmetry breaking. Twins (vertices with the same neighborhood) are
  never adjacent, and swapping two of them is an automorphism fixing every
  prefix that contains neither. So a vertex is only tried, as root or as an
  extension, once its next lower twin is already in the prefix; every
  skipped subtree mirrors one that is searched. If the first accepting
  tuple used w while a lower twin w' was still unused, swapping w and w'
  would give a smaller accepting tuple, so that tuple is never skipped.
* Shut vertices. A vertex cut off the stack is finished: no vertex added
  later is its descendant, ancestor or neighbor. So an outside neighbor x
  of a finished vertex v is shut out for good. The tuple neighbors of x
  must end up on one root-to-leaf path together with v (dual-min: they
  bound x's outside component; dual-max: they are all of x's neighbors),
  so no vertex added once v is finished, the one whose extension cuts v
  included, may be adjacent to x.
* Pop-time leaf test (dual-min). A finished tuple vertex without a tuple
  child ends up a tuple leaf, so it needs a neighbor outside the tuple to
  hang something below it. Only the newest vertex can be childless when it
  is cut, and any extension not adjacent to it cuts it, so a vertex with no
  neighbor outside the prefix is never added.
* Last vertex covers (dual-max). Everything outside the tuple must be
  independent, so the vertex completing a tuple must be an end of every
  edge still outside the prefix.
* Cover counting bound (dual-min). Take a minimum vertex cover C of the
  searched graph. In a DFS tree every internal vertex outside C has a child,
  which is in C because the two are adjacent, and distinct parents have
  distinct children. So the k tuple vertices number at most the members of
  C that join the tuple plus the members of C whose parent lies outside C.
  The root has no parent, a prefix vertex of C under a prefix parent in C
  keeps that parent, and a vertex of C that is shut or has a shut neighbor
  never joins the tuple. A prefix rooted at r is dropped when
  2|C| - [r in C] - (prefix vertices of C under a parent in C) - (such
  excluded vertices of C) < k. C is only looked for up to size ceil(k/2),
  where the bound is tight; without such a C there is no bound.
* Degree bound (dual-max). A leaf's neighbors are all its ancestors, which
  are internal, so in a tree with at most k internal vertices every vertex
  of degree above k is internal and must be in the tuple. More than k such
  vertices is a no; a prefix is dropped when fewer tuple slots are left
  than such vertices outside it, or when one of them is shut or has a shut
  neighbor and so can never be added.

Tuple prefixes could be partitioned across workers; the implementation is
sequential and reports the lexicographically first accepting tuple, which is
the contract partitioned workers would have to preserve.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace

from .graphs import Graph, greedy_cover, is_connected
from .kernel import Decided, KernelOutcome, ProblemInstance, Variant, kernelize
from .trees import (
    ORACLE_LIMIT_DEFAULT,
    RootedSpanningTree,
    dfs_any,
    dfs_runs,
    extension_all_internal,
    extension_all_leaves,
    is_dfs_tree,
)

_EXHAUSTIVE = "exhaustive enumeration"


@dataclass(frozen=True)
class Decision:
    """Yes/no answer, optionally with a full DFS tree certifying a yes.

    ``accepted_tuple`` records the internal-vertex guess that succeeded, when
    the answer came out of the tuple search; trivial branches leave it None.
    ``reason`` says how the answer was reached; the pipeline and the oracle
    set it, the tuple solvers leave it None.
    """

    answer: bool
    witness: RootedSpanningTree | None = None
    accepted_tuple: tuple[int, ...] | None = None
    reason: str | None = None


@dataclass(frozen=True)
class SolverBudget:
    """Resource limits; exceeding one raises BudgetExceeded, never a wrong answer."""

    max_tuple_count: int = 100_000_000
    time_limit: float = 300.0

    def __post_init__(self):
        if not (self.max_tuple_count > 0 and self.time_limit > 0):  # NaN is not positive
            raise ValueError("budget fields must be positive")


class BudgetExceeded(RuntimeError):
    """The search ran out of tuple or time budget before deciding.

    ``kernel`` is the kernelization outcome when the search ran on a kernel.
    """

    def __init__(self, phase: str):
        super().__init__(f"undecided: {phase} budget exhausted")
        self.phase = phase
        self.kernel: KernelOutcome | None = None


def _twin_links(g: Graph) -> tuple[int, list[int]]:
    """The mask of vertices without a lower twin (a vertex with the same
    neighborhood), and for each vertex the bit of its next higher twin, or 0.
    """
    last: dict[tuple[int, ...], int] = {}  # sorted adjacency tuples are canonical
    untwinned = 0
    next_twin = [0] * g.vertex_count
    for w, nw in enumerate(g.adjacency):
        if nw in last:
            next_twin[last[nw]] = 1 << w
        else:
            untwinned |= 1 << w
        last[nw] = w
    return untwinned, next_twin


def _min_cover(g: Graph, limit: int, deadline: float) -> frozenset[int] | None:
    """A minimum vertex cover of g if one has at most `limit` vertices, else None.

    The greedy matching is a lower bound, so sizes are tried upward from it.
    """
    matching, _ = greedy_cover(g)
    edges = list(g.edges())
    for b in range(len(matching), limit + 1):
        found = _cover_within(edges, b, deadline)
        if found is not None:
            return frozenset(found)
    return None


def _cover_within(edges: list[tuple[int, int]], b: int, deadline: float) -> list[int] | None:
    """A vertex cover of `edges` with at most b vertices, or None.

    Buss rule: a vertex of degree above b is in every such cover, and once
    none is left each cover vertex covers at most b edges, so more than b*b
    edges is a no. Otherwise branch on the first edge's two ends.
    """
    if time.perf_counter() > deadline:
        raise BudgetExceeded("time")
    if not edges:
        return []
    degree = Counter(x for e in edges for x in e)
    forced = {v for v, d in degree.items() if d > b}
    if forced:
        if len(forced) > b:
            return None
        rest = [(u, v) for u, v in edges if u not in forced and v not in forced]
        sub = _cover_within(rest, b - len(forced), deadline)
        return None if sub is None else sorted(forced) + sub
    if len(edges) > b * b:
        return None
    for x in edges[0]:
        sub = _cover_within([e for e in edges if x not in e], b - 1, deadline)
        if sub is not None:
            return [x] + sub
    return None


def _tuple_search(g: Graph, k: int, variant: Variant, budget: SolverBudget):
    """Walk the viable ordered k-tuples of distinct vertices, ascending.

    Keeps the forced-DFS state of the current prefix: the live stack, the
    parents, and three bitmasks over vertex ids that each descent receives
    as arguments, so backtracking restores them. `inside` is the prefix.
    `shut` holds the vertices outside the prefix with a finished neighbor;
    none of them ever joins, so a cut only adds the neighbors of the cut
    vertices to it. `free` holds the vertices that have no lower twin or
    whose next lower twin is in the prefix. A vertex w is shut or has a shut
    neighbor exactly when `closed[w] & shut`, where closed[w] holds w and
    its neighbors. Each complete tuple's partial tree (root, live parent
    map) goes to the variant's builder, `extension_all_internal` for
    dual-min and `extension_all_leaves` for dual-max, which copies what it
    keeps. The first tree built wins, which is the lexicographically
    smallest accepting tuple.

    The candidates are the free neighbors of the stack outside the prefix,
    taken in ascending bit order. Shut vertices and their neighbors are
    skipped (see the module docstring). For dual-min a vertex without a
    neighbor outside the prefix is not added; for dual-max the last vertex
    must be an end of the first edge still outside the prefix. Prefixes that
    break the counting bound of the variant are dropped before they count
    as visits.
    """
    all_internal = variant is Variant.DUAL_MIN_LLT
    cover = not all_internal
    extend = extension_all_internal if all_internal else extension_all_leaves
    n = g.vertex_count
    nb = [sum(1 << u for u in a) for a in g.adjacency]
    closed = [m | 1 << w for w, m in enumerate(nb)]
    everyone = (1 << n) - 1
    untwinned, next_twin = _twin_links(g)
    deadline = time.perf_counter() + budget.time_limit
    visits = 0
    # dual-min: a minimum cover of size at most ceil(k/2), if there is one
    cov = sorted(_min_cover(g, (k + 1) // 2, deadline) or ()) if all_internal else []
    in_cov = sum(1 << c for c in cov)
    linked = 0  # non-root prefix vertices of cov under a prefix parent in cov
    # dual-max: the vertices of degree above k, all of them internal
    high = [v for v in range(n) if len(g.adjacency[v]) > k] if cover else []
    if len(high) > k:
        return None
    in_high = sum(1 << v for v in high)

    parent: dict[int, int | None] = {}
    order: list[int] = []
    stack: list[int] = []
    found: list = []

    def hopeless(inside: int, shut: int) -> bool:
        """No accepting tuple extends the prefix, by the counting bounds."""
        if cov:
            dead = sum(1 for c in cov if closed[c] & shut and not inside >> c & 1)
            return 2 * len(cov) - (in_cov >> order[0] & 1) - linked - dead < k
        left = in_high & ~inside
        return left.bit_count() > k - len(order) or any(
            closed[v] & shut for v in high if left >> v & 1
        )

    def descend(inside: int, shut: int, free: int) -> bool:
        nonlocal visits, linked
        if hopeless(inside, shut):
            return False
        visits += 1
        if visits > budget.max_tuple_count:
            raise BudgetExceeded("tuple")
        if not (visits & 1023) and time.perf_counter() > deadline:
            raise BudgetExceeded("time")
        if len(order) == k:
            witness = extend(g, RootedSpanningTree(order[0], parent))
            if witness is not None:
                found.append((tuple(order), witness))
                return True
            return False
        grow = len(order) + 1 < k
        outside = ~inside
        cands = 0
        for v in stack:
            cands |= nb[v]
        cands &= free & outside
        if cover and not grow:
            # keep the ends of the first edge outside the prefix, if there is one
            rest = everyone & outside
            while rest:
                first = rest & -rest
                ends = nb[first.bit_length() - 1] & rest
                if ends:
                    cands &= first | ends & -ends
                    break
                rest ^= first
        while cands:
            low = cands & -cands
            cands ^= low
            w = low.bit_length() - 1
            if closed[w] & shut:
                continue
            if all_internal and not nb[w] & outside:
                continue
            j = len(stack) - 1
            while not nb[w] >> stack[j] & 1:
                j -= 1
            parent[w] = stack[j]
            order.append(w)
            link = in_cov >> w & in_cov >> stack[j] & 1
            linked += link
            if grow:
                cut = stack[j + 1 :]
                del stack[j + 1 :]
                stack.append(w)
                now = shut
                for v in cut:
                    now |= nb[v]
                now &= ~(inside | low)
                # w is dead too if the cut shut one of its own neighbors
                done = not nb[w] & now and descend(inside | low, now, free | next_twin[w])
                stack.pop()
                stack.extend(cut)
            else:
                done = descend(inside | low, shut, free | next_twin[w])
            linked -= link
            order.pop()
            del parent[w]
            if done:
                return True
        return False

    for root in range(n):
        if not untwinned >> root & 1:
            continue
        parent.clear()
        parent[root] = None
        order[:] = [root]
        stack[:] = [root]
        if descend(1 << root, 0, untwinned | next_twin[root]):
            return found[0]
    return None


def _checked(g: Graph, t: RootedSpanningTree, variant: Variant, k: int) -> RootedSpanningTree:
    """Validate a constructed witness instead of trusting the construction."""
    if not is_dfs_tree(g, t):
        raise RuntimeError("internal error: constructed witness is not a DFS tree")
    ic = t.internal_count()
    lo, hi = variant.internal_bounds(g.vertex_count, k)
    if not lo <= ic <= hi:
        raise RuntimeError(
            f"internal error: witness has {ic} internal vertices, variant {variant.value} k={k}"
        )
    return t


def _xp(g: Graph, k: int, variant: Variant, budget: SolverBudget | None) -> Decision:
    """Shared frame of the two tuple solvers: settle the trivial cases, run
    the tuple search for the variant, validate the accepted witness.

    With k = 0 or n <= k every DFS tree has the same answer (its internal
    count is at most n - 1, and it is 0 only on one vertex), so one DFS
    decides.
    """
    if g.vertex_count == 0 or not is_connected(g):
        return Decision(False)
    if k == 0 or g.vertex_count <= k:
        t = dfs_any(g, 0)
        lo, hi = variant.internal_bounds(g.vertex_count, k)
        return Decision(True, witness=t) if lo <= t.internal_count() <= hi else Decision(False)
    hit = _tuple_search(g, k, variant, budget or SolverBudget())
    if hit is None:
        return Decision(False)
    tup, witness = hit
    return Decision(True, witness=_checked(g, witness, variant, k), accepted_tuple=tup)


def solve_dual_min_xp(g: Graph, k: int, budget: SolverBudget | None = None) -> Decision:
    """Does g have a DFS tree with at least k internal vertices? Time n^O(k).

    Guesses the k internal vertices in discovery order; a guess is accepted
    when `extension_all_internal` grows its tree to a DFS tree keeping all k
    internal, and that tree is the witness.
    """
    return _xp(g, k, Variant.DUAL_MIN_LLT, budget)


def solve_dual_max_xp(g: Graph, k: int, budget: SolverBudget | None = None) -> Decision:
    """Does g have a DFS tree with at most k internal vertices? Time n^O(k).

    Guesses the k vertices allowed to be internal (including the root); a
    guess is accepted when `extension_all_leaves` attaches every other
    vertex as a leaf, and that tree is the witness.
    """
    return _xp(g, k, Variant.DUAL_MAX_LLT, budget)


def solve_dual_fpt_with_kernel(
    inst: ProblemInstance,
    budget: SolverBudget | None = None,
    *,
    kernel: KernelOutcome | None = None,
) -> tuple[Decision, KernelOutcome]:
    """Kernelize any variant, then decide the kernel and lift its witness.

    The tuple search (time k^O(k) poly(n)) decides every kernel with the
    bounds (lo, hi) of the kernel's k: min-llt and dual-min ask for at least
    lo internal vertices, max-llt and dual-max for at most hi, and for these
    two one DFS of the kernel from vertex 0 goes first (a large hi would
    cost long tuples) and is the witness when it fits. Returns the decision
    together with the kernelization outcome so callers can report reduction
    statistics. Yes answers carry a witness validated on the original
    graph: the kernelization's own tree when it settles the instance, else
    the kernel's witness lifted back; an accepted tuple is reported in
    original ids. A caller that already holds ``kernelize(inst)``
    passes it as `kernel` instead of having the instance kernelized again.
    The time limit runs from entry: an answer that kernelization settles
    after it, or a search with no time left, is a time budget exhausted, and
    carries the kernel outcome like any BudgetExceeded raised on the kernel.
    """
    start = time.perf_counter()
    budget = budget or SolverBudget()
    g, k, variant = inst.graph, inst.k, inst.variant
    outcome = kernel if kernel is not None else kernelize(inst)
    try:
        left = budget.time_limit - (time.perf_counter() - start)
        if left <= 0:
            raise BudgetExceeded("time")
        if isinstance(outcome, Decided):
            if not outcome.answer:
                return Decision(False, reason=outcome.reason), outcome
            witness = _checked(g, outcome.tree, variant, k)
            return Decision(True, witness=witness, reason=outcome.reason), outcome
        kern, trace = outcome.instance, outcome.trace
        lo, hi = variant.internal_bounds(kern.graph.vertex_count, kern.k)
        budget = replace(budget, time_limit=left)
        if variant in (Variant.MIN_LLT, Variant.DUAL_MIN_LLT):
            sub = solve_dual_min_xp(kern.graph, max(lo, 0), budget)
        else:
            first = dfs_any(kern.graph, 0)
            ic = first.internal_count()
            if ic <= hi:
                reason = f"DFS tree of the kernel from vertex 0 has {ic} internal vertices"
                sub = Decision(True, witness=first, reason=reason)
            else:  # a negative hi fails the search's degree bound: a no
                sub = solve_dual_max_xp(kern.graph, hi, budget)
    except BudgetExceeded as exc:
        exc.kernel = outcome
        raise
    reason = sub.reason or "tuple search on the kernel"
    if not sub.answer:
        return Decision(False, reason=reason), outcome
    lifted = _checked(g, trace.lift(g, sub.witness), variant, k)
    tup = sub.accepted_tuple
    if tup is not None:
        tup = tuple(trace.survivors[v] for v in tup)
    return Decision(True, witness=lifted, accepted_tuple=tup, reason=reason), outcome


def solve_dual_fpt(inst: ProblemInstance, budget: SolverBudget | None = None) -> Decision:
    """Kernel-then-solve for any variant; the answer matches the original instance."""
    decision, _ = solve_dual_fpt_with_kernel(inst, budget)
    return decision


def solve_exact_oracle(
    inst: ProblemInstance, budget: SolverBudget | None = None, *, limit: int = ORACLE_LIMIT_DEFAULT
) -> Decision:
    """Decide any variant by enumerating every DFS tree; desk scale only.

    The witness is the first qualifying tree in enumeration order. Refuses
    graphs above `limit` vertices (a positive limit), and raising that limit
    does not disable the time budget.
    """
    budget = budget or SolverBudget()
    g, k = inst.graph, inst.k
    runs = dfs_runs(g, limit=limit)
    n = g.vertex_count
    if n == 0 or not is_connected(g):
        return Decision(False, reason=_EXHAUSTIVE)
    lo, hi = inst.variant.internal_bounds(n, k)
    deadline = time.perf_counter() + budget.time_limit
    count = 0
    # Walk the raw DFS executions rather than the deduplicated tree stream:
    # duplicate runs rebuild the same tree, so the answer and the first
    # qualifying witness are unchanged, and the time budget can be checked
    # between runs even when duplicates vastly outnumber distinct trees.
    for root, parent, order, internal in runs:
        count += 1
        if not (count & 255) and time.perf_counter() > deadline:
            raise BudgetExceeded("time")
        if lo <= internal <= hi:
            witness = RootedSpanningTree(root, {v: parent[v] for v in order}, tuple(order))
            return Decision(True, witness=witness, reason=_EXHAUSTIVE)
    return Decision(False, reason=_EXHAUSTIVE)
