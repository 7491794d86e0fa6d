"""Reduction rules and kernelization front-ends for the four problem variants.

The core reduction takes a connected graph together with a vertex cover of
size s and shrinks it to at most s^2(s-1)+3s vertices while preserving, for
every t, whether some DFS tree has exactly t internal vertices. Two rules:

* pendant trimming keeps at most two pendant neighbors per cover vertex;
* common-neighbor trimming labels, for every cover pair, the 2s lowest-id
  shared outside neighbors, then deletes outside vertices with two or more
  cover neighbors that no pair labeled.

Each kernelization is a pure transformation; calls are independent and safe
to run concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

from .graphs import Graph, greedy_cover, is_connected, pendant_set
from .trees import dfs_any


class Variant(str, Enum):
    """The four decision problems over DFS-tree leaf counts.

    MIN_LLT / MAX_LLT ask for a DFS tree with at most / at least k leaves.
    The dual variants bound internal vertices instead: DUAL_MIN_LLT asks for
    at least k internal vertices (at most n-k leaves), DUAL_MAX_LLT for at
    most k internal vertices (at least n-k leaves).
    """

    MIN_LLT = "min-llt"
    MAX_LLT = "max-llt"
    DUAL_MIN_LLT = "dual-min"
    DUAL_MAX_LLT = "dual-max"

    def internal_bounds(self, n: int, k: int) -> tuple[int, int]:
        """(lo, hi): a DFS tree of an n-vertex graph answers yes for k iff
        lo <= its internal count <= hi."""
        if self is Variant.MIN_LLT:
            return n - k, n
        if self is Variant.MAX_LLT:
            return 0, n - k
        if self is Variant.DUAL_MIN_LLT:
            return k, n
        return 0, k


@dataclass(frozen=True)
class ProblemInstance:
    graph: Graph
    k: int
    variant: Variant

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")


@dataclass(frozen=True)
class PendantDeleted:
    """A pendant neighbor of `kept_under` was removed (two others stayed)."""

    kept_under: int
    removed: int


@dataclass(frozen=True)
class UnlabeledDeleted:
    """An outside vertex with two or more cover neighbors missed every label."""

    removed: int


@dataclass
class ReductionTrace:
    """Audit log of one reduction: which cover drove it, what was deleted, and
    how surviving original ids map to dense kernel ids."""

    cover: tuple[int, ...]
    events: tuple[PendantDeleted | UnlabeledDeleted, ...]
    vertex_map: dict[int, int] = field(repr=False)

    def removed_vertices(self) -> frozenset[int]:
        return frozenset(e.removed for e in self.events)

    @property
    def pendant_deletions(self) -> int:
        return sum(1 for e in self.events if isinstance(e, PendantDeleted))

    @property
    def unlabeled_deletions(self) -> int:
        return sum(1 for e in self.events if isinstance(e, UnlabeledDeleted))


def size_bound(s: int) -> int:
    """Vertex bound of the cover-driven reduction: s^2(s-1) + 3s (meaningful for s >= 1)."""
    return s * s * (s - 1) + 3 * s


def trim_pendants(g: Graph, cover) -> tuple[Graph, ReductionTrace]:
    """Keep at most two pendant neighbors per cover vertex, delete the rest.

    The two lowest-id pendants stay; the choice is arbitrary for
    correctness, fixed for reproducibility.
    """
    events = []
    doomed: set[int] = set()
    cov = sorted(cover)
    for v in cov:
        pend = sorted(pendant_set(g, cov, v))
        for u in pend[2:]:
            events.append(PendantDeleted(kept_under=v, removed=u))
            doomed.add(u)
    reduced, survivors = g.without(doomed)
    vmap = {old: new for new, old in enumerate(survivors)}
    return reduced, ReductionTrace(tuple(cov), tuple(events), vmap)


def trim_common_neighbors(g: Graph, cover) -> tuple[Graph, ReductionTrace]:
    """Delete unlabeled outside vertices having two or more cover neighbors.

    For each unordered cover pair, the min(|shared|, 2s) lowest-id shared
    outside neighbors get a label; labels accumulate across pairs, so one
    label from any pair is enough to survive. Assumes pendant trimming
    already ran (the rules are applied in that order).
    """
    cov = sorted(cover)
    cov_set = frozenset(cov)
    s = len(cov)
    cap = 2 * s
    # shared[pair] = outside vertices adjacent to both members of the pair
    shared: dict[tuple[int, int], list[int]] = {}
    multi: list[int] = []
    for w in range(g.vertex_count):
        if w in cov_set:
            continue
        cnbrs = sorted(u for u in g.adjacency[w] if u in cov_set)
        if len(cnbrs) >= 2:
            multi.append(w)
            for pair in combinations(cnbrs, 2):
                shared.setdefault(pair, []).append(w)
    labeled: set[int] = set()
    for pair in sorted(shared):
        ws = sorted(shared[pair])
        labeled.update(ws[:cap])
    doomed = [w for w in multi if w not in labeled]
    events = tuple(UnlabeledDeleted(removed=w) for w in sorted(doomed))
    reduced, survivors = g.without(doomed)
    vmap = {old: new for new, old in enumerate(survivors)}
    return reduced, ReductionTrace(tuple(cov), events, vmap)


def reduce_with_cover(g: Graph, cover) -> tuple[Graph, ReductionTrace]:
    """Run both trimming rules; the result has at most s^2(s-1)+3s vertices.

    Requires g connected and `cover` a vertex cover of g. The achievable
    internal-vertex counts of DFS trees are preserved exactly. The returned
    trace speaks in the original vertex ids. With an empty cover (only
    possible for edgeless graphs) the graph passes through unchanged and the
    bound does not apply.
    """
    g1, t1 = trim_pendants(g, cover)
    cover1 = [t1.vertex_map[v] for v in t1.cover]
    g2, t2 = trim_common_neighbors(g1, cover1)
    back1 = {new: old for old, new in t1.vertex_map.items()}
    events = t1.events + tuple(
        UnlabeledDeleted(removed=back1[e.removed]) for e in t2.events
    )
    vmap = {
        orig: t2.vertex_map[mid]
        for orig, mid in t1.vertex_map.items()
        if mid in t2.vertex_map
    }
    return g2, ReductionTrace(t1.cover, events, vmap)


@dataclass(frozen=True)
class Decided:
    """The kernelization settled the instance outright."""

    answer: bool
    reason: str


@dataclass(frozen=True)
class Reduced:
    """An equivalent instance within the variant's size bound, plus the trace."""

    instance: ProblemInstance
    trace: ReductionTrace


KernelOutcome = Decided | Reduced

_ONE_LEAF = "a single vertex is one leaf"
_NO_INTERNAL = "a single vertex has no internal vertices"


def kernel_min_llt(inst: ProblemInstance) -> KernelOutcome:
    """Kernelize "at most k leaves" using a greedy 2-approximate vertex cover.

    The parameter shifts by the number of deleted vertices. A shifted
    parameter below 1 is an immediate no: every DFS tree of a nonempty
    connected graph keeps at least one leaf.
    """
    if (trivial := _trivial(inst, Variant.MIN_LLT, _ONE_LEAF)) is not None:
        return trivial
    g = inst.graph
    _, cover = greedy_cover(g)
    reduced, trace = reduce_with_cover(g, cover)
    kp = inst.k - (g.vertex_count - reduced.vertex_count)
    if kp < 1:
        return Decided(False, "every DFS tree has at least one leaf")
    return Reduced(ProblemInstance(reduced, kp, Variant.MIN_LLT), trace)


def kernel_max_llt(inst: ProblemInstance) -> KernelOutcome:
    """Kernelize "at least k leaves"; mirror of kernel_min_llt.

    A shifted parameter of 1 or less is an immediate yes for the same
    one-leaf reason.
    """
    if (trivial := _trivial(inst, Variant.MAX_LLT, _ONE_LEAF)) is not None:
        return trivial
    g = inst.graph
    _, cover = greedy_cover(g)
    reduced, trace = reduce_with_cover(g, cover)
    kp = inst.k - (g.vertex_count - reduced.vertex_count)
    if kp <= 1:
        return Decided(True, "every DFS tree has at least one leaf")
    return Reduced(ProblemInstance(reduced, kp, Variant.MAX_LLT), trace)


def kernel_dual_min(inst: ProblemInstance, *, root: int = 0) -> KernelOutcome:
    """Kernelize "at least k internal vertices" down to O(k^3) vertices.

    One DFS from `root` either already certifies yes, or its internal
    vertices form a vertex cover of size below k that drives the reduction.
    The parameter is unchanged.
    """
    if (trivial := _trivial(inst, Variant.DUAL_MIN_LLT, _NO_INTERNAL)) is not None:
        return trivial
    g = inst.graph
    t = dfs_any(g, root)
    cover = t.internal_vertices()
    if len(cover) >= inst.k:
        return Decided(True, f"DFS tree from vertex {root} has {len(cover)} internal vertices")
    reduced, trace = reduce_with_cover(g, cover)
    return Reduced(ProblemInstance(reduced, inst.k, Variant.DUAL_MIN_LLT), trace)


def kernel_dual_max(inst: ProblemInstance) -> KernelOutcome:
    """Kernelize "at most k internal vertices" down to O(k^3) vertices.

    A greedy maximal matching larger than k certifies the cover number
    exceeds k, so no DFS tree can stay within k internal vertices.
    Otherwise its endpoints (at most 2k) drive the reduction; the parameter
    is unchanged.
    """
    if (trivial := _trivial(inst, Variant.DUAL_MAX_LLT, _NO_INTERNAL)) is not None:
        return trivial
    g = inst.graph
    matching, cover = greedy_cover(g)
    if len(matching) > inst.k:
        return Decided(False, f"maximal matching of size {len(matching)} exceeds k")
    reduced, trace = reduce_with_cover(g, cover)
    return Reduced(ProblemInstance(reduced, inst.k, Variant.DUAL_MAX_LLT), trace)


def kernelize(inst: ProblemInstance, *, root: int = 0) -> KernelOutcome:
    """Dispatch to the variant's kernelization."""
    if inst.variant is Variant.MIN_LLT:
        return kernel_min_llt(inst)
    if inst.variant is Variant.MAX_LLT:
        return kernel_max_llt(inst)
    if inst.variant is Variant.DUAL_MIN_LLT:
        return kernel_dual_min(inst, root=root)
    return kernel_dual_max(inst)


def _trivial(inst: ProblemInstance, variant: Variant, single_reason: str) -> Decided | None:
    """Check the instance's variant, then settle graphs with fewer than two
    vertices or more than one component; None for every other graph."""
    if inst.variant is not variant:
        raise ValueError(f"expected a {variant.value} instance, got {inst.variant.value}")
    g = inst.graph
    if g.vertex_count == 0:
        return Decided(False, "empty graph has no spanning tree")
    if not is_connected(g):
        return Decided(False, "disconnected graph has no spanning tree")
    if g.vertex_count == 1:
        lo, hi = variant.internal_bounds(1, inst.k)
        return Decided(lo <= 0 <= hi, single_reason)
    return None
