"""Reduction rules and kernelization front-ends for the four problem variants.

The core reduction takes a connected graph together with a vertex cover of
size s and shrinks it to at most s^2(s-1)+3s vertices while preserving, for
every t, whether some DFS tree has exactly t internal vertices. Two rules:

* pendant trimming keeps at most two pendant neighbors per cover vertex;
* common-neighbor trimming labels, for every cover pair, the 2s lowest-id
  shared outside neighbors, then deletes outside vertices with two or more
  cover neighbors that no pair labeled.

Both rules run in one pass over the input ids, and the graph is rebuilt
once. Each outside vertex is looked at once: with degree 1 it is a pendant
of its cover neighbor, with two or more cover neighbors it is a rule-2
candidate. Applying the rules in sequence gives the same deletions: a
pendant has one neighbor, so it is never a rule-2 candidate and never on a
shared list, and deleting pendants changes neither the other vertices'
cover neighbors nor their relative id order (relabelling is monotone), so
"the 2s lowest" picks the same vertices before and after rule 1.

Each kernelization is a pure transformation; calls are independent and safe
to run concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

from .graphs import Graph, greedy_cover, is_connected
from .trees import AncestorIndex, RootedSpanningTree, dfs_any


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


@dataclass
class ReductionTrace:
    """Audit log of one reduction, in input ids: the cover that drove it, the
    deleted pendants (by cover vertex, then ascending), the deleted unlabeled
    vertices (ascending), and the survivors (kernel id i is input id
    ``survivors[i]``)."""

    cover: tuple[int, ...]
    pendants: tuple[int, ...]
    unlabeled: tuple[int, ...]
    survivors: tuple[int, ...]

    @property
    def pendant_deletions(self) -> int:
        return len(self.pendants)

    @property
    def unlabeled_deletions(self) -> int:
        return len(self.unlabeled)

    def lift(self, g: Graph, kernel_tree: RootedSpanningTree) -> RootedSpanningTree:
        """Pull a DFS tree of the kernel back to `g`, the graph this trace reduced.

        Survivors keep their tree shape. A deleted pendant rejoins as a leaf
        child of its only neighbor, the cover vertex that kept two others; a
        deleted unlabeled vertex rejoins as a leaf under its deepest
        neighbor. Both re-attachments leave the internal-vertex count
        unchanged: a cover vertex that lost pendants still has a pendant
        child, and an unlabeled vertex's neighborhood is a chain of internal
        vertices in any kernel tree.
        """
        orig = self.survivors
        parent: dict[int, int | None] = {
            orig[v]: (None if p is None else orig[p]) for v, p in kernel_tree.parent.items()
        }
        root = orig[kernel_tree.root]
        idx = AncestorIndex.build(RootedSpanningTree(root, parent))  # keeps no reference
        adj = g.adjacency
        for v in self.pendants:
            parent[v] = adj[v][0]
        for v in self.unlabeled:
            parent[v] = idx.chain_end(adj[v])
        return RootedSpanningTree(root, parent)


def size_bound(s: int) -> int:
    """Vertex bound of the cover-driven reduction: s^2(s-1) + 3s (meaningful for s >= 1)."""
    return s * s * (s - 1) + 3 * s


def reduce_with_cover(g: Graph, cover) -> tuple[Graph, ReductionTrace]:
    """Run both trimming rules; the result has at most s^2(s-1)+3s vertices.

    Requires g connected and `cover` a vertex cover of g. The achievable
    internal-vertex counts of DFS trees are preserved exactly. Rule 1 keeps
    the two lowest-id pendants of each cover vertex. Rule 2 gives, for each
    unordered cover pair, a label to the min(|shared|, 2s) lowest-id shared
    outside neighbors; one label from any pair is enough to survive. The
    trace lists the pendant deletions by cover vertex, then the unlabeled
    ones, each in ascending id. With an empty cover (only possible for
    edgeless graphs) the graph passes through unchanged and the bound does
    not apply.
    """
    cov = sorted(cover)
    cov_set = frozenset(cov)
    cap = 2 * len(cov)
    pendants_of: dict[int, list[int]] = {}
    # shared[pair] = outside vertices adjacent to both members of the pair, ascending
    shared: dict[tuple[int, int], list[int]] = {}
    multi: list[int] = []
    for w, nbrs in enumerate(g.adjacency):
        if w in cov_set:
            continue
        if len(nbrs) == 1:
            pendants_of.setdefault(nbrs[0], []).append(w)
            continue
        cnbrs = [u for u in nbrs if u in cov_set]
        if len(cnbrs) >= 2:
            multi.append(w)
            for pair in combinations(cnbrs, 2):
                shared.setdefault(pair, []).append(w)
    labeled: set[int] = set()
    for ws in shared.values():
        labeled.update(ws[:cap])
    pendants = tuple(u for v in cov for u in pendants_of.get(v, ())[2:])
    unlabeled = tuple(w for w in multi if w not in labeled)
    reduced, survivors = g.without(pendants + unlabeled)
    return reduced, ReductionTrace(tuple(cov), pendants, unlabeled, survivors)


@dataclass(frozen=True)
class Decided:
    """The kernelization settled the instance outright.

    Every yes carries ``tree``, a DFS tree of the input graph that certifies
    it; the pipeline validates it and returns it as the witness. A no has
    none. The tree is provenance only and does not take part in equality.
    """

    answer: bool
    reason: str
    tree: RootedSpanningTree | None = field(default=None, compare=False)


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
    one-leaf reason, certified by the DFS tree from vertex 0.
    """
    if (trivial := _trivial(inst, Variant.MAX_LLT, _ONE_LEAF)) is not None:
        return trivial
    g = inst.graph
    _, cover = greedy_cover(g)
    reduced, trace = reduce_with_cover(g, cover)
    kp = inst.k - (g.vertex_count - reduced.vertex_count)
    if kp <= 1:
        return Decided(True, "every DFS tree has at least one leaf", tree=dfs_any(g, 0))
    return Reduced(ProblemInstance(reduced, kp, Variant.MAX_LLT), trace)


def kernel_dual_min(inst: ProblemInstance) -> KernelOutcome:
    """Kernelize "at least k internal vertices" down to O(k^3) vertices.

    One DFS from vertex 0 either already certifies yes, or its internal
    vertices form a vertex cover of size below k that drives the reduction.
    Any root would do: the internal vertices of every DFS tree form a vertex
    cover. The parameter is unchanged.
    """
    if (trivial := _trivial(inst, Variant.DUAL_MIN_LLT, _NO_INTERNAL)) is not None:
        return trivial
    g = inst.graph
    t = dfs_any(g, 0)
    cover = t.internal_vertices()
    if len(cover) >= inst.k:
        return Decided(True, f"DFS tree from vertex 0 has {len(cover)} internal vertices", tree=t)
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


def kernelize(inst: ProblemInstance) -> KernelOutcome:
    """Dispatch to the variant's kernelization."""
    if inst.variant is Variant.MIN_LLT:
        return kernel_min_llt(inst)
    if inst.variant is Variant.MAX_LLT:
        return kernel_max_llt(inst)
    if inst.variant is Variant.DUAL_MIN_LLT:
        return kernel_dual_min(inst)
    return kernel_dual_max(inst)


def _trivial(inst: ProblemInstance, variant: Variant, single_reason: str) -> Decided | None:
    """Check the instance's variant, then settle graphs with fewer than two
    vertices or more than one component; None for every other graph. A
    single vertex's yes carries the one-vertex tree."""
    if inst.variant is not variant:
        raise ValueError(f"expected a {variant.value} instance, got {inst.variant.value}")
    g = inst.graph
    if g.vertex_count == 0:
        return Decided(False, "empty graph has no spanning tree")
    if not is_connected(g):
        return Decided(False, "disconnected graph has no spanning tree")
    if g.vertex_count == 1:
        lo, hi = variant.internal_bounds(1, inst.k)
        if lo <= 0 <= hi:
            return Decided(True, single_reason, tree=RootedSpanningTree(0, {0: None}))
        return Decided(False, single_reason)
    return None
