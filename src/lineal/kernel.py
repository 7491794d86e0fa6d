"""Reduction rules and the two kernelization front-ends.

The four variants ask for at least lo (min-llt, dual-min) or at most hi
(max-llt, dual-max) internal vertices (`Variant.internal_bounds`). One
front-end serves each direction, under the name of its dual variant. Both
end in the input's DFS from vertex 0 (the at-most one after its no-rules,
cheapest first): it finds a disconnected graph, or its tree may settle yes.

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

from .graphs import Graph, greedy_cover
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
        lo <= its internal count <= hi. A leaf variant's bound is n - k."""
        t = n - k if self in (Variant.MIN_LLT, Variant.MAX_LLT) else k
        return (t, n) if self.at_least else (0, t)

    @property
    def at_least(self) -> bool:
        """True for min-llt and dual-min (lo internal vertices at least), False
        for max-llt and dual-max (hi at most)."""
        return self in (Variant.MIN_LLT, Variant.DUAL_MIN_LLT)


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
        """Pull a kernel DFS tree back to `g`, the graph this trace reduced.

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

    Requires g connected and `cover` a vertex cover of g, so every
    neighbour of a vertex outside the cover is in it. The achievable
    internal-vertex counts of DFS trees are preserved exactly. Rule 1 keeps
    the two lowest-id pendants of each cover vertex. Rule 2 gives, for each
    unordered cover pair, a label to the min(|shared|, 2s) lowest-id shared
    outside neighbors; one label from any pair is enough to survive. The
    trace lists the pendant deletions by cover vertex, then the unlabeled
    ones, each in ascending id. With an empty cover (only possible for
    edgeless graphs) the graph passes through unchanged and the bound does
    not apply.

    The lift of the kernel's `dfs_any` tree from vertex 0 is g's (vertex 0,
    lowest on every list, survives). A deleted pendant is found as a leaf
    under its one neighbor. Take a deleted unlabeled w entered from c, with
    a neighbor c' still undiscovered. The pair {c, c'} labeled 2s shared
    neighbors below w, and c scans them first; one that c enters or that is
    finished has found c', so all 2s are on the stack. But outside vertices
    on a path are separated by cover vertices, so at most s are. So w is a
    leaf under its deepest neighbor, the walk over the survivors is the
    kernel's DFS, and the lift puts each deleted vertex back where g's DFS
    puts it.
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
        if len(nbrs) >= 2:
            multi.append(w)
            for pair in combinations(nbrs, 2):  # nbrs all lie in the cover
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


def kernel_dual_min(inst: ProblemInstance) -> KernelOutcome:
    """Kernelize "at least lo internal vertices": dual-min, and min-llt.

    One DFS from vertex 0 either already certifies yes, or its fewer than lo
    internal vertices drive the reduction. They form a vertex cover (two
    adjacent vertices are ancestor and descendant, so not both leaves) of at
    most 2τ vertices: cutting a deepest internal vertex off with its leaf
    children puts one tree edge into a matching and takes at most two
    internal vertices (it, and its parent if that becomes a leaf) out. So
    the kernel has O(min(lo, τ)^3) vertices. A kernel of n' <= lo vertices
    is a no, as its DFS trees keep a leaf.
    """
    if (trivial := _trivial(inst, at_least=True)) is not None:
        return trivial
    g = inst.graph
    lo, _ = inst.variant.internal_bounds(g.vertex_count, inst.k)
    t = dfs_any(g, 0)
    if len(t.parent) < g.vertex_count:
        return _DISCONNECTED
    cover = t.internal_vertices()
    if len(cover) >= lo:
        return Decided(True, f"DFS tree from vertex 0 has {len(cover)} internal vertices", tree=t)
    reduced, trace = reduce_with_cover(g, cover)
    if lo >= reduced.vertex_count:
        return Decided(False, "every DFS tree has at least one leaf")
    return _shrunk(inst, reduced, trace)


def kernel_dual_max(inst: ProblemInstance) -> KernelOutcome:
    """Kernelize "at most hi internal vertices": dual-max, and max-llt.

    hi < 0 (max-llt, k > n) is a no. Then, cheapest first: more than hi
    vertices of degree above hi is a no, as a leaf's neighbors are all its
    ancestors, which are internal. Internal vertices form a vertex cover, so
    a greedy maximal matching of more than hi edges is a no. Only then, a DFS
    tree from vertex 0 with at most hi internal vertices is a yes; otherwise
    the matching's ends (at most 2hi) drive the reduction.
    """
    if (trivial := _trivial(inst, at_least=False)) is not None:
        return trivial
    g = inst.graph
    _, hi = inst.variant.internal_bounds(g.vertex_count, inst.k)
    if hi < 0:
        return Decided(False, f"more leaves (k = {inst.k}) than vertices (n = {g.vertex_count})")
    high = sum(d > hi for d in map(len, g.adjacency))
    if high > hi:
        return Decided(False, f"{high} vertices of degree above {hi} must all be internal")
    matching, cover = greedy_cover(g)
    if len(matching) > hi:
        reason = f"maximal matching of size {len(matching)} needs more than {hi} internal vertices"
        return Decided(False, reason)
    t = dfs_any(g, 0)
    if len(t.parent) < g.vertex_count:
        return _DISCONNECTED
    if (ic := t.internal_count()) <= hi:
        return Decided(True, f"DFS tree from vertex 0 has {ic} internal vertices", tree=t)
    reduced, trace = reduce_with_cover(g, cover)
    return _shrunk(inst, reduced, trace)


def kernelize(inst: ProblemInstance) -> KernelOutcome:
    """Kernelize any variant through the front-end of its direction."""
    return (kernel_dual_min if inst.variant.at_least else kernel_dual_max)(inst)


def _shrunk(inst: ProblemInstance, reduced: Graph, trace: ReductionTrace) -> Reduced:
    """The kernel instance. Internal counts do not shift, so a leaf variant's
    k drops by the number of deleted vertices and a dual k stays."""
    k = inst.k
    if inst.variant in (Variant.MIN_LLT, Variant.MAX_LLT):
        k -= inst.graph.vertex_count - reduced.vertex_count
    return Reduced(ProblemInstance(reduced, k, inst.variant), trace)


_DISCONNECTED = Decided(False, "disconnected graph has no spanning tree")


def _trivial(inst: ProblemInstance, at_least: bool) -> Decided | None:
    """Check the instance's direction, then settle the empty graph as no;
    None for every other graph (the front-ends' DFS finds disconnected ones)."""
    if inst.variant.at_least is not at_least:
        raise ValueError(f"{inst.variant.value} belongs to the other kernel front-end")
    if inst.graph.vertex_count == 0:
        return Decided(False, "empty graph has no spanning tree")
    return None
