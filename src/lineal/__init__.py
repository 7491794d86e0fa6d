"""DFS spanning trees with few or many leaves.

Kernelization driven by vertex-cover structure, tuple-guessing XP/FPT
solvers for the dual problems that decide the kernels of all four variants,
and an exhaustive enumeration oracle, outside that pipeline, that verifies
everything at desk scale.
"""

from .formats import (
    DuplicateEdgeError,
    GraphParseError,
    LabelOverflowError,
    LoadedGraph,
    MalformedLineError,
    SelfLoopError,
    parse_graph,
    parse_witness,
    serialize_graph,
    witness_to_jsonable,
)
from .generate import FAMILIES, GenerationError, generate
from .graphs import (
    Graph,
    components_outside,
    greedy_cover,
    is_connected,
)
from .kernel import (
    Decided,
    KernelOutcome,
    ProblemInstance,
    Reduced,
    ReductionTrace,
    Variant,
    kernel_dual_max,
    kernel_dual_min,
    kernelize,
    reduce_with_cover,
    size_bound,
)
from .solve import (
    BudgetExceeded,
    Decision,
    SolverBudget,
    solve_dual_fpt,
    solve_dual_fpt_with_kernel,
    solve_dual_max_xp,
    solve_dual_min_xp,
    solve_exact_oracle,
)
from .trees import (
    ORACLE_LIMIT_DEFAULT,
    AncestorIndex,
    InvalidTreeError,
    OracleLimitError,
    RootedSpanningTree,
    dfs_any,
    dfs_runs,
    dfs_tree_violation,
    extension_all_internal,
    extension_all_leaves,
    is_dfs_tree,
)

__version__ = "0.1.0"
