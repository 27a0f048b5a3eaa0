"""Reconstruction of multipartite density operators from tree-structured
bipartite marginals: compatibility testing, algebraic recovery, maximum-
entropy estimation, and spanning-tree structure learning.
"""

__version__ = "0.1.0"

from .layout import SubsystemLayout, partial_trace, embed
from .linalg import (
    HermitianEig,
    hermitian_eig,
    matrix_function,
    trace_distance,
)
from .states import (
    DensityOperator,
    MarginalSet,
    QmcSpec,
    classical_state,
    conditional_mutual_information,
    maximally_mixed,
    mutual_information,
    relative_entropy,
    sample_density,
    sample_markov_path,
    sample_markov_tree,
    sample_qmc,
    von_neumann_entropy,
)
from .recovery import (
    CompatReport,
    PairSelection,
    best_pair_min_entropy,
    best_pair_mutual_info,
    check_qmc_compatibility,
    petz_recover,
)
from .maxent import (
    ConstraintSet,
    MaxEntSolution,
    bayesian_update,
    diagram_commutes,
    marginal_constraints,
    solve_maxent,
)
from .tree import (
    QuantumTree,
    WeightedEdgeList,
    chow_liu_tree,
    delta_s,
    learn_tree,
    relative_entropy_gap,
    tree_recover,
)

__all__ = [
    "SubsystemLayout", "partial_trace", "embed",
    "HermitianEig", "hermitian_eig", "matrix_function", "trace_distance",
    "DensityOperator", "MarginalSet", "QmcSpec", "classical_state",
    "conditional_mutual_information", "maximally_mixed", "mutual_information",
    "relative_entropy", "sample_density", "sample_markov_path",
    "sample_markov_tree", "sample_qmc", "von_neumann_entropy",
    "CompatReport", "PairSelection", "best_pair_min_entropy",
    "best_pair_mutual_info", "check_qmc_compatibility", "petz_recover",
    "ConstraintSet", "MaxEntSolution", "bayesian_update",
    "diagram_commutes", "marginal_constraints", "solve_maxent",
    "QuantumTree", "WeightedEdgeList", "chow_liu_tree", "delta_s",
    "learn_tree", "relative_entropy_gap", "tree_recover",
]
