"""Combinatorial calculus of weighted clusters of infinitely near points,
and the singularities of the surfaces obtained by blowing up complete ideals.
"""

from .analyzer import (
    FreeOn,
    Satellite,
    SingularityReport,
    analyze,
    enumerate_singularities,
    extend,
)
from .cartier import CartierRequest, CartierResult, build, verify
from .cluster import (
    ClusterSkeleton,
    DualGraph,
    SkeletonBuilder,
    canonical,
    chain_skeleton,
    dual_graph,
    validate,
)
from .errors import (
    CapExceededError,
    ClusterError,
    InternalCheckError,
    OracleInstanceTooLarge,
    ParseError,
)
from .synthesis import MinimalGraphSpec, count_contracted_branches, synthesize
from .weighted import (
    WeightedCluster,
    dicritical_set,
    drop_zero_points,
    excesses,
    is_consistent,
    linear_combination,
    multiplicities_from_values,
    self_intersection,
    simple_cluster,
    unload,
    values,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CartierRequest",
    "CartierResult",
    "ClusterError",
    "ClusterSkeleton",
    "DualGraph",
    "FreeOn",
    "InternalCheckError",
    "MinimalGraphSpec",
    "OracleInstanceTooLarge",
    "ParseError",
    "Satellite",
    "SingularityReport",
    "SkeletonBuilder",
    "WeightedCluster",
    "analyze",
    "build",
    "canonical",
    "chain_skeleton",
    "count_contracted_branches",
    "dicritical_set",
    "drop_zero_points",
    "dual_graph",
    "enumerate_singularities",
    "excesses",
    "extend",
    "is_consistent",
    "linear_combination",
    "multiplicities_from_values",
    "self_intersection",
    "simple_cluster",
    "synthesize",
    "unload",
    "validate",
    "values",
    "verify",
]
