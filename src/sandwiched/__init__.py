"""Combinatorial calculus of weighted clusters of infinitely near points,
and the singularities of the surfaces obtained by blowing up complete ideals.

Importing the package loads none of its modules: each public name, and each
runtime module, is imported on first access (PEP 562).  So `python -m
sandwiched.cli validate ...` compiles and runs only what `validate` uses, not
the Cartier builder or the synthesizer.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "FreeOn": "analyzer",
    "Satellite": "analyzer",
    "SingularityReport": "analyzer",
    "analyze": "analyzer",
    "enumerate_singularities": "analyzer",
    "extend": "analyzer",
    "CartierRequest": "cartier",
    "CartierResult": "cartier",
    "build": "cartier",
    "verify": "cartier",
    "ClusterSkeleton": "cluster",
    "DualGraph": "cluster",
    "SkeletonBuilder": "cluster",
    "canonical": "cluster",
    "chain_skeleton": "cluster",
    "dual_graph": "cluster",
    "validate": "cluster",
    "CapExceededError": "errors",
    "ClusterError": "errors",
    "InternalCheckError": "errors",
    "OracleInstanceTooLarge": "errors",
    "ParseError": "errors",
    "MinimalGraphSpec": "synthesis",
    "count_contracted_branches": "synthesis",
    "synthesize": "synthesis",
    "WeightedCluster": "weighted",
    "dicritical_set": "weighted",
    "drop_zero_points": "weighted",
    "excesses": "weighted",
    "is_consistent": "weighted",
    "linear_combination": "weighted",
    "multiplicities_from_values": "weighted",
    "self_intersection": "weighted",
    "simple_cluster": "weighted",
    "unload": "weighted",
    "values": "weighted",
}
# the modules the CLI and the library API run on (the oracle is imported by name)
_RUNTIME = ("analyzer", "cartier", "cli", "cluster", "dsl", "errors", "synthesis", "weighted")

__all__ = sorted(_HOMES)


def __getattr__(name):
    # Not cached in the package namespace: a name always reads its module's
    # current binding, also while a profiler or a test has rebound it there.
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    if name in _RUNTIME:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOMES, *_RUNTIME})
