"""Minimum-weight bipartite matching toolkit.

Three solvers for the same problem (an epsilon-scaling auction, a
push-relabel min-cost-flow formulation, and a Hungarian shortest-path
method), random instance generators, a brute-force reference, bid-level
trace comparison between the two scaling solvers, and a benchmark harness.
"""

from .auction import auction_phase, eps_scaling_auction
from .core import (
    Matching,
    PriceVector,
    WeightedBipartiteGraph,
    build_graph,
    check_eps_cs,
    density,
    matching_weight,
    read_instance,
    reduced_cost,
    validate_matching,
    write_instance,
)
from .errors import InfeasibleInstanceError, IterationLimitError, SolveTimeout
from .feasibility import feasibility_precheck, is_feasible, maximum_matching_size
from .hungarian import hungarian
from .reduction import (
    BalancedReduction,
    build_reduction,
    double_balanced,
    project_matching,
)
from .scaling import eps_schedule, scale_graph
from .solve import SolveResult, solve, verify_solution

__version__ = "0.1.0"

# Names resolved on first use (PEP 562), by the module that defines them.
# The generators need numpy, so importing the package, and solving with it,
# loads only the standard library; gk, tracing and the brute-force oracle
# are loaded only by the runs that use them, so an untraced auction or
# Hungarian solve loads neither, and no solve loads ``dataclasses``.
# ``hungarian`` and ``solve`` cannot be lazy: each shares its name with its
# submodule, and importing the submodule would rebind the package attribute
# to the module.
_LAZY = {
    "GenSpec": "gen",
    "assign_low_or_high": "gen",
    "assign_uniform_low_high": "gen",
    "assign_uniform_weights": "gen",
    "dispersed_degree": "gen",
    "erdos_renyi": "gen",
    "generate": "gen",
    "check_eps_optimal": "gk",
    "goldberg_kennedy": "gk",
    "refine": "gk",
    "to_flow_instance": "gk",
    "brute_force_optimum": "oracle",
    "TraceEvent": "tracing",
    "compare_traces": "tracing",
    "record_trace": "tracing",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        module = import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAZY.keys())


__all__ = [
    "BalancedReduction",
    "GenSpec",
    "InfeasibleInstanceError",
    "IterationLimitError",
    "Matching",
    "PriceVector",
    "SolveResult",
    "SolveTimeout",
    "TraceEvent",
    "WeightedBipartiteGraph",
    "assign_low_or_high",
    "assign_uniform_low_high",
    "assign_uniform_weights",
    "auction_phase",
    "brute_force_optimum",
    "build_graph",
    "build_reduction",
    "check_eps_cs",
    "check_eps_optimal",
    "compare_traces",
    "density",
    "dispersed_degree",
    "double_balanced",
    "eps_scaling_auction",
    "eps_schedule",
    "erdos_renyi",
    "feasibility_precheck",
    "generate",
    "goldberg_kennedy",
    "hungarian",
    "is_feasible",
    "matching_weight",
    "maximum_matching_size",
    "project_matching",
    "read_instance",
    "record_trace",
    "reduced_cost",
    "refine",
    "scale_graph",
    "solve",
    "to_flow_instance",
    "validate_matching",
    "verify_solution",
    "write_instance",
]
