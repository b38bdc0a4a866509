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
from .gk import check_eps_optimal, goldberg_kennedy, refine, to_flow_instance
from .hungarian import hungarian
from .oracle import brute_force_optimum
from .reduction import (
    BalancedReduction,
    build_reduction,
    double_balanced,
    project_matching,
)
from .scaling import eps_schedule, scale_graph
from .solve import SolveResult, solve, verify_solution
from .tracing import TraceEvent, compare_traces, record_trace

__version__ = "0.1.0"

# The generators need numpy; resolve them on first use (PEP 562) so that
# importing the package, and solving with it, loads only the standard
# library.
_GEN_NAMES = frozenset(
    {
        "GenSpec",
        "assign_low_or_high",
        "assign_uniform_low_high",
        "assign_uniform_weights",
        "dispersed_degree",
        "erdos_renyi",
        "generate",
    }
)


def __getattr__(name: str):
    if name in _GEN_NAMES:
        from . import gen

        return getattr(gen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _GEN_NAMES)

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
