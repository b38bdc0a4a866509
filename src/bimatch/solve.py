"""Uniform front door over the three solvers."""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .auction import eps_scaling_auction
from .core import (
    Matching,
    WeightedBipartiteGraph,
    matching_weight,
    validate_matching,
)
from .hungarian import hungarian
from .scaling import DEFAULT_ALPHA

if TYPE_CHECKING:  # tracing is loaded by traced runs only
    from .tracing import TraceSink

ALGORITHMS = ("auction", "gk", "hungarian")
TRACED_ALGORITHMS = ("auction", "gk")


class SolveResult(NamedTuple):
    matching: Matching
    weight: int


def require_traced(algorithm: str) -> None:
    """Raise ``ValueError`` unless ``algorithm`` can write a bid trace."""
    if algorithm not in TRACED_ALGORITHMS:
        raise ValueError(
            f"no traced solver named {algorithm!r}: "
            "tracing applies to the auction and gk solvers only"
        )


def solve(
    graph: WeightedBipartiteGraph,
    algorithm: str = "auction",
    *,
    alpha: Fraction = DEFAULT_ALPHA,
    deadline: Optional[float] = None,
    precheck: bool = True,
    trace_sink: Optional[TraceSink] = None,
) -> SolveResult:
    """Run one solver; the matching covers every right vertex or an
    :class:`InfeasibleInstanceError` propagates.

    With ``trace_sink`` the auction and gk solvers append one event per bid
    to it, and gk also checks its per-push price identities.  ``precheck``
    gives infeasible input the message of
    :func:`~bimatch.feasibility.feasibility_precheck`; each solver defers
    its Hopcroft-Karp pass, and runs it only when the solve stalls, or
    times out or hits its step cap before a first phase finishes (always,
    up front, when traced).
    """
    if trace_sink is not None:
        require_traced(algorithm)
    if algorithm == "auction":
        matching = eps_scaling_auction(
            graph,
            alpha=alpha,
            trace_sink=trace_sink,
            deadline=deadline,
            precheck=precheck,
        )
    elif algorithm == "gk":
        from .gk import goldberg_kennedy  # loaded only by the runs that use it

        matching = goldberg_kennedy(
            graph,
            alpha=alpha,
            trace_sink=trace_sink,
            deadline=deadline,
            precheck=precheck,
            check_identities=trace_sink is not None,
        )
    elif algorithm == "hungarian":
        matching = hungarian(graph, precheck=precheck, deadline=deadline)
    else:
        raise ValueError(f"no solver named {algorithm!r}")
    return SolveResult(matching=matching, weight=matching_weight(graph, matching))


def verify_solution(
    graph: WeightedBipartiteGraph, matching: Matching
) -> Optional[str]:
    """``None`` when the matching is a valid full cover, else the problem."""
    return validate_matching(graph, matching, require_perfect=True)
