"""Exact integer cost scaling and the epsilon schedule.

All prices and reduced costs live on a scaled integer domain: weights are
multiplied by ``n + 1`` so that reaching ``eps == 1`` on the scaled instance
certifies optimality of the matching on the original one (the unscaled
violation is below ``1/n``, and distinct matching weights differ by at least
a whole unit).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Iterator, Optional

from .core import WeightedBipartiteGraph
from .errors import InfeasibleInstanceError, IterationLimitError, check_deadline

DEFAULT_ALPHA = Fraction(5)


def scale_factor(graph: WeightedBipartiteGraph) -> int:
    return graph.n + 1


def scale_graph(graph: WeightedBipartiteGraph) -> WeightedBipartiteGraph:
    """Same structure, every weight multiplied by ``n + 1``."""
    k = scale_factor(graph)
    return replace(graph, adj_w=tuple(w * k for w in graph.adj_w))


# A person's row is read in weight order when it holds at least
# ORDERED_ROW_MIN_EDGES edges and at least ORDERED_ROW_MIN_WEIGHTS distinct
# weights.  Row length: every row ordered against none, on er n=s=300
# graphs with uniform weights (auction, median of 5 passes over 6 draws,
# the row sort included, stop at the phase's start price), 21 edges a row
# 13.0 against 12.8 ms, 30 edges 14.0 against 16.4, 45 edges 22.5 against
# 29.9, 60 edges 25.4 against 37.0.  So ordering pays from about 30
# edges, and 40 is the lowest round length that keeps every row of
# sparse-square (at most 34 edges) on the plain scan.  Distinct weights:
# every row of at least 40 edges ordered against none, er n=s=300 at
# d=0.5 (about 150 edges a row), weights drawn from 1..k, stop at the
# current price ceiling, same timing: auction k=2 40.8 against 40.4 ms,
# k=3 33.7 against 43.6, k=4 30.8 against 46.1, k=5 27.5 against 45.2;
# gk k=2 44.4 against 45.6, k=3 37.3 against 49.2, k=4 35.3 against
# 51.9.  Two-point rows gain nothing, so they stay plain; three weights
# already pay.
ORDERED_ROW_MIN_EDGES = 40
ORDERED_ROW_MIN_WEIGHTS = 3

# Per person: its adjacency positions in ascending ``(w, v)`` order, or None
# for a row read in position order.  Empty when no row is ordered.
OrderedRows = list[Optional[list[int]]]


def weight_ordered_rows(graph: WeightedBipartiteGraph) -> OrderedRows:
    """The weight-ordered view of ``graph``'s rows that both bid loops read.

    A row with at least :data:`ORDERED_ROW_MIN_EDGES` edges and at least
    :data:`ORDERED_ROW_MIN_WEIGHTS` distinct weights gets its positions
    sorted by weight; the sort is stable and each row is in ascending
    ``v``, so equal weights stay in ascending ``v``.  The weights are
    counted before any sort: a row whose first ``ORDERED_ROW_MIN_WEIGHTS``
    weights are already distinct qualifies at once, and any other row
    counts the distinct weights of the whole row.  Other rows get None.
    When no row qualifies the result is empty, so the loops skip the
    per-bid lookup.
    """
    min_edges, min_weights = ORDERED_ROW_MIN_EDGES, ORDERED_ROW_MIN_WEIGHTS
    off, adj_w = graph.adj_off, graph.adj_w
    weight = adj_w.__getitem__
    rows: OrderedRows = [None] * graph.n
    for u in range(graph.n):
        lo, hi = off[u], off[u + 1]
        if hi - lo >= min_edges and (
            len(set(adj_w[lo : lo + min_weights])) == min_weights
            or len(set(adj_w[lo:hi])) >= min_weights
        ):
            rows[u] = sorted(range(lo, hi), key=weight)
    return rows if any(rows) else []


def parse_alpha(text: str) -> Fraction:
    """Scaling divisor from a string like '5', '7/2' or '3.5'; must be > 1."""
    try:
        alpha = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse scaling factor {text!r}") from None
    if alpha <= 1:
        raise ValueError(f"scaling factor must exceed 1, got {alpha}")
    return alpha


def eps_schedule(start: int, alpha: Fraction = DEFAULT_ALPHA) -> Iterator[int]:
    """Yield the integer eps values 1st phase .. final phase.

    Each phase divides by ``alpha`` and floors, clamped at 1; the final
    yielded value is always exactly 1.  ``start <= 0`` (zero-weight graphs)
    degenerates to the single phase ``[1]``.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    eps = max(1, start)
    while True:
        eps = max(1, eps * alpha.denominator // alpha.numerator)
        yield eps
        if eps == 1:
            return


def initial_eps(scaled: WeightedBipartiteGraph) -> int:
    """Starting eps: the largest absolute scaled weight."""
    return scaled.max_abs_weight


def second_cost_sentinel_gap(max_abs_scaled_weight: int) -> int:
    """Stand-in runner-up gap for single-edge neighborhoods.

    When a person has exactly one object there is no second-smallest reduced
    cost; both solvers substitute ``best + gap`` with this shared gap so
    their traces stay comparable.  Any positive value is correct (the price
    of a sole neighbor is unconstrained by slackness); this one is large
    enough that such objects immediately become unattractive to everyone
    else.
    """
    return 2 * max_abs_scaled_weight + 1


def step_cap(graph: WeightedBipartiteGraph, spread: int, eps: int) -> int:
    """Defensive step cap for one phase at ``eps`` on ``graph``.

    ``spread`` is the range of the object prices the phase starts from.  The
    cap is far above any feasible phase's bid count; it exists to turn the
    known infinite loop on uncoverable instances into an error.
    """
    return 10 * graph.n * max(1, graph.m) * (spread // eps + 2)


def check_step(
    step: int, cap: int, eps: int, deadline: Optional[float], label: str
) -> None:
    """Per-phase step guard shared by both bid loops.

    A loop calls this only when ``step >= cap`` or, with a deadline set, when
    ``step`` is a multiple of :data:`DEADLINE_STRIDE`, so no bid pays for
    the call: it keeps the next such step as ``probe`` and pays one
    ``step >= probe`` compare a bid.  Raises :class:`IterationLimitError`
    at the cap and :class:`SolveTimeout` once ``deadline`` has passed.
    """
    if step >= cap:
        raise IterationLimitError(
            f"{label} exceeded {cap} steps at eps={eps}; "
            "the instance is most likely infeasible"
        )
    check_deadline(deadline, f"{label} at eps={eps}")


def check_persons_have_edges(graph: WeightedBipartiteGraph) -> None:
    """Reject a person with no edges up front: no bid loop could place it."""
    off = graph.adj_off
    for u in range(graph.n):
        if off[u] == off[u + 1]:
            raise InfeasibleInstanceError(
                f"left vertex {u} has no edges; no perfect matching exists"
            )
