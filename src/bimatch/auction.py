"""Epsilon-scaling auction solver.

Each phase runs a bidding loop at a fixed integer ``eps`` on the scaled
balanced instance: an unassigned person scans its neighborhood for the two
smallest reduced costs ``w(uv) - p(v)``, takes the best object (displacing
any current owner), and drops that object's price by ``gamma + eps`` where
``gamma`` is the runner-up gap.  The driver re-runs phases with ``eps``
shrinking geometrically, carrying prices across phases but starting each
matching from scratch; at scaled ``eps == 1`` the result is exactly optimal.

The bidding loop does not terminate when the instance has no covering
matching, so the driver prechecks feasibility by default and the loop
carries a generous step cap as a backstop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .core import Matching, PriceVector, WeightedBipartiteGraph
from .errors import DEADLINE_STRIDE, check_deadline
from .feasibility import feasibility_precheck
from .reduction import build_reduction, project_matching
from .scaling import (
    DEFAULT_ALPHA,
    check_persons_have_edges,
    check_step,
    eps_schedule,
    initial_eps,
    scale_graph,
    second_cost_sentinel_gap,
    step_cap,
)
from .tracing import TraceEvent, TraceSink


@dataclass(frozen=True)
class PhaseSnapshot:
    """State after one completed phase: the matching it built and the
    prices it left behind, both on the scaled balanced graph."""

    phase_index: int
    eps: int
    graph: WeightedBipartiteGraph
    prices: PriceVector
    matching: Matching


PhaseCallback = Callable[[PhaseSnapshot], None]


def auction_phase(
    graph: WeightedBipartiteGraph,
    eps: int,
    prices: PriceVector,
    *,
    phase_index: int = 0,
    trace_sink: Optional[TraceSink] = None,
    deadline: Optional[float] = None,
) -> tuple[Matching, PriceVector]:
    """One bidding phase on a balanced graph; mutates ``prices`` in place
    and returns ``(matching, prices)``.

    Starts from the empty matching and runs until every person owns an
    object, so the matching is perfect and satisfies eps-complementary
    slackness against the final prices.
    """
    n, s = graph.n, graph.s
    if n != s:
        raise ValueError(f"bidding needs a balanced graph, got n={n}, s={s}")
    if eps < 1:
        raise ValueError(f"eps must be a positive integer, got {eps}")
    off, adj_v, adj_w = graph.adj_off, graph.adj_v, graph.adj_w
    sentinel_gap = second_cost_sentinel_gap(graph.max_abs_weight)
    check_persons_have_edges(graph)

    matching = Matching(n, s)
    queue: deque[int] = deque(range(n))
    cap = step_cap(graph, max(prices) - min(prices), eps)
    step = 0
    while queue:
        if step >= cap or (deadline is not None and step % DEADLINE_STRIDE == 0):
            check_step(step, cap, eps, deadline, "bidding phase")
        u = queue.popleft()

        best_rc: Optional[int] = None
        second_rc: Optional[int] = None
        best_v = -1
        for i in range(off[u], off[u + 1]):
            rc = adj_w[i] - prices[adj_v[i]]
            if best_rc is None or rc < best_rc:
                second_rc = best_rc
                best_rc = rc
                best_v = adj_v[i]
            elif second_rc is None or rc < second_rc:
                second_rc = rc
        assert best_rc is not None
        if second_rc is None:
            second_rc = best_rc + sentinel_gap
        gamma = second_rc - best_rc

        displaced = matching.match_of_v[best_v]
        if displaced is not None:
            matching.unassign(displaced, best_v)
            queue.append(displaced)
        matching.assign(u, best_v)
        prices[best_v] = prices[best_v] - gamma - eps

        if trace_sink is not None:
            trace_sink.append(
                TraceEvent(
                    phase_index=phase_index,
                    step_index=step,
                    selected_u=u,
                    best_v=best_v,
                    best_reduced_cost=best_rc,
                    second_reduced_cost=second_rc,
                    gamma=gamma,
                    new_price_v=prices[best_v],
                    displaced_u=displaced,
                )
            )
        step += 1
    return matching, prices


def eps_scaling_auction(
    graph: WeightedBipartiteGraph,
    *,
    alpha: Fraction = DEFAULT_ALPHA,
    trace_sink: Optional[TraceSink] = None,
    on_phase: Optional[PhaseCallback] = None,
    deadline: Optional[float] = None,
    precheck: bool = True,
) -> Matching:
    """Minimum-weight matching covering every right vertex.

    Raises :class:`InfeasibleInstanceError` when no such matching exists
    (detected up front unless ``precheck`` is disabled).  Unbalanced input
    is balanced by :func:`build_reduction`: the column kernel, then the
    ``double`` construction.
    """
    if precheck:
        feasibility_precheck(graph)
    balanced = build_reduction(graph)
    check_deadline(deadline, "balancing reduction")
    scaled = scale_graph(balanced.graph)
    prices: PriceVector = [0] * scaled.s
    matching: Optional[Matching] = None
    for phase_index, eps in enumerate(eps_schedule(initial_eps(scaled), alpha)):
        matching, prices = auction_phase(
            scaled,
            eps,
            prices,
            phase_index=phase_index,
            trace_sink=trace_sink,
            deadline=deadline,
        )
        if on_phase is not None:
            on_phase(
                PhaseSnapshot(
                    phase_index=phase_index,
                    eps=eps,
                    graph=scaled,
                    prices=list(prices),
                    matching=matching.copy(),
                )
            )
    assert matching is not None
    return project_matching(balanced, matching)
