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

A bid usually does not need its full scan.  The loop keeps a candidate
cache, one entry per person: the positions of the two smallest reduced
costs at that person's last full scan and the third-smallest value of that
scan (``inf`` for a degree-2 person).  A bid first recomputes the two cached
reduced costs; if both lie strictly below the stored third, they are the
two smallest, the lower position winning a tie, and the scan is skipped.
Otherwise the bid scans in full and stores a new entry only when its third
exceeds its second: with third == second the entry could never hit.

This is exact because every price update is ``old - gamma - eps`` with
``gamma >= 0`` and ``eps >= 1``, and the driver carries prices across
phases unchanged.  So object prices only fall during a solve, every reduced
cost ``w - p`` only rises, and a stored third stays a lower bound on every
uncached reduced cost of its person.  The driver creates the cache once per
solve and hands it to every phase; a phase called without one makes a fresh
one, so a direct caller with arbitrary prices gets the plain scan's result.

A full scan of a long row usually needs only its lightest edges.  Each solve
builds :func:`~bimatch.scaling.weight_ordered_rows` once, after scaling:
each row with at least ``ORDERED_ROW_MIN_WEIGHTS`` (40) distinct weights,
its positions sorted by ``(w, v)``.  A full scan of such a row walks that
order and stops at the first edge with ``w > third + pmax``, where ``pmax``
is the highest object price at the phase's start.

- Exact: prices only fall within a phase, so every unread edge costs
  ``w' - p(v') >= w' - pmax >= w - pmax > third``.  It can neither enter
  the three smallest values nor tie the smallest, so best, second and
  third are those of the whole row.
- Ties: the plain scan sends a tie at the minimum to the lowest position.
  Equal weights are read in ascending position anyway, but equal reduced
  costs may come from different weights in either order.  So an edge that
  ties the best with a lower position takes its place explicitly: it
  becomes the best, and the old best becomes the runner-up.  A cache entry
  keeps the lower position first, as after a plain scan, so the hit path
  is unchanged.
- The cutoff: ordering pays on rows of about 30 or more distinct weights,
  and loses on rows with two.  40 keeps every row of the short-row and
  two-weight benchmark workloads on the plain scan; the measurements are
  at ``ORDERED_ROW_MIN_WEIGHTS``.

A phase called without a view builds its own, so a direct call takes the
same path as a solve.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Callable, Optional

from .core import Matching, PriceVector, WeightedBipartiteGraph
from .errors import DEADLINE_STRIDE, check_deadline
from .feasibility import feasibility_precheck
from .reduction import build_reduction, project_matching
from .scaling import (
    DEFAULT_ALPHA,
    OrderedRows,
    check_persons_have_edges,
    check_step,
    eps_schedule,
    initial_eps,
    scale_graph,
    second_cost_sentinel_gap,
    step_cap,
    weight_ordered_rows,
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

# Per person: (lower position, higher position, third-smallest reduced cost)
# of its last full scan, or None.
BidCache = list[Optional[tuple[int, int, float]]]


def auction_phase(
    graph: WeightedBipartiteGraph,
    eps: int,
    prices: PriceVector,
    *,
    phase_index: int = 0,
    trace_sink: Optional[TraceSink] = None,
    deadline: Optional[float] = None,
    cache: Optional[BidCache] = None,
    view: Optional[OrderedRows] = None,
) -> tuple[Matching, PriceVector]:
    """One bidding phase on a balanced graph; mutates ``prices`` in place
    and returns ``(matching, prices)``.

    Starts from the empty matching and runs until every person owns an
    object, so the matching is perfect and satisfies eps-complementary
    slackness against the final prices.  ``cache`` is the solve's candidate
    cache (see the module docstring); it is valid only while prices have
    done nothing but fall since it was filled, so leave it out unless the
    prices come from the phase that last used it.  ``view`` is the
    weight-ordered view of ``graph``'s rows; it depends only on the graph.
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
    if cache is None:
        cache = [None] * n
    if view is None:
        view = weight_ordered_rows(graph)
    # prices only fall during the phase, so none ever exceeds its start max
    pmax = max(prices)
    queue: deque[int] = deque(range(n))
    cap = step_cap(graph, pmax - min(prices), eps)
    step = 0
    while queue:
        if step >= cap or (deadline is not None and step % DEADLINE_STRIDE == 0):
            check_step(step, cap, eps, deadline, "bidding phase")
        u = queue.popleft()

        entry = cache[u]
        if entry is not None:
            i1, i2, third = entry
            rc1 = adj_w[i1] - prices[adj_v[i1]]
            rc2 = adj_w[i2] - prices[adj_v[i2]]
            if rc1 >= third or rc2 >= third:
                entry = None
        if entry is not None:
            # i1 < i2, so a tie goes to i1
            if rc2 < rc1:
                best_i, best_rc, second_rc = i2, rc2, rc1
            else:
                best_i, best_rc, second_rc = i1, rc1, rc2
        else:
            if view and (order := view[u]) is not None:
                # the row in ascending (w, v), cut short by the price bound
                best_rc = second_rc = third = limit = inf
                best_i = second_i = -1
                for i in order:
                    w = adj_w[i]
                    if w > limit:
                        # every edge from here on costs w' - p(v') >=
                        # w - pmax > third: best, second and third are final
                        break
                    rc = w - prices[adj_v[i]]
                    if rc <= third:
                        if rc < second_rc:
                            third = second_rc
                            if rc < best_rc:
                                second_rc, second_i = best_rc, best_i
                                best_rc, best_i = rc, i
                            elif rc == best_rc and i < best_i:
                                second_rc, second_i = rc, best_i
                                best_i = i
                            else:
                                second_rc, second_i = rc, i
                        else:
                            third = rc
                            if rc == best_rc and i < best_i:
                                best_i = i
                        limit = third + pmax
            else:
                best_i = off[u]
                best_rc = adj_w[best_i] - prices[adj_v[best_i]]
                second_rc = third = inf
                second_i = -1
                for i in range(best_i + 1, off[u + 1]):
                    rc = adj_w[i] - prices[adj_v[i]]
                    if rc < third:
                        if rc < second_rc:
                            third = second_rc
                            if rc < best_rc:
                                second_rc, second_i = best_rc, best_i
                                best_rc, best_i = rc, i
                            else:
                                second_rc, second_i = rc, i
                        else:
                            third = rc
            if second_i < 0:
                second_rc = best_rc + sentinel_gap
            elif third > second_rc:
                cache[u] = (
                    (best_i, second_i, third)
                    if best_i < second_i
                    else (second_i, best_i, third)
                )
            else:
                cache[u] = None
        best_v = adj_v[best_i]
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
    balanced = build_reduction(graph, deadline=deadline)
    check_deadline(deadline, "balancing reduction")
    scaled = scale_graph(balanced.graph)
    view = weight_ordered_rows(scaled)
    check_deadline(deadline, "weight-ordered rows")
    prices: PriceVector = [0] * scaled.s
    cache: BidCache = [None] * scaled.n
    matching: Optional[Matching] = None
    for phase_index, eps in enumerate(eps_schedule(initial_eps(scaled), alpha)):
        matching, prices = auction_phase(
            scaled,
            eps,
            prices,
            phase_index=phase_index,
            trace_sink=trace_sink,
            deadline=deadline,
            cache=cache,
            view=view,
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
