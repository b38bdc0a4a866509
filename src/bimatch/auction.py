"""Epsilon-scaling auction solver.

Each phase runs a bidding loop at a fixed integer ``eps`` on the scaled
balanced instance: an unassigned person scans its neighborhood for the two
smallest reduced costs ``w(uv) - p(v)``, takes the best object (displacing
any current owner), and drops that object's price by ``gamma + eps`` where
``gamma`` is the runner-up gap.  The driver re-runs phases with ``eps``
shrinking geometrically, carrying prices across phases but starting each
matching from scratch; at scaled ``eps == 1`` the result is exactly optimal.

The bidding loop does not terminate when the instance has no covering
matching.  So by default the driver solves inside a
:class:`~bimatch.feasibility.Precheck`, which rejects ``s > n`` and
``m < s`` up front and owes the Hopcroft-Karp pass.  Phase 0's step guard
(:func:`~bimatch.scaling.step_guard`) pays it once the phase reaches
``PRECHECK_STALL_BIDS * N`` bids; a finished phase 0 is a perfect
matching, which settles the precheck unpaid.  The guard also holds a
generous step cap as a backstop.

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
each row with at least ``ORDERED_ROW_MIN_EDGES`` (40) edges and
``ORDERED_ROW_MIN_WEIGHTS`` (3) distinct weights, its positions with
``w <= cut`` sorted by ``(w, v)``.  A full scan of such a row walks that
order and stops at the first edge with ``w > third + top``, where ``top``
is the highest object price at the time of the scan.

- The cut: with ``cut >= limit`` every edge past the prefix has
  ``w > limit``, so a scan that reads the whole prefix stops where the
  whole row's scan would.  With ``cut < limit`` the bid drops what it read
  and runs the plain scan of the whole row.  That scan finds the same
  best, second and third, and so the same cache entry: one is stored only
  when third exceeds second, and then its two positions are unique.  No
  scan writes to the view.

- The ceiling: the phase keeps ``top`` and the number of objects priced at
  it.  A bid that lowers the last of them takes ``top`` afresh from
  ``max`` over the prices.  Prices only fall, so ``top`` is never below a
  live price: it changes only through that fresh maximum.  A wrong count
  could only bring the refresh early or late; late leaves ``top`` too
  high, which reads more but stays exact.  With no ordered row the phase
  keeps no ceiling.
- Exact: no price exceeds ``top``, so every unread edge costs
  ``w' - p(v') >= w' - top >= w - top > third``.  It can neither enter
  the three smallest values nor tie the smallest, so best, second and
  third are those of the whole row.
- Ties: the plain scan sends a tie at the minimum to the lowest position.
  Equal weights are read in ascending position anyway, but equal reduced
  costs may come from different weights in either order.  So an edge that
  ties the best with a lower position takes its place explicitly: it
  becomes the best, and the old best becomes the runner-up.  A cache entry
  keeps the lower position first, as after a plain scan, so the hit path
  is unchanged.
- The gate: ordering pays on rows of about 30 or more edges with three or
  more distinct weights, and does not pay with two.  40 edges keeps every
  row of the short-row benchmark workload on the plain scan, and two-point
  rows always stay plain; the measurements are at
  ``ORDERED_ROW_MIN_EDGES``.

The loop keeps ``owner[v]``, the person holding object ``v``, and builds
the :class:`Matching` from it once, when the phase ends, so its
consistency checks run once per pair rather than once per bid.
A phase called without a view builds its own, so a direct call takes the
same path as a solve.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import inf
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .core import Matching, PriceVector, WeightedBipartiteGraph
from .errors import check_deadline
from .feasibility import Precheck
from .reduction import build_reduction, project_matching
from .scaling import (
    DEFAULT_ALPHA,
    CandidateCache,
    OrderedView,
    check_alpha,
    check_bid_input,
    eps_schedule,
    initial_eps,
    scale_graph,
    second_cost_sentinel_gap,
    step_guard,
    weight_ordered_rows,
)

if TYPE_CHECKING:  # tracing is loaded by traced runs only
    from .tracing import TraceSink


class PhaseSnapshot(NamedTuple):
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
    cache: Optional[CandidateCache] = None,
    view: Optional[OrderedView] = None,
    on_stall: Optional[Callable[[], None]] = None,
) -> tuple[Matching, PriceVector]:
    """One bidding phase on a balanced graph; mutates ``prices`` in place
    and returns ``(matching, prices)``.

    Starts from the empty matching and runs until every person owns an
    object, so the matching is perfect and satisfies eps-complementary
    slackness against the final prices.  ``cache`` is the solve's candidate
    cache (see the module docstring); it is valid only while prices have
    done nothing but fall since it was filled, so leave it out unless the
    prices come from the phase that last used it.  ``view`` is the
    weight-ordered view of ``graph``'s rows; the phase only reads it, and
    it depends only on the graph.  ``on_stall`` is called once,
    before bid ``PRECHECK_STALL_BIDS * n``, if the phase gets that far.

    Before any bid it makes :func:`~bimatch.scaling.check_bid_input`, the
    entry check it shares with :func:`bimatch.gk.refine`: a ``ValueError``
    for an unbalanced graph or ``eps < 1``, and an
    :class:`InfeasibleInstanceError` for a person with no edges.
    """
    check_bid_input(graph, eps)
    n, s = graph.n, graph.s
    off, adj_v, adj_w = graph.adj_off, graph.adj_v, graph.adj_w
    sentinel_gap = second_cost_sentinel_gap(graph.max_abs_weight)
    if trace_sink is not None:
        from .tracing import TraceEvent

    owner: list[Optional[int]] = [None] * s
    if cache is None:
        cache = [None] * n
    rows, cuts = weight_ordered_rows(graph) if view is None else view
    ordered = bool(rows)
    pmax = max(prices)
    # The ordered scans' price ceiling: the exact current maximum price and
    # how many objects hold it.  Kept only when some row is ordered.
    top, at_top = pmax, prices.count(pmax)
    queue: deque[int] = deque(range(n))
    pop, push = queue.popleft, queue.append
    guard, probe = step_guard(
        graph, pmax - min(prices), eps, deadline, "bidding phase", on_stall
    )
    step = 0
    while queue:
        if step >= probe:
            probe = guard(step)
        u = pop()

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
            order = rows[u] if ordered else None
            if order is not None:
                # the row in ascending (w, v), cut short by the price ceiling
                best_rc = second_rc = third = limit = inf
                best_i = second_i = -1
                for i in order:
                    w = adj_w[i]
                    if w > limit:
                        # every edge from here on costs w' - p(v') >=
                        # w - top > third: best, second and third are final
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
                        limit = third + top
                else:
                    if cuts[u] < limit:
                        # the sorted prefix ran out below the limit, and the
                        # view holds no more: the plain scan reads the row
                        order = None
            if order is None:
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

        displaced = owner[best_v]
        if displaced is not None:
            push(displaced)
        owner[best_v] = u
        old_price = prices[best_v]
        price = prices[best_v] = old_price - gamma - eps
        if ordered and old_price == top:
            at_top -= 1
            if not at_top:
                top = max(prices)
                at_top = prices.count(top)

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
                    new_price_v=price,
                    displaced_u=displaced,
                )
            )
        step += 1
    matching = Matching(n, s)
    for v, u in enumerate(owner):
        matching.assign(u, v)
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

    Raises :class:`InfeasibleInstanceError` when no such matching exists;
    unless ``precheck`` is disabled, with the message of
    :func:`~bimatch.feasibility.feasibility_precheck`, whose pass the
    solve's :class:`~bimatch.feasibility.Precheck` defers.  ``alpha`` is
    read as a :class:`Fraction` and must exceed 1, which is checked before
    any other work.  Unbalanced input is balanced by
    :func:`build_reduction`: the column kernel, then the ``double``
    construction.
    """
    alpha = check_alpha(alpha)
    with Precheck(graph, enabled=precheck, defer=trace_sink is None) as check:
        balanced = build_reduction(graph, deadline=deadline)
        check_deadline(deadline, "balancing reduction")
        scaled = scale_graph(balanced.graph)
        view = weight_ordered_rows(scaled)
        check_deadline(deadline, "weight-ordered rows")
        prices: PriceVector = [0] * scaled.s
        cache: CandidateCache = [None] * scaled.n
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
                on_stall=check.owed,
            )
            check.settle()  # a perfect matching: every right vertex is coverable
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
