"""Push-relabel solver on the min-cost-flow form of the matching problem.

The balanced instance becomes a unit-capacity flow network: persons supply
one unit, objects demand one, an arc per edge.  Each refine round zeroes the
flow and keeps the object prices, then repeatedly double-pushes an active
person: relabel ``p(u)`` to minus the runner-up partial reduced cost, push
the unit to the best object, bounce the object's previous unit back to its
old owner, and drop the object's price to ``p(u) + w(uv) - eps``.  The
driver shrinks ``eps`` exactly like the bidding solver and shares its step
ordering, which is what makes the two solvers' traces comparable.  It
solves inside a :class:`~bimatch.feasibility.Precheck` as the auction's
driver does: refine 0's step guard pays the owed Hopcroft-Karp pass once
the round reaches ``PRECHECK_STALL_BIDS * N`` pushes, and a finished
refine 0 settles it unpaid.

A round keeps its pseudoflow and its object prices in three lists:
``owner[v]``, the person whose unit object ``v`` holds, ``owner_arc[v]``,
the arc that carries that unit (``None`` and ``-1`` while ``v`` holds
none), and ``objects[v]``, the price of object ``v``.  A person is active
exactly while it waits in the queue, so no excess is stored.  When the
round returns it builds the 0/1 arc flow from ``owner_arc`` and writes
``objects`` into ``prices[n:]``; a round that raises leaves the object
prices of ``prices`` as they came in.

The double push is the bid of :mod:`bimatch.auction` by algebra (Bertsekas
1988; Goldberg & Kennedy 1995): with ``best = w(uv) - p(v)`` and
``p(u) = -second``, the new price ``p(u) + w(uv) - eps`` is
``p(v) - gamma - eps`` exactly, in integers, where ``gamma = second -
best``.  What certifies the correspondence on a run is trace equality
with the auction (acceptance criterion 2 and the CI ``trace-diff``) and
the person-price identity that ``check_identities`` checks after every
push (criterion 5).

A double push finds the two smallest partial reduced costs
``w(uv) - p(v)`` of its person as a bid of :mod:`bimatch.auction` finds
its two smallest reduced costs, with arcs in place of adjacency positions
(arc ``a`` is position ``a``): the same candidate cache, created once per
solve and afresh by a direct call; the same weight-ordered rows of
:func:`~bimatch.scaling.weight_ordered_rows`, sorted up to a cut, whose
full scans stop at the first arc with ``w > third + top`` and fall back
to the plain scan of the row when its prefix runs out with the cut below
that limit; and the same price ceiling ``top`` over the object prices.
The auction's module docstring argues that each is exact.  The argument
holds here because every push sets its object's price to ``old - gamma -
eps``, the bidding form, so object prices only fall.  The two scans stay
separate code on purpose: equal traces are the check.  A refine called
without a view builds its own, so a direct call takes the same path as a
solve.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from fractions import Fraction
from itertools import compress
from math import inf
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .core import Matching, WeightedBipartiteGraph
from .errors import check_deadline
from .feasibility import Precheck
from .reduction import build_reduction, project_matching
from .scaling import (
    DEFAULT_ALPHA,
    CandidateCache,
    OrderedView,
    check_alpha,
    check_balanced,
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


class FlowInstance(NamedTuple):
    """Unit-capacity flow view of a balanced graph.

    Node ``x < n`` is person ``x`` (supply +1); node ``n + v`` is object
    ``v`` (supply -1).  Arc ``a`` is adjacency position ``a`` of the graph,
    running from the person whose row holds it to node ``n + adj_v[a]``
    with capacity 1 and cost ``adj_w[a]``.  No per-arc field is stored:
    an arc's tail is ``bisect_right(adj_off, a) - 1``.
    """

    graph: WeightedBipartiteGraph

    @property
    def n_nodes(self) -> int:
        return self.graph.n + self.graph.s

    @property
    def n_arcs(self) -> int:
        return self.graph.m


def to_flow_instance(graph: WeightedBipartiteGraph) -> FlowInstance:
    """The flow form of ``graph``; ``ValueError`` unless it is balanced,
    the rule :func:`refine` applies again on entry."""
    check_balanced(graph)
    return FlowInstance(graph)


def residual_conditions(
    fi: FlowInstance, flow: list[int], prices: list[int], eps: int
) -> tuple[bool, bool]:
    """Evaluate the two residual-arc price conditions separately.

    First: every reversed residual arc (object back to the person whose
    unit it holds) has reduced cost at least ``-eps``.  Second: every
    forward residual arc has nonnegative reduced cost.
    """
    g = fi.graph
    n, off = g.n, g.adj_off
    cond_rev = True
    cond_fwd = True
    for a in range(fi.n_arcs):
        u = bisect_right(off, a) - 1
        v = g.adj_v[a]
        w = g.adj_w[a]
        if flow[a]:
            if -w + prices[n + v] - prices[u] < -eps:
                cond_rev = False
        else:
            if w + prices[u] - prices[n + v] < 0:
                cond_fwd = False
    return cond_rev, cond_fwd


def check_eps_optimal(
    fi: FlowInstance, flow: list[int], prices: list[int], eps: int
) -> bool:
    """True iff the pseudoflow/price pair meets both residual conditions."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    cond_rev, cond_fwd = residual_conditions(fi, flow, prices, eps)
    return cond_rev and cond_fwd


def flow_to_matching(fi: FlowInstance, flow: list[int]) -> Matching:
    """Matching carried by a 0/1 arc flow with no excess anywhere.

    Raises ``ValueError`` if a person sends or an object receives more than
    one unit, or if some object receives none.
    """
    g = fi.graph
    matching = Matching(g.n, g.s)
    off, adj_v = g.adj_off, g.adj_v
    for a in compress(range(len(flow)), flow):
        matching.assign(bisect_right(off, a) - 1, adj_v[a])
    if matching.size != g.s:
        raise ValueError("pseudoflow still has active or deficient nodes")
    return matching


class RefineSnapshot(NamedTuple):
    """State at the end of one refine round, on the scaled balanced graph."""

    refine_index: int
    eps: int
    instance: FlowInstance
    flow: list[int]
    prices: list[int]
    matching: Matching


RefineCallback = Callable[[RefineSnapshot], None]


def refine(
    fi: FlowInstance,
    eps: int,
    prices: list[int],
    *,
    refine_index: int = 0,
    trace_sink: Optional[TraceSink] = None,
    deadline: Optional[float] = None,
    check_identities: bool = False,
    cache: Optional[CandidateCache] = None,
    view: Optional[OrderedView] = None,
    on_stall: Optional[Callable[[], None]] = None,
) -> tuple[list[int], list[int]]:
    """One refine round; mutates ``prices`` (length ``n + s``) in place and
    returns ``(flow, prices)``.

    Incoming person prices are ignored; they are output only.  The round
    keeps the object prices in a list of its own and writes them into
    ``prices[n:]`` when it returns, not when it raises.  It tracks each
    object's owner and ``owner_arc``, and on exit builds from the latter
    ``flow``, the 0/1 value of each arc, which then carries a perfect
    matching.  With ``check_identities`` every double push additionally
    rescans the person's neighborhood and verifies the relabel landed
    exactly on minus the smallest partial reduced cost (offset by ``eps``
    for single-edge neighborhoods, whose runner-up is synthetic).  ``cache`` is the solve's
    candidate cache (see the module docstring); it is valid only while
    object prices have done nothing but fall since it was filled, so leave
    it out unless the prices come from the refine that last used it.
    ``view`` is the weight-ordered view of the graph's rows; the round only
    reads it, and it depends only on the graph.  ``on_stall`` is called
    once, before push ``PRECHECK_STALL_BIDS * n``, if the round gets that
    far.

    Before any push it makes :func:`~bimatch.scaling.check_bid_input`, the
    entry check it shares with :func:`bimatch.auction.auction_phase`: a
    ``ValueError`` for an unbalanced graph, even when ``fi`` was built
    directly rather than by :func:`to_flow_instance`, or for ``eps < 1``,
    and an :class:`InfeasibleInstanceError` for a person with no edges.
    """
    g = fi.graph
    check_bid_input(g, eps)
    n, s = g.n, g.s
    off, adj_v, adj_w = g.adj_off, g.adj_v, g.adj_w
    sentinel_gap = second_cost_sentinel_gap(g.max_abs_weight)
    if trace_sink is not None:
        from .tracing import TraceEvent

    # No per-round person price reset: first double pushes overwrite it unread.
    owner: list[Optional[int]] = [None] * s
    owner_arc = [-1] * s
    if cache is None:
        cache = [None] * n
    rows, cuts = weight_ordered_rows(g) if view is None else view
    ordered = bool(rows)
    objects = prices[n:]
    pmax = max(objects)
    # The ordered scans' price ceiling: the exact current maximum object
    # price and how many objects hold it.  Kept only when some row is ordered.
    top, at_top = pmax, objects.count(pmax)
    queue: deque[int] = deque(range(n))
    pop, push = queue.popleft, queue.append
    guard, probe = step_guard(
        g, pmax - min(objects), eps, deadline, "refine", on_stall
    )
    step = 0
    while queue:
        if step >= probe:
            probe = guard(step)
        u = pop()

        entry = cache[u]
        if entry is not None:
            a1, a2, third = entry
            rc1 = adj_w[a1] - objects[adj_v[a1]]
            rc2 = adj_w[a2] - objects[adj_v[a2]]
            if rc1 >= third or rc2 >= third:
                entry = None
        if entry is not None:
            # a1 < a2, so a tie goes to a1
            if rc2 < rc1:
                best_arc, best_rc, second_rc = a2, rc2, rc1
            else:
                best_arc, best_rc, second_rc = a1, rc1, rc2
        else:
            order = rows[u] if ordered else None
            if order is not None:
                # the row in ascending (w, v), cut short by the price ceiling
                best_rc = second_rc = third = limit = inf
                best_arc = second_arc = -1
                for a in order:
                    w = adj_w[a]
                    if w > limit:
                        # every arc from here on costs w' - p(v') >=
                        # w - top > third: best, second and third are final
                        break
                    rc = w - objects[adj_v[a]]
                    if rc <= third:
                        if rc < second_rc:
                            third = second_rc
                            if rc < best_rc:
                                second_rc, second_arc = best_rc, best_arc
                                best_rc, best_arc = rc, a
                            elif rc == best_rc and a < best_arc:
                                second_rc, second_arc = rc, best_arc
                                best_arc = a
                            else:
                                second_rc, second_arc = rc, a
                        else:
                            third = rc
                            if rc == best_rc and a < best_arc:
                                best_arc = a
                        limit = third + top
                else:
                    if cuts[u] < limit:
                        # the sorted prefix ran out below the limit, and the
                        # view holds no more: the plain scan reads the row
                        order = None
            if order is None:
                best_arc = off[u]
                best_rc = adj_w[best_arc] - objects[adj_v[best_arc]]
                second_rc = third = inf
                second_arc = -1
                for a in range(best_arc + 1, off[u + 1]):
                    rc = adj_w[a] - objects[adj_v[a]]
                    if rc < third:
                        if rc < second_rc:
                            third = second_rc
                            if rc < best_rc:
                                second_rc, second_arc = best_rc, best_arc
                                best_rc, best_arc = rc, a
                            else:
                                second_rc, second_arc = rc, a
                        else:
                            third = rc
            if second_arc < 0:
                second_rc = best_rc + sentinel_gap
            elif third > second_rc:
                cache[u] = (
                    (best_arc, second_arc, third)
                    if best_arc < second_arc
                    else (second_arc, best_arc, third)
                )
            else:
                cache[u] = None
        v = adj_v[best_arc]

        price_u = prices[u] = -second_rc
        old_price_v = objects[v]
        displaced = owner[v]
        if displaced is not None:
            push(displaced)
        owner[v] = u
        owner_arc[v] = best_arc
        new_price_v = price_u + adj_w[best_arc] - eps
        gamma = second_rc - best_rc
        objects[v] = new_price_v
        if ordered and old_price_v == top:
            at_top -= 1
            if not at_top:
                top = max(objects)
                at_top = objects.count(top)

        if check_identities:
            lo, hi = off[u], off[u + 1]
            rescan = min(
                adj_w[a] - objects[adj_v[a]] for a in range(lo, hi)
            )
            expected = -rescan if hi - lo > 1 else -(rescan - eps)
            if prices[u] != expected:
                raise RuntimeError(
                    f"person price identity violated at u={u}: "
                    f"p={prices[u]}, expected {expected}"
                )

        if trace_sink is not None:
            trace_sink.append(
                TraceEvent(
                    phase_index=refine_index,
                    step_index=step,
                    selected_u=u,
                    best_v=v,
                    best_reduced_cost=best_rc,
                    second_reduced_cost=second_rc,
                    gamma=gamma,
                    new_price_v=new_price_v,
                    displaced_u=displaced,
                )
            )
        step += 1
    prices[n:] = objects
    flow = [0] * fi.n_arcs
    for a in owner_arc:
        if a >= 0:
            flow[a] = 1
    return flow, prices


def goldberg_kennedy(
    graph: WeightedBipartiteGraph,
    *,
    alpha: Fraction = DEFAULT_ALPHA,
    trace_sink: Optional[TraceSink] = None,
    on_refine: Optional[RefineCallback] = None,
    deadline: Optional[float] = None,
    precheck: bool = True,
    check_identities: bool = False,
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
        fi = to_flow_instance(scaled)
        view = weight_ordered_rows(scaled)
        check_deadline(deadline, "weight-ordered rows")
        prices = [0] * fi.n_nodes
        cache: CandidateCache = [None] * fi.graph.n
        flow: list[int] = []
        for refine_index, eps in enumerate(eps_schedule(initial_eps(scaled), alpha)):
            flow, prices = refine(
                fi,
                eps,
                prices,
                refine_index=refine_index,
                trace_sink=trace_sink,
                deadline=deadline,
                check_identities=check_identities,
                cache=cache,
                view=view,
                on_stall=check.owed,
            )
            check.settle()  # a perfect matching: every right vertex is coverable
            if on_refine is not None:
                on_refine(
                    RefineSnapshot(
                        refine_index=refine_index,
                        eps=eps,
                        instance=fi,
                        flow=list(flow),
                        prices=list(prices),
                        matching=flow_to_matching(fi, flow),
                    )
                )
    return project_matching(balanced, flow_to_matching(fi, flow))
