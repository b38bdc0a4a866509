"""Push-relabel solver on the min-cost-flow form of the matching problem.

The balanced instance becomes a unit-capacity flow network: persons supply
one unit, objects demand one, an arc per edge.  Each refine round zeroes the
flow and keeps the object prices, then repeatedly double-pushes an active
person: relabel ``p(u)`` to minus the runner-up partial reduced cost, push
the unit to the best object, bounce the object's previous unit back to its
old owner, and drop the object's price to ``p(u) + w(uv) - eps``.  The
driver shrinks ``eps`` exactly like the bidding solver and shares its step
ordering, which is what makes the two solvers' traces comparable.

A round keeps one record of its pseudoflow: ``owner_arc[v]``, the arc whose
unit object ``v`` holds (``-1`` while ``v`` holds none).  A person is active
exactly while it waits in the queue, so no excess is stored; the 0/1 arc
flow is built from ``owner_arc`` once, when the round ends.

Every double push re-derives the object price update in the bidding form
(old price minus gap minus eps) and demands bit-for-bit agreement, so a
completed run certifies the correspondence, not just the result.

Most double pushes skip the neighborhood scan.  The loop keeps a candidate
cache, one entry per person: the arcs of the two smallest partial reduced
costs ``w(uv) - p(v)`` at that person's last full scan and the
third-smallest value of that scan (``inf`` for a degree-2 person).  A
double push first recomputes the two cached costs; if both lie strictly
below the stored third, they are the two smallest, the lower arc winning a
tie, and the scan is skipped.  Otherwise it scans in full and stores a new
entry only when its third exceeds its second: with third == second the
entry could never hit.

This is exact because every object price update is ``old - gamma - eps``
with ``gamma >= 0`` and ``eps >= 1`` (the correspondence guard enforces
that form on every push) and the driver carries prices across refines
unchanged.  So object prices only fall during a solve, every partial
reduced cost only rises, and a stored third stays a lower bound on every
uncached cost of its person.  The driver creates the cache once per solve
and hands it to every refine; a refine called without one makes a fresh
one, so a direct caller with arbitrary prices gets the plain scan's result.

A full scan of a long row usually needs only its lightest arcs.  Each solve
builds :func:`~bimatch.scaling.weight_ordered_rows` once, after scaling:
each row with at least ``ORDERED_ROW_MIN_WEIGHTS`` (40) distinct weights,
its arcs sorted by ``(w, v)``.  A full scan of such a row walks that order
and stops at the first arc with ``w > third + pmax``, where ``pmax`` is the
highest object price at the refine's start.

- Exact: object prices only fall within a refine, so every unread arc
  costs ``w' - p(v') >= w' - pmax >= w - pmax > third``.  It can neither
  enter the three smallest values nor tie the smallest, so best, second
  and third are those of the whole row.
- Ties: the plain scan sends a tie at the minimum to the lowest arc.
  Equal weights are read in ascending arc order anyway, but equal costs
  may come from different weights in either order.  So an arc that ties
  the best with a lower index takes its place explicitly: it becomes the
  best, and the old best becomes the runner-up.  A cache entry keeps the
  lower arc first, as after a plain scan, so the hit path is unchanged.
- The cutoff: ordering pays on rows of about 30 or more distinct weights,
  and loses on rows with two.  40 keeps every row of the short-row and
  two-weight benchmark workloads on the plain scan; the measurements are
  at ``ORDERED_ROW_MIN_WEIGHTS``.

Scans and cache checks read object prices through ``head_of_arc``, the
node id ``n + v`` of each arc, so no cost lookup adds ``n``.  A refine
called without a view builds its own, so a direct call takes the same
path as a solve.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Callable, Optional

from .core import Matching, WeightedBipartiteGraph
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
class FlowInstance:
    """Unit-capacity flow view of a balanced graph.

    Node ``x < n`` is person ``x`` (supply +1); node ``n + v`` is object
    ``v`` (supply -1).  Arc ``a`` is adjacency position ``a`` of the graph,
    running from node ``tail_of_arc[a]`` to node ``head_of_arc[a]`` with
    capacity 1 and cost ``adj_w[a]``.
    """

    graph: WeightedBipartiteGraph
    tail_of_arc: tuple[int, ...]
    head_of_arc: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        return self.graph.n + self.graph.s

    @property
    def n_arcs(self) -> int:
        return self.graph.m


def to_flow_instance(graph: WeightedBipartiteGraph) -> FlowInstance:
    if graph.n != graph.s:
        raise ValueError(
            f"flow form needs a balanced graph, got n={graph.n}, s={graph.s}"
        )
    # one int object per node id, shared by every arc that ends there
    nodes = list(range(graph.n + graph.s))
    tails = []
    for u in range(graph.n):
        tails.extend([nodes[u]] * graph.degree(u))
    heads = map(nodes[graph.n :].__getitem__, graph.adj_v)
    return FlowInstance(graph, tuple(tails), tuple(heads))


def residual_conditions(
    fi: FlowInstance, flow: list[int], prices: list[int], eps: int
) -> tuple[bool, bool]:
    """Evaluate the two residual-arc price conditions separately.

    First: every reversed residual arc (object back to the person whose
    unit it holds) has reduced cost at least ``-eps``.  Second: every
    forward residual arc has nonnegative reduced cost.
    """
    g = fi.graph
    n = g.n
    cond_rev = True
    cond_fwd = True
    for a in range(fi.n_arcs):
        u = fi.tail_of_arc[a]
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
    for a, f in enumerate(flow):
        if f:
            matching.assign(fi.tail_of_arc[a], g.adj_v[a])
    if matching.size != g.s:
        raise ValueError("pseudoflow still has active or deficient nodes")
    return matching


@dataclass(frozen=True)
class RefineSnapshot:
    """State at the end of one refine round, on the scaled balanced graph."""

    refine_index: int
    eps: int
    instance: FlowInstance
    flow: list[int]
    prices: list[int]
    matching: Matching


RefineCallback = Callable[[RefineSnapshot], None]

# Per person: (lower arc, higher arc, third-smallest partial reduced cost) of
# its last full scan, or None.
PushCache = list[Optional[tuple[int, int, float]]]


def refine(
    fi: FlowInstance,
    eps: int,
    prices: list[int],
    *,
    refine_index: int = 0,
    trace_sink: Optional[TraceSink] = None,
    deadline: Optional[float] = None,
    check_identities: bool = False,
    cache: Optional[PushCache] = None,
    view: Optional[OrderedRows] = None,
) -> tuple[list[int], list[int]]:
    """One refine round; mutates ``prices`` (length ``n + s``) in place and
    returns ``(flow, prices)``.

    Incoming person prices are ignored; they are output only.  The round
    tracks only ``owner_arc`` and on exit builds from it ``flow``, the 0/1
    value of each arc, which then carries a perfect matching.  With
    ``check_identities`` every double push additionally rescans the person's
    neighborhood and verifies the relabel landed exactly on minus the
    smallest partial reduced cost (offset by ``eps`` for single-edge
    neighborhoods, whose runner-up is synthetic).  ``cache`` is the solve's
    candidate cache (see the module docstring); it is valid only while
    object prices have done nothing but fall since it was filled, so leave
    it out unless the prices come from the refine that last used it.
    ``view`` is the weight-ordered view of the graph's rows; it depends
    only on the graph.
    """
    g = fi.graph
    n, s = g.n, g.s
    if eps < 1:
        raise ValueError(f"eps must be a positive integer, got {eps}")
    off, adj_v, adj_w = g.adj_off, g.adj_v, g.adj_w
    head, tail = fi.head_of_arc, fi.tail_of_arc
    sentinel_gap = second_cost_sentinel_gap(g.max_abs_weight)
    check_persons_have_edges(g)

    # No per-round person price reset: first double pushes overwrite it unread.
    owner_arc = [-1] * s
    if cache is None:
        cache = [None] * n
    if view is None:
        view = weight_ordered_rows(g)
    # object prices only fall during the round, so none exceeds its start max
    pmax = max(prices[n:])
    queue: deque[int] = deque(range(n))
    cap = step_cap(g, pmax - min(prices[n:]), eps)
    step = 0
    while queue:
        if step >= cap or (deadline is not None and step % DEADLINE_STRIDE == 0):
            check_step(step, cap, eps, deadline, "refine")
        u = queue.popleft()

        lo, hi = off[u], off[u + 1]
        entry = cache[u]
        if entry is not None:
            a1, a2, third = entry
            rc1 = adj_w[a1] - prices[head[a1]]
            rc2 = adj_w[a2] - prices[head[a2]]
            if rc1 >= third or rc2 >= third:
                entry = None
        if entry is not None:
            # a1 < a2, so a tie goes to a1
            if rc2 < rc1:
                best_arc, best_rc, second_rc = a2, rc2, rc1
            else:
                best_arc, best_rc, second_rc = a1, rc1, rc2
        else:
            if view and (order := view[u]) is not None:
                # the row in ascending (w, v), cut short by the price bound
                best_rc = second_rc = third = limit = inf
                best_arc = second_arc = -1
                for a in order:
                    w = adj_w[a]
                    if w > limit:
                        # every arc from here on costs w' - p(v') >=
                        # w - pmax > third: best, second and third are final
                        break
                    rc = w - prices[head[a]]
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
                        limit = third + pmax
            else:
                best_arc = lo
                best_rc = adj_w[lo] - prices[head[lo]]
                second_rc = third = inf
                second_arc = -1
                for a in range(lo + 1, hi):
                    rc = adj_w[a] - prices[head[a]]
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

        prices[u] = -second_rc
        old_price_v = prices[n + v]
        prev_arc = owner_arc[v]
        displaced: Optional[int] = None
        if prev_arc >= 0:
            displaced = tail[prev_arc]
            queue.append(displaced)
        owner_arc[v] = best_arc
        new_price_v = prices[u] + adj_w[best_arc] - eps

        # Correspondence guard, always on: the push-relabel update must
        # coincide with the bidding update old_price - gap - eps.
        gamma = second_rc - best_rc
        if new_price_v != old_price_v - gamma - eps:
            raise RuntimeError(
                f"price update mismatch at u={u}, v={v}: "
                f"{new_price_v} != {old_price_v} - {gamma} - {eps}"
            )
        prices[n + v] = new_price_v

        if check_identities:
            rescan = min(
                adj_w[a] - prices[n + adj_v[a]] for a in range(lo, hi)
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
    fi = to_flow_instance(scaled)
    view = weight_ordered_rows(scaled)
    check_deadline(deadline, "weight-ordered rows")
    prices = [0] * fi.n_nodes
    cache: PushCache = [None] * fi.graph.n
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
        )
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
