"""Hungarian solver: a Jonker–Volgenant start, then shortest augmenting paths.

The third, structurally different route to the same optimum.  Every right
vertex ``v`` carries a dual ``y_v`` and every left vertex ``u`` a dual
``y_u``.  From the end of the start on, three invariants hold:

* every reduced cost ``w - y_u - y_v`` is nonnegative;
* every matched edge is tight (reduced cost 0);
* ``y_u <= 0`` everywhere, and ``y_u == 0`` on every unmatched left vertex.

The last one makes the one-sided optimum exact when ``s < n``: left vertices
left out of the cover carry no dual, so the duals certify a cheapest cover
of the right side with no balancing reduction.

A solve runs in three stages, after Jonker & Volgenant, "A shortest
augmenting path algorithm for dense and sparse linear assignment problems"
(Computing 38, 1987).  Right vertices play their rows, the side to cover;
left vertices play their columns, the objects.

1. Column reduction and a greedy pass: ``y_v`` is the cheapest weight at
   ``v``, every ``y_u`` is 0, and each right vertex in turn takes a free
   left vertex over a tight edge.
2. Augmenting row reduction: a free right vertex takes its cheapest left
   vertex under ``w - y_u`` and lowers that vertex's ``y_u`` by the gap to
   its second cheapest, displacing the vertex's partner.  A displaced vertex
   bids next when the gap was positive, and goes to the back of the queue on
   a tie or when its bidder had no runner-up.  The stage stops after
   ``ROW_REDUCTION_BIDS * s`` bids, which bounds it on any input, infeasible
   input included.
3. For each right vertex ``v0`` still free, a Dijkstra search over reduced
   costs finds a cheapest alternating path to an unmatched left vertex:
   each pass fans out a row, ``v0`` first at distance 0, then settles the
   nearest left vertex and crosses its matched edge.  ``v0`` keeps its
   dual, which nonnegative reduced costs hold at or below its column
   minimum, so every distance grows by one constant and no pop, tie or
   stop changes.  The duals shift so the path becomes tight, and the path
   is flipped.

Stages 2 and 3 read a column in ascending ``(w, u)`` and stop early; both
stops rest on ``y_u <= 0``, so ``w - y_u >= w`` on every entry.

* A bid stops at the first entry with ``w > second``, the runner-up so
  far: that entry and every later one cost more than ``second``.  Ties are
  broken toward the lower ``u`` explicitly, so the two kept entries are the
  two least by ``(w - y_u, u)``, as an ascending-``u`` scan would keep them.
* A search keeps ``ub``, the least tentative distance of an unmatched left
  vertex reached so far, and a fan-out at distance ``base`` stops at the
  first entry with ``w > ub - base``.  Every skipped relaxation would give a
  distance above ``ub``, which is at least the final path length, so it
  could not be popped before the search ends: pops, the settled set, their
  predecessors, the dual shifts and the flipped path are those of the full
  fan-out.

On tied instances several matchings reach the optimum weight; which one is
returned depends on the start, so it may differ from other solvers' choice.

The solver stays independent of the scaling solvers, so that its answers
are a real cross-check of theirs: it imports nothing from ``auction``,
``gk``, ``scaling`` or ``reduction``, has no eps and no kernel, and builds
its own right-side adjacency.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Optional

from .core import Matching, WeightedBipartiteGraph
from .errors import DEADLINE_STRIDE, InfeasibleInstanceError, check_deadline
from .feasibility import Precheck

# Bid budget of the augmenting row reduction, per right vertex.  Of 3, 4, 6,
# 8 and 10, 8 left the fastest solves on random square graphs (n = 300 to
# 2000) with bids that read whole columns; beyond it, bids go to price wars
# among the last few free vertices.  With weight-ordered columns (median ms
# of 3 passes, 2-core Xeon, Python 3.11) for 4 / 8 / 16 / 32: perfbench
# dense-square 15.2 / 13.5 / 14.3 / 17.7, sparse-square 39.2 / 36.8 / 33.5 /
# 39.2, er n=s=1000 at d=0.5 181 / 157 / 163 / 179.  A new budget would change
# which optimum a tied instance returns, so 8 stays.
ROW_REDUCTION_BIDS = 8

INF = float("inf")


def _right_adjacency(
    graph: WeightedBipartiteGraph,
) -> tuple[list[list[int]], list[list[int]]]:
    """Left neighbors and weights of each right vertex, transposed straight
    from the compressed rows, so in ascending left index.  The greedy pass
    reads them in that order; :func:`_order_column` re-sorts a column by
    ``(w, u)`` the first time stage 2 or a stage-3 fan-out reads it."""
    by_u: list[list[int]] = [[] for _ in range(graph.s)]
    by_w: list[list[int]] = [[] for _ in range(graph.s)]
    adj_off, adj_v, adj_w = graph.adj_off, graph.adj_v, graph.adj_w
    for u in range(graph.n):
        for i in range(adj_off[u], adj_off[u + 1]):
            v = adj_v[i]
            by_u[v].append(u)
            by_w[v].append(adj_w[i])
    return by_u, by_w


def _order_column(
    adj_u: list[list[int]], adj_w: list[list[int]], ordered: list[bool], v: int
) -> None:
    """Sort column ``v`` by ``(w, u)`` in place; a stable sort on the weights
    keeps equal weights in the ascending ``u`` they were built in."""
    us, ws = adj_u[v], adj_w[v]
    order = sorted(range(len(ws)), key=ws.__getitem__)
    adj_u[v] = [us[i] for i in order]
    adj_w[v] = [ws[i] for i in order]
    ordered[v] = True


def hungarian(
    graph: WeightedBipartiteGraph,
    *,
    precheck: bool = True,
    deadline: Optional[float] = None,
    validate_duals: bool = False,
) -> Matching:
    """Minimum-weight matching covering every right vertex.

    Runs the three stages of the module docstring: column reduction with a
    greedy pass, a bounded augmenting row reduction (Jonker & Volgenant,
    1987), and one shortest augmenting path search per right vertex still
    free, keeping the three dual invariants.  On tied instances the
    matching may be another optimum of equal weight.

    Raises :class:`InfeasibleInstanceError` when no such matching exists,
    surfacing as a dead-ended search or a right vertex with no edges.  With
    ``precheck`` on, the solve runs inside a
    :class:`~bimatch.feasibility.Precheck`: ``s > n`` and ``m < s`` are
    rejected up front, either of the solver's own proofs leaves with the
    precheck's message and no Hopcroft-Karp pass, and a timeout runs that
    pass first, so on infeasible input it too becomes the precheck's
    error.  ``validate_duals`` audits the three invariants after the start
    and after every augmentation (slow; for tests).
    """
    with Precheck(graph, enabled=precheck):
        n, s = graph.n, graph.s
        adj_u, adj_w = _right_adjacency(graph)
        matching = Matching(n, s)
        match_of_u, match_of_v = matching.match_of_u, matching.match_of_v

        y_u = [0] * n
        y_v = [0] * s
        for v in range(s):
            ws = adj_w[v]
            if not ws:
                raise InfeasibleInstanceError(f"right vertex {v} has no edges")
            y_v[v] = low = min(ws)
            for u, w in zip(adj_u[v], ws):
                if w == low and match_of_u[u] is None:
                    match_of_u[u] = v
                    match_of_v[v] = u
                    break
        check_deadline(deadline, "greedy start")

        ordered = [False] * s
        free = _augmenting_row_reduction(
            adj_u, adj_w, ordered, y_u, y_v, matching,
            [v for v in range(s) if match_of_v[v] is None], deadline,
        )
        if validate_duals:
            _audit_duals(graph, y_u, y_v, matching)

        # Search state kept across searches; each search resets what it
        # touched.  No settled flags are needed: reduced costs are
        # nonnegative, so a settled vertex's distance is never beaten, and
        # its stale heap entries fail the ``d == dist[u]`` test.
        dist: list[float] = [INF] * n
        pred_v = [-1] * n
        steps = 0

        for v0 in free:
            heap: list[tuple[int, int]] = []
            ub = INF  # least tentative distance of an unmatched left vertex
            touched: list[int] = []
            settled: list[int] = []  # matched, in pop order
            v, d = v0, 0  # the root row, under the dual it already has
            while True:
                # Fan out row v, reached at distance d, until an entry's
                # weight alone reaches past ub.
                base = d - y_v[v]
                if not ordered[v]:
                    _order_column(adj_u, adj_w, ordered, v)
                limit = ub - base
                for u2, w in zip(adj_u[v], adj_w[v]):
                    if w > limit:
                        break
                    nd = base + w - y_u[u2]
                    if nd < dist[u2]:
                        if dist[u2] == INF:
                            touched.append(u2)
                        dist[u2] = nd
                        pred_v[u2] = v
                        heappush(heap, (nd, u2))
                        if nd < ub and match_of_u[u2] is None:
                            ub = nd
                            limit = ub - base
                # Settle the nearest left vertex, then cross its tight
                # matched edge into the next row.
                while heap:
                    steps += 1
                    if steps % DEADLINE_STRIDE == 0:
                        check_deadline(deadline, "augmenting search")
                    d, u = heappop(heap)
                    if d == dist[u]:
                        break
                else:
                    raise InfeasibleInstanceError(
                        f"right vertex {v0} cannot be covered"
                    )
                v = match_of_u[u]
                if v is None:
                    break
                settled.append(u)

            # Shift duals so the found path of length d becomes tight and
            # reduced costs stay nonnegative everywhere; u itself keeps
            # y_u = 0.
            y_v[v0] += d
            for u2 in settled:
                shift = d - dist[u2]
                y_u[u2] -= shift
                y_v[match_of_u[u2]] += shift
            for u2 in touched:
                dist[u2] = INF

            # Flip matched edges along the path from u, ending by covering v0.
            while True:
                v = pred_v[u]
                prev_u = match_of_v[v]
                match_of_u[u] = v
                match_of_v[v] = u
                if prev_u is None:
                    break
                u = prev_u

            if validate_duals:
                _audit_duals(graph, y_u, y_v, matching)

        return matching


def _augmenting_row_reduction(
    adj_u: list[list[int]],
    adj_w: list[list[int]],
    ordered: list[bool],
    y_u: list[int],
    y_v: list[int],
    matching: Matching,
    free: list[int],
    deadline: Optional[float],
) -> list[int]:
    """Stage 2 of the solve; returns the right vertices still free.

    Each bid keeps the invariants: ``y_v`` becomes the second cheapest
    ``w - y_u``, so the bidder's edges stay nonnegative and its new edge is
    tight; a lowered ``y_u`` belongs to a vertex that stays matched.
    """
    match_of_u, match_of_v = matching.match_of_u, matching.match_of_v
    queue = deque(free)
    budget = ROW_REDUCTION_BIDS * len(y_v)
    bids = 0
    v: Optional[int] = None  # a displaced vertex that bids next
    while bids < budget:
        if v is None:
            if not queue:
                break
            v = queue.popleft()
        bids += 1
        if bids % DEADLINE_STRIDE == 0:
            check_deadline(deadline, "row reduction")
        if not ordered[v]:
            _order_column(adj_u, adj_w, ordered, v)
        # the two least entries by (w - y_u, u); no later entry can beat
        # second once its weight alone exceeds it
        first = second = INF
        u1 = u2 = -1
        for u, w in zip(adj_u[v], adj_w[v]):
            if w > second:
                break
            a = w - y_u[u]
            if a < second or (a == second and u < u2):
                if a < first or (a == first and u < u1):
                    second, u2 = first, u1
                    first, u1 = a, u
                else:
                    second, u2 = a, u
        if u2 < 0:
            second = first  # no runner-up: nothing to lower against
        gap = second - first
        if gap:
            y_u[u1] -= gap
        elif u2 >= 0 and match_of_u[u1] is not None:
            u1 = u2
        y_v[v] = second
        holder = match_of_u[u1]
        match_of_u[u1] = v
        match_of_v[v] = u1
        v = None
        if holder is not None:
            match_of_v[holder] = None
            if gap:
                v = holder
            else:
                queue.append(holder)
    if v is not None:
        queue.appendleft(v)
    return list(queue)


def _audit_duals(
    graph: WeightedBipartiteGraph,
    y_u: list[int],
    y_v: list[int],
    matching: Matching,
) -> None:
    for u, v, w in graph.iter_edges():
        rc = w - y_u[u] - y_v[v]
        if rc < 0:
            raise AssertionError(f"negative reduced cost {rc} on ({u}, {v})")
        if matching.match_of_u[u] == v and rc != 0:
            raise AssertionError(f"matched edge ({u}, {v}) not tight: {rc}")
    for u, y in enumerate(y_u):
        if y > 0:
            raise AssertionError(f"left vertex {u} has positive dual {y}")
        if y and matching.match_of_u[u] is None:
            raise AssertionError(f"unmatched left vertex {u} has dual {y}")
