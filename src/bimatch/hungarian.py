"""Hungarian solver: successive shortest augmenting paths with duals.

The third, structurally different route to the same optimum.  It keeps dual
values on both sides so every edge has nonnegative reduced cost, grows the
matching one right vertex at a time along a cheapest alternating path
(Dijkstra over reduced costs), then shifts duals so the path becomes tight.
Handles unbalanced instances natively, so no balancing reduction and no
eps machinery; its answers cross-check the scaling solvers at full size.
"""

from __future__ import annotations

import heapq
from typing import Optional

from .core import Matching, WeightedBipartiteGraph
from .errors import DEADLINE_STRIDE, InfeasibleInstanceError, check_deadline
from .feasibility import feasibility_precheck


def _right_adjacency(
    graph: WeightedBipartiteGraph,
) -> tuple[list[list[int]], list[list[int]]]:
    by_u: list[list[int]] = [[] for _ in range(graph.s)]
    by_w: list[list[int]] = [[] for _ in range(graph.s)]
    for u, v, w in graph.iter_edges():
        by_u[v].append(u)
        by_w[v].append(w)
    return by_u, by_w


def hungarian(
    graph: WeightedBipartiteGraph,
    *,
    precheck: bool = True,
    deadline: Optional[float] = None,
    validate_duals: bool = False,
) -> Matching:
    """Minimum-weight matching covering every right vertex.

    Raises :class:`InfeasibleInstanceError` when no such matching exists;
    with ``precheck`` off the same condition surfaces as a dead-ended
    search.  ``validate_duals`` audits dual feasibility and tightness after
    every augmentation (slow; for tests).
    """
    if precheck:
        feasibility_precheck(graph)
    n, s = graph.n, graph.s
    adj_u, adj_w = _right_adjacency(graph)

    y_u = [0] * n
    y_v = [0] * s
    for v in range(s):
        if not adj_w[v]:
            raise InfeasibleInstanceError(f"right vertex {v} has no edges")
        y_v[v] = min(adj_w[v])

    matching = Matching(n, s)
    INF = float("inf")
    steps = 0

    for v0 in range(s):
        # Cheapest alternating path from v0 to any unmatched left vertex,
        # measured in reduced costs w - y_u - y_v (all nonnegative).
        dist: list[float] = [INF] * n
        pred_v = [-1] * n
        settled = [False] * n
        settled_order: list[int] = []
        dv: dict[int, int] = {v0: 0}
        heap: list[tuple[int, int]] = []

        for i, u in enumerate(adj_u[v0]):
            rc = adj_w[v0][i] - y_u[u] - y_v[v0]
            if rc < dist[u]:
                dist[u] = rc
                pred_v[u] = v0
                heapq.heappush(heap, (rc, u))

        u_star = -1
        while heap:
            steps += 1
            if deadline is not None and steps % DEADLINE_STRIDE == 0:
                check_deadline(deadline, "augmenting search")
            d, u = heapq.heappop(heap)
            if settled[u] or d > dist[u]:
                continue
            settled[u] = True
            settled_order.append(u)
            if matching.match_of_u[u] is None:
                u_star = u
                break
            # Cross the tight matched edge into u's object, then fan out.
            v = matching.match_of_u[u]
            dv[v] = d
            for i, u2 in enumerate(adj_u[v]):
                if settled[u2]:
                    continue
                nd = d + adj_w[v][i] - y_u[u2] - y_v[v]
                if nd < dist[u2]:
                    dist[u2] = nd
                    pred_v[u2] = v
                    heapq.heappush(heap, (nd, u2))

        if u_star < 0:
            raise InfeasibleInstanceError(
                f"right vertex {v0} cannot be covered"
            )
        total = dist[u_star]
        assert total != INF

        # Shift duals so the found path becomes tight and reduced costs
        # stay nonnegative everywhere.
        for v, d in dv.items():
            y_v[v] += total - d
        for u in settled_order:
            y_u[u] -= total - dist[u]

        # Flip matched edges along the path, ending by covering v0.
        u = u_star
        while True:
            v = pred_v[u]
            prev_u = matching.match_of_v[v]
            if prev_u is not None:
                matching.unassign(prev_u, v)
            matching.assign(u, v)
            if prev_u is None:
                break
            u = prev_u

        if validate_duals:
            _audit_duals(graph, y_u, y_v, matching)

    return matching


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
