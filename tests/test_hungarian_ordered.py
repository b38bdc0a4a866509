"""The Hungarian solver's weight-ordered columns give the full scan's answers.

``reference_hungarian`` is the solver as it ran before stage 2 and the
stage-3 fan-outs read columns in ``(w, u)`` order and stopped early: every
column in ascending left index, read in full.  The solver must return the
same pairs, after the same number of row-reduction bids and heap pops, and
keep its dual invariants, on inputs full of ties.
"""

from __future__ import annotations

import importlib
import random
from collections import deque
from heapq import heappop, heappush
from typing import Callable

import pytest

from bimatch.core import Matching, WeightedBipartiteGraph, build_graph
from bimatch.hungarian import ROW_REDUCTION_BIDS, _right_adjacency, hungarian

from test_hungarian_start import draw_feasible, negative, two_point, uniform

# the package re-exports the function under the module's name
hungarian_module = importlib.import_module("bimatch.hungarian")

INF = float("inf")


def reference_hungarian(graph: WeightedBipartiteGraph) -> tuple[Matching, int, int]:
    """``(matching, row-reduction bids, search heap pops)`` of the full scan.

    The same greedy pass, augmenting row reduction and Dijkstra searches as
    the solver, reading each column in ascending ``u`` to its end; the lower
    ``u`` wins every tie because it is read first and only a strictly lower
    cost displaces a kept entry.
    """
    n, s = graph.n, graph.s
    adj_u, adj_w = _right_adjacency(graph)
    matching = Matching(n, s)
    match_of_u, match_of_v = matching.match_of_u, matching.match_of_v
    y_u = [0] * n
    y_v = [0] * s
    for v in range(s):
        ws = adj_w[v]
        y_v[v] = low = min(ws)
        for u, w in zip(adj_u[v], ws):
            if w == low and match_of_u[u] is None:
                match_of_u[u] = v
                match_of_v[v] = u
                break

    queue = deque(v for v in range(s) if match_of_v[v] is None)
    budget = ROW_REDUCTION_BIDS * s
    bids = 0
    v = None
    while bids < budget:
        if v is None:
            if not queue:
                break
            v = queue.popleft()
        bids += 1
        first = second = INF
        u1 = u2 = -1
        for u, w in zip(adj_u[v], adj_w[v]):
            a = w - y_u[u]
            if a < second:
                if a < first:
                    second, u2 = first, u1
                    first, u1 = a, u
                else:
                    second, u2 = a, u
        if u2 < 0:
            second = first
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

    dist = [INF] * n
    pred_v = [-1] * n
    pops = 0
    for v0 in list(queue):
        us = adj_u[v0]
        rcs = [w - y_u[u] for u, w in zip(us, adj_w[v0])]
        y_v[v0] = low = min(rcs)
        heap: list[tuple[int, int]] = []
        for u, rc in zip(us, rcs):
            rc -= low
            dist[u] = rc
            pred_v[u] = v0
            heappush(heap, (rc, u))
        touched = list(us)
        settled: list[int] = []
        rows = [v0]
        row_dist = [0]
        u_star = -1
        while heap:
            pops += 1
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            settled.append(u)
            v = match_of_u[u]
            if v is None:
                u_star = u
                break
            rows.append(v)
            row_dist.append(d)
            base = d - y_v[v]
            for u2, w in zip(adj_u[v], adj_w[v]):
                nd = base + w - y_u[u2]
                if nd < dist[u2]:
                    if dist[u2] == INF:
                        touched.append(u2)
                    dist[u2] = nd
                    pred_v[u2] = v
                    heappush(heap, (nd, u2))
        assert u_star >= 0, "the reference runs on feasible inputs only"
        total = dist[u_star]
        for v, d in zip(rows, row_dist):
            y_v[v] += total - d
        for u in settled:
            y_u[u] -= total - dist[u]
        for u in touched:
            dist[u] = INF
        u = u_star
        while True:
            v = pred_v[u]
            prev_u = match_of_v[v]
            match_of_u[u] = v
            match_of_v[v] = u
            if prev_u is None:
                break
            u = prev_u
    return matching, bids, pops


@pytest.fixture
def steps(monkeypatch) -> list[str]:
    """Where-labels of every deadline probe: with a probe at every step,
    one per row-reduction bid and one per search heap pop."""
    calls: list[str] = []
    monkeypatch.setattr(hungarian_module, "DEADLINE_STRIDE", 1)
    monkeypatch.setattr(
        hungarian_module, "check_deadline", lambda _, where: calls.append(where)
    )
    return calls


def assert_same_as_reference(g: WeightedBipartiteGraph, steps: list[str]) -> None:
    steps.clear()
    got = hungarian(g, deadline=0.0, validate_duals=True)
    expected, bids, pops = reference_hungarian(g)
    assert got.pairs() == expected.pairs()
    assert steps.count("row reduction") == bids
    assert steps.count("augmenting search") == pops


def draw_short_columns(rng: random.Random, n: int, s: int) -> WeightedBipartiteGraph:
    """Every right vertex reaches one or two left vertices, weights 1..4;
    the first edges of the columns form a matching, so the draw is
    feasible."""
    first = rng.sample(range(n), s)
    edges = []
    for v, u in enumerate(first):
        edges.append((u, v, rng.randint(1, 4)))
        if n > 1 and rng.random() < 0.6:
            other = rng.randrange(n - 1)
            edges.append((other + (other >= u), v, rng.randint(1, 4)))
    return build_graph(n, s, edges)


Weight = Callable[[random.Random], int]

# (weight, density, n range, s rule)
FAMILIES: dict[str, tuple[Weight, float, tuple[int, int], Callable]] = {
    "all-equal": (lambda rng: 5, 0.6, (2, 30), lambda rng, n: rng.randint(1, n)),
    "two-point": (two_point, 0.6, (2, 40), lambda rng, n: n),
    "negative": (negative, 0.5, (2, 40), lambda rng, n: rng.randint(1, n)),
    "s-below-n": (uniform, 0.5, (4, 40), lambda rng, n: rng.randint(1, n // 2)),
    # many equal weights at different u in every column, so the lowered
    # y_u of stage 2 line up unequal weights into equal costs
    "equal-weights": (lambda rng: rng.randint(1, 3), 0.8, (2, 40), lambda rng, n: n),
    "dense-uniform": (uniform, 0.9, (20, 50), lambda rng, n: n),
}


class TestAgainstTheFullScan:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family(self, family, steps):
        weight, density, (n_lo, n_hi), s_rule = FAMILIES[family]
        rng = random.Random(f"hungarian-ordered-{family}")
        for _ in range(60):
            n = rng.randint(n_lo, n_hi)
            g = draw_feasible(rng, n, s_rule(rng, n), density, weight)
            assert_same_as_reference(g, steps)

    def test_columns_of_one_or_two_edges(self, steps):
        rng = random.Random("hungarian-ordered-short")
        for _ in range(80):
            s = rng.randint(1, 30)
            g = draw_short_columns(rng, rng.randint(s, 2 * s), s)
            assert_same_as_reference(g, steps)

    @pytest.mark.parametrize(
        "n, s, edges",
        [
            # Right vertex 1, displaced, reads (u1, w1) at cost 1 + 1 before
            # (u0, w2) at cost 2: only the first-slot tie rule puts u0
            # first, as the full scan does.
            pytest.param(
                3, 3,
                [(0, 0, 3), (2, 0, 3), (0, 1, 2), (1, 1, 1), (0, 2, 3), (1, 2, 2)],
                id="tie-for-first",
            ),
            # Right vertex 2's last bid finds all three left vertices at
            # cost 3: u2 as 1 + 2, u0 as 2 + 1 and u1 as 3 + 0.  Read in
            # weight order, u1 comes last with a weight equal to the
            # runner-up's cost; the full scan keeps u1 as runner-up ahead
            # of u2, and with u0 matched vertex 2 takes u1.
            pytest.param(
                3, 3,
                [(1, 0, 3), (2, 0, 1), (0, 1, 2), (0, 2, 2), (1, 2, 3), (2, 2, 1)],
                id="tie-for-second-at-the-stop",
            ),
            # The search from right vertex 2 starts with u0, u1 and the free
            # u3 all at distance 0, so ub = 0.  Fanning out from vertex 1,
            # the free u2 sits exactly at the bound (weight 4 = ub - base);
            # being lower than u3, it ends the full scan's search.
            pytest.param(
                4, 3,
                [(0, 0, 1), (3, 0, 4), (0, 1, 4), (1, 1, 3), (2, 1, 4),
                 (0, 2, 4), (1, 2, 3), (3, 2, 4)],
                id="free-vertex-at-the-fan-out-bound",
            ),
        ],
    )
    def test_ties_at_the_stops(self, steps, n, s, edges):
        assert_same_as_reference(build_graph(n, s, edges), steps)


class CountingColumn(list):
    """A column that counts its scans and the entries they take."""

    scans = 0
    taken = 0

    def __iter__(self):
        self.scans += 1
        for u in list.__iter__(self):
            self.taken += 1
            yield u


def test_row_reduction_reads_a_prefix_of_each_column(monkeypatch):
    order_column = hungarian_module._order_column
    row_reduction = hungarian_module._augmenting_row_reduction
    counts: dict[str, int] = {}

    def counting_order(adj_u, adj_w, ordered, v):
        order_column(adj_u, adj_w, ordered, v)
        adj_u[v] = CountingColumn(adj_u[v])

    def counting_row_reduction(adj_u, *args):
        free = row_reduction(adj_u, *args)
        columns = [c for c in adj_u if isinstance(c, CountingColumn)]
        counts["bids"] = sum(c.scans for c in columns)
        counts["taken"] = sum(c.taken for c in columns)
        counts["bid_columns"] = sum(c.scans * len(c) for c in columns)
        return free

    monkeypatch.setattr(hungarian_module, "_order_column", counting_order)
    monkeypatch.setattr(
        hungarian_module, "_augmenting_row_reduction", counting_row_reduction
    )
    rng = random.Random(23)
    g = draw_feasible(rng, 80, 80, 0.9, uniform)
    assert hungarian(g).pairs() == reference_hungarian(g)[0].pairs()
    assert counts["bids"] > 80
    assert counts["taken"] < counts["bid_columns"] // 2
