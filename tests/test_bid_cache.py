"""The candidate cache in both bid loops gives the plain scan's trace.

``reference_two_smallest`` is the plain two-smallest scan both loops ran
before they cached candidates; ``reference_solve`` drives it through the
same reduction, scaling and eps schedule as the solvers.  The auction and
gk traces must equal the reference event for event, through full solves
and through direct phase calls with arbitrary prices.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Optional

import pytest

from bimatch import solve
from bimatch.auction import auction_phase
from bimatch.core import Matching, WeightedBipartiteGraph, build_graph
from bimatch.feasibility import feasibility_precheck, is_feasible
from bimatch.gk import flow_to_matching, refine, to_flow_instance
from bimatch.reduction import build_reduction
from bimatch.scaling import (
    DEFAULT_ALPHA,
    eps_schedule,
    initial_eps,
    scale_graph,
    second_cost_sentinel_gap,
)
from bimatch.tracing import TraceEvent


def reference_two_smallest(
    graph: WeightedBipartiteGraph, prices: list[int], u: int
) -> tuple[int, int, Optional[int]]:
    """``(best position, best reduced cost, runner-up or None)`` for ``u``;
    the lowest position wins a tie."""
    off, adj_v, adj_w = graph.adj_off, graph.adj_v, graph.adj_w
    best_rc: Optional[int] = None
    second_rc: Optional[int] = None
    best_i = -1
    for i in range(off[u], off[u + 1]):
        rc = adj_w[i] - prices[adj_v[i]]
        if best_rc is None or rc < best_rc:
            second_rc = best_rc
            best_rc = rc
            best_i = i
        elif second_rc is None or rc < second_rc:
            second_rc = rc
    assert best_rc is not None
    return best_i, best_rc, second_rc


def reference_phase(
    graph: WeightedBipartiteGraph,
    eps: int,
    prices: list[int],
    events: list[TraceEvent],
    phase_index: int = 0,
) -> None:
    """One bidding phase on the plain scan; mutates ``prices``."""
    sentinel_gap = second_cost_sentinel_gap(graph.max_abs_weight)
    matching = Matching(graph.n, graph.s)
    queue = deque(range(graph.n))
    step = 0
    while queue:
        u = queue.popleft()
        best_i, best_rc, second_rc = reference_two_smallest(graph, prices, u)
        if second_rc is None:
            second_rc = best_rc + sentinel_gap
        gamma = second_rc - best_rc
        v = graph.adj_v[best_i]
        displaced = matching.match_of_v[v]
        if displaced is not None:
            matching.unassign(displaced, v)
            queue.append(displaced)
        matching.assign(u, v)
        prices[v] -= gamma + eps
        events.append(
            TraceEvent(
                phase_index=phase_index,
                step_index=step,
                selected_u=u,
                best_v=v,
                best_reduced_cost=best_rc,
                second_reduced_cost=second_rc,
                gamma=gamma,
                new_price_v=prices[v],
                displaced_u=displaced,
            )
        )
        step += 1


def reference_solve(graph: WeightedBipartiteGraph) -> list[TraceEvent]:
    """The trace of a default-alpha solve on the plain scan."""
    feasibility_precheck(graph)
    scaled = scale_graph(build_reduction(graph).graph)
    prices = [0] * scaled.s
    events: list[TraceEvent] = []
    for phase_index, eps in enumerate(
        eps_schedule(initial_eps(scaled), DEFAULT_ALPHA)
    ):
        reference_phase(scaled, eps, prices, events, phase_index)
    return events


def traces(graph: WeightedBipartiteGraph) -> dict[str, list[TraceEvent]]:
    out = {}
    for algo in ("auction", "gk"):
        events: list[TraceEvent] = []
        solve(graph, algo, trace_sink=events)
        out[algo] = events
    return out


def draw(rng: random.Random, n: int, s: int, degree, weight) -> WeightedBipartiteGraph:
    """A feasible graph whose person ``u`` has ``degree()`` random objects."""
    while True:
        edges = []
        for u in range(n):
            for v in sorted(rng.sample(range(s), min(s, degree()))):
                edges.append((u, v, weight()))
        g = build_graph(n, s, edges)
        if is_feasible(g):
            return g


def instances(seed: int, count: int):
    """Square and unbalanced graphs; uniform, negative and two-point
    weights; rows of degree 1, 2, a few, or dense."""
    rng = random.Random(seed)
    weights = {
        "uniform": lambda: rng.randint(1, 1000),
        "negative": lambda: rng.randint(-60, 40),
        "two-point": lambda: rng.choice((1, 100)),
    }
    degrees = {
        "short": lambda: rng.choice((1, 2, 2, 3)),
        "mixed": lambda: rng.choice((1, 2, 4, 9)),
        "dense": lambda: rng.randint(5, 25),
    }
    for i in range(count):
        shape = ("square", "shrinking", "wide")[i % 3]
        wname = ("uniform", "negative", "two-point")[(i // 3) % 3]
        dname = ("short", "mixed", "dense")[(i // 9) % 3]
        if shape == "square":
            n = s = rng.randint(2, 24)
        elif shape == "shrinking":
            # few right vertices: the column kernel drops most persons
            s = rng.randint(1, 6)
            n = rng.randint(4 * s, 40)
        else:
            s = rng.randint(2, 20)
            n = rng.randint(s, s + 4)
        label = f"{shape}-{wname}-{dname}-{i}"
        yield label, draw(rng, n, s, degrees[dname], weights[wname])


@pytest.mark.parametrize("seed", range(4))
def test_solver_traces_equal_the_plain_scan(seed):
    for label, g in instances(seed, 27):
        expected = reference_solve(g)
        got = traces(g)
        assert got["auction"] == expected, label
        assert got["gk"] == expected, label


def test_single_edge_and_degree_two_rows():
    # persons 0-2 have one edge, the rest two: every cache entry holds the
    # whole row and its third is unbounded
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(4, 16)
        edges = [(u, u, rng.randint(1, 9)) for u in range(3)]
        for u in range(3, n):
            for v in sorted(rng.sample(range(n), 2)):
                edges.append((u, v, rng.randint(1, 9)))
        g = build_graph(n, n, edges)
        if not is_feasible(g):
            continue
        expected = reference_solve(g)
        got = traces(g)
        assert got["auction"] == expected
        assert got["gk"] == expected


def test_repeated_solves_do_not_share_a_cache():
    # the second solve starts from zero prices again, above where the
    # first left them: a cache kept from the first would be stale
    rng = random.Random(3)
    g = draw(rng, 20, 20, lambda: rng.randint(3, 12), lambda: rng.randint(1, 500))
    h = draw(rng, 20, 20, lambda: rng.randint(3, 12), lambda: rng.randint(1, 500))
    for graph in (g, h, g, g):
        expected = reference_solve(graph)
        got = traces(graph)
        assert got["auction"] == expected
        assert got["gk"] == expected


def phase_events(graph, eps, prices):
    """Events of one direct auction phase and one direct refine, both
    from ``prices``, next to the plain scan's.  Also asserts that the
    refine's flow carries the phase's matching."""
    n = graph.n
    auction: list[TraceEvent] = []
    matching, _ = auction_phase(graph, eps, list(prices), trace_sink=auction)
    gk: list[TraceEvent] = []
    fi = to_flow_instance(graph)
    flow, _ = refine(fi, eps, [0] * n + list(prices), trace_sink=gk)
    assert flow_to_matching(fi, flow) == matching
    expected: list[TraceEvent] = []
    reference_phase(graph, eps, list(prices), expected)
    return auction, gk, expected


def test_direct_calls_with_arbitrary_prices():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(3, 18)
        g = draw(
            rng, n, n, lambda: rng.randint(1, n), lambda: rng.choice((1, 5, 50))
        )
        prices = [rng.randint(-100, 100) for _ in range(n)]
        for _ in range(4):
            eps = rng.choice((1, 2, 7))
            auction, gk, expected = phase_events(g, eps, prices)
            assert auction == expected
            assert gk == expected
            # raise some prices, lower others: a cache that outlived the
            # previous call would now be stale
            prices = [p + rng.randint(-20, 60) for p in prices]


def test_direct_calls_after_a_solve_like_sequence_with_rising_prices():
    # run phases where prices fall, as in a solve, then restart from the
    # original prices: each direct call must see only its own prices
    rng = random.Random(5)
    g = draw(rng, 15, 15, lambda: rng.randint(2, 10), lambda: rng.randint(1, 300))
    start = [0] * g.s
    prices = list(start)
    for eps in (64, 8, 1):
        auction, gk, expected = phase_events(g, eps, prices)
        assert auction == expected and gk == expected
        reference_phase(g, eps, prices, [])
    auction, gk, expected = phase_events(g, 1, start)
    assert auction == expected and gk == expected


# Person 0 scans {v0: 10, v1: 5, v2: 7} and caches (v1, v2) with third 10.
# Persons 1 and 2 then lower v2's and v1's prices until both read 10 for
# person 0, which person 2 displaces.  Its rebid ties all three objects at
# the stored third: the cache must miss, and v0, the lowest position, wins.
THREE_WAY_AT_THIRD = [
    (0, 0, 10), (0, 1, 5), (0, 2, 7),
    (1, 0, 2), (1, 2, 0),
    (2, 0, 4), (2, 1, 0),
]

# Person 0 scans {v0: 20, v1: 6, v2: 5}: best v2, runner-up v1, third 20.
# Person 1 displaces it from v2, person 2 takes v1, and both then read 9
# for person 0.  Its rebid hits the cache with a tie, and v1, the lower
# position, must win although v2 was best at the scan.
TIE_ON_A_HIT = [
    (0, 0, 20), (0, 1, 6), (0, 2, 5),
    (1, 0, 3), (1, 2, 0),
    (2, 0, 2), (2, 1, 0),
]


@pytest.mark.parametrize(
    "edges, rebid_v",
    [(THREE_WAY_AT_THIRD, 0), (TIE_ON_A_HIT, 1)],
    ids=["three-way-at-third", "tie-on-a-hit"],
)
def test_hand_built_ties_go_to_the_lower_position(edges, rebid_v):
    g = build_graph(3, 3, edges)
    auction, gk, expected = phase_events(g, 1, [0, 0, 0])
    rebid = expected[3]
    assert (rebid.selected_u, rebid.best_v) == (0, rebid_v)
    assert rebid.best_reduced_cost == rebid.second_reduced_cost
    assert auction == expected
    assert gk == expected
    assert traces(g) == {"auction": reference_solve(g), "gk": reference_solve(g)}
