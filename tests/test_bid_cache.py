"""The candidate cache and the weight-ordered scan in both bid loops give
the plain scan's trace.

``reference_two_smallest`` is the plain two-smallest scan both loops ran
before they cached candidates or read rows in weight order;
``reference_solve`` drives it through the same reduction, scaling and eps
schedule as the solvers.  The auction and gk traces must equal the
reference event for event, through full solves and through direct phase
calls with arbitrary prices, with rows read in position order and in
weight order.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from math import inf
from typing import Iterator, Optional

import pytest

from bimatch import auction as auction_module
from bimatch import gk as gk_module
from bimatch import scaling, solve
from bimatch.auction import auction_phase
from bimatch.core import Matching, WeightedBipartiteGraph, build_graph
from bimatch.feasibility import feasibility_precheck, is_feasible
from bimatch.gk import flow_to_matching, refine, to_flow_instance
from bimatch.reduction import build_reduction
from bimatch.scaling import (
    DEFAULT_ALPHA,
    OrderedView,
    eps_schedule,
    initial_eps,
    scale_graph,
    second_cost_sentinel_gap,
    weight_ordered_rows,
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


def test_a_prefix_that_ends_one_below_the_limit_falls_back():
    # Row 0 is ordered (70 edges, three weights); the cut is its lightest
    # weight 100 plus a quarter of max_abs_weight 400, so its prefix is
    # objects 1-3.  At these prices it reads 201 three times, so best,
    # second and third are 201, and limit = third + top = 201 = cut + 1.
    # Object 0, past the prefix, ties them at 201 with a lower position:
    # only the fallback's plain scan sends the first bid there.  A test of
    # ``cuts[u] < limit - 1`` would keep the prefix and bid for object 1.
    n = 70
    row0 = [(0, 0, 201)] + [(0, v, 100) for v in (1, 2, 3)]
    row0 += [(0, v, 400) for v in range(4, n)]
    rest = [(u, v, 400) for u in range(1, n) for v in range(n)]
    g = build_graph(n, n, row0 + rest)
    rows, cuts = weight_ordered_rows(g)
    assert rows[0] == [1, 2, 3] and cuts[0] == 200
    prices = [0] + [-101] * 3 + [0] * (n - 4)
    auction, gk, expected = phase_events(g, 1, prices)
    assert auction == expected
    assert gk == expected
    first = expected[0]
    assert (first.selected_u, first.best_v) == (0, 0)
    assert first.best_reduced_cost == first.second_reduced_cost == 201


# The weight-ordered scan.  A row with at least ORDERED_ROW_MIN_EDGES edges
# and ORDERED_ROW_MIN_WEIGHTS distinct weights is read in ascending (w, v)
# and cut short by the price ceiling; every trace must still equal the
# plain scan's.


@pytest.fixture
def ordered_rows(monkeypatch) -> list[int]:
    """Counts of ordered rows in every view the two solvers build."""
    counts: list[int] = []

    def counting(graph):
        view = weight_ordered_rows(graph)
        counts.append(sum(row is not None for row in view[0]))
        return view

    monkeypatch.setattr(auction_module, "weight_ordered_rows", counting)
    monkeypatch.setattr(gk_module, "weight_ordered_rows", counting)
    return counts


# Person 0 reads v1, v2 and v3 at weight 5 before v0 at weight 50.  At
# prices [100, 0, 0, 0], v0 is the cheapest at -50; its first bid drops
# v0 to 44, and a bound taken from the prices after that bid would stop
# the scan before v0.  At [45, 0, 0, 0], v0 ties the other three at 5 and
# its weight equals the bound third + pmax exactly: the scan must read it,
# since v0 is the lowest position of the tie.
HEAVY_EDGE_LAST = [
    (0, 0, 50), (0, 1, 5), (0, 2, 5), (0, 3, 5),
    (1, 0, 1), (1, 1, 2),
    (2, 0, 1), (2, 2, 2),
    (3, 0, 1), (3, 3, 2),
]


class TestEveryRowOrdered:
    """The families above again, with both minimums at 2: every row with
    two distinct weights is read in weight order."""

    @pytest.fixture(autouse=True)
    def every_row_ordered(self, monkeypatch, ordered_rows):
        monkeypatch.setattr(scaling, "ORDERED_ROW_MIN_EDGES", 2)
        monkeypatch.setattr(scaling, "ORDERED_ROW_MIN_WEIGHTS", 2)
        yield
        assert any(ordered_rows)

    @pytest.mark.parametrize("seed", range(4))
    def test_solver_traces_equal_the_plain_scan(self, seed):
        test_solver_traces_equal_the_plain_scan(seed)

    def test_single_edge_and_degree_two_rows(self):
        test_single_edge_and_degree_two_rows()

    def test_repeated_solves_do_not_share_a_cache(self):
        test_repeated_solves_do_not_share_a_cache()

    def test_direct_calls_with_arbitrary_prices(self):
        test_direct_calls_with_arbitrary_prices()

    def test_direct_calls_after_a_solve_like_sequence_with_rising_prices(self):
        test_direct_calls_after_a_solve_like_sequence_with_rising_prices()

    @pytest.mark.parametrize(
        "edges, rebid_v",
        [(THREE_WAY_AT_THIRD, 0), (TIE_ON_A_HIT, 1)],
        ids=["three-way-at-third", "tie-on-a-hit"],
    )
    def test_hand_built_ties_go_to_the_lower_position(self, edges, rebid_v):
        test_hand_built_ties_go_to_the_lower_position(edges, rebid_v)

    @pytest.mark.parametrize(
        "prices, best_rc",
        [([100, 0, 0, 0], -50), ([45, 0, 0, 0], 5)],
        ids=["cheapest-at-the-top-price", "tie-at-the-bound"],
    )
    def test_the_price_bound_reaches_the_last_edge(self, prices, best_rc):
        g = build_graph(4, 4, HEAVY_EDGE_LAST)
        auction, gk, expected = phase_events(g, 1, prices)
        first = expected[0]
        assert (first.selected_u, first.best_v, first.best_reduced_cost) == (
            0, 0, best_rc
        )
        assert auction == expected
        assert gk == expected

    def test_direct_calls_with_small_range_weights_and_prices(self):
        # rows of 3 to 12 weights in 1..4 against prices in -3..3: reduced
        # costs tie often, between different weights too, and the object
        # at the highest price is often the cheapest
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(3, 12)
            g = draw(rng, n, n, lambda: rng.randint(3, n), lambda: rng.randint(1, 4))
            prices = [rng.randint(-3, 3) for _ in range(n)]
            for eps in (1, 2):
                auction, gk, expected = phase_events(g, eps, prices)
                assert auction == expected
                assert gk == expected


class CountingRow(list):
    """A view row that counts the entries the scans take from it.

    Each scan also adds to ``exact`` the entries a scan stopped by the exact
    ceiling takes: up to and including the first edge with ``w > third +
    top``, where ``third`` is the third-smallest reduced cost read before
    it and ``top`` the highest object price.  Object ``v``'s price is
    ``prices[first + v]`` of the list the solver mutates, so ``exact``
    holds only for the auction: a refine keeps its object prices in a list
    of its own until it returns.
    """

    def __init__(self, graph, u, prices, first):
        off, adj_v, adj_w = graph.adj_off, graph.adj_v, graph.adj_w
        super().__init__(
            sorted(range(off[u], off[u + 1]), key=lambda i: (adj_w[i], adj_v[i]))
        )
        self.graph, self.prices, self.first = graph, prices, first
        self.taken = self.exact = 0

    def __iter__(self):
        adj_v, adj_w = self.graph.adj_v, self.graph.adj_w
        prices, first = self.prices, self.first
        top = max(prices[first:])
        smallest = [inf] * 3
        self.exact += len(self)
        for k, i in enumerate(list.__iter__(self)):
            if adj_w[i] > smallest[2] + top:
                self.exact -= len(self) - k - 1
                break
            smallest = sorted(smallest + [adj_w[i] - prices[first + adj_v[i]]])[:3]
        for i in list.__iter__(self):
            self.taken += 1
            yield i


def counted_phase_events(graph, eps, prices):
    """Like :func:`phase_events`, with every row read through a
    :class:`CountingRow`; also returns each solver's rows.  Asserts that
    the auction's rows take exactly the entries the exact ceiling allows,
    and gk's rows exactly the entries the auction's rows take."""
    n = graph.n
    auction_prices = list(prices)
    gk_prices = [0] * n + list(prices)
    views = {
        "auction": [CountingRow(graph, u, auction_prices, 0) for u in range(n)],
        "gk": [CountingRow(graph, u, gk_prices, n) for u in range(n)],
    }
    auction: list[TraceEvent] = []
    whole = [inf] * n
    auction_phase(
        graph,
        eps,
        auction_prices,
        trace_sink=auction,
        view=(views["auction"], list(whole)),
    )
    gk: list[TraceEvent] = []
    fi = to_flow_instance(graph)
    refine(fi, eps, gk_prices, trace_sink=gk, view=(views["gk"], list(whole)))
    expected: list[TraceEvent] = []
    reference_phase(graph, eps, list(prices), expected)
    taken = [row.taken for row in views["auction"]]
    assert taken == [row.exact for row in views["auction"]]
    assert taken == [row.taken for row in views["gk"]]
    return auction, gk, expected, views


# The price ceiling.  Person 0 outbids the only object at the top price,
# v0 at 100, down to -1, so the ceiling falls to v1's 50.  Person 1 then
# reads v2, v3, v0 (third 4, limit 54) and v1 at weight 40, its cheapest
# at -10 (third 2, limit 52), and stops at v4's 60: 5 entries of 6.  A
# ceiling set to v0's new price would stop before v1; one left at 100
# would read v5 as well.  Persons 2-5 each take their one object.
TOP_OUTBID = [
    (0, 0, 0), (0, 2, 0),
    (1, 0, 3), (1, 1, 40), (1, 2, 1), (1, 3, 2), (1, 4, 60), (1, 5, 70),
    (2, 2, 5), (3, 3, 5), (4, 4, 5), (5, 5, 5),
]

# The same with v0 and v1 tied at the top price of 100.  Outbidding v0
# leaves v1 there, so the ceiling stays at 100: person 1 reads v1 at
# weight 90 (limit 104) and stops at v4's 150 (limit 102), 5 entries of 6.
TOP_TIED = [
    (0, 0, 0), (0, 2, 0),
    (1, 0, 3), (1, 1, 90), (1, 2, 1), (1, 3, 2), (1, 4, 150), (1, 5, 250),
    (2, 2, 5), (3, 3, 5), (4, 4, 5), (5, 5, 5),
]


@pytest.mark.parametrize(
    "edges, prices",
    [(TOP_OUTBID, [100, 50, 0, 0, 0, 0]), (TOP_TIED, [100, 100, 0, 0, 0, 0])],
    ids=["only-object-at-the-top", "two-objects-at-the-top"],
)
def test_the_ceiling_follows_the_top_price(edges, prices):
    g = build_graph(6, 6, edges)
    auction, gk, expected, views = counted_phase_events(g, 1, prices)
    assert [(e.selected_u, e.best_v) for e in expected[:2]] == [(0, 0), (1, 1)]
    assert expected[1].best_reduced_cost == -10
    assert auction == expected
    assert gk == expected
    assert [row.taken for row in views["auction"]] == [2, 5, 1, 1, 1, 1]


def test_the_ceiling_falls_through_a_price_war():
    # rows of 1..6 against prices spread over 0..90: bids outbid the
    # top-priced objects again and again, and each scan must stop exactly
    # where the current top price lets it
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(4, 14)
        g = draw(rng, n, n, lambda: rng.randint(3, n), lambda: rng.randint(1, 6))
        prices = [rng.choice((0, 30, 60, 90)) for _ in range(n)]
        for eps in (1, 3):
            auction, gk, expected, _ = counted_phase_events(g, eps, prices)
            assert auction == expected
            assert gk == expected


CUTOFF = scaling.ORDERED_ROW_MIN_EDGES
FEW = scaling.ORDERED_ROW_MIN_WEIGHTS


REAL_CUTOFF_ROWS = [
    ("uniform", 1, 10_000, CUTOFF + 20),
    ("negative", -400, 300, CUTOFF + 20),
    # few more weights than the row length minimum, on rows twice as
    # long: reduced costs tie often, between different weights too
    ("small-range", 1, CUTOFF + 15, 2 * CUTOFF + 20),
    # just the distinct minimum: long runs of equal weights
    ("few-weights", 1, FEW, CUTOFF + 10),
    # rows long enough to be sorted only up to their cut
    ("prefix", 1, 10_000, max(CUTOFF, scaling.ORDERED_PREFIX_MIN_EDGES) + 10),
]


@pytest.mark.parametrize("label, low, high, n", REAL_CUTOFF_ROWS)
def test_rows_above_the_real_cutoff(label, low, high, n, ordered_rows):
    rng = random.Random(n + low)
    for _ in range(2):
        g = draw(rng, n, n, lambda: n, lambda: rng.randint(low, high))
        expected = reference_solve(g)
        got = traces(g)
        assert got["auction"] == expected, label
        assert got["gk"] == expected, label
    assert all(ordered_rows), label


def test_two_point_rows_above_the_cutoff_length_stay_plain(ordered_rows):
    rng = random.Random(2)
    n = CUTOFF + 10
    g = draw(rng, n, n, lambda: n, lambda: rng.choice((1, 100)))
    assert traces(g) == {"auction": reference_solve(g), "gk": reference_solve(g)}
    assert ordered_rows == [0, 0]


def test_rows_above_and_below_the_cutoff_in_one_graph(ordered_rows):
    # rows of n - 5 and n edges, ordered, next to rows of 3, plain
    rng = random.Random(9)
    n = CUTOFF + 20
    g = draw(
        rng, n, n, lambda: rng.choice((3, n - 5, n)), lambda: rng.randint(1, 50_000)
    )
    assert traces(g) == {"auction": reference_solve(g), "gk": reference_solve(g)}
    assert ordered_rows and 0 < ordered_rows[0] < n


def test_unbalanced_graph_whose_mirror_has_both_kinds_of_rows(ordered_rows):
    # half the persons reach almost every object and half reach three, so
    # the mirror's original rows come long (ordered) and short (plain); its
    # mirrored rows, one column each, hold about 30 edges (plain)
    rng = random.Random(4)
    s = CUTOFF + 10
    n = s + 6
    g = draw(
        rng,
        n,
        s,
        lambda: rng.choice((3, s - 2)),
        lambda: rng.randint(-5_000, 5_000),
    )
    balanced = scale_graph(build_reduction(g).graph)
    assert balanced.n == n + s
    rows, _ = weight_ordered_rows(balanced)
    assert any(r is None for r in rows) and any(r is not None for r in rows)
    assert traces(g) == {"auction": reference_solve(g), "gk": reference_solve(g)}
    assert ordered_rows == [sum(r is not None for r in rows)] * 2


# The sorted prefix.  A row of at least ORDERED_PREFIX_MIN_EDGES edges is
# sorted only up to its cut; a scan that reads the whole prefix below its
# limit takes the plain scan of the whole row.  With the cut at each row's
# lightest weight every full scan past such a row's prefix falls back, and
# every trace must still equal the plain scan's.


@pytest.fixture
def views(monkeypatch, ordered_rows) -> Iterator[list[OrderedView]]:
    """Every view the two solvers build, in order, still counted by
    ``ordered_rows``.  Some row of some view must have a finite cut."""
    built: list[OrderedView] = []
    counting = auction_module.weight_ordered_rows

    def recording(graph):
        built.append(counting(graph))
        return built[-1]

    monkeypatch.setattr(auction_module, "weight_ordered_rows", recording)
    monkeypatch.setattr(gk_module, "weight_ordered_rows", recording)
    yield built
    assert any(cut != inf for _, cuts in built for cut in cuts)


class TestEveryRowCompletes(TestEveryRowOrdered):
    """The families above again, every ordered row cut at its lightest
    weight, so that a full scan past its prefix falls back."""

    @pytest.fixture(autouse=True)
    def cut_at_the_lightest_weight(self, monkeypatch, views):
        monkeypatch.setattr(scaling, "ORDERED_PREFIX_MIN_EDGES", 2)
        monkeypatch.setattr(scaling, "ORDERED_PREFIX_DEPTH", Fraction(0))

    @pytest.mark.parametrize("label, low, high, n", REAL_CUTOFF_ROWS)
    def test_rows_above_the_real_cutoff(self, label, low, high, n, ordered_rows):
        test_rows_above_the_real_cutoff(label, low, high, n, ordered_rows)


def test_no_scan_changes_the_view(views, monkeypatch):
    # solves and direct calls that share one view leave it as built
    monkeypatch.setattr(scaling, "ORDERED_ROW_MIN_EDGES", 2)
    monkeypatch.setattr(scaling, "ORDERED_ROW_MIN_WEIGHTS", 2)
    monkeypatch.setattr(scaling, "ORDERED_PREFIX_MIN_EDGES", 2)
    monkeypatch.setattr(scaling, "ORDERED_PREFIX_DEPTH", Fraction(0))
    rng = random.Random(31)
    g = draw(rng, 30, 30, lambda: rng.randint(4, 20), lambda: rng.randint(1, 900))
    assert traces(g) == {"auction": reference_solve(g), "gk": reference_solve(g)}
    scaled = scale_graph(g)
    fresh = weight_ordered_rows(scaled)
    assert len(views) == 2 and all(view == fresh for view in views)

    view = weight_ordered_rows(scaled)
    fi = to_flow_instance(scaled)
    prices = [0] * g.s
    for eps in (64, 8, 1):
        events: list[TraceEvent] = []
        auction_phase(scaled, eps, list(prices), trace_sink=events, view=view)
        gk: list[TraceEvent] = []
        refine(fi, eps, [0] * g.n + prices, trace_sink=gk, view=view)
        expected: list[TraceEvent] = []
        reference_phase(scaled, eps, prices, expected)
        assert events == expected and gk == expected
    assert view == fresh
