"""The Jonker–Volgenant start of the Hungarian solver: deadlines, the dual
audit, and optimality on inputs that stress the greedy pass and the
augmenting row reduction."""

from __future__ import annotations

import importlib
import random
import time
from typing import Callable

import pytest

from bimatch.core import (
    Matching,
    WeightedBipartiteGraph,
    build_graph,
    matching_weight,
    validate_matching,
)
from bimatch.errors import InfeasibleInstanceError, SolveTimeout
from bimatch.feasibility import is_feasible
from bimatch.hungarian import ROW_REDUCTION_BIDS, _audit_duals, hungarian
from bimatch.oracle import brute_force_optimum

from conftest import complete_graph, g0

# the package re-exports the function under the module's name
hungarian_module = importlib.import_module("bimatch.hungarian")

Weight = Callable[[random.Random], int]


def draw_feasible(
    rng: random.Random,
    n: int,
    s: int,
    density: float,
    weight: Weight,
    degree_one: float = 0.0,
) -> WeightedBipartiteGraph:
    """A feasible draw where each right vertex has, with probability
    ``degree_one``, a single edge, and otherwise each edge with probability
    ``density``."""
    while True:
        edges = []
        for v in range(s):
            if rng.random() < degree_one:
                edges.append((rng.randrange(n), v, weight(rng)))
            else:
                edges.extend(
                    (u, v, weight(rng)) for u in range(n) if rng.random() < density
                )
        g = build_graph(n, s, edges)
        if is_feasible(g):
            return g


def two_point(rng: random.Random) -> int:
    return rng.choice((3, 7))


def negative(rng: random.Random) -> int:
    return rng.randint(-50, 20)


def uniform(rng: random.Random) -> int:
    return rng.randint(1, 100)


# (weight, density, degree_one, n range, s rule)
FAMILIES = {
    "two-point-ties": (two_point, 0.6, 0.0, (1, 9), lambda rng, n: rng.randint(1, n)),
    "negative": (negative, 0.5, 0.0, (1, 9), lambda rng, n: rng.randint(1, n)),
    "degree-one": (uniform, 0.6, 0.4, (2, 9), lambda rng, n: rng.randint(1, n)),
    "ties-degree-one": (two_point, 0.7, 0.3, (2, 9), lambda rng, n: rng.randint(1, n)),
    "wide": (uniform, 0.4, 0.1, (20, 60), lambda rng, n: rng.randint(1, 4)),
    "wide-ties": (two_point, 0.4, 0.0, (20, 60), lambda rng, n: rng.randint(1, 6)),
}


def assert_optimal_cover(g: WeightedBipartiteGraph, matching: Matching, weight: int):
    assert validate_matching(g, matching, require_perfect=True) is None
    assert matching_weight(g, matching) == weight


@pytest.fixture
def probes(monkeypatch) -> list[str]:
    """Where-labels of every deadline probe, with a probe at every step
    (so a row-reduction probe counts one bid) and none ever raising."""
    calls: list[str] = []
    monkeypatch.setattr(hungarian_module, "DEADLINE_STRIDE", 1)
    monkeypatch.setattr(
        hungarian_module, "check_deadline", lambda _, where: calls.append(where)
    )
    return calls


class TestDeadline:
    def test_expired_deadline_when_the_start_leaves_no_search(self):
        # each right vertex has one cheapest left vertex, and these form a
        # permutation, so the greedy pass covers every vertex
        n = 60
        g = complete_graph(n, n, lambda u, v: 0 if u == (7 * v) % n else 1 + u + v)
        assert matching_weight(g, hungarian(g)) == 0
        with pytest.raises(SolveTimeout, match="greedy start"):
            hungarian(g, deadline=time.monotonic() - 1.0)

    def test_row_reduction_probes_the_deadline(self, probes):
        # every right vertex prefers left vertex 0, so the greedy pass leaves
        # all but one free and the row reduction runs
        g = complete_graph(30, 30, lambda u, v: u)
        hungarian(g, deadline=0.0)
        assert probes[0] == "greedy start"
        assert "row reduction" in probes


class TestAuditDuals:
    """``_audit_duals`` on hand-made duals for g0 (diagonal matching) and a
    3x1 instance with left vertex 1 matched."""

    def diagonal(self) -> Matching:
        m = Matching(2, 2)
        m.assign(0, 0)
        m.assign(1, 1)
        return m

    def test_accepts_feasible_duals(self):
        _audit_duals(g0(), [0, 0], [1, 1], self.diagonal())
        _audit_duals(g0(), [0, -1], [1, 2], self.diagonal())

    def test_rejects_a_negative_reduced_cost(self):
        with pytest.raises(AssertionError, match="negative reduced cost"):
            _audit_duals(g0(), [0, 0], [2, 1], self.diagonal())

    def test_rejects_a_slack_matched_edge(self):
        with pytest.raises(AssertionError, match="not tight"):
            _audit_duals(g0(), [0, 0], [0, 1], self.diagonal())

    def test_rejects_a_positive_left_dual(self):
        # every reduced cost is nonnegative and both matched edges are tight
        with pytest.raises(AssertionError, match="positive dual"):
            _audit_duals(g0(), [1, 0], [0, 1], self.diagonal())

    def test_rejects_a_dual_on_an_unmatched_left_vertex(self):
        g = build_graph(3, 1, [(0, 0, 9), (1, 0, 4), (2, 0, 7)])
        m = Matching(3, 1)
        m.assign(1, 0)
        _audit_duals(g, [0, 0, 0], [4], m)
        with pytest.raises(AssertionError, match="unmatched left vertex 2"):
            _audit_duals(g, [0, 0, -1], [4], m)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family(self, family):
        weight, density, degree_one, (n_lo, n_hi), s_rule = FAMILIES[family]
        rng = random.Random(f"hungarian-start-{family}")
        for _ in range(40):
            n = rng.randint(n_lo, n_hi)
            g = draw_feasible(rng, n, s_rule(rng, n), density, weight, degree_one)
            best = brute_force_optimum(g)
            assert best is not None
            assert_optimal_cover(g, hungarian(g, validate_duals=True), best[1])


class TestAgainstLapjvsp:
    @pytest.mark.parametrize(
        "n, s, density, weight, degree_one",
        [
            pytest.param(200, 200, 0.3, two_point, 0.0, id="square-ties"),
            pytest.param(150, 150, 0.5, negative, 0.0, id="square-negative"),
            pytest.param(300, 300, 0.05, uniform, 0.2, id="sparse-degree-one"),
            pytest.param(400, 20, 0.5, two_point, 0.3, id="wide-ties-degree-one"),
            pytest.param(500, 40, 0.1, negative, 0.0, id="wide-negative"),
        ],
    )
    def test_shape(self, n, s, density, weight, degree_one):
        pytest.importorskip("scipy.sparse.csgraph")
        from test_scipy_referee import scipy_weight

        rng = random.Random(n * 1000 + s)
        for _ in range(2):
            g = draw_feasible(rng, n, s, density, weight, degree_one)
            assert_optimal_cover(g, hungarian(g, validate_duals=True), scipy_weight(g))


class TestInfeasibleWithoutPrecheck:
    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_two_degree_one_vertices_sharing_a_left_vertex(self, probes, n):
        # right vertices 0 and 1 reach only left vertex n // 2; the rest is
        # complete, so only a matching argument shows the instance infeasible
        shared = n // 2
        g = build_graph(
            n, n,
            [(shared, 0, 5), (shared, 1, 5)]
            + [(u, v, 1 + (u * 7 + v * 3) % 11) for u in range(n) for v in range(2, n)],
        )
        with pytest.raises(InfeasibleInstanceError, match="cannot be covered"):
            hungarian(g, precheck=False, deadline=0.0)
        assert 0 < probes.count("row reduction") <= ROW_REDUCTION_BIDS * g.s


def test_fixed_graph_gives_the_same_pairs_twice():
    rng = random.Random(17)
    g = draw_feasible(rng, 120, 100, 0.3, two_point, 0.1)
    assert hungarian(g).pairs() == hungarian(g).pairs()
