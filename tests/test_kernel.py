"""The column kernel: exactness, shape, when it runs, and trace equality."""

from __future__ import annotations

import random
import time

import pytest

from bimatch.auction import eps_scaling_auction
from bimatch.core import Edge, build_graph, matching_weight, validate_matching
from bimatch.errors import InfeasibleInstanceError, SolveTimeout
from bimatch.gen import GenSpec, generate
from bimatch.gk import goldberg_kennedy
from bimatch.hungarian import hungarian
from bimatch.oracle import brute_force_optimum
from bimatch.reduction import (
    build_reduction,
    column_kernel,
    double_balanced,
    project_matching,
)
from bimatch.solve import solve
from bimatch.tracing import record_trace

from conftest import g0


def two_point_graph(rng: random.Random, n: int, s: int, density: float):
    """Random structure with weights 1 or 100000, so ties are everywhere."""
    edges: list[Edge] = [
        (u, v, rng.choice((1, 100_000)))
        for u in range(n)
        for v in range(s)
        if rng.random() < density
    ]
    return build_graph(n, s, edges)


def ties_unbalanced(n: int, s: int, seed: int):
    """The perfbench ties-unbalanced model at a small shape."""
    return generate(
        GenSpec(
            model="dispersed_degree", n=n, s=s, d=0.5, r_norm=0.5,
            weight_model="low_or_high", p_low=0.5, seed=seed,
        )
    )


def unbalanced_cases():
    """Feasible s < n instances, s <= 9, uniform and two-point weights."""
    rng = random.Random(20261018)
    cases = []
    while len(cases) < 80:
        s = rng.randint(1, 6 if len(cases) % 4 else 9)
        n = rng.randint(s + 1, s + 10)
        density = rng.choice((0.4, 0.7, 1.0))
        if len(cases) % 2:
            g = two_point_graph(rng, n, s, density)
        else:
            g = build_graph(
                n, s,
                [
                    (u, v, rng.randint(-20, 50))
                    for u in range(n)
                    for v in range(s)
                    if rng.random() < density
                ],
            )
        if brute_force_optimum(g) is not None:
            cases.append(g)
    return cases


def assert_optimal_cover(g, matching, weight):
    assert validate_matching(g, matching, require_perfect=True) is None
    assert matching_weight(g, matching) == weight


class TestKernelShape:
    def test_keeps_the_s_cheapest_edges_of_each_column(self):
        shrunk = 0
        for g in unbalanced_cases():
            kernel = column_kernel(g)
            if kernel is None:
                assert all(
                    sum(1 for _, v, _ in g.iter_edges() if v == col) <= g.s
                    for col in range(g.s)
                )
                continue
            shrunk += 1
            small, persons = kernel
            n, s = g.n, g.s
            assert list(persons) == sorted(set(persons))
            assert small.s == s and small.n == len(persons)
            assert s <= small.n <= min(n, s * s) and small.m <= s * s
            assert all(small.degree(u) > 0 for u in range(small.n))
            for u in range(small.n):
                row = [v for v, _ in small.neighbors(u)]
                assert row == sorted(row)
            kept = {(persons[u], v, w) for u, v, w in small.iter_edges()}
            expected = set()
            for col in range(s):
                by_cost = sorted((w, u) for u, v, w in g.iter_edges() if v == col)
                expected.update((u, col, w) for w, u in by_cost[:s])
            assert kept == expected
        assert shrunk >= 40

    def test_balanced_input_passes_through(self):
        g = g0()
        red = build_reduction(g)
        assert red.kind == "identity"
        assert red.graph is g
        assert red.persons is None

    def test_unshrinkable_input_gets_the_plain_construction(self):
        # 7 x 3, every column of degree 3 or less
        g = build_graph(
            7, 3,
            [(0, 0, 4), (1, 0, 2), (2, 1, 9), (3, 1, 9), (4, 1, 1),
             (5, 2, 3), (6, 2, 3), (6, 0, 8)],
        )
        assert column_kernel(g) is None
        red = build_reduction(g)
        ref = double_balanced(g)
        assert red.persons is None and red.kind == ref.kind == "double"
        assert list(red.graph.iter_edges()) == list(ref.graph.iter_edges())
        assert (red.graph.n, red.graph.s) == (ref.graph.n, ref.graph.s)

    def test_reduction_is_built_on_the_kernel(self):
        g = ties_unbalanced(60, 8, 5)
        small, persons = column_kernel(g)
        red = build_reduction(g)
        assert red.persons == persons
        assert (red.orig_n, red.orig_s) == (g.n, g.s)
        assert red.graph.n == small.n + g.s < g.n
        assert red.graph.m == 2 * small.m + small.n

    def test_square_kernel_still_gets_the_named_construction(self):
        # both columns keep persons 1 and 3, their two cheapest
        g = build_graph(
            4, 2,
            [(0, 0, 5), (1, 0, 1), (3, 0, 2), (2, 1, 7), (3, 1, 2), (1, 1, 3)],
        )
        small, persons = column_kernel(g)
        assert persons == (1, 3) and small.n == small.s == 2
        double = build_reduction(g)
        assert double.kind == "double" and double.graph.n == 4
        best = brute_force_optimum(double.graph)
        assert best is not None and best[1] == 2 * 3
        assert project_matching(double, best[0]).pairs() == [(1, 0), (3, 1)]


class TestExactness:
    def test_weight_equals_brute_force(self):
        for g in unbalanced_cases():
            best = brute_force_optimum(g)
            assert best is not None
            for algo in ("auction", "gk"):
                result = solve(g, algo)
                assert_optimal_cover(g, result.matching, best[1])

    def test_projection_of_the_balanced_optimum(self):
        checked = 0
        for g in unbalanced_cases():
            red = build_reduction(g)
            if red.persons is None or red.graph.s > 9:
                continue  # beyond brute force
            base = brute_force_optimum(g)
            best = brute_force_optimum(red.graph)
            assert best is not None and best[1] == 2 * base[1]
            assert_optimal_cover(g, project_matching(red, best[0]), base[1])
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize(
        "spec",
        [
            dict(model="erdos_renyi", n=2000, s=45, d=0.1, weight_model="uniform"),
            dict(
                model="dispersed_degree", n=8000, s=13, d=0.5, r_norm=0.5,
                weight_model="uniform",
            ),
        ],
        ids=["erdos_renyi-2000x45", "dispersed_degree-8000x13"],
    )
    def test_weight_equals_hungarian_at_full_size(self, spec):
        g = generate(GenSpec(seed=611, **spec))
        red = build_reduction(g)
        assert red.persons is not None and red.graph.m < g.m
        referee = hungarian(g)
        weight = matching_weight(g, referee)
        assert validate_matching(g, referee, require_perfect=True) is None
        for algo in ("auction", "gk"):
            assert_optimal_cover(g, solve(g, algo).matching, weight)


class TestInfeasibleWithoutPrecheck:
    # every column reaches persons 0 and 1 only, so 3 columns cannot be covered
    def uncoverable(self):
        return build_graph(
            5, 3, [(u, v, 1 + u + v) for u in (0, 1) for v in range(3)]
        )

    def test_kernel_stage_raises_the_typed_error(self):
        g = self.uncoverable()
        with pytest.raises(InfeasibleInstanceError, match="fewer than the 3"):
            build_reduction(g)
        with pytest.raises(InfeasibleInstanceError):
            eps_scaling_auction(g, precheck=False)
        with pytest.raises(InfeasibleInstanceError):
            goldberg_kennedy(g, precheck=False)
        for algo in ("auction", "gk", "hungarian"):
            with pytest.raises(InfeasibleInstanceError):
                solve(g, algo, precheck=False)


def test_deadline_is_checked_after_the_reduction():
    g = ties_unbalanced(60, 8, 1)
    for solver in (eps_scaling_auction, goldberg_kennedy):
        with pytest.raises(SolveTimeout, match="balancing reduction"):
            solver(g, precheck=False, deadline=time.monotonic() - 1.0)


class TestTraceEquality:
    def kernel_instances(self):
        out = []
        for seed in range(6):
            g = ties_unbalanced(60, 8, seed)
            assert column_kernel(g) is not None
            out.append(g)
        return out

    def test_record_trace_and_solve(self):
        for g in self.kernel_instances():
            auction, w_auction = record_trace("auction", g)
            gk, w_gk = record_trace("gk", g)
            assert auction and auction == gk
            assert w_auction == w_gk == solve(g, "hungarian").weight
            sink: list = []
            solve(g, "gk", trace_sink=sink)
            assert sink == auction

    def test_direct_solver_calls(self):
        for g in self.kernel_instances():
            left: list = []
            right: list = []
            m_a = eps_scaling_auction(g, trace_sink=left)
            m_g = goldberg_kennedy(g, trace_sink=right, check_identities=True)
            assert left and left == right
            assert m_a == m_g
            assert validate_matching(g, m_a, require_perfect=True) is None
