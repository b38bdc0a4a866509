"""Balancing constructions and projection back."""

from __future__ import annotations

import pytest

from bimatch.core import Matching, build_graph, matching_weight, validate_matching
from bimatch.oracle import brute_force_optimum
from bimatch.reduction import (
    BalancedReduction,
    build_reduction,
    double_balanced,
    project_matching,
)

from conftest import g0, random_feasible_graphs


def worked_example():
    # two left vertices, one right vertex, weights 3 and 7
    return build_graph(2, 1, [(0, 0, 3), (1, 0, 7)])


class TestDoubleBalanced:
    def test_balanced_input_passes_through(self):
        g = g0()
        red = double_balanced(g)
        assert red.kind == "identity"
        assert red.graph is g

    def test_kind_follows_the_shape(self):
        big = double_balanced(worked_example()).graph
        assert BalancedReduction(g0(), 2, 2).kind == "identity"
        assert BalancedReduction(big, 2, 1).kind == "double"
        assert BalancedReduction(big, 2, 1, (0, 1)).kind == "double"

    def test_shape_and_bridges(self):
        g = worked_example()
        red = double_balanced(g)
        big = red.graph
        assert (big.n, big.s) == (3, 3)
        # originals, mirrors, bridges
        assert set(big.iter_edges()) == {
            (0, 0, 3),
            (1, 0, 7),
            (2, 1, 3),
            (2, 2, 7),
            (0, 1, 0),
            (1, 2, 0),
        }

    def test_doubled_optimum_is_twice_covering_optimum(self):
        g = worked_example()
        red = double_balanced(g)
        best = brute_force_optimum(red.graph)
        assert best is not None and best[1] == 6
        projected = project_matching(red, best[0])
        assert validate_matching(g, projected, require_perfect=True) is None
        assert matching_weight(g, projected) == 3
        assert projected.pairs() == [(0, 0)]

    def test_all_degrees_positive_when_v_covered(self):
        for g in random_feasible_graphs(5150, 30, max_n=6):
            big = double_balanced(g).graph
            if big is g:
                continue
            assert all(big.degree(u) >= 1 for u in range(big.n))

    def test_rejects_s_greater_than_n(self):
        with pytest.raises(ValueError, match="covering"):
            double_balanced(build_graph(1, 2, [(0, 0, 1), (0, 1, 1)]))


class TestBuildReduction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown reduction"):
            build_reduction(g0(), "fold")


class TestProjection:
    def test_requires_perfect_input(self):
        red = double_balanced(worked_example())
        with pytest.raises(ValueError, match="perfect"):
            project_matching(red, Matching(red.graph.n, red.graph.s))


class TestReductionAgreesWithOracle:
    def test_random_unbalanced_instances(self):
        # max_n 5 keeps the doubled graph within the brute-force size cap
        checked = 0
        for g in random_feasible_graphs(31337, 60, max_n=5):
            if g.n == g.s:
                continue
            base = brute_force_optimum(g)
            assert base is not None
            red = build_reduction(g)
            best = brute_force_optimum(red.graph)
            assert best is not None and best[1] == 2 * base[1]
            projected = project_matching(red, best[0])
            assert validate_matching(g, projected, require_perfect=True) is None
            assert matching_weight(g, projected) == base[1]
            checked += 1
        assert checked >= 20
