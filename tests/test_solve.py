"""Dispatch front end shared by the CLI and the benchmark harness."""

from __future__ import annotations

from fractions import Fraction
from math import inf, nan

import pytest

from bimatch import auction, feasibility, gk
from bimatch.core import Matching, build_graph
from bimatch.errors import InfeasibleInstanceError
from bimatch.solve import ALGORITHMS, TRACED_ALGORITHMS, solve, verify_solution

from conftest import complete_graph, g0, random_feasible_graphs


class TestSolve:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_every_route_reaches_the_same_result(self, algo):
        result = solve(g0(), algo)
        assert result.weight == 2
        assert result.matching.pairs() == [(0, 0), (1, 1)]

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="no solver"):
            solve(g0(), "greedy")

    def test_trace_sink_records_identical_scaling_traces(self):
        for g in random_feasible_graphs(1102, 10, max_n=6):
            traces = {}
            for algo in ("auction", "gk"):
                traces[algo] = []
                solve(g, algo, trace_sink=traces[algo])
            assert traces["auction"] and traces["auction"] == traces["gk"]

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("n, s", [(1, 2), (2, 3), (3, 6)])
    def test_more_right_than_left_vertices_is_infeasible_without_precheck(
        self, algo, n, s
    ):
        with pytest.raises(InfeasibleInstanceError):
            solve(complete_graph(n, s), algo, precheck=False)

    def test_tracing_hungarian_is_an_error(self):
        with pytest.raises(ValueError, match="tracing applies"):
            solve(g0(), "hungarian", trace_sink=[])


    @pytest.mark.parametrize("algo", TRACED_ALGORITHMS)
    def test_a_float_alpha_solves_as_its_fraction(self, algo):
        g = next(random_feasible_graphs(1104, 1, max_n=8))
        runs = []
        for alpha in (2.5, Fraction(5, 2)):
            events: list = []
            result = solve(g, algo, alpha=alpha, trace_sink=events)
            runs.append((result.weight, result.matching.pairs(), events))
        assert runs[0] == runs[1]
        assert runs[0][2]

    @pytest.mark.parametrize(
        "algo, module", [("auction", auction), ("gk", gk)], ids=["auction", "gk"]
    )
    def test_an_alpha_of_one_fails_before_any_work(self, monkeypatch, algo, module):
        work = []
        monkeypatch.setattr(
            module, "build_reduction", lambda *args, **kw: work.append("reduction")
        )
        monkeypatch.setattr(
            feasibility, "maximum_matching_size", lambda g: work.append("pass")
        )
        for sink in (None, []):
            with pytest.raises(ValueError, match="alpha must exceed 1"):
                solve(g0(), algo, alpha=Fraction(1), trace_sink=sink)
        assert work == []

    @pytest.mark.parametrize("alpha", [inf, -inf, nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "algo, module", [("auction", auction), ("gk", gk)], ids=["auction", "gk"]
    )
    def test_a_non_finite_alpha_fails_before_any_work(
        self, monkeypatch, algo, module, alpha
    ):
        work = []
        monkeypatch.setattr(
            module, "build_reduction", lambda *args, **kw: work.append("reduction")
        )
        monkeypatch.setattr(
            feasibility, "maximum_matching_size", lambda g: work.append("pass")
        )
        message = f"^alpha must be finite, got {alpha}$"
        for sink in (None, []):
            with pytest.raises(ValueError, match=message):
                solve(g0(), algo, alpha=alpha, trace_sink=sink)
        assert work == []


class TestVerifySolution:
    def test_accepts_a_full_cover(self):
        result = solve(g0())
        assert verify_solution(g0(), result.matching) is None

    def test_flags_a_partial_cover(self):
        m = Matching(2, 2)
        m.assign(0, 0)
        problem = verify_solution(g0(), m)
        assert problem is not None and "uncovered" in problem

    def test_flags_a_non_edge(self):
        g = build_graph(2, 2, [(0, 0, 1), (0, 1, 3), (1, 1, 1)])
        m = Matching(2, 2)
        m.assign(1, 0)
        m.assign(0, 1)
        problem = verify_solution(g, m)
        assert problem is not None and "not an edge" in problem
