"""Scaled weights, the eps schedule, and the alpha parser."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimatch import auction, errors, gk, scaling
from bimatch.errors import SolveTimeout
from bimatch.scaling import (
    ORDERED_ROW_MIN_EDGES,
    ORDERED_ROW_MIN_WEIGHTS,
    eps_schedule,
    initial_eps,
    parse_alpha,
    scale_factor,
    scale_graph,
    second_cost_sentinel_gap,
    weight_ordered_rows,
)

from bimatch.core import build_graph

from conftest import g0, random_feasible_graphs


class TestScaleGraph:
    def test_factor_is_n_plus_one(self):
        g = g0()
        assert scale_factor(g) == 3
        scaled = scale_graph(g)
        assert scaled.adj_w == (3, 9, 6, 3)
        assert scaled.max_abs_weight == 9
        assert initial_eps(scaled) == 9

    def test_structure_unchanged(self):
        g = g0()
        scaled = scale_graph(g)
        assert scaled.adj_off == g.adj_off and scaled.adj_v == g.adj_v

    def test_replaced_weights_bring_their_own_maximum(self):
        g = build_graph(1, 2, [(0, 0, -7), (0, 1, 3)])
        assert g.max_abs_weight == 7
        assert replace(g, adj_w=(50, 1)).max_abs_weight == 50
        assert initial_eps(replace(g, adj_w=(2, -60))) == 60


class TestParseAlpha:
    def test_accepts_integers_fractions_decimals(self):
        assert parse_alpha("5") == Fraction(5)
        assert parse_alpha("7/2") == Fraction(7, 2)
        assert parse_alpha("3.5") == Fraction(7, 2)

    @pytest.mark.parametrize("bad", ["1", "0.5", "-2", "0", "zebra", "1/0"])
    def test_rejects_non_scaling_values(self, bad):
        with pytest.raises(ValueError):
            parse_alpha(bad)


class TestEpsSchedule:
    def test_divides_then_clamps_to_one(self):
        assert list(eps_schedule(100, Fraction(5))) == [20, 4, 1]
        assert list(eps_schedule(99, Fraction(5))) == [19, 3, 1]

    def test_zero_start_degenerates_to_single_phase(self):
        assert list(eps_schedule(0)) == [1]

    def test_fractional_alpha(self):
        # floor(40 / (3/2)) = 26, floor(26/1.5) = 17, ...
        assert list(eps_schedule(40, Fraction(3, 2)))[:3] == [26, 17, 11]

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            next(eps_schedule(10, Fraction(1)))

    @given(start=st.integers(0, 10**12), num=st.integers(2, 50), den=st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing_until_final_one(self, start, num, den):
        alpha = Fraction(num, den)
        if alpha <= 1:
            return
        seq = list(eps_schedule(start, alpha))
        assert seq[-1] == 1
        assert all(seq[i] > seq[i + 1] for i in range(len(seq) - 1))
        assert all(e >= 1 for e in seq)
        # each step is the floored division of its predecessor (or clamp)
        prev = max(1, start)
        for e in seq:
            assert e == max(1, prev * alpha.denominator // alpha.numerator)
            prev = e


class TestSentinelGap:
    def test_positive_even_for_zero_weights(self):
        assert second_cost_sentinel_gap(0) == 1
        assert second_cost_sentinel_gap(9) == 19


class TestWeightOrderedRows:
    D = ORDERED_ROW_MIN_EDGES
    K = ORDERED_ROW_MIN_WEIGHTS

    def test_rows_sort_by_weight_then_object(self):
        d = self.D
        # row 0: d distinct weights, falling, with a repeat of each of the
        # two smallest; row 1: one weight short of the distinct minimum;
        # row 2: exactly the distinct minimum, the last weight once; row 3:
        # d distinct weights, one edge short of the length minimum
        n = d + 2
        w0 = [d - v if v < d else v - d + 1 for v in range(n)]
        edges = [(0, v, w) for v, w in enumerate(w0)]
        edges += [(1, v, v % (self.K - 1)) for v in range(n)]
        edges += [(2, v, min(v, self.K - 1) if v < self.K else 0) for v in range(n)]
        edges += [(3, v, v) for v in range(d - 1)]
        edges += [(u, u, 1) for u in range(4, n)]
        g = build_graph(n, n, edges)
        rows = weight_ordered_rows(g)
        assert len(rows) == n
        assert rows[1] is None and rows[3:] == [None] * (n - 3)
        for u in (0, 2):
            order = rows[u]
            assert sorted(order) == list(range(g.adj_off[u], g.adj_off[u + 1]))
            keys = [(g.adj_w[i], g.adj_v[i]) for i in order]
            assert keys == sorted(keys)
        keys = [(g.adj_w[i], g.adj_v[i]) for i in rows[0]]
        assert keys[:4] == [(1, d - 1), (1, d), (2, d - 2), (2, d + 1)]
        assert len({g.adj_w[i] for i in rows[2]}) == self.K

    def test_distinct_weights_after_a_repeated_start_count(self):
        # both rows start with a run of one weight; row 0 then holds the
        # distinct minimum in all, row 1 one weight short of it
        d, k = self.D, self.K
        w0 = [d] * (d - k + 1) + list(range(k - 1))
        w1 = [d] * (d - k + 2) + list(range(k - 2))
        edges = [(0, v, w) for v, w in enumerate(w0)]
        edges += [(1, v, w) for v, w in enumerate(w1)]
        g = build_graph(2, d, edges)
        rows = weight_ordered_rows(g)
        assert rows[1] is None
        assert [g.adj_w[i] for i in rows[0]] == sorted(w0)

    def test_no_ordered_row_gives_an_empty_view(self):
        assert weight_ordered_rows(g0()) == []

    @pytest.mark.parametrize(
        "module, solver",
        [(auction, auction.eps_scaling_auction), (gk, gk.goldberg_kennedy)],
        ids=["auction", "gk"],
    )
    def test_deadline_is_checked_after_the_view(self, monkeypatch, module, solver):
        # the view's build is the stage that uses up the time
        clock = SimpleNamespace(now=0.0)
        fake_time = SimpleNamespace(monotonic=lambda: clock.now)
        monkeypatch.setattr(errors, "time", fake_time)

        def slow_view(graph):
            clock.now = 2.0
            return weight_ordered_rows(graph)

        monkeypatch.setattr(module, "weight_ordered_rows", slow_view)
        with pytest.raises(SolveTimeout, match="weight-ordered rows hit the deadline"):
            solver(g0(), deadline=1.0)


def run_bid_loop(module, graph, **kwargs):
    """One direct phase of ``module``'s bid loop at eps=1 from zero prices."""
    if module is auction:
        auction.auction_phase(graph, 1, [0] * graph.s, **kwargs)
    else:
        gk.refine(gk.to_flow_instance(graph), 1, [0] * (graph.n + graph.s), **kwargs)


class TestStepGuard:
    """Both bid loops probe the deadline at every DEADLINE_STRIDE-th step,
    and only there."""

    GRAPH = scale_graph(
        next(random_feasible_graphs(3, 1, max_n=12, balanced=True, density=0.9))
    )

    @pytest.fixture(params=[auction, gk], ids=["auction", "gk"])
    def module(self, request):
        return request.param

    def test_a_deadline_passed_mid_phase_stops_it_at_the_next_probe(
        self, monkeypatch, module
    ):
        clock = SimpleNamespace(now=0.0)
        fake_time = SimpleNamespace(monotonic=lambda: clock.now)
        monkeypatch.setattr(errors, "time", fake_time)

        class Expiring(list):
            """A trace sink that lets the deadline pass after the first bid."""

            def append(self, event):
                super().append(event)
                clock.now = 2.0

        # the default stride probes only at step 0, before the deadline
        events = Expiring()
        run_bid_loop(module, self.GRAPH, deadline=1.0, trace_sink=events)
        assert len(events) > 1
        clock.now = 0.0
        monkeypatch.setattr(module, "DEADLINE_STRIDE", 1)
        events = Expiring()
        with pytest.raises(SolveTimeout, match="at eps=1 hit the deadline"):
            run_bid_loop(module, self.GRAPH, deadline=1.0, trace_sink=events)
        assert len(events) == 1

    def test_the_guard_runs_at_each_stride_and_nowhere_else(self, monkeypatch, module):
        steps: list[int] = []

        def recording(step, *args):
            steps.append(step)
            scaling.check_step(step, *args)

        monkeypatch.setattr(module, "check_step", recording)
        monkeypatch.setattr(module, "DEADLINE_STRIDE", 2)
        events: list = []
        run_bid_loop(module, self.GRAPH, trace_sink=events)
        assert steps == []
        run_bid_loop(module, self.GRAPH, deadline=float("inf"))
        assert len(events) > 4
        assert steps == list(range(0, len(events), 2))
