"""Scaled weights, the eps schedule, and the alpha parser."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimatch.scaling import (
    eps_schedule,
    initial_eps,
    parse_alpha,
    scale_factor,
    scale_graph,
    second_cost_sentinel_gap,
)

from bimatch.core import build_graph

from conftest import g0


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
