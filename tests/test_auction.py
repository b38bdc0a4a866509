"""Bidding phase mechanics and the scaling driver."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from bimatch.auction import PhaseSnapshot, auction_phase, eps_scaling_auction
from bimatch.core import (
    build_graph,
    check_eps_cs,
    matching_weight,
    validate_matching,
)
from bimatch.errors import (
    InfeasibleInstanceError,
    IterationLimitError,
    SolveTimeout,
)
from bimatch.oracle import brute_force_optimum
from bimatch.scaling import scale_graph

from conftest import complete_graph, g0, random_feasible_graphs


class TestBidArithmetic:
    def test_two_neighbor_bid(self):
        # u0 sees reduced costs 2 and 5, so gamma = 3 and the price of the
        # chosen object drops to -(3 + 1) = -4
        g = build_graph(2, 2, [(0, 0, 2), (0, 1, 5), (1, 1, 1)])
        events = []
        matching, prices = auction_phase(g, 1, [0, 0], trace_sink=events)
        first = events[0]
        assert first.selected_u == 0
        assert first.best_v == 0
        assert first.best_reduced_cost == 2
        assert first.second_reduced_cost == 5
        assert first.gamma == 3
        assert first.new_price_v == -4
        assert first.displaced_u is None
        assert prices[0] == -4

    def test_single_neighbor_uses_sentinel_runner_up(self):
        # max |w| is 5, so the synthetic runner-up sits 2*5 + 1 = 11 above
        # the best reduced cost
        g = build_graph(2, 2, [(0, 0, 2), (0, 1, 5), (1, 1, 1)])
        events = []
        auction_phase(g, 1, [0, 0], trace_sink=events)
        second = events[1]
        assert second.selected_u == 1
        assert second.best_reduced_cost == 1
        assert second.second_reduced_cost == 1 + 11
        assert second.gamma == 11
        assert second.new_price_v == -12

    def test_tie_gives_zero_gamma_and_lowest_object_wins(self):
        g = complete_graph(2, 2, lambda u, v: 7)
        events = []
        matching, prices = auction_phase(g, 1, [0, 0], trace_sink=events)
        first = events[0]
        assert first.gamma == 0
        assert first.best_v == 0
        assert first.new_price_v == -1
        assert matching.pairs() == [(0, 0), (1, 1)]

    def test_displacement_requeues_previous_owner(self):
        # u1 only knows v0, so it must evict u0, which then settles for v1
        g = build_graph(2, 2, [(0, 0, 5), (0, 1, 6), (1, 0, 1)])
        events = []
        matching, _ = auction_phase(g, 1, [0, 0], trace_sink=events)
        assert [e.selected_u for e in events] == [0, 1, 0]
        assert events[1].displaced_u == 0
        assert matching.pairs() == [(1, 0), (0, 1)]

    def test_rejects_unbalanced_graph(self):
        with pytest.raises(ValueError, match="balanced"):
            auction_phase(build_graph(2, 1, [(0, 0, 1), (1, 0, 1)]), 1, [0])

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError, match="positive"):
            auction_phase(g0(), 0, [0, 0])


class TestPhasePostconditions:
    def test_perfect_and_eps_slack_on_random_instances(self):
        for i, g in enumerate(
            random_feasible_graphs(902, 40, max_n=7, balanced=True)
        ):
            eps = 1 + i % 5
            matching, prices = auction_phase(g, eps, [0] * g.s)
            assert validate_matching(g, matching, require_perfect=True) is None
            assert check_eps_cs(g, prices, matching, eps)

    def test_prices_never_increase(self):
        for g in random_feasible_graphs(903, 20, max_n=7, balanced=True):
            events = []
            auction_phase(g, 2, [0] * g.s, trace_sink=events)
            running = [0] * g.s
            for e in events:
                assert e.new_price_v < running[e.best_v]
                running[e.best_v] = e.new_price_v

    def test_single_phase_at_unit_eps_is_optimal_after_scaling(self):
        # scaled weights of the reference instance are (3, 9, 6, 3); the
        # phase must land on the diagonal at scaled weight 6 = 3 * 2
        scaled = scale_graph(g0())
        matching, _ = auction_phase(scaled, 1, [0] * scaled.s)
        assert matching_weight(scaled, matching) == 6


class TestScalingDriver:
    def test_reference_instance(self):
        matching = eps_scaling_auction(g0())
        assert matching.pairs() == [(0, 0), (1, 1)]
        assert matching_weight(g0(), matching) == 2

    def test_one_by_one(self):
        g = build_graph(1, 1, [(0, 0, 5)])
        matching = eps_scaling_auction(g)
        assert matching.pairs() == [(0, 0)]
        assert matching_weight(g, matching) == 5

    def test_matches_brute_force(self):
        for g in random_feasible_graphs(904, 60, max_n=8):
            best = brute_force_optimum(g)
            assert best is not None
            matching = eps_scaling_auction(g)
            assert validate_matching(g, matching, require_perfect=True) is None
            assert matching_weight(g, matching) == best[1]

    def test_uniform_weight_shift_preserves_optimality(self):
        # shifting every weight by c moves every covering matching by s*c,
        # so the solver must track the oracle on both versions
        c = 17
        for g in random_feasible_graphs(905, 25, max_n=6):
            shifted = build_graph(
                g.n, g.s, [(u, v, w + c) for u, v, w in g.iter_edges()]
            )
            w_orig = matching_weight(g, eps_scaling_auction(g))
            w_shift = matching_weight(shifted, eps_scaling_auction(shifted))
            assert w_shift == w_orig + c * g.s

    def test_phase_snapshots_follow_the_schedule(self):
        g = complete_graph(4, 4, lambda u, v: 1 + (3 * u + 5 * v) % 4000)
        snaps: list[PhaseSnapshot] = []
        eps_scaling_auction(g, on_phase=snaps.append)
        assert [sn.phase_index for sn in snaps] == list(range(len(snaps)))
        eps_seq = [sn.eps for sn in snaps]
        assert len(eps_seq) >= 3
        assert all(a > b for a, b in zip(eps_seq, eps_seq[1:]))
        assert eps_seq[-1] == 1
        for sn in snaps:
            assert sn.matching.size == sn.graph.s
            assert check_eps_cs(sn.graph, sn.prices, sn.matching, sn.eps)

    def test_prices_carried_across_phases_keep_falling(self):
        g = complete_graph(4, 4, lambda u, v: 1 + (7 * u + 11 * v) % 4000)
        snaps: list[PhaseSnapshot] = []
        eps_scaling_auction(g, on_phase=snaps.append)
        for before, after in zip(snaps, snaps[1:]):
            assert all(b >= a for b, a in zip(before.prices, after.prices))

    def test_fractional_alpha(self):
        matching = eps_scaling_auction(g0(), alpha=Fraction(3, 2))
        assert matching_weight(g0(), matching) == 2


class TestFailureModes:
    def test_precheck_rejects_uncoverable_instance(self):
        g = build_graph(2, 2, [(0, 0, 1), (1, 0, 2)])
        with pytest.raises(InfeasibleInstanceError):
            eps_scaling_auction(g)

    def test_step_cap_stops_the_unchecked_loop(self):
        # v1 is uncoverable, so without the precheck the two bidders fight
        # over v0 until the cap trips
        g = build_graph(2, 2, [(0, 0, 1), (1, 0, 2)])
        with pytest.raises(IterationLimitError):
            eps_scaling_auction(g, precheck=False)

    def test_isolated_person_fails_fast_without_precheck(self):
        g = build_graph(2, 2, [(0, 0, 1)])
        with pytest.raises(InfeasibleInstanceError, match="no edges"):
            eps_scaling_auction(g, precheck=False)

    def test_expired_deadline(self):
        with pytest.raises(SolveTimeout):
            eps_scaling_auction(g0(), deadline=time.monotonic() - 1.0)
