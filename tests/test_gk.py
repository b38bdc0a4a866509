"""Flow form, reading a matching off a flow, refine rounds, and the driver."""

from __future__ import annotations

import random
import time

import pytest

from bimatch.auction import auction_phase
from bimatch.core import build_graph, matching_weight, validate_matching
from bimatch.errors import (
    InfeasibleInstanceError,
    IterationLimitError,
    SolveTimeout,
)
from bimatch.gk import (
    FlowInstance,
    RefineSnapshot,
    check_eps_optimal,
    flow_to_matching,
    goldberg_kennedy,
    refine,
    residual_conditions,
    to_flow_instance,
)
from bimatch.oracle import brute_force_optimum
from bimatch.reduction import build_reduction
from bimatch.scaling import scale_graph

from conftest import g0, random_feasible_graphs
from test_bid_cache import instances


class TestFlowInstance:
    def test_reference_instance_layout(self):
        fi = to_flow_instance(g0())
        assert fi.n_arcs == 4
        assert fi.n_nodes == 4

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError, match="balanced"):
            to_flow_instance(build_graph(2, 1, [(0, 0, 1), (1, 0, 1)]))


class TestResidualConditions:
    def one_arc(self, w):
        return to_flow_instance(build_graph(1, 1, [(0, 0, w)]))

    def test_zero_flow_nonnegative_weights_hold(self):
        fi = to_flow_instance(g0())
        assert check_eps_optimal(fi, [0, 0, 0, 0], [0, 0, 0, 0], 0)

    def test_forward_condition_boundary(self):
        fi = self.one_arc(2)
        # w + p(u) - p(object) == 0 passes, == -1 fails
        assert residual_conditions(fi, [0], [0, 2], 3) == (True, True)
        assert residual_conditions(fi, [0], [0, 3], 3) == (True, False)

    def test_reversed_condition_boundary(self):
        fi = self.one_arc(2)
        # -w + p(object) - p(u) == -eps passes, == -eps - 1 fails
        assert residual_conditions(fi, [1], [0, -1], 3) == (True, True)
        assert residual_conditions(fi, [1], [0, -2], 3) == (False, True)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            check_eps_optimal(self.one_arc(2), [0], [0, 0], -1)


class TestFlowToMatching:
    # g0's arcs: 0 = (0, 0), 1 = (0, 1), 2 = (1, 0), 3 = (1, 1)
    def test_rejects_unbalanced_pseudoflow(self):
        fi = to_flow_instance(g0())
        for flow, message in [
            ([0, 0, 0, 0], "active"),  # the zero flow
            ([1, 0, 0, 0], "active"),  # object 1 receives nothing
            ([1, 1, 0, 0], "matched"),  # person 0 sends two units
            ([1, 0, 1, 0], "matched"),  # object 0 receives two units
        ]:
            with pytest.raises(ValueError, match=message):
                flow_to_matching(fi, flow)

    def test_reads_off_the_assignment(self):
        fi = to_flow_instance(g0())
        assert flow_to_matching(fi, [1, 0, 0, 1]).pairs() == [(0, 0), (1, 1)]
        assert flow_to_matching(fi, [0, 1, 1, 0]).pairs() == [(1, 0), (0, 1)]


def graph_of_rows(s, rows):
    """The graph whose person ``u`` has the ``(v, w)`` edges ``rows[u]``."""
    return build_graph(
        len(rows), s, [(u, v, w) for u, row in enumerate(rows) for v, w in row]
    )


class TestArcTails:
    """An arc's tail is read off the row offsets.  Empty rows repeat an
    offset, which is where that lookup could pick the wrong row."""

    # leading, middle and trailing empty rows; arc 0 and arc m - 1 next to
    # empty rows
    ROWS = [
        [[], [(0, 4), (2, 1)], [], [], [(1, 2), (3, 6), (4, 3)]],
        [[(0, 3)], [], [], [(1, 5), (2, 2), (3, 1)]],
        [[(0, 3), (1, 1)], [(2, 2)], [], []],
        [[], [(0, 7)], [], [(1, 1)], [], [(2, 5), (5, 2)], []],
    ]

    def test_residual_conditions_read_each_arcs_own_tail(self):
        # Flow on arc a alone, and only a's tail priced at eps + 1: the
        # reversed condition fails at a, and only with the right tail,
        # since every other person price is 0 and every weight is at most
        # eps.  No forward arc can fail.
        for rows in self.ROWS:
            g = graph_of_rows(len(rows), rows)
            fi = to_flow_instance(g)
            eps = g.max_abs_weight
            for u in range(g.n):
                for a in range(g.adj_off[u], g.adj_off[u + 1]):
                    flow = [0] * g.m
                    flow[a] = 1
                    prices = [0] * fi.n_nodes
                    prices[u] = eps + 1
                    assert residual_conditions(fi, flow, prices, eps) == (
                        False,
                        True,
                    ), (rows, a)

    def test_flow_to_matching_across_empty_rows(self):
        # A balanced graph with an empty row carries no flow that covers
        # every object, so this is the flow view of a graph with more
        # persons than objects, built directly.  Arcs: 0 = (1, 0),
        # 1 = (1, 2), 2 = (3, 1), 3 = (5, 0), 4 = (5, 2).
        g = graph_of_rows(
            3, [[], [(0, 1), (2, 1)], [], [(1, 1)], [], [(0, 1), (2, 1)], []]
        )
        fi = FlowInstance(g)
        assert flow_to_matching(fi, [1, 0, 1, 0, 1]).pairs() == [
            (1, 0),
            (3, 1),
            (5, 2),
        ]
        assert flow_to_matching(fi, [0, 1, 1, 1, 0]).pairs() == [
            (5, 0),
            (3, 1),
            (1, 2),
        ]
        with pytest.raises(ValueError, match="matched"):
            flow_to_matching(fi, [1, 1, 1, 0, 0])  # person 1 sends two units


class TestRefine:
    def worked_instance(self):
        # u0 sees partial reduced costs 2 and 5; u1 has a single edge
        return build_graph(2, 2, [(0, 0, 2), (0, 1, 5), (1, 1, 1)])

    def test_double_push_worked_example(self):
        fi = to_flow_instance(self.worked_instance())
        events = []
        flow, prices = refine(fi, 1, [0, 0, 0, 0], trace_sink=events)
        first = events[0]
        assert first.selected_u == 0
        assert first.best_v == 0
        assert first.best_reduced_cost == 2
        assert first.second_reduced_cost == 5
        assert first.gamma == 3
        # relabel lands on minus the runner-up, then the object price
        # follows as p(u) + w - eps
        assert prices == [-5, -12, -4, -12]
        assert flow == [1, 0, 1]
        assert flow_to_matching(fi, flow).pairs() == [(0, 0), (1, 1)]

    def test_identity_checks_pass_on_random_instances(self):
        for g in random_feasible_graphs(7311, 25, max_n=7, balanced=True):
            fi = to_flow_instance(g)
            refine(fi, 2, [0] * fi.n_nodes, check_identities=True)

    def test_postconditions(self):
        for i, g in enumerate(
            random_feasible_graphs(7312, 40, max_n=7, balanced=True)
        ):
            eps = 1 + i % 5
            fi = to_flow_instance(g)
            flow, prices = refine(fi, eps, [0] * fi.n_nodes)
            matching = flow_to_matching(fi, flow)
            assert sum(flow) == g.n
            assert validate_matching(g, matching, require_perfect=True) is None
            assert check_eps_optimal(fi, flow, prices, eps)

    def test_corrupting_a_matched_object_price_breaks_the_certificate(self):
        fi = to_flow_instance(self.worked_instance())
        flow, prices = refine(fi, 1, [0, 0, 0, 0])
        assert check_eps_optimal(fi, flow, prices, 1)
        bad = list(prices)
        bad[2] -= 100
        cond_rev, _ = residual_conditions(fi, flow, bad, 1)
        assert not cond_rev

    def test_rejects_nonpositive_eps(self):
        fi = to_flow_instance(g0())
        with pytest.raises(ValueError, match="positive"):
            refine(fi, 0, [0] * fi.n_nodes)

    def test_isolated_person_fails_fast(self):
        fi = to_flow_instance(build_graph(2, 2, [(0, 0, 1), (0, 1, 1)]))
        with pytest.raises(InfeasibleInstanceError, match="no edges"):
            refine(fi, 1, [0] * fi.n_nodes)

    def test_a_round_that_raises_leaves_the_object_prices(self):
        # both persons reach only object 0, so the round hits its step cap
        fi = to_flow_instance(build_graph(2, 2, [(0, 0, 1), (1, 0, 2)]))
        prices = [0, 0, 5, 7]
        with pytest.raises(IterationLimitError):
            refine(fi, 1, prices)
        assert prices[2:] == [5, 7]

    def test_incoming_person_prices_are_ignored(self):
        # Only object prices steer a round, so arbitrary person prices on
        # entry must change nothing: not the flow, prices or events.
        rng = random.Random(7313)
        for i, g in enumerate(
            random_feasible_graphs(7314, 40, max_n=8, balanced=True)
        ):
            eps = 1 + i % 4
            fi = to_flow_instance(scale_graph(g))
            objects = [rng.randint(-500, 500) for _ in range(g.s)]
            persons = [rng.randint(-10**6, 10**6) for _ in range(g.n)]
            runs = []
            for start in ([0] * g.n, persons):
                events: list = []
                flow, prices = refine(
                    fi,
                    eps,
                    start + objects,
                    trace_sink=events,
                    check_identities=True,
                )
                runs.append((flow, prices, events))
            assert runs[0] == runs[1]
            assert len(runs[0][2]) >= g.n


class TestDirectRefineCalls:
    """Direct refine calls on the candidate-cache test families, from
    arbitrary object prices."""

    @pytest.mark.parametrize("seed", range(4))
    def test_prices_match_the_auction_phase(self, seed):
        rng = random.Random(7315 + seed)
        for label, g in instances(seed, 27):
            scaled = scale_graph(build_reduction(g).graph)
            fi = to_flow_instance(scaled)
            objects = [rng.randint(-100, 100) for _ in range(scaled.s)]
            for eps in (1, 2, 7):
                given = [0] * scaled.n + objects
                flow, prices = refine(fi, eps, given)
                assert prices is given, label
                _, auction_prices = auction_phase(scaled, eps, list(objects))
                assert prices[scaled.n :] == auction_prices, label
                assert check_eps_optimal(fi, flow, prices, eps), label


class TestDriver:
    def test_reference_instance(self):
        matching = goldberg_kennedy(g0())
        assert matching.pairs() == [(0, 0), (1, 1)]
        assert matching_weight(g0(), matching) == 2

    def test_matches_brute_force(self):
        for g in random_feasible_graphs(7411, 60, max_n=8):
            best = brute_force_optimum(g)
            assert best is not None
            matching = goldberg_kennedy(g, check_identities=True)
            assert validate_matching(g, matching, require_perfect=True) is None
            assert matching_weight(g, matching) == best[1]

    def test_refine_snapshots_certify_each_round(self):
        g = build_graph(
            3,
            3,
            [
                (0, 0, 900),
                (0, 1, 1),
                (1, 1, 700),
                (1, 2, 40),
                (2, 0, 3),
                (2, 2, 2000),
            ],
        )
        snaps: list[RefineSnapshot] = []
        goldberg_kennedy(g, on_refine=snaps.append)
        assert [sn.refine_index for sn in snaps] == list(range(len(snaps)))
        eps_seq = [sn.eps for sn in snaps]
        assert len(eps_seq) >= 3
        assert all(a > b for a, b in zip(eps_seq, eps_seq[1:]))
        assert eps_seq[-1] == 1
        for sn in snaps:
            assert sn.matching.size == sn.instance.graph.s
            assert check_eps_optimal(sn.instance, sn.flow, sn.prices, sn.eps)

    def test_precheck_rejects_uncoverable_instance(self):
        g = build_graph(2, 2, [(0, 0, 1), (1, 0, 2)])
        with pytest.raises(InfeasibleInstanceError):
            goldberg_kennedy(g)

    def test_step_cap_stops_the_unchecked_loop(self):
        g = build_graph(2, 2, [(0, 0, 1), (1, 0, 2)])
        with pytest.raises(IterationLimitError):
            goldberg_kennedy(g, precheck=False)

    def test_expired_deadline(self):
        with pytest.raises(SolveTimeout):
            goldberg_kennedy(g0(), deadline=time.monotonic() - 1.0)


class TestSolverCorrespondence:
    def test_same_trace_on_the_reference_instance(self):
        from bimatch.auction import eps_scaling_auction

        left: list = []
        right: list = []
        eps_scaling_auction(g0(), trace_sink=left)
        goldberg_kennedy(g0(), trace_sink=right, check_identities=True)
        assert left == right
        assert len(left) >= 2

    def test_isolated_person_raises_before_any_step_in_both(self):
        from bimatch.auction import eps_scaling_auction

        g = build_graph(2, 2, [(0, 0, 1)])
        for solve in (eps_scaling_auction, goldberg_kennedy):
            events: list = []
            with pytest.raises(InfeasibleInstanceError, match="no edges"):
                solve(g, precheck=False, trace_sink=events)
            assert events == []
