"""Flow form, reading a matching off a flow, refine rounds, and the driver."""

from __future__ import annotations

import random
import time

import pytest

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
from bimatch.scaling import scale_graph

from conftest import g0, random_feasible_graphs


class TestFlowInstance:
    def test_reference_instance_layout(self):
        fi = to_flow_instance(g0())
        assert fi.n_arcs == 4
        assert fi.tail_of_arc == (0, 0, 1, 1)
        assert fi.head_of_arc == (2, 3, 2, 3)
        assert fi.n_nodes == 4

    def test_heads_share_one_int_per_node(self):
        edges = [(u, v, u + v) for u in range(3) for v in range(3)]
        g = scale_graph(build_graph(3, 3, edges))
        fi = to_flow_instance(g)
        assert fi.head_of_arc == tuple(3 + v for v in g.adj_v)
        for a, b in zip(fi.head_of_arc, fi.head_of_arc[3:]):
            assert a is b

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
