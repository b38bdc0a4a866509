"""The deferred feasibility precheck.

With the precheck on, the solvers reject ``s > n`` and ``m < s`` up front
and run the Hopcroft-Karp pass only when the first phase stalls, when a
timeout or the step cap ends the solve before a phase finishes, or when
the solve is traced.  An infeasibility the solver proves itself gets the
precheck's message with no pass.  These tests count the passes, and check
that deferring them changes no bid, no matching and no error.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from bimatch import errors, feasibility, scaling
from bimatch.auction import auction_phase, eps_scaling_auction
from bimatch.core import build_graph
from bimatch.errors import InfeasibleInstanceError, SolveTimeout
from bimatch.feasibility import Precheck
from bimatch.gen import GenSpec, generate
from bimatch.gk import goldberg_kennedy, refine, to_flow_instance
from bimatch.scaling import scale_graph
from bimatch.solve import ALGORITHMS, TRACED_ALGORITHMS, solve

from conftest import complete_graph, g0


@pytest.fixture
def passes(monkeypatch):
    """The graphs the Hopcroft-Karp pass ran on, in call order."""
    seen = []
    real = feasibility.maximum_matching_size

    def counted(graph):
        seen.append(graph)
        return real(graph)

    monkeypatch.setattr(feasibility, "maximum_matching_size", counted)
    return seen


def set_stall_bids(monkeypatch, bids):
    monkeypatch.setattr(scaling, "PRECHECK_STALL_BIDS", bids)


def dense(n, seed):
    return generate(
        GenSpec(model="erdos_renyi", n=n, s=n, d=0.5,
                weight_model="uniform", seed=seed)
    )


def hall_violator(n):
    """Right vertices 0 and 1 reachable only from person 0; m >= s."""
    edges = [(0, 0, 1), (0, 1, 2)]
    edges += [(u, v, 1 + (7 * u + 3 * v) % 11) for u in range(n) for v in range(2, n)]
    return build_graph(n, n, edges)


INFEASIBLE = {
    "isolated-person": build_graph(
        3, 3, [(u, v, u + v + 1) for u in range(2) for v in range(3)]
    ),
    "uncovered-column": build_graph(
        3, 3, [(u, v, u + v + 1) for u in range(3) for v in range(2)]
    ),
    "s-above-n": complete_graph(2, 3),
    "m-below-s": build_graph(5, 3, [(0, 0, 1)]),
    # every column reaches persons 0 and 1 only: the column kernel raises
    "kernel-raises": build_graph(
        5, 3, [(u, v, 1 + u + v) for u in (0, 1) for v in range(3)]
    ),
    "hall-violator": hall_violator(20),
}


@pytest.mark.parametrize("expired", [False, True], ids=["live", "expired"])
@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("name", sorted(INFEASIBLE))
def test_infeasible_input_raises_the_precheck_error(name, algo, expired):
    g = INFEASIBLE[name]
    deadline = time.monotonic() - 1.0 if expired else None
    with pytest.raises(InfeasibleInstanceError) as info:
        solve(g, algo, deadline=deadline)
    assert str(info.value) == f"no matching covers all {g.s} right vertices"


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_counts_reject_without_a_pass(passes, algo):
    for name in ("s-above-n", "m-below-s"):
        with pytest.raises(InfeasibleInstanceError):
            solve(INFEASIBLE[name], algo)
    assert passes == []


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_an_uncoverable_input_runs_the_pass_once(passes, algo):
    """Hungarian runs none: its dead-ended search is a proof of its own."""
    g = INFEASIBLE["hall-violator"]
    with pytest.raises(InfeasibleInstanceError):
        solve(g, algo)
    assert passes == ([] if algo == "hungarian" else [g])


@pytest.mark.parametrize("algo", TRACED_ALGORITHMS)
@pytest.mark.parametrize("name", ["hall-violator", "uncovered-column"])
def test_a_traced_infeasible_solve_writes_no_bid(passes, algo, name):
    events = []
    with pytest.raises(InfeasibleInstanceError):
        solve(INFEASIBLE[name], algo, trace_sink=events)
    assert events == []
    assert len(passes) == 1


def test_a_feasible_expired_solve_still_times_out(passes):
    for algo in ALGORITHMS:
        with pytest.raises(SolveTimeout):
            solve(g0(), algo, deadline=time.monotonic() - 1.0)
    assert len(passes) == len(ALGORITHMS)


@pytest.mark.parametrize("seed", [1001, 1002])
def test_dense_square_solves_run_no_pass(passes, seed):
    g = dense(300, seed)
    for algo in ALGORITHMS:
        solve(g, algo)
    assert passes == []


def phases(solver, g):
    out = []
    kwargs = {"on_phase" if solver is eps_scaling_auction else "on_refine": out.append}
    matching = solver(g, **kwargs)
    return matching.pairs(), [(p.prices, p.matching.pairs()) for p in out]


@pytest.mark.parametrize("bids", [0, 1])
@pytest.mark.parametrize("solver", [eps_scaling_auction, goldberg_kennedy])
def test_a_stalled_first_phase_checks_once_and_bids_on(
    monkeypatch, passes, solver, bids
):
    g = dense(60, 7)
    expected = phases(solver, g)
    assert passes == []
    set_stall_bids(monkeypatch, bids)
    assert phases(solver, g) == expected
    assert passes == [g]


@pytest.mark.parametrize("solver", [eps_scaling_auction, goldberg_kennedy])
def test_a_timeout_after_the_first_phase_runs_no_pass(monkeypatch, passes, solver):
    """A finished first phase settles the precheck, so a deadline that
    passes only after it leaves the pass unpaid."""
    clock = SimpleNamespace(now=0.0)
    monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: clock.now))
    finished = []

    def expire(snapshot):
        finished.append(snapshot)
        clock.now = 2.0

    key = "on_phase" if solver is eps_scaling_auction else "on_refine"
    with pytest.raises(SolveTimeout, match="at eps=.* hit the deadline"):
        solver(dense(60, 7), deadline=1.0, **{key: expire})
    assert len(finished) == 1
    assert passes == []


def test_precheck_off_never_runs_the_pass(monkeypatch, passes):
    set_stall_bids(monkeypatch, 0)
    g = dense(40, 3)
    for algo in ALGORITHMS:
        solve(g, algo, precheck=False)
    assert passes == []


def phase_events(phase, on_stall, deadline):
    """Events of one eps = 1 phase from zero prices on a scaled dense
    graph; ``on_stall`` is passed to the phase when given."""
    scaled = scale_graph(dense(60, 11))
    eps = 1
    events = []
    kwargs = {"trace_sink": events, "deadline": deadline}
    if on_stall is not None:
        kwargs["on_stall"] = lambda: on_stall(len(events))
    if phase is auction_phase:
        auction_phase(scaled, eps, [0] * scaled.s, **kwargs)
    else:
        fi = to_flow_instance(scaled)
        refine(fi, eps, [0] * fi.n_nodes, **kwargs)
    return events, scaled.n


@pytest.mark.parametrize("deadline", [None, 3600.0], ids=["no-deadline", "deadline"])
@pytest.mark.parametrize("phase", [auction_phase, refine])
def test_the_stall_call_comes_before_bid_2n(phase, deadline):
    if deadline is not None:
        deadline += time.monotonic()
    plain, n = phase_events(phase, None, deadline)
    assert len(plain) > 2 * n
    calls = []
    stalled, _ = phase_events(phase, calls.append, deadline)
    assert calls == [2 * n]
    assert stalled == plain


def test_the_owed_check_runs_at_most_once(passes):
    g = INFEASIBLE["hall-violator"]
    with pytest.raises(SolveTimeout):
        with Precheck(g) as precheck:
            check = precheck.owed
            assert passes == []
            with pytest.raises(InfeasibleInstanceError):
                check()
            check()
            assert precheck.owed is None
            raise SolveTimeout("after the pass")
    assert passes == [g]


def test_an_undeferred_precheck_runs_now(passes):
    with Precheck(g0(), defer=False) as precheck:
        assert precheck.owed is None
    assert len(passes) == 1
    with pytest.raises(InfeasibleInstanceError):
        Precheck(INFEASIBLE["hall-violator"], defer=False)
