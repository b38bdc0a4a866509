"""Traced run: per-layer metrics, from the benchmark's side of each module.

Each stage is timed by calling that module's public function directly on
the same instance.  Phase and refine times come from timestamps in a trace
sink (first event of a phase) and the public ``on_phase``/``on_refine``
callbacks (end of the phase); counts come from the recorded trace events.
Every instance also re-checks the paper's claim: the auction and gk traces
are identical event for event, and the projected matching weighs what the
untraced solve and the reference say.

Every instance of the workload is measured once, whatever the time, and
counts are taken on that first visit only, so they repeat exactly for a
given seed; further visits, while ``seconds`` last, add timings.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np
from checks import (
    HARD_STOP_S,
    OP_BUDGET_S,
    ROOT,
    SetupError,
    Tally,
    check_answer,
    min_weight_full_bipartite_matching,
    reference_weight,
    shifted_matrix,
    schedule,
    subprocess_env,
    timed,
)
from spec import PER_LAYER, Workload


class PhaseClock:
    """Trace sink and phase callback in one.

    Keeps every event, stamps the time of each phase's first event, and
    stamps the end of each phase when the solver calls back.
    """

    def __init__(self) -> None:
        self.events: list = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.last = None

    def append(self, event) -> None:
        if event.phase_index == len(self.starts):
            self.starts.append(time.perf_counter())
        self.events.append(event)

    def __call__(self, snapshot) -> None:
        self.ends.append(time.perf_counter())
        self.last = snapshot

    def busy_s(self) -> float:
        return sum(end - start for start, end in zip(self.starts, self.ends))

    def edges_scanned(self, off) -> int:
        return sum(off[e.selected_u + 1] - off[e.selected_u] for e in self.events)


def _fresh_edges(graph) -> list:
    """The graph's edges as newly allocated Python ints, as a file reader
    would produce them."""
    u = np.repeat(np.arange(graph.n), np.diff(np.asarray(graph.adj_off)))
    v = np.asarray(graph.adj_v)
    w = np.asarray(graph.adj_w)
    return list(zip(u.tolist(), v.tolist(), w.tolist()))


def _graph_bytes_per_edge(graph) -> float:
    """Bytes tracemalloc sees still held after ``build_graph`` returns, with
    the input list built inside the window and dropped again."""
    from bimatch import build_graph

    tracemalloc.start()
    try:
        edges = _fresh_edges(graph)
        copy = build_graph(graph.n, graph.s, edges)
        del edges
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del copy
    return held / graph.m


def _import_cli():
    """``(seconds, problem)`` of importing the CLI in a fresh interpreter."""
    cmd = [sys.executable, "-c", "import bimatch.cli"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=subprocess_env(), capture_output=True, text=True,
            timeout=OP_BUDGET_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, "hit the time budget"
    problem = None if proc.returncode == 0 else proc.stderr.strip()[-300:]
    return time.perf_counter() - t0, problem


def _instance(workload, seed, i, path, first_visit, put, tally, reference, hard_stop):
    """Every layer on instance ``i``; ``put(name, value)`` records a sample."""
    from bimatch import (
        GenSpec,
        InfeasibleInstanceError,
        build_graph,
        build_reduction,
        compare_traces,
        eps_scaling_auction,
        feasibility_precheck,
        generate,
        goldberg_kennedy,
        hungarian,
        matching_weight,
        project_matching,
        read_instance,
        scale_graph,
        solve,
        to_flow_instance,
        validate_matching,
        write_instance,
    )

    def deadline() -> float:
        return min(time.monotonic() + OP_BUDGET_S, hard_stop)

    graph, t = timed(generate, GenSpec(seed=workload.gen_seed(seed, i), **workload.gen))
    put("gen.generate_s", t)
    if first_visit:
        put("gen.edges", graph.m)
    _, t = timed(write_instance, graph, path)
    put("core.write_instance_s", t)
    back, t = timed(read_instance, path)
    put("core.read_instance_s", t)
    tally.record(
        "read_instance", i, None if back == graph else "file round trip differs"
    )
    del back
    edges = _fresh_edges(graph)
    copy, t = timed(build_graph, graph.n, graph.s, edges)
    put("core.build_graph_s", t)
    tally.record("build_graph", i, None if copy == graph else "rebuilt graph differs")
    del edges, copy
    if first_visit and i == 0:
        put("core.graph_bytes_per_edge", _graph_bytes_per_edge(graph))
    t, problem = _import_cli()
    if tally.record("cli import", i, problem):
        put("cli.import_s", t)

    ref = reference(graph)
    matrix = shifted_matrix(graph)
    t0 = time.perf_counter()
    try:
        min_weight_full_bipartite_matching(matrix)
    except ValueError:  # no full matching; the time still counts
        pass
    put("ref.lapjvsp_s", time.perf_counter() - t0)
    del matrix

    try:
        _, t = timed(feasibility_precheck, graph)
    except InfeasibleInstanceError:
        tally.record("precheck", i, check_answer(graph, None, None, ref))
        return
    put("feasibility.precheck_s", t)
    if not tally.record(
        "precheck", i,
        None if ref is not None
        else "precheck passed, reference finds no full matching",
    ):
        return

    balanced, t = timed(build_reduction, graph, "double")
    put("reduction.build_s", t)
    if first_visit:
        put("reduction.balanced_edges", balanced.graph.m)
    scaled, t = timed(scale_graph, balanced.graph)
    put("scaling.scale_s", t)
    _, t = timed(to_flow_instance, scaled)
    put("gk.flow_instance_s", t)
    del scaled
    off = balanced.graph.adj_off
    big_n = balanced.graph.n

    # auction, traced, then untraced for the overhead ratio
    clock = PhaseClock()
    try:
        matching, t_traced = timed(
            eps_scaling_auction, graph, trace_sink=clock, on_phase=clock,
            deadline=deadline(),
        )
    except Exception as exc:  # any error is a failed operation
        tally.record("auction traced", i, f"raised {type(exc).__name__}: {exc}")
        return
    weight = matching_weight(graph, matching)
    tally.record("auction traced", i, check_answer(graph, matching, weight, ref))
    projected, t = timed(project_matching, balanced, clock.last.matching)
    put("reduction.project_s", t)
    tally.record(
        "project", i, None if projected == matching else "projection differs from solve"
    )
    phases = len(clock.ends)
    bids = len(clock.events)
    edges = clock.edges_scanned(off)
    busy = clock.busy_s()
    put("auction.phase_s", busy)
    put("auction.ns_per_edge", busy / edges * 1e9)
    if first_visit:
        put("scaling.phases", phases)
        put("auction.bids", bids)
        put("auction.evictions", sum(e.displaced_u is not None for e in clock.events))
        put("auction.edges_scanned", edges)
        put("auction.bids_per_assignment", bids / (big_n * phases))
    try:
        result, t_plain = timed(solve, graph, "auction", deadline=deadline())
        problem = None if result.weight == weight else (
            f"untraced weight {result.weight} != traced weight {weight}"
        )
    except Exception as exc:  # any error is a failed operation
        t_plain, problem = None, f"raised {type(exc).__name__}: {exc}"
    if tally.record("auction untraced", i, problem):
        put("tracing.overhead_ratio", t_traced / t_plain)

    auction_events = clock.events
    clock = PhaseClock()
    try:
        flow_matching, _ = timed(
            goldberg_kennedy, graph, trace_sink=clock, on_refine=clock,
            deadline=deadline(),
        )
    except Exception as exc:  # any error is a failed operation
        tally.record("gk traced", i, f"raised {type(exc).__name__}: {exc}")
    else:
        tally.record(
            "gk traced", i,
            check_answer(
                graph, flow_matching, matching_weight(graph, flow_matching), ref
            ),
        )
        divergence = compare_traces(auction_events, clock.events)
        tally.record(
            "compare_traces", i, None if divergence is None else divergence.describe()
        )
        tally.record(
            "bids == double pushes", i,
            None if bids == len(clock.events)
            else f"auction.bids {bids} != gk.double_pushes {len(clock.events)}",
        )
        gk_edges = clock.edges_scanned(off) + balanced.graph.m * len(clock.ends)
        busy = clock.busy_s()
        put("gk.refine_s", busy)
        put("gk.ns_per_edge", busy / gk_edges * 1e9)
        if first_visit:
            put("gk.double_pushes", len(clock.events))
            put("gk.edges_scanned", gk_edges)
    del auction_events, clock, balanced

    try:
        h_matching, t = timed(hungarian, graph, precheck=False, deadline=deadline())
    except Exception as exc:  # any error is a failed operation
        tally.record("hungarian search", i, f"raised {type(exc).__name__}: {exc}")
        return
    put("hungarian.search_s", t)

    def validate():
        validate_matching(graph, h_matching, require_perfect=True)
        return matching_weight(graph, h_matching)

    h_weight, t = timed(validate)
    put("core.validate_s", t)
    tally.record("hungarian search", i, check_answer(graph, h_matching, h_weight, ref))


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    reference: Callable = reference_weight,
) -> tuple[dict, Tally, dict]:
    """Measure every layer on one workload; returns ``(metrics, tally, report)``."""
    hard_stop = time.monotonic() + HARD_STOP_S
    tally = Tally(workload.name, seed)
    values: dict[str, list[float]] = defaultdict(list)
    for i, first_visit in schedule(
        workload.instances, seconds, hard_stop, at_least=workload.instances
    ):
        _instance(
            workload, seed, i, workdir / f"instance_{i}.txt", first_visit,
            lambda name, value: values[name].append(value),
            tally, reference, hard_stop,
        )

    missing = [m.name for m in PER_LAYER if not values.get(m.name)]
    if missing:
        raise SetupError(f"no feasible instance measured these layers: {missing}")
    metrics = {m.name: (statistics.median(values[m.name]), m.unit) for m in PER_LAYER}
    report = {
        "samples": {m.name: len(values[m.name]) for m in PER_LAYER},
        "layer_map": {
            m.name: {"moves": m.moves, "most_to_least": m.most_to_least}
            for m in PER_LAYER
        },
    }
    return metrics, tally, report
