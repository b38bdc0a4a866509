"""What the benchmark measures: workloads, metrics and the layer map.

This module is data only.  ``BENCHMARK.json`` at the repository root must
list the same workload names and the same metric names, units and
directions; ``test_smoke.py`` checks that they agree.

Instance ``i`` of a workload run with ``--seed S`` is ``gen.generate`` of
the workload's :class:`GenSpec` parameters with ``seed = S * 1000 + i``, so
a seed fixes the whole instance set.  Infeasible draws stay in the set.
"""

from __future__ import annotations

from dataclasses import dataclass

SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """``instances`` draws of one generator cell, solved one at a time."""

    name: str
    why: str
    gen: dict  # keyword arguments of bimatch.gen.GenSpec, minus ``seed``
    instances: int

    def gen_seed(self, seed: int, index: int) -> int:
        if not 0 <= index < SEED_STRIDE:
            raise ValueError(f"instance index {index} outside [0, {SEED_STRIDE})")
        return seed * SEED_STRIDE + index


# Sizes are chosen so that a 30 s run holds about 20 visits (auction, gk,
# Hungarian and one CLI solve each) on a 2-core x86 host: single solves
# there vary by up to 2x with the host's load, so a steady median needs many
# short solves rather than a few long ones.  Larger instances show the same
# layer balance but left run medians 20-25% apart across seeds.  Each
# instance is visited only once or twice, so that a run's median spans as
# many draws as it can: solve times, Hungarian's most of all, differ between
# draws as well as between visits.
#
# Each likely optimisation has a workload that exercises it and one that
# bypasses it: a vectorised bid scan has long rows on dense-square and
# ties-unbalanced and 15-edge rows on sparse-square; a cheaper balancing
# reduction has work only on ties-unbalanced.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-square",
            why=(
                "n=s=300 at density 0.5: identity reduction and bids that scan "
                "about 150 edges, so bid-scan cost dominates the solvers"
            ),
            gen=dict(model="erdos_renyi", n=300, s=300, d=0.5, weight_model="uniform"),
            instances=12,
        ),
        Workload(
            name="sparse-square",
            why=(
                "n=s=1000 with mean degree 15: short scans, so per-bid Python "
                "overhead dominates the solvers and import time the CLI"
            ),
            gen=dict(
                model="erdos_renyi", n=1000, s=1000, d=0.015, weight_model="uniform"
            ),
            instances=10,
        ),
        Workload(
            name="ties-unbalanced",
            why=(
                "n=400, s=sqrt(n)=20, two-point weights: the double reduction does "
                "real work and gamma=0 ties cause price wars, so bid count dominates"
            ),
            gen=dict(
                model="dispersed_degree",
                n=400,
                s=20,
                d=0.5,
                r_norm=0.5,
                weight_model="low_or_high",
                p_low=0.5,
            ),
            instances=20,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    meaning: str
    bound: float | None = None  # end-to-end only: allowed worsening share
    moves: str = ""  # per-layer only: end-to-end metrics this layer feeds
    most_to_least: str = ""  # per-layer only: workloads by work done here


# On a shared 2-core x86 host, speed shifts by 10-30% for minutes at a time,
# which put the quartile spread of run medians across ten seeds at 0.06-0.26
# with 30 s runs, and no lower with 50 s runs; the timing bounds sit just
# under the largest allowed so that such shifts do not read as regressions.
END_TO_END = (
    Metric(
        "setup_s", "s", "lower",
        "median over repeated fresh processes of: import bimatch, gen.generate "
        "every instance, write_instance every instance",
        bound=0.25,  # the largest: set-up is timed in fresh processes
    ),
    Metric(
        "auction.solve_s", "s", "lower",
        "median wall time of solve(g, 'auction') with default settings",
        bound=0.24,
    ),
    Metric(
        "gk.solve_s", "s", "lower",
        "median wall time of solve(g, 'gk') with default settings",
        bound=0.24,
    ),
    Metric(
        "hungarian.solve_s", "s", "lower",
        "median wall time of solve(g, 'hungarian') with default settings",
        bound=0.24,
    ),
    Metric(
        "cli.solve_s", "s", "lower",
        "median wall time of a `python -m bimatch solve --algo auction --in "
        "FILE` subprocess, output checked",
        bound=0.24,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower",
        "peak resident memory of the untraced solving process, children excluded",
        bound=0.1,
    ),
    Metric(
        "ok_ratio", "ratio", "higher",
        "operations that passed every check / attempted; 1 - fail_ratio, "
        "reported this way because a benchmark metric may never read 0",
        bound=0.01,
    ),
)

_TIMES = "dense-square -> ties-unbalanced"
_SOLVERS = (
    "by cost: scan length on dense-square (150 edges per bid), per-bid "
    "overhead on sparse-square (15), bid count and long mirrored rows on "
    "ties-unbalanced"
)

PER_LAYER = (
    Metric("gen.generate_s", "s", "lower", "gen.generate per instance",
           moves="setup_s", most_to_least=_TIMES),
    Metric("gen.edges", "count", "lower", "edges per generated instance",
           moves="setup_s", most_to_least=_TIMES),
    Metric("core.write_instance_s", "s", "lower", "write_instance per instance",
           moves="setup_s", most_to_least=_TIMES),
    Metric("core.read_instance_s", "s", "lower", "read_instance per instance",
           moves="cli.solve_s", most_to_least=_TIMES),
    Metric("core.build_graph_s", "s", "lower", "build_graph from an edge list",
           moves="setup_s, cli.solve_s, peak_rss_mb", most_to_least=_TIMES),
    Metric("core.graph_bytes_per_edge", "B/edge", "lower",
           "computed: bytes tracemalloc sees retained by build_graph's result, "
           "per edge, first instance of the run",
           moves="setup_s, cli.solve_s, peak_rss_mb", most_to_least=_TIMES),
    Metric("cli.import_s", "s", "lower",
           "subprocess wall time of `python -c 'import bimatch.cli'`",
           moves="cli.solve_s",
           most_to_least="sparse-square (largest share) -> ties-unbalanced"),
    Metric("feasibility.precheck_s", "s", "lower", "feasibility_precheck",
           moves="all *.solve_s (prediction: none moves)",
           most_to_least="a small share everywhere"),
    Metric("reduction.build_s", "s", "lower", "build_reduction(g, 'double')",
           moves="auction.solve_s, gk.solve_s, peak_rss_mb",
           most_to_least="ties-unbalanced -> both square workloads (identity)"),
    Metric("reduction.balanced_edges", "count", "lower",
           "edges of the balanced graph",
           moves="auction.solve_s, gk.solve_s, peak_rss_mb",
           most_to_least="ties-unbalanced -> both square workloads (identity)"),
    Metric("reduction.project_s", "s", "lower",
           "project_matching of the last auction phase's matching",
           moves="auction.solve_s, gk.solve_s",
           most_to_least="ties-unbalanced -> both square workloads (identity)"),
    Metric("scaling.scale_s", "s", "lower", "scale_graph of the balanced graph",
           moves="auction.solve_s, gk.solve_s",
           most_to_least="dense-square -> ties-unbalanced (balanced m)"),
    Metric("scaling.phases", "count", "lower", "eps phases per solve",
           moves="auction.solve_s, gk.solve_s",
           most_to_least="about equal: 11-12 phases everywhere"),
    Metric("auction.phase_s", "s", "lower",
           "sum over phases of (on_phase callback - first bid of the phase)",
           moves="auction.solve_s", most_to_least=_SOLVERS),
    Metric("auction.bids", "count", "lower", "bids per solve",
           moves="auction.solve_s", most_to_least=_SOLVERS),
    Metric("auction.evictions", "count", "lower", "bids that displaced an owner",
           moves="auction.solve_s", most_to_least=_SOLVERS),
    Metric("auction.edges_scanned", "count", "lower",
           "sum over bids of the bidder's degree in the balanced graph",
           moves="auction.solve_s", most_to_least=_SOLVERS),
    Metric("auction.bids_per_assignment", "ratio", "lower",
           "bids / (balanced N * phases)",
           moves="auction.solve_s", most_to_least=_SOLVERS),
    Metric("auction.ns_per_edge", "ns", "lower",
           "auction.phase_s / auction.edges_scanned",
           moves="auction.solve_s", most_to_least=_SOLVERS),
    Metric("gk.flow_instance_s", "s", "lower",
           "to_flow_instance of the scaled balanced graph",
           moves="gk.solve_s", most_to_least=_SOLVERS),
    Metric("gk.refine_s", "s", "lower",
           "sum over refines of (on_refine callback - first double push)",
           moves="gk.solve_s", most_to_least=_SOLVERS),
    Metric("gk.double_pushes", "count", "lower", "double pushes per solve",
           moves="gk.solve_s", most_to_least=_SOLVERS),
    Metric("gk.edges_scanned", "count", "lower",
           "push scans (bidder degree) plus balanced m per refine for the "
           "person-price reset",
           moves="gk.solve_s", most_to_least=_SOLVERS),
    Metric("gk.ns_per_edge", "ns", "lower", "gk.refine_s / gk.edges_scanned",
           moves="gk.solve_s", most_to_least=_SOLVERS),
    Metric("hungarian.search_s", "s", "lower", "hungarian(g, precheck=False)",
           moves="hungarian.solve_s",
           most_to_least="sparse-square and dense-square -> ties-unbalanced"),
    Metric("core.validate_s", "s", "lower",
           "validate_matching(require_perfect=True) + matching_weight",
           moves="all *.solve_s", most_to_least="a small share everywhere"),
    Metric("tracing.overhead_ratio", "ratio", "lower",
           "traced auction time / untraced auction time, same instance",
           moves="none: the cost of the traced run", most_to_least="all"),
    Metric("ref.lapjvsp_s", "s", "lower",
           "scipy min_weight_full_bipartite_matching, matrix prebuilt",
           moves="none: an outside yardstick, never a gate", most_to_least="all"),
)
