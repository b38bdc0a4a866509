"""Exact integer cost scaling and the epsilon schedule.

All prices and reduced costs live on a scaled integer domain: weights are
multiplied by ``n + 1`` so that reaching ``eps == 1`` on the scaled instance
certifies optimality of the matching on the original one (the unscaled
violation is below ``1/n``, and distinct matching weights differ by at least
a whole unit).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import inf
from operator import mul
from typing import Callable, Iterator, Optional

from .core import WeightedBipartiteGraph
from .errors import (
    DEADLINE_STRIDE,
    InfeasibleInstanceError,
    IterationLimitError,
    check_deadline,
)

DEFAULT_ALPHA = Fraction(5)


def scale_factor(graph: WeightedBipartiteGraph) -> int:
    return graph.n + 1


def scale_graph(graph: WeightedBipartiteGraph) -> WeightedBipartiteGraph:
    """Same structure, every weight multiplied by ``n + 1``."""
    k = scale_factor(graph)
    return WeightedBipartiteGraph(
        graph.n,
        graph.s,
        graph.adj_off,
        graph.adj_v,
        tuple(map(mul, graph.adj_w, repeat(k))),
    )


# A solve with the precheck on defers its Hopcroft-Karp pass: the step
# guard of its first phase (or refine) pays it once the phase reaches
# PRECHECK_STALL_BIDS bids per balanced person, and bidding resumes if it
# passes.  First-phase bids per person on the perfbench seed-1 draws:
# dense-square 1.04-1.13, ties-unbalanced 1.16-1.19, sparse-square
# 1.69-2.47 (7 of 10 above 2).  So dense and ties solves never run the
# pass, while an uncoverable input, whose bidders fight without end, meets
# it after 2N bids.
PRECHECK_STALL_BIDS = 2


# A person's row is read in weight order when it holds at least
# ORDERED_ROW_MIN_EDGES edges and at least ORDERED_ROW_MIN_WEIGHTS distinct
# weights.  Row length: every row ordered against none, on er n=s=300
# graphs with uniform weights (auction, median of 5 passes over 6 draws,
# the row sort included, stop at the phase's start price), 21 edges a row
# 13.0 against 12.8 ms, 30 edges 14.0 against 16.4, 45 edges 22.5 against
# 29.9, 60 edges 25.4 against 37.0.  So ordering pays from about 30
# edges, and 40 is the lowest round length that keeps every row of
# sparse-square (at most 34 edges) on the plain scan.  Distinct weights:
# every row of at least 40 edges ordered against none, er n=s=300 at
# d=0.5 (about 150 edges a row), weights drawn from 1..k, stop at the
# current price ceiling, same timing: auction k=2 40.8 against 40.4 ms,
# k=3 33.7 against 43.6, k=4 30.8 against 46.1, k=5 27.5 against 45.2;
# gk k=2 44.4 against 45.6, k=3 37.3 against 49.2, k=4 35.3 against
# 51.9.  Two-point rows gain nothing, so they stay plain; three weights
# already pay.
ORDERED_ROW_MIN_EDGES = 40
ORDERED_ROW_MIN_WEIGHTS = 3

# An ordered row of at least ORDERED_PREFIX_MIN_EDGES edges is sorted only
# up to its cut, its lightest weight plus ORDERED_PREFIX_DEPTH times the
# graph's max_abs_weight; a scan that reads past the cut takes the plain
# scan of the whole row.  Deepest read of an auction solve above a row's
# lightest weight, in max_abs_weight, er graphs at d=0.5 with uniform
# weights: n=s=300 p95 0.24, max 0.30; n=s=1000 p95 0.15, max 0.22.  The
# view's build per auction solve, plus a sort of the rest of each row
# that a scan read past the cut, at depth 0.2 / 0.25 / 0.3 / 0.35:
# n=s=300 3.13 / 2.61 / 2.80 / 3.01 ms (50, 3, 0 and 0 such rows a
# solve); n=s=1000 31.1 / 32.4 / 35.1 / 38.4 ms; n=s=200 1.61 / 1.31 /
# 1.30 / 1.37 ms.  The whole-row sort took 4.12 ms at n=s=300.  Shorter
# rows are sorted whole: the mirror's column rows of 40-57 edges are read
# to half their length, so most scans of them would read past a
# quarter-depth cut.  With a prefix on every ordered row, auction and gk
# solves on er 1600x40 took 1.025 and 1.031 times as long (medians of 16
# one-process pairs on a 2-core Xeon, none faster); square rows of 40-45
# edges gained nothing from a prefix, and 50 edges 7%.
ORDERED_PREFIX_MIN_EDGES = 64
ORDERED_PREFIX_DEPTH = Fraction(1, 4)

# Per person: the adjacency positions of an ordered row, in ascending
# ``(w, v)`` order, or None for a row read in position order.  Empty when no
# row is ordered.
OrderedRows = list[Optional[list[int]]]

# The rows, and per person the cut of its row: its positions with ``w <=
# cut`` are in the row and the rest are not.  ``inf`` when the row is whole.
OrderedView = tuple[OrderedRows, list[float]]

# Per person: (lower position, higher position, third-smallest reduced cost)
# of its last full scan, or None.  The candidate cache of both bid loops;
# gk's positions are its arcs.
CandidateCache = list[Optional[tuple[int, int, float]]]


def weight_ordered_rows(graph: WeightedBipartiteGraph) -> OrderedView:
    """The weight-ordered view of ``graph``'s rows that both bid loops read.

    A row with at least :data:`ORDERED_ROW_MIN_EDGES` edges and at least
    :data:`ORDERED_ROW_MIN_WEIGHTS` distinct weights is ordered; its
    weights are counted first, from the first three and then, if those
    repeat, the whole row.  A stable sort by weight puts its positions,
    which each row holds in ascending ``v``, in ``(w, v)`` order.  A row
    of at least :data:`ORDERED_PREFIX_MIN_EDGES` edges keeps only its
    positions with ``w <= cut``, the cut :data:`ORDERED_PREFIX_DEPTH`
    times ``max_abs_weight`` above its lightest weight; a scan that needs
    more takes the plain scan of the whole row.  A shorter row, or one
    whose prefix is whole, gets the cut ``inf``.  When no row is ordered
    both lists are empty, so the loops skip the per-bid lookup.  Nothing
    writes to the view once it is built, so it depends only on ``graph``.
    """
    min_edges, min_weights = ORDERED_ROW_MIN_EDGES, ORDERED_ROW_MIN_WEIGHTS
    prefix_edges, depth = ORDERED_PREFIX_MIN_EDGES, ORDERED_PREFIX_DEPTH
    reach = graph.max_abs_weight * depth.numerator // depth.denominator
    off, adj_w = graph.adj_off, graph.adj_w
    weight = adj_w.__getitem__
    rows: OrderedRows = [None] * graph.n
    cuts: list[float] = [inf] * graph.n
    for u in range(graph.n):
        lo, hi = off[u], off[u + 1]
        if hi - lo >= min_edges and (
            len(set(adj_w[lo : lo + min_weights])) == min_weights
            or len(set(adj_w[lo:hi])) >= min_weights
        ):
            if hi - lo < prefix_edges:
                rows[u] = sorted(range(lo, hi), key=weight)
                continue
            cut = min(adj_w[lo:hi]) + reach
            row = rows[u] = [i for i in range(lo, hi) if adj_w[i] <= cut]
            row.sort(key=weight)
            if len(row) < hi - lo:
                cuts[u] = cut
    return ([], []) if rows.count(None) == graph.n else (rows, cuts)


def parse_alpha(text: str) -> Fraction:
    """Scaling divisor from a string like '5', '7/2' or '3.5'; must be > 1."""
    try:
        alpha = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse scaling factor {text!r}") from None
    return check_alpha(alpha)


def check_alpha(alpha: Fraction) -> Fraction:
    """``alpha`` as a :class:`Fraction`; ``ValueError`` unless it is finite
    and exceeds 1."""
    if alpha != alpha or alpha in (inf, -inf):  # nan, or an infinite number
        raise ValueError(f"alpha must be finite, got {alpha}")
    value = Fraction(alpha)
    if value <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    return value


def eps_schedule(start: int, alpha: Fraction = DEFAULT_ALPHA) -> Iterator[int]:
    """Yield the integer eps values 1st phase .. final phase.

    Each phase divides by ``alpha`` and floors, clamped at 1; the final
    yielded value is always exactly 1.  ``start <= 0`` (zero-weight graphs)
    degenerates to the single phase ``[1]``.
    """
    alpha = check_alpha(alpha)
    eps = max(1, start)
    while True:
        eps = max(1, eps * alpha.denominator // alpha.numerator)
        yield eps
        if eps == 1:
            return


def initial_eps(scaled: WeightedBipartiteGraph) -> int:
    """Starting eps: the largest absolute scaled weight."""
    return scaled.max_abs_weight


def second_cost_sentinel_gap(max_abs_scaled_weight: int) -> int:
    """Stand-in runner-up gap for single-edge neighborhoods.

    When a person has exactly one object there is no second-smallest reduced
    cost; both solvers substitute ``best + gap`` with this shared gap so
    their traces stay comparable.  Any positive value is correct (the price
    of a sole neighbor is unconstrained by slackness); this one is large
    enough that such objects immediately become unattractive to everyone
    else.
    """
    return 2 * max_abs_scaled_weight + 1


def step_guard(
    graph: WeightedBipartiteGraph,
    spread: int,
    eps: int,
    deadline: Optional[float],
    label: str,
    on_stall: Optional[Callable[[], None]] = None,
) -> tuple[Callable[[int], int], int]:
    """The step guard of one bid loop phase at ``eps`` on ``graph``, and the
    first step at which the loop consults it.

    ``spread`` is the range of the object prices the phase starts from.
    The loop keeps the next step to consult as ``probe``, and on reaching
    it sets ``probe = guard(step)``, so a bid pays only that compare.  The
    guard is consulted at every multiple of :data:`DEADLINE_STRIDE` when a
    deadline is set, at bid ``PRECHECK_STALL_BIDS * n`` when ``on_stall``
    is given, and at the step cap.  It calls ``on_stall`` once, before that
    bid; raises :class:`IterationLimitError` at the cap, which is far above
    any feasible phase's bid count and turns the known infinite loop on
    uncoverable instances into an error; and raises :class:`SolveTimeout`
    once ``deadline`` has passed.
    """
    cap = 10 * graph.n * max(1, graph.m) * (spread // eps + 2)
    # the next step the guard sees with or without a deadline: the stall
    # call's, then the cap
    stall = cap if on_stall is None else min(cap, PRECHECK_STALL_BIDS * graph.n)

    def guard(step: int) -> int:
        nonlocal on_stall, stall
        if step == stall and on_stall is not None:
            on_stall()
            on_stall, stall = None, cap
        if step >= cap:
            raise IterationLimitError(
                f"{label} exceeded {cap} steps at eps={eps}; "
                "the instance is most likely infeasible"
            )
        check_deadline(deadline, f"{label} at eps={eps}")
        return stall if deadline is None else min(stall, step + DEADLINE_STRIDE)

    return guard, stall if deadline is None else 0


def check_persons_have_edges(graph: WeightedBipartiteGraph) -> None:
    """Reject a person with no edges up front: no bid loop could place it."""
    off = graph.adj_off
    for u in range(graph.n):
        if off[u] == off[u + 1]:
            raise InfeasibleInstanceError(
                f"left vertex {u} has no edges; no perfect matching exists"
            )
