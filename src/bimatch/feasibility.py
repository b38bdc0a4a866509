"""Feasibility precheck: can every right vertex be covered?

The bidding loop does not terminate when some right vertex is uncoverable,
so the solvers screen instances.  Coverage is a pure cardinality question:
is the maximum matching of the unweighted graph of size ``s``?

A solve with the precheck on runs inside one :class:`Precheck`, which owns
the matching pass.  It rejects ``s > n`` and ``m < s`` up front and defers
the pass; a traced solve runs the pass up front too, so an infeasible
input writes no bid.  The deferred pass runs at most once: when the first
auction phase or gk refine reaches ``PRECHECK_STALL_BIDS * N`` bids (its
:func:`~bimatch.scaling.step_guard` calls it), or when a timeout or a
step-cap error leaves the solve while the pass is owed.  A finished first
phase is a perfect matching of the balanced graph, which certifies
coverage, so the auction and gk drivers then settle the precheck and owe
nothing; Hungarian never settles it.  An infeasibility error that leaves
the solve while the pass is owed is the solver's own proof, and gets the
precheck's message with no pass.

The maximum matching is found in pure Python, in two steps.  A greedy pass
gives every left vertex its first free neighbour.  Hopcroft-Karp phases
(Hopcroft & Karp, 1973) then grow that matching: a breadth-first search
layers the graph by alternating distance from the free left vertices, and
a depth-first search along those layers augments a maximal set of
vertex-disjoint shortest augmenting paths.  Each phase costs O(m), and
after O(sqrt(n)) phases no augmenting path is left, so the whole search is
O(m * sqrt(n)).  The search stops as soon as the matching has
``min(n, s)`` pairs, the most any matching can have.
"""

from __future__ import annotations

from typing import Callable, NoReturn, Optional

from .core import WeightedBipartiteGraph
from .errors import InfeasibleInstanceError, IterationLimitError, SolveTimeout


def maximum_matching_size(graph: WeightedBipartiteGraph) -> int:
    """Cardinality of a maximum matching, ignoring weights."""
    n, off, adj_v = graph.n, graph.adj_off, graph.adj_v
    target = min(n, graph.s)
    match_u = [-1] * n
    match_v = [-1] * graph.s
    size = 0
    rows = []
    for u in range(n):
        if size == target:
            return size
        row = adj_v[off[u] : off[u + 1]]
        rows.append(row)
        for v in row:
            if match_v[v] < 0:
                match_v[v] = u
                match_u[u] = v
                size += 1
                break
    while size < target:
        grown = _augment_shortest_paths(rows, match_u, match_v, target - size)
        if not grown:
            break
        size += grown
    return size


def _augment_shortest_paths(
    rows: list[tuple[int, ...]],
    match_u: list[int],
    match_v: list[int],
    wanted: int,
) -> int:
    """One Hopcroft-Karp phase; returns how many paths it augmented.

    Stops after ``wanted`` augmentations.  ``match_u``/``match_v`` hold
    partner indices, ``-1`` when free, and are updated in place.
    """
    n = len(rows)
    unseen = n + 1  # deeper than any layer: there are at most n of them
    dist = [unseen] * n
    roots = [u for u in range(n) if match_u[u] < 0 and rows[u]]
    for u in roots:
        dist[u] = 0
    # Breadth-first layering.  The left vertices of layer k + 1 are the
    # partners of the right vertices adjacent to layer k; the first layer
    # that touches a free right vertex is the last one.
    layer, last = roots, 0
    while layer:
        nxt = []
        touches_free = False
        for u in layer:
            for v in rows[u]:
                w = match_v[v]
                if w < 0:
                    touches_free = True
                elif dist[w] == unseen:
                    dist[w] = last + 1
                    nxt.append(w)
        if touches_free:
            break
        layer, last = nxt, last + 1
    else:
        return 0
    # Depth-first augmentation along the layers, iterative so that paths
    # of any length fit.  ``nxt_edge[u]`` is where ``u``'s scan resumes; a
    # vertex that led nowhere, or that lies on an augmented path, is taken
    # out of the layering by resetting its distance.
    nxt_edge = [0] * n
    grown = 0
    for root in roots:
        stack = [root]
        while stack:
            u = stack[-1]
            row, i, du = rows[u], nxt_edge[u], dist[u]
            end = len(row)
            if du == last:
                while i < end and match_v[row[i]] >= 0:
                    i += 1
                nxt_edge[u] = i
                if i < end:
                    for x in stack:
                        v = rows[x][nxt_edge[x]]
                        match_u[x] = v
                        match_v[v] = x
                        dist[x] = unseen
                    grown += 1
                    if grown == wanted:
                        return grown
                    break
            else:
                while i < end:
                    w = match_v[row[i]]
                    if dist[w] == du + 1:
                        break
                    i += 1
                nxt_edge[u] = i
                if i < end:
                    stack.append(w)
                    continue
            dist[u] = unseen
            stack.pop()
    return grown


def _counts_rule_out(graph: WeightedBipartiteGraph) -> bool:
    """True when the counts alone leave a right vertex uncovered: more
    right vertices than left ones, or fewer edges than right vertices."""
    return graph.s > graph.n or graph.m < graph.s


def is_feasible(graph: WeightedBipartiteGraph) -> bool:
    """True iff some matching covers all ``s`` right vertices."""
    return not _counts_rule_out(graph) and maximum_matching_size(graph) == graph.s


def feasibility_precheck(graph: WeightedBipartiteGraph) -> None:
    """Raise :class:`InfeasibleInstanceError` unless all of V is coverable."""
    if not is_feasible(graph):
        _reject(graph)


class Precheck:
    """The precheck of one solve, as a context manager around it.

    Built with ``enabled``, it rejects ``s > n`` and ``m < s`` at once, and
    runs :func:`feasibility_precheck` whole unless ``defer``; otherwise it
    holds that pass as owed.  :attr:`owed` is the call that pays it, or
    ``None`` once nothing is owed.  :meth:`settle` records a perfect
    matching, which proves coverage, and drops the pass unpaid.

    A :class:`SolveTimeout` or :class:`IterationLimitError` that leaves
    the block while the pass is owed pays it first, so on infeasible input
    it becomes the precheck's error.  An :class:`InfeasibleInstanceError`
    that leaves it while owed becomes the precheck's error with no pass,
    because the solvers raise one only on their own proof that some right
    vertex cannot be covered: a person or a right vertex with no edge,
    fewer than ``s`` left vertices with one, or a Hungarian search that
    dead-ends while its bound is still infinite, and so has followed every
    alternating path.  The pass itself is no longer owed while it runs.
    """

    def __init__(
        self, graph: WeightedBipartiteGraph, *, enabled: bool = True, defer: bool = True
    ) -> None:
        self._graph = graph
        self._owed = enabled and defer
        if not enabled:
            return
        if not defer:
            feasibility_precheck(graph)
        elif _counts_rule_out(graph):
            _reject(graph)

    def __enter__(self) -> Precheck:
        return self

    @property
    def owed(self) -> Optional[Callable[[], None]]:
        """The call that pays the owed pass, or ``None``."""
        return self._pay if self._owed else None

    def _pay(self) -> None:
        if self._owed:
            self._owed = False
            feasibility_precheck(self._graph)

    def settle(self) -> None:
        """A perfect matching was found: nothing is owed any more."""
        self._owed = False

    def __exit__(self, kind: object, error: object, trace: object) -> None:
        if self._owed and isinstance(error, InfeasibleInstanceError):
            _reject(self._graph)
        if isinstance(error, (SolveTimeout, IterationLimitError)):
            self._pay()


def _reject(graph: WeightedBipartiteGraph) -> NoReturn:
    raise InfeasibleInstanceError(
        f"no matching covers all {graph.s} right vertices"
    )
