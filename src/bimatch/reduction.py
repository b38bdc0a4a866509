"""Reduction from unbalanced coverage to balanced perfect matching.

The production solvers want a square instance whose perfect matchings
correspond to V-covering matchings of the original.  One construction,
``double``: mirror the instance, so the left side is ``U + V'`` and the
right side ``V + U'``, with the original edges, their mirrored copies
``(n + v, s + u)``, and a zero-weight bridge ``(u, s + u)`` per original
left vertex.  A perfect matching picks a covering matching on each copy
and bridges the left vertices unused by both; its weight is exactly twice
the covering optimum, and the original-copy half projects back directly.
A balanced input passes through untouched (``identity``).

Column kernel
    Before the construction, :func:`build_reduction` shrinks an
    unbalanced input (``s < n``) to its column kernel: each right vertex
    ``v`` keeps its ``s`` cheapest edges, ties broken by (weight, left
    index), or all of them when its degree is at most ``s``.  Left vertices
    left without an edge are dropped and the rest renumbered in increasing
    original order, so the kernel has ``n' <= min(n, s**2)`` left vertices
    and ``m' <= s**2`` edges, and its rows stay sorted by right index.  The
    construction then runs on the kernel (even a square one, so that the
    balanced optimum is always twice the covering optimum), and
    :func:`project_matching` maps the kernel's left vertices back.

    Exactness: let ``K_v`` be the ``s`` kept left vertices of ``v`` and take
    any covering matching in which ``v`` is matched to some ``u`` outside
    ``K_v``.  The other ``s - 1`` right vertices hold at most ``s - 1`` left
    vertices, so some ``u'`` in ``K_v`` is free.  Every kept edge of ``v``
    is at most as heavy as every dropped one, so moving ``v`` from ``u`` to
    ``u'`` does not raise the weight, and it removes one pair outside the
    kernel.  Repeating this turns any covering matching into one inside the
    kernel that weighs no more, so the kernel keeps both feasibility and
    the optimum weight.  Conversely, with fewer than ``s`` left vertices in
    the kernel no covering matching exists; the kernel stage then raises
    :class:`InfeasibleInstanceError`.

    The kernel is used only when it drops at least one edge; otherwise the
    input gets the plain construction.  Balanced input never reaches it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Optional

from .core import Matching, WeightedBipartiteGraph
from .errors import InfeasibleInstanceError, check_deadline


@dataclass(frozen=True)
class BalancedReduction:
    """A balanced graph plus the recipe to project matchings back.

    ``orig_n`` and ``orig_s`` are the shape of the graph the reduction was
    built for.  When it was built on that graph's column kernel, ``persons``
    maps each kernel left vertex to its original index.  ``kind`` is not a
    field: it follows from that shape on every read.
    """

    graph: WeightedBipartiteGraph
    orig_n: int
    orig_s: int
    persons: Optional[tuple[int, ...]] = None

    @property
    def kind(self) -> str:
        """``"identity"`` for a square original (the graph passes through
        untouched), else ``"double"`` (the mirror-and-bridge construction)."""
        return "identity" if self.orig_n == self.orig_s else "double"


def _require_reducible(graph: WeightedBipartiteGraph) -> None:
    if graph.s > graph.n:
        raise ValueError(
            f"s = {graph.s} > n = {graph.n}: no covering matching can exist"
        )


def _mirror(graph: WeightedBipartiteGraph) -> WeightedBipartiteGraph:
    n, s = graph.n, graph.s
    off, adj_v, adj_w = graph.adj_off, graph.adj_v, graph.adj_w
    # Rows u < n: the original row, then the bridge (u, s + u, 0), whose
    # index s + u exceeds every original right index.
    big_off = [0]
    big_v: list[int] = []
    big_w: list[int] = []
    for u in range(n):
        lo, hi = off[u], off[u + 1]
        big_v += adj_v[lo:hi]
        big_v.append(s + u)
        big_w += adj_w[lo:hi]
        big_w.append(0)
        big_off.append(len(big_v))
    # Rows n + v: the mirrored copies (n + v, s + u) in ascending u, i.e.
    # the transpose; a stable sort by v keeps each column's u ascending.
    owner = [u for u in range(n) for _ in range(off[u], off[u + 1])]
    by_v = sorted(range(graph.m), key=adj_v.__getitem__)
    cols = [adj_v[i] for i in by_v]
    base = len(big_v)
    big_v += [s + owner[i] for i in by_v]
    big_w += [adj_w[i] for i in by_v]
    big_off += [base + bisect_left(cols, v) for v in range(1, s + 1)]
    return WeightedBipartiteGraph.from_csr(n + s, s + n, big_off, big_v, big_w)


def double_balanced(graph: WeightedBipartiteGraph) -> BalancedReduction:
    """Mirror-and-bridge construction; identity when already balanced."""
    _require_reducible(graph)
    n, s = graph.n, graph.s
    if n == s:
        return BalancedReduction(graph, n, s)
    return BalancedReduction(_mirror(graph), n, s)


def column_kernel(
    graph: WeightedBipartiteGraph, deadline: Optional[float] = None
) -> Optional[tuple[WeightedBipartiteGraph, tuple[int, ...]]]:
    """The column kernel of ``graph`` and its left-vertex map, or ``None``
    when every right vertex has degree at most ``s`` (nothing to drop).

    Raises :class:`InfeasibleInstanceError` when fewer than ``s`` left
    vertices have an edge, and :class:`SolveTimeout` when ``deadline``
    passes; the clock is read once per column.
    """
    n, s = graph.n, graph.s
    off, adj_v, adj_w = graph.adj_off, graph.adj_v, graph.adj_w
    # One int key w * n + u per edge: keys order as (weight, left index),
    # and divmod(key, n) gives (w, u) back, negative weights included.
    cols: list[list[int]] = [[] for _ in range(s)]
    for u in range(n):
        for i in range(off[u], off[u + 1]):
            cols[adj_v[i]].append(adj_w[i] * n + u)
    if all(len(col) <= s for col in cols):
        # Only here can fewer than s left vertices remain: a column that
        # drops an edge keeps s distinct ones.
        reached = sum(off[u] < off[u + 1] for u in range(n))
        if reached < s:
            raise InfeasibleInstanceError(
                f"only {reached} left vertices have edges, fewer than the "
                f"{s} right vertices; no covering matching exists"
            )
        return None
    kept = []
    for col in cols:
        check_deadline(deadline, "balancing reduction (column kernel)")
        kept.append(heapq.nsmallest(s, col))
    persons = sorted({key % n for col in kept for key in col})
    index = {u: i for i, u in enumerate(persons)}
    # Columns are visited in ascending v, so every row comes out sorted.
    row_v: list[list[int]] = [[] for _ in persons]
    row_w: list[list[int]] = [[] for _ in persons]
    for v, col in enumerate(kept):
        for key in col:
            w, u = divmod(key, n)
            row_v[index[u]].append(v)
            row_w[index[u]].append(w)
    kernel = WeightedBipartiteGraph.from_csr(
        len(persons),
        s,
        accumulate(map(len, row_v), initial=0),
        chain.from_iterable(row_v),
        chain.from_iterable(row_w),
    )
    return kernel, tuple(persons)


def build_reduction(
    graph: WeightedBipartiteGraph,
    kind: str = "double",
    deadline: Optional[float] = None,
) -> BalancedReduction:
    """The ``double`` construction, on the column kernel when that is
    smaller.

    An unbalanced input always gets the construction, even when its kernel
    is square, so the balanced optimum is always twice the covering
    optimum.  ``kind`` must be ``"double"``; it stays for callers that
    name the construction.  With ``s > n`` no column can drop an edge, and
    :func:`column_kernel` raises :class:`InfeasibleInstanceError`.
    ``deadline`` reaches the kernel's per-column probe.
    """
    if kind != "double":
        raise ValueError(f"unknown reduction {kind!r}")
    n, s = graph.n, graph.s
    if n == s:
        return BalancedReduction(graph, n, s)
    kernel = column_kernel(graph, deadline)
    small, persons = (graph, None) if kernel is None else kernel
    return BalancedReduction(_mirror(small), n, s, persons)


def project_matching(
    reduction: BalancedReduction, matching: Matching
) -> Matching:
    """Covering matching on the original graph from a perfect one on the
    balanced graph.

    Requires the input to be perfect; guarantees the output covers every
    original right vertex.
    """
    big = reduction.graph
    if matching.size != big.s:
        raise ValueError(
            f"need a perfect matching on the balanced graph "
            f"(size {matching.size} != {big.s})"
        )
    n, s = reduction.orig_n, reduction.orig_s
    if reduction.kind == "identity":
        return matching.copy()
    persons = reduction.persons
    reach = n if persons is None else len(persons)
    out = Matching(n, s)
    for v in range(s):
        u = matching.match_of_v[v]
        assert u is not None
        if not 0 <= u < reach:
            raise ValueError(f"right vertex {v} matched outside the original U")
        out.assign(u if persons is None else persons[u], v)
    return out
