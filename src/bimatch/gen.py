"""Random instance generators.

Two structure models:

``erdos_renyi``
    Each of the ``n * s`` possible edges appears independently with
    probability ``d``.

``dispersed_degree``
    Every left vertex draws a degree uniformly from ``[c - r, c + r]``
    around ``c = round(d * s)``, then picks that many distinct right
    endpoints uniformly.  Expected density stays ``d`` while the radius
    ``r`` controls how ragged the degrees are; the user-facing knob is the
    normalized radius ``r_norm`` in ``[0, 1]``, a fraction of the largest
    radius keeping the interval inside ``[0, s]``.

Three weight models layered on a structure: ``uniform`` on 1..100000,
``uniform_low_high`` a ``p_low`` mixture of uniform 1..1000 and uniform
1001..100000, ``low_or_high`` a ``p_low`` mixture of the two point weights
1 and 100000.

Structure and weights draw from separate seeded streams, so one seed yields
the same edge set under every weight model.

Both structure models write their rows straight into the compressed
adjacency arrays, already sorted and valid, without building edge tuples.
``erdos_renyi`` takes its Bernoulli rows in blocks of several rows per
``random`` call.  That keeps the stream: the generator fills an array in
row order, one 64-bit draw per double, so a ``(k, s)`` block consumes
exactly the doubles of ``k`` successive ``random(s)`` calls, and the graph
of a seed does not depend on the block size.  ``dispersed_degree`` makes
its draws one vertex at a time, in the same order as ever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import WeightedBipartiteGraph
from .rng import GRAPH_STREAM, WEIGHT_STREAM, make_rng

EDGE_MODELS = ("erdos_renyi", "dispersed_degree")
WEIGHT_MODELS = ("uniform", "uniform_low_high", "low_or_high")

WEIGHT_MAX = 100_000
WEIGHT_LOW_MAX = 1_000

# Cells per block of the Erdos-Renyi draw: bounds its temporary arrays at
# half a megabyte of doubles, however large n * s is.
_BLOCK_CELLS = 1 << 16


def round_half_up(x: float) -> int:
    """Nearest integer, ties upward, for nonnegative input."""
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class GenSpec:
    """One generator cell: structure model, shape, weight model, seed.

    ``r_norm`` applies only to ``dispersed_degree``; ``p_low`` only to the
    two split weight models.  Inapplicable knobs must stay ``None`` so a
    spec never silently carries settings that had no effect.
    """

    model: str
    n: int
    s: int
    d: float
    weight_model: str
    seed: int
    r_norm: Optional[float] = None
    p_low: Optional[float] = None

    def __post_init__(self) -> None:
        if self.model not in EDGE_MODELS:
            raise ValueError(f"unknown edge model {self.model!r}")
        if self.weight_model not in WEIGHT_MODELS:
            raise ValueError(f"unknown weight model {self.weight_model!r}")
        if self.n < 1 or self.s < 1:
            raise ValueError("need n >= 1 and s >= 1")
        if not 0.0 <= self.d <= 1.0:
            raise ValueError(f"density parameter {self.d} outside [0, 1]")
        if self.model == "dispersed_degree":
            if self.r_norm is None:
                raise ValueError("dispersed_degree requires r_norm")
            if not 0.0 <= self.r_norm <= 1.0:
                raise ValueError(f"r_norm {self.r_norm} outside [0, 1]")
        elif self.r_norm is not None:
            raise ValueError("r_norm only applies to dispersed_degree")
        if self.weight_model in ("uniform_low_high", "low_or_high"):
            if self.p_low is None:
                raise ValueError(f"{self.weight_model} requires p_low")
            if not 0.0 <= self.p_low <= 1.0:
                raise ValueError(f"p_low {self.p_low} outside [0, 1]")
        elif self.p_low is not None:
            raise ValueError("p_low only applies to the split weight models")


def dispersion_radius(s: int, d: float, r_norm: float) -> int:
    """Absolute radius for a normalized one, kept within the legal bound.

    Rounds half up, except that the result never exceeds
    ``s * min(d, 1 - d)`` (the cap that keeps every degree in ``[0, s]``),
    so a half-up tie at the cap clamps down instead of rounding over it.
    """
    cap = s * min(d, 1.0 - d)
    return min(round_half_up(r_norm * cap), math.floor(cap))


def erdos_renyi(n: int, s: int, d: float, seed: int) -> WeightedBipartiteGraph:
    """Bernoulli(d) per pair; weights all zero (assign a weight model next).

    Row ``u`` is ``random(s) < d`` on the structure stream.  The rows are
    drawn ``_BLOCK_CELLS // s`` at a time (at least one) as a ``(k, s)``
    array: the generator fills it in row order from the same stream, so a
    block consumes exactly the doubles that ``k`` successive ``random(s)``
    calls would, and the graph does not depend on the block size.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"density parameter {d} outside [0, 1]")
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    rng = make_rng(seed, GRAPH_STREAM)
    block = max(1, _BLOCK_CELLS // s)
    off = [0]
    adj_v: list[int] = []
    for first in range(0, n, block):
        k = min(block, n - first)
        rows, cols = np.nonzero(rng.random((k, s)) < d)
        adj_v += cols.tolist()
        off += (np.cumsum(np.bincount(rows, minlength=k)) + off[-1]).tolist()
    return WeightedBipartiteGraph.from_csr(n, s, off, adj_v, (0,) * len(adj_v))


def dispersed_degree(
    n: int, s: int, d: float, r: int, seed: int
) -> WeightedBipartiteGraph:
    """Uniform degree in ``[round(d*s) - r, round(d*s) + r]`` per left
    vertex, neighbors a uniform subset; weights all zero.

    ``r`` must satisfy ``0 <= r <= s * min(d, 1 - d)`` so the interval
    stays within ``[0, s]``.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"density parameter {d} outside [0, 1]")
    if r < 0 or r > s * min(d, 1.0 - d):
        raise ValueError(
            f"radius {r} outside [0, s*min(d, 1-d)] = [0, {s * min(d, 1.0 - d)}]"
        )
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    c = round_half_up(d * s)
    lo, hi = c - r, c + r
    assert 0 <= lo <= hi <= s
    rng = make_rng(seed, GRAPH_STREAM)
    degrees = rng.integers(lo, hi + 1, size=n)
    pool = list(range(s))
    off = [0]
    adj_v: list[int] = []
    for k in degrees.tolist():
        if k:
            # Partial Fisher-Yates over a reusable pool: k swaps select a
            # uniform k-subset, then the swaps are undone in reverse so the
            # pool is pristine for the next vertex. O(k) per vertex.
            swaps = list(enumerate(rng.integers(0, s - np.arange(k)).tolist()))
            for i, j in swaps:
                j += i
                pool[i], pool[j] = pool[j], pool[i]
            adj_v += sorted(pool[:k])
            for i, j in reversed(swaps):
                j += i
                pool[i], pool[j] = pool[j], pool[i]
        off.append(len(adj_v))
    return WeightedBipartiteGraph.from_csr(n, s, off, adj_v, (0,) * len(adj_v))


def _reweight(
    graph: WeightedBipartiteGraph, weights: np.ndarray
) -> WeightedBipartiteGraph:
    # Adjacency arrays are already sorted; swap the weight column.
    return WeightedBipartiteGraph(
        graph.n, graph.s, graph.adj_off, graph.adj_v, tuple(weights.tolist())
    )


def assign_uniform_weights(
    graph: WeightedBipartiteGraph, seed: int
) -> WeightedBipartiteGraph:
    """I.i.d. uniform weights on {1, ..., 100000}, in adjacency order."""
    if graph.m == 0:
        raise ValueError("no edges to weight")
    rng = make_rng(seed, WEIGHT_STREAM)
    return _reweight(graph, rng.integers(1, WEIGHT_MAX + 1, size=graph.m))


def assign_uniform_low_high(
    graph: WeightedBipartiteGraph, p_low: float, seed: int
) -> WeightedBipartiteGraph:
    """Bernoulli(p_low) split: uniform {1..1000} low, {1001..100000} high."""
    if graph.m == 0:
        raise ValueError("no edges to weight")
    if not 0.0 <= p_low <= 1.0:
        raise ValueError(f"p_low {p_low} outside [0, 1]")
    rng = make_rng(seed, WEIGHT_STREAM)
    m = graph.m
    low_mask = rng.random(m) < p_low
    n_low = int(low_mask.sum())
    w = np.empty(m, dtype=np.int64)
    w[low_mask] = rng.integers(1, WEIGHT_LOW_MAX + 1, size=n_low)
    w[~low_mask] = rng.integers(WEIGHT_LOW_MAX + 1, WEIGHT_MAX + 1, size=m - n_low)
    return _reweight(graph, w)


def assign_low_or_high(
    graph: WeightedBipartiteGraph, p_low: float, seed: int
) -> WeightedBipartiteGraph:
    """Bernoulli(p_low) split onto the two point weights 1 and 100000."""
    if graph.m == 0:
        raise ValueError("no edges to weight")
    if not 0.0 <= p_low <= 1.0:
        raise ValueError(f"p_low {p_low} outside [0, 1]")
    rng = make_rng(seed, WEIGHT_STREAM)
    low_mask = rng.random(graph.m) < p_low
    return _reweight(graph, np.where(low_mask, 1, WEIGHT_MAX))


def generate(spec: GenSpec) -> WeightedBipartiteGraph:
    """Build the instance for ``spec``; same spec, same instance.

    An edgeless draw (possible at tiny densities) is returned as-is, since
    there is nothing to weight.
    """
    if spec.model == "erdos_renyi":
        structure = erdos_renyi(spec.n, spec.s, spec.d, spec.seed)
    else:
        assert spec.r_norm is not None
        r = dispersion_radius(spec.s, spec.d, spec.r_norm)
        structure = dispersed_degree(spec.n, spec.s, spec.d, r, spec.seed)
    if structure.m == 0:
        return structure
    if spec.weight_model == "uniform":
        return assign_uniform_weights(structure, spec.seed)
    assert spec.p_low is not None
    if spec.weight_model == "uniform_low_high":
        return assign_uniform_low_high(structure, spec.p_low, spec.seed)
    return assign_low_or_high(structure, spec.p_low, spec.seed)
