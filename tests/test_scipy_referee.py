"""Unbalanced solves at size against an outside referee: scipy's LAPJVsp
(``min_weight_full_bipartite_matching``)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimatch.core import WeightedBipartiteGraph, build_graph, validate_matching
from bimatch.errors import InfeasibleInstanceError
from bimatch.feasibility import is_feasible
from bimatch.gen import GenSpec, generate
from bimatch.reduction import column_kernel
from bimatch.solve import ALGORITHMS, solve

np = pytest.importorskip("numpy")
sparse = pytest.importorskip("scipy.sparse")
csgraph = pytest.importorskip("scipy.sparse.csgraph")


def scipy_weight(g: WeightedBipartiteGraph) -> int:
    """Optimum cover weight by LAPJVsp.

    scipy drops explicit zeros, so every weight is shifted by
    ``c = max|w| + 1`` first; a cover has exactly ``s`` edges, so the shift
    moves every cover by the same ``s * c``.  The weight is summed from the
    graph's own integers along scipy's matching.
    """
    c = g.max_abs_weight + 1
    assert g.s * (g.max_abs_weight + c) < 2**53  # float64 sums stay exact
    mat = sparse.csr_matrix(
        (
            np.asarray(g.adj_w, dtype=np.float64) + c,
            np.asarray(g.adj_v),
            np.asarray(g.adj_off),
        ),
        shape=(g.n, g.s),
    )
    rows, cols = csgraph.min_weight_full_bipartite_matching(mat)
    assert sorted(cols.tolist()) == list(range(g.s))
    return sum(g.weight(int(u), int(v)) for u, v in zip(rows, cols))


SHAPES = [
    # s = sqrt(n): the column kernel shrinks the graph before balancing
    pytest.param(
        dict(model="erdos_renyi", n=900, s=30, d=0.5), True, id="kernel-900x30"
    ),
    pytest.param(
        dict(model="dispersed_degree", n=400, s=20, d=0.5, r_norm=0.5),
        True,
        id="kernel-dd-400x20",
    ),
    # near-square and dense: no column has more than s edges, so the double
    # construction runs on the full graph
    pytest.param(
        dict(model="erdos_renyi", n=120, s=110, d=0.5),
        False,
        id="near-square-120x110",
    ),
]
WEIGHTS = [
    dict(weight_model="uniform"),
    dict(weight_model="low_or_high", p_low=0.5),
]


def assert_every_solver_matches_scipy(g: WeightedBipartiteGraph, where: str):
    expected = scipy_weight(g)
    for algo in ALGORITHMS:
        result = solve(g, algo)
        assert validate_matching(
            g, result.matching, require_perfect=True
        ) is None, f"{algo}, {where}"
        assert result.weight == expected, f"{algo}, {where}"


@pytest.mark.parametrize("shape, shrinks", SHAPES)
def test_generated_instances(shape, shrinks):
    for seed in (71, 72):
        for weights in WEIGHTS:
            where = f"seed {seed}, {weights}"
            g = generate(GenSpec(seed=seed, **shape, **weights))
            assert is_feasible(g), where
            assert (column_kernel(g) is not None) == shrinks, where
            assert_every_solver_matches_scipy(g, where)


def test_columns_competing_for_the_same_cheap_vertices():
    # Complete graph where every column ranks the left vertices alike
    # (weight 1000 * u plus noise below 1000): the kernel keeps exactly the
    # s cheapest left vertices, and the optimum needs every one of them.
    for seed in (81, 82):
        rng = random.Random(seed)
        n, s = 600, 24
        g = build_graph(
            n, s,
            [
                (u, v, 1000 * u + rng.randrange(1000))
                for u in range(n)
                for v in range(s)
            ],
        )
        assert column_kernel(g)[1] == tuple(range(s))
        assert_every_solver_matches_scipy(g, f"seed {seed}")


# s < n at a few thousand left vertices, where the column kernel shrinks the
# graph to at most s**2 edges: s = ceil(sqrt(n)) and s = ceil(log2(n)).
SWEEP = [
    pytest.param(n, rule, model, id=f"{model}-{n}-s={rule}")
    for n in (1500, 4000)
    for rule in ("sqrt", "log")
    for model in ("erdos_renyi", "dispersed_degree")
]


@pytest.mark.parametrize("n, rule, model", SWEEP)
def test_seeded_sweep_with_a_shrinking_kernel(n, rule, model):
    s = math.ceil(math.sqrt(n) if rule == "sqrt" else math.log2(n))
    knobs = {"r_norm": 0.5} if model == "dispersed_degree" else {}
    for seed, weights in (
        (n + 1, dict(weight_model="uniform")),
        (n + 2, dict(weight_model="low_or_high", p_low=0.3)),
    ):
        where = f"seed {seed}, {model} n={n} s={s}, {weights}"
        spec = GenSpec(model=model, n=n, s=s, d=0.2, seed=seed, **knobs, **weights)
        g = generate(spec)
        assert is_feasible(g), where
        assert column_kernel(g) is not None, where
        assert_every_solver_matches_scipy(g, where)


@st.composite
def covering_instances(draw):
    """s <= n up to n = 60, any density, and weights either uniform over a
    drawn range (negatives included) or on two drawn points (ties)."""
    n = draw(st.integers(1, 60))
    s = draw(st.integers(1, n))
    density = draw(st.floats(0.02, 1.0))
    lo = draw(st.integers(-1000, 1000))
    hi = draw(st.integers(lo, 1000))
    two_point = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return build_graph(
        n, s,
        [
            (u, v, rng.choice((lo, hi)) if two_point else rng.randint(lo, hi))
            for u in range(n)
            for v in range(s)
            if rng.random() < density
        ],
    )


@settings(max_examples=300, deadline=None)
@given(covering_instances())
def test_hypothesis_sweep(g):
    if is_feasible(g):
        assert_every_solver_matches_scipy(g, f"{g.n}x{g.s}, m={g.m}")
        return
    for algo in ALGORITHMS:
        with pytest.raises(InfeasibleInstanceError):
            solve(g, algo)
