"""Coverage precheck against known shapes and the brute-force reference."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimatch.core import build_graph
from bimatch.errors import InfeasibleInstanceError
from bimatch.feasibility import (
    feasibility_precheck,
    is_feasible,
    maximum_matching_size,
)
from bimatch.oracle import brute_force_optimum

from conftest import complete_graph, g0, random_graph


class TestKnownShapes:
    def test_complete_2x2(self):
        assert is_feasible(g0())

    def test_isolated_right_vertex(self):
        g = build_graph(2, 2, [(0, 0, 1), (1, 0, 2)])
        assert not is_feasible(g)
        with pytest.raises(InfeasibleInstanceError):
            feasibility_precheck(g)

    def test_star_needs_s_equal_one(self):
        assert is_feasible(complete_graph(1, 1))
        for s in (2, 3, 5):
            assert not is_feasible(complete_graph(1, s))

    def test_more_right_than_left(self):
        assert not is_feasible(complete_graph(2, 3))

    def test_hall_violator(self):
        # two left vertices own all edges into three right vertices
        g = build_graph(
            4, 3, [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 1, 1), (1, 2, 1)]
        )
        assert not is_feasible(g)

    def test_edgeless(self):
        assert not is_feasible(build_graph(3, 2, []))

    def test_maximum_matching_size_counts(self):
        g = build_graph(3, 3, [(0, 0, 1), (1, 0, 1), (2, 2, 1)])
        assert maximum_matching_size(g) == 2


class TestAgainstBruteForce:
    def test_random_instances_agree(self):
        rng = random.Random(424242)
        for _ in range(400):
            n, s = rng.randint(1, 7), rng.randint(1, 7)
            g = random_graph(rng, n, s, rng.choice([0.15, 0.35, 0.6]))
            if s > g.n:
                assert not is_feasible(g)
                continue
            assert is_feasible(g) == (brute_force_optimum(g) is not None)


@st.composite
def bipartite_graphs(draw):
    """Random shapes: s above, equal to or below n, densities from edgeless
    to complete, so isolated vertices on either side and full rows both
    occur."""
    n = draw(st.integers(1, 40))
    s = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.02, 0.08, 0.2, 0.5, 0.9, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_graph(random.Random(seed), n, s, density)


class TestAgainstScipy:
    @settings(max_examples=400, deadline=None)
    @given(bipartite_graphs())
    def test_size_matches_scipy(self, g):
        np = pytest.importorskip("numpy")
        sparse = pytest.importorskip("scipy.sparse")
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        mat = sparse.csr_matrix(
            (np.ones(g.m, dtype=np.int8), list(g.adj_v), list(g.adj_off)),
            shape=(g.n, g.s),
        )
        row_of_col = csgraph.maximum_bipartite_matching(mat, perm_type="row")
        assert maximum_matching_size(g) == int(np.count_nonzero(row_of_col >= 0))


def staircase(n: int, last_edge: bool = True):
    """Left ``u`` sees ``u`` and ``u + 1``; the last left vertex sees 0 and 1.

    Greedy matching gives each ``u < n - 1`` the object ``u`` and strands the
    last left vertex; each of its augmenting paths climbs the whole
    staircase to the free object ``n - 1``.  Without the edge ``(n - 2, n - 1)`` that
    object is isolated and the search must exhaust every layer instead.
    """
    edges = [(u, u, 1) for u in range(n - 1)]
    edges += [(u, u + 1, 1) for u in range(n - 2)]
    if last_edge:
        edges.append((n - 2, n - 1, 1))
    edges += [(n - 1, 0, 1), (n - 1, 1, 1)]
    return build_graph(n, n, edges)


class TestLongAugmentingPaths:
    @pytest.mark.parametrize("last_edge, size", [(True, 2000), (False, 1999)])
    def test_staircase(self, last_edge, size):
        g = staircase(2000, last_edge)
        t0 = time.perf_counter()
        assert maximum_matching_size(g) == size
        assert time.perf_counter() - t0 < 10.0
        assert is_feasible(g) == last_edge
