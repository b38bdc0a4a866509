"""Instance generators: structure models, weight models, determinism."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimatch.core import build_graph, density, write_instance
from bimatch.gen import (
    _BLOCK_CELLS,
    WEIGHT_LOW_MAX,
    WEIGHT_MAX,
    GenSpec,
    assign_low_or_high,
    assign_uniform_low_high,
    assign_uniform_weights,
    dispersed_degree,
    dispersion_radius,
    erdos_renyi,
    generate,
    round_half_up,
)
from bimatch.rng import GRAPH_STREAM, make_rng

from conftest import complete_graph


class TestGenSpecValidation:
    def test_inapplicable_r_norm_rejected(self):
        with pytest.raises(ValueError, match="r_norm"):
            GenSpec(
                model="erdos_renyi", n=4, s=4, d=0.5,
                weight_model="uniform", seed=0, r_norm=0.5,
            )

    def test_missing_r_norm_rejected(self):
        with pytest.raises(ValueError, match="r_norm"):
            GenSpec(
                model="dispersed_degree", n=4, s=4, d=0.5,
                weight_model="uniform", seed=0,
            )

    def test_inapplicable_p_low_rejected(self):
        with pytest.raises(ValueError, match="p_low"):
            GenSpec(
                model="erdos_renyi", n=4, s=4, d=0.5,
                weight_model="uniform", seed=0, p_low=0.5,
            )

    def test_missing_p_low_rejected(self):
        with pytest.raises(ValueError, match="p_low"):
            GenSpec(
                model="erdos_renyi", n=4, s=4, d=0.5,
                weight_model="low_or_high", seed=0,
            )

    def test_unknown_models_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(model="grid", n=4, s=4, d=0.5, weight_model="uniform", seed=0)
        with pytest.raises(ValueError):
            GenSpec(model="erdos_renyi", n=4, s=4, d=0.5, weight_model="exp", seed=0)


class TestErdosRenyi:
    def test_d_one_is_complete(self):
        g = erdos_renyi(6, 4, 1.0, seed=0)
        assert g.m == 24 and density(g) == 1

    def test_d_zero_is_empty(self):
        assert erdos_renyi(6, 4, 0.0, seed=0).m == 0

    def test_density_concentrates(self):
        g = erdos_renyi(100, 100, 0.5, seed=12345)
        assert 0.4 <= density(g) <= 0.6

    def test_deterministic(self):
        assert erdos_renyi(20, 20, 0.3, seed=7) == erdos_renyi(20, 20, 0.3, seed=7)
        assert erdos_renyi(20, 20, 0.3, seed=7) != erdos_renyi(20, 20, 0.3, seed=8)


class TestDispersionRadius:
    def test_round_half_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(2.49) == 2
        assert round_half_up(0.0) == 0

    @given(
        s=st.integers(1, 500),
        d=st.floats(0.0, 1.0, allow_nan=False),
        r_norm=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_radius_and_interval_within_bounds(self, s, d, r_norm):
        r = dispersion_radius(s, d, r_norm)
        assert 0 <= r <= s * min(d, 1 - d) + 1e-9
        c = round_half_up(d * s)
        assert 0 <= c - r and c + r <= s

    def test_full_norm_hits_floor_of_cap(self):
        # s=10, d=0.25: cap = 2.5, so the radius tops out at 2
        assert dispersion_radius(10, 0.25, 1.0) == 2


class TestDispersedDegree:
    def test_zero_radius_fixes_degrees(self):
        g = dispersed_degree(8, 10, 0.5, 0, seed=3)
        assert all(g.degree(u) == 5 for u in range(8))

    def test_d_one_forces_complete(self):
        g = dispersed_degree(5, 7, 1.0, 0, seed=3)
        assert g.m == 35

    def test_degrees_inside_interval_and_mean_near_target(self):
        g = dispersed_degree(100, 100, 0.5, 25, seed=99)
        degs = [g.degree(u) for u in range(100)]
        assert all(25 <= k <= 75 for k in degs)
        assert abs(sum(degs) / 100 - 50) < 10

    def test_no_duplicate_neighbors(self):
        g = dispersed_degree(50, 30, 0.4, 8, seed=5)
        for u in range(g.n):
            vs = [v for v, _ in g.neighbors(u)]
            assert len(vs) == len(set(vs))

    def test_radius_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            dispersed_degree(4, 10, 0.5, 6, seed=0)
        with pytest.raises(ValueError, match="radius"):
            dispersed_degree(4, 10, 0.5, -1, seed=0)

    def test_deterministic(self):
        a = dispersed_degree(30, 30, 0.4, 5, seed=21)
        b = dispersed_degree(30, 30, 0.4, 5, seed=21)
        assert a == b


@pytest.mark.parametrize(
    "make",
    [
        lambda n, s: erdos_renyi(n, s, 0.5, seed=0),
        lambda n, s: dispersed_degree(n, s, 0.5, 0, seed=0),
    ],
    ids=["erdos_renyi", "dispersed_degree"],
)
@pytest.mark.parametrize("n, s", [(0, 3), (-1, 3), (3, 0), (0, 0)])
def test_generators_reject_empty_sides(make, n, s):
    with pytest.raises(ValueError, match=r"need n >= 1 and s >= 1"):
        make(n, s)


@pytest.mark.parametrize(
    "make",
    [
        lambda d: erdos_renyi(4, 4, d, seed=0),
        lambda d: dispersed_degree(4, 4, d, 0, seed=0),
    ],
    ids=["erdos_renyi", "dispersed_degree"],
)
@pytest.mark.parametrize("d", [-0.1, 1.5])
def test_generators_reject_a_density_outside_unit_interval(make, d):
    with pytest.raises(
        ValueError, match=rf"^density parameter {d} outside \[0, 1\]$"
    ):
        make(d)


@pytest.mark.parametrize(
    "assign",
    [assign_uniform_low_high, assign_low_or_high],
    ids=["uniform_low_high", "low_or_high"],
)
@pytest.mark.parametrize("p_low", [-0.1, 1.5])
def test_split_weight_models_reject_p_low_outside_unit_interval(assign, p_low):
    with pytest.raises(ValueError, match=rf"^p_low {p_low} outside \[0, 1\]$"):
        assign(complete_graph(3, 2), p_low, seed=0)


class TestWeightModels:
    def test_uniform_range_and_mean(self):
        g = assign_uniform_weights(complete_graph(400, 250), seed=17)
        assert g.m == 100_000
        assert all(1 <= w <= WEIGHT_MAX for w in g.adj_w)
        mean = sum(g.adj_w) / g.m
        assert abs(mean - 50_000.5) / 50_000.5 < 0.05

    def test_uniform_low_high_split(self):
        g = assign_uniform_low_high(complete_graph(400, 250), 0.5, seed=17)
        lows = sum(1 for w in g.adj_w if w <= WEIGHT_LOW_MAX)
        assert all(1 <= w <= WEIGHT_MAX for w in g.adj_w)
        assert all(
            1 <= w <= WEIGHT_LOW_MAX or WEIGHT_LOW_MAX + 1 <= w <= WEIGHT_MAX
            for w in g.adj_w
        )
        assert 0.45 <= lows / g.m <= 0.55

    def test_uniform_low_high_extremes(self):
        g_all_low = assign_uniform_low_high(complete_graph(10, 10), 1.0, seed=3)
        assert all(w <= WEIGHT_LOW_MAX for w in g_all_low.adj_w)
        g_all_high = assign_uniform_low_high(complete_graph(10, 10), 0.0, seed=3)
        assert all(w > WEIGHT_LOW_MAX for w in g_all_high.adj_w)

    def test_low_or_high_point_weights(self):
        g = assign_low_or_high(complete_graph(30, 30), 0.4, seed=9)
        assert set(g.adj_w) <= {1, WEIGHT_MAX}
        assert set(assign_low_or_high(complete_graph(5, 5), 1.0, seed=1).adj_w) == {1}
        assert set(assign_low_or_high(complete_graph(5, 5), 0.0, seed=1).adj_w) == {
            WEIGHT_MAX
        }

    def test_edgeless_graph_rejected(self):
        empty = build_graph(3, 3, [])
        for fn in (
            lambda: assign_uniform_weights(empty, 0),
            lambda: assign_uniform_low_high(empty, 0.5, 0),
            lambda: assign_low_or_high(empty, 0.5, 0),
        ):
            with pytest.raises(ValueError, match="no edges"):
                fn()


class TestGenerate:
    def test_same_spec_same_instance(self, tmp_path):
        spec = GenSpec(
            model="dispersed_degree", n=40, s=30, d=0.4,
            weight_model="uniform_low_high", seed=123, r_norm=0.3, p_low=0.2,
        )
        a, b = generate(spec), generate(spec)
        assert a == b
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_instance(a, pa)
        write_instance(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_structure_shared_across_weight_models(self):
        base = dict(model="erdos_renyi", n=30, s=25, d=0.5, seed=77)
        u = generate(GenSpec(weight_model="uniform", **base))
        loh = generate(GenSpec(weight_model="low_or_high", p_low=0.5, **base))
        assert u.adj_off == loh.adj_off and u.adj_v == loh.adj_v
        assert u.adj_w != loh.adj_w

    def test_edgeless_draw_passes_through(self):
        g = generate(
            GenSpec(model="erdos_renyi", n=3, s=3, d=0.0, weight_model="uniform", seed=0)
        )
        assert g.m == 0


# Reference generators: the per-row and per-edge loops the block-drawn
# generators replaced.  Same seed, same graph.


def erdos_renyi_per_row(n, s, d, seed):
    rng = make_rng(seed, GRAPH_STREAM)
    edges = []
    for u in range(n):
        for v in np.flatnonzero(rng.random(s) < d):
            edges.append((u, int(v), 0))
    return build_graph(n, s, edges)


def dispersed_degree_per_edge(n, s, d, r, seed):
    c = round_half_up(d * s)
    rng = make_rng(seed, GRAPH_STREAM)
    degrees = rng.integers(c - r, c + r + 1, size=n)
    pool = list(range(s))
    edges = []
    for u in range(n):
        k = int(degrees[u])
        if k == 0:
            continue
        offsets = rng.integers(0, s - np.arange(k))
        for i in range(k):
            j = i + int(offsets[i])
            pool[i], pool[j] = pool[j], pool[i]
        for i in range(k):
            edges.append((u, pool[i], 0))
        for i in range(k - 1, -1, -1):
            j = i + int(offsets[i])
            pool[i], pool[j] = pool[j], pool[i]
    return build_graph(n, s, edges)


ROWS_PER_BLOCK_AT_300 = _BLOCK_CELLS // 300

# sha256 of each instance file, computed before the generators and the
# writer were rewritten, so that a change to either shows here.
PINNED_DIGESTS = {
    ("erdos_renyi", "uniform"):
        "91d042133d2f66964813e714ff95e574aa11dc2d681a9089a0f5c34b6c5e8f09",
    ("erdos_renyi", "uniform_low_high"):
        "3087a7d5d5a006ef0a8d38d2d09073165cae2190278b16f303015c5ab7789ee4",
    ("erdos_renyi", "low_or_high"):
        "4eaef2ede28b6a33556207a803f8cd3c5f27a7f52effbbc6d7390e7b2f4d9067",
    ("dispersed_degree", "uniform"):
        "a72af6e5325ceab9cbefd62879521df81e29458e1c830be2c77b93fef6036bbf",
    ("dispersed_degree", "uniform_low_high"):
        "65d4c4f417d07f811f92d05cd2eb2ed2289e6452affa51c3cb77690a249ece15",
    ("dispersed_degree", "low_or_high"):
        "8a0644101d032db9b4cee0837b981b2c053efb45d0f93be0205304f17f8435b4",
}


class TestBlockDrawsKeepTheStream:
    @pytest.mark.parametrize(
        "n, s, d",
        [
            (1, 9, 0.5),
            (1, 1, 1.0),
            (30, 20, 0.0),
            (30, 20, 1.0),
            (2 * ROWS_PER_BLOCK_AT_300 + 7, 300, 0.3),  # a short last block
            (ROWS_PER_BLOCK_AT_300, 300, 0.5),  # exactly one full block
            (3, _BLOCK_CELLS + 17, 0.01),  # more cells than a block: one row each
        ],
    )
    def test_erdos_renyi_equals_per_row_draws(self, n, s, d):
        for seed in (0, 5, 2**40 + 3):
            assert erdos_renyi(n, s, d, seed) == erdos_renyi_per_row(n, s, d, seed)

    @pytest.mark.parametrize(
        "n, s, d, r",
        [
            (1, 9, 0.5, 2),
            (1, 1, 1.0, 0),
            (30, 20, 0.0, 0),
            (30, 20, 1.0, 0),
            (300, 40, 0.3, 12),
            (50, 7, 0.5, 3),
        ],
    )
    def test_dispersed_degree_equals_per_edge_draws(self, n, s, d, r):
        for seed in (0, 5, 2**40 + 3):
            assert dispersed_degree(n, s, d, r, seed) == dispersed_degree_per_edge(
                n, s, d, r, seed
            )

    @pytest.mark.parametrize("model, weights", sorted(PINNED_DIGESTS))
    def test_instance_file_digest_is_pinned(self, tmp_path, model, weights):
        spec = GenSpec(
            model=model, n=40, s=30, d=0.3, weight_model=weights, seed=2024,
            r_norm=0.5 if model == "dispersed_degree" else None,
            p_low=None if weights == "uniform" else 0.3,
        )
        path = tmp_path / "g.txt"
        write_instance(generate(spec), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == PINNED_DIGESTS[model, weights]
