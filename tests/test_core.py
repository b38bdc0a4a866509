"""Graph construction, matchings, reduced costs, slackness, file format."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimatch.core import (
    Matching,
    WeightedBipartiteGraph,
    build_graph,
    check_eps_cs,
    density,
    matching_weight,
    read_instance,
    reduced_cost,
    validate_matching,
    write_instance,
)

from conftest import complete_graph, g0, random_graph


class TestBuildGraph:
    def test_adjacency_is_sorted_and_sliced(self):
        g = build_graph(2, 3, [(1, 2, 30), (1, 0, 10), (0, 1, 5)])
        assert g.m == 3
        assert list(g.neighbors(0)) == [(1, 5)]
        assert list(g.neighbors(1)) == [(0, 10), (2, 30)]
        assert g.max_abs_weight == 30

    def test_maximum_is_derived_from_the_weights(self):
        g = WeightedBipartiteGraph(2, 3, (0, 1, 3), (2, 0, 1), (4, -9, 7))
        assert g.max_abs_weight == 9
        assert WeightedBipartiteGraph(2, 2, (0, 0, 0), (), ()).max_abs_weight == 0
        assert g == build_graph(2, 3, [(0, 2, 4), (1, 0, -9), (1, 1, 7)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(2, 2, [(0, 0, 1), (0, 0, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="left index"):
            build_graph(2, 2, [(2, 0, 1)])
        with pytest.raises(ValueError, match="right index"):
            build_graph(2, 2, [(0, 2, 1)])
        with pytest.raises(ValueError, match="right index"):
            build_graph(2, 2, [(0, -1, 1)])

    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError):
            build_graph(0, 1, [])
        with pytest.raises(ValueError):
            build_graph(1, 0, [])

    def test_empty_neighborhoods_are_legal(self):
        g = build_graph(3, 2, [(0, 0, 1)])
        assert g.degree(1) == 0 and g.degree(2) == 0

    def test_shuffled_edges_build_the_sorted_graph(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9), rng.randint(1, 9), 0.5, -9, 9)
            edges = list(g.iter_edges())
            rng.shuffle(edges)
            assert build_graph(g.n, g.s, edges) == g
            assert build_graph(g.n, g.s, iter(edges)) == g

    @pytest.mark.parametrize(
        "edges, message",
        [
            # an out-of-range index beats a duplicate, wherever each comes
            ([(0, 1, 1), (0, 1, 2), (1, 5, 1)], r"right index 5 out of range"),
            ([(1, 5, 1), (0, 1, 1), (0, 1, 2)], r"right index 5 out of range"),
            ([(0, 1, 1), (0, 1, 2), (3, 0, 1)], r"left index 3 out of range"),
            # among faults of one kind, the first in input order ...
            ([(0, 0, 1), (0, 9, 1), (7, 0, 1)], r"right index 9 out of range"),
            ([(0, 0, 1), ("x", 0, 1), (7, 0, 1)], r"invalid literal"),
            ([(0, 0, 1), (7, 0, 1), ("x", 0, 1)], r"left index 7 out of range"),
            ([(9, 0, "x")], r"invalid literal"),
            # ... except duplicates: the smallest duplicated pair
            ([(1, 1, 0), (0, 1, 0), (1, 1, 5), (0, 1, 3)], r"duplicate edge \(0, 1\)"),
        ],
    )
    def test_first_fault_wins(self, edges, message):
        with pytest.raises(ValueError, match=message):
            build_graph(2, 2, edges)

    def test_coerces_with_int(self):
        g = build_graph(2, 2, [("1", 1.0, True), (0, 0, "-4")])
        assert g == build_graph(2, 2, [(0, 0, -4), (1, 1, 1)])
        assert all(type(x) is int for x in g.adj_v + g.adj_w)

    def test_weight_lookup(self):
        g = g0()
        assert g.weight(0, 1) == 3
        with pytest.raises(ValueError, match="not an edge"):
            build_graph(2, 2, [(0, 0, 1)]).weight(0, 1)


class TestDensity:
    def test_complete_2x2(self):
        assert density(g0()) == 1

    def test_single_edge_2x2(self):
        assert density(build_graph(2, 2, [(0, 1, 7)])) == Fraction(1, 4) == 0.25

    def test_complete_ks(self):
        assert density(complete_graph(5, 3)) == 1


class TestMatching:
    def test_assign_unassign_roundtrip(self):
        m = Matching(2, 2)
        m.assign(0, 1)
        assert m.size == 1 and m.match_of_u[0] == 1 and m.match_of_v[1] == 0
        m.unassign(0, 1)
        assert m.size == 0 and m.match_of_u[0] is None

    def test_size_follows_direct_edits_and_copies(self):
        m = Matching(3, 2)
        m.match_of_u[2], m.match_of_v[0] = 0, 2
        assert m.size == 1
        c = m.copy()
        c.assign(0, 1)
        assert (m.size, c.size) == (1, 2)
        c.match_of_u[2] = c.match_of_v[0] = None
        assert (m.size, c.size) == (1, 1)

    def test_double_assign_rejected(self):
        m = Matching(2, 2)
        m.assign(0, 0)
        with pytest.raises(ValueError):
            m.assign(0, 1)
        with pytest.raises(ValueError):
            m.assign(1, 0)

    def test_pairs_sorted_by_right_index(self):
        m = Matching(3, 3)
        m.assign(2, 0)
        m.assign(0, 2)
        assert m.pairs() == [(2, 0), (0, 2)]


class TestMatchingWeight:
    def test_empty_sum(self):
        assert matching_weight(g0(), Matching(2, 2)) == 0

    def test_both_perfect_matchings_of_g0(self):
        g = g0()
        diag = Matching(2, 2)
        diag.assign(0, 0)
        diag.assign(1, 1)
        anti = Matching(2, 2)
        anti.assign(0, 1)
        anti.assign(1, 0)
        assert matching_weight(g, diag) == 2
        assert matching_weight(g, anti) == 5


class TestValidateMatching:
    def test_ok_perfect(self):
        g = g0()
        m = Matching(2, 2)
        m.assign(0, 0)
        m.assign(1, 1)
        assert validate_matching(g, m, require_perfect=True) is None

    def test_uncovered_right_vertex(self):
        g = g0()
        m = Matching(2, 2)
        m.assign(0, 0)
        assert validate_matching(g, m) is None
        err = validate_matching(g, m, require_perfect=True)
        assert err is not None and "uncovered right vertex" in err

    def test_non_edge_detected(self):
        g = build_graph(2, 2, [(0, 0, 1), (1, 1, 1)])
        m = Matching(2, 2)
        m.assign(0, 1)  # consistent pairing, but (0,1) is not an edge
        err = validate_matching(g, m)
        assert err is not None and "not an edge" in err

    def test_inconsistent_pairing_detected(self):
        g = g0()
        m = Matching(2, 2)
        m.assign(0, 0)
        m.match_of_v[1] = 0  # corrupt by hand
        err = validate_matching(g, m)
        assert err is not None and "inconsistent" in err

    @pytest.mark.parametrize(
        "side, partner, message",
        [
            ("u", 7, "left vertex 0 matched to out-of-range 7"),
            ("u", -1, "left vertex 0 matched to out-of-range -1"),
            ("v", 7, "right vertex 0 matched to out-of-range 7"),
            ("v", -1, "right vertex 0 matched to out-of-range -1"),
        ],
    )
    def test_out_of_range_partner_detected(self, side, partner, message):
        m = Matching(2, 2)  # nothing on the other side points back
        getattr(m, f"match_of_{side}")[0] = partner
        assert validate_matching(g0(), m) == message


class TestReducedCost:
    def test_zero_price(self):
        g = build_graph(1, 1, [(0, 0, 5)])
        assert reduced_cost(g, [0], 0, 0) == 5

    def test_cancellation(self):
        g = build_graph(1, 1, [(0, 0, 5)])
        assert reduced_cost(g, [5], 0, 0) == 0

    def test_negative_price(self):
        g = build_graph(1, 1, [(0, 0, 1)])
        assert reduced_cost(g, [-3], 0, 0) == 4

    def test_non_edge_rejected(self):
        g = build_graph(2, 2, [(0, 0, 1)])
        with pytest.raises(ValueError):
            reduced_cost(g, [0, 0], 0, 1)


class TestCheckEpsCs:
    def test_single_edge_always_holds(self):
        g = build_graph(1, 1, [(0, 0, 5)])
        m = Matching(1, 1)
        m.assign(0, 0)
        for p in ([0], [100], [-40]):
            assert check_eps_cs(g, p, m, 0)

    def test_g0_antidiagonal_at_eps0_and_eps2(self):
        g = g0()
        m = Matching(2, 2)
        m.assign(0, 1)
        m.assign(1, 0)
        assert not check_eps_cs(g, [0, 0], m, 0)
        assert check_eps_cs(g, [0, 0], m, 2)

    def test_empty_matching_vacuous(self):
        assert check_eps_cs(g0(), [0, 0], Matching(2, 2), 0)

    def test_matched_non_edge_fails(self):
        g = build_graph(2, 2, [(0, 0, 1), (1, 1, 1)])
        m = Matching(2, 2)
        m.match_of_u[:] = [1, 0]
        m.match_of_v[:] = [1, 0]
        assert not check_eps_cs(g, [0, 0], m, 100)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            check_eps_cs(g0(), [0, 0], Matching(2, 2), -1)

    @given(
        seed=st.integers(0, 10_000),
        eps1=st.integers(0, 8),
        delta=st.integers(0, 8),
        shift=st.integers(-50, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_eps_and_shift_invariant(self, seed, eps1, delta, shift):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 6), rng.randint(1, 6), 0.7, 1, 20)
        m = Matching(g.n, g.s)
        # greedily match whatever fits to get a nontrivial matching
        for u in range(g.n):
            for v, _ in g.neighbors(u):
                if m.match_of_u[u] is None and m.match_of_v[v] is None:
                    m.assign(u, v)
        p = [rng.randint(-30, 30) for _ in range(g.s)]
        base = check_eps_cs(g, p, m, eps1)
        if base:
            assert check_eps_cs(g, p, m, eps1 + delta)
        shifted = [x + shift for x in p]
        assert check_eps_cs(g, shifted, m, eps1) == base


def write_per_edge(graph, path):
    """The writer as it was, one write per edge: the reference format."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{graph.n} {graph.s} {graph.m}\n")
        for u, v, w in graph.iter_edges():
            fh.write(f"{u} {v} {w}\n")


class TestInstanceFile:
    @pytest.mark.parametrize(
        "n, s, edges",
        [
            (1, 1, [(0, 0, 7)]),
            (1, 3, [(0, 0, -1), (0, 2, 0)]),
            (3, 3, []),
            (5, 3, [(0, 1, -5), (2, 0, 3), (2, 2, -100000), (3, 1, 0)]),  # empty rows
            (4, 2, [(0, 0, 1), (1, 1, 2)]),  # empty last rows
        ],
    )
    def test_writer_matches_the_per_edge_writer(self, tmp_path, n, s, edges):
        g = build_graph(n, s, edges)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_instance(g, a)
        write_per_edge(g, b)
        assert a.read_bytes() == b.read_bytes()
        assert read_instance(a) == g

    def test_writer_matches_the_per_edge_writer_on_random_graphs(self, tmp_path):
        rng = random.Random(4)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 12), rng.randint(1, 12), 0.4, -50, 50)
            a, b = tmp_path / "a.txt", tmp_path / "b.txt"
            write_instance(g, a)
            write_per_edge(g, b)
            assert a.read_bytes() == b.read_bytes()

    def test_roundtrip(self, tmp_path):
        g = g0()
        path = tmp_path / "g0.txt"
        write_instance(g, path)
        assert path.read_text() == "2 2 4\n0 0 1\n0 1 3\n1 0 2\n1 1 1\n"
        assert read_instance(path) == g

    def test_roundtrip_random(self, tmp_path):
        rng = random.Random(3)
        g = random_graph(rng, 7, 5, 0.5, -9, 9)
        path = tmp_path / "rand.txt"
        write_instance(g, path)
        assert read_instance(path) == g

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n")
        with pytest.raises(ValueError, match="header"):
            read_instance(path)

    def test_negative_edge_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 -1\n")
        with pytest.raises(ValueError, match="header"):
            read_instance(path)

    def test_short_edge_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1 1\n0 0\n")
        with pytest.raises(ValueError, match="edge line"):
            read_instance(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1 1\n0 0 5\n0 0 6\n")
        with pytest.raises(ValueError, match="trailing"):
            read_instance(path)

    def test_trailing_content_after_a_blank_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 1\n0 0 5\n\n1 1 7\n")
        with pytest.raises(ValueError, match="trailing"):
            read_instance(path)

    def test_unsorted_file_reads_as_the_sorted_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 2 4\n1 1 1\n0 1 3\n1 0 2\n0 0 1\n")
        assert read_instance(path) == g0()

    def test_reads_what_int_reads(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 2 4\n0 0 +1\n0\t1 3\n1 0 0_2\n  1 1 01  \n")
        assert read_instance(path) == g0()

    def test_trailing_blank_lines_are_fine(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("1 1 1\n0 0 5\n\n  \n")
        assert read_instance(path).m == 1
