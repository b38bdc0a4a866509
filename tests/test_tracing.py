"""Trace events, TSV round trips, and solver-vs-solver comparison."""

from __future__ import annotations

import pytest

from bimatch.tracing import (
    TraceDivergence,
    TraceEvent,
    TraceFileWriter,
    compare_trace_files,
    compare_traces,
    format_event,
    parse_event,
    read_trace_file,
    record_trace,
)

from conftest import g0, random_feasible_graphs


def ev(step=0, **kw):
    base = dict(
        phase_index=0,
        step_index=step,
        selected_u=0,
        best_v=1,
        best_reduced_cost=3,
        second_reduced_cost=7,
        gamma=4,
        new_price_v=-5,
        displaced_u=None,
    )
    base.update(kw)
    return TraceEvent(**base)


class TestTraceEvent:
    def test_gamma_consistency_enforced(self):
        with pytest.raises(ValueError, match="second - best"):
            ev(gamma=5)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ev(best_reduced_cost=9, second_reduced_cost=3, gamma=-6)

    def test_line_round_trip(self):
        e = ev(displaced_u=4)
        assert parse_event(format_event(e)) == e

    def test_none_displaced_encodes_as_minus_one(self):
        line = format_event(ev())
        assert line.endswith("\t-1")
        assert parse_event(line).displaced_u is None

    def test_parse_rejects_short_lines(self):
        with pytest.raises(ValueError, match="fields"):
            parse_event("1\t2\t3")


class TestTraceFiles:
    def test_file_round_trip(self, tmp_path):
        events = [ev(step=i, new_price_v=-i - 1) for i in range(5)]
        path = tmp_path / "t.tsv"
        with open(path, "w") as fh:
            writer = TraceFileWriter(fh)
            for e in events:
                writer.append(e)
        text = path.read_text()
        assert text.startswith("# phase\tstep")
        assert list(read_trace_file(path)) == events

    def test_compare_trace_files(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.tsv", "b.tsv", "c.tsv"))
        for path, steps in ((a, 3), (b, 3), (c, 2)):
            with open(path, "w") as fh:
                w = TraceFileWriter(fh)
                for i in range(steps):
                    w.append(ev(step=i))
        assert compare_trace_files(a, b) is None
        div = compare_trace_files(a, c)
        assert div is not None and div.index == 2 and div.right is None


class TestCompareTraces:
    def test_identical(self):
        assert compare_traces([ev(0), ev(1)], [ev(0), ev(1)]) is None

    def test_first_differing_event(self):
        div = compare_traces([ev(0), ev(1)], [ev(0), ev(1, selected_u=9)])
        assert div == TraceDivergence(1, ev(1), ev(1, selected_u=9))
        assert "left" in div.describe()

    def test_length_mismatch_reports_the_short_side(self):
        div = compare_traces([ev(0)], [ev(0), ev(1)])
        assert div is not None
        assert div.index == 1 and div.left is None and div.right == ev(1)
        assert "left trace ended" in div.describe()

    def test_empty_traces_are_equal(self):
        assert compare_traces([], []) is None


class TestRecordTrace:
    def test_both_solvers_trace_the_reference_instance_identically(self):
        ev_a, w_a = record_trace("auction", g0())
        ev_g, w_g = record_trace("gk", g0())
        assert w_a == w_g == 2
        assert compare_traces(ev_a, ev_g) is None
        assert len(ev_a) >= 2

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="no traced solver"):
            record_trace("hungarian", g0())

    def test_trace_equivalence_on_random_instances(self):
        for g in random_feasible_graphs(9001, 40, max_n=7):
            ev_a, w_a = record_trace("auction", g)
            ev_g, w_g = record_trace("gk", g)
            assert w_a == w_g
            assert compare_traces(ev_a, ev_g) is None
