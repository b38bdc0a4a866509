"""End-to-end command line behavior through ``main``."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from bimatch import cli
from bimatch.cli import main
from bimatch.core import build_graph, read_instance, write_instance
from bimatch.errors import InfeasibleInstanceError
from bimatch.solve import SolveResult
from bimatch.tracing import read_trace_file, record_trace

from conftest import g0, random_graph


def write_g0(tmp_path):
    path = tmp_path / "g0.txt"
    write_instance(g0(), path)
    return path


def write_infeasible(tmp_path):
    path = tmp_path / "bad.txt"
    write_instance(build_graph(2, 2, [(0, 0, 1), (1, 0, 2)]), path)
    return path


def write_hall_violator(tmp_path):
    # right vertices 0 and 1 are reachable only from left vertex 0; with
    # m >= s only the matching pass, not the edge counts, rejects it
    edges = [(0, 0, 1), (0, 1, 2)]
    edges += [(u, v, 1 + (3 * u + v) % 5) for u in range(4) for v in (2, 3)]
    path = tmp_path / "hall.txt"
    write_instance(build_graph(4, 4, edges), path)
    return path


INFEASIBLE_FILES = [
    pytest.param(write_infeasible, id="isolated-right-vertex"),
    pytest.param(write_hall_violator, id="hall-violator"),
]

# The trace file an infeasible traced solve leaves: the header, no bid.
INFEASIBLE_TRACE_DIGEST = (
    "f269390d5132e6d6e1e139ed157acff15ff52fe4dce7b4706c0b1ec86ae61d83"
)


class TestGen:
    def test_writes_a_readable_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        rc = main(
            [
                "gen", "--model", "er", "--n", "10", "--s", "4",
                "--density", "0.7", "--weights", "u", "--seed", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "wrote 10 x 4 instance" in capsys.readouterr().out
        g = read_instance(out)
        assert (g.n, g.s) == (10, 4)

    def test_same_seed_same_file(self, tmp_path):
        argv = [
            "gen", "--model", "dd", "--n", "12", "--s", "6",
            "--density", "0.5", "--rnorm", "0.4", "--weights", "loh",
            "--plow", "0.3", "--seed", "9",
        ]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_invalid_combination_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "gen", "--model", "er", "--n", "4", "--s", "2",
                "--density", "0.5", "--rnorm", "0.4", "--weights", "u",
                "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSolve:
    @pytest.mark.parametrize("algo", ["auction", "gk", "hungarian"])
    def test_prints_pairs_and_weight(self, tmp_path, capsys, algo):
        rc = main(["solve", "--algo", algo, "--in", str(write_g0(tmp_path))])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["0 0", "1 1", "weight 2"]

    @pytest.mark.parametrize("write", INFEASIBLE_FILES)
    @pytest.mark.parametrize("algo", ["auction", "gk", "hungarian"])
    def test_infeasible_exits_1(self, tmp_path, capsys, algo, write):
        rc = main(["solve", "--algo", algo, "--in", str(write(tmp_path))])
        assert rc == 1
        assert capsys.readouterr().out.strip() == "infeasible"

    @pytest.mark.parametrize("write", INFEASIBLE_FILES)
    @pytest.mark.parametrize("algo", ["auction", "gk"])
    def test_traced_infeasible_run_writes_no_bid(
        self, tmp_path, capsys, algo, write
    ):
        trace = tmp_path / "t.tsv"
        rc = main(["solve", "--algo", algo, "--in", str(write(tmp_path)),
                   "--trace", str(trace)])
        assert rc == 1
        assert capsys.readouterr().out.strip() == "infeasible"
        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        assert digest == INFEASIBLE_TRACE_DIGEST

    def test_trace_files_from_both_solvers_are_identical(self, tmp_path, capsys):
        inst = write_g0(tmp_path)
        ta, tg = tmp_path / "a.tsv", tmp_path / "g.tsv"
        assert main(["solve", "--algo", "auction", "--in", str(inst),
                     "--trace", str(ta)]) == 0
        assert main(["solve", "--algo", "gk", "--in", str(inst),
                     "--trace", str(tg)]) == 0
        capsys.readouterr()
        assert main(["trace-diff", str(ta), str(tg)]) == 0
        assert capsys.readouterr().out.strip() == "identical"

    def test_tracing_the_hungarian_solver_is_an_error(self, tmp_path, capsys):
        rc = main(
            [
                "solve", "--algo", "hungarian",
                "--in", str(write_g0(tmp_path)),
                "--trace", str(tmp_path / "t.tsv"),
            ]
        )
        assert rc == 2
        assert "tracing applies" in capsys.readouterr().err

    def test_rejected_trace_request_leaves_the_file_alone(self, tmp_path, capsys):
        trace = tmp_path / "t.tsv"
        trace.write_bytes(b"kept\n")
        rc = main(
            [
                "solve", "--algo", "hungarian",
                "--in", str(write_g0(tmp_path)),
                "--trace", str(trace),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: no traced solver named 'hungarian': "
            "tracing applies to the auction and gk solvers only\n"
        )
        assert trace.read_bytes() == b"kept\n"

    # Each malformed file, the file line of its first fault, and the
    # message of the reader written one line per edge, before it parsed
    # straight into the adjacency arrays.  That message now follows the
    # path and the file line.
    MALFORMED = {
        "": (1, "header must be 'n s m'"),
        "2 x 1\n0 0 1\n": (1, "bad header ['2', 'x', '1']"),
        "2 2 -1\n": (1, "bad header ['2', '2', '-1']: negative edge count"),
        "0 2 0\n": (1, "need n >= 1 and s >= 1"),
        "2 2 2\n0 0 1\n1 1\n": (3, "edge line 2 must be 'u v w'"),
        "2 2 3\n0 0 x\n1 1\n1 0 1\n": (2, "bad edge line ['0', '0', 'x']"),
        "2 2 3\n0 0 1\n1 1 1\n": (4, "edge line 3 must be 'u v w'"),
        "2 2 1\n0 0 1\n1 1 1\n": (3, "trailing content after the declared edges"),
        "2 2 2\n0 0 1\n2 1 1\n": (3, "left index 2 out of range [0, 2)"),
        "2 2 2\n0 0 1\n1 -1 1\n": (3, "right index -1 out of range [0, 2)"),
        "2 2 3\n0 0 1\n1 1 1\n0 0 2\n": (4, "duplicate edge (0, 0)"),
        # a duplicate and an out-of-range index, in both orders
        "2 2 3\n0 1 1\n0 1 2\n1 5 1\n": (4, "right index 5 out of range [0, 2)"),
        "2 2 3\n1 5 1\n0 1 1\n0 1 2\n": (2, "right index 5 out of range [0, 2)"),
        # the smallest duplicated pair, at its second line
        "3 3 5\n2 2 1\n1 0 1\n2 2 1\n1 0 4\n0 0 0\n": (5, "duplicate edge (1, 0)"),
    }

    @pytest.mark.parametrize(
        "text, message", [(text, msg) for text, (_, msg) in MALFORMED.items()]
    )
    def test_malformed_file_exits_2_with_the_first_fault(
        self, tmp_path, capsys, text, message
    ):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["solve", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        line = self.MALFORMED[text][0]
        assert (captured.out, captured.err) == (
            "",
            f"error: {path}, line {line}: {message}\n",
        )

    def test_trailing_content_is_found_past_blank_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 1\n0 0 1\n\n  \n1 1 1\n")
        with pytest.raises(ValueError) as exc:
            read_instance(path)
        assert str(exc.value) == (
            f"{path}, line 5: trailing content after the declared edges"
        )

    @pytest.mark.parametrize(
        "data, line, position",
        [
            (b"2 2 2\n0 0 1\n1 1 \xc3\xa9\n", 3, 16),
            (b"2 \xff2 1\n0 0 1\n", 1, 2),
            (b"2 2 1\r\n0 0 1\r\n\r\n\x80\n", 4, 16),
            # reported before the bad header on line 1
            (b"2 x 1\n0 0 1\n\x7f\x80", 3, 13),
        ],
    )
    def test_non_ascii_byte_exits_2_naming_the_path_and_line(
        self, tmp_path, capsys, data, line, position
    ):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        assert main(["solve", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            f"error: {path}, line {line}: 'ascii' codec can't decode byte "
            f"{data[position]:#x} in position {position}: ordinal not in "
            "range(128)\n",
        )

    def test_bad_alpha_exits_2(self, tmp_path, capsys):
        for alpha, message in (
            ("1", "alpha must exceed 1, got 1"),
            ("zebra", "cannot parse scaling factor 'zebra'"),
        ):
            rc = main(
                ["solve", "--alpha", alpha, "--in", str(write_g0(tmp_path))]
            )
            assert rc == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_gk_trace_honours_alpha_and_reduction(self, tmp_path, capsys):
        g = build_graph(
            4, 2,
            [(0, 0, 7), (0, 1, 2), (1, 0, 3), (2, 0, 5), (2, 1, 6), (3, 1, 4)],
        )
        inst = tmp_path / "wide.txt"
        write_instance(g, inst)
        custom, default = tmp_path / "custom.tsv", tmp_path / "default.tsv"
        assert main(["solve", "--algo", "gk", "--alpha", "2",
                     "--in", str(inst), "--trace", str(custom)]) == 0
        assert main(["solve", "--algo", "gk", "--in", str(inst),
                     "--trace", str(default)]) == 0
        expected, _ = record_trace("gk", g, Fraction(2))
        assert list(read_trace_file(custom)) == expected
        assert list(read_trace_file(default)) != expected


class TestVerify:
    def test_match_reports_ok(self, tmp_path, capsys):
        rc = main(
            ["verify", "--in", str(write_g0(tmp_path)), "--against", "gk"]
        )
        assert rc == 0
        assert "ok:" in capsys.readouterr().out

    def test_both_infeasible_is_ok(self, tmp_path, capsys):
        rc = main(
            [
                "verify", "--in", str(write_infeasible(tmp_path)),
                "--against", "auction",
            ]
        )
        assert rc == 0
        assert "both report infeasible" in capsys.readouterr().out

    def test_oversized_instance_refused(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        write_instance(
            build_graph(12, 12, [(u, v, 1) for u in range(12) for v in range(12)]),
            path,
        )
        rc = main(["verify", "--in", str(path), "--against", "auction"])
        assert rc == 2
        assert "too large" in capsys.readouterr().err

    def test_a_wrong_weight_is_a_mismatch(self, tmp_path, capsys, monkeypatch):
        real_solve = cli.solve
        monkeypatch.setattr(
            cli,
            "solve",
            lambda graph, algo: SolveResult(real_solve(graph, algo).matching, 5),
        )
        rc = main(["verify", "--in", str(write_g0(tmp_path)), "--against", "gk"])
        assert rc == 1
        assert capsys.readouterr().out == (
            "MISMATCH: brute force optimum 2, gk returned 5\n"
        )

    def test_an_infeasible_verdict_on_a_feasible_file_is_a_mismatch(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(graph, algo):
            raise InfeasibleInstanceError("right vertex 0 cannot be covered")

        monkeypatch.setattr(cli, "solve", refuse)
        rc = main(
            ["verify", "--in", str(write_g0(tmp_path)), "--against", "hungarian"]
        )
        assert rc == 1
        assert capsys.readouterr().out == (
            "MISMATCH: brute force says 2, hungarian says infeasible\n"
        )


class TestTraceDiff:
    def test_divergent_traces_exit_1(self, tmp_path, capsys):
        inst_a = write_g0(tmp_path)
        inst_b = tmp_path / "other.txt"
        write_instance(
            build_graph(2, 2, [(0, 0, 9), (0, 1, 3), (1, 0, 2), (1, 1, 8)]),
            inst_b,
        )
        ta, tb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        main(["solve", "--in", str(inst_a), "--trace", str(ta)])
        main(["solve", "--in", str(inst_b), "--trace", str(tb)])
        capsys.readouterr()
        rc = main(["trace-diff", str(ta), str(tb)])
        assert rc == 1
        assert "event 0" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(
            ["trace-diff", str(tmp_path / "no.tsv"), str(tmp_path / "pe.tsv")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_line_exits_2_naming_file_and_line(self, tmp_path, capsys):
        good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
        main(["solve", "--in", str(write_g0(tmp_path)), "--trace", str(good)])
        text = good.read_text()
        bad.write_text(text + "1\t2\t3\n")
        capsys.readouterr()
        rc = main(["trace-diff", str(good), str(bad)])
        lineno = text.count("\n") + 1
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}, line {lineno}: expected 9 fields, got 3\n"
        )

    @pytest.mark.parametrize("line", [1, 3])
    def test_non_ascii_byte_exits_2_naming_file_and_line(
        self, tmp_path, capsys, line
    ):
        good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
        main(["solve", "--in", str(write_g0(tmp_path)), "--trace", str(good)])
        lines = good.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1][:4] + b"\xc3" + lines[line - 1][4:]
        bad.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["trace-diff", str(good), str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}, line {line}: 'ascii' codec can't decode byte 0xc3 "
            "in position 4: ordinal not in range(128)\n"
        )


# The trace TSV byte for byte, pinned from the writer that formatted each
# field by name.  Each instance is ``random_graph(Random(seed), n, s,
# density, w_lo, w_hi)``; auction and gk must both write the same file.
SQUARE = (1, 12, 12, 0.6, 1, 100)
TRACE_DIGESTS = [
    pytest.param(
        SQUARE, "5",
        "ba3ac913231675b6dfad1016878e9dc3be9fa6f8be3089eff71a78c1eb86552c",
        id="square",
    ),
    pytest.param(
        SQUARE, "7/2",
        "05a30cd0a08678c5998f7c979cf050d1773763be8e46de209ae2ed0884f7e975",
        id="square-alpha-7/2",
    ),
    # the column kernel drops edges before the double construction
    pytest.param(
        (2, 30, 4, 0.8, 1, 100), "5",
        "6ee12ef1f2d6cb3fcc785e4113845c4f2b0ec24101ee64edb6ff90b86b5186a3",
        id="shrinking-30x4",
    ),
    # no column has more than s edges: the construction runs on the full graph
    pytest.param(
        (4, 10, 7, 0.5, 1, 100), "5",
        "889303e5dd178ce899da97dfad416ac43e4de397aca5b670f2ecaf44daf93d92",
        id="non-shrinking-10x7",
    ),
    pytest.param(
        (4, 12, 12, 0.6, -50, 50), "5",
        "e46e13aa1b9bc7b1a1a9b046264762a22e1ea4a5c5be6ca5d8ed4df41c143dfd",
        id="negative",
    ),
    pytest.param(
        (5, 25, 5, 0.7, -1000, 1000), "5",
        "4bdf5009b188a6a846247afd636e93f2764bffdbb90b86b04e8fc77187eeace9",
        id="negative-shrinking-25x5",
    ),
]

# Events 3 and 86 of the square instance's auction trace, as trace-diff
# prints them.
EVENT_3 = (
    "TraceEvent(phase_index=0, step_index={step}, selected_u=3, best_v=0, "
    "best_reduced_cost=481, second_reduced_cost=715, gamma=234, "
    "new_price_v=-494, displaced_u=None)"
)
EVENT_86 = (
    "TraceEvent(phase_index=4, step_index=14, selected_u=11, best_v=11, "
    "best_reduced_cost=1479, second_reduced_cost=1519, gamma=40, "
    "new_price_v=-1039, displaced_u=0)"
)


def solve_traced(tmp_path, shape, algo="auction", alpha="5"):
    seed, n, s, d, w_lo, w_hi = shape
    inst = tmp_path / f"inst-{seed}.txt"
    write_instance(random_graph(random.Random(seed), n, s, d, w_lo, w_hi), inst)
    trace = tmp_path / f"{algo}-{seed}.tsv"
    rc = main(["solve", "--algo", algo, "--alpha", alpha,
               "--in", str(inst), "--trace", str(trace)])
    assert rc == 0
    return trace


def drop_last_two(lines):
    return lines[:-2]


def prefix_step_of_event_3(lines):
    # lines[0] is the header; the step is the second field: 3 becomes 13
    return lines[:4] + [lines[4].replace("\t", "\t1", 1)] + lines[5:]


class TestTraceFormat:
    @pytest.mark.parametrize("algo", ["auction", "gk"])
    @pytest.mark.parametrize("shape, alpha, digest", TRACE_DIGESTS)
    def test_trace_file_bytes(self, tmp_path, algo, shape, alpha, digest):
        trace = solve_traced(tmp_path, shape, algo, alpha)
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "edit, swap, expected",
        [
            pytest.param(list, False, (0, "identical\n"), id="identical"),
            pytest.param(
                drop_last_two, False,
                (1, f"event 86: right trace ended, left has {EVENT_86}\n"),
                id="right-truncated",
            ),
            pytest.param(
                drop_last_two, True,
                (1, f"event 86: left trace ended, right has {EVENT_86}\n"),
                id="left-truncated",
            ),
            pytest.param(
                prefix_step_of_event_3, False,
                (
                    1,
                    f"event 3:\n  left:  {EVENT_3.format(step=3)}\n"
                    f"  right: {EVENT_3.format(step=13)}\n",
                ),
                id="one-changed-event",
            ),
        ],
    )
    def test_trace_diff_output(self, tmp_path, capsys, edit, swap, expected):
        left = solve_traced(tmp_path, SQUARE)
        right = tmp_path / "edited.tsv"
        right.write_text("".join(edit(left.read_text().splitlines(True))))
        if swap:
            left, right = right, left
        capsys.readouterr()
        rc = main(["trace-diff", str(left), str(right)])
        assert (rc, capsys.readouterr().out) == expected


def write_bench_config(tmp_path, **overrides):
    cfg = tmp_path / "cfg.json"
    payload = {
        "config_version": 1,
        "seed_base": 5,
        "edge_models": ["erdos_renyi"],
        "cost_models": ["uniform"],
        "n_values": [6],
        "s_rules": ["n"],
        "densities": [1.0],
        "repetitions": 1,
    }
    payload.update(overrides)
    cfg.write_text(json.dumps(payload))
    return cfg


class TestBench:
    def test_grid_runs_and_reports_outputs(self, tmp_path, capsys):
        cfg = write_bench_config(tmp_path)
        out_dir = tmp_path / "out"
        rc = main(["bench", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "runs.csv" in printed
        assert printed.count("wrote") == 2 and "slices.csv" not in printed
        assert (out_dir / "runs.csv").exists()
        assert (out_dir / "aggregated.csv").exists()
        assert not (out_dir / "slices.csv").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config_version": 1, "zebra": True}))
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_key_exits_2(self, tmp_path, capsys):
        cfg = write_bench_config(tmp_path)
        payload = json.loads(cfg.read_text())
        del payload["seed_base"]
        cfg.write_text(json.dumps(payload))
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "missing config keys: ['seed_base']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("n_values", [6.9]), ("edge_models", "erdos_renyi")]
    )
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_bench_config(tmp_path, **{key: value})
        out_dir = tmp_path / "o"
        rc = main(["bench", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 2
        assert f"config key '{key}' must be a list of" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_a_size_below_one_exits_2_naming_its_key(self, tmp_path, capsys):
        # log_n of 0 is undefined, so the config must fail before the grid expands
        cfg = write_bench_config(tmp_path, n_values=[0], s_rules=["log_n"])
        out_dir = tmp_path / "o"
        rc = main(["bench", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 2
        assert "config key 'n_values' must hold sizes" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_a_repeated_size_exits_2_naming_its_key(self, tmp_path, capsys):
        # the repeat would solve the same seeds again and count them as runs
        cfg = write_bench_config(
            tmp_path,
            n_values=[8, 8],
            algorithms=["auction", "auction"],
            repetitions=2,
        )
        out_dir = tmp_path / "o"
        rc = main(["bench", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config key 'n_values' must not repeat a value" in err
        assert not out_dir.exists()

    def test_bad_cell_exits_2_before_any_job(self, tmp_path, capsys):
        cfg = write_bench_config(tmp_path, densities=[0.5, 1.5])
        out_dir = tmp_path / "o"
        rc = main(
            ["bench", "--config", str(cfg), "--out", str(out_dir), "--progress"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "[bench]" not in err
        assert "outside [0, 1]" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, workers):
        cfg = write_bench_config(tmp_path)
        out_dir = tmp_path / "o"
        rc = main(
            [
                "bench", "--config", str(cfg), "--out", str(out_dir),
                "--workers", workers,
            ]
        )
        assert rc == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not out_dir.exists()
