"""End-to-end command line behavior through ``main``."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from bimatch.cli import main
from bimatch.core import build_graph, read_instance, write_instance
from bimatch.tracing import read_trace_file, record_trace

from conftest import g0


def write_g0(tmp_path):
    path = tmp_path / "g0.txt"
    write_instance(g0(), path)
    return path


def write_infeasible(tmp_path):
    path = tmp_path / "bad.txt"
    write_instance(build_graph(2, 2, [(0, 0, 1), (1, 0, 2)]), path)
    return path


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

    def test_infeasible_exits_1(self, tmp_path, capsys):
        rc = main(["solve", "--in", str(write_infeasible(tmp_path))])
        assert rc == 1
        assert capsys.readouterr().out.strip() == "infeasible"

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

    # The messages and exit codes of the reader written one line per
    # edge, before it parsed straight into the adjacency arrays.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "header must be 'n s m'"),
            ("2 x 1\n0 0 1\n", "bad header ['2', 'x', '1']"),
            ("2 2 -1\n", "bad header ['2', '2', '-1']: negative edge count"),
            ("0 2 0\n", "need n >= 1 and s >= 1"),
            ("2 2 2\n0 0 1\n1 1\n", "edge line 2 must be 'u v w'"),
            ("2 2 3\n0 0 x\n1 1\n1 0 1\n", "bad edge line ['0', '0', 'x']"),
            ("2 2 3\n0 0 1\n1 1 1\n", "edge line 3 must be 'u v w'"),
            ("2 2 1\n0 0 1\n1 1 1\n", "trailing content after the declared edges"),
            ("2 2 2\n0 0 1\n2 1 1\n", "left index 2 out of range [0, 2)"),
            ("2 2 2\n0 0 1\n1 -1 1\n", "right index -1 out of range [0, 2)"),
            ("2 2 3\n0 0 1\n1 1 1\n0 0 2\n", "duplicate edge (0, 0)"),
            # a duplicate and an out-of-range index, in both orders
            ("2 2 3\n0 1 1\n0 1 2\n1 5 1\n", "right index 5 out of range [0, 2)"),
            ("2 2 3\n1 5 1\n0 1 1\n0 1 2\n", "right index 5 out of range [0, 2)"),
            ("3 3 5\n2 2 1\n1 0 1\n2 2 1\n1 0 4\n0 0 0\n", "duplicate edge (1, 0)"),
        ],
    )
    def test_malformed_file_exits_2_with_the_first_fault(
        self, tmp_path, capsys, text, message
    ):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["solve", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_bad_alpha_exits_2(self, tmp_path, capsys):
        rc = main(
            ["solve", "--alpha", "1", "--in", str(write_g0(tmp_path))]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

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
        assert (out_dir / "runs.csv").exists()
        assert (out_dir / "aggregated.csv").exists()
        assert (out_dir / "slices.csv").exists()

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
