"""Grid expansion, deterministic seeding, run rows, and CSV outputs."""

from __future__ import annotations

import csv
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from bimatch import bench
from bimatch.bench import (
    BenchConfig,
    Job,
    aggregate,
    expand_jobs,
    load_config,
    right_side_size,
    run_grid,
    run_job,
)
from bimatch.gen import GenSpec
from bimatch.scaling import DEFAULT_ALPHA
from bimatch.solve import ALGORITHMS, SolveResult

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def small_config(**overrides):
    base = dict(
        seed_base=7,
        edge_models=("erdos_renyi",),
        cost_models=("uniform",),
        n_values=(8,),
        s_rules=("n",),
        densities=(1.0,),
        r_norms=(),
        p_lows=(),
        repetitions=2,
    )
    base.update(overrides)
    return BenchConfig(**base)


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestRightSideSize:
    def test_log_rule(self):
        assert right_side_size("log_n", 1) == 1
        assert right_side_size("log_n", 6) == 3
        assert right_side_size("log_n", 1024) == 10

    def test_sqrt_rule(self):
        assert right_side_size("sqrt_n", 2) == 1
        assert right_side_size("sqrt_n", 9) == 3
        assert right_side_size("sqrt_n", 1000) == 32

    def test_full_rule(self):
        assert right_side_size("n", 17) == 17

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown s rule"):
            right_side_size("half", 10)


class TestConfigValidation:
    def test_unknown_edge_model(self):
        with pytest.raises(ValueError, match="edge model"):
            small_config(edge_models=("small_world",))

    def test_unknown_cost_model(self):
        with pytest.raises(ValueError, match="cost model"):
            small_config(cost_models=("gaussian",))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            small_config(algorithms=("simplex",))

    def test_dispersed_degree_requires_radius(self):
        with pytest.raises(ValueError, match="r_norm"):
            small_config(edge_models=("dispersed_degree",), r_norms=())

    def test_split_cost_models_require_p_low(self):
        with pytest.raises(ValueError, match="p_low"):
            small_config(cost_models=("low_or_high",), p_lows=())

    def test_time_limit_must_be_positive(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="time_limit"):
                small_config(time_limit=bad)

    def test_repetitions_must_be_positive(self):
        with pytest.raises(ValueError, match="repetitions"):
            small_config(repetitions=0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_sizes_must_be_positive(self, n):
        # log_n and sqrt_n of such a size would raise a math domain error
        with pytest.raises(ValueError, match="'n_values' must hold sizes"):
            small_config(n_values=(8, n), s_rules=("log_n", "sqrt_n"))

    @pytest.mark.parametrize(
        "key, values",
        [
            ("edge_models", ("erdos_renyi", "erdos_renyi")),
            ("cost_models", ("uniform", "uniform")),
            ("n_values", (8, 6, 8)),
            ("s_rules", ("n", "n")),
            ("densities", (1.0, 0.5, 1.0)),
            ("r_norms", (0.5, 0.5)),
            ("p_lows", (0.25, 0.25)),
            ("algorithms", ("auction", "auction")),
        ],
    )
    def test_repeated_values_are_rejected_by_key(self, key, values):
        # a repeat would solve the same seeds again as further repetitions
        with pytest.raises(ValueError, match=f"'{key}' must not repeat a value"):
            small_config(**{key: values})


class TestLoadConfig:
    def write(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return path

    def base_payload(self):
        return {
            "config_version": 1,
            "seed_base": 42,
            "edge_models": ["erdos_renyi"],
            "cost_models": ["uniform"],
            "n_values": [16],
            "s_rules": ["sqrt_n"],
            "densities": [0.5],
        }

    def test_round_trip(self, tmp_path):
        payload = self.base_payload()
        payload["alpha"] = "7/2"
        payload["time_limit"] = 2.5
        cfg = load_config(self.write(tmp_path, payload))
        assert cfg.seed_base == 42
        assert cfg.alpha == Fraction(7, 2)
        assert cfg.time_limit == 2.5
        assert cfg.repetitions == 10
        assert cfg.algorithms == ALGORITHMS

    def test_unknown_keys_rejected(self, tmp_path):
        payload = self.base_payload()
        payload["n"] = [16]
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(self.write(tmp_path, payload))

    def test_version_required(self, tmp_path):
        payload = self.base_payload()
        del payload["config_version"]
        with pytest.raises(ValueError, match="config_version"):
            load_config(self.write(tmp_path, payload))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_values", [6.9]),
            ("n_values", [True]),
            ("edge_models", "erdos_renyi"),
            ("algorithms", ["gk", 3]),
            ("densities", ["0.5"]),
            ("seed_base", 4.0),
            ("repetitions", True),
            ("time_limit", "60"),
            ("alpha", True),
            ("alpha", [5]),
        ],
    )
    def test_mistyped_values_are_rejected_by_key(self, tmp_path, key, value):
        payload = self.base_payload()
        payload[key] = value
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            load_config(self.write(tmp_path, payload))

    @pytest.mark.parametrize(
        "key",
        [
            "edge_models",
            "cost_models",
            "n_values",
            "s_rules",
            "densities",
            "algorithms",
        ],
    )
    def test_empty_axes_are_rejected_by_key(self, tmp_path, key):
        payload = self.base_payload()
        payload[key] = []
        with pytest.raises(ValueError, match=f"config key '{key}' must not be empty"):
            load_config(self.write(tmp_path, payload))

    def test_integers_are_accepted_as_floats(self, tmp_path):
        payload = self.base_payload()
        payload["densities"] = [1, 0.5]
        payload["time_limit"] = 60
        cfg = load_config(self.write(tmp_path, payload))
        assert cfg.densities == (1.0, 0.5)
        assert cfg.time_limit == 60.0

    @pytest.mark.parametrize(
        "key, value",
        [("n_values", [16, 16]), ("densities", [1, 1.0]), ("algorithms", ["gk", "gk"])],
    )
    def test_repeated_values_are_rejected_by_key(self, tmp_path, key, value):
        # densities repeat once converted to floats
        payload = self.base_payload()
        payload[key] = value
        with pytest.raises(ValueError, match=f"config key '{key}' must not repeat"):
            load_config(self.write(tmp_path, payload))


class TestCommittedConfigs:
    """Both shipped grids load and expand, with pinned sizes and seeds."""

    @pytest.mark.parametrize(
        "name, count, first_seed, last_seed",
        [
            ("bench_desk.json", 2268, 16047320399562874338, 7879239395058821674),
            ("bench_full.json", 10080, 1504562149103984197, 3200720892465110452),
        ],
    )
    def test_expands_to_pinned_grid(self, name, count, first_seed, last_seed):
        jobs = expand_jobs(load_config(SCRIPTS / name))
        assert len(jobs) == count
        assert (jobs[0].spec.seed, jobs[-1].spec.seed) == (first_seed, last_seed)


class TestExpandJobs:
    def grid_config(self, seed_base=7):
        return small_config(
            seed_base=seed_base,
            edge_models=("erdos_renyi", "dispersed_degree"),
            cost_models=("uniform", "low_or_high"),
            n_values=(16,),
            s_rules=("log_n", "n"),
            densities=(0.5,),
            r_norms=(0.1, 0.5),
            p_lows=(0.3,),
            repetitions=2,
        )

    def test_inapplicable_knobs_are_skipped_not_crossed(self):
        jobs = expand_jobs(self.grid_config())
        # er contributes 1 radius option, dd contributes 2; each cost model
        # contributes one p_low option; 2 s rules; 2 repetitions
        assert len(jobs) == (1 + 2) * 2 * 2 * 2
        for job in jobs:
            if job.spec.model == "erdos_renyi":
                assert job.spec.r_norm is None
            else:
                assert job.spec.r_norm in (0.1, 0.5)
            if job.spec.weight_model == "uniform":
                assert job.spec.p_low is None
            else:
                assert job.spec.p_low == 0.3

    def test_s_follows_the_rule(self):
        for job in expand_jobs(self.grid_config()):
            assert job.spec.s == right_side_size(job.s_rule, job.spec.n)

    def test_seeds_are_deterministic_and_distinct_per_repetition(self):
        jobs_a = expand_jobs(self.grid_config())
        jobs_b = expand_jobs(self.grid_config())
        assert [j.spec.seed for j in jobs_a] == [j.spec.seed for j in jobs_b]
        by_cell: dict[tuple, set[int]] = {}
        for j in jobs_a:
            key = (
                j.spec.model, j.spec.weight_model, j.s_rule, j.spec.r_norm,
                j.spec.p_low,
            )
            by_cell.setdefault(key, set()).add(j.spec.seed)
        assert all(len(seeds) == 2 for seeds in by_cell.values())

    def test_seed_base_shifts_every_seed(self):
        seeds_a = sorted(j.spec.seed for j in expand_jobs(self.grid_config(7)))
        seeds_b = sorted(j.spec.seed for j in expand_jobs(self.grid_config(8)))
        assert seeds_a != seeds_b
        assert all(b - a == 1 for a, b in zip(seeds_a, seeds_b))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(densities=(0.5, 1.5)),
            dict(edge_models=("dispersed_degree",), r_norms=(0.1, 1.2)),
            dict(cost_models=("low_or_high",), p_lows=(0.3, -0.1)),
        ],
    )
    def test_out_of_range_cell_is_rejected_up_front(self, overrides):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            expand_jobs(small_config(**overrides))


def make_job(algorithms=ALGORITHMS, time_limit=None, **spec_overrides):
    spec = dict(
        model="erdos_renyi",
        n=8,
        s=8,
        d=1.0,
        weight_model="uniform",
        seed=1234,
    )
    spec.update(spec_overrides)
    return Job(
        spec=GenSpec(**spec),
        s_rule="n",
        repetition=0,
        algorithms=algorithms,
        time_limit=time_limit,
        alpha=DEFAULT_ALPHA,
    )


class TestRunJob:
    def test_all_algorithms_agree_and_report_ok(self):
        rows = run_job(make_job())
        assert [r["algorithm"] for r in rows] == list(ALGORITHMS)
        assert all(r["status"] == "ok" for r in rows)
        weights = {r["weight"] for r in rows}
        assert len(weights) == 1
        for r in rows:
            assert float(str(r["millis"])) >= 0.0

    def test_infeasible_instance_reports_every_algorithm(self):
        rows = run_job(make_job(d=0.0))
        assert [r["status"] for r in rows] == ["infeasible"] * len(ALGORITHMS)
        assert all(r["weight"] == "" and r["millis"] == "" for r in rows)

    def test_timed_out_solvers_are_censored_at_the_budget(self):
        job = make_job(
            n=64,
            s=64,
            algorithms=("auction", "gk"),
            time_limit=1e-9,
        )
        rows = run_job(job)
        assert [r["status"] for r in rows] == ["censored", "censored"]
        assert all(r["millis"] == f"{1e-9 * 1000.0:.3f}" for r in rows)

    def test_rerun_is_bit_identical_apart_from_timing(self):
        def strip(rows):
            return [
                {k: v for k, v in row.items() if k != "millis"}
                for row in rows
            ]

        assert strip(run_job(make_job())) == strip(run_job(make_job()))

    def test_a_disagreeing_weight_aborts_the_job(self, monkeypatch):
        real_solve = bench.solve

        def gk_off_by_one(graph, algo, **kwargs):
            result = real_solve(graph, algo, **kwargs)
            if algo == "gk":
                return SolveResult(result.matching, result.weight + 1)
            return result

        weight = run_job(make_job())[0]["weight"]
        monkeypatch.setattr(bench, "solve", gk_off_by_one)
        expected = (
            "solvers disagree on seed 1234 (erdos_renyi/uniform n=8 s=8 "
            f"d=1.0): {{'auction': {weight}, 'gk': {weight + 1}, "
            f"'hungarian': {weight}}}"
        )
        with pytest.raises(RuntimeError, match=f"^{re.escape(expected)}$"):
            run_job(make_job())

    def test_an_invalid_cover_aborts_the_job(self, monkeypatch):
        real_solve = bench.solve

        def hungarian_drops_a_pair(graph, algo, **kwargs):
            result = real_solve(graph, algo, **kwargs)
            if algo == "hungarian":
                matching = result.matching.copy()
                matching.unassign(matching.match_of_v[3], 3)
                return SolveResult(matching, result.weight)
            return result

        monkeypatch.setattr(bench, "solve", hungarian_drops_a_pair)
        with pytest.raises(
            RuntimeError,
            match=r"^hungarian produced an invalid matching on seed 1234: "
            r"uncovered right vertex 3$",
        ):
            run_job(make_job())


class TestAggregation:
    def synthetic_rows(self):
        base = {
            "edge_model": "erdos_renyi",
            "cost_model": "uniform",
            "n": 8,
            "s_rule": "n",
            "s": 8,
            "density": 1.0,
            "r_norm": "",
            "p_low": "",
        }
        return [
            {**base, "repetition": 0, "algorithm": "auction",
             "weight": 10, "millis": "2.000", "status": "ok"},
            {**base, "repetition": 1, "algorithm": "auction",
             "weight": 12, "millis": "4.000", "status": "ok"},
            {**base, "repetition": 2, "algorithm": "auction",
             "weight": "", "millis": "9.000", "status": "censored"},
            {**base, "repetition": 0, "algorithm": "hungarian",
             "weight": "", "millis": "", "status": "infeasible"},
        ]

    def test_aggregate_counts_and_stats(self):
        agg = aggregate(self.synthetic_rows())
        assert len(agg) == 2
        auction = next(r for r in agg if r["algorithm"] == "auction")
        assert (auction["runs"], auction["ok"], auction["censored"]) == (3, 2, 1)
        assert auction["mean_millis"] == "3.000"
        assert auction["min_millis"] == "2.000"
        assert auction["max_millis"] == "4.000"
        hungarian = next(r for r in agg if r["algorithm"] == "hungarian")
        assert hungarian["infeasible"] == 1
        assert hungarian["mean_millis"] == ""

    def test_cells_sort_numbers_as_numbers(self):
        rows = [
            {**row, "n": n, "s": n}
            for n in (3200, 800, 1600)
            for row in self.synthetic_rows()
        ]
        agg = aggregate(rows)
        assert [r["n"] for r in agg if r["algorithm"] == "auction"] == [
            800, 1600, 3200,
        ]

    def test_blank_and_numeric_r_norm_sort_together(self):
        er = self.synthetic_rows()
        dd = [
            {**row, "edge_model": "dispersed_degree", "r_norm": r_norm}
            for r_norm in (0.5, 0.1)
            for row in er
        ]
        agg = aggregate(dd + er)
        assert [(r["edge_model"], r["r_norm"]) for r in agg][::2] == [
            ("dispersed_degree", 0.1),
            ("dispersed_degree", 0.5),
            ("erdos_renyi", ""),
        ]


class TestRunGrid:
    def test_writes_runs_and_aggregated_csv_only(self, tmp_path):
        config = small_config(n_values=(6,), repetitions=2)
        runs_path = run_grid(config, tmp_path / "out")
        assert runs_path == tmp_path / "out" / "runs.csv"
        rows = read_rows(runs_path)
        assert len(rows) == 2 * len(ALGORITHMS)
        assert read_rows(tmp_path / "out" / "aggregated.csv")
        assert not (tmp_path / "out" / "slices.csv").exists()
        first_line = runs_path.read_text().splitlines()[0]
        assert first_line.startswith("# s_rule values")

    def test_reruns_reproduce_weights(self, tmp_path):
        config = small_config(n_values=(6,), repetitions=3)
        rows_a = read_rows(run_grid(config, tmp_path / "a"))
        rows_b = read_rows(run_grid(config, tmp_path / "b"))
        key = ("edge_model", "n", "repetition", "algorithm", "weight", "status")
        assert [[r[k] for k in key] for r in rows_a] == [
            [r[k] for k in key] for r in rows_b
        ]

    def test_parallel_workers_match_serial_rows(self, tmp_path):
        config = small_config(n_values=(6,), repetitions=2)
        serial = read_rows(run_grid(config, tmp_path / "serial"))
        parallel = read_rows(
            run_grid(config, tmp_path / "parallel", workers=2)
        )

        def strip(rows):
            return [
                {k: v for k, v in row.items() if k != "millis"}
                for row in rows
            ]

        assert strip(serial) == strip(parallel)

    @pytest.mark.parametrize(
        "workers, repetitions, pools", [(8, 2, [2]), (4, 1, [])]
    )
    def test_no_more_workers_than_jobs(
        self, tmp_path, monkeypatch, workers, repetitions, pools
    ):
        # One job runs in-process; two jobs get a pool of two, not eight.
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr("bimatch.bench.ProcessPoolExecutor", InlinePool)
        config = small_config(n_values=(6,), repetitions=repetitions)
        rows = read_rows(run_grid(config, tmp_path / "out", workers=workers))
        assert len(rows) == repetitions * len(ALGORITHMS)
        assert started == pools
