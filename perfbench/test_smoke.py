"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import e2e
import layers
from checks import ROOT, check_answer, reference_weight, use_source_tree
from spec import END_TO_END, PER_LAYER, WORKLOADS, Workload

use_source_tree()

TINY_SQUARE = Workload(
    name="tiny-square",
    why="smoke test",
    gen=dict(model="erdos_renyi", n=12, s=12, d=0.5, weight_model="uniform"),
    instances=2,
)
TINY_UNBALANCED = Workload(
    name="tiny-unbalanced",
    why="smoke test",
    gen=dict(
        model="dispersed_degree", n=20, s=4, d=0.5, r_norm=0.5,
        weight_model="low_or_high", p_low=0.5,
    ),
    instances=2,
)
# Density 0.05 on 8x8 leaves some right vertex uncoverable; seed 0 is checked.
TINY_INFEASIBLE = Workload(
    name="tiny-infeasible",
    why="smoke test",
    gen=dict(model="erdos_renyi", n=8, s=8, d=0.05, weight_model="uniform"),
    instances=2,
)


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_untraced_run_emits_every_metric(tmp_path):
    for workload in (TINY_SQUARE, TINY_UNBALANCED):
        metrics, tally, report = e2e.run(workload, 3, 0.0, tmp_path)
        assert list(metrics) == [m.name for m in END_TO_END]
        assert all(value > 0 for value, _unit in metrics.values())
        assert tally.attempted >= 4 and tally.failed == 0
        assert metrics["ok_ratio"][0] == 1.0
        assert report["shapes"][0]["n"] == workload.gen["n"]


def test_traced_run_emits_every_layer(tmp_path):
    for workload in (TINY_SQUARE, TINY_UNBALANCED):
        metrics, tally, _report = layers.run(workload, 3, 0.0, tmp_path)
        assert list(metrics) == [m.name for m in PER_LAYER]
        assert tally.failed == 0, tally.failures
    assert metrics["reduction.balanced_edges"][0] > metrics["gen.edges"][0]


def test_wrong_reference_weight_counts_as_failure(tmp_path):
    def off_by_one(graph):
        return reference_weight(graph) + 1

    metrics, tally, report = e2e.run(
        TINY_SQUARE, 3, 0.0, tmp_path, reference=off_by_one
    )
    assert tally.failed == tally.attempted > 0
    assert report["fail_ratio"] == 1.0
    assert metrics["ok_ratio"][0] == 0.0
    assert "workload=tiny-square seed=3" in tally.failures[0]

    _metrics, tally, _report = layers.run(
        TINY_SQUARE, 3, 0.0, tmp_path, reference=off_by_one
    )
    assert tally.failed > 0


def test_infeasible_draws_agree_with_reference(tmp_path):
    metrics, tally, _report = e2e.run(TINY_INFEASIBLE, 0, 0.0, tmp_path)
    assert tally.attempted >= 4 and tally.failed == 0
    # A feasible verdict against an infeasible reference is a failure.
    from bimatch import GenSpec, generate, solve

    spec = GenSpec(seed=TINY_INFEASIBLE.gen_seed(0, 0), **TINY_INFEASIBLE.gen)
    graph = generate(spec)
    assert reference_weight(graph) is None
    square = generate(GenSpec(seed=TINY_SQUARE.gen_seed(3, 0), **TINY_SQUARE.gen))
    result = solve(square, "auction")
    assert check_answer(square, result.matching, result.weight, None) is not None
    assert check_answer(square, None, None, reference_weight(square)) is not None


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-square",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not list(Path(tmp_path).glob(".perfbench-*"))
