"""Untraced run: the end-to-end metrics, as a user of bimatch sees them.

One process, one solve at a time.  Set-up runs ``SETUP_REPS`` times in fresh
processes; then every instance, in turn, is solved through each public
route (``solve`` with each algorithm at its defaults, and the CLI on the
instance file) and every answer is checked against scipy's LAPJVsp.  The
instances are visited in turn, starting over when all were seen, until
``seconds`` have passed.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from checks import (
    HARD_STOP_S,
    OP_BUDGET_S,
    ROOT,
    SetupError,
    Tally,
    check_answer,
    reference_weight,
    schedule,
    subprocess_env,
)
from setup_instances import instance_path
from spec import Workload

SETUP_REPS = 3
SOLVERS = ("auction", "gk", "hungarian")
SETUP_SCRIPT = Path(__file__).resolve().parent / "setup_instances.py"


def _set_up(workload: Workload, seed: int, workdir: Path) -> float:
    cmd = [
        sys.executable,
        str(SETUP_SCRIPT),
        "--workload",
        json.dumps(dataclasses.asdict(workload)),
        "--seed",
        str(seed),
        "--out",
        str(workdir),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=subprocess_env(), capture_output=True, text=True,
        timeout=OP_BUDGET_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(f"set-up process failed:\n{proc.stderr.strip()}")
    return elapsed


def _solve(graph, algorithm: str, ref: Optional[int], hard_stop: float):
    """``(seconds, problem)`` for one in-process solve."""
    from bimatch import InfeasibleInstanceError, solve

    deadline = min(time.monotonic() + OP_BUDGET_S, hard_stop)
    gc.collect()
    t0 = time.perf_counter()
    try:
        result = solve(graph, algorithm, deadline=deadline)
    except InfeasibleInstanceError:
        return time.perf_counter() - t0, check_answer(graph, None, None, ref)
    except Exception as exc:  # any other error is a failed operation
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return elapsed, check_answer(graph, result.matching, result.weight, ref)


def cli_problem(
    graph, ref: Optional[int], proc: subprocess.CompletedProcess
) -> Optional[str]:
    """Check the output of ``bimatch solve``: pairs, then ``weight W``."""
    from bimatch import Matching, matching_weight

    if proc.returncode == 1 and proc.stdout.strip() == "infeasible":
        return check_answer(graph, None, None, ref)
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("weight "):
        return "no weight line"
    matching = Matching(graph.n, graph.s)
    try:
        printed = int(lines[-1].split()[1])
        for line in lines[:-1]:
            u, v = (int(x) for x in line.split())
            matching.assign(u, v)
    except (ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
    problem = check_answer(graph, matching, printed, ref)
    if problem is None and printed != matching_weight(graph, matching):
        problem = f"printed weight {printed} is not the weight of the printed pairs"
    return problem


def _cli(path: Path, graph, ref: Optional[int], hard_stop: float):
    timeout = max(0.0, min(OP_BUDGET_S, hard_stop - time.monotonic()))
    cmd = [sys.executable, "-m", "bimatch", "solve", "--algo", "auction"]
    cmd += ["--in", str(path)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=subprocess_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, "hit the time budget"
    return time.perf_counter() - t0, cli_problem(graph, ref, proc)


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    reference: Callable = reference_weight,
) -> tuple[dict, Tally, dict]:
    """Measure one workload; returns ``(metrics, tally, report)``."""
    hard_stop = time.monotonic() + HARD_STOP_S
    setup = [_set_up(workload, seed, workdir) for _ in range(SETUP_REPS)]

    from bimatch import GenSpec, build_reduction, generate

    tally = Tally(workload.name, seed)
    samples: dict[str, list[float]] = {f"{a}.solve_s": [] for a in SOLVERS}
    samples["cli.solve_s"] = []
    shapes = []
    refs: dict[int, Optional[int]] = {}
    for i, first_visit in schedule(workload.instances, seconds, hard_stop, at_least=1):
        graph = generate(GenSpec(seed=workload.gen_seed(seed, i), **workload.gen))
        if first_visit:
            balanced = build_reduction(graph).graph
            shapes.append(
                dict(n=graph.n, s=graph.s, m=graph.m, N=balanced.n, M=balanced.m)
            )
            del balanced
            refs[i] = reference(graph)
        for algorithm in SOLVERS:
            elapsed, problem = _solve(graph, algorithm, refs[i], hard_stop)
            samples[f"{algorithm}.solve_s"].append(elapsed)
            tally.record(algorithm, i, problem)
        elapsed, problem = _cli(instance_path(workdir, i), graph, refs[i], hard_stop)
        samples["cli.solve_s"].append(elapsed)
        tally.record("cli", i, problem)
        del graph

    metrics = {"setup_s": (statistics.median(setup), "s")}
    for name, values in samples.items():
        metrics[name] = (statistics.median(values), "s")
    # ru_maxrss is in KiB on Linux.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    metrics["ok_ratio"] = (1 - tally.failed / tally.attempted, "ratio")
    report = {
        "samples": {name: len(v) for name, v in samples.items()}
        | {"setup_s": len(setup)},
        "values": samples | {"setup_s": setup},
        "fail_ratio": tally.failed / tally.attempted,
        "shapes": shapes,
    }
    return metrics, tally, report
