"""Benchmark harness: run the solvers over a parameter grid, emit CSVs.

A JSON config describes the grid (edge models, cost models, sizes, right
side rules, densities and their model-specific knobs, repetitions).  Every
grid cell and repetition maps to a deterministic seed, so a run is fully
reproducible from the config alone.

Per instance the harness prechecks feasibility and prebuilds the balancing
reduction off the clock; the timed region is the solve itself (scaling,
phases, projection back).  Solvers that exceed the per-run budget are
recorded as censored at the budget.  Solved weights are cross-checked
across algorithms and any disagreement aborts the whole run: a benchmark
that silently times wrong answers would be worse than no benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import SolveTimeout
from .feasibility import is_feasible
from .gen import EDGE_MODELS, WEIGHT_MODELS, GenSpec, generate
from .reduction import build_reduction
from .scaling import DEFAULT_ALPHA, parse_alpha
from .solve import ALGORITHMS, solve, verify_solution

log = logging.getLogger(__name__)

CONFIG_VERSION = 1

S_RULES = ("log_n", "sqrt_n", "n")

RUN_COLUMNS = (
    "edge_model",
    "cost_model",
    "n",
    "s_rule",
    "s",
    "density",
    "r_norm",
    "p_low",
    "repetition",
    "algorithm",
    "weight",
    "millis",
    "status",
)

_HEADER_NOTE = (
    "# s_rule values: log_n -> max(1, round(log2(n))), "
    "sqrt_n -> round(sqrt(n)), n -> n"
)


def right_side_size(rule: str, n: int) -> int:
    if rule == "log_n":
        return max(1, round(math.log2(n)))
    if rule == "sqrt_n":
        return round(math.sqrt(n))
    if rule == "n":
        return n
    raise ValueError(f"unknown s rule {rule!r}")


@dataclass(frozen=True)
class BenchConfig:
    """Validated grid description; see ``load_config`` for the JSON shape."""

    seed_base: int
    edge_models: tuple[str, ...]
    cost_models: tuple[str, ...]
    n_values: tuple[int, ...]
    s_rules: tuple[str, ...]
    densities: tuple[float, ...]
    r_norms: tuple[float, ...]
    p_lows: tuple[float, ...]
    repetitions: int = 10
    algorithms: tuple[str, ...] = ALGORITHMS
    time_limit: Optional[float] = None
    alpha: Fraction = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        for em in self.edge_models:
            if em not in EDGE_MODELS:
                raise ValueError(f"unknown edge model {em!r}")
        for cm in self.cost_models:
            if cm not in WEIGHT_MODELS:
                raise ValueError(f"unknown cost model {cm!r}")
        for rule in self.s_rules:
            if rule not in S_RULES:
                raise ValueError(f"unknown s rule {rule!r}")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        if "dispersed_degree" in self.edge_models and not self.r_norms:
            raise ValueError("dispersed_degree needs at least one r_norm")
        if (
            any(
                cm in ("uniform_low_high", "low_or_high")
                for cm in self.cost_models
            )
            and not self.p_lows
        ):
            raise ValueError("split cost models need at least one p_low")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


_CONFIG_KEYS = {
    "config_version",
    "seed_base",
    "repetitions",
    "edge_models",
    "cost_models",
    "n_values",
    "s_rules",
    "densities",
    "r_norms",
    "p_lows",
    "algorithms",
    "time_limit",
    "alpha",
}


def load_config(path: str | Path) -> BenchConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    version = raw.get("config_version")
    if version != CONFIG_VERSION:
        raise ValueError(
            f"config_version must be {CONFIG_VERSION}, got {version!r}"
        )
    kwargs = dict(
        seed_base=int(raw["seed_base"]),
        edge_models=tuple(raw["edge_models"]),
        cost_models=tuple(raw["cost_models"]),
        n_values=tuple(int(x) for x in raw["n_values"]),
        s_rules=tuple(raw["s_rules"]),
        densities=tuple(float(x) for x in raw["densities"]),
        r_norms=tuple(float(x) for x in raw.get("r_norms", ())),
        p_lows=tuple(float(x) for x in raw.get("p_lows", ())),
    )
    if "repetitions" in raw:
        kwargs["repetitions"] = int(raw["repetitions"])
    if "algorithms" in raw:
        kwargs["algorithms"] = tuple(raw["algorithms"])
    if raw.get("time_limit") is not None:
        kwargs["time_limit"] = float(raw["time_limit"])
    if "alpha" in raw:
        kwargs["alpha"] = parse_alpha(str(raw["alpha"]))
    return BenchConfig(**kwargs)


@dataclass(frozen=True)
class Job:
    """One generated instance plus everything needed to run and report it."""

    edge_model: str
    cost_model: str
    n: int
    s_rule: str
    s: int
    density: float
    r_norm: Optional[float]
    p_low: Optional[float]
    repetition: int
    seed: int
    algorithms: tuple[str, ...]
    time_limit: Optional[float]
    alpha: Fraction


def _cell_seed(base: int, cell_key: str, repetition: int) -> int:
    digest = hashlib.sha256(cell_key.encode("ascii")).hexdigest()
    return (base + int(digest[:16], 16) + repetition) % (1 << 64)


def expand_jobs(config: BenchConfig) -> list[Job]:
    """The full grid, inapplicable knobs skipped rather than crossed."""
    jobs: list[Job] = []
    for edge_model in config.edge_models:
        r_norm_options: tuple[Optional[float], ...]
        r_norm_options = (
            tuple(config.r_norms) if edge_model == "dispersed_degree" else (None,)
        )
        for cost_model in config.cost_models:
            p_low_options: tuple[Optional[float], ...]
            if cost_model in ("uniform_low_high", "low_or_high"):
                p_low_options = tuple(config.p_lows)
            else:
                p_low_options = (None,)
            for n in config.n_values:
                for s_rule in config.s_rules:
                    s = right_side_size(s_rule, n)
                    for density in config.densities:
                        for r_norm in r_norm_options:
                            for p_low in p_low_options:
                                cell_key = "|".join(
                                    str(x)
                                    for x in (
                                        edge_model,
                                        cost_model,
                                        n,
                                        s_rule,
                                        density,
                                        r_norm,
                                        p_low,
                                    )
                                )
                                for rep in range(config.repetitions):
                                    jobs.append(
                                        Job(
                                            edge_model=edge_model,
                                            cost_model=cost_model,
                                            n=n,
                                            s_rule=s_rule,
                                            s=s,
                                            density=density,
                                            r_norm=r_norm,
                                            p_low=p_low,
                                            repetition=rep,
                                            seed=_cell_seed(
                                                config.seed_base, cell_key, rep
                                            ),
                                            algorithms=config.algorithms,
                                            time_limit=config.time_limit,
                                            alpha=config.alpha,
                                        )
                                    )
    return jobs


def _base_row(job: Job) -> dict[str, object]:
    return {
        "edge_model": job.edge_model,
        "cost_model": job.cost_model,
        "n": job.n,
        "s_rule": job.s_rule,
        "s": job.s,
        "density": job.density,
        "r_norm": "" if job.r_norm is None else job.r_norm,
        "p_low": "" if job.p_low is None else job.p_low,
        "repetition": job.repetition,
    }


def run_job(job: Job) -> list[dict[str, object]]:
    """Generate one instance, run every algorithm on it, return run rows."""
    spec = GenSpec(
        model=job.edge_model,
        n=job.n,
        s=job.s,
        d=job.density,
        weight_model=job.cost_model,
        seed=job.seed,
        r_norm=job.r_norm,
        p_low=job.p_low,
    )
    graph = generate(spec)
    rows: list[dict[str, object]] = []
    if not is_feasible(graph):
        for algo in job.algorithms:
            rows.append(
                {
                    **_base_row(job),
                    "algorithm": algo,
                    "weight": "",
                    "millis": "",
                    "status": "infeasible",
                }
            )
        return rows

    reduction = build_reduction(graph, "double")
    weights: dict[str, int] = {}
    for algo in job.algorithms:
        deadline = (
            None
            if job.time_limit is None
            else time.monotonic() + job.time_limit
        )
        try:
            t0 = time.perf_counter()
            result = solve(
                graph,
                algo,
                alpha=job.alpha,
                reduction=reduction,
                deadline=deadline,
                precheck=False,
            )
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
        except SolveTimeout:
            assert job.time_limit is not None
            rows.append(
                {
                    **_base_row(job),
                    "algorithm": algo,
                    "weight": "",
                    "millis": f"{job.time_limit * 1000.0:.3f}",
                    "status": "censored",
                }
            )
            continue
        problem = verify_solution(graph, result.matching)
        if problem is not None:
            raise RuntimeError(
                f"{algo} produced an invalid matching on seed {job.seed}: "
                f"{problem}"
            )
        weights[algo] = result.weight
        rows.append(
            {
                **_base_row(job),
                "algorithm": algo,
                "weight": result.weight,
                "millis": f"{elapsed_ms:.3f}",
                "status": "ok",
            }
        )
    if len(set(weights.values())) > 1:
        raise RuntimeError(
            f"solvers disagree on seed {job.seed} "
            f"({job.edge_model}/{job.cost_model} n={job.n} s={job.s} "
            f"d={job.density}): {weights}"
        )
    return rows


def _write_csv(
    path: Path, columns: tuple[str, ...], rows: list[dict[str, object]]
) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(_HEADER_NOTE + "\n")
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)


AGG_COLUMNS = (
    "edge_model",
    "cost_model",
    "n",
    "s_rule",
    "s",
    "density",
    "r_norm",
    "p_low",
    "algorithm",
    "runs",
    "ok",
    "censored",
    "infeasible",
    "mean_millis",
    "min_millis",
    "max_millis",
)

SLICE_COLUMNS = (
    "parameter",
    "value",
    "algorithm",
    "ok",
    "mean_millis",
    "min_millis",
    "max_millis",
)

_SLICE_PARAMS = (
    "edge_model",
    "cost_model",
    "n",
    "s_rule",
    "density",
    "r_norm",
    "p_low",
)


def _summarize(millis: list[float]) -> dict[str, str]:
    if not millis:
        return {"mean_millis": "", "min_millis": "", "max_millis": ""}
    return {
        "mean_millis": f"{sum(millis) / len(millis):.3f}",
        "min_millis": f"{min(millis):.3f}",
        "max_millis": f"{max(millis):.3f}",
    }


def aggregate(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    """Collapse repetitions: one row per grid cell and algorithm."""
    cells: dict[tuple, list[dict[str, object]]] = {}
    for row in rows:
        key = tuple(
            row[c]
            for c in (
                "edge_model",
                "cost_model",
                "n",
                "s_rule",
                "s",
                "density",
                "r_norm",
                "p_low",
                "algorithm",
            )
        )
        cells.setdefault(key, []).append(row)
    out = []
    for key in sorted(cells, key=lambda k: tuple(str(x) for x in k)):
        group = cells[key]
        ok = [r for r in group if r["status"] == "ok"]
        millis = [float(str(r["millis"])) for r in ok]
        record: dict[str, object] = dict(
            zip(
                (
                    "edge_model",
                    "cost_model",
                    "n",
                    "s_rule",
                    "s",
                    "density",
                    "r_norm",
                    "p_low",
                    "algorithm",
                ),
                key,
            )
        )
        record["runs"] = len(group)
        record["ok"] = len(ok)
        record["censored"] = sum(1 for r in group if r["status"] == "censored")
        record["infeasible"] = sum(
            1 for r in group if r["status"] == "infeasible"
        )
        record.update(_summarize(millis))
        out.append(record)
    return out


def slice_summaries(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    """Marginal timings: one row per single parameter value and algorithm."""
    out: list[dict[str, object]] = []
    for param in _SLICE_PARAMS:
        buckets: dict[tuple[str, str], list[float]] = {}
        for row in rows:
            value = str(row[param])
            if value == "":
                continue
            key = (value, str(row["algorithm"]))
            if row["status"] == "ok":
                buckets.setdefault(key, []).append(float(str(row["millis"])))
            else:
                buckets.setdefault(key, [])
        for (value, algo) in sorted(buckets):
            millis = buckets[(value, algo)]
            if not millis:
                log.warning(
                    "no successful runs for %s=%s algorithm=%s",
                    param,
                    value,
                    algo,
                )
            out.append(
                {
                    "parameter": param,
                    "value": value,
                    "algorithm": algo,
                    "ok": len(millis),
                    **_summarize(millis),
                }
            )
    return out


def run_grid(
    config: BenchConfig,
    out_dir: str | Path,
    *,
    workers: int = 1,
    progress: bool = False,
) -> Path:
    """Execute the whole grid; write runs.csv, aggregated.csv, slices.csv.

    Returns the path of runs.csv.  With ``workers > 1`` instances run in
    parallel processes; note that wall-clock timings from oversubscribed
    machines are noisier.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = expand_jobs(config)
    rows: list[dict[str, object]] = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    with pool as executor:
        mapper = map if executor is None else executor.map
        for i, (job, job_rows) in enumerate(zip(jobs, mapper(run_job, jobs))):
            rows.extend(job_rows)
            if progress:
                print(
                    f"[bench] {i + 1}/{len(jobs)} jobs done "
                    f"({job.edge_model}/{job.cost_model} n={job.n} "
                    f"s={job.s} d={job.density} rep={job.repetition})",
                    file=sys.stderr,
                    flush=True,
                )
    runs_path = out / "runs.csv"
    _write_csv(runs_path, RUN_COLUMNS, rows)
    _write_csv(out / "aggregated.csv", AGG_COLUMNS, aggregate(rows))
    _write_csv(out / "slices.csv", SLICE_COLUMNS, slice_summaries(rows))
    return runs_path
