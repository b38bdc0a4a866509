"""Benchmark harness: run the solvers over a parameter grid, emit CSVs.

A JSON config describes the grid (edge models, cost models, sizes, right
side rules, densities and their model-specific knobs, repetitions).  Every
grid cell and repetition maps to a deterministic seed, so a run is fully
reproducible from the config alone.

``expand_jobs`` turns the grid into jobs, each carrying the ``GenSpec`` of
its instance; building those specs validates every cell, so a bad config is
rejected before the first job runs.  ``CELL_COLUMNS`` names the cell's CSV
columns once, and both outputs derive from it: ``runs.csv`` has one row per
instance and algorithm, ``aggregated.csv`` one per cell and algorithm.

Per instance the harness prechecks feasibility off the clock; the timed
region is the whole solve (for the scaling solvers: column kernel,
balancing reduction, scaling, phases, projection back).  Solvers that
exceed the per-run budget are recorded as censored at the budget.  Solved
weights are cross-checked across algorithms and any disagreement aborts
the whole run: a benchmark that silently times wrong answers would be
worse than no benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from .errors import SolveTimeout
from .feasibility import is_feasible
from .gen import EDGE_MODELS, WEIGHT_MODELS, GenSpec, generate
from .scaling import DEFAULT_ALPHA, parse_alpha
from .solve import ALGORITHMS, solve, verify_solution

CONFIG_VERSION = 1

S_RULES = ("log_n", "sqrt_n", "n")

_SPLIT_COST_MODELS = ("uniform_low_high", "low_or_high")

# One grid cell, in CSV order.  ``s`` follows from ``n`` and ``s_rule``; the
# other columns are the cell's free parameters, which key its seed.  An
# inapplicable ``r_norm`` or ``p_low`` is written blank.
CELL_COLUMNS = (
    "edge_model",
    "cost_model",
    "n",
    "s_rule",
    "s",
    "density",
    "r_norm",
    "p_low",
)
_MILLIS_COLUMNS = ("mean_millis", "min_millis", "max_millis")

RUN_COLUMNS = CELL_COLUMNS + (
    "repetition",
    "algorithm",
    "weight",
    "millis",
    "status",
)
_AGG_KEY = CELL_COLUMNS + ("algorithm",)
AGG_COLUMNS = _AGG_KEY + ("runs", "ok", "censored", "infeasible") + _MILLIS_COLUMNS

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
    r_norms: tuple[float, ...] = ()
    p_lows: tuple[float, ...] = ()
    repetitions: int = 10
    algorithms: tuple[str, ...] = ALGORITHMS
    time_limit: Optional[float] = None
    alpha: Fraction = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        if any(n < 1 for n in self.n_values):
            raise ValueError("config key 'n_values' must hold sizes of at least 1")
        # An empty axis expands to no jobs: a run that times nothing.  A
        # repeated value expands to the same seeds again, which would be
        # counted as further repetitions of one cell.
        for key in (
            "edge_models",
            "cost_models",
            "n_values",
            "s_rules",
            "densities",
            "r_norms",
            "p_lows",
            "algorithms",
        ):
            values = getattr(self, key)
            if not values and key not in ("r_norms", "p_lows"):
                raise ValueError(f"config key {key!r} must not be empty")
            if len(set(values)) < len(values):
                raise ValueError(f"config key {key!r} must not repeat a value")
        for what, values, known in (
            ("edge model", self.edge_models, EDGE_MODELS),
            ("cost model", self.cost_models, WEIGHT_MODELS),
            ("s rule", self.s_rules, S_RULES),
            ("algorithm", self.algorithms, ALGORITHMS),
        ):
            for value in values:
                if value not in known:
                    raise ValueError(f"unknown {what} {value!r}")
        if "dispersed_degree" in self.edge_models and not self.r_norms:
            raise ValueError("dispersed_degree needs at least one r_norm")
        if (
            any(cm in _SPLIT_COST_MODELS for cm in self.cost_models)
            and not self.p_lows
        ):
            raise ValueError("split cost models need at least one p_low")
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise ValueError("time_limit must be positive and finite")


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _list_of(check: Callable[[object], bool], what: str, convert=lambda x: x):
    """Converter for a key whose value must be a JSON list of ``what``."""

    def to_tuple(key: str, xs: object) -> tuple:
        if not isinstance(xs, list) or not all(check(x) for x in xs):
            raise ValueError(f"config key {key!r} must be a list of {what}")
        return tuple(convert(x) for x in xs)

    return to_tuple


def _integer(key: str, x: object) -> int:
    if not _is_int(x):
        raise ValueError(f"config key {key!r} must be an integer")
    return x


def _time_limit(key: str, x: object) -> Optional[float]:
    if x is None:
        return None
    if not _is_number(x):
        raise ValueError(f"config key {key!r} must be a number or null")
    return float(x)


def _alpha(key: str, x: object) -> Fraction:
    if not (_is_number(x) or isinstance(x, str)):
        raise ValueError(f"config key {key!r} must be a number or a string")
    return parse_alpha(str(x))


_strings = _list_of(lambda x: isinstance(x, str), "strings")
_floats = _list_of(_is_number, "numbers", float)

# How each config key becomes a ``BenchConfig`` field, besides
# ``config_version``: ``convert(key, value)`` checks the JSON type and raises
# ``ValueError`` naming the key.  Keys whose field has no default are
# required.
_CONVERTERS = {
    "seed_base": _integer,
    "edge_models": _strings,
    "cost_models": _strings,
    "n_values": _list_of(_is_int, "integers"),
    "s_rules": _strings,
    "densities": _floats,
    "r_norms": _floats,
    "p_lows": _floats,
    "repetitions": _integer,
    "algorithms": _strings,
    "time_limit": _time_limit,
    "alpha": _alpha,
}
_REQUIRED_KEYS = {f.name for f in fields(BenchConfig) if f.default is MISSING}


def load_config(path: str | Path) -> BenchConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    version = raw.pop("config_version", None)
    unknown = set(raw) - set(_CONVERTERS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if version != CONFIG_VERSION:
        raise ValueError(
            f"config_version must be {CONFIG_VERSION}, got {version!r}"
        )
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    return BenchConfig(**{k: _CONVERTERS[k](k, v) for k, v in raw.items()})


@dataclass(frozen=True)
class Job:
    """One generated instance plus everything needed to run and report it."""

    spec: GenSpec
    s_rule: str
    repetition: int
    algorithms: tuple[str, ...]
    time_limit: Optional[float]
    alpha: Fraction

    def cells(self) -> dict[str, object]:
        """The grid cell's CSV values, keyed by ``CELL_COLUMNS``."""
        spec = self.spec
        values = (
            spec.model,
            spec.weight_model,
            spec.n,
            self.s_rule,
            spec.s,
            spec.d,
            "" if spec.r_norm is None else spec.r_norm,
            "" if spec.p_low is None else spec.p_low,
        )
        return dict(zip(CELL_COLUMNS, values))

    def describe(self) -> str:
        """The cell in short, for progress lines and error messages."""
        spec = self.spec
        return (
            f"{spec.model}/{spec.weight_model} n={spec.n} s={spec.s} "
            f"d={spec.d}"
        )


def _cell_seed(base: int, cell_key: str, repetition: int) -> int:
    digest = hashlib.sha256(cell_key.encode("ascii")).hexdigest()
    return (base + int(digest[:16], 16) + repetition) % (1 << 64)


def expand_jobs(config: BenchConfig) -> list[Job]:
    """The full grid, inapplicable knobs skipped rather than crossed.

    Raises ``ValueError`` for any cell ``GenSpec`` rejects, before a single
    instance is generated.
    """
    jobs: list[Job] = []
    for edge_model, cost_model, n, s_rule, density in itertools.product(
        config.edge_models,
        config.cost_models,
        config.n_values,
        config.s_rules,
        config.densities,
    ):
        r_norms = config.r_norms if edge_model == "dispersed_degree" else (None,)
        p_lows = config.p_lows if cost_model in _SPLIT_COST_MODELS else (None,)
        for r_norm, p_low in itertools.product(r_norms, p_lows):
            free = (edge_model, cost_model, n, s_rule, density, r_norm, p_low)
            cell_key = "|".join(str(x) for x in free)
            for rep in range(config.repetitions):
                spec = GenSpec(
                    model=edge_model,
                    n=n,
                    s=right_side_size(s_rule, n),
                    d=density,
                    weight_model=cost_model,
                    seed=_cell_seed(config.seed_base, cell_key, rep),
                    r_norm=r_norm,
                    p_low=p_low,
                )
                jobs.append(
                    Job(
                        spec,
                        s_rule,
                        rep,
                        config.algorithms,
                        config.time_limit,
                        config.alpha,
                    )
                )
    return jobs


def run_job(job: Job) -> list[dict[str, object]]:
    """Generate one instance, run every algorithm on it, return run rows."""
    cells = job.cells()

    def row(algo: str, status: str, weight: object = "", millis: str = ""):
        return {
            **cells,
            "repetition": job.repetition,
            "algorithm": algo,
            "weight": weight,
            "millis": millis,
            "status": status,
        }

    graph = generate(job.spec)
    if not is_feasible(graph):
        return [row(algo, "infeasible") for algo in job.algorithms]

    rows: list[dict[str, object]] = []
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
                deadline=deadline,
                precheck=False,
            )
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
        except SolveTimeout:
            assert job.time_limit is not None
            rows.append(
                row(algo, "censored", millis=f"{job.time_limit * 1000.0:.3f}")
            )
            continue
        problem = verify_solution(graph, result.matching)
        if problem is not None:
            raise RuntimeError(
                f"{algo} produced an invalid matching on seed "
                f"{job.spec.seed}: {problem}"
            )
        weights[algo] = result.weight
        rows.append(row(algo, "ok", result.weight, f"{elapsed_ms:.3f}"))
    if len(set(weights.values())) > 1:
        raise RuntimeError(
            f"solvers disagree on seed {job.spec.seed} "
            f"({job.describe()}): {weights}"
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


def aggregate(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    """Collapse repetitions: one row per grid cell and algorithm, in numeric
    order; a blank ``r_norm`` or ``p_low`` sorts after every number."""
    groups: dict[tuple, list[dict[str, object]]] = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in _AGG_KEY), []).append(row)
    out: list[dict[str, object]] = []
    for key in sorted(groups, key=lambda k: [(isinstance(x, str), x) for x in k]):
        group = groups[key]
        statuses = [r["status"] for r in group]
        millis = [float(str(r["millis"])) for r in group if r["status"] == "ok"]
        stats = (
            [f"{x:.3f}" for x in (sum(millis) / len(millis), min(millis), max(millis))]
            if millis
            else ["", "", ""]
        )
        out.append(
            {
                **dict(zip(_AGG_KEY, key)),
                "runs": len(group),
                "ok": len(millis),
                "censored": statuses.count("censored"),
                "infeasible": statuses.count("infeasible"),
                **dict(zip(_MILLIS_COLUMNS, stats)),
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
    """Execute the whole grid; write runs.csv and aggregated.csv.

    Returns the path of runs.csv.  The grid is expanded, and so validated,
    before the output directory is made or any job runs.  With
    ``workers > 1`` instances run in that many processes, or one per job
    if fewer; wall-clock timings from oversubscribed machines are noisier.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    jobs = expand_jobs(config)
    workers = min(workers, len(jobs))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[dict[str, object]] = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    with pool as executor:
        mapper = map if executor is None else executor.map
        for i, (job, job_rows) in enumerate(zip(jobs, mapper(run_job, jobs))):
            rows.extend(job_rows)
            if progress:
                print(
                    f"[bench] {i + 1}/{len(jobs)} jobs done "
                    f"({job.describe()} rep={job.repetition})",
                    file=sys.stderr,
                    flush=True,
                )
    runs_path = out / "runs.csv"
    _write_csv(runs_path, RUN_COLUMNS, rows)
    _write_csv(out / "aggregated.csv", AGG_COLUMNS, aggregate(rows))
    return runs_path
