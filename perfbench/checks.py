"""Shared pieces of the benchmark: locating the package, the independent
reference, answer checks, failure tally and the environment record."""

from __future__ import annotations

import gc
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every operation gets at most this long; the whole run stops starting work
# at HARD_STOP_S so that it exits well inside three minutes.
OP_BUDGET_S = 30.0
HARD_STOP_S = 150.0

# scipy solves in float64, so every partial weight sum must stay exact.
FLOAT_EXACT = 2**53


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def use_source_tree() -> None:
    """Import ``bimatch`` from this checkout's ``src`` directory."""
    if not (SRC / "bimatch" / "__init__.py").is_file():
        raise SetupError(f"no bimatch package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def subprocess_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def schedule(instances: int, seconds: float, hard_stop: float, at_least: int):
    """Yield ``(index, first_visit)`` for instances 0, 1, ... cycling, until
    ``seconds`` have passed and ``at_least`` were handed out, or the
    monotonic clock reaches ``hard_stop``.

    Stopping on time rather than on a fixed count keeps a run's length the
    same on a slow host; the instance set itself stays fixed by the seed.
    """
    end = time.monotonic() + seconds
    k = 0
    while (k < at_least or time.monotonic() < end) and time.monotonic() < hard_stop:
        yield k % instances, k < instances
        k += 1


def timed(fn: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call, after a full collection so that a
    collection triggered by earlier garbage does not land in the timing."""
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def reference_weight(graph) -> Optional[int]:
    """Optimal cover weight from scipy's LAPJVsp, or ``None`` when no matching
    covers every right vertex.

    scipy drops explicit zeros, so every weight is shifted by
    ``c = max|w| + 1`` first; every cover has exactly ``s`` edges, so the
    optimum moves by ``s * c``.  The weight returned is summed exactly from
    the graph's own integers along scipy's matching.
    """
    try:
        rows, cols = min_weight_full_bipartite_matching(shifted_matrix(graph))
    except ValueError:  # scipy: "no full matching exists"
        return None
    if len(cols) != graph.s or len(set(cols.tolist())) != graph.s:
        raise AssertionError("scipy returned a matching that is not a full cover")
    return sum(graph.weight(int(u), int(v)) for u, v in zip(rows, cols))


def shifted_matrix(graph) -> csr_matrix:
    """Biadjacency matrix (rows = left vertices) with weights shifted > 0."""
    c = graph.max_abs_weight + 1
    if graph.s * (graph.max_abs_weight + c) >= FLOAT_EXACT:
        raise SetupError(
            f"weight sums of an {graph.n}x{graph.s} instance with max |w| = "
            f"{graph.max_abs_weight} could exceed 2^53; refusing it"
        )
    data = np.asarray(graph.adj_w, dtype=np.float64) + c
    return csr_matrix(
        (data, np.asarray(graph.adj_v), np.asarray(graph.adj_off)),
        shape=(graph.n, graph.s),
    )


def check_answer(
    graph, matching, weight: Optional[int], ref: Optional[int]
) -> Optional[str]:
    """``None`` when a solver answer agrees with the reference, else why not.

    ``matching is None`` means the solver reported the instance infeasible.
    """
    from bimatch import verify_solution

    if matching is None:
        return None if ref is None else f"reported infeasible, reference weight {ref}"
    if ref is None:
        return f"returned weight {weight}, reference finds no full matching"
    problem = verify_solution(graph, matching)
    if problem is not None:
        return f"invalid cover: {problem}"
    if weight != ref:
        return f"weight {weight} != reference {ref}"
    return None


@dataclass
class Tally:
    """Attempted and failed operations; each failure names where it happened."""

    workload: str
    seed: int
    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, op: str, index: int, problem: Optional[str]) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        line = (
            f"FAIL workload={self.workload} seed={self.seed} instance={index} "
            f"op={op}: {problem}"
        )
        self.failures.append(line)
        print(line, file=sys.stderr, flush=True)
        return False

    @property
    def failed(self) -> int:
        return len(self.failures)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
