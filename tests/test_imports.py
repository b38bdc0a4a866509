"""The solve path loads only the standard library; generators stay importable.

Each check runs in a fresh interpreter, since this test process has long
since imported numpy and scipy itself.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

NUMERIC = "sorted(m for m in ('numpy', 'scipy') if m in sys.modules)"


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_neither_numpy_nor_scipy():
    assert run_python(f"import sys, bimatch.cli; print({NUMERIC})") == "[]"


def test_solve_verify_and_trace_diff_load_neither(tmp_path):
    inst = tmp_path / "g.txt"
    inst.write_text("2 2 4\n0 0 1\n0 1 3\n1 0 2\n1 1 1\n")
    a, g = tmp_path / "a.tsv", tmp_path / "g.tsv"
    code = (
        "import sys\n"
        "from bimatch.cli import main\n"
        f"codes = [main(['solve', '--in', {str(inst)!r}, '--trace', {str(a)!r}]),\n"
        f"    main(['solve', '--algo', 'gk', '--in', {str(inst)!r},"
        f" '--trace', {str(g)!r}]),\n"
        f"    main(['verify', '--in', {str(inst)!r}, '--against', 'hungarian']),\n"
        f"    main(['trace-diff', {str(a)!r}, {str(g)!r}])]\n"
        f"print(codes, {NUMERIC})\n"
    )
    assert run_python(code).splitlines()[-1] == "[0, 0, 0, 0] []"


@pytest.mark.parametrize("algo", ["auction", "gk", "hungarian"])
def test_an_untraced_solve_loads_neither_tracing_nor_dataclasses(tmp_path, algo):
    inst = tmp_path / "g.txt"
    inst.write_text("3 2 4\n0 0 1\n1 0 3\n1 1 2\n2 1 1\n")
    # ``dataclasses`` counts only when the interpreter had not loaded it
    # before bimatch: some site set-ups import it at start-up.
    code = (
        "import sys\n"
        "late = ['bimatch.tracing']"
        " + ([] if 'dataclasses' in sys.modules else ['dataclasses'])\n"
        "from bimatch.cli import main\n"
        f"code = main(['solve', '--algo', {algo!r}, '--in', {str(inst)!r}])\n"
        "print(code, [m for m in late if m in sys.modules])\n"
    )
    assert run_python(code).splitlines()[-1] == "0 []"


@pytest.mark.parametrize("algo", ["auction", "gk"])
def test_a_traced_solve_loads_tracing(tmp_path, algo):
    inst = tmp_path / "g.txt"
    inst.write_text("2 2 4\n0 0 1\n0 1 3\n1 0 2\n1 1 1\n")
    trace = tmp_path / "t.tsv"
    code = (
        "import sys\n"
        "from bimatch.cli import main\n"
        f"code = main(['solve', '--algo', {algo!r}, '--in', {str(inst)!r},"
        f" '--trace', {str(trace)!r}])\n"
        "print(code, 'bimatch.tracing' in sys.modules)\n"
    )
    assert run_python(code).splitlines()[-1] == "0 True"
    assert trace.read_text().startswith("# phase\t")


def test_generator_names_resolve_lazily():
    code = (
        "import sys, bimatch\n"
        "from bimatch import GenSpec, generate\n"
        "g = generate(GenSpec(model='erdos_renyi', n=5, s=3, d=1.0,"
        " weight_model='uniform', seed=1))\n"
        "missing = [name for name in bimatch.__all__"
        " if getattr(bimatch, name, None) is None]\n"
        "print(g.m, missing, set(bimatch.__all__) <= set(dir(bimatch)))\n"
    )
    assert run_python(code) == "15 [] True"


def test_unknown_attribute_is_still_an_attribute_error():
    code = (
        "import bimatch\n"
        "try:\n"
        "    bimatch.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert "no_such_name" in run_python(code)


def test_solve_loads_neither_gk_nor_the_oracle(tmp_path):
    inst = tmp_path / "g.txt"
    inst.write_text("2 2 4\n0 0 1\n0 1 3\n1 0 2\n1 1 1\n")
    code = (
        "import sys\n"
        "from bimatch.cli import main\n"
        f"codes = [main(['solve', '--in', {str(inst)!r}]),\n"
        f"    main(['solve', '--algo', 'hungarian', '--in', {str(inst)!r}])]\n"
        "print(codes, [m for m in ('bimatch.gk', 'bimatch.oracle')"
        " if m in sys.modules])\n"
    )
    assert run_python(code).splitlines()[-1] == "[0, 0] []"


def test_lazy_names_are_the_objects_their_modules_define():
    code = (
        "import importlib, bimatch\n"
        "wrong = [name for name, module in bimatch._LAZY.items()\n"
        "    if getattr(bimatch, name) is not getattr(\n"
        "        importlib.import_module('bimatch.' + module), name)]\n"
        "unlisted = sorted(set(bimatch._LAZY) - set(dir(bimatch)))\n"
        "print(len(bimatch._LAZY), wrong, unlisted)\n"
    )
    assert run_python(code) == "15 [] []"


def test_solve_and_hungarian_stay_functions_after_each_solver_runs():
    code = (
        "import bimatch\n"
        "from bimatch import build_graph, hungarian, solve\n"
        "g = build_graph(2, 2, [(0, 0, 1), (0, 1, 3), (1, 0, 2), (1, 1, 1)])\n"
        "weights = [bimatch.solve(g, a).weight"
        " for a in ('auction', 'gk', 'hungarian')]\n"
        "print(weights, bimatch.solve is solve, bimatch.hungarian is hungarian,"
        " callable(bimatch.solve), callable(bimatch.hungarian))\n"
    )
    assert run_python(code) == "[2, 2, 2] True True True True"
