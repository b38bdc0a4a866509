"""Smoke tests for the scripts the README points to."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("extra", [[], ["--unbalanced"]])
def test_trace_equivalence_demo_exits_0(extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "trace_equivalence_demo.py"),
            "--count", "3", "--max-n", "8", "--seed", "5", *extra,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "3/3 instances trace-equivalent" in proc.stdout
