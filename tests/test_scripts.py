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


CODE_LINES_FIXTURE = '''"""Module docstring:
none of its lines count."""
# a comment line

import os  # a trailing comment: the line counts


class Box:
    """Class docstring."""

    label = """a multi-line
string that is not a docstring"""

    def size(self, items):
        """Function docstring,
        on two lines."""
        total = sum(
            len(item)
            for item in items
        )
        return total
'''


def test_code_lines_counts_lines_that_hold_a_code_token(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "box.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n')
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path / "pkg")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # import, class, the string's two lines, def, the four lines of the
    # sum, return
    counts = [line.split()[0] for line in proc.stdout.splitlines()]
    assert counts == ["10", "0", "10"]
    assert proc.stdout.splitlines()[-1].endswith("total")
