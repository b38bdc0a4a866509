#!/usr/bin/env python3
"""The bimatch benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense-square --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
gives the per-layer breakdown.  Both check every answer against scipy's
LAPJVsp and the traced run also checks that the auction and gk traces are
identical.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Failures are listed on standard error, each naming the
workload, seed and instance.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import ROOT, SetupError, environment, use_source_tree
from spec import END_TO_END, PER_LAYER, WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        use_source_tree()
        workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            if args.trace:
                import layers as runner
            else:
                import e2e as runner
            metrics, tally, report = runner.run(
                WORKLOADS[args.workload], args.seed, args.seconds, Path(workdir)
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    expected = PER_LAYER if args.trace else END_TO_END
    described = {m.name: m.meaning for m in expected}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        n = report["samples"].get(name)
        count = f"median of {n}; " if n else ""
        print(f"  {name} = {value:.6g} {unit}  ({count}{described[name]})")
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        environment=environment(),
        failures=tally.failures,
    )
    print("report " + json.dumps(report))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
