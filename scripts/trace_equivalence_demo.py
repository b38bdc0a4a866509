#!/usr/bin/env python3
"""Differential demo: the two scaling solvers take identical steps.

Draws random instances, records the bid-level trace of the auction solver
and the double-push trace of the push-relabel solver, and diffs them
event by event.  Prints one line per instance plus a summary; exits
nonzero on any divergence or weight mismatch.  Each line gives the size
``N`` of the balanced graph the solvers bid on, so an unbalanced draw
shows whether the column kernel shrank it (``N < n + s``).

    python3 scripts/trace_equivalence_demo.py --count 50 --max-n 64 --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys

from bimatch.feasibility import is_feasible
from bimatch.gen import GenSpec, generate
from bimatch.reduction import build_reduction
from bimatch.tracing import compare_traces, record_trace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=25)
    parser.add_argument("--max-n", type=int, default=64)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--unbalanced",
        action="store_true",
        help="draw s < n instances (column kernel, then the double reduction)",
    )
    args = parser.parse_args()

    rng = random.Random(args.seed)
    produced = divergent = 0
    while produced < args.count:
        n = rng.randint(2, args.max_n)
        model = rng.choice(("erdos_renyi", "dispersed_degree"))
        spec = GenSpec(
            model=model,
            n=n,
            s=rng.randint(1, n) if args.unbalanced else n,
            d=rng.choice((0.3, 0.5, 0.8)),
            weight_model="uniform",
            seed=rng.randrange(1 << 32),
            r_norm=0.5 if model == "dispersed_degree" else None,
        )
        graph = generate(spec)
        if not is_feasible(graph):
            continue
        produced += 1
        balanced_n = build_reduction(graph).graph.n
        events_a, weight_a = record_trace("auction", graph)
        events_g, weight_g = record_trace("gk", graph)
        divergence = compare_traces(events_a, events_g)
        ok = divergence is None and weight_a == weight_g
        print(
            f"[{produced:3d}] {spec.model:16s} n={graph.n:3d} s={graph.s:3d} "
            f"N={balanced_n:3d} m={graph.m:5d} events={len(events_a):6d} "
            f"weight={weight_a:8d} {'equal' if ok else 'DIVERGED'}"
        )
        if not ok:
            divergent += 1
            if divergence is not None:
                print(divergence.describe(), file=sys.stderr)
            else:
                print(
                    f"weights differ: {weight_a} vs {weight_g}",
                    file=sys.stderr,
                )

    print(
        f"\n{produced - divergent}/{produced} instances trace-equivalent"
    )
    return 1 if divergent else 0


if __name__ == "__main__":
    sys.exit(main())
