"""Command line front end.

Subcommands: ``gen`` (write a random instance), ``solve`` (run one solver on
an instance file), ``verify`` (cross-check a solver against the brute-force
reference on a small instance), ``trace-diff`` (compare two trace files),
``bench`` (run a benchmark grid from a config file).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

from .core import read_instance, write_instance
from .errors import InfeasibleInstanceError
from .scaling import parse_alpha
from .solve import ALGORITHMS, require_traced, solve

_EDGE_MODEL_BY_FLAG = {"er": "erdos_renyi", "dd": "dispersed_degree"}
_WEIGHT_MODEL_BY_FLAG = {
    "u": "uniform",
    "ulh": "uniform_low_high",
    "loh": "low_or_high",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bimatch",
        description="Minimum-weight bipartite matching toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance file")
    p_gen.add_argument("--model", choices=sorted(_EDGE_MODEL_BY_FLAG), required=True)
    p_gen.add_argument("--n", type=int, required=True, help="left vertices")
    p_gen.add_argument("--s", type=int, required=True, help="right vertices")
    p_gen.add_argument("--density", type=float, required=True)
    p_gen.add_argument(
        "--rnorm",
        type=float,
        default=None,
        help="normalized dispersion radius (dd model only)",
    )
    p_gen.add_argument(
        "--weights", choices=sorted(_WEIGHT_MODEL_BY_FLAG), required=True
    )
    p_gen.add_argument(
        "--plow",
        type=float,
        default=None,
        help="low-weight probability (ulh/loh models only)",
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", type=Path, required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--algo", choices=ALGORITHMS, default="auction")
    p_solve.add_argument(
        "--alpha",
        type=str,
        default="5",
        help="scaling divisor > 1, e.g. 5 or 7/2 (auction and gk)",
    )
    p_solve.add_argument("--in", dest="infile", type=Path, required=True)
    p_solve.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="write the bid-level trace here (auction and gk)",
    )

    p_verify = sub.add_parser(
        "verify",
        help="check a solver against brute force on a small instance",
    )
    p_verify.add_argument("--in", dest="infile", type=Path, required=True)
    p_verify.add_argument("--against", choices=ALGORITHMS, required=True)

    p_diff = sub.add_parser("trace-diff", help="compare two trace files")
    p_diff.add_argument("left", type=Path)
    p_diff.add_argument("right", type=Path)

    p_bench = sub.add_parser("bench", help="run a benchmark grid")
    p_bench.add_argument("--config", type=Path, required=True)
    p_bench.add_argument("--out", type=Path, required=True)
    p_bench.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker processes (default sequential for clean timings)",
    )
    p_bench.add_argument("--progress", action="store_true")
    return parser


# ``gen`` and ``bench`` import their modules when they run: both need numpy,
# which ``solve``, ``verify`` and ``trace-diff`` should not pay to load.
# ``verify`` imports the brute-force oracle the same way, since no other
# command uses it, and only ``solve --trace`` and ``trace-diff`` load the
# tracing module.


def _cmd_gen(args: argparse.Namespace) -> int:
    from .gen import GenSpec, generate

    spec = GenSpec(
        model=_EDGE_MODEL_BY_FLAG[args.model],
        n=args.n,
        s=args.s,
        d=args.density,
        weight_model=_WEIGHT_MODEL_BY_FLAG[args.weights],
        seed=args.seed,
        r_norm=args.rnorm,
        p_low=args.plow,
    )
    graph = generate(spec)
    write_instance(graph, args.out)
    print(f"wrote {graph.n} x {graph.s} instance with {graph.m} edges to {args.out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = read_instance(args.infile)
    alpha = parse_alpha(args.alpha)
    if args.trace is None:
        trace_file = nullcontext()
    else:
        from .tracing import TraceFileWriter

        require_traced(args.algo)  # before the file is opened and truncated
        trace_file = open(args.trace, "w", encoding="ascii", newline="\n")
    with trace_file as trace_fh:
        try:
            result = solve(
                graph,
                args.algo,
                alpha=alpha,
                trace_sink=None if trace_fh is None else TraceFileWriter(trace_fh),
            )
        except InfeasibleInstanceError:
            print("infeasible")
            return 1
    pairs = "".join([f"{u} {v}\n" for u, v in result.matching.pairs()])
    sys.stdout.write(f"{pairs}weight {result.weight}\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import MAX_ORACLE_S, brute_force_optimum

    graph = read_instance(args.infile)
    if graph.s > MAX_ORACLE_S:
        print(
            f"instance too large to verify by enumeration (s={graph.s} > "
            f"{MAX_ORACLE_S})",
            file=sys.stderr,
        )
        return 2
    reference = brute_force_optimum(graph)
    try:
        result: Optional[int] = solve(graph, args.against).weight
    except InfeasibleInstanceError:
        result = None
    if reference is None and result is None:
        print("ok: both report infeasible")
        return 0
    if reference is None or result is None:
        print(
            f"MISMATCH: brute force says "
            f"{'infeasible' if reference is None else reference[1]}, "
            f"{args.against} says {'infeasible' if result is None else result}"
        )
        return 1
    if reference[1] != result:
        print(
            f"MISMATCH: brute force optimum {reference[1]}, "
            f"{args.against} returned {result}"
        )
        return 1
    print(f"ok: {args.against} matches brute force, weight {result}")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from .tracing import compare_trace_files

    divergence = compare_trace_files(args.left, args.right)
    if divergence is None:
        print("identical")
        return 0
    print(divergence.describe())
    return 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import load_config, run_grid

    config = load_config(args.config)
    runs_path = run_grid(
        config, args.out, workers=args.workers, progress=args.progress
    )
    print(f"wrote {runs_path}")
    print(f"wrote {runs_path.parent / 'aggregated.csv'}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "trace-diff": _cmd_trace_diff,
    "bench": _cmd_bench,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
