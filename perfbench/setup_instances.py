"""Set-up of one benchmark run, timed from outside as ``setup_s``: import
bimatch, generate every instance of a workload and write its instance files.

    python3 perfbench/setup_instances.py --workload JSON --seed 1 --out DIR

``JSON`` is a :class:`spec.Workload` as a JSON object.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from checks import use_source_tree
from spec import Workload


def instance_path(out: Path, index: int) -> Path:
    return out / f"instance_{index}.txt"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", type=json.loads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    use_source_tree()
    from bimatch import GenSpec, generate, write_instance

    workload = Workload(**args.workload)
    for i in range(workload.instances):
        graph = generate(GenSpec(seed=workload.gen_seed(args.seed, i), **workload.gen))
        write_instance(graph, instance_path(args.out, i))


if __name__ == "__main__":
    main()
