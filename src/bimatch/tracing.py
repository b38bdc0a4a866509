"""Bid-level execution traces and their comparison.

Both production solvers emit one :class:`TraceEvent` per processed left
vertex, carrying everything the bid computed: the chosen object, the two
smallest reduced costs, the price drop and whoever got displaced.  Two
solver runs are trace-equivalent when their event sequences are identical.

Events serialize to a line-oriented TSV so traces can be diffed across
processes.  The columns are the fields of :class:`TraceEvent` in declaration
order; ``-1`` encodes "nobody displaced" (safe because vertex indices are
nonnegative).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import zip_longest
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Protocol

from .core import WeightedBipartiteGraph
from .scaling import DEFAULT_ALPHA
from .solve import solve

_COLUMNS = (
    "phase",
    "step",
    "u",
    "best_v",
    "best_rc",
    "second_rc",
    "gamma",
    "new_price_v",
    "displaced_u",
)
_HEADER = "# " + "\t".join(_COLUMNS)


@dataclass(frozen=True)
class TraceEvent:
    """One bid: vertex ``selected_u`` wins ``best_v`` at price ``new_price_v``.

    ``second_reduced_cost`` is the runner-up reduced cost in the bidder's
    neighborhood (a synthetic sentinel when the neighborhood is a single
    edge), ``gamma`` their gap, and ``displaced_u`` the previous owner of
    ``best_v`` if the bid evicted one.
    """

    phase_index: int
    step_index: int
    selected_u: int
    best_v: int
    best_reduced_cost: int
    second_reduced_cost: int
    gamma: int
    new_price_v: int
    displaced_u: Optional[int] = None

    def __post_init__(self) -> None:
        if self.gamma != self.second_reduced_cost - self.best_reduced_cost:
            raise ValueError("gamma must equal second - best")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


class TraceSink(Protocol):
    """Where a traced solver sends its events: a list, or a file writer."""

    def append(self, event: TraceEvent) -> None: ...


_field_values = attrgetter(*(f.name for f in fields(TraceEvent)))


def format_event(event: TraceEvent) -> str:
    return "\t".join(str(-1 if x is None else x) for x in _field_values(event))


def parse_event(line: str) -> TraceEvent:
    parts = line.split("\t")
    if len(parts) != len(_COLUMNS):
        raise ValueError(f"expected {len(_COLUMNS)} fields, got {len(parts)}")
    *head, displaced = map(int, parts)
    return TraceEvent(*head, displaced_u=None if displaced == -1 else displaced)


class TraceFileWriter:
    """Trace sink that streams events to a file as they happen."""

    def __init__(self, fh: IO[str]):
        self._fh = fh
        self._fh.write(_HEADER + "\n")

    def append(self, event: TraceEvent) -> None:
        self._fh.write(format_event(event) + "\n")


def read_trace_file(path: str | Path) -> Iterator[TraceEvent]:
    # A byte that is not ASCII is read as a lone surrogate; decoding its
    # line again, strictly, raises the codec's ValueError for that line.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            try:
                if not line.isascii():
                    line.encode("ascii", "surrogateescape").decode("ascii")
                if not line or line.startswith("#"):
                    continue
                event = parse_event(line)
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            yield event


@dataclass(frozen=True)
class TraceDivergence:
    """First position where two traces disagree; ``None`` side means the
    corresponding trace ended early."""

    index: int
    left: Optional[TraceEvent]
    right: Optional[TraceEvent]

    def describe(self) -> str:
        if self.left is None:
            return f"event {self.index}: left trace ended, right has {self.right}"
        if self.right is None:
            return f"event {self.index}: right trace ended, left has {self.left}"
        return f"event {self.index}:\n  left:  {self.left}\n  right: {self.right}"


def compare_traces(
    left: Iterable[TraceEvent], right: Iterable[TraceEvent]
) -> Optional[TraceDivergence]:
    """First divergence between two event streams, or ``None`` if identical."""
    # An event is never None, so the fill value marks the side that ended.
    for index, (a, b) in enumerate(zip_longest(left, right)):
        if a != b:
            return TraceDivergence(index, a, b)
    return None


def compare_trace_files(
    left: str | Path, right: str | Path
) -> Optional[TraceDivergence]:
    return compare_traces(read_trace_file(left), read_trace_file(right))


def record_trace(
    algorithm: str,
    graph: WeightedBipartiteGraph,
    alpha: Fraction = DEFAULT_ALPHA,
) -> tuple[list[TraceEvent], int]:
    """Run one solver with tracing on; return (events, matching weight).

    A traced ``gk`` solve also certifies the per-step price identities.
    """
    events: list[TraceEvent] = []
    result = solve(graph, algorithm, alpha=alpha, trace_sink=events)
    return events, result.weight
