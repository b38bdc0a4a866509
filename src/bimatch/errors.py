"""Runtime errors shared by the solvers, and their common deadline probe."""

import time
from typing import Optional

# Solver loops probe the clock only every this many steps.
DEADLINE_STRIDE = 1024


class InfeasibleInstanceError(Exception):
    """The instance admits no matching that covers every right vertex."""


class IterationLimitError(Exception):
    """A solver's defensive iteration cap fired.

    On feasible input this indicates a bug; on infeasible input it is the
    guard against the known non-terminating behaviour of the bidding loop.
    """


class SolveTimeout(Exception):
    """A cooperative per-solve deadline expired."""


def check_deadline(deadline: Optional[float], where: str) -> None:
    """Raise :class:`SolveTimeout` once the ``time.monotonic`` deadline has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise SolveTimeout(f"{where} hit the deadline")
