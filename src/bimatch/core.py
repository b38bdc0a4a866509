"""Integer-weighted bipartite instances, matchings, prices and slackness checks.

An instance is a bipartite graph with left vertices ``0..n-1`` (persons),
right vertices ``0..s-1`` (objects) and integer edge weights.  Adjacency is
stored compressed (offsets plus contiguous neighbor/weight arrays) because
the solvers' inner loops are linear scans over one vertex's edges.  Graphs
are immutable after construction; matchings and price vectors are plain
mutable state owned by one solver run at a time.  The package's other
records (a reduction, a solve's result, gk's flow instance, the solvers'
snapshots) are ``typing.NamedTuple`` classes: frozen, compared, hashed and
pickled by their fields, without loading :mod:`dataclasses` on a solve.

Facts that an object's own data already holds are computed, not stored, so
no producer restates them and no caller can set them out of step: a graph's
``max_abs_weight`` is computed from ``adj_w`` on first use and cached, and
a matching's ``size`` is counted from ``match_of_v`` on every read.

Edges from outside the package are validated by :func:`build_graph`, and
an instance file's by :func:`read_instance` with the same column checks;
producers whose rows are valid by construction (the generators, the
reductions) lay out the adjacency arrays themselves, without a validating
pass.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import islice
from operator import lt
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Optional

Edge = tuple[int, int, int]

# Prices are exact integers on the scaled cost domain; no tolerances anywhere.
PriceVector = list[int]


class WeightedBipartiteGraph:
    """Immutable instance in compressed adjacency form.

    ``adj_off[u]:adj_off[u+1]`` slices ``adj_v``/``adj_w`` into the neighbor
    list of left vertex ``u``, sorted by right index ascending.  The sort
    order is load-bearing: deterministic tie-breaking in every solver rests
    on it.

    ``m`` and ``max_abs_weight`` are derived from the adjacency arrays, not
    fields: ``==`` and ``hash`` see only the five fields, and a graph built
    with another ``adj_w`` computes its own maximum.  The cached maximum
    needs a slot, which a tuple subclass cannot have, so unlike the other
    records the graph is not a ``NamedTuple``: it spells out the frozen
    dataclass behaviour itself.
    """

    _fields = ("n", "s", "adj_off", "adj_v", "adj_w")
    __slots__ = _fields + ("_max_abs_weight",)
    n: int
    s: int
    adj_off: tuple[int, ...]
    adj_v: tuple[int, ...]
    adj_w: tuple[int, ...]

    def __init__(
        self,
        n: int,
        s: int,
        adj_off: tuple[int, ...],
        adj_v: tuple[int, ...],
        adj_w: tuple[int, ...],
    ):
        for name, value in zip(self._fields, (n, s, adj_off, adj_v, adj_w)):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return self.n, self.s, self.adj_off, self.adj_v, self.adj_w

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join([f"{k}={getattr(self, k)!r}" for k in self._fields])
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    @property
    def max_abs_weight(self) -> int:
        """Largest ``|w|`` over all edges, 0 when there are none: the C of
        the O(nm log(nC)) bounds.  Computed on first use, then cached."""
        try:
            return self._max_abs_weight
        except AttributeError:
            w = self.adj_w
            top = max(max(w, default=0), -min(w, default=0))
            object.__setattr__(self, "_max_abs_weight", top)
            return top

    @property
    def m(self) -> int:
        return len(self.adj_v)

    def degree(self, u: int) -> int:
        return self.adj_off[u + 1] - self.adj_off[u]

    def neighbors(self, u: int) -> Iterator[tuple[int, int]]:
        """Yield ``(v, w)`` for every edge at ``u``, in ascending ``v``."""
        lo, hi = self.adj_off[u], self.adj_off[u + 1]
        for i in range(lo, hi):
            yield self.adj_v[i], self.adj_w[i]

    def iter_edges(self) -> Iterator[Edge]:
        """Yield all edges ``(u, v, w)`` sorted by ``(u, v)``."""
        for u in range(self.n):
            for v, w in self.neighbors(u):
                yield u, v, w

    def edge_index(self, u: int, v: int) -> Optional[int]:
        """Position of edge ``uv`` in the adjacency arrays, or ``None``."""
        lo, hi = self.adj_off[u], self.adj_off[u + 1]
        i = bisect_left(self.adj_v, v, lo, hi)
        if i < hi and self.adj_v[i] == v:
            return i
        return None

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_index(u, v) is not None

    def weight(self, u: int, v: int) -> int:
        i = self.edge_index(u, v)
        if i is None:
            raise ValueError(f"({u}, {v}) is not an edge")
        return self.adj_w[i]

    @classmethod
    def from_csr(
        cls,
        n: int,
        s: int,
        adj_off: Iterable[int],
        adj_v: Iterable[int],
        adj_w: Iterable[int],
    ) -> "WeightedBipartiteGraph":
        """Wrap adjacency rows that are already valid: ints, indices in
        range, each row strictly ascending.  Nothing is checked; edges from
        outside the package go through :func:`build_graph`."""
        return cls(n, s, tuple(adj_off), tuple(adj_v), tuple(adj_w))


def build_graph(n: int, s: int, edges: Iterable[Edge]) -> WeightedBipartiteGraph:
    """Construct a graph from edges in any order, validating every one.

    The contract, error precedence included:

    1. ``n < 1`` or ``s < 1`` raises before any edge is read.
    2. Edges are read once, in input order.  Each ``(u, v, w)`` is coerced
       with ``int()``, then its left and then its right index is checked,
       so the first edge that fails coercion or is out of range raises.
    3. Only when every edge is in range are duplicate pairs looked for; the
       one reported is the smallest duplicated ``(u, v)``.

    A range or duplicate fault is raised with the input position of the
    edge it names, the duplicated pair's second occurrence, so that
    :func:`read_instance` reports its file line without a second search.
    The reader applies the side rule of step 1 after its own token checks.

    Input already in strictly ascending ``(u, v)`` order, as every producer
    in this package emits it, is laid out as it comes; other input is
    sorted once.  Empty neighborhoods are legal here; whether every right
    vertex can be covered is a separate question (see
    :mod:`bimatch.feasibility`).
    """
    _check_sides(n, s)
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []
    try:
        for u, v, w in edges:
            u, v, w = int(u), int(v), int(w)
            us.append(u)
            vs.append(v)
            ws.append(w)
    except (TypeError, ValueError):
        _check_ranges(n, s, us, vs)  # an earlier edge out of range comes first
        raise
    return _layout(n, s, us, vs, ws)


class _EdgeFault(ValueError):
    """A fault of one edge: ``edge`` is its index in input order."""

    def __init__(self, message: str, edge: int):
        super().__init__(message)
        self.edge = edge


def _check_sides(n: int, s: int) -> None:
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")


def _check_ranges(n: int, s: int, us: list[int], vs: list[int]) -> None:
    """Raise an :class:`_EdgeFault` for the first edge whose left, then
    right, index is out of range; the columns are scanned edge by edge
    only when one is."""
    if us and (min(us) < 0 or max(us) >= n or min(vs) < 0 or max(vs) >= s):
        for k, (u, v) in enumerate(zip(us, vs)):
            if not 0 <= u < n:
                raise _EdgeFault(f"left index {u} out of range [0, {n})", k)
            if not 0 <= v < s:
                raise _EdgeFault(f"right index {v} out of range [0, {s})", k)


def _layout(
    n: int, s: int, us: list[int], vs: list[int], ws: list[int]
) -> WeightedBipartiteGraph:
    """Validate integer edge columns whole, for sides ``n, s >= 1``, and lay
    them out as CSR rows: ranges, then the smallest duplicated pair, as
    :func:`build_graph` states.  Each fault is an :class:`_EdgeFault`; a
    duplicate's edge is the second occurrence of its pair.  Strictly
    ascending ``(u, v)`` keys are laid out as they come; other input is
    sorted once, stably, so equal keys keep their input order."""
    _check_ranges(n, s, us, vs)
    keys = [u * s + v for u, v in zip(us, vs)]
    if not all(map(lt, keys, islice(keys, 1, None))):
        order = sorted(range(len(keys)), key=keys.__getitem__)
        keys = [keys[i] for i in order]
        for k, (a, b) in enumerate(zip(keys, islice(keys, 1, None)), 1):
            if a == b:
                raise _EdgeFault("duplicate edge (%d, %d)" % divmod(a, s), order[k])
        vs = [vs[i] for i in order]
        ws = [ws[i] for i in order]
    off = [bisect_left(keys, u * s) for u in range(n + 1)]
    return WeightedBipartiteGraph.from_csr(n, s, off, vs, ws)


def density(graph: WeightedBipartiteGraph) -> Fraction:
    """Edge density m / (n * s), as an exact rational in [0, 1]."""
    return Fraction(graph.m, graph.n * graph.s)


class Matching:
    """Partial assignment between left and right vertices.

    ``match_of_v[v]`` and ``match_of_u[u]`` are mutually consistent partner
    indices (``None`` when unmatched).  ``size``, the number of matched
    pairs, is counted from ``match_of_v`` on every read, so it follows
    direct edits of the two lists too.
    """

    __slots__ = ("match_of_u", "match_of_v")

    def __init__(self, n: int, s: int):
        self.match_of_u: list[Optional[int]] = [None] * n
        self.match_of_v: list[Optional[int]] = [None] * s

    @property
    def size(self) -> int:
        return len(self.match_of_v) - self.match_of_v.count(None)

    def assign(self, u: int, v: int) -> None:
        if self.match_of_u[u] is not None or self.match_of_v[v] is not None:
            raise ValueError(f"cannot assign ({u}, {v}): an endpoint is matched")
        self.match_of_u[u] = v
        self.match_of_v[v] = u

    def unassign(self, u: int, v: int) -> None:
        if self.match_of_u[u] != v or self.match_of_v[v] != u:
            raise ValueError(f"({u}, {v}) is not a matched pair")
        self.match_of_u[u] = None
        self.match_of_v[v] = None

    def pairs(self) -> list[tuple[int, int]]:
        """Matched ``(u, v)`` pairs sorted by right index."""
        return [(u, v) for v, u in enumerate(self.match_of_v) if u is not None]

    def copy(self) -> "Matching":
        other = Matching(len(self.match_of_u), len(self.match_of_v))
        other.match_of_u = list(self.match_of_u)
        other.match_of_v = list(self.match_of_v)
        return other

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matching)
            and self.match_of_u == other.match_of_u
            and self.match_of_v == other.match_of_v
        )

    def __repr__(self) -> str:
        return f"Matching({self.pairs()!r})"


def matching_weight(graph: WeightedBipartiteGraph, matching: Matching) -> int:
    """Sum of matched-edge weights (0 for the empty matching)."""
    total = 0
    for u, v in matching.pairs():
        total += graph.weight(u, v)
    return total


def validate_matching(
    graph: WeightedBipartiteGraph,
    matching: Matching,
    require_perfect: bool = False,
) -> Optional[str]:
    """Return ``None`` if valid, else a message naming the first violation.

    "Perfect" follows the one-sided coverage convention: every right vertex
    matched, i.e. ``size == s``.
    """
    if len(matching.match_of_u) != graph.n or len(matching.match_of_v) != graph.s:
        return "matching shape does not fit the graph"
    for v, u in enumerate(matching.match_of_v):
        if u is None:
            continue
        if not 0 <= u < graph.n:
            return f"right vertex {v} matched to out-of-range {u}"
        if matching.match_of_u[u] != v:
            return f"inconsistent pairing at right vertex {v}"
        if not graph.has_edge(u, v):
            return f"({u}, {v}) is not an edge"
    for u, v in enumerate(matching.match_of_u):
        if v is None:
            continue
        if not 0 <= v < graph.s:
            return f"left vertex {u} matched to out-of-range {v}"
        if matching.match_of_v[v] != u:
            return f"inconsistent pairing at left vertex {u}"
    if require_perfect:
        for v, u in enumerate(matching.match_of_v):
            if u is None:
                return f"uncovered right vertex {v}"
    return None


def reduced_cost(
    graph: WeightedBipartiteGraph, prices: PriceVector, u: int, v: int
) -> int:
    """w(uv) - p(v); the auction's reduced cost, a.k.a. partial reduced cost."""
    return graph.weight(u, v) - prices[v]


def check_eps_cs(
    graph: WeightedBipartiteGraph,
    prices: PriceVector,
    matching: Matching,
    eps: int,
) -> bool:
    """Epsilon-complementary slackness: every matched edge is within ``eps``
    of the cheapest reduced cost in its person's neighborhood.

    Vacuously true for the empty matching; false when a matched pair is
    not an edge, since no slackness condition can hold for it.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    off, adj_v, adj_w = graph.adj_off, graph.adj_v, graph.adj_w
    for u, v in matching.pairs():
        best = None
        matched_rc = None
        for i in range(off[u], off[u + 1]):
            rc = adj_w[i] - prices[adj_v[i]]
            if best is None or rc < best:
                best = rc
            if adj_v[i] == v:
                matched_rc = rc
        if matched_rc is None or matched_rc > best + eps:
            return False
    return True


# Instance text format: line 1 "n s m", then m lines "u v w" (0-based
# indices, ASCII, LF, CRLF or CR endings; each field a token that ``int()``
# reads, so "+1", "0_2" and "01" are integers; blank lines may follow the
# edges). The interchange format of the CLI.


def write_instance(graph: WeightedBipartiteGraph, path: str | Path) -> None:
    off = graph.adj_off
    # (v, w) pairs interleaved, so one row is one slice and one write.
    flat: list[int] = [0] * (2 * graph.m)
    flat[0::2] = graph.adj_v
    flat[1::2] = graph.adj_w
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{graph.n} {graph.s} {graph.m}\n")
        for u in range(graph.n):
            lo, hi = off[u], off[u + 1]
            if hi > lo:
                fh.write((f"{u} %d %d\n" * (hi - lo)) % tuple(flat[2 * lo : 2 * hi]))


# Stands for a line break among the body's tokens: no ASCII text holds it,
# and ``str.split`` keeps it whole.
_BREAK = "\xa7"


def read_instance(path: str | Path) -> WeightedBipartiteGraph:
    """Parse an instance file.  A byte that is not ASCII is reported first,
    wherever it is; other faults in file order: a bad header, then the first
    edge line that is not three integers, then trailing content, then
    whatever :func:`build_graph` reports first.  Every message starts with
    the path and the file line it is about.

    The body is parsed in bulk: one ``split`` over all lines, with each line
    break turned into a ``_BREAK`` token, a check that breaks sit at every
    fourth token and that only breaks follow the m-th line, and one ``int``
    pass.  Should either fail, :func:`_raise_fault` walks the file line by
    line to report the token fault.  Then come :func:`build_graph`'s checks
    on the columns, each fault reported at the line it is about: the sides
    at line 1, and the edge that :func:`_layout` names at its own line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: {exc}") from None
    del data
    if "\r" in text:  # the newline translation a text-mode read makes
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    header_line, _, body = text.partition("\n")
    del text
    header = header_line.split()
    if len(header) != 3:
        raise ValueError(f"{path}, line 1: header must be 'n s m'")
    try:
        n, s, m = (int(tok) for tok in header)
    except ValueError:
        raise ValueError(f"{path}, line 1: bad header {header!r}") from None
    if m < 0:
        raise ValueError(
            f"{path}, line 1: bad header {header!r}: negative edge count"
        )
    tokens = body.replace("\n", f" {_BREAK} ").split()
    # m lines of three tokens, each but the last closed by a break
    end = 4 * m - 1 if m else 0
    tail = tokens[end:]
    del tokens[end:]
    breaks = tokens[3::4]
    if (
        len(tokens) != end
        or breaks.count(_BREAK) != len(breaks)
        or tail.count(_BREAK) != len(tail)
    ):
        _raise_fault(path, m, body)
    # each list is dropped once the next exists: the tokens are the read's
    # peak memory
    del tokens[3::4], breaks, tail
    try:
        values = list(map(int, tokens))
    except ValueError:
        _raise_fault(path, m, body)
    del tokens
    us, vs, ws = values[0::3], values[1::3], values[2::3]
    del values
    try:
        _check_sides(n, s)
        return _layout(n, s, us, vs, ws)
    except ValueError as exc:
        # edge k sits on file line k + 2; the sides are on the header's
        line = exc.edge + 2 if isinstance(exc, _EdgeFault) else 1
        raise ValueError(f"{path}, line {line}: {exc}") from None


def _raise_fault(path: str | Path, m: int, body: str) -> NoReturn:
    """Report the first token fault in an instance file's body, walking it
    line by line; called only once the bulk parse has failed, so it always
    raises.  The order: the first of the m edge lines that is not three
    integers, a missing line counting as empty, then content after them."""
    lines = body.split("\n")
    # edge k sits on file line k + 2; a missing line reads as empty, so the
    # walk ends there at the latest, whatever m the header declares
    for k in range(m):
        parts = lines[k].split() if k < len(lines) else []
        if len(parts) != 3:
            raise ValueError(f"{path}, line {k + 2}: edge line {k + 1} must be 'u v w'")
        try:
            list(map(int, parts))
        except ValueError:
            raise ValueError(f"{path}, line {k + 2}: bad edge line {parts!r}") from None
    for lineno, line in enumerate(lines[m:], m + 2):
        if line.strip():
            raise ValueError(
                f"{path}, line {lineno}: trailing content after the declared edges"
            )
    raise AssertionError(f"{path}: the line walk found no fault")
