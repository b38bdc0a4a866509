"""The bulk instance reader gives the line-by-line reader's graphs and errors.

``reference_read_instance`` is the reader as it was before the bulk parse:
a text-mode read, one ``split`` and one ``int()`` per edge line, then a
per-edge build and a contract-following search for the fault's line.  On
valid files of every shape the format allows, ``read_instance`` must return
the same graph without walking the lines; on files with injected faults it
must raise the same ``ValueError`` text.
"""

from __future__ import annotations

import random
import time
from itertools import accumulate

import pytest

from bimatch import core
from bimatch.core import WeightedBipartiteGraph, read_instance


def reference_build(n: int, s: int, edges: list) -> WeightedBipartiteGraph:
    """``build_graph``'s contract, edge by edge."""
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    for u, v, _ in edges:
        if not 0 <= u < n:
            raise ValueError(f"left index {u} out of range [0, {n})")
        if not 0 <= v < s:
            raise ValueError(f"right index {v} out of range [0, {s})")
    ordered = sorted(edges, key=lambda e: (e[0], e[1]))
    for a, b in zip(ordered, ordered[1:]):
        if a[:2] == b[:2]:
            raise ValueError("duplicate edge (%d, %d)" % a[:2])
    degree = [0] * n
    for u, _, _ in ordered:
        degree[u] += 1
    return WeightedBipartiteGraph(
        n,
        s,
        (0, *accumulate(degree)),
        tuple(v for _, v, _ in ordered),
        tuple(w for _, _, w in ordered),
    )


def reference_fault_line(n: int, s: int, edges: list) -> int:
    if n < 1 or s < 1:
        return 1
    for k, (u, v, _) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < s):
            return k + 2
    seen: set = set()
    repeats: dict = {}
    for k, (u, v, _) in enumerate(edges):
        if (u, v) in seen:
            repeats.setdefault((u, v), k)
        seen.add((u, v))
    return repeats[min(repeats)] + 2


def reference_read_instance(path) -> WeightedBipartiteGraph:
    """The line-by-line reader."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    header = lines[0].split()
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
    edges = []
    for line in lines[1 : m + 1]:
        parts = line.split()
        if len(parts) != 3:
            break
        try:
            edges.append(tuple(int(tok) for tok in parts))
        except ValueError:
            raise ValueError(
                f"{path}, line {len(edges) + 2}: bad edge line {parts!r}"
            ) from None
    if len(edges) < m:
        k = len(edges)
        raise ValueError(f"{path}, line {k + 2}: edge line {k + 1} must be 'u v w'")
    for lineno, line in enumerate(lines[m + 1 :], m + 2):
        if line.strip():
            raise ValueError(
                f"{path}, line {lineno}: trailing content after the declared edges"
            )
    try:
        return reference_build(n, s, edges)
    except ValueError as exc:
        line = reference_fault_line(n, s, edges)
        raise ValueError(f"{path}, line {line}: {exc}") from None


def outcome(reader, path):
    try:
        return ("graph", reader(path))
    except ValueError as exc:
        return ("error", str(exc))


# --- drawing files -----------------------------------------------------------

SHAPES = (
    "plain",
    "unsorted",
    "crlf",
    "cr",
    "tabs",
    "int_forms",
    "blank_trailing",
    "no_final_newline",
    "m0",
)
SPACES = (" ", "\t", "  ", " \t ", "\v", "\f", "\x1c", "\x1f")


def token(rng: random.Random, x: int, int_forms: bool) -> str:
    """A token that ``int()`` reads as ``x``."""
    if not int_forms or rng.random() < 0.4:
        return str(x)
    digits = str(abs(x))
    sign = "-" if x < 0 else rng.choice(("", "+"))
    form = rng.randrange(3)
    if form == 0:
        digits = "0" + digits
    elif form == 1 and len(digits) > 1:
        cut = rng.randrange(1, len(digits))
        digits = digits[:cut] + "_" + digits[cut:]
    return sign + digits


def draw_edges(rng: random.Random, n: int, s: int) -> list:
    d = rng.choice((0.0, 0.2, 0.6, 1.0))
    big = rng.random() < 0.2
    return [
        (u, v, rng.randint(-(10**20), 10**20) if big else rng.randint(-50, 50))
        for u in range(n)
        for v in range(s)
        if rng.random() < d
    ]


class Draft:
    """An instance file as tokens: the header, the body lines, the format."""

    def __init__(self, rng: random.Random, shape: str):
        self.rng = rng
        mixed = shape == "plain" and rng.random() < 0.5
        pick = (lambda name: shape == name or (mixed and rng.random() < 0.5))
        self.n, self.s = rng.randint(1, 7), rng.randint(1, 7)
        edges = [] if shape == "m0" else draw_edges(rng, self.n, self.s)
        if pick("unsorted"):
            rng.shuffle(edges)
        self.int_forms = pick("int_forms")
        self.tabs = pick("tabs")
        self.newline = "\n"
        if pick("crlf"):
            self.newline = "\r\n"
        if pick("cr"):
            self.newline = "\r"
        self.header = [str(self.n), str(self.s), str(len(edges))]
        self.lines = [
            [token(rng, x, self.int_forms) for x in edge] for edge in edges
        ]
        self.blank_tail = rng.randint(1, 3) if pick("blank_trailing") else 0
        self.final_newline = not pick("no_final_newline")

    def space(self) -> str:
        return self.rng.choice(SPACES) if self.tabs else " "

    def pad(self) -> str:
        return self.rng.choice(("", " ", "\t ")) if self.tabs else ""

    def render(self) -> bytes:
        rng = self.rng
        rows = [self.header] + self.lines
        out = [
            self.pad() + "".join(
                tok if i == 0 else self.space() + tok for i, tok in enumerate(row)
            ) + self.pad()
            for row in rows
        ]
        out += [rng.choice(("", " ", "\t", "  \t")) for _ in range(self.blank_tail)]
        text = self.newline.join(out)
        if self.final_newline:
            text += self.newline
        return text.encode("ascii")


# --- faults ------------------------------------------------------------------


def edge_index(rng: random.Random, draft: Draft) -> int:
    """A line with three tokens or more; when there is none, a new first
    edge line ``0 0 0`` is counted in and chosen."""
    whole = [k for k, row in enumerate(draft.lines) if len(row) >= 3]
    if whole:
        return rng.choice(whole)
    draft.lines.insert(0, ["0", "0", "0"])
    draft.header[2] = str(int(draft.header[2]) + 1)
    return 0


def header_shape(rng, draft):
    if rng.random() < 0.5:
        draft.header = draft.header[: rng.randint(0, 2)]
    else:
        draft.header = draft.header + ["1"]


def header_token(rng, draft):
    if draft.header:
        draft.header[rng.randrange(len(draft.header))] = rng.choice(("x", "1.5", "--2"))


def negative_count(rng, draft):
    if len(draft.header) >= 3:
        draft.header[2] = str(-rng.randint(1, 3))


def sides(rng, draft):
    if len(draft.header) >= 2:
        draft.header[rng.randrange(2)] = str(rng.randint(-2, 0))


def short_line(rng, draft):
    k = edge_index(rng, draft)
    row = draft.lines[k]
    draft.lines[k] = rng.choice((row[:2], row[:1], [], row + ["7"]))


def bad_token(rng, draft):
    k = edge_index(rng, draft)
    draft.lines[k][rng.randrange(3)] = rng.choice(("x", "1.5", "_1", "--1", "1e3"))


def missing_lines(rng, draft):
    if draft.lines and rng.random() < 0.5:
        del draft.lines[edge_index(rng, draft)]
    else:
        draft.header[2] = str(int(draft.header[2]) + rng.randint(1, 2))


def trailing(rng, draft):
    draft.blank_tail = 0
    content = rng.choice((["1", "1", "1"], ["x"], ["0", "0", "0", "0"]))
    draft.lines += [[]] * rng.randint(0, 2) + [content]


def left_range(rng, draft):
    k = edge_index(rng, draft)
    draft.lines[k][0] = str(rng.choice((-1, draft.n, draft.n + 3)))


def right_range(rng, draft):
    k = edge_index(rng, draft)
    draft.lines[k][1] = str(rng.choice((-1, -2, draft.s, draft.s + 1)))


def duplicate(rng, draft):
    k = edge_index(rng, draft)
    copy = draft.lines[k][:2] + [str(rng.randint(-9, 9))]
    at = k + 1 if rng.random() < 0.5 else rng.randint(0, len(draft.lines))
    draft.lines.insert(at, copy)
    draft.header[2] = str(int(draft.header[2]) + 1)


# the header faults are applied after the body faults, which read the
# declared edge count
HEADER_FAULTS = ("header_shape", "header_token", "negative_count", "sides")
FAULTS = {
    f.__name__: f
    for f in (
        header_shape,
        header_token,
        negative_count,
        sides,
        short_line,
        bad_token,
        missing_lines,
        trailing,
        left_range,
        right_range,
        duplicate,
    )
}


# --- tests -------------------------------------------------------------------


@pytest.fixture
def no_line_walk(monkeypatch):
    """Fail if the reader falls back to the line walk."""

    def walked(*args):
        raise AssertionError("a valid file went to the fault locator")

    monkeypatch.setattr(core, "_raise_fault", walked)


@pytest.mark.parametrize("shape", SHAPES)
def test_valid_files_read_as_the_reference_through_the_bulk_path(
    tmp_path, no_line_walk, shape
):
    rng = random.Random(f"valid {shape}")
    path = tmp_path / "g.txt"
    for _ in range(150):
        draft = Draft(rng, shape)
        path.write_bytes(draft.render())
        expected = reference_read_instance(path)
        assert read_instance(path) == expected, path.read_bytes()


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_injected_faults_give_the_reference_message(tmp_path, kind):
    rng = random.Random(f"fault {kind}")
    path = tmp_path / "bad.txt"
    errors = 0
    for _ in range(150):
        draft = Draft(rng, rng.choice(SHAPES))
        kinds = [kind] + rng.sample(sorted(FAULTS), rng.randint(0, 2))
        rng.shuffle(kinds)
        kinds.sort(key=HEADER_FAULTS.__contains__)
        for name in kinds:
            FAULTS[name](rng, draft)
        path.write_bytes(draft.render())
        expected = outcome(reference_read_instance, path)
        errors += expected[0] == "error"
        assert outcome(read_instance, path) == expected, path.read_bytes()
    # a later fault can repair an earlier one (a trailing edge line counted
    # in by a raised edge count), but rarely
    assert errors >= 140


GRAPH_FAULTS = ("sides", "left_range", "right_range", "duplicate")


@pytest.mark.parametrize("kind", GRAPH_FAULTS)
def test_graph_faults_take_their_line_without_the_line_walk(
    tmp_path, no_line_walk, kind
):
    """A side, range or duplicate fault in a file whose every token parses
    is reported at its line by the check that raised it."""
    rng = random.Random(f"graph fault {kind}")
    path = tmp_path / "bad.txt"
    for _ in range(150):
        draft = Draft(rng, rng.choice(SHAPES))
        kinds = [kind] + rng.sample(GRAPH_FAULTS, rng.randint(0, 2))
        kinds.sort(key=HEADER_FAULTS.__contains__)
        for name in kinds:
            FAULTS[name](rng, draft)
        path.write_bytes(draft.render())
        expected = outcome(reference_read_instance, path)
        assert expected[0] == "error"
        assert outcome(read_instance, path) == expected, path.read_bytes()


@pytest.mark.parametrize(
    "text, line, message",
    [
        # ascending but for the repeat, and in no order at all
        ("2 2 3\n0 0 1\n0 1 1\n0 1 2\n", 4, "duplicate edge (0, 1)"),
        ("2 2 3\n1 1 1\n0 0 1\n1 1 2\n", 4, "duplicate edge (1, 1)"),
        # a pair on three lines: its second line
        ("3 3 4\n0 1 5\n2 2 1\n0 1 6\n0 1 7\n", 4, "duplicate edge (0, 1)"),
        # the smaller pair's second line comes after the larger pair's
        ("3 3 4\n1 1 1\n0 2 1\n1 1 2\n0 2 2\n", 5, "duplicate edge (0, 2)"),
        ("3 0 2\n0 0 1\n0 0 1\n", 1, "need n >= 1 and s >= 1"),
        ("2 2 3\n0 0 1\n0 0 2\n0 5 1\n", 4, "right index 5 out of range [0, 2)"),
    ],
)
def test_hand_written_graph_faults_take_their_line(
    tmp_path, no_line_walk, text, line, message
):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    expected = f"{path}, line {line}: {message}"
    assert outcome(reference_read_instance, path) == ("error", expected)
    assert outcome(read_instance, path) == ("error", expected)


def test_a_header_count_beyond_the_lines_fails_at_the_first_missing_line(tmp_path):
    """The declared edge count comes from the file: the walk must not
    allocate or visit that many lines."""
    path = tmp_path / "bad.txt"
    path.write_text("2 2 1000000000000\n0 0 1\n")
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        read_instance(path)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == f"{path}, line 3: edge line 2 must be 'u v w'"
