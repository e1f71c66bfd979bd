"""Adjacency-list graphs with erased entries.

A graph is stored as one ordered adjacency list per vertex. Each list slot
holds either a vertex id or the ERASED mark. Slot order is significant:
neighbor queries address slots by index, and serialization preserves the
order byte for byte.

Vertex labels are dense integers 0..n-1. The number of edges m is always
derived as half the total list length, never stored separately.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path
from types import MappingProxyType

import numpy as np


class _ErasedMark:
    """Singleton placeholder for an erased adjacency entry."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "*"


ERASED = _ErasedMark()


class PartiallyErasedGraph:
    """Immutable adjacency-list graph whose entries may be erased.

    Construction accepts arbitrary int entries (including invalid ones such
    as out-of-range ids); use :func:`validate` to obtain the list of
    invariant violations. Algorithm contracts only cover graphs that
    validate cleanly and admit a completion.
    """

    __slots__ = ("_adj", "_n", "_entries", "_erased_total", "_listed", "_derived")

    def __init__(self, adjacency):
        adj = [tuple(row) for row in adjacency]
        n = len(adj)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        # One count of entry types; the per-entry loop runs only to name a
        # bad entry, or to let an int subclass such as an IntEnum member by.
        kinds = Counter(map(type, chain.from_iterable(adj)))
        if kinds.keys() - {int, _ErasedMark}:
            for u, row in enumerate(adj):
                for e in row:
                    if e is not ERASED and (not isinstance(e, int) or isinstance(e, bool)):
                        raise TypeError(f"entry {e!r} in list of {u} is not a vertex id")
        self._adj = tuple(adj)
        self._n = n
        self._entries = kinds.total()
        self._erased_total = kinds[_ErasedMark]
        self._listed = [None] * n
        self._derived = {}

    @property
    def num_vertices(self):
        return self._n

    @property
    def num_entries(self):
        """Total adjacency list length; equals 2m for a valid graph."""
        return self._entries

    @property
    def num_edges(self):
        return self.num_entries // 2

    @property
    def avg_degree(self):
        return self.num_entries / self._n

    @property
    def erased_total(self):
        return self._erased_total

    def degree(self, u):
        if not 0 <= u < self._n:
            raise IndexError(f"vertex {u} out of range [0, {self._n})")
        return len(self._adj[u])

    def neighbor(self, u, i):
        """Return the i-th entry of u's list. Indices are 1-based."""
        if not 0 <= u < self._n:
            raise IndexError(f"vertex {u} out of range [0, {self._n})")
        row = self._adj[u]
        if not 1 <= i <= len(row):
            raise IndexError(f"slot {i} out of range [1, {len(row)}] for vertex {u}")
        return row[i - 1]

    def entries(self, u):
        """The full stored list of u (direct access, not a charged query)."""
        return self._adj[u]

    def listed(self, u):
        """Frozenset of the non-erased entries of u's list."""
        cached = self._listed[u]
        if cached is None:
            cached = frozenset(e for e in self._adj[u] if e is not ERASED)
            self._listed[u] = cached
        return cached

    def erased_count(self, u):
        return self._adj[u].count(ERASED)

    def erasure_fraction(self):
        """Erased entries as an exact fraction of all entries (0 if no entries)."""
        total = self.num_entries
        if total == 0:
            return Fraction(0)
        return Fraction(self._erased_total, total)

    def flat_adjacency(self):
        """(degrees, entries) int64 numpy arrays with -1 marking erasures.

        Built on each call; the estimator's credit-class table, which is
        derived from them, is the part kept with the graph. The entries go
        straight from the rows into the int64 array. With erasures each entry
        first passes through a one-key dict's `get`, which gives -1 for the
        mark and the entry itself for every id: the key is found by identity,
        and an int never compares equal to the mark.
        """
        degrees = np.fromiter(map(len, self._adj), dtype=np.int64, count=self._n)
        entries = chain.from_iterable(self._adj)
        if self._erased_total:
            flat = list(entries)
            entries = map({ERASED: -1}.get, flat, flat)
        return degrees, np.fromiter(entries, dtype=np.int64, count=self._entries)

    def cached(self, build, *key):
        """build(self, *key), computed on first use and kept with the graph.

        For read-only tables derived from the adjacency lists, keyed by
        `(build, *key)`; the estimator keeps its credit-class table and its
        outcome laws here.
        """
        slot = (build, *key)
        table = self._derived.get(slot)
        if table is None:
            table = self._derived[slot] = build(self, *key)
        return table

    def __eq__(self, other):
        if not isinstance(other, PartiallyErasedGraph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self):
        return hash((self._n, self._adj))

    def __repr__(self):
        return (
            f"PartiallyErasedGraph(n={self._n}, entries={self.num_entries}, "
            f"erased={self._erased_total})"
        )


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate()."""

    code: str
    subject: tuple
    detail: str


def erased_counts(g):
    """Per-vertex erased-slot counts, a tuple indexed by vertex; built once per graph."""
    return g.cached(_erased_counts)


def _erased_counts(g):
    return tuple(map(g.erased_count, range(g.num_vertices)))


def forced_partners(g):
    """{u: frozenset of w} over the half-erased edges w->u; each w uses up an erased slot of u.

    w lists u but u does not list w, so one of u's erased slots holds w in
    every completion. Vertices with no such w are left out. Built once per
    graph; the mapping is read-only, since every later call shares it.
    """
    return g.cached(_forced_partners)


def _forced_partners(g):
    forced = {}
    listed = g.listed
    for w in range(g.num_vertices):
        for u in listed(w):
            if w not in listed(u):
                forced.setdefault(u, set()).add(w)
    return MappingProxyType({u: frozenset(ws) for u, ws in forced.items()})


def validate(g):
    """Check all structural invariants plus necessary completability conditions.

    Returns a list of Violation records; empty means the graph is valid and
    passes the counting conditions every completable graph must satisfy.
    Never raises on bad content.
    """
    violations = []
    n = g.num_vertices
    structural_ok = True
    for u in range(n):
        row = g.entries(u)
        if len(row) > n - 1:
            violations.append(
                Violation("degree-overflow", (u,), f"degree {len(row)} exceeds n-1={n - 1}")
            )
            structural_ok = False
        seen = set()
        for i, e in enumerate(row):
            if e is ERASED:
                continue
            if not 0 <= e < n:
                violations.append(Violation("entry-range", (u, i), f"entry {e} outside [0, {n})"))
                structural_ok = False
                continue
            if e == u:
                violations.append(Violation("self-loop", (u, i), f"vertex {u} lists itself"))
                structural_ok = False
            if e in seen:
                violations.append(Violation("duplicate-entry", (u, i), f"{e} listed twice by {u}"))
                structural_ok = False
            seen.add(e)
    if g.num_entries % 2 == 1:
        violations.append(Violation("odd-entry-total", (), "total list length is odd"))
    if structural_ok:
        # Every forced partner must find an erased slot, and the leftover
        # free slots must pair up across vertices.
        forced = forced_partners(g)
        erased = erased_counts(g)
        free_total = 0
        overflow = False
        for u in range(n):
            pointing = len(forced.get(u, ()))
            free = erased[u] - pointing
            if free < 0:
                violations.append(
                    Violation(
                        "forced-overflow",
                        (u,),
                        f"{pointing} half-erased edges point at {u} "
                        f"but only {erased[u]} erased slots",
                    )
                )
                overflow = True
            else:
                free_total += free
        if not overflow and free_total % 2 == 1:
            violations.append(
                Violation("free-parity", (), "odd number of unforced erased slots")
            )
    return violations


def erase_slots(g, slots):
    """Return a copy of g with the given (vertex, slot-index) entries erased."""
    rows = [list(g.entries(u)) for u in range(g.num_vertices)]
    for u, i in slots:
        rows[u][i] = ERASED
    return PartiallyErasedGraph(rows)


def closure(start, links):
    """Vertices reachable from `start`, as a set, by BFS over non-erased entries.

    links(u) returns the entries to follow from u: a list row or a set.
    """
    seen = {start}
    queue = deque([start])
    while queue:
        for e in links(queue.popleft()):
            if e is not ERASED and e not in seen:
                seen.add(e)
                queue.append(e)
    return seen


# ---------------------------------------------------------------------------
# PEG text format.
#
#   peg 1
#   n <num_vertices>
#   v <id> <e1> <e2> ... <ek>
#
# Entries are decimal ids or `*` for erased. Vertices without a line have
# degree 0; the serializer omits them. Numbers are spelled `0|[1-9][0-9]*`,
# the only spelling the serializer writes. A vertex count above MAX_VERTICES
# is refused before anything is allocated for it.
# ---------------------------------------------------------------------------

MAX_VERTICES = 2**31 - 1

_NUMBER = re.compile(r"0|[1-9][0-9]*")

# The serializer's layout: its header, the characters of its `v` lines, and
# 10, 100, ..., 10**18, where a number's rank is its digit count less one.
_LAYOUT_HEAD = "peg 1\nn "
_LAYOUT_CHARS = dict.fromkeys(map(ord, "0123456789 *v\n"))
_POWERS_OF_TEN = np.array([10**k for k in range(1, 19)], dtype=np.int64)


def _number(tok):
    if not _NUMBER.fullmatch(tok):
        raise ValueError(f"{tok!r} is not a plain decimal number")
    return int(tok)


def _vertex_table(n):
    """n empty rows, refused with a ValueError naming n if they cannot be held."""
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} is above the limit {MAX_VERTICES}")
    try:
        return [()] * n
    except MemoryError:
        raise ValueError(f"vertex count {n} is too large to hold in memory") from None


def _graph(rows):
    try:
        return PartiallyErasedGraph(rows)
    except MemoryError:
        raise ValueError(f"vertex count {len(rows)} is too large to hold in memory") from None


def format_peg(g):
    lines = ["peg 1", f"n {g.num_vertices}"]
    for u in range(g.num_vertices):
        row = g.entries(u)
        if not row:
            continue
        parts = " ".join("*" if e is ERASED else str(e) for e in row)
        lines.append(f"v {u} {parts}")
    return "\n".join(lines) + "\n"


def parse_peg(text):
    """The graph a PEG text describes; a ValueError naming the first problem if none.

    Text in the exact layout `format_peg` writes is read in whole-text passes
    (`_parse_layout`). Every other text, and every text with a content
    problem, is read line by line (`_parse_lines`), which is the reference
    for both the graph and the error message.
    """
    g = _parse_layout(text)
    return g if g is not None else _parse_lines(text)


def _parse_layout(text):
    """The graph of a text in `format_peg`'s exact layout, or None for any other text.

    The layout is `peg 1`, `n <count>`, then lines `v <id> <entries>` with
    ascending ids, one space between tokens and a final newline. The body is
    proved to be in it by whole-text checks: only its characters occur, `v`
    starts every line and occurs nowhere else, and a space precedes every
    `*`. Then `v` and `*` become the sentinels -1 and -2 and one
    `numpy.fromstring` reads every token; the checks leave it no malformed
    token to stop at. Last, a width identity: the body is as long as its
    tokens' printed widths, one separator after each token and the leading
    newline. Every token's raw width is at least its value's printed width,
    and every gap at least one character, so equality rules out doubled or
    trailing spaces, empty lines, leading zeros, `*5` and entries past int64.
    Ids that are out of range or not ascending, and entries past n, give None
    too; `_parse_lines` then names the problem. Each row handed to the
    constructor is a slice of one tuple of all tokens, so it keeps the row
    without a copy.
    """
    if not text.startswith(_LAYOUT_HEAD) or not text.endswith("\n"):
        return None
    nl = text.find("\n", len(_LAYOUT_HEAD))
    count = text[len(_LAYOUT_HEAD):nl]
    if len(count) > len(str(MAX_VERTICES)) or not _NUMBER.fullmatch(count):
        return None
    n = int(count)
    if not 1 <= n <= MAX_VERTICES:
        return None
    body = text[nl:]
    lines = body.count("\n") - 1
    if (
        body.translate(_LAYOUT_CHARS)
        or body.count("v") != lines
        or body.count("\nv") != lines
        or body.count(" *") != body.count("*")
    ):
        return None
    if not lines:  # the body is one newline; numpy would read it as [0]
        return _graph(_vertex_table(n))
    # On a small graph each numpy call costs more than the work it does, so
    # the calls below are few and avoid numpy's Python-level wrappers.
    tok = np.fromstring(body.replace("v", "-1").replace("*", "-2"), dtype=np.int64, sep=" ")
    if len(body) != 2 * len(tok) + int(_POWERS_OF_TEN.searchsorted(tok, "right").sum()) + 1:
        return None
    starts = (tok == -1).nonzero()[0]
    if starts[-1] == len(tok) - 1 or tok.max() >= n:
        return None
    ids = tok[starts + 1]
    if ids[0] < 0 or not (ids[1:] > ids[:-1]).all():
        return None
    erased = (tok == -2).nonzero()[0]
    flat = tok.tolist()
    del tok
    for i in memoryview(erased):
        flat[i] = ERASED
    flat = tuple(flat)
    # Memoryviews hand out one int at a time, where lists of the line
    # bounds would hold three ints per line at once.
    rows = _vertex_table(n)
    ends = chain(memoryview(starts)[1:], [len(flat)])
    for u, a, b in zip(memoryview(ids), memoryview(starts + 2), ends):
        rows[u] = flat[a:b]
    del flat  # the whole-text tuple goes before the graph is built
    return _graph(rows)


def _parse_lines(text):
    """The reference parser: lines split on any whitespace, blank lines skipped."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["peg", "1"]:
        raise ValueError("missing 'peg 1' header")
    if len(lines) < 2 or lines[1].split()[0] != "n":
        raise ValueError("missing 'n <count>' line")
    try:
        _, count = lines[1].split()
        n = _number(count)
    except ValueError as exc:
        raise ValueError("bad vertex count line") from exc
    rows = _vertex_table(n)
    seen = set()
    for lineno, ln in enumerate(lines[2:], start=3):
        parts = ln.split()
        if parts[0] != "v" or len(parts) < 2:
            raise ValueError(f"line {lineno}: expected 'v <id> ...'")
        try:
            u = _number(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad vertex id {parts[1]!r}") from exc
        if not 0 <= u < n:
            raise ValueError(f"line {lineno}: vertex id {u} outside [0, {n})")
        if u in seen:
            raise ValueError(f"line {lineno}: duplicate line for vertex {u}")
        seen.add(u)
        row = []
        for tok in parts[2:]:
            if tok == "*":
                row.append(ERASED)
            else:
                try:
                    e = _number(tok)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: bad entry {tok!r}") from exc
                if e >= n:  # _number() never returns a negative
                    raise ValueError(f"line {lineno}: entry {e} outside [0, {n})")
                row.append(e)
        rows[u] = row
    return _graph(rows)


def save_peg(g, path):
    Path(path).write_text(format_peg(g))


def load_peg(path):
    return parse_peg(Path(path).read_text())
