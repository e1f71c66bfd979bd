"""Query mediation: counting, budgets, seeded randomness, filtered access.

Every algorithm touches a graph only through a QuerySession, which counts
degree and neighbor queries and optionally enforces a budget. Sessions are
single-owner; run one session per trial over the shared immutable graph.
"""

from __future__ import annotations

import hashlib
import random

from .graph import ERASED


class BudgetExhausted(RuntimeError):
    """Raised instead of answering a query once the session budget is spent."""


def split_seed(master_seed, index):
    """Derive the seed of substream `index` from a master seed.

    SHA-256 of the decimal pair, low 64 bits. Stable across platforms and
    Python versions, so parallel or re-ordered trials stay reproducible.
    """
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class QuerySession:
    """Counts and answers queries against one graph.

    budget:        optional cap; a query that would be answered at or past
                   the cap raises BudgetExhausted instead (and is not counted).
    budget_counts: which counters the budget applies to: "both" (default)
                   or "neighbor".
    trace:         optional file-like object; each answered query appends a
                   line `D u` or `N u i -> ans` (ans is `*` for erased).
    """

    def __init__(self, graph, seed=0, budget=None, budget_counts="both", trace=None):
        if budget_counts not in ("both", "neighbor"):
            raise ValueError(f"bad budget_counts {budget_counts!r}")
        self.graph = graph
        self.seed = seed
        self.rng = random.Random(seed)
        self.budget = budget
        self.budget_counts = budget_counts
        self.trace = trace
        self.degree_queries = 0
        self.neighbor_queries = 0
        self._degree_known = set()

    def _budgeted(self):
        if self.budget_counts == "both":
            return self.degree_queries + self.neighbor_queries
        return self.neighbor_queries

    @property
    def exhausted(self):
        return self.budget is not None and self._budgeted() >= self.budget

    def _check(self, kind):
        if self.budget is None:
            return
        if self.budget_counts in ("both", kind) and self._budgeted() >= self.budget:
            raise BudgetExhausted(f"budget of {self.budget} {self.budget_counts} queries spent")

    def degree(self, u):
        self._check("degree")
        d = self.graph.degree(u)
        self.degree_queries += 1
        self._degree_known.add(u)
        if self.trace is not None:
            self.trace.write(f"D {u}\n")
        return d

    def neighbor(self, u, i):
        self._check("neighbor")
        e = self.graph.neighbor(u, i)
        self.neighbor_queries += 1
        if self.trace is not None:
            self.trace.write(f"N {u} {i} -> {'*' if e is ERASED else e}\n")
        return e

    def random_neighbor(self, u):
        """Uniformly random entry of u's list, or None when deg(u) = 0.

        Charges a degree query first unless one was already charged for u in
        this session, then one neighbor query for the drawn slot. The
        deg(u) = 0 case charges no neighbor query.
        """
        if u not in self._degree_known:
            self.degree(u)
        d = self.graph.degree(u)
        if d == 0:
            return None
        return self.neighbor(u, self.rng.randint(1, d))

    def random_vertex(self):
        """Uniform vertex draw from the session RNG (not a charged query)."""
        return self.rng.randrange(self.graph.num_vertices)

    def charge_bulk(self, degree=0, neighbor=0):
        """Account for queries executed by a batch path.

        The budget check is coarse: the whole batch is rejected if it would
        cross the cap.
        """
        if self.budget is not None:
            add = neighbor + (degree if self.budget_counts == "both" else 0)
            if self._budgeted() + add > self.budget:
                raise BudgetExhausted(f"bulk charge of {add} exceeds budget {self.budget}")
        self.degree_queries += degree
        self.neighbor_queries += neighbor


class _BlankMark:
    """Padding symbol used by the filter oracle for bounded-degree lists."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-"


BLANK = _BlankMark()


class FilterOracle:
    """Answers queries about the subgraph of mutual (nonerased) edges.

    Works for graphs of maximum degree at most `degree_bound` (D). Each
    reconstructed list keeps exactly the nonerased edges incident to its
    vertex, padded with BLANK to length D. Reconstruction fetches raw lists
    through the session (all fetches cached), so a cache miss charges at most
    D*(D+1) neighbor queries plus at most D+1 degree queries; cached lists
    charge nothing.
    """

    def __init__(self, session, degree_bound):
        if degree_bound < 1:
            raise ValueError("degree bound must be at least 1")
        self.session = session
        self.degree_bound = degree_bound
        self._raw = {}
        self._filtered = {}
        self.miss_charges = []

    def _fetch_raw(self, u):
        row = self._raw.get(u)
        if row is None:
            d = self.session.degree(u)
            if d > self.degree_bound:
                raise ValueError(f"degree {d} of vertex {u} exceeds bound {self.degree_bound}")
            row = tuple(self.session.neighbor(u, i) for i in range(1, d + 1))
            self._raw[u] = row
        return row

    def _reconstruct(self, u):
        lst = self._filtered.get(u)
        if lst is None:
            d0, n0 = self.session.degree_queries, self.session.neighbor_queries
            kept = []
            for w in self._fetch_raw(u):
                if w is ERASED:
                    continue
                if u in self._fetch_raw(w):
                    kept.append(w)
            lst = tuple(kept)
            self._filtered[u] = lst
            self.miss_charges.append(
                (u, self.session.degree_queries - d0, self.session.neighbor_queries - n0)
            )
        return lst

    def degree(self, u):
        """Degree of u in the nonerased subgraph."""
        return len(self._reconstruct(u))

    def neighbor(self, u, i):
        """i-th entry of u's reconstructed list, BLANK beyond its degree.

        Valid indices are 1..D, matching a fixed-width bounded-degree layout.
        """
        if not 1 <= i <= self.degree_bound:
            raise IndexError(f"slot {i} outside [1, {self.degree_bound}]")
        lst = self._reconstruct(u)
        return lst[i - 1] if i <= len(lst) else BLANK
