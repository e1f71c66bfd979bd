"""Query mediation: counting, budgets and seeded randomness.

Every tester touches a graph only through a QuerySession, which counts degree
and neighbor queries, may enforce a budget, and reads the graph as a query
source through `num_vertices`, `degree(u)` and `neighbor(u, i)` alone, as
`bfs_until` does through it, so a source that wraps the graph sees every
answered query, in order. Run one single-owner session per trial.
"""

from __future__ import annotations

import hashlib
import random


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
    """

    def __init__(self, graph, seed=0, budget=None, budget_counts="both"):
        if budget_counts not in ("both", "neighbor"):
            raise ValueError(f"bad budget_counts {budget_counts!r}")
        self.graph = graph
        self._n = graph.num_vertices
        self.rng = random.Random(seed)
        self.budget = budget
        self.budget_counts = budget_counts
        self.degree_queries = 0
        self.neighbor_queries = 0
        # The budget rule, fixed here and tested inline by each query:
        # _degree_cap caps degree + neighbor queries (a "both" budget) and is
        # checked by both kinds; _neighbor_cap caps neighbor queries alone.
        both = budget is not None and budget_counts == "both"
        self._degree_cap = budget if both else None
        self._neighbor_cap = budget if budget is not None and not both else None

    @property
    def exhausted(self):
        cap = self._degree_cap
        if cap is not None:
            return self.degree_queries + self.neighbor_queries >= cap
        cap = self._neighbor_cap
        return cap is not None and self.neighbor_queries >= cap

    def _budget_error(self):
        return BudgetExhausted(f"budget of {self.budget} {self.budget_counts} queries spent")

    def degree(self, u):
        cap = self._degree_cap
        if cap is not None and self.degree_queries + self.neighbor_queries >= cap:
            raise self._budget_error()
        d = self.graph.degree(u)
        self.degree_queries += 1
        return d

    def neighbor(self, u, i):
        cap = self._degree_cap
        if cap is not None:
            if self.degree_queries + self.neighbor_queries >= cap:
                raise self._budget_error()
        elif self._neighbor_cap is not None and self.neighbor_queries >= self._neighbor_cap:
            raise self._budget_error()
        e = self.graph.neighbor(u, i)
        self.neighbor_queries += 1
        return e

    def random_vertex(self):
        """Uniform vertex draw from the session RNG (not a charged query)."""
        return self.rng.randrange(self._n)

    def charge_bulk(self, degree=0, neighbor=0):
        """Account for queries executed by a batch path; a budgeted session refuses."""
        if self.budget is not None:
            raise ValueError("a bulk charge needs a session without a budget")
        self.degree_queries += degree
        self.neighbor_queries += neighbor
