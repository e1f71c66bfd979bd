"""Sublinear algorithms on adjacency-list graphs with erased entries.

- graph: the partially erased graph model, validation, PEG file format
- oracle: query sessions with counting, budgets, seeds; the query-source protocol
- connectedness: capped BFS, witness detection, the four testers
- avg_degree: credit-sampling refinement and the doubling-search estimator
- exact: brute-force completions, distances, inventories, expectations
- instances: hard families, gadgets, random corpora, erasure strategies
- cli: the `pegkit` command
"""

from .graph import ERASED, PartiallyErasedGraph, load_peg, parse_peg, save_peg, validate
from .oracle import BudgetExhausted, QuerySession, split_seed

__all__ = [
    "ERASED",
    "PartiallyErasedGraph",
    "QuerySession",
    "BudgetExhausted",
    "split_seed",
    "load_peg",
    "parse_peg",
    "save_peg",
    "validate",
]

__version__ = "0.1.0"
