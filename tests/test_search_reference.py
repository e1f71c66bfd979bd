"""The capped search and the session budget checks against their first versions.

`ReferenceSession` and `reference_bfs_until` are `QuerySession`'s query
methods and `bfs_until` as they were before the hot path was rewritten: a
budget check through `_check`/`_budgeted` on every query, a deque, and the
entry cap tested before every entry. The rewritten code must charge the same
queries in the same order, raise `BudgetExhausted` at the same query and
return the same outcome. The reference writes its own trace; the rewritten
session runs over a `RecordingSource`, whose lines must equal that trace.
"""

import io
from collections import deque
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegkit.connectedness import BfsOutcome, EdgeCap, VertexCap, bfs_until
from pegkit.graph import ERASED, PartiallyErasedGraph
from pegkit.oracle import BudgetExhausted, QuerySession
from reference import RecordingSource


class ReferenceSession:
    """QuerySession's counting, budget and trace rules, as first written."""

    def __init__(self, graph, budget=None, budget_counts="both", trace=None):
        self.graph = graph
        self.budget = budget
        self.budget_counts = budget_counts
        self.trace = trace
        self.degree_queries = 0
        self.neighbor_queries = 0

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


def reference_bfs_until(session, start, stop, halt_on_erasure=False, start_degree=None):
    """bfs_until as first written; returns its outcome's fields as a dict."""
    vertex_cap = stop.limit if isinstance(stop, VertexCap) else None
    entry_cap = stop.limit if isinstance(stop, EdgeCap) else None
    out = {
        "graph_n": session.graph.num_vertices, "explored": {start}, "lists": {},
        "entries_scanned": 0, "erasures_seen": 0, "closed": False, "truncated": False,
        "budget_hit": False,
    }
    if vertex_cap is not None and len(out["explored"]) >= vertex_cap:
        out["truncated"] = True
        return out
    queue = deque([start])
    try:
        while queue and not out["truncated"]:
            if entry_cap is not None and out["entries_scanned"] >= entry_cap:
                out["truncated"] = True
                break
            u = queue.popleft()
            deg = start_degree if (u == start and start_degree is not None) else session.degree(u)
            row = []
            out["lists"][u] = row
            for i in range(1, deg + 1):
                if entry_cap is not None and out["entries_scanned"] >= entry_cap:
                    out["truncated"] = True
                    break
                e = session.neighbor(u, i)
                out["entries_scanned"] += 1
                row.append(e)
                if e is ERASED:
                    out["erasures_seen"] += 1
                    if halt_on_erasure:
                        out["truncated"] = True
                        break
                elif e not in out["explored"]:
                    out["explored"].add(e)
                    queue.append(e)
                    if vertex_cap is not None and len(out["explored"]) >= vertex_cap:
                        out["truncated"] = True
                        break
    except BudgetExhausted:
        out["truncated"] = True
        out["budget_hit"] = True
    out["closed"] = not out["truncated"] and not queue
    return out


def _fields(out):
    """The outcome's fields, and `truncated`, the reference's name for not closing."""
    return {f.name: getattr(out, f.name) for f in fields(BfsOutcome)} | {"truncated": not out.closed}


def _state(session, trace):
    return session.degree_queries, session.neighbor_queries, session.exhausted, trace.getvalue()


def _compare(g, start, stop, halt, budget, counts, pass_degree):
    """Run both searches from fresh sessions; assert they agree. -> the outcome."""
    runs = []
    for make, search in (
        (lambda t: ReferenceSession(g, budget, counts, t), reference_bfs_until),
        (lambda t: QuerySession(RecordingSource(g, t), budget=budget, budget_counts=counts), bfs_until),
    ):
        trace = io.StringIO()
        session = make(trace)
        out = None
        try:
            start_degree = session.degree(start) if pass_degree else None
        except BudgetExhausted:
            pass
        else:
            out = search(session, start, stop, halt, start_degree)
        runs.append((out, _state(session, trace)))
    (want, want_state), (got, got_state) = runs
    assert got_state == want_state
    if want is None:
        assert got is None
        return None
    assert _fields(got) == want
    # Witness detection reads the rows in fetch order.
    assert list(got.lists.items()) == list(want["lists"].items())
    return got


@st.composite
def erased_graphs(draw):
    """Rows of in-range ids and erasures, not necessarily symmetric."""
    n = draw(st.integers(1, 10))
    entry = st.one_of(st.just(ERASED), st.integers(0, n - 1))
    rows = draw(st.lists(st.lists(entry, max_size=5), min_size=n, max_size=n))
    return PartiallyErasedGraph(rows)


@settings(max_examples=400, deadline=None)
@given(
    g=erased_graphs(),
    data=st.data(),
    kind=st.sampled_from([VertexCap, EdgeCap]),
    limit=st.integers(0, 14),
    halt=st.booleans(),
    budget=st.one_of(st.none(), st.integers(0, 30)),
    counts=st.sampled_from(["both", "neighbor"]),
    pass_degree=st.booleans(),
)
def test_search_matches_reference(g, data, kind, limit, halt, budget, counts, pass_degree):
    start = data.draw(st.integers(0, g.num_vertices - 1))
    _compare(g, start, kind(limit), halt, budget, counts, pass_degree)


@pytest.mark.parametrize("kind", [VertexCap, EdgeCap])
@pytest.mark.parametrize("limit", [0, 1])
@pytest.mark.parametrize("pass_degree", [False, True])
def test_search_matches_reference_at_limits_0_and_1(kind, limit, pass_degree):
    g = PartiallyErasedGraph([[1, ERASED], [0, 2], [1]])
    out = _compare(g, 0, kind(limit), False, None, "both", pass_degree)
    assert not out.closed


@pytest.mark.parametrize(
    "rows",
    [
        [[1], [0, ERASED]],  # the last row holds one entry more than the cap leaves
        [[1, 2], [0, 2], [0, 1], [ERASED, 5], [5], [3, 4]],
        [[0, 0, 1], [ERASED, 0, 1]],  # repeated entries and self-links
    ],
)
def test_search_matches_reference_at_every_start_and_small_cap(rows):
    g = PartiallyErasedGraph(rows)
    for start in range(g.num_vertices):
        for limit in range(9):
            for kind in (VertexCap, EdgeCap):
                for halt in (False, True):
                    _compare(g, start, kind(limit), halt, None, "both", False)


# Vertex 0 lists 1, 2, 3; vertex 1 lists 0, 2, 3; then 2 and 3. A search
# from 0 charges D 0, N 0 1..3, D 1, N 1 1..3, ...
STAR = PartiallyErasedGraph([[1, 2, 3], [0, 2, 3], [0, 1], [0, 1]])


@pytest.mark.parametrize(
    "counts, budget, spent",
    [
        # "both": the start degree, the middle of row 0, the end of row 0.
        ("both", 0, (0, 0)),
        ("both", 2, (1, 1)),
        ("both", 4, (1, 3)),
        # "neighbor": spent with the start degree, mid-row, at row 0's end.
        ("neighbor", 0, (1, 0)),
        ("neighbor", 1, (1, 1)),
        ("neighbor", 3, (2, 3)),
    ],
)
@pytest.mark.parametrize("pass_degree", [False, True])
@pytest.mark.parametrize("stop", [VertexCap(10), EdgeCap(20)])
def test_budget_runs_out_where_the_reference_says(counts, budget, spent, pass_degree, stop):
    out = _compare(STAR, 0, stop, True, budget, counts, pass_degree)
    if out is None:
        # A "both" budget of 0 refuses the degree the caller charges itself.
        assert (counts, budget, pass_degree) == ("both", 0, True)
        return
    assert out.budget_hit and not out.closed
    session = QuerySession(STAR, budget=budget, budget_counts=counts)
    start_degree = session.degree(0) if pass_degree else None
    bfs_until(session, 0, stop, True, start_degree)
    assert (session.degree_queries, session.neighbor_queries) == spent


@settings(max_examples=300, deadline=None)
@given(
    g=erased_graphs(),
    budget=st.one_of(st.none(), st.integers(0, 12)),
    counts=st.sampled_from(["both", "neighbor"]),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 9), st.integers(1, 5)), max_size=25),
)
def test_session_budget_checks_match_reference(g, budget, counts, ops):
    trace_ref, trace = io.StringIO(), io.StringIO()
    ref = ReferenceSession(g, budget, counts, trace_ref)
    new = QuerySession(RecordingSource(g, trace), budget=budget, budget_counts=counts)
    for is_degree, u, i in ops:
        u %= g.num_vertices
        if not is_degree and g.degree(u) == 0:
            continue
        i = (i - 1) % max(g.degree(u), 1) + 1
        answers = []
        for s in (ref, new):
            try:
                answers.append(s.degree(u) if is_degree else s.neighbor(u, i))
            except BudgetExhausted:
                answers.append("exhausted")
        assert answers[0] == answers[1]
        assert _state(new, trace) == _state(ref, trace_ref)
