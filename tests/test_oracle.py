import io
import time

import pytest

from pegkit.connectedness import mid_alpha_plan, no_erasure_plan, run_plan, small_alpha_plan
from pegkit.graph import ERASED, PartiallyErasedGraph
from pegkit.instances import erase, gen_connected, gen_far_forest, gen_random_regularish
from pegkit.oracle import BudgetExhausted, QuerySession, split_seed

from reference import BLANK, FilterOracle, RecordingSource


def path3():
    return PartiallyErasedGraph([[1], [0, 2], [1]])


def test_counters_increment_without_dedup():
    s = QuerySession(path3(), seed=1)
    assert s.degree_queries == 0
    s.degree(1)
    s.degree(1)
    assert s.degree_queries == 2
    s.neighbor(1, 1)
    assert s.neighbor_queries == 1


def test_budget_zero_rejects_first_query():
    s = QuerySession(path3(), seed=0, budget=0)
    with pytest.raises(BudgetExhausted):
        s.degree(0)
    assert s.degree_queries == 0


def test_budget_boundary_and_exhausted_flag():
    s = QuerySession(path3(), seed=0, budget=2)
    s.degree(0)
    s.neighbor(0, 1)
    assert s.exhausted
    with pytest.raises(BudgetExhausted):
        s.degree(1)
    assert s.degree_queries == 1
    assert s.neighbor_queries == 1


def test_budget_counts_neighbor_only():
    s = QuerySession(path3(), seed=0, budget=1, budget_counts="neighbor")
    s.degree(0)
    s.degree(1)
    s.neighbor(1, 1)
    with pytest.raises(BudgetExhausted):
        s.neighbor(1, 2)


def test_bulk_charge_is_refused_whole_when_it_would_cross_the_budget():
    s = QuerySession(path3(), seed=0, budget=5)
    s.degree(0)
    s.charge_bulk(degree=2, neighbor=2)
    assert s.exhausted
    with pytest.raises(BudgetExhausted, match="bulk charge of 1 exceeds budget 5"):
        s.charge_bulk(neighbor=1)
    assert (s.degree_queries, s.neighbor_queries) == (3, 2)
    s = QuerySession(path3(), seed=0, budget=2, budget_counts="neighbor")
    s.charge_bulk(degree=10, neighbor=1)
    with pytest.raises(BudgetExhausted, match="bulk charge of 2 exceeds budget 2"):
        s.charge_bulk(degree=1, neighbor=2)
    s.charge_bulk(degree=1, neighbor=1)
    assert (s.degree_queries, s.neighbor_queries, s.exhausted) == (11, 2, True)


def test_determinism_same_seed_same_everything():
    g = erase(gen_connected(30, 2.0, seed=1), 0.2, "uniform", seed=2)

    def run(seed):
        s = QuerySession(g, seed=seed)
        answers = []
        for _ in range(50):
            u = s.random_vertex()
            d = s.degree(u)
            answers.append((u, d, s.neighbor(u, s.rng.randint(1, d)) if d else None))
        return answers, s.degree_queries, s.neighbor_queries

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_split_seed_is_stable_and_spread():
    a = split_seed(42, 0)
    b = split_seed(42, 1)
    assert a == split_seed(42, 0)
    assert a != b
    assert 0 <= a < 2**64


def test_trace_format():
    # A session over a recording source records each answered query, in
    # order, and none that the budget refuses.
    buf = io.StringIO()
    s = QuerySession(RecordingSource(PartiallyErasedGraph([[1, ERASED], [0]]), buf), seed=0, budget=3)
    s.degree(0)
    s.neighbor(0, 1)
    s.neighbor(0, 2)
    with pytest.raises(BudgetExhausted):
        s.degree(1)
    assert buf.getvalue() == "D 0\nN 0 1 -> 1\nN 0 2 -> *\n"


# --- filter oracle (tests/reference.py) -------------------------------------


def test_filter_oracle_identity_without_erasures():
    g = gen_random_regularish(20, 3, seed=5)
    s = QuerySession(g, seed=0)
    f = FilterOracle(s, degree_bound=3)
    for u in range(20):
        assert f.degree(u) == g.degree(u)
        assert sorted(f.neighbor(u, i) for i in range(1, 4)) == sorted(g.entries(u))


def test_filter_oracle_drops_half_erased_edges():
    # 0 lists 1; 1's slot is erased: the half-erased edge is absent from both sides
    g = PartiallyErasedGraph([[1, 2], [ERASED, 2], [0, 1]])
    s = QuerySession(g, seed=0)
    f = FilterOracle(s, degree_bound=2)
    assert f.degree(0) == 1 and f.neighbor(0, 1) == 2
    assert f.degree(1) == 1 and f.neighbor(1, 1) == 2
    assert f.neighbor(1, 2) is BLANK


def test_filter_oracle_symmetry_and_charges():
    bound = 6
    for seed in range(5):
        g = erase(gen_random_regularish(30, 4, seed=seed), 0.25, "uniform", seed=seed + 1)
        s = QuerySession(g, seed=0)
        f = FilterOracle(s, degree_bound=bound)
        lists = {u: [f.neighbor(u, i) for i in range(1, bound + 1)] for u in range(30)}
        for u in range(30):
            for w in lists[u]:
                if w is not BLANK:
                    assert u in lists[w]
        for _, dq, nq in f.miss_charges:
            assert nq <= bound * (bound + 1)
            assert dq <= bound + 1


def test_filter_oracle_cached_lists_charge_nothing():
    g = gen_random_regularish(10, 3, seed=2)
    s = QuerySession(g, seed=0)
    f = FilterOracle(s, degree_bound=3)
    f.degree(0)
    before = (s.degree_queries, s.neighbor_queries)
    f.degree(0)
    f.neighbor(0, 1)
    assert (s.degree_queries, s.neighbor_queries) == before


def test_filter_oracle_rejects_degree_above_bound():
    g = PartiallyErasedGraph([[1, 2, 3], [0], [0], [0]])
    f = FilterOracle(QuerySession(g, seed=0), degree_bound=2)
    with pytest.raises(ValueError):
        f.degree(0)


# --- query sources -----------------------------------------------------------
#
# A tester reads its graph only through `num_vertices`, `degree(u)` and
# `neighbor(u, i)`, so any object that answers these runs under `run_plan`.


def mutual_edge_graph(g):
    """The subgraph of g's mutual edges, each list kept in g's slot order."""
    return PartiallyErasedGraph(
        [[w for w in g.entries(u) if w is not ERASED and u in g.listed(w)] for u in range(g.num_vertices)]
    )


def test_a_tester_on_the_filter_oracle_runs_as_on_the_mutual_edge_graph():
    plan = no_erasure_plan(0.2, 3.0)
    verdicts = []
    for gi in range(30):
        g = erase(gen_random_regularish(200, 3, seed=gi), 0.05, "uniform", seed=gi + 100)
        bound = max(map(g.degree, range(g.num_vertices)))
        h = mutual_edge_graph(g)
        for seed in range(5):
            raw = QuerySession(g)
            filtered = run_plan(FilterOracle(raw, bound), plan, seed)
            assert filtered == run_plan(h, plan, seed)
            # the wrapped session pays the raw queries behind the filtered ones
            assert raw.neighbor_queries >= filtered.neighbor_queries
            verdicts.append(filtered.rejected)
    # the erasures split some graphs, so both verdicts occur
    assert 0 < sum(verdicts) < len(verdicts)


class OnlineErasures:
    """A query source whose entries are erased while it is queried.

    The online-erasure model of Kalemaj, Raskhodnikova and Varma (ITCS 2022),
    with t = 1: after each query to u, an adversary erases the lowest slot of
    u that no neighbor query has read yet, if it is not erased already. A
    search that reads a list in slot order so finds every entry erased.
    """

    def __init__(self, g):
        self.g = g
        self.num_vertices = g.num_vertices
        self.read = {}
        self.erased = {}
        self.erasures = 0

    def _erase_next(self, u):
        read = self.read.get(u, ())
        erased = self.erased.setdefault(u, set())
        for i in range(1, self.g.degree(u) + 1):
            if i not in read:
                if i not in erased:
                    erased.add(i)
                    self.erasures += 1
                return

    def degree(self, u):
        d = self.g.degree(u)
        self._erase_next(u)
        return d

    def neighbor(self, u, i):
        e = ERASED if i in self.erased.get(u, ()) else self.g.neighbor(u, i)
        self.read.setdefault(u, set()).add(i)
        self._erase_next(u)
        return e


def known_davg_plans(g, eps=0.2):
    davg = g.avg_degree
    return {
        "no-erasure": no_erasure_plan(eps, davg),
        "small-alpha": small_alpha_plan(eps, 0.0, davg),
        "mid-alpha": mid_alpha_plan(eps, 0.0, davg),
    }


def test_online_erasures_take_the_testers_power_away():
    t0 = time.perf_counter()
    trials = 200
    g = gen_far_forest(0.2, 0, 2000, seed=3)
    for name, plan in known_davg_plans(g).items():
        offline = sum(run_plan(g, plan, seed).rejected for seed in range(trials))
        online = erasures = 0
        for seed in range(trials):
            source = OnlineErasures(g)
            online += run_plan(source, plan, seed).rejected
            erasures += source.erasures
        assert (offline, online) == (trials, 0), name
        assert erasures >= trials, name
    # Isolated vertices have no slot to erase: they are the only witnesses left.
    h = PartiallyErasedGraph([g.entries(u) for u in range(g.num_vertices)] + [()] * 100)
    for name, plan in known_davg_plans(h).items():
        online = 0
        for seed in range(trials):
            verdict = run_plan(OnlineErasures(h), plan, seed)
            if verdict.rejected:
                (v,) = verdict.witness.vertices
                assert h.degree(v) == 0, name
                online += 1
        assert 0 < online < trials, name
    assert time.perf_counter() - t0 < 1.0
