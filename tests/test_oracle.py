import io

import pytest

from pegkit.graph import ERASED, PartiallyErasedGraph
from pegkit.instances import erase, gen_connected, gen_random_regularish
from pegkit.oracle import BLANK, BudgetExhausted, FilterOracle, QuerySession, split_seed


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
    buf = io.StringIO()
    s = QuerySession(PartiallyErasedGraph([[1, ERASED], [0]]), seed=0, trace=buf)
    s.degree(0)
    s.neighbor(0, 1)
    s.neighbor(0, 2)
    assert buf.getvalue() == "D 0\nN 0 1 -> 1\nN 0 2 -> *\n"


# --- filter oracle ---------------------------------------------------------


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
