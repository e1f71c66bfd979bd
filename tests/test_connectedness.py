import math

import pytest

from pegkit.connectedness import (
    ConnTesterConfig,
    EdgeCap,
    VertexCap,
    bfs_until,
    detect_generalized_witness,
    detect_plain_witness,
    mid_alpha_plan,
    small_alpha_query_cap,
    tester_mid_alpha,
    tester_no_erasures,
    tester_small_alpha,
    tester_unknown_davg,
    unknown_davg_budget,
)
from pegkit.exact import (
    inventory_witnesses,
    mid_alpha_rejection_probability,
    small_alpha_rejection_probability,
)
from pegkit.graph import ERASED, PartiallyErasedGraph
from pegkit.instances import erase, gen_connected, gen_far_forest, gen_gplus
from pegkit.oracle import QuerySession


def two_triangles():
    return PartiallyErasedGraph([[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]])


# --- BFS -------------------------------------------------------------------


def test_bfs_isolated_vertex_closes_immediately():
    g = PartiallyErasedGraph([[], [2], [1]])
    out = bfs_until(QuerySession(g, seed=0), 0, EdgeCap(1), halt_on_erasure=True)
    assert out.closed and not out.truncated
    assert out.explored == {0}
    assert out.entries_scanned == 0


def test_bfs_vertex_cap_allows_full_small_component():
    g = two_triangles()
    out = bfs_until(QuerySession(g, seed=0), 1, VertexCap(4))
    assert out.closed
    assert out.explored == {0, 1, 2}


def test_bfs_vertex_cap_truncates_at_limit():
    g = two_triangles()
    out = bfs_until(QuerySession(g, seed=0), 1, VertexCap(3))
    assert out.truncated and not out.closed
    assert len(out.explored) == 3


def test_bfs_edge_cap_exact_fit_still_closes():
    # single edge: both entries scanned exactly at the cap
    g = PartiallyErasedGraph([[1], [0], [3], [2]])
    out = bfs_until(QuerySession(g, seed=0), 0, EdgeCap(2))
    assert out.closed
    assert out.entries_scanned == 2
    out = bfs_until(QuerySession(g, seed=0), 0, EdgeCap(1))
    assert out.truncated


def test_bfs_halt_on_erasure():
    g = PartiallyErasedGraph([[ERASED, 1], [0]])
    out = bfs_until(QuerySession(g, seed=0), 0, EdgeCap(10), halt_on_erasure=True)
    assert out.truncated and out.erasures_seen == 1
    out = bfs_until(QuerySession(g, seed=0), 0, EdgeCap(10), halt_on_erasure=False)
    assert out.closed and out.erasures_seen == 1


def test_bfs_budget_exhaustion_marks_truncated():
    g = two_triangles()
    s = QuerySession(g, seed=0, budget=3)
    out = bfs_until(s, 0, EdgeCap(50))
    assert out.truncated and out.budget_hit and not out.closed


def test_bfs_query_cap_counts_scanned_entries():
    g = two_triangles()
    s = QuerySession(g, seed=0)
    out = bfs_until(s, 0, EdgeCap(4))
    assert out.truncated
    assert out.entries_scanned == 4
    assert s.neighbor_queries == 4


# --- witness detectors -----------------------------------------------------


def test_plain_witness_on_erasure_free_component():
    out = bfs_until(QuerySession(two_triangles(), seed=0), 4, VertexCap(10))
    w = detect_plain_witness(out)
    assert w is not None and w.kind == "plain"
    assert w.vertices == frozenset({3, 4, 5})


def test_plain_witness_rejects_truncated_and_erased():
    g = two_triangles()
    out = bfs_until(QuerySession(g, seed=0), 0, VertexCap(2))
    assert detect_plain_witness(out) is None
    h = PartiallyErasedGraph([[1, ERASED], [0, 2], [1], [ERASED], [5], [4]])
    out = bfs_until(QuerySession(h, seed=0), 2, EdgeCap(50), halt_on_erasure=False)
    assert out.closed and out.erasures_seen == 1
    assert detect_plain_witness(out) is None


def test_whole_graph_is_never_a_witness():
    g = PartiallyErasedGraph([[1, 2], [0, 2], [0, 1]])
    out = bfs_until(QuerySession(g, seed=0), 0, EdgeCap(100))
    assert out.closed
    assert detect_plain_witness(out) is None
    assert detect_generalized_witness(out) is None


def anchored_chain():
    # 0 -> 1 half-erased (1's slot forced to 0), 1 - 2 mutual, plus a far pair
    return PartiallyErasedGraph([[1], [2, ERASED], [1], [4], [3]])


def test_generalized_witness_found_only_from_anchor():
    g = anchored_chain()
    out = bfs_until(QuerySession(g, seed=0), 0, EdgeCap(50))
    w = detect_generalized_witness(out)
    assert w is not None and w.kind == "generalized"
    assert w.vertices == frozenset({0, 1, 2})
    assert w.anchor == 0
    for start in (1, 2):
        out = bfs_until(QuerySession(g, seed=0), start, EdgeCap(50))
        assert detect_generalized_witness(out) is None


def test_two_erasure_component_defeats_every_start():
    # forced 4-cycle with two half-erased edges, plus a separate pair
    g = PartiallyErasedGraph([[1, 3], [ERASED, 2], [1, 3], [ERASED, 0], [5], [4]])
    for start in range(4):
        out = bfs_until(QuerySession(g, seed=0), start, EdgeCap(100))
        assert detect_plain_witness(out) is None
        assert detect_generalized_witness(out) is None


def test_zero_erasure_closure_is_generalized_witness_without_anchor():
    out = bfs_until(QuerySession(two_triangles(), seed=0), 0, EdgeCap(50))
    w = detect_generalized_witness(out)
    assert w is not None and w.anchor is None


# --- testers: one-sided error ---------------------------------------------


def connected_corpus():
    graphs = []
    for seed in range(3):
        base = gen_connected(80, 2.4, seed=seed)
        graphs.append((base, 0.0))
        graphs.append((erase(base, 0.04, "uniform", seed=seed + 10), 0.04))
    g = gen_gplus("1/7", 4, seed=2)
    graphs.append((g, 0.13))
    return graphs


def test_one_sided_error_all_testers():
    for g, alpha in connected_corpus():
        davg = g.avg_degree
        eps = min(0.45, 1.8 / davg)
        for seed in range(20):
            if alpha < eps / 2:
                assert tester_small_alpha(g, ConnTesterConfig(eps, alpha, davg, seed)).accepted
            assert tester_mid_alpha(g, ConnTesterConfig(eps, alpha, davg, seed)).accepted
            if alpha == 0:
                assert tester_no_erasures(g, ConnTesterConfig(eps, 0.0, davg, seed)).accepted
                assert tester_unknown_davg(g, eps, seed).accepted


# --- testers: far-case power ----------------------------------------------


def test_small_alpha_power_matches_exact_probability():
    g = gen_far_forest(0.2, 0.0, 600, davg_target=1.7, strategy="uniform", seed=3)
    davg = g.avg_degree
    exact_p = small_alpha_rejection_probability(g, 0.2, 0.0, davg)
    trials = 400
    rejected = sum(
        tester_small_alpha(g, ConnTesterConfig(0.2, 0.0, davg, seed)).rejected
        for seed in range(trials)
    )
    sigma = math.sqrt(trials * exact_p * (1 - exact_p)) if 0 < exact_p < 1 else 0.0
    assert abs(rejected - trials * exact_p) <= 4 * sigma + 1
    assert exact_p >= 0.6
    assert rejected / trials >= 0.6


def test_small_alpha_vertex_capped_branch_power():
    # isolated vertices beside a dense clique: high average degree pushes the
    # tester into its vertex-capped search, tiny witnesses stay detectable
    n_iso, clique = 28, 12
    rows = [[] for _ in range(n_iso)]
    rows += [[n_iso + j for j in range(clique) if n_iso + j != n_iso + i] for i in range(clique)]
    g = PartiallyErasedGraph(rows)
    davg = g.avg_degree
    b = 2 / (0.3 * davg)
    assert b <= davg * math.log2(b)  # vertex-capped case is actually taken
    exact_p = small_alpha_rejection_probability(g, 0.3, 0.0, davg)
    trials = 300
    rejected = sum(
        tester_small_alpha(g, ConnTesterConfig(0.3, 0.0, davg, seed)).rejected
        for seed in range(trials)
    )
    sigma = math.sqrt(trials * exact_p * (1 - exact_p)) if 0 < exact_p < 1 else 0.0
    assert abs(rejected - trials * exact_p) <= 4 * sigma + 1
    assert rejected / trials >= 0.6


def test_mid_alpha_power_matches_exact_probability():
    g = gen_far_forest(0.2, 0.15, 600, davg_target=2.0, strategy="component-hiding", seed=4)
    davg = g.avg_degree
    exact_p = mid_alpha_rejection_probability(g, 0.2, 0.15, davg)
    trials = 300
    rejected = sum(
        tester_mid_alpha(g, ConnTesterConfig(0.2, 0.15, davg, seed)).rejected
        for seed in range(trials)
    )
    sigma = math.sqrt(trials * exact_p * (1 - exact_p)) if 0 < exact_p < 1 else 0.0
    assert abs(rejected - trials * exact_p) <= 4 * sigma + 1
    assert rejected / trials >= 0.6


def test_small_alpha_blind_spot_documented():
    # every small component carries an erasure: no plain witnesses to find
    g = gen_far_forest(0.2, 0.15, 400, davg_target=2.0, strategy="component-hiding", seed=5)
    assert inventory_witnesses(g).plain == []
    davg = g.avg_degree
    for seed in range(50):
        assert tester_small_alpha(g, ConnTesterConfig(0.32, 0.15, davg, seed)).accepted


def test_no_erasure_tester_power_on_far_forest():
    g = gen_far_forest(0.25, 0.0, 500, davg_target=1.6, seed=9)
    davg = g.avg_degree
    rejected = sum(
        tester_no_erasures(g, ConnTesterConfig(0.25, 0.0, davg, seed)).rejected
        for seed in range(300)
    )
    assert rejected / 300 >= 2 / 3


def test_unknown_davg_cumulative_schedule_covers_fixed_schedule():
    # by the time the outer round reaches t, every level i has accumulated at
    # least as many repetitions as the fixed-t schedule would run at level i
    ln6 = math.log(6)
    for t in range(1, 13):
        for i in range(1, t + 1):
            fixed = math.ceil(2 ** (t - i) * ln6)
            cumulative = sum(
                math.ceil(2 ** max(tp - i - 1, 0) * ln6) for tp in range(i, t + 1)
            )
            assert cumulative >= fixed


def test_no_erasure_tester_rejects_isolated_vertex_fast():
    g = PartiallyErasedGraph([[], [2], [1], [4], [3], [6], [5]])
    rejected = 0
    for seed in range(60):
        v = tester_no_erasures(g, ConnTesterConfig(0.5, 0.0, g.avg_degree, seed))
        rejected += v.rejected
    assert rejected >= 55


def test_witness_reports_are_sound():
    g = gen_far_forest(0.2, 0.1, 300, davg_target=2.0, strategy="uniform", seed=6)
    davg = g.avg_degree
    plain = set(inventory_witnesses(g).plain)
    generalized = {c for c, _ in inventory_witnesses(g).generalized}
    seen = 0
    for seed in range(80):
        v1 = tester_small_alpha(g, ConnTesterConfig(0.2, 0.05, davg, seed))
        if v1.witness is not None:
            assert v1.witness.vertices in plain
            seen += 1
        v2 = tester_mid_alpha(g, ConnTesterConfig(0.2, 0.1, davg, seed))
        if v2.witness is not None:
            assert v2.witness.vertices in generalized
            seen += 1
    assert seen > 0


# --- caps and budgets -------------------------------------------------------


def test_small_alpha_cap_is_n_independent():
    cap = small_alpha_query_cap(0.2, 0.05, 2.0)
    assert cap == small_alpha_query_cap(0.2, 0.05, 2.0)
    g1 = gen_far_forest(0.2, 0.05, 400, seed=1)
    g2 = gen_far_forest(0.2, 0.05, 4000, seed=1)
    for g in (g1, g2):
        for seed in range(30):
            v = tester_small_alpha(g, ConnTesterConfig(0.2, 0.05, 2.0, seed))
            assert v.degree_queries + v.neighbor_queries <= cap
            assert v.cap == cap


@pytest.mark.parametrize("eps", [0.2, 0.3])
def test_small_alpha_aborts_at_its_query_cap(eps):
    # With davg misreported as 0.1 the cap prices searches about 30 times
    # below their cost at the true davg of 3, and a connected graph has no
    # witness to stop early on, so every run spends the whole cap.
    g = gen_connected(2000, 3.0, seed=5)
    cap = small_alpha_query_cap(eps, 0.0, 0.1)
    for seed in range(40):
        v = tester_small_alpha(g, ConnTesterConfig(eps, 0.0, 0.1, seed))
        assert v.aborted and v.accepted and v.witness is None
        assert v.cap == cap == v.degree_queries + v.neighbor_queries


def test_unknown_davg_budget_value():
    assert unknown_davg_budget(0.5) == 3500


def test_unknown_davg_never_exceeds_budget_and_aborts_accept():
    budget = unknown_davg_budget(0.3)
    g = gen_connected(500, 2.0, seed=7)
    for seed in range(20):
        v = tester_unknown_davg(g, 0.3, seed)
        assert v.neighbor_queries <= budget
        assert v.accepted
        assert v.aborted  # a big connected graph always runs out of budget
    far = gen_far_forest(0.3, 0.0, 500, davg_target=1.6, seed=8)
    rejected = 0
    for seed in range(50):
        v = tester_unknown_davg(far, 0.3, seed)
        assert v.neighbor_queries <= budget
        rejected += v.rejected
    assert rejected >= 40


def test_unknown_davg_single_vertex_graph_accepts():
    g = PartiallyErasedGraph([[]])
    assert tester_unknown_davg(g, 0.5, seed=0).accepted


def test_mid_alpha_bfs_cap_formula():
    # b = 4 / ((eps - alpha) * davg); cap = floor(min(b^2, b*davg))
    assert mid_alpha_plan(0.2, 0.15, 2.0)[2] == 80
    assert mid_alpha_plan(0.5, 0.0, 1.0)[2] == 8


def test_parameter_validation():
    g = two_triangles()
    with pytest.raises(ValueError):
        tester_small_alpha(g, ConnTesterConfig(0.4, 0.3, 2.0, 0))  # alpha >= eps/2
    with pytest.raises(ValueError):
        tester_small_alpha(g, ConnTesterConfig(1.5, 0.0, 2.0, 0))  # eps >= 2/davg
    with pytest.raises(ValueError):
        tester_mid_alpha(g, ConnTesterConfig(0.4, 0.4, 2.0, 0))  # alpha >= eps
    with pytest.raises(ValueError):
        tester_no_erasures(g, ConnTesterConfig(0.4, 0.1, 2.0, 0))  # alpha != 0
    with pytest.raises(ValueError):
        tester_unknown_davg(g, 1.2, 0)
    with pytest.raises(ValueError, match=r"0 <= alpha < epsilon/2"):
        tester_unknown_davg(g, 0.2, 0, alpha=-0.3)
