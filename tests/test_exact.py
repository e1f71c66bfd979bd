import random
from fractions import Fraction
from functools import partial

import networkx as nx
import pytest

from pegkit.exact import (
    SearchBoundExceeded,
    Uncompletable,
    components,
    distance_to_connectedness,
    enumerate_completions,
    exact_exp_chi,
    exact_report,
    high_degree_set,
    inventory_witnesses,
    is_small,
    mid_alpha_rejection_probability,
    min_completion_components,
    quality_edge_variant,
    quality_vertex_variant,
    reach_listed,
)
from pegkit.graph import ERASED, PartiallyErasedGraph
from pegkit.instances import (
    erase,
    gen_connected,
    gen_far_forest,
    gen_fig_component,
    gen_g2,
    gen_gminus,
    gen_gplus,
    gen_random_regularish,
)


# --- completions -------------------------------------------------------------


def test_zero_erasures_single_identity_completion():
    g = PartiallyErasedGraph([[1], [0]])
    cs = enumerate_completions(g)
    assert len(cs) == 1
    assert cs.completions[0].apply(g) == g


def test_forced_fill_is_unique():
    # half-erased edge 0->1 forces 1's slot to hold 0
    g = PartiallyErasedGraph([[1], [ERASED]])
    cs = enumerate_completions(g)
    assert len(cs) == 1
    assert cs.completions[0].as_dict() == {(1, 0): 0}


def test_hub_family_completion_counts():
    gm = gen_gminus("1/7", 4, seed=7)
    # four free slots in four different cycles: three perfect matchings
    assert len(enumerate_completions(gm)) == 3
    gp = gen_gplus("1/7", 4, seed=7)
    cs = enumerate_completions(gp)
    assert len(cs) == 1
    completed = cs.completions[0].apply(gp)
    assert len(components(completed)) == 1  # the hub connects everything


def test_matching_family_completion_count():
    g2 = gen_g2("1/3", 13, seed=1)
    # six degree-1 stubs pair into a perfect matching: 5!! = 15 ways
    cs = enumerate_completions(g2)
    assert len(cs) == 15
    for c in cs.completions:
        comp = components(c.apply(g2))
        # cycle + isolated hub + three matched pairs
        assert sorted(len(x) for x in comp) == [1, 2, 2, 2, 6]


@pytest.mark.parametrize("k, count", [(6, 15), (8, 105)])
def test_gminus_completions_are_odd_double_factorial(k, count):
    # k free slots, one per cycle, pair up in (k-1)!! ways
    assert len(enumerate_completions(gen_gminus("1/7", k, seed=k))) == count


def test_slot_bound_guards_matching_search():
    rows = [[ERASED] for _ in range(30)]
    g = PartiallyErasedGraph(rows)
    with pytest.raises(SearchBoundExceeded):
        enumerate_completions(g, slot_bound=20)
    # forced-only erasures do not count against the bound
    forest = gen_far_forest(0.2, 0.15, 200, strategy="component-hiding", seed=1)
    assert forest.erased_total > 20
    cs = enumerate_completions(forest, slot_bound=20)
    assert len(cs) == 1


def test_uncompletable_inputs_give_empty_list():
    # half-erased edge into a vertex with no erased slot
    g = PartiallyErasedGraph([[1, ERASED], [2], [1, ERASED]])
    assert enumerate_completions(g).completions == []
    # odd number of free slots
    h = PartiallyErasedGraph([[1], [0], [ERASED], []])
    assert enumerate_completions(h).completions == []


def _random_erased_graph(seed):
    """A sparse random simple graph with up to 5 edges erased on both sides
    (free slots) and a fifth of the other entries erased (forced fills)."""
    rng = random.Random(seed)
    n = rng.randrange(4, 15)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
    hidden = set(rng.sample(edges, min(len(edges), rng.randrange(6))))
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(ERASED if (u, v) in hidden or rng.random() < 0.2 else v)
        rows[v].append(ERASED if (u, v) in hidden or rng.random() < 0.2 else u)
    return PartiallyErasedGraph(rows)


def _three_paths():
    """Paths 0-6-1, 2-7-3 and 4-8-5 whose ends each hold a free slot: the first
    pairing found closes each path on itself, later ones merge the paths."""
    rows = [[6, ERASED], [6, ERASED], [7, ERASED], [7, ERASED], [8, ERASED], [8, ERASED],
            [0, 1], [2, 3], [4, 5]]
    return PartiallyErasedGraph(rows)


MERGE_CASES = {
    "three-paths": _three_paths,
    **{f"random-{seed}": partial(_random_erased_graph, seed) for seed in range(24)},
    **{f"gminus-{k}": partial(gen_gminus, "1/7", k, seed=k) for k in (4, 6, 8)},
    **{f"gplus-{k}": partial(gen_gplus, "1/7", k, seed=k) for k in (4, 6, 8)},
    **{
        f"forest-hiding-{seed}": partial(
            gen_far_forest, 0.2, 0.15, 60, strategy="component-hiding", seed=seed
        )
        for seed in range(3)
    },
}


@pytest.mark.parametrize("case", sorted(MERGE_CASES))
def test_min_completion_components_matches_rebuilt_graphs(case):
    g = MERGE_CASES[case]()
    cs = enumerate_completions(g, slot_bound=24)
    assert len(cs) == len(cs.completions) >= 1
    assert len(set(cs.completions)) == len(cs)
    rebuilt = [c.apply(g) for c in cs]
    assert all(full.erased_total == 0 for full in rebuilt)
    # the reference: rebuild every completed graph and walk it again
    assert min_completion_components(g, cs) == min(len(components(full)) for full in rebuilt)


# --- distance ----------------------------------------------------------------


def test_distance_zero_for_connected():
    g = gen_connected(20, 2.0, seed=1)
    assert distance_to_connectedness(g) == 0


def test_distance_hub_families():
    assert distance_to_connectedness(gen_gminus("1/7", 4, seed=3)) == Fraction(1, 7)
    assert distance_to_connectedness(gen_gplus("1/7", 4, seed=3)) == 0


def test_distance_forest_counts_components():
    for seed in range(3):
        g = gen_far_forest(0.25, 0.0, 60, davg_target=1.6, seed=seed)
        c = len(components(g))
        assert distance_to_connectedness(g, slot_bound=60) == Fraction(c - 1, g.num_edges)


def test_distance_uncompletable_raises():
    g = PartiallyErasedGraph([[1, ERASED], [2], [1, ERASED]])
    with pytest.raises(Uncompletable):
        distance_to_connectedness(g)


def test_components_agree_with_networkx():
    for seed in range(4):
        g = gen_far_forest(0.2, 0.0, 80, davg_target=1.8, seed=seed)
        G = nx.Graph()
        G.add_nodes_from(range(g.num_vertices))
        for u in range(g.num_vertices):
            for w in g.listed(u):
                G.add_edge(u, w)
        assert len(components(g)) == nx.number_connected_components(G)


# --- witness inventories -------------------------------------------------------


def test_inventory_fig_gadgets():
    fig1 = gen_fig_component("two-erasure", seed=9)
    inv = inventory_witnesses(fig1.graph)
    assert fig1.gadget_vertices not in set(inv.plain)
    assert fig1.gadget_vertices not in {c for c, _ in inv.generalized}
    fig2 = gen_fig_component("one-erasure-anchored", seed=9)
    inv = inventory_witnesses(fig2.graph)
    anchors = dict(inv.generalized).get(fig2.gadget_vertices)
    assert anchors is not None and len(anchors) == 1


def test_mid_alpha_rejection_probability_counts_anchor_starts():
    # The gadget is a generalized witness of 3 vertices, but only a search
    # from its single anchor certifies it: 1 detecting start out of 27.
    g = gen_fig_component("one-erasure-anchored", seed=3).graph
    assert g.num_vertices == 27
    p = mid_alpha_rejection_probability(g, 0.3, 0.02, g.avg_degree)
    assert p == 1 - (1 - 1 / 27) ** 9


def test_plain_witnesses_are_generalized_too():
    g = gen_far_forest(0.2, 0.1, 120, seed=2)
    inv = inventory_witnesses(g)
    gen_sets = {c for c, _ in inv.generalized}
    for c in inv.plain:
        assert c in gen_sets


def test_witnesses_are_components_of_every_completion():
    for seed in range(3):
        g = gen_far_forest(0.25, 0.2, 40, davg_target=1.8, strategy="uniform", seed=seed + 10)
        inv = inventory_witnesses(g)
        cs = enumerate_completions(g, slot_bound=40)
        assert cs.completions
        for completion in cs.completions:
            comp_sets = set(components(completion.apply(g)))
            for c in inv.plain:
                assert c in comp_sets
            for c, anchors in inv.generalized:
                assert c in comp_sets
                for a in anchors:
                    assert reach_listed(g, a) == c


def test_epsilon_far_zero_erasure_graph_has_many_components():
    for seed in range(3):
        g = gen_far_forest(0.2, 0.0, 60, seed=seed)
        d = distance_to_connectedness(g, slot_bound=60)
        assert d >= Fraction(1, 5)
        assert len(components(g)) >= d * g.num_edges + 1


def test_witness_count_lower_bounds_on_certified_instances():
    checked = 0
    for seed in range(12):
        eps = random.Random(seed).choice([Fraction(3, 20), Fraction(1, 5), Fraction(1, 4)])
        alpha_lo = eps * Fraction(2, 5)
        g = gen_far_forest(eps, alpha_lo, 50, davg_target=1.7, strategy="uniform", seed=seed)
        if distance_to_connectedness(g, slot_bound=60) < eps:
            continue
        m = g.num_edges
        inv = inventory_witnesses(g)
        assert len(inv.plain) >= (eps - 2 * alpha_lo) * m
        small_gen = [c for c, _ in inv.generalized if is_small(c, eps - alpha_lo, g)]
        assert len(small_gen) >= (eps - alpha_lo) * m / 2
        checked += 1
    assert checked >= 8


# --- small/big classification -------------------------------------------------


def test_small_big_boundaries():
    g = gen_far_forest(0.2, 0.0, 40, davg_target=2.0, seed=1)
    davg = Fraction(g.num_entries, g.num_vertices)
    eps_star = Fraction(1, 4)
    # vertex-count regime needs eps_star >= 4/davg^2 = 1 at davg = 2: use rep-length regime
    assert eps_star < 4 / davg**2
    limit = int(Fraction(4) / eps_star)
    comps = components(g)
    for c in comps:
        rep = sum(g.degree(v) for v in c)
        assert is_small(c, eps_star, g) == (rep <= limit)


def test_small_big_vertex_count_regime():
    g = gen_random_regularish(12, 6, seed=2)
    eps_star = Fraction(1, 4)  # 4/davg^2 = 1/9 <= eps_star: vertex-count regime
    assert is_small(set(range(2)), eps_star, g)
    assert not is_small(set(range(4)), eps_star, g)  # 4 > 4/(0.25*6) = 8/3


def test_singleton_degree_zero_component_is_small():
    g = PartiallyErasedGraph([[], [2], [1]])
    for eps_star in (Fraction(1, 10), Fraction(1, 2), Fraction(5, 4)):
        assert is_small({0}, eps_star, g)


# --- exact expectation ----------------------------------------------------------


def test_exp_chi_single_edge():
    g = PartiallyErasedGraph([[1], [0]])
    assert exact_exp_chi(g, Fraction(1), Fraction(1, 4)) == Fraction(1, 2)


def test_exp_chi_consistent_with_sum_bound_at_zero_erasures():
    g = gen_random_regularish(40, 4, seed=4)
    val = exact_exp_chi(g, Fraction(4), Fraction(1, 4))
    assert val * g.num_vertices <= g.num_edges


def test_exp_chi_claim_bounds_on_random_instances():
    eps = Fraction(1, 4)
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randrange(20, 45)
        g = erase(gen_random_regularish(n, 4, seed=rng.randrange(99)), 0.3, "uniform", seed=1)
        davg = Fraction(g.num_entries, n)
        alpha = g.erasure_fraction()
        for mult in (Fraction(1, 8), Fraction(1, 2), 1, 4, 8):
            d_hat = davg * mult
            val = exact_exp_chi(g, d_hat, eps)
            assert val > (1 - eps / 2) * davg / 2
            assert val <= (1 + 2 * min(alpha, Fraction(1, 2))) * davg / 2


def test_high_degree_set_exact_threshold():
    star = PartiallyErasedGraph([[1, 2, 3, 4], [0], [0], [0], [0]])
    # cutoff^2 = 16 * n * d_hat / eps, and membership needs deg strictly above
    assert high_degree_set(star, Fraction(1, 11), Fraction(1, 2)) == {0}
    assert high_degree_set(star, Fraction(1, 10), Fraction(1, 2)) == set()  # 16 = 16: not above
    assert high_degree_set(star, Fraction(2), Fraction(1, 2)) == set()


# --- quality ------------------------------------------------------------------


def test_quality_sums_to_one_on_plain_witnesses():
    g = gen_far_forest(0.2, 0.1, 80, strategy="uniform", seed=6)
    inv = inventory_witnesses(g)
    assert inv.plain
    qv = quality_vertex_variant(g)
    completion = enumerate_completions(g, slot_bound=60).completions[0]
    qe = quality_edge_variant(g, completion.apply(g))
    for c in inv.plain:
        assert sum(qv[v] for v in c) == 1
        assert sum(qe[v] for v in c) == 1


def test_quality_edge_variant_degenerate_component():
    g = PartiallyErasedGraph([[], [2], [1]])
    qe = quality_edge_variant(g, g)
    assert qe[0] == 1  # edgeless component scores one


def test_quality_zero_on_erased_components():
    g = PartiallyErasedGraph([[1, ERASED], [0, 2], [1, ERASED], [4], [3]])
    completion = enumerate_completions(g).completions[0]
    qe = quality_edge_variant(g, completion.apply(g))
    assert qe[0] == qe[1] == qe[2] == 0
    assert qe[3] == qe[4] == Fraction(1, 2)


# --- report -------------------------------------------------------------------


def test_exact_report_serializes_rationals():
    g = gen_gminus("1/7", 4, seed=2)
    rep = exact_report(g, d_hat=Fraction(2), eps=Fraction(1, 4))
    d = rep.to_dict()
    assert d["distance_to_connectedness"] == "1/7"
    assert d["completions_count"] == 3
    assert "/" in d["exp_chi"]
