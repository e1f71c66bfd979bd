import contextlib
import itertools
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegkit import connectedness, exact
from pegkit import graph as graph_module

from pegkit.connectedness import (
    EdgeCap,
    VertexCap,
    bfs_until,
    detect_generalized_witness,
    mid_alpha_plan,
    small_alpha_plan,
    unknown_davg_plan,
)
from pegkit.exact import (
    SearchBoundExceeded,
    Uncompletable,
    WitnessInventory,
    components,
    distance_to_connectedness,
    enumerate_completions,
    exact_exp_chi,
    exact_report,
    inventory_witnesses,
    min_completion_components,
    reach_listed,
)
from pegkit.graph import (
    ERASED,
    PartiallyErasedGraph,
    closure,
    erase_slots,
    erased_counts,
    forced_partners,
    validate,
)
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
from pegkit.oracle import QuerySession

from reference import (
    closes,
    completed_graph,
    erased_slots,
    exp_chi,
    is_small,
    quality_edge_variant,
    quality_vertex_variant,
    rejection_probability,
)


# --- completions -------------------------------------------------------------


def test_zero_erasures_single_identity_completion():
    g = PartiallyErasedGraph([[1], [0]])
    assert enumerate_completions(g) == [()]
    assert completed_graph(g, ()) == g


def test_forced_fill_is_unique():
    # half-erased edge 0->1 forces 1's slot to hold 0
    g = PartiallyErasedGraph([[1], [ERASED]])
    assert enumerate_completions(g) == [()]
    assert completed_graph(g, ()) == PartiallyErasedGraph([[1], [0]])


def test_hub_family_completion_counts():
    gm = gen_gminus("1/7", 4, seed=7)
    # four free slots in four different cycles: three perfect matchings
    assert len(enumerate_completions(gm)) == 3
    gp = gen_gplus("1/7", 4, seed=7)
    completions = enumerate_completions(gp)
    assert len(completions) == 1
    completed = completed_graph(gp, completions[0])
    assert len(components(completed)) == 1  # the hub connects everything


def test_matching_family_completion_count():
    g2 = gen_g2("1/3", 13, seed=1)
    # six degree-1 stubs pair into a perfect matching: 5!! = 15 ways
    completions = enumerate_completions(g2)
    assert len(completions) == 15
    for pairs in completions:
        comp = components(completed_graph(g2, pairs))
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
    assert len(enumerate_completions(forest, slot_bound=20)) == 1


def test_uncompletable_inputs_give_empty_list():
    # half-erased edge into a vertex with no erased slot
    g = PartiallyErasedGraph([[1, ERASED], [2], [1, ERASED]])
    assert enumerate_completions(g) == []
    # odd number of free slots
    h = PartiallyErasedGraph([[1], [0], [ERASED], []])
    assert enumerate_completions(h) == []


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


def _late_bound(m):
    """Open vertices 0 and 1 hang off vertex 2, and 2m open vertices 4.. off
    vertex 3. The search pairs 0 with 1 first, and none of the (2m-1)!!
    completions under that choice joins the two trees."""
    rows = [[2, ERASED], [2, ERASED], [0, 1], list(range(4, 4 + 2 * m))]
    rows += [[3, ERASED] for _ in range(2 * m)]
    return PartiallyErasedGraph(rows)


def _one_open_tree():
    """A star whose four leaves hold the only free slots, beside two edges:
    no completion joins anything, so the merge bound is 0."""
    return PartiallyErasedGraph([[4, ERASED], [4, ERASED], [4, ERASED], [4, ERASED],
                                 [0, 1, 2, 3], [6], [5], [8], [7]])


MERGE_CASES = {
    "three-paths": _three_paths,
    "late-bound-4": partial(_late_bound, 4),
    "one-open-tree": _one_open_tree,
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
    completions = enumerate_completions(g, slot_bound=24)
    assert completions
    rebuilt = [completed_graph(g, pairs) for pairs in completions]
    assert len(set(rebuilt)) == len(completions)
    assert all(full.erased_total == 0 for full in rebuilt)
    # the reference: rebuild every completed graph and walk it again
    assert min_completion_components(g, completions[0]) == min(
        len(components(full)) for full in rebuilt
    )


# --- distance ----------------------------------------------------------------


def _reads(g, slot_bound=24):
    """Completions the distance reads from the search before it stops."""
    seen = []
    search = exact._completions

    def counted(*args):
        for pairs in search(*args):
            seen.append(pairs)
            yield pairs

    with mock.patch.object(exact, "_completions", counted):
        distance_to_connectedness(g, slot_bound=slot_bound)
    return len(seen)


@pytest.mark.parametrize(
    "make, reads, total",
    [
        # The first pairing joins every cycle it can.
        (partial(gen_gminus, "1/7", 12, seed=12), 1, 10395),
        # The bound is 0, and the first completion attains it.
        (_one_open_tree, 1, 3),
        # The first pairing closes each path on itself; the fifth joins all three.
        (_three_paths, 1, 15),
        # No completion under the first pair (0, 1) joins the two trees.
        (partial(_late_bound, 4), 1, 945),
    ],
)
def test_distance_stops_at_the_merge_bound(make, reads, total):
    # The first completion fixes the merge bound, which some completion
    # attains, so the distance reads no other, even where that first one
    # falls short of the bound.
    g = make()
    assert _reads(g) == reads
    assert len(enumerate_completions(g, slot_bound=24)) == total


def test_distance_when_the_first_completions_miss_the_bound_is_fast():
    # Reading completions until one attained the bound took ~10 s on a 2-core
    # host: none of the (2*8-1)!! completions under the first pair joins the
    # trees.
    g = _late_bound(8)
    assert _free_slots(g) == 18
    t0 = time.perf_counter()
    assert distance_to_connectedness(g) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def _free_slots(g):
    return g.erased_total - sum(len(ws) for ws in forced_partners(g).values())


def test_distance_on_the_hub_pair_at_large_k():
    # Listing every completion of gminus took ~14 s at k = 16; the search stops
    # at its first completion, ~25 ms for all six graphs on a 2-core host.
    t0 = time.perf_counter()
    for k in (16, 64, 256):
        gm, gp = gen_gminus("1/7", k, seed=k), gen_gplus("1/7", k, seed=k)
        assert (_free_slots(gm), _free_slots(gp)) == (k, 0)
        assert distance_to_connectedness(gm, slot_bound=k) == Fraction(1, 7)
        assert distance_to_connectedness(gp, slot_bound=0) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"{elapsed:.2f} s"
    with pytest.raises(SearchBoundExceeded):
        distance_to_connectedness(gm, slot_bound=255)


def test_distance_past_the_recursion_limit():
    # 2048 open vertices with one free slot each: one Python frame per open
    # vertex would pass the recursion limit.
    g = gen_gminus("1/7", 2048, seed=2048)
    assert _free_slots(g) == 2048 > sys.getrecursionlimit()
    assert distance_to_connectedness(g, slot_bound=2048) == Fraction(1, 7)


def test_distance_on_4096_open_vertices_is_fast():
    # Listing every open vertex's partners before the first completion took
    # 2.3-3.6 s; scanning only as far as each frame needs takes ~0.08 s on a
    # 2-core host.
    g = gen_gminus("1/7", 4096, seed=4096)
    t0 = time.perf_counter()
    assert distance_to_connectedness(g, slot_bound=4096) == Fraction(1, 7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{elapsed:.2f} s"


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


def test_distance_edgeless_disconnected():
    g = PartiallyErasedGraph([[], []])
    with pytest.raises(ValueError, match="edgeless disconnected"):
        distance_to_connectedness(g)
    rep = exact_report(g)
    assert (rep["min_components"], rep["distance_to_connectedness"]) == (2, None)
    assert distance_to_connectedness(PartiallyErasedGraph([[]])) == 0


def test_shared_fact_tables_cannot_be_mutated():
    # 2 lists 0, which does not list it back: 2 is 0's forced partner.
    g = PartiallyErasedGraph([[1, ERASED], [0], [0], []])
    counts, forced, comps = erased_counts(g), forced_partners(g), components(g)
    assert (counts, dict(forced), comps) == ((1, 0, 0, 0), {0: {2}}, ({0, 1, 2}, {3}))
    # Every later call on g shares these tables.
    assert (erased_counts(g), forced_partners(g), components(g)) == (counts, forced, comps)
    assert erased_counts(g) is counts and forced_partners(g) is forced and components(g) is comps
    with pytest.raises(TypeError):
        counts[0] = 0
    with pytest.raises(TypeError):
        forced[3] = frozenset({1})
    with pytest.raises(AttributeError):
        forced[0].add(1)
    with pytest.raises(TypeError):
        comps[0] = frozenset()
    with pytest.raises(AttributeError):
        comps[0].add(3)


def test_each_fact_is_built_once_per_graph():
    g = gen_gminus("1/7", 6, seed=6)
    builders = [(graph_module, "_erased_counts"), (graph_module, "_forced_partners"), (exact, "_components")]
    with contextlib.ExitStack() as stack:
        spies = [
            stack.enter_context(mock.patch.object(owner, name, wraps=getattr(owner, name)))
            for owner, name in builders
        ]
        exact_report(g, 2, Fraction(1, 4))
        distance_to_connectedness(g)
        inventory_witnesses(g)
        rejection_probability(g, mid_alpha_plan(0.3, 0.02, g.avg_degree))
        assert [spy.call_count for spy in spies] == [1, 1, 1]


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
    p = rejection_probability(g, mid_alpha_plan(0.3, 0.02, g.avg_degree))
    assert p == 1 - (1 - 1 / 27) ** 9


def test_rejection_probability_needs_a_finite_schedule():
    g = gen_fig_component("one-erasure-anchored", seed=3).graph
    with pytest.raises(ValueError, match="finite schedule"):
        rejection_probability(g, unknown_davg_plan(0.2, 0.0))


def test_rejection_probability_refuses_a_graph_that_fails_validate():
    # The cap rule counts on every reached vertex listing something. Here 0
    # reaches 2, whose row is empty, so a search from 0 under EdgeCap(3)
    # stops before 2 and does not close on {0, 1, 2}, 3 entries and all. The
    # rule would count 4 detecting starts of 5 (0.8) where the search
    # detects from 3 (0.6).
    g = PartiallyErasedGraph([[1, 2], [ERASED], [], [4], [3]])
    assert {v.code for v in validate(g)} == {"odd-entry-total", "forced-overflow"}
    assert closes(EdgeCap(3), 3, 3)
    searches = [bfs_until(QuerySession(g), v, EdgeCap(3)) for v in range(5)]
    assert [v for v, out in enumerate(searches) if detect_generalized_witness(out)] == [2, 3, 4]
    plan = connectedness.TesterPlan(((1, 1),), lambda i, d: EdgeCap(3), generalized=True)
    with pytest.raises(ValueError, match="passes validate"):
        rejection_probability(g, plan)


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
        completions = enumerate_completions(g, slot_bound=40)
        assert completions
        for pairs in completions:
            comp_sets = set(components(completed_graph(g, pairs)))
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


def test_exp_chi_matches_the_per_vertex_cutoff():
    # The hub holds an erased slot, so whether it is above the cutoff moves
    # the value: 1 with every vertex credited, 4/5 without the hub.
    star = PartiallyErasedGraph([[1, 2, 3, ERASED], [0], [0], [0], [ERASED]])
    assert not validate(star)
    tiny = Fraction(1, 10**12)
    # cutoff^2 = 16 * n * d_hat / eps, and leaving the credit needs deg strictly above
    cases = [
        (Fraction(1, 11), Fraction(1, 2), Fraction(4, 5)),
        (Fraction(1, 10), Fraction(1, 2), 1),  # 16 = 16: not above
        (Fraction(2), Fraction(1, 2), 1),
        # 80 * (2/15) / (2/3) = 16 again, reached through non-integer fractions
        (Fraction(2, 15), Fraction(2, 3), 1),
        (Fraction(2, 15) - tiny, Fraction(2, 3), Fraction(4, 5)),
        (Fraction(2, 15), Fraction(2, 3) - tiny, 1),
    ]
    for d_hat, eps, expected in cases:
        assert exact_exp_chi(star, d_hat, eps) == exp_chi(star, d_hat, eps) == expected
    # against one Fraction per vertex, on a threshold graph with degrees 1..39
    n = 40
    g = PartiallyErasedGraph([[v for v in range(n) if v != u and u + v >= n - 1] for u in range(n)])
    values = set()
    for d_hat in (Fraction(1, 50), Fraction(1, 7), Fraction(2, 3), 1):
        for eps in (Fraction(1, 8), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)):
            value = exact_exp_chi(g, d_hat, eps)
            assert value == exp_chi(g, d_hat, eps)
            values.add(value)
    # many cutoffs, one of them above every degree, which credits each edge once
    assert len(values) > 5 and Fraction(g.num_edges, n) in values


# --- quality ------------------------------------------------------------------


def test_quality_sums_to_one_on_plain_witnesses():
    g = gen_far_forest(0.2, 0.1, 80, strategy="uniform", seed=6)
    inv = inventory_witnesses(g)
    assert inv.plain
    qv = quality_vertex_variant(g)
    pairs = enumerate_completions(g, slot_bound=60)[0]
    qe = quality_edge_variant(g, completed_graph(g, pairs))
    for c in inv.plain:
        assert sum(qv[v] for v in c) == 1
        assert sum(qe[v] for v in c) == 1


def test_quality_edge_variant_degenerate_component():
    g = PartiallyErasedGraph([[], [2], [1]])
    qe = quality_edge_variant(g, g)
    assert qe[0] == 1  # edgeless component scores one


def test_quality_zero_on_erased_components():
    g = PartiallyErasedGraph([[1, ERASED], [0, 2], [1, ERASED], [4], [3]])
    pairs = enumerate_completions(g)[0]
    qe = quality_edge_variant(g, completed_graph(g, pairs))
    assert qe[0] == qe[1] == qe[2] == 0
    assert qe[3] == qe[4] == Fraction(1, 2)


# --- report -------------------------------------------------------------------


def test_exact_report_serializes_rationals():
    g = gen_gminus("1/7", 4, seed=2)
    d = exact_report(g, d_hat=Fraction(2), eps=Fraction(1, 4))
    assert d["distance_to_connectedness"] == "1/7"
    assert d["completions_count"] == 3
    assert "/" in d["exp_chi"]


def test_exact_report_counts_completions_without_keeping_them():
    # 11!! = 10 395 completions; listing them all peaked at 2.3 MB.
    g = gen_gminus("1/7", 12, seed=1)
    tracemalloc.start()
    try:
        d = exact_report(g, slot_bound=80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6, f"{peak / 1e6:.2f} MB"
    completions = enumerate_completions(g, slot_bound=80)
    min_comp = min_completion_components(g, completions[0])
    assert len(completions) == 10395
    assert (d["completions_count"], d["min_components"]) == (len(completions), min_comp)
    assert d["distance_to_connectedness"] == str(Fraction(min_comp - 1, g.num_edges))


# --- references: per-call facts, the per-vertex inventory, the first search ---
#
# The exact oracles derive the erased counts, forced partners and components
# once per graph, share one reach set per mutual component, and find each
# open vertex's partners once. These are the versions they replaced, kept to
# check that the outputs did not move.


def _reference_erased_count(g, u):
    return sum(1 for e in g.entries(u) if e is ERASED)


def _reference_forced_partners(g):
    forced = {}
    for w in range(g.num_vertices):
        for u in g.listed(w):
            if w not in g.listed(u):
                forced.setdefault(u, set()).add(w)
    return forced


def _reference_components(g):
    n = g.num_vertices
    adj = [set() for _ in range(n)]
    for u in range(n):
        for w in g.listed(u):
            adj[u].add(w)
            adj[w].add(u)
    seen = set()
    comps = []
    for s in range(n):
        if s not in seen:
            comp = closure(s, adj.__getitem__)
            seen |= comp
            comps.append(frozenset(comp))
    return comps


def _assert_facts_match_references(g):
    """The per-graph facts equal the per-call versions, on a fresh copy of g
    and again on g, whose tables the oracles have built already."""
    fresh = PartiallyErasedGraph([g.entries(u) for u in range(g.num_vertices)])
    for h in (fresh, g):
        counts = tuple(_reference_erased_count(h, u) for u in range(h.num_vertices))
        assert erased_counts(h) == counts
        assert tuple(map(h.erased_count, range(h.num_vertices))) == counts
        assert forced_partners(h) == _reference_forced_partners(h)
        assert list(components(h)) == _reference_components(h)


def _reference_inventory(g):
    n = g.num_vertices
    reach = [reach_listed(g, v) for v in range(n)]
    plain = set()
    generalized = {}
    for C in reach:
        if len(C) >= n:
            continue
        erasures = sum(_reference_erased_count(g, u) for u in C)
        if erasures == 0:
            if all(u in g.listed(w) for u in C for w in g.listed(u)):
                plain.add(C)
                generalized[C] = set(C)
        elif erasures == 1:
            holder = next(u for u in sorted(C) if _reference_erased_count(g, u) > 0)
            listed_holder = g.listed(holder)
            anchors = {
                w
                for w in C
                if w != holder
                and w not in listed_holder
                and holder in g.listed(w)
                and reach[w] == C
            }
            if anchors:
                generalized.setdefault(C, set()).update(anchors)
    plain_list = sorted(plain, key=sorted)
    gen_list = [(C, frozenset(a)) for C, a in sorted(generalized.items(), key=lambda kv: sorted(kv[0]))]
    return WitnessInventory(plain_list, gen_list)


def _reference_mid_alpha(g, epsilon, alpha, davg):
    n = g.num_vertices
    plan = mid_alpha_plan(epsilon, alpha, davg)
    ((_, reps),) = plan.levels
    qcap = plan.stop(1, 0).limit
    witnesses = {C for C, _ in _reference_inventory(g).generalized}
    detected = 0
    for s in range(n):
        C = reach_listed(g, s)
        if C in witnesses and sum(g.degree(v) for v in C) <= qcap:
            detected += 1
    p = detected / n
    return 1.0 - (1.0 - p) ** reps


def _reference_small_alpha(g, epsilon, alpha, davg):
    """The small-alpha probability in closed form: at level i a search closes
    on a plain witness C of at most 2^i vertices (vertex case), or from a
    start v with rep_len(C) <= 2^(i-1) * deg(v) + 1 (entry case)."""
    n = g.num_vertices
    b = 2.0 / ((epsilon - 2 * alpha) * davg)
    vertex_case = b <= davg * math.log2(b)
    t = max(1, math.ceil(math.log2(4 * b)))
    accept = 1.0
    for i in range(1, t + 1):
        detected = 0
        for C in _reference_inventory(g).plain:
            rep_len = sum(g.degree(v) for v in C)
            if vertex_case:
                if len(C) <= 2**i:
                    detected += len(C)
            else:
                detected += sum(1 for v in C if rep_len <= 2 ** (i - 1) * g.degree(v) + 1)
        accept *= (1 - detected / n) ** math.ceil(4 * b * math.log(6) / 2**i)
    return 1.0 - accept


def _reference_pairs(g, slot_bound):
    if validate(g):
        return []
    n = g.num_vertices
    listed = [g.listed(u) for u in range(n)]
    forced = _reference_forced_partners(g)
    free = [len(erased_slots(g, u)) - len(forced.get(u, ())) for u in range(n)]
    if sum(free) > slot_bound:
        return None
    base_pairs = set()
    for u in range(n):
        for w in listed[u]:
            base_pairs.add((u, w) if u < w else (w, u))
    open_vertices = sorted(u for u in range(n) if free[u] > 0)
    solutions = []

    def backtrack(chosen, chosen_set):
        u = next((v for v in open_vertices if free[v] > 0), None)
        if u is None:
            solutions.append(tuple(chosen))
            return
        candidates = [
            w
            for w in open_vertices
            if w != u
            and free[w] > 0
            and ((u, w) if u < w else (w, u)) not in base_pairs
            and ((u, w) if u < w else (w, u)) not in chosen_set
        ]
        k = free[u]
        if len(candidates) < k:
            return
        for combo in itertools.combinations(candidates, k):
            pairs = [((u, w) if u < w else (w, u)) for w in combo]
            free[u] = 0
            for w in combo:
                free[w] -= 1
            chosen.extend(pairs)
            chosen_set.update(pairs)
            backtrack(chosen, chosen_set)
            for p in pairs:
                chosen.remove(p)
                chosen_set.remove(p)
            for w in combo:
                free[w] += 1
            free[u] = k

    backtrack([], set())
    return solutions


def _full_scan_merges(label, completions):
    """Most merges over every completion, read to the end with no stop;
    `label` maps each vertex to its component's index."""
    most = 0
    for extra in completions:
        parent = {}
        merges = 0
        for a, b in extra:
            ra, rb = label[a], label[b]
            while ra in parent:
                ra = parent[ra]
            while rb in parent:
                rb = parent[rb]
            if ra != rb:
                parent[ra] = rb
                merges += 1
        most = max(most, merges)
    return most


def _assert_distance_matches_full_scan(g, completions, slot_bound):
    if not completions:
        with pytest.raises(Uncompletable):
            distance_to_connectedness(g, slot_bound=slot_bound)
        return
    comps = components(g)
    label = {v: i for i, comp in enumerate(comps) for v in comp}
    most = _full_scan_merges(label, completions)
    # Some completion always attains the bound, so the stop always fires: were
    # the best one short, a pair that merged nothing and a pair in another
    # merged group could swap partners and join the two groups.
    open_comps = len({label[v] for pair in completions[0] for v in pair})
    assert most == min(len(completions[0]), max(open_comps - 1, 0))
    min_comp = len(comps) - most
    if min_comp > 1 and not g.num_edges:
        with pytest.raises(ValueError, match="edgeless disconnected"):
            distance_to_connectedness(g, slot_bound=slot_bound)
        return
    expected = Fraction(min_comp - 1, g.num_edges) if min_comp > 1 else 0
    assert distance_to_connectedness(g, slot_bound=slot_bound) == expected


def _assert_reach_sets_match_closures(g):
    """Each vertex's reach set is its full closure, except that outside a
    mutual component a closure holding two erased slots reads None."""
    reach = exact._reach_sets(g)
    assert len(reach) == g.num_vertices
    for comp in components(g):
        mutual = all(u in g.listed(w) for u in comp for w in g.listed(u))
        for v in comp:
            C = reach_listed(g, v)
            unusable = not mutual and sum(g.erased_count(u) for u in C) >= 2
            assert reach[v] == (None if unusable else C)


def _assert_matches_references(g, slot_bound=24):
    _assert_reach_sets_match_closures(g)
    assert inventory_witnesses(g) == _reference_inventory(g)
    if g.num_entries:
        davg = g.avg_degree
        # The plans take only the parameters their testers accept: eps < 2/davg.
        for eps, alpha in ((0.3, 0.0), (0.3, 0.02), (0.45, 0.1)):
            if eps >= 2 / davg:
                continue
            plans = mid_alpha_plan(eps, alpha, davg), small_alpha_plan(eps, alpha, davg)
            if validate(g):
                for plan in plans:
                    with pytest.raises(ValueError, match="passes validate"):
                        rejection_probability(g, plan)
                continue
            assert rejection_probability(g, plans[0]) == _reference_mid_alpha(g, eps, alpha, davg)
            assert rejection_probability(g, plans[1]) == _reference_small_alpha(g, eps, alpha, davg)
    expected = _reference_pairs(g, slot_bound)
    if expected is None:
        with pytest.raises(SearchBoundExceeded):
            enumerate_completions(g, slot_bound=slot_bound)
        with pytest.raises(SearchBoundExceeded):
            distance_to_connectedness(g, slot_bound=slot_bound)
        return
    completions = enumerate_completions(g, slot_bound=slot_bound)
    assert completions == expected
    _assert_distance_matches_full_scan(g, completions, slot_bound)
    # Every completed graph is a valid simple graph, and erasing g's slots
    # again gives g back.
    slots = [(u, i) for u in range(g.num_vertices) for i in erased_slots(g, u)]
    for pairs in completions[:100]:
        full = completed_graph(g, pairs)
        assert validate(full) == []
        assert full.erased_total == 0
        assert erase_slots(full, slots) == g


def _fig_graph(kind):
    return gen_fig_component(kind, seed=9).graph


REFERENCE_CASES = {
    **MERGE_CASES,
    **{f"fig-{kind}": partial(_fig_graph, kind) for kind in ("two-erasure", "one-erasure-anchored")},
    "g2-13": partial(gen_g2, "1/3", 13, seed=1),
    "gminus-10": partial(gen_gminus, "1/7", 10, seed=10),
    "one-way-triangle": lambda: PartiallyErasedGraph([[1], [2], [0], [4], [3]]),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_exact_oracles_match_references_on_corpus(case):
    g = REFERENCE_CASES[case]()
    _assert_matches_references(g)
    _assert_facts_match_references(g)


@st.composite
def erased_simple_graphs(draw):
    """A simple graph with some edges erased on both sides (free slots) and
    some single entries erased (forced fills); it validates cleanly."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    rows = [[] for _ in range(n)]
    for u, v in edges:
        hidden = draw(st.sampled_from(("none", "both", "u", "v")))
        rows[u].append(ERASED if hidden in ("both", "u") else v)
        rows[v].append(ERASED if hidden in ("both", "v") else u)
    return PartiallyErasedGraph(rows)


@st.composite
def arbitrary_graphs(draw):
    """Rows of in-range ids and erasures with no symmetry: most fail `validate`,
    and one-way links are common."""
    n = draw(st.integers(1, 9))
    entry = st.one_of(st.just(ERASED), st.integers(0, n - 1))
    return PartiallyErasedGraph(draw(st.lists(st.lists(entry, max_size=4), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(erased_simple_graphs(), arbitrary_graphs()))
def test_exact_oracles_match_references_on_generated_graphs(g):
    _assert_matches_references(g)
    _assert_facts_match_references(g)


@settings(max_examples=150, deadline=None)
@given(
    erased_simple_graphs(),
    st.fractions(Fraction(1, 50), 8, max_denominator=60),
    st.fractions(Fraction(1, 50), Fraction(1, 2), max_denominator=60),
)
def test_exp_chi_matches_reference_on_generated_graphs(g, d_hat, eps):
    assert not validate(g)
    assert exact_exp_chi(g, d_hat, eps) == exp_chi(g, d_hat, eps)


@settings(max_examples=150, deadline=None)
@given(erased_simple_graphs())
def test_cap_closes_matches_the_search(g):
    # A capped search from v closes just when `closes` says so for its cap and
    # v's reach set C: erasure-free when it halts on erasures, or holding at
    # most one erasure when it scans past them.
    erased = erased_counts(g)
    for v in range(g.num_vertices):
        C = reach_listed(g, v)
        held = sum(map(erased.__getitem__, C))
        entries = sum(map(g.degree, C))
        for halt in {0: (True, False), 1: (False,)}.get(held, ()):
            for limit in range(max(len(C), entries) + 3):
                for cap in (VertexCap(limit), EdgeCap(limit)):
                    out = bfs_until(QuerySession(g), v, cap, halt)
                    assert out.closed == closes(cap, len(C), entries), (v, cap, halt)


def _path_plus_edge(n):
    """A path on n vertices beside a single edge: two mutual components."""
    rows = [[] for _ in range(n + 2)]
    for i in range(n - 1):
        rows[i].append(i + 1)
        rows[i + 1].append(i)
    rows[n].append(n + 1)
    rows[n + 1].append(n)
    return PartiallyErasedGraph(rows)


def test_exact_oracles_on_a_long_path_are_fast():
    # One closure per vertex took ~42 s on a 2-core host; shared reach sets take ~0.04 s.
    g = _path_plus_edge(4000)
    t0 = time.perf_counter()
    inv = inventory_witnesses(g)
    p_small = rejection_probability(g, small_alpha_plan(0.2, 0.0, g.avg_degree))
    p_mid = rejection_probability(g, mid_alpha_plan(0.2, 0.0, g.avg_degree))
    elapsed = time.perf_counter() - t0
    assert sorted(len(c) for c in inv.plain) == [2, 4000]
    assert 0 < p_small < 1 and 0 < p_mid < 1
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_exact_probabilities_on_a_large_connected_graph():
    # The conn-accept recipe: a connected graph and a copy with 2% of its
    # entries erased. One closure per vertex of the erased copy would need
    # ~80 GB; closures that stop at their second erased slot take ~1.2 s
    # per probability on a 2-core host.
    g = gen_connected(50_000, 3.0, seed=1)
    for h, alpha in ((g, 0.0), (erase(g, 0.02, "uniform", seed=2), 0.02)):
        for make_plan in (small_alpha_plan, mid_alpha_plan):
            t0 = time.perf_counter()
            assert rejection_probability(h, make_plan(0.2, alpha, h.avg_degree)) == 0.0
            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0, f"{make_plan.__name__}, alpha {alpha}: {elapsed:.1f} s"
