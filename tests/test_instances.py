from collections import Counter
from fractions import Fraction

import pytest

from pegkit.exact import components, distance_to_connectedness, enumerate_completions
from pegkit.graph import ERASED, validate
from pegkit.instances import (
    FamilySpec,
    InfeasibleParameters,
    _far_forest_shapes,
    erase,
    gen_connected,
    gen_cycle_union,
    gen_far_forest,
    gen_fig_component,
    gen_g1,
    gen_g2,
    gen_gminus,
    gen_gplus,
    gen_random_regularish,
    generate,
)


def sample_instances():
    yield gen_gplus("1/7", 4, seed=1)
    yield gen_gminus("1/7", 4, seed=2)
    yield gen_g1("1/3", 13, seed=3)
    yield gen_g2("1/3", 13, seed=4)
    yield gen_fig_component("two-erasure", seed=5).graph
    yield gen_fig_component("one-erasure-anchored", seed=6).graph
    yield gen_far_forest(0.2, 0.1, 100, strategy="uniform", seed=7)
    yield gen_far_forest(0.2, 0.15, 100, strategy="component-hiding", seed=8)
    yield gen_cycle_union(30, 5, seed=9)
    yield gen_random_regularish(30, 4, seed=10)
    yield gen_connected(30, 2.5, seed=11)


def test_all_generators_emit_valid_graphs():
    for g in sample_instances():
        assert validate(g) == []


def test_generators_are_deterministic():
    assert gen_gplus("1/7", 4, seed=5) == gen_gplus("1/7", 4, seed=5)
    assert gen_gplus("1/7", 4, seed=5) != gen_gplus("1/7", 4, seed=6)


def structural_profile(g):
    """Degree/erasure profile per listed-edge component: isomorphism invariant."""
    profile = []
    for comp in components(g):
        degs = sorted(g.degree(v) for v in comp)
        erased = sum(g.erased_count(v) for v in comp)
        profile.append((tuple(degs), erased))
    return Counter(profile)


def test_seeds_sample_isomorphic_copies():
    a = gen_gplus("1/7", 6, seed=1)
    b = gen_gplus("1/7", 6, seed=99)
    assert a != b
    assert structural_profile(a) == structural_profile(b)
    a = gen_g2("1/3", 13, seed=1)
    b = gen_g2("1/3", 13, seed=42)
    assert structural_profile(a) == structural_profile(b)


def test_hub_family_erasure_fractions():
    # at (1-eps)/(2*eps) = t cycles of length t: fractions 1/(2t+2) and 1/(2t+1)
    gp = gen_gplus("1/7", 4, seed=0)
    gm = gen_gminus("1/7", 4, seed=0)
    assert gp.erasure_fraction() == Fraction(1, 8)
    assert gm.erasure_fraction() == Fraction(1, 7)
    assert gp.num_vertices == gm.num_vertices == 13
    assert gm.num_edges == 14


def test_hub_family_distances():
    assert distance_to_connectedness(gen_gplus("1/7", 4, seed=3)) == 0
    assert distance_to_connectedness(gen_gminus("1/7", 4, seed=3)) == Fraction(1, 7)


def test_degree_one_family_exact_shape():
    g1 = gen_g1("1/3", 13, seed=2)
    g2 = gen_g2("1/3", 13, seed=2)
    assert Fraction(g1.num_entries, 13) == Fraction(24, 13)
    assert Fraction(g2.num_entries, 13) == Fraction(18, 13)
    assert g1.erasure_fraction() == Fraction(1, 4)
    assert g2.erasure_fraction() == Fraction(1, 3)
    # both are alpha-erased at alpha = 1/3
    assert g1.erasure_fraction() <= Fraction(1, 3)
    deg_counts = Counter(g1.degree(v) for v in range(13))
    assert deg_counts[1] == 6 and deg_counts[6] == 1 and deg_counts[2] == 6


def test_infeasible_parameters_raise():
    with pytest.raises(InfeasibleParameters):
        gen_gplus("1/6", 4, seed=0)  # t = 2.5 not an integer
    with pytest.raises(InfeasibleParameters):
        gen_gplus("1/7", 3, seed=0)  # odd k
    with pytest.raises(InfeasibleParameters):
        gen_gplus("1/5", 4, seed=0)  # t = 2 < 3 means eps > 1/7
    with pytest.raises(InfeasibleParameters):
        gen_g1("1/3", 12, seed=0)  # lambda*(n-1) odd
    with pytest.raises(InfeasibleParameters):
        gen_far_forest(0.2, 0.0, 12, davg_target=2.0, seed=0)  # too few components
    with pytest.raises(InfeasibleParameters):
        gen_fig_component("nope", seed=0)


def test_far_forest_is_certified_far():
    for seed in range(4):
        g = gen_far_forest(0.2, 0.1, 60, davg_target=1.8, strategy="uniform", seed=seed)
        assert validate(g) == []
        assert g.erased_total <= 2 * 0.1 * g.num_edges
        assert distance_to_connectedness(g, slot_bound=60) >= Fraction(1, 5)


def test_far_forest_component_hiding_kills_plain_witnesses():
    g = gen_far_forest(0.2, 0.15, 200, strategy="component-hiding", seed=3)
    comps = components(g)
    assert all(any(g.erased_count(v) for v in c) for c in comps)
    assert g.erased_total == len(comps)  # exactly one erasure per component


@pytest.mark.parametrize("eps", [0.1, 0.2, 0.25, Fraction(1, 3), 0.5])
@pytest.mark.parametrize("davg_target", [1.0, 1.6, 2.0])
def test_far_forest_shapes_tile_n(eps, davg_target):
    for n in range(1, 301):
        try:
            shapes = _far_forest_shapes(eps, n, davg_target)
        except InfeasibleParameters:
            continue
        assert all(size >= 2 for _, size in shapes)
        assert sum(size for _, size in shapes) == n


def test_far_forest_davg_target():
    g = gen_far_forest(0.2, 0.0, 400, davg_target=2.0, seed=1)
    assert abs(g.avg_degree - 2.0) < 0.05
    g = gen_far_forest(0.2, 0.0, 400, davg_target=1.5, seed=1)
    assert abs(g.avg_degree - 1.5) < 0.1


def test_erase_alpha_zero_is_identity():
    g = gen_connected(20, 2.0, seed=1)
    assert erase(g, 0.0, "uniform", seed=1) == g


@pytest.mark.parametrize("alpha", [0.0, 0.001, 0.5])
def test_erase_rejects_unknown_strategy(alpha):
    # alpha 0 and 0.001 give an erase budget of zero on 20 edges.
    g = gen_connected(20, 2.0, seed=1)
    with pytest.raises(ValueError, match="unknown strategy 'zz'"):
        erase(g, alpha, "zz", seed=1)


def test_erase_alpha_one_uniform_erases_everything():
    g = gen_connected(20, 2.0, seed=2)
    h = erase(g, 1.0, "uniform", seed=3)
    assert h.erased_total == h.num_entries


def test_erase_symmetric_leaves_no_half_erased_edges():
    g = gen_connected(40, 2.5, seed=4)
    h = erase(g, 0.3, "symmetric", seed=5)
    assert h.erased_total > 0
    for u in range(h.num_vertices):
        for w in h.listed(u):
            assert u in h.listed(w)


def test_erase_halves_forces_the_original_completion():
    g = gen_connected(15, 2.0, seed=6)
    h = erase(g, 0.25, "halves", seed=7)
    assert h.erased_total > 0
    cs = enumerate_completions(h, slot_bound=30)
    assert len(cs) == 1
    # the unique completion restores the original edge set
    restored = cs.completions[0].apply(h)
    assert {frozenset((u, w)) for u in range(15) for w in restored.listed(u)} == {
        frozenset((u, w)) for u in range(15) for w in g.listed(u)
    }


def test_erase_budget_is_respected():
    g = gen_connected(50, 3.0, seed=8)
    for strategy in ("uniform", "halves", "symmetric"):
        h = erase(g, 0.2, strategy, seed=9)
        assert h.erased_total <= int(2 * 0.2 * g.num_edges)
        assert validate(h) == []


def test_generate_dispatch_and_manifest():
    g, manifest = generate(FamilySpec("gminus", {"eps": Fraction(1, 7), "k": 4}, seed=3))
    assert manifest["family"] == "gminus"
    assert manifest["properties"]["n"] == 13
    assert manifest["properties"]["erasure_fraction"] == "1/7"
    fig, manifest = generate(FamilySpec("fig2", {}, seed=1))
    assert len(manifest["properties"]["gadget_vertices"]) == 3
    with pytest.raises(InfeasibleParameters):
        generate(FamilySpec("no-such-family", {}, seed=0))


def test_cycle_union_single_cycle_is_connected():
    g = gen_cycle_union(12, 12, seed=2)
    assert len(components(g)) == 1
    assert g.avg_degree == 2.0
