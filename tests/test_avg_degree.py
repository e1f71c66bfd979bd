import inspect
import math
import random
import statistics
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegkit import avg_degree
from pegkit.avg_degree import (
    REP_COEFF,
    SAMPLE_COEFF,
    chi_threshold,
    credit_classes,
    credit_counts,
    credit_outcomes,
    d_plus,
    estimate_avg_degree,
    is_conforming,
    precedes,
    refine_estimate,
    sample_count,
)
from pegkit.exact import exact_exp_chi
from pegkit.graph import ERASED, PartiallyErasedGraph, erase_slots
from pegkit.instances import erase, gen_connected, gen_g1, gen_g2, gen_random_regularish
from pegkit.oracle import QuerySession, split_seed

from reference import chi_sample


def single_edge():
    return PartiallyErasedGraph([[1], [0]])


# --- ordering and degree statistics -----------------------------------------


def test_precedes_is_a_strict_total_order():
    rng = random.Random(0)
    rows = [[] for _ in range(12)]
    g = gen_random_regularish(12, 3, seed=1)
    for _ in range(3):
        du = rng.randrange(12)
        assert not precedes(g, du, du)
    verts = list(range(12))
    for u in verts:
        for v in verts:
            if u != v:
                assert precedes(g, u, v) != precedes(g, v, u)
    for _ in range(300):
        a, b, c = rng.sample(verts, 3)
        if precedes(g, a, b) and precedes(g, b, c):
            assert precedes(g, a, c)


def test_d_plus_and_d_bot_basics():
    g = PartiallyErasedGraph([[1, 2], [0], [0]])
    # vertex 0 has the top rank: degree 2 beats the leaves
    assert d_plus(g, 0) == 0
    assert d_plus(g, 1) == 1 and d_plus(g, 2) == 1
    h = PartiallyErasedGraph([[ERASED, ERASED], [2], [1]])
    assert h.erased_count(0) == 2 and d_plus(h, 0) == 0


def test_sum_d_plus_at_most_m_with_equality_when_no_erasures():
    for seed in range(4):
        g = gen_connected(40, 2.5, seed=seed)
        total = sum(d_plus(g, u) for u in range(40))
        assert total == g.num_edges
        h = erase(g, 0.3, "uniform", seed=seed)
        assert sum(d_plus(h, u) for u in range(40)) <= h.num_edges


# --- the credit sample -------------------------------------------------------


def test_chi_single_edge_low_endpoint_credits():
    g = single_edge()
    s = QuerySession(g, seed=11)
    values = [chi_sample(s, 0.25, 1.0) for _ in range(400)]
    # E[chi] = 1/2: only the id-0 endpoint credits (degree tie, lower id)
    assert set(values) == {0.0, 1.0}
    assert abs(sum(values) / len(values) - 0.5) < 0.1


def test_chi_erased_slot_always_credits():
    # both vertices have degree 1; vertex 0's only entry is erased
    g = PartiallyErasedGraph([[ERASED], [2], [1]])
    s = QuerySession(g, seed=5)
    seen = set()
    for _ in range(200):
        chi = chi_sample(s, 0.25, 1.0)
        seen.add(chi)
    assert seen == {0.0, 1.0}
    exp = exact_exp_chi(g, Fraction(1), Fraction(1, 4))
    assert exp == Fraction(2, 3)  # 0 credits via its erasure, 1 or 2 via the tie


def test_chi_high_degree_vertex_contributes_zero():
    star = PartiallyErasedGraph([[i for i in range(1, 40)]] + [[0] for _ in range(1, 40)])
    # tiny threshold: only the hub exceeds it
    tau = chi_threshold(40, 0.1, 0.45)
    assert star.degree(0) > tau
    exp = exact_exp_chi(star, Fraction(1, 10), Fraction(45, 100))
    assert exp == Fraction(39, 40)  # every leaf credits 1, the hub is dropped


def test_chi_range():
    g = erase(gen_random_regularish(30, 4, seed=2), 0.2, "uniform", seed=3)
    tau = chi_threshold(30, 2.0, 0.25)
    s = QuerySession(g, seed=9)
    for _ in range(500):
        chi = chi_sample(s, 0.25, 2.0)
        assert chi == 0.0 or 0 < chi <= tau * (1 + 1e-12)


def test_scalar_accounting_no_isolates_no_erasures():
    g = gen_random_regularish(20, 3, seed=4)
    s = QuerySession(g, seed=1)
    n_samples = 300
    for _ in range(n_samples):
        chi_sample(s, 0.25, 2.0)
    assert s.neighbor_queries == n_samples
    assert s.degree_queries == 2 * n_samples


def test_scalar_accounting_all_erased():
    g = PartiallyErasedGraph([[ERASED], [ERASED]])
    s = QuerySession(g, seed=1)
    for _ in range(100):
        chi_sample(s, 0.25, 1.0)
    assert s.neighbor_queries == 100
    assert s.degree_queries == 100  # no degree query for erased draws


# --- the refinement step -----------------------------------------------------


def test_sample_count_formula():
    expected = math.ceil(660 * math.log(8) * math.sqrt(100 / (0.25**5 * 2.0)))
    assert sample_count(100, 0.25, 2.0, SAMPLE_COEFF) == expected


def erased_graph_with_isolates(seed):
    """A small erased graph of mixed degrees plus four isolated vertices."""
    g = erase(gen_connected(30, 4.0, seed=seed), 0.3, "uniform", seed=seed + 1)
    return PartiallyErasedGraph([g.entries(u) for u in range(30)] + [()] * 4)


def test_credit_classes_match_scalar_reference():
    for seed in range(6):
        g = erased_graph_with_isolates(seed)
        n = g.num_vertices
        degrees, bots, pluses = credit_counts(g)
        for u in range(n):
            assert (degrees[u], bots[u], pluses[u]) == (g.degree(u), g.erased_count(u), d_plus(g, u))
        deg, bot, plus, count = credit_classes(g)
        assert int(count.sum()) == n
        expected = Counter((g.degree(u), g.erased_count(u), d_plus(g, u)) for u in range(n))
        got = {(int(a), int(b), int(c)): int(k) for a, b, c, k in zip(deg, bot, plus, count)}
        assert got == expected
        assert credit_classes(g) is credit_classes(g)


# The class table and flat adjacency as first written: references for the
# sorted, C-built versions, which must give the same arrays in the same order.


def reference_class_table(g):
    table, count = np.unique(np.stack(credit_counts(g), axis=1), axis=0, return_counts=True)
    return table[:, 0], table[:, 1], table[:, 2], count


def reference_flat_adjacency(g):
    n = g.num_vertices
    rows = [g.entries(u) for u in range(n)]
    degrees = np.fromiter((len(row) for row in rows), dtype=np.int64, count=n)
    flat = np.fromiter(
        (-1 if e is ERASED else e for row in rows for e in row), dtype=np.int64, count=int(degrees.sum())
    )
    return degrees, flat


def reference_outcomes(g, tau):
    """`credit_outcomes` as first written, over the reference class table."""
    deg, bot, plus, count = reference_class_table(g)
    live = deg > 0
    credited = live & (deg <= tau * (1 + avg_degree._THRESHOLD_RTOL))
    weight = count / (g.num_vertices * np.maximum(deg, 1))
    degrees, idx = np.unique(deg[credited], return_inverse=True)
    k = len(degrees)
    paid = [np.bincount(idx, (weight * slots)[credited], k) for slots in (bot, plus)]
    unpaid = [
        np.sum(count[~live]) / g.num_vertices,
        np.dot(weight[~credited], bot[~credited]),
        np.dot(weight, deg - bot - plus) + np.dot(weight[~credited], plus[~credited]),
    ]
    p = np.concatenate([unpaid, *paid])
    value = np.concatenate([np.zeros(3), degrees, degrees])
    erased = np.repeat([False, True, False, True, False], [1, 1, 1, k, k])
    return p, value, erased


@st.composite
def entry_rows(draw):
    """Graphs of n >= 1 rows over [0, n): repeated entries, empty and all-erased rows allowed."""
    n = draw(st.integers(1, 12))
    entry = st.integers(0, n - 1)
    if draw(st.booleans()):
        entry = st.one_of(st.just(ERASED), entry)
    return PartiallyErasedGraph(draw(st.lists(st.lists(entry, max_size=7), min_size=n, max_size=n)))


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_matches_reference(g, taus=(0.5, 1.0, 2.5, 7.0)):
    # taus below every degree, between degrees and above all of them
    assert_same_arrays(g.flat_adjacency(), reference_flat_adjacency(g))
    assert_same_arrays(credit_classes(g), reference_class_table(g))
    for tau in taus:
        assert_same_arrays(credit_outcomes(g, tau), reference_outcomes(g, tau))


@settings(max_examples=300, deadline=None)
@given(entry_rows(), st.lists(st.floats(0.5, 9.0), max_size=4))
def test_set_up_matches_reference(g, taus):
    assert_matches_reference(g, taus + [1.0, 7.0])


@pytest.mark.parametrize(
    "rows",
    [[[]], [[], [], []], [[ERASED, ERASED], [0, 0, 2], [], [1, ERASED]], [[1, 1], [], [0, 3], [2]]],
    ids=["single-vertex", "edgeless", "repeats-all-erased-isolated", "no-erasures"],
)
def test_set_up_matches_reference_on_edge_cases(rows):
    # single-vertex, edgeless and no-erasures (with a repeated entry) take
    # flat_adjacency's path for graphs without erasures
    assert_matches_reference(PartiallyErasedGraph(rows))


def test_outcome_laws_follow_the_credited_run():
    # Laws are kept per credited run. Taus in three runs, a return to the
    # first run and a second tau inside the middle run: each law must be the
    # reference's, so a kept law is never served for another run.
    g = erased_graph_with_isolates(0)
    degrees = sorted({g.degree(u) for u in range(g.num_vertices)} - {0})
    assert len(degrees) >= 3
    low, mid, top = degrees[0], degrees[len(degrees) // 2], degrees[-1]
    for tau in (low + 0.5, mid + 0.5, top + 1.0, low + 0.5, mid + 0.25, top + 1.0):
        assert_same_arrays(credit_outcomes(g, tau), reference_outcomes(g, tau))
    assert credit_outcomes(g, mid + 0.25) is credit_outcomes(g, mid + 0.5)


def test_credit_class_table_past_a_mixed_radix_key():
    # (deg*B + bot)*B + plus with B > 2^21 would pass int64 here
    big = 2**21 + 1
    g = PartiallyErasedGraph([[ERASED] * (big - 1) + [2], [ERASED], [0, 0, ERASED], [], [2, 1]])
    deg, bot, plus, count = credit_classes(g)
    assert_same_arrays((deg, bot, plus, count), reference_class_table(g))
    assert deg[-1] == big and bot[-1] == big - 1 and plus[-1] == 0
    tau = chi_threshold(5, 1e12, 0.25)
    assert tau > big
    assert_same_arrays(credit_outcomes(g, tau), reference_outcomes(g, tau))


ESTIMATE_GRAPHS = {
    "regularish": lambda: gen_random_regularish(1200, 3, seed=21),
    "regularish-erased": lambda: erase(gen_random_regularish(1200, 3, seed=21), 0.3, "uniform", seed=22),
    "g1": lambda: gen_g1(Fraction(1, 4), 1201, seed=3),
    "g2": lambda: gen_g2(Fraction(1, 3), 1201, seed=4),
}


@pytest.mark.parametrize("name", sorted(ESTIMATE_GRAPHS))
def test_estimates_are_the_reference_draws(name, monkeypatch):
    g = ESTIMATE_GRAPHS[name]()
    n, eps = g.num_vertices, 0.45
    for i in range(math.ceil(math.log2(n)) + 1):
        tau = chi_threshold(n, n / 2**i, eps)
        assert_same_arrays(credit_outcomes(g, tau), reference_outcomes(g, tau))
    fields = ("value", "samples", "degree_queries", "neighbor_queries", "crude", "iteration")
    seeds = (0, 7, 21, 1234)
    got = [estimate_avg_degree(g, eps, seed=seed) for seed in seeds]
    monkeypatch.setattr(avg_degree, "credit_outcomes", reference_outcomes)
    fresh = PartiallyErasedGraph([g.entries(u) for u in range(n)])
    expected = [estimate_avg_degree(fresh, eps, seed=seed) for seed in seeds]
    for a, b in zip(got, expected):
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


def reference_case(crude):
    """The erased graph with isolates at eps 0.3: refinement arguments, s, tau and exact expectations.

    Expectations are of (value, degree queries, neighbor queries) for one
    refinement; the standard deviation bounds come from the ranges of one
    sample: the value's term lies in [0, 2*tau], degree queries in [1, 2],
    neighbor queries in [0, 1].
    """
    g = erased_graph_with_isolates(0)
    n = g.num_vertices
    eps = Fraction(3, 10)
    args = {"epsilon": float(eps), "crude": float(crude), "sample_coeff": 0.05}
    s = sample_count(n, **args)
    tau = chi_threshold(n, args["crude"], args["epsilon"])
    nonisolated = [u for u in range(n) if g.degree(u) > 0]
    expected = (
        2 * float(exact_exp_chi(g, crude, eps)),
        s * (1 + sum((g.degree(u) - g.erased_count(u)) / g.degree(u) for u in nonisolated) / n),
        s * len(nonisolated) / n,
    )
    sd = (tau / math.sqrt(s), math.sqrt(s) / 2, math.sqrt(s) / 2)
    return g, args, s, tau, expected, sd


def worst_z(observed, expected, sd):
    """Largest |z| of the sample means of three per-run series."""
    return max(
        abs(statistics.fmean(o) - e) / (w / math.sqrt(len(o))) for o, e, w in zip(observed, expected, sd)
    )


def test_refine_matches_scalar_reference_distribution():
    # tau ~ 6 drops the vertices of degree 7 to 9 from the credit
    g, args, s, tau, expected, sd = reference_case(Fraction(1, 50))
    assert 0 < sum(g.degree(u) > tau for u in range(g.num_vertices)) < g.num_vertices
    runs = 2000

    collapsed = [refine_estimate(g, **args, seed=split_seed(1, r)) for r in range(runs)]
    assert all(e.samples == s for e in collapsed)
    observed = ([e.value for e in collapsed], [e.degree_queries for e in collapsed],
                [e.neighbor_queries for e in collapsed])
    assert worst_z(observed, expected, sd) <= 4

    scalar = ([], [], [])
    for r in range(runs):
        session = QuerySession(g, seed=split_seed(2, r))
        scalar[0].append(2 * sum(chi_sample(session, args["epsilon"], args["crude"]) for _ in range(s)) / s)
        scalar[1].append(session.degree_queries)
        scalar[2].append(session.neighbor_queries)
    assert worst_z(scalar, expected, sd) <= 4


@pytest.mark.parametrize("crude", [Fraction(1, 50), Fraction(2)])
def test_refine_level_matches_exact_distribution(crude):
    # crude 2 puts tau above every degree, so every class is credited
    g, args, s, tau, expected, sd = reference_case(crude)
    assert (max(g.degree(u) for u in range(g.num_vertices)) <= tau) == (crude == 2)
    levels, t = 400, 7
    # a one-row refinement's value is its row's, so these follow the per-row law
    values = [refine_estimate(g, **args, seed=split_seed(3, r)).value for r in range(levels * t)]
    degree, neighbor = [], []
    for r in range(levels):
        session = QuerySession(g, seed=0)
        est = refine_estimate(g, **args, seed=split_seed(4, r), reps=t, session=session)
        assert est.samples == s * t
        assert (session.degree_queries, session.neighbor_queries) == (est.degree_queries, est.neighbor_queries)
        degree.append(est.degree_queries / t)
        neighbor.append(est.neighbor_queries / t)
    # a level's query totals average t rows, so their spread shrinks by sqrt(t)
    level_sd = (sd[0], sd[1] / math.sqrt(t), sd[2] / math.sqrt(t))
    assert worst_z((values, degree, neighbor), expected, level_sd) <= 4


@pytest.mark.parametrize("crude", [0.02, 0.2, 2.0])
def test_credit_outcomes_are_the_two_stage_probabilities(crude):
    g = erased_graph_with_isolates(1)
    n = g.num_vertices
    tau = chi_threshold(n, crude, 0.3)
    # Per vertex, then per slot, as `chi_sample` draws: key (credit, erased).
    exact = Counter()
    for u in range(n):
        du = g.degree(u)
        if du == 0:
            exact["isolated"] += Fraction(1, n)
            continue
        for entry in g.entries(u):
            credit = du if du <= tau and (entry is ERASED or precedes(g, u, entry)) else 0
            exact[credit, entry is ERASED] += Fraction(1, n * du)
    p, value, erased = credit_outcomes(g, tau)
    assert abs(p.sum() - 1) <= 1e-12 and (p >= 0).all()
    got = Counter()
    for j, (pj, v, e) in enumerate(zip(p, value, erased)):
        got["isolated" if j == 0 else (int(v), bool(e))] += pj
    assert set(got) >= set(exact)
    assert all(abs(got[key] - float(exact[key])) <= 1e-12 for key in got)


def test_refine_sums_exactly_past_int64():
    # s ~ 1.68e18 fits an int64, but a credit sum of ~20 s does not, and
    # neither do the query totals of a few rows.
    g = gen_random_regularish(40, 20.0, seed=1)
    assert g.avg_degree == 20 and g.erasure_fraction() == 0
    est = refine_estimate(g, 0.25, 1.0, seed=3, sample_coeff=4e15)
    assert (1 - 0.25) * 20 <= est.value <= (1 + 0.25) * 20
    # no isolated vertex and no erased slot: two degree queries and one neighbor query per sample
    assert (est.degree_queries, est.neighbor_queries) == (2 * est.samples, est.samples)
    level = refine_estimate(g, 0.25, 1.0, seed=3, reps=6, sample_coeff=4e15)
    assert (1 - 0.25) * 20 <= level.value <= (1 + 0.25) * 20
    assert level.samples == 6 * est.samples
    assert (level.degree_queries, level.neighbor_queries) == (2 * level.samples, level.samples)


def test_refine_takes_the_lower_median_of_its_rows():
    # At an even row count the two middle rows differ, so an upper median or a
    # mean of the two would not give this value.
    g, args, s, tau, _, _ = reference_case(Fraction(1, 50))
    p, value, _ = credit_outcomes(g, tau)
    reps = 6
    for seed in range(5):
        drawn = np.random.default_rng(seed).multinomial(s, p, size=reps)
        rows = sorted((2.0 * (drawn * value).sum(axis=1) / s).tolist())
        assert rows[(reps - 1) // 2] < rows[reps // 2]
        assert refine_estimate(g, **args, seed=seed, reps=reps).value == rows[(reps - 1) // 2]


def test_refine_accounting_no_isolates_no_erasures():
    g = gen_random_regularish(24, 3, seed=9)
    est = refine_estimate(g, 0.3, 2.0, seed=2, sample_coeff=2.0)
    assert est.neighbor_queries == est.samples
    assert est.degree_queries == 2 * est.samples


def test_refine_accounting_interpolates_with_erasures():
    g = erase(gen_random_regularish(24, 3, seed=9), 0.4, "uniform", seed=1)
    est = refine_estimate(g, 0.3, 2.0, seed=2, sample_coeff=2.0)
    assert est.neighbor_queries == est.samples  # no isolated vertices
    assert est.samples <= est.degree_queries <= 2 * est.samples


def test_refine_matches_exact_expectation():
    g = erase(gen_random_regularish(50, 4, seed=1), 0.3, "uniform", seed=2)
    exp2 = 2 * float(exact_exp_chi(g, Fraction(2), Fraction(1, 4)))
    est = refine_estimate(g, 0.25, 2.0, seed=77, sample_coeff=30.0)
    tau = chi_threshold(50, 2.0, 0.25)
    sigma = 2 * tau / (2 * math.sqrt(est.samples))
    assert abs(est.value - exp2) <= 5 * sigma


def test_refine_validates_config():
    g = single_edge()
    with pytest.raises(ValueError):
        refine_estimate(g, 0.7, 1.0)
    with pytest.raises(ValueError):
        refine_estimate(g, 0.25, None)
    for coeffs in ({"sample_coeff": 0.0}, {"sample_coeff": -5.0}, {"sample_coeff": math.inf}):
        with pytest.raises(ValueError, match="must be a positive finite number"):
            refine_estimate(g, 0.25, 1.0, **coeffs)
    with pytest.raises(ValueError, match="too large"):
        refine_estimate(g, 0.25, 1.0, sample_coeff=1e30)


def test_conforming_flag():
    assert is_conforming(inspect.signature(refine_estimate).parameters["sample_coeff"].default)
    assert not is_conforming(5.0)
    # estimate_avg_degree's own defaults are the conforming coefficients
    defaults = inspect.signature(estimate_avg_degree).parameters
    assert is_conforming(defaults["sample_coeff"].default, defaults["rep_coeff"].default) is True


# --- the doubling-search driver ----------------------------------------------


def test_estimator_star_graph():
    n = 400
    star = PartiallyErasedGraph([[i for i in range(1, n)]] + [[0] for _ in range(1, n)])
    davg = star.avg_degree
    hits = 0
    trials = 40
    for seed in range(trials):
        est = estimate_avg_degree(star, 0.25, seed=seed, sample_coeff=20.0, rep_coeff=3.0)
        if 0.75 * davg < est.value < 1.25 * davg:
            hits += 1
    assert hits / trials >= 0.6


def test_estimator_guard_crude_not_far_below_average():
    g = gen_random_regularish(500, 4, seed=3)
    ok = 0
    trials = 30
    for seed in range(trials):
        est = estimate_avg_degree(g, 0.25, seed=seed, sample_coeff=20.0, rep_coeff=3.0)
        if est.crude is not None and est.crude >= g.avg_degree / 8:
            ok += 1
    assert ok / trials >= 0.6


def test_estimator_requires_valid_input():
    with pytest.raises(ValueError):
        estimate_avg_degree(PartiallyErasedGraph([[]]), 0.25)
    with pytest.raises(ValueError):
        estimate_avg_degree(single_edge(), 0.6)
    for coeffs in ({"sample_coeff": 0.0}, {"sample_coeff": -5.0}, {"rep_coeff": 0.0},
                   {"rep_coeff": -1.0}):
        with pytest.raises(ValueError, match="must be a positive finite number"):
            estimate_avg_degree(single_edge(), 0.25, **coeffs)


def test_estimate_charges_one_session(monkeypatch):
    g = erase(gen_random_regularish(200, 3, seed=5), 0.3, "uniform", seed=6)
    n = g.num_vertices
    charges = []
    charge_bulk = QuerySession.charge_bulk

    def recording(session, degree=0, neighbor=0):
        charges.append((session, degree, neighbor))
        return charge_bulk(session, degree=degree, neighbor=neighbor)

    monkeypatch.setattr(QuerySession, "charge_bulk", recording)
    est = estimate_avg_degree(g, 0.25, seed=3, sample_coeff=10.0, rep_coeff=2.0)
    levels = range(math.ceil(math.log2(n)) + 1 if est.iteration is None else est.iteration + 1)
    t = math.ceil(2.0 * math.log(4 * math.log2(n)))
    assert len(charges) == len(levels) > 1  # one bulk charge per level tried
    assert len({id(session) for session, _, _ in charges}) == 1
    assert est.degree_queries == sum(d for _, d, _ in charges)
    assert est.neighbor_queries == sum(nb for _, _, nb in charges)
    level_samples = [
        sample_count(n, 0.25, n / 2**i, 10.0) for i in levels
    ]
    assert est.samples == sum(s * t for s in level_samples)
    assert est.neighbor_queries < est.degree_queries < 2 * est.samples


def test_refine_patched_on_the_module_sees_every_level(monkeypatch):
    # The traced benchmark wraps `refine_estimate` on the module, so the
    # search must look it up there at every level.
    g = erase(gen_random_regularish(200, 3, seed=5), 0.3, "uniform", seed=6)
    n = g.num_vertices
    calls = []
    refine = avg_degree.refine_estimate

    def wrapper(*args):
        est = refine(*args)
        calls.append(est)
        return est

    monkeypatch.setattr(avg_degree, "refine_estimate", wrapper)
    for seed in range(1, 4):
        calls.clear()
        est = estimate_avg_degree(g, 0.25, seed=seed, sample_coeff=10.0, rep_coeff=2.0)
        levels = math.ceil(math.log2(n)) + 1 if est.iteration is None else est.iteration + 1
        assert len(calls) == levels > 1
        assert est.samples == sum(c.samples for c in calls)
        assert est.degree_queries == sum(c.degree_queries for c in calls)
        assert est.neighbor_queries == sum(c.neighbor_queries for c in calls)


def test_estimator_is_deterministic_in_the_seed():
    g = gen_random_regularish(200, 3, seed=5)
    a = estimate_avg_degree(g, 0.25, seed=9, sample_coeff=10.0, rep_coeff=2.0)
    b = estimate_avg_degree(g, 0.25, seed=9, sample_coeff=10.0, rep_coeff=2.0)
    assert a.value == b.value
    assert (a.degree_queries, a.neighbor_queries) == (b.degree_queries, b.neighbor_queries)


def test_default_coefficients_are_the_analyzed_ones():
    assert SAMPLE_COEFF == 660.0
    assert REP_COEFF == 12.0
