"""Acceptance suite: one test per criterion, one PASS line per criterion.

Criteria marked "< N min" are wall-clock bounded; statistical thresholds
carry the documented sampling slack. The estimator criteria (9, 10) run at
the analyzed 660/12/4 coefficient defaults.
"""

import inspect
import math
import statistics
import time
from fractions import Fraction

from pegkit.avg_degree import (
    chi_threshold,
    estimate_avg_degree,
    is_conforming,
    refine_estimate,
)
from pegkit.connectedness import (
    ConnTesterConfig,
    small_alpha_plan,
    small_alpha_query_cap,
    tester_mid_alpha,
    tester_no_erasures,
    tester_small_alpha,
    tester_unknown_davg,
    unknown_davg_budget,
)
from pegkit.exact import (
    components,
    distance_to_connectedness,
    exact_exp_chi,
    inventory_witnesses,
)
from pegkit.graph import validate
from pegkit.instances import (
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
)
from pegkit.oracle import QuerySession, split_seed

from reference import BLANK, FilterOracle, d_plus, is_small, rejection_probability


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


# ---------------------------------------------------------------------------


def _connected_corpus():
    """20 connected instances: (graph, true erasure fraction)."""
    corpus = []
    for i, (n, davg) in enumerate([(40, 2.0), (80, 2.0), (160, 2.8), (320, 2.4)]):
        corpus.append((gen_connected(n, davg, seed=i), 0.0))
    for i, (n, davg) in enumerate([(60, 2.2), (120, 3.0)]):
        base = gen_connected(n, davg, seed=20 + i)
        g = erase(base, 0.04, "uniform", seed=30 + i)
        corpus.append((g, float(g.erasure_fraction())))
        g = erase(base, 0.04, "halves", seed=40 + i)
        corpus.append((g, float(g.erasure_fraction())))
    for i, (n, davg) in enumerate([(100, 2.5), (140, 2.0)]):
        g = erase(gen_connected(n, davg, seed=50 + i), 0.12, "symmetric", seed=60 + i)
        corpus.append((g, float(g.erasure_fraction())))
    corpus.append((gen_cycle_union(60, 60, seed=70), 0.0))
    corpus.append((gen_cycle_union(91, 91, seed=71), 0.0))
    for i, k in enumerate((4, 6)):
        g = gen_gplus("1/7", k, seed=80 + i)
        corpus.append((g, float(g.erasure_fraction())))
    for i in range(4):
        corpus.append((gen_connected(50 + 30 * i, 4.0, seed=90 + i), 0.0))
    corpus.append((gen_connected(70, 3.4, seed=95), 0.0))
    g = erase(gen_connected(150, 2.6, seed=96), 0.06, "uniform", seed=97)
    corpus.append((g, float(g.erasure_fraction())))
    assert len(corpus) == 20
    return corpus


def test_criterion_1_one_sided_error():
    t0 = time.time()
    corpus = _connected_corpus()
    rejections = 0
    trials_per = {"small-alpha": 0, "mid-alpha": 0, "no-erasure": 0, "unknown-davg": 0}

    per_instance = 50
    for idx, (g, alpha) in enumerate(corpus):
        davg = g.avg_degree
        eps = min(0.45, 1.8 / davg)
        for t in range(per_instance):
            seed = split_seed(idx, t)
            if alpha < eps / 2:
                v = tester_small_alpha(g, ConnTesterConfig(eps, alpha, davg, seed))
                rejections += v.rejected
                trials_per["small-alpha"] += 1
            v = tester_mid_alpha(g, ConnTesterConfig(eps, alpha, davg, seed))
            rejections += v.rejected
            trials_per["mid-alpha"] += 1

    zero_alpha = [g for g, a in corpus if a == 0.0]
    need = 1000
    i = 0
    while trials_per["no-erasure"] < need or trials_per["unknown-davg"] < need:
        g = zero_alpha[i % len(zero_alpha)]
        davg = g.avg_degree
        eps = min(0.45, 1.8 / davg)
        seed = split_seed(999, i)
        if trials_per["no-erasure"] < need:
            v = tester_no_erasures(g, ConnTesterConfig(eps, 0.0, davg, seed))
            rejections += v.rejected
            trials_per["no-erasure"] += 1
        if trials_per["unknown-davg"] < need:
            v = tester_unknown_davg(g, 0.5, seed)
            rejections += v.rejected
            assert v.neighbor_queries <= v.cap
            trials_per["unknown-davg"] += 1
        i += 1

    # top the first two testers up to 1000 trials as well
    while trials_per["small-alpha"] < need or trials_per["mid-alpha"] < need:
        g, alpha = corpus[i % len(corpus)]
        davg = g.avg_degree
        eps = min(0.45, 1.8 / davg)
        seed = split_seed(777, i)
        if trials_per["small-alpha"] < need and alpha < eps / 2:
            rejections += tester_small_alpha(g, ConnTesterConfig(eps, alpha, davg, seed)).rejected
            trials_per["small-alpha"] += 1
        if trials_per["mid-alpha"] < need:
            rejections += tester_mid_alpha(g, ConnTesterConfig(eps, alpha, davg, seed)).rejected
            trials_per["mid-alpha"] += 1
        i += 1

    elapsed = time.time() - t0
    ok = rejections == 0 and all(v >= 1000 for v in trials_per.values()) and elapsed < 60
    report(
        1,
        ok,
        f"0 rejections required, saw {rejections}; trials {trials_per}; {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_small_alpha_power():
    t0 = time.time()
    freqs = []
    for alpha in (0.0, 0.05):
        for seed in range(5):
            g = gen_far_forest(0.2, alpha, 2000, davg_target=2.0, strategy="uniform", seed=seed)
            assert float(g.erasure_fraction()) <= alpha + 1e-12
            davg = g.avg_degree
            rejected = sum(
                tester_small_alpha(g, ConnTesterConfig(0.2, alpha, davg, split_seed(seed, t))).rejected
                for t in range(500)
            )
            freqs.append(rejected / 500)
    # cross-check one instance against the exact schedule probability
    g = gen_far_forest(0.2, 0.05, 2000, davg_target=2.0, strategy="uniform", seed=0)
    exact_p = rejection_probability(g, small_alpha_plan(0.2, 0.05, g.avg_degree))
    elapsed = time.time() - t0
    ok = min(freqs) >= 0.6 and exact_p >= 0.6 and elapsed < 120
    report(
        2,
        ok,
        f"rejection freqs {min(freqs):.3f}..{max(freqs):.3f} (>= 0.6), "
        f"exact per-run p = {exact_p:.4f}; {elapsed:.1f}s (< 120s)",
    )


def test_criterion_3_mid_alpha_power_on_hidden_instances():
    t0 = time.time()
    eps = 0.2
    freqs = []
    # alpha >= c/(2m) = 0.125 lets one erasure land in every component
    for alpha in (0.13, 0.15, 0.19):
        for seed in range(3):
            g = gen_far_forest(eps, alpha, 2000, davg_target=2.0,
                               strategy="component-hiding", seed=seed)
            assert eps / 2 <= alpha < eps
            assert inventory_witnesses(g).plain == []  # the first tester is blind here
            davg = g.avg_degree
            rejected = sum(
                tester_mid_alpha(g, ConnTesterConfig(eps, alpha, davg, split_seed(seed, t))).rejected
                for t in range(500)
            )
            freqs.append(rejected / 500)
    elapsed = time.time() - t0
    ok = min(freqs) >= 0.6
    report(3, ok, f"rejection freqs {min(freqs):.3f}..{max(freqs):.3f} (>= 0.6); {elapsed:.1f}s")


def test_criterion_4_n_independence():
    t0 = time.time()
    eps, alpha = 0.2, 0.05
    cap = small_alpha_query_cap(eps, alpha, 2.0)
    medians = {}
    for n in (10**3, 10**4, 10**5):
        g = gen_far_forest(eps, alpha, n, davg_target=2.0, strategy="uniform", seed=1)
        totals = []
        for t in range(101):
            v = tester_small_alpha(g, ConnTesterConfig(eps, alpha, 2.0, split_seed(n, t)))
            q = v.degree_queries + v.neighbor_queries
            assert q <= cap
            assert v.cap == cap
            totals.append(q)
        medians[n] = statistics.median(totals)
    spread = max(medians.values()) / min(medians.values())
    elapsed = time.time() - t0
    ok = spread < 2.0
    report(
        4,
        ok,
        f"median queries {medians} spread x{spread:.2f} (< 2); cap {cap} never exceeded; "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_unknown_davg_budget_compliance():
    checked = 0
    aborts_accept = True
    for eps in (0.2, 0.35, 0.5):
        budget = unknown_davg_budget(eps)
        for seed in range(40):
            g = gen_connected(200, 2.0, seed=seed % 5)
            v = tester_unknown_davg(g, eps, seed)
            assert v.neighbor_queries <= budget
            if v.aborted:
                aborts_accept &= v.accepted
            checked += 1
        far = gen_far_forest(eps, 0.0, 400, davg_target=1.6, seed=3)
        for seed in range(40):
            v = tester_unknown_davg(far, eps, seed)
            assert v.neighbor_queries <= budget
            if v.aborted:
                aborts_accept &= v.accepted
            checked += 1
    ok = aborts_accept and checked == 240
    report(5, ok, f"{checked} trials within budget; every abort accepted; budget(0.5)={unknown_davg_budget(0.5)}")


def test_criterion_6_lower_bound_family_arithmetic():
    t0 = time.time()
    gm = gen_gminus("1/7", 4, seed=7)
    gp = gen_gplus("1/7", 4, seed=7)
    checks = [
        distance_to_connectedness(gm) == Fraction(1, 7),
        distance_to_connectedness(gp) == 0,
        gm.erasure_fraction() == Fraction(1, 7),   # 1/(2t+1) at t=3
        gp.erasure_fraction() == Fraction(1, 8),   # 1/(2t+2) at t=3
    ]
    g1 = gen_g1("1/3", 13, seed=1)
    g2 = gen_g2("1/3", 13, seed=1)
    ratio = Fraction(g1.num_entries, g2.num_entries)
    checks.append(ratio == Fraction(4, 3))
    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 30
    report(6, ok, f"distances 1/7 and 0, fractions 1/7 and 1/8, degree ratio {ratio}; {elapsed:.1f}s")


def test_criterion_7_witness_count_claims():
    t0 = time.time()
    verified = 0
    violations = 0
    seed = 0
    while verified < 50:
        seed += 1
        eps = [Fraction(3, 20), Fraction(1, 5), Fraction(1, 4)][seed % 3]
        low_regime = seed % 2 == 0
        alpha = eps * Fraction(2, 5) if low_regime else eps * Fraction(7, 10)
        strategy = "uniform" if low_regime else "component-hiding"
        n = 36 + (seed % 5) * 6
        try:
            g = gen_far_forest(eps, alpha, n, davg_target=1.8, strategy=strategy, seed=seed)
            if distance_to_connectedness(g, slot_bound=80) < eps:
                continue
        except Exception:
            continue
        m = g.num_edges
        inv = inventory_witnesses(g)
        if alpha < eps / 2:
            if len(inv.plain) < (eps - 2 * alpha) * m:
                violations += 1
        small_gen = [c for c, _ in inv.generalized if is_small(c, eps - alpha, g)]
        if len(small_gen) < (eps - alpha) * m / 2:
            violations += 1
        verified += 1
    elapsed = time.time() - t0
    ok = violations == 0 and verified == 50
    report(7, ok, f"{verified} certified far instances, {violations} violations; {elapsed:.1f}s")


def test_criterion_8_exp_chi_bounds():
    t0 = time.time()
    eps = Fraction(1, 4)
    violations = 0
    instances = 0
    seed = 0
    while instances < 100:
        seed += 1
        alpha = [0.0, 0.1, 0.3, 0.6][seed % 4]
        n = 30 + (seed * 7) % 171
        base_d = 1.5 + (seed % 5)
        g = erase(gen_random_regularish(n, base_d, seed=seed), alpha, "uniform", seed=seed + 1)
        if g.num_edges == 0:
            continue
        davg = Fraction(g.num_entries, g.num_vertices)
        true_alpha = g.erasure_fraction()
        upper = (1 + 2 * min(true_alpha, Fraction(1, 2))) * davg / 2
        lower = (1 - eps / 2) * davg / 2
        for mult in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1, 2, 4, 8):
            val = exact_exp_chi(g, davg * mult, eps)
            if not (lower < val <= upper):
                violations += 1
        total_dplus = sum(d_plus(g, u) for u in range(n))
        if total_dplus > g.num_edges:
            violations += 1
        if alpha == 0.0 and total_dplus != g.num_edges:
            violations += 1
        instances += 1
    elapsed = time.time() - t0
    ok = violations == 0
    report(8, ok, f"{instances} instances x 7 crude values, {violations} violations; {elapsed:.1f}s")


def test_criterion_9_estimator_accuracy():
    t0 = time.time()
    graph_specs = [
        (1000, 1.5), (1000, 2.5), (1259, 3.0), (1585, 4.0), (2000, 5.0),
        (2512, 6.0), (3162, 8.0), (5012, 12.0), (10000, 16.0), (10000, 20.0),
    ]
    trials = 200
    # Every estimate below runs at estimate_avg_degree's default coefficients.
    defaults = inspect.signature(estimate_avg_degree).parameters
    assert is_conforming(defaults["sample_coeff"].default, defaults["rep_coeff"].default)
    worst0 = worst3 = 1.0
    for gi, (n, d) in enumerate(graph_specs):
        g0 = gen_random_regularish(n, d, seed=gi)
        davg = g0.avg_degree
        g3 = erase(g0, 0.3, "uniform", seed=gi + 50)
        hits0 = hits3 = 0
        for t in range(trials):
            est = estimate_avg_degree(g0, 0.25, seed=split_seed(gi, t))
            if 0.75 * davg < est.value < 1.25 * davg:
                hits0 += 1
            est = estimate_avg_degree(g3, 0.25, seed=split_seed(gi + 100, t))
            if 0.75 * davg < est.value < (1 + 0.6 + 0.25) * davg:
                hits3 += 1
        worst0 = min(worst0, hits0 / trials)
        worst3 = min(worst3, hits3 / trials)
    elapsed = time.time() - t0
    ok = worst0 >= 0.6 and worst3 >= 0.6 and elapsed < 300
    report(
        9,
        ok,
        f"worst in-range rate: alpha=0 {worst0:.2f}, alpha=0.3 {worst3:.2f} (>= 0.6); "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_10_refinement_mean_matches_exact_expectation():
    t0 = time.time()
    cases = []
    for seed in range(5):
        n = 30 + seed * 8
        g = erase(gen_random_regularish(n, 3.0, seed=seed), [0.0, 0.2, 0.3][seed % 3],
                  "uniform", seed=seed + 9)
        cases.append(g)
    runs = 10_000
    worst_z = 0.0
    for gi, g in enumerate(cases):
        n = g.num_vertices
        crude = max(g.avg_degree, 0.5)
        expected = 2 * float(exact_exp_chi(g, Fraction(crude).limit_denominator(10**9), Fraction(1, 4)))
        s = None
        total = 0.0
        for r in range(runs):
            est = refine_estimate(g, 0.25, crude, seed=split_seed(gi, r))
            s = est.samples
            total += est.value
        mean = total / runs
        tau = chi_threshold(n, crude, 0.25)
        sigma = tau / math.sqrt(s * runs)  # Hoeffding width for the chi range
        z = abs(mean - expected) / sigma
        worst_z = max(worst_z, z)
        assert z <= 4, f"graph {gi}: mean {mean} vs exact {expected}, z={z:.2f}"
    elapsed = time.time() - t0
    report(10, True, f"5 instances x {runs} runs, worst |z| = {worst_z:.2f} (<= 4); {elapsed:.0f}s")


def test_criterion_11_gadget_certification():
    fig1 = gen_fig_component("two-erasure", seed=2)
    inv1 = inventory_witnesses(fig1.graph)
    not_a_witness = (
        fig1.gadget_vertices not in set(inv1.plain)
        and fig1.gadget_vertices not in {c for c, _ in inv1.generalized}
    )
    fig2 = gen_fig_component("one-erasure-anchored", seed=2)
    inv2 = inventory_witnesses(fig2.graph)
    anchors = dict(inv2.generalized).get(fig2.gadget_vertices)
    valid = validate(fig1.graph) == [] and validate(fig2.graph) == []
    ok = not_a_witness and anchors is not None and len(anchors) == 1 and valid
    report(
        11,
        ok,
        f"two-erasure gadget in neither inventory; anchored gadget has "
        f"{len(anchors) if anchors else 0} anchor",
    )


def test_criterion_12_filter_oracle():
    bound_hit = 0
    max_nq = 0
    for seed in range(50):
        d = 3 + seed % 4  # degree bound up to 8 with headroom
        bound = d + 2
        g = erase(gen_random_regularish(30, d, seed=seed), 0.25, "uniform", seed=seed + 1)
        session = QuerySession(g, seed=0)
        f = FilterOracle(session, degree_bound=bound)
        lists = {}
        for u in range(30):
            row = [f.neighbor(u, i) for i in range(1, bound + 1)]
            lists[u] = [x for x in row if x is not BLANK]
            expected = sorted(w for w in g.listed(u) if u in g.listed(w))
            assert sorted(lists[u]) == expected
            assert f.degree(u) == len(expected)
        for u in range(30):
            for w in lists[u]:
                assert u in lists[w]
        for _, dq, nq in f.miss_charges:
            max_nq = max(max_nq, nq)
            if nq > bound * (bound + 1):
                bound_hit += 1
    ok = bound_hit == 0
    report(12, ok, f"50 graphs reconstructed; worst per-miss neighbor charge {max_nq} within D(D+1)")
