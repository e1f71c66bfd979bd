"""Exact ground-truth oracles for desk-scale verification.

Everything here is brute force and exact: completions are enumerated
outright, distances and expectations are computed as rationals, and witness
inventories are built from full reachability rather than sampling. Intended
for instances up to a few hundred vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .avg_degree import THRESHOLD_COEFF, d_bot, d_plus
from .connectedness import mid_alpha_plan, small_alpha_plan
from .graph import Completion, closure, forced_partners, validate


class Uncompletable(ValueError):
    """The graph admits no completion."""


class SearchBoundExceeded(ValueError):
    """The completion search would exceed the configured slot bound."""


@dataclass
class CompletionSet:
    """The completions found, each kept as the tuple of its free-slot pairs.

    `pairs` holds one tuple of (a, b), a < b, per completion: the new edges
    beyond the forced fills. `slot_table` maps each vertex with erased slots
    to (its erased slots, its forced partners in sorted order). `Completion`
    objects are built from the two only when `completions` is read or the
    set is iterated.
    """

    pairs: list
    slot_table: dict

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.completions)

    @cached_property
    def completions(self):
        """One Completion per pair tuple; each erased slot takes its partners in sorted order."""
        out = []
        for extra in self.pairs:
            partners = {u: list(forced) for u, (_, forced) in self.slot_table.items()}
            for a, b in extra:
                partners[a].append(b)
                partners[b].append(a)
            fills = {}
            for u, (slots, _) in self.slot_table.items():
                for slot, w in zip(slots, sorted(partners[u])):
                    fills[(u, slot)] = w
            out.append(Completion.from_dict(fills))
        return out


def enumerate_completions(g, slot_bound=20):
    """Enumerate completions up to slot-permutation equivalence.

    Phase 1 resolves forced fills: every half-erased edge w->u consumes one
    erased slot of u. Phase 2 enumerates the ways the remaining free slots
    can be paired into new edges between distinct, non-adjacent vertices.
    Completions are deduplicated by resulting edge set; each erased slot is
    filled with its partners in sorted order.

    `slot_bound` limits the number of free slots phase 2 may search over;
    beyond it SearchBoundExceeded is raised. Returns an empty set when
    `validate` reports any violation, since each one rules out every
    completion.
    """
    if validate(g):
        return CompletionSet([], {})
    n = g.num_vertices
    listed = [g.listed(u) for u in range(n)]
    forced = forced_partners(g)
    slots = {u: s for u in range(n) if (s := g.erased_slots(u))}
    free = [len(slots.get(u, ())) - len(forced.get(u, ())) for u in range(n)]
    if sum(free) > slot_bound:
        raise SearchBoundExceeded(
            f"{sum(free)} free erased slots exceed the search bound {slot_bound}"
        )

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
    slot_table = {u: (slots[u], sorted(forced.get(u, ()))) for u in slots}
    return CompletionSet(solutions, slot_table)


def components(g):
    """Connected components treating every listed entry as an undirected link."""
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


def min_completion_components(g, cs):
    """Fewest connected components over the completions in cs, which must hold one.

    A forced fill repeats a link g already lists, so a completed graph's
    components are those of g merged along the completion's free-slot pairs.
    Each pair tuple runs a union-find over g's component labels; the count
    is g's component count minus the merges. The scan stops at the first
    completion that leaves one component.
    """
    comps = components(g)
    label = {}
    for i, comp in enumerate(comps):
        for v in comp:
            label[v] = i
    most_merges = 0
    for extra in cs.pairs:
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
        if merges > most_merges:
            most_merges = merges
            if most_merges == len(comps) - 1:
                break
    return len(comps) - most_merges


def distance_to_connectedness(g, slot_bound=20):
    """Exact distance: (min completion components - 1) / m, as a fraction."""
    cs = enumerate_completions(g, slot_bound=slot_bound)
    if not cs.pairs:
        raise Uncompletable("graph has no completion")
    min_comp = min_completion_components(g, cs)
    if min_comp == 1:
        return Fraction(0)
    m = g.num_edges
    if m == 0:
        raise ValueError("distance undefined for an edgeless disconnected graph")
    return Fraction(min_comp - 1, m)


def reach_listed(g, start):
    """Vertices reachable from start by following non-erased entries."""
    return frozenset(closure(start, g.listed))


@dataclass
class WitnessInventory:
    plain: list  # list of frozensets
    generalized: list  # list of (frozenset, frozenset-of-anchors)


def _erasure_holder(g, C):
    for u in sorted(C):
        if g.erased_count(u) > 0:
            return u
    return None


def inventory_witnesses(g):
    """All witnesses to disconnectedness, plain and generalized.

    Candidate sets are the reachable closures of each vertex; a closure is a
    plain witness when it is erasure-free, internally symmetric and a proper
    subset, and a generalized witness when it has at most one erased slot
    whose half-erased partner edge provides an anchor that reaches the whole
    set. Zero-erasure witnesses are generalized too, with every vertex an
    anchor.
    """
    n = g.num_vertices
    reach = [reach_listed(g, v) for v in range(n)]
    plain = set()
    generalized = {}
    for C in reach:
        if len(C) >= n:
            continue
        erasures = sum(g.erased_count(u) for u in C)
        if erasures == 0:
            if all(u in g.listed(w) for u in C for w in g.listed(u)):
                plain.add(C)
                generalized[C] = set(C)
        elif erasures == 1:
            holder = _erasure_holder(g, C)
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


def is_small(C, eps_star, g):
    """Small/big classification of a vertex set at parameter eps_star.

    High average degree: small means few vertices; low average degree: small
    means short representation length (sum of degrees).
    """
    davg = Fraction(g.num_entries, g.num_vertices)
    if davg == 0:
        raise ValueError("classification needs at least one edge")
    eps_star = Fraction(eps_star)
    if not 0 < eps_star < 2 / davg:
        raise ValueError("eps_star must lie in (0, 2/davg)")
    if eps_star >= 4 / davg**2:
        return len(C) <= Fraction(4) / (eps_star * davg)
    return sum(g.degree(v) for v in C) <= Fraction(4) / eps_star


def high_degree_set(g, d_hat, eps):
    """Vertices with degree above THRESHOLD_COEFF * sqrt(n * d_hat / eps), exactly."""
    d_hat = Fraction(d_hat)
    eps = Fraction(eps)
    n = g.num_vertices
    cutoff_sq = Fraction(THRESHOLD_COEFF) ** 2 * n * d_hat / eps
    return {u for u in range(n) if Fraction(g.degree(u)) ** 2 > cutoff_sq}


def exact_exp_chi(g, d_hat, eps):
    """Exact expectation of one credit sample, as a fraction.

    Equals (1/n) * sum over low-degree vertices of (ranked-above neighbor
    count + erased slot count).
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    H = high_degree_set(g, d_hat, eps)
    total = sum(d_plus(g, u) + d_bot(g, u) for u in range(g.num_vertices) if u not in H)
    return Fraction(total, g.num_vertices)


def quality_vertex_variant(g):
    """Per-vertex quality, vertex-count flavor: 1/|C| inside a plain witness."""
    q = {v: Fraction(0) for v in range(g.num_vertices)}
    for C in inventory_witnesses(g).plain:
        share = Fraction(1, len(C))
        for v in C:
            q[v] = share
    return q


def quality_edge_variant(g, completed):
    """Per-vertex quality, edge-count flavor, relative to one completion.

    Components holding any erasure (in g) score zero; an edgeless component
    scores one; otherwise each vertex scores deg(v) / (2 * component edges).
    """
    q = {}
    for C in components(completed):
        erased = sum(g.erased_count(v) for v in C)
        edges2 = sum(completed.degree(v) for v in C)
        for v in C:
            if erased > 0:
                q[v] = Fraction(0)
            elif edges2 == 0:
                q[v] = Fraction(1)
            else:
                q[v] = Fraction(g.degree(v), edges2)
    return q


@dataclass
class ExactReport:
    completions_count: int
    min_components: "int | None"
    distance_to_connectedness: "Fraction | None"
    plain_witnesses: list
    generalized_witnesses: list
    exp_chi: "Fraction | None" = None

    def to_dict(self):
        def frac(x):
            return None if x is None else f"{x.numerator}/{x.denominator}"

        return {
            "completions_count": self.completions_count,
            # A report exists only once the enumeration has finished.
            "exhaustive": True,
            "min_components": self.min_components,
            "distance_to_connectedness": frac(self.distance_to_connectedness),
            "plain_witnesses": [sorted(c) for c in self.plain_witnesses],
            "generalized_witnesses": [
                {"vertices": sorted(c), "anchors": sorted(a)}
                for c, a in self.generalized_witnesses
            ],
            "exp_chi": frac(self.exp_chi),
        }


def exact_report(g, d_hat=None, eps=None, slot_bound=20):
    cs = enumerate_completions(g, slot_bound=slot_bound)
    min_comp = None
    dist = None
    if cs.pairs:
        min_comp = min_completion_components(g, cs)
        if min_comp == 1:
            dist = Fraction(0)
        elif g.num_edges > 0:
            dist = Fraction(min_comp - 1, g.num_edges)
    inv = inventory_witnesses(g)
    chi = None
    if d_hat is not None and eps is not None:
        chi = exact_exp_chi(g, d_hat, eps)
    return ExactReport(
        completions_count=len(cs),
        min_components=min_comp,
        distance_to_connectedness=dist,
        plain_witnesses=inv.plain,
        generalized_witnesses=inv.generalized,
        exp_chi=chi,
    )


# ---------------------------------------------------------------------------
# Exact per-run rejection probabilities of the samplers, from the inventory
# and the testers' own plans. Used to calibrate statistical tests. Both
# assume the hard query cap never binds on the instance (true for the small
# bounded-degree instances these are used on).
# ---------------------------------------------------------------------------


def small_alpha_rejection_probability(g, epsilon, alpha, davg):
    n = g.num_vertices
    _, vertex_case, schedule = small_alpha_plan(epsilon, alpha, davg)
    inv = inventory_witnesses(g)
    accept = 1.0
    for i, reps in schedule:
        detected = 0
        for C in inv.plain:
            rep_len = sum(g.degree(v) for v in C)
            if vertex_case:
                if len(C) <= 2**i:
                    detected += len(C)
            else:
                detected += sum(1 for v in C if rep_len <= 2 ** (i - 1) * g.degree(v) + 1)
        accept *= (1 - detected / n) ** reps
    return 1.0 - accept


def mid_alpha_rejection_probability(g, epsilon, alpha, davg):
    n = g.num_vertices
    _, reps, qcap = mid_alpha_plan(epsilon, alpha, davg)
    witnesses = {C for C, _ in inventory_witnesses(g).generalized}
    detected = 0
    for s in range(n):
        C = reach_listed(g, s)
        if C in witnesses and sum(g.degree(v) for v in C) <= qcap:
            detected += 1
    p = detected / n
    return 1.0 - (1.0 - p) ** reps
