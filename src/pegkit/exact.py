"""Exact ground-truth oracles for desk-scale verification.

Everything here is exact: completions come from a full backtracking search,
distances and expectations are computed as rationals, and witness
inventories are built from full reachability rather than sampling. The
distance reads only the first completion the search finds: it fixes the
proven merge bound, which some completion always attains. Listing, or even
counting, every completion is exponential in the number of free slots;
`exact_report` counts them as the search yields them and keeps none. The
completion search is meant for instances up to a few hundred vertices; the
witness inventories also run at 5*10^4.

A completion is held as the tuple of its free-slot pairs: the new edges
beyond the forced fills.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .avg_degree import THRESHOLD_COEFF, credit_classes
from .graph import closure, erased_counts, forced_partners, validate


class Uncompletable(ValueError):
    """The graph admits no completion."""


class SearchBoundExceeded(ValueError):
    """The completion search would exceed the configured slot bound."""


def enumerate_completions(g, slot_bound=20):
    """List every completion, up to slot-permutation equivalence.

    Phase 1 resolves forced fills: every half-erased edge w->u consumes one
    erased slot of u. Phase 2 searches the ways the remaining free slots can
    be paired into new edges between distinct, non-adjacent vertices.

    Returns a list with one tuple of free-slot pairs (a, b), a < b, per
    completion; distinct tuples give distinct edge sets. Each vertex's
    erased slots hold its forced partners and its partners in the tuple.
    `slot_bound` limits the number of free slots phase 2 may search over;
    beyond it SearchBoundExceeded is raised. Returns [] when `validate`
    reports any violation, since each one rules out every completion.
    `_completions` yields the same tuples in the same order, one at a time.
    """
    return list(_completions(g, slot_bound))


def _completions(g, slot_bound):
    """Yield each completion's free-slot pairs as soon as the search finds it.

    The checks (validate, forced fills, the slot bound) run on the first
    read, before anything is yielded.
    """
    if validate(g):
        return
    n = g.num_vertices
    forced = forced_partners(g)
    erased = erased_counts(g)
    free = [erased[u] - len(forced.get(u, ())) for u in range(n)]
    if sum(free) > slot_bound:
        raise SearchBoundExceeded(
            f"{sum(free)} free erased slots exceed the search bound {slot_bound}"
        )

    # Each open vertex pairs only with later open vertices it does not list
    # and that do not list it; the search takes them in ascending order.
    open_vertices = [u for u in range(n) if free[u] > 0]
    last = len(open_vertices)
    listed = g.listed
    later = {}

    def scan(i, u):
        """u's partners with free slots, found only as they are read, u being
        open_vertices[i]; the full partner list is then kept in later[u]."""
        listed_u = listed(u)
        found = []
        for w in map(open_vertices.__getitem__, range(i + 1, last)):
            if w not in listed_u and u not in listed(w):
                found.append(w)
                if free[w]:
                    yield w
        later[u] = found

    # Depth-first over the open vertices, with an explicit stack so that the
    # depth is not bounded by the recursion limit. The first open vertex u
    # with free slots takes all of them at once, by one combination of
    # partners; every pair chosen so far starts before u, so (u, w) is
    # never a repeat and is already normalised. A frame holds the position
    # of u, u, its slot count, its remaining combinations and the one taken.
    # A frame is popped only once it has no combination left, so u's first
    # frame scans for partners and every later one filters later[u]. A
    # one-slot frame scans lazily, as it moves on, when the free counts are
    # back to what they were as it was pushed; a frame with more slots
    # scans in full as it is pushed.
    chosen = []
    stack = []
    i = 0
    while True:
        while i < last and free[open_vertices[i]] == 0:
            i += 1
        if i == last:
            yield tuple(chosen)
        else:
            u = open_vertices[i]
            k = free[u]
            free[u] = 0
            found = later.get(u)
            if found is not None:
                combos = itertools.combinations([w for w in found if free[w]], k)
            elif k == 1:
                combos = zip(scan(i, u))
            else:
                combos = itertools.combinations(list(scan(i, u)), k)
            stack.append([i, u, k, combos, ()])
        # Move the deepest frame on to its next combination, dropping
        # frames that have none left.
        while stack:
            frame = stack[-1]
            i, u, k, combos, taken = frame
            if taken:
                del chosen[-k:]
                for w in taken:
                    free[w] += 1
            taken = next(combos, None)
            if taken is not None:
                for w in taken:
                    free[w] -= 1
                    chosen.append((u, w))
                frame[4] = taken
                i += 1
                break
            free[u] = k
            stack.pop()
        else:
            return


def components(g):
    """Connected components treating every listed entry as an undirected link.

    A tuple of frozensets, ordered by least vertex; built once per graph.
    """
    return g.cached(_components)


def _components(g):
    # u's undirected links are the ones it lists and the vertices that list
    # it without being listed back: its forced partners.
    forced = forced_partners(g)
    listed = g.listed

    def links(u):
        return listed(u) | forced[u] if u in forced else listed(u)

    seen = set()
    comps = []
    for s in range(g.num_vertices):
        if s not in seen:
            comp = closure(s, links)
            seen |= comp
            comps.append(frozenset(comp))
    return tuple(comps)


def min_completion_components(g, first):
    """Fewest connected components over g's completions, given `first`, any one of them.

    A forced fill repeats a link g already lists, so a completed graph's
    components are those of g merged along the completion's free-slot pairs.
    Each pair merges at most once, and only components holding a free slot
    are merged, so no completion merges more than min(pairs, open components
    - 1). Some completion always attains this bound: were the best one
    short, a pair that merged nothing and a pair in another merged group
    could swap partners and join the two groups. Every completion pairs the
    same free slots, so any one completion gives both numbers.
    """
    comps = components(g)
    label = {v: i for i, comp in enumerate(comps) for v in comp}
    open_comps = len({label[v] for pair in first for v in pair})
    return len(comps) - min(len(first), max(open_comps - 1, 0))


def _distance(g, min_comp):
    """(min_comp - 1) / m as a fraction; None for an edgeless disconnected graph."""
    if min_comp == 1:
        return Fraction(0)
    return Fraction(min_comp - 1, g.num_edges) if g.num_edges else None


def distance_to_connectedness(g, slot_bound=20):
    """Exact distance: (min completion components - 1) / m, as a fraction.

    Completions are searched lazily, and the search ends at the first one:
    it fixes the merge bound, which some completion attains (see
    `min_completion_components`). Only proving that no completion exists
    can still take exponential time. Raises Uncompletable when there is none.
    """
    first = next(_completions(g, slot_bound), None)
    if first is None:
        raise Uncompletable("graph has no completion")
    dist = _distance(g, min_completion_components(g, first))
    if dist is None:
        raise ValueError("distance undefined for an edgeless disconnected graph")
    return dist


def reach_listed(g, start):
    """Vertices reachable from start by following non-erased entries."""
    return frozenset(closure(start, g.listed))


@dataclass
class WitnessInventory:
    plain: list  # list of frozensets
    generalized: list  # list of (frozenset, frozenset-of-anchors)


def _mutual(g, C):
    """Whether every link listed from a vertex of C is listed back."""
    return all(u in g.listed(w) for u in C for w in g.listed(u))


def _reach_sets(g):
    """reach_listed(g, v) for every vertex v where an oracle can use it, as a list indexed by v.

    The oracles read only reach sets holding at most one erased slot: a
    plain witness holds none and a generalized one holds one. In a component
    whose listed links are all mutual, every vertex reaches the whole
    component, so its vertices share that one frozenset. In any other
    component each vertex takes its own closure, which stops at its second
    erased slot; such a vertex's entry is None, for unusable.
    """
    reach = [None] * g.num_vertices
    erased = erased_counts(g)
    for comp in components(g):
        if _mutual(g, comp):
            for v in comp:
                reach[v] = comp
        else:
            for v in comp:
                reach[v] = _reach_below_two_erasures(g, v, erased)
    return reach


def _reach_below_two_erasures(g, start, erased):
    """reach_listed(g, start), or None once it holds two erased slots; erased[v] counts v's."""
    seen = {start}
    held = erased[start]
    stack = [start]
    while stack and held < 2:
        for w in g.listed(stack.pop()):
            if w not in seen:
                seen.add(w)
                held += erased[w]
                stack.append(w)
    return frozenset(seen) if held < 2 else None


def inventory_witnesses(g):
    """All witnesses to disconnectedness, plain and generalized.

    Candidate sets are the reachable closures of each vertex; a closure is a
    plain witness when it is erasure-free, internally symmetric and a proper
    subset, and a generalized witness when it has at most one erased slot
    whose half-erased partner edge provides an anchor that reaches the whole
    set. Zero-erasure witnesses are generalized too, with every vertex an
    anchor.
    """
    return _inventory(g, _reach_sets(g))


def _inventory(g, reach):
    """inventory_witnesses(g), given g's reach sets; each distinct set is checked once."""
    n = g.num_vertices
    erased = erased_counts(g)
    plain = []
    generalized = {}
    for C in dict.fromkeys(reach):
        if C is None or len(C) >= n:
            continue
        erasures = sum(map(erased.__getitem__, C))
        if erasures == 0:
            if _mutual(g, C):
                plain.append(C)
                generalized[C] = C
        elif erasures == 1:
            holder = next(u for u in sorted(C) if erased[u])
            listed_holder = g.listed(holder)
            anchors = frozenset(
                w
                for w in C
                if w != holder
                and w not in listed_holder
                and holder in g.listed(w)
                and reach[w] == C
            )
            if anchors:
                generalized[C] = anchors
    plain_list = sorted(plain, key=sorted)
    gen_list = sorted(generalized.items(), key=lambda kv: sorted(kv[0]))
    return WitnessInventory(plain_list, gen_list)


def exact_exp_chi(g, d_hat, eps):
    """Exact expectation of one credit sample, as a fraction.

    Equals (1/n) * sum over low-degree vertices of (ranked-above neighbor
    count + erased slot count), read from the estimator's credit classes. A
    class is low-degree when its degree d is at most THRESHOLD_COEFF *
    sqrt(n * d_hat / eps): d^2 <= num/den is tested as d^2 * den <= num in
    integers, and a Fraction keeps den positive.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not d_hat > 0:
        raise ValueError(f"d_hat must be positive, got {d_hat}")
    n = g.num_vertices
    cutoff_sq = Fraction(THRESHOLD_COEFF) ** 2 * n * Fraction(d_hat) / Fraction(eps)
    num, den = cutoff_sq.numerator, cutoff_sq.denominator
    deg, bot, plus, count = (column.tolist() for column in credit_classes(g))
    total = sum(k * (b + p) for d, b, p, k in zip(deg, bot, plus, count) if d * d * den <= num)
    return Fraction(total, n)


def _fraction_text(x):
    return None if x is None else f"{x.numerator}/{x.denominator}"


def witnesses_dict(inv):
    """A witness inventory as JSON-ready lists of sorted vertices."""
    return {
        "plain": [sorted(c) for c in inv.plain],
        "generalized": [{"vertices": sorted(c), "anchors": sorted(a)} for c, a in inv.generalized],
    }


def exact_report(g, d_hat=None, eps=None, slot_bound=20):
    """Every exact oracle on g in one JSON-ready dict; exp_chi needs both d_hat and eps.

    The completions are counted as the search yields them, and only the
    first is kept: it fixes the distance (see `min_completion_components`).
    Fractions are "p/q" strings, and a missing value is None.
    """
    completions = _completions(g, slot_bound)
    first = next(completions, None)
    count, min_comp, dist = 0, None, None
    if first is not None:
        count = 1 + sum(1 for _ in completions)
        min_comp = min_completion_components(g, first)
        dist = _distance(g, min_comp)
    witnesses = witnesses_dict(inventory_witnesses(g))
    chi = None
    if d_hat is not None and eps is not None:
        chi = exact_exp_chi(g, d_hat, eps)
    return {
        "completions_count": count,
        # A report exists only once the enumeration has finished.
        "exhaustive": True,
        "min_components": min_comp,
        "distance_to_connectedness": _fraction_text(dist),
        "plain_witnesses": witnesses["plain"],
        "generalized_witnesses": witnesses["generalized"],
        "exp_chi": _fraction_text(chi),
    }
