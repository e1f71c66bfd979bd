"""Instance generators: hard families, gadgets, and random corpora.

All generators draw labels as a uniform random permutation and shuffle the
order of entries inside every list (index-addressed queries would otherwise
leak structure). Identical seeds reproduce identical graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .graph import ERASED, PartiallyErasedGraph, erase_slots


class InfeasibleParameters(ValueError):
    """The requested family parameters admit no instance."""


class _FamilyParams(dict):
    """Family parameters; a missing required one names its command-line flag."""

    def __missing__(self, key):
        raise InfeasibleParameters(f"missing parameter --{key.replace('_', '-')}")


@dataclass(frozen=True)
class FigGadget:
    """A structured gadget embedded beside a host component."""

    graph: PartiallyErasedGraph
    gadget_vertices: frozenset


def _permute(rows, seed):
    """Relabel with a random permutation and shuffle each list. -> (graph, perm)."""
    rng = random.Random(seed)
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    new_rows = [None] * n
    for u, row in enumerate(rows):
        relabeled = [e if e is ERASED else perm[e] for e in row]
        rng.shuffle(relabeled)
        new_rows[perm[u]] = relabeled
    return PartiallyErasedGraph(new_rows), perm


def _cycle_rows(rows, vertices):
    k = len(vertices)
    for idx, v in enumerate(vertices):
        rows[v] = [vertices[(idx - 1) % k], vertices[(idx + 1) % k]]


def _hub_family_rows(eps, k):
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 7):
        raise InfeasibleParameters("eps must lie in (0, 1/7]")
    t = (1 - eps) / (2 * eps)
    if t.denominator != 1:
        raise InfeasibleParameters(f"(1-eps)/(2*eps) = {t} is not an integer")
    t = int(t)
    if k < 2 or k % 2 != 0:
        raise InfeasibleParameters("k must be a positive even number")
    n = k * t + 1
    rows = [None] * n
    specials = []
    for c in range(k):
        cycle = list(range(c * t, (c + 1) * t))
        _cycle_rows(rows, cycle)
        rows[cycle[0]].append(ERASED)
        specials.append(cycle[0])
    return rows, specials, n


def gen_gplus(eps, k, seed=0):
    """Connected hub family: disjoint cycles, one erased slot per cycle, and a
    hub listing each cycle's degree-3 vertex (half-erased spokes)."""
    rows, specials, n = _hub_family_rows(eps, k)
    rows[n - 1] = list(specials)
    return _permute(rows, seed)[0]


def gen_gminus(eps, k, seed=0):
    """Far sibling of the hub family: identical except the hub is isolated."""
    rows, _, n = _hub_family_rows(eps, k)
    rows[n - 1] = []
    return _permute(rows, seed)[0]


def _degree_one_family_rows(alpha, n):
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise InfeasibleParameters("alpha must lie in (0, 1]")
    lam = 2 * alpha / (1 + alpha)
    length = lam * (n - 1)
    if length.denominator != 1 or int(length) % 2 != 0 or int(length) < 2:
        raise InfeasibleParameters(f"lambda*(n-1) = {length} must be a positive even integer")
    length = int(length)
    cycle_len = (n - 1) - length
    if cycle_len < 3:
        raise InfeasibleParameters("the cycle needs at least three vertices")
    rows = [None] * n
    _cycle_rows(rows, list(range(cycle_len)))
    stubs = list(range(cycle_len, cycle_len + length))
    for v in stubs:
        rows[v] = [ERASED]
    return rows, stubs, n


def gen_g1(alpha, n, seed=0):
    """Degree-estimation family, heavy variant: a cycle, degree-1 vertices
    with their single entry erased, and a hub listing all of them."""
    rows, stubs, n = _degree_one_family_rows(alpha, n)
    rows[n - 1] = list(stubs)
    return _permute(rows, seed)[0]


def gen_g2(alpha, n, seed=0):
    """Degree-estimation family, light variant: same but the hub is isolated,
    so the erased stubs can only complete to a matching."""
    rows, _, n = _degree_one_family_rows(alpha, n)
    rows[n - 1] = []
    return _permute(rows, seed)[0]


_FIG_KINDS = ("two-erasure", "one-erasure-anchored")


def gen_fig_component(kind, seed=0, host_size=24):
    """A small gadget beside a host cycle.

    two-erasure: a forced 4-cycle with two half-erased edges; no BFS start
    can certify it, so it is neither kind of witness.
    one-erasure-anchored: a 3-vertex chain whose single erasure makes it a
    generalized witness detectable from exactly one anchor.
    """
    if kind not in _FIG_KINDS:
        raise InfeasibleParameters(f"kind must be one of {_FIG_KINDS}")
    if host_size < 3:
        raise InfeasibleParameters("host cycle needs at least three vertices")
    if kind == "two-erasure":
        gadget = [[1, 3], [ERASED, 2], [1, 3], [ERASED, 0]]
    else:
        gadget = [[1], [2, ERASED], [1]]
    g_size = len(gadget)
    rows = [list(r) for r in gadget]
    rows.extend([None] * host_size)
    _cycle_rows(rows, list(range(g_size, g_size + host_size)))
    graph, perm = _permute(rows, seed)
    return FigGadget(graph, frozenset(perm[v] for v in range(g_size)))


def _far_forest_shapes(eps, n, davg_target):
    """Partition n vertices into small components hitting the degree target.

    Components are cycles (average degree 2) and single edges (average
    degree 1), mixed to approach davg_target in [1, 2]; cycle length is the
    largest of 3..6 keeping every component below the farness budget.
    """
    if n < 1:
        raise InfeasibleParameters("need at least one vertex")
    eps = Fraction(eps)
    cl = None
    for cand in (6, 5, 4, 3):
        if eps * cand < 1:
            cl = cand
            break
    share = min(max(float(davg_target) - 1.0, 0.0), 1.0)
    if cl is None:
        share = 0.0
        cl = 0
    cycle_vertices = int(share * n)
    cycle_count = cycle_vertices // cl if cl else 0
    rest = n - cycle_count * (cl or 0)
    shapes = [("cycle", cl)] * cycle_count
    if rest % 2 == 1:
        if rest >= 3:
            shapes.append(("path", 3))
            rest -= 3
        elif cycle_count > 0:
            shapes.pop()
            rest += cl
            if rest % 2 == 1:
                shapes.append(("path", 3))
                rest -= 3
        else:
            raise InfeasibleParameters(f"cannot tile {n} vertices into components")
    shapes.extend([("path", 2)] * (rest // 2))
    return shapes


def gen_far_forest(eps, alpha, n, davg_target=2.0, strategy="uniform", seed=0):
    """A certified far-from-connected instance with bounded erasures.

    Builds many small components, then erases at most floor(2*alpha*m)
    entries. Strategy "uniform" samples entries uniformly; "component-hiding"
    places one half-erasure per component (oldest trick against testers that
    need erasure-free components). Farness is certified arithmetically:
    completions can merge components only by pairing doubly-erased edges'
    free slots, so the component count of every completion is at least the
    built count minus the number of such pairs. Raises InfeasibleParameters
    when that certificate falls below eps.
    """
    if strategy not in ("uniform", "component-hiding"):
        raise InfeasibleParameters(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    shapes = _far_forest_shapes(eps, n, davg_target)
    rows = [None] * n
    comps = []
    comp_edges = []
    next_v = 0
    for kind, size in shapes:
        vs = list(range(next_v, next_v + size))
        next_v += size
        if kind == "cycle":
            _cycle_rows(rows, vs)
            edges = [(vs[i], vs[(i + 1) % size]) for i in range(size)]
        else:
            for idx, v in enumerate(vs):
                nbrs = []
                if idx > 0:
                    nbrs.append(vs[idx - 1])
                if idx < size - 1:
                    nbrs.append(vs[idx + 1])
                rows[v] = nbrs
            edges = [(vs[i], vs[i + 1]) for i in range(size - 1)]
        comps.append(vs)
        comp_edges.append(edges)
    m = sum(len(r) for r in rows) // 2
    c0 = len(comps)
    budget = int(2 * Fraction(alpha) * m)

    erased = []
    merge_pairs = 0
    if strategy == "uniform":
        all_entries = [(u, i) for u in range(n) for i in range(len(rows[u]))]
        erased = rng.sample(all_entries, min(budget, len(all_entries)))
        directions = {}
        for u, i in erased:
            w = rows[u][i]
            key = (u, w) if u < w else (w, u)
            directions.setdefault(key, set()).add(u)
        merge_pairs = sum(1 for ends in directions.values() if len(ends) == 2)
    else:
        order = list(range(c0))
        rng.shuffle(order)
        for ci in order[: min(budget, c0)]:
            u, w = rng.choice(comp_edges[ci])
            if rng.random() < 0.5:
                u, w = w, u
            erased.append((u, rows[u].index(w)))

    if Fraction(c0 - 1 - merge_pairs) < Fraction(eps) * m:
        raise InfeasibleParameters(
            f"certificate {c0 - 1 - merge_pairs}/{m} below eps; "
            "use more components or fewer erasures"
        )
    for u, i in erased:
        rows[u][i] = ERASED
    return _permute(rows, seed + 1)[0]


def gen_cycle_union(n, cycle_len, seed=0):
    """Disjoint cycles of the given length covering n vertices (the last
    cycle absorbs any remainder)."""
    if cycle_len < 3 or n < 3:
        raise InfeasibleParameters("cycles need at least three vertices")
    rows = [None] * n
    k = max(1, n // cycle_len)
    start = 0
    for c in range(k):
        end = n if c == k - 1 else start + cycle_len
        _cycle_rows(rows, list(range(start, end)))
        start = end
    return _permute(rows, seed)[0]


def _joinable_pair(edges, vertices):
    """Whether networkx 3.6.1's scan finds two vertices not yet joined.

    The swap rebinds the outer loop's vertex, so the scan skips some pairs
    and can report none where one exists; the sampler then restarts. It is
    kept as it is because a restart changes the draws that follow.
    """
    for u in vertices:
        for w in vertices:
            if u == w:
                break
            if u > w:
                u, w = w, u
            if (u, w) not in edges:
                return True
    return False


def _regular_edges(d, n, rng):
    """Edges of a random d-regular graph on n vertices: Steger-Wormald stub
    pairing, restarted whenever the open stubs can no longer pair.

    A port of networkx 3.6.1's `random_regular_graph`: it makes the same
    draws from rng, so it returns the same edges.
    """
    while True:
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            open_stubs = {}  # vertex -> unpaired stubs, in first-seen order
            rng.shuffle(stubs)
            it = iter(stubs)
            for u, w in zip(it, it):
                if u > w:
                    u, w = w, u
                if u != w and (u, w) not in edges:
                    edges.add((u, w))
                else:
                    open_stubs[u] = open_stubs.get(u, 0) + 1
                    open_stubs[w] = open_stubs.get(w, 0) + 1
            if open_stubs and not _joinable_pair(edges, open_stubs):
                break  # restart
            stubs = [v for v, count in open_stubs.items() for _ in range(count)]
        else:
            return edges


def _gnm_adjacency(n, m, rng):
    """Neighbour sets of a uniform graph with n vertices and m edges.

    A port of networkx 3.6.1's `gnm_random_graph`: it makes the same draws
    from rng, so it returns the same graph.
    """
    if m >= n * (n - 1) / 2:
        return [set(range(n)) - {u} for u in range(n)]
    adj = [set() for _ in range(n)]
    nodes = range(n)
    edges = 0
    while edges < m:
        u = rng.choice(nodes)
        w = rng.choice(nodes)
        if u != w and w not in adj[u]:
            adj[u].add(w)
            adj[w].add(u)
            edges += 1
    return adj


def gen_random_regularish(n, davg, seed=0):
    """Random graph with average degree close to davg.

    Exactly regular when davg is an integer with n*davg even; otherwise a
    uniform graph with round(n*davg/2) edges. The graph before relabelling is
    the one networkx 3.6.1's `random_regular_graph` or `gnm_random_graph`
    draws for the same int seed.
    """
    if not 0 < davg < n:
        raise InfeasibleParameters("need 0 < davg < n")
    rng = random.Random(seed)
    if float(davg).is_integer() and (n * int(davg)) % 2 == 0:
        adj = [[] for _ in range(n)]
        for u, w in _regular_edges(int(davg), n, rng):
            adj[u].append(w)
            adj[w].append(u)
    else:
        adj = _gnm_adjacency(n, round(n * davg / 2), rng)
    return _permute([sorted(row) for row in adj], seed)[0]


def gen_connected(n, davg=2.0, seed=0):
    """Connected graph: random spanning tree plus random extra edges."""
    if n < 1:
        raise InfeasibleParameters("need at least one vertex")
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    target = max(n - 1, round(n * davg / 2))
    attempts = 0
    while len(edges) < target and attempts < 20 * target:
        attempts += 1
        u, w = rng.randrange(n), rng.randrange(n)
        if u != w:
            edges.add((min(u, w), max(u, w)))
    rows = [[] for _ in range(n)]
    for u, w in edges:
        rows[u].append(w)
        rows[w].append(u)
    return _permute(rows, seed + 1)[0]


def erase(g, alpha, strategy="uniform", seed=0):
    """Erase at most floor(2*alpha*m) additional entries of g.

    Strategies: "uniform" picks entries uniformly without replacement;
    "halves" erases one side each of distinct mutual edges (all erasures
    forced, so completions are unchanged); "symmetric" erases both sides of
    distinct mutual edges (no half-erased edges appear).
    """
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    if strategy not in ("uniform", "halves", "symmetric"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    budget = int(2 * Fraction(alpha) * g.num_edges)
    if budget == 0:
        return g
    slots = []
    if strategy == "uniform":
        avail = [
            (u, i)
            for u in range(g.num_vertices)
            for i, e in enumerate(g.entries(u))
            if e is not ERASED
        ]
        slots = rng.sample(avail, min(budget, len(avail)))
    else:
        mutual = []
        for u in range(g.num_vertices):
            for w in g.listed(u):
                if u < w and u in g.listed(w):
                    mutual.append((u, w))
        if strategy == "halves":
            chosen = rng.sample(mutual, min(budget, len(mutual)))
            for u, w in chosen:
                if rng.random() < 0.5:
                    u, w = w, u
                slots.append((u, list(g.entries(u)).index(w)))
        else:
            chosen = rng.sample(mutual, min(budget // 2, len(mutual)))
            for u, w in chosen:
                slots.append((u, list(g.entries(u)).index(w)))
                slots.append((w, list(g.entries(w)).index(u)))
    return erase_slots(g, slots)


def generate(family, params, seed):
    """Build an instance of `family` from `params`, a dict keyed by parameter
    name. Returns (graph, manifest)."""
    p = _FamilyParams(params)
    extra = {}
    if family == "gplus":
        g = gen_gplus(p["eps"], p["k"], seed)
    elif family == "gminus":
        g = gen_gminus(p["eps"], p["k"], seed)
    elif family == "g1":
        g = gen_g1(p["alpha"], p["n"], seed)
    elif family == "g2":
        g = gen_g2(p["alpha"], p["n"], seed)
    elif family in _FIG_KINDS:
        gadget = gen_fig_component(family, seed, p.get("host_size", 24))
        g = gadget.graph
        extra["gadget_vertices"] = sorted(gadget.gadget_vertices)
    elif family == "far-forest":
        g = gen_far_forest(
            p["eps"],
            p["alpha"],
            p["n"],
            p.get("davg", 2.0),
            p.get("strategy", "uniform"),
            seed,
        )
    elif family == "cycle-union":
        g = gen_cycle_union(p["n"], p.get("cycle_len", max(3, p["n"])), seed)
    elif family == "regularish":
        g = gen_random_regularish(p["n"], p["davg"], seed)
    elif family == "connected":
        g = gen_connected(p["n"], p.get("davg", 2.0), seed)
    else:
        raise InfeasibleParameters(f"unknown family {family!r}")
    frac = g.erasure_fraction()
    manifest = {
        "family": family,
        "params": {k: str(v) for k, v in p.items()},
        "seed": seed,
        "properties": {
            "n": g.num_vertices,
            "m": g.num_edges,
            "avg_degree": g.avg_degree,
            "erased_entries": g.erased_total,
            "erasure_fraction": f"{frac.numerator}/{frac.denominator}",
            **extra,
        },
    }
    return g, manifest
