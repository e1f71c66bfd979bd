"""Independent references the tests compare pegkit against.

Nothing in the package or the command line runs these. They are the slow,
direct versions of what the package computes in bulk or reads another way:
the vertex rank order, the scalar credit sample and its exact expectation,
graphs rebuilt from completions, the small/big
classification, the quality functions, when a capped search closes, the
exact rejection probability of a tester's plan, the filter oracle, a
query source that answers for the subgraph of mutual edges, and a recording
source that writes down every query a session answers.
"""

from fractions import Fraction

from pegkit import exact
from pegkit.avg_degree import _THRESHOLD_RTOL, THRESHOLD_COEFF, chi_threshold
from pegkit.connectedness import VertexCap
from pegkit.exact import components, inventory_witnesses
from pegkit.graph import ERASED, PartiallyErasedGraph, forced_partners, validate


def erased_slots(g, u):
    """0-based indices of the erased slots in u's list."""
    return tuple(i for i, e in enumerate(g.entries(u)) if e is ERASED)


# --- the credit sample ---------------------------------------------------------


def precedes(g, u, v):
    """Strict total vertex order: degree first, id as tie-break."""
    return (g.degree(u), u) < (g.degree(v), v)


def d_plus(g, u):
    """Number of non-erased neighbors of u ranked above u."""
    return sum(1 for w in g.listed(u) if precedes(g, u, w))


def exp_chi(g, d_hat, eps):
    """Exact expectation of one credit sample, vertex by vertex.

    (1/n) * sum of d_plus(u) + erased slots of u over the vertices whose
    degree is not above THRESHOLD_COEFF * sqrt(n * d_hat / eps), each
    compared with the squared cutoff as a Fraction.
    """
    n = g.num_vertices
    cutoff_sq = Fraction(THRESHOLD_COEFF) ** 2 * n * Fraction(d_hat) / Fraction(eps)
    low = [u for u in range(n) if Fraction(g.degree(u)) ** 2 <= cutoff_sq]
    return Fraction(sum(d_plus(g, u) + g.erased_count(u) for u in low), n)


def chi_sample(session, epsilon, crude):
    """One credit sample, drawn and charged query by query.

    Charges one degree query for the sampled vertex, one neighbor query for
    a uniform slot of its list unless the vertex is isolated, and one more
    degree query when the drawn entry is non-erased.
    """
    g = session.graph
    tau = chi_threshold(g.num_vertices, crude, epsilon)
    u = session.random_vertex()
    du = session.degree(u)
    if du == 0:
        return 0.0
    entry = session.neighbor(u, session.rng.randint(1, du))
    if entry is not ERASED:
        session.degree(entry)  # the query that ranks the entry
    if (entry is ERASED or precedes(g, u, entry)) and du <= tau * (1 + _THRESHOLD_RTOL):
        return float(du)
    return 0.0


# --- completions, classification, quality ----------------------------------------


def completed_graph(g, pairs):
    """g with every erased slot filled, for the completion with free-slot pairs `pairs`.

    Each vertex's erased slots take, in slot order, its forced partners and
    its partners in `pairs`, sorted. Raises ValueError unless the partners
    fill the erased slots exactly.
    """
    partners = {u: list(ws) for u, ws in forced_partners(g).items()}
    for a, b in pairs:
        partners.setdefault(a, []).append(b)
        partners.setdefault(b, []).append(a)
    rows = []
    for u in range(g.num_vertices):
        row = list(g.entries(u))
        slots = erased_slots(g, u)
        fills = sorted(partners.get(u, ()))
        if len(fills) != len(slots):
            raise ValueError(f"{len(fills)} partners for the {len(slots)} erased slots of {u}")
        for i, w in zip(slots, fills):
            row[i] = w
        rows.append(row)
    return PartiallyErasedGraph(rows)


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


# --- capped searches and rejection probabilities -----------------------------------


def closes(cap, vertices, entries):
    """Whether a search under `cap` closes on a reach set of this many vertices
    and row entries.

    A vertex cap closes below its limit. An entry cap closes when the rows fit
    it, provided every vertex past the start lists something, as `validate`
    asks: the search stops before a vertex once the cap is spent, even when
    that vertex's row is empty.
    """
    if type(cap) is VertexCap:
        return vertices < cap.limit
    return 0 < cap.limit and entries <= cap.limit


def rejection_probability(g, plan):
    """Exact probability that one run of a tester's `plan` rejects g.

    A search from v finds a witness just when v's reach set C is a witness of
    the plan's kind and `closes(plan.stop(i, deg v), |C|, entries of C's rows)`.
    That rule needs a graph that passes `validate`; any other raises
    ValueError. Assumes the budget never binds. The schedule must be a tuple:
    unknown-davg's never ends.
    """
    if not isinstance(plan.levels, tuple):
        raise ValueError("the exact rejection probability needs a finite schedule")
    if validate(g):
        raise ValueError("the exact rejection probability needs a graph that passes validate")
    reach = exact._reach_sets(g)
    inv = exact._inventory(g, reach)
    witnesses = [C for C, _ in inv.generalized] if plan.generalized else inv.plain
    entries = {C: sum(map(g.degree, C)) for C in witnesses}
    starts = [(g.degree(v), C) for v, C in enumerate(reach) if C in entries]
    accept = 1.0
    for i, reps in plan.levels:
        detected = sum(1 for d, C in starts if closes(plan.stop(i, d), len(C), entries[C]))
        accept *= (1 - detected / g.num_vertices) ** reps
    return 1.0 - accept


# --- the filter oracle ------------------------------------------------------------


class _BlankMark:
    """Padding symbol used by the filter oracle for bounded-degree lists."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-"


BLANK = _BlankMark()


class FilterOracle:
    """Answers queries about the subgraph of mutual (nonerased) edges.

    Works for graphs of maximum degree at most `degree_bound` (D). Each
    reconstructed list keeps exactly the nonerased edges incident to its
    vertex, in raw slot order, padded with BLANK to length D. Reconstruction
    fetches raw lists through the session (all fetches cached), so a cache
    miss charges at most D*(D+1) neighbor queries plus at most D+1 degree
    queries; cached lists charge nothing.

    It has `num_vertices`, `degree` and `neighbor`, so it is a query source:
    a tester's own session over it counts the filtered queries, while the
    wrapped session counts the raw ones.
    """

    def __init__(self, session, degree_bound):
        if degree_bound < 1:
            raise ValueError("degree bound must be at least 1")
        self.session = session
        self.degree_bound = degree_bound
        self._raw = {}
        self._filtered = {}
        self.miss_charges = []

    @property
    def num_vertices(self):
        return self.session.graph.num_vertices

    def _fetch_raw(self, u):
        row = self._raw.get(u)
        if row is None:
            d = self.session.degree(u)
            if d > self.degree_bound:
                raise ValueError(f"degree {d} of vertex {u} exceeds bound {self.degree_bound}")
            row = tuple(self.session.neighbor(u, i) for i in range(1, d + 1))
            self._raw[u] = row
        return row

    def _reconstruct(self, u):
        lst = self._filtered.get(u)
        if lst is None:
            d0, n0 = self.session.degree_queries, self.session.neighbor_queries
            kept = []
            for w in self._fetch_raw(u):
                if w is ERASED:
                    continue
                if u in self._fetch_raw(w):
                    kept.append(w)
            lst = tuple(kept)
            self._filtered[u] = lst
            self.miss_charges.append(
                (u, self.session.degree_queries - d0, self.session.neighbor_queries - n0)
            )
        return lst

    def degree(self, u):
        """Degree of u in the nonerased subgraph."""
        return len(self._reconstruct(u))

    def neighbor(self, u, i):
        """i-th entry of u's reconstructed list, BLANK beyond its degree.

        Valid indices are 1..D, matching a fixed-width bounded-degree layout.
        """
        if not 1 <= i <= self.degree_bound:
            raise IndexError(f"slot {i} outside [1, {self.degree_bound}]")
        lst = self._reconstruct(u)
        return lst[i - 1] if i <= len(lst) else BLANK


# --- the recording source ---------------------------------------------------------


class RecordingSource:
    """A query source that answers from `graph` and writes one line per query to `out`.

    The lines are `D u` and `N u i -> ans`, with ans `*` for an erased
    entry. A session asks its source only for the queries it answers, so a
    session over this source records exactly those, in order.
    """

    def __init__(self, graph, out):
        self.graph = graph
        self.num_vertices = graph.num_vertices
        self.out = out

    def degree(self, u):
        d = self.graph.degree(u)
        self.out.write(f"D {u}\n")
        return d

    def neighbor(self, u, i):
        e = self.graph.neighbor(u, i)
        self.out.write(f"N {u} {i} -> {'*' if e is ERASED else e}\n")
        return e
