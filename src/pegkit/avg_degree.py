"""Average-degree estimation under erasures.

The refinement step turns a crude estimate into a sharper one by averaging a
capped per-vertex statistic: sample a vertex u and a uniform entry of its
list, and credit deg(u) when u is low-degree and the entry is either erased
or a vertex ranked above u. Ranking is by (degree, id), so every mutual edge
is credited exactly once; crediting erased entries is what buys erasure
resilience at the cost of counting some erased edges twice.

The driver searches crude estimates n/2^i in decreasing powers of two and
returns the first refined median that overtakes its crude input.

The sample and repetition coefficients default to the analyzed
SAMPLE_COEFF=660 and REP_COEFF=12. Only these two can be overridden, for
fast desk-scale experiments; any override marks the run non-conforming. The
degree-threshold factor THRESHOLD_COEFF=4 and the failure probability
DELTA=1/4 are fixed at the values the analysis uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import ERASED
from .oracle import QuerySession, split_seed

SAMPLE_COEFF = 660.0
REP_COEFF = 12.0
THRESHOLD_COEFF = 4.0
DELTA = 0.25

# Relative slack for the floating-point degree-threshold comparison.
_THRESHOLD_RTOL = 1e-12
# numpy's multinomial needs the sample count in an int64.
_MAX_SAMPLES = np.iinfo(np.int64).max

def precedes(g, u, v):
    """Strict total vertex order: degree first, id as tie-break."""
    return (g.degree(u), u) < (g.degree(v), v)


def d_plus(g, u):
    """Number of non-erased neighbors of u ranked above u."""
    return sum(1 for w in g.listed(u) if precedes(g, u, w))


def d_bot(g, u):
    """Number of erased slots in u's list."""
    return g.erased_count(u)


def chi_threshold(n, crude, epsilon):
    """Degree cutoff above which samples contribute zero."""
    return THRESHOLD_COEFF * math.sqrt(n * crude / epsilon)


def check_parameters(n, epsilon, crude=None, sample_coeff=SAMPLE_COEFF, rep_coeff=REP_COEFF):
    """Raise ValueError unless the estimator can run on n vertices with these parameters.

    Every estimator parameter rule is written here once. `crude` is one
    refinement's crude estimate; without it the parameters are checked for a
    whole `estimate_avg_degree` search, which needs two vertices and whose
    last crude value n/2^ceil(log2 n) is its smallest, so that level's
    refinements draw the most samples.
    """
    if crude is None:
        if n < 2:
            raise ValueError("estimation needs at least two vertices")
        crude = n / 2 ** math.ceil(math.log2(n))
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    if not crude > 0:
        raise ValueError("a positive crude estimate is required")
    for name, value in {"sample_coeff": sample_coeff, "rep_coeff": rep_coeff}.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a positive finite number, got {value}")
    s = sample_count(n, DegreeEstimatorConfig(epsilon, crude, sample_coeff=sample_coeff))
    if s > _MAX_SAMPLES:
        raise ValueError(
            f"sample_coeff {sample_coeff} is too large: a refinement would draw "
            f"{s} samples, more than int64 holds"
        )


def is_conforming(sample_coeff=SAMPLE_COEFF, rep_coeff=REP_COEFF):
    """True when both settable coefficients are at their analyzed defaults."""
    return (sample_coeff, rep_coeff) == (SAMPLE_COEFF, REP_COEFF)


@dataclass
class DegreeEstimatorConfig:
    epsilon: float
    crude: "float | None" = None
    seed: int = 0
    sample_coeff: float = SAMPLE_COEFF

    @property
    def conforming(self):
        return is_conforming(self.sample_coeff)

    def validate(self, n):
        """Raise ValueError unless a refinement on n vertices can run with this config."""
        # A missing crude value reaches the check as 0 and is rejected there.
        check_parameters(n, self.epsilon, self.crude or 0.0, self.sample_coeff)


@dataclass
class DegreeEstimate:
    value: float
    samples: int
    degree_queries: int
    neighbor_queries: int
    crude: "float | None" = None
    iteration: "int | None" = None
    conforming: bool = True


def sample_count(n, cfg):
    """ceil(coeff * ln(2/DELTA) * sqrt(n / (eps^5 * crude)))."""
    return math.ceil(
        cfg.sample_coeff * math.log(2 / DELTA) * math.sqrt(n / (cfg.epsilon**5 * cfg.crude))
    )


def chi_sample(session, cfg):
    """One credit sample (scalar reference path).

    Charges one degree query for the sampled vertex, one neighbor query for
    the drawn slot unless the vertex is isolated, and one more degree query
    when the drawn entry is non-erased.
    """
    g = session.graph
    tau = chi_threshold(g.num_vertices, cfg.crude, cfg.epsilon)
    u = session.random_vertex()
    du = session.degree(u)
    if du == 0:
        return 0.0
    entry = session.random_neighbor(u)
    if entry is not ERASED:
        session.degree(entry)  # the query that ranks the entry
    if (entry is ERASED or precedes(g, u, entry)) and du <= tau * (1 + _THRESHOLD_RTOL):
        return float(du)
    return 0.0


def credit_counts(g):
    """Per-vertex (degree, d_bot, d_plus) as numpy arrays, vectorized.

    The ranked-above test is `precedes` over all slots at once. Counts are
    per slot, like the slot draw: a neighbor listed twice counts twice. On a
    graph without repeated entries they equal `g.degree`, `d_bot` and `d_plus`.
    """
    n = g.num_vertices
    degrees, _, flat = g.flat_adjacency()
    owner = np.repeat(np.arange(n), degrees)
    erased = flat == -1
    du = degrees[owner]
    dv = degrees[np.where(erased, 0, flat)]
    above = ~erased & ((du < dv) | ((du == dv) & (owner < flat)))
    return degrees, np.bincount(owner[erased], minlength=n), np.bincount(owner[above], minlength=n)


def _credit_class_table(g):
    """The distinct (degree, d_bot, d_plus) rows in lexicographic order, with counts.

    One lexsort of the per-vertex columns, then a new class wherever a column
    changes between neighbouring rows.
    """
    columns = credit_counts(g)
    order = np.lexsort(columns[::-1])
    deg, bot, plus = (c[order] for c in columns)
    starts = np.flatnonzero(
        np.concatenate(([True], (deg[1:] != deg[:-1]) | (bot[1:] != bot[:-1]) | (plus[1:] != plus[:-1])))
    )
    return deg[starts], bot[starts], plus[starts], np.diff(starts, append=len(deg))


def credit_classes(g):
    """(degree, d_bot, d_plus, vertex count) per distinct credit class of g.

    A credit sample's value and its charged queries depend only on the class
    of the sampled vertex. Built once per graph and cached on it.
    """
    return g.cached(_credit_class_table)


def _level_free_terms(g):
    """The parts of `credit_outcomes` that do not depend on tau, built once per graph.

    -> (class weight count/n per slot, weight*bot and weight*plus, each class's
    rank among the distinct degrees, the distinct degrees, isolated mass,
    total weight of listed slots). The class table is sorted by degree, so a
    tau's credited classes are one run of it and their distinct degrees one
    slice of the distinct degrees.
    """
    deg, bot, plus, count = credit_classes(g)
    n = g.num_vertices
    weight = count / (n * np.maximum(deg, 1))  # an isolated class has no slots
    new_degree = np.concatenate(([True], deg[1:] != deg[:-1]))
    return (
        weight, (weight * bot, weight * plus), np.cumsum(new_degree) - 1, deg[new_degree],
        np.sum(count[deg == 0]) / n, np.dot(weight, deg - bot - plus),
    )


def credit_outcomes(g, tau):
    """(probability, credit value, erased flag) per outcome of one credit sample.

    A sample's value and its charged queries depend only on its outcome.
    Outcomes: isolated, uncredited erased, uncredited listed (this includes
    the slots of a credited vertex not ranked above it), then per credited
    degree d one erased and one ranked-above outcome, both worth d. Each
    probability sums, over the credit classes, class weight count/n times
    the share of the class's slots in that outcome.
    """
    deg, bot, plus, _ = credit_classes(g)
    weight, slot_weights, rank, degrees, isolated, listed = g.cached(_level_free_terms)
    cutoff = tau * (1 + _THRESHOLD_RTOL)
    credited = (deg > 0) & (deg <= cutoff)
    first, stop = np.searchsorted(degrees, [0, cutoff], side="right").tolist()
    k, idx = stop - first, rank[credited] - first
    paid = [np.bincount(idx, w[credited], k) for w in slot_weights]
    rest = ~credited
    unpaid = [isolated, np.dot(weight[rest], bot[rest]), listed + np.dot(weight[rest], plus[rest])]
    p = np.concatenate([unpaid, *paid])
    value = np.concatenate([np.zeros(3), degrees[first:stop], degrees[first:stop]])
    erased = np.repeat([False, True, False, True, False], [1, 1, 1, k, k])
    return p, value, erased


def refine_level(g, cfg, t, session):
    """Draw t independent refinements at cfg.crude in one call.

    One seeded numpy generator draws a t-row multinomial over
    `credit_outcomes`, so each row has exactly the joint distribution of
    per-slot draws. Returns (values, samples per refinement, degree queries,
    neighbor queries), where a value is twice its row's mean credit, computed
    in float64, and the query totals are exact over all t rows and charged to
    the session in bulk: one degree query per sample, one neighbor query per
    non-isolated sample, one extra degree query per non-erased drawn entry.
    """
    n = g.num_vertices
    cfg.validate(n)
    s = sample_count(n, cfg)
    p, value, erased = credit_outcomes(g, chi_threshold(n, cfg.crude, cfg.epsilon))
    drawn = np.random.default_rng(cfg.seed & (2**64 - 1)).multinomial(s, p, size=t)
    # A row sums to s, so it fits an int64; totals over rows are Python ints.
    isolated = sum(drawn[:, 0].tolist())
    degree = 2 * s * t - isolated - sum(drawn[:, erased].sum(axis=1).tolist())
    neighbor = s * t - isolated
    session.charge_bulk(degree=degree, neighbor=neighbor)
    return (2.0 * (drawn * value).sum(axis=1) / s).tolist(), s, degree, neighbor


def refine_estimate(g, cfg):
    """Sharpen a crude average-degree estimate: `refine_level` with one row.

    The returned estimate counts the queries of this refinement alone.
    """
    (value,), s, degree, neighbor = refine_level(g, cfg, 1, QuerySession(g, seed=cfg.seed))
    return DegreeEstimate(
        value=value, samples=s, degree_queries=degree, neighbor_queries=neighbor,
        crude=cfg.crude, conforming=cfg.conforming,
    )


def _lower_median(values):
    return sorted(values)[(len(values) - 1) // 2]


def estimate_avg_degree(g, epsilon, seed=0, sample_coeff=SAMPLE_COEFF, rep_coeff=REP_COEFF):
    """Estimate the average degree with no prior crude estimate.

    For i = 0..ceil(log2 n) runs the refinement repeatedly at crude = n/2^i
    (kept as an exact real) and takes the lower median; returns the first
    median that exceeds its crude input, or 1 if none does. Each level draws
    its refinements in one `refine_level` call with its own split seed; all
    levels charge one session, whose totals the estimate reports.
    """
    n = g.num_vertices
    check_parameters(n, epsilon, sample_coeff=sample_coeff, rep_coeff=rep_coeff)
    t = math.ceil(rep_coeff * math.log(4 * math.log2(n)))
    session = QuerySession(g, seed=seed)
    samples = 0
    value, crude, level = 1.0, None, None
    for i in range(math.ceil(math.log2(n)) + 1):
        level_crude = n / 2**i
        cfg = DegreeEstimatorConfig(
            epsilon=epsilon,
            crude=level_crude,
            seed=split_seed(seed, i),
            sample_coeff=sample_coeff,
        )
        values, s, _, _ = refine_level(g, cfg, t, session)
        samples += s * t
        med = _lower_median(values)
        if med > level_crude:
            value, crude, level = med, level_crude, i
            break
    return DegreeEstimate(
        value=value,
        samples=samples,
        degree_queries=session.degree_queries,
        neighbor_queries=session.neighbor_queries,
        crude=crude,
        iteration=level,
        conforming=is_conforming(sample_coeff, rep_coeff),
    )
