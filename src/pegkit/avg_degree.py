"""Average-degree estimation under erasures.

The refinement step turns a crude estimate into a sharper one by averaging a
capped per-vertex statistic: sample a vertex u and a uniform entry of its
list, and credit deg(u) when u is low-degree and the entry is either erased
or a vertex ranked above u. Ranking is by (degree, id), so every mutual edge
is credited exactly once; crediting erased entries is what buys erasure
resilience at the cost of counting some erased edges twice.

`refine_estimate` runs the step t times at one crude value, in one draw,
and returns the lower median. The driver searches crude estimates n/2^i in
decreasing powers of two, one `refine_estimate` call each, and returns the
first median that overtakes its crude input.

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

from .oracle import QuerySession, split_seed

SAMPLE_COEFF = 660.0
REP_COEFF = 12.0
THRESHOLD_COEFF = 4.0
DELTA = 0.25

# Relative slack for the floating-point degree-threshold comparison.
_THRESHOLD_RTOL = 1e-12
# numpy's multinomial needs the sample count in an int64.
_MAX_SAMPLES = np.iinfo(np.int64).max
# Refinements per level: the analyzed count is at most 58 for n <= 2^31, and
# each one is a row of the level's multinomial draw.
_MAX_REPS = 2**16

def precedes(g, u, v):
    """Strict total vertex order: degree first, id as tie-break."""
    return (g.degree(u), u) < (g.degree(v), v)


def d_plus(g, u):
    """Number of non-erased neighbors of u ranked above u."""
    return sum(1 for w in g.listed(u) if precedes(g, u, w))


def chi_threshold(n, crude, epsilon):
    """Degree cutoff above which samples contribute zero."""
    return THRESHOLD_COEFF * math.sqrt(n * crude / epsilon)


def check_parameters(n, epsilon, crude=None, sample_coeff=SAMPLE_COEFF, rep_coeff=REP_COEFF):
    """Raise ValueError unless the estimator can run on n vertices with these parameters.

    Every estimator parameter rule is written here once. `crude` is one
    refinement's crude estimate; without it the parameters are checked for a
    whole `estimate_avg_degree` search, which needs two vertices, runs at
    most _MAX_REPS refinements per level, and whose last crude value
    n/2^ceil(log2 n) is its smallest, so that level's refinements draw the
    most samples.
    """
    search = crude is None
    if search:
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
    if search and rep_coeff * math.log(4 * math.log2(n)) > _MAX_REPS:
        raise ValueError(
            f"rep_coeff {rep_coeff} is too large: a level would run more than {_MAX_REPS} refinements"
        )
    try:
        s = sample_count(n, epsilon, crude, sample_coeff)
    except (ZeroDivisionError, OverflowError):
        # eps^5 * crude underflowed to 0, or the count to infinity.
        raise ValueError(
            f"epsilon {epsilon} is too small for a crude estimate of {crude}: "
            "a refinement's sample count is not finite"
        ) from None
    if s > _MAX_SAMPLES:
        # Blame the coefficient only when the analyzed one's count would fit.
        cause = (
            f"sample_coeff {sample_coeff} is too large" if s / sample_coeff * SAMPLE_COEFF <= _MAX_SAMPLES
            else f"epsilon {epsilon} is too small for a crude estimate of {crude}"
        )
        raise ValueError(f"{cause}: a refinement would draw {s} samples, more than int64 holds")


def is_conforming(sample_coeff=SAMPLE_COEFF, rep_coeff=REP_COEFF):
    """True when both settable coefficients are at their analyzed defaults."""
    return (sample_coeff, rep_coeff) == (SAMPLE_COEFF, REP_COEFF)


@dataclass
class DegreeEstimate:
    value: float
    samples: int
    degree_queries: int
    neighbor_queries: int
    crude: "float | None" = None
    iteration: "int | None" = None


def sample_count(n, epsilon, crude, sample_coeff):
    """ceil(sample_coeff * ln(2/DELTA) * sqrt(n / (eps^5 * crude)))."""
    return math.ceil(sample_coeff * math.log(2 / DELTA) * math.sqrt(n / (epsilon**5 * crude)))


def credit_counts(g):
    """Per-vertex (degree, d_bot, d_plus) as numpy arrays, vectorized.

    The ranked-above test is `precedes` over all slots at once. Counts are
    per slot, like the slot draw: a neighbor listed twice counts twice. On a
    graph without repeated entries they equal `g.degree`, `g.erased_count`
    and `d_plus`.
    """
    n = g.num_vertices
    degrees, flat = g.flat_adjacency()
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
    rank among the distinct degrees, the distinct degrees, the rank of the
    first positive one, isolated mass, total weight of listed slots). The
    class table is sorted by degree, so a tau's credited classes are one run
    of it and their distinct degrees one slice of the distinct degrees.
    """
    deg, bot, plus, count = credit_classes(g)
    n = g.num_vertices
    weight = count / (n * np.maximum(deg, 1))  # an isolated class has no slots
    new_degree = np.concatenate(([True], deg[1:] != deg[:-1]))
    degrees = deg[new_degree]
    return (
        weight, (weight * bot, weight * plus), np.cumsum(new_degree) - 1, degrees,
        int(degrees[0] == 0), np.sum(count[deg == 0]) / n, np.dot(weight, deg - bot - plus),
    )


def _outcome_laws(g):
    """The outcome laws `credit_outcomes` has built for g, keyed by credited run."""
    return {}


def credit_outcomes(g, tau):
    """(probability, credit value, erased flag) per outcome of one credit sample.

    A sample's value and its charged queries depend only on its outcome.
    Outcomes: isolated, uncredited erased, uncredited listed (this includes
    the slots of a credited vertex not ranked above it), then per credited
    degree d one erased and one ranked-above outcome, both worth d. Each
    probability sums, over the credit classes, class weight count/n times
    the share of the class's slots in that outcome.

    The law depends on tau only through the credited run: the positive
    distinct degrees up to the cutoff, which end at index `stop`. So each
    law is built once per run and kept with the graph, read-only.
    """
    degrees = g.cached(_level_free_terms)[3]
    stop = int(degrees.searchsorted(tau * (1 + _THRESHOLD_RTOL), side="right"))
    laws = g.cached(_outcome_laws)
    law = laws.get(stop)
    if law is None:
        law = laws[stop] = _outcome_law(g, stop)
    return law


def _outcome_law(g, stop):
    """`credit_outcomes` for the credited run that ends at distinct degree `stop`."""
    deg, bot, plus, _ = credit_classes(g)
    weight, slot_weights, rank, degrees, first, isolated, listed = g.cached(_level_free_terms)
    credited = (rank >= first) & (rank < stop)
    k, idx = stop - first, rank[credited] - first
    paid = [np.bincount(idx, w[credited], k) for w in slot_weights]
    rest = ~credited
    unpaid = [isolated, np.dot(weight[rest], bot[rest]), listed + np.dot(weight[rest], plus[rest])]
    law = (
        np.concatenate([unpaid, *paid]),
        np.concatenate([np.zeros(3), degrees[first:stop], degrees[first:stop]]),
        np.repeat([False, True, False, True, False], [1, 1, 1, k, k]),
    )
    for a in law:
        a.flags.writeable = False
    return law


def refine_estimate(g, epsilon, crude, seed=0, reps=1, sample_coeff=SAMPLE_COEFF, session=None):
    """Sharpen a crude estimate: the lower median of `reps` refinements at `crude`.

    One seeded numpy generator draws a `reps`-row multinomial over
    `credit_outcomes`, so each row has exactly the joint distribution of
    per-slot draws. A row's value is twice its mean credit, computed in
    float64. The query totals are exact over all rows: one degree query per
    sample, one neighbor query per non-isolated sample, one extra degree
    query per non-erased drawn entry. They are charged in bulk to `session`
    when one is given; the estimate counts the samples and queries of this
    call either way.
    """
    n = g.num_vertices
    # A missing crude value reaches the check as 0 and is rejected there.
    check_parameters(n, epsilon, crude or 0.0, sample_coeff)
    s = sample_count(n, epsilon, crude, sample_coeff)
    p, value, erased = credit_outcomes(g, chi_threshold(n, crude, epsilon))
    drawn = np.random.default_rng(seed & (2**64 - 1)).multinomial(s, p, size=reps)
    # A row sums to s, so it fits an int64; totals over rows are Python ints.
    isolated = sum(drawn[:, 0].tolist())
    degree = 2 * s * reps - isolated - sum(drawn.dot(erased).tolist())
    neighbor = s * reps - isolated
    if session is not None:
        session.charge_bulk(degree=degree, neighbor=neighbor)
    rows = sorted((2.0 * (drawn * value).sum(axis=1) / s).tolist())
    return DegreeEstimate(
        value=rows[(reps - 1) // 2], samples=s * reps, degree_queries=degree,
        neighbor_queries=neighbor, crude=crude,
    )


def estimate_avg_degree(g, epsilon, seed=0, sample_coeff=SAMPLE_COEFF, rep_coeff=REP_COEFF):
    """Estimate the average degree with no prior crude estimate.

    For i = 0..ceil(log2 n) runs the refinement repeatedly at crude = n/2^i
    (kept as an exact real) and takes the lower median; returns the first
    median that exceeds its crude input, or 1 if none does. Each level is one
    `refine_estimate` call of t rows with its own split seed; all levels
    charge one session, whose totals the estimate reports.
    """
    n = g.num_vertices
    check_parameters(n, epsilon, sample_coeff=sample_coeff, rep_coeff=rep_coeff)
    t = math.ceil(rep_coeff * math.log(4 * math.log2(n)))
    session = QuerySession(g, seed=seed)
    samples = 0
    value, crude, level = 1.0, None, None
    for i in range(math.ceil(math.log2(n)) + 1):
        level_crude = n / 2**i
        est = refine_estimate(g, epsilon, level_crude, split_seed(seed, i), t, sample_coeff, session)
        samples += est.samples
        if est.value > level_crude:
            value, crude, level = est.value, level_crude, i
            break
    return DegreeEstimate(
        value=value,
        samples=samples,
        degree_queries=session.degree_queries,
        neighbor_queries=session.neighbor_queries,
        crude=crude,
        iteration=level,
    )
