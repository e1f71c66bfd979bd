"""Average-degree estimation under erasures.

The refinement step turns a crude estimate into a sharper one by averaging a
capped per-vertex statistic: sample a vertex u and a uniform entry of its
list, and credit deg(u) when u is low-degree and the entry is either erased
or a vertex ranked above u. Ranking is by (degree, id), so every mutual edge
is credited exactly once; crediting erased entries is what buys erasure
resilience at the cost of counting some erased edges twice.

The driver searches crude estimates n/2^i in decreasing powers of two and
returns the first refined median that overtakes its crude input.

The coefficient defaults (SAMPLE_COEFF=660, REP_COEFF=12, THRESHOLD_COEFF=4)
match the analyzed guarantees. They can be overridden for fast desk-scale
experiments; any override marks the run non-conforming.
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

# Relative slack for the floating-point degree-threshold comparison.
_THRESHOLD_RTOL = 1e-12

def precedes(g, u, v):
    """Strict total vertex order: degree first, id as tie-break."""
    return (g.degree(u), u) < (g.degree(v), v)


def d_plus(g, u):
    """Number of non-erased neighbors of u ranked above u."""
    du = g.degree(u)
    return sum(1 for w in g.listed(u) if (du, u) < (g.degree(w), w))


def d_bot(g, u):
    """Number of erased slots in u's list."""
    return g.erased_count(u)


def chi_threshold(n, crude, epsilon, coeff=THRESHOLD_COEFF):
    """Degree cutoff above which samples contribute zero."""
    return coeff * math.sqrt(n * crude / epsilon)


def _check_epsilon(epsilon):
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")


def _check_positive(**coeffs):
    for name, value in coeffs.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a positive finite number, got {value}")


def check_estimate_parameters(
    n, epsilon, sample_coeff=SAMPLE_COEFF, rep_coeff=REP_COEFF, threshold_coeff=THRESHOLD_COEFF
):
    """Raise ValueError unless `estimate_avg_degree` can run with these arguments."""
    if n < 2:
        raise ValueError("estimation needs at least two vertices")
    _check_epsilon(epsilon)
    _check_positive(sample_coeff=sample_coeff, rep_coeff=rep_coeff, threshold_coeff=threshold_coeff)
    # The last level's crude value n/2^ceil(log2 n) is the smallest, so its
    # refinements draw the most samples; numpy's multinomial needs an int64.
    crude = n / 2 ** math.ceil(math.log2(n))
    s = sample_count(n, DegreeEstimatorConfig(epsilon, crude=crude, sample_coeff=sample_coeff))
    if s > np.iinfo(np.int64).max:
        raise ValueError(
            f"sample_coeff {sample_coeff} is too large: a refinement would draw "
            f"{s} samples, more than int64 holds"
        )


@dataclass
class DegreeEstimatorConfig:
    epsilon: float
    delta: float = 0.25
    crude: "float | None" = None
    seed: int = 0
    sample_coeff: float = SAMPLE_COEFF
    threshold_coeff: float = THRESHOLD_COEFF

    @property
    def conforming(self):
        return self.sample_coeff == SAMPLE_COEFF and self.threshold_coeff == THRESHOLD_COEFF

    def validate(self):
        _check_epsilon(self.epsilon)
        if not 0 < self.delta < 1 / 3:
            raise ValueError("delta must lie in (0, 1/3)")
        if self.crude is None or self.crude <= 0:
            raise ValueError("a positive crude estimate is required")
        _check_positive(sample_coeff=self.sample_coeff, threshold_coeff=self.threshold_coeff)


@dataclass
class DegreeEstimate:
    value: float
    samples: int
    degree_queries: int
    neighbor_queries: int
    crude: "float | None" = None
    iteration: "int | None" = None
    seed: "int | None" = None
    conforming: bool = True

    def to_dict(self):
        return {
            "value": self.value,
            "iteration": self.iteration,
            "crude_used": self.crude,
            "samples": self.samples,
            "queries": {"degree": self.degree_queries, "neighbor": self.neighbor_queries},
            "seed": self.seed,
            "conforming": self.conforming,
        }


def sample_count(n, cfg):
    """ceil(coeff * ln(2/delta) * sqrt(n / (eps^5 * crude)))."""
    return math.ceil(
        cfg.sample_coeff * math.log(2 / cfg.delta) * math.sqrt(n / (cfg.epsilon**5 * cfg.crude))
    )


def chi_sample(session, cfg):
    """One credit sample (scalar reference path).

    Charges one degree query for the sampled vertex, one neighbor query for
    the drawn slot unless the vertex is isolated, and one more degree query
    when the drawn entry is non-erased.
    """
    g = session.graph
    tau = chi_threshold(g.num_vertices, cfg.crude, cfg.epsilon, cfg.threshold_coeff)
    u = session.random_vertex()
    du = session.degree(u)
    if du == 0:
        return 0.0
    entry = session.random_neighbor(u)
    if entry is ERASED:
        credit = True
    else:
        dv = session.degree(entry)
        credit = (du, u) < (dv, entry)
    if credit and du <= tau * (1 + _THRESHOLD_RTOL):
        return float(du)
    return 0.0


def credit_counts(g):
    """Per-vertex (degree, d_bot, d_plus) as numpy arrays, vectorized.

    Counts are per slot, like the slot draw: a neighbor listed twice counts
    twice. On a graph without repeated entries they equal `g.degree`,
    `d_bot` and `d_plus`.
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
    table, count = np.unique(np.stack(credit_counts(g), axis=1), axis=0, return_counts=True)
    return table[:, 0], table[:, 1], table[:, 2], count


def credit_classes(g):
    """(degree, d_bot, d_plus, vertex count) per distinct credit class of g.

    A credit sample's value and its charged queries depend only on the class
    of the sampled vertex. Built once per graph and cached on it.
    """
    return g.cached(_credit_class_table)


def refine_estimate(g, cfg, session=None):
    """Sharpen a crude average-degree estimate (collapsed batch path).

    Draws the configured number of independent credit samples with a
    seeded numpy generator and returns twice their mean. The samples are
    drawn as counts: a multinomial over credit classes, then per class a
    multinomial over erased, ranked-above and other slots, so the credit sum
    and the query counts have exactly the joint distribution of per-slot
    draws. Query accounting is exact and charged to the session in bulk: one
    degree query per sample, one neighbor query per non-isolated sample, one
    extra degree query per non-erased drawn entry.
    """
    cfg.validate()
    n = g.num_vertices
    s = sample_count(n, cfg)
    tau = chi_threshold(n, cfg.crude, cfg.epsilon, cfg.threshold_coeff)
    deg, bot, plus, count = credit_classes(g)
    rng = np.random.default_rng(cfg.seed & (2**64 - 1))
    if session is None:
        session = QuerySession(g, seed=cfg.seed)

    drawn = rng.multinomial(s, count / n)
    # Columns: erased, ranked above, other listed; an isolated vertex's
    # draws all land in the last column.
    slot_split = np.stack([bot, plus, deg - bot - plus], axis=1) / np.maximum(deg, 1)[:, None]
    slot_split[deg == 0, 2] = 1.0
    erased, above, _ = rng.multinomial(drawn, slot_split).T
    credited = deg <= tau * (1 + _THRESHOLD_RTOL)
    total = float(np.dot(deg[credited], (erased + above)[credited]))
    isolated = int(drawn[deg == 0].sum())
    nonerased = s - isolated - int(erased.sum())

    session.charge_bulk(degree=s + nonerased, neighbor=s - isolated)
    return DegreeEstimate(
        value=2.0 * total / s,
        samples=s,
        degree_queries=session.degree_queries,
        neighbor_queries=session.neighbor_queries,
        crude=cfg.crude,
        seed=cfg.seed,
        conforming=cfg.conforming,
    )


def _lower_median(values):
    return sorted(values)[(len(values) - 1) // 2]


def estimate_avg_degree(
    g,
    epsilon,
    seed=0,
    sample_coeff=SAMPLE_COEFF,
    rep_coeff=REP_COEFF,
    threshold_coeff=THRESHOLD_COEFF,
):
    """Estimate the average degree with no prior crude estimate.

    For i = 0..ceil(log2 n) runs the refinement repeatedly at crude = n/2^i
    (kept as an exact real) and takes the lower median; returns the first
    median that exceeds its crude input, or 1 if none does. Each refinement
    run gets its own split seed and session.
    """
    n = g.num_vertices
    check_estimate_parameters(n, epsilon, sample_coeff, rep_coeff, threshold_coeff)
    t = math.ceil(rep_coeff * math.log(4 * math.log2(n)))
    conforming = sample_coeff == SAMPLE_COEFF and rep_coeff == REP_COEFF
    degree_q = 0
    neighbor_q = 0
    samples = 0
    run_idx = 0
    for i in range(math.ceil(math.log2(n)) + 1):
        crude = n / 2**i
        values = []
        for _ in range(t):
            cfg = DegreeEstimatorConfig(
                epsilon=epsilon,
                delta=0.25,
                crude=crude,
                seed=split_seed(seed, run_idx),
                sample_coeff=sample_coeff,
                threshold_coeff=threshold_coeff,
            )
            run_idx += 1
            est = refine_estimate(g, cfg)
            values.append(est.value)
            degree_q += est.degree_queries
            neighbor_q += est.neighbor_queries
            samples += est.samples
        med = _lower_median(values)
        if med > crude:
            return DegreeEstimate(
                value=med,
                samples=samples,
                degree_queries=degree_q,
                neighbor_queries=neighbor_q,
                crude=crude,
                iteration=i,
                seed=seed,
                conforming=conforming,
            )
    return DegreeEstimate(
        value=1.0,
        samples=samples,
        degree_queries=degree_q,
        neighbor_queries=neighbor_q,
        crude=None,
        iteration=None,
        seed=seed,
        conforming=conforming,
    )
