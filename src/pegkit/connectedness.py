"""Connectedness testers over partially erased graphs.

Four randomized testers share one BFS primitive, `bfs_until`: a search from
one vertex under a vertex or entry cap. Three of them also share one search
runner, `_search_levels`, which samples start vertices level by level and
stops at the first erasure-free witness or when the budget is spent; they
differ only in the level schedule they pass and the budget they set:

  tester_small_alpha   known average degree, erasure fraction below eps/2;
                       a hard query cap at six times the schedule's cost.
  tester_no_erasures   known average degree, no erasures; no budget.
  tester_unknown_davg  average degree unknown; a doubling schedule under a
                       fixed neighbor-query budget.
  tester_mid_alpha     known average degree, erasure fraction below eps;
                       single searches under one entry cap that look for
                       generalized witnesses (at most one erasure).

All four have 1-sided error: a graph with a connected completion is never
rejected. A reject always carries the witness that certifies every
completion disconnected.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

from .graph import ERASED, closure
from .oracle import BudgetExhausted, QuerySession

LN3 = math.log(3)
LN6 = math.log(6)

# Budget constants of the unknown-average-degree tester.
UNKNOWN_DAVG_BUDGET_FACTOR = 350
UNKNOWN_DAVG_LOG_ARG = 16


@dataclass(frozen=True)
class VertexCap:
    """Stop once this many distinct vertices have been discovered."""

    limit: int


@dataclass(frozen=True)
class EdgeCap:
    """Stop once this many adjacency entries have been scanned."""

    limit: int


@dataclass
class BfsOutcome:
    """What one capped BFS saw.

    `lists` holds the entries fetched for each vertex, so witness checks can
    replay the search without charging further queries. `closed` means the
    whole reachable set was explored and every list fully scanned.
    """

    graph_n: int
    explored: set
    lists: dict
    entries_scanned: int = 0
    erasures_seen: int = 0
    closed: bool = False
    truncated: bool = False
    budget_hit: bool = False


@dataclass(frozen=True)
class WitnessReport:
    """A vertex set certified to form its own component in every completion."""

    kind: str  # "plain" | "generalized"
    vertices: frozenset
    anchor: "int | None" = None


def bfs_until(session, start, stop, halt_on_erasure=False, start_degree=None):
    """BFS from `start` over non-erased entries until a stop condition.

    stop is a VertexCap or an EdgeCap. Each scanned entry costs one neighbor
    query, so an EdgeCap also caps the neighbor queries the search charges;
    VertexCap stops the moment the limit-th distinct vertex is discovered.
    With halt_on_erasure the search stops at the first erased entry. A
    budget-exhausted session shows up as a truncated outcome with budget_hit
    set.

    start_degree lets the caller pass a degree it already paid a query for.
    """
    vertex_cap = stop.limit if isinstance(stop, VertexCap) else None
    entry_cap = stop.limit if isinstance(stop, EdgeCap) else None
    out = BfsOutcome(graph_n=session.graph.num_vertices, explored={start}, lists={})
    if vertex_cap is not None and len(out.explored) >= vertex_cap:
        out.truncated = True
        return out
    queue = deque([start])
    try:
        while queue and not out.truncated:
            if entry_cap is not None and out.entries_scanned >= entry_cap:
                out.truncated = True
                break
            u = queue.popleft()
            deg = start_degree if (u == start and start_degree is not None) else session.degree(u)
            row = []
            out.lists[u] = row
            for i in range(1, deg + 1):
                if entry_cap is not None and out.entries_scanned >= entry_cap:
                    out.truncated = True
                    break
                e = session.neighbor(u, i)
                out.entries_scanned += 1
                row.append(e)
                if e is ERASED:
                    out.erasures_seen += 1
                    if halt_on_erasure:
                        out.truncated = True
                        break
                elif e not in out.explored:
                    out.explored.add(e)
                    queue.append(e)
                    if vertex_cap is not None and len(out.explored) >= vertex_cap:
                        out.truncated = True
                        break
    except BudgetExhausted:
        out.truncated = True
        out.budget_hit = True
    out.closed = not out.truncated and not queue
    return out


def detect_plain_witness(outcome):
    """Erasure-free witness: a fully explored proper component with no erasures."""
    if not outcome.closed or outcome.erasures_seen != 0:
        return None
    if len(outcome.explored) >= outcome.graph_n:
        return None
    return WitnessReport("plain", frozenset(outcome.explored))


def detect_generalized_witness(outcome):
    """Witness with at most one erasure, per the generalized definition.

    Requires an outcome whose BFS did not halt on erasures, so every list of
    the explored set is fully scanned. When the single erased slot belongs to
    vertex u, the detector looks for an anchor v in the set that lists u
    without being listed back, and replays a BFS from v over the already
    fetched rows (zero extra charged queries) to confirm v reaches the whole
    set.
    """
    if not outcome.closed or outcome.erasures_seen > 1:
        return None
    C = outcome.explored
    if len(C) >= outcome.graph_n:
        return None
    if outcome.erasures_seen == 0:
        return WitnessReport("generalized", frozenset(C))
    holder = None
    for v, row in outcome.lists.items():
        if any(e is ERASED for e in row):
            holder = v
            break
    listed_holder = {e for e in outcome.lists[holder] if e is not ERASED}
    for v in sorted(C):
        if v == holder or v in listed_holder:
            continue
        if holder not in outcome.lists.get(v, ()):
            continue
        if closure(v, lambda u: outcome.lists.get(u, ())) == C:
            return WitnessReport("generalized", frozenset(C), anchor=v)
    return None


@dataclass
class ConnTesterConfig:
    epsilon: float
    alpha: float = 0.0
    davg: "float | None" = None
    seed: int = 0


@dataclass
class TesterVerdict:
    accepted: bool
    witness: "WitnessReport | None"
    degree_queries: int
    neighbor_queries: int
    cap: "int | None"
    seed: int
    params: dict = field(default_factory=dict)
    aborted: bool = False

    @property
    def rejected(self):
        return not self.accepted

    def to_dict(self):
        w = None
        if self.witness is not None:
            w = {
                "kind": self.witness.kind,
                "vertices": sorted(self.witness.vertices),
                "anchor": self.witness.anchor,
            }
        return {
            "verdict": "accept" if self.accepted else "reject",
            "witness": w,
            "queries": {"degree": self.degree_queries, "neighbor": self.neighbor_queries},
            "cap": self.cap,
            "seed": self.seed,
            "params": self.params,
            "aborted": self.aborted,
        }


def small_alpha_plan(epsilon, alpha, davg):
    """The small-alpha tester's plan. -> (b, vertex_case, schedule).

    b = 2 / ((eps - 2*alpha) * davg) bounds the average witness size. The
    vertex-capped searches apply when b <= davg * log2(b) (ties included).
    The schedule holds (level, reps) for levels 1..ceil(log2(4b)), with
    reps = ceil(4b ln6 / 2^i).
    """
    b = 2.0 / ((epsilon - 2 * alpha) * davg)
    t = max(1, math.ceil(math.log2(4 * b)))
    schedule = [(i, math.ceil(4 * b * LN6 / 2**i)) for i in range(1, t + 1)]
    return b, b <= davg * math.log2(b), schedule


def small_alpha_query_cap(epsilon, alpha, davg):
    """Hard cap: six times the closed-form expected cost of the active case."""
    _, vertex_case, schedule = small_alpha_plan(epsilon, alpha, davg)
    if vertex_case:
        expected = sum(reps * 4**i for i, reps in schedule)
    else:
        expected = sum(reps * 2**i * davg for i, reps in schedule)
    return math.ceil(6 * expected)


def _check_known_davg_params(epsilon, alpha, davg, alpha_limit_factor):
    if davg is None or davg <= 0:
        raise ValueError("average degree must be a positive number")
    if not 0 < epsilon < 2 / davg:
        raise ValueError(f"epsilon must lie in (0, 2/davg) = (0, {2 / davg})")
    if not 0 <= alpha < epsilon * alpha_limit_factor:
        raise ValueError(f"alpha must lie in [0, {epsilon * alpha_limit_factor})")


def _search_levels(session, levels, vertex_case=False):
    """Run the capped searches of a level schedule. -> (witness, aborted).

    levels yields (i, reps): at level i, reps searches each start from a
    uniform vertex and halt on erasures, capped at 2^i + 1 vertices in the
    vertex case and otherwise at 2^(i-1) * deg + 1 scanned entries. The run
    stops at the first erasure-free witness, or aborts with no witness once
    the session's budget is spent.
    """
    for i, reps in levels:
        for _ in range(reps):
            if session.exhausted:
                return None, True
            v = session.random_vertex()
            if vertex_case:
                out = bfs_until(session, v, VertexCap(2**i + 1), halt_on_erasure=True)
            else:
                d = session.degree(v)
                out = bfs_until(
                    session, v, EdgeCap(2 ** (i - 1) * d + 1), halt_on_erasure=True, start_degree=d
                )
            if out.budget_hit:
                return None, True
            witness = detect_plain_witness(out)
            if witness is not None:
                return witness, False
    return None, False


def _verdict(session, witness, cap, params, aborted=False):
    return TesterVerdict(
        accepted=witness is None,
        witness=witness,
        degree_queries=session.degree_queries,
        neighbor_queries=session.neighbor_queries,
        cap=cap,
        seed=session.seed,
        params=params,
        aborted=aborted,
    )


def tester_small_alpha(g, cfg):
    """Connectedness tester for erasure fractions below eps/2.

    Samples vertices under a schedule of geometrically shrinking repetition
    counts and growing BFS caps, rejecting on any erasure-free component it
    can fully explore. Aborts and accepts if total charged queries reach six
    times the schedule's expected cost.
    """
    _check_known_davg_params(cfg.epsilon, cfg.alpha, cfg.davg, 0.5)
    b, vertex_case, schedule = small_alpha_plan(cfg.epsilon, cfg.alpha, cfg.davg)
    cap = small_alpha_query_cap(cfg.epsilon, cfg.alpha, cfg.davg)
    session = QuerySession(g, seed=cfg.seed, budget=cap, budget_counts="both")
    params = {
        "algorithm": "small-alpha",
        "epsilon": cfg.epsilon,
        "alpha": cfg.alpha,
        "davg": cfg.davg,
        "b": b,
        "case": "vertex" if vertex_case else "edge",
    }
    witness, aborted = _search_levels(session, schedule, vertex_case)
    return _verdict(session, witness, cap, params, aborted)


def mid_alpha_plan(epsilon, alpha, davg):
    """The mid-alpha tester's plan. -> (b, reps, cap).

    b = 4 / ((eps - alpha) * davg); reps = ceil(b ln 3) searches, each under
    the neighbor-query cap floor(min(b^2, b*davg)). The cap is floored with a
    1e-12 relative slack so caps that are integral up to floating-point noise
    land on the integer.
    """
    b = 4.0 / ((epsilon - alpha) * davg)
    return b, math.ceil(b * LN3), max(1, math.floor(min(b * b, b * davg) * (1 + 1e-12)))


def tester_mid_alpha(g, cfg):
    """Connectedness tester for erasure fractions below eps.

    Each of ceil(b ln 3) rounds runs one capped BFS from a uniform vertex,
    tolerating erasures while scanning, and rejects when the explored set is
    a generalized witness (at most one erasure).
    """
    _check_known_davg_params(cfg.epsilon, cfg.alpha, cfg.davg, 1.0)
    b, reps, qcap = mid_alpha_plan(cfg.epsilon, cfg.alpha, cfg.davg)
    session = QuerySession(g, seed=cfg.seed)
    params = {
        "algorithm": "mid-alpha",
        "epsilon": cfg.epsilon,
        "alpha": cfg.alpha,
        "davg": cfg.davg,
        "b": b,
        "bfs_cap": qcap,
    }
    witness = None
    for _ in range(reps):
        s = session.random_vertex()
        out = bfs_until(session, s, EdgeCap(qcap), halt_on_erasure=False)
        witness = detect_generalized_witness(out)
        if witness is not None:
            break
    return _verdict(session, witness, None, params)


def tester_no_erasures(g, cfg):
    """Connectedness tester for graphs promised to have no erasures."""
    if cfg.alpha != 0:
        raise ValueError("this tester requires alpha = 0")
    _check_known_davg_params(cfg.epsilon, 0.0, cfg.davg, 1.0)
    t = max(1, math.ceil(math.log2(8 / (cfg.epsilon * cfg.davg))))
    session = QuerySession(g, seed=cfg.seed)
    params = {
        "algorithm": "no-erasure",
        "epsilon": cfg.epsilon,
        "davg": cfg.davg,
        "levels": t,
    }
    levels = [(i, math.ceil(2 ** (t - i) * LN6)) for i in range(1, t + 1)]
    witness, _ = _search_levels(session, levels)
    return _verdict(session, witness, None, params)


def unknown_davg_budget(epsilon):
    """Neighbor-query budget ceil((350/eps) * log2(16/eps))."""
    return math.ceil(
        (UNKNOWN_DAVG_BUDGET_FACTOR / epsilon) * math.log2(UNKNOWN_DAVG_LOG_ARG / epsilon)
    )


def tester_unknown_davg(g, epsilon, seed=0, alpha=0.0):
    """Connectedness tester that does not need the average degree.

    Runs the no-erasures inner step under a doubling outer schedule until it
    either rejects or spends its fixed neighbor-query budget (abort means
    accept, keeping the error 1-sided). With alpha > 0 the schedule and
    budget use eps - 2*alpha; the budget constants are kept unchanged from
    the known-degree-free analysis for the erasure-free case.
    """
    if not (0 < epsilon < 1 and 0 <= alpha < epsilon / 2):
        raise ValueError("need 0 < epsilon < 1 and 0 <= alpha < epsilon/2")
    eps_eff = epsilon - 2 * alpha
    budget = unknown_davg_budget(eps_eff)
    params = {
        "algorithm": "unknown-davg",
        "epsilon": epsilon,
        "alpha": alpha,
        "budget": budget,
    }
    session = QuerySession(g, seed=seed, budget=budget, budget_counts="neighbor")
    if g.num_vertices == 1:
        return _verdict(session, None, budget, params)
    levels = (
        (i, math.ceil(2 ** max(t - i - 1, 0) * LN6))
        for t in itertools.count(1)
        for i in range(1, t + 1)
    )
    witness, aborted = _search_levels(session, levels)
    return _verdict(session, witness, budget, params, aborted)
