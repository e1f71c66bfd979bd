"""Connectedness testers over partially erased graphs.

Four randomized testers share one BFS primitive, `bfs_until`: a search from
one vertex under a vertex or entry cap. They also share one search runner,
`_search_levels`, which samples start vertices level by level and stops at
the first witness or when the budget is spent; they differ only in the level
schedule, the caps, the witness they look for and the budget they set:

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

import functools
import itertools
import math
import sys
from dataclasses import dataclass

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


@dataclass(slots=True)
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


# The cap a search does not have: above any count of vertices or entries.
# An int, since comparing or subtracting ints and a float costs more.
_UNCAPPED = sys.maxsize


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
    kind = type(stop)
    if kind is VertexCap:
        vertex_cap, entry_cap = stop.limit, _UNCAPPED
    elif kind is EdgeCap:
        vertex_cap, entry_cap = _UNCAPPED, stop.limit
    else:
        raise TypeError(f"stop must be a VertexCap or an EdgeCap, not {kind.__name__}")
    degree, neighbor = session.degree, session.neighbor
    explored = {start}
    lists = {}
    queue = [start]
    scanned = erasures = 0
    budget_hit = False
    truncated = vertex_cap <= 1
    try:
        # The list iterator also reaches the vertices appended while it runs.
        for u in queue:
            if truncated or scanned >= entry_cap:
                truncated = True
                break
            if start_degree is None:
                deg = degree(u)
            else:
                deg, start_degree = start_degree, None
            # The entry cap ends the row after `room` entries.
            room = entry_cap - scanned
            row = []
            lists[u] = row
            for i in range(1, (deg if deg <= room else room) + 1):
                e = neighbor(u, i)
                row.append(e)
                if e is ERASED:
                    erasures += 1
                    if halt_on_erasure:
                        truncated = True
                        break
                elif e not in explored:
                    explored.add(e)
                    queue.append(e)
                    if len(explored) >= vertex_cap:
                        truncated = True
                        break
            scanned += len(row)
            if deg > room:
                truncated = True
    except BudgetExhausted:
        truncated = budget_hit = True
        # Count the entries of the row the budget cut short too.
        scanned = sum(map(len, lists.values()))
    return BfsOutcome(
        session.graph.num_vertices, explored, lists, scanned, erasures,
        not truncated, truncated, budget_hit,
    )


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
    aborted: bool = False

    @property
    def rejected(self):
        return not self.accepted


# Every trial reads its tester's plan and every search builds a cap, so both
# are memoised. Plans are tuples and caps frozen, so sharing them is safe;
# the bound keeps a long-running process from growing the memos without end.
_memo = functools.lru_cache(maxsize=1024)


@_memo
def small_alpha_plan(epsilon, alpha, davg):
    """The small-alpha tester's plan. -> (b, vertex_case, schedule).

    b = 2 / ((eps - 2*alpha) * davg) bounds the average witness size. The
    vertex-capped searches apply when b <= davg * log2(b) (ties included).
    The schedule holds (level, reps) for levels 1..ceil(log2(4b)), with
    reps = ceil(4b ln6 / 2^i).
    """
    b = 2.0 / ((epsilon - 2 * alpha) * davg)
    t = max(1, math.ceil(math.log2(4 * b)))
    schedule = tuple((i, math.ceil(4 * b * LN6 / 2**i)) for i in range(1, t + 1))
    return b, b <= davg * math.log2(b), schedule


@_memo
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


def _search_levels(session, levels, stop, detect, halt_on_erasure=True):
    """Run the capped searches of a level schedule. -> (witness, aborted).

    levels yields (i, reps): at level i, reps searches each start from a
    uniform vertex v, charge deg(v) and run under the cap stop(i, deg(v)).
    The run stops at the first witness `detect` finds, or aborts with no
    witness once the session's budget is spent. deg(v) is charged after the
    budget check, which leaves room for it in a "both" budget.
    """
    random_vertex, degree = session.random_vertex, session.degree
    for i, reps in levels:
        for _ in range(reps):
            if session.exhausted:
                return None, True
            v = random_vertex()
            d = degree(v)
            out = bfs_until(session, v, stop(i, d), halt_on_erasure, d)
            if out.budget_hit:
                return None, True
            witness = detect(out)
            if witness is not None:
                return witness, False
    return None, False


@_memo
def _level_entry_cap(i, d):
    return EdgeCap(2 ** (i - 1) * d + 1)


@_memo
def _level_vertex_cap(i, d):
    return VertexCap(2**i + 1)


def _verdict(session, witness, cap, aborted=False):
    return TesterVerdict(
        accepted=witness is None,
        witness=witness,
        degree_queries=session.degree_queries,
        neighbor_queries=session.neighbor_queries,
        cap=cap,
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
    _, vertex_case, schedule = small_alpha_plan(cfg.epsilon, cfg.alpha, cfg.davg)
    cap = small_alpha_query_cap(cfg.epsilon, cfg.alpha, cfg.davg)
    session = QuerySession(g, seed=cfg.seed, budget=cap, budget_counts="both")
    stop = _level_vertex_cap if vertex_case else _level_entry_cap
    witness, aborted = _search_levels(session, schedule, stop, detect_plain_witness)
    return _verdict(session, witness, cap, aborted)


@_memo
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
    _, reps, qcap = mid_alpha_plan(cfg.epsilon, cfg.alpha, cfg.davg)
    session = QuerySession(g, seed=cfg.seed)
    cap = EdgeCap(qcap)
    witness, _ = _search_levels(
        session, ((1, reps),), lambda i, d: cap, detect_generalized_witness, halt_on_erasure=False,
    )
    return _verdict(session, witness, None)


@_memo
def _no_erasure_schedule(epsilon, davg):
    """The no-erasure tester's schedule: (level, reps) for levels 1..t.

    t = ceil(log2(8 / (eps * davg))), at least 1, and reps = ceil(2^(t-i) ln 6).
    """
    t = max(1, math.ceil(math.log2(8 / (epsilon * davg))))
    return tuple((i, math.ceil(2 ** (t - i) * LN6)) for i in range(1, t + 1))


def tester_no_erasures(g, cfg):
    """Connectedness tester for graphs promised to have no erasures."""
    if cfg.alpha != 0:
        raise ValueError("this tester requires alpha = 0")
    _check_known_davg_params(cfg.epsilon, 0.0, cfg.davg, 1.0)
    session = QuerySession(g, seed=cfg.seed)
    levels = _no_erasure_schedule(cfg.epsilon, cfg.davg)
    witness, _ = _search_levels(session, levels, _level_entry_cap, detect_plain_witness)
    return _verdict(session, witness, None)


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
    budget = unknown_davg_budget(epsilon - 2 * alpha)
    session = QuerySession(g, seed=seed, budget=budget, budget_counts="neighbor")
    if g.num_vertices == 1:
        return _verdict(session, None, budget)
    levels = (
        (i, math.ceil(2 ** max(t - i - 1, 0) * LN6))
        for t in itertools.count(1)
        for i in range(1, t + 1)
    )
    witness, aborted = _search_levels(session, levels, _level_entry_cap, detect_plain_witness)
    return _verdict(session, witness, budget, aborted)
