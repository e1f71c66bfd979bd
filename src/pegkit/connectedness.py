"""Connectedness testers over partially erased graphs.

Each tester is a `TesterPlan`: a level schedule, the cap of each search, the
witness it looks for and its budget. `run_plan` runs any plan: level by level
it starts `bfs_until`, a BFS under a `VertexCap` or an `EdgeCap`, from uniform
vertices and stops at the first witness or when the budget is spent. The
plans:

  small_alpha_plan   known average degree, erasure fraction below eps/2;
                     a hard query cap at six times the schedule's cost.
  no_erasure_plan    known average degree, no erasures; no budget.
  unknown_davg_plan  average degree unknown; a doubling schedule under a
                     fixed neighbor-query budget.
  mid_alpha_plan     known average degree, erasure fraction below eps;
                     single searches under one entry cap that look for
                     generalized witnesses (at most one erasure).

All four have 1-sided error: a graph with a connected completion is never
rejected. A reject always carries the witness that certifies every
completion disconnected.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
from dataclasses import dataclass, replace

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
    budget-exhausted session shows up as an outcome that did not close, with
    budget_hit set.

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
        not truncated, budget_hit,
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
# are memoised. Both are frozen, so sharing them is safe; the bound keeps a
# long-running process from growing the memos without end.
_memo = functools.lru_cache(maxsize=1024)


def _plan_builder(build):
    """Memoise a plan builder.

    Parameters whose schedule is not finite (eps * davg underflows to 0, or
    a bound or a count overflows) raise a ValueError that names them, as
    `build`'s signature does.
    """
    signature = inspect.signature(build)

    @_memo
    @functools.wraps(build)
    def checked(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ArithmeticError:
            given = signature.bind(*args, **kwargs).arguments.items()
            named = ", ".join(f"{name} {value}" for name, value in given)
            raise ValueError(f"{named}: the tester's schedule is not finite") from None

    return checked


@dataclass(frozen=True)
class TesterPlan:
    """A tester's work-investment schedule, as `run_plan` runs it.

    levels: re-iterable (i, reps) pairs, reps searches at level i; stop(i, d)
    caps a level-i search from a vertex of degree d; generalized searches scan
    past erasures for generalized witnesses, plain ones halt at the first
    erasure; a run that spends the budget (None for none) on `budget_counts`
    queries aborts and accepts. A plan holds no detector function, so that a
    wrapper set on the module later still sees every search.
    """

    levels: object
    stop: object
    generalized: bool = False
    budget: "int | None" = None
    budget_counts: str = "both"


def _check_known_davg_params(epsilon, alpha, davg, alpha_limit_factor):
    if davg is None or davg <= 0:
        raise ValueError("average degree must be a positive number")
    if not 0 < epsilon < 2 / davg:
        raise ValueError(f"epsilon must lie in (0, 2/davg) = (0, {2 / davg})")
    if not 0 <= alpha < epsilon * alpha_limit_factor:
        raise ValueError(f"alpha must lie in [0, {epsilon * alpha_limit_factor})")


@_memo
def _level_entry_cap(i, d):
    return EdgeCap(2 ** (i - 1) * d + 1)


@_memo
def _level_vertex_cap(i, d):
    return VertexCap(2**i + 1)


@_plan_builder
def small_alpha_plan(epsilon, alpha, davg):
    """The small-alpha tester's plan, once its parameters pass their check.

    b = 2 / ((eps - 2*alpha) * davg) bounds the average witness size. Levels
    1..ceil(log2(4b)) run ceil(4b ln6 / 2^i) searches, vertex-capped at a cost
    of 4^i each when b <= davg * log2(b) (ties included), else entry-capped at
    2^i * davg each; the degree and neighbor queries are capped at six times
    the schedule's cost.
    """
    _check_known_davg_params(epsilon, alpha, davg, 0.5)
    b = 2.0 / ((epsilon - 2 * alpha) * davg)
    t = max(1, math.ceil(math.log2(4 * b)))
    levels = tuple((i, math.ceil(4 * b * LN6 / 2**i)) for i in range(1, t + 1))
    if b <= davg * math.log2(b):
        stop, expected = _level_vertex_cap, sum(reps * 4**i for i, reps in levels)
    else:
        stop, expected = _level_entry_cap, sum(reps * 2**i * davg for i, reps in levels)
    return TesterPlan(levels, stop, budget=math.ceil(6 * expected))


def small_alpha_query_cap(epsilon, alpha, davg):
    """Hard cap: six times the closed-form expected cost of the active case."""
    return small_alpha_plan(epsilon, alpha, davg).budget


@_plan_builder
def mid_alpha_plan(epsilon, alpha, davg):
    """The mid-alpha tester's plan, once its parameters pass their check.

    b = 4 / ((eps - alpha) * davg); one level of ceil(b ln 3) searches for
    generalized witnesses, each under the entry cap floor(min(b^2, b*davg)).
    The cap is floored with a 1e-12 relative slack so caps that are integral
    up to floating-point noise land on the integer.
    """
    _check_known_davg_params(epsilon, alpha, davg, 1.0)
    b = 4.0 / ((epsilon - alpha) * davg)
    cap = EdgeCap(max(1, math.floor(min(b * b, b * davg) * (1 + 1e-12))))
    return TesterPlan(((1, math.ceil(b * LN3)),), lambda i, d: cap, generalized=True)


@_plan_builder
def no_erasure_plan(epsilon, davg):
    """The no-erasure tester's plan, once its parameters pass their check.

    Levels 1..t, with t = ceil(log2(8 / (eps * davg))) and at least 1, run
    reps = ceil(2^(t-i) ln 6) entry-capped searches each, under no budget.
    """
    _check_known_davg_params(epsilon, 0.0, davg, 1.0)
    t = max(1, math.ceil(math.log2(8 / (epsilon * davg))))
    levels = tuple((i, math.ceil(2 ** (t - i) * LN6)) for i in range(1, t + 1))
    return TesterPlan(levels, _level_entry_cap)


def unknown_davg_budget(epsilon):
    """Neighbor-query budget ceil((350/eps) * log2(16/eps))."""
    return math.ceil(
        (UNKNOWN_DAVG_BUDGET_FACTOR / epsilon) * math.log2(UNKNOWN_DAVG_LOG_ARG / epsilon)
    )


class _DoublingLevels:
    """No-erasure schedules of t = 1, 2, ... levels, endless; each iteration starts over."""

    def __iter__(self):
        for t in itertools.count(1):
            for i in range(1, t + 1):
                yield i, math.ceil(2 ** max(t - i - 1, 0) * LN6)


@_plan_builder
def unknown_davg_plan(epsilon, alpha):
    """The unknown-davg tester's plan, once its parameters pass their check.

    The doubling schedule runs under a fixed neighbor-query budget. With
    alpha > 0 the budget uses eps - 2*alpha; the budget constants are kept
    unchanged from the known-degree-free analysis for the erasure-free case.
    """
    if not (0 < epsilon < 1 and 0 <= alpha < epsilon / 2):
        raise ValueError("need 0 < epsilon < 1 and 0 <= alpha < epsilon/2")
    budget = unknown_davg_budget(epsilon - 2 * alpha)
    return TesterPlan(_DoublingLevels(), _level_entry_cap, budget=budget, budget_counts="neighbor")


def _search_levels(session, plan):
    """Run the capped searches of a plan's schedule. -> (witness, aborted).

    Each level-i search starts from a uniform vertex v, charges deg(v) after
    the budget check (which leaves room for it in a "both" budget) and runs
    under the cap plan.stop(i, deg(v)). The run stops at the first witness,
    or aborts with none once the budget is spent. `bfs_until` and the
    detector are module globals read on each call, for module wrappers.
    """
    random_vertex, degree = session.random_vertex, session.degree
    stop, halt_on_erasure = plan.stop, not plan.generalized
    detect = detect_generalized_witness if plan.generalized else detect_plain_witness
    for i, reps in plan.levels:
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


def run_plan(g, plan, seed):
    """One trial: run `plan` on g in a fresh session seeded with `seed`."""
    session = QuerySession(g, seed=seed, budget=plan.budget, budget_counts=plan.budget_counts)
    witness, aborted = _search_levels(session, plan)
    queries = session.degree_queries, session.neighbor_queries
    return TesterVerdict(witness is None, witness, *queries, plan.budget, aborted)


def tester_small_alpha(g, cfg):
    """Connectedness tester for erasure fractions below eps/2: rejects on an
    erasure-free component it fully explores, aborts and accepts at its cap."""
    return run_plan(g, small_alpha_plan(cfg.epsilon, cfg.alpha, cfg.davg), cfg.seed)


def tester_mid_alpha(g, cfg):
    """Connectedness tester for erasure fractions below eps: rejects on a
    generalized witness (at most one erasure) that a search fully explores."""
    return run_plan(g, mid_alpha_plan(cfg.epsilon, cfg.alpha, cfg.davg), cfg.seed)


def tester_no_erasures(g, cfg):
    """Connectedness tester for graphs promised to have no erasures."""
    if cfg.alpha != 0:
        raise ValueError("this tester requires alpha = 0")
    return run_plan(g, no_erasure_plan(cfg.epsilon, cfg.davg), cfg.seed)


def tester_unknown_davg(g, epsilon, seed=0, alpha=0.0):
    """Connectedness tester that does not need the average degree: the
    no-erasure search under a doubling schedule until it rejects or spends its
    budget (abort means accept, keeping the error 1-sided)."""
    plan = unknown_davg_plan(epsilon, alpha)
    if g.num_vertices == 1:
        # No proper subset to find, and no neighbor query to end the schedule.
        plan = replace(plan, levels=())
    return run_plan(g, plan, seed)
