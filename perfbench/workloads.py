"""The benchmark's workloads: input set-up, measured CLI jobs, output checks.

Every input is made by the real CLI (`gen`, `erase`) from the workload seed,
and every measured job is one `test-conn`, `estimate` or `exact` invocation.
A check returns one failure message (or None) per trial of a job; the
workload-level rate checks return problem strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

# Thresholds the acceptance criteria already require (criteria 2, 3 and 9).
MIN_REJECT_RATE = 0.6
MIN_IN_RANGE_RATE = 0.6

SIZES = {
    "full": {
        "conn_n": 50_000,
        "conn_trials": {"0.1": 100, "0.2": 300},
        "conn_budget_trials": 10,
        "far_n": 100_000,
        "far_trials": 500,
        "est_n": 1200,
        "est_trials": 1,
        "gminus_dist_k": (4, 6, 8, 10, 12),
        "gminus_report_k": (6, 8, 10),
        "gplus_k": (4, 8, 12),
        "forest_n": (80, 120),
    },
    "tiny": {
        "conn_n": 2000,
        "conn_trials": {"0.1": 5, "0.2": 15},
        "conn_budget_trials": 2,
        "far_n": 2000,
        "far_trials": 20,
        "est_n": 100,
        "est_trials": 1,
        "gminus_dist_k": (4, 6),
        "gminus_report_k": (4,),
        "gplus_k": (4,),
        "forest_n": (80,),
    },
}


@dataclass
class Job:
    """One measured CLI invocation on one input file."""

    kind: str  # "test-conn" | "estimate" | "exact"
    graph: str  # input file name in the work directory
    args: list
    trials: int
    check: dict

    @property
    def label(self):
        return " ".join([self.kind, self.graph] + self.args)


@dataclass
class Workload:
    setup: list  # CLI argv lists that write the input files
    inputs: list  # file names the set-up writes
    jobs: list


def _gen(family, out, seed, **params):
    argv = ["gen", "--family", family]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv + ["--seed", str(seed), "--out", out]


def _tester_job(graph, algo, eps, alpha, trials, seed, expect):
    args = ["--algo", algo, "--eps", eps, "--alpha", alpha, "--trials", str(trials)]
    args += ["--seed", str(seed), "--timings"]
    check = {"expect": expect, "algo": algo, "eps": float(eps), "alpha": float(alpha)}
    return Job("test-conn", graph, args, trials, check)


def conn_accept(seed, z):
    """Connected graphs, one of them with 2% uniform erasures: no tester may reject."""
    setup = [
        _gen("connected", "conn.peg", seed, n=z["conn_n"], davg=3),
        ["erase", "--graph", "conn.peg", "--alpha", "0.02", "--strategy", "uniform",
         "--seed", str(seed + 1), "--out", "conn-erased.peg"],
    ]
    jobs = []
    for graph, alpha, algos in (
        ("conn.peg", "0", ("small-alpha", "mid-alpha", "no-erasure", "unknown-davg")),
        ("conn-erased.peg", "0.02", ("small-alpha", "mid-alpha", "unknown-davg")),
    ):
        for eps in ("0.1", "0.2"):
            for algo in algos:
                trials = z["conn_budget_trials"] if algo == "unknown-davg" else z["conn_trials"][eps]
                jobs.append(_tester_job(graph, algo, eps, alpha, trials, seed, "accept"))
    return Workload(setup, ["conn.peg", "conn-erased.peg"], jobs)


def far_reject(seed, z):
    """Certified far-from-connected forests: every tester should reject quickly."""
    n = z["far_n"]
    variants = (
        ("far-uniform.peg", "0.05", "uniform", ("small-alpha", "mid-alpha")),
        ("far-hidden.peg", "0.15", "component-hiding", ("mid-alpha",)),
        ("far-clean.peg", "0", "uniform", ("no-erasure", "unknown-davg")),
    )
    setup, jobs = [], []
    for i, (graph, alpha, strategy, algos) in enumerate(variants):
        setup.append(_gen("far-forest", graph, seed + i, eps="0.2", alpha=alpha, strategy=strategy, n=n))
        for algo in algos:
            jobs.append(_tester_job(graph, algo, "0.2", alpha, z["far_trials"], seed, "reject"))
    return Workload(setup, [v[0] for v in variants], jobs)


def estimate(seed, z):
    """Average-degree estimation at the analyzed conforming coefficients (660/12/4)."""
    setup = [
        _gen("regularish", "regular.peg", seed, n=z["est_n"], davg=3),
        ["erase", "--graph", "regular.peg", "--alpha", "0.3", "--strategy", "uniform",
         "--seed", str(seed + 1), "--out", "regular-erased.peg"],
    ]
    jobs = [
        Job(
            "estimate",
            graph,
            ["--eps", "0.45", "--trials", str(z["est_trials"]), "--seed", str(seed), "--timings"],
            z["est_trials"],
            {"eps": 0.45},
        )
        for graph in ("regular.peg", "regular-erased.peg")
    ]
    return Workload(setup, ["regular.peg", "regular-erased.peg"], jobs)


def exact_oracle(seed, z):
    """Brute-force oracles on the hub families and on small far-from-connected forests."""
    setup, inputs, jobs = [], [], []

    def add_input(argv):
        setup.append(argv)
        inputs.append(argv[-1])
        return argv[-1]

    def exact_job(graph, what, **check):
        args = ["--what", what, "--slot-bound", "80"]
        if what == "exp-chi":
            args += ["--dhat", "2", "--eps", "1/4"]
        jobs.append(Job("exact", graph, args, 1, {"what": what, **check}))

    for k in sorted(set(z["gminus_dist_k"]) | set(z["gminus_report_k"])):
        g = add_input(_gen("gminus", f"gminus-{k}.peg", seed + k, eps="1/7", k=k))
        if k in z["gminus_dist_k"]:
            exact_job(g, "distance-conn", dist_eq=Fraction(1, 7))
        if k in z["gminus_report_k"]:
            exact_job(g, "report", dist_eq=Fraction(1, 7))
    for k in z["gplus_k"]:
        g = add_input(_gen("gplus", f"gplus-{k}.peg", seed + k, eps="1/7", k=k))
        exact_job(g, "distance-conn", dist_eq=Fraction(0))
        exact_job(g, "report", dist_eq=Fraction(0))
    for n in z["forest_n"]:
        for i, (alpha, strategy) in enumerate((("0", "uniform"), ("0.05", "uniform"), ("0.15", "component-hiding"))):
            g = add_input(
                _gen("far-forest", f"forest-{n}-{i}.peg", seed + n + i, eps="0.2", alpha=alpha, strategy=strategy, n=n)
            )
            exact_job(g, "distance-conn", dist_ge=Fraction(1, 5))
            exact_job(g, "witnesses")
            exact_job(g, "report", dist_ge=Fraction(1, 5))
            exact_job(g, "exp-chi")
    return Workload(setup, inputs, jobs)


WORKLOADS = {
    "conn-accept": conn_accept,
    "far-reject": far_reject,
    "estimate": estimate,
    "exact-oracle": exact_oracle,
}


# ---------------------------------------------------------------------------
# Checks. `info` holds each input graph, loaded once per run, with the
# properties computed once: never per trial, since each is an O(n) sum.
# ---------------------------------------------------------------------------


def graph_info(g):
    entries = g.num_entries
    return {
        "g": g,
        "entries": entries,
        "davg": entries / g.num_vertices,
        "davg_exact": Fraction(entries, g.num_vertices),
        "alpha": Fraction(g.erased_total, entries) if entries else Fraction(0),
    }


def _witness_problem(pk, g, vertices, kind, anchor=None):
    """Re-check a witness against the graph; None when it certifies."""
    W = frozenset(vertices)
    if not W or len(W) >= g.num_vertices:
        return f"{kind} witness of size {len(W)} is not a proper subset"
    start = min(W) if anchor is None else anchor
    if pk.exact.reach_listed(g, start) != W:
        return f"{kind} witness is not the reachable set of {start}"
    erasures = sum(g.erased_count(v) for v in W)
    if erasures > (0 if kind == "plain" else 1):
        return f"{kind} witness holds {erasures} erasures"
    return None


def _rerun_tester(pk, g, check, davg, seed):
    conn = pk.connectedness
    if check["algo"] == "unknown-davg":
        return conn.tester_unknown_davg(g, check["eps"], seed, check["alpha"])
    fn = {
        "small-alpha": conn.tester_small_alpha,
        "mid-alpha": conn.tester_mid_alpha,
        "no-erasure": conn.tester_no_erasures,
    }[check["algo"]]
    return fn(g, conn.ConnTesterConfig(check["eps"], check["alpha"], davg, seed))


def check_test_conn(pk, job, payload, info):
    """Per-trial failures of one test-conn job; reruns rejects to re-check witnesses."""
    conn = pk.connectedness
    c = job.check
    g, davg = info["g"], info["davg"]
    cap = budget = None
    if c["algo"] == "small-alpha":
        cap = conn.small_alpha_query_cap(c["eps"], c["alpha"], davg)
    if c["algo"] == "unknown-davg":
        budget = conn.unknown_davg_budget(c["eps"] - 2 * c["alpha"])
    out = []
    for row in payload["trials"]:
        problem = None
        if cap is not None and row["degree_queries"] + row["neighbor_queries"] > cap:
            problem = f"{row['degree_queries'] + row['neighbor_queries']} queries above cap {cap}"
        elif budget is not None and row["neighbor_queries"] > budget:
            problem = f"{row['neighbor_queries']} neighbor queries above budget {budget}"
        elif row["result"] == "reject" and c["expect"] == "accept":
            problem = "rejected a graph with a connected completion"
        elif row["result"] == "reject":
            v = _rerun_tester(pk, g, c, davg, row["seed"])
            seen = ("reject" if v.rejected else "accept", v.witness.kind if v.witness else "",
                    v.degree_queries, v.neighbor_queries)
            want = (row["result"], row["witness_kind"], row["degree_queries"], row["neighbor_queries"])
            if seen != want:
                problem = f"library rerun gives {seen}, CLI gave {want}"
            else:
                w = v.witness
                problem = _witness_problem(pk, g, w.vertices, w.kind, w.anchor)
        out.append(problem)
    return out


def check_estimate(job, payload, info):
    """Per-trial range misses; a miss is a quality figure, not a failed trial."""
    d, eps, alpha = info["davg"], job.check["eps"], float(info["alpha"])
    lo, hi = (1 - eps) * d, (1 + eps) * d + 2 * alpha * d
    out = []
    for row in payload["trials"]:
        out.append(None if lo <= row["value"] <= hi else f"estimate {row['value']} outside [{lo}, {hi}]")
    return out


def check_exact(pk, job, stdout, info):
    """One-element failure list for one exact invocation."""
    try:
        return [_exact_problem(pk, job.check, stdout.strip(), info)]
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable {job.check['what']} output: {exc!r}"]


def _exact_problem(pk, c, text, info):
    g = info["g"]
    if c["what"] == "exp-chi":
        value = Fraction(text)
        davg, alpha = info["davg_exact"], info["alpha"]
        upper = (1 + 2 * min(alpha, Fraction(1, 2))) * davg / 2
        lower = (1 - Fraction(1, 8)) * davg / 2
        return None if lower < value <= upper else f"exp-chi {value} outside ({lower}, {upper}]"
    if c["what"] == "distance-conn":
        value = Fraction(text)
    else:
        out = json.loads(text)
        if c["what"] == "report":
            if not out["exhaustive"] or out["completions_count"] < 1:
                return "report is not an exhaustive non-empty enumeration"
            value = Fraction(out["distance_to_connectedness"])
        for W in out.get("plain", out.get("plain_witnesses", [])):
            problem = _witness_problem(pk, g, W, "plain")
            if problem:
                return problem
        for entry in out.get("generalized", out.get("generalized_witnesses", [])):
            for a in entry["anchors"]:
                problem = _witness_problem(pk, g, entry["vertices"], "generalized", a)
                if problem:
                    return problem
    if "dist_eq" in c and value != c["dist_eq"]:
        return f"distance {value}, known value {c['dist_eq']}"
    if "dist_ge" in c and not value >= c["dist_ge"]:
        return f"distance {value} below eps {c['dist_ge']}"
    return None
