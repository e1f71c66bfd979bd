"""Traced mode: wraps pegkit's public functions from outside the package.

Nothing under src/ is edited. The wrappers replace module and class
attributes for the duration of a `traced(...)` block and restore them on
exit. This works because the CLI reaches every layer through a module or
class attribute looked up at call time: `connectedness.<tester>`,
`avg_degree.estimate_avg_degree`, `exact.<oracle>`, and the testers in turn
look up `bfs_until`, `detect_*_witness`, `refine_estimate`, `validate` and
`components` as module globals.

Coarse calls (one CLI invocation, one tester trial, one BFS, one refinement,
one completion enumeration, generator and erase calls) each record a span:
name, start, end, parent span and trial id. The per-query calls
(`QuerySession.degree/neighbor`, `PartiallyErasedGraph.degree/neighbor`) run
hundreds of millions of times on estimator-sized runs, so every wrapped
function keeps only aggregate counts and busy time, and memory stays flat.
Self time is kept per layer label: entering a wrapped function pauses the
caller's clock.
"""

from __future__ import annotations

import builtins
import csv
import gzip
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

_pc = time.perf_counter


class Tracer:
    """Spans held in memory plus per-function aggregates and per-layer self time."""

    def __init__(self, clock_origin):
        self.origin = clock_origin
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_trial = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = []
        self.trial = -1
        self._next_trial = 0
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.raised = Counter()
        self.stats = defaultdict(float)  # sums gathered by result hooks
        self.self_s = defaultdict(float)
        self.layer = "bench"
        self._layers = []
        self._mark = _pc()

    def _span_open(self, key, t0):
        sid = len(self.span_start)
        name_id = self._name_ids.get(key)
        if name_id is None:
            name_id = self._name_ids[key] = len(self.names)
            self.names.append(key)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_trial.append(self.trial)
        self.span_start.append(t0)
        self.span_end.append(t0)
        self._open.append(sid)
        return sid

    def wrap(self, fn, key, layer, span=False, new_trial=False, after=None):
        """Return fn wrapped to count calls, busy time and self time under `layer`."""
        tr = self
        calls, busy, raised, self_s, layers = self.calls, self.busy, self.raised, self.self_s, self._layers

        def wrapper(*args, **kwargs):
            if new_trial:
                outer_trial = tr.trial
                tr.trial = tr._next_trial
                tr._next_trial += 1
            t0 = _pc()
            self_s[tr.layer] += t0 - tr._mark
            tr._mark = t0
            layers.append(tr.layer)
            tr.layer = layer
            if span:
                sid = tr._span_open(key, t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[key] += 1
                raise
            finally:
                t1 = _pc()
                self_s[layer] += t1 - tr._mark
                tr._mark = t1
                tr.layer = layers.pop()
                calls[key] += 1
                busy[key] += t1 - t0
                if span:
                    tr._open.pop()
                    tr.span_end[sid] = t1
                if new_trial:
                    tr.trial = outer_trial
            if after is not None:
                after(tr.stats, args, kwargs, result)
                t2 = _pc()
                self_s["trace"] += t2 - t1
                tr._mark = t2
            return result

        return wrapper

    def close(self):
        now = _pc()
        self.self_s[self.layer] += now - self._mark
        self._mark = now

    def span_count(self):
        return len(self.span_start)

    def write_spans(self, path, id_offset=0):
        """Append spans as gzip CSV: id,name,parent,trial,start_us,dur_us."""
        with gzip.open(path, "at", newline="") as fh:
            w = csv.writer(fh)
            for i in range(len(self.span_start)):
                parent = self.span_parent[i]
                w.writerow(
                    (
                        i + id_offset,
                        self.names[self.span_name[i]],
                        parent + id_offset if parent >= 0 else -1,
                        self.span_trial[i],
                        round((self.span_start[i] - self.origin) * 1e6, 1),
                        round((self.span_end[i] - self.span_start[i]) * 1e6, 1),
                    )
                )
        return len(self.span_start)


# -- result hooks: record what a call returned, outside its timed interval --


def _entries_in_graph_arg(key):
    def hook(stats, args, kwargs, result):
        stats[key] += args[0].num_entries

    return hook


def _parsed(stats, args, kwargs, g):
    stats["graph.parse.entries"] += g.num_entries


def _bfs_outcome(stats, args, kwargs, out):
    stats["bfs.entries"] += out.entries_scanned
    stats["bfs.closed"] += out.closed
    stats["bfs.budget_hit"] += out.budget_hit


def _verdict(algo):
    def hook(stats, args, kwargs, v):
        stats[f"tester.{algo}.trials"] += 1
        stats[f"tester.{algo}.queries"] += v.degree_queries + v.neighbor_queries
        stats["tester.aborted"] += v.aborted

    return hook


def _refined(stats, args, kwargs, est):
    stats["refine.samples"] += est.samples


def _estimated(stats, args, kwargs, est):
    stats["estimate.samples"] += est.samples
    stats["estimate.level"] += -1 if est.iteration is None else est.iteration


def _bulk(stats, args, kwargs, result):
    names = ("degree", "neighbor")
    for name, value in zip(names, args[1:]):
        stats[f"bulk.{name}"] += value
    for name in names:
        stats[f"bulk.{name}"] += kwargs.get(name, 0)


def _enumerated(stats, args, kwargs, cs):
    stats["exact.completions"] += len(cs)


TESTERS = {
    "tester_small_alpha": "small-alpha",
    "tester_mid_alpha": "mid-alpha",
    "tester_no_erasures": "no-erasure",
    "tester_unknown_davg": "unknown-davg",
}


def _targets(pk):
    """(owner, attribute, key, layer label, wrap options) for every traced call."""
    cli, graph, oracle, conn = pk.cli, pk.graph, pk.oracle, pk.connectedness
    avg, exact, inst = pk.avg_degree, pk.exact, pk.instances
    G, QS = graph.PartiallyErasedGraph, oracle.QuerySession
    validate_hook = {"after": _entries_in_graph_arg("graph.validate.entries")}
    t = [
        (cli, "main", "cli.main", "cli", {"span": True, "new_trial": True}),
        (cli, "load_peg", "cli.load", "graph", {"span": True}),
        (cli, "save_peg", "cli.save", "graph", {"span": True}),
        (cli, "_write_rows", "cli.write", "cli", {"span": True}),
        (cli, "print", "cli.print", "cli", {}),
        (cli, "validate", "graph.validate", "graph", validate_hook),
        (exact, "validate", "graph.validate", "graph", validate_hook),
        (graph, "parse_peg", "graph.parse", "graph", {"after": _parsed}),
        (graph, "format_peg", "graph.format", "graph", {"after": _entries_in_graph_arg("graph.format.entries")}),
        (G, "degree", "graph.degree", "graph", {}),
        (G, "neighbor", "graph.neighbor", "graph", {}),
        (G, "flat_adjacency", "graph.flat_adjacency", "graph", {}),
        (inst, "generate", "instances.generate", "instances", {"span": True}),
        (inst, "erase", "instances.erase", "instances", {"span": True}),
        (QS, "__init__", "oracle.session_init", "oracle", {}),
        (QS, "degree", "oracle.degree", "oracle", {}),
        (QS, "neighbor", "oracle.neighbor", "oracle", {}),
        (QS, "random_vertex", "oracle.random_vertex", "oracle", {}),
        (QS, "charge_bulk", "oracle.charge_bulk", "oracle", {"after": _bulk}),
        (conn, "bfs_until", "connectedness.bfs", "connectedness.bfs", {"span": True, "after": _bfs_outcome}),
        (conn, "detect_plain_witness", "connectedness.witness", "connectedness.witness", {}),
        (conn, "detect_generalized_witness", "connectedness.witness", "connectedness.witness", {}),
        (avg, "estimate_avg_degree", "avg_degree.estimate", "avg_degree.search",
         {"span": True, "new_trial": True, "after": _estimated}),
        (avg, "refine_estimate", "avg_degree.refine", "avg_degree.refine", {"span": True, "after": _refined}),
        (exact, "distance_to_connectedness", "exact.distance", "exact", {}),
        (exact, "exact_report", "exact.report", "exact", {}),
        (exact, "enumerate_completions", "exact.enumerate", "exact", {"span": True, "after": _enumerated}),
        (exact, "components", "exact.components", "exact", {}),
        (exact, "inventory_witnesses", "exact.inventory", "exact", {}),
        (exact, "exact_exp_chi", "exact.exp_chi", "exact", {}),
    ]
    for fname, algo in TESTERS.items():
        t.append(
            (conn, fname, "connectedness.tester", "connectedness.tester",
             {"span": True, "new_trial": True, "after": _verdict(algo)})
        )
    return t


@contextmanager
def traced(pk, clock_origin):
    """Install the wrappers on the pegkit modules in `pk`; restore them on exit."""
    tr = Tracer(clock_origin)
    saved = []
    try:
        for owner, attr, key, layer, opts in _targets(pk):
            own = vars(owner)
            orig = own[attr] if attr in own else getattr(builtins, attr)
            saved.append((owner, attr, attr in own, orig))
            setattr(owner, attr, tr.wrap(orig, key, layer, **opts))
        yield tr
    finally:
        for owner, attr, had, orig in reversed(saved):
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        tr.close()


def _per(num, den, scale=1.0):
    return num * scale / den if den else None


def layer_metrics(setup, rnd, check, overhead_frac, bytes_per_entry):
    """Per-layer metrics as {name: (value or None, unit)}; None means not exercised.

    `setup` traced the input generation, `rnd` one measured round of CLI
    jobs, and `check` the CLI validation of every input file. Counts are
    totals over the round.
    """
    c, b, s, st = rnd.calls, rnd.busy, rnd.stats, rnd.self_s
    answered_deg = c["oracle.degree"] - rnd.raised["oracle.degree"]
    answered_nbr = c["oracle.neighbor"] - rnd.raised["oracle.neighbor"]
    trials = c["connectedness.tester"]
    bfs = c["connectedness.bfs"]
    estimates = c["avg_degree.estimate"]
    validate_s = b["graph.validate"] + check.busy["graph.validate"]
    validate_n = s["graph.validate.entries"] + check.stats["graph.validate.entries"]
    m = {
        "cli.load_s": (_per(b["cli.load"], c["cli.load"]), "s"),
        "cli.write_ms": (_per(b["cli.write"] + b["cli.print"], c["cli.main"], 1e3), "ms"),
        "graph.parse_ns_per_entry": (_per(b["graph.parse"], s["graph.parse.entries"], 1e9), "ns"),
        "graph.format_ns_per_entry": (
            _per(setup.busy["graph.format"], setup.stats["graph.format.entries"], 1e9),
            "ns",
        ),
        "graph.validate_ns_per_entry": (_per(validate_s, validate_n, 1e9), "ns"),
        "graph.bytes_per_entry": (bytes_per_entry, "B"),
        "graph.neighbor_calls": (c["graph.neighbor"], "count"),
        "graph.neighbor_ns": (_per(b["graph.neighbor"], c["graph.neighbor"], 1e9), "ns"),
        "graph.flat_adjacency_s": (
            _per(b["graph.flat_adjacency"], c["cli.main"]) if c["graph.flat_adjacency"] else None,
            "s",
        ),
        "instances.gen_s": (_per(setup.busy["instances.generate"], setup.calls["instances.generate"]), "s"),
        "instances.erase_s": (_per(setup.busy["instances.erase"], setup.calls["instances.erase"]), "s"),
        "oracle.degree_calls": (answered_deg, "count"),
        "oracle.neighbor_calls": (answered_nbr, "count"),
        "oracle.random_vertex_calls": (c["oracle.random_vertex"], "count"),
        "oracle.budget_exhausted": (
            rnd.raised["oracle.degree"] + rnd.raised["oracle.neighbor"] + rnd.raised["oracle.charge_bulk"],
            "count",
        ),
        "oracle.bulk_queries": (int(s["bulk.degree"] + s["bulk.neighbor"]), "count"),
        "oracle.degree_ns": (_per(b["oracle.degree"], c["oracle.degree"], 1e9), "ns"),
        "oracle.neighbor_ns": (_per(b["oracle.neighbor"], c["oracle.neighbor"], 1e9), "ns"),
        "oracle.session_init_us": (_per(b["oracle.session_init"], c["oracle.session_init"], 1e6), "us"),
        "connectedness.bfs_calls": (bfs, "count"),
        "connectedness.bfs_us": (_per(b["connectedness.bfs"], bfs, 1e6), "us"),
        "connectedness.bfs_self_us": (_per(st["connectedness.bfs"], bfs, 1e6), "us"),
        "connectedness.bfs_entries": (int(s["bfs.entries"]), "count"),
        "connectedness.bfs_budget_hit": (int(s["bfs.budget_hit"]), "count"),
        "connectedness.bfs_closed_frac": (_per(s["bfs.closed"], bfs) if bfs else 0.0, "fraction"),
        "connectedness.witness_us": (_per(b["connectedness.witness"], trials, 1e6), "us"),
        "connectedness.overhead_us": (
            _per(b["connectedness.tester"] - b["connectedness.bfs"] - b["connectedness.witness"], trials, 1e6),
            "us",
        ),
        "connectedness.abort_frac": (_per(s["tester.aborted"], trials) if trials else 0.0, "fraction"),
    }
    for algo in TESTERS.values():
        n = s[f"tester.{algo}.trials"]
        m[f"connectedness.queries_per_trial.{algo}"] = (_per(s[f"tester.{algo}.queries"], n) if n else 0.0, "queries")
    m.update(
        {
            "avg_degree.refine_calls": (c["avg_degree.refine"], "count"),
            "avg_degree.refine_ms": (_per(b["avg_degree.refine"], c["avg_degree.refine"], 1e3), "ms"),
            "avg_degree.ns_per_sample": (_per(b["avg_degree.refine"], s["refine.samples"], 1e9), "ns"),
            "avg_degree.search_self_ms": (_per(st["avg_degree.search"], estimates, 1e3), "ms"),
            "avg_degree.samples_per_estimate": (_per(s["estimate.samples"], estimates) if estimates else 0.0, "count"),
            "avg_degree.level_reached": (_per(s["estimate.level"], estimates) if estimates else 0.0, "level"),
            "exact.enumerate_ms": (_per(b["exact.enumerate"], c["exact.enumerate"], 1e3), "ms"),
            "exact.completions": (int(s["exact.completions"]), "count"),
            "exact.completions_per_s": (_per(s["exact.completions"], b["exact.enumerate"]), "1/s"),
            "exact.components_ms": (_per(b["exact.components"], c["exact.components"], 1e3), "ms"),
            "exact.inventory_ms": (_per(b["exact.inventory"], c["exact.inventory"], 1e3), "ms"),
            "exact.exp_chi_ms": (_per(b["exact.exp_chi"], c["exact.exp_chi"], 1e3), "ms"),
        }
    )
    layers = defaultdict(float)
    for label, secs in st.items():
        layers[label.split(".")[0]] += secs
    total = sum(layers.values())
    for layer in ("bench", "cli", "graph", "oracle", "connectedness", "avg_degree", "exact", "trace"):
        m[f"self_ms.{layer}"] = (layers[layer] * 1e3 if layers[layer] else None, "ms")
        m[f"self_frac.{layer}"] = (_per(layers[layer], total) or 0.0, "fraction")
    m["trace.spans"] = (setup.span_count() + rnd.span_count() + check.span_count(), "count")
    m["trace.overhead_frac"] = (overhead_frac, "fraction")
    return m
