"""pegkit benchmark: drives the real CLI in-process over one workload.

    python3 perfbench/run.py --workload conn-accept --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports pegkit from its `src/`.
Set-up builds the workload's PEG files with `pegkit gen`/`erase` (three times;
`setup_s` is the median). The measurement repeats one fixed round of CLI
jobs while the next round would overrun `--seconds` by less than half a
round; rounds are identical,
so the deterministic output of every round must match the first. Every
output is checked (see workloads.py), and the last stdout line is the JSON
result with the metrics BENCHMARK.json names: the end-to-end ones with
`--trace 0`, the per-layer ones with `--trace 1`. The traced run measures one
round untraced and the same round traced, and reports their ratio as
`trace.overhead_frac`. The exit code is 1 when a check fails, 2 when the
checkout holds no pegkit source.
"""

from __future__ import annotations

import os

# One process, one thread: fixed before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
_pc = time.perf_counter


def host_ref_ms():
    """Best of 3 timings of a fixed pure-Python loop: the host's speed at run time.

    Recorded with each result because CPU speed on a shared host can drift by
    tens of percent over minutes; it is not used to adjust any metric.
    """
    best = float("inf")
    for _ in range(3):
        t0 = _pc()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, _pc() - t0)
    return best * 1e3


def load_pegkit():
    """Import pegkit from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "pegkit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import numpy

    from pegkit import avg_degree, cli, connectedness, exact, graph, instances, oracle

    if Path(cli.__file__).resolve().parent != (src / "pegkit").resolve():
        return None
    return SimpleNamespace(
        cli=cli, graph=graph, oracle=oracle, connectedness=connectedness,
        avg_degree=avg_degree, exact=exact, instances=instances, numpy=numpy,
    )


def run_cli(pk, argv):
    """One in-process CLI invocation -> (exit code or error text, wall s, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = _pc()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pk.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raise is a failed trial, not a crashed benchmark
        rc = f"raised {type(exc).__name__}: {exc}"
    wall = _pc() - t0
    if rc and err.getvalue():
        rc = f"{rc}: {err.getvalue().strip()}"
    return rc, wall, out.getvalue()


def setup_inputs(pk, wl, work):
    t0 = _pc()
    for argv in wl.setup:
        argv = [str(work / a) if a.endswith(".peg") else a for a in argv]
        rc, _, _ = run_cli(pk, argv)
        if rc != 0:
            raise RuntimeError(f"set-up step {' '.join(argv)} failed: {rc}")
    return _pc() - t0


def run_job(pk, job, work, idx):
    """Run one job; parse its output outside the timed call."""
    argv = [job.kind, "--graph", str(work / job.graph)] + job.args
    out_path = work / f"out-{idx}.json"
    if job.kind != "exact":
        argv += ["--out", str(out_path)]
    rc, wall, stdout = run_cli(pk, argv)
    res = {"job": job, "rc": rc, "wall": wall, "stdout": stdout, "payload": None, "digest": None}
    if rc != 0:
        return res
    if job.kind == "exact":
        res["digest"] = hashlib.sha256(stdout.encode()).hexdigest()
        return res
    payload = json.loads(out_path.read_text())
    res["payload"] = payload
    # Deterministic fields: everything but wall_ms; the input path is a temporary name.
    det = json.loads(json.dumps(payload))
    det["plan"]["graph"] = job.graph
    for row in det["trials"]:
        row.pop("wall_ms", None)
    res["digest"] = hashlib.sha256(json.dumps(det, sort_keys=True).encode()).hexdigest()
    return res


def run_round(pk, jobs, work):
    t0 = _pc()
    results = [run_job(pk, job, work, i) for i, job in enumerate(jobs)]
    return results, _pc() - t0


def measure(pk, jobs, work, seconds):
    """Repeat the round while the next one would overrun `seconds` by under half a round.

    -> (rounds, resource usage of the process over the measurement)
    """
    rounds, elapsed = [], 0.0
    before = resource.getrusage(resource.RUSAGE_SELF)
    while True:
        results, dt = run_round(pk, jobs, work)
        rounds.append(results)
        elapsed += dt
        if elapsed + 0.5 * elapsed / len(rounds) > seconds:
            after = resource.getrusage(resource.RUSAGE_SELF)
            usage = {f: getattr(after, f) - getattr(before, f) for f in ("ru_utime", "ru_stime", "ru_minflt")}
            return rounds, usage


def check_rounds(pk, rounds, info):
    """-> (attempted, failed, problems, quality dict, messages)."""
    first = rounds[0]
    per_job = []  # failures per trial of round 0
    quality = {"rejects": 0, "conn_trials": 0, "in_range": 0, "estimates": 0}
    for res in first:
        job = res["job"]
        if res["rc"] != 0:
            per_job.append([f"exit {res['rc']}"] * job.trials)
            continue
        gi = info[job.graph]
        if job.kind == "test-conn":
            fails = workloads.check_test_conn(pk, job, res["payload"], gi)
            quality["rejects"] += sum(r["result"] == "reject" for r in res["payload"]["trials"])
            quality["conn_trials"] += job.trials
        elif job.kind == "estimate":
            misses = workloads.check_estimate(job, res["payload"], gi)
            quality["in_range"] += misses.count(None)
            quality["estimates"] += len(misses)
            fails = [None] * len(misses)
            if not res["payload"]["summary"]["conforming"]:
                fails = ["run marked non-conforming"] * len(misses)
        else:
            fails = workloads.check_exact(pk, job, res["stdout"], gi)
        if len(fails) != job.trials:
            fails = [f"{len(fails)} trial rows for {job.trials} trials"] * job.trials
        per_job.append(fails)
    attempted = failed = 0
    messages = []
    for rnd in rounds:
        for j, res in enumerate(rnd):
            job = res["job"]
            attempted += job.trials
            if res["rc"] != 0 or res["digest"] != first[j]["digest"]:
                failed += job.trials
                messages.append(f"{job.label}: exit {res['rc']} or output differs from round 0")
                continue
            bad = [m for m in per_job[j] if m]
            failed += len(bad)
            if bad and rnd is first:
                messages.append(f"{job.label}: {len(bad)} failed trials, first: {bad[0]}")
    problems = []
    for res in first:
        job = res["job"]
        if job.kind == "test-conn" and job.check["expect"] == "reject" and res["rc"] == 0:
            rate = sum(r["result"] == "reject" for r in res["payload"]["trials"]) / job.trials
            if rate < workloads.MIN_REJECT_RATE:
                problems.append(f"{job.label}: reject rate {rate:.3f} < {workloads.MIN_REJECT_RATE}")
    if quality["estimates"] and quality["in_range"] / quality["estimates"] < workloads.MIN_IN_RANGE_RATE:
        problems.append(f"in-range rate {quality['in_range'] / quality['estimates']:.3f} below threshold")
    return attempted, failed, problems, quality, messages


def trial_latencies(rounds):
    lat = []
    for rnd in rounds:
        for res in rnd:
            if res["rc"] != 0:
                continue
            if res["payload"] is None:
                lat.append(res["wall"] * 1e3)
            else:
                lat.extend(r["wall_ms"] for r in res["payload"]["trials"])
    return lat


def end_to_end(setup_times, rounds, attempted, failed, quality, usage):
    """All end-to-end metrics as {name: (value or None, unit, note)}."""
    lat = trial_latencies(rounds)
    wall = sum(res["wall"] for rnd in rounds for res in rnd)
    queries = wall_ms = 0
    for rnd in rounds:
        for res in rnd:
            if res["payload"] is not None:
                for r in res["payload"]["trials"]:
                    queries += r["degree_queries"] + r["neighbor_queries"]
                    wall_ms += r["wall_ms"]
    trials_round = sum(res["job"].trials for res in rounds[0])
    m = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "trials_per_s": (attempted / wall, "1/s", f"{attempted} trials in {wall:.2f} s of CLI wall time"),
        "trial_ms.p50": (statistics.median(lat), "ms", f"{len(lat)} trials"),
        "trial_ms.p99": (
            (statistics.quantiles(lat, n=100)[98], "ms", f"{len(lat)} trials")
            if len(lat) >= 1000
            else (None, "ms", f"n/a: {len(lat)} trials, fewer than 1000")
        ),
        "ns_per_query": (
            (wall_ms * 1e6 / queries, "ns", f"{queries} charged queries")
            if queries
            else (None, "ns", "n/a: no charged queries on this workload")
        ),
        "queries_per_trial": (
            (queries / len(rounds) / trials_round, "queries", "exact count")
            if queries
            else (None, "queries", "n/a: no charged queries on this workload")
        ),
        "reject_rate": (
            (quality["rejects"] / quality["conn_trials"], "fraction", "round 0")
            if quality["conn_trials"]
            else (None, "fraction", "n/a: no tester trials")
        ),
        "in_range_rate": (
            (quality["in_range"] / quality["estimates"], "fraction", "round 0")
            if quality["estimates"]
            else (None, "fraction", "n/a: no estimates")
        ),
        "failed_frac": (failed / attempted, "fraction", f"{failed} of {attempted}"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss of this process"
        ),
    }
    if usage is not None:
        cpu = usage["ru_utime"] + usage["ru_stime"]
        m["cpu_sys_frac"] = (usage["ru_stime"] / cpu, "fraction", "kernel share of CPU time while measuring")
        m["minflt_per_trial"] = (usage["ru_minflt"] / attempted, "count", "minor page faults")
    return m


def job_summary(rounds):
    """Per-job figures over all rounds, for reading a run back."""
    out = []
    for j, res in enumerate(rounds[0]):
        runs = [rnd[j] for rnd in rounds]
        lat = trial_latencies([[r] for r in runs])
        entry = {"job": res["job"].label, "wall_s": [round(r["wall"], 4) for r in runs]}
        if lat:
            entry["trial_ms.p50"] = statistics.median(lat)
        if res["payload"] is not None:
            rows = res["payload"]["trials"]
            entry["queries_per_trial"] = sum(r["degree_queries"] + r["neighbor_queries"] for r in rows) / len(rows)
            entry["rejects"] = sum(r["result"] == "reject" for r in rows)
        out.append(entry)
    return out


def bytes_per_entry(pk, work, wl):
    """Load every input under tracemalloc -> (info per input, resident bytes per entry)."""
    info, resident, entries = {}, 0, 0
    for name in wl.inputs:
        tracemalloc.start()
        g = pk.graph.load_peg(work / name)
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        info[name] = workloads.graph_info(g)
        resident += current
        entries += info[name]["entries"]
    return info, resident / entries


def count_digest(rounds, extra):
    h = hashlib.sha256()
    for res in rounds[0]:
        h.update(f"{res['job'].label}={res['digest']}\n".encode())
    h.update(json.dumps(extra, sort_keys=True).encode())
    return h.hexdigest()[:16]


def trace_cross_check(pk, rounds, layer):
    """Traced call counts must equal the query counts the CLI reported."""
    deg = nbr = bulk = 0
    for res in rounds[0]:
        if res["payload"] is None:
            continue
        d = sum(r["degree_queries"] for r in res["payload"]["trials"])
        n = sum(r["neighbor_queries"] for r in res["payload"]["trials"])
        if res["job"].kind == "estimate":
            bulk += d + n
        else:
            deg, nbr = deg + d, nbr + n
    seen = (layer["oracle.degree_calls"][0], layer["oracle.neighbor_calls"][0], layer["oracle.bulk_queries"][0])
    if seen != (deg, nbr, bulk):
        return [f"traced counts {seen} differ from CLI-reported (degree, neighbor, bulk) {(deg, nbr, bulk)}"]
    return []


def print_table(title, metrics):
    print(title)
    for name, (value, unit, *note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {unit:<9} {note[0] if note else ''}".rstrip())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="input sizes; 'tiny' is for the smoke test")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pk = load_pegkit()
    if pk is None:
        print(f"error: no pegkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    origin = _pc()
    ref_before = host_ref_ms()
    try:
        if args.trace:
            with tracing.traced(pk, origin) as tr_setup:
                setup_times = [setup_inputs(pk, wl, work)]
            gc.collect()
            untraced, t_untraced = run_round(pk, wl.jobs, work)
            with tracing.traced(pk, origin) as tr_round:
                traced_res, t_traced = run_round(pk, wl.jobs, work)
            with tracing.traced(pk, origin) as tr_check:
                invalid = []
                for name in wl.inputs:
                    rc, _, out = run_cli(pk, ["exact", "--graph", str(work / name), "--what", "validate"])
                    if rc != 0 or out.strip() != "ok":
                        invalid.append(f"{name} does not validate: {rc} {out.strip()[:200]}")
            rounds, usage = [untraced, traced_res], None
            info, bpe = bytes_per_entry(pk, work, wl)
        else:
            setup_times = [setup_inputs(pk, wl, work) for _ in range(SETUP_REPEATS)]
            gc.collect()
            rounds, usage = measure(pk, wl.jobs, work, args.seconds)
            # Loaded only now, so that no extra graph is alive while the CLI is timed.
            info = {name: workloads.graph_info(pk.graph.load_peg(work / name)) for name in wl.inputs}
        attempted, failed, problems, quality, messages = check_rounds(pk, rounds, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref = [ref_before, host_ref_ms()]

    e2e = end_to_end(setup_times, rounds, attempted, failed, quality, usage)
    # The same in traced and untraced runs of one seed.
    counts = {k: e2e[k][0] for k in ("queries_per_trial", "reject_rate", "in_range_rate")}
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": pk.numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "rounds": len(rounds),
        "round_s": [round(sum(res["wall"] for res in rnd), 3) for rnd in rounds],
        "host_ref_ms": [round(x, 2) for x in ref],
    }
    if args.trace:
        layer = tracing.layer_metrics(tr_setup, tr_round, tr_check, t_traced / t_untraced - 1, bpe)
        problems += invalid + trace_cross_check(pk, [traced_res], layer)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        spans_path.unlink(missing_ok=True)
        offset = 0
        for tr in (tr_setup, tr_round, tr_check):
            offset += tr.write_spans(spans_path, offset)
        env["spans_file"] = str(spans_path.relative_to(ROOT))
        table = {k: (v, u, "" if v is not None else "n/a: this workload never makes the call it times")
                 for k, (v, u) in layer.items()}
        wanted = spec["per_layer"]
    else:
        table = e2e
        wanted = spec["end_to_end"]
    env["det_hash"] = count_digest(rounds, counts)

    print_table(f"# {args.workload} seed={args.seed} trace={args.trace} size={args.size}", table)
    for msg in messages + problems:
        print(f"  FAIL {msg}")
    print("# env " + json.dumps(env, sort_keys=True))
    metrics = {}
    for entry in wanted:
        value, unit = table[entry["name"]][:2]
        if unit != entry["unit"]:
            raise SystemExit(f"metric {entry['name']}: unit {unit} but BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": 0 if value is None else value, "unit": unit}
    correct = failed == 0 and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {"env": env, "result": result, "all": {k: v[:2] for k, v in table.items()}, "jobs": job_summary(rounds)},
            indent=1,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
