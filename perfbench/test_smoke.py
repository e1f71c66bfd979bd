"""Smoke test: every workload at tiny sizes prints every named metric.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Printed in the table on every workload, with a value or an n/a reason.
TABLE_E2E = [
    "trial_ms.p99", "ns_per_query", "queries_per_trial", "reject_rate", "in_range_rate", "failed_frac",
    "cpu_sys_frac", "minflt_per_trial",
]
TABLE_LAYER = [
    "cli.load_s", "cli.write_ms", "graph.parse_ns_per_entry", "graph.format_ns_per_entry",
    "graph.validate_ns_per_entry", "graph.neighbor_calls", "graph.neighbor_ns", "graph.bytes_per_entry",
    "graph.flat_adjacency_s", "instances.gen_s", "instances.erase_s", "oracle.degree_calls",
    "oracle.neighbor_calls", "oracle.random_vertex_calls", "oracle.budget_exhausted", "oracle.neighbor_ns",
    "oracle.degree_ns", "oracle.session_init_us", "connectedness.bfs_calls", "connectedness.bfs_us",
    "connectedness.bfs_self_us", "connectedness.bfs_entries", "connectedness.bfs_budget_hit",
    "connectedness.bfs_closed_frac", "connectedness.witness_us", "connectedness.overhead_us",
    "connectedness.abort_frac", "connectedness.queries_per_trial.small-alpha", "avg_degree.refine_calls",
    "avg_degree.refine_ms", "avg_degree.ns_per_sample", "avg_degree.search_self_ms",
    "avg_degree.samples_per_estimate", "avg_degree.level_reached", "exact.enumerate_ms", "exact.completions",
    "exact.completions_per_s", "exact.components_ms", "exact.inventory_ms", "exact.exp_chi_ms",
    "self_ms.connectedness", "trace.overhead_frac",
]


def run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc, proc.stdout.strip().splitlines()


def table_names(lines):
    return {ln.split()[0] for ln in lines[:-1] if ln.startswith("  ")}


def env(lines):
    return json.loads(next(ln for ln in lines if ln.startswith("# env "))[len("# env "):])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc, lines = run(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert set(TABLE_E2E) <= table_names(lines)
    assert {"nproc", "python", "numpy", "det_hash"} <= set(env(lines))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc, lines = run(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(TABLE_LAYER) <= table_names(lines)
    assert (ROOT / env(lines)["spans_file"]).is_file()


def test_same_seed_gives_same_deterministic_hash_traced_or_not():
    hashes = {env(run("far-reject", trace)[1])["det_hash"] for trace in (0, 0, 1)}
    assert len(hashes) == 1
    assert env(run("far-reject", 0, seed=4)[1])["det_hash"] not in hashes


def test_without_pegkit_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc, lines = run("far-reject", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not lines


def test_checks_flag_a_reject_on_a_connected_graph_a_bogus_witness_and_a_wrong_distance():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from types import SimpleNamespace

    from pegkit import connectedness, exact
    from pegkit.instances import gen_connected, gen_gminus

    pk = SimpleNamespace(connectedness=connectedness, exact=exact)
    info = workloads.graph_info(gen_connected(50, 3.0, seed=1))
    job = workloads.conn_accept(1, workloads.SIZES["tiny"]).jobs[0]
    row = {"result": "reject", "witness_kind": "plain", "degree_queries": 1, "neighbor_queries": 1, "seed": 1}
    assert workloads.check_test_conn(pk, job, {"trials": [row]}, info)[0]
    assert workloads._witness_problem(pk, info["g"], [0, 1], "plain")
    gminus = workloads.exact_oracle(1, workloads.SIZES["tiny"]).jobs[0]
    assert gminus.check["what"] == "distance-conn"
    hub = workloads.graph_info(gen_gminus("1/7", 4, seed=1))
    assert workloads.check_exact(pk, gminus, "1/7\n", hub) == [None]
    assert workloads.check_exact(pk, gminus, "0/1\n", hub)[0]
    assert workloads.check_exact(pk, gminus, "Traceback\n", hub)[0]
