import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pegkit
from pegkit.cli import main
from pegkit.graph import PartiallyErasedGraph, load_peg, save_peg
from pegkit.instances import gen_gminus

_SRC_REACH = importlib.util.spec_from_file_location(
    "src_reach", Path(__file__).resolve().parent.parent / "tools" / "src_reach.py"
)
src_reach = importlib.util.module_from_spec(_SRC_REACH)
_SRC_REACH.loader.exec_module(src_reach)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_exact_distance(tmp_path, capsys):
    peg = tmp_path / "gm.peg"
    manifest = tmp_path / "gm.json"
    code, _, _ = run(
        capsys,
        "gen", "--family", "gminus", "--eps", "1/7", "--k", "4",
        "--seed", "7", "--out", str(peg), "--manifest", str(manifest),
    )
    assert code == 0
    g = load_peg(peg)
    assert g.num_vertices == 13
    meta = json.loads(manifest.read_text())
    assert meta["properties"]["m"] == 14

    code, out, _ = run(capsys, "exact", "--graph", str(peg), "--what", "distance-conn")
    assert code == 0
    assert out.strip() == "1/7"


def test_exact_distance_on_2048_open_vertices(tmp_path, capsys):
    # More open vertices than the recursion limit allows frames.
    peg = tmp_path / "gm2048.peg"
    save_peg(gen_gminus("1/7", 2048, seed=2048), str(peg))
    code, out, err = run(
        capsys, "exact", "--graph", str(peg), "--what", "distance-conn", "--slot-bound", "2048"
    )
    assert (code, out, err) == (0, "1/7\n", "")


def test_gen_infeasible_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "gen", "--family", "gminus", "--eps", "1/6", "--k", "4",
        "--out", str(tmp_path / "x.peg"),
    )
    assert code == 2
    assert "infeasible" in err
    code, _, err = run(
        capsys, "gen", "--family", "gminus", "--eps", "1/7", "--out", str(tmp_path / "x.peg")
    )
    assert code == 2
    assert err == "error: infeasible parameters: missing parameter --k\n"
    code, _, err = run(
        capsys, "gen", "--family", "far-forest", "--eps", "0.2", "--alpha", "0", "--n", "-5",
        "--out", str(tmp_path / "x.peg"),
    )
    assert code == 2
    assert err == "error: infeasible parameters: need at least one vertex\n"
    code, _, err = run(capsys, "gen", "--family", "fig1", "--out", str(tmp_path / "x.peg"))
    assert code == 2
    assert err == "error: infeasible parameters: unknown family 'fig1'\n"
    assert not (tmp_path / "x.peg").exists()


def test_test_conn_is_reproducible_and_accepting(tmp_path, capsys):
    peg = tmp_path / "c.peg"
    run(capsys, "gen", "--family", "connected", "--n", "60", "--davg", "2.5",
        "--seed", "3", "--out", str(peg))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code, _, _ = run(
            capsys,
            "test-conn", "--graph", str(peg), "--algo", "mid-alpha", "--eps", "0.3",
            "--alpha", "0.1", "--trials", "25", "--seed", "5", "--out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["summary"]["rejection_frequency"] == 0.0
    assert len(payload["trials"]) == 25


def test_test_conn_csv_columns(tmp_path, capsys):
    peg = tmp_path / "f.peg"
    run(capsys, "gen", "--family", "far-forest", "--eps", "0.2", "--alpha", "0",
        "--n", "200", "--seed", "2", "--out", str(peg))
    out = tmp_path / "r.csv"
    code, _, _ = run(
        capsys,
        "test-conn", "--graph", str(peg), "--algo", "small-alpha", "--eps", "0.2",
        "--trials", "10", "--seed", "1", "--format", "csv", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,seed,result,value,witness_kind,degree_queries,neighbor_queries,wall_ms"
    assert len(lines) == 11
    assert any(",reject," in ln for ln in lines[1:])


def test_estimate_with_overrides(tmp_path, capsys):
    peg = tmp_path / "r.peg"
    run(capsys, "gen", "--family", "regularish", "--n", "300", "--davg", "4",
        "--seed", "4", "--out", str(peg))
    out = tmp_path / "est.json"
    code, _, err = run(
        capsys,
        "estimate", "--graph", str(peg), "--eps", "0.25", "--trials", "3",
        "--seed", "9", "--sample-coeff", "10", "--rep-coeff", "2", "--out", str(out),
    )
    assert code == 0
    assert "non-conforming" in err
    payload = json.loads(out.read_text())
    assert payload["summary"]["conforming"] is False
    assert len(payload["trials"]) == 3
    for row in payload["trials"]:
        assert 0 < row["value"] < 40


def test_exact_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.peg"
    run(capsys, "gen", "--family", "cycle-union", "--n", "9", "--cycle-len", "9",
        "--seed", "1", "--out", str(good))
    code, out, _ = run(capsys, "exact", "--graph", str(good), "--what", "validate")
    assert code == 0 and "ok" in out
    bad = tmp_path / "bad.peg"
    bad.write_text("peg 1\nn 2\nv 0 1 1\nv 1 0 0\n")
    code, out, _ = run(capsys, "exact", "--graph", str(bad), "--what", "validate")
    assert code == 1
    assert "duplicate-entry" in out


@pytest.mark.parametrize("what", ["distance-conn", "witnesses", "exp-chi", "report"])
@pytest.mark.parametrize("name", sorted(src_reach.INVALID))
def test_exact_oracles_refuse_invalid_files(tmp_path, capsys, name, what):
    # one file per validate code; each oracle names the first violation, as
    # --what validate prints it, and writes nothing to stdout
    peg = tmp_path / f"{name}.peg"
    peg.write_text(src_reach.INVALID[name])
    code, out, _ = run(capsys, "exact", "--graph", str(peg), "--what", "validate")
    assert code == 1 and name in out
    first = out.splitlines()[0]
    code, out, err = run(capsys, "exact", "--graph", str(peg), "--what", what, "--dhat", "2", "--eps", "1/4")
    assert (code, out, err) == (2, "", f"error: graph fails validate: {first}\n")


def test_exact_exp_chi_output(tmp_path, capsys):
    peg = tmp_path / "e.peg"
    peg.write_text("peg 1\nn 2\nv 0 1\nv 1 0\n")
    code, out, _ = run(
        capsys, "exact", "--graph", str(peg), "--what", "exp-chi",
        "--dhat", "1", "--eps", "1/4",
    )
    assert code == 0 and out.strip() == "1/2"


def test_bench_csv(tmp_path, capsys):
    peg = tmp_path / "f.peg"
    run(capsys, "gen", "--family", "far-forest", "--eps", "0.25", "--alpha", "0",
        "--n", "120", "--seed", "2", "--out", str(peg))
    out = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys,
        "bench", "--graph", str(peg), "--algo", "small-alpha",
        "--sweep", "eps=0.25,0.3", "--trials", "5", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("sweep_param,sweep_value,trial,")
    assert len(lines) == 11


DAVG_WARNING = (
    "warning: supplied davg 5.0 differs from the graph's 2.1538461538461537; "
    "proceeding with the supplied value\n"
)


@pytest.mark.parametrize(
    "argv, warning",
    [
        (["test-conn", "--algo", "mid-alpha", "--eps", "0.2", "--trials", "2"], DAVG_WARNING),
        (["bench", "--algo", "mid-alpha", "--sweep", "eps=0.2", "--trials", "2"], DAVG_WARNING),
        # the unknown-davg tester never reads davg, so a mismatch is no news
        (["test-conn", "--algo", "unknown-davg", "--eps", "0.2", "--trials", "2"], ""),
    ],
    ids=["test-conn", "bench", "unknown-davg"],
)
def test_supplied_davg_mismatch_warns(tmp_path, capsys, argv, warning):
    peg = tmp_path / "gm.peg"
    save_peg(gen_gminus("1/7", 4, seed=7), str(peg))
    code, _, err = run(capsys, *argv, "--graph", str(peg), "--davg", "5")
    assert code == 0
    assert err == warning


def test_missing_graph_exits_2(capsys):
    assert main(["exact", "--graph", "/nonexistent.peg", "--what", "validate"]) == 2


@pytest.mark.parametrize("graph", [[], ["--graph", "nope.peg"]], ids=["no-graph", "unread-graph"])
def test_bench_n_sweep_never_reads_graph(tmp_path, capsys, graph):
    out = tmp_path / "n.csv"
    code, _, err = run(
        capsys, "bench", *graph, "--algo", "mid-alpha", "--sweep", "n=50", "--trials", "2",
        "--out", str(out),
    )
    assert (code, err) == (0, "")
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("param", ["eps", "alpha"])
def test_bench_eps_or_alpha_sweep_needs_graph(capsys, param):
    code, stdout, err = run(capsys, "bench", "--algo", "mid-alpha", "--sweep", f"{param}=0.1")
    assert code == 2
    assert err == f"error: --sweep {param}=... needs --graph\n"
    assert stdout == ""


@pytest.mark.parametrize("line, token", [("v 0 01", "01"), ("v 0 1_0", "1_0"), ("v +0 1", "+0")])
def test_non_plain_numbers_exit_2(tmp_path, capsys, line, token):
    peg = tmp_path / "p.peg"
    peg.write_text(f"peg 1\nn 11\n{line}\n")
    assert main(["exact", "--graph", str(peg), "--what", "validate"]) == 2
    kind = "entry" if token in line.split()[2:] else "vertex id"
    assert capsys.readouterr().err == f"error: cannot read graph: line 3: bad {kind} {token!r}\n"


def test_vertex_count_above_the_limit_exits_2(tmp_path, capsys):
    peg = tmp_path / "p.peg"
    peg.write_text("peg 1\nn 99999999999\nv 0 1\nv 1 0\n")
    code, stdout, err = run(capsys, "exact", "--graph", str(peg), "--what", "validate")
    assert (code, stdout) == (2, "")
    assert err == "error: cannot read graph: vertex count 99999999999 is above the limit 2147483647\n"


# Runs the CLI in a child whose address space is capped at what it already
# maps plus 512 MiB, so the table of 10**9 rows (8 GB) cannot be allocated.
_CAPPED_CHILD = """
import os, resource, sys
import numpy
from pegkit.cli import main
pages = int(open("/proc/self/statm").read().split()[0])
limit = pages * os.sysconf("SC_PAGE_SIZE") + (512 << 20)
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
sys.exit(main(["exact", "--graph", sys.argv[1], "--what", "validate"]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS and /proc/self/statm")
def test_vertex_count_that_cannot_be_held_exits_2(tmp_path):
    peg = tmp_path / "p.peg"
    peg.write_text("peg 1\nn 1000000000\nv 0 1\nv 1 0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(pegkit.__file__).parent.parent), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, str(peg)], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot read graph: vertex count 1000000000 is too large to hold in memory\n"
    assert proc.stdout == ""


# Generates a `regularish` graph and estimates on it in one fresh process,
# then reports whether anything imported networkx. Code in `src` that needs
# networkx imports it inside the function that uses it.
_NO_NETWORKX_CHILD = """
import sys
from pegkit.cli import main
peg = sys.argv[1]
assert main(["gen", "--family", "regularish", "--n", "200", "--davg", "3", "--seed", "1", "--out", peg]) == 0
assert main(["estimate", "--graph", peg, "--eps", "0.45", "--trials", "1", "--seed", "2"]) == 0
print("networkx" in sys.modules)
"""


def test_gen_regularish_and_estimate_do_not_import_networkx(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pegkit.__file__).parent.parent), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NETWORKX_CHILD, str(tmp_path / "r.peg")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["test-conn", "--algo", "mid-alpha", "--eps", "0.2"],
        ["test-conn", "--algo", "unknown-davg", "--eps", "0.2"],
        ["estimate", "--eps", "0.25"],
        ["exact", "--what", "report"],
        ["exact", "--what", "validate"],
    ],
    ids=["mid-alpha", "unknown-davg", "estimate", "report", "validate"],
)
def test_out_of_range_entry_exits_2(tmp_path, capsys, argv):
    peg = tmp_path / "p.peg"
    peg.write_text("peg 1\nn 2\nv 0 5\nv 1 0\n")
    assert main([*argv, "--graph", str(peg)]) == 2
    out = capsys.readouterr()
    assert out.err == "error: cannot read graph: line 3: entry 5 outside [0, 2)\n"
    assert out.out == ""


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--eps", "0.7"], "epsilon must lie in (0, 1/2)"),
        (["--eps", "abc"], "not a rational number: 'abc'"),
        (["--eps", "1/0"], "not a rational number: '1/0'"),
        (["--eps", "0.25", "--sample-coeff", "0"], "sample_coeff must be a positive"),
        (["--eps", "0.25", "--sample-coeff", "-5"], "sample_coeff must be a positive"),
        (["--eps", "0.25", "--sample-coeff", "nan"], "sample_coeff must be a positive"),
        (["--eps", "0.25", "--rep-coeff", "0"], "rep_coeff must be a positive"),
        (["--eps", "0.25", "--sample-coeff", "1e30"], "sample_coeff 1e+30 is too large"),
        # eps**5 underflows to 0, so the sample count is not a finite number.
        (["--eps", "1e-300"], "epsilon 1e-300 is too small"),
        # The count overflows an int64 at the default coefficient too, so eps is to blame.
        (["--eps", "1e-10"], "epsilon 1e-10 is too small for a crude estimate of"),
    ],
)
def test_estimate_parameter_errors_exit_2(tmp_path, capsys, extra, message):
    peg = tmp_path / "r.peg"
    run(capsys, "gen", "--family", "regularish", "--n", "40", "--davg", "3",
        "--seed", "1", "--out", str(peg))
    out = tmp_path / "est.json"
    code, stdout, err = run(capsys, "estimate", "--graph", str(peg), "--out", str(out), *extra)
    assert code == 2
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert stdout == ""
    assert not out.exists()


def test_estimate_on_single_vertex_exits_2(tmp_path, capsys):
    peg = tmp_path / "one.peg"
    save_peg(PartiallyErasedGraph([[]]), str(peg))
    code, _, err = run(capsys, "estimate", "--graph", str(peg), "--eps", "0.25")
    assert code == 2
    assert err == "error: estimation needs at least two vertices\n"


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["test-conn", "--algo", "mid-alpha", "--eps", "abc"], "abc"),
        (["gen", "--family", "connected", "--n", "10", "--davg", "1/0"], "1/0"),
        (["bench", "--algo", "mid-alpha", "--sweep", "eps=abc"], "abc"),
        (["exact", "--what", "exp-chi", "--dhat", "abc", "--eps", "0.25"], "abc"),
    ],
)
def test_bad_rationals_exit_2(tmp_path, capsys, argv, bad):
    peg = tmp_path / "p.peg"
    save_peg(PartiallyErasedGraph([[1], [0, 2], [1]]), str(peg))
    target = ["--out", str(tmp_path / "x.peg")] if argv[0] == "gen" else ["--graph", str(peg)]
    code, stdout, err = run(capsys, *argv, *target)
    assert code == 2
    assert err == f"error: not a rational number: {bad!r}\n"
    assert stdout == ""
    assert not (tmp_path / "x.peg").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["exact", "--what", "distance-conn", "--slot-bound", "1"],
         "4 free erased slots exceed the search bound 1"),
        (["exact", "--what", "report", "--slot-bound", "1"],
         "4 free erased slots exceed the search bound 1"),
        (["exact", "--what", "exp-chi", "--dhat", "2", "--eps", "0"], "eps must be positive, got 0"),
        (["exact", "--what", "report", "--dhat", "2", "--eps", "0"], "eps must be positive, got 0"),
        (["bench", "--algo", "mid-alpha", "--sweep", "n=abc"], "not a vertex count: 'abc'"),
        (["test-conn", "--algo", "mid-alpha", "--eps", "0.2", "--trials", "-3"],
         "--trials must be a non-negative count, got -3"),
        (["estimate", "--eps", "0.25", "--trials", "-3"],
         "--trials must be a non-negative count, got -3"),
        (["bench", "--algo", "mid-alpha", "--sweep", "eps=0.2", "--trials", "-3"],
         "--trials must be a non-negative count, got -3"),
        (["test-conn", "--algo", "unknown-davg", "--eps", "0.2", "--alpha", "-0.3"],
         "need 0 < epsilon < 1 and 0 <= alpha < epsilon/2"),
        (["exact", "--what", "exp-chi", "--dhat", "0", "--eps", "1/4"], "d_hat must be positive, got 0"),
        (["exact", "--what", "exp-chi", "--dhat", "-1", "--eps", "1/4"],
         "d_hat must be positive, got -1"),
        (["exact", "--what", "report", "--dhat", "-3", "--eps", "1/4"],
         "d_hat must be positive, got -3"),
        (["exact", "--what", "report", "--dhat", "2"], "report needs both --dhat and --eps, or neither"),
        (["exact", "--what", "report", "--eps", "1/4"], "report needs both --dhat and --eps, or neither"),
        # A non-positive --davg is refused before the mismatch warning, for
        # every tester, unknown-davg (which never reads it) included.
        (["test-conn", "--algo", "mid-alpha", "--eps", "0.2", "--davg", "0"], "--davg must be positive, got 0"),
        (["test-conn", "--algo", "small-alpha", "--eps", "0.2", "--davg", "-1"],
         "--davg must be positive, got -1"),
        (["test-conn", "--algo", "no-erasure", "--eps", "0.2", "--davg", "0/5"],
         "--davg must be positive, got 0/5"),
        (["test-conn", "--algo", "unknown-davg", "--eps", "0.2", "--davg", "0"],
         "--davg must be positive, got 0"),
        (["bench", "--algo", "mid-alpha", "--sweep", "eps=0.2", "--davg", "-1"],
         "--davg must be positive, got -1"),
        (["bench", "--algo", "unknown-davg", "--sweep", "alpha=0", "--davg", "0"],
         "--davg must be positive, got 0"),
        # A rational past the float range parses but has no float value.
        (["test-conn", "--algo", "mid-alpha", "--eps", "1e400"], "out of the float range: '1e400'"),
        (["test-conn", "--algo", "mid-alpha", "--eps", "0.2", "--davg", "1e400"],
         "out of the float range: '1e400'"),
        (["test-conn", "--algo", "mid-alpha", "--eps", "0.2", "--alpha", "1e400"],
         "out of the float range: '1e400'"),
        (["erase", "--alpha", "1e400"], "out of the float range: '1e400'"),
        (["bench", "--algo", "mid-alpha", "--sweep", "eps=1e400"], "out of the float range: '1e400'"),
        (["bench", "--algo", "mid-alpha", "--sweep", "alpha=-1e400"], "out of the float range: '-1e400'"),
        (["estimate", "--eps", "1e400"], "out of the float range: '1e400'"),
        (["gen", "--family", "connected", "--n", "10", "--davg", "1e400"], "out of the float range: '1e400'"),
        # A plan's arithmetic leaves the float range: eps * davg underflows to
        # 0, or a subnormal value makes a schedule size infinite. The plan
        # names the parameters it was given.
        (["test-conn", "--algo", "small-alpha", "--eps", "1e-300", "--davg", "1e-300"],
         "epsilon 1e-300, alpha 0.0, davg 1e-300: the tester's schedule is not finite"),
        (["test-conn", "--algo", "mid-alpha", "--eps", "0.2", "--davg", "1e-320"],
         "epsilon 0.2, alpha 0.0, davg 1e-320: the tester's schedule is not finite"),
        (["test-conn", "--algo", "no-erasure", "--eps", "1e-320"],
         "epsilon 1e-320, davg 2.1538461538461537: the tester's schedule is not finite"),
        (["test-conn", "--algo", "unknown-davg", "--eps", "1e-320"],
         "epsilon 1e-320, alpha 0.0: the tester's schedule is not finite"),
        (["estimate", "--eps", "0.25", "--rep-coeff", "1e308"],
         "rep_coeff 1e+308 is too large: a level would run more than 65536 refinements"),
        # The davg-mismatch warning is dropped when the command then fails,
        # also when an earlier sweep value already ran.
        (["test-conn", "--algo", "mid-alpha", "--eps", "0.5", "--davg", "5"],
         "epsilon must lie in (0, 2/davg) = (0, 0.4)"),
        (["bench", "--algo", "mid-alpha", "--sweep", "eps=0.2,abc", "--davg", "5"],
         "not a rational number: 'abc'"),
        (["test-conn", "--algo", "no-erasure", "--eps", "1e-300", "--davg", "1e-300"],
         "epsilon 1e-300, davg 1e-300: the tester's schedule is not finite"),
        (["test-conn", "--algo", "small-alpha", "--eps", "0.2", "--davg", "1e-320"],
         "epsilon 0.2, alpha 0.0, davg 1e-320: the tester's schedule is not finite"),
    ],
)
def test_failed_inputs_exit_2(tmp_path, capsys, argv, message):
    peg = tmp_path / "gm.peg"
    save_peg(gen_gminus("1/7", 4, seed=7), str(peg))
    out = tmp_path / "x.peg"
    graph = [] if argv[0] == "gen" else ["--graph", str(peg)]
    writes = ["--out", str(out)] if argv[0] in ("gen", "erase") else []
    code, stdout, err = run(capsys, *argv, *graph, *writes)
    assert code == 2
    assert err == f"error: {message}\n"
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("rep_coeff", ["1e12", "1e8"])
def test_estimate_refuses_a_repetition_count_that_cannot_be_held(tmp_path, capsys, rep_coeff):
    # t = ceil(rep_coeff * ln(4 log2 n)) rows of a multinomial draw; unrefused,
    # 1e12 asks numpy for about 100 TiB and 1e8 for about 10 GB.
    peg = tmp_path / "gm.peg"
    save_peg(gen_gminus("1/7", 4, seed=7), str(peg))
    code, stdout, err = run(capsys, "estimate", "--graph", str(peg), "--eps", "0.25", "--rep-coeff", rep_coeff)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert err.startswith(f"error: rep_coeff {float(rep_coeff)} is too large")


def test_erase_unknown_strategy_exits_2(tmp_path, capsys):
    # On 14 edges, alpha 0.001 gives an erase budget of zero.
    peg = tmp_path / "gm.peg"
    save_peg(gen_gminus("1/7", 4, seed=7), str(peg))
    out = tmp_path / "h.peg"
    code, stdout, err = run(
        capsys, "erase", "--graph", str(peg), "--alpha", "0.001", "--strategy", "zz",
        "--out", str(out),
    )
    assert code == 2
    assert err == "error: unknown strategy 'zz'\n"
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "gminus", "--eps", "1/7", "--k", "4", "--out", "{bad}"],
        ["gen", "--family", "gminus", "--eps", "1/7", "--k", "4", "--out", "{tmp}/x.peg",
         "--manifest", "{bad}"],
        ["erase", "--graph", "{peg}", "--alpha", "0.1", "--out", "{bad}"],
        ["test-conn", "--graph", "{peg}", "--algo", "mid-alpha", "--eps", "0.2", "--trials", "2",
         "--out", "{bad}"],
        ["estimate", "--graph", "{peg}", "--eps", "0.25", "--trials", "1", "--out", "{bad}"],
        ["bench", "--graph", "{peg}", "--algo", "mid-alpha", "--sweep", "eps=0.2", "--trials", "2",
         "--out", "{bad}"],
    ],
    ids=["gen-out", "gen-manifest", "erase", "test-conn", "estimate", "bench"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    peg = tmp_path / "gm.peg"
    save_peg(gen_gminus("1/7", 4, seed=7), str(peg))
    bad = tmp_path / "missing" / "out"
    paths = {"bad": bad, "tmp": tmp_path, "peg": peg}
    code, stdout, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err
    assert stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["gm.peg"]


# Fixed-seed runs whose exit code, stdout and output files must stay byte for
# byte what they were when these digests were recorded. Each case first makes
# the graphs in GOLDEN_GRAPHS, in a fresh directory. `estimate` is left out
# because numpy does not promise its Generator streams across versions.
GOLDEN_GRAPHS = [
    ["gen", "--family", "far-forest", "--eps", "0.2", "--alpha", "0.05", "--n", "500",
     "--seed", "2", "--out", "f.peg"],
    ["gen", "--family", "connected", "--n", "300", "--davg", "2.5", "--seed", "3", "--out", "c.peg"],
    ["gen", "--family", "gminus", "--eps", "1/7", "--k", "4", "--seed", "7", "--out", "gm.peg"],
    ["gen", "--family", "gminus", "--eps", "1/7", "--k", "8", "--seed", "7", "--out", "gm8.peg"],
    ["gen", "--family", "far-forest", "--eps", "0.2", "--alpha", "0.15", "--n", "80",
     "--strategy", "component-hiding", "--seed", "5", "--out", "fh.peg"],
]
_CONN = ["--graph", "f.peg", "--eps", "0.2", "--trials", "20", "--seed", "11"]
# On the connected c.peg no trial finds a witness: small-alpha (entry-capped
# at alpha 0.05), mid-alpha and no-erasure run their whole schedules and
# accept, unknown-davg spends its budget and aborts, and small-alpha told
# davg is 0.1 aborts at its query cap.
_CONN_ACCEPT = ["--graph", "c.peg", "--eps", "0.2", "--trials", "20", "--seed", "11", "--out", "r.out"]
GOLDEN = {
    "gen-connected": ["gen", "--family", "connected", "--n", "300", "--davg", "2.5", "--seed", "3",
                      "--out", "x.peg", "--manifest", "x.json"],
    "gen-far-forest": ["gen", "--family", "far-forest", "--eps", "0.2", "--alpha", "0.05",
                       "--n", "500", "--seed", "2", "--out", "x.peg", "--manifest", "x.json"],
    "gen-gminus": ["gen", "--family", "gminus", "--eps", "1/7", "--k", "4", "--seed", "7",
                   "--out", "x.peg", "--manifest", "x.json"],
    "gen-regularish": ["gen", "--family", "regularish", "--n", "300", "--davg", "3", "--seed", "4",
                       "--out", "x.peg", "--manifest", "x.json"],
    "gen-regularish-gnm": ["gen", "--family", "regularish", "--n", "301", "--davg", "2.5",
                           "--seed", "4", "--out", "x.peg", "--manifest", "x.json"],
    **{
        f"test-conn-{algo}-{fmt}": ["test-conn", "--algo", algo, *_CONN, "--format", fmt,
                                    "--alpha", "0" if algo == "no-erasure" else "0.05",
                                    "--out", "r.out"]
        for algo in ("small-alpha", "mid-alpha", "no-erasure", "unknown-davg")
        for fmt in ("json", "csv")
    },
    **{
        f"test-conn-accept-{algo}": ["test-conn", "--algo", algo, *_CONN_ACCEPT,
                                     "--alpha", "0" if algo == "no-erasure" else "0.05"]
        for algo in ("small-alpha", "mid-alpha", "no-erasure", "unknown-davg")
    },
    "test-conn-accept-small-alpha-cap-abort": ["test-conn", "--algo", "small-alpha", *_CONN_ACCEPT,
                                               "--davg", "0.1"],
    "test-conn-small-alpha-vertex-case": ["test-conn", "--graph", "c.peg", "--algo", "small-alpha",
                                          "--eps", "0.2", "--trials", "20", "--seed", "4"],
    "bench-eps": ["bench", "--graph", "f.peg", "--algo", "small-alpha", "--sweep", "eps=0.2,1/4",
                  "--trials", "5", "--seed", "3", "--out", "b.csv"],
    **{f"exact-{what}": ["exact", "--graph", "gm.peg", "--what", what]
       for what in ("report", "witnesses", "distance-conn")},
    **{f"exact-{graph}-{what}": ["exact", "--graph", f"{graph}.peg", "--what", what]
       for graph in ("gm8", "fh") for what in ("report", "distance-conn")},
}
GOLDEN_SHA256 = {
    "bench-eps": "9643e7be777c0f78fdd9d8d457f9426a72f56058e13a0ba0ac53509705574891",
    "exact-distance-conn": "65f5908f47f5910e9ada29233ddb5e052111429e96cadf80453a6d160219fdc0",
    "exact-fh-distance-conn": "0fae0458bde82d5a3744ffc944e17b8f755392e475ea44bdcce67199fa0ed8d0",
    "exact-fh-report": "fd519b81996f27a864b620dc4b3479fd2ea067c8de59c27dc283a7ab35752875",
    "exact-gm8-distance-conn": "65f5908f47f5910e9ada29233ddb5e052111429e96cadf80453a6d160219fdc0",
    "exact-gm8-report": "22952b999837475afbdb0a1c83e0f68d32e4b240675b5b1059a36d894a38ec7c",
    "exact-report": "af76e0d8b8b04d53ca3264e2bb202a3e11e4f921d38b2772c67630b6ebe0d26d",
    "exact-witnesses": "72aed6a90ef3a2d9893efd80f977ca236a340ae6514894ff0b2b3e880dfe9957",
    "gen-connected": "ac7d1131ec000da62d444f5732ec77bbfd37845b0f6b8db0a4397685ebb09379",
    "gen-far-forest": "d1496f23969840e0a7ae6db981f62f1a6a290c31a46aa39ad7b2a0caf885cae7",
    "gen-gminus": "354833ea2bbbc8f0a8358693f14d27a71d86abeccab65bc1021a074fc731a3a4",
    "gen-regularish": "866d491c53e569e491e7858035a3f9e5b499e8fac8cff9f0caec3553933461a9",
    "gen-regularish-gnm": "b4f2bfe99b6002bd25c5fd2bfdaada0ddd2846043d1ebf25cebe0e593c3a9679",
    "test-conn-accept-mid-alpha": "7e8a42e97b184860e4fe7be40b5ccfdb9b1f74de30f3b72ea1db3938326fd2d0",
    "test-conn-accept-no-erasure": "98fc0fa78d5caf107571b73712999a06ec90f5cb9c958ef96c2cbb306c294a64",
    "test-conn-accept-small-alpha": "4ddf4cad8d18d8cbeb2002cfd35e0e96213983bbc892793cc25010ada44be1e8",
    "test-conn-accept-small-alpha-cap-abort": "ff270d38cb77edab3bed5bdfab545e526f26aae89d71503be4456cc6ee578522",
    "test-conn-accept-unknown-davg": "2c45b3dd455c7dcf5b1d7fc5e225d2711c0f47b827e1d7e5067d6ddbb8a0a693",
    "test-conn-mid-alpha-csv": "c6f356337f0182fa8f4b4733084f749111203fb5f8fceb33a742f5d9454cb8f2",
    "test-conn-mid-alpha-json": "d03b1825e26505857af6138b4d8d6275f18ce844035ddea009f1fcb971cc87f2",
    "test-conn-no-erasure-csv": "60553f1d16966a16002ee122eceaa52a59db0ad53ec37254d46b7fe727b9d524",
    "test-conn-no-erasure-json": "2d66f4d11db75399db6a76d5659e32edd3241c48f5692b8ed1ed9300325389d1",
    "test-conn-small-alpha-csv": "b4550108cddf66874f8da0548002644fd0c954164eaafd0df04fb024e7bd9f11",
    "test-conn-small-alpha-json": "4da9060ef50c08adbf881817744566d71adc112f7f53b9e865efc4f2d8ef05e5",
    "test-conn-small-alpha-vertex-case": "4cdd4585b1a46d29b52d11ed73dbfeb39761f886aaca64ed51f09a4d077b2dce",
    "test-conn-unknown-davg-csv": "b01c25dcf7f0c799e5c35d54e3afc85f37e61d7aa930e724aaee4a85ca2b4241",
    "test-conn-unknown-davg-json": "ef22354d54f9deb7d1ea2facfbba6d4d36e28891013c531aaa50b21a206e6133",
}


def _digest(capsys, argv):
    """sha256 over one run's exit code, stdout and --out/--manifest files."""
    code = main(argv)
    h = hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode())
    for flag in ("--out", "--manifest"):
        if flag in argv:
            h.update(Path(argv[argv.index(flag) + 1]).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_outputs(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    for argv in GOLDEN_GRAPHS:
        assert main(argv) == 0
    capsys.readouterr()
    assert _digest(capsys, GOLDEN[case]) == GOLDEN_SHA256[case]
