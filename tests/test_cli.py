import json

import pytest

from pegkit.cli import main
from pegkit.graph import PartiallyErasedGraph, load_peg, save_peg


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


def test_missing_graph_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--graph", "/nonexistent.peg", "--what", "validate"])
    assert exc.value.code == 2


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
