"""List the statements of `src/pegkit` that the benchmark and a CLI grid never run.

    python3 tools/src_reach.py

`src/pegkit` should hold only what the CLI, `perfbench/` or another `src`
function runs; what only the tests need belongs in `tests/reference.py`.
This script makes that rule checkable. It traces line events with the
standard library's `sys.settrace` (no coverage package is needed) while it:

- runs `perfbench/run.py`'s `main` in this process for every workload at
  `--size tiny` and seed `SEED`, once with `--trace 0` and once with
  `--trace 1` (`--seconds 0`, so one measured round each);
- runs `pegkit.cli.main` over a fixed grid: every `gen` family, every
  `erase` strategy, every `test-conn` algo, every `bench` sweep kind,
  `estimate`, and every `exact --what`.

For each file under `src/pegkit` it then prints the statements that none of
these runs executed, each with its line number and its enclosing function.
A statement counts as run when Python reports a line event on its first
line; docstrings and `global`/`nonlocal` declarations have no code and are
left out. It is a diagnostic, not a test; the run takes about half a
minute. The benchmark writes its result files under `perfbench/out/`, and
the grid works in a temporary directory that is removed afterwards.

Triage each listed statement as one of:

- an error path: a refusal that turns bad input into one `error:` line.
  These stay; the CLI tests, not this grid, should reach them.
- a reference kept for the tests: code that only a test runs. It leaves
  `src` for `tests/reference.py`, or gains a CLI or benchmark caller.
- an input the grid does not reach: a branch that real runs take on
  inputs outside the grid (a budget that binds, a rare graph shape). Add
  the input to the grid, or record why the branch is needed.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pegkit"
WORKLOADS = ("conn-accept", "far-reject", "estimate", "exact-oracle")
SEED = 5

# (family, arguments) for `pegkit gen`; every family, and both branches of
# `regularish` (a d-regular graph, and G(n, m) for a fractional degree).
GEN = [
    ("gplus", ["--eps", "1/7", "--k", "4"]),
    ("gminus", ["--eps", "1/7", "--k", "4"]),
    ("g1", ["--alpha", "1/4", "--n", "11"]),
    ("g2", ["--alpha", "1/4", "--n", "11"]),
    ("two-erasure", []),
    ("one-erasure-anchored", []),
    ("far-forest", ["--eps", "0.2", "--alpha", "0.05", "--n", "200"]),
    ("far-forest", ["--eps", "0.2", "--alpha", "0.05", "--n", "200", "--strategy", "component-hiding"]),
    ("cycle-union", ["--n", "30", "--cycle-len", "5"]),
    ("regularish", ["--n", "60", "--davg", "3"]),
    ("regularish", ["--n", "61", "--davg", "2.5"]),
    ("connected", ["--n", "200", "--davg", "3"]),
]
ERASE = ("uniform", "halves", "symmetric")
ALGOS = ("small-alpha", "mid-alpha", "no-erasure", "unknown-davg")
SWEEPS = ("eps=0.15,0.3", "alpha=0,0.05", "n=100,200")


def cli_grid(work):
    """The argument vectors of the CLI grid, in order; files go under `work`."""
    def peg(name):
        return str(work / f"{name}.peg")

    grid = []
    for i, (family, params) in enumerate(GEN):
        grid.append(["gen", "--family", family, *params, "--seed", "1", "--out", peg(f"gen{i}"),
                     "--manifest", str(work / f"gen{i}.json")])
    connected, forest, gminus = peg(f"gen{len(GEN) - 1}"), peg("gen6"), peg("gen1")
    for strategy in ERASE:
        grid.append(["erase", "--graph", connected, "--alpha", "0.05", "--strategy", strategy,
                     "--seed", "2", "--out", peg(f"erased-{strategy}")])
    for algo in ALGOS:
        for graph in (connected, forest, peg("erased-uniform")):
            grid.append(["test-conn", "--graph", graph, "--algo", algo, "--eps", "0.2",
                         "--trials", "20", "--seed", "3", "--format", "csv", "--timings"])
    for sweep in SWEEPS:
        grid.append(["bench", "--graph", forest, "--algo", "small-alpha", "--sweep", sweep,
                     "--trials", "5", "--davg", "2", "--out", str(work / "sweep.csv")])
    grid.append(["estimate", "--graph", peg("gen9"), "--eps", "0.25", "--trials", "3", "--seed", "4"])
    grid.append(["estimate", "--graph", peg("gen9"), "--eps", "0.25", "--trials", "3",
                 "--sample-coeff", "10", "--rep-coeff", "2", "--format", "csv"])
    for what in ("validate", "distance-conn", "witnesses", "exp-chi", "report"):
        grid.append(["exact", "--graph", gminus, "--what", what, "--dhat", "2", "--eps", "1/4"])
    grid.append(["exact", "--graph", gminus, "--what", "report"])
    return grid


def statements(path):
    """{first line: enclosing function} for every statement of the file that has code."""
    tree = ast.parse(path.read_text(), str(path))
    found = {}

    def visit(node, scope):
        body = getattr(node, "body", None)
        docstring = (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        )
        for child in ast.iter_child_nodes(node):
            if docstring and child is body[0]:
                continue
            if isinstance(child, ast.stmt) and not isinstance(child, (ast.Global, ast.Nonlocal)):
                found.setdefault(child.lineno, scope)
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(tree, "<module>")
    return found


def traced_runs():
    """Run the benchmark and the grid under a line tracer -> {file: lines run}."""
    files = {str(p): set() for p in SRC.glob("*.py")}

    def on_line(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename in files else None

    spec = importlib.util.spec_from_file_location("run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.settrace(on_call)
    try:
        spec.loader.exec_module(run)
        with contextlib.redirect_stdout(io.StringIO()):
            for workload in WORKLOADS:
                for trace in ("0", "1"):
                    run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                              "--trace", trace, "--size", "tiny"])
        from pegkit import cli

        with tempfile.TemporaryDirectory() as tmp:
            for argv in cli_grid(Path(tmp)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                if code != 0:
                    print(f"grid run {' '.join(argv[:4])} exited {code}: {err.getvalue().strip()}",
                          file=sys.stderr)
    finally:
        sys.settrace(None)
    return files


def main():
    hits = traced_runs()
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        scopes = statements(path)
        missed = sorted(line for line in scopes if line not in hits[str(path)])
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} statements not run")
        for line in missed:
            print(f"  {line:5d}  {scopes[line]}: {lines[line - 1].strip()[:90]}")
    print(f"total: {total} statements not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
