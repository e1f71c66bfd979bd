"""Check that every statement of `src/pegkit` is run by the benchmark or a CLI grid, or is allowed.

    python3 tools/src_reach.py

`src/pegkit` should hold only what the CLI, `perfbench/` or another `src`
function runs; what only the tests need belongs in `tests/reference.py`.
This script checks that rule. It traces line events with the standard
library's `sys.settrace` (no coverage package is needed) while it:

- runs `perfbench/run.py`'s `main` in this process for every workload at
  `--size tiny`, seed `SEED`, `--trace 0` and `--seconds 0`, so one measured
  round each (a `--trace 1` run repeats the same CLI jobs under
  `perfbench/`'s wrappers, and reaches no other `src` statement);
- runs `pegkit.cli.main` over a fixed grid: every `gen` family, every
  `erase` strategy, every `test-conn` algo, every `bench` sweep kind,
  `estimate`, every `exact --what`, and the inputs that reach the rarer
  branches (hand-written PEG texts, one invalid file per `validate` code, a
  one-vertex graph, a budget that binds), and every exact oracle on each
  invalid file;
- runs `python -m pegkit.cli` once, through `runpy`.

A statement counts as run when Python reports a line event on its first
line; docstrings and `global`/`nonlocal` declarations have no code and are
left out. Every statement that none of these runs executed must be on the
allowlist `tools/src_reach_allow.txt`, one line per statement:

    <reason> | <file> | <function> | <statement's first line>

keyed by text, not line number, so an edit elsewhere in the file does not
move it. A function with several identical unrun statements lists the line
that many times. The reason is one of:

- `error`: a refusal that turns bad input into an exception or one `error:`
  line. The CLI and unit tests reach these, not this grid.
- `test-api`: code that only the tests (or `perfbench/`'s wrappers) call, kept
  in `src` on purpose.

Any other unrun statement is either a reference kept for the tests (move it
to `tests/reference.py`) or a branch that real inputs take and the grid
misses (add the input to the grid). The script prints every unrun statement
that is not on the list, every list entry that matches no unrun statement
(so the list cannot go stale), and every grid run that exits with a code
other than the one expected. It exits 1 if there is any, and 0 otherwise.
The run takes about 6 s. The benchmark writes its result files under
`perfbench/out/`, and the grid works in a temporary directory that is
removed afterwards.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import runpy
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pegkit"
ALLOW = Path(__file__).resolve().parent / "src_reach_allow.txt"
REASONS = ("error", "test-api")
WORKLOADS = ("conn-accept", "far-reject", "estimate", "exact-oracle")
SEED = 5

# (family, arguments) for `pegkit gen`; every family, both branches of
# `regularish` (a d-regular graph, and G(n, m) for a fractional degree) and
# its complete-graph case, and far forests that tile paths: one whose odd
# remainder takes a three-vertex path, one that gives a cycle back to fit
# it, and one whose eps leaves no cycle short enough.
GEN = [
    ("gplus", ["--eps", "1/7", "--k", "4"]),
    ("gminus", ["--eps", "1/7", "--k", "4"]),
    ("g1", ["--alpha", "1/4", "--n", "11"]),
    ("g2", ["--alpha", "1/4", "--n", "11"]),
    ("two-erasure", []),
    ("one-erasure-anchored", []),
    ("far-forest", ["--eps", "0.2", "--alpha", "0.05", "--n", "200"]),
    ("far-forest", ["--eps", "0.2", "--alpha", "0.05", "--n", "200", "--strategy", "component-hiding"]),
    ("far-forest", ["--eps", "0.2", "--alpha", "0", "--n", "201", "--davg", "1.5"]),
    ("far-forest", ["--eps", "0.2", "--alpha", "0", "--n", "201"]),
    ("far-forest", ["--eps", "0.4", "--alpha", "0", "--n", "200"]),
    ("cycle-union", ["--n", "30", "--cycle-len", "5"]),
    ("regularish", ["--n", "60", "--davg", "3"]),
    ("regularish", ["--n", "61", "--davg", "2.5"]),
    ("regularish", ["--n", "4", "--davg", "3.5"]),
    ("connected", ["--n", "1"]),
    ("connected", ["--n", "200", "--davg", "3"]),
]
ERASE = ("uniform", "halves", "symmetric")
ALGOS = ("small-alpha", "mid-alpha", "no-erasure", "unknown-davg")
SWEEPS = ("eps=0.15,0.3", "alpha=0,0.05", "n=100,200")

# Vertex 0 has two free slots and four allowed partners, so the completion
# search takes a combination of two at once.
TWO_SLOTS = "peg 1\nn 5\nv 0 * *\nv 1 *\nv 2 *\nv 3 * 4\nv 4 3 *\n"
# Hand-written texts of that graph, outside `format_peg`'s layout. Each
# leaves the whole-text reader at a different check, and the per-line parser
# reads it. A CRLF file is read with its line ends translated, so it stays
# on the whole-text reader.
PEG_TEXTS = {
    "crlf": TWO_SLOTS.replace("\n", "\r\n"),
    "unsorted": "peg 1\nn 5\nv 4 3 *\nv 3 * 4\nv 2 *\nv 1 *\nv 0 * *\n",
    "no-final-newline": TWO_SLOTS[:-1],
    "spaced-count": TWO_SLOTS.replace("n 5\n", "n 5 \n"),
    "blank-line": TWO_SLOTS.replace("v 1", "\nv 1"),
    "double-space": TWO_SLOTS.replace("v 3 *", "v 3  *"),
}
# One file per `validate` code that a PEG file can hold. An entry out of
# range cannot: the parser refuses it.
INVALID = {
    "degree-overflow": "peg 1\nn 2\nv 0 * *\nv 1 *\n",
    "self-loop": "peg 1\nn 2\nv 0 0\n",
    "duplicate-entry": "peg 1\nn 3\nv 0 1 1\nv 1 0 0\n",
    "odd-entry-total": "peg 1\nn 3\nv 0 1\nv 1 0\nv 2 *\n",
    "forced-overflow": "peg 1\nn 3\nv 0 1\nv 2 1\nv 1 *\n",
    "free-parity": "peg 1\nn 4\nv 0 1 *\nv 1 0\nv 2 3 *\nv 3 2 *\n",
}


def cli_grid(work):
    """(argv, expected exit code) for each run of the CLI grid, in order; files go under `work`."""
    def peg(name):
        return str(work / f"{name}.peg")

    for name, text in {"two-slots": TWO_SLOTS, **PEG_TEXTS, **INVALID}.items():
        Path(peg(name)).write_bytes(text.encode())
    grid = []
    for i, (family, params) in enumerate(GEN):
        grid.append(["gen", "--family", family, *params, "--seed", "1", "--out", peg(f"gen{i}"),
                     "--manifest", str(work / f"gen{i}.json")])
    connected, forest, gminus = peg(f"gen{len(GEN) - 1}"), peg("gen6"), peg("gen1")
    one_vertex, regular = peg(f"gen{len(GEN) - 2}"), peg("gen12")
    for strategy in ERASE:
        grid.append(["erase", "--graph", connected, "--alpha", "0.05", "--strategy", strategy,
                     "--seed", "2", "--out", peg(f"erased-{strategy}")])
    grid.append(["erase", "--graph", connected, "--alpha", "0", "--out", peg("erased-none")])
    for algo in ALGOS:
        for graph in (connected, forest, peg("erased-uniform")):
            grid.append(["test-conn", "--graph", graph, "--algo", algo, "--eps", "0.2",
                         "--trials", "5", "--seed", "3", "--format", "csv", "--timings"])
    # A davg far below the graph's makes the small-alpha budget bind; a
    # one-vertex graph has no proper subset to find.
    grid.append(["test-conn", "--graph", connected, "--algo", "small-alpha", "--eps", "0.2",
                 "--davg", "0.1", "--trials", "5"])
    grid.append(["test-conn", "--graph", one_vertex, "--algo", "unknown-davg", "--eps", "0.2", "--trials", "2"])
    grid.append(["test-conn", "--graph", one_vertex, "--algo", "mid-alpha", "--eps", "0.2", "--davg", "1",
                 "--trials", "2"])
    for sweep in SWEEPS:
        grid.append(["bench", "--graph", forest, "--algo", "small-alpha", "--sweep", sweep,
                     "--trials", "5", "--davg", "2", "--out", str(work / "sweep.csv")])
    grid.append(["estimate", "--graph", regular, "--eps", "0.25", "--trials", "3", "--seed", "4"])
    grid.append(["estimate", "--graph", regular, "--eps", "0.25", "--trials", "3",
                 "--sample-coeff", "10", "--rep-coeff", "2", "--format", "csv"])
    grid.append(["estimate", "--graph", regular, "--eps", "0.25", "--trials", "0"])
    for what in ("validate", "distance-conn", "witnesses", "exp-chi", "report"):
        grid.append(["exact", "--graph", gminus, "--what", what, "--dhat", "2", "--eps", "1/4"])
    grid.append(["exact", "--graph", gminus, "--what", "report"])
    for what in ("distance-conn", "report"):
        grid.append(["exact", "--graph", peg("two-slots"), "--what", what])
    for name in PEG_TEXTS:
        grid.append(["exact", "--graph", peg(name), "--what", "validate"])
    runs = [(argv, 0) for argv in grid]
    runs += [(["exact", "--graph", peg(name), "--what", "validate"], 1) for name in INVALID]
    # Every other oracle refuses an invalid file.
    runs += [(["exact", "--graph", peg(name), "--what", what, "--dhat", "2", "--eps", "1/4"], 2)
             for name in INVALID for what in ("distance-conn", "witnesses", "exp-chi", "report")]
    return runs


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
    """Run the benchmark and the grid under a line tracer -> ({file: lines run}, grid failures)."""
    files = {str(p): set() for p in SRC.glob("*.py")}

    def line_tracer(hits):
        # A return or exception event reports a line that has already run.
        def on_line(frame, event, arg):
            hits.add(frame.f_lineno)
            return on_line

        return on_line

    tracers = {name: line_tracer(hits) for name, hits in files.items()}

    def on_call(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    failures = []
    spec = importlib.util.spec_from_file_location("run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.settrace(on_call)
    try:
        spec.loader.exec_module(run)
        with contextlib.redirect_stdout(io.StringIO()):
            for workload in WORKLOADS:
                code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                                 "--trace", "0", "--size", "tiny"])
                if code:
                    failures.append(f"perfbench {workload} exited {code}")
        from pegkit import cli

        with tempfile.TemporaryDirectory() as tmp:
            for argv, expected in cli_grid(Path(tmp)):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                if code != expected:
                    failures.append(f"grid run {' '.join(argv[:6])} exited {code}, not {expected}: "
                                    f"{err.getvalue().strip()}")
            sys.argv = ["pegkit", "exact", "--graph", str(Path(tmp) / "two-slots.peg"), "--what", "validate"]
            with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
                # runpy warns that pegkit.cli is already imported, then runs it afresh.
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    runpy.run_module("pegkit.cli", run_name="__main__")
                except SystemExit as exc:
                    if exc.code:
                        failures.append(f"python -m pegkit.cli exited {exc.code}")
    finally:
        sys.settrace(None)
    return files, failures


def read_allowlist(path=ALLOW):
    """Counter of (file, function, statement text) over the list's entries -> reason of each key.

    A malformed line raises ValueError.
    """
    allowed, reasons = Counter(), {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split(" | ", 3)]
        if len(parts) != 4 or parts[0] not in REASONS:
            raise ValueError(f"{path.name} line {lineno}: expected '<{'|'.join(REASONS)}> | file | function | "
                             f"statement', got {line!r}")
        key = tuple(parts[1:])
        allowed[key] += 1
        reasons[key] = parts[0]
    return allowed, reasons


def unrun(hits):
    """(file name, line, function, statement text) of every statement not in `hits`, {file: lines run}."""
    missed = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for line, scope in sorted(statements(path).items()):
            if line not in hits[str(path)]:
                missed.append((path.name, line, scope, lines[line - 1].strip()))
    return missed


def check(missed, allowed):
    """(unrun statements the list does not allow, list entries left over), as printable lines."""
    left = allowed.copy()
    unlisted = []
    for name, line, scope, text in missed:
        key = (name, scope, text)
        if left[key]:
            left[key] -= 1
        else:
            unlisted.append(f"  src/pegkit/{name}:{line}  {scope}: {text}")
    stale = [f"  {' | '.join(key)}" for key, count in left.items() for _ in range(count)]
    return unlisted, stale


def main():
    allowed, reasons = read_allowlist()
    hits, failures = traced_runs()
    missed = unrun(hits)
    unlisted, stale = check(missed, allowed)
    by_reason = Counter(reasons[name, scope, text] for name, _, scope, text in missed
                        if (name, scope, text) in reasons)
    print(f"{len(missed)} statements not run; {len(missed) - len(unlisted)} of them allowed by {ALLOW.name} "
          f"({', '.join(f'{count} {reason}' for reason, count in sorted(by_reason.items()))})")
    for title, items in (
        ("not run and not allowed", unlisted),
        (f"allowed by {ALLOW.name} but run or gone", stale),
        ("runs that failed", failures),
    ):
        if items:
            print(f"{title}:")
            print("\n".join(items))
    return 1 if unlisted or stale or failures else 0


if __name__ == "__main__":
    sys.exit(main())
