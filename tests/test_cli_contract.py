"""The command line's input contract, as a property test over generated inputs.

For PEG texts (drawn from the grammar, then mutated) and argument vectors
(numeric strings such as nan, inf, 1e400, 1e-300, 0/0 and negatives), for
every subcommand, `main`:

- lets no exception escape;
- exits 0, 1 or 2;
- on exit 2, writes exactly one stderr line, and it starts with `error:`;
- on exit 0, writes the same bytes when run again.

argparse refuses a vector it cannot parse (an unknown choice, a `--trials`
that is not an int, a `--sample-coeff` of `0/0`) before any command runs. It
raises SystemExit(2) after a usage line and a `pegkit <command>: error:`
line, the form the help goldens pin, and the test holds such a vector to
exactly that form.

Examples stay cheap. A text declares at most 6 vertices before mutation, and
three edits keep the count below 10 000. Trial counts are at most 2. No
plan refuses a schedule for its size (README, "The input contract"), so a
run whose plan may take arbitrarily long is not run:
`test_an_unbounded_schedule_is_not_refused` pins that rule instead.
"""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from pegkit import connectedness
from pegkit.cli import _ALGOS, main
from pegkit.connectedness import no_erasure_plan

# Numeric strings that a command must refuse or survive. Each argument takes
# one of them one time in six, and otherwise a value that lets the command run.
NUMBERS = (
    "nan", "inf", "-inf", "1e400", "-1e400", "1e-300", "1e-320", "0/0", "1/0", "-1", "-0.5",
    "0", "1/7", "0.1", "0.25", "0.3", "1/3", "2",
)
COUNTS = ("-1", "0", "1", "2", "3", "6", "x", "1.5", "1e3", "٣")
ALGOS = sorted(_ALGOS)
# A run is cheap when its plan schedules at most this many searches per trial,
# or caps its queries at this many.
MAX_SEARCHES = 2000
MAX_BUDGET = 20_000

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def peg_texts(draw):
    """A PEG text from the grammar, with up to three single-character edits."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just("*"), st.integers(0, n - 1).map(str), st.integers(0, n).map(str))
    lines = ["peg 1", f"n {n}"]
    for u in sorted(draw(st.sets(st.integers(0, n - 1)))):
        lines.append(" ".join(["v", str(u), *draw(st.lists(entry, max_size=3))]))
    text = "\n".join(lines) + "\n"
    alphabet = st.sampled_from("0123456789 *vnpeg\n\t\r-+_x٣")
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "replace", "delete")))
        if op == "insert":
            text = text[:i] + draw(alphabet) + text[i:]
        elif op == "replace":
            text = text[:i] + draw(alphabet) + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
    return text


def value(good, bad=NUMBERS):
    return st.integers(0, 5).flatmap(lambda i: st.sampled_from(bad if i == 3 else good))


def one(good, bad=NUMBERS):
    return value(good, bad).map(lambda v: [v])


def option(name, good, bad=NUMBERS):
    """[name, value], five times in six, or nothing."""
    return st.integers(0, 5).flatmap(
        lambda i: st.just([]) if i == 3 else value(good, bad).map(lambda v: [name, v])
    )


def vector(*parts):
    """One argv from fixed strings and strategies of argv fragments."""
    return st.tuples(*(st.just([p]) if isinstance(p, str) else p for p in parts)).map(
        lambda frags: [a for frag in frags for a in frag]
    )


def argvs(graph, out, manifest):
    """Argument vectors for every subcommand, over the graph file `graph`."""
    eps, alpha, davg = ("0.1", "0.25", "0.3", "1/3"), ("0", "0.01"), ("auto", "2")
    trials = one(("0", "1", "2"), ("-1", "x", "1e400"))
    return {
        "gen": vector(
            "gen", "--family",
            one(("gplus", "gminus", "g1", "g2", "two-erasure", "one-erasure-anchored",
                 "far-forest", "cycle-union", "regularish", "connected"), ("bogus",)),
            option("--eps", ("1/7", "0.2")), option("--alpha", ("0", "1/3", "0.05")),
            option("--davg", ("2", "3")), option("--k", ("2", "4"), COUNTS),
            option("--n", ("4", "7", "9"), COUNTS), option("--host-size", ("6",), COUNTS),
            option("--cycle-len", ("3", "4"), COUNTS),
            option("--strategy", ("uniform", "component-hiding"), ("bogus",)),
            "--out", out, option("--manifest", (manifest,), (out,)),
        ),
        "erase": vector(
            "erase", "--graph", graph, "--alpha", one(("0", "0.1", "1/3")),
            option("--strategy", ("uniform", "halves", "symmetric"), ("bogus",)), "--out", out,
        ),
        "test-conn": vector(
            "test-conn", "--graph", graph, "--algo", one(ALGOS, ("bogus",)), "--eps", one(eps),
            option("--alpha", alpha), option("--davg", davg), "--trials", trials,
            option("--format", ("json", "csv"), ("xml",)),
        ),
        "estimate": vector(
            "estimate", "--graph", graph, "--eps", one(("0.1", "0.25", "0.45")),
            option("--sample-coeff", ("1", "0.01")), option("--rep-coeff", ("1", "0.5")),
            "--trials", trials, option("--format", ("json", "csv"), ("xml",)),
        ),
        "exact": vector(
            "exact", "--graph", graph,
            "--what", one(("validate", "distance-conn", "witnesses", "exp-chi", "report"), ("bogus",)),
            option("--dhat", ("1", "2", "1/3")), option("--eps", ("0.25", "1/3")),
            "--slot-bound", one(("4", "8"), COUNTS),
        ),
        "bench": vector(
            "bench", option("--graph", (graph,), ("missing.peg",)), "--algo", one(ALGOS, ("bogus",)),
            "--sweep",
            st.tuples(
                value(("eps", "alpha", "n"), ("bogus", "")),
                st.lists(value(("0.1", "0.3", "0", "6", "9"), NUMBERS + COUNTS), min_size=1, max_size=2),
            ).map(lambda sweep: [f"{sweep[0]}={','.join(sweep[1])}"]),
            option("--eps", eps), option("--alpha", alpha), option("--davg", davg), "--trials", trials,
        ),
    }


class Unaffordable(BaseException):
    """Raised in place of a run whose plan may take arbitrarily long; nothing in `main` catches it."""


def bounded_run_plan(run_plan):
    def run(g, plan, seed):
        capped = plan.budget is not None and plan.budget <= MAX_BUDGET
        if not capped and not (
            isinstance(plan.levels, tuple) and sum(reps for _, reps in plan.levels) <= MAX_SEARCHES
        ):
            raise Unaffordable
        return run_plan(g, plan, seed)

    return run


def call(argv):
    """(exit code, stdout, stderr) of one `main` run.

    The code is ("argparse", code) for argparse's SystemExit, and
    "unaffordable" for a run stopped at a plan that may take arbitrarily long.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch.object(connectedness, "run_plan", bounded_run_plan(connectedness.run_plan)):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = "argparse", exc.code
            except Unaffordable:
                code = "unaffordable"
    return code, out.getvalue(), err.getvalue()


def files(*paths):
    return [p.read_bytes() if p.exists() else None for p in paths]


def check_contract(argv, written):
    for path in written:
        path.unlink(missing_ok=True)
    code, stdout, stderr = call(argv)
    if code == "unaffordable":
        reject()
    if isinstance(code, tuple):
        # argparse's refusal, in the form the help goldens pin
        lines = stderr.splitlines()
        assert code == ("argparse", 2), (argv, stderr)
        assert stdout == "" and lines[0].startswith("usage: pegkit"), (argv, stderr)
        assert lines[-1].startswith("pegkit") and ": error: " in lines[-1], (argv, stderr)
        return
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, stderr)
    if code == 0:
        first = stdout, files(*written)
        for path in written:
            path.unlink(missing_ok=True)
        again = call(argv)
        assert again[0] == 0 and (again[1], files(*written)) == first, argv


@pytest.mark.parametrize("command", ["gen", "erase", "test-conn", "estimate", "exact", "bench"])
@SETTINGS
@given(data=st.data())
def test_the_command_keeps_the_input_contract(tmp_path_factory, command, data):
    # One directory per command; every example overwrites its files.
    work = tmp_path_factory.getbasetemp() / f"contract-{command}"
    work.mkdir(exist_ok=True)
    graph, out, manifest = work / "g.peg", work / "out.peg", work / "manifest.json"
    graph.write_text(data.draw(peg_texts(), label="text"))
    argv = data.draw(argvs(str(graph), str(out), str(manifest))[command], label="argv")
    check_contract(argv, [out, manifest])


def test_an_unbounded_schedule_is_not_refused(tmp_path):
    # The no-erasure plan has no budget, and its schedule grows as
    # 1/(eps * davg). No plan refuses a schedule for its size; on the command
    # line, a supplied --davg that differs from the graph's draws a warning.
    plan = no_erasure_plan(0.3, 1e-5)
    assert 7_000_000 < sum(reps for _, reps in plan.levels) < 8_000_000
    assert plan.budget is None
    graph = tmp_path / "g.peg"
    graph.write_text("peg 1\nn 2\nv 0 1\nv 1 0\n")
    argv = ["test-conn", "--graph", str(graph), "--algo", "no-erasure", "--eps", "0.3",
            "--davg", "1e-5", "--trials", "1"]
    # The connected pair never rejects, so the trial would run every search.
    # The guard stops it at its plan, which shows that nothing refused it.
    assert call(argv)[0] == "unaffordable"
