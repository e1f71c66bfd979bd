"""`--help` and usage-error text, byte for byte against recorded goldens.

The goldens in cli_help_golden.json hold the stdout of `pegkit --help` and
of every subcommand's `--help`, and the stderr of one usage error, each at
COLUMNS=80 and COLUMNS=60. argparse does the layout, and its output differs
between Python versions, so the goldens belong to the version named in the
file. To re-record them after a deliberate change to the help text:

    PYTHONPATH=src python tests/test_cli_help.py
"""

import contextlib
import functools
import io
import json
import os
import sys
from pathlib import Path

import pytest

from pegkit.cli import main

GOLDEN_PATH = Path(__file__).with_name("cli_help_golden.json")
SUBCOMMANDS = ("gen", "erase", "test-conn", "estimate", "exact", "bench")
CASES = {
    "pegkit --help": ["--help"],
    **{f"pegkit {cmd} --help": [cmd, "--help"] for cmd in SUBCOMMANDS},
    "pegkit test-conn without --algo": ["test-conn", "--graph", "g.peg", "--eps", "0.1"],
}
WIDTHS = (80, 60)


def render(argv, columns):
    """(exit code, stdout, stderr) of main(argv) with the terminal COLUMNS wide."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(columns)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return code, out.getvalue(), err.getvalue()


def record():
    """Every case at every width, with the Python version the text came from."""
    return {
        "python": list(sys.version_info[:2]),
        "cases": {
            f"COLUMNS={columns} {name}": dict(zip(("code", "stdout", "stderr"), render(argv, columns)))
            for name, argv in CASES.items()
            for columns in WIDTHS
        },
    }


@functools.cache
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_help_and_usage_text_match_the_goldens(name, columns):
    if golden()["python"] != list(sys.version_info[:2]):
        pytest.skip("argparse lays out help text differently on other Python versions")
    want = golden()["cases"][f"COLUMNS={columns} {name}"]
    assert render(CASES[name], columns) == (want["code"], want["stdout"], want["stderr"])


def test_the_goldens_cover_every_case_and_width():
    cases = golden()["cases"]
    assert sorted(cases) == sorted(f"COLUMNS={columns} {name}" for name in CASES for columns in WIDTHS)
    # The width reaches the layout: each text wraps differently at 60 and 80.
    for name in CASES:
        assert cases[f"COLUMNS=60 {name}"] != cases[f"COLUMNS=80 {name}"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
