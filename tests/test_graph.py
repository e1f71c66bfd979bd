
import enum
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegkit import graph
from pegkit.exact import enumerate_completions
from pegkit.graph import (
    ERASED,
    MAX_VERTICES,
    PartiallyErasedGraph,
    erase_slots,
    format_peg,
    parse_peg,
    validate,
)
from pegkit.instances import erase, gen_connected, gen_gplus

from reference import completed_graph, erased_slots


def triangle():
    return PartiallyErasedGraph([[1, 2], [0, 2], [0, 1]])


def test_triangle_degrees_and_counts():
    g = triangle()
    assert g.num_vertices == 3
    assert g.num_edges == 3
    assert g.degree(0) == 2
    assert g.avg_degree == 2.0
    assert g.erasure_fraction() == 0


def test_hub_degree_matches_cycle_count():
    g = gen_gplus("1/7", 4, seed=0)
    hub = max(range(g.num_vertices), key=g.degree)
    assert g.degree(hub) == 4


def test_erasure_does_not_change_degree():
    g = PartiallyErasedGraph([[1], [0, 2], [1]])
    h = erase_slots(g, [(1, 0)])
    assert h.degree(1) == 2
    assert h.neighbor(1, 1) is ERASED
    assert h.neighbor(1, 2) == 2


def test_neighbor_is_one_based_and_bounded():
    g = triangle()
    assert g.neighbor(0, 1) == 1
    assert g.neighbor(0, 2) == 2
    with pytest.raises(IndexError):
        g.neighbor(0, 0)
    with pytest.raises(IndexError):
        g.neighbor(0, 3)
    with pytest.raises(IndexError):
        g.degree(5)


def test_validate_accepts_generator_output():
    for seed in range(3):
        g = erase(gen_connected(40, 2.0, seed=seed), 0.25, "uniform", seed=seed)
        assert validate(g) == []


def test_validate_flags_structural_problems():
    dup = PartiallyErasedGraph([[1, 1], [0, 0]])
    assert any(v.code == "duplicate-entry" for v in validate(dup))
    loop = PartiallyErasedGraph([[0], [0]])
    assert any(v.code == "self-loop" for v in validate(loop))
    out = PartiallyErasedGraph([[5], [0]])
    assert any(v.code == "entry-range" for v in validate(out))
    odd = PartiallyErasedGraph([[1], [0], [0]])
    assert any(v.code == "odd-entry-total" for v in validate(odd))


def test_validate_flags_uncompletable_half_erased_edge():
    # 0 lists 1, but 1 has no erased slot to absorb the edge.
    g = PartiallyErasedGraph([[1, ERASED], [2], [1, ERASED]])
    codes = {v.code for v in validate(g)}
    assert "forced-overflow" in codes
    # the completion enumerator is the ground truth: no completion exists
    assert enumerate_completions(g) == []


def test_completion_roundtrip_reproduces_graph():
    g = PartiallyErasedGraph([[1, ERASED], [0, 2], [ERASED, 1]])
    # the free slots (0, 1) and (2, 0) pair up as the new edge 0-2
    full = completed_graph(g, ((0, 2),))
    assert full == PartiallyErasedGraph([[1, 2], [0, 2], [0, 1]])
    assert full.erased_total == 0
    again = erase_slots(full, [(0, 1), (2, 0)])
    assert again == g
    # partners that do not fill the erased slots exactly are refused
    with pytest.raises(ValueError, match="0 partners for the 1 erased slots of 0"):
        completed_graph(g, ())
    with pytest.raises(ValueError, match="2 partners for the 1 erased slots of 0"):
        completed_graph(g, ((0, 1), (0, 2)))


def test_enumerated_completions_roundtrip():
    g = erase(gen_connected(12, 2.0, seed=3), 0.2, "uniform", seed=5)
    slots = [(u, i) for u in range(g.num_vertices) for i in erased_slots(g, u)]
    for pairs in enumerate_completions(g, slot_bound=24):
        full = completed_graph(g, pairs)
        assert full.erased_total == 0
        assert erase_slots(full, slots) == g


def test_peg_roundtrip_byte_identical():
    for seed in range(3):
        g = erase(gen_connected(25, 2.2, seed=seed), 0.3, "uniform", seed=seed + 1)
        text = format_peg(g)
        h = parse_peg(text)
        assert h == g
        assert format_peg(h) == text


def test_peg_omits_degree_zero_lines():
    g = PartiallyErasedGraph([[1], [0], []])
    text = format_peg(g)
    assert "v 2" not in text
    assert parse_peg(text) == g


def test_peg_parse_errors():
    with pytest.raises(ValueError):
        parse_peg("nope\n")
    with pytest.raises(ValueError):
        parse_peg("peg 1\nn x\n")
    with pytest.raises(ValueError, match="bad vertex count line"):
        parse_peg("peg 1\nn 3 7\nv 0 1\nv 1 0\n")
    with pytest.raises(ValueError):
        parse_peg("peg 1\nn 2\nv 0 1\nv 0 1\n")
    with pytest.raises(ValueError):
        parse_peg("peg 1\nn 2\nv 7 0\n")


def test_peg_count_and_vertex_lines_split_on_any_whitespace():
    g = PartiallyErasedGraph([[1], [0]])
    assert parse_peg("peg 1\nn\t2\nv 0 1\nv 1 0\n") == g
    assert parse_peg("peg 1\nn 2\nv\t0 1\nv 1\t0\n") == g
    with pytest.raises(ValueError, match="missing 'n <count>' line"):
        parse_peg("peg 1\nn2\nv 0 1\nv 1 0\n")


@st.composite
def valid_graphs(draw, erasures=True):
    """A random simple graph whose lists are shuffled and, unless told otherwise, partly erased."""
    n = draw(st.integers(1, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    out = []
    for row in rows:
        row = draw(st.permutations(row))
        erased = draw(st.lists(st.booleans(), min_size=len(row), max_size=len(row))) if erasures else []
        out.append([ERASED if gone else e for e, gone in zip(row, erased)])
    return PartiallyErasedGraph(out)


# Spellings int() reads as a number but the PEG format does not.
RESPELLINGS = [
    lambda tok: "0" + tok,
    lambda tok: "+" + tok,
    lambda tok: tok + "_0",
    lambda tok: tok.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                          "\u0665\u0666\u0667\u0668\u0669")),
]


@settings(max_examples=200, deadline=None)
@given(valid_graphs())
def test_peg_roundtrip_property(g):
    assert not validate(g)
    text = format_peg(g)
    assert parse_peg(text) == g
    assert format_peg(parse_peg(text)) == text
    # A trailing tab is not among the characters the whole-text scan lets
    # through, so this parse checks every token.
    assert parse_peg(text.replace("\n", "\t\n")) == g


@settings(max_examples=200, deadline=None)
@given(valid_graphs(), st.data())
def test_peg_rejects_non_plain_numbers(g, data):
    lines = format_peg(g).splitlines()
    li = data.draw(st.integers(1, len(lines) - 1))
    parts = lines[li].split()
    ti = data.draw(st.sampled_from([i for i, tok in enumerate(parts) if tok.isdigit()]))
    parts[ti] = data.draw(st.sampled_from(RESPELLINGS))(parts[ti])
    lines[li] = " ".join(parts)
    expected = "bad vertex count line" if li == 1 else f"line {li + 1}: bad "
    with pytest.raises(ValueError, match=expected):
        parse_peg("\n".join(lines) + "\n")


def test_peg_erased_entries_roundtrip():
    g = PartiallyErasedGraph([[1, ERASED], [0, ERASED]])
    assert parse_peg(format_peg(g)) == g
    assert "*" in format_peg(g)


class Color(enum.IntEnum):
    RED = 0
    GREEN = 1


@pytest.mark.parametrize("bad", [True, 1.0, "1", np.int64(1)], ids=["bool", "float", "str", "int64"])
def test_constructor_names_a_non_int_entry(bad):
    with pytest.raises(TypeError, match=re.escape(f"entry {bad!r} in list of 1 is not a vertex id")):
        PartiallyErasedGraph([[1, ERASED], [ERASED, bad], [0]])


def test_constructor_counts_entries_and_erasures():
    g = PartiallyErasedGraph([[1, ERASED], [Color.RED, ERASED, 2], [], [ERASED]])
    assert (g.num_entries, g.erased_total) == (6, 3)
    assert g.entries(1)[0] is Color.RED
    assert g == PartiallyErasedGraph([[1, ERASED], [0, ERASED, 2], [], [ERASED]])
    h = PartiallyErasedGraph([[Color.GREEN], [Color.RED]])
    assert (h.num_entries, h.erased_total) == (2, 0)


def test_vertex_count_above_the_limit_is_refused():
    text = "peg 1\nn 99999999999\nv 0 1\nv 1 0\n"
    message = f"vertex count 99999999999 is above the limit {MAX_VERTICES}"
    with pytest.raises(ValueError, match=message):
        parse_peg(text)
    with pytest.raises(ValueError, match=message):
        graph._parse_lines(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _on_v_line(edit):
    """A mutation that calls edit(parts, data, n) on the tokens of a drawn `v` line.

    A text with no `v` line first gets `v 0`.
    """
    def mutate(lines, data):
        if len(lines) == 2:
            lines.append("v 0")
        li = data.draw(st.integers(2, len(lines) - 1))
        parts = lines[li].split()
        edit(parts, data, int(lines[1].split()[1]))
        lines[li] = " ".join(parts)
    return mutate


def _set_entry(make):
    """A mutation that replaces a drawn entry, or adds one, with make(data, n)."""
    def edit(parts, data, n):
        i = data.draw(st.integers(2, len(parts)))
        parts[i:i + 1] = [make(data, n)]
    return _on_v_line(edit)


def _leading_zero(parts, data, n):
    i = data.draw(st.sampled_from([i for i, tok in enumerate(parts) if tok.isdigit()]))
    parts[i] = "0" + parts[i]


def _id_out_of_range(parts, data, n):
    parts[1] = str(n + data.draw(st.integers(0, 2)))


def _double_space(lines, data):
    li = data.draw(st.integers(0, len(lines) - 1))
    at = data.draw(st.sampled_from([i for i, c in enumerate(lines[li]) if c == " "]))
    lines[li] = lines[li][:at] + " " + lines[li][at:]


def _trailing_space(lines, data):
    lines[data.draw(st.integers(0, len(lines) - 1))] += " "


def _duplicate_line(lines, data):
    if len(lines) == 2:
        lines.append("v 0")
    li = data.draw(st.integers(2, len(lines) - 1))
    lines.insert(data.draw(st.integers(2, len(lines))), lines[li])


def _swap_lines(lines, data):
    if len(lines) > 3:
        i, j = data.draw(st.lists(st.integers(2, len(lines) - 1), min_size=2, max_size=2, unique=True))
        lines[i], lines[j] = lines[j], lines[i]


def _v_to_previous_line(lines, data):
    if len(lines) > 3:
        li = data.draw(st.integers(3, len(lines) - 1))
        lines[li - 1] += " v"
        lines[li] = lines[li].removeprefix("v ")


# Each edits the canonical text's lines in place, to be joined with newlines
# and a final newline, or returns the whole text.
MUTATIONS = {
    "none": lambda lines, data: None,
    "doubled space": _double_space,
    "trailing space": _trailing_space,
    "empty line": lambda lines, data: lines.insert(data.draw(st.integers(1, len(lines))), ""),
    "no final newline": lambda lines, data: "\n".join(lines),
    "crlf": lambda lines, data: "\r\n".join(lines) + "\r\n",
    "**": _set_entry(lambda data, n: "**"),
    "*5": _set_entry(lambda data, n: "*5"),
    "5*": _set_entry(lambda data, n: "5*"),
    "leading zero": _on_v_line(_leading_zero),
    "v mid-line": _on_v_line(lambda parts, data, n: parts.insert(data.draw(st.integers(1, len(parts))), "v")),
    "v moved to the line before": _v_to_previous_line,
    "v with no id": lambda lines, data: lines.insert(data.draw(st.integers(2, len(lines))), "v"),
    "duplicate v line": _duplicate_line,
    "lines out of order": _swap_lines,
    "id out of range": _on_v_line(_id_out_of_range),
    "entry out of range": _set_entry(lambda data, n: str(n + data.draw(st.integers(0, 2)))),
    "entry past int64": _set_entry(lambda data, n: str(2**63 + data.draw(st.integers(-1, 2**64)))),
    "n 04": lambda lines, data: lines.__setitem__(1, "n 0" + lines[1].split()[1]),
}


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(valid_graphs(), st.sampled_from(sorted(MUTATIONS)), st.data())
def test_parse_matches_the_per_line_parser(g, mutation, data):
    lines = format_peg(g).splitlines()
    text = MUTATIONS[mutation](lines, data) or "\n".join(lines) + "\n"
    assert _outcome(parse_peg, text) == _outcome(graph._parse_lines, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(valid_graphs(), valid_graphs(erasures=False)))
def test_serializer_output_skips_the_per_line_parser(g):
    text = format_peg(g)
    with mock.patch.object(graph, "_parse_lines", side_effect=AssertionError("per-line parse")):
        assert parse_peg(text) == g


def test_generated_graphs_skip_the_per_line_parser():
    g = gen_connected(300, 3.0, seed=4)
    with mock.patch.object(graph, "_parse_lines", side_effect=AssertionError("per-line parse")):
        for h in (g, erase(g, 0.1, "uniform", seed=5)):
            assert parse_peg(format_peg(h)) == h
