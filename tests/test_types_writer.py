"""The `types` report written from columns and node strings against the
dict-built report.

The CLI writes the class representatives and the cocycle tables of a
`types` report from :class:`parahoric.cli.Vectors` values (the product of
the strings of each node, or the listed SL diagonals, joined once) and
:class:`parahoric.cli.CocycleTable` values (integer columns over d, joined
with the pieces of the layout in key order).  Its stdout must equal, byte
for byte, the report of ``tests/references.py`` built as dicts of lists of
strings from the rows of each table, passed through
``json.dumps(indent=2, sort_keys=True)`` (JSON) and through the old text
renderer (text).
"""

import contextlib
import io
import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parahoric.cli as cli
from parahoric.cli import main

from .references import dict_types_report, dict_types_text
from .test_golden_cli import load_cases, run_case

# groups of rank <= 4, with the largest order e <= 30 whose grid e^r the
# test lists in a few milliseconds
GROUPS = {"A1": 30, "A2": 30, "B2": 30, "C2": 30, "G2": 30, "A3": 12, "B3": 12,
          "C3": 12, "A4": 6, "B4": 6, "C4": 6, "D4": 6, "F4": 6}


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def expected(fmt, label, rank, order, action_kind, **options):
    report = dict_types_report(label, rank, order, action_kind, **options)
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return "\n".join(dict_types_text(report)) + "\n"


def assert_matches_reference(argv, fmt, label, rank, order, action_kind, **options):
    code, out = stdout_of(argv + ["--format", fmt])
    assert code == 0
    assert out == expected(fmt, label, rank, order, action_kind, **options)


@st.composite
def trivial_cases(draw):
    group = draw(st.sampled_from(sorted(GROUPS)))
    rank = int(group[1:])
    e = draw(st.integers(1, GROUPS[group]))
    numerators = draw(st.none() | st.lists(st.integers(-2 * e, 2 * e),
                                           min_size=rank, max_size=rank))
    point = None if numerators is None else tuple(Fraction(k, e) for k in numerators)
    return group, rank, e, point


@settings(database=None, max_examples=60, deadline=None)
@given(trivial_cases(), st.sampled_from(("json", "text")))
def test_trivial_types_equal_the_dict_built_report(case, fmt):
    group, rank, e, point = case
    argv = ["types", "--group", group, "--order", str(e)]
    if point is not None:
        argv.append("--point=" + ",".join(map(str, point)))
    assert_matches_reference(argv, fmt, group[0], rank, e, "trivial", point=point)


SL_CASES = [(n, "sl-J") for n in range(3, 9)] + [(n, "sl-Jprime") for n in (4, 6, 8)]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("n,kind", SL_CASES)
def test_sl_types_equal_the_dict_built_report(n, kind, fmt):
    argv = ["types", "--group", f"A{n - 1}", "--order", "2", "--action", kind]
    assert_matches_reference(argv, fmt, "A", n - 1, 2, kind)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_diagram_types_equal_the_dict_built_report(fmt):
    argv = ["types", "--group", "A4", "--order", "2", "--action", "diagram",
            "--perm", "4,3,2,1"]
    assert_matches_reference(argv, fmt, "A", 4, 2, "diagram", perm=(3, 2, 1, 0))


# the orders of the census beyond the Hypothesis range: three-digit keys,
# which sort as strings ("100" before "11"), and tables whose rows repeat
LARGE_CASES = [("A1", e) for e in (1, 99, 100, 101, 200)] + [("A2", 34), ("G2", 34)]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("hyperspecial", [False, True], ids=["default-point", "point-0"])
@pytest.mark.parametrize("group,e", LARGE_CASES)
def test_large_orders_equal_the_dict_built_report(group, e, hyperspecial, fmt):
    rank = int(group[1:])
    point = (Fraction(0),) * rank if hyperspecial else None
    argv = ["types", "--group", group, "--order", str(e)]
    if hyperspecial:
        argv.append("--point=" + ",".join(["0"] * rank))
        # at the origin some types have tables over a denominator d < e
        report = dict_types_report(group[0], rank, e, "trivial", point=point)
        denominators = [lcm(*(Fraction(x).denominator for x in t["representative"]))
                        for t in report["types"]]
        assert e == 1 or min(denominators) < e
    assert_matches_reference(argv, fmt, group[0], rank, e, "trivial", point=point)


@pytest.mark.parametrize("e", [1, 2, 10, 11, 12, 100])
def test_table_keys_sort_as_strings_in_json_and_as_numbers_in_text(e):
    code, out = stdout_of(["types", "--group", "A1", "--order", str(e), "--format", "json"])
    assert code == 0
    table = json.loads(out)["types"][-1]["cocycle"]
    assert list(table) == sorted(str(i) for i in range(e))
    code, out = stdout_of(["types", "--group", "A1", "--order", str(e)])
    cocycle = out.splitlines()[-2].split("cocycle ")[1]
    assert [part.split(":")[0] for part in cocycle[1:].split("], ")] == [
        str(i) for i in range(e)]


@pytest.mark.parametrize("case", [c for c in load_cases() if c["argv"][0] == "global"],
                         ids=lambda c: " ".join(c["argv"]))
def test_global_writes_no_table(case, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("global wrote a table it throws away")

    # the join of every cocycle table, in either layout, and the writers of
    # the class representatives
    monkeypatch.setattr(cli.CocycleTable, "_join", refuse)
    monkeypatch.setattr(cli.Vectors, "json", refuse)
    monkeypatch.setattr(cli.Vectors, "text", refuse)
    assert run_case(case, tmp_path) == (case["exit"], case["stdout_sha256"])
    with pytest.raises(AssertionError, match="throws away"):
        stdout_of(["types", "--group", "A1", "--order", "3"])
