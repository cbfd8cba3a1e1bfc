"""The `types` report written from columns and node strings against the
dict-built report.

The CLI writes the class representatives and the cocycle tables of a
`types` report from :class:`parahoric.cli.Vectors` values (the product of
the strings of each node, or the listed SL diagonals, joined once) and
:class:`parahoric.cli.CocycleTable` values (the shared column of each
digit over e, joined with the pieces of the layout in key order).  Its stdout must equal, byte for byte, the
report of ``tests/references.py`` built as dicts of lists of strings from
the rows of each table, passed through ``json.dumps(indent=2,
sort_keys=True)`` (JSON) and through the old text renderer (text).  The
`twist` report, folded on integer numerators, must equal the one built row
by row from the Fraction API of ``parahoric.alcove``.  Each `global`
branch point must carry the entries of the `types` report of the same
point, and `global` must build no `types` report or table.  The `twist`
rows and the `global` tuples, each written by one format or join, are
checked at their edges (facets with no wall, with simple walls and with
the theta-wall; no branch point, one, and a product at and past the output
cap), and each split column against its progression (i a mod e)/e.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parahoric.cli as cli
from parahoric.cli import compute_types, main
from parahoric.cohomology import ClassSequence, types_of_classes

from .references import (dict_global_report, dict_global_text, dict_twist_report,
                         dict_twist_text, dict_types_report, dict_types_text)
from .golden import case_stdout, load_cases

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


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("group", ["A1", "A2", "G2"])
def test_split_tables_whose_entries_reduce_equal_the_dict_built_report(group, fmt):
    # at e = 12 the digits 2, 3, 4, 6, 8, 9, 10 share a factor with e, so
    # a shared column holds entries such as 3/12 = 1/4, and some types have
    # a representative over a denominator d < e
    rank = int(group[1:])
    report = dict_types_report(group[0], rank, 12, "trivial", point=(Fraction(0),) * rank)
    assert {Fraction(x) for t in report["types"] for x in t["representative"]} >= {
        Fraction(1, 4), Fraction(1, 2)}
    argv = ["types", "--group", group, "--order", "12", "--point=" + ",".join(["0"] * rank)]
    assert_matches_reference(argv, fmt, group[0], rank, 12, "trivial",
                             point=(Fraction(0),) * rank)


# the edge orders of the table writer: one row (e = 1) and two, whose
# tables include the constant column of the digit a = 0, and a rank-6
# table; (group, e, base point), None for the default 1/e
EDGE_CASES = [("A1", 1, None), ("B2", 1, None), ("A1", 2, None), ("A1", 2, 0),
              ("G2", 2, None), ("E6", 3, None)]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("group,e,base", EDGE_CASES, ids=str)
def test_edge_orders_equal_the_dict_built_report(group, e, base, fmt):
    rank = int(group[1:])
    point = None if base is None else (Fraction(base),) * rank
    argv = ["types", "--group", group, "--order", str(e)]
    if point is not None:
        argv.append("--point=" + ",".join(map(str, point)))
    assert_matches_reference(argv, fmt, group[0], rank, e, "trivial", point=point)


def test_a_split_listing_the_norm_does_not_kill_is_refused(monkeypatch):
    # the norm check of a split report reads the radices of the listing in
    # integers: a node of radix 3 at e = 2 takes the values j/3, not in (1/2)Z
    parts = cli.types_parts("A", 1, 2, "trivial")
    off_grid = parts[3]._replace(representatives=ClassSequence((3,)))
    monkeypatch.setattr(cli, "types_parts", lambda *args, **kwargs: (*parts[:3], off_grid,
                                                                     *parts[4:]))
    with pytest.raises(ValueError, match=r"^the norm 2 does not kill the classes over the "
                                         r"radices \(3,\)$"):
        compute_types("A", 1, 2, "trivial")


def with_listing(monkeypatch, order, radices):
    """``cli.types_parts`` of A1 at ``order``, its classes listed over ``radices``."""
    parts = cli.types_parts("A", 1, order, "trivial")
    listing = parts[3]._replace(representatives=ClassSequence(radices))
    monkeypatch.setattr(cli, "types_parts", lambda *args, **kwargs: (*parts[:3], listing,
                                                                     *parts[4:]))


def test_global_refuses_a_listing_the_norm_does_not_kill(monkeypatch, capsys, tmp_path):
    # the types of a branch point are read off the same checked digits as a
    # `types` report, so the listing refused there is refused here
    with_listing(monkeypatch, 2, (3,))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"branch_points": [{"group": {"label": "A", "rank": 1},
                                                     "order": 2}]}))
    assert main(["global", "--config", str(config)]) == 2
    assert capsys.readouterr() == (
        "", "error: the norm 2 does not kill the classes over the radices (3,)\n")


def test_a_listing_with_a_radix_between_one_and_the_order_is_a_hard_error(monkeypatch):
    # every listing that types_parts passes has radices 1 or e; a radix 2 at
    # e = 4 divides e, but its classes would not be fixed by sigma
    with_listing(monkeypatch, 4, (2,))
    with pytest.raises(AssertionError, match=r"radices 1 or 4, not \(2,\)"):
        compute_types("A", 1, 4, "trivial")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_each_split_column_is_made_once_per_layout(fmt, monkeypatch):
    # A2 at e = 30 has 166 types, 332 columns, but its tables share the
    # columns of the digits: at most e lists of strings per layout, each
    # made once and handed to every table that has its digit
    made = []
    progression = cli.TableStrings.progression

    def counted(self, a, newline):
        column = progression(self, a, newline)
        made.append((newline, a, column))  # holds each list, so no id is reused
        return column

    monkeypatch.setattr(cli.TableStrings, "progression", counted)
    code, out = stdout_of(["types", "--group", "A2", "--order", "30", "--format", fmt])
    assert code == 0
    assert len(made) == 2 * 166
    assert len({newline for newline, _, _ in made}) == 1
    digits = {a for _, a, _ in made}
    lists = {id(column) for _, _, column in made}
    assert len({(a, id(column)) for _, a, column in made}) == len(lists) == len(digits) <= 30
    monkeypatch.undo()
    assert out == expected(fmt, "A", 2, 30, "trivial")


def key_ordered_progression(e, a, newline):
    """The column of digit a, [(i a mod e)/e for i < e], in the row order of
    a layout: row index order in text, string key order in JSON."""
    order = range(e) if newline is None else sorted(range(e), key=str)
    return [str(Fraction(i * a % e, e)) for i in order]


def test_split_columns_are_the_progressions_of_their_digits():
    for e in range(1, 61):
        strings = cli.TableStrings(e)
        for a in range(e):
            for newline in (None, "\n    "):
                assert list(strings.progression(a, newline)) \
                    == key_ordered_progression(e, a, newline), (e, a, newline)


@settings(database=None, max_examples=40, deadline=None)
@given(st.integers(1, 2000).flatmap(lambda e: st.tuples(
    st.just(e), st.lists(st.integers(0, e - 1), min_size=1, max_size=4))))
def test_split_columns_of_large_orders_are_the_progressions_of_their_digits(case):
    e, digits = case
    strings = cli.TableStrings(e)
    for a in digits:
        for newline in (None, "\n  "):
            assert list(strings.progression(a, newline)) == key_ordered_progression(e, a, newline)
    # the strings the slices read are held about sqrt(e) times, not e times
    assert len(strings._cycled) <= e * (isqrt(e) + 1)


@st.composite
def twist_cases(draw):
    """A group and order of ``GROUPS``, a base point (the default, root
    values k/e with 0 <= k <= e, or those moved by up to 5 in each root) and
    either every type or one class."""
    group = draw(st.sampled_from(sorted(GROUPS)))
    rank = int(group[1:])
    e = draw(st.integers(1, GROUPS[group]))
    band = draw(st.sampled_from(("default", "near", "far")))
    point = None
    if band != "default":
        bound = 5 if band == "far" else 0
        numerators = draw(st.lists(st.integers(0, e), min_size=rank, max_size=rank))
        shifts = draw(st.lists(st.integers(-bound, bound), min_size=rank, max_size=rank))
        point = tuple(Fraction(k, e) + s for k, s in zip(numerators, shifts))
    class_index = draw(st.none() | st.integers(0, e ** rank - 1))
    return group, rank, e, point, class_index


@settings(database=None, max_examples=60, deadline=None)
@given(twist_cases(), st.sampled_from(("json", "text")))
def test_twist_equals_the_fraction_built_report(case, fmt):
    group, rank, e, point, class_index = case
    argv = ["twist", "--group", group, "--order", str(e), "--format", fmt]
    if point is not None:
        argv.append("--point=" + ",".join(map(str, point)))
    if class_index is not None:
        argv += ["--class", str(class_index)]
    code, out = stdout_of(argv)
    assert code == 0
    report = dict_twist_report(group[0], rank, e, point=point, class_index=class_index)
    if fmt == "json":
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        assert out == "\n".join(dict_twist_text(report)) + "\n"


# twist reports whose rows include a facet with no vanishing wall, one
# with walls of simple roots only and one with the theta-wall 0, and a
# report of one row; (group, e, base point), None for the default 1/e
TWIST_EDGES = [("A2", 6, 0), ("G2", 6, None), ("B2", 4, None), ("A1", 1, None)]


def test_the_twist_edges_hold_every_kind_of_facet():
    walls = [tuple(row["facet"]["vanishing_walls"])
             for group, e, base in TWIST_EDGES
             for row in dict_twist_report(group[0], int(group[1:]), e, point=None if base is None
                                          else (Fraction(base),) * int(group[1:]))["twists"]]
    assert () in walls
    assert any(w and 0 not in w for w in walls)
    assert any(0 in w for w in walls)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("class_index", [None, 0, -1], ids=["types", "class-0", "last-class"])
@pytest.mark.parametrize("group,e,base", TWIST_EDGES, ids=str)
def test_twist_rows_at_their_edges_equal_the_fraction_built_report(group, e, base, class_index,
                                                                   fmt):
    rank = int(group[1:])
    point = None if base is None else (Fraction(base),) * rank
    argv = ["twist", "--group", group, "--order", str(e), "--format", fmt]
    if point is not None:
        argv.append("--point=" + ",".join(map(str, point)))
    if class_index is not None:
        class_index %= e ** rank
        argv += ["--class", str(class_index)]
    code, out = stdout_of(argv)
    assert code == 0
    report = dict_twist_report(group[0], rank, e, point=point, class_index=class_index)
    if fmt == "json":
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        assert out == "\n".join(dict_twist_text(report)) + "\n"


# global configs of trivial branch points (label, rank, order) with their
# pi0: none (the one empty tuple), one, a product of exactly the output cap
# 10^4 (100 types of A1 at e = 199, twice), listed, and one above it (101
# types at e = 201), refused
GLOBAL_EDGES = {"none": ([], 1), "one": ([("A", 1, 5)], 3), "cap": ([("A", 1, 199)] * 2, 10 ** 4),
                "above-cap": ([("A", 1, 199), ("A", 1, 201)], 10 ** 4 + 100)}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("points,pi0", GLOBAL_EDGES.values(), ids=GLOBAL_EDGES.keys())
def test_global_at_its_edges_equals_the_dict_built_report(points, pi0, fmt, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"branch_points": [
        {"group": {"label": label, "rank": rank}, "order": order}
        for label, rank, order in points]}))
    code, out = stdout_of(["global", "--config", str(config), "--format", fmt])
    report = dict_global_report(points)
    assert report["pi0"] == pi0
    assert code == (0 if pi0 <= 10 ** 4 else 3)
    assert (report["tuples"] is None) == (pi0 > 10 ** 4)
    if fmt == "json":
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        assert out == "\n".join(dict_global_text(report)) + "\n"


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_each_type_is_written_from_the_index_of_its_representative(group):
    # the writers take a type's class index from the orbit engine, and its
    # digits by divmod: both must give the representative of the LocalType
    rank = int(group[1:])
    for e in range(1, 5):
        datum, action, base, classes, keys, _ = cli.types_parts(group[0], rank, e, "trivial")
        reps = classes.representatives
        types = types_of_classes(datum, action, classes, base=base)
        assert [(reps[start], size) for start, size in keys] \
            == [(t.orbit_representative, t.orbit_size) for t in types]
        assert [tuple(Fraction(j, e) for j in reps.digits(start)) for start, _ in keys] \
            == [t.orbit_representative for t in types]


@pytest.mark.parametrize("case", [c for c in load_cases() if c["argv"][0] == "global"],
                         ids=lambda c: " ".join(c["argv"]))
def test_global_writes_no_table(case, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("global built a report it throws away")

    # the `types` report, the cocycle tables and class representatives it is
    # made of, and their writers in either layout
    for owner, name in [(cli, "compute_types"), (cli.CocycleTable, "__init__"),
                        (cli.CocycleTable, "_join"), (cli.Vectors, "__init__"),
                        (cli.Vectors, "json"), (cli.Vectors, "text")]:
        monkeypatch.setattr(owner, name, refuse)
    assert case_stdout(case, tmp_path)[0] == case["exit"]
    # `types` still builds a table, so the refusals are on its path
    monkeypatch.setattr(cli, "compute_types", compute_types)
    with pytest.raises(AssertionError, match="throws away"):
        stdout_of(["types", "--group", "A1", "--order", "3"])


@st.composite
def branch_points(draw):
    """A `global` branch point and the `types` options of the same point:
    trivial A1-A3 with or without a point, an SL_n involution J (n <= 8) or
    J' (n even), or the flip of A4."""
    kind = draw(st.sampled_from(("trivial", "sl-involution", "diagram")))
    if kind == "trivial":
        rank = draw(st.integers(1, 3))
        order = draw(st.integers(1, (12, 6, 4)[rank - 1]))
        bp = {"group": {"label": "A", "rank": rank}, "order": order}
        argv = ["--group", f"A{rank}", "--order", str(order)]
        if draw(st.booleans()):
            bp["point"] = [f"{draw(st.integers(-2 * order, 2 * order))}/{order}"
                           for _ in range(rank)]
            argv.append("--point=" + ",".join(bp["point"]))
    elif kind == "sl-involution":
        variant = draw(st.sampled_from(("J", "J-prime")))
        n = draw(st.sampled_from(range(3, 9) if variant == "J" else (4, 6, 8)))
        bp = {"group": {"label": "A", "rank": n - 1}, "order": 2,
              "action": {"kind": kind, "variant": variant}}
        argv = ["--group", f"A{n - 1}", "--order", "2", "--action",
                {"J": "sl-J", "J-prime": "sl-Jprime"}[variant]]
    else:
        bp = {"group": {"label": "A", "rank": 4}, "order": 2,
              "action": {"kind": kind, "permutation": [4, 3, 2, 1]}}
        argv = ["--group", "A4", "--order", "2", "--action", "diagram", "--perm", "4,3,2,1"]
    return bp, argv


@settings(database=None, max_examples=40, deadline=None)
@given(st.lists(branch_points(), min_size=1, max_size=3))
def test_global_entries_are_those_of_the_types_reports(points):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"branch_points": [bp for bp, _ in points]}))
        code, out = stdout_of(["global", "--config", str(config), "--format", "json"])
    assert code == 0
    entries = json.loads(out)["branch_points"]
    assert [entry["name"] for entry in entries] == [f"x{i}" for i in range(len(points))]
    for entry, (_, argv) in zip(entries, points):
        code, out = stdout_of(["types", *argv, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        for key in ("group", "order", "action", "type_count"):
            assert entry[key] == report[key]
        assert entry["types"] == [t["representative"] for t in report["types"]]
