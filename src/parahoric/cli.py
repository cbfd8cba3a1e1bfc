"""Command-line surface.

Subcommands: ``types``, ``twist`` (trivial actions only), ``split-degree``,
``orbit``, ``data``, ``global``; ``--group`` is a letter and a decimal rank
(``A1``).  Output is deterministic text (default) or JSON (``--format
json``), rationals as "num/den" strings, never floats.  Exit codes: 0
success, 2 usage or validation error (an unknown ``global`` config key
among them), 3 enumeration cap exceeded; ``--cap`` must be positive.

Points are given and reported by their simple-root values
``<alpha_1, x>, ..., <alpha_r, x>``; for the rank-one worked example this is
the usual coordinate on the interval [0, 1].  For a trivial action the
``types`` command measures the local types at the equidistant base point
``<alpha_i, x> = 1/e`` (the base of the rank-one worked example); pass
``--point`` to choose any other point on the (1/e)-grid, e.g. ``--point 0``
for the standard hyperspecial base.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .alcove import (
    apartment_orbit_types,
    facet_of_numerators,
    fold_type,
    min_split_degree,
    point_from_root_values,
    reduce_to_alcove,
    simple_root_values,
    vertex_prime_data,
)
from .cohomology import (
    ClassSequence,
    GammaAction,
    H1Classes,
    h1_elements,
    require_grid_size,
    require_root_values_on_grid,
    trivial_action,
    type_orbits,
)
from .exactalg import common_numerators
from .rootdata import (
    DEFAULT_CAP,
    EnumerationCapError,
    RootDatum,
    build_root_datum,
    diagram_automorphism,
    positive_root_count,
)
from .slmodel import sl_diagonal, sl_involution

SCHEMA_VERSION = "1"
DEFAULT_PRODUCT_CAP = 10 ** 4
# the SL_n involution of each --action, by its name in reports and configs
SL_VARIANTS = {"sl-J": "J", "sl-Jprime": "J-prime"}
# how a refusal of `types_parts` names the order, permutation and point: by the
# flags of `types`, or by the keys of a `global` config, which also quote a bad order
FieldNames = NamedTuple("FieldNames", [("order", str), ("perm", str), ("point", str),
                                       ("quotes_order", bool)])
FLAG_NAMES = FieldNames("--order", "--perm", "--point", False)
CONFIG_NAMES = FieldNames(*map("branch point '{}'".format, ("order", "permutation", "point")),
                          True)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def vec_str(v: Sequence[Fraction]) -> List[str]:
    """Ints and Fractions as "num" or "num/den", which is their str."""
    return list(map(str, v))


def parse_fraction(s: str) -> Fraction:
    """A rational from its string.  An underscore is refused on every Python:
    ``Fraction`` reads one between digits from Python 3.11 on only.  So is
    a rational such as "1e4400" with a numerator or denominator of more
    digits than ``sys.get_int_max_str_digits()`` lets an int be written
    with (a limit of 0, or a Python without the limit, refuses none), as
    reports and refusals write the values they are given.  An int of at
    most 3 * limit bits has fewer digits than any limit Python allows (640
    or more), so only a longer one is written to be checked."""
    try:
        if "_" in s:
            raise ValueError("underscore in a rational")
        value = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {s!r}") from exc
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(abs(value.numerator), value.denominator).bit_length() > 3 * limit:
        try:
            str(value.numerator), str(value.denominator)
        except ValueError as exc:
            raise UsageError(f"the rational {s!r} has more digits than the limit of "
                             f"{limit} for writing an int as a string") from exc
    return value


def parse_point(s: str, rank: Optional[int] = None) -> Tuple[Fraction, ...]:
    """The root values of ``--point``; ``rank`` of them, if ``rank`` is given."""
    parts = [p.strip() for p in s.split(",")]
    if rank is not None and len(parts) != rank:
        raise UsageError(f"--point needs {rank} comma-separated root values")
    return tuple(parse_fraction(p) for p in parts)


def json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for a
    report: dicts with str keys, lists, str, int, bool and None, and the
    values that write themselves: of a ``types`` report, a
    :class:`CocycleTable` (as the dict of row index to list of strings,
    joined from the progressions of its digits), the class representatives'
    :class:`Vectors` (as a list of lists of strings, joined from the product
    of the strings of each node, or from the listed SL diagonals) and the
    :class:`TypeEntries` of the types (as the list of their dicts), and
    the :class:`TwistRows` of ``twist`` and :class:`Tuples` of ``global``.

    With ``indent`` set the standard library runs its pure-Python encoder;
    this writer quotes the strings with the C ``encode_basestring_ascii``
    and joins a list of strings in one call.  ``newline`` is the line break
    and indentation of the enclosing level.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (CocycleTable, Vectors, TypeEntries, TwistRows, Tuples)):
        return value.json(newline)
    inner = newline + "  "
    if isinstance(value, list):
        try:
            items = list(map(encode_basestring_ascii, value))
        except TypeError:  # not a list of strings only
            items = [json_text(x, inner) for x in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ("," + inner).join([encode_basestring_ascii(key) + ": " + json_text(value[key], inner)
                                   for key in sorted(value)])
        return f"{{{inner}{body}{newline}}}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot write {value!r} into a report")


def emit(report: dict, fmt: str, render: Callable[[dict], List[str]]) -> None:
    """Print the report as JSON, or as the text lines ``render`` makes of it;
    called by :func:`main` only, once per report."""
    print(json_text(report) if fmt == "json" else "\n".join(render(report)))


# ---------------------------------------------------------------------------
# the parts of a `types` report that are written only when it is
# ---------------------------------------------------------------------------

class TableStrings:
    """The strings the vectors and tables of one report share, each made
    once: ``values``, the str of each Fraction(j, e), j < e, the pieces a
    table of each layout (JSON at one indentation, or text) puts around its
    values, and the column i -> (i a mod e)/e of each digit a, in the row
    order of each layout: a report holds at most e columns per layout,
    whatever its number of types.  The string of a rational needs no JSON
    escaping, so the quotes around a JSON value belong to the pieces, and
    each column serves every position in a row."""

    def __init__(self, e: int):
        self.e = e
        self.values = ["0"] + [f"{j // g}/{e // g}" for j in range(1, e)
                               for g in (math.gcd(j, e),)]
        self._layouts: Dict[Optional[str], tuple] = {}
        self._progressions: Dict[Tuple[int, Optional[str]], Sequence[str]] = {}
        self._cycled: List[str] = []  # the strings of j/e repeated, made by the first column

    def layout(self, newline: Optional[str]) -> Tuple[Optional[Callable], List[str], str, str]:
        """(gather, openings, separator, close) of a JSON table one level
        below ``newline``, or of a text table when ``newline`` is None.
        The rows run in key order: JSON keys sort as strings ("10" before
        "2"), and ``gather`` takes a column from row index order to that
        order (None when the orders agree, as in text and for e <= 10).
        The opening of a row carries the opening brace of the table or the
        close of the row before, and its key; ``separator`` goes between two
        values, and ``close`` ends the last row and the table."""
        layout = self._layouts.get(newline)
        if layout is None:
            order = list(range(self.e))
            if newline is None:
                first, between, opening, separator, close = "{", "], ", "{}: [", ", ", "]}"
            else:
                inner = newline + "  "
                entry = inner + "  "
                order.sort(key=str)
                first, between = "{" + inner, '"' + inner + "]," + inner
                opening, separator = '"{}": [' + entry + '"', '",' + entry + '"'
                close = '"' + inner + "]" + newline + "}"
            openings = [between + opening.format(i) for i in order]
            openings[0] = first + opening.format(order[0])
            gather = None if order == sorted(order) else operator.itemgetter(*order)
            layout = self._layouts[newline] = (gather, openings, separator, close)
        return layout

    def progression(self, a: int, newline: Optional[str]) -> Sequence[str]:
        """The strings of (i a mod e)/e, i < e, in the row order of the
        layout of ``newline``, gathered into the key order of that layout:
        for a > 0, about a / sqrt(e) stepped slices ``cycled[p : p + n a : a]``
        of the strings of j/e repeated about sqrt(e) times, each as long as
        the list allows and starting where the one before left off, mod e."""
        column = self._progressions.get((a, newline))
        if column is None:
            e = self.e
            cycled = self._cycled = self._cycled or self.values * (math.isqrt(e) + 1)
            column = cycled[:1] * e  # the column of a = 0, filled in place for a > 0
            i = p = 0
            while a and i < e:
                part = cycled[p:p + (e - i) * a:a]
                column[i:i + len(part)] = part
                i, p = i + len(part), (p + len(part) * a) % e
            gather = self.layout(newline)[0]
            if gather is not None:
                column = gather(column)
            self._progressions[a, newline] = column
        return column


class CocycleTable:
    """The cocycle gamma_0^i -> row i = i t mod 1, i < e, of a type whose
    written class t has the digits e t (:func:`digits_over_e`), written as
    the dict of i to the list of the row's values, from one list of the
    pieces of its rows: each row is its opening in the layout and its
    values with a separator between two of them.  The list starts as the
    separator repeated; one slice assignment puts in the openings and one
    each the columns, the progressions of the digits
    (:meth:`TableStrings.progression`), and one join writes it."""

    __slots__ = ("strings", "digits")

    def __init__(self, strings: TableStrings, digits: Sequence[int]):
        self.strings = strings
        self.digits = digits

    def _join(self, newline: Optional[str]) -> str:
        _, openings, separator, close = self.strings.layout(newline)
        progression = self.strings.progression
        columns = [progression(a, newline) for a in self.digits]
        n = 2 * len(columns)
        pieces = [separator] * (n * self.strings.e)
        pieces[::n] = openings
        for k, column in enumerate(columns):
            pieces[2 * k + 1::n] = column
        pieces.append(close)
        return "".join(pieces)

    def json(self, newline: str) -> str:
        return self._join(newline)

    def text(self) -> str:
        return self._join(None)


class Vectors:
    """Rational vectors of a report (the class representatives) as tuples of
    their strings, written as the list of lists of those strings in one
    join; the quotes of the JSON values belong to the separators, as in
    :class:`TableStrings`."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: Sequence[Sequence[str]]):
        self.vectors = vectors

    def json(self, newline: str) -> str:
        inner = newline + "  "
        entry = inner + "  "
        body = ('"' + inner + "]," + inner + "[" + entry + '"').join(
            map(('",' + entry + '"').join, self.vectors))
        return f'[{inner}[{entry}"{body}"{inner}]{newline}]' if self.vectors else "[]"

    def text(self) -> str:
        return "[" + "], [".join(map(", ".join, self.vectors)) + "]" if self.vectors else "(none)"


class TypeEntries(list):
    """The ``types`` list of a report: one dict per type, of its
    ``cocycle`` (a :class:`CocycleTable`), ``index``, ``orbit_size`` and
    ``representative`` (the strings of a vector of length r >= 1), read as
    they are by :func:`types_text` and written in JSON by one format of
    those four keys, in that sorted order, per entry."""

    __slots__ = ()

    def json(self, newline: str) -> str:
        if not self:
            return "[]"
        inner = newline + "  "
        key = inner + "  "
        entry = key + "  "
        form = ("{" + key + '"cocycle": %s,' + key + '"index": %d,' + key + '"orbit_size": %d,'
                + key + '"representative": [' + entry + '"%s"' + key + "]" + inner + "}")
        between = ('",' + entry + '"').join
        body = ("," + inner).join([
            form % (t["cocycle"].json(key), t["index"], t["orbit_size"],
                    between(t["representative"]))
            for t in self])
        return f"[{inner}{body}{newline}]"


class TwistRows(list):
    """The ``twists`` of a report, the dicts :func:`twist_text` reads, each
    written in JSON by one format of its keys in sorted order: ``class_index``
    first or ``type_index`` last, around the facet, its text and the strings
    of the coroot coordinates, root values and representative (r >= 1 each)."""

    __slots__ = ()

    def json(self, newline: str) -> str:
        inner, key, entry = newline + "  ", newline + "    ", newline + "      "
        strings, walls = ('",' + entry + '"').join, ("," + entry + "  ").join
        vector = "[" + entry + '"%s"' + key + "]"
        form = ("{" + key + '%s"facet": {' + entry + '"classification": %s,' + entry
                + '"special": %s,' + entry + '"vanishing_walls": %s' + key + "},"
                + key + '"facet_text": %s,' + key + '"point_coroot_coordinates": ' + vector
                + "," + key + '"point_root_values": ' + vector + "," + key
                + '"representative": ' + vector + "%s" + inner + "}")
        body = ("," + inner).join([
            form % (f'"class_index": {row["class_index"]},{key}' if "class_index" in row else "",
                    encode_basestring_ascii(facet["classification"]),
                    "true" if facet["special"] else "false",
                    f"[{entry}  {walls(map(str, facet['vanishing_walls']))}{entry}]"
                    if facet["vanishing_walls"] else "[]",
                    encode_basestring_ascii(row["facet_text"]),
                    strings(row["point_coroot_coordinates"]), strings(row["point_root_values"]),
                    strings(row["representative"]),
                    f',{key}"type_index": {row["type_index"]}' if "type_index" in row else "")
            for row in self for facet in (row["facet"],)])
        return f"[{inner}{body}{newline}]" if self else "[]"


class Tuples(list):
    """The ``tuples`` of a ``global`` report, read as they are by
    :func:`global_text`; in JSON each is a list, one join of ``map(str, t)``."""

    __slots__ = ()

    def json(self, newline: str) -> str:
        inner, entry = newline + "  ", newline + "    "
        items = [f"[{entry}{(',' + entry).join(map(str, t))}{inner}]" if t else "[]" for t in self]
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"


# ---------------------------------------------------------------------------
# group spec handling
# ---------------------------------------------------------------------------

def parse_group(group: str) -> Tuple[str, int]:
    """The label and rank of ``--group``, a letter and a decimal rank,
    checked by :func:`positive_root_count`."""
    g = group.strip()
    if not g[1:].isdecimal():
        raise UsageError(f"--group {group!r} is not a letter followed by a decimal rank")
    label, rank = g[0].upper(), int(g[1:])
    positive_root_count(label, rank)
    return label, rank


def parse_perm(s: str) -> Tuple[int, ...]:
    """The 0-indexed images of ``--perm``, checked by :func:`types_parts`."""
    try:
        return tuple(int(p) - 1 for p in s.split(","))
    except ValueError as exc:
        raise UsageError("--perm entries must be integers") from exc


def action_spec(kind: str, variant: Optional[str] = None,
                perm: Optional[Sequence[int]] = None) -> dict:
    out = {"kind": kind}
    if variant is not None:
        out["variant"] = variant
    if perm is not None:
        out["permutation"] = [p + 1 for p in perm]
    return out


# ---------------------------------------------------------------------------
# the types computation shared by `types`, `twist` and `global`
# ---------------------------------------------------------------------------

def _point_entries(label: str, rank: int, order: int, action_kind: str,
                  perm: Optional[Tuple[int, ...]], types: Sequence) -> dict:
    """The ``group``, ``order``, ``action`` and ``type_count`` entries of a
    branch point, shared by a ``types`` report and a ``global`` one; an SL
    involution is named ``sl-involution``, with its variant."""
    variant = SL_VARIANTS.get(action_kind)
    return {
        "group": {"label": label, "rank": rank},
        "order": order,
        "action": action_spec("sl-involution" if variant else action_kind,
                              variant=variant, perm=perm),
        "type_count": len(types),
    }


def require_order(order: int, names: FieldNames = FLAG_NAMES) -> None:
    if order < 1:
        raise UsageError(f"{names.order} must be a positive integer"
                         + (f", not {order}" if names.quotes_order else ""))


def point_or_default(
    point: Optional[Tuple[Fraction, ...]], rank: int, order: int
) -> Tuple[Fraction, ...]:
    """The given root values, or the equidistant default <alpha_i, x> = 1/e,
    for an order that :func:`require_order` has passed."""
    if point is None:
        return tuple(Fraction(1, order) for _ in range(rank))
    return point


def types_parts(
    label: str,
    rank: int,
    order: int,
    action_kind: str,
    perm: Optional[Tuple[int, ...]] = None,
    point: Optional[Tuple[Fraction, ...]] = None,
    cap: int = DEFAULT_CAP,
    names: FieldNames = FLAG_NAMES,
) -> Tuple[RootDatum, GammaAction, Optional[Tuple[Fraction, ...]], H1Classes,
           List[Tuple[int, int]], Optional[str]]:
    """Root datum, action, base point, H^1 classes, the local types as the
    pairs of :func:`type_orbits`, and the SL variant ("J" or "J-prime"),
    whose vectors are written as sum-zero diagonals (:func:`sl_diagonal`),
    or None; raises ValueError (UsageError among them) on invalid specs
    and EnumerationCapError on cap breaches.

    One check for the ``types`` flags and a ``global`` config, naming the
    order, permutation and point as ``names`` does, in order, after the
    label and rank (checked where the group is read, before the point and
    permutation): an order of at least 1; a point only on a trivial action,
    a permutation only on a diagram one; then the action's own.  The trivial
    action needs a point of rank entries, and checks the grid cap and grid
    before it builds the datum, and that before it makes the default point,
    so no work grows with the rank before a cap; an SL involution needs
    type A and order 2, then a size :func:`sl_involution` takes, then the
    root closure cap; a diagram action (base 0) a diagram symmetry of the
    nodes whose order divides the order (after the root closure cap), and
    H^1 = 0."""
    require_order(order, names)
    if point is not None and action_kind != "trivial":
        raise UsageError(f"{names.point} applies only to trivial actions")
    if perm is not None and action_kind != "diagram":
        raise UsageError(f"{names.perm} applies only to diagram actions")

    variant = SL_VARIANTS.get(action_kind)
    if action_kind == "trivial":
        if point is not None and len(point) != rank:
            raise UsageError(f"{names.point} needs {rank} root values")
        require_grid_size(rank, order, cap)
        if point is not None:  # the default 1/e is on the grid
            require_root_values_on_grid(point, order)
        datum = build_root_datum(label, rank, cap)
        action = trivial_action(rank, order)
        values = point_or_default(point, rank, order)
        base, _ = reduce_to_alcove(datum, point_from_root_values(datum, values), cap)
    elif variant is not None:
        if label != "A":
            raise UsageError("sl involutions are only defined for type A")
        if order != 2:
            raise UsageError("sl involutions act through Gamma of order 2")
        datum, action, base = sl_involution(rank + 1, variant, cap)
    elif action_kind == "diagram":
        if perm is None:
            raise UsageError(f"{names.perm} is required for a diagram action")
        if len(perm) != rank or sorted(perm) != list(range(rank)):
            raise UsageError(f"{names.perm} is not a permutation of the nodes")
        datum = build_root_datum(label, rank, cap)
        try:
            aut = diagram_automorphism(datum, perm)
        except ValueError as exc:
            raise UsageError(f"{names.perm} is not a Dynkin-diagram symmetry") from exc
        if order % aut.order != 0:
            raise UsageError(f"{names.perm} has order {aut.order}, which must divide "
                             f"the {names.order} {order}")
        action, base = GammaAction(order, aut), None
    else:
        raise UsageError(f"unknown action kind {action_kind!r}")

    classes = h1_elements(datum, action, cap=cap)
    if action_kind == "diagram" and classes.structure.order != 1:
        raise UsageError(
            f"types of a diagram action are reported only when H^1 = 0, "
            f"and here H^1 has order {classes.structure.order}; use an sl "
            f"involution for type A, or a trivial action"
        )
    return datum, action, base, classes, type_orbits(datum, action, classes, base), variant


def digits_over_e(reps: ClassSequence, e: int,
                  variant: Optional[str]) -> Callable[[int], Sequence[int]]:
    """The digits over e of the written vector of class k: its digits in
    ``reps.radices``, or for an SL variant those of its sum-zero diagonal,
    ``sl_diagonal(digits, e)``, an integral map.  The radices are checked
    once: each must divide e, or the norm does not kill the values j/n of
    a node of radix n (ValueError), and be 1 or e, as in every listing that
    :func:`types_parts` lets through (AssertionError).  So a class t is 0
    off the nodes sigma fixes, and row i of its cocycle is i t mod 1."""
    radices = reps.radices
    if any(e % n for n in radices):
        raise ValueError(f"the norm {e} does not kill the classes over the radices {radices}")
    if any(1 < n < e for n in radices):
        raise AssertionError(f"a written listing has radices 1 or {e}, not {radices}")
    if variant is None:
        return reps.digits
    return lambda k: sl_diagonal(reps.digits(k), e)


def compute_types(
    label: str,
    rank: int,
    order: int,
    action_kind: str,
    perm: Optional[Tuple[int, ...]] = None,
    point: Optional[Tuple[Fraction, ...]] = None,
    cap: int = DEFAULT_CAP,
) -> dict:
    """Full type report for one branch point (see :func:`types_parts` for
    the errors), to be written only through :func:`json_text` or
    :func:`types_text` (``json.dumps`` refuses it): its classes are a
    :class:`Vectors` value, its ``types`` a :class:`TypeEntries` and each
    ``cocycle`` a :class:`CocycleTable`, made into strings when written.
    Every vector and table is read off the digits over e of its class
    (:func:`digits_over_e`, which checks the norm).  The classes are the
    product of the strings of j/e for j below each of ``reps.radices``, or
    the listed SL diagonals; a type shows the strings of its class."""
    datum, action, base, classes, keys, variant = types_parts(
        label, rank, order, action_kind, perm=perm, point=point, cap=cap)
    strings = TableStrings(action.e)
    values = strings.values
    reps = classes.representatives
    digits = digits_over_e(reps, action.e, variant)
    if variant is None:  # the classes are the product of their node strings
        class_strings = list(itertools.product(*[values[:n] for n in reps.radices]))
    else:
        class_strings = [[values[a] for a in digits(k)] for k in range(len(reps))]

    report = {
        **_point_entries(label, rank, order, action_kind, perm, keys),
        "torus_h1": {
            "order": classes.structure.order,
            "invariant_factors": list(classes.structure.invariant_factors),
            "gamma0": (f"gamma_0 = the involution {variant} on SL_{rank + 1}" if variant else
                       f"gamma_0 = the generator matching the fixed primitive root of "
                       f"unity zeta_{action.e}; lattice action of order "
                       f"{action.automorphism.order}"),
        },
        "class_representatives": Vectors(class_strings),
        "types": TypeEntries(
            {"index": i, "representative": class_strings[start], "orbit_size": size,
             "cocycle": CocycleTable(strings, digits(start))}
            for i, (start, size) in enumerate(keys)
        ),
    }
    if action_kind == "trivial":
        report["base_point"] = {
            "root_values": vec_str(simple_root_values(datum, base)),
            "coroot_coordinates": vec_str(base),
        }
    elif variant is not None:
        report["matrix_size"] = rank + 1
    return report


# ---------------------------------------------------------------------------
# text renderings of the reports
# ---------------------------------------------------------------------------

def _list_text(values: Sequence[str]) -> str:
    return "[" + ", ".join(values) + "]"


def _header(report: dict) -> List[str]:
    g = report["group"]
    lines = [f"group: {g['label']}{g['rank']}"]
    if "order" in report:
        lines.append(f"order: {report['order']}")
    return lines


def types_text(report: dict) -> List[str]:
    lines = _header(report) + [f"action: {_action_text(report['action'])}"]
    if "base_point" in report:
        lines.append(
            "base point (root values): " + _list_text(report["base_point"]["root_values"])
        )
    inv = report["torus_h1"]["invariant_factors"]
    lines.append(
        f"H1(Gamma, T): order {report['torus_h1']['order']}, "
        f"invariant factors {inv if inv else '[]'}"
    )
    lines.append("classes: " + report["class_representatives"].text())
    for t in report["types"]:
        lines.append(
            f"type {t['index']}: rep " + _list_text(t["representative"])
            + f", orbit size {t['orbit_size']}, cocycle " + t["cocycle"].text()
        )
    lines.append(f"types: {report['type_count']}")
    return lines


def _action_text(action: dict) -> str:
    kind = action["kind"]
    if kind == "sl-involution":
        return f"sl-involution {action.get('variant')}"
    if kind == "diagram":
        return "diagram " + ",".join(str(p) for p in action.get("permutation", []))
    return kind


def twist_text(report: dict) -> List[str]:
    lines = _header(report) + [
        "base point (root values): " + _list_text(report["base_point"]["root_values"])
    ]
    for row in report["twists"]:
        tag = (f"class {row['class_index']}" if "class_index" in row
               else f"type {row['type_index']}")
        lines.append(
            f"{tag}: point " + _list_text(row["point_root_values"])
            + f", facet: {row['facet_text']}"
        )
    return lines


def split_degree_text(report: dict) -> List[str]:
    char = report["characteristic"]
    return _header(report) + [
        "point (root values): " + _list_text(report["point_root_values"]),
        f"degree: {report['degree']}",
        f"tame: {'yes' if report['tame'] else 'no (wild)'}"
        + (f" (char {char})" if char else " (no excluded characteristic)"),
        f"mark primes: {report['mark_primes']}",
        f"excluded characteristics: {report['excluded_characteristics']}",
    ]


def orbit_text(report: dict) -> List[str]:
    return (
        _header(report)
        + ["point (root values): " + _list_text(report["point_root_values"])]
        + ["rep (root values): " + _list_text(r) for r in report["representatives"]]
        + [f"count: {report['count']}"]
    )


def data_text(report: dict) -> List[str]:
    return _header(report) + [
        f"mark primes: {report['mark_primes']}",
        "affine diagram automorphisms: "
        + str(report["affine_aut_order"] or "not quoted"),
        "twisted affine diagram automorphisms: "
        + str(report["twisted_affine_aut_order"] or "not quoted"),
        f"excluded characteristics: {report['excluded_characteristics']}",
    ]


def global_text(report: dict) -> List[str]:
    lines = [
        f"point {bp['name']}: {bp['group']['label']}{bp['group']['rank']} "
        f"order {bp['order']} ({_action_text(bp['action'])}) -> types {bp['type_count']}"
        for bp in report["branch_points"]
    ]
    lines.append(f"pi0: {report['pi0']}")
    if report["tuples"] is None:
        lines.append(f"tuples omitted: {report['tuples_omitted']}")
    else:
        lines += ["tuple: (" + ", ".join(map(str, t)) + ")" for t in report["tuples"]]
    return lines


# ---------------------------------------------------------------------------
# subcommands: each returns the body of its report, which `main` writes; a
# command with --group reads its label and rank off `args.label`, `args.rank`
# ---------------------------------------------------------------------------

def cmd_types(args) -> dict:
    point = parse_point(args.point) if args.point is not None else None
    perm = parse_perm(args.perm) if args.perm is not None else None
    return compute_types(args.label, args.rank, args.order, args.action, perm=perm,
                         point=point, cap=args.cap)


def cmd_twist(args) -> dict:
    """Each row folds b + t once, on the integer numerators of
    :func:`fold_type` over D = lcm(den b, e), the same D for every row, for
    the digits of its class, read by divmod from its index; the facet and
    the strings of the root values V / D and the coroot coordinates X / D
    are read off that fold, each distinct string made once per report.
    The rows are :class:`TwistRows`, written in JSON by one format each."""
    point = parse_point(args.point) if args.point is not None else None
    datum, _, base, classes, keys, _ = types_parts(
        args.label, args.rank, args.order, "trivial", point=point, cap=args.cap)
    base_numerators = common_numerators(base)
    node = TableStrings(args.order).values  # the values j/e of every node
    texts: Dict[int, str] = {}  # a -> the string of a / D, for the one D of every row

    def strings(D: int, numerators: Sequence[int]) -> List[str]:
        return [texts.get(a) or texts.setdefault(a, str(Fraction(a, D))) for a in numerators]

    def twist_row(start: int) -> dict:
        digits = classes.representatives.digits(start)
        D, X, values = fold_type(datum, digits, args.order, base_numerators, args.cap)
        facet = facet_of_numerators(datum, D, values)
        return {
            "representative": [node[j] for j in digits],
            "point_root_values": strings(D, values),
            "point_coroot_coordinates": strings(D, X),
            "facet": {
                "vanishing_walls": sorted(facet.vanishing_walls),
                "classification": facet.classification,
                "special": facet.special,
            },
            "facet_text": facet.describe(),
        }

    if args.class_index is not None:
        if not 0 <= args.class_index < len(classes.representatives):
            raise UsageError(f"--class must be in 0..{len(classes.representatives) - 1}")
        rows = TwistRows([dict(twist_row(args.class_index), class_index=args.class_index)])
    else:
        rows = TwistRows(dict(twist_row(start), type_index=i) for i, (start, _) in enumerate(keys))

    return {
        "order": args.order,
        "base_point": {"root_values": vec_str(point_or_default(point, args.rank, args.order))},
        "twists": rows,
        "type_count": len(keys),
    }


def cmd_split_degree(args) -> dict:
    point = parse_point(args.point, args.rank)
    datum = build_root_datum(args.label, args.rank, args.cap)
    x = point_from_root_values(datum, point)
    degree, tame = min_split_degree(datum, x, args.char)
    data = vertex_prime_data(args.label, args.rank, args.cap)
    return {
        "point_root_values": vec_str(point),
        "degree": degree,
        "characteristic": args.char,
        "tame": tame,
        "mark_primes": sorted(data.mark_primes),
        "excluded_characteristics": sorted(data.excluded_characteristics),
    }


def cmd_orbit(args) -> dict:
    point = parse_point(args.point, args.rank) if args.point is not None else None
    require_order(args.order)  # a bad point, a bad order, then the cap
    datum = build_root_datum(args.label, args.rank, args.cap)
    point = point_or_default(point, args.rank, args.order)
    a = point_from_root_values(datum, point)
    reps = apartment_orbit_types(datum, a, args.order, cap=args.cap)
    return {
        "order": args.order,
        "point_root_values": vec_str(point),
        "representatives": [vec_str(simple_root_values(datum, r)) for r in reps],
        "count": len(reps),
    }


def cmd_data(args) -> dict:
    data = vertex_prime_data(args.label, args.rank, args.cap)
    return {
        "mark_primes": sorted(data.mark_primes),
        "affine_aut_order": data.affine_aut_order,
        "twisted_affine_aut_order": data.twisted_affine_aut_order,
        "excluded_characteristics": sorted(data.excluded_characteristics),
    }


def _known_keys(obj: dict, keys: Sequence[str], holder: str) -> None:
    """Refuse the first key of the config object ``holder`` not in ``keys``."""
    for key in obj:
        if key not in keys:
            raise UsageError(f"unknown key {key!r} in {holder}")


def _config_integer(value, field: str) -> int:
    """A JSON integer of a config (``true`` and ``false`` are none), else a
    usage error naming the field."""
    if type(value) is not int:
        raise UsageError(f"branch point {field} must be an integer, not {value!r}")
    return value


def _config_rational(value) -> str:
    """A root value of a config as a JSON string or integer (``true`` and
    ``false`` are none), else a usage error: a JSON float would be read
    through its binary value."""
    if type(value) is not int and not isinstance(value, str):
        raise UsageError(
            f"branch point point entry must be a string or an integer, not {value!r}")
    return str(value)


def _branch_point_types(bp: dict, cap: int) -> dict:
    """The ``global`` entry of one branch point: those of :func:`_point_entries`
    and ``types``, the type representatives as a ``types`` report writes them.
    The keys and JSON shape of its fields are checked here, and the label and rank
    before the permutation and point are read, as for the ``types`` flags;
    :func:`types_parts` checks the rest."""
    try:
        group = bp["group"]
        label, rank, order = group["label"], group["rank"], bp["order"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed branch point {bp!r}") from exc
    _known_keys(group, ("label", "rank"), "branch point 'group'")
    if not isinstance(label, str):
        raise UsageError(f"branch point label must be a string, not {label!r}")
    label = label.upper()
    rank = _config_integer(rank, "rank")
    order = _config_integer(order, "order")
    action = bp.get("action", {"kind": "trivial"})
    if not isinstance(action, dict):
        raise UsageError(f"branch point action must be an object, not {action!r}")
    _known_keys(action, ("kind", "variant", "permutation"), "branch point 'action'")
    kind = action.get("kind", "trivial")
    perm = point = None
    if kind == "sl-involution":
        variant = action.get("variant", "J")
        kind = next((k for k, v in SL_VARIANTS.items() if v == variant), None)
        if kind is None:
            raise UsageError(f"unknown sl-involution variant {variant!r}")
    elif kind not in ("trivial", "diagram"):
        raise UsageError(f"unknown action kind {kind!r}")
    elif "variant" in action:
        raise UsageError("branch point 'variant' applies only to sl-involution actions")
    positive_root_count(label, rank)
    if kind == "diagram" or "permutation" in action:
        perm = action.get("permutation")
        if not isinstance(perm, list):
            raise UsageError("diagram action needs a permutation list")
        perm = tuple(_config_integer(p, "permutation entry") - 1 for p in perm)
    if "point" in bp:
        if not isinstance(bp["point"], list):
            raise UsageError("branch point 'point' must be a list of root values")
        point = tuple(parse_fraction(_config_rational(x)) for x in bp["point"])
    *_, classes, keys, variant = types_parts(label, rank, order, kind, perm, point, cap,
                                             CONFIG_NAMES)
    digits = digits_over_e(classes.representatives, order, variant)
    values = TableStrings(order).values
    types = [[values[a] for a in digits(start)] for start, _ in keys]
    return dict(_point_entries(label, rank, order, kind, perm, keys), types=types)


def cmd_global(args) -> dict:
    """The entries of each branch point, pi0 and, up to the product cap, the
    tuples of type indices as :class:`Tuples`; past the cap the tuples are
    null, and :func:`main` exits 3 after writing the report."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an int past sys.get_int_max_str_digits(), or not UTF-8
        raise UsageError(f"config cannot be read: {exc}") from exc
    if not isinstance(config, dict) or "branch_points" not in config:
        raise UsageError("config must be an object with a branch_points list")
    points = config["branch_points"]
    if not isinstance(points, list):
        raise UsageError("branch_points must be a list")
    _known_keys(config, ("schema_version", "branch_points"), "the config")
    if config.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema_version {config['schema_version']!r}, "
                         f"not {SCHEMA_VERSION!r}")

    branch_points = []
    names = set()
    for i, bp in enumerate(points):
        if not isinstance(bp, dict):
            raise UsageError(f"branch point {i} is not an object: {bp!r}")
        _known_keys(bp, ("name", "group", "order", "action", "point"), f"branch point {i}")
        name = bp.get("name", f"x{i}")
        if not isinstance(name, str):
            raise UsageError(f"branch point name must be a string, not {name!r}")
        if "".join(name.splitlines()) != name:  # a line break would forge report lines
            raise UsageError(f"branch point name must be one line, not {name!r}")
        if name in names:
            raise UsageError(f"duplicate branch point name {name!r}")
        names.add(name)
        branch_points.append(dict(_branch_point_types(bp, args.cap), name=name))

    counts = [range(bp["type_count"]) for bp in branch_points]
    pi0 = math.prod(map(len, counts))
    product_cap = min(args.cap, DEFAULT_PRODUCT_CAP)
    if pi0 <= product_cap:
        return {"branch_points": branch_points, "pi0": pi0,
                "tuples": Tuples(itertools.product(*counts))}
    return {"branch_points": branch_points, "pi0": pi0, "tuples": None,
            "tuples_omitted": f"product {pi0} exceeds the output cap {product_cap}"}


# ---------------------------------------------------------------------------
# the command line: one table, read by argparse and by `read_argv`
# ---------------------------------------------------------------------------

# the help, function (argv namespace -> report body), text renderer and flags
# (flag -> add_argument keywords, in help order) of a command
Command = NamedTuple("Command", [("help", str), ("func", Callable[[argparse.Namespace], dict]),
                                 ("render", Callable[[dict], List[str]]),
                                 ("flags", Dict[str, dict])])
_GROUP = {"--group": dict(required=True, help="Cartan label (A..G) and rank, e.g. A1")}
_ORDER = {"--order": dict(type=int, required=True, help="order e of the cyclic group")}
_OUTPUT = {"--format": dict(choices=("text", "json"), default="text"),
           "--cap": dict(type=int, default=DEFAULT_CAP, help="enumeration cap (default 10^6)")}
# The one grammar and dispatch of the command line: `build_parser` and
# `read_argv` read the flags, and `main` runs the function and writes its
# report, in JSON or by the renderer.
COMMANDS = {
    "types": Command("H1 classes and local type count", cmd_types, types_text, {
        **_GROUP, **_ORDER, **_OUTPUT,
        "--action": dict(default="trivial", choices=("trivial", "diagram", "sl-J", "sl-Jprime")),
        "--perm": dict(help="diagram permutation, 1-indexed, e.g. 3,2,1"),
        "--point": dict(help="base point as comma-separated root values")}),
    "twist": Command("alcove point and facet of each twisted type", cmd_twist, twist_text, {
        **_GROUP, **_ORDER, **_OUTPUT,
        "--point": dict(help="base point as comma-separated root values"),
        "--class": dict(dest="class_index", type=int,
                        help="index of a single H1 class to twist by")}),
    "split-degree": Command("minimal splitting degree of a point", cmd_split_degree,
                            split_degree_text, {
        **_GROUP, **_OUTPUT,
        "--point": dict(required=True, help="point as comma-separated root values"),
        "--char": dict(type=int, default=0,
                       help="residue characteristic (0 or a prime) to test tameness against")}),
    "orbit": Command("apartment orbit representatives at level e", cmd_orbit, orbit_text, {
        **_GROUP, **_ORDER, **_OUTPUT,
        "--point": dict(help="point as comma-separated root values")}),
    "data": Command("mark primes and excluded characteristics", cmd_data, data_text,
                    {**_GROUP, **_OUTPUT}),
    "global": Command("product of local type sets over a config", cmd_global, global_text, {
        **_OUTPUT, "--config": dict(required=True, help="JSON config file")}),
}


class _Store(argparse.Action):
    """argparse's store of one value, which refuses a flag joined to ``--``
    (``--group=--``) as argparse refuses a flag with no value: Python 3.11
    reads that value as an empty list, and a later argparse may read it as
    ``--``, which no flag takes."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values in ([], "--"):
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of :data:`COMMANDS`, built once per process, and
    only for what :func:`read_argv` declines: it is the one writer of usage,
    help and error text, and building it costs more than most queries."""
    parser = argparse.ArgumentParser(
        prog="parahoric",
        description="Local types of equivariant torsors and twisted parahoric "
                    "group schemes, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, keywords in command.flags.items():
            p.add_argument(flag, action=_Store, **keywords)
    return parser


def read_argv(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """``build_parser().parse_args(argv)``, read off :data:`COMMANDS` in one
    pass without building a parser, when ``argv`` is a command and flags
    spelled out in full, ``--flag value`` (the value starting with no dash)
    or ``--flag=value`` (the value not ``--``), each value passing its
    flag's ``type`` and ``choices``, and no ``required`` flag missing; a
    flag given twice keeps its last value, an absent one its ``default``,
    under its ``dest`` (else the flag without its dashes).  Else None, and
    argparse reads ``argv``."""
    tokens = iter(argv)
    name = next(tokens, None)
    command = COMMANDS.get(name)
    if command is None:
        return None
    flags = command.flags
    given = {}
    for token in tokens:
        flag, eq, value = token.partition("=")
        keywords = flags.get(flag)
        value = value if eq else next(tokens, "--")
        if keywords is None or value == "--" or not eq and value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    if any(k.get("required") and flag not in given for flag, k in flags.items()):
        return None
    return argparse.Namespace(command=name, **{
        k.get("dest", flag[2:]): given.get(flag, k.get("default")) for flag, k in flags.items()})


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line and return its exit code.  The one writer of a
    report: a command that takes ``--group`` gets its label and rank as
    ``args.label`` and ``args.rank`` (:func:`parse_group`), and the body its
    function returns follows the ``schema_version``, ``command`` and
    ``group`` header in one :func:`emit`, by the command's renderer.  Exit 3
    follows a written report whose ``tuples`` are null (a ``global`` product
    past its cap); every refusal writes nothing to stdout."""
    argv = sys.argv[1:] if argv is None else argv
    args = read_argv(argv) or build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        if args.cap < 1:
            raise UsageError("--cap must be a positive integer")
        report = {"schema_version": SCHEMA_VERSION, "command": args.command}
        if "--group" in command.flags:
            args.label, args.rank = parse_group(args.group)
            report["group"] = {"label": args.label, "rank": args.rank}
        report.update(command.func(args))
        emit(report, args.format, command.render)
        sys.stdout.flush()
        return EXIT_CAP if report.get("tuples", ()) is None else EXIT_OK
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # flush at exit does not fail again (the SIGPIPE note of the Python
        # docs for the signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except EnumerationCapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:  # UsageError and library validation errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
