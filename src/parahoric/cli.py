"""Command-line surface.

Subcommands: ``types``, ``twist``, ``split-degree``, ``orbit``, ``data``,
``global``.  Output is deterministic text (default) or JSON
(``--format json``); rationals serialize as "num/den" strings so no float
ever appears.  Exit codes: 0 success, 2 usage or validation error, 3
enumeration cap exceeded.  ``--cap`` overrides the default enumeration
cap and must be a positive integer.

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
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import add
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .alcove import (
    apartment_orbit_types,
    min_split_degree,
    point_from_root_values,
    reduce_to_alcove,
    simple_root_values,
    type_to_alcove,
    vertex_prime_data,
)
from .cohomology import (
    GammaAction,
    H1Classes,
    LocalType,
    cocycle_numerators,
    h1_elements,
    require_grid_size,
    require_root_values_on_grid,
    trivial_action,
    types_of_classes,
)
from .exactalg import IntVector, QZVector
from .rootdata import (
    DEFAULT_CAP,
    EnumerationCapError,
    RootDatum,
    build_root_datum,
    diagram_automorphism,
)
from .slmodel import (
    diagonal_action,
    sl_torus_h1,
    sl_types_of_classes,
    standard_involution,
    variant_involution,
)

SCHEMA_VERSION = "1"
DEFAULT_PRODUCT_CAP = 10 ** 4

EXIT_OK = 0
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
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {s!r}") from exc


def parse_point(s: str, rank: int) -> Tuple[Fraction, ...]:
    parts = [p.strip() for p in s.split(",")]
    if len(parts) != rank:
        raise UsageError(f"--point needs {rank} comma-separated root values")
    return tuple(parse_fraction(p) for p in parts)


def _json_list(items: List[str], newline: str) -> str:
    """The JSON list of already written items, one level below ``newline``."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for a
    report: dicts with str keys, lists, str, int, bool and None, and the
    two values of a ``types`` report that write themselves, a
    :class:`CocycleTable` (as the dict of row index to list of strings) and
    the class representatives' :class:`Vectors` (as a list of lists of
    strings).

    With ``indent`` set the standard library runs its pure-Python encoder;
    this writer quotes the strings with the C ``encode_basestring_ascii``
    and joins a list of strings in one call.  ``newline`` is the line break
    and indentation of the enclosing level.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = newline + "  "
    if isinstance(value, list):
        try:
            items = list(map(encode_basestring_ascii, value))
        except TypeError:  # not a list of strings only
            items = [json_text(x, inner) for x in value]
        return _json_list(items, newline)
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ("," + inner).join([encode_basestring_ascii(key) + ": " + json_text(value[key], inner)
                                   for key in sorted(value)])
        return "{" + inner + body + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (CocycleTable, Vectors)):
        return value.json(newline)
    raise TypeError(f"cannot write {value!r} into a report")


def emit(report: dict, fmt: str, render: Callable[[dict], List[str]]) -> None:
    """Print the report as JSON, or as the text lines ``render`` makes of it."""
    if fmt == "json":
        print(json_text(report))
    else:
        for line in render(report):
            print(line)


# ---------------------------------------------------------------------------
# the parts of a `types` report that are written only when it is
# ---------------------------------------------------------------------------

class _Rows(dict):
    """The text of each row of numerators, made on its first lookup."""

    def __init__(self, make: Callable[[IntVector], str]):
        super().__init__()
        self.make = make

    def __missing__(self, row: IntVector) -> str:
        text = self[row] = self.make(row)
        return text


class TableStrings:
    """The strings the cocycle tables of one report share, each made once:
    a/d for each denominator d, the keys 0..e-1 of a table, and the text of
    each distinct row of numerators over d in each layout (JSON at one
    indentation, or text)."""

    def __init__(self, e: int):
        self.e = e
        self._values: Dict[int, List[str]] = {}
        self._rows: Dict[Tuple[Optional[str], int], _Rows] = {}

    @functools.cached_property
    def json_keys(self) -> Tuple[List[str], List[int]]:
        """The JSON key texts of a table in string order ("10" before "2"),
        and the row index of each."""
        order = sorted(range(self.e), key=str)
        return [f'"{i}": ' for i in order], order

    @functools.cached_property
    def text_keys(self) -> List[str]:
        return [f"{i}: " for i in range(self.e)]

    def rows(self, d: int, newline: Optional[str]) -> _Rows:
        """The row texts over d: the JSON list one level below ``newline``,
        or the text list when ``newline`` is None."""
        rows = self._rows.get((newline, d))
        if rows is None:
            values = self._values.get(d)
            if values is None:
                values = self._values[d] = [str(Fraction(a, d)) for a in range(d)]
            if newline is None:
                rows = _Rows(lambda row: _list_text(list(map(values.__getitem__, row))))
            else:
                quoted = list(map(encode_basestring_ascii, values))
                inner = newline + "  "
                rows = _Rows(lambda row: _json_list(list(map(quoted.__getitem__, row)), inner))
            self._rows[(newline, d)] = rows
        return rows


class CocycleTable:
    """The cocycle gamma_0^i -> row i, i < e, of one type: the denominator d
    and the integer rows of :func:`cocycle_numerators`.  It is written as
    the dict of i to the list of a/d over the row; each distinct row is made
    into text once per report, and rows repeat (for the trivial action row
    i is row i mod d)."""

    __slots__ = ("d", "rows", "strings")

    def __init__(self, d: int, rows: List[IntVector], strings: TableStrings):
        self.d = d
        self.rows = rows
        self.strings = strings

    def json(self, newline: str) -> str:
        keys, order = self.strings.json_keys
        rows = self.strings.rows(self.d, newline)
        inner = newline + "  "
        body = ("," + inner).join(
            map(add, keys, map(rows.__getitem__, map(self.rows.__getitem__, order))))
        return "{" + inner + body + newline + "}"

    def text(self) -> str:
        rows = self.strings.rows(self.d, None)
        return "{" + ", ".join(
            map(add, self.strings.text_keys, map(rows.__getitem__, self.rows))) + "}"


class Vectors:
    """Rational vectors of a report (the class representatives), written
    as the list of lists of their strings.  Each distinct entry object is
    made into a string once: the class lists share their entries."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: Sequence[Sequence[Fraction]]):
        self.vectors = vectors

    def _texts(self, write: Callable[[str], str]) -> Dict[int, str]:
        # keyed by id: the vectors hold every entry alive while this is used
        flat = list(itertools.chain.from_iterable(self.vectors))
        return {key: write(str(x)) for key, x in dict(zip(map(id, flat), flat)).items()}

    def json(self, newline: str) -> str:
        texts = self._texts(encode_basestring_ascii)
        inner = newline + "  "
        return _json_list([_json_list(list(map(texts.__getitem__, map(id, v))), inner)
                           for v in self.vectors], newline)

    def text(self) -> str:
        texts = self._texts(str)
        return ", ".join([_list_text(list(map(texts.__getitem__, map(id, v))))
                          for v in self.vectors]) or "(none)"


# ---------------------------------------------------------------------------
# group spec handling
# ---------------------------------------------------------------------------

def parse_group(group: str, rank: Optional[int]) -> Tuple[str, int]:
    g = group.strip()
    if len(g) > 1 and g[1:].isdigit():
        label, r = g[0].upper(), int(g[1:])
        if rank is not None and rank != r:
            raise UsageError(f"--group {group} conflicts with --rank {rank}")
        return label, r
    if rank is None:
        raise UsageError("--rank is required when --group is a bare letter")
    return g.upper(), rank


def parse_perm(s: str, rank: int) -> Tuple[int, ...]:
    parts = [p.strip() for p in s.split(",")]
    if len(parts) != rank:
        raise UsageError(f"--perm needs {rank} entries (1-indexed images)")
    try:
        perm = tuple(int(p) - 1 for p in parts)
    except ValueError as exc:
        raise UsageError("--perm entries must be integers") from exc
    if sorted(perm) != list(range(rank)):
        raise UsageError("--perm is not a permutation of the nodes")
    return perm


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

def point_or_default(
    point: Optional[Tuple[Fraction, ...]], rank: int, order: int
) -> Tuple[Fraction, ...]:
    """The given root values, or the equidistant default <alpha_i, x> = 1/e;
    a nonpositive order is rejected first."""
    if order < 1:
        raise UsageError("--order must be a positive integer")
    if point is None:
        return tuple(Fraction(1, order) for _ in range(rank))
    return point


def split_types(datum: RootDatum, order: int, values: Sequence[Fraction], cap: int):
    """Action, alcove-reduced base point, H^1 classes and local types of the
    split (trivial) action at the point with the given root values.

    The grid cap and the grid condition are checked before the fold into the
    alcove, whose cost grows with the distance of the point."""
    action = trivial_action(datum.rank, order)
    require_grid_size(datum.rank, order, cap)
    require_root_values_on_grid(values, order)
    base, _ = reduce_to_alcove(datum, point_from_root_values(datum, values))
    classes = h1_elements(datum, action, cap=cap)
    return action, base, classes, types_of_classes(datum, action, classes, base=base)


def types_parts(
    label: str,
    rank: int,
    order: int,
    action_kind: str,
    perm: Optional[Tuple[int, ...]] = None,
    point: Optional[Tuple[Fraction, ...]] = None,
    cap: int = DEFAULT_CAP,
) -> Tuple[GammaAction, H1Classes, List[LocalType], dict]:
    """Action, H^1 classes, local types and the action-specific report
    entries of one branch point; raises ValueError (UsageError among them)
    on invalid specs and EnumerationCapError on cap breaches."""
    datum = build_root_datum(label, rank)
    values = point_or_default(point, rank, order)
    if point is not None and action_kind != "trivial":
        raise UsageError("--point applies only to trivial actions")
    if perm is not None and action_kind != "diagram":
        raise UsageError("--perm applies only to diagram actions")

    if action_kind == "trivial":
        action, base, classes, types = split_types(datum, order, values, cap)
        extra = {
            "base_point": {
                "root_values": vec_str(simple_root_values(datum, base)),
                "coroot_coordinates": vec_str(base),
            }
        }
    elif action_kind in ("sl-J", "sl-Jprime"):
        if label != "A":
            raise UsageError("sl involutions are only defined for type A")
        if order != 2:
            raise UsageError("sl involutions act through Gamma of order 2")
        n = rank + 1
        spec = standard_involution(n) if action_kind == "sl-J" else variant_involution(n)
        action = diagonal_action(spec)
        classes = sl_torus_h1(n, spec, cap)
        types = sl_types_of_classes(n, spec, classes)
        extra = {"matrix_size": n}
    elif action_kind == "diagram":
        if perm is None:
            raise UsageError("--perm is required for a diagram action")
        aut = diagram_automorphism(datum, perm)
        if order % aut.order != 0:
            raise UsageError(
                f"the permutation has order {aut.order}, which must divide --order"
            )
        action = GammaAction(order, aut)
        classes = h1_elements(datum, action, cap=cap)
        if classes.structure.order != 1:
            raise UsageError(
                f"types of a diagram action are reported only when H^1 = 0, "
                f"and here H^1 has order {classes.structure.order}; use an sl "
                f"involution for type A, or a trivial action"
            )
        types = [LocalType(classes.representatives[0], 1, 0)]
        extra = {}
    else:
        raise UsageError(f"unknown action kind {action_kind!r}")

    return action, classes, types, extra


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
    the errors).  Its ``class_representatives`` entry is a :class:`Vectors`
    value and each type's ``cocycle`` a :class:`CocycleTable`, made into
    strings only when the report is written, so the report can be written
    only through :func:`json_text` or :func:`types_text` (``json.dumps``
    refuses those two values); a caller that wants the data takes it from
    :func:`types_parts`.  Each table's numerators, and with them the norm
    check of its representative, are computed here."""
    action, classes, types, extra = types_parts(
        label, rank, order, action_kind, perm=perm, point=point, cap=cap)
    strings = TableStrings(action.e)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "types",
        "group": {"label": label, "rank": rank},
        "order": order,
        "action": action_spec(
            action_kind if not action_kind.startswith("sl-") else "sl-involution",
            variant={"sl-J": "J", "sl-Jprime": "J-prime"}.get(action_kind),
            perm=perm,
        ),
        "torus_h1": {
            "order": classes.structure.order,
            "invariant_factors": list(classes.structure.invariant_factors),
            "gamma0": classes.gamma0_choice,
        },
        "class_representatives": Vectors(classes.representatives),
        "types": [
            {
                "index": t.index,
                "representative": vec_str(t.orbit_representative),
                "orbit_size": t.orbit_size,
                "cocycle": CocycleTable(
                    *cocycle_numerators(t.orbit_representative, action), strings),
            }
            for t in types
        ],
        "type_count": len(types),
    }
    report.update(extra)
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
        lines += ["tuple: (" + ", ".join(str(i) for i in t) + ")"
                  for t in report["tuples"]]
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_types(args) -> int:
    label, rank = parse_group(args.group, args.rank)
    point = parse_point(args.point, rank) if args.point else None
    perm = parse_perm(args.perm, rank) if args.perm else None
    report = compute_types(
        label, rank, args.order, args.action, perm=perm, point=point, cap=args.cap
    )
    emit(report, args.format, types_text)
    return EXIT_OK


def cmd_twist(args) -> int:
    label, rank = parse_group(args.group, args.rank)
    if args.action != "trivial":
        raise UsageError("twist is only defined for trivial (split) actions")
    datum = build_root_datum(label, rank)
    point = point_or_default(
        parse_point(args.point, rank) if args.point else None, rank, args.order
    )
    _, base, classes, types = split_types(datum, args.order, point, args.cap)

    def twist_row(rep: QZVector) -> dict:
        reduced, facet = type_to_alcove(datum, rep, args.order, base)
        return {
            "representative": vec_str(rep),
            "point_root_values": vec_str(simple_root_values(datum, reduced)),
            "point_coroot_coordinates": vec_str(reduced),
            "facet": {
                "vanishing_walls": sorted(facet.vanishing_walls),
                "classification": facet.classification,
                "special": facet.special,
            },
            "facet_text": facet.describe(),
        }

    if args.class_index is not None:
        if not 0 <= args.class_index < len(classes.representatives):
            raise UsageError(
                f"--class must be in 0..{len(classes.representatives) - 1}"
            )
        rep = classes.representatives[args.class_index]
        rows = [dict(twist_row(rep), class_index=args.class_index)]
    else:
        rows = [dict(twist_row(t.orbit_representative), type_index=t.index)
                for t in types]

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "twist",
        "group": {"label": label, "rank": rank},
        "order": args.order,
        "base_point": {"root_values": vec_str(point)},
        "twists": rows,
        "type_count": len(types),
    }
    emit(report, args.format, twist_text)
    return EXIT_OK


def cmd_split_degree(args) -> int:
    label, rank = parse_group(args.group, args.rank)
    datum = build_root_datum(label, rank)
    if not args.point:
        raise UsageError("--point is required for split-degree")
    point = parse_point(args.point, rank)
    x = point_from_root_values(datum, point)
    degree, tame = min_split_degree(datum, x, args.char)
    data = vertex_prime_data(label, rank)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "split-degree",
        "group": {"label": label, "rank": rank},
        "point_root_values": vec_str(point),
        "degree": degree,
        "characteristic": args.char,
        "tame": tame,
        "mark_primes": sorted(data.mark_primes),
        "excluded_characteristics": sorted(data.excluded_characteristics),
    }
    emit(report, args.format, split_degree_text)
    return EXIT_OK


def cmd_orbit(args) -> int:
    label, rank = parse_group(args.group, args.rank)
    datum = build_root_datum(label, rank)
    point = point_or_default(
        parse_point(args.point, rank) if args.point else None, rank, args.order
    )
    a = point_from_root_values(datum, point)
    reps = apartment_orbit_types(datum, a, args.order, cap=args.cap)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "orbit",
        "group": {"label": label, "rank": rank},
        "order": args.order,
        "point_root_values": vec_str(point),
        "representatives": [vec_str(simple_root_values(datum, r)) for r in reps],
        "count": len(reps),
    }
    emit(report, args.format, orbit_text)
    return EXIT_OK


def cmd_data(args) -> int:
    label, rank = parse_group(args.group, args.rank)
    data = vertex_prime_data(label, rank)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "data",
        "group": {"label": label, "rank": rank},
        "mark_primes": sorted(data.mark_primes),
        "affine_aut_order": data.affine_aut_order,
        "twisted_affine_aut_order": data.twisted_affine_aut_order,
        "excluded_characteristics": sorted(data.excluded_characteristics),
    }
    emit(report, args.format, data_text)
    return EXIT_OK


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
    try:
        group = bp["group"]
        label = str(group["label"]).upper()
        rank, order = group["rank"], bp["order"]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed branch point {bp!r}") from exc
    rank = _config_integer(rank, "rank")
    order = _config_integer(order, "order")
    action = bp.get("action", {"kind": "trivial"})
    if not isinstance(action, dict):
        raise UsageError(f"branch point action must be an object, not {action!r}")
    kind = action.get("kind", "trivial")
    perm = None
    point = None
    if kind == "sl-involution":
        variant = action.get("variant", "J")
        if variant not in ("J", "J-prime"):
            raise UsageError(f"unknown sl-involution variant {variant!r}")
        kind = "sl-J" if variant == "J" else "sl-Jprime"
    elif kind == "diagram":
        perm_in = action.get("permutation")
        if not isinstance(perm_in, list):
            raise UsageError("diagram action needs a permutation list")
        perm = tuple(_config_integer(p, "permutation entry") - 1 for p in perm_in)
    elif kind != "trivial":
        raise UsageError(f"unknown action kind {kind!r}")
    if "point" in bp:
        if not isinstance(bp["point"], list):
            raise UsageError("branch point 'point' must be a list of root values")
        point = tuple(parse_fraction(_config_rational(x)) for x in bp["point"])
        if len(point) != rank:
            raise UsageError("branch point 'point' has the wrong length")
    return compute_types(label, rank, order, kind, perm=perm, point=point, cap=cap)


def cmd_global(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict) or "branch_points" not in config:
        raise UsageError("config must be an object with a branch_points list")
    points = config["branch_points"]
    if not isinstance(points, list):
        raise UsageError("branch_points must be a list")

    per_point = []
    names = set()
    for i, bp in enumerate(points):
        if not isinstance(bp, dict):
            raise UsageError(f"branch point {i} is not an object: {bp!r}")
        name = bp.get("name", f"x{i}")
        if not isinstance(name, str):
            raise UsageError(f"branch point name must be a string, not {name!r}")
        if name in names:
            raise UsageError(f"duplicate branch point name {name!r}")
        names.add(name)
        per_point.append((name, _branch_point_types(bp, args.cap)))

    pi0 = 1
    for _, sub in per_point:
        pi0 *= sub["type_count"]

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "global",
        "branch_points": [
            {
                "name": name,
                "group": sub["group"],
                "order": sub["order"],
                "action": sub["action"],
                "type_count": sub["type_count"],
                "types": [t["representative"] for t in sub["types"]],
            }
            for name, sub in per_point
        ],
        "pi0": pi0,
    }
    capped = pi0 > args.product_cap
    if not capped:
        tuples = [[]]
        for _, sub in per_point:
            tuples = [t + [i] for t in tuples for i in range(sub["type_count"])]
        report["tuples"] = tuples
    else:
        report["tuples"] = None
        report["tuples_omitted"] = (
            f"product {pi0} exceeds the output cap {args.product_cap}"
        )
    emit(report, args.format, global_text)
    return EXIT_CAP if capped else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, with_group=True, with_order=False):
    if with_group:
        p.add_argument("--group", required=True,
                       help="Cartan label (A..G), optionally with the rank, e.g. A1")
        p.add_argument("--rank", type=int, help="rank when --group is a bare letter")
    if with_order:
        p.add_argument("--order", type=int, required=True,
                       help="order e of the cyclic group")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="enumeration cap (default 10^6)")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and building it costs more than most queries."""
    parser = argparse.ArgumentParser(
        prog="parahoric",
        description="Local types of equivariant torsors and twisted parahoric "
                    "group schemes, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("types", help="H1 classes and local type count")
    _add_common(p, with_order=True)
    p.add_argument("--action", default="trivial",
                   choices=("trivial", "diagram", "sl-J", "sl-Jprime"))
    p.add_argument("--perm", help="diagram permutation, 1-indexed, e.g. 3,2,1")
    p.add_argument("--point", help="base point as comma-separated root values")
    p.set_defaults(func=cmd_types)

    p = sub.add_parser("twist", help="alcove point and facet of each twisted type")
    _add_common(p, with_order=True)
    p.add_argument("--action", default="trivial",
                   choices=("trivial", "diagram", "sl-J", "sl-Jprime"))
    p.add_argument("--point", help="base point as comma-separated root values")
    p.add_argument("--class", dest="class_index", type=int, default=None,
                   help="index of a single H1 class to twist by")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("split-degree", help="minimal splitting degree of a point")
    _add_common(p)
    p.add_argument("--point", required=True,
                   help="point as comma-separated root values")
    p.add_argument("--char", type=int, default=0,
                   help="residue characteristic (0 or a prime) to test tameness against")
    p.set_defaults(func=cmd_split_degree)

    p = sub.add_parser("orbit", help="apartment orbit representatives at level e")
    _add_common(p, with_order=True)
    p.add_argument("--point", help="point as comma-separated root values")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("data", help="mark primes and excluded characteristics")
    _add_common(p)
    p.set_defaults(func=cmd_data)

    p = sub.add_parser("global", help="product of local type sets over a config")
    _add_common(p, with_group=False)
    p.add_argument("--config", required=True, help="JSON config file")
    p.set_defaults(func=cmd_global)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.product_cap = min(args.cap, DEFAULT_PRODUCT_CAP)
    try:
        if args.cap < 1:
            raise UsageError("--cap must be a positive integer")
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:  # UsageError and library validation errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
