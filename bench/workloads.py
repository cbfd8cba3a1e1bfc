"""Seeded query batches for the three benchmark workloads.

A batch is a list of :class:`Query` values built only from the workload name
and the seed, so the same seed always gives the same batch.  The program sees
nothing but the generated argv lists, the generated ``global`` config files
and the arguments of the library calls.

Each workload is built from fixed *slots*.  A slot fixes the command, the
group and a narrow range of orders ``e``; the seed chooses the order inside
the range, the base point, the output format and the position in the batch.
Keeping the slot list fixed keeps the cost mix of a batch the same from seed
to seed, which is what makes the timings comparable between runs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("census", "apartment", "involutions")

# The known defect of the malformed `global` configs: an AttributeError
# escapes `cli.main`.  The correct outcome is exit 2.
MALFORMED_CONFIG_CRASH = "AttributeError"


@dataclass(frozen=True)
class Query:
    """One query of a batch.

    ``kind`` is ``cli`` (``args`` is the argv list, with ``{config}`` standing
    for the path of the generated config file) or the name of a library call
    (``local_types``, ``burnside``, ``su``) whose parameters are ``args``.
    ``expect`` holds what the checks need; ``keys`` lists the (group, e)
    pairs the query computes on.
    """

    qid: str
    kind: str
    args: Tuple
    expect: Dict = field(hash=False)
    keys: Tuple[Tuple[str, int], ...] = ()
    config: Optional[str] = None

    def describe(self) -> str:
        """A stable one-line description, used to detect stale golden files."""
        text = " ".join(str(a) for a in self.args)
        if self.config is not None:
            text = text.replace("{config}", self.config)
        return f"{self.kind}: {text}"


def rank_of(group: str) -> int:
    return int(group[1:])


def grid_size(group: str, e: int) -> int:
    return e ** rank_of(group)


def _frac(k: int, e: int) -> str:
    x = Fraction(k, e)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# marks of the highest root of the exceptional groups, in the package's numbering
EXCEPTIONAL_MARKS = {"E6": (1, 2, 2, 3, 2, 1), "F4": (2, 3, 4, 2), "G2": (3, 2)}


def marks(group: str) -> Tuple[int, ...]:
    r = rank_of(group)
    classical = {"A": (1,) * r, "B": (1,) + (2,) * (r - 1), "C": (2,) * (r - 1) + (1,),
                 "D": (1,) + (2,) * (r - 3) + (1, 1)}
    return EXCEPTIONAL_MARKS.get(group) or classical[group[0]]


def alcove_grid(group: str, e: int) -> List[Tuple[int, ...]]:
    """Numerators k of the points k/e (as root values) of the closed
    fundamental alcove: all k_i >= 0 and sum of marks times k_i <= e.
    Sorted by that sum, which is about what folding their orbits costs."""
    m = marks(group)
    points = [k for k in itertools.product(*(range(e // mi + 1) for mi in m))
              if sum(mi * ki for mi, ki in zip(m, k)) <= e]
    return sorted(points, key=lambda k: (sum(mi * ki for mi, ki in zip(m, k)), k))


def spread_picks(rng: random.Random, items: List, count: int) -> List:
    """``count`` items evenly spaced through the list from a seeded offset."""
    stride = len(items) / count
    offset = rng.random() * stride
    return [items[int(offset + i * stride)] for i in range(count)]


def moved(rng: random.Random, k: Tuple[int, ...], e: int, band: str) -> List[str]:
    """Root values of the alcove point k/e moved by an integer vector of
    root values whose absolute entries add up to 0 (``near``), 2 (``mid``)
    or 5 (``far``): the band fixes the distance from the alcove."""
    steps = {"near": 0, "mid": 2, "far": 5}[band]
    cuts = sorted(rng.randint(0, steps) for _ in range(len(k) - 1))
    shift = [hi - lo for lo, hi in zip([0] + cuts, cuts + [steps])]
    return [_frac(ki + rng.choice((1, -1)) * s * e, e) for ki, s in zip(k, shift)]


def grid_point(rng: random.Random, group: str, e: int, band: str) -> List[str]:
    """Root values of a random point on the (1/e)-grid in the given band."""
    m = marks(group)
    while True:  # rejection sampling: cheaper than listing the alcove for large e
        k = tuple(rng.randint(0, e // mi) for mi in m)
        if sum(mi * ki for mi, ki in zip(m, k)) <= e:
            return moved(rng, k, e, band)


def stratified_orders(rng: random.Random, lo: int, hi: int, count: int) -> List[int]:
    """``count`` distinct orders from [lo, hi], one from each of ``count``
    equal sub-ranges, so the spread of orders is the same for every seed."""
    width = hi - lo + 1
    if count > width:
        raise ValueError(f"cannot draw {count} distinct orders from {lo}..{hi}")
    cuts = [lo + (width * i) // count for i in range(count + 1)]
    return [rng.randint(cuts[i], cuts[i + 1] - 1) for i in range(count)]


class _Batch:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.items: List[dict] = []

    def add(self, kind: str, args, expect: dict, keys=(), config=None) -> None:
        self.items.append(dict(kind=kind, args=tuple(args), expect=expect,
                               keys=tuple(keys), config=config))

    def fmt(self) -> str:
        return self.rng.choice(FORMATS)

    def cycle(self, options: Tuple, count: int) -> List:
        """``count`` picks that go round ``options`` from a seeded start, so
        each option is used equally often whatever the seed."""
        start = self.rng.randrange(len(options))
        return [options[(start + i) % len(options)] for i in range(count)]

    def finish(self) -> List[Query]:
        self.rng.shuffle(self.items)
        return [Query(qid=f"q{i:03d}", **item) for i, item in enumerate(self.items)]


FORMATS = ("text", "json")


def _cli_types(b: _Batch, command: str, group: str, e: int, fmt: str, band: Optional[str]):
    argv = [command, "--group", group, "--order", str(e), "--format", fmt]
    if band is not None:
        # the `=` form, because a point may start with a minus sign
        argv.append("--point=" + ",".join(grid_point(b.rng, group, e, band)))
    check = "types_trivial" if command == "types" else "twist"
    b.add("cli", argv, {"check": check, "group": group, "e": e,
                        "default_base": band is None}, keys=[(group, e)])


def _branch_point(b: _Batch, name: str, group: str, e: int, with_point: bool) -> dict:
    bp = {"name": name, "group": {"label": group[0], "rank": rank_of(group)},
          "order": e, "action": {"kind": "trivial"}}
    if with_point:
        bp["point"] = grid_point(b.rng, group, e, "mid")
    return bp


def _add_global(b: _Batch, branch_points: List[dict], expected_counts: List[Optional[int]]):
    config = json.dumps({"schema_version": "1", "branch_points": branch_points},
                        sort_keys=True)
    keys = [(f"{bp['group']['label']}{bp['group']['rank']}", bp["order"])
            for bp in branch_points]
    b.add("cli", ["global", "--config", "{config}", "--format", b.fmt()],
          {"check": "global", "counts": expected_counts}, keys=keys, config=config)


# ---------------------------------------------------------------------------
# census: distinct trivial-action queries, no two sharing a (group, e)
# ---------------------------------------------------------------------------

# (group, lowest e, highest e, queries).  Slots of one group use disjoint
# ranges, so no (group, e) pair occurs twice in a batch.  The ten A1 orders
# in 130..149 form a dense band of similar cost where the rank of
# `latency_tail_ms` falls, which keeps that metric steady from seed to seed.
CENSUS_TYPES = [
    ("A1", 150, 200, 8), ("A1", 130, 149, 10), ("A1", 60, 129, 6),
    ("A2", 28, 34, 3), ("A2", 20, 27, 5),
    ("B2", 28, 34, 3), ("B2", 20, 27, 5),
    ("C2", 20, 34, 6), ("G2", 20, 34, 8),
    ("A3", 8, 12, 5), ("B3", 8, 12, 4), ("C3", 8, 12, 4),
    ("A4", 5, 7, 3), ("B4", 5, 7, 3), ("C4", 5, 7, 3), ("D4", 5, 7, 3),
    ("F4", 5, 7, 3),
    ("A5", 4, 5, 2), ("B5", 4, 5, 2), ("C5", 4, 5, 2), ("D5", 4, 5, 2),
    ("A6", 3, 4, 2), ("E6", 3, 4, 2),
]
CENSUS_TWIST = [
    ("A1", 20, 59, 8), ("A2", 10, 19, 4), ("B2", 10, 19, 4), ("C2", 10, 19, 4),
    ("G2", 10, 19, 4), ("A3", 5, 7, 3), ("B3", 5, 7, 3), ("C3", 5, 7, 3),
    ("A4", 3, 4, 2), ("B4", 3, 4, 2), ("C4", 3, 4, 2), ("D4", 3, 4, 2),
    ("F4", 3, 4, 2), ("A5", 3, 3, 1), ("B5", 3, 3, 1), ("C5", 3, 3, 1),
    ("D5", 3, 3, 1), ("A6", 2, 2, 1), ("E6", 2, 2, 1),
]
CENSUS_GLOBAL_POINTS = [
    ("A1", 2, 19, 6), ("A2", 2, 9, 3), ("B2", 2, 9, 3), ("C2", 2, 9, 2),
    ("G2", 2, 9, 3), ("A3", 2, 4, 2), ("B3", 2, 4, 2), ("C3", 2, 4, 1),
    ("A4", 2, 2, 1), ("D4", 2, 2, 1),
]
# base point of a `types` or `twist` query: the default 1/e, or a seeded
# grid point near the alcove or far from it
CENSUS_BASES = (None, "near", "far")


def census(seed: int) -> List[Query]:
    b = _Batch("census", seed)
    for slots, command in ((CENSUS_TYPES, "types"), (CENSUS_TWIST, "twist")):
        for group, lo, hi, count in slots:
            orders = stratified_orders(b.rng, lo, hi, count)
            for e, fmt, band in zip(orders, b.cycle(FORMATS, count),
                                    b.cycle(CENSUS_BASES, count)):
                _cli_types(b, command, group, e, fmt, band)

    points = [(group, e) for group, lo, hi, count in CENSUS_GLOBAL_POINTS
              for e in stratified_orders(b.rng, lo, hi, count)]
    b.rng.shuffle(points)
    while points:  # configs of three branch points, two when four are left
        take = 3 if len(points) != 4 and len(points) >= 3 else 2
        chosen, points = points[:take], points[take:]
        bps, counts = [], []
        for i, (group, e) in enumerate(chosen):
            with_point = b.rng.random() < 0.5
            bps.append(_branch_point(b, f"x{i}", group, e, with_point))
            counts.append((e + 1) // 2 if group == "A1" and not with_point else None)
        _add_global(b, bps, counts)

    # error slice: an over-cap grid, an off-grid base point, and the two
    # malformed configs of the known crash (kept although they fail today)
    b.add("cli", ["types", "--group", "E8", "--order", "6"],
          {"check": "error", "exit": 3}, keys=[("E8", 6)])
    odd = 2 * b.rng.randint(0, 12) + 1
    b.add("cli", ["types", "--group", "A3", "--order", "13",
                  "--point", f"{odd}/26,0,0"],
          {"check": "error", "exit": 2}, keys=[("A3", 13)])
    b.add("cli", ["global", "--config", "{config}"],
          {"check": "error", "exit": 2, "known_crash": MALFORMED_CONFIG_CRASH},
          config=json.dumps({"branch_points": [1]}))
    e = b.rng.randint(201, 260)
    bad = {"branch_points": [{"name": "x0", "group": {"label": "A", "rank": 1},
                              "order": e, "action": "trivial"}]}
    b.add("cli", ["global", "--config", "{config}"],
          {"check": "error", "exit": 2, "known_crash": MALFORMED_CONFIG_CRASH},
          keys=[("A1", e)], config=json.dumps(bad, sort_keys=True))
    return b.finish()


# ---------------------------------------------------------------------------
# apartment: orbit, local_types and Burnside on the same (group, e, base)
# ---------------------------------------------------------------------------

# (group, lowest e, highest e, triples, distance bands cycled over the triples)
APARTMENT_TRIPLES = [
    ("A1", 2, 8, 8, ("near", "mid", "far")),
    ("A2", 2, 4, 8, ("near", "mid", "far")),
    ("B2", 2, 4, 6, ("near", "mid", "far")),
    ("G2", 2, 5, 6, ("near", "mid", "far")),
    ("A3", 2, 2, 6, ("near", "mid", "far")),
    ("A3", 3, 3, 4, ("near", "mid")),
    ("B3", 2, 2, 4, ("near", "mid")),
    ("B3", 3, 3, 3, ("near",)),
    ("C3", 2, 2, 4, ("near", "mid")),
    ("D4", 2, 2, 3, ("near",)),
]
# (group, e, calls).  A Burnside count costs the same whatever the base, and
# the twelve D5 calls hold the rank of `latency_tail_ms` on that plateau.
APARTMENT_BURNSIDE_ONLY = [("F4", 2, 4), ("D5", 2, 12)]


def apartment(seed: int) -> List[Query]:
    b = _Batch("apartment", seed)
    triple = 0
    for group, lo, hi, count, bands in APARTMENT_TRIPLES:
        # with one order, the alcove points are spread over the whole alcove,
        # so the batch has the same mix of cheap and costly orbits every seed
        spread = spread_picks(b.rng, alcove_grid(group, lo), count) if lo == hi else None
        orders = b.cycle(tuple(range(lo, hi + 1)), count)
        for i, (e, band) in enumerate(zip(orders, b.cycle(bands, count))):
            point = (moved(b.rng, spread[i], e, band) if spread
                     else grid_point(b.rng, group, e, band))
            tag = f"t{triple:02d}"
            triple += 1
            b.add("cli", ["orbit", "--group", group, "--order", str(e),
                          "--point=" + ",".join(point), "--format", b.fmt()],
                  {"check": "orbit", "triple": tag}, keys=[(group, e)])
            for kind in ("local_types", "burnside"):
                b.add(kind, (group, e, tuple(point)),
                      {"check": kind, "triple": tag, "group": group, "e": e},
                      keys=[(group, e)])
    for group, e, count in APARTMENT_BURNSIDE_ONLY:
        for k in spread_picks(b.rng, alcove_grid(group, e), count):
            point = moved(b.rng, k, e, "near")
            b.add("burnside", (group, e, tuple(point)),
                  {"check": "burnside", "group": group, "e": e}, keys=[(group, e)])
    return b.finish()


# ---------------------------------------------------------------------------
# involutions: the SL_n / SU_n monomial calculus
# ---------------------------------------------------------------------------

INVOLUTION_ROUNDS = 4
SU_CASES = {"odd": ("odd-A", "odd-B"), "even": ("even-Lm", "even-L0")}
# sizes n of the involution branch point in the three global configs of a round
GLOBAL_INVOLUTION_SIZES = ((3, 5), (6, 7), (8, 8))


def sl_expected(n: int, variant: str) -> Tuple[int, int]:
    """(|H^1|, type count) of the SL_n involution: the acceptance-suite values
    (n = 4, 5), which follow the parity of n for every n."""
    if n % 2:
        return 1, 1
    return 2, (2 if variant == "J-prime" else 1)


def su_expected(n: int, case: str) -> Tuple[int, int]:
    """(|H^1|, type count) of an SU_n special vertex, as in the acceptance suite."""
    return (1 if n % 2 else 2), (2 if case == "even-Lm" else 1)


def involutions(seed: int) -> List[Query]:
    b = _Batch("involutions", seed)
    for _ in range(INVOLUTION_ROUNDS):
        for n in range(3, 9):
            variants = ("J",) if n % 2 else ("J", "J-prime")
            for variant in variants:
                action = "sl-J" if variant == "J" else "sl-Jprime"
                b.add("cli", ["types", "--group", f"A{n - 1}", "--order", "2",
                              "--action", action, "--format", b.fmt()],
                      {"check": "sl_types", "n": n, "variant": variant},
                      keys=[(f"A{n - 1}", 2)])
            for case in SU_CASES["odd" if n % 2 else "even"]:
                b.add("su", (n, case), {"check": "su", "n": n, "case": case},
                      keys=[(f"A{n - 1}", 2)])
        for lo, hi in GLOBAL_INVOLUTION_SIZES:
            n = b.rng.randint(lo, hi)
            variant = "J" if n % 2 else b.rng.choice(("J", "J-prime"))
            bps = [{"name": "x0", "group": {"label": "A", "rank": n - 1},
                    "order": 2, "action": {"kind": "sl-involution", "variant": variant}}]
            counts = [sl_expected(n, variant)[1]]
            for i in range(b.rng.randint(1, 2)):
                group, e = b.rng.choice((("A1", b.rng.randint(2, 12)),
                                         ("A2", b.rng.randint(2, 6))))
                with_point = b.rng.random() < 0.5
                bps.append(_branch_point(b, f"x{i + 1}", group, e, with_point))
                counts.append((e + 1) // 2 if group == "A1" and not with_point else None)
            _add_global(b, bps, counts)
        for group, perm, code in (("A4", "4,3,2,1", 0), ("D4", "1,2,4,3", 2),
                                  ("E6", "6,2,5,4,3,1", 2)):
            b.add("cli", ["types", "--group", group, "--order", "2", "--action",
                          "diagram", "--perm", perm],
                  {"check": "diagram" if code == 0 else "error", "exit": code},
                  keys=[(group, 2)])
        b.add("cli", ["types", "--group", "A8", "--order", "2", "--action", "sl-J"],
              {"check": "error", "exit": 3}, keys=[("A8", 2)])
    return b.finish()


GENERATORS = {"census": census, "apartment": apartment, "involutions": involutions}


def generate(workload: str, seed: int) -> List[Query]:
    return GENERATORS[workload](seed)


def repeat_share(queries: List[Query]) -> float:
    """Share of queries that compute on a (group, e) an earlier query used."""
    seen = set()
    repeats = 0
    for q in queries:
        if any(k in seen for k in q.keys):
            repeats += 1
        seen.update(q.keys)
    return repeats / len(queries)
