"""Root data, Weyl groups and diagram automorphisms for the simple types.

Conventions (Bourbaki numbering throughout):

* the cocharacter lattice is expressed in the basis of simple coroots
  (simply-connected normalization), so a coweight is an integer or rational
  coordinate vector of length ``rank``;
* roots are stored by their coefficients on the simple roots, coroots by
  theirs on the simple coroots;
* ``cartan[i][j] = <alpha_i, alpha_j_coroot>``.

A root datum is built by closing the pairs (alpha_i, alpha_i^v) under the
simple reflections, which carry each positive root with its coroot, all in
ints, with a configurable cap checked against the closed-form size
|Phi^+| * r^2 of that closure before it starts.  The Weyl group is only
ever materialized by one breadth-first closure of the generators, each
element held as a packed integer key of its root values and the places,
among the coroots of the datum, of the coroots it maps the simple coroots
to, with a configurable cap that is checked against the order |W| before
the closure starts; its conjugacy classes are found on the same keys.  An
integer matrix on the coroot lattice is formed only for a class
representative and for a generator of the subgroup W^sigma fixed by a
diagram automorphism, which is only ever given by its generators.  A
lattice automorphism is a node permutation sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, inf, lcm, prod
from operator import mul
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .exactalg import (
    IntMatrix,
    IntVector,
    adjugate_int,
    identity_matrix,
    matrix,
)

DEFAULT_CAP = 10 ** 6


class EnumerationCapError(RuntimeError):
    """An enumeration would exceed the configured cap."""


# per label: the valid ranks, as a test and as the text of its refusal, and
# the closed form of |Phi^+|
_SIMPLE_TYPES = {
    "A": (lambda r: r >= 1, "n >= 1", lambda r: r * (r + 1) // 2),
    "B": (lambda r: r >= 2, "n >= 2", lambda r: r * r),
    "C": (lambda r: r >= 2, "n >= 2", lambda r: r * r),
    "D": (lambda r: r >= 4, "n >= 4", lambda r: r * (r - 1)),
    "E": (lambda r: r in (6, 7, 8), "n in {6, 7, 8}", lambda r: {6: 36, 7: 63, 8: 120}[r]),
    "F": (lambda r: r == 4, "n = 4", lambda r: 24),
    "G": (lambda r: r == 2, "n = 2", lambda r: 6),
}


def positive_root_count(label: str, rank: int) -> int:
    """|Phi^+| of the simple type ``label`` of rank ``rank`` from its closed
    form; a label or rank that names no simple type raises ValueError."""
    if label not in _SIMPLE_TYPES:
        raise ValueError(f"unknown label {label!r}")
    valid, ranks, count = _SIMPLE_TYPES[label]
    if not valid(rank):
        raise ValueError(f"{label}_n needs {ranks}")
    return count(rank)


def _cartan_matrix(label: str, rank: int) -> IntMatrix:
    """The Cartan matrix of a simple type that :func:`positive_root_count`
    accepts."""
    n = rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, a=-1, b=-1):  # c[i][j] = a, c[j][i] = b
        c[i][j] = a
        c[j][i] = b

    if label == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif label == "B":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)  # alpha_n short
    elif label == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)  # alpha_n long
    elif label == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif label == "E":
        bond(0, 2)
        bond(1, 3)
        for i in range(2, n - 1):
            bond(i, i + 1)
    elif label == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    else:  # G2
        bond(0, 1, -1, -3)  # alpha_1 short
    return matrix(c)


def _positive_roots(cartan: IntMatrix) -> Tuple[Tuple[IntVector, IntVector], ...]:
    """Every positive root with its coroot, as (root, coroot) pairs in
    (height, root) order.

    The pairs (alpha_i, alpha_i^v) are closed under the simple reflections,
    which move a root and its coroot together (Bourbaki, Lie groups and Lie
    algebras, ch. VI, 1.1): s_i(beta) = beta - <beta, alpha_i^v> alpha_i and
    s_i(beta^v) = beta^v - <alpha_i, beta^v> alpha_i^v, all in ints.  A
    positive root beta that is not simple has some <beta, alpha_i^v> > 0,
    and then s_i(beta) is a positive root of lower height, so every
    positive root is reached from a simple one by the steps that raise the
    height, <beta, alpha_i^v> < 0; the closure takes only those."""
    n = len(cartan)
    # per i, the nonzero <alpha_j, alpha_i^v> = c_ji
    columns = [[(j, c) for j, c in enumerate(column) if c] for column in zip(*cartan)]
    pairs = [(simple, simple) for simple in identity_matrix(n)]
    seen = {root for root, _ in pairs}
    for beta, coroot in pairs:  # grows while it is read
        for i in range(n):
            p = sum(beta[j] * c for j, c in columns[i])
            if p < 0:
                image = beta[:i] + (beta[i] - p,) + beta[i + 1:]
                if image not in seen:
                    seen.add(image)
                    q = sum(map(mul, cartan[i], coroot))
                    pairs.append((image, coroot[:i] + (coroot[i] - q,) + coroot[i + 1:]))
    return tuple(sorted(pairs, key=lambda pair: (sum(pair[0]), pair[0])))


@dataclass(frozen=True)
class RootDatum:
    """Simply-connected root datum of one simple type."""

    label: str
    rank: int
    cartan: IntMatrix
    positive_roots: Tuple[IntVector, ...]
    positive_coroots: Tuple[IntVector, ...]  # the coroot of each positive root
    highest_root: IntVector
    marks: IntVector

    @property
    def name(self) -> str:
        return f"{self.label}{self.rank}"

    @cached_property
    def cartan_inverse(self) -> Tuple[IntMatrix, int]:
        """(adj(C), det(C)), so that C^-1 = adj(C) / det(C)."""
        return adjugate_int(self.cartan)

    @cached_property
    def root_ladder(self) -> Tuple[Tuple[int, int], ...]:
        """(k, i) per positive root: alpha_i plus the positive root of index
        k - 1 (alpha_i itself for k = 0), a root of lower height."""
        index = {root: k for k, root in enumerate(self.positive_roots, 1)}
        return tuple(max((index.get(root[:i] + (b - 1,) + root[i + 1:], 0), i)
                         for i, b in enumerate(root) if b)
                     for root in self.positive_roots)

    @cached_property
    def theta_coroot(self) -> IntVector:
        """The coroot of the highest root, the last positive root."""
        return self.positive_coroots[-1]


def build_root_datum(label: str, rank: int, cap: int = DEFAULT_CAP) -> RootDatum:
    """The root datum of a simple type, built once per (label, rank) and
    process; a :class:`RootDatum` is frozen, so every caller shares it.

    A bad label or rank raises ValueError (:func:`positive_root_count`).
    The closure of the positive roots with their coroots
    (:func:`_positive_roots`) applies r simple reflections of r entries to
    each of the |Phi^+| roots, so an estimate |Phi^+| * r^2 above ``cap``
    is refused with :class:`EnumerationCapError` before it starts."""
    label = label.upper()
    estimate = positive_root_count(label, rank) * rank ** 2
    if estimate > cap:
        raise EnumerationCapError(
            f"root closure for {label}{rank}: |Phi+| * r^2 = {estimate} exceeds cap {cap}")
    return _root_datum(label, rank)


@lru_cache(maxsize=None)
def _root_datum(label: str, rank: int) -> RootDatum:
    """The part of :func:`build_root_datum` after the checks; a closure that
    misses the closed-form count of :func:`positive_root_count`, or pairs a
    root beta with a coroot of <beta, beta^v> != 2, is a hard error."""
    cartan = _cartan_matrix(label, rank)
    pairs = _positive_roots(cartan)
    count = positive_root_count(label, rank)
    if len(pairs) != count:
        raise AssertionError(f"root closure for {label}{rank} has {len(pairs)} "
                             f"positive roots, the closed form gives {count}")
    for root, coroot in pairs:
        length = sum(b * sum(map(mul, row, coroot)) for b, row in zip(root, cartan) if b)
        if length != 2:
            raise AssertionError(f"root closure for {label}{rank} pairs the root {root} with "
                                 f"{coroot}: <beta, beta^v> = {length}, not 2")
    roots, coroots = map(tuple, zip(*pairs))
    return RootDatum(
        label=label,
        rank=rank,
        cartan=cartan,
        positive_roots=roots,
        positive_coroots=coroots,
        highest_root=roots[-1],
        marks=roots[-1],
    )


# ---------------------------------------------------------------------------
# Weyl elements and lattice automorphisms
# ---------------------------------------------------------------------------

class _PackedKeys(NamedTuple):
    """W in integers, for :func:`weyl_elements` and :func:`weyl_classes`.

    An element w is keyed by its root values v_j = <alpha_j, w x0>, where
    x0 is the regular coweight with <alpha_i, x0> = 1 for every i.  Since
    <alpha_j, w x0> = <w^-1 alpha_j, x0> is the height of the root
    w^-1 alpha_j, |v_j| <= ht(theta); so the key packs v_j + ``offset``,
    with ``offset`` a power of two above ht(theta), into the field of
    ``width`` bits at bit ``width * j`` of one int.  A packed vector is
    linear in its fields, so a signed vector is subtracted field by field
    whenever every field of the result is a root value again.
    """

    coroots: Tuple[IntVector, ...]  # every coroot, the simple ones first
    reflect: Tuple[Tuple[int, ...], ...]  # [i][c]: the place of s_i of coroot c
    values: Tuple[int, ...]  # [c]: the packed signed root values <alpha_j, c>
    width: int
    offset: int
    start: int  # the key of the identity: every v_j = 1


@lru_cache(maxsize=None)
def _packed_keys(datum: RootDatum) -> _PackedKeys:
    """The coroots of the datum and the negatives of them, the simple ones
    first in node order, with the table of s_i(c) = c - <alpha_i, c> alpha_i^v,
    <alpha_i, c> = sum_k c_ik c_k, on them and the key layout of
    :class:`_PackedKeys`; built once per datum and process.  A list that is
    not 2 |Phi^+| distinct coroots closed under the s_i is a hard error."""
    n, cartan = datum.rank, datum.cartan
    # (height, root) order lists the simple coroots first, in reverse node order
    plus = datum.positive_coroots[n - 1::-1] + datum.positive_coroots[n:]
    coroots = plus + tuple(tuple(-x for x in c) for c in plus)
    index = {c: k for k, c in enumerate(coroots)}
    if len(index) != 2 * len(datum.positive_roots):
        raise AssertionError(f"the coroot list of {datum.name} has {len(index)} coroots, "
                             f"not 2 |Phi+| = {2 * len(datum.positive_roots)}")
    pairings = [[sum(map(mul, row, c)) for row in cartan] for c in coroots]  # <alpha_j, c>
    reflect = []
    for i in range(n):
        images = tuple(index.get(c[:i] + (c[i] - v[i],) + c[i + 1:])
                       for c, v in zip(coroots, pairings))
        if None in images:
            raise AssertionError(f"the coroot list of {datum.name} is not closed under s{i + 1}")
        reflect.append(images)
    width = sum(datum.highest_root).bit_length() + 1
    values = tuple(sum(x << width * j for j, x in enumerate(v)) for v in pairings)
    offset = 1 << width - 1
    return _PackedKeys(coroots, tuple(reflect), values, width, offset,
                       sum(offset + 1 << width * j for j in range(n)))


def weyl_classes(
    datum: RootDatum, elements: Sequence[Tuple[int, IntVector]]
) -> List[Tuple[IntMatrix, int]]:
    """The conjugacy classes of W as (representative matrix, class size)
    pairs.

    ``elements`` is the whole of W as :func:`weyl_elements` walks it: per
    element w its packed key and the places of the coroots w(alpha_k^v)
    (:class:`_PackedKeys`).  Since s_i x0 = x0 - alpha_i^v, w s_i has the
    key of w less the root values of w(alpha_i^v), so s_i w s_i is one left
    step of that key and one lookup.  Each class is closed breadth-first
    under these conjugations, which generate conjugation by W, so the
    classes take |W| * r conjugations of O(1) big-integer operations
    together.  A class is represented by its first member in the order of
    ``elements`` (for :func:`weyl_elements`, an element of least length),
    and the classes are listed in the order of their representatives.  Only
    a representative's matrix is formed, with the coroots w(alpha_k^v) as
    its columns.  A key met twice is a hard error, and so is a conjugate
    outside ``elements`` or in a class already closed; that error names the
    element conjugated and the conjugate by their root values.  After the
    sweep the class sizes must add up to |W| (:func:`weyl_order`), else a
    hard error names both totals: a list that lacks whole classes, such as
    the identity or a central w0, passes the sweep.
    """
    keys = _packed_keys(datum)
    values, width = keys.values, keys.width
    place = {key: k for k, (key, _) in enumerate(elements)}
    if len(place) != len(elements):
        raise AssertionError(f"an element of W({datum.name}) is listed twice")
    mask, offset = (1 << width) - 1, keys.offset
    steps = [(i, width * i, values[i]) for i in range(datum.rank)]
    # the class number of each element, None while it is unassigned
    owner: List[Optional[int]] = [None] * len(elements)
    classes = []
    for start in range(len(elements)):
        if owner[start] is not None:
            continue
        label = len(classes)
        owner[start] = label
        frontier = [start]
        size = 1
        while frontier:
            nxt = []
            for k in frontier:
                key, image = elements[k]
                for i, shift, column in steps:
                    right = key - values[image[i]]  # w s_i
                    conjugate_key = right - ((right >> shift & mask) - offset) * column
                    conjugate = place.get(conjugate_key)
                    held = owner[conjugate] if conjugate is not None else -1
                    if held is None:
                        owner[conjugate] = label
                        nxt.append(conjugate)
                    elif held != label:
                        w, conjugated = (tuple((x >> width * j & mask) - offset
                                               for j in range(datum.rank))
                                         for x in (key, conjugate_key))
                        raise AssertionError(
                            f"s{i + 1} w s{i + 1} for w with root values {w} in {datum.name} "
                            f"has root values {conjugated}: not in W or in another class")
            size += len(nxt)
            frontier = nxt
        classes.append((tuple(zip(*map(keys.coroots.__getitem__, elements[start][1]))), size))
    total, order = sum(size for _, size in classes), weyl_order(datum, cap=inf)
    if total != order:
        raise AssertionError(
            f"the conjugacy classes of W({datum.name}) add up to {total}, not |W| = {order}")
    return classes


def weyl_elements(datum: RootDatum, cap: int = DEFAULT_CAP) -> List[Tuple[int, IntVector]]:
    """The whole Weyl group by breadth-first closure, in order of length, as
    one (packed key, coroot places) pair per element.

    An element w is walked as its packed key (:class:`_PackedKeys`: one
    field per node for the root value v_j = <alpha_j, w x0>, the height of
    the root w^-1 alpha_j, so |v_j| <= ht(theta)) and the places of the
    coroots w(alpha_k^v) in the coroot list, the columns of the matrix of
    w; no matrix is formed.  Left multiplication by s_i maps the root values
    v of w to v_j - <alpha_j, alpha_i^v> v_i, which is the key less v_i
    times the packed root values of alpha_i^v, and maps each coroot c to
    s_i(c), a table lookup.  Since x0 is dominant, s_i w is longer than w
    exactly when v_i > 0, so each breadth-first level holds the elements of
    one length and a step with v_i < 0 is skipped.  An order above ``cap``
    is refused before the closure starts, and the closure must reach
    exactly the order of :func:`weyl_order`.
    """
    order = weyl_order(datum, cap=cap)
    keys = _packed_keys(datum)
    values, reflect, width = keys.values, keys.reflect, keys.width
    mask, offset = (1 << width) - 1, keys.offset
    steps = [(width * i, values[i], reflect[i].__getitem__) for i in range(datum.rank)]
    elements = [(keys.start, tuple(range(datum.rank)))]
    seen = {keys.start}
    for key, image in elements:  # grows while it is read
        for shift, column, reflected in steps:
            vi = (key >> shift & mask) - offset
            if vi > 0:
                left = key - vi * column
                if left not in seen:
                    seen.add(left)
                    elements.append((left, tuple(map(reflected, image))))
    if len(elements) != order:
        raise AssertionError(
            f"Weyl closure for {datum.name} has {len(elements)} elements, "
            f"the order formula gives {order}"
        )
    return elements


def weyl_order(datum: RootDatum, cap: int = DEFAULT_CAP) -> int:
    """|W| = r! * (product of the marks) * det(Cartan), without enumerating W.

    W x Q_coroot acts simply transitively on the alcoves, so a fundamental
    domain of the coroot lattice holds |W| alcoves.  The fundamental alcove
    is the simplex on 0 and the fundamental coweights divided by the marks,
    of volume 1 / (r! * prod(marks)) in units of the coweight lattice, and
    the coroot lattice has index det(Cartan) in the coweight lattice.  A
    ``cap`` below the order raises :class:`EnumerationCapError`.
    """
    order = factorial(datum.rank) * prod(datum.marks) * datum.cartan_inverse[1]
    if order > cap:
        raise EnumerationCapError(
            f"Weyl closure for {datum.name}: |W| = {order} exceeds cap {cap}"
        )
    return order


@dataclass(frozen=True)
class LatticeAutomorphism:
    """Automorphism A e_j = e_sigma(j) of the coroot lattice, held as the
    node permutation sigma (0-indexed); anything but a permutation of
    0, ..., r - 1, r >= 1, is refused with ValueError."""

    node_permutation: Tuple[int, ...]

    def __post_init__(self):
        perm = tuple(self.node_permutation)
        if (not perm or any(type(p) is not int for p in perm)
                or set(perm) != set(range(len(perm)))):
            raise ValueError(f"{perm} is not a permutation of the nodes")
        object.__setattr__(self, "node_permutation", perm)

    @property
    def rank(self) -> int:
        return len(self.node_permutation)

    @cached_property
    def matrix(self) -> IntMatrix:
        """The matrix of A, from which :func:`parahoric.cohomology.h1_structural`
        forms the norm N_A and the coboundary A - 1."""
        perm, n = self.node_permutation, self.rank
        return tuple(tuple(int(perm[j] == i) for j in range(n)) for i in range(n))

    @cached_property
    def order(self) -> int:
        """The least k with sigma^k = 1: the lcm of the lengths of
        :attr:`node_orbits`."""
        return lcm(*map(len, self.node_orbits))

    @cached_property
    def node_orbits(self) -> Tuple[Tuple[int, ...], ...]:
        """The orbits of sigma, each sorted, in the order of their largest
        nodes."""
        perm = self.node_permutation
        orbits = set()
        for node in range(len(perm)):
            orbit, i = [node], perm[node]
            while i != node:
                orbit.append(i)
                i = perm[i]
            orbits.add(tuple(sorted(orbit)))
        return tuple(sorted(orbits, key=max))


def identity_automorphism(rank: int) -> LatticeAutomorphism:
    return LatticeAutomorphism(tuple(range(rank)))


def _preserves_cartan(datum: RootDatum, perm: Sequence[int]) -> bool:
    n = datum.rank
    return len(perm) == n and all(datum.cartan[perm[i]][perm[j]] == datum.cartan[i][j]
                                  for i in range(n) for j in range(n))


def diagram_automorphism(datum: RootDatum, node_permutation: Sequence[int]) -> LatticeAutomorphism:
    """Automorphism induced by a Dynkin-diagram symmetry.

    ``node_permutation`` maps node i to node_permutation[i], 0-indexed.
    """
    aut = LatticeAutomorphism(node_permutation)
    if not _preserves_cartan(datum, aut.node_permutation):
        raise ValueError("permutation is not a Dynkin-diagram symmetry")
    return aut


def fixed_weyl_generators(datum: RootDatum, aut: LatticeAutomorphism) -> List[IntMatrix]:
    """Generators of W^sigma, the Weyl elements commuting with the diagram
    automorphism ``aut`` of a node permutation sigma (else ValueError), as
    matrices on the coroot lattice: the longest element w_J of the
    parabolic subgroup W_J of each sigma-orbit J of the nodes, in the order
    of the least node of J (Steinberg, Endomorphisms of linear algebraic
    groups, 1968).  Each w_J is an involution, reached by the root-value
    descent of :func:`weyl_elements` on one element: from the root values
    (1, ..., 1) of the identity, apply s_i for the least i in J with
    v_i > 0 while there is one.  The step s_i takes v_i times column i of
    the Cartan matrix off the root values and rebuilds row i of the matrix,
    the only row of s_i M that differs from M, as
    sum_b (delta_ib - c_ib) M_b.
    """
    if not _preserves_cartan(datum, aut.node_permutation):
        raise ValueError("the automorphism is not a Dynkin-diagram symmetry")
    cartan = datum.cartan
    # row i of s_i M: the (b, delta_ib - c_ib) with c_ib != 0
    terms = [[(b, int(b == i) - c) for b, c in enumerate(row) if c]
             for i, row in enumerate(cartan)]
    one = identity_matrix(datum.rank)
    gens = []
    for J in sorted(aut.node_orbits):
        values, rows = [1] * datum.rank, one
        while any(values[j] > 0 for j in J):
            i = min(j for j in J if values[j] > 0)
            vi = values[i]
            values = [v - c_j[i] * vi for v, c_j in zip(values, cartan)]
            row = [0] * datum.rank
            for b, k in terms[i]:
                for j, x in enumerate(rows[b]):
                    if x:
                        row[j] += k * x
            rows = rows[:i] + (tuple(row),) + rows[i + 1:]
        gens.append(rows)
    return gens


# ---------------------------------------------------------------------------
# orbit partition by breadth-first closure
# ---------------------------------------------------------------------------

def orbit_partition(
    points: Iterable[tuple],
    actions: Sequence[Callable[[tuple], tuple]],
) -> List[Tuple[tuple, ...]]:
    """Partition a finite point set under the group generated by the actions.

    The actions are callables on points.  Each must map the set into itself
    (each generator of a finite group of bijections suffices; inverses are
    reached by iteration).  Orbits are returned sorted, each orbit listed
    with its lexicographically least point first.
    """
    todo = sorted(set(points))
    point_set = set(todo)
    orbits: List[Tuple[tuple, ...]] = []
    assigned = set()
    for p in todo:
        if p in assigned:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            nxt = []
            for q in frontier:
                for act in actions:
                    img = act(q)
                    if img not in point_set:
                        raise ValueError(
                            f"action does not preserve the point set: {q} -> {img}"
                        )
                    if img not in orbit:
                        orbit.add(img)
                        nxt.append(img)
            frontier = nxt
        assigned |= orbit
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: o[0])
    return orbits

