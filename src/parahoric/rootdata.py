"""Root data, Weyl groups and diagram automorphisms for the simple types.

Conventions (Bourbaki numbering throughout):

* the cocharacter lattice is expressed in the basis of simple coroots
  (simply-connected normalization), so a coweight is an integer or rational
  coordinate vector of length ``rank``;
* roots are stored by their coefficients on the simple roots;
* ``cartan[i][j] = <alpha_i, alpha_j_coroot>``.

A root datum is built by closing the simple roots under the simple
reflections, with a configurable cap checked against the closed-form size
|Phi^+| * r^2 of that closure before it starts.  Weyl elements are integer
matrices acting on the coroot lattice; the group is only ever materialized
by breadth-first closure of the generators, with a configurable cap that is
checked against the order |W| before the closure starts.  A lattice
automorphism is a node permutation sigma; the subgroup W^sigma fixed by a
diagram automorphism is only ever given by its generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm, prod
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .exactalg import (
    IntMatrix,
    IntVector,
    adjugate_int,
    det_int,
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


def _positive_roots(cartan: IntMatrix) -> Tuple[IntVector, ...]:
    """Close the simple roots under simple reflections, keeping positives."""
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                pairing = sum(beta[j] * cartan[j][i] for j in range(n))
                image = tuple(
                    beta[j] - (pairing if j == i else 0) for j in range(n)
                )
                if all(x >= 0 for x in image) and image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return tuple(sorted(seen, key=lambda r: (sum(r), r)))


def _symmetrizers(cartan: IntMatrix) -> Tuple[Fraction, ...]:
    """Rational d_i proportional to half the squared root lengths, so that
    (alpha_i, alpha_j) = c_ij d_j is symmetric."""
    n = len(cartan)
    d: List[Optional[Fraction]] = [None] * n
    d[0] = Fraction(1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                frontier.append(j)
    if any(x is None for x in d):
        raise ValueError("Dynkin diagram is not connected")
    return tuple(d)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RootDatum:
    """Simply-connected root datum of one simple type."""

    label: str
    rank: int
    cartan: IntMatrix
    positive_roots: Tuple[IntVector, ...]
    highest_root: IntVector
    marks: IntVector
    symmetrizers: Tuple[Fraction, ...]

    @property
    def name(self) -> str:
        return f"{self.label}{self.rank}"

    @cached_property
    def cartan_inverse(self) -> Tuple[IntMatrix, int]:
        """(adj(C), det(C)), so that C^-1 = adj(C) / det(C)."""
        return adjugate_int(self.cartan), det_int(self.cartan)

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
        """The coroot of the highest root."""
        return self.coroot(self.highest_root)

    def coroot(self, root: Sequence[int]) -> IntVector:
        """Coroot of a root, in simple-coroot coordinates."""
        d = self.symmetrizers
        half_norm = sum(
            Fraction(root[i] * root[j]) * self.cartan[i][j] * d[j]
            for i in range(self.rank)
            for j in range(self.rank)
        ) / 2
        out = []
        for j in range(self.rank):
            x = Fraction(root[j]) * d[j] / half_norm
            if x.denominator != 1:
                raise AssertionError("coroot coordinates must be integral")
            out.append(int(x))
        return tuple(out)


def build_root_datum(label: str, rank: int, cap: int = DEFAULT_CAP) -> RootDatum:
    """The root datum of a simple type, built once per (label, rank) and
    process; a :class:`RootDatum` is frozen, so every caller shares it.

    A bad label or rank raises ValueError (:func:`positive_root_count`).
    The closure of the positive roots applies r simple reflections of r
    entries to each of the |Phi^+| roots, so an estimate |Phi^+| * r^2
    above ``cap`` is refused with :class:`EnumerationCapError` before it
    starts."""
    label = label.upper()
    estimate = positive_root_count(label, rank) * rank ** 2
    if estimate > cap:
        raise EnumerationCapError(
            f"root closure for {label}{rank}: |Phi+| * r^2 = {estimate} exceeds cap {cap}")
    return _root_datum(label, rank)


@lru_cache(maxsize=None)
def _root_datum(label: str, rank: int) -> RootDatum:
    """The part of :func:`build_root_datum` after the checks; a closure that
    misses the closed-form count of :func:`positive_root_count` is a hard
    error."""
    cartan = _cartan_matrix(label, rank)
    positives = _positive_roots(cartan)
    count = positive_root_count(label, rank)
    if len(positives) != count:
        raise AssertionError(f"root closure for {label}{rank} has {len(positives)} "
                             f"positive roots, the closed form gives {count}")
    highest = max(positives, key=lambda r: (sum(r), r))
    return RootDatum(
        label=label,
        rank=rank,
        cartan=cartan,
        positive_roots=positives,
        highest_root=highest,
        marks=highest,
        symmetrizers=_symmetrizers(cartan),
    )


# ---------------------------------------------------------------------------
# Weyl elements and lattice automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylElement:
    """An element of W as an integer matrix on the coroot lattice."""

    matrix: IntMatrix


def _reflected_row(datum: RootDatum) -> Callable[[IntMatrix, int], IntVector]:
    """``row(M, i)`` is row i of s_i M, the only row that differs from M:
    sum_b (delta_ib - c_ib) M_b over the b with c_ib != 0."""
    n = datum.rank
    terms = [[(b, int(b == i) - c) for b, c in enumerate(row) if c]
             for i, row in enumerate(datum.cartan)]

    def row(M: IntMatrix, i: int) -> IntVector:
        out = [0] * n
        for b, k in terms[i]:
            for j, v in enumerate(M[b]):
                if v:
                    out[j] += k * v
        return tuple(out)

    return row


def _left_multiplier(datum: RootDatum) -> Callable[[Dict, IntVector, int], Optional[IntVector]]:
    """The O(r) step w -> s_i w: ``step(seen, key, i)`` maps the key v of w to
    v_j - <alpha_j, alpha_i_coroot> v_i and, if that key is new to ``seen``,
    stores the matrix of s_i w (that of w with row i rebuilt) and returns it."""
    row = _reflected_row(datum)
    columns = list(zip(*datum.cartan))

    def step(seen: Dict[IntVector, IntMatrix], key: IntVector, i: int) -> Optional[IntVector]:
        vi = key[i]
        image = tuple(v - c * vi for v, c in zip(key, columns[i]))
        if image in seen:
            return None
        M = seen[key]
        seen[image] = M[:i] + (row(M, i),) + M[i + 1:]
        return image

    return step


def _conjugator(datum: RootDatum) -> Callable[[IntMatrix, int], IntMatrix]:
    """The O(r * deg) step M -> s_i M s_i.  Row i is rebuilt as in
    :func:`_left_multiplier`; then each row k with M_ki != 0 loses M_ki
    times row i of the Cartan matrix, on the support of that Cartan row,
    which is right multiplication by s_i (the identity but for row i,
    e_i - c_i)."""
    row = _reflected_row(datum)
    supports = [[(j, c) for j, c in enumerate(cartan_row) if c]
                for cartan_row in datum.cartan]

    def conjugate(M: IntMatrix, i: int) -> IntMatrix:
        rows = list(M)
        rows[i] = row(M, i)
        for k, r in enumerate(rows):
            x = r[i]
            if x:
                r = list(r)
                for j, c in supports[i]:
                    r[j] -= x * c
                rows[k] = tuple(r)
        return tuple(rows)

    return conjugate


def weyl_classes(
    datum: RootDatum, elements: Sequence[WeylElement]
) -> List[Tuple[WeylElement, int]]:
    """The conjugacy classes of W as (representative, class size) pairs.

    ``elements`` is the whole of W, as :func:`weyl_elements` lists it.  Each
    class is closed breadth-first under the conjugations M -> s_i M s_i of
    :func:`_conjugator`, which generate conjugation by W, so the classes
    take |W| * r conjugations together.  A class is represented by its
    first member in the order of ``elements``, and the classes are listed
    in the order of their representatives.  A conjugate outside
    ``elements``, or in a class already closed, is a hard error.
    """
    conjugate = _conjugator(datum)
    gens = range(datum.rank)
    # the class number of each element, None while it is unassigned
    owner: Dict[IntMatrix, Optional[int]] = dict.fromkeys(w.matrix for w in elements)
    classes = []
    for w in elements:
        if owner[w.matrix] is not None:
            continue
        label = len(classes)
        owner[w.matrix] = label
        frontier = [w.matrix]
        size = 1
        while frontier:
            nxt = []
            for M in frontier:
                for i in gens:
                    image = conjugate(M, i)
                    held = owner.get(image, -1)
                    if held is None:
                        owner[image] = label
                        nxt.append(image)
                    elif held != label:
                        raise AssertionError(
                            f"a conjugate of {M} in {datum.name} is not in W "
                            f"or lies in another class")
            size += len(nxt)
            frontier = nxt
        classes.append((w, size))
    return classes


def weyl_elements(datum: RootDatum, cap: int = DEFAULT_CAP) -> List[WeylElement]:
    """The whole Weyl group by breadth-first closure, sorted by matrix.

    An element w is keyed by the root values of w(x0), where
    <alpha_i, x0> = 1 for every i; x0 is regular, so the key determines w.
    Left multiplication by s_i is the O(r) step of :func:`_left_multiplier`.
    Since x0 is dominant, s_i w is longer than w exactly when v_i > 0, so
    each breadth-first level holds the elements of one length and a step
    with v_i < 0 is skipped.  An order above ``cap`` is refused before the
    closure starts, and the closure must reach exactly the order of
    :func:`weyl_order`.
    """
    order = weyl_order(datum, cap=cap)
    n = datum.rank
    step = _left_multiplier(datum)
    start = (1,) * n
    seen: Dict[IntVector, IntMatrix] = {start: identity_matrix(n)}
    frontier = [start]
    while frontier:
        images = (step(seen, key, i) for key in frontier for i in range(n) if key[i] > 0)
        frontier = [image for image in images if image is not None]
    if len(seen) != order:
        raise AssertionError(
            f"Weyl closure for {datum.name} has {len(seen)} elements, "
            f"the order formula gives {order}"
        )
    return [WeylElement(M) for M in sorted(seen.values())]


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
        """The matrix of A, for the lattice quotient of H^1 and the norm."""
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


def fixed_weyl_generators(datum: RootDatum, aut: LatticeAutomorphism) -> List[WeylElement]:
    """Generators of W^sigma, the Weyl elements commuting with the diagram
    automorphism ``aut`` of a node permutation sigma (else ValueError): the
    longest element w_J of the parabolic subgroup W_J of each sigma-orbit J
    of the nodes, in the order of the least node of J (Steinberg,
    Endomorphisms of linear algebraic groups, 1968).  Each w_J is an
    involution, reached by the root-value descent of :func:`weyl_elements`:
    from the key (1, ..., 1), apply s_i for i in J while v_i > 0.
    """
    n = datum.rank
    if not _preserves_cartan(datum, aut.node_permutation):
        raise ValueError("the automorphism is not a Dynkin-diagram symmetry")
    step = _left_multiplier(datum)
    one = identity_matrix(n)
    gens = []
    for J in sorted(aut.node_orbits):
        key = (1,) * n
        seen = {key: one}
        while any(key[j] > 0 for j in J):
            key = step(seen, key, min(j for j in J if key[j] > 0))
        gens.append(WeylElement(seen[key]))
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

