"""Affine Weyl geometry: alcove reduction, facets, splitting degrees and
apartment orbits.

Points live in the rational span of the coroot lattice, written in
simple-coroot coordinates.  The closed fundamental alcove is cut out by
``<alpha_i, x> >= 0`` for the simple roots and ``<theta, x> <= 1`` for the
highest root; wall 0 is the theta-wall.  Reduction translates a point
outside the alcove into [0, 1)^r by the coroot lattice, then folds it by
reflecting across violated walls, each step lowering the number of affine
hyperplanes separating the point from the alcove.

The kernels work on integer numerators: a point x is X / D for its least
common denominator D, its simple-root values are V / D with V = C X for the
Cartan matrix C, and x = adj(C) V / (det(C) D) through the integer pair
(adj(C), det(C)) that the root datum keeps, as it keeps the theta-coroot.
A Fraction is built only for a returned point or value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .exactalg import QZVector, common_numerators, grid_numerators, require_positive_order
from .rootdata import (
    DEFAULT_CAP,
    EnumerationCapError,
    RootDatum,
    build_root_datum,
    weyl_order,
)

AlcovePoint = Tuple[Fraction, ...]


def require_coordinates(datum: RootDatum, x: Sequence) -> None:
    """Refuse a point x whose number of coordinates is not the rank."""
    if len(x) != datum.rank:
        raise ValueError(f"{datum.name} needs {datum.rank} coordinates, not {len(x)}")


def root_numerators(
    datum: RootDatum, x: Sequence
) -> Tuple[int, Tuple[int, ...], List[int]]:
    """(D, X, V): x = X / D over the least common denominator D, and
    V = C X, so that <alpha_i, x> = V_i / D."""
    require_coordinates(datum, x)
    D, X = common_numerators(x)
    return D, X, [sum(c * a for c, a in zip(row, X) if c) for row in datum.cartan]


def simple_root_values(datum: RootDatum, x: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    D, _, values = root_numerators(datum, x)
    return tuple(Fraction(v, D) for v in values)


def point_from_root_values(datum: RootDatum, values: Sequence[Fraction]) -> AlcovePoint:
    """Invert <alpha_i, x> = values_i: for values V / D over their least
    common denominator D, x = adj(C) V / (det(C) D)."""
    if len(values) != datum.rank:
        raise ValueError(f"{datum.name} needs {datum.rank} root values, not {len(values)}")
    adj, det = datum.cartan_inverse
    D, V = common_numerators(values)
    return tuple(Fraction(sum(a * v for a, v in zip(row, V) if a), det * D) for row in adj)


def reduce_to_alcove(
    datum: RootDatum, x: Sequence[Fraction]
) -> Tuple[AlcovePoint, Tuple[int, ...]]:
    """Fold x into the closed fundamental alcove (:func:`fold_numerators`, on
    the numerators of x over its least common denominator).  A point of the
    closed alcove has the empty word; any other point is first translated by
    floor(x) in Q_coroot, and its word lists the walls crossed after that (0
    for the theta-wall, i for the i-th simple wall) in reflection order."""
    require_coordinates(datum, x)
    D, X = common_numerators(x)
    X, _, word = fold_numerators(datum, D, list(X))
    return tuple(Fraction(a, D) for a in X), tuple(word)


def fold_numerators(
    datum: RootDatum, D: int, X: List[int]
) -> Tuple[List[int], List[int], List[int]]:
    """Fold the point X / D, whose root values are V / D (V = C X), into the
    closed fundamental alcove, in place: (X, V, word) after the fold, the
    word as in :func:`reduce_to_alcove`.

    A point outside the alcove, a strict fundamental domain of W x Q_coroot,
    is first replaced by X mod D, in [0, 1)^r.  Each step then reflects
    across the first simple wall with a negative root value, or else across
    the theta-wall when <theta, x> > 1.  No reflection changes the
    denominator D, which need not be the least one: s_i lowers X_i by V_i
    and V_j by c_ji V_i, the theta-reflection subtracts its excess times the
    theta-coroot, and <theta, x> = sum_i m_i V_i / D for the marks m.

    Each reflection crosses one separating wall, so the word has one letter
    per affine root hyperplane strictly between x and the alcove: sum over
    alpha > 0 of ceil(<alpha, x>) - 1 if <alpha, x> > 1, -floor(<alpha, x>)
    if < 0; on [0, 1)^r, at most max(P - 1, -N, 0) per root for the sums P
    and N of the positive and the negative <alpha, alpha_i^vee>, at any
    distance of the given point.  A word of another length is a hard error.
    """
    marks = datum.marks
    values = [sum(c * a for c, a in zip(row, X) if c) for row in datum.cartan]
    if min(values) < 0 or sum(m * v for m, v in zip(marks, values)) > D:
        X[:] = [a % D for a in X]
        values = [sum(c * a for c, a in zip(row, X) if c) for row in datum.cartan]
    root_values = [0]  # D <alpha, x> per positive root, up the root ladder
    for k, i in datum.root_ladder:
        root_values.append(root_values[k] + values[i])
    count = sum((v - 1) // D if v > 0 else -(v // D) for v in root_values)
    r = datum.rank
    columns, theta_values = datum.reflection_updates
    theta_coroot = datum.theta_coroot
    word: List[int] = []
    for _ in range(count + 1):
        for i, v in enumerate(values):
            if v < 0:
                X[i] -= v
                for j, c in columns[i]:
                    values[j] -= c * v
                word.append(i + 1)
                break
        else:
            excess = sum(m * v for m, v in zip(marks, values)) - D
            if excess <= 0:
                break
            for j in range(r):
                X[j] -= excess * theta_coroot[j]
                values[j] -= excess * theta_values[j]
            word.append(0)
    if len(word) != count:
        raise AssertionError(f"alcove reduction made {len(word)} reflections, but "
                             f"{count} walls separate the point from the alcove")
    return X, values, word


class FacetDescriptor(NamedTuple):
    """The set of affine walls through a reduced point; node 0 is the
    theta-wall 1 - <theta, x> = 0."""

    vanishing_walls: FrozenSet[int]
    classification: str  # "vertex" | "Iwahori" | "intermediate"
    special: bool

    def describe(self) -> str:
        if self.classification == "Iwahori":
            text = "Iwahori"
        else:
            walls = "{" + ",".join(str(w) for w in sorted(self.vanishing_walls)) + "}"
            text = f"{self.classification} {walls}"
        if self.special:
            text += ", hyperspecial" if self.classification == "vertex" else ", special"
        return text


def facet_of(datum: RootDatum, x0: Sequence[Fraction]) -> FacetDescriptor:
    """Walls through a point of the closed alcove and its speciality
    (:func:`facet_of_numerators`)."""
    D, _, values = root_numerators(datum, x0)
    return facet_of_numerators(datum, D, values)


def facet_of_numerators(datum: RootDatum, D: int, values: Sequence[int]) -> FacetDescriptor:
    """Walls through the point of the closed alcove whose root values are
    ``values`` / D, and its speciality; a point outside the alcove is a
    ValueError.

    The point is special when every root value is an integer; every root is
    an integer combination of the simple roots, so the simple ones decide.
    """
    theta_value = sum(m * v for m, v in zip(datum.marks, values))
    if any(v < 0 for v in values) or theta_value > D:
        raise ValueError("point is not reduced to the fundamental alcove")
    walls = {i + 1 for i, v in enumerate(values) if v == 0}
    if theta_value == D:
        walls.add(0)
    if len(walls) == datum.rank:
        classification = "vertex"
    elif not walls:
        classification = "Iwahori"
    else:
        classification = "intermediate"
    special = all(v % D == 0 for v in values)
    return FacetDescriptor(frozenset(walls), classification, special)


def min_split_degree(
    datum: RootDatum, x: Sequence[Fraction], p_exclusion: int = 0
) -> Tuple[int, bool]:
    """Least e making x special once the hyperplane spacing is refined to 1/e,
    i.e. the lcm of the denominators of the root values (those of the simple
    roots, whose integer combinations the other roots are); tameness records
    whether the excluded characteristic (0 or a prime) misses that degree."""
    require_characteristic(p_exclusion)
    D, _, values = root_numerators(datum, x)
    degree = lcm(*(D // gcd(v, D) for v in values))
    return degree, p_exclusion == 0 or degree % p_exclusion != 0


def type_to_alcove(
    datum: RootDatum,
    rep: QZVector,
    e: int,
    base: Sequence[Fraction],
) -> Tuple[AlcovePoint, FacetDescriptor]:
    """Alcove point and facet of the twisted stabilizer attached to a class
    (:func:`fold_type`).

    Only meaningful when the group action on the reductive quotient is the
    split untwisted one; the class representative acts as the translation
    by its coroot coordinates.  An order e < 1, a rep or base without one
    coordinate per node, or a rep outside (1/e)Z^r, which the norm e of the
    split action does not kill, is a ValueError, raised before the fold.
    """
    require_positive_order(e)
    D, X, values = fold_type(datum, grid_numerators(rep, e), e, common_numerators(base))
    return tuple(Fraction(a, D) for a in X), facet_of_numerators(datum, D, values)


def fold_type(
    datum: RootDatum,
    digits: Sequence[int],
    e: int,
    base_numerators: Tuple[int, Sequence[int]],
) -> Tuple[int, List[int], List[int]]:
    """(D, X, V): the point b + t folded into the closed alcove as X / D,
    with root values V / D, for the base b = B / N given as (N, B) and a
    class t = digits / e in (1/e)Z^r (:func:`fold_numerators`).  D = lcm(N, e)
    and the numerators of b + t over it are those of b times D / N plus the
    digits times D / e.  An order e < 1, or digits or B without one
    coordinate per node, is a ValueError."""
    require_positive_order(e)
    N, B = base_numerators
    require_coordinates(datum, digits)
    require_coordinates(datum, B)
    D = lcm(N, e)
    scale, step = D // N, D // e
    X = [b * scale + a * step for b, a in zip(B, digits)]
    X, values, _ = fold_numerators(datum, D, X)
    return D, X, values


def apartment_orbit_types(
    datum: RootDatum,
    a: Sequence[Fraction],
    e: int,
    cap: int = DEFAULT_CAP,
) -> List[AlcovePoint]:
    """Fundamental-alcove representatives of the W_aff-classes inside the
    orbit of a under the level-e affine group W x (1/e) Q_coroot, sorted.

    The closed alcove is a strict fundamental domain for W_aff, so the
    classes are the closed-alcove points of the orbit, which is the union of
    the cosets W(a) + (1/e) Q_coroot.  a is reduced into the alcove once, to
    X / D; a coset is named by Y = e X mod D, and the cosets are found by
    breadth-first search under the simple reflections on Y.  The coset Y
    holds the points (Y + D mu) / (D e), mu in Q_coroot, of integer root
    values W = C Y + D C mu over D e; those of the closed alcove are the
    W = C Y mod D with W >= 0, sum_i m_i W_i <= D e and adj(C) W = det(C) Y
    mod det(C) D, each the point adj(C) W / (det(C) D e).  A point with root
    values in (1/e)Z (C Y = 0 mod D) has one coset, as s_i moves it by
    <alpha_i, x> alpha_i^vee; its size e^r, or |W| * e^r for any other
    point, is checked against ``cap`` before the cosets are walked.  An
    order e < 1 is a ValueError, before any cap.
    """
    require_positive_order(e)
    r, cartan, marks = datum.rank, datum.cartan, datum.marks
    base, _ = reduce_to_alcove(datum, a)
    # base = X / D; e X mod D names the coset base + (1/e) Q_coroot
    D, X = common_numerators(base)
    start = tuple(x * e % D for x in X)
    # a point with root values in (1/e)Z has one coset, any other at most |W|
    on_grid = all(sum(c * y for c, y in zip(row, start)) % D == 0 for row in cartan)
    order = 1 if on_grid else weyl_order(datum, cap=inf)
    if order * e ** r > cap:
        size = f"{e}^{r}" if on_grid else f"{order}*{e}^{r}"
        raise EnumerationCapError(f"apartment orbit of size {size} exceeds cap {cap}")
    cosets = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for Y in frontier:
            for i in range(r):
                value = sum(c * y for c, y in zip(cartan[i], Y))
                image = Y[:i] + ((Y[i] - value) % D,) + Y[i + 1:]
                if image not in cosets:
                    cosets.add(image)
                    nxt.append(image)
        frontier = nxt
    adj, det = datum.cartan_inverse
    points = []
    for Y in cosets:
        # D e <alpha_i, x> mod D, the same for every point x of the coset
        residues = [sum(c * y for c, y in zip(row, Y)) % D for row in cartan]
        for W in _alcove_root_values(marks, residues, D, D * e):
            sums = [sum(c * w for c, w in zip(row, W) if c) for row in adj]
            if all((s - det * y) % (det * D) == 0 for s, y in zip(sums, Y)):
                points.append(tuple(Fraction(s // det, D * e) for s in sums))
    return sorted(points)


def _alcove_root_values(marks: Sequence[int], residues: Sequence[int], D: int, room: int):
    """Every W >= 0 in residues + D Z^r with sum_i marks_i W_i <= room."""
    if not marks:
        yield ()
        return
    for w in range(residues[0], room // marks[0] + 1, D):
        for rest in _alcove_root_values(marks[1:], residues[1:], D, room - marks[0] * w):
            yield (w,) + rest


# ---------------------------------------------------------------------------
# prime data of the vertices
# ---------------------------------------------------------------------------

def prime_divisors(n: int) -> FrozenSet[int]:
    out = set()
    n = abs(n)
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


# Miller-Rabin on the prime bases up to 41 decides primality below the bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below :data:`MILLER_RABIN_BOUND`."""
    if n < 2 or any(n % a == 0 for a in MILLER_RABIN_BASES):
        return n in MILLER_RABIN_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    powers = [pow(a, (n - 1) >> s, n) for a in MILLER_RABIN_BASES]
    return all(x == 1 or any(pow(x, 1 << k, n) == n - 1 for k in range(s)) for x in powers)


def require_characteristic(p: int) -> None:
    """Reject a residue characteristic that is neither 0 nor a prime; refuse
    one at or above the bound of the primality test."""
    if p >= MILLER_RABIN_BOUND:
        raise EnumerationCapError(f"primality test of the characteristic: {p} is not "
                                  f"below the bound {MILLER_RABIN_BOUND} of the test")
    if p != 0 and not is_prime(p):
        raise ValueError(f"a residue characteristic must be 0 or a prime, not {p}")


class VertexPrimeData(NamedTuple):
    """What :func:`vertex_prime_data` reads off one simple type: the primes
    of its marks, the quoted orders of its affine and twisted affine
    diagram automorphisms (None off type A), and the residue
    characteristics a tame torsor excludes."""

    label: str
    rank: int
    mark_primes: FrozenSet[int]
    affine_aut_order: Optional[int]
    twisted_affine_aut_order: Optional[int]
    excluded_characteristics: FrozenSet[int]


def vertex_prime_data(label: str, rank: int, cap: int = DEFAULT_CAP) -> VertexPrimeData:
    """Primes of the marks, the quoted affine-diagram automorphism orders
    (untwisted A_n: the dihedral 2(n+1) from n = 2 on, and 2 for A_1, whose
    two nodes pair to -2 both ways; twisted: 2 for odd n, 1 for even n;
    absent for the other types), and the excluded characteristics, read off
    the root datum (built under ``cap``): 2, the primes of the marks (the
    bad primes) and the primes of det(C) = |pi_1|."""
    datum = build_root_datum(label, rank, cap)
    mark_primes = frozenset().union(*(prime_divisors(m) for m in datum.marks))
    type_a = datum.label == "A"
    return VertexPrimeData(
        label=datum.label,
        rank=rank,
        mark_primes=mark_primes,
        affine_aut_order=(2 * (rank + 1) if rank > 1 else 2) if type_a else None,
        twisted_affine_aut_order=(2 if rank % 2 == 1 else 1) if type_a else None,
        excluded_characteristics=frozenset({2}) | mark_primes
        | prime_divisors(datum.cartan_inverse[1]),
    )
