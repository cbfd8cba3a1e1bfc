"""Affine Weyl geometry: alcove reduction, facets, splitting degrees and
apartment orbits.

Points live in the rational span of the coroot lattice, written in
simple-coroot coordinates.  The closed fundamental alcove is cut out by
``<alpha_i, x> >= 0`` for the simple roots and ``<theta, x> <= 1`` for the
highest root; wall 0 is the theta-wall.  Reduction folds a point into the
alcove by reflecting across violated walls, which terminates because each
step lowers the number of affine hyperplanes separating the point from the
alcove.

The kernels work on integer numerators: a point x is X / D for its least
common denominator D, its simple-root values are V / D with V = C X for the
Cartan matrix C, and x = adj(C) V / (det(C) D) through the integer pair
(adj(C), det(C)) that the root datum keeps, as it keeps the theta-coroot.
A Fraction is built only for a returned point or value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .exactalg import QZVector, common_numerators, grid_numerators, require_positive_order
from .rootdata import (
    DEFAULT_CAP,
    EnumerationCapError,
    RootDatum,
    build_root_datum,
    weyl_order,
)

AlcovePoint = Tuple[Fraction, ...]


def as_point(coords: Sequence) -> AlcovePoint:
    return tuple(Fraction(x) for x in coords)


def _root_numerators(
    datum: RootDatum, x: Sequence
) -> Tuple[int, Tuple[int, ...], List[int]]:
    """(D, X, V): x = X / D over the least common denominator D, and
    V = C X, so that <alpha_i, x> = V_i / D."""
    if len(x) != datum.rank:
        raise ValueError(f"{datum.name} needs {datum.rank} coordinates, not {len(x)}")
    D, X = common_numerators(as_point(x))
    return D, X, [sum(c * a for c, a in zip(row, X) if c) for row in datum.cartan]


def simple_root_values(datum: RootDatum, x: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    D, _, values = _root_numerators(datum, x)
    return tuple(Fraction(v, D) for v in values)


def point_from_root_values(datum: RootDatum, values: Sequence[Fraction]) -> AlcovePoint:
    """Invert <alpha_i, x> = values_i: for values V / D over their least
    common denominator D, x = adj(C) V / (det(C) D)."""
    if len(values) != datum.rank:
        raise ValueError(f"{datum.name} needs {datum.rank} root values, not {len(values)}")
    adj, det = datum.cartan_inverse
    D, V = common_numerators(as_point(values))
    return tuple(Fraction(sum(a * v for a, v in zip(row, V) if a), det * D) for row in adj)


def reduce_to_alcove(
    datum: RootDatum, x: Sequence[Fraction], cap: int = DEFAULT_CAP
) -> Tuple[AlcovePoint, Tuple[int, ...]]:
    """Fold x into the closed fundamental alcove; the word lists the walls
    (0 for the theta-wall, i for the i-th simple wall) in reflection order.
    The fold runs on the numerators of x over its least common denominator
    (:func:`fold_numerators`), whose cap and checks apply."""
    D, X, values = _root_numerators(datum, x)
    X, _, word = fold_numerators(datum, D, list(X), values, cap)
    return tuple(Fraction(a, D) for a in X), tuple(word)


def fold_numerators(
    datum: RootDatum, D: int, X: List[int], values: List[int], cap: int = DEFAULT_CAP
) -> Tuple[List[int], List[int], List[int]]:
    """Fold the point X / D, whose root values are ``values`` / D (values =
    C X), into the closed fundamental alcove, in place: (X, values, word)
    after the fold, the word as in :func:`reduce_to_alcove`.

    Each step reflects across the first simple wall with a negative root
    value, or else across the theta-wall when <theta, x> > 1.  No reflection
    changes the denominator D, which need not be the least one: s_i lowers
    X_i by V_i and V_j by c_ji V_i, the theta-reflection subtracts its
    excess times the theta-coroot, and <theta, x> = sum_i m_i V_i / D for
    the marks m.

    Each reflection crosses one separating wall, so the word has one letter
    per affine root hyperplane strictly between x and the alcove: sum over
    alpha > 0 of ceil(<alpha, x>) - 1 if <alpha, x> > 1, -floor(<alpha, x>)
    if < 0.  A count above ``cap`` is refused with EnumerationCapError
    before the first reflection; a word of another length is a hard error.
    """
    root_values = [0]  # D <alpha, x> per positive root, up the root ladder
    for k, i in datum.root_ladder:
        root_values.append(root_values[k] + values[i])
    count = sum((v - 1) // D if v > 0 else -(v // D) for v in root_values)
    if count > cap:
        raise EnumerationCapError(f"alcove reduction of {count} reflections exceeds cap {cap}")
    r = datum.rank
    cartan = datum.cartan
    marks = datum.marks
    # the nonzero entries c_ji of column i, for the update of V under s_i
    columns = [[(j, cartan[j][i]) for j in range(r) if cartan[j][i]] for i in range(r)]
    theta_coroot = datum.theta_coroot
    theta_values = [sum(c * t for c, t in zip(row, theta_coroot)) for row in cartan]
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


@dataclass(frozen=True)
class FacetDescriptor:
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
    D, _, values = _root_numerators(datum, x0)
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
    D, _, values = _root_numerators(datum, x)
    degree = lcm(*(D // gcd(v, D) for v in values))
    return degree, p_exclusion == 0 or degree % p_exclusion != 0


def type_to_alcove(
    datum: RootDatum,
    rep: QZVector,
    e: int,
    base: Sequence[Fraction],
    cap: int = DEFAULT_CAP,
) -> Tuple[AlcovePoint, FacetDescriptor]:
    """Alcove point and facet of the twisted stabilizer attached to a class
    (:func:`fold_type`).

    Only meaningful when the group action on the reductive quotient is the
    split untwisted one; the class representative acts as the translation
    by its coroot coordinates.  An order e < 1 is a ValueError.
    """
    require_positive_order(e)
    D, X, values = fold_type(datum, as_point(rep), e, common_numerators(as_point(base)), cap)
    return tuple(Fraction(a, D) for a in X), facet_of_numerators(datum, D, values)


def fold_type(
    datum: RootDatum,
    rep: QZVector,
    e: int,
    base_numerators: Tuple[int, Sequence[int]],
    cap: int = DEFAULT_CAP,
) -> Tuple[int, List[int], List[int]]:
    """(D, X, V): the point b + t folded into the closed alcove as X / D,
    with root values V / D, for the base b = B / N given as (N, B) and a
    class rep t in (1/e)Z^r (:func:`fold_numerators`).  D = lcm(N, e) and
    the numerators of b + t over it are those of b times D / N plus those of
    t over e times D / e.  An order e < 1, or a t outside (1/e)Z^r, which
    the norm e of the split action does not kill, is a ValueError."""
    require_positive_order(e)
    if len(rep) != datum.rank:
        raise ValueError(f"{datum.name} needs {datum.rank} coordinates, not {len(rep)}")
    N, B = base_numerators
    D = lcm(N, e)
    scale, step = D // N, D // e
    X = [b * scale + a * step for b, a in zip(B, grid_numerators(rep, e))]
    values = [sum(c * a for c, a in zip(row, X) if c) for row in datum.cartan]
    X, values, _ = fold_numerators(datum, D, X, values, cap)
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
    the cosets W(a) + (1/e) Q_coroot.  a is reduced into the alcove once; the
    cosets are found by breadth-first search under the simple reflections on
    coroot coordinates mod 1/e (a point of the (1/e)-grid has one coset).  In
    a coset c the points c + mu/e of the closed alcove have root values
    (Cc)_i + n_i/e >= 0 with sum_i m_i (Cc)_i + sum_i m_i n_i / e <= 1, where
    n = C mu must satisfy adj(C) n = 0 mod det(C).  The cost is cosets times
    alcove lattice points, but the size |W| * e^r of the orbit enumeration
    is still checked against ``cap`` first, so the refusals do not move.
    An order e < 1 is a ValueError, before any cap.
    """
    require_positive_order(e)
    order = weyl_order(datum, cap=cap)
    if order * e ** datum.rank > cap:
        raise EnumerationCapError(
            f"apartment orbit of size {order}*{e}^{datum.rank} exceeds cap {cap}"
        )
    r = datum.rank
    cartan = datum.cartan
    base, _ = reduce_to_alcove(datum, a, cap)
    # x = X / (D e) with integer X; X mod D names the coset x + (1/e) Q_coroot
    D = lcm(*((x * e).denominator for x in base))
    start = tuple(int(x * e * D) % D for x in base)
    cosets = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for X in frontier:
            for i in range(r):
                value = sum(c * x for c, x in zip(cartan[i], X))
                image = X[:i] + ((X[i] - value) % D,) + X[i + 1:]
                if image not in cosets:
                    cosets.add(image)
                    nxt.append(image)
        frontier = nxt
    adj, det = datum.cartan_inverse
    points = []
    for X in cosets:
        # D e <alpha_i, c>; the lattice point k >= 0 has n_i = k_i - floor(e <alpha_i, c>)
        values = [sum(c * x for c, x in zip(row, X)) for row in cartan]
        floors = [v // D for v in values]
        budget = (e * D - sum(m * (v % D) for m, v in zip(datum.marks, values))) // D
        for k in _bounded_points(datum.marks, budget):
            n = [ki - fi for ki, fi in zip(k, floors)]
            mu = [sum(c * ni for c, ni in zip(row, n)) for row in adj]
            if all(m % det == 0 for m in mu):
                points.append(tuple(
                    Fraction(x + D * (m // det), D * e) for x, m in zip(X, mu)
                ))
    return sorted(points)


def _bounded_points(weights: Sequence[int], budget: int):
    """Every k in N^r with sum_i weights_i k_i <= budget."""
    if not weights:
        yield ()
        return
    for k0 in range(budget // weights[0] + 1):
        for rest in _bounded_points(weights[1:], budget - weights[0] * k0):
            yield (k0,) + rest


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


@dataclass(frozen=True)
class VertexPrimeData:
    label: str
    rank: int
    mark_primes: FrozenSet[int]
    affine_aut_order: Optional[int]
    twisted_affine_aut_order: Optional[int]
    excluded_characteristics: FrozenSet[int]


def vertex_prime_data(label: str, rank: int, cap: int = DEFAULT_CAP) -> VertexPrimeData:
    """Primes of the marks, the quoted affine-diagram automorphism orders
    (untwisted A_n: 2(n+1); twisted: 2 for odd n, 1 for even n; absent for
    the other types), and the excluded characteristics, read off the root
    datum (built under ``cap``): 2, the primes of the marks (the bad primes)
    and the primes of det(C) = |pi_1|."""
    datum = build_root_datum(label, rank, cap)
    mark_primes = frozenset().union(*(prime_divisors(m) for m in datum.marks))
    type_a = datum.label == "A"
    return VertexPrimeData(
        label=datum.label,
        rank=rank,
        mark_primes=mark_primes,
        affine_aut_order=2 * (rank + 1) if type_a else None,
        twisted_affine_aut_order=(2 if rank % 2 == 1 else 1) if type_a else None,
        excluded_characteristics=frozenset({2}) | mark_primes
        | prime_divisors(datum.cartan_inverse[1]),
    )
