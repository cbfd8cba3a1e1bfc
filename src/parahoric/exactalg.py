"""Exact integer and rational-mod-Z linear algebra.

Everything in this package runs on arbitrary-precision integers and
``fractions.Fraction``; no floating point is used anywhere.  Matrices are
immutable tuples of tuples of ints, vectors over Q/Z are tuples of
Fractions canonicalized to [0, 1).

The workhorse, and the only integer elimination in the package, is Smith
normal form with unimodular transforms, from which lattice quotients
follow, and the adjugate and determinant of a Cartan matrix
(``rootdata.RootDatum.cartan_inverse``).  It is one elimination on the
block matrix [[M, 1], [1, 0]], so each row operation carries U along with
M and each column operation carries V (Cohen, A Course in Computational
Algebraic Number Theory, 2.4).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

IntMatrix = Tuple[Tuple[int, ...], ...]
IntVector = Tuple[int, ...]
QZVector = Tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# basic integer matrix algebra
# ---------------------------------------------------------------------------

def matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    M = tuple(tuple(int(x) for x in row) for row in rows)
    if M and any(len(row) != len(M[0]) for row in M):
        raise ValueError("ragged matrix")
    return M


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_shape(M: IntMatrix) -> Tuple[int, int]:
    return (len(M), len(M[0]) if M else 0)


def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    if mat_shape(A)[1] != len(B):
        raise ValueError("dimension mismatch in mat_mul")
    columns = tuple(zip(*B))
    return tuple([tuple([sum(map(mul, row, column)) for column in columns]) for row in A])


def mat_sub(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_add(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


# ---------------------------------------------------------------------------
# Q/Z scalars and vectors
# ---------------------------------------------------------------------------

def qz(x) -> Fraction:
    """Canonical representative of x in Q/Z, i.e. the fraction in [0, 1)."""
    return Fraction(x) % 1


def qz_vector(xs: Iterable) -> QZVector:
    return tuple(qz(x) for x in xs)


def qz_zero(n: int) -> QZVector:
    return (Fraction(0),) * n


# ---------------------------------------------------------------------------
# finite abelian groups
# ---------------------------------------------------------------------------

class _FiniteAbelianGroupFields(NamedTuple):
    # the fields alone: typing.NamedTuple refuses a __new__ in its body
    invariant_factors: Tuple[int, ...]
    free_rank: int


class FiniteAbelianGroup(_FiniteAbelianGroupFields):
    """Invariant-factor form d_1 | d_2 | ... | d_s (each > 1) plus free rank."""

    __slots__ = ()

    def __new__(cls, invariant_factors: Tuple[int, ...], free_rank: int = 0):
        for d, e in itertools.pairwise(invariant_factors):
            if e % d != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d <= 1 for d in invariant_factors):
            raise ValueError("invariant factors must exceed 1")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        return super().__new__(cls, invariant_factors, free_rank)

    @property
    def order(self) -> Optional[int]:
        return None if self.free_rank else prod(self.invariant_factors)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular U, V and diagonal D with U*M*V = D, d_i | d_{i+1} >= 0.

    One elimination on B = [[M, 1], [1, 0]], which ends as [[D, U], [V, 0]]:
    a row operation on the first ``rows`` rows of B acts on M and U at once,
    a column operation on its first ``cols`` columns on M and V.  The pivot
    of step t, moved to (t, t), is the nonzero entry of least absolute value
    in the remaining block, first in row-major order among ties.  It clears
    its column and row, then re-pivots on a remainder, or on row t plus the
    first row with an entry it does not divide; else row t is made positive.
    """
    rows, cols = mat_shape(M)
    b = [list(row) + [0] * rows for row in M] + [[0] * (cols + rows) for _ in range(cols)]
    for k in range(rows + cols):  # the 1 of row k of either identity block
        b[k][(k + cols) % (rows + cols)] = 1
    t = 0
    while t < min(rows, cols):
        least = 0
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(b[i][j])
                if x and (not least or x < least):
                    least, pi, pj = x, i, j
            if least == 1:  # no later entry is less, and a tie comes later
                break
        if not least:
            break
        if pi != t:
            b[t], b[pi] = b[pi], b[t]
        if pj != t:
            for row in b:
                row[t], row[pj] = row[pj], row[t]
        top = b[t]
        p, remainder = top[t], False
        for i in range(t + 1, rows):  # row i -= q row t, on M and U
            if b[i][t]:
                q = b[i][t] // p
                b[i] = [x - q * y for x, y in zip(b[i], top)]
                remainder = remainder or b[i][t] != 0
        for j in range(t + 1, cols):  # column j -= q column t, on M and V
            if top[j]:
                q = top[j] // p
                for row in b:
                    row[j] -= q * row[t]
                remainder = remainder or top[j] != 0
        if remainder:
            continue  # re-pivot the same block
        offender = None if p in (1, -1) else next(  # a unit divides every entry
            (i for i in range(t + 1, rows) for x in b[i][t + 1:cols] if x % p), None)
        if offender is not None:
            b[t] = [x + y for x, y in zip(top, b[offender])]
            continue
        if p < 0:
            b[t] = [-x for x in top]
        t += 1
    return (tuple(tuple(row[cols:]) for row in b[:rows]),
            tuple(tuple(row[:cols]) for row in b[:rows]),
            tuple(tuple(row[:cols]) for row in b[rows:]))


def quotient_structure(rank: int, generators: Sequence[IntVector]) -> FiniteAbelianGroup:
    """Structure of Z^rank modulo the span of the given column vectors: the
    nonzero Smith diagonal less its units, and free rank for the rest."""
    if any(len(g) != rank for g in generators):
        raise ValueError("generator length must equal the ambient rank")
    if not generators:
        return FiniteAbelianGroup((), free_rank=rank)
    M = tuple(tuple(g[i] for g in generators) for i in range(rank))
    _, D, _ = smith_normal_form(M)
    nonzero = [D[i][i] for i in range(min(rank, len(generators))) if D[i][i]]
    return FiniteAbelianGroup(
        tuple(d for d in nonzero if d > 1),
        free_rank=rank - len(nonzero),
    )


def common_numerators(xs: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """The least common denominator d of the rationals xs (ints or
    Fractions) and their numerators over d, so that x_i = numerators_i / d.
    Any other value, a float or a str say, is a TypeError that names it."""
    try:
        d = lcm(*(x.denominator for x in xs))
    except AttributeError:
        inexact = next(x for x in xs if not hasattr(x, "denominator"))
        raise TypeError(f"{inexact!r} is not an int or a Fraction") from None
    return d, tuple(x.numerator * (d // x.denominator) for x in xs)


def require_positive_order(e: int) -> None:
    """Refuse an order e < 1 of the cyclic group Gamma with ValueError."""
    if e < 1:
        raise ValueError("the order of Gamma must be positive")


def grid_numerators(xs: Iterable[Fraction], e: int) -> List[int]:
    """The numerators e x_i of a vector of (1/e)Z^r (ints or Fractions),
    read once, so an iterator will do; an order e < 1 or an entry outside
    (1/e)Z is a ValueError, and any other value a TypeError, as in
    :func:`common_numerators`."""
    require_positive_order(e)
    xs = tuple(xs)
    try:
        off_grid = any(e % x.denominator for x in xs)
    except AttributeError:
        common_numerators(xs)  # raises the TypeError that names the value
        raise
    if off_grid:
        raise ValueError(f"vector {tuple(map(str, xs))} is not in (1/{e})Z^{len(xs)}")
    return [x.numerator * (e // x.denominator) for x in xs]
