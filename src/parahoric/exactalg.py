"""Exact integer and rational-mod-Z linear algebra.

Everything in this package runs on arbitrary-precision integers and
``fractions.Fraction``; no floating point is used anywhere.  Matrices are
immutable tuples of tuples of ints, vectors over Q/Z are tuples of
Fractions canonicalized to [0, 1).

The workhorse is Smith normal form with unimodular transforms, from which
lattice quotients follow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Optional, Sequence, Tuple

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
    ra, ca = mat_shape(A)
    rb, cb = mat_shape(B)
    if ca != rb:
        raise ValueError("dimension mismatch in mat_mul")
    Bt = tuple(zip(*B)) if B else ()
    return tuple(
        tuple(sum(A[i][k] * Bt[j][k] for k in range(ca)) for j in range(cb))
        for i in range(ra)
    )


def mat_sub(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_add(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def adjugate_int(M: IntMatrix) -> Tuple[IntMatrix, int]:
    """(adj(M), det(M)) of a nonsingular integer M, so that adj(M) M =
    det(M) I, by one fraction-free (Bareiss) Gauss-Jordan elimination of
    [M | I] in O(n^3) exact divisions.

    Each step clears the pivot column in every other row, a <- (p a - f
    a_k) / p_prev, and the division is exact.  The elimination ends at
    [d I | R] with R M = d I, where the last pivot d is the determinant of
    M with its rows swapped; so det(M) is d and adj(M) = det(M) M^-1 is R,
    each times the sign of the row swaps.  A singular M raises ValueError.
    """
    n = len(M)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                raise ValueError("the adjugate is computed only for a nonsingular matrix")
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, pivot_row = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pivot
    return tuple(tuple(sign * x for x in row[n:]) for row in a), sign * prev


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

@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant-factor form d_1 | d_2 | ... | d_s (each > 1) plus free rank."""

    invariant_factors: Tuple[int, ...]
    free_rank: int = 0

    def __post_init__(self):
        for d, e in itertools.pairwise(self.invariant_factors):
            if e % d != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d <= 1 for d in self.invariant_factors):
            raise ValueError("invariant factors must exceed 1")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")

    @property
    def order(self) -> Optional[int]:
        if self.free_rank > 0:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular U, V and diagonal D with U*M*V = D, d_i | d_{i+1} >= 0.

    Deterministic: the pivot is always the nonzero entry of smallest absolute
    value in the remaining block, first in row-major order among ties.
    """
    rows, cols = mat_shape(M)
    a = [list(row) for row in M]
    u = [list(row) for row in identity_matrix(rows)]
    v = [list(row) for row in identity_matrix(cols)]

    def row_op(i, j, q):  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        return best

    t = 0
    while t < min(rows, cols):
        p = pivot(t)
        if p is None:
            break
        _, pi, pj = p
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                row_op(i, t, q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                col_op(j, t, q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # smaller remainder appeared; re-pivot the same block
        # pivot must divide every remaining entry for the divisibility chain
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # fold the offending row in and redo
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    U = tuple(tuple(r) for r in u)
    V = tuple(tuple(r) for r in v)
    D = tuple(tuple(r) for r in a)
    return U, D, V


def snf_diagonal(M: IntMatrix) -> Tuple[int, ...]:
    _, D, _ = smith_normal_form(M)
    rows, cols = mat_shape(M)
    return tuple(D[i][i] for i in range(min(rows, cols)))


def quotient_structure(rank: int, generators: Sequence[IntVector]) -> FiniteAbelianGroup:
    """Structure of Z^rank modulo the span of the given column vectors."""
    if any(len(g) != rank for g in generators):
        raise ValueError("generator length must equal the ambient rank")
    if not generators:
        return FiniteAbelianGroup((), free_rank=rank)
    M = tuple(tuple(g[i] for g in generators) for i in range(rank))
    diag = snf_diagonal(M)
    nonzero = [d for d in diag if d != 0]
    return FiniteAbelianGroup(
        tuple(d for d in nonzero if d > 1),
        free_rank=rank - len(nonzero),
    )


def common_numerators(xs: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """The least common denominator d of the rationals xs (ints or
    Fractions) and their numerators over d, so that x_i = numerators_i / d."""
    d = lcm(*(x.denominator for x in xs))
    return d, tuple(x.numerator * (d // x.denominator) for x in xs)


def require_positive_order(e: int) -> None:
    """Refuse an order e < 1 of the cyclic group Gamma with ValueError."""
    if e < 1:
        raise ValueError("the order of Gamma must be positive")


def grid_numerators(xs: Sequence[Fraction], e: int) -> List[int]:
    """The numerators e x_i of a vector of (1/e)Z^r (ints or Fractions);
    an order e < 1 or an entry outside (1/e)Z is a ValueError."""
    require_positive_order(e)
    if any(e % x.denominator for x in xs):
        raise ValueError(f"vector {tuple(map(str, xs))} is not in (1/{e})Z^{len(xs)}")
    return [x.numerator * (e // x.denominator) for x in xs]
