"""Exact integer and rational-mod-Z linear algebra.

Everything in this package runs on arbitrary-precision integers and
``fractions.Fraction``; no floating point is used anywhere.  Matrices are
immutable tuples of tuples of ints, vectors over Q/Z are tuples of
Fractions canonicalized to [0, 1).

The workhorse is Smith normal form with unimodular transforms, from which
kernels and lattice quotients follow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Tuple

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


def mat_vec(M: IntMatrix, v: Sequence) -> tuple:
    rows, cols = mat_shape(M)
    if cols != len(v):
        raise ValueError("dimension mismatch in mat_vec")
    return tuple(sum(M[i][j] * v[j] for j in range(cols)) for i in range(rows))


def mat_sub(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_add(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def det_int(M: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n, m = mat_shape(M)
    if n != m:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate_int(M: IntMatrix) -> IntMatrix:
    """Integer adjugate by cofactors, so that adj(M) M = det(M) I."""
    n = len(M)

    def minor(i: int, j: int) -> IntMatrix:
        return tuple(
            tuple(x for c, x in enumerate(row) if c != j)
            for r, row in enumerate(M) if r != i
        )

    return tuple(
        tuple((-1) ** (i + j) * det_int(minor(j, i)) for j in range(n))
        for i in range(n)
    )


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


def kernel_basis(M: IntMatrix) -> Tuple[IntVector, ...]:
    """Z-basis of the integer kernel {x : M x = 0}, as column vectors."""
    rows, cols = mat_shape(M)
    _, D, V = smith_normal_form(M)
    basis = []
    for j in range(cols):
        d = D[j][j] if j < rows else 0
        if d == 0:
            basis.append(tuple(V[i][j] for i in range(cols)))
    return tuple(basis)


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
