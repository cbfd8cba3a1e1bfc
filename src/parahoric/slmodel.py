"""The SL_n involutions as flip instances, and the exact monomial-matrix
calculus of the worked special-unitary examples.

Both involutions gamma(A) = J^-1 (A^t)^-1 J, for the antidiagonal J and
the variant J' = eps J, act on the coroot lattice of SL_n as the A_(n-1)
diagram flip.  J' is pinned, and so is J for odd n, so the Tits section
is equivariant and their base point is 0; J = eps^-1 J' for even n only
moves the base point, to the root value -1/2 at the middle node
(:func:`_sl_base`).  So H^1(Gamma, T), its twisted orbits under W^gamma
and the cocycles all run on the lattice path of
:mod:`parahoric.cohomology`, on the triple of :func:`sl_involution`.
Vectors are written as sum-zero diagonals t_j = c_j - c_(j-1) of the
coroot coordinates c by the one function :func:`sl_diagonal`, which also
writes the numerator rows of a cocycle table.

A monomial matrix is a permutation together with one nonzero entry per
column; entries are roots of unity recorded additively in Q/Z (so -1 is
1/2): enough for Weyl lifts and the twisting elements t_w = w^-1 gamma(w)
in exact arithmetic.  Each special-vertex case of SU_n is one row of
:data:`_SU_CASES`.  The hermitian Gram matrices that reduce it to J or J'
(:func:`hermitian_gram`, valuation and sign per entry) are derived in the
tests and printed by the unitary demo, not on each call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import List, Optional, Sequence, Tuple

from .alcove import point_from_root_values
from .exactalg import QZVector, qz, qz_vector, qz_zero
from .cohomology import (
    GammaAction,
    H1Classes,
    LocalType,
    h1_elements,
    local_types,
    type_orbits,
)
from .rootdata import (
    DEFAULT_CAP,
    EnumerationCapError,
    RootDatum,
    build_root_datum,
    diagram_automorphism,
)

SL_WEYL_ENUMERATION_CAP = 8


def perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class MonomialMatrix:
    """perm[j] is the row of the nonzero entry of column j; entries additive."""

    n: int
    perm: Tuple[int, ...]
    entries: QZVector

    def __post_init__(self):
        if sorted(self.perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        if len(self.entries) != self.n:
            raise ValueError("need one entry per column")

    @property
    def det_value(self) -> Fraction:
        half = Fraction(1, 2) if perm_sign(self.perm) < 0 else Fraction(0)
        return qz(sum(self.entries, start=half))

    @property
    def is_diagonal(self) -> bool:
        return self.perm == tuple(range(self.n))

    @property
    def is_sl(self) -> bool:
        return self.det_value == 0

    def diagonal(self) -> QZVector:
        if not self.is_diagonal:
            raise ValueError("matrix is not diagonal")
        return self.entries


def mm_diag(entries: Sequence[Fraction]) -> MonomialMatrix:
    return MonomialMatrix(len(entries), tuple(range(len(entries))), qz_vector(entries))


def mm_mul(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    """(a b) e_j = a (z_b[j] e_{perm_b[j]}) = (z_b[j] + z_a[perm_b[j]]) e_..."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    perm = tuple(a.perm[b.perm[j]] for j in range(a.n))
    entries = qz_vector(b.entries[j] + a.entries[b.perm[j]] for j in range(a.n))
    return MonomialMatrix(a.n, perm, entries)


def mm_inv(m: MonomialMatrix) -> MonomialMatrix:
    inv_perm = [0] * m.n
    for j, i in enumerate(m.perm):
        inv_perm[i] = j
    entries = qz_vector(-m.entries[inv_perm[i]] for i in range(m.n))
    return MonomialMatrix(m.n, tuple(inv_perm), entries)


def mm_transpose(m: MonomialMatrix) -> MonomialMatrix:
    inv_perm = [0] * m.n
    for j, i in enumerate(m.perm):
        inv_perm[i] = j
    entries = qz_vector(m.entries[inv_perm[i]] for i in range(m.n))
    return MonomialMatrix(m.n, tuple(inv_perm), entries)


# ---------------------------------------------------------------------------
# the involutions of the worked examples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvolutionSpec:
    """gamma(A) = J^-1 (A^t)^-1 J for a fixed monomial J, in the monomial
    calculus only: the lattice calls take the ``kind`` ("J" or "J-prime")."""

    J: MonomialMatrix
    kind: str

    @property
    def n(self) -> int:
        return self.J.n


def reversal(n: int) -> Tuple[int, ...]:
    return tuple(n - 1 - j for j in range(n))


def standard_involution(n: int) -> InvolutionSpec:
    """J = antidiag(1, ..., 1)."""
    return InvolutionSpec(MonomialMatrix(n, reversal(n), qz_zero(n)), "J")


def variant_involution(n: int) -> InvolutionSpec:
    """J' = eps J with eps = diag((-1)^(m), 1^(m)), for n = 2m."""
    if n % 2 != 0:
        raise ValueError("the variant involution needs even size")
    m = n // 2
    entries = qz_vector(
        Fraction(1, 2) if n - 1 - j < m else Fraction(0) for j in range(n)
    )
    return InvolutionSpec(MonomialMatrix(n, reversal(n), entries), "J-prime")


def involution_apply(a: MonomialMatrix, spec: InvolutionSpec) -> MonomialMatrix:
    if a.n != spec.n:
        raise ValueError("size mismatch")
    if not a.is_sl:
        raise ValueError("the involution is only applied to SL matrices")
    J = spec.J
    inner = mm_inv(mm_transpose(a))
    return mm_mul(mm_inv(J), mm_mul(inner, J))


def t_w(w_lift: MonomialMatrix, spec: InvolutionSpec) -> QZVector:
    """Twisting element w^-1 gamma(w) of a monomial Weyl lift, as a diagonal."""
    prod = mm_mul(mm_inv(w_lift), involution_apply(w_lift, spec))
    if not prod.is_diagonal:
        raise AssertionError("monomial lifts must give a diagonal twist")
    return prod.diagonal()


def lift_of_permutation(sigma: Sequence[int]) -> MonomialMatrix:
    """Determinant-corrected monomial lift of a permutation.

    Odd permutations get one -1 entry, placed in the least moved column;
    for the central transposition this is the block [[0,1],[-1,0]] with ones
    on the rest of the diagonal.
    """
    n = len(sigma)
    entries = [Fraction(0)] * n
    if perm_sign(sigma) < 0:
        moved = min(j for j in range(n) if sigma[j] != j)
        entries[moved] = Fraction(1, 2)
    return MonomialMatrix(n, tuple(sigma), qz_vector(entries))


def reversal_fixed_permutations(n: int) -> List[Tuple[int, ...]]:
    """The fixed group W^gamma: permutations commuting with the reversal.

    The reference enumeration, a scan of all n! permutations; the orbit
    computation uses the n // 2 generators that
    ``rootdata.fixed_weyl_generators`` returns for the flip instead.
    """
    if n > SL_WEYL_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"reversal-fixed permutations of S_{n}: a scan of {factorial(n)} "
            f"permutations exceeds the cap n <= {SL_WEYL_ENUMERATION_CAP}"
        )
    rho = reversal(n)
    out = []
    for sigma in itertools.permutations(range(n)):
        if all(sigma[rho[j]] == rho[sigma[j]] for j in range(n)):
            out.append(sigma)
    return out


# ---------------------------------------------------------------------------
# torus cohomology on the coroot lattice, read as diagonals
# ---------------------------------------------------------------------------

def _sl_rank(n: int) -> int:
    """The rank n - 1 of the root datum A_(n-1) of SL_n; n < 3 raises
    ValueError."""
    if n < 3:
        raise ValueError("the worked involutions need n >= 3")
    return n - 1


@lru_cache(maxsize=None)
def _sl_flip(n: int) -> Tuple[RootDatum, GammaAction]:
    """The root datum A_(n-1) of SL_n and the involution on its coroot
    lattice, gamma(alpha_i_coroot) = alpha_{n-i}_coroot for J and J' alike
    (only the reversal enters), built once per n and process; n < 3 raises
    ValueError (:func:`_sl_rank`)."""
    datum = build_root_datum("A", _sl_rank(n))
    flip = tuple(n - 2 - i for i in range(n - 1))
    return datum, GammaAction(e=2, automorphism=diagram_automorphism(datum, flip))


def sl_diagonal(c: Sequence, modulus=1) -> tuple:
    """The sum-zero diagonal t_j = c_j - c_(j-1), c_0 = c_n = 0, of the
    coroot coordinates c, mod ``modulus``: a class in (Q/Z)^n for the
    default 1, or, for integer numerators over a denominator d and
    ``modulus`` d, the numerators of the diagonal over d.

    The map intertwines the flip with the involution of the diagonals,
    diag(flip(c)) = (-z o rho)(diag(c)) for the reversal rho, and it is
    integral, so it carries the cocycle row sum_{j<i} flip^j c mod 1 to the
    row of the diagonal class, numerator by numerator mod d."""
    padded = (0,) + tuple(c) + (0,)
    return tuple((b - a) % modulus for a, b in zip(padded, padded[1:]))


@lru_cache(maxsize=None)
def _sl_base(n: int, kind: str) -> Tuple[Fraction, ...]:
    """The base point of the involution ``kind`` on the coroot lattice of
    SL_n: 0 for the pinned J' and odd n; for n = 2m, J = eps^-1 J' with
    eps = diag((-1)^(m), 1^(m)) has root value -1/2 at node m, else 0."""
    if kind not in ("J", "J-prime"):
        raise ValueError(f"unknown involution kind {kind!r}")
    values = [Fraction(0)] * (n - 1)
    if kind == "J" and n % 2 == 0:
        values[n // 2 - 1] = Fraction(-1, 2)
    return point_from_root_values(_sl_flip(n)[0], values)


def sl_involution(n: int, kind: str, cap: int = DEFAULT_CAP
                  ) -> Tuple[RootDatum, GammaAction, Tuple[Fraction, ...]]:
    """The involution ``kind`` ("J" or "J-prime") of SL_n as the root datum
    A_(n-1), the flip on its coroot lattice (:func:`_sl_flip`) and the base
    point of ``kind`` (:func:`_sl_base`), on which the types are counted.

    J' needs even n, and n must be at least 3 (ValueError); an n above
    :data:`SL_WEYL_ENUMERATION_CAP` is refused with
    :class:`EnumerationCapError`.  Only then is the root closure of
    A_(n-1) held to ``cap`` (:func:`build_root_datum`), before the flip is
    built on it."""
    if kind == "J-prime" and n % 2:
        raise ValueError("the variant involution needs even size")
    if n > SL_WEYL_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"twisted W^gamma orbits of SL_{n}: n = {n} exceeds the cap "
            f"n <= {SL_WEYL_ENUMERATION_CAP}"
        )
    datum = build_root_datum("A", _sl_rank(n), cap)
    return datum, _sl_flip(n)[1], _sl_base(n, kind)


def sl_torus_h1(n: int, cap: int = DEFAULT_CAP) -> H1Classes:
    """H^1(Gamma, T(k)) as sum-zero diagonal vectors, the same for J and J'.

    The classes are those of :func:`h1_elements` on the flip of the coroot
    lattice, :func:`_sl_flip` (which checks the element model against the
    structural one, and refuses more than ``cap`` classes), written as
    diagonals by :func:`sl_diagonal`; the root closure of A_(n-1) is held to
    ``cap`` before the flip is built, as :func:`build_root_datum` holds
    every closure.
    """
    datum = build_root_datum("A", _sl_rank(n), cap)
    classes = h1_elements(datum, _sl_flip(n)[1], cap=cap)
    return H1Classes(classes.structure, tuple(map(sl_diagonal, classes.representatives)))


def sl_local_types(n: int, kind: str, cap: int = DEFAULT_CAP) -> List[LocalType]:
    """Orbits of H^1(Gamma, T) under W^gamma for the involution ``kind``
    ("J" or "J-prime"), neutral type first, with sum-zero diagonal
    representatives: :func:`local_types` on the flip with the base point of
    the involution (:func:`sl_involution`, which refuses a bad size, then
    holds the root closure to ``cap``, then refuses a bad ``kind``), whose
    n // 2 generators w_J each get the twist w_J(b) - b."""
    datum, action, base = sl_involution(n, kind, cap)
    return [LocalType(sl_diagonal(t.orbit_representative), t.orbit_size, t.index)
            for t in local_types(datum, action, base=base, cap=cap)]


# ---------------------------------------------------------------------------
# quasi-split special unitary vertices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramMonomial:
    """Hermitian Gram matrix of monomial shape over F' = k((pi)).

    Column j has its unique entry in row perm[j], of the form
    sign * pi^valuation.
    """

    n: int
    perm: Tuple[int, ...]
    valuations: Tuple[int, ...]
    signs: Tuple[int, ...]


def hermitian_gram(n: int, lattice_exponents: Sequence[int]) -> GramMonomial:
    """Gram matrix of phi(f_i, f_j) = delta_{i, n+1-j} in the basis
    g_i = pi^(-c_i) f_i, with pi-bar = -pi.

    phi(g_i, g_j) = (-1)^(c_j) pi^(-c_i - c_j) delta_{i, n+1-j}.
    """
    c = tuple(lattice_exponents)
    if len(c) != n:
        raise ValueError("need one exponent per basis vector")
    perm = reversal(n)
    valuations = tuple(-c[perm[j]] - c[j] for j in range(n))
    signs = tuple(1 if c[j] % 2 == 0 else -1 for j in range(n))
    return GramMonomial(n, perm, valuations, signs)


def gram_conjugate(g: GramMonomial) -> GramMonomial:
    """Entry-wise Galois conjugation: pi -> -pi flips odd-valuation signs."""
    signs = tuple(
        s if v % 2 == 0 else -s for s, v in zip(g.signs, g.valuations)
    )
    return GramMonomial(g.n, g.perm, g.valuations, signs)


def gram_unit_part(g: GramMonomial) -> Optional[MonomialMatrix]:
    """The unit monomial matrix when all valuations agree, else None."""
    if len(set(g.valuations)) != 1:
        return None
    entries = qz_vector(Fraction(0) if s > 0 else Fraction(1, 2) for s in g.signs)
    return MonomialMatrix(g.n, g.perm, entries)


@dataclass(frozen=True)
class SUVertexReport:
    """The types at a special vertex of ramified SU_n
    (:func:`su_special_vertex_types`): the canonical case, the involution
    on SL_n it reduces to ("J" or "J-prime"), |H^1| of the torus, the
    number of types and why the reduction holds."""

    n: int
    case: str
    involution_kind: str
    torus_h1_order: int
    type_count: int
    derivation: str


_CASE_ALIASES = {
    "odd-a": "odd-A",
    "odd-b": "odd-B",
    "even-lm": "even-Lm",
    "even-l0": "even-L0",
    "even-λm": "even-Lm",  # lowercased capital lambda
    "even-λ0": "even-L0",
}


# each canonical case: the parity of n it needs, its involution and why
_SU_CASES = {
    "odd-A": ("odd", "J",
              "self-dual lattice; hermitian form is the antidiagonal, "
              "involution A -> J^-1 (A^t)^-1 J"),
    "odd-B": ("odd", "J",
              "Gram matrix is monomial with mixed valuations (no unit "
              "normalization); the induced torus involution only sees the "
              "underlying reversal, so the torus computation matches case A"),
    "even-Lm": ("even", "J-prime",
                "Gram matrix in the lattice basis is (unit) * pi^-1 with unit "
                "part eps J; scalars cancel, leaving the involution by J'"),
    "even-L0": ("even", "J",
                "self-dual lattice with antidiagonal form; the even-size twist "
                "t_w of the central transposition merges the two torus classes"),
}


def su_special_vertex_types(n: int, case: str) -> SUVertexReport:
    """Type counts at the special vertices of ramified SU_n, via the
    reduction of each case to an involution on SL_n, J or J' = eps J
    (:data:`_SU_CASES`).  The reductions come from the hermitian Gram
    matrix in each case's lattice basis (:func:`hermitian_gram`): a constant
    valuation leaves a unit part J or J' up to sign, and the mixed
    valuations of odd-B leave only the reversal on the diagonal torus, as
    for J.

    H^1 is listed once, on the flip (:func:`_sl_flip`).  Only a nontrivial
    H^1 counts the orbits of :func:`type_orbits` on the triple of
    :func:`sl_involution`, which refuses n above
    :data:`SL_WEYL_ENUMERATION_CAP`; a trivial one (every odd n) is one
    type at any n.
    """
    key = _CASE_ALIASES.get(case.lower(), case)
    if key not in _SU_CASES:
        raise ValueError(f"unknown case {case!r}")
    parity, kind, derivation = _SU_CASES[key]
    if n % 2 != (parity == "odd"):
        raise ValueError(f"case {key} needs {parity} n")
    if n < 3:
        raise ValueError("need n >= 3")
    classes = h1_elements(*_sl_flip(n))
    order = len(classes.representatives)
    if order == 1:
        count = 1
    else:
        datum, action, base = sl_involution(n, kind)
        count = len(type_orbits(datum, action, classes, base))
    return SUVertexReport(n, key, kind, order, count, derivation)
