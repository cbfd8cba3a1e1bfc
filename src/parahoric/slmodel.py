"""Exact monomial-matrix calculus for SL_n torsion elements.

A monomial matrix is a permutation together with one nonzero entry per
column; entries are roots of unity recorded additively in Q/Z (so -1 is
1/2).  This is enough to move the worked special-unitary examples entirely
into exact arithmetic: Weyl lifts and the twisting elements t_w = w^-1
gamma(w).

H^1(Gamma, T) and its twisted orbits under the fixed Weyl subgroup run on
the lattice path of :mod:`parahoric.cohomology`: the involution acts on
the coroot lattice as the A_(n-1) diagram flip.  J' is pinned, and so is
J for odd n, so the Tits section is equivariant and the generators w_J of
W^gamma act untwisted; J = eps^-1 J' for even n is the flip twisted by the
base point b with root value -1/2 at the middle node, so w_J gets the
twist w_J(b) - b (:func:`_sl_base`).  Representatives are reported as sum-zero
diagonals t, which correspond to coroot coordinates c by
c_i = t_1 + ... + t_i and t_j = c_j - c_(j-1).

The hermitian forms of the special-vertex cases are derived symbolically
(valuation + sign per entry) from the lattice basis, not hard-coded; see
:func:`hermitian_gram` and :func:`su_special_vertex_types`.
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
    types_of_classes,
)
from .rootdata import (
    DEFAULT_CAP,
    EnumerationCapError,
    LatticeAutomorphism,
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
    """gamma(A) = J^-1 (A^t)^-1 J for a fixed monomial J."""

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

@lru_cache(maxsize=None)
def diagonal_action(spec: InvolutionSpec) -> GammaAction:
    """The involution on additive diagonal vectors, (Gz)_j = -z_{rho(j)} for
    the permutation rho of J, as an order-2 action; it supplies the norm
    1 + gamma and the cocycles of the diagonal representatives.

    Conjugating a diagonal matrix by a monomial matrix permutes the entries
    by its permutation and the entry values cancel, so the action depends on
    spec.J.perm alone.  It is built once per involution and process, so its
    norm is built once too."""
    rho, n = spec.J.perm, spec.n
    return GammaAction(2, LatticeAutomorphism(tuple(
        tuple(-1 if k == rho[j] else 0 for k in range(n)) for j in range(n))))


@lru_cache(maxsize=None)
def _sl_flip(n: int) -> Tuple[RootDatum, GammaAction]:
    """The root datum A_(n-1) of SL_n and the involution on its coroot
    lattice, gamma(alpha_i_coroot) = alpha_{n-i}_coroot for J and J' alike
    (only the reversal enters), built once per n and process."""
    datum = build_root_datum("A", n - 1)
    flip = tuple(n - 2 - i for i in range(n - 1))
    return datum, GammaAction(e=2, automorphism=diagram_automorphism(datum, flip))


def _diagonal(c: Sequence[Fraction]) -> QZVector:
    """The sum-zero diagonal t_j = c_j - c_(j-1), c_0 = c_n = 0, of the
    coroot coordinates c."""
    padded = (0,) + tuple(c) + (0,)
    return qz_vector(b - a for a, b in zip(padded, padded[1:]))


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


def sl_torus_h1(n: int, spec: InvolutionSpec, cap: int = DEFAULT_CAP) -> H1Classes:
    """H^1(Gamma, T(k)) as sum-zero diagonal vectors.

    The classes are those of :func:`h1_elements` on the flip of the coroot
    lattice, :func:`_sl_flip` (which checks the element model against the
    structural one, and refuses more than ``cap`` classes), converted to
    diagonals by t_j = c_j - c_(j-1).
    """
    if n < 3:
        raise ValueError("the worked involutions need n >= 3")
    if spec.n != n:
        raise ValueError("size mismatch")
    classes = h1_elements(*_sl_flip(n), cap=cap)
    return H1Classes(
        structure=classes.structure,
        representatives=tuple(_diagonal(c) for c in classes.representatives),
        gamma0_choice=f"gamma_0 = the involution {spec.kind} on SL_{n}",
    )


def sl_types_of_classes(n: int, spec: InvolutionSpec, classes: H1Classes) -> List[LocalType]:
    """Orbits of the classes of :func:`sl_torus_h1` under W^gamma, neutral
    type first: :func:`types_of_classes` on the flip with the base point b
    of :func:`_sl_base`, whose n // 2 generators w_J each get the twist
    w_J(b) - b.  The orbits read only the positions of the classes, so the
    diagonals go in as they are."""
    if n > SL_WEYL_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"twisted W^gamma orbits of SL_{n}: n = {n} exceeds the cap "
            f"n <= {SL_WEYL_ENUMERATION_CAP}"
        )
    return types_of_classes(*_sl_flip(n), classes, base=_sl_base(n, spec.kind))


def sl_local_types(n: int, spec: InvolutionSpec, cap: int = DEFAULT_CAP) -> List[LocalType]:
    """Orbits of H^1(Gamma, T) under W^gamma, from :func:`sl_torus_h1`."""
    return sl_types_of_classes(n, spec, sl_torus_h1(n, spec, cap=cap))


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


def su_special_vertex_types(n: int, case: str) -> SUVertexReport:
    """Type counts at the special vertices of ramified SU_n, via the
    reduction of each case to an explicit involution on SL_n.

    odd-A and even-L0 reduce to the plain antidiagonal form J.  even-Lm
    reduces to J' = eps J, derived here from the hermitian form in the
    lattice basis (the Gram matrix has constant valuation -1 and unit part
    eps J up to the scalar -1/pi, which cancels in the conjugation).

    odd-B is the lattice with exponents (1,...,1,0,...,0) and m ones for
    n = 2m+1.  Its Gram matrix is monomial with mixed valuations (-1 off
    the center, 0 at the center), so no unit normalization of the form
    exists; but conjugation of a *diagonal* matrix by a monomial matrix
    permutes the entries regardless of their values, so the induced
    involution on the diagonal torus is still z -> reversed inverses,
    identical to case A.  The torus cohomology is therefore computed with
    that reversal action, and its vanishing already forces a single type.
    """
    key = _CASE_ALIASES.get(case.lower(), case)
    if key not in ("odd-A", "odd-B", "even-Lm", "even-L0"):
        raise ValueError(f"unknown case {case!r}")
    if key.startswith("odd") and n % 2 == 0:
        raise ValueError(f"case {key} needs odd n")
    if key.startswith("even") and n % 2 != 0:
        raise ValueError(f"case {key} needs even n")
    if n < 3:
        raise ValueError("need n >= 3")

    if key == "odd-A":
        spec = standard_involution(n)
        derivation = (
            "self-dual lattice; hermitian form is the antidiagonal, "
            "involution A -> J^-1 (A^t)^-1 J"
        )
    elif key == "even-L0":
        spec = standard_involution(n)
        derivation = (
            "self-dual lattice with antidiagonal form; the even-size twist "
            "t_w of the central transposition merges the two torus classes"
        )
    elif key == "even-Lm":
        m = n // 2
        gram = gram_conjugate(hermitian_gram(n, (1,) * m + (0,) * m))
        unit = gram_unit_part(gram)
        if unit is None:
            raise AssertionError("even-Lm Gram matrix must have constant valuation")
        spec = variant_involution(n)
        scaled = qz_vector(x + Fraction(1, 2) for x in unit.entries)
        if unit.perm != spec.J.perm or (
            unit.entries != spec.J.entries and scaled != spec.J.entries
        ):
            raise AssertionError("derived unit part must agree with J' up to sign")
        derivation = (
            "Gram matrix in the lattice basis is (unit) * pi^-1 with unit "
            "part eps J; scalars cancel, leaving the involution by J'"
        )
    else:  # odd-B
        m = (n - 1) // 2
        gram = hermitian_gram(n, (1,) * m + (0,) * (m + 1))
        if gram.perm != reversal(n):
            raise AssertionError("odd-B Gram matrix must be antidiagonal-shaped")
        if len(set(gram.valuations)) == 1:
            raise AssertionError("odd-B valuations are mixed by construction")
        spec = standard_involution(n)
        derivation = (
            "Gram matrix is monomial with mixed valuations (no unit "
            "normalization); the induced torus involution only sees the "
            "underlying reversal, so the torus computation matches case A"
        )

    torus = sl_torus_h1(n, spec)
    order = torus.structure.order or 1
    if order == 1:
        count = 1
    else:
        count = len(sl_types_of_classes(n, spec, torus))
    return SUVertexReport(
        n=n,
        case=key,
        involution_kind=spec.kind,
        torus_h1_order=order,
        type_count=count,
        derivation=derivation,
    )
