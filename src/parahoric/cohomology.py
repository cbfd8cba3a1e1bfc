"""H^1 of a cyclic group on a torus, and the set of local types.

The torsion of T(k) is modeled additively: a torsion point is a vector in
(Q/Z)^r in simple-coroot coordinates.  This captures all of the cohomology
because T(k) splits as its torsion subgroup plus a uniquely divisible
group, and uniquely divisible modules are cohomologically trivial for a
finite group; for cyclic Gamma, Tate periodicity then identifies H^1 with
ker(norm)/image(augmentation ideal) on the torsion.  Over a residue field
of characteristic p only the prime-to-p torsion exists; since the cover is
tame (p does not divide e) every class has a representative of denominator
dividing e, so the p-part never enters and the exclusion is enforced by a
validity check rather than by filtering.

For Gamma cyclic of order e acting through a finite-order lattice
automorphism A, the cohomology is

    H^1 = ker(N_A on (Q/Z)^r) / image(A - 1),      N_A = 1 + A + ... + A^(e-1),

computed in two independent ways: as the finite lattice quotient
``ker(A - 1) / N_A Z^r`` (structural), and by enumerating torsion vectors
and sorting them into classes (element model).  The two must agree; a
mismatch is a hard error.

Local types are the orbits of the classes under the fixed Weyl subgroup
acting by twisted conjugation t -> w^-1(t) + t_w.  For the trivial action
(A the identity) the twist t_w is zero for the standard base point; a
nonzero hyperspecial base point b contributes t_w = (w^-1 - 1)(b), i.e. the
plain W-action conjugated by the translation with offset b.  This is what
reconciles the alcove-side orbit counts with the cohomology side for every
base point on the (1/e)-grid.  For a diagram automorphism sigma only the
generators w_J of W^sigma act, each an involution: t -> w_J(t) + t_w.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .alcove import as_point, require_characteristic, simple_root_values
from .exactalg import (
    FiniteAbelianGroup,
    ImageMembership,
    IntMatrix,
    IntVector,
    QZVector,
    common_numerators,
    identity_matrix,
    kernel_basis,
    mat_add,
    mat_mul,
    mat_sub,
    mat_vec,
    mat_vec_qz,
    qz_add,
    qz_sub,
    qz_vector,
    qz_zero,
    quotient_structure,
    smith_normal_form,
)
from .rootdata import (
    DEFAULT_CAP,
    EnumerationCapError,
    LatticeAutomorphism,
    RootDatum,
    WeylElement,
    fixed_weyl_generators,
    identity_automorphism,
    orbit_partition,
    weyl_elements,
)


@dataclass(frozen=True)
class GammaAction:
    """Cyclic group of order e acting through a lattice automorphism.

    ``char_exclusion`` is the residue characteristic p (0 for none): the
    torsion model only carries prime-to-p torsion, so tameness demands
    gcd(e, p) = 1 and every representative automatically has prime-to-p
    denominator.
    """

    e: int
    automorphism: LatticeAutomorphism
    char_exclusion: int = 0

    def __post_init__(self):
        if self.e < 1:
            raise ValueError("the order of Gamma must be positive")
        if self.e % self.automorphism.order != 0:
            raise ValueError("automorphism order must divide the order of Gamma")
        require_characteristic(self.char_exclusion)
        if self.char_exclusion and self.e % self.char_exclusion == 0:
            raise ValueError(
                f"tameness requires the order {self.e} to be prime to the "
                f"excluded characteristic {self.char_exclusion}"
            )

    @property
    def rank(self) -> int:
        return len(self.automorphism.matrix)

    @property
    def matrix(self) -> IntMatrix:
        return self.automorphism.matrix

    def norm_matrix(self) -> IntMatrix:
        return self._norm

    @cached_property
    def _norm(self) -> IntMatrix:
        """N_A = 1 + A + ... + A^(e-1), built once per action as
        (e/m)(1 + A + ... + A^(m-1)) for the order m of A, which divides e."""
        n = self.rank
        order = self.automorphism.order
        acc = identity_matrix(n)
        power = identity_matrix(n)
        for _ in range(order - 1):
            power = mat_mul(power, self.matrix)
            acc = mat_add(acc, power)
        return tuple(tuple(self.e // order * x for x in row) for row in acc)

    def coboundary_matrix(self) -> IntMatrix:
        return mat_sub(self.matrix, identity_matrix(self.rank))

    def gamma0_record(self) -> str:
        return (
            f"gamma_0 = the generator matching the fixed primitive root of unity "
            f"zeta_{self.e}; lattice action of order {self.automorphism.order}"
        )


def trivial_action(rank: int, e: int) -> GammaAction:
    return GammaAction(e=e, automorphism=identity_automorphism(rank))


@dataclass(frozen=True)
class H1Classes:
    structure: FiniteAbelianGroup
    representatives: Tuple[QZVector, ...]
    gamma0_choice: str


@dataclass(frozen=True)
class LocalType:
    orbit_representative: QZVector
    orbit_size: int
    index: int


# ---------------------------------------------------------------------------
# the two H^1 computations
# ---------------------------------------------------------------------------

def h1_structural(datum: RootDatum, action: GammaAction) -> FiniteAbelianGroup:
    """Invariant factors of ker(A - 1) / N_A Z^r (isomorphic to H^1)."""
    if datum.rank != action.rank:
        raise ValueError("rank mismatch between datum and action")
    r = action.rank
    fixed = kernel_basis(action.coboundary_matrix())
    k = len(fixed)
    if k == 0:
        return FiniteAbelianGroup(())
    # express the norm images of the standard basis in the fixed basis
    K = tuple(tuple(fixed[j][i] for j in range(k)) for i in range(r))  # r x k
    U, D, _V = smith_normal_form(K)
    V = _V
    norm = action.norm_matrix()
    cols = []
    for j in range(r):
        b = tuple(norm[i][j] for i in range(r))
        w = mat_vec(U, b)
        y = [Fraction(0)] * k
        for i in range(r):
            d = D[i][i] if i < k else 0
            if d != 0:
                y[i] = Fraction(w[i], d)
            elif w[i] != 0:
                raise AssertionError("norm image must lie in the fixed sublattice")
        coords = mat_vec(V, tuple(y))
        if any(x.denominator != 1 for x in coords):
            raise AssertionError("norm image has non-integral fixed coordinates")
        cols.append(tuple(int(x) for x in coords))
    group = quotient_structure(k, cols)
    if group.free_rank != 0:
        raise AssertionError("H^1 of a finite cyclic group on a torus is finite")
    return group


def require_grid_size(rank: int, e: int, cap: int) -> None:
    """Refuse a torsion grid T[e] of more than ``cap`` points."""
    if e ** rank > cap:
        raise EnumerationCapError(f"torsion grid of size {e}^{rank} exceeds cap {cap}")


def _torsion_grid(rank: int, e: int, cap: int) -> List[QZVector]:
    """All of T[e] = ((1/e)Z/Z)^rank, in lexicographic order."""
    require_grid_size(rank, e, cap)
    values = [Fraction(a, e) for a in range(e)]
    return list(itertools.product(values, repeat=rank))


def _numerators(t: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """The common denominator d of t and the numerators of t over d, mod d."""
    d = lcm(*(x.denominator for x in t))
    return d, tuple(x.numerator * (d // x.denominator) % d for x in t)


def _kills(norm: IntMatrix, d: int, numerators: Sequence[int]) -> bool:
    return all(sum(a * b for a, b in zip(row, numerators)) % d == 0 for row in norm)


def _norm_kills(norm: IntMatrix, t: QZVector) -> bool:
    return _kills(norm, *_numerators(t))


def least_per_class(
    candidates: Iterable[QZVector],
    norm: IntMatrix,
    invariant: Callable[[QZVector], QZVector],
) -> Tuple[QZVector, ...]:
    """The least norm-killed candidate of each class, in sorted order.

    ``invariant`` maps a norm-killed vector to a key that two vectors share
    exactly when they lie in the same class.
    """
    classes: Dict[QZVector, QZVector] = {}
    for t in candidates:
        if not _norm_kills(norm, t):
            continue
        key = invariant(t)
        best = classes.get(key)
        if best is None or t < best:
            classes[key] = t
    return tuple(sorted(classes.values()))


def h1_elements(datum: RootDatum, action: GammaAction, cap: int = DEFAULT_CAP) -> H1Classes:
    """Element-model H^1: enumerate norm-killed grid vectors and sort them
    into classes modulo the image of (A - 1) on the full torsion group.

    Every class contains a representative with denominator dividing e, so the
    (1/e)-grid suffices; the class count is checked against the structural
    computation and a mismatch is a hard error.

    When A is the identity the generic pass provably returns the whole
    sorted grid (the norm kills every e-torsion vector and the coboundary
    image vanishes), so that case skips straight to the grid, which is
    already in sorted order.
    """
    structure = h1_structural(datum, action)
    grid = _torsion_grid(action.rank, action.e, cap)
    if action.matrix == identity_matrix(action.rank):
        reps = tuple(grid)
    else:
        member = ImageMembership(action.coboundary_matrix())
        reps = least_per_class(grid, action.norm_matrix(), member.invariant)
    if len(reps) != structure.order:
        raise AssertionError(
            f"element model found {len(reps)} classes but the lattice quotient "
            f"has order {structure.order}"
        )
    return H1Classes(structure=structure, representatives=reps,
                     gamma0_choice=action.gamma0_record())


def _require_norm_killed(t: QZVector, action: GammaAction) -> Tuple[int, Tuple[int, ...]]:
    """The denominator and numerators of t (see :func:`_numerators`), once
    the norm is checked to kill t."""
    d, numerators = _numerators(t)
    if not _kills(action.norm_matrix(), d, numerators):
        raise ValueError(f"vector {t} is not killed by the norm")
    return d, numerators


def classes_equal(t1: QZVector, t2: QZVector, action: GammaAction) -> bool:
    """Whether t1 and t2 give the same class, i.e. t1 - t2 is a coboundary."""
    _require_norm_killed(t1, action)
    _require_norm_killed(t2, action)
    member = ImageMembership(action.coboundary_matrix())
    return member.contains(qz_sub(t1, t2))


def cocycle_numerators(rep: QZVector, action: GammaAction) -> Tuple[int, List[IntVector]]:
    """The denominator d of a class rep and the cocycle table of
    :func:`cocycle_of` as integer numerators over d: row i holds
    sum_{j<i} A^j rep mod 1, times d.

    For the identity A row i is i * rep mod 1, built column by column;
    otherwise the walk applies A as an integer matrix mod d.
    """
    d, power = _require_norm_killed(rep, action)
    e = action.e
    A = action.matrix
    if A == identity_matrix(action.rank):
        columns = [[i * p % d for i in range(e)] for p in power]
        return d, list(zip(*columns))
    rows: List[IntVector] = []
    acc = (0,) * action.rank
    for _ in range(e):
        rows.append(acc)
        acc = tuple((a + p) % d for a, p in zip(acc, power))
        power = tuple(sum(a * p for a, p in zip(row, power)) % d for row in A)
    return d, rows


def cocycle_of(rep: QZVector, action: GammaAction) -> Dict[int, QZVector]:
    """The cocycle gamma_0^i -> sum_{j<i} A^j rep attached to a class rep,
    read off :func:`cocycle_numerators`; each distinct numerator becomes one
    Fraction."""
    d, rows = cocycle_numerators(rep, action)
    values: Dict[int, Fraction] = {}

    def value(a: int) -> Fraction:
        x = values.get(a)
        if x is None:
            x = values[a] = Fraction(a, d)
        return x

    return {i: tuple(value(a) for a in row) for i, row in enumerate(rows)}


# ---------------------------------------------------------------------------
# local types: orbits under the twisted Weyl action
# ---------------------------------------------------------------------------

def require_root_values_on_grid(values: Sequence[Fraction], e: int) -> None:
    """Reject simple-root values outside (1/e)Z, naming the first such root.
    Every root is an integer combination of the simple roots, so this checks
    every root value in r steps."""
    for i, value in enumerate(values):
        if (value * e).denominator != 1:
            raise ValueError(
                f"base point must lie on the (1/{e})-grid: the value {value} "
                f"of the root a{i + 1} is not in (1/{e})Z"
            )


def _trivial_orbit_partition(
    datum: RootDatum,
    e: int,
    base: Optional[Sequence[Fraction]],
) -> List[Tuple[QZVector, int]]:
    """Orbits of T[e] under t -> s_i(t + b) - b, as (least member, size) in
    the order of the least members.

    A point tau of integer numerators mod e is packed into the index
    sum_k tau_k e^(r-1-k), so the index order is the lexicographic order and
    the first index a scan in increasing order has not reached is the least
    member of its orbit.  A simple reflection changes only one coordinate,
    tau_i -> tau_i - sum_j c_ij tau_j - e <alpha_i, b> mod e, so each
    generator is an O(rank) update of the digits and of the index.
    """
    r = datum.rank
    values = simple_root_values(datum, base if base is not None else qz_zero(r))
    require_root_values_on_grid(values, e)
    # e <alpha_i, b>, an integer on the (1/e)-grid
    shifts = [int(v * e) for v in values]
    weights = [e ** (r - 1 - i) for i in range(r)]
    # tau_i - sum_j c_ij tau_j = -tau_i - sum_{j != i} c_ij tau_j, as c_ii = 2
    generators = [
        (i, shifts[i], weights[i], [(j, c) for j, c in enumerate(row) if c and j != i])
        for i, row in enumerate(datum.cartan)
    ]
    size = e ** r
    seen = bytearray(size)
    values = [Fraction(a, e) for a in range(e)]
    out = []
    start = seen.find(0)
    while start >= 0:
        seen[start] = 1
        digits = []
        rest = start
        for w in weights:
            k, rest = divmod(rest, w)
            digits.append(k)
        frontier = [(start, digits)]
        count = 1
        while frontier:
            nxt = []
            for index, tau in frontier:
                for i, shift, weight, neighbours in generators:
                    old = tau[i]
                    new = -old - shift
                    for j, c in neighbours:
                        new -= c * tau[j]
                    new %= e
                    image = index + (new - old) * weight
                    if not seen[image]:
                        seen[image] = 1
                        count += 1
                        moved = tau.copy()
                        moved[i] = new
                        nxt.append((image, moved))
            frontier = nxt
        out.append((tuple(values[k] for k in digits), count))
        start = seen.find(0, start)
    return out


def _numbered(keyed: Sequence[Tuple[QZVector, int]]) -> List[LocalType]:
    return [
        LocalType(orbit_representative=rep, orbit_size=size, index=i)
        for i, (rep, size) in enumerate(keyed)
    ]


def class_orbits(
    reps: Sequence[QZVector],
    norm: IntMatrix,
    invariant: Callable[[QZVector], QZVector],
    maps: Sequence[Callable[[QZVector], QZVector]],
) -> List[LocalType]:
    """Orbits of the classes ``reps`` under the vector maps ``maps``.

    Each image must stay in the norm kernel and hit one of the classes
    (matched through ``invariant``, as in :func:`least_per_class`); either
    failure is a hard error.  Each orbit is represented by its least member,
    and the types are numbered in the order of those representatives.
    """
    index_of = {invariant(t): i for i, t in enumerate(reps)}

    def class_index(t: QZVector) -> int:
        if not _norm_kills(norm, t):
            raise AssertionError("twisted action left the norm kernel")
        i = index_of.get(invariant(t))
        if i is None:
            raise AssertionError("twisted action image matches no class")
        return i

    orbits = orbit_partition(
        [(i,) for i in range(len(reps))],
        [lambda p, m=m: (class_index(m(reps[p[0]])),) for m in maps],
    )
    return _numbered(sorted((min(reps[i] for (i,) in orbit), len(orbit))
                            for orbit in orbits))


def types_of_classes(
    datum: RootDatum,
    action: GammaAction,
    classes: H1Classes,
    lift_provider: Optional[Callable[[WeylElement], QZVector]] = None,
    base: Optional[Sequence[Fraction]] = None,
) -> List[LocalType]:
    """Orbits of the H^1 classes of :func:`h1_elements` under the twisted
    Weyl action t -> w^-1(t) + t_w, neutral type first.

    When A is the identity the action twists by the base point (default the
    origin) and runs on the integer engine.  Otherwise A must be a diagram
    automorphism sigma and only the generators w_J of W^sigma (see
    :func:`fixed_weyl_generators`) act, each as t -> w_J(t) + t_w.  A pinned
    action has no general recipe for t_w, so ``lift_provider`` is called
    once per generator, the only elements consulted, and must return the
    twist of a lift of it.
    """
    reps = classes.representatives
    if action.matrix == identity_matrix(action.rank):
        if lift_provider is not None:
            raise ValueError("lift_provider applies only to a nontrivial action")
        keyed = _trivial_orbit_partition(datum, action.e, base)
        if sum(size for _, size in keyed) != len(reps):
            raise AssertionError("orbit sizes must add up to the class count")
        return _numbered(keyed)
    if lift_provider is None:
        raise ValueError("lift_provider is required for a nontrivial action")
    if base is not None:
        raise ValueError("base twists are only defined for the trivial action")
    maps = [
        lambda t, M=w.matrix, t_w=qz_vector(lift_provider(w)): qz_add(mat_vec_qz(M, t), t_w)
        for w in fixed_weyl_generators(datum, action.automorphism)
    ]
    member = ImageMembership(action.coboundary_matrix())
    return class_orbits(reps, action.norm_matrix(), member.invariant, maps)


def local_types(
    datum: RootDatum,
    action: GammaAction,
    lift_provider: Optional[Callable[[WeylElement], QZVector]] = None,
    base: Optional[Sequence[Fraction]] = None,
    cap: int = DEFAULT_CAP,
) -> List[LocalType]:
    """Orbits of H^1 classes under the twisted Weyl action, neutral type first."""
    classes = h1_elements(datum, action, cap=cap)
    return types_of_classes(datum, action, classes, lift_provider=lift_provider, base=base)


def burnside_type_count(
    datum: RootDatum,
    e: int,
    base: Optional[Sequence[Fraction]] = None,
    weyl_cap: int = 10 ** 4,
) -> int:
    """Independent orbit count over W on the e-torsion by Burnside's lemma.

    Fixed points of t -> w(t + b) - b on T[e] are counted through the Smith
    form of (w - 1): each congruence d_i y_i = c_i (mod e) contributes
    gcd(d_i, e) solutions when solvable and zero otherwise.  The twist
    e (b - w b) runs on the numerators B of b = B / N and must be divisible
    by N.
    """
    r = datum.rank
    base_vec = as_point(base) if base is not None else qz_zero(r)
    require_root_values_on_grid(simple_root_values(datum, base_vec), e)
    N, B = common_numerators(base_vec)
    elements = weyl_elements(datum, cap=weyl_cap)
    total = 0
    for w in elements:
        M = mat_sub(w.matrix, identity_matrix(r))
        twist = [(b - wb) * e for b, wb in zip(B, mat_vec(w.matrix, B))]
        if any(t % N for t in twist):
            raise AssertionError("grid base point must give an integral twist")
        U, D, _ = smith_normal_form(M)
        rhs = mat_vec(U, [t // N for t in twist])
        count = 1
        for i in range(r):
            d = abs(D[i][i])
            g = gcd(d, e)
            if rhs[i] % g == 0:
                count *= g
            else:
                count = 0
                break
        total += count
    if total % len(elements) != 0:
        raise AssertionError("Burnside sum is not divisible by |W|")
    return total // len(elements)
