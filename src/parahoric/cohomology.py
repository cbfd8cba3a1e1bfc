"""H^1 of a cyclic group on a torus, and the set of local types.

The torsion of T(k) is modeled additively: a torsion point is a vector in
(Q/Z)^r in simple-coroot coordinates.  This captures all of the cohomology
because T(k) splits as its torsion subgroup plus a uniquely divisible
group, and uniquely divisible modules are cohomologically trivial for a
finite group; for cyclic Gamma, Tate periodicity then identifies H^1 with
ker(norm)/image(augmentation ideal) on the torsion.  Over a residue field
of characteristic p only the prime-to-p torsion exists; since the cover is
tame (p does not divide e) every class has a representative of denominator
dividing e, so the p-part never enters.

For Gamma cyclic of order e acting through a lattice automorphism A that
permutes the simple coroots by a node permutation sigma (the identity, a
diagram symmetry, or the A_(n-1) flip of the SL_n involutions), the
cohomology is

    H^1 = ker(N_A on (Q/Z)^r) / image(A - 1),      N_A = 1 + A + ... + A^(e-1),

computed in two independent ways: as the finite lattice quotient
``ker(A - 1) / N_A Z^r``, read off one Smith form of the matrix N_A as the
torsion of ``Z^r / N_A Z^r`` (structural, on the matrix of A), and by
listing one representative per class from the sigma-orbit sums (element
model).  The two must agree; a mismatch is a hard error.

The class of t is fixed by its sigma-orbit sums s_O = sum_{i in O} t_i, as
image(A - 1) is exactly the vectors whose orbit sums all vanish; the norm
acts on orbit O as multiplication of s_O by e/|O|, so it kills t exactly
when (e/|O|) s_O lies in Z, and |H^1| = prod_O e/|O|.  The least
(1/e)-grid vector of a class puts s_O = j_O |O| / e on the largest node of
O and 0 on every other node, so the digits j_O in [0, e/|O|), read in the
order of the largest nodes, list the classes in lexicographic order.  The
trivial action is the case of singleton orbits, where the digits are the
numerators of t over e.  The cocycle of a class is read off the same
orbits, walked as sigma^-1-cycles (:func:`cocycle_columns`).

Local types are the orbits of the classes under the fixed Weyl subgroup
W^sigma acting by twisted conjugation t -> w^-1(t) + t_w.  For a pinned
sigma the Tits section is sigma-equivariant (Tits, Normalisateurs de
tores, 1966), so t_w = 0 at the standard base point, and a base point b
fixed by sigma contributes t_w = (w^-1 - 1)(b): the linear action
conjugated by the translation with offset b.  This reconciles the
alcove-side orbit counts with the cohomology side for every base point on
the (1/e)-grid, and it covers the SL_n involution J = eps^-1 J' as the
flip with a base point.  Only the generators w_J of W^sigma act, one per
sigma-orbit J of the nodes (the simple reflections for the identity),
each an involution: t -> w_J(t + b) - b.  w_J lies in W_J, so each
generator is one affine map of the digit of J, and the orbits run on the
digit vectors packed into integer indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .alcove import as_point, simple_root_values
from .exactalg import (
    FiniteAbelianGroup,
    IntMatrix,
    IntVector,
    QZVector,
    common_numerators,
    identity_matrix,
    mat_add,
    mat_mul,
    mat_sub,
    qz_zero,
    quotient_structure,
    require_positive_order,
    smith_normal_form,
)
from .rootdata import (
    DEFAULT_CAP,
    EnumerationCapError,
    LatticeAutomorphism,
    RootDatum,
    fixed_weyl_generators,
    identity_automorphism,
    weyl_classes,
    weyl_elements,
    weyl_order,
)


@dataclass(frozen=True)
class GammaAction:
    """Cyclic group of order e acting through a lattice automorphism, a
    node permutation whose order (:attr:`LatticeAutomorphism.order`) must
    divide e.

    The torsion model carries no residue characteristic: tameness (p prime
    to e) is a property of the cover, checked where a point and a
    characteristic are given (:func:`parahoric.alcove.min_split_degree`).
    """

    e: int
    automorphism: LatticeAutomorphism

    def __post_init__(self):
        require_positive_order(self.e)
        if self.e % self.automorphism.order != 0:
            raise ValueError("automorphism order must divide the order of Gamma")

    @property
    def rank(self) -> int:
        return self.automorphism.rank

    def norm_matrix(self) -> IntMatrix:
        """N_A = 1 + A + ... + A^(e-1), formed as (e/m)(1 + A + ... +
        A^(m-1)) for the order m of A, which divides e."""
        order = self.automorphism.order
        acc = power = identity_matrix(self.rank)
        for _ in range(order - 1):
            power = mat_mul(power, self.automorphism.matrix)
            acc = mat_add(acc, power)
        return tuple(tuple(self.e // order * x for x in row) for row in acc)

    def coboundary_matrix(self) -> IntMatrix:
        return mat_sub(self.automorphism.matrix, identity_matrix(self.rank))


def trivial_action(rank: int, e: int) -> GammaAction:
    return GammaAction(e=e, automorphism=identity_automorphism(rank))


@dataclass(frozen=True)
class H1Classes:
    """H^1 as its structure and one representative per class.  A listing of
    :func:`h1_elements` also keeps ``node_values``, the values each node
    takes on the classes: ``representatives`` is their product, in
    lexicographic order, so a writer can take the product of their strings."""
    structure: FiniteAbelianGroup
    representatives: Tuple[QZVector, ...]
    node_values: Optional[Tuple[Tuple[Fraction, ...], ...]] = None


@dataclass(frozen=True)
class LocalType:
    orbit_representative: QZVector
    orbit_size: int
    index: int


# ---------------------------------------------------------------------------
# the two H^1 computations
# ---------------------------------------------------------------------------

def h1_structural(datum: RootDatum, action: GammaAction) -> FiniteAbelianGroup:
    """Invariant factors of ker(A - 1) / N_A Z^r (isomorphic to H^1), the
    torsion of Z^r / N_A Z^r (:func:`_h1_structure`).

    The ranks are checked on every call; the quotient depends on the action
    alone and is computed once per action and process."""
    if datum.rank != action.rank:
        raise ValueError("rank mismatch between datum and action")
    return _h1_structure(action)


@lru_cache(maxsize=None)
def _h1_structure(action: GammaAction) -> FiniteAbelianGroup:
    """The torsion of Z^r / N_A Z^r, from one Smith form of the norm.

    (A - 1) N_A = A^e - 1 = 0, so N_A Z^r lies in the saturated lattice
    ker(A - 1), on which N_A acts as e: the two lattices have the same rank.
    So ker(A - 1) / N_A Z^r is the torsion of Z^r / N_A Z^r, and Z^r /
    ker(A - 1) is its free part.  A norm that A - 1 does not kill is a hard
    error."""
    norm = action.norm_matrix()
    if any(any(row) for row in mat_mul(action.coboundary_matrix(), norm)):
        raise AssertionError("(A - 1) N_A is not zero: the norm image must lie in ker(A - 1)")
    columns = tuple(zip(*norm))
    return FiniteAbelianGroup(quotient_structure(action.rank, columns).invariant_factors)


def require_grid_size(rank: int, e: int, cap: int) -> None:
    """Refuse a torsion grid T[e] of more than ``cap`` points.  For e >= 2
    and a rank of at least the bit length of the integer ``cap``, e^r >= 2^r
    exceeds the cap without computing e^r."""
    if (e > 1 and rank >= cap.bit_length()) or e ** rank > cap:
        raise EnumerationCapError(f"torsion grid of size {e}^{rank} exceeds cap {cap}")


def _radices(action: GammaAction) -> List[int]:
    """The number of digits j each node takes on the least class
    representatives: e/|O| on the largest node of each sigma-orbit O, which
    carries s_O = j |O| / e = j / (e/|O|), and 1 (the digit 0, value 0) on
    every other node."""
    radices = [1] * action.rank
    for orbit in action.automorphism.node_orbits:
        radices[orbit[-1]] = action.e // len(orbit)
    return radices


def h1_elements(datum: RootDatum, action: GammaAction, cap: int = DEFAULT_CAP) -> H1Classes:
    """Element-model H^1: the least (1/e)-grid vector of each class, in
    lexicographic order.

    The classes are listed from their sigma-orbit sums (see the module
    docstring): the representative of the digits j_O carries j_O / (e/|O|)
    on the largest node of O, so the product of the per-node values j / n
    for j < n, n in :func:`_radices`, is the list, already sorted.
    The count prod_O e/|O|, one factor per sigma-orbit, is formed in full
    and refused when it passes ``cap``, before any other work (no e^r for
    the identity), so the refusal names the whole count.  The class count is checked against the
    structural computation and a mismatch is a hard error.
    """
    count = prod(action.e // len(orbit) for orbit in action.automorphism.node_orbits)
    if count > cap:
        raise EnumerationCapError(
            f"H^1 classes from sigma-orbit sums: {count} exceeds cap {cap}")
    structure = h1_structural(datum, action)
    values = tuple(tuple(Fraction(j, n) for j in range(n)) for n in _radices(action))
    reps = tuple(itertools.product(*values))
    if len(reps) != structure.order:
        raise AssertionError(
            f"element model found {len(reps)} classes but the lattice quotient "
            f"has order {structure.order}"
        )
    return H1Classes(structure=structure, representatives=reps, node_values=values)


def cocycle_columns(rep: QZVector, action: GammaAction) -> Tuple[int, List[Sequence[int]]]:
    """The denominator d of a class rep and the cocycle table of
    :func:`cocycle_of` as its r columns of integer numerators over d: entry
    i of column k is coordinate k of sum_{j<i} A^j rep mod 1, times d.

    Coordinate k of A^j rep is that of node sigma^-j(k), so column k sums
    the numerators p of rep along the sigma^-1-cycle through k: with S_O
    their sum over the orbit O and prefix_t the sum of the first t along
    the cycle, the entries at i = q |O| + t are prefix_t + q S_O mod d.
    The norm kills rep exactly when (e/|O|) S_O = 0 mod d on every orbit;
    else ValueError.  A fixed node has the entries i p_k, and e p_k = 0 mod
    d, so its column is the progression i -> (i a_k mod e)/e of the digit
    a_k = e t_k alone: the tables of a split action share their columns
    (``cli.TableStrings``).
    """
    d, numerators = common_numerators(rep)
    p = [a % d for a in numerators]
    e = action.e
    perm = action.automorphism.node_permutation
    columns: List[Sequence[int]] = [()] * len(p)
    for orbit in action.automorphism.node_orbits:
        laps = e // len(orbit)
        total = sum(p[k] for k in orbit)
        if laps * total % d:
            raise ValueError(f"vector {rep} is not killed by the norm")
        if len(orbit) == 1:
            columns[orbit[0]] = list(map(d.__rmod__, range(0, e * total, total))) if total else [0] * e
            continue
        cycle = [orbit[0]]  # the sigma^-1-cycle from the least node
        for _ in orbit[1:]:
            cycle.append(perm.index(cycle[-1]))
        walk = [p[k] for k in cycle] * 2
        for start, k in enumerate(cycle):
            column = [0] * e
            prefix = 0
            for t in range(len(cycle)):
                column[t::len(cycle)] = (map(d.__rmod__, range(prefix, prefix + laps * total, total))
                                         if total else [prefix] * laps)
                prefix += walk[start + t]
            columns[k] = column
    return d, columns


def cocycle_of(rep: QZVector, action: GammaAction) -> Dict[int, QZVector]:
    """The cocycle gamma_0^i -> sum_{j<i} A^j rep attached to a class rep,
    read off the rows of :func:`cocycle_columns`; each distinct numerator
    becomes one Fraction."""
    d, columns = cocycle_columns(rep, action)
    value = {a: Fraction(a, d) for a in set().union(*columns)}.__getitem__
    return {i: tuple(map(value, row)) for i, row in enumerate(zip(*columns))}


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


Row = Tuple[int, int, Sequence[Tuple[int, int]]]


def _packed_orbits(radices: Sequence[int], rows: Sequence[Row]) -> List[Tuple[int, int]]:
    """Orbits of the digit vectors d (d_k in [0, radices[k])) under affine
    maps, as (packed index of the least member, size) in increasing order.

    Each map is one row (k, constant, terms): digit k of the image is
    constant + sum c d_j over the (j, c) in ``terms``, mod radices[k], and
    every other digit stays put; rows on a digit of radix 1 are dropped.  A
    vector is packed into the index sum_k d_k w_k, with w_k the product of
    the radices after k, so the index order is the lexicographic order and
    the first index a scan has not reached is the least member of its
    orbit.  A row moves the index by the change of its digit times w_k.
    """
    r = len(radices)
    weights = [prod(radices[k + 1:]) for k in range(r)]
    # per row: (k, own coefficient, constant, radix, weight, other terms)
    packed = [(k, sum(c for j, c in terms if j == k), constant, radices[k], weights[k],
               [(j, c) for j, c in terms if c and j != k and radices[j] > 1])
              for k, constant, terms in rows if radices[k] > 1]
    seen = bytearray(prod(radices))
    out = []
    start = seen.find(0)
    while start >= 0:
        seen[start] = 1
        frontier = [(start, [start // w % n for w, n in zip(weights, radices)])]
        count = 1
        while frontier:
            nxt = []
            for index, tau in frontier:
                for k, own, constant, radix, weight, terms in packed:
                    old = tau[k]
                    new = own * old + constant
                    for j, c in terms:
                        new += c * tau[j]
                    new %= radix
                    image = index + (new - old) * weight
                    if not seen[image]:
                        seen[image] = 1
                        count += 1
                        moved = tau.copy()
                        moved[k] = new
                        nxt.append((image, moved))
            frontier = nxt
        out.append((start, count))
        start = seen.find(0, start)
    return out


@lru_cache(maxsize=None)
def _generator_parts(datum: RootDatum, automorphism: LatticeAutomorphism) -> tuple:
    """(q, twist, terms) per generator matrix W of w_J from
    :func:`fixed_weyl_generators`, built once per pair and process: q is
    the largest node of J, ``terms`` pairs the largest node of each
    sigma-orbit O with sum_{k in O} W[q][k] where nonzero, and ``twist``
    pairs each j in J with the integer K_j = (w_J(x_j) - x_j)_q of the
    fundamental coweight x_j = adj(C)_j / det(C).  w_J fixes every other
    x_k, so (w_J(b) - b)_q is sum_j K_j <alpha_j, b>."""
    generators = fixed_weyl_generators(datum, automorphism)
    orbits = automorphism.node_orbits
    adj, det = datum.cartan_inverse
    parts = []
    for J, w in zip(sorted(orbits), generators):
        q = J[-1]
        row = w[q]
        twist = tuple((j, sum((c - (k == q)) * adj[k][j] for k, c in enumerate(row)) // det)
                      for j in J)
        terms = tuple((orbit[-1], s) for orbit in orbits
                      for s in (sum(row[k] for k in orbit),) if s)
        parts.append((q, twist, terms))
    return tuple(parts)


def _generator_rows(datum: RootDatum, action: GammaAction,
                    base: Optional[Sequence[Fraction]]) -> List[Row]:
    """The maps t -> w_J(t + b) - b of the generators of W^sigma on the
    digits of :func:`_radices`, one row per generator: w_J lies in W_J and
    commutes with sigma, so only j_J moves, to
    sum_O (sum_{k in O} W[q][k]) j_O + e (w_J(b) - b)_q.  The base b
    (default 0) must have sigma-invariant root values in (1/e)Z, else
    ValueError."""
    parts = _generator_parts(datum, action.automorphism)
    values = simple_root_values(datum, base if base is not None else qz_zero(datum.rank))
    perm = action.automorphism.node_permutation
    if any(values[perm[i]] != v for i, v in enumerate(values)):
        raise ValueError(
            f"base point with root values {tuple(map(str, values))} is not fixed by "
            f"the diagram automorphism {tuple(p + 1 for p in perm)}")
    require_root_values_on_grid(values, action.e)
    scaled = [int(v * action.e) for v in values]
    return [(q, sum(K * scaled[j] for j, K in twist), terms) for q, twist, terms in parts]


def types_of_classes(
    datum: RootDatum,
    action: GammaAction,
    classes: H1Classes,
    base: Optional[Sequence[Fraction]] = None,
) -> List[LocalType]:
    """Orbits of the H^1 classes of :func:`h1_elements` under the twisted
    Weyl action t -> w(t + b) - b of W^sigma, neutral type first.

    A must permute the nodes by a diagram symmetry sigma (the identity
    included), else ValueError.  Only the generators w_J of W^sigma act
    (:func:`fixed_weyl_generators`; the simple reflections for the
    identity), each twisted by w_J(b) - b for the base point b (default
    the origin), which must be fixed by sigma and lie on the
    (1/e)-grid.  Each generator is one affine row on the digits of the
    classes (:func:`_generator_rows`), and the orbits run in
    :func:`_packed_orbits` (:func:`_orbit_types`).
    """
    return _orbit_types(_generator_rows(datum, action, base), action, classes)


def _orbit_types(rows: Sequence[Row], action: GammaAction,
                 classes: H1Classes) -> List[LocalType]:
    """The orbits of the generator ``rows`` on the classes, as local types.
    The packed index of a class in :func:`_packed_orbits` is its position in
    ``classes.representatives``, so each type is represented by the class
    at the index of its least member.  The orbit sizes must add up to the
    class count."""
    reps = classes.representatives
    keyed = _packed_orbits(_radices(action), rows)
    if sum(size for _, size in keyed) != len(reps):
        raise AssertionError("orbit sizes must add up to the class count")
    return [LocalType(reps[start], size, i) for i, (start, size) in enumerate(keyed)]


def local_types(
    datum: RootDatum,
    action: GammaAction,
    base: Optional[Sequence[Fraction]] = None,
    cap: int = DEFAULT_CAP,
) -> List[LocalType]:
    """Orbits of H^1 classes under the twisted Weyl action, neutral type
    first (:func:`types_of_classes`).  The automorphism and the base point
    are checked before :func:`h1_elements` lists a class."""
    rows = _generator_rows(datum, action, base)
    return _orbit_types(rows, action, h1_elements(datum, action, cap=cap))


@lru_cache(maxsize=None)
def _burnside_table(
    datum: RootDatum,
) -> Tuple[Tuple[IntVector, ...], Tuple[Tuple[Tuple[Tuple[int, int], ...], int], ...]]:
    """The part of :func:`burnside_type_count` that depends on the datum
    alone, built once per datum and process: (rows, signatures).

    The fixed-point count of w is a class function (see
    :func:`burnside_type_count`), so the table runs over the conjugacy
    classes of W with one Smith form per class.  W is closed, and its
    classes are found, on packed root-value keys (:func:`weyl_elements`,
    :func:`weyl_classes`: |W| * r conjugations of a few big-integer
    operations each, no matrix product), and a class is represented by the
    matrix of an element of least length, the only matrices formed.  For
    the representative w of a class the Smith form U (w - 1) V = D gives
    P = U (1 - w) and the diagonal |d_i|.
    ``rows`` holds each distinct row of every P once.  The signature of w is
    its tuple of pairs (index of row i of P in ``rows``, |d_i|) over the i
    with |d_i| != 1, as a unit divisor poses no condition; ``signatures``
    lists each distinct signature with the number of elements of W whose
    class representative has it.  The class sizes must add up to |W|.
    """
    r = datum.rank
    one = identity_matrix(r)
    index: Dict[IntVector, int] = {}
    signatures: Dict[Tuple[Tuple[int, int], ...], int] = {}
    # the caller has already held |W| to its cap
    classes = weyl_classes(datum, weyl_elements(datum, cap=inf))
    order = weyl_order(datum, cap=inf)
    if sum(size for _, size in classes) != order:
        raise AssertionError(
            f"conjugacy classes of W({datum.name}) do not add up to |W| = {order}")
    for w, size in classes:
        U, D, _ = smith_normal_form(mat_sub(w, one))
        P = mat_mul(U, mat_sub(one, w))
        signature = tuple((index.setdefault(row, len(index)), abs(D[i][i]))
                          for i, row in enumerate(P) if abs(D[i][i]) != 1)
        signatures[signature] = signatures.get(signature, 0) + size
    return tuple(index), tuple(signatures.items())


def burnside_type_count(
    datum: RootDatum,
    e: int,
    base: Optional[Sequence[Fraction]] = None,
    cap: int = DEFAULT_CAP,
) -> int:
    """Independent orbit count over W on the e-torsion by Burnside's lemma.

    Fixed points of t -> w(t + b) - b on T[e] are counted through the Smith
    form U (w - 1) V = D: for t = tau / e and y = V^-1 tau, the fixed-point
    equation reads d_i y_i = c_i (mod e) for c = U e (b - w b), and each
    congruence contributes gcd(d_i, e) solutions when solvable and zero
    otherwise.
    The count Fix_b(w) is a class function of w.  A grid base b has root
    values in (1/e)Z, so it lies in (1/e)P^v, and the fixed points of the
    map are those of w on X_b = (b + (1/e)Q^v)/Q^v.  W acts trivially on
    P^v/Q^v, so g X_b = X_b for every g in W, and g carries the fixed
    points of w on X_b to those of g w g^-1.  Hence the sum over W is the
    sum over the conjugacy classes C of |C| Fix_b(w_C).
    The twist runs on the numerators B of b = B / N, as c = P B e / N for
    P = U (1 - w), and every row of every P must give an integer there.
    The Smith forms depend on the datum alone, so they come from one table
    per datum (:func:`_burnside_table`), built once per process at the cost
    of |W| * r conjugations on packed root-value keys and one Smith form
    per class; a call evaluates
    each distinct row of the P once.  An order |W| above ``cap``, the
    default cap of every other stage, is refused on every call, before the
    table is consulted.
    """
    require_positive_order(e)
    base_vec = as_point(base) if base is not None else qz_zero(datum.rank)
    require_root_values_on_grid(simple_root_values(datum, base_vec), e)
    N, B = common_numerators(base_vec)
    order = weyl_order(datum, cap=cap)
    rows, signatures = _burnside_table(datum)
    values = [sum(p * b for p, b in zip(row, B) if p) * e for row in rows]
    if any(v % N for v in values):
        raise AssertionError("grid base point must give an integral twist")
    rhs = [v // N for v in values]
    total = 0
    for signature, multiplicity in signatures:
        count = multiplicity
        for k, d in signature:
            g = gcd(d, e)
            if rhs[k] % g:
                break
            count *= g
        else:
            total += count
    if total % order != 0:
        raise AssertionError("Burnside sum is not divisible by |W|")
    return total // order
