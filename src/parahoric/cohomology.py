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
numerators of t over e.  A listing is its radices alone: class k is read
from the digits of k by divmod (:class:`ClassSequence`), and its cocycle
off the same orbits, walked as sigma^-1-cycles (:func:`cocycle_of`).  When
every radix is 1 or e, each least representative t carries j/e on nodes
that sigma fixes and 0 elsewhere, so A t = t and row i of its cocycle is
i t mod 1: the progression of the digits e t, which is how ``cli`` writes
every table it reports.

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
digit vectors packed into integer indices.  Each map reads a window of
consecutive digits (at most 4 for a simple reflection in the Bourbaki
numbering, 3 outside D and E) and becomes one move table over them, the
change of the index for each value of the window, built by one walk over
the window digits: the search walks plain ints, and the tables of one
search hold at most r N entries for N classes (:func:`_packed_orbits`).
A type is the index of its least class and its size (:func:`type_orbits`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, prod
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .alcove import root_numerators
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
    _count_text,
    fixed_weyl_generators,
    identity_automorphism,
    weyl_classes,
    weyl_elements,
    weyl_order,
)


class _GammaActionFields(NamedTuple):
    # the fields alone: typing.NamedTuple refuses a __new__ in its body
    e: int
    automorphism: LatticeAutomorphism


class GammaAction(_GammaActionFields):
    """Cyclic group of order e acting through a lattice automorphism, a
    node permutation whose order (:attr:`LatticeAutomorphism.order`) must
    divide e.

    The torsion model carries no residue characteristic: tameness (p prime
    to e) is a property of the cover, checked where a point and a
    characteristic are given (:func:`parahoric.alcove.min_split_degree`).
    """

    __slots__ = ()

    def __new__(cls, e: int, automorphism: LatticeAutomorphism):
        require_positive_order(e)
        if e % automorphism.order != 0:
            raise ValueError("automorphism order must divide the order of Gamma")
        return super().__new__(cls, e, automorphism)

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


class ClassSequence(Sequence):
    """The classes of :func:`h1_elements` in lexicographic order, read-only,
    from their ``radices`` alone: class k by its :meth:`digits`, all by
    itertools.product over the values j/n of each radix n."""

    def __init__(self, radices: Sequence[int]):
        self.radices, self._count = radices, prod(radices)

    def __len__(self) -> int:
        return self._count

    def digits(self, k: int) -> List[int]:
        """The digits of class k in the radices, the last fastest, by divmod."""
        digits = list(self.radices)
        for i in range(len(digits) - 1, -1, -1):
            k, digits[i] = divmod(k, digits[i])
        return digits

    def __getitem__(self, k):
        k = range(self._count)[k]  # a negative k, a slice, or IndexError, as for a tuple
        if type(k) is range:
            return tuple(map(self.__getitem__, k))
        return tuple(map(Fraction, self.digits(k), self.radices))

    def __iter__(self):  # the values of a radix made once, as its nodes share them
        values = {n: tuple(Fraction(j, n) for j in range(n)) for n in set(self.radices)}
        return itertools.product(*[values[n] for n in self.radices])

    def __eq__(self, other):  # equal to the tuple of its classes
        if not isinstance(other, (tuple, ClassSequence)):
            return NotImplemented
        return len(other) == self._count and all(a == b for a, b in zip(self, other))


class H1Classes(NamedTuple):
    """H^1 as its structure and one representative per class; those of
    :func:`h1_elements` are a :class:`ClassSequence`, so that such a record
    has no hash."""
    structure: FiniteAbelianGroup
    representatives: Sequence[QZVector]


class LocalType(NamedTuple):
    """One local type: the least H^1 class of its orbit, the size of that
    orbit, and its place in the list of types, the neutral type 0."""

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
    for j < n, n in :func:`_radices`, is the list, already sorted, kept as
    that product (:class:`ClassSequence`).  The count prod_O e/|O|, one
    factor per sigma-orbit, is formed in full and refused when it passes
    ``cap``, before any other work (no e^r for the identity), so the
    refusal names the whole count.  The class count is checked against the
    structural computation and a mismatch is a hard error.
    """
    radices = _radices(action)
    count = prod(radices)
    if count > cap:
        raise EnumerationCapError(
            f"H^1 classes from sigma-orbit sums: {_count_text(count)} exceeds cap {cap}")
    structure = h1_structural(datum, action)
    reps = ClassSequence(radices)
    if len(reps) != structure.order:
        raise AssertionError(
            f"element model found {len(reps)} classes but the lattice quotient "
            f"has order {structure.order}"
        )
    return H1Classes(structure=structure, representatives=reps)


def cocycle_of(rep: QZVector, action: GammaAction) -> Dict[int, QZVector]:
    """The cocycle gamma_0^i -> sum_{j<i} A^j rep attached to a class rep,
    as the dict of i < e to row i.

    Coordinate k of A^j rep is that of node sigma^-j(k), so on the integer
    numerators p of rep over its denominator d, column k is a walk of e
    steps along sigma^-1 from k, each adding the numerator of the node it
    leaves; each distinct numerator becomes one Fraction, so no table of d
    entries is made.  The norm kills rep exactly when (e/|O|) sum_O p = 0
    mod d on every sigma-orbit O; else ValueError.  A rep without one
    coordinate per node is a ValueError.
    """
    if len(rep) != action.rank:
        raise ValueError(f"a rank-{action.rank} action needs {action.rank} coordinates, "
                         f"not {len(rep)}")
    d, numerators = common_numerators(rep)
    p = [a % d for a in numerators]
    e = action.e
    for orbit in action.automorphism.node_orbits:
        if e // len(orbit) * sum(p[k] for k in orbit) % d:
            raise ValueError(f"vector {rep} is not killed by the norm")
    # sigma^-1 as a list: node i goes to the k with sigma(k) = i
    inverse = sorted(range(len(p)), key=action.automorphism.node_permutation.__getitem__)
    columns: List[Sequence[int]] = []
    for node in range(len(p)):
        column, prefix = [], 0
        for _ in range(e):
            column.append(prefix % d)
            prefix += p[node]
            node = inverse[node]
        columns.append(column)
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
    orbit.

    A row moves the index by the change of its digit times w_k, and that
    change depends only on the window of digits the row reads, so each
    row becomes one move table over the packed sub-index of its window,
    built by one walk over the window digits (:func:`_move_table`), and
    the search walks plain ints: the image of i is
    i + moves[i // w % span], for the weight w of the last window digit
    and the product ``span`` of the window radices.  A window spans at
    most the whole grid, so a call holds at most r N table entries for r
    rows and N vectors; a simple reflection in the Bourbaki numbering
    reads at most 4 consecutive digits (3 outside D and E), so at most e^4
    entries per row at rank >= 3 for a trivial action of order e.
    """
    key = tuple(radices)
    tables = [_move_table(key, k, constant, tuple(terms))
              for k, constant, terms in rows if radices[k] > 1]
    seen = bytearray(prod(radices))
    out = []
    start = seen.find(0)
    while start >= 0:
        seen[start] = 1
        orbit = [start]
        for index in orbit:  # the orbit grows while it is walked
            for weight, span, moves in tables:
                image = index + moves[index // weight % span]
                if not seen[image]:
                    seen[image] = 1
                    orbit.append(image)
        out.append((start, len(orbit)))
        start = seen.find(0, start)
    return out


@lru_cache(maxsize=64)
def _move_table(radices: Tuple[int, ...], k: int, constant: int,
                terms: Tuple[Tuple[int, int], ...]) -> Tuple[int, int, Tuple[int, ...]]:
    """(w, span, moves) of one row (k, constant, terms) of
    :func:`_packed_orbits`, kept per row and process for the last 64 rows,
    so a group and order asked again reuse their tables (each holds at most
    the grid's number of entries).

    The row reads digit k and each digit j of radix above 1 whose summed
    coefficient is not 0 mod radix = radices[k]; its window is the run of
    digits from the first to the last of them, ``span`` the product of
    their radices and w the weight of the last.  Entry s of ``moves`` is the
    change (new d_k - old d_k) w_k of the packed index for the window
    digits with packed sub-index s: one walk over the window digits, the
    last fastest, adds c d_j to the row's constant for each value d_j, and
    the old d_k runs through range(radix), each value repeated for the
    w_k / w sub-indices below digit k."""
    radix = radices[k]
    coefficients = [0] * len(radices)
    for j, c in terms:
        coefficients[j] += c
    read = [j for j, c in enumerate(coefficients) if j == k or (c % radix and radices[j] > 1)]
    lo, hi = read[0], read[-1]
    new = [constant % radix]
    for c, m in zip(coefficients[lo:hi + 1], radices[lo:hi + 1]):
        steps = [c % radix * x for x in range(m)]
        new = [v + s for v in new for s in steps]
    w, w_k = prod(radices[hi + 1:]), prod(radices[k + 1:])
    old = [x * w_k for x in range(radix) for _ in range(w_k // w)]
    old *= len(new) // len(old)
    return w, len(new), tuple([v % radix * w_k - o for v, o in zip(new, old)])


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
    # the root values V / D, on integers; Fractions only name a refusal
    D, _, V = root_numerators(datum, base if base is not None else qz_zero(datum.rank))
    perm = action.automorphism.node_permutation
    if any(V[perm[i]] != v for i, v in enumerate(V)):
        raise ValueError(
            f"base point with root values {tuple(str(Fraction(v, D)) for v in V)} is not "
            f"fixed by the diagram automorphism {tuple(p + 1 for p in perm)}")
    e = action.e
    if any(v * e % D for v in V):
        require_root_values_on_grid([Fraction(v, D) for v in V], e)
    scaled = [v * e // D for v in V]
    return [(q, sum(K * scaled[j] for j, K in twist), terms) for q, twist, terms in parts]


def type_orbits(
    datum: RootDatum,
    action: GammaAction,
    classes: H1Classes,
    base: Optional[Sequence[Fraction]] = None,
) -> List[Tuple[int, int]]:
    """The local types as (index of the least class, orbit size), neutral
    type first: the orbits of the H^1 classes of :func:`h1_elements` under
    the twisted Weyl action t -> w(t + b) - b of W^sigma.

    A must permute the nodes by a diagram symmetry sigma (the identity
    included), else ValueError.  Only the generators w_J of W^sigma act
    (:func:`fixed_weyl_generators`), each twisted by w_J(b) - b for the
    base point b (default the origin), which must be fixed by sigma and
    lie on the (1/e)-grid, as one affine row on the digits of the classes
    (:func:`_generator_rows`).  The orbits run in :func:`_packed_orbits`,
    and their sizes must add up to the class count.
    """
    return _orbits_of_rows(action, classes, _generator_rows(datum, action, base))


def _orbits_of_rows(action: GammaAction, classes: H1Classes,
                    rows: Sequence[Row]) -> List[Tuple[int, int]]:
    keyed = _packed_orbits(_radices(action), rows)
    if sum(size for _, size in keyed) != len(classes.representatives):
        raise AssertionError("orbit sizes must add up to the class count")
    return keyed


def types_of_classes(
    datum: RootDatum,
    action: GammaAction,
    classes: H1Classes,
    base: Optional[Sequence[Fraction]] = None,
) -> List[LocalType]:
    """The orbits of :func:`type_orbits` as local types, each represented
    by its least class, picked out of one walk over the classes."""
    return _least_class_types(classes, type_orbits(datum, action, classes, base))


def _least_class_types(classes: H1Classes, keyed: List[Tuple[int, int]]) -> List[LocalType]:
    least = bytearray(len(classes.representatives))
    for start, _ in keyed:
        least[start] = 1
    reps = itertools.compress(classes.representatives, least)
    return [LocalType(rep, size, i) for i, (rep, (_, size)) in enumerate(zip(reps, keyed))]


def local_types(
    datum: RootDatum,
    action: GammaAction,
    base: Optional[Sequence[Fraction]] = None,
    cap: int = DEFAULT_CAP,
) -> List[LocalType]:
    """Orbits of H^1 classes under the twisted Weyl action, neutral type
    first (:func:`types_of_classes`).  The automorphism and the base point
    are checked, by building the generator rows once, before
    :func:`h1_elements` lists a class."""
    rows = _generator_rows(datum, action, base)  # refuses a bad automorphism or base
    classes = h1_elements(datum, action, cap=cap)
    return _least_class_types(classes, _orbits_of_rows(action, classes, rows))


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
    N, B, V = root_numerators(datum, base if base is not None else qz_zero(datum.rank))
    if any(v * e % N for v in V):
        require_root_values_on_grid([Fraction(v, N) for v in V], e)
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
