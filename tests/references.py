"""Reference models that the library no longer runs, kept as oracles.

:func:`h1_structure_three_step` is the structural H^1 as the library
computed it before it read the group off one Smith form of the norm: a
kernel basis of A - 1 (:func:`kernel_basis`), a Fraction solve for the
norm columns in it, and a second lattice quotient.  :func:`det_int` is the
determinant by fraction-free elimination, the oracle of the determinant
that ``exactalg.adjugate_int`` returns, and :func:`mat_vec` is the integer
matrix-vector product that only the tests apply.

:func:`grid_h1_elements` is the grid element model of H^1: it sorts the
norm-killed vectors of the (1/e)-grid (:func:`torsion_grid`) into classes
through the coset invariant of :class:`ImageMembership` (:func:`grid_classes`)
and checks the class count against ``h1_structural``.  The library lists
classes from the orbit sums of a node permutation, the only automorphism
it builds; the grid model serves any finite-order automorphism (-1, Weyl
elements, the action -rho on the diagonals of SL_n), and checks the
orbit-sum lists.  :class:`MatrixAutomorphism` is such an automorphism as
its matrix, with its order read off the powers of the matrix
(:func:`matrix_order`), such as the matrix of a Weyl element;
:func:`diagonal_action` builds one.  :func:`diagonal_action` is -rho, the
involution of the sum-zero diagonals that the SL_n reports write, so it is
the oracle of the diagonal cocycle tables.
:func:`cocycle_numerators` is the cocycle table by the matrix walk, for any
finite-order automorphism: the oracle of the sigma-cycle columns of
``cohomology.cocycle_columns``.
:func:`class_orbits` is the orbit computation over the generic
``orbit_partition`` on ``Fraction`` vectors, matching each image to its
class through the same invariant.

:func:`dict_types_report` and :func:`dict_types_text` are the ``types``
report as a dict of lists and strings, one ``str`` per entry (with the
cocycles of an SL_n report computed under -rho), and its text lines read
off that dict: the writer that the CLI replaced by the
self-writing :class:`parahoric.cli.CocycleTable` and
:class:`parahoric.cli.Vectors` values, which join their strings from
shared or integer columns and from the product of the strings of each
node.  Passed
through ``json.dumps(indent=2, sort_keys=True)`` and through
:func:`dict_types_text`, they are what the CLI must print.  Their cocycle
rows come from the matrix walk of :func:`cocycle_numerators`.

:func:`dict_twist_report` and :func:`dict_twist_text` are the ``twist``
report built the same way, row by row from the Fraction API of
``parahoric.alcove`` (:func:`type_to_alcove`, :func:`simple_root_values`,
:func:`facet_of`) with one ``str`` per entry, where the CLI folds each row
once on integer numerators and makes each distinct string once.

:func:`coroots_by_lengths` are the coroots 2 beta / (beta, beta) from the
Fraction squared lengths of :func:`length_symmetrizers`, as the library
computed them before the root closure carried each coroot: the oracle of
``RootDatum.positive_coroots``.

:func:`pairing` and :func:`all_coroots` are the root-datum conveniences
that no library code calls: the pairing of a root with a coweight through
the integer root row, and every coroot.  So are the mod-Z helpers
:func:`qz_add`, :func:`qz_sub`, :func:`mat_vec_qz` and
:func:`solve_mod_z`, :func:`classes_equal`, the Fraction twin of the class
invariant, :func:`root_row`, :func:`mat_pow`, the simple reflections
(:func:`simple_reflection`, :func:`weyl_generators`), the list
:func:`rank_range` of the simple types, and the adjugate by cofactors
(:func:`cofactor_adjugate`), the oracle of the elimination in
``exactalg.adjugate_int``.  A Weyl element is its integer matrix on the
coroot lattice; :func:`weyl_matrices` forms the matrix of every element of
``rootdata.weyl_elements`` from its coroot places, in the order of the
closure.

:func:`weyl_elements_by_rows`, :func:`weyl_classes_by_conjugation` and
:func:`fixed_weyl_generators_by_rows` are W, its conjugacy classes and the
generators w_J of W^sigma as the library computed them before it walked W
on packed root-value keys: the row descent of :func:`left_multiplier`
carries a matrix per element in a dict keyed by the tuple of root values
and rebuilds one row per step (:func:`reflected_row`), and each class is
closed under the O(r * deg) matrix conjugations M -> s_i M s_i of
:func:`conjugator`.

:func:`monomial_lift_twist` and :func:`monomial_lift_sl_types` are the SL_n
types as the library computed them before the involutions became the
A_(n-1) flip with a base point: each generator of W^gamma is twisted by
t_w of the monomial lift of its permutation, read back into coroot
coordinates (:func:`coroot_coordinates`, the inverse of
``slmodel.sl_diagonal``).
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from parahoric.alcove import facet_of, simple_root_values, type_to_alcove
from parahoric.cli import (
    SCHEMA_VERSION,
    SL_VARIANTS,
    action_spec,
    point_or_default,
    types_parts,
)
from parahoric.cohomology import (
    GammaAction,
    H1Classes,
    LocalType,
    h1_elements,
    h1_structural,
    require_grid_size,
)
from parahoric.exactalg import (
    FiniteAbelianGroup,
    IntMatrix,
    IntVector,
    QZVector,
    common_numerators,
    identity_matrix,
    mat_mul,
    mat_shape,
    qz,
    qz_vector,
    quotient_structure,
    smith_normal_form,
)
from parahoric.rootdata import (
    DEFAULT_CAP,
    EnumerationCapError,
    LatticeAutomorphism,
    RootDatum,
    _packed_keys,
    fixed_weyl_generators,
    orbit_partition,
    weyl_elements,
)
from parahoric.slmodel import (
    InvolutionSpec,
    _sl_flip,
    lift_of_permutation,
    sl_diagonal,
    standard_involution,
    t_w,
    variant_involution,
)


def mat_vec(M: IntMatrix, v: Sequence) -> tuple:
    rows, cols = mat_shape(M)
    if cols != len(v):
        raise ValueError("dimension mismatch in mat_vec")
    return tuple(sum(M[i][j] * v[j] for j in range(cols)) for i in range(rows))


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


def h1_structure_three_step(action: GammaAction) -> FiniteAbelianGroup:
    """ker(A - 1) / N_A Z^r in three Smith forms: a Z-basis of ker(A - 1)
    (:func:`kernel_basis`), the coordinates of each norm column in that
    basis by a Fraction solve, and the quotient of Z^k by those columns.
    The oracle of ``cohomology.h1_structural``, which reads the same group
    off one Smith form of N_A."""
    r = action.rank
    fixed = kernel_basis(action.coboundary_matrix())
    k = len(fixed)
    if k == 0:
        return FiniteAbelianGroup(())
    # express the norm images of the standard basis in the fixed basis
    K = tuple(tuple(fixed[j][i] for j in range(k)) for i in range(r))  # r x k
    U, D, V = smith_normal_form(K)
    norm = action.norm_matrix()
    cols = []
    for j in range(r):
        w = mat_vec(U, tuple(norm[i][j] for i in range(r)))
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


def qz_add(u: QZVector, v: QZVector) -> QZVector:
    return tuple(qz(a + b) for a, b in zip(u, v))


def qz_sub(u: QZVector, v: QZVector) -> QZVector:
    return tuple(qz(a - b) for a, b in zip(u, v))


def mat_vec_qz(M: IntMatrix, v: Sequence[Fraction]) -> QZVector:
    """Image of a Q/Z vector under an integer matrix, canonicalized."""
    return qz_vector(mat_vec(M, v))


def solve_mod_z(M: IntMatrix, v: Sequence[Fraction]) -> Optional[QZVector]:
    """Some x in (Q/Z)^cols with M x = v (mod Z^rows), or None if unsolvable.

    Solvability is decided through the Smith form: writing U M V = D, the
    transformed right-hand side U v must be integral against every zero
    diagonal entry.
    """
    rows, cols = mat_shape(M)
    if len(v) != rows:
        raise ValueError("dimension mismatch in solve_mod_z")
    U, D, V = smith_normal_form(M)
    w = mat_vec(U, tuple(Fraction(x) for x in v))
    y = [Fraction(0)] * cols
    for i in range(rows):
        d = D[i][i] if i < cols else 0
        if d != 0:
            y[i] = w[i] / d
        elif qz(w[i]) != 0:
            return None
    return qz_vector(mat_vec(V, tuple(y)))


def mat_pow(M: IntMatrix, k: int) -> IntMatrix:
    n = len(M)
    R = identity_matrix(n)
    for _ in range(k):
        R = mat_mul(R, M)
    return R


class ImageMembership:
    """Reusable 'is t in M * (Q/Z)^cols (mod Z^rows)' test for a fixed M.

    Precomputes the Smith form once; membership then only requires checking
    the components of U t against the zero diagonal entries.  The per-class
    invariant returned by :meth:`invariant` is a complete coset invariant of
    (Q/Z)^rows modulo the image of M.
    """

    def __init__(self, M: IntMatrix):
        self.M = M
        rows, cols = mat_shape(M)
        self.U, D, self.V = smith_normal_form(M)
        self._zero_rows = tuple(
            i for i in range(rows) if (D[i][i] if i < cols else 0) == 0
        )

    def invariant(self, t: Sequence[Fraction]) -> QZVector:
        w = mat_vec(self.U, tuple(Fraction(x) for x in t))
        return tuple(qz(w[i]) for i in self._zero_rows)

    def contains(self, t: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in self.invariant(t))


def torsion_grid(rank: int, e: int, cap: int) -> List[QZVector]:
    """All of T[e] = ((1/e)Z/Z)^rank, in lexicographic order."""
    require_grid_size(rank, e, cap)
    values = [Fraction(a, e) for a in range(e)]
    return list(itertools.product(values, repeat=rank))


def grid_classes(action: GammaAction, cap: int = DEFAULT_CAP) -> tuple:
    """The least norm-killed vector of each class on the (1/e)-grid, sorted,
    for any finite-order automorphism."""
    # the grid is in lexicographic order, so the first norm-killed vector of
    # each class is its least
    norm = action.norm_matrix()
    invariant = ImageMembership(action.coboundary_matrix()).invariant
    least: Dict[QZVector, QZVector] = {}
    for t in torsion_grid(action.rank, action.e, cap):
        if _norm_kills(norm, t):
            least.setdefault(invariant(t), t)
    return tuple(sorted(least.values()))


def grid_h1_elements(datum: RootDatum, action: GammaAction,
                     cap: int = DEFAULT_CAP) -> H1Classes:
    """Element-model H^1 of any finite-order automorphism from the e^r grid
    (:func:`grid_classes`), with the class count checked against
    ``h1_structural``; a mismatch is a hard error."""
    structure = h1_structural(datum, action)
    reps = grid_classes(action, cap)
    if len(reps) != structure.order:
        raise AssertionError(
            f"element model found {len(reps)} classes but the lattice quotient "
            f"has order {structure.order}"
        )
    return H1Classes(structure=structure, representatives=reps)


def matrix_order(M: IntMatrix, cap: int = 1000) -> int:
    """The least k <= ``cap`` with M^k = 1; none is refused with
    ``EnumerationCapError``."""
    one = identity_matrix(len(M))
    P = M
    for k in range(1, cap + 1):
        if P == one:
            return k
        P = mat_mul(P, M)
    raise EnumerationCapError(
        f"order of a lattice automorphism: no power up to {cap} is the identity, "
        f"exceeds cap {cap}"
    )


@dataclass(frozen=True)
class MatrixAutomorphism:
    """A lattice automorphism of any finite order as its matrix, with the
    order read off the powers of that matrix (:func:`matrix_order`): the
    value that ``GammaAction``, ``h1_structural`` and the grid model read of
    an automorphism.  The library's automorphisms permute the nodes."""

    matrix: IntMatrix

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @cached_property
    def order(self) -> int:
        return matrix_order(self.matrix)


def diagonal_action(spec: InvolutionSpec) -> GammaAction:
    """The involution on additive diagonal vectors, (Gz)_j = -z_{rho(j)} for
    the permutation rho of J, as an order-2 action: -rho, the oracle of the
    sum-zero diagonal coordinates of ``slmodel.sl_diagonal``.

    Conjugating a diagonal matrix by a monomial matrix permutes the entries
    by its permutation and the entry values cancel, so the action depends on
    spec.J.perm alone."""
    rho, n = spec.J.perm, spec.n
    return GammaAction(2, MatrixAutomorphism(tuple(
        tuple(-1 if k == rho[j] else 0 for k in range(n)) for j in range(n))))


def cofactor_adjugate(M: IntMatrix) -> IntMatrix:
    """Integer adjugate by cofactors, so that adj(M) M = det(M) I: r^2
    determinants of the (r-1)-minors."""
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


def classes_equal(t1: QZVector, t2: QZVector, action: GammaAction) -> bool:
    """Whether t1 and t2 give the same class, i.e. t1 - t2 is a coboundary."""
    norm_killed_numerators(t1, action)
    norm_killed_numerators(t2, action)
    member = ImageMembership(action.coboundary_matrix())
    return member.contains(qz_sub(t1, t2))


def root_row(datum: RootDatum, root: Sequence[int]) -> IntVector:
    """The integer row sum_i beta_i c_ij of a root beta, so that
    <beta, x> = sum_j row_j x_j."""
    return tuple(sum(b * c for b, c in zip(root, column)) for column in zip(*datum.cartan))


def pairing(datum: RootDatum, root: Sequence[int], coweight: Sequence[Fraction]) -> Fraction:
    """<beta, x> for a root beta (simple-root coefficients) and coweight x."""
    return Fraction(sum(
        c * Fraction(x) for c, x in zip(root_row(datum, root), coweight) if c
    ))


def simple_reflection(datum: RootDatum, i: int) -> IntMatrix:
    """s_i on the coroot lattice: v -> v - <alpha_i, v> alpha_i_coroot."""
    if not 1 <= i <= datum.rank:
        raise ValueError(f"reflection index {i} out of range")
    k = i - 1
    rows = []
    for a in range(datum.rank):
        if a != k:
            rows.append(tuple(1 if b == a else 0 for b in range(datum.rank)))
        else:
            rows.append(
                tuple((1 if b == k else 0) - datum.cartan[k][b] for b in range(datum.rank))
            )
    return tuple(rows)


def weyl_generators(datum: RootDatum) -> Tuple[IntMatrix, ...]:
    return tuple(simple_reflection(datum, i) for i in range(1, datum.rank + 1))


def weyl_matrices(datum: RootDatum, cap: int = DEFAULT_CAP) -> List[IntMatrix]:
    """The matrix of every element of W, in the order of
    ``rootdata.weyl_elements``: its columns are the coroots w(alpha_k^v) at
    the coroot places of the element."""
    coroot = _packed_keys(datum).coroots.__getitem__
    return [tuple(zip(*map(coroot, places))) for _, places in weyl_elements(datum, cap=cap)]


def reflected_row(datum: RootDatum) -> Callable[[IntMatrix, int], IntVector]:
    """``row(M, i)`` is row i of s_i M, the only row that differs from M:
    sum_b (delta_ib - c_ib) M_b over the b with c_ib != 0."""
    n = datum.rank
    terms = [[(b, int(b == i) - c) for b, c in enumerate(row) if c]
             for i, row in enumerate(datum.cartan)]

    def row(M: IntMatrix, i: int) -> IntVector:
        out = [0] * n
        for b, k in terms[i]:
            for j, v in enumerate(M[b]):
                if v:
                    out[j] += k * v
        return tuple(out)

    return row


def left_multiplier(datum: RootDatum) -> Callable[[Dict, IntVector, int], Optional[IntVector]]:
    """The O(r) step w -> s_i w: ``step(seen, key, i)`` maps the key v of w to
    v_j - <alpha_j, alpha_i_coroot> v_i and, if that key is new to ``seen``,
    stores the matrix of s_i w (that of w with row i rebuilt) and returns it."""
    row = reflected_row(datum)
    columns = list(zip(*datum.cartan))

    def step(seen: Dict[IntVector, IntMatrix], key: IntVector, i: int) -> Optional[IntVector]:
        vi = key[i]
        image = tuple(v - c * vi for v, c in zip(key, columns[i]))
        if image in seen:
            return None
        M = seen[key]
        seen[image] = M[:i] + (row(M, i),) + M[i + 1:]
        return image

    return step


def weyl_elements_by_rows(datum: RootDatum) -> List[IntMatrix]:
    """W as the library closed it before its packed keys: each element is
    keyed by the tuple of root values of w(x0) and carries its matrix, with
    row i rebuilt for s_i w (:func:`left_multiplier`); sorted."""
    n = datum.rank
    step = left_multiplier(datum)
    start = (1,) * n
    seen: Dict[IntVector, IntMatrix] = {start: identity_matrix(n)}
    frontier = [start]
    while frontier:
        images = (step(seen, key, i) for key in frontier for i in range(n) if key[i] > 0)
        frontier = [image for image in images if image is not None]
    return sorted(seen.values())


def fixed_weyl_generators_by_rows(datum: RootDatum,
                                  aut: LatticeAutomorphism) -> List[IntMatrix]:
    """The matrices w_J of ``rootdata.fixed_weyl_generators`` by the row
    descent of :func:`left_multiplier`: from the key (1, ..., 1), apply s_i
    for the least i in J with v_i > 0 while there is one."""
    n = datum.rank
    step = left_multiplier(datum)
    gens = []
    for J in sorted(aut.node_orbits):
        key = (1,) * n
        seen = {key: identity_matrix(n)}
        while any(key[j] > 0 for j in J):
            key = step(seen, key, min(j for j in J if key[j] > 0))
        gens.append(seen[key])
    return gens


def conjugator(datum: RootDatum) -> Callable[[IntMatrix, int], IntMatrix]:
    """The O(r * deg) step M -> s_i M s_i.  Row i is rebuilt as in
    :func:`left_multiplier`; then each row k with M_ki != 0 loses M_ki
    times row i of the Cartan matrix, on the support of that Cartan row,
    which is right multiplication by s_i (the identity but for row i,
    e_i - c_i)."""
    row = reflected_row(datum)
    supports = [[(j, c) for j, c in enumerate(cartan_row) if c]
                for cartan_row in datum.cartan]

    def conjugate(M: IntMatrix, i: int) -> IntMatrix:
        rows = list(M)
        rows[i] = row(M, i)
        for k, r in enumerate(rows):
            x = r[i]
            if x:
                r = list(r)
                for j, c in supports[i]:
                    r[j] -= x * c
                rows[k] = tuple(r)
        return tuple(rows)

    return conjugate


def weyl_classes_by_conjugation(datum: RootDatum,
                                elements: Sequence[IntMatrix]) -> List[FrozenSet[IntMatrix]]:
    """The conjugacy classes of W as sets of matrices, as the library found
    them before its packed keys: each class closed breadth-first under the
    matrix conjugations of :func:`conjugator`, in the order of their first
    members in ``elements``.  A conjugate outside ``elements`` is an
    error."""
    conjugate = conjugator(datum)
    listed = set(elements)
    covered: set = set()
    classes = []
    for w in elements:
        if w in covered:
            continue
        members = {w}
        frontier = [w]
        while frontier:
            images = {conjugate(M, i) for M in frontier for i in range(datum.rank)}
            if not images <= listed:
                raise AssertionError(f"a conjugate of {w} in {datum.name} is not in W")
            frontier = images - members
            members |= frontier
        covered |= members
        classes.append(frozenset(members))
    return classes


def rank_range(max_rank: int) -> List[Tuple[str, int]]:
    """All valid (label, rank) pairs with rank at most ``max_rank``."""
    out: List[Tuple[str, int]] = []
    for r in range(1, max_rank + 1):
        out.append(("A", r))
        if r >= 2:
            out.append(("B", r))
            out.append(("C", r))
        if r >= 4:
            out.append(("D", r))
        if r in (6, 7, 8):
            out.append(("E", r))
        if r == 4:
            out.append(("F", r))
        if r == 2:
            out.append(("G", r))
    return out


def all_coroots(datum: RootDatum) -> tuple:
    """The coroots of the positive roots, then their negatives."""
    plus = datum.positive_coroots
    return plus + tuple(tuple(-x for x in v) for v in plus)


def length_symmetrizers(cartan: IntMatrix) -> Tuple[Fraction, ...]:
    """Rational d_i proportional to half the squared root lengths, so that
    (alpha_i, alpha_j) = c_ij d_j is symmetric."""
    n = len(cartan)
    d: List[Optional[Fraction]] = [None] * n
    d[0] = Fraction(1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                frontier.append(j)
    if any(x is None for x in d):
        raise ValueError("Dynkin diagram is not connected")
    return tuple(d)  # type: ignore[arg-type]


def coroots_by_lengths(datum: RootDatum) -> Tuple[IntVector, ...]:
    """The coroot 2 beta / (beta, beta) of each positive root, in
    simple-coroot coordinates, from the squared lengths of
    :func:`length_symmetrizers` (scaled to integers by the lcm of their
    denominators): the oracle of ``RootDatum.positive_coroots``."""
    d = length_symmetrizers(datum.cartan)
    scale = math.lcm(*(x.denominator for x in d))
    d = [int(x * scale) for x in d]
    bonds = [(i, j, c * d[j]) for i, row in enumerate(datum.cartan)
             for j, c in enumerate(row) if c]
    out = []
    for root in datum.positive_roots:
        norm = sum(root[i] * root[j] * x for i, j, x in bonds)  # scale * (beta, beta)
        coroot = [divmod(2 * b * x, norm) for b, x in zip(root, d)]
        if any(rem for _, rem in coroot):
            raise AssertionError("coroot coordinates must be integral")
        out.append(tuple(q for q, _ in coroot))
    return tuple(out)


def _norm_kills(norm, t):
    return all(sum(a * x for a, x in zip(row, t)).denominator == 1 for row in norm)


def class_orbits(
    reps: Sequence[tuple],
    norm,
    invariant: Callable[[tuple], tuple],
    maps: Sequence[Callable[[tuple], tuple]],
):
    """Orbits of the classes ``reps`` under the vector maps ``maps``.

    Each image must stay in the norm kernel and hit one of the classes
    (matched through ``invariant``, a key that two vectors share exactly
    when they lie in the same class); either failure is a hard error.  Each
    orbit is represented by its least member, and the types are numbered in
    the order of those representatives.
    """
    index_of = {invariant(t): i for i, t in enumerate(reps)}

    def class_index(t):
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
    keyed = sorted((min(reps[i] for (i,) in orbit), len(orbit)) for orbit in orbits)
    return [LocalType(orbit_representative=rep, orbit_size=size, index=i)
            for i, (rep, size) in enumerate(keyed)]


def norm_killed_numerators(t: QZVector, action: GammaAction) -> Tuple[int, IntVector]:
    """The common denominator d of t and the numerators of t over d, mod d,
    once the norm matrix is checked to kill t; else ValueError."""
    d, numerators = common_numerators(t)
    numerators = tuple(a % d for a in numerators)
    if any(sum(a * p for a, p in zip(row, numerators)) % d for row in action.norm_matrix()):
        raise ValueError(f"vector {t} is not killed by the norm")
    return d, numerators


def cocycle_numerators(rep: QZVector, action: GammaAction) -> Tuple[int, List[IntVector]]:
    """The cocycle table of ``cohomology.cocycle_columns`` as its e rows, by
    the matrix walk: row i holds the numerators of sum_{j<i} A^j rep mod 1
    over d, and the walk applies A as an integer matrix mod d, one row at a
    time.  It serves any finite-order automorphism."""
    d, power = norm_killed_numerators(rep, action)
    # the nonzero entries of each row of A
    support = [[(j, a) for j, a in enumerate(row) if a] for row in action.automorphism.matrix]
    rows: List[IntVector] = []
    acc = (0,) * action.rank
    for _ in range(action.e):
        rows.append(acc)
        acc = tuple((a + p) % d for a, p in zip(acc, power))
        power = tuple(sum(a * power[j] for j, a in row) % d for row in support)
    return d, rows


def dict_types_report(label, rank, order, action_kind, **options) -> dict:
    """The report of ``cli.compute_types`` as plain dicts, lists and strings.
    The vectors are written by the writer of ``cli.types_parts``; for an SL
    involution the cocycles of the written diagonals are recomputed on the
    diagonal action -rho (:func:`diagonal_action`), not converted row by
    row as ``compute_types`` does."""
    datum, action, base, classes, types, write = types_parts(
        label, rank, order, action_kind, **options)
    variant = SL_VARIANTS.get(action_kind)
    keys = [str(i) for i in range(action.e)]
    texts: Dict[int, List[str]] = {}
    reps = write(classes.representatives)
    type_reps = write([t.orbit_representative for t in types])
    if variant is None:
        gamma0 = (f"gamma_0 = the generator matching the fixed primitive root of unity "
                  f"zeta_{action.e}; lattice action of order {action.automorphism.order}")
        table_action = action
    else:
        gamma0 = f"gamma_0 = the involution {variant} on SL_{rank + 1}"
        n = rank + 1
        table_action = diagonal_action(
            standard_involution(n) if variant == "J" else variant_involution(n))

    def cocycle_json(rep: QZVector) -> dict:
        d, rows = cocycle_numerators(rep, table_action)
        text = texts.get(d)
        if text is None:
            text = texts[d] = [str(Fraction(a, d)) for a in range(d)]
        return {key: list(map(text.__getitem__, row)) for key, row in zip(keys, rows)}

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "types",
        "group": {"label": label, "rank": rank},
        "order": order,
        "action": action_spec("sl-involution" if variant else action_kind,
                              variant=variant, perm=options.get("perm")),
        "torus_h1": {
            "order": classes.structure.order,
            "invariant_factors": list(classes.structure.invariant_factors),
            "gamma0": gamma0,
        },
        "class_representatives": [list(map(str, t)) for t in reps],
        "types": [
            {
                "index": t.index,
                "representative": list(map(str, rep)),
                "orbit_size": t.orbit_size,
                "cocycle": cocycle_json(rep),
            }
            for t, rep in zip(types, type_reps)
        ],
        "type_count": len(types),
    }
    if action_kind == "trivial":
        report["base_point"] = {"root_values": list(map(str, simple_root_values(datum, base))),
                                "coroot_coordinates": list(map(str, base))}
    elif variant is not None:
        report["matrix_size"] = rank + 1
    return report


def _list_text(values: Sequence[str]) -> str:
    return "[" + ", ".join(values) + "]"


def _action_text(action: dict) -> str:
    kind = action["kind"]
    if kind == "sl-involution":
        return f"sl-involution {action.get('variant')}"
    if kind == "diagram":
        return "diagram " + ",".join(str(p) for p in action.get("permutation", []))
    return kind


def dict_types_text(report: dict) -> List[str]:
    """The text lines of a :func:`dict_types_report`."""
    g = report["group"]
    lines = [f"group: {g['label']}{g['rank']}", f"order: {report['order']}",
             f"action: {_action_text(report['action'])}"]
    if "base_point" in report:
        lines.append(
            "base point (root values): " + _list_text(report["base_point"]["root_values"])
        )
    inv = report["torus_h1"]["invariant_factors"]
    lines.append(
        f"H1(Gamma, T): order {report['torus_h1']['order']}, "
        f"invariant factors {inv if inv else '[]'}"
    )
    lines.append(
        "classes: " + (", ".join(
            _list_text(rep) for rep in report["class_representatives"]
        ) if report["class_representatives"] else "(none)")
    )
    for t in report["types"]:
        table = t["cocycle"]
        cocycle = ", ".join([f"{i}: " + _list_text(table[i]) for i in sorted(table, key=int)])
        lines.append(
            f"type {t['index']}: rep " + _list_text(t["representative"])
            + f", orbit size {t['orbit_size']}, cocycle {{{cocycle}}}"
        )
    lines.append(f"types: {report['type_count']}")
    return lines


def dict_twist_report(label, rank, order, point=None, class_index=None) -> dict:
    """The report of ``cli.cmd_twist`` built row by row from Fractions: each
    row's point from :func:`type_to_alcove`, its root values from
    :func:`simple_root_values` and its facet from :func:`facet_of`, every
    entry made into a string on its own."""
    datum, _, base, classes, types, _ = types_parts(label, rank, order, "trivial", point=point)

    def row(rep: QZVector) -> dict:
        reduced, _ = type_to_alcove(datum, rep, order, base)
        facet = facet_of(datum, reduced)
        return {
            "representative": list(map(str, rep)),
            "point_root_values": list(map(str, simple_root_values(datum, reduced))),
            "point_coroot_coordinates": list(map(str, reduced)),
            "facet": {
                "vanishing_walls": sorted(facet.vanishing_walls),
                "classification": facet.classification,
                "special": facet.special,
            },
            "facet_text": facet.describe(),
        }

    if class_index is None:
        rows = [dict(row(t.orbit_representative), type_index=t.index) for t in types]
    else:
        rows = [dict(row(classes.representatives[class_index]), class_index=class_index)]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "twist",
        "group": {"label": label, "rank": rank},
        "order": order,
        "base_point": {"root_values": list(map(str, point_or_default(point, rank, order)))},
        "twists": rows,
        "type_count": len(types),
    }


def dict_twist_text(report: dict) -> List[str]:
    """The text lines of a :func:`dict_twist_report`."""
    g = report["group"]
    lines = [f"group: {g['label']}{g['rank']}", f"order: {report['order']}",
             "base point (root values): " + _list_text(report["base_point"]["root_values"])]
    for row in report["twists"]:
        tag = (f"class {row['class_index']}" if "class_index" in row
               else f"type {row['type_index']}")
        lines.append(f"{tag}: point " + _list_text(row["point_root_values"])
                     + f", facet: {row['facet_text']}")
    return lines


def coroot_coordinates(t: Sequence[Fraction]) -> QZVector:
    """A sum-zero diagonal in the simple-coroot coordinates of SL_n:
    c_i = t_1 + ... + t_i for i < n."""
    return qz_vector(itertools.accumulate(t[:-1]))


def weyl_permutation(w: IntMatrix) -> tuple:
    """The permutation sigma with w(e_j) = e_sigma(j) of a Weyl element of
    A_(n-1), read off the images e_sigma(j) - e_sigma(j+1) of its coroots."""
    images = [tuple(b - a for a, b in zip((0,) + column, column + (0,)))
              for column in zip(*w)]
    return tuple(image.index(1) for image in images) + (images[-1].index(-1),)


def monomial_lift_twist(w: IntMatrix, spec: InvolutionSpec) -> QZVector:
    """t_w of the monomial lift of the permutation of w, in coroot
    coordinates."""
    return coroot_coordinates(t_w(lift_of_permutation(weyl_permutation(w)), spec))


def monomial_lift_sl_types(n: int, spec: InvolutionSpec,
                           classes: Optional[H1Classes] = None) -> List[LocalType]:
    """The SL_n types of the monomial-lift calculus: the orbits of the
    coroot-coordinate classes of the A_(n-1) flip under the generators w_J
    of W^gamma, each applied as t -> w_J(t) + t_w of its monomial lift,
    reported as diagonals.  ``classes`` (diagonals, as from
    ``sl_torus_h1``) are checked against the coroot classes when given."""
    datum, action = _sl_flip(n)
    lattice = h1_elements(datum, action).representatives
    if classes is not None and classes.representatives != tuple(map(sl_diagonal, lattice)):
        raise AssertionError("the diagonal classes are not those of the flip")
    maps = [lambda t, M=w, c=monomial_lift_twist(w, spec): qz_add(mat_vec_qz(M, t), c)
            for w in fixed_weyl_generators(datum, action.automorphism)]
    member = ImageMembership(action.coboundary_matrix())
    types = class_orbits(lattice, action.norm_matrix(), member.invariant, maps)
    return [LocalType(sl_diagonal(t.orbit_representative), t.orbit_size, t.index)
            for t in types]
