"""Reference models that the library no longer runs, kept as oracles.

:func:`grid_h1_elements` is the grid element model of H^1: it sorts the
norm-killed vectors of the (1/e)-grid (:func:`torsion_grid`) into classes
through the coset invariant of :class:`ImageMembership` (:func:`grid_classes`)
and checks the class count against ``h1_structural``.  The library lists
classes only for actions that permute the nodes, from their orbit sums; the
grid model serves any finite-order automorphism (-1, Weyl elements, the
SL torus action), and checks the orbit-sum lists.
:func:`class_orbits` is the orbit computation over the generic
``orbit_partition`` on ``Fraction`` vectors, matching each image to its
class through the same invariant.

:func:`dict_types_report` and :func:`dict_types_text` are the ``types``
report as a dict of lists and strings, one ``str`` per entry, and its text
lines read off that dict: the writer that the CLI replaced by the
self-writing :class:`parahoric.cli.CocycleTable` and
:class:`parahoric.cli.Vectors` values.  Passed through
``json.dumps(indent=2, sort_keys=True)`` and through
:func:`dict_types_text`, they are what the CLI must print.

:func:`pairing`, :func:`all_coroots` and :func:`apply` are the root-datum
and Weyl-element conveniences that no library code calls: the pairing of
a root with a coweight through the integer root row, every coroot, and a
lattice matrix applied to a coweight.  So are the mod-Z helpers
:func:`qz_add`, :func:`qz_sub`, :func:`mat_vec_qz` and
:func:`solve_mod_z`, the automorphism :func:`weyl_element_automorphism` of
a Weyl element, :func:`classes_equal`, the Fraction twin of the class
invariant, :func:`root_row`, :func:`mat_pow`, the simple reflections
(:func:`simple_reflection`, :func:`weyl_generators`) and the list
:func:`rank_range` of the simple types.

:func:`monomial_lift_twist` and :func:`monomial_lift_sl_types` are the SL_n
types as the library computed them before the involutions became the
A_(n-1) flip with a base point: each generator of W^gamma is twisted by
t_w of the monomial lift of its permutation, read back into coroot
coordinates (:func:`coroot_coordinates`, the inverse of
``slmodel._diagonal``).
"""

import itertools
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from parahoric.cli import SCHEMA_VERSION, action_spec, types_parts
from parahoric.cohomology import (
    GammaAction,
    H1Classes,
    LocalType,
    _require_norm_killed,
    cocycle_numerators,
    h1_elements,
    h1_structural,
    require_grid_size,
)
from parahoric.exactalg import (
    IntMatrix,
    IntVector,
    QZVector,
    identity_matrix,
    mat_mul,
    mat_shape,
    mat_vec,
    qz,
    qz_vector,
    smith_normal_form,
)
from parahoric.rootdata import (
    DEFAULT_CAP,
    LatticeAutomorphism,
    RootDatum,
    WeylElement,
    fixed_weyl_generators,
    orbit_partition,
)
from parahoric.slmodel import (
    InvolutionSpec,
    _diagonal,
    _sl_flip,
    lift_of_permutation,
    t_w,
)


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
    return H1Classes(structure=structure, representatives=reps,
                     gamma0_choice=action.gamma0_record())


def weyl_element_automorphism(w: WeylElement) -> LatticeAutomorphism:
    return LatticeAutomorphism(w.matrix)


def classes_equal(t1: QZVector, t2: QZVector, action: GammaAction) -> bool:
    """Whether t1 and t2 give the same class, i.e. t1 - t2 is a coboundary."""
    _require_norm_killed(t1, action)
    _require_norm_killed(t2, action)
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


def simple_reflection(datum: RootDatum, i: int) -> WeylElement:
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
    return WeylElement(tuple(rows))


def weyl_generators(datum: RootDatum) -> Tuple[WeylElement, ...]:
    return tuple(simple_reflection(datum, i) for i in range(1, datum.rank + 1))


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
    plus = [datum.coroot(r) for r in datum.positive_roots]
    return tuple(plus) + tuple(tuple(-x for x in v) for v in plus)


def apply(element, coweight: Sequence[Fraction]) -> tuple:
    """A Weyl element or lattice automorphism applied to a coweight."""
    return mat_vec(element.matrix, coweight)


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


def dict_types_report(label, rank, order, action_kind, **options) -> dict:
    """The report of ``cli.compute_types`` as plain dicts, lists and strings."""
    action, classes, types, extra = types_parts(label, rank, order, action_kind, **options)
    keys = [str(i) for i in range(action.e)]
    texts: Dict[int, List[str]] = {}

    def cocycle_json(t: LocalType) -> dict:
        d, rows = cocycle_numerators(t.orbit_representative, action)
        text = texts.get(d)
        if text is None:
            text = texts[d] = [str(Fraction(a, d)) for a in range(d)]
        return {key: list(map(text.__getitem__, row)) for key, row in zip(keys, rows)}

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "types",
        "group": {"label": label, "rank": rank},
        "order": order,
        "action": action_spec(
            action_kind if not action_kind.startswith("sl-") else "sl-involution",
            variant={"sl-J": "J", "sl-Jprime": "J-prime"}.get(action_kind),
            perm=options.get("perm"),
        ),
        "torus_h1": {
            "order": classes.structure.order,
            "invariant_factors": list(classes.structure.invariant_factors),
            "gamma0": classes.gamma0_choice,
        },
        "class_representatives": [list(map(str, t)) for t in classes.representatives],
        "types": [
            {
                "index": t.index,
                "representative": list(map(str, t.orbit_representative)),
                "orbit_size": t.orbit_size,
                "cocycle": cocycle_json(t),
            }
            for t in types
        ],
        "type_count": len(types),
    }
    report.update(extra)
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


def coroot_coordinates(t: Sequence[Fraction]) -> QZVector:
    """A sum-zero diagonal in the simple-coroot coordinates of SL_n:
    c_i = t_1 + ... + t_i for i < n."""
    return qz_vector(itertools.accumulate(t[:-1]))


def weyl_permutation(w: WeylElement) -> tuple:
    """The permutation sigma with w(e_j) = e_sigma(j) of a Weyl element of
    A_(n-1), read off the images e_sigma(j) - e_sigma(j+1) of its coroots."""
    images = [tuple(b - a for a, b in zip((0,) + column, column + (0,)))
              for column in zip(*w.matrix)]
    return tuple(image.index(1) for image in images) + (images[-1].index(-1),)


def monomial_lift_twist(w: WeylElement, spec: InvolutionSpec) -> QZVector:
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
    if classes is not None and classes.representatives != tuple(map(_diagonal, lattice)):
        raise AssertionError("the diagonal classes are not those of the flip")
    maps = [lambda t, M=w.matrix, c=monomial_lift_twist(w, spec): qz_add(mat_vec_qz(M, t), c)
            for w in fixed_weyl_generators(datum, action.automorphism)]
    member = ImageMembership(action.coboundary_matrix())
    types = class_orbits(lattice, action.norm_matrix(), member.invariant, maps)
    return [LocalType(_diagonal(t.orbit_representative), t.orbit_size, t.index)
            for t in types]
