"""The orbit-sum model of H^1 and the packed orbit engine against the grid
model ``grid_classes`` and the ``class_orbits`` reference of
:mod:`tests.references`."""

import itertools
import random
from fractions import Fraction as F

import pytest

import parahoric.cohomology as cohomology
from parahoric.cohomology import (
    GammaAction,
    h1_elements,
    h1_structural,
    local_types,
    trivial_action,
    types_of_classes,
)
from parahoric.alcove import point_from_root_values, simple_root_values
from parahoric.exactalg import qz_vector
from parahoric.rootdata import (
    EnumerationCapError,
    build_root_datum,
    diagram_automorphism,
    fixed_weyl_generators,
)
from parahoric.slmodel import _sl_flip, sl_local_types, standard_involution, variant_involution

from .references import (
    ImageMembership,
    class_orbits,
    grid_classes,
    h1_structure_three_step,
    mat_pow,
    mat_vec,
    mat_vec_qz,
    qz_add,
    qz_sub,
    rank_range,
)
from .test_cohomology import _integer_inverse
from .test_rootdata import flip


def _symmetries(datum):
    """Every diagram symmetry up to rank 6; the identity and the A or D
    flip above."""
    n = datum.rank
    if n > 6:
        identity = diagram_automorphism(datum, range(n))
        return [identity] + ([flip(datum)] if datum.label in "AD" else [])
    out = []
    for perm in itertools.permutations(range(n)):
        try:
            out.append(diagram_automorphism(datum, perm))
        except ValueError:
            pass
    return out


def sweep_cases():
    """(label, rank, automorphism, e) for every e <= 12 that is a multiple of
    the order of the symmetry, with e^r <= 3 * 10^5."""
    cases = []
    for label, rank in rank_range(8):
        datum = build_root_datum(label, rank)
        for aut in _symmetries(datum):
            for e in range(aut.order, 13, aut.order):
                if e ** rank <= 3 * 10 ** 5:
                    cases.append((label, rank, aut, e))
    return cases


SWEEP = sweep_cases()


def test_the_sweep_has_372_cases():
    assert len(SWEEP) == 372


def structure_cases():
    """(datum, action) for every symmetry of :func:`_symmetries` at every
    e <= 40 that is a multiple of its order, then the SL_n flips of
    ``slmodel`` for n = 3..12."""
    cases = []
    for label, rank in rank_range(8):
        datum = build_root_datum(label, rank)
        for aut in _symmetries(datum):
            cases += [(datum, GammaAction(e, aut)) for e in range(aut.order, 41, aut.order)]
    return cases + [_sl_flip(n) for n in range(3, 13)]


def test_h1_structural_matches_the_three_step_quotient():
    cases = structure_cases()
    assert len(cases) == 1606 + 10
    for datum, action in cases:
        got = h1_structural(datum, action)
        expected = h1_structure_three_step(action)
        assert got.invariant_factors == expected.invariant_factors, \
            (datum.name, action.automorphism.node_permutation, action.e)
        assert got.free_rank == expected.free_rank == 0


# The grid model walks all e^r grid points as Fraction vectors and takes
# more than ten minutes on the whole sweep.  It is compared on the cases
# with at most 5000 grid points (300 for the trivial action, whose classes
# are the whole grid), which take it a few seconds and still hold every
# symmetry of the sweep.
GRID_CASES = [c for c in SWEEP if c[3] ** c[1] <= (5000 if c[2].order > 1 else 300)]


def test_the_grid_cases_hold_every_symmetry_of_the_sweep():
    def symmetries(cases):
        return {(label, rank, aut.matrix) for label, rank, aut, _ in cases}

    assert symmetries(GRID_CASES) == symmetries(SWEEP)


@pytest.mark.parametrize("label,rank", sorted({(c[0], c[1]) for c in GRID_CASES},
                                              key=lambda g: (g[1], g[0])))
def test_orbit_sum_classes_equal_the_grid_classes(label, rank):
    datum = build_root_datum(label, rank)
    for _, _, aut, e in [c for c in GRID_CASES if c[:2] == (label, rank)]:
        action = GammaAction(e, aut)
        classes = h1_elements(datum, action)
        assert classes.representatives == grid_classes(action), \
            (label, rank, aut.matrix, e)


def _bases(aut, rank, e):
    """The zero base and c = 1/e on the sigma-orbit of node 1 (as in
    ``test_lattice_types_match_the_full_weyl_path``), each with its lifts
    w^-1(c) - c."""
    powers = [mat_pow(aut.matrix, k) for k in range(aut.order)]
    c = tuple(F(int(any(P[i][0] for P in powers)), e) for i in range(rank))
    assert mat_vec(aut.matrix, c) == c
    return [(None, lambda w: (F(0),) * rank), (c, _base_lift(c))]


def _base_lift(c):
    """The lifts w^-1(c) - c of the base point c."""
    return lambda w: qz_sub(qz_vector(mat_vec(_integer_inverse(w), c)), qz_vector(c))


def _reference_types(datum, action, lift):
    """The orbits under the generators of W^sigma by ``class_orbits`` on the
    grid classes, each generator applied as t -> w(t) + lift(w)."""
    maps = [lambda t, M=w, t_w=qz_vector(lift(w)): qz_add(mat_vec_qz(M, t), t_w)
            for w in fixed_weyl_generators(datum, action.automorphism)]
    member = ImageMembership(action.coboundary_matrix())
    return class_orbits(grid_classes(action), action.norm_matrix(),
                        member.invariant, maps)


PACKED_CASES = [c for c in SWEEP
                if c[2].order > 1 and c[3] ** c[1] <= 1500]


@pytest.mark.parametrize("label,rank", sorted({(c[0], c[1]) for c in PACKED_CASES},
                                              key=lambda g: (g[1], g[0])))
def test_packed_types_equal_the_class_orbits_reference(label, rank):
    datum = build_root_datum(label, rank)
    for _, _, aut, e in [c for c in PACKED_CASES if c[:2] == (label, rank)]:
        action = GammaAction(e, aut)
        for base, lift in _bases(aut, rank, e):
            got = local_types(datum, action, base=base)
            assert got == _reference_types(datum, action, lift), (label, rank, aut.matrix, e)


def test_the_packed_reference_subset_covers_every_symmetry_kind():
    kinds = {(label, rank, aut.order) for label, rank, aut, _ in PACKED_CASES}
    assert {("A", 2, 2), ("A", 5, 2), ("D", 4, 2), ("D", 4, 3), ("E", 6, 2)} <= kinds


def test_types_are_read_off_the_passed_classes():
    # the packed index of a class is its position in the representatives,
    # so classes that carry their own positions give the least indices back
    datum = build_root_datum("A", 3)
    action = GammaAction(4, flip(datum))
    base = _bases(action.automorphism, 3, 4)[1][0]
    classes = h1_elements(datum, action)
    types = types_of_classes(datum, action, classes, base=base)
    positions = classes._replace(representatives=tuple(range(len(classes.representatives))))
    assert [t.orbit_representative
            for t in types_of_classes(datum, action, positions, base=base)] \
        == [classes.representatives.index(t.orbit_representative) for t in types]
    fewer = classes._replace(representatives=classes.representatives[:-1])
    with pytest.raises(AssertionError, match="orbit sizes must add up to the class count"):
        types_of_classes(datum, action, fewer, base=base)


def test_permutation_actions_never_build_the_grid(monkeypatch):
    # the classes are listed from orbit sums, and no listing sizes a grid
    def refuse(*args, **kwargs):
        raise AssertionError("the torsion grid must not be sized")

    monkeypatch.setattr(cohomology, "require_grid_size", refuse)
    for n in range(3, 9):
        specs = [standard_involution(n)] + ([variant_involution(n)] if n % 2 == 0 else [])
        for spec in specs:
            assert sl_local_types(n, spec.kind)
    e6 = build_root_datum("E", 6)
    types = local_types(e6, GammaAction(6, flip(e6)))
    assert len(types) == 9


def test_e6_flip_at_e20_lists_40000_classes():
    # the grid of 20^6 = 6.4 * 10^7 points is above the default cap of 10^6
    e6 = build_root_datum("E", 6)
    action = GammaAction(20, flip(e6))
    classes = h1_elements(e6, action)
    assert len(classes.representatives) == 40000
    assert h1_structural(e6, action).order == 40000


def test_the_permutation_cap_counts_classes_not_grid_points():
    d4 = build_root_datum("D", 4)
    action = GammaAction(6, diagram_automorphism(d4, (2, 1, 3, 0)))
    # orbits {0, 2, 3} and {1}: 2 * 6 = 12 classes on a grid of 6^4 points
    assert len(h1_elements(d4, action, cap=12).representatives) == 12
    with pytest.raises(EnumerationCapError,
                       match="^H\\^1 classes from sigma-orbit sums: 12 exceeds cap 11$"):
        h1_elements(d4, action, cap=11)


def test_the_permutation_cap_names_the_whole_class_count():
    # the count is formed over every orbit before the check: 10^7 on each
    # of the three nodes of A3, not the 10^7 of the first node
    with pytest.raises(EnumerationCapError) as info:
        h1_elements(build_root_datum("A", 3), trivial_action(3, 10 ** 7))
    assert str(info.value) == ("H^1 classes from sigma-orbit sums: "
                               "1000000000000000000000 exceeds cap 1000000")


@pytest.mark.parametrize("label,rank,perm,e", [
    ("A", 3, None, 4), ("A", 5, None, 4), ("D", 4, (2, 1, 3, 0), 6), ("D", 5, None, 2),
    ("E", 6, None, 2)])
def test_random_fixed_bases_match_the_class_orbits_reference(label, rank, perm, e):
    # random sigma-fixed bases on the (1/e)-grid, root values constant on
    # each sigma-orbit, against the lifts w^-1(b) - b on the grid classes
    datum = build_root_datum(label, rank)
    aut = diagram_automorphism(datum, perm) if perm else flip(datum)
    action = GammaAction(e, aut)
    rng = random.Random(rank * e)
    twisted = 0
    for _ in range(4):
        values = [F(0)] * rank
        for orbit in aut.node_orbits:
            value = F(rng.randint(-2 * e, 2 * e), e)
            for i in orbit:
                values[i] = value
        base = point_from_root_values(datum, values)
        assert mat_vec(aut.matrix, base) == base
        assert simple_root_values(datum, base) == tuple(values)
        twisted += any(row[1] for row in cohomology._generator_rows(datum, action, base))
        got = local_types(datum, action, base=base)
        assert got == _reference_types(datum, action, _base_lift(base)), (values, e)
    assert twisted
