"""The integer-numerator cocycle kernel against the Fraction recurrence."""

import itertools
from dataclasses import fields
from fractions import Fraction as F

import pytest

import parahoric.cohomology as cohomology
from parahoric.cohomology import (
    GammaAction,
    cocycle_numerators,
    cocycle_of,
    h1_elements,
    trivial_action,
    types_of_classes,
)
from parahoric.exactalg import (
    identity_matrix,
    mat_add,
    qz_zero,
)
from parahoric.rootdata import LatticeAutomorphism, build_root_datum, diagram_automorphism
from parahoric.slmodel import diagonal_action, sl_torus_h1, standard_involution, variant_involution

from .references import mat_pow, mat_vec_qz, qz_add


def reference_cocycle(rep, action):
    """gamma_0^i -> sum_{j<i} A^j rep by the plain Fraction recurrence, with
    the norm built from scratch."""
    norm = identity_matrix(action.rank)
    for j in range(1, action.e):
        norm = mat_add(norm, mat_pow(action.matrix, j))
    if any(x != 0 for x in mat_vec_qz(norm, rep)):
        raise ValueError("not killed by the norm")
    table = {}
    acc = qz_zero(action.rank)
    power = rep
    for i in range(action.e):
        table[i] = acc
        acc = qz_add(acc, power)
        power = mat_vec_qz(action.matrix, power)
    return table


def diagram_action(label, rank, perm, e):
    datum = build_root_datum(label, rank)
    return datum, GammaAction(e, diagram_automorphism(datum, perm))


def norm_killed_grid(action):
    """Every vector of T[e] that the norm kills."""
    e = action.e
    for combo in itertools.product(range(e), repeat=action.rank):
        t = tuple(F(c, e) for c in combo)
        if all(x == 0 for x in mat_vec_qz(action.norm_matrix(), t)):
            yield t


TRIVIAL = [(r, e) for r in (1, 2, 3) for e in (1, 2, 3, 5, 6)] + [(1, 12), (2, 8)]

DIAGRAM = [
    ("A", 2, (1, 0), 2),
    ("A", 2, (1, 0), 4),
    ("A", 4, (3, 2, 1, 0), 2),
    ("D", 4, (2, 1, 3, 0), 3),  # triality: 1 -> 3 -> 4 -> 1, centre fixed
    ("D", 4, (2, 1, 3, 0), 6),
]

SL = [(n, spec) for n in (3, 4, 5, 6) for spec in (standard_involution, variant_involution)
      if spec is standard_involution or n % 2 == 0]


@pytest.mark.parametrize("rank,e", TRIVIAL)
def test_trivial_actions_match_reference(rank, e):
    datum = build_root_datum("A", rank)
    action = trivial_action(rank, e)
    for rep in h1_elements(datum, action).representatives:
        assert cocycle_of(rep, action) == reference_cocycle(rep, action)


@pytest.mark.parametrize("label,rank,perm,e", DIAGRAM)
def test_diagram_actions_match_reference(label, rank, perm, e):
    datum, action = diagram_action(label, rank, perm, e)
    reps = h1_elements(datum, action).representatives
    vectors = list(norm_killed_grid(action))
    assert set(reps) <= set(vectors)
    for rep in vectors:
        assert cocycle_of(rep, action) == reference_cocycle(rep, action)


@pytest.mark.parametrize("n,make_spec", SL)
def test_sl_diagonal_actions_match_reference(n, make_spec):
    spec = make_spec(n)
    action = diagonal_action(spec)
    reps = sl_torus_h1(n, spec).representatives
    for rep in set(reps) | set(norm_killed_grid(action)):
        assert cocycle_of(rep, action) == reference_cocycle(rep, action)


def test_unreduced_and_integer_entries_are_canonicalized():
    action = trivial_action(2, 3)
    rep = (F(4, 3), -1)  # the class of (1/3, 0)
    assert cocycle_of(rep, action) == reference_cocycle((F(1, 3), F(0)), action)
    assert cocycle_of(rep, action)[2] == (F(2, 3), F(0))


def test_large_denominator_builds_no_denominator_sized_table(monkeypatch):
    datum, action = diagram_action("A", 2, (1, 0), 2)
    d = 1000003
    rep = (F(1, d), F(d - 1, d))
    built = []

    def counting_fraction(*args):
        built.append(args)
        return F(*args)

    monkeypatch.setattr(cohomology, "Fraction", counting_fraction)
    table = cocycle_of(rep, action)
    monkeypatch.undo()
    assert table == reference_cocycle(rep, action)
    assert table == {0: (F(0), F(0)), 1: rep}
    # one Fraction per distinct numerator: 0, 1 and d - 1
    assert len(built) == 3


def test_not_norm_killed_is_rejected():
    datum, action = diagram_action("A", 2, (1, 0), 2)
    with pytest.raises(ValueError, match="not killed by the norm"):
        cocycle_of((F(1, 3), F(0)), action)


@pytest.mark.parametrize("label,rank,perm,e", DIAGRAM)
def test_cached_norm_matrix_is_the_sum_of_powers(label, rank, perm, e):
    datum, action = diagram_action(label, rank, perm, e)
    expected = identity_matrix(rank)
    for j in range(1, e):
        expected = mat_add(expected, mat_pow(action.matrix, j))
    assert action.norm_matrix() == expected
    assert action.norm_matrix() is action.norm_matrix()


def test_norm_cache_leaves_equality_and_hashing_alone():
    datum, fresh = diagram_action("A", 4, (3, 2, 1, 0), 4)
    _, used = diagram_action("A", 4, (3, 2, 1, 0), 4)
    used.norm_matrix()
    assert fresh == used and hash(fresh) == hash(used)
    assert repr(fresh) == repr(used)
    assert [f.name for f in fields(GammaAction)] == ["e", "automorphism"]
    assert trivial_action(2, 3) != trivial_action(2, 4)
    assert len({fresh, used, trivial_action(4, 4)}) == 2


def test_the_identity_is_read_once_per_automorphism(monkeypatch):
    assert trivial_action(3, 4).automorphism.is_identity
    assert LatticeAutomorphism(identity_matrix(2)).is_identity
    assert not diagram_action("A", 4, (3, 2, 1, 0), 2)[1].automorphism.is_identity
    assert not LatticeAutomorphism(((0, -1), (1, -1))).is_identity
    datum, action = build_root_datum("B", 3), trivial_action(3, 4)
    classes = h1_elements(datum, action)
    tables = [cocycle_numerators(t.orbit_representative, action)
              for t in types_of_classes(datum, action, classes)]

    def refuse(*args, **kwargs):
        raise AssertionError("the identity is tested by building a matrix")

    monkeypatch.setattr(cohomology, "identity_matrix", refuse)
    types = types_of_classes(datum, action, classes)
    assert [cocycle_numerators(t.orbit_representative, action) for t in types] == tables
