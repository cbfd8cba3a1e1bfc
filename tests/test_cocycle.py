"""The integer-numerator cocycle kernel against the Fraction recurrence."""

import itertools
import random
from dataclasses import fields
from fractions import Fraction as F

import pytest

import parahoric.cohomology as cohomology
from parahoric.cohomology import (
    GammaAction,
    cocycle_columns,
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
from parahoric.slmodel import _sl_flip, sl_diagonal, standard_involution, variant_involution

from .references import (
    cocycle_numerators,
    diagonal_action,
    mat_pow,
    mat_vec_qz,
    qz_add,
    rank_range,
)
from .test_rootdata import diagram_symmetries


def reference_cocycle(rep, action):
    """gamma_0^i -> sum_{j<i} A^j rep by the plain Fraction recurrence, with
    the norm built from scratch."""
    norm = identity_matrix(action.rank)
    for j in range(1, action.e):
        norm = mat_add(norm, mat_pow(action.automorphism.matrix, j))
    if any(x != 0 for x in mat_vec_qz(norm, rep)):
        raise ValueError("not killed by the norm")
    table = {}
    acc = qz_zero(action.rank)
    power = rep
    for i in range(action.e):
        table[i] = acc
        acc = qz_add(acc, power)
        power = mat_vec_qz(action.automorphism.matrix, power)
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
    # the flip's cocycles, written as diagonals, are those of -rho on the
    # diagonal classes; the matrix walk of -rho matches on its whole grid
    spec = make_spec(n)
    action = diagonal_action(spec)
    datum, flip = _sl_flip(n)
    for c in h1_elements(datum, flip).representatives:
        table = {i: sl_diagonal(row) for i, row in cocycle_of(c, flip).items()}
        assert table == reference_cocycle(sl_diagonal(c), action)
    for rep in norm_killed_grid(action):
        d, rows = cocycle_numerators(rep, action)
        assert {i: tuple(F(a, d) for a in row) for i, row in enumerate(rows)} \
            == reference_cocycle(rep, action)


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
def test_norm_matrix_is_the_sum_of_powers(label, rank, perm, e):
    datum, action = diagram_action(label, rank, perm, e)
    expected = identity_matrix(rank)
    for j in range(1, e):
        expected = mat_add(expected, mat_pow(action.automorphism.matrix, j))
    assert action.norm_matrix() == expected


def test_gamma_action_equality_and_hashing_read_only_e_and_the_automorphism():
    datum, fresh = diagram_action("A", 4, (3, 2, 1, 0), 4)
    _, used = diagram_action("A", 4, (3, 2, 1, 0), 4)
    used.norm_matrix()
    assert fresh == used and hash(fresh) == hash(used)
    assert repr(fresh) == repr(used)
    assert [f.name for f in fields(GammaAction)] == ["e", "automorphism"]
    assert trivial_action(2, 3) != trivial_action(2, 4)
    assert len({fresh, used, trivial_action(4, 4)}) == 2


def test_the_identity_is_read_once_per_automorphism(monkeypatch):
    # the identity is the permutation with singleton orbits, whose columns
    # are single progressions: no matrix is built for its types or cocycles
    assert trivial_action(3, 4).automorphism == LatticeAutomorphism((0, 1, 2))
    assert trivial_action(3, 4).automorphism.node_orbits == ((0,), (1,), (2,))
    datum, action = build_root_datum("B", 3), trivial_action(3, 4)
    classes = h1_elements(datum, action)
    tables = [cocycle_numerators(t.orbit_representative, action)
              for t in types_of_classes(datum, action, classes)]

    def refuse(*args, **kwargs):
        raise AssertionError("the identity is tested by building a matrix")

    monkeypatch.setattr(cohomology, "identity_matrix", refuse)
    monkeypatch.setattr(LatticeAutomorphism, "matrix", property(refuse))
    types = types_of_classes(datum, action, classes)
    assert [cocycle_columns(t.orbit_representative, action) for t in types] \
        == [(d, [list(column) for column in zip(*rows)]) for d, rows in tables]


def walk_rows(rep, action):
    d, columns = cocycle_columns(rep, action)
    return d, list(zip(*columns))


def norm_killed_samples(action, rng, count):
    """Random vectors that the norm kills, over multiples d of e: on each
    sigma-orbit O, random numerators with their sum set to a multiple of
    d |O| / e on the largest node."""
    e = action.e
    for _ in range(count):
        d = e * rng.choice((1, 2, 3, 7))
        p = [0] * action.rank
        for orbit in action.automorphism.node_orbits:
            for k in orbit:
                p[k] = rng.randrange(d)
            step = d * len(orbit) // e
            p[orbit[-1]] += rng.randrange(d) * step - sum(p[k] for k in orbit)
        yield tuple(F(a, d) for a in p)


def test_sigma_cycle_columns_match_the_matrix_walk():
    # the cocycle columns of the class representatives, and of random
    # norm-killed vectors, against the matrix walk of the references: the
    # identity at e^r <= 5000 and every diagram symmetry of rank <= 8 at
    # e in {|sigma|, 2|sigma|, 3|sigma|}.  No golden or bench output reaches
    # a nonzero cocycle on a cycle longer than 1.  The identity of rank r is
    # the same action in every type of rank r, so each rank is checked once.
    # An action with more than 5000 classes (the D7 flip at e = 6, the D8
    # flip at e = 4 and 6, up to 139,968 classes) is checked on 5000 of
    # them, drawn with a fixed seed: the walk takes about 0.1 ms a class.
    rng = random.Random(19)
    cases = [(build_root_datum("A", rank), trivial_action(rank, e), 0)
             for rank in range(1, 9) for e in range(1, 13) if e ** rank <= 5000]
    for label, rank in rank_range(8):
        datum = build_root_datum(label, rank)
        cases += [(datum, GammaAction(k * aut.order, aut), 20)
                  for aut in diagram_symmetries(datum) if aut.order > 1 for k in (1, 2, 3)]
    checked = 0
    for datum, action, samples in cases:
        reps = h1_elements(datum, action).representatives
        if len(reps) > 5000:
            reps = rng.sample(reps, 5000)
        for rep in list(reps) + list(norm_killed_samples(action, rng, samples)):
            assert walk_rows(rep, action) == cocycle_numerators(rep, action), (action, rep)
            checked += 1
    assert checked > 5 * 10 ** 4


@pytest.mark.parametrize("n", range(3, 13))
def test_sl_flip_columns_match_the_matrix_walk(n):
    # J and J' both act on the coroot lattice by the flip of A_(n-1); their
    # types differ only in the base point, so their classes are the flip's
    datum, flip = _sl_flip(n)
    rng = random.Random(n)
    reps = list(h1_elements(datum, flip).representatives)
    for rep in reps + list(norm_killed_samples(flip, rng, 20)):
        assert walk_rows(rep, flip) == cocycle_numerators(rep, flip)
