import random
from fractions import Fraction as F
from itertools import product

import pytest

from parahoric.alcove import point_from_root_values
from parahoric.cohomology import (
    GammaAction,
    MODE_LATTICE,
    _trivial_orbit_partition,
    burnside_type_count,
    classes_equal,
    cocycle_of,
    h1_elements,
    h1_structural,
    local_types,
    trivial_action,
)
from parahoric.exactalg import mat_vec_qz, qz_add, qz_vector
from parahoric.rootdata import (
    build_root_datum,
    diagram_automorphism,
    orbit_partition,
    rank_range,
    weyl_element_automorphism,
    weyl_elements,
)


def flip_action(n_nodes, e=2):
    datum = build_root_datum("A", n_nodes)
    flip = tuple(n_nodes - 1 - i for i in range(n_nodes))
    return datum, GammaAction(e, diagram_automorphism(datum, flip), MODE_LATTICE)


def test_gamma_action_validation():
    with pytest.raises(ValueError):
        # order-2 flip cannot act through a group of odd order
        datum, _ = flip_action(2)
        GammaAction(3, diagram_automorphism(datum, (1, 0)), MODE_LATTICE)


def test_char_exclusion_tameness():
    from parahoric.rootdata import identity_automorphism

    with pytest.raises(ValueError):
        GammaAction(4, identity_automorphism(1), "trivial", char_exclusion=2)
    act = GammaAction(3, identity_automorphism(1), "trivial", char_exclusion=2)
    d1 = build_root_datum("A", 1)
    # the prime-to-p model carries exactly the usual e-torsion classes
    assert len(h1_elements(d1, act).representatives) == 3


def test_h1_trivial_is_e_to_the_rank():
    for label, rank in rank_range(4):
        datum = build_root_datum(label, rank)
        for e in (1, 2, 3, 6):
            g = h1_structural(datum, trivial_action(rank, e))
            assert g.order == e ** rank


def test_h1_stein_involutions():
    datum2, a2 = flip_action(2)
    assert h1_structural(datum2, a2).order == 1
    datum3, a3 = flip_action(3)
    g = h1_structural(datum3, a3)
    assert g.order == 2 and g.invariant_factors == (2,)


def test_h1_elements_examples():
    d1 = build_root_datum("A", 1)
    classes = h1_elements(d1, trivial_action(1, 3))
    assert classes.representatives == ((F(0),), (F(1, 3),), (F(2, 3),))
    datum2, a2 = flip_action(2)
    assert h1_elements(datum2, a2).representatives == ((F(0), F(0)),)
    datum3, a3 = flip_action(3)
    reps = h1_elements(datum3, a3).representatives
    assert len(reps) == 2
    # the nontrivial class maps to -1 under the product of the first two
    # diagonal entries; in coroot coordinates x the diagonal is
    # (x1, x2-x1, x3-x2, -x3) and the half-sum test is x2 mod 1
    nontrivial = reps[1]
    assert (nontrivial[1]) % 1 == F(1, 2)


def test_h1_elements_count_matches_structure():
    rng = random.Random(101)
    for _ in range(40):
        label, rank = rng.choice(rank_range(3))
        datum = build_root_datum(label, rank)
        e = rng.choice((1, 2, 3, 4))
        classes = h1_elements(datum, trivial_action(rank, e))
        assert len(classes.representatives) == e ** rank


def test_classes_equal_basics():
    d1 = build_root_datum("A", 1)
    act = trivial_action(1, 2)
    t = (F(1, 2),)
    assert classes_equal(t, t, act)
    assert not classes_equal(t, (F(0),), act)
    with pytest.raises(ValueError):
        classes_equal((F(1, 3),), (F(0),), act)  # not norm-killed


def test_classes_equal_stein_odd_case():
    # for SL3 with the flip, every norm-killed torsion element is a
    # coboundary (H^1 is trivial): the palindromic family diag(z, -2z, z)
    # is exhibited by (1 - gamma) applied to diag(z, z^-1, 1)
    datum, act = flip_action(2)
    zero = qz_vector((0, 0))
    for z in (F(1, 3), F(1, 4), F(2, 5), F(5, 6)):
        # diag(z, -2z, z) has coroot coordinates (z, -z)
        t = qz_vector((z, -z))
        assert all(x == 0 for x in mat_vec_qz(act.norm_matrix(), t))
        assert classes_equal(t, zero, act)


def test_classes_equal_is_equivalence():
    datum, act = flip_action(3)
    norm = act.norm_matrix()
    rng = random.Random(13)
    # random norm-killed vectors with denominators up to 4
    pool = []
    from itertools import product

    for combo in product(range(4), repeat=3):
        t = qz_vector(F(c, 4) for c in combo)
        if all(x == 0 for x in mat_vec_qz(norm, t)):
            pool.append(t)
    sample = rng.sample(pool, min(12, len(pool)))
    for a in sample:
        assert classes_equal(a, a, act)
        for b in sample:
            assert classes_equal(a, b, act) == classes_equal(b, a, act)
            for c in sample[:6]:
                if classes_equal(a, b, act) and classes_equal(b, c, act):
                    assert classes_equal(a, c, act)


def test_cocycle_tables():
    d1 = build_root_datum("A", 1)
    act2 = trivial_action(1, 2)
    table = cocycle_of((F(1, 2),), act2)
    assert table == {0: (F(0),), 1: (F(1, 2),)}
    act3 = trivial_action(1, 3)
    table = cocycle_of((F(1, 3),), act3)
    assert table[2] == (F(2, 3),)
    assert cocycle_of((F(0),), act3) == {i: (F(0),) for i in range(3)}


def test_cocycle_identity():
    # theta(gamma^(i+j)) = theta(gamma^i) + gamma^i theta(gamma^j), including
    # the wrap-around i + j >= e (theta of gamma^e is the norm, which is 0)
    d4 = build_root_datum("D", 4)
    triality = diagram_automorphism(d4, (2, 1, 3, 0))  # 1 -> 3 -> 4 -> 1
    cases = [flip_action(3, e=2), flip_action(4, e=2),
             (d4, GammaAction(3, triality, MODE_LATTICE)),
             (build_root_datum("A", 2), trivial_action(2, 4))]
    for datum, act in cases:
        for rep in h1_elements(datum, act).representatives:
            table = cocycle_of(rep, act)
            e = act.e
            for i in range(e):
                for j in range(e):
                    lhs = table[(i + j) % e]
                    acted = table[j]
                    for _ in range(i):
                        acted = mat_vec_qz(act.matrix, acted)
                    assert lhs == qz_add(table[i], acted)


def test_local_types_sl2_series():
    d1 = build_root_datum("A", 1)
    for e in range(1, 13):
        act = trivial_action(1, e)
        base = (F(1, 2 * e),)  # root value 1/e
        assert len(local_types(d1, act, base=base)) == (e + 1) // 2


def test_local_types_a2_trivial_e2():
    d2 = build_root_datum("A", 2)
    types = local_types(d2, trivial_action(2, 2))
    assert len(types) == 2
    assert types[0].orbit_representative == (F(0), F(0))
    assert types[0].index == 0
    assert sorted(t.orbit_size for t in types) == [1, 3]


def test_local_types_neutral_first_and_lex_sorted():
    d2 = build_root_datum("A", 2)
    types = local_types(d2, trivial_action(2, 3))
    reps = [t.orbit_representative for t in types]
    assert reps[0] == (F(0), F(0))
    assert reps == sorted(reps)


def test_burnside_oracle_trivial_action():
    for label, rank in rank_range(4):
        datum = build_root_datum(label, rank)
        for e in (1, 2, 3, 4):
            got = len(local_types(datum, trivial_action(rank, e)))
            assert got == burnside_type_count(datum, e)


def test_burnside_oracle_with_base_twist():
    for label, rank in [("A", 1), ("A", 2), ("C", 2), ("G", 2), ("B", 3)]:
        datum = build_root_datum(label, rank)
        for e in (2, 3, 4):
            base = _equidistant_base(datum, e)
            got = len(local_types(datum, trivial_action(rank, e), base=base))
            assert got == burnside_type_count(datum, e, base=base)


def _equidistant_base(datum, e):
    from parahoric.alcove import point_from_root_values, reduce_to_alcove

    b = point_from_root_values(datum, tuple(F(1, e) for _ in range(datum.rank)))
    return reduce_to_alcove(datum, b)[0]


def test_local_types_rejects_off_grid_base():
    d1 = build_root_datum("A", 1)
    with pytest.raises(ValueError):
        local_types(d1, trivial_action(1, 2), base=(F(1, 7),))


def test_lattice_mode_requires_lifts():
    datum, act = flip_action(3)
    with pytest.raises(ValueError):
        local_types(datum, act)


def test_lattice_mode_with_explicit_zero_lifts():
    # with t_w = 0 for every fixed Weyl element the two SL4-flip classes
    # stay separate (this is the J' situation, reproduced lattice-side)
    datum, act = flip_action(3)
    types = local_types(datum, act, lift_provider=lambda w: (F(0),) * 3)
    assert len(types) == 2


def test_trivial_engine_matches_generic_lattice_engine():
    # the integer orbit engine for the trivial mode must produce the same
    # partition as the generic Fraction engine run in lattice mode with the
    # identity automorphism and the base twist supplied per Weyl element
    from parahoric.cohomology import _integer_inverse
    from parahoric.exactalg import mat_vec, qz_sub
    from parahoric.rootdata import identity_automorphism

    for label, rank, emax in [("A", 1, 4), ("A", 2, 3), ("C", 2, 3)]:
        datum = build_root_datum(label, rank)
        for e in range(1, emax + 1):
            for base in [None,
                         _equidistant_base(datum, e)]:
                fast = local_types(datum, trivial_action(rank, e), base=base)
                b = base if base is not None else (F(0),) * rank
                generic_action = GammaAction(
                    e, identity_automorphism(rank), MODE_LATTICE
                )

                def provider(w, b=b):
                    w_inv = _integer_inverse(w.matrix)
                    return qz_sub(qz_vector(mat_vec(w_inv, b)), qz_vector(b))

                generic = local_types(datum, generic_action,
                                      lift_provider=provider)
                assert [(t.orbit_representative, t.orbit_size) for t in fast] \
                    == [(t.orbit_representative, t.orbit_size) for t in generic]


def test_oracle_equivalence_randomized():
    # structural vs element count over randomized admissible actions
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        label, rank = rng.choice(rank_range(4))
        datum = build_root_datum(label, rank)
        kind = rng.choice(("diagram", "weyl", "trivial"))
        if kind == "trivial":
            aut = None
            e = rng.randint(1, 6)
            action = trivial_action(rank, e)
        elif kind == "diagram":
            aut = _random_diagram_automorphism(datum, rng)
            if aut is None:
                continue
            mult = rng.randint(1, 6 // aut.order)
            e = aut.order * mult
            action = GammaAction(e, aut, MODE_LATTICE)
        else:
            elements = weyl_elements(datum, cap=10 ** 4)
            w = rng.choice(elements)
            aut = weyl_element_automorphism(w)
            if aut.order > 6:
                continue
            mult = rng.randint(1, 6 // aut.order)
            e = aut.order * mult
            action = GammaAction(e, aut, MODE_LATTICE)
        classes = h1_elements(datum, action)
        assert len(classes.representatives) == h1_structural(datum, action).order
        checked += 1
    assert checked == 200


def _random_diagram_automorphism(datum, rng):
    from parahoric.rootdata import diagram_automorphism as build

    n = datum.rank
    candidates = [tuple(range(n))]
    if datum.label == "A" and n >= 2:
        candidates.append(tuple(n - 1 - i for i in range(n)))
    if datum.label == "D" and n == 4:
        candidates.append((2, 1, 3, 0))
        candidates.append((3, 1, 0, 2))
        candidates.append((0, 1, 3, 2))
    try:
        return build(datum, rng.choice(candidates))
    except ValueError:
        return None


def trivial_orbit_partition_reference(datum, e, base):
    """Orbits of T[e] under t -> s_i(t + b) - b by ``orbit_partition`` on
    numerator tuples, one tuple reflection per generator application."""
    r = datum.rank
    b = tuple(F(x) for x in base) if base is not None else (F(0),) * r
    shifts = [int(datum.pairing(tuple(int(k == i) for k in range(r)), b) * e)
              for i in range(r)]

    def reflect(i, tau):
        new_i = (tau[i] - sum(datum.cartan[i][j] * tau[j] for j in range(r))
                 - shifts[i]) % e
        return tau[:i] + (new_i,) + tau[i + 1:]

    maps = [(lambda tau, i=i: reflect(i, tau)) for i in range(r)]
    orbits = orbit_partition(list(product(range(e), repeat=r)), maps)
    return sorted((tuple(F(c, e) for c in orbit[0]), len(orbit)) for orbit in orbits)


def test_packed_orbit_partition_matches_the_tuple_reference():
    rng = random.Random(61)
    for label, rank in rank_range(4):
        datum = build_root_datum(label, rank)
        for e in range(1, 5):
            bases = [None, _equidistant_base(datum, e)]
            # a grid point outside the alcove: root values k/e
            values = tuple(F(rng.randint(-2 * e, 2 * e), e) for _ in range(rank))
            bases.append(point_from_root_values(datum, values))
            for base in bases:
                assert _trivial_orbit_partition(datum, e, base) \
                    == trivial_orbit_partition_reference(datum, e, base), (label, rank, e, base)
