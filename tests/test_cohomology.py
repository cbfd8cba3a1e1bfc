import random
from fractions import Fraction as F
from itertools import product

import pytest

from parahoric.alcove import point_from_root_values, simple_root_values
from parahoric.cohomology import (
    GammaAction,
    _trivial_orbit_partition,
    burnside_type_count,
    classes_equal,
    cocycle_of,
    h1_elements,
    h1_structural,
    local_types,
    require_root_values_on_grid,
    trivial_action,
)
from parahoric.exactalg import mat_vec_qz, qz_add, qz_vector
from parahoric.rootdata import (
    build_root_datum,
    diagram_automorphism,
    orbit_partition,
    rank_range,
    simple_reflection,
    weyl_element_automorphism,
    weyl_elements,
)

from .test_rootdata import flip


def flip_action(n_nodes, e=2):
    datum = build_root_datum("A", n_nodes)
    flip = tuple(n_nodes - 1 - i for i in range(n_nodes))
    return datum, GammaAction(e, diagram_automorphism(datum, flip))


def test_gamma_action_validation():
    with pytest.raises(ValueError):
        # order-2 flip cannot act through a group of odd order
        datum, _ = flip_action(2)
        GammaAction(3, diagram_automorphism(datum, (1, 0)))


def test_char_exclusion_tameness():
    from parahoric.rootdata import identity_automorphism

    with pytest.raises(ValueError):
        GammaAction(4, identity_automorphism(1), char_exclusion=2)
    act = GammaAction(3, identity_automorphism(1), char_exclusion=2)
    d1 = build_root_datum("A", 1)
    # the prime-to-p model carries exactly the usual e-torsion classes
    assert len(h1_elements(d1, act).representatives) == 3
    # a residue characteristic is 0 or a prime
    for p in (1, 4, 9, -1, -3):
        with pytest.raises(ValueError, match="0 or a prime"):
            GammaAction(5, identity_automorphism(1), char_exclusion=p)
    for p in (0, 2, 7, 101):
        assert GammaAction(3, identity_automorphism(1), char_exclusion=p)


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
             (d4, GammaAction(3, triality)),
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
    rng = random.Random(13)
    for label, rank in [("A", 1), ("A", 2), ("C", 2), ("G", 2), ("B", 3)]:
        datum = build_root_datum(label, rank)
        for e in (2, 3, 4):
            # far and negative grid bases: root values -13 + k/e and 17 + k/e
            far = [point_from_root_values(datum, tuple(
                F(rng.choice((-13, 17)) * e + rng.randint(0, e - 1), e)
                for _ in range(rank))) for _ in range(2)]
            for base in [_equidistant_base(datum, e)] + far:
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


def grid_point_reference(datum, base, e):
    """The check the single simple-root check replaced: every positive root
    value, paired as a Fraction, lies in (1/e)Z."""
    return all((datum.pairing(root, base) * e).denominator == 1
               for root in datum.positive_roots)


def test_simple_root_grid_check_matches_the_all_roots_check():
    rng = random.Random(29)
    for label, rank in rank_range(8):
        datum = build_root_datum(label, rank)
        for e in (1, 2, 3, 6):
            points = []
            for denominators in ((e,), (e, 5 * e, 7), (2 * e, 3, 1)):
                for _ in range(3):
                    points.append(point_from_root_values(datum, tuple(
                        F(rng.randint(-20 * e, 20 * e), rng.choice(denominators))
                        for _ in range(rank))))
            # coroot coordinates off the grid whose root values may lie on it
            points.append(tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)) * e)
                                for _ in range(rank)))
            decisions = set()
            for x in points:
                try:
                    require_root_values_on_grid(simple_root_values(datum, x), e)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == grid_point_reference(datum, x, e), (datum.name, e, x)
                decisions.add(accepted)
            assert decisions == {True, False}


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


def test_lattice_types_reject_mismatched_arguments():
    # lifts only for a nontrivial action, a base only for the trivial one,
    # and a nontrivial action only through a diagram symmetry
    d2 = build_root_datum("A", 2)
    with pytest.raises(ValueError, match="lift_provider"):
        local_types(d2, trivial_action(2, 2), lift_provider=lambda w: (F(0),) * 2)
    datum, act = flip_action(3)
    with pytest.raises(ValueError, match="base"):
        local_types(datum, act, lift_provider=lambda w: (F(0),) * 3, base=(F(0),) * 3)
    aut = weyl_element_automorphism(simple_reflection(d2, 1))
    with pytest.raises(ValueError):
        local_types(d2, GammaAction(aut.order, aut), lift_provider=lambda w: (F(0),) * 2)


def _integer_inverse(M):
    from parahoric.exactalg import mat_mul, smith_normal_form

    U, D, V = smith_normal_form(M)
    n = len(M)
    if any(abs(D[i][i]) != 1 for i in range(n)):
        raise ValueError("matrix is not unimodular")
    scale = tuple(tuple(V[i][j] * D[j][j] for j in range(n)) for i in range(n))
    return mat_mul(scale, U)


def full_weyl_types(datum, action, lift):
    """Reference: the orbits under every element of the fixed subgroup, found
    by filtering W (all of W for the identity), each applied as
    t -> w^-1(t) + lift(w)."""
    from parahoric.cohomology import class_orbits
    from parahoric.exactalg import ImageMembership, mat_mul

    A = action.matrix
    maps = []
    for w in weyl_elements(datum):
        if mat_mul(A, w.matrix) == mat_mul(w.matrix, A):
            maps.append(lambda t, M=_integer_inverse(w.matrix), t_w=qz_vector(lift(w)):
                        qz_add(mat_vec_qz(M, t), t_w))
    member = ImageMembership(action.coboundary_matrix())
    classes = h1_elements(datum, action)
    return class_orbits(classes.representatives, action.norm_matrix(),
                        member.invariant, maps)


@pytest.mark.parametrize("label,rank,perm,e", [
    ("A", 3, None, 2), ("A", 3, None, 4), ("A", 4, None, 4), ("A", 5, None, 2),
    ("D", 4, (2, 1, 3, 0), 3), ("D", 4, (2, 1, 3, 0), 6), ("D", 4, None, 4)])
def test_lattice_types_match_the_full_weyl_path(label, rank, perm, e):
    from parahoric.exactalg import mat_pow, mat_vec, qz_sub

    datum = build_root_datum(label, rank)
    aut = diagram_automorphism(datum, perm) if perm else flip(datum)
    action = GammaAction(e, aut)
    # zero lifts, and the lifts w^-1(c) - c, which conjugate the linear
    # action by the translation by c, for c = 1/e on the sigma-orbit of node 1
    powers = [mat_pow(aut.matrix, k) for k in range(aut.order)]
    c = tuple(F(int(any(P[i][0] for P in powers)), e) for i in range(rank))
    assert mat_vec(aut.matrix, c) == c
    lifts = [lambda w: (F(0),) * rank,
             lambda w: qz_sub(qz_vector(mat_vec(_integer_inverse(w.matrix), c)),
                              qz_vector(c))]
    for lift in lifts:
        got = local_types(datum, action, lift_provider=lift)
        assert got == full_weyl_types(datum, action, lift)


@pytest.mark.parametrize("label,rank,e,count", [
    ("D", 5, 4, 9), ("E", 6, 2, 2), ("E", 6, 4, 5), ("A", 7, 2, 2)])
def test_lattice_type_counts_with_zero_lifts(label, rank, e, count):
    datum = build_root_datum(label, rank)
    action = GammaAction(e, flip(datum))
    assert len(local_types(datum, action, lift_provider=lambda w: (F(0),) * rank)) == count


def test_lattice_types_consult_only_the_generators(monkeypatch):
    import parahoric.cohomology as cohomology
    import parahoric.rootdata as rootdata

    def refuse(*args, **kwargs):
        raise AssertionError("the fixed subgroup must not be enumerated")

    monkeypatch.setattr(rootdata, "weyl_elements", refuse)
    monkeypatch.setattr(cohomology, "weyl_elements", refuse)
    for label, rank, perm, e, orbits in [("A", 5, None, 2, 3),
                                         ("D", 4, (2, 1, 3, 0), 3, 2),
                                         ("E", 6, None, 4, 4)]:
        datum = build_root_datum(label, rank)
        action = GammaAction(e, diagram_automorphism(datum, perm) if perm else flip(datum))
        calls = []

        def lift(w, rank=rank):
            calls.append(w)
            return (F(0),) * rank

        assert local_types(datum, action, lift_provider=lift)
        # one call per sigma-orbit of the nodes
        assert len(calls) == orbits


def test_trivial_engine_matches_generic_lattice_engine():
    # the integer orbit engine of the trivial action must produce the same
    # partition as the generic Fraction engine run over every element of W,
    # each as t -> w^-1(t) + w^-1(b) - b
    from parahoric.exactalg import mat_vec, qz_sub

    for label, rank, emax in [("A", 1, 4), ("A", 2, 3), ("C", 2, 3)]:
        datum = build_root_datum(label, rank)
        for e in range(1, emax + 1):
            action = trivial_action(rank, e)
            for base in [None,
                         _equidistant_base(datum, e)]:
                fast = local_types(datum, action, base=base)
                b = base if base is not None else (F(0),) * rank

                def lift(w, b=b):
                    w_inv = _integer_inverse(w.matrix)
                    return qz_sub(qz_vector(mat_vec(w_inv, b)), qz_vector(b))

                generic = full_weyl_types(datum, action, lift)
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
            action = GammaAction(e, aut)
        else:
            elements = weyl_elements(datum, cap=10 ** 4)
            w = rng.choice(elements)
            aut = weyl_element_automorphism(w)
            if aut.order > 6:
                continue
            mult = rng.randint(1, 6 // aut.order)
            e = aut.order * mult
            action = GammaAction(e, aut)
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
