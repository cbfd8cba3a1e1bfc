import random
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest

import parahoric.cohomology
from parahoric.alcove import as_point, point_from_root_values, simple_root_values
from parahoric.cohomology import (
    GammaAction,
    _burnside_table,
    _h1_structure,
    burnside_type_count,
    cocycle_of,
    h1_elements,
    h1_structural,
    local_types,
    require_root_values_on_grid,
    trivial_action,
    types_of_classes,
)
from parahoric.exactalg import (
    common_numerators,
    identity_matrix,
    mat_sub,
    mat_vec,
    qz_vector,
    smith_normal_form,
)
from parahoric.rootdata import (
    EnumerationCapError,
    LatticeAutomorphism,
    build_root_datum,
    diagram_automorphism,
    orbit_partition,
    weyl_elements,
)

from .references import (
    ImageMembership,
    class_orbits,
    classes_equal,
    grid_h1_elements,
    mat_pow,
    mat_vec_qz,
    pairing,
    qz_add,
    qz_sub,
    rank_range,
    simple_reflection,
    weyl_element_automorphism,
)
from .test_rootdata import flip


def flip_action(n_nodes, e=2):
    datum = build_root_datum("A", n_nodes)
    flip = tuple(n_nodes - 1 - i for i in range(n_nodes))
    return datum, GammaAction(e, diagram_automorphism(datum, flip))


def test_permutation_orders_take_no_matrix_product(monkeypatch):
    import parahoric.rootdata as rootdata

    e6, d4 = build_root_datum("E", 6), build_root_datum("D", 4)

    def refuse(*args, **kwargs):
        raise AssertionError("the order of a permutation matrix needs no matrix product")

    monkeypatch.setattr(rootdata, "mat_mul", refuse)
    monkeypatch.setattr(rootdata, "matrix_order", refuse)
    assert trivial_action(8, 2).automorphism.order == 1
    e6_flip = diagram_automorphism(e6, (5, 1, 4, 3, 2, 0))
    assert e6_flip.order == 2
    assert GammaAction(4, e6_flip).automorphism.order == 2
    triality = GammaAction(3, diagram_automorphism(d4, (2, 1, 3, 0)))
    assert triality.automorphism.order == 3
    with pytest.raises(ValueError, match="must divide"):
        GammaAction(3, diagram_automorphism(e6, (5, 1, 4, 3, 2, 0)))


def test_local_types_refuses_its_input_before_listing_classes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("H^1 must not be listed before the input is checked")

    monkeypatch.setattr(parahoric.cohomology, "h1_elements", refuse)
    e6 = build_root_datum("E", 6)
    # a Weyl element of order 2 is no diagram symmetry
    reflection = GammaAction(10, weyl_element_automorphism(simple_reflection(e6, 1)))
    with pytest.raises(ValueError, match="not a Dynkin-diagram symmetry"):
        local_types(e6, reflection)
    # the root value 1/2 at node 1 against 0 at node 6
    half = point_from_root_values(e6, (F(1, 2),) + (F(0),) * 5)
    with pytest.raises(ValueError, match="is not fixed by the diagram automorphism"):
        local_types(e6, GammaAction(2, flip(e6)), base=half)
    with pytest.raises(ValueError, match=r"must lie on the \(1/9\)-grid"):
        local_types(e6, trivial_action(6, 9), base=half)


def test_h1_elements_refuses_non_permutation_actions_before_any_work(monkeypatch):
    a2 = build_root_datum("A", 2)
    minus_one = GammaAction(2, LatticeAutomorphism(((-1, 0), (0, -1))))
    reflection = GammaAction(4, weyl_element_automorphism(simple_reflection(a2, 1)))
    # the grid oracle lists 1 and 2 classes for them
    assert len(grid_h1_elements(a2, minus_one).representatives) == 1
    assert len(grid_h1_elements(a2, reflection).representatives) == 2

    def refuse(*args, **kwargs):
        raise AssertionError("no work may start for a refused action")

    monkeypatch.setattr(parahoric.cohomology, "h1_structural", refuse)
    for action in (minus_one, reflection):
        with pytest.raises(ValueError, match="only for actions that permute the nodes"):
            h1_elements(a2, action)
        with pytest.raises(ValueError, match="not a Dynkin-diagram symmetry"):
            local_types(a2, action)


def test_gamma_action_validation():
    with pytest.raises(ValueError):
        # order-2 flip cannot act through a group of odd order
        datum, _ = flip_action(2)
        GammaAction(3, diagram_automorphism(datum, (1, 0)))


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
            for base in _burnside_bases(datum, e, rng):
                got = len(local_types(datum, trivial_action(rank, e), base=base))
                assert got == burnside_type_count(datum, e, base=base)


def _equidistant_base(datum, e):
    from parahoric.alcove import point_from_root_values, reduce_to_alcove

    b = point_from_root_values(datum, tuple(F(1, e) for _ in range(datum.rank)))
    return reduce_to_alcove(datum, b)[0]


def _burnside_reference(datum, e, base=None):
    """Burnside's count with one Smith form of w - 1 per Weyl element on
    every call: the fixed points of t -> w(t + b) - b on T[e] solve
    d_i y_i = c_i (mod e) for c = U e (b - w b)."""
    r = datum.rank
    N, B = common_numerators(as_point(base) if base is not None else (F(0),) * r)
    elements = weyl_elements(datum, cap=10 ** 4)
    total = 0
    for w in elements:
        twist = [(b - wb) * e for b, wb in zip(B, mat_vec(w.matrix, B))]
        assert all(t % N == 0 for t in twist)
        U, D, _ = smith_normal_form(mat_sub(w.matrix, identity_matrix(r)))
        rhs = mat_vec(U, [t // N for t in twist])
        count = 1
        for i in range(r):
            g = gcd(abs(D[i][i]), e)
            count = count * g if rhs[i] % g == 0 else 0
        total += count
    assert total % len(elements) == 0
    return total // len(elements)


def _burnside_bases(datum, e, rng):
    """The origin, the equidistant base and two far or negative grid bases
    with root values -13 + k/e or 17 + k/e."""
    far = [point_from_root_values(datum, tuple(
        F(rng.choice((-13, 17)) * e + rng.randint(0, e - 1), e)
        for _ in range(datum.rank))) for _ in range(2)]
    return [None, _equidistant_base(datum, e)] + far


@pytest.mark.parametrize("label,rank,orders", [
    *((label, rank, range(1, 6)) for label, rank in rank_range(4)),  # F4 among them
    ("D", 5, (2, 3)),
])
def test_burnside_table_matches_the_per_element_reference(label, rank, orders):
    rng = random.Random(31 * rank + ord(label))
    datum = build_root_datum(label, rank)
    for e in orders:
        for base in _burnside_bases(datum, e, rng):
            assert burnside_type_count(datum, e, base=base) \
                == _burnside_reference(datum, e, base), (label, rank, e, base)


def test_burnside_warm_table_needs_no_closure_and_no_smith_form(monkeypatch):
    _burnside_table.cache_clear()
    d5 = build_root_datum("D", 5)
    base = _burnside_bases(d5, 3, random.Random(5))[2]
    expected = len(local_types(d5, trivial_action(5, 3), base=base))
    burnside_type_count(d5, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("the warm table must not be rebuilt")

    monkeypatch.setattr(parahoric.cohomology, "weyl_elements", refuse)
    monkeypatch.setattr(parahoric.cohomology, "smith_normal_form", refuse)
    assert burnside_type_count(d5, 3, base=base) == expected


@pytest.mark.parametrize("label,rank,classes", [("D", 5, 18), ("F", 4, 25)])
def test_burnside_cold_table_runs_one_smith_form_per_class(monkeypatch, label, rank, classes):
    _burnside_table.cache_clear()
    datum = build_root_datum(label, rank)
    expected = len(local_types(datum, trivial_action(rank, 2)))
    calls = []
    snf = parahoric.cohomology.smith_normal_form

    def counted(M):
        calls.append(M)
        return snf(M)

    monkeypatch.setattr(parahoric.cohomology, "smith_normal_form", counted)
    assert burnside_type_count(datum, 2) == expected
    assert len(calls) == classes


def test_burnside_class_sizes_must_add_up_to_the_weyl_order(monkeypatch):
    _burnside_table.cache_clear()
    weyl_classes = parahoric.cohomology.weyl_classes
    monkeypatch.setattr(parahoric.cohomology, "weyl_classes",
                        lambda datum, elements: weyl_classes(datum, elements)[1:])
    with pytest.raises(AssertionError, match="do not add up to \\|W\\| = 8"):
        burnside_type_count(build_root_datum("B", 2), 2)
    assert _burnside_table.cache_info().currsize == 0


def test_burnside_count_is_invariant_under_w_and_coroot_shifts():
    # b lies in (1/e) P^v and W acts trivially on P^v / Q^v, so w b + lambda / e
    # gives the same set (b + (1/e) Q^v) / Q^v and the same orbit count
    rng = random.Random(71)
    for label, rank in rank_range(4):
        datum = build_root_datum(label, rank)
        elements = weyl_elements(datum)
        for e in range(1, 6):
            for base in _burnside_bases(datum, e, rng):
                b = as_point(base) if base is not None else (F(0),) * rank
                expected = burnside_type_count(datum, e, base=b)
                for _ in range(2):
                    w = rng.choice(elements)
                    shift = [rng.randint(-4, 4) for _ in range(rank)]
                    moved = tuple(x + F(m, e) for x, m in zip(mat_vec(w.matrix, b), shift))
                    assert burnside_type_count(datum, e, base=moved) == expected, \
                        (label, rank, e, b, w.matrix, shift)


def test_h1_structural_warm_runs_no_smith_form_and_still_checks(monkeypatch):
    _h1_structure.cache_clear()
    datum, action = flip_action(5, e=4)
    cold = h1_structural(datum, action)

    def refuse(*args, **kwargs):
        raise AssertionError("the warm structure must not be recomputed")

    monkeypatch.setattr(parahoric.cohomology, "smith_normal_form", refuse)
    monkeypatch.setattr(parahoric.cohomology, "kernel_basis", refuse)
    # an equal action built anew finds the same entry
    _, again = flip_action(5, e=4)
    assert h1_structural(datum, again) == cold
    # the rank check runs on every call
    with pytest.raises(ValueError, match="rank mismatch"):
        h1_structural(build_root_datum("A", 4), action)
    # the element list must still match the warm count
    assert len(h1_elements(datum, action).representatives) == cold.order
    monkeypatch.setattr(parahoric.cohomology, "_radices",
                        lambda a: [1] * a.rank)
    with pytest.raises(AssertionError, match="element model found 1 classes"):
        h1_elements(datum, action)


def test_burnside_weyl_cap_refuses_whether_the_table_is_cold_or_warm():
    _burnside_table.cache_clear()
    d5 = build_root_datum("D", 5)
    message = "Weyl closure for D5: \\|W\\| = 1920 exceeds cap 100"
    with pytest.raises(EnumerationCapError, match=message):
        burnside_type_count(d5, 2, cap=100)
    # refused before the closure: no table was built
    assert _burnside_table.cache_info().currsize == 0
    assert burnside_type_count(d5, 2) == 4
    with pytest.raises(EnumerationCapError, match=message):
        burnside_type_count(d5, 2, cap=100)


def test_burnside_refuses_e7_at_the_default_cap():
    with pytest.raises(EnumerationCapError) as info:
        burnside_type_count(build_root_datum("E", 7), 2)
    assert str(info.value) == "Weyl closure for E7: |W| = 2903040 exceeds cap 1000000"


def test_burnside_tables_of_equal_weyl_order_stay_apart():
    _burnside_table.cache_clear()
    for label in ("B", "C"):
        datum = build_root_datum(label, 3)
        for e in (2, 3, 4):
            base = _equidistant_base(datum, e)
            assert burnside_type_count(datum, e, base=base) \
                == len(local_types(datum, trivial_action(3, e), base=base)), (label, e)
    assert _burnside_table.cache_info().currsize == 2


@pytest.mark.parametrize("e", [0, -2])
def test_burnside_rejects_a_nonpositive_order(e):
    with pytest.raises(ValueError, match="the order of Gamma must be positive"):
        burnside_type_count(build_root_datum("A", 2), e)


@pytest.mark.parametrize("base", [(1,), (0, 0, 0)])
def test_wrong_length_base_is_refused(base):
    d2 = build_root_datum("A", 2)
    action = trivial_action(2, 2)
    message = f"A2 needs 2 coordinates, not {len(base)}"
    with pytest.raises(ValueError, match=message):
        local_types(d2, action, base=base)
    with pytest.raises(ValueError, match=message):
        types_of_classes(d2, action, h1_elements(d2, action), base=base)
    with pytest.raises(ValueError, match=message):
        burnside_type_count(d2, 2, base=base)


def test_local_types_rejects_off_grid_base():
    d1 = build_root_datum("A", 1)
    with pytest.raises(ValueError):
        local_types(d1, trivial_action(1, 2), base=(F(1, 7),))


def grid_point_reference(datum, base, e):
    """The check the single simple-root check replaced: every positive root
    value, paired as a Fraction, lies in (1/e)Z."""
    return all((pairing(datum, root, base) * e).denominator == 1
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


def test_lattice_mode_with_explicit_zero_lifts():
    # with the zero base every generator of W^sigma acts untwisted and the
    # two SL4-flip classes stay separate (the J' situation, lattice-side)
    datum, act = flip_action(3)
    types = local_types(datum, act, base=(F(0),) * 3)
    assert len(types) == 2
    assert local_types(datum, act) == types


def test_lattice_types_reject_mismatched_arguments():
    # a base must be fixed by sigma and lie on the (1/e)-grid, and a
    # nontrivial action must come from a diagram symmetry
    datum, act = flip_action(3)
    classes = h1_elements(datum, act)
    not_fixed = point_from_root_values(datum, (F(1, 2), F(0), F(0)))
    with pytest.raises(ValueError, match="is not fixed by the diagram automorphism"):
        local_types(datum, act, base=not_fixed)
    with pytest.raises(ValueError, match="is not fixed by the diagram automorphism"):
        types_of_classes(datum, act, classes, base=not_fixed)
    off_grid = point_from_root_values(datum, (F(1, 3), F(0), F(1, 3)))
    with pytest.raises(ValueError, match="must lie on the \\(1/2\\)-grid"):
        local_types(datum, act, base=off_grid)
    with pytest.raises(ValueError, match="must lie on the \\(1/2\\)-grid"):
        types_of_classes(datum, act, classes, base=off_grid)
    # the fixed base with root value 1/2 on both ends is accepted
    assert local_types(datum, act, base=point_from_root_values(datum, (F(1, 2), F(0), F(1, 2))))
    d2 = build_root_datum("A", 2)
    aut = weyl_element_automorphism(simple_reflection(d2, 1))
    action = GammaAction(aut.order, aut)
    with pytest.raises(ValueError, match="not a Dynkin-diagram symmetry"):
        types_of_classes(d2, action, grid_h1_elements(d2, action))


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
    t -> w^-1(t) + lift(w); the lift w^-1(c) - c is the base point c."""
    from parahoric.exactalg import mat_mul

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
    datum = build_root_datum(label, rank)
    aut = diagram_automorphism(datum, perm) if perm else flip(datum)
    action = GammaAction(e, aut)
    # the zero base against zero lifts, and the base c = 1/e on the
    # sigma-orbit of node 1 against the lifts w^-1(c) - c, which conjugate
    # the linear action by the translation by c
    powers = [mat_pow(aut.matrix, k) for k in range(aut.order)]
    c = tuple(F(int(any(P[i][0] for P in powers)), e) for i in range(rank))
    assert mat_vec(aut.matrix, c) == c
    zero = local_types(datum, action)
    assert zero == full_weyl_types(datum, action, lambda w: (F(0),) * rank)

    def lift(w):
        return qz_sub(qz_vector(mat_vec(_integer_inverse(w.matrix), c)), qz_vector(c))

    assert local_types(datum, action, base=c) == full_weyl_types(datum, action, lift)


@pytest.mark.parametrize("label,rank,e,count", [
    ("D", 5, 4, 9), ("E", 6, 2, 2), ("E", 6, 4, 5), ("A", 7, 2, 2)])
def test_lattice_type_counts_with_zero_lifts(label, rank, e, count):
    datum = build_root_datum(label, rank)
    action = GammaAction(e, flip(datum))
    assert len(local_types(datum, action)) == count


def test_lattice_types_consult_only_the_generators(monkeypatch):
    # W^sigma is never enumerated: each generator w_J, one per sigma-orbit of
    # the nodes (the simple reflections for the identity), reaches the orbit
    # engine as exactly one row, on the digit of the largest node of J
    import parahoric.cohomology as cohomology
    import parahoric.rootdata as rootdata

    def refuse(*args, **kwargs):
        raise AssertionError("the fixed subgroup must not be enumerated")

    monkeypatch.setattr(rootdata, "weyl_elements", refuse)
    monkeypatch.setattr(cohomology, "weyl_elements", refuse)
    engine = cohomology._packed_orbits
    for label, rank, perm, e in [("A", 5, None, 2), ("D", 4, (2, 1, 3, 0), 3),
                                 ("E", 6, None, 4), ("E", 6, tuple(range(6)), 3),
                                 ("B", 4, tuple(range(4)), 2)]:
        datum = build_root_datum(label, rank)
        action = GammaAction(e, diagram_automorphism(datum, perm) if perm else flip(datum))
        calls = []

        def recorded(radices, rows):
            calls.append(list(rows))
            return engine(radices, rows)

        monkeypatch.setattr(cohomology, "_packed_orbits", recorded)
        for base in (None, (F(0),) * rank):
            assert local_types(datum, action, base=base)
        orbits = sorted(action.automorphism.node_orbits)
        assert len(calls) == 2
        for rows in calls:
            assert [k for k, _, _ in rows] == [J[-1] for J in orbits], (label, rank, perm)


def test_trivial_engine_matches_generic_lattice_engine():
    # the integer orbit engine of the trivial action must produce the same
    # partition as the generic Fraction engine run over every element of W,
    # each as t -> w^-1(t) + w^-1(b) - b
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
        # the library lists classes for permutation actions only
        listing = grid_h1_elements if kind == "weyl" else h1_elements
        classes = listing(datum, action)
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
    shifts = [int(pairing(datum, tuple(int(k == i) for k in range(r)), b) * e)
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
                got = local_types(datum, trivial_action(rank, e), base=base)
                assert [(t.orbit_representative, t.orbit_size) for t in got] \
                    == trivial_orbit_partition_reference(datum, e, base), (label, rank, e, base)
