import random
import re
import tracemalloc
from fractions import Fraction as F
from itertools import permutations

import pytest

import parahoric.rootdata as rootdata
from parahoric.exactalg import (
    identity_matrix,
    mat_mul,
)
from parahoric.rootdata import (
    EnumerationCapError,
    build_root_datum,
    diagram_automorphism,
    fixed_weyl_generators,
    identity_automorphism,
    orbit_partition,
    positive_root_count,
    weyl_classes,
    weyl_elements,
    weyl_order,
)

from .references import (
    MatrixAutomorphism,
    all_coroots,
    cofactor_adjugate,
    coroots_by_lengths,
    det_int,
    fixed_weyl_generators_by_rows,
    mat_pow,
    mat_vec,
    matrix_order,
    pairing,
    rank_range,
    simple_reflection,
    weyl_classes_by_conjugation,
    weyl_elements_by_rows,
    weyl_generators,
    weyl_matrices,
)

POSITIVE_ROOT_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16,
    ("D", 4): 12, ("D", 5): 20,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
}

MARKS = {
    ("A", 1): (1,), ("A", 4): (1, 1, 1, 1),
    ("B", 3): (1, 2, 2), ("C", 3): (2, 2, 1),
    ("D", 4): (1, 2, 1, 1), ("G", 2): (3, 2), ("F", 4): (2, 3, 4, 2),
    ("E", 6): (1, 2, 2, 3, 2, 1),
    ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
}

WEYL_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
    ("A", 5): 720, ("A", 6): 5040, ("A", 7): 40320, ("A", 8): 362880,
    ("B", 2): 8, ("B", 3): 48, ("B", 4): 384, ("B", 5): 3840,
    ("B", 6): 46080, ("B", 7): 645120, ("B", 8): 10321920,
    ("C", 2): 8, ("C", 3): 48, ("C", 4): 384, ("C", 5): 3840,
    ("C", 6): 46080, ("C", 7): 645120, ("C", 8): 10321920,
    ("D", 4): 192, ("D", 5): 1920, ("D", 6): 23040, ("D", 7): 322560,
    ("D", 8): 5160960,
    ("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
    ("G", 2): 12, ("F", 4): 1152,
}

# above every order in WEYL_ORDERS; weyl_order itself enumerates nothing
ORDER_CAP = 10 ** 9


@pytest.mark.parametrize("label,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_positive_root_counts(label, rank):
    datum = build_root_datum(label, rank)
    assert len(datum.positive_roots) == POSITIVE_ROOT_COUNTS[(label, rank)]


@pytest.mark.parametrize("label,rank", sorted(MARKS))
def test_marks(label, rank):
    datum = build_root_datum(label, rank)
    assert datum.marks == MARKS[(label, rank)]


def test_cartan_pairing_is_cartan_matrix():
    datum = build_root_datum("F", 4)
    n = datum.rank
    for i in range(n):
        root = tuple(1 if k == i else 0 for k in range(n))
        for j in range(n):
            coroot = tuple(1 if k == j else 0 for k in range(n))
            assert pairing(datum, root, coroot) == datum.cartan[i][j]


def pairing_reference(datum, root, coweight):
    """<beta, x> as the r^2 sum of Fraction products sum_ij beta_i c_ij x_j."""
    n = datum.rank
    return sum(F(root[i]) * datum.cartan[i][j] * F(coweight[j])
               for i in range(n) for j in range(n))


def test_pairing_matches_the_fraction_sum():
    rng = random.Random(88)
    for label, rank in rank_range(8):
        datum = build_root_datum(label, rank)
        roots = list(datum.positive_roots) + [datum.marks]
        roots.append(tuple(-c for c in datum.marks))  # not a positive root
        for _ in range(2):
            x = tuple(F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(rank))
            for root in roots:
                value = pairing(datum, root, x)
                assert type(value) is F
                assert value == pairing_reference(datum, root, x)


def test_invalid_labels_rejected():
    for label, rank in [("A", 0), ("B", 1), ("D", 3), ("E", 5), ("F", 3),
                        ("G", 3), ("H", 2)]:
        with pytest.raises(ValueError):
            build_root_datum(label, rank)


@pytest.mark.parametrize("label,rank", rank_range(8))
def test_the_closed_form_count_is_the_closure(label, rank):
    datum = build_root_datum(label, rank)
    assert positive_root_count(label, rank) == len(datum.positive_roots)
    if (label, rank) in POSITIVE_ROOT_COUNTS:
        assert positive_root_count(label, rank) == POSITIVE_ROOT_COUNTS[(label, rank)]


def test_bad_labels_and_ranks_keep_their_messages():
    cases = {("A", 0): "A_n needs n >= 1", ("B", 1): "B_n needs n >= 2",
             ("C", 1): "C_n needs n >= 2", ("D", 3): "D_n needs n >= 4",
             ("E", 9): "E_n needs n in {6, 7, 8}", ("F", 3): "F_n needs n = 4",
             ("G", 3): "G_n needs n = 2", ("H", 2): "unknown label 'H'"}
    for (label, rank), message in cases.items():
        for cap in (1, 10 ** 6):
            with pytest.raises(ValueError) as err:
                build_root_datum(label, rank, cap)
            assert str(err.value) == message


def test_root_closure_refused_over_the_cap_before_it_starts(monkeypatch):
    assert build_root_datum("E", 8, cap=7680) is build_root_datum("E", 8)
    with pytest.raises(EnumerationCapError) as err:
        build_root_datum("E", 8, cap=7679)
    assert str(err.value) == "root closure for E8: |Phi+| * r^2 = 7680 exceeds cap 7679"

    def no_closure(cartan):
        raise AssertionError("the root closure must not start")

    monkeypatch.setattr(rootdata, "_positive_roots", no_closure)
    # |Phi^+| r^2 just above the default cap, in each infinite family
    for label, rank, estimate in (("A", 38, 741 * 38 ** 2), ("B", 32, 32 ** 4),
                                  ("C", 32, 32 ** 4), ("D", 32, 32 * 31 * 32 ** 2)):
        with pytest.raises(EnumerationCapError) as err:
            build_root_datum(label, rank)
        assert str(err.value) == (f"root closure for {label}{rank}: |Phi+| * r^2 = "
                                  f"{estimate} exceeds cap 1000000")
    # one rank lower each fits under the cap
    for label, rank in (("A", 37), ("B", 31), ("C", 31), ("D", 31)):
        assert positive_root_count(label, rank) * rank ** 2 <= 10 ** 6


def test_a_closure_that_misses_the_closed_form_is_a_hard_error(monkeypatch):
    closure = rootdata._positive_roots
    monkeypatch.setattr(rootdata, "_positive_roots", lambda cartan: closure(cartan)[1:])
    with pytest.raises(AssertionError, match="B3 has 8 positive roots, the closed form gives 9"):
        rootdata._root_datum.__wrapped__("B", 3)


def test_a_coroot_closure_that_misses_2_phi_plus_is_a_hard_error():
    datum = build_root_datum("B", 3)
    short = datum._replace(positive_coroots=datum.positive_coroots[1:])
    with pytest.raises(AssertionError, match="B3 has 16 coroots, not 2 \\|Phi\\+\\| = 18"):
        rootdata._packed_keys.__wrapped__(short)


def test_a_coroot_list_not_closed_under_the_reflections_is_a_hard_error():
    datum = build_root_datum("B", 3)
    doubled = tuple(2 * x for x in datum.theta_coroot)  # in place of theta^v
    bad = datum._replace(positive_coroots=datum.positive_coroots[:-1] + (doubled,))
    with pytest.raises(AssertionError, match="^the coroot list of B3 is not closed under s2$"):
        rootdata._packed_keys.__wrapped__(bad)


def test_a_root_paired_with_a_wrong_coroot_is_a_hard_error(monkeypatch):
    closure = rootdata._positive_roots

    def doubled_theta_coroot(cartan):
        pairs = closure(cartan)
        theta, coroot = pairs[-1]
        return pairs[:-1] + ((theta, tuple(2 * x for x in coroot)),)

    monkeypatch.setattr(rootdata, "_positive_roots", doubled_theta_coroot)
    with pytest.raises(AssertionError, match=re.escape(
            "root closure for B3 pairs the root (1, 2, 2) with (2, 4, 2): "
            "<beta, beta^v> = 4, not 2")):
        rootdata._root_datum.__wrapped__("B", 3)


def test_positive_coroots_match_the_length_formula():
    pairs = rank_range(8) + [(label, r) for r in range(9, 21) for label in "ABCD"]
    for label, rank in pairs:
        datum = build_root_datum(label, rank)
        assert datum.positive_coroots == coroots_by_lengths(datum), (label, rank)
        for root, coroot in zip(datum.positive_roots, datum.positive_coroots):
            assert pairing(datum, root, coroot) == 2, (label, rank, root)


def test_simple_reflection_examples():
    d1 = build_root_datum("A", 1)
    s = simple_reflection(d1, 1)
    assert mat_vec(s, (1,)) == (-1,)
    d2 = build_root_datum("A", 2)
    s1 = simple_reflection(d2, 1)
    assert mat_vec(s1, (0, 1)) == (1, 1)
    with pytest.raises(ValueError):
        simple_reflection(d2, 3)


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("C", 2),
                                        ("G", 2), ("F", 4), ("D", 4)])
def test_reflections_are_involutions_and_braid_orders(label, rank):
    datum = build_root_datum(label, rank)
    gens = weyl_generators(datum)
    for i, si in enumerate(gens):
        assert mat_pow(si, 2) == identity_matrix(rank)
        for j, sj in enumerate(gens):
            if i == j:
                continue
            prod = mat_mul(si, sj)
            # braid order from the product of off-diagonal Cartan entries
            m = {0: 2, 1: 3, 2: 4, 3: 6}[datum.cartan[i][j] * datum.cartan[j][i]]
            assert mat_pow(prod, m) == identity_matrix(rank)
            for k in range(1, m):
                assert mat_pow(prod, k) != identity_matrix(rank)


@pytest.mark.parametrize("label,rank", sorted(WEYL_ORDERS))
def test_weyl_orders(label, rank):
    datum = build_root_datum(label, rank)
    assert weyl_order(datum, cap=ORDER_CAP) == WEYL_ORDERS[(label, rank)]


def test_adjugate_matches_the_cofactor_oracle():
    pairs = rank_range(8) + [(label, r) for r in range(9, 21) for label in "ABCD"]
    for label, rank in pairs:
        datum = build_root_datum(label, rank)
        cartan, (adj, det) = datum.cartan, datum.cartan_inverse
        assert (adj, det) == (cofactor_adjugate(cartan), det_int(cartan)), (label, rank)
        assert mat_mul(adj, cartan) == tuple(
            tuple(det * x for x in row) for row in identity_matrix(rank))


def test_cartan_determinant_is_the_index_of_the_coweight_lattice():
    # det(C) = |P^v / Q^v| at every rank that the root-closure cap builds,
    # and the next rank of A, B, C and D is refused
    index = {"A": lambda r: r + 1, "B": lambda r: 2, "C": lambda r: 2, "D": lambda r: 4}
    for label, first, last in [("A", 1, 37), ("B", 2, 31), ("C", 2, 31), ("D", 4, 31)]:
        for rank in range(first, last + 1):
            assert build_root_datum(label, rank).cartan_inverse[1] == index[label](rank)
        with pytest.raises(EnumerationCapError):
            build_root_datum(label, last + 1)
    for (label, rank), det in {("E", 6): 3, ("E", 7): 2, ("E", 8): 1,
                               ("F", 4): 1, ("G", 2): 1}.items():
        assert build_root_datum(label, rank).cartan_inverse[1] == det


@pytest.mark.parametrize("diagonal", [lambda d: d[:-1] + [2 * d[-1]], lambda d: [0] * len(d)])
def test_cartan_inverse_refuses_a_wrong_smith_diagonal(monkeypatch, diagonal):
    smith = rootdata.smith_normal_form

    def wrong(M):
        U, D, V = smith(M)
        d = diagonal([D[i][i] for i in range(len(M))])
        return U, tuple(tuple(d[i] * (i == j) for j in range(len(M))) for i in range(len(M))), V

    monkeypatch.setattr(rootdata, "smith_normal_form", wrong)
    for label, rank in [("A", 1), ("E", 6), ("E", 8)]:
        datum = build_root_datum(label, rank)._replace()  # no cached pair
        with pytest.raises(AssertionError, match=f"Cartan matrix of {label}{rank} "):
            datum.cartan_inverse


def test_cartan_inverse_and_theta_coroot_are_kept_per_datum():
    for label, rank in rank_range(8):
        datum = build_root_datum(label, rank)
        adj, det = datum.cartan_inverse
        assert det == det_int(datum.cartan)
        assert mat_mul(adj, datum.cartan) == tuple(
            tuple(det * x for x in row) for row in identity_matrix(rank))
        assert datum.cartan_inverse is datum.cartan_inverse
        assert datum.theta_coroot == datum.positive_coroots[
            datum.positive_roots.index(datum.marks)]
        assert datum.theta_coroot is datum.theta_coroot
        assert weyl_order(datum, cap=ORDER_CAP) == WEYL_ORDERS[(label, rank)]


def test_reflection_updates_are_the_per_fold_tables_kept_per_datum():
    # the two tables the alcove fold once built on every call: the nonzero
    # c_ji of each column, and <alpha_j, theta^v> per j
    for label, rank in rank_range(8):
        datum = build_root_datum(label, rank)
        cartan = datum.cartan
        columns = [[(j, cartan[j][i]) for j in range(rank) if cartan[j][i]]
                   for i in range(rank)]
        theta_values = [sum(c * t for c, t in zip(row, datum.theta_coroot)) for row in cartan]
        got_columns, got_theta_values = datum.reflection_updates
        assert [list(column) for column in got_columns] == columns
        assert list(got_theta_values) == theta_values
        assert datum.reflection_updates is datum.reflection_updates


def test_weyl_cap():
    with pytest.raises(EnumerationCapError):
        weyl_order(build_root_datum("A", 4), cap=100)


def test_weyl_order_formula_matches_the_closure():
    assert set(WEYL_ORDERS) == set(rank_range(8))
    checked = 0
    for label, rank in rank_range(8):
        datum = build_root_datum(label, rank)
        if weyl_order(datum, cap=ORDER_CAP) <= 2000:
            assert len(weyl_elements(datum)) == weyl_order(datum)
            checked += 1
    assert checked == 15


def weyl_matrices_by_products(datum):
    """Reference closure: right-multiply by the generator matrices until no
    new matrix appears; sorted."""
    gens = weyl_generators(datum)
    seen = {identity_matrix(datum.rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = mat_mul(w, g)
                if wg not in seen:
                    seen.add(wg)
                    nxt.append(wg)
        frontier = nxt
    return sorted(seen)


def test_weyl_elements_match_the_matrix_product_closure():
    # the elements as sets of matrices, against the product closure and the
    # matrix-row engine; the classes as sets of sets of matrices: each class
    # of weyl_classes is the oracle class of its representative, of the
    # same size, and every oracle class is met once
    checked = []
    for label, rank in rank_range(8):
        datum = build_root_datum(label, rank)
        if weyl_order(datum, cap=ORDER_CAP) > 2000:
            continue
        elements = weyl_elements(datum)
        oracle = weyl_elements_by_rows(datum)
        products = weyl_matrices_by_products(datum)
        assert sorted(weyl_matrices(datum)) == products, datum.name
        assert oracle == products, datum.name
        expected = weyl_classes_by_conjugation(datum, oracle)
        owner = {M: members for members in expected for M in members}
        got = [(owner[w], size) for w, size in weyl_classes(datum, elements)]
        assert all(len(members) == size for members, size in got), datum.name
        assert {members for members, _ in got} == set(expected), datum.name
        assert len(got) == len(expected), datum.name
        checked.append(datum.name)
    assert len(checked) == 15 and {"F4", "D5"} <= set(checked)


def test_weyl_elements_are_listed_by_length():
    # the breadth-first levels of the closure: the length of w is its word
    # length in the s_i, found level by level by left products of matrices
    for label, rank in [("A", 3), ("B", 3), ("G", 2), ("D", 4), ("F", 4)]:
        datum = build_root_datum(label, rank)
        gens = weyl_generators(datum)
        length = {identity_matrix(rank): 0}
        frontier = [identity_matrix(rank)]
        while frontier:
            nxt = []
            for M in frontier:
                for s in gens:
                    sM = mat_mul(s, M)
                    if sM not in length:
                        length[sM] = length[M] + 1
                        nxt.append(sM)
            frontier = nxt
        lengths = [length[w] for w in weyl_matrices(datum)]
        assert lengths == sorted(lengths) and len(lengths) == len(length)


def test_weyl_elements_refuses_over_cap_before_closure(monkeypatch):
    def no_closure(datum):
        raise AssertionError("the closure must not start")

    monkeypatch.setattr(rootdata, "_packed_keys", no_closure)
    with pytest.raises(EnumerationCapError) as info:
        weyl_elements(build_root_datum("E", 6), cap=1000)
    assert str(info.value) == "Weyl closure for E6: |W| = 51840 exceeds cap 1000"


# Carter, Conjugacy classes in the Weyl group (Compositio Math. 1972)
WEYL_CLASS_COUNTS = {
    ("A", 1): 2, ("A", 2): 3, ("A", 3): 5, ("A", 4): 7, ("A", 5): 11,
    ("B", 2): 5, ("B", 3): 10, ("B", 4): 20, ("B", 5): 36,
    ("C", 2): 5, ("C", 3): 10, ("C", 4): 20, ("C", 5): 36,
    ("D", 4): 13, ("D", 5): 18, ("G", 2): 6, ("F", 4): 25,
    ("E", 6): 25,
}

# The class sizes of W(E6), as sympy's PermutationGroup.conjugacy_classes
# gives them for W acting on the 72 coroots (about 15 s, so not rerun here).
E6_CLASS_SIZES = [1, 36, 45, 80, 240, 270, 480, 540, 540, 540, 720, 1440, 1440, 1440,
                  1440, 1620, 2160, 3240, 4320, 4320, 4320, 5184, 5184, 5760, 6480]


@pytest.mark.parametrize("label,rank", sorted(WEYL_CLASS_COUNTS))
def test_weyl_classes_match_the_known_class_counts(label, rank):
    datum = build_root_datum(label, rank)
    elements = weyl_elements(datum)
    classes = weyl_classes(datum, elements)
    assert len(classes) == WEYL_CLASS_COUNTS[label, rank]
    order = weyl_order(datum)
    assert sum(size for _, size in classes) == order
    assert all(order % size == 0 for _, size in classes)
    position = {w: k for k, w in enumerate(weyl_matrices(datum))}
    reps = [position[w] for w, _ in classes]
    assert reps == sorted(reps)
    if (label, rank) == ("E", 6):
        # 51840 * 6 conjugations by matrix products would take minutes
        assert sorted(size for _, size in classes) == E6_CLASS_SIZES
        return
    # each class, closed anew under s_i M s_i by plain matrix products,
    # has the size given and starts at its representative; together the
    # classes are W
    gens = weyl_generators(datum)
    covered = set()
    for w, size in classes:
        members = {w}
        frontier = [w]
        while frontier:
            images = {mat_mul(mat_mul(s, M), s) for M in frontier for s in gens}
            frontier = images - members
            members |= frontier
        assert len(members) == size and min(members, key=position.get) == w
        assert not members & covered
        covered |= members
    assert covered == set(position)


def test_the_class_sweep_forms_no_matrix_per_element():
    # W(B5) has 3840 elements; a 5 x 5 matrix formed for each of them lifts
    # the traced peak of the closure and the class sweep to about 3 MB
    datum = build_root_datum("B", 5)
    rootdata._packed_keys.cache_clear()
    tracemalloc.start()
    try:
        classes = weyl_classes(datum, weyl_elements(datum))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(classes) == WEYL_CLASS_COUNTS["B", 5]
    assert peak < 1.5 * 10 ** 6, peak


def test_weyl_classes_refuse_a_list_that_is_not_w():
    datum = build_root_datum("A", 2)
    elements = weyl_elements(datum)
    # without the longest element, root values (-1, -1): s2 s1 s2 is it
    with pytest.raises(AssertionError, match=re.escape(
            "s2 w s2 for w with root values (-1, 2) in A2 has root values (-1, -1): "
            "not in W or in another class")):
        weyl_classes(datum, elements[:-1])
    with pytest.raises(AssertionError, match="element of W\\(A2\\) is listed twice"):
        weyl_classes(datum, elements + elements[:1])
    # the identity's places under the key of root values (2, 1)
    start, places = elements[0]
    with pytest.raises(AssertionError, match=re.escape(
            "s1 w s1 for w with root values (2, 1) in A2 has root values (0, 2): "
            "not in W or in another class")):
        weyl_classes(datum, elements[1:] + [(start + 1, places)])


@pytest.mark.parametrize("label,rank,cut,total,order", [
    ("A", 2, slice(1, None), 5, 6),  # no identity
    ("B", 3, slice(1, None), 47, 48),  # no identity
    ("B", 3, slice(None, -1), 47, 48),  # no w0 = -1, which is central
])
def test_weyl_classes_refuse_a_list_that_lacks_whole_classes(label, rank, cut, total, order):
    # a missing singleton class leaves no conjugate outside the list, so
    # the sweep passes and only the class sizes show it
    datum = build_root_datum(label, rank)
    with pytest.raises(AssertionError, match=re.escape(
            f"the conjugacy classes of W({label}{rank}) add up to {total}, not |W| = {order}")):
        weyl_classes(datum, weyl_elements(datum)[cut])


def test_matrix_order_names_the_stage_and_the_cap():
    assert matrix_order(((0, -1), (1, -1))) == 3
    assert matrix_order(identity_matrix(2)) == 1
    with pytest.raises(EnumerationCapError) as info:
        matrix_order(((1, 1), (0, 1)), cap=50)
    assert str(info.value) == ("order of a lattice automorphism: no power up to 50 "
                               "is the identity, exceeds cap 50")
    with pytest.raises(EnumerationCapError, match="exceeds cap 2$"):
        matrix_order(((0, -1), (1, -1)), cap=2)


def test_weyl_matrices_permute_coroots():
    for label, rank in [("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        datum = build_root_datum(label, rank)
        coroots = set(all_coroots(datum))
        for w in weyl_matrices(datum):
            assert {tuple(mat_vec(w, c)) for c in coroots} == coroots


def test_longest_element_negates_positive_roots():
    # the longest element maps the positive coroots to the negative ones
    for label, rank in [("A", 2), ("B", 2), ("C", 3), ("G", 2), ("A", 4)]:
        datum = build_root_datum(label, rank)
        plus = datum.positive_coroots
        found = False
        for w in weyl_matrices(datum):
            if all(tuple(-x for x in mat_vec(w, c)) in set(plus) for c in plus):
                found = True
                break
        assert found, f"no longest element found for {label}{rank}"


def test_diagram_automorphisms():
    d3 = build_root_datum("A", 3)
    ident = diagram_automorphism(d3, (0, 1, 2))
    assert ident.matrix == identity_matrix(3) and ident.order == 1
    flip = diagram_automorphism(d3, (2, 1, 0))
    assert flip.order == 2
    assert mat_vec(flip.matrix, (1, 0, 0)) == (0, 0, 1)
    assert mat_vec(flip.matrix, (0, 1, 0)) == (0, 1, 0)
    d4 = build_root_datum("D", 4)
    tri = diagram_automorphism(d4, (2, 1, 3, 0))
    assert tri.order == 3
    assert mat_pow(tri.matrix, 3) == identity_matrix(4)
    with pytest.raises(ValueError):
        diagram_automorphism(d3, (1, 0, 2))  # not a diagram symmetry
    with pytest.raises(ValueError):
        diagram_automorphism(d3, (0, 0, 1))  # not a permutation


def test_the_order_is_read_off_the_permutation(monkeypatch):
    # the lcm of the node-orbit lengths, which is the order of the
    # permutation matrix; Weyl elements and -1 are no lattice automorphisms
    # of the library, and the reference reads their orders off the powers of
    # their matrices
    from parahoric.rootdata import LatticeAutomorphism

    permutations = [aut for label, rank in rank_range(6)
                    for aut in diagram_symmetries(build_root_datum(label, rank))]
    others = [w for label, rank in rank_range(4)
              for w in weyl_matrices(build_root_datum(label, rank))
              if w != identity_matrix(rank)]
    others += [tuple(tuple(-x for x in row) for row in identity_matrix(r))
               for r in range(1, 9)]
    for aut in permutations:
        assert aut.order == matrix_order(aut.matrix), aut
    assert {aut.order for aut in permutations} == {1, 2, 3}
    assert {MatrixAutomorphism(M).order for M in others} == {2, 3, 4, 5, 6, 8, 12}
    for M in others:
        with pytest.raises(ValueError, match="is not a permutation of the nodes"):
            LatticeAutomorphism(M)

    def refuse(*args, **kwargs):
        raise AssertionError("no matrix product for the order")

    monkeypatch.setattr("parahoric.exactalg.mat_mul", refuse)
    for aut in permutations:
        assert LatticeAutomorphism(aut.node_permutation).order == aut.order


def fixed_weyl_subgroup(datum, aut):
    """Reference: every w in W commuting with the automorphism."""
    A = aut.matrix
    return [w for w in weyl_matrices(datum) if mat_mul(A, w) == mat_mul(w, A)]


def regular_coweight(datum):
    """adj(C)(1, ..., 1): every simple root takes the value det(C) on it, so
    its stabilizer in W is trivial."""
    return mat_vec(datum.cartan_inverse[0], (1,) * datum.rank)


def generated_orbit(gens, x):
    """The orbit of x under the group generated by the Weyl elements."""
    seen = {x}
    frontier = [x]
    while frontier:
        frontier = list({mat_vec(g, y) for y in frontier for g in gens} - seen)
        seen.update(frontier)
    return seen


def test_fixed_weyl_subgroup():
    d3 = build_root_datum("A", 3)
    full = fixed_weyl_subgroup(d3, identity_automorphism(3))
    assert len(full) == 24
    # folding A3 by the flip gives type C2, so the fixed subgroup is the
    # centralizer of the reversal, of order 8
    flip = diagram_automorphism(d3, (2, 1, 0))
    fixed = fixed_weyl_subgroup(d3, flip)
    assert len(fixed) == 8
    mats = set(fixed)
    for a in fixed:
        assert _inverse_in(mats, a)
        for b in fixed:
            assert mat_mul(a, b) in mats
    assert len(full) % len(fixed) == 0
    x = regular_coweight(d3)
    assert generated_orbit(fixed_weyl_generators(d3, flip), x) \
        == {mat_vec(w, x) for w in fixed}
    # the identity has one orbit per node: the simple reflections
    assert fixed_weyl_generators(d3, identity_automorphism(3)) == list(weyl_generators(d3))
    # A2 folds to A1: fixed subgroup of order 2
    d2 = build_root_datum("A", 2)
    assert len(fixed_weyl_subgroup(d2, diagram_automorphism(d2, (1, 0)))) == 2
    # A1: everything is fixed
    d1 = build_root_datum("A", 1)
    assert len(fixed_weyl_subgroup(d1, identity_automorphism(1))) == 2


def diagram_symmetries(datum):
    """Every node permutation that is a Dynkin-diagram symmetry, in
    lexicographic order: extended node by node while it keeps the Cartan
    entries among the nodes placed so far."""
    C, n = datum.cartan, datum.rank
    perms = [()]
    for i in range(n):
        perms = [p + (k,) for p in perms for k in range(n) if k not in p
                 and all(C[k][p[j]] == C[i][j] and C[p[j]][k] == C[j][i] for j in range(i))]
    return [diagram_automorphism(datum, p) for p in perms]


def test_fixed_weyl_generators_close_to_the_fixed_subgroup():
    checked = 0
    for label, rank in rank_range(8):
        datum = build_root_datum(label, rank)
        if weyl_order(datum, cap=ORDER_CAP) > 4000:
            continue
        x = regular_coweight(datum)
        for aut in diagram_symmetries(datum):
            reference = {mat_vec(w, x) for w in fixed_weyl_subgroup(datum, aut)}
            assert generated_orbit(fixed_weyl_generators(datum, aut), x) == reference, \
                (datum.name, aut.matrix)
            checked += 1
    # A1-A5 (9), B2-B5 and C2-C5 (8), D4 (6), D5 (2), F4 and G2 (2)
    assert checked == 27


def test_each_fixed_weyl_generator_is_the_longest_element_of_its_node_orbit():
    # checked by its properties, with no descent: w_J is an involution that
    # commutes with sigma and sends a positive coroot to a negative one
    # exactly when the support of that coroot lies in J
    checked = 0
    for label, rank in rank_range(8):
        datum = build_root_datum(label, rank)
        coroots = set(datum.positive_coroots)
        for aut in diagram_symmetries(datum):
            A = aut.matrix
            gens = fixed_weyl_generators(datum, aut)
            assert len(gens) == len(aut.node_orbits)
            for J, w in zip(sorted(aut.node_orbits), gens):
                assert mat_mul(w, w) == identity_matrix(rank)
                assert mat_mul(A, w) == mat_mul(w, A)
                for coroot in datum.positive_coroots:
                    image = mat_vec(w, coroot)
                    in_J = all(i in J for i, x in enumerate(coroot) if x)
                    assert (image in coroots) != in_J, (datum.name, J, coroot)
                    assert (tuple(-x for x in image) in coroots) == in_J, (datum.name, J, coroot)
            checked += 1
    # A (15), B and C (7 each), D4 (6), D5-D8 (2 each), E (4), F4 and G2
    assert checked == 49


def flip(datum):
    """The A, D or E6 diagram flip (D swaps its last two nodes)."""
    n = datum.rank
    if datum.label == "A":
        perm = tuple(n - 1 - i for i in range(n))
    elif datum.label == "D":
        perm = tuple(range(n - 2)) + (n - 1, n - 2)
    else:
        perm = (5, 1, 4, 3, 2, 0)
    return diagram_automorphism(datum, perm)


@pytest.mark.parametrize("label,rank,order", [("E", 6, 1152), ("D", 6, 3840),
                                              ("A", 6, 48), ("A", 7, 384),
                                              ("A", 8, 384), ("E", 7, None),
                                              ("E", 8, None)])
def test_fixed_weyl_generators_of_large_flips(label, rank, order):
    # the folded types F4, B5, B3, B4 and B4; E7 and E8 have no flip and run
    # under the identity, where W^sigma is all of W, too large to orbit
    datum = build_root_datum(label, rank)
    aut = flip(datum) if order else identity_automorphism(rank)
    A = aut.matrix
    gens = fixed_weyl_generators(datum, aut)
    assert gens == fixed_weyl_generators_by_rows(datum, aut)
    assert len(gens) == len({frozenset((i, A[i].index(1))) for i in range(rank)})
    for g in gens:
        assert mat_mul(g, g) == identity_matrix(rank)
        assert mat_mul(A, g) == mat_mul(g, A)
    if order:
        assert len(generated_orbit(gens, regular_coweight(datum))) == order
    else:
        assert gens == list(weyl_generators(datum))


def permutation_of(w, n):
    """The permutation sigma of {0, ..., n-1} with w(e_j) = e_sigma(j), for w
    in the Weyl group of A_(n-1), whose coroots are e_(k-1) - e_k."""
    x = tuple(n - 1 - 2 * j for j in range(n))  # distinct entries, sum 0
    coroot = tuple(sum(x[:k]) for k in range(1, n))
    c = (0,) + mat_vec(w, coroot) + (0,)
    y = tuple(c[j + 1] - c[j] for j in range(n))
    return tuple(y.index(v) for v in x)


@pytest.mark.parametrize("n", range(3, 10))
def test_fixed_weyl_generators_of_the_flip_are_the_reversal_generators(n):
    from .test_slmodel import reversal_fixed_generators

    datum = build_root_datum("A", n - 1)
    gens = fixed_weyl_generators(datum, flip(datum))
    assert [permutation_of(g, n) for g in gens] == reversal_fixed_generators(n)


def test_fixed_weyl_generators_reject_non_diagram_automorphisms():
    from parahoric.rootdata import LatticeAutomorphism

    message = "the automorphism is not a Dynkin-diagram symmetry"
    d3 = build_root_datum("A", 3)
    # the permutations of the coroots that are no diagram symmetry, and
    # permutations of another number of nodes
    others = [p for p in permutations(range(3)) if p not in ((0, 1, 2), (2, 1, 0))]
    for perm in others + [(1, 0), (0, 1, 2, 3)]:
        with pytest.raises(ValueError) as err:
            fixed_weyl_generators(d3, LatticeAutomorphism(perm))
        assert str(err.value) == message


def _inverse_in(mats, w):
    n = len(w)
    p = w
    for _ in range(100):
        if p == identity_matrix(n):
            return True
        p = mat_mul(p, w)
    return False


def test_orbit_partition_trivial():
    pts = [(F(0),)]
    assert orbit_partition(pts, [lambda p: p]) == [((F(0),),)]


def test_orbit_partition_a2_two_torsion():
    # the 4 two-torsion points of the A2 torus under S3: {0} and the rest
    d2 = build_root_datum("A", 2)
    pts = [(F(a, 2), F(b, 2)) for a in range(2) for b in range(2)]
    maps = [
        (lambda p, w=w: tuple(x % 1 for x in mat_vec(w, p)))
        for w in weyl_generators(d2)
    ]
    orbits = orbit_partition(pts, maps)
    assert sorted(len(o) for o in orbits) == [1, 3]
    # Burnside over S3: (4 + 3*2 + 2*1) / 6 = 2
    fixed_total = 0
    for w in weyl_matrices(d2):
        fixed_total += sum(
            1 for p in pts if tuple(x % 1 for x in mat_vec(w, p)) == p
        )
    assert fixed_total // 6 == len(orbits) == 2


def test_orbit_partition_order_independent():
    d2 = build_root_datum("A", 2)
    pts = [(F(a, 3), F(b, 3)) for a in range(3) for b in range(3)]
    maps = [
        (lambda p, w=w: tuple(x % 1 for x in mat_vec(w, p)))
        for w in weyl_generators(d2)
    ]
    rng = random.Random(5)
    shuffled = pts[:]
    rng.shuffle(shuffled)
    assert orbit_partition(pts, maps) == orbit_partition(shuffled, maps)


def test_orbit_partition_rejects_non_closed_action():
    with pytest.raises(ValueError):
        orbit_partition([(F(0),)], [lambda p: (p[0] + 1,)])


def test_orbit_partition_accepts_weyl_elements_and_twists():
    d1 = build_root_datum("A", 1)
    pts = [(F(k, 5),) for k in range(5)]
    s = simple_reflection(d1, 1)
    # the Weyl element mod 1: plain inversion, floor((5+2)/2) = 3 orbits
    assert len(orbit_partition(pts, [lambda p: tuple(x % 1 for x in mat_vec(s, p))])) == 3
    # twisted: t -> -t - 1/5, the worked-example action, 3 orbits
    twisted = orbit_partition(pts, [lambda p: tuple((x - F(1, 5)) % 1 for x in mat_vec(s, p))])
    assert len(twisted) == 3
    assert twisted[0] == ((F(0),), (F(4, 5),))


def test_rank_range():
    assert ("G", 2) in rank_range(4)
    assert ("D", 4) in rank_range(4)
    assert ("E", 6) not in rank_range(4)
    assert len(rank_range(2)) == 5  # A1, A2, B2, C2, G2
