import random
from fractions import Fraction as F

import pytest

from parahoric.exactalg import (
    FiniteAbelianGroup,
    grid_numerators,
    identity_matrix,
    mat_mul,
    matrix,
    qz,
    qz_vector,
    quotient_structure,
    smith_normal_form,
)

from .references import (
    ImageMembership,
    det_int,
    kernel_basis,
    mat_vec,
    mat_vec_qz,
    solve_mod_z,
)
from .test_records import check_record


def snf_checks(M):
    U, D, V = smith_normal_form(M)
    assert mat_mul(mat_mul(U, M), V) == D
    assert abs(det_int(U)) == 1
    assert abs(det_int(V)) == 1
    rows, cols = len(M), len(M[0]) if M else 0
    diag = [D[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert D[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def test_snf_identity():
    diag = snf_checks(identity_matrix(2))
    assert diag == [1, 1]


def test_snf_worked_example():
    # gcd of entries is 2 and |det| = 8, so the invariants are 2, 4
    diag = snf_checks(matrix([[2, 4], [6, 8]]))
    assert diag == [2, 4]


# (M, (U, D, V)): each path of the elimination pinned to its exact transforms
SNF_PINNED = [
    (((2, 4), (6, 8)), (((1, 0), (3, -1)), ((2, 0), (0, 4)), ((1, -2), (0, 1)))),
    # 2 does not divide 3: row 1 is folded into row 0, D = diag(1, 6)
    (((2, 0), (0, 3)), (((1, 1), (3, 2)), ((1, 0), (0, 6)), ((-1, 3), (1, -2)))),
    (((4, 6), (6, 9)), (((-1, 1), (3, -2)), ((1, 0), (0, 0)), ((-1, 3), (1, -2)))),
    # the first pass leaves the remainder 1 below the pivot 2: re-pivot
    (((2, 3), (3, 4)), (((1, 0), (-1, 1)), ((1, 0), (0, 1)), ((-1, 3), (1, -2)))),
    (((-3,),), (((-1,),), ((3,),), ((1,),))),
    (((2, 3, 4), (5, 6, 7)),
     (((1, 0), (-1, 1)), ((1, 0, 0), (0, 3, 0)), ((-1, 3, 1), (1, -2, -2), (0, 0, 1)))),
    (((2, 3), (4, 5), (6, 7)),
     (((1, 0, 0), (-1, 1, 0), (1, -2, 1)), ((1, 0), (0, 2), (0, 0)), ((-1, 3), (1, -2)))),
    # swaps of rows and columns, and a fold that picks the first of two offender rows
    (((3, 0, 0), (0, 0, -2), (0, 3, 0)),
     (((-1, -1, 0), (0, 0, 1), (-4, -3, 0)), ((1, 0, 0), (0, 3, 0), (0, 0, 6)),
      ((1, 0, -2), (0, 1, 0), (2, 0, -3)))),
    ((), ((), (), ())),
    (((),), (((1,),), ((),), ())),
]


@pytest.mark.parametrize("M,expected", SNF_PINNED, ids=[
    "worked-example", "offender-fold", "zero-invariant", "re-pivot", "sign-fix",
    "2x3", "3x2", "3x3-swaps-and-fold", "empty", "one-empty-row"])
def test_snf_pins_the_exact_transforms(M, expected):
    assert smith_normal_form(M) == expected
    if M and M[0]:
        snf_checks(M)


def test_snf_zero_matrix():
    M = matrix([[0, 0], [0, 0]])
    U, D, V = smith_normal_form(M)
    assert D == M
    assert U == identity_matrix(2)
    assert V == identity_matrix(2)


def test_snf_randomized():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = tuple(
            tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows)
        )
        snf_checks(M)


def test_snf_deterministic():
    M = matrix([[6, 4, 2], [2, 8, 4], [0, 2, 12]])
    assert smith_normal_form(M) == smith_normal_form(M)


def test_kernel_basis_examples():
    assert kernel_basis(matrix([[1, -1], [-1, 1]])) == ((1, 1),)
    assert kernel_basis(identity_matrix(3)) == ()
    # brute-force: the kernel of [[2,-2]] contains no shorter vector than (1,1)
    assert kernel_basis(matrix([[2, -2]])) == ((1, 1),)
    small = [
        (a, b)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if (a, b) != (0, 0) and 2 * a - 2 * b == 0
    ]
    assert min(small, key=lambda v: abs(v[0]) + abs(v[1])) in ((1, 1), (-1, -1))


def test_kernel_vectors_are_killed():
    rng = random.Random(11)
    for _ in range(100):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        M = tuple(
            tuple(rng.randint(-5, 5) for _ in range(cols)) for _ in range(rows)
        )
        for v in kernel_basis(M):
            assert all(x == 0 for x in mat_vec(M, v))


def test_quotient_structure_examples():
    g = quotient_structure(2, [(2, 0), (0, 4)])
    assert g.invariant_factors == (2, 4) and g.free_rank == 0 and g.order == 8
    e = 5
    g = quotient_structure(2, [(e, 0), (0, e)])
    assert g.invariant_factors == (e, e)
    g = quotient_structure(1, [])
    assert g.free_rank == 1 and g.order is None


@pytest.mark.parametrize("e", [0, -3])
def test_grid_numerators_refuse_a_nonpositive_order(e):
    # e = 0 gave zeros for any vector
    for xs in ((F(1, 2), F(1)), (F(0),), ()):
        with pytest.raises(ValueError, match="^the order of Gamma must be positive$"):
            grid_numerators(xs, e)
    assert grid_numerators((F(1, 2), F(1)), 4) == [2, 4]


def test_grid_numerators_read_a_one_shot_iterable_once():
    # the grid test and the numerators each read the argument: a generator
    # gave [] and an iterator off the grid a TypeError from len()
    assert grid_numerators((x for x in (F(1, 2), F(-3, 4), 2)), 4) == [2, -3, 8]
    with pytest.raises(ValueError, match=r"^vector \('1/2', '1/3'\) is not in \(1/4\)Z\^2$"):
        grid_numerators(iter([F(1, 2), F(1, 3)]), 4)
    with pytest.raises(TypeError, match=r"^0\.5 is not an int or a Fraction$"):
        grid_numerators((x for x in (F(1, 2), 0.5)), 4)


def test_quotient_order_equals_index():
    rng = random.Random(3)
    for _ in range(60):
        r = rng.randint(1, 3)
        gens = [tuple(rng.randint(-4, 4) for _ in range(r)) for _ in range(r)]
        M = tuple(tuple(g[i] for g in gens) for i in range(r))
        d = abs(det_int(M))
        g = quotient_structure(r, gens)
        if d != 0:
            assert g.free_rank == 0
            assert g.order == d
        else:
            assert g.free_rank > 0


def test_solve_mod_z_examples():
    x = solve_mod_z(matrix([[-2]]), (F(1, 2),))
    assert x is not None
    assert qz(-2 * x[0]) == F(1, 2)
    v = qz_vector((F(2, 7), F(3, 5)))
    assert solve_mod_z(identity_matrix(2), v) == v
    assert solve_mod_z(matrix([[0]]), (F(1, 3),)) is None


def test_solve_mod_z_matches_exhaustive_search():
    rng = random.Random(19)
    for _ in range(80):
        rows = rng.randint(1, 2)
        cols = rng.randint(1, 2)
        M = tuple(
            tuple(rng.randint(-3, 3) for _ in range(cols)) for _ in range(rows)
        )
        den = rng.choice((1, 2, 3))
        v = qz_vector(F(rng.randint(0, den - 1), den) for _ in range(rows))
        x = solve_mod_z(M, v)
        if x is not None:
            assert mat_vec_qz(M, x) == v
        else:
            # search all denominators up to den * (largest invariant) finds nothing
            bound = den * max(
                [abs(M[i][j]) for i in range(rows) for j in range(cols)] + [1]
            )
            found = False
            for d in range(1, bound + 1):
                from itertools import product

                for combo in product(range(d), repeat=cols):
                    cand = tuple(F(c, d) for c in combo)
                    if mat_vec_qz(M, cand) == v:
                        found = True
                        break
                if found:
                    break
            assert not found


def test_image_membership_matches_solve():
    rng = random.Random(23)
    for _ in range(80):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        M = tuple(
            tuple(rng.randint(-3, 3) for _ in range(cols)) for _ in range(rows)
        )
        member = ImageMembership(M)
        den = rng.choice((1, 2, 4))
        v = qz_vector(F(rng.randint(0, den - 1), den) for _ in range(rows))
        assert member.contains(v) == (solve_mod_z(M, v) is not None)


def test_finite_abelian_group_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((3, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1, 2))
    assert FiniteAbelianGroup(()).order == 1
    check_record(FiniteAbelianGroup((2, 4), 1))

