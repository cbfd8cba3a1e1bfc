"""Property tests of the Smith normal form, with sympy as a second oracle."""

from hypothesis import HealthCheck, given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from parahoric.exactalg import mat_mul, smith_normal_form

from .references import det_int

SETTINGS = settings(max_examples=120, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))
entries = st.one_of(st.integers(-6, 6), st.integers(-10 ** 6, 10 ** 6))
int_matrices = shapes.flatmap(lambda shape: st.lists(
    st.lists(entries, min_size=shape[1], max_size=shape[1]),
    min_size=shape[0], max_size=shape[0],
).map(lambda rows: tuple(tuple(row) for row in rows)))


def diagonal(D):
    return [D[i][i] for i in range(min(len(D), len(D[0])))]


@SETTINGS
@given(int_matrices)
def test_snf_factorization_and_divisibility(M):
    U, D, V = smith_normal_form(M)
    rows, cols = len(M), len(M[0])
    assert mat_mul(mat_mul(U, M), V) == D
    assert abs(det_int(U)) == 1
    assert abs(det_int(V)) == 1
    assert all(D[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    diag = diagonal(D)
    assert all(d >= 0 for d in diag)
    for d, nxt in zip(diag, diag[1:]):
        # d | nxt, with the zeros (0 divides only 0) at the end
        assert nxt == 0 if d == 0 else nxt % d == 0


@SETTINGS
@given(int_matrices)
def test_snf_diagonal_matches_sympy(M):
    _, D, _ = smith_normal_form(M)
    theirs = sympy_smith_normal_form(Matrix(M), domain=ZZ)
    assert [abs(d) for d in diagonal(D)] == [
        abs(int(theirs[i, i])) for i in range(min(len(M), len(M[0])))]
