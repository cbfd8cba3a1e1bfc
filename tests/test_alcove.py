import math
import random
from fractions import Fraction as F
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parahoric.alcove
import parahoric.cohomology
import parahoric.rootdata

from parahoric.alcove import (
    apartment_orbit_types,
    facet_of,
    fold_numerators,
    fold_type,
    min_split_degree,
    point_from_root_values,
    reduce_to_alcove,
    simple_root_values,
    type_to_alcove,
    vertex_prime_data,
)
from parahoric.cohomology import local_types, trivial_action
from parahoric.exactalg import common_numerators, grid_numerators
from parahoric.rootdata import build_root_datum, orbit_partition

from .references import mat_vec, pairing, rank_range, root_row, weyl_generators, weyl_matrices


def rv_point(datum, *values):
    return point_from_root_values(datum, tuple(F(v) for v in values))


def point_from_root_values_reference(datum, values):
    """The Fraction Gauss-Jordan solve of C x = values that the adjugate
    inverse replaced."""
    n = datum.rank
    a = [[F(datum.cartan[i][j]) for j in range(n)] + [F(values[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def test_point_from_root_values_roundtrip():
    rng = random.Random(4)
    for label, rank in rank_range(8):
        datum = build_root_datum(label, rank)
        samples = [tuple(F(0) for _ in range(rank)), tuple(range(-rank, 0))]
        for _ in range(20):
            samples.append(tuple(F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(rank)))
        for _ in range(5):  # large numerators and denominators
            samples.append(tuple(F(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
                                 for _ in range(rank)))
        for values in samples:
            x = point_from_root_values(datum, values)
            assert x == point_from_root_values_reference(datum, values)
            assert all(type(c) is F for c in x)
            assert simple_root_values(datum, x) == tuple(F(v) for v in values)
        for size in (rank - 1, rank + 1):
            with pytest.raises(ValueError):
                point_from_root_values(datum, (F(1, 3),) * size)


def test_reduce_a1_example():
    # <alpha, x> = 7/3 is x = 7/6, translated to 1/6 (value 1/3) in the
    # alcove: no reflection is left; 5/3 is x = 5/6, left as it is by the
    # translation, and reflected across the theta-wall once
    d1 = build_root_datum("A", 1)
    for value, folded, walls in ((F(7, 3), F(1, 3), ()), (F(5, 3), F(1, 3), (0,))):
        x = rv_point(d1, value)
        x0, word = reduce_to_alcove(d1, x)
        assert simple_root_values(d1, x0) == (folded,)
        assert x0 == reduce_to_alcove_reference(d1, x)[0]
        assert word == walls == reduce_to_alcove_reference(d1, fold_start(d1, x))[1]


def test_reduce_fixes_alcove_points():
    d2 = build_root_datum("A", 2)
    x = rv_point(d2, F(1, 3), F(1, 4))
    x0, word = reduce_to_alcove(d2, x)
    assert x0 == x and word == ()


def test_reduce_coroot_translate_of_zero():
    d2 = build_root_datum("A", 2)
    x0, _ = reduce_to_alcove(d2, (F(1), F(0)))  # alpha_1 coroot
    assert x0 == (F(0), F(0))


def test_reduce_idempotent_and_waff_invariant_randomized():
    rng = random.Random(500)
    data = [build_root_datum(*lr) for lr in [("A", 1), ("A", 2), ("B", 2),
                                             ("G", 2), ("A", 3), ("C", 3),
                                             ("B", 3)]]
    trials = 0
    while trials < 500:
        datum = rng.choice(data)
        r = datum.rank
        x = tuple(F(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(r))
        x0, _ = reduce_to_alcove(datum, x)
        # idempotence
        again, word = reduce_to_alcove(datum, x0)
        assert again == x0 and word == ()
        # invariance under a random simple reflection and a random coroot shift
        i = rng.randint(1, r)
        value = pairing(
            datum, tuple(1 if k == i - 1 else 0 for k in range(r)), x
        )
        reflected = tuple(
            c - (value if k == i - 1 else 0) for k, c in enumerate(x)
        )
        assert reduce_to_alcove(datum, reflected)[0] == x0
        # translation invariance: shift by an integer coroot vector
        mu = tuple(rng.randint(-3, 3) for _ in range(r))
        assert reduce_to_alcove(datum, tuple(c + m for c, m in zip(x, mu)))[0] == x0
        trials += 1


REDUCTION_GROUPS = [build_root_datum(*lr) for lr in [("A", 1), ("A", 2), ("B", 2),
                                                    ("G", 2), ("A", 3), ("C", 3)]]


@st.composite
def reduction_cases(draw):
    datum = draw(st.sampled_from(REDUCTION_GROUPS))
    r = datum.rank
    x = tuple(F(draw(st.integers(-24, 24)), draw(st.integers(1, 12))) for _ in range(r))
    i = draw(st.integers(0, r - 1))
    mu = tuple(draw(st.integers(-3, 3)) for _ in range(r))
    return datum, x, i, mu


@settings(database=None, max_examples=100, deadline=None)
@given(reduction_cases())
def test_reduce_to_alcove_properties(case):
    datum, x, i, mu = case
    x0, _ = reduce_to_alcove(datum, x)
    facet_of(datum, x0)  # raises unless x0 lies in the closed alcove
    assert reduce_to_alcove(datum, x0) == (x0, ())
    value = simple_root_values(datum, x)[i]
    reflected = tuple(c - value if k == i else c for k, c in enumerate(x))
    assert reduce_to_alcove(datum, reflected)[0] == x0
    translated = tuple(c + m for c, m in zip(x, mu))
    assert reduce_to_alcove(datum, translated)[0] == x0


def separating_walls(datum, x):
    """The affine root hyperplanes alpha = k that strictly separate x from
    the fundamental alcove, counted with Fractions from every positive
    root."""
    count = 0
    for root in datum.positive_roots:
        value = pairing(datum, root, x)
        if value > 1:
            count += math.ceil(value) - 1
        elif value < 0:
            count -= math.floor(value)
    return count


def in_closed_alcove(datum, x):
    r = datum.rank
    return (all(pairing(datum, tuple(int(k == i) for k in range(r)), x) >= 0 for i in range(r))
            and pairing(datum, datum.marks, x) <= 1)


def fold_start(datum, x):
    """The point the fold reflects from: x itself in the closed alcove, else
    its translate x - floor(x) by the coroot lattice."""
    return tuple(x) if in_closed_alcove(datum, x) else tuple(c - math.floor(c) for c in x)


def wall_bound(datum):
    """B = sum over alpha > 0 of max(P - 1, -N, 0), for P and N the sums of
    the positive and of the negative pairings <alpha, alpha_i^vee>: on
    [0, 1)^r, <alpha, x> lies in [N, P), so at most B walls are left."""
    bound = 0
    for root in datum.positive_roots:
        row = root_row(datum, root)
        bound += max(sum(c for c in row if c > 0) - 1, -sum(c for c in row if c < 0), 0)
    return bound


@st.composite
def reduction_points(draw):
    datum = draw(st.sampled_from([build_root_datum(*lr) for lr in rank_range(4)]))
    return datum, tuple(F(draw(st.integers(-40, 40)), draw(st.integers(1, 9)))
                        for _ in range(datum.rank))


@settings(database=None, max_examples=150, deadline=None)
@given(reduction_points())
def test_reduction_word_length_is_the_number_of_separating_walls(case):
    # the word is the walls from the translated point, the point that of x
    datum, x = case
    start = fold_start(datum, x)
    point, word = reduce_to_alcove(datum, x)
    assert point == reduce_to_alcove_reference(datum, x)[0]
    assert word == reduce_to_alcove_reference(datum, start)[1]
    assert len(word) == separating_walls(datum, start)


def test_a_point_at_root_values_1e40_folds_from_its_translate():
    # an E8 point whose fold from x itself would cross about 10^43 walls: it
    # is translated by floor(x) first and then makes at most B reflections;
    # the Fraction fold runs from x - round(x), another coroot translate
    e8 = build_root_datum("E", 8)
    x = point_from_root_values(e8, (F(10 ** 40),) * 7 + (F(-10 ** 40 - 1, 7),))
    start = fold_start(e8, x)
    assert all((c - t).denominator == 1 for c, t in zip(x, start)) and start != x
    point, word = reduce_to_alcove(e8, x)
    assert point == reduce_to_alcove_reference(e8, tuple(c - round(c) for c in x))[0]
    assert word == reduce_to_alcove_reference(e8, start)[1]
    assert 0 < len(word) == separating_walls(e8, start) <= wall_bound(e8)


@st.composite
def far_points(draw):
    datum = draw(st.sampled_from(REDUCTION_BOUND_GROUPS))
    big = 10 ** 40
    return datum, point_from_root_values(datum, tuple(
        F(draw(st.integers(-big, big)), draw(st.integers(1, 60))) for _ in range(datum.rank)))


REDUCTION_BOUND_GROUPS = [build_root_datum(*lr) for lr in rank_range(8)]


@settings(database=None, max_examples=300, deadline=None)
@given(far_points())
def test_no_fold_makes_more_than_the_wall_bound(case):
    # root values up to 10^40 over every type of rank <= 8
    datum, x = case
    point, word = reduce_to_alcove(datum, x)
    assert len(word) <= wall_bound(datum)
    assert (point, word) == reduce_to_alcove_reference(datum, fold_start(datum, x))


def test_the_wall_bound_is_within_the_root_closure_estimate():
    # every datum is built under |Phi+| r^2 <= cap, and the fold of a point
    # of it makes at most B reflections: so no fold can pass the cap its
    # datum was built under; A1 meets it with equality, B = 1 (<alpha, x> in
    # (1, 2) leaves the wall <alpha, x> = 1)
    assert wall_bound(build_root_datum("A", 1)) == 1
    for label, rank in rank_range(30):
        datum = build_root_datum(label, rank)
        assert wall_bound(datum) <= len(datum.positive_roots) * rank ** 2


@pytest.mark.parametrize("e", [0, -3])
def test_a_nonpositive_order_is_refused_before_any_work(monkeypatch, e):
    # e = 0 divided by zero; e = -3 gave no apartment types, and the folds
    # answered as if e = 3
    datum, zero = build_root_datum("A", 2), (F(0), F(0))
    monkeypatch.setattr(parahoric.alcove, "weyl_order",
                        lambda *args, **kwargs: pytest.fail("the cap was checked first"))
    monkeypatch.setattr(parahoric.alcove, "common_numerators",
                        lambda *args, **kwargs: pytest.fail("a point was read first"))
    for call in (lambda: apartment_orbit_types(datum, zero, e),
                 lambda: type_to_alcove(datum, zero, e, zero),
                 lambda: fold_type(datum, zero, e, (1, (0, 0)))):
        with pytest.raises(ValueError, match="^the order of Gamma must be positive$"):
            call()


def test_facets_a1():
    d1 = build_root_datum("A", 1)
    f = facet_of(d1, rv_point(d1, 0))
    assert f.vanishing_walls == {1} and f.classification == "vertex" and f.special
    f = facet_of(d1, rv_point(d1, 1))
    assert f.vanishing_walls == {0} and f.classification == "vertex" and f.special
    assert f.describe() == "vertex {0}, hyperspecial"
    f = facet_of(d1, rv_point(d1, F(1, 3)))
    assert f.vanishing_walls == set() and f.classification == "Iwahori"
    assert not f.special
    with pytest.raises(ValueError):
        facet_of(d1, rv_point(d1, 2))


def test_facets_intermediate():
    d2 = build_root_datum("A", 2)
    f = facet_of(d2, rv_point(d2, 0, F(1, 2)))
    assert f.classification == "intermediate"
    assert f.vanishing_walls == {1}
    # interior points are never special
    g = facet_of(d2, rv_point(d2, F(1, 4), F(1, 4)))
    assert g.classification == "Iwahori" and not g.special


def test_vertices_of_fundamental_alcove_are_vertices():
    # x = 0 meets all simple walls in every type
    for label, rank in [("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        datum = build_root_datum(label, rank)
        f = facet_of(datum, (F(0),) * rank)
        assert f.classification == "vertex" and f.special


def test_min_split_degree():
    d1 = build_root_datum("A", 1)
    assert min_split_degree(d1, rv_point(d1, 3)) == (1, True)
    assert min_split_degree(d1, rv_point(d1, F(1, 5))) == (5, True)
    assert min_split_degree(d1, rv_point(d1, F(1, 3)), 2) == (3, True)
    assert min_split_degree(d1, rv_point(d1, F(1, 3)), 3) == (3, False)
    for p in (1, 4, -1, -3):  # a residue characteristic is 0 or a prime
        with pytest.raises(ValueError, match="0 or a prime"):
            min_split_degree(d1, rv_point(d1, F(1, 3)), p)
    d2 = build_root_datum("A", 2)
    assert min_split_degree(d2, rv_point(d2, F(1, 3), F(1, 3)))[0] == 3


@pytest.mark.parametrize("x", [(1,), (0, 0, 0)])
def test_wrong_length_coweight_is_refused(x):
    d2 = build_root_datum("A", 2)
    message = f"A2 needs 2 coordinates, not {len(x)}"
    for entry in (simple_root_values, reduce_to_alcove, facet_of, min_split_degree):
        with pytest.raises(ValueError, match=message):
            entry(d2, x)


@pytest.mark.parametrize("wrong", [(F(1, 2),), (F(1, 2), 0, 0)])
def test_wrong_length_rep_or_base_of_a_type_is_refused(wrong):
    # a base of the wrong length used to be cut short by zip (length 3) or
    # to fail inside the fold (length 1)
    d2 = build_root_datum("A", 2)
    message = f"A2 needs 2 coordinates, not {len(wrong)}"
    for rep, base in [(wrong, (0, 0)), ((0, F(1, 2)), wrong)]:
        with pytest.raises(ValueError, match=message):
            type_to_alcove(d2, rep, 2, base)
        with pytest.raises(ValueError, match=message):
            fold_type(d2, rep, 2, common_numerators(base))


@pytest.mark.parametrize("inexact", [0.1, "1/3"])
def test_a_value_that_is_no_exact_rational_is_refused(inexact):
    # a float or a str used to be read through Fraction(...): (0.1,) reduced
    # to 3602879701896397/36028797018963968 and the root value "1/3" to 1/6
    from parahoric.alcove import root_numerators
    from parahoric.cohomology import burnside_type_count

    d1 = build_root_datum("A", 1)
    for entry in (lambda: root_numerators(d1, (inexact,)),
                  lambda: reduce_to_alcove(d1, (inexact,)),
                  lambda: point_from_root_values(d1, (inexact,)),
                  lambda: type_to_alcove(d1, (F(1, 2),), 2, (inexact,)),
                  lambda: burnside_type_count(d1, 2, base=(inexact,)),
                  # a class representative reaches grid_numerators, not
                  # common_numerators: it raised AttributeError
                  lambda: type_to_alcove(d1, (inexact,), 2, (0,)),
                  lambda: grid_numerators((inexact,), 2)):
        with pytest.raises(TypeError, match=f"^{inexact!r} is not an int or a Fraction$"):
            entry()


def test_is_prime_matches_sympy():
    from sympy import isprime, prevprime

    from parahoric.alcove import MILLER_RABIN_BOUND, is_prime, require_characteristic
    from parahoric.rootdata import EnumerationCapError

    assert all(is_prime(n) == isprime(n) for n in range(-5, 10 ** 5))
    rng = random.Random(97)
    for bits in (64, 80):
        for _ in range(500):
            n = rng.getrandbits(bits) | 1
            assert is_prime(n) == isprime(n), n
        # random primes of that size, which a random draw rarely hits
        for _ in range(20):
            n = rng.getrandbits(bits) | 1
            while not isprime(n):
                n += 2
            assert is_prime(n), n
    # strong pseudoprimes to the prime bases up to 7, 23 and 37 (so base 41
    # is needed below the bound), and Carmichael numbers
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, 561, 41041):
        assert not is_prime(n)
        with pytest.raises(ValueError, match="0 or a prime"):
            require_characteristic(n)
    # the largest prime below the bound passes, the bound itself is refused
    require_characteristic(prevprime(MILLER_RABIN_BOUND))
    with pytest.raises(EnumerationCapError, match="primality test"):
        require_characteristic(MILLER_RABIN_BOUND)


def test_type_to_alcove_sl2():
    d1 = build_root_datum("A", 1)
    for e in (3, 5, 7, 9, 11):
        base = rv_point(d1, F(1, e))
        # the class at the middle reaches the nonstandard hyperspecial vertex
        k = (e - 1) // 2
        pt, facet = type_to_alcove(d1, (F(k, e),), e, base)
        assert simple_root_values(d1, pt) == (F(1),)
        assert facet.describe() == "vertex {0}, hyperspecial"
        # the neutral class stays at the base point
        pt, facet = type_to_alcove(d1, (F(0),), e, base)
        assert pt == base and facet.classification == "Iwahori"
    pt, facet = type_to_alcove(d1, (F(1, 4),), 4, rv_point(d1, F(1, 4)))
    assert facet.classification == "Iwahori"


def test_apartment_orbit_sl2():
    d1 = build_root_datum("A", 1)
    for e in range(1, 13):
        reps = apartment_orbit_types(d1, rv_point(d1, F(1, e)), e)
        values = [simple_root_values(d1, r)[0] for r in reps]
        assert values == [F(1 + 2 * i, e) for i in range((e + 1) // 2)]
    assert len(apartment_orbit_types(d1, rv_point(d1, F(0)), 1)) == 1


def test_apartment_orbit_a2_zero_base():
    d2 = build_root_datum("A", 2)
    assert len(apartment_orbit_types(d2, (F(0), F(0)), 2)) == 2


def orbit_types_reference(datum, a, e):
    """The |W| * e^r enumeration: reduce every distinct w(a) + mu/e, for w in
    W and mu in {0..e-1}^r, into the alcove and deduplicate."""
    candidates = set()
    for w in weyl_matrices(datum):
        wa = mat_vec(w, tuple(F(x) for x in a))
        for mu in product(range(e), repeat=datum.rank):
            candidates.add(tuple(x + F(m, e) for x, m in zip(wa, mu)))
    return sorted({reduce_to_alcove(datum, c)[0] for c in candidates})


def orbit_test_point(rng, datum, e, kind):
    """The zero point, a (1/e)-grid point of the alcove moved by an integer
    vector of root values with absolute entries adding up to 0, 2 or 5
    (the near, mid and far bands), or an off-grid point whose root values
    have the denominator e + 1 or 2e + 3, neither of which divides e."""
    r = datum.rank
    if kind == "zero":
        return tuple(F(0) for _ in range(r))
    if kind == "off-grid":
        q = rng.choice((e + 1, 2 * e + 3))
        numerators = [n for n in range(1 - q, q) if n % q]
        values = tuple(F(rng.choice(numerators), q) for _ in range(r))
        return point_from_root_values(datum, values)
    while True:
        k = [rng.randint(0, e // m) for m in datum.marks]
        if sum(m * ki for m, ki in zip(datum.marks, k)) <= e:
            break
    shift = [0] * r
    for _ in range({"near": 0, "mid": 2, "far": 5}[kind]):
        shift[rng.randrange(r)] += rng.choice((1, -1))
    return point_from_root_values(datum, tuple(F(ki, e) + s for ki, s in zip(k, shift)))


ALL_KINDS = ("zero", "near", "mid", "far", "off-grid", "off-grid")
# (label, rank, {order: kinds}): the reference costs |W| * e^r reductions,
# so the largest orders of rank 3 and 4 skip the bands farthest out
ORBIT_REFERENCE_CASES = [
    ("A", 1, dict.fromkeys(range(1, 13), ALL_KINDS)),
    ("A", 2, dict.fromkeys(range(1, 6), ALL_KINDS)),
    ("B", 2, dict.fromkeys(range(1, 6), ALL_KINDS)),
    ("C", 2, dict.fromkeys(range(1, 6), ALL_KINDS)),
    ("G", 2, dict.fromkeys(range(1, 6), ALL_KINDS)),
    ("A", 3, dict.fromkeys(range(1, 4), ALL_KINDS)),
    ("B", 3, {1: ALL_KINDS, 2: ALL_KINDS, 3: ("zero", "near", "off-grid")}),
    ("C", 3, {1: ALL_KINDS, 2: ALL_KINDS, 3: ("zero", "near", "mid", "off-grid")}),
    ("A", 4, {2: ("zero", "near", "mid", "off-grid")}),
    ("D", 4, {2: ("zero", "near", "off-grid")}),
]


@pytest.mark.parametrize("label,rank,kinds_by_order", ORBIT_REFERENCE_CASES)
def test_apartment_orbit_matches_reference_lists(label, rank, kinds_by_order):
    datum = build_root_datum(label, rank)
    rng = random.Random(f"{label}{rank}")
    for e, kinds in kinds_by_order.items():
        for kind in kinds:
            a = orbit_test_point(rng, datum, e, kind)
            assert apartment_orbit_types(datum, a, e) == orbit_types_reference(datum, a, e), (
                label, rank, e, kind, a)


def test_apartment_orbit_reduces_once_and_never_closes_w(monkeypatch):
    calls = []
    reduce = parahoric.alcove.reduce_to_alcove

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    def no_closure(*args, **kwargs):
        raise AssertionError("the apartment orbit must not enumerate W")

    monkeypatch.setattr(parahoric.alcove, "reduce_to_alcove", counted)
    monkeypatch.setattr(parahoric.rootdata, "weyl_elements", no_closure)
    monkeypatch.setattr(parahoric.cohomology, "weyl_elements", no_closure)
    assert not hasattr(parahoric.alcove, "weyl_elements")
    d3 = build_root_datum("B", 3)
    x = point_from_root_values(d3, (F(7, 2), F(-5, 2), F(3, 5)))
    reps = apartment_orbit_types(d3, x, 2)
    assert len(calls) == 1
    assert reps == sorted(set(reps)) and len(reps) > 1


def grid_orbit_count_bruteforce(datum, a, e):
    """Grid brute force: partition the full (1/D)-grid modulo coroot
    translations under the level-e affine group, then count Weyl orbits
    inside the orbit of a.  Independent of alcove reduction."""
    from math import lcm

    r = datum.rank
    D = e
    for c in a:
        D = lcm(D, F(c).denominator)
    grid = [tuple(F(v, D) for v in combo) for combo in product(range(D), repeat=r)]
    gens = []
    for w in weyl_generators(datum):
        gens.append(lambda p, w=w: tuple(x % 1 for x in mat_vec(w, p)))
    for j in range(r):
        gens.append(
            lambda p, j=j: tuple(
                (x + (F(1, e) if k == j else 0)) % 1 for k, x in enumerate(p)
            )
        )
    a_mod = tuple(F(c) % 1 for c in a)
    orbits = orbit_partition(grid, gens)
    orbit_of_a = next(o for o in orbits if a_mod in o)
    weyl_only = [g for g in gens[: datum.rank]]
    sub = orbit_partition(list(orbit_of_a), weyl_only)
    return len(sub)


@pytest.mark.parametrize("label,rank,emax", [("A", 1, 6), ("A", 2, 4),
                                             ("C", 2, 4), ("G", 2, 3)])
def test_apartment_orbit_matches_grid_bruteforce(label, rank, emax):
    datum = build_root_datum(label, rank)
    rng = random.Random(77)
    for e in range(1, emax + 1):
        bases = [tuple(F(0) for _ in range(rank))]
        bases.append(point_from_root_values(datum, tuple(F(1, e) for _ in range(rank))))
        values = tuple(F(rng.randint(0, e), e) for _ in range(rank))
        bases.append(point_from_root_values(datum, values))
        for base in bases:
            base = reduce_to_alcove(datum, base)[0]
            got = len(apartment_orbit_types(datum, base, e))
            want = grid_orbit_count_bruteforce(datum, base, e)
            assert got == want, (label, rank, e, base)


# E6 at e = 2 and E7 and E8 at e = 1 are inside the cap only on the grid
# estimate e^r, not at |W| * e^r
@pytest.mark.parametrize("label,rank,emax", [("A", 1, 12), ("A", 2, 6),
                                             ("C", 2, 6), ("G", 2, 6),
                                             ("E", 6, 2), ("E", 7, 1), ("E", 8, 1)])
def test_apartment_count_equals_cohomology_count(label, rank, emax):
    datum = build_root_datum(label, rank)
    for e in range(1, emax + 1):
        bases = [
            tuple(F(0) for _ in range(rank)),
            point_from_root_values(datum, tuple(F(1, e) for _ in range(rank))),
            point_from_root_values(
                datum, tuple(F(1, e) if i == 0 else F(0) for i in range(rank))
            ),
        ]
        for base in bases:
            base = reduce_to_alcove(datum, base)[0]
            ap = len(apartment_orbit_types(datum, base, e))
            co = len(local_types(datum, trivial_action(rank, e), base=base))
            assert ap == co, (label, rank, e, base)


# the excluded characteristics of every type up to rank 12, as the per-type
# rule gave them: {2} | primes(n + 1) for A_n, {2} for B, C and D, {2, 3, 5}
# for E8 and {2, 3} for E6, E7, F4 and G2
EXCLUDED_CHARACTERISTICS = {
    ("A", 1): {2}, ("A", 2): {2, 3}, ("A", 3): {2}, ("A", 4): {2, 5},
    ("A", 5): {2, 3}, ("A", 6): {2, 7}, ("A", 7): {2}, ("A", 8): {2, 3},
    ("A", 9): {2, 5}, ("A", 10): {2, 11}, ("A", 11): {2, 3}, ("A", 12): {2, 13},
    **{(label, rank): {2} for label in "BC" for rank in range(2, 13)},
    **{("D", rank): {2} for rank in range(4, 13)},
    ("E", 6): {2, 3}, ("E", 7): {2, 3}, ("E", 8): {2, 3, 5},
    ("F", 4): {2, 3}, ("G", 2): {2, 3},
}


def test_excluded_characteristics_are_read_off_the_root_datum():
    assert sorted(EXCLUDED_CHARACTERISTICS) == sorted(rank_range(12))
    for (label, rank), excluded in EXCLUDED_CHARACTERISTICS.items():
        assert vertex_prime_data(label, rank).excluded_characteristics == excluded


def extended_cartan(datum):
    """<alpha_i, alpha_j^vee> over the nodes of the extended diagram, node 0
    the affine root alpha_0 = delta - theta, whose linear part is -theta."""
    r = datum.rank
    theta_coroot = datum.positive_coroots[datum.positive_roots.index(datum.marks)]
    unit = [[int(i == j) for j in range(r)] for i in range(r)]
    roots = [[-m for m in datum.marks]] + unit
    coroots = [[-c for c in theta_coroot]] + unit
    return [[sum(a * datum.cartan[i][j] * b for i, a in enumerate(root)
                 for j, b in enumerate(coroot)) for coroot in coroots] for root in roots]


def matrix_automorphism_count(matrix):
    """The node permutations p with matrix[p(i)][p(j)] = matrix[i][j], by a
    search that extends a partial permutation only while it preserves the
    entries among the nodes already placed."""
    n = len(matrix)

    def extend(images):
        k = len(images)
        if k == n:
            return 1
        return sum(extend(images + [j]) for j in range(n) if j not in images
                   and matrix[j][j] == matrix[k][k]
                   and all(matrix[j][p] == matrix[k][i] and matrix[p][j] == matrix[i][k]
                           for i, p in enumerate(images)))

    return extend([])


def test_vertex_prime_data():
    e8 = vertex_prime_data("E", 8)
    assert e8.mark_primes == frozenset({2, 3, 5})
    assert e8.excluded_characteristics == frozenset({2, 3, 5})
    assert e8.affine_aut_order is None
    f4 = vertex_prime_data("F", 4)
    assert f4.mark_primes == frozenset({2, 3})
    # the two nodes of the A1 diagram pair to -2 both ways: 2 automorphisms,
    # not the 2(n+1) = 4 of the dihedral rule, which holds from A2 on
    assert extended_cartan(build_root_datum("A", 1)) == [[2, -2], [-2, 2]]
    assert [matrix_automorphism_count(extended_cartan(build_root_datum("A", n)))
            for n in range(1, 7)] == [2, 6, 8, 10, 12, 14]
    for n in range(1, 11):
        an = vertex_prime_data("A", n)
        assert an.mark_primes == frozenset()
        assert an.affine_aut_order == matrix_automorphism_count(
            extended_cartan(build_root_datum("A", n)))
        assert an.twisted_affine_aut_order == (2 if n % 2 == 1 else 1)
        from parahoric.alcove import prime_divisors

        assert an.excluded_characteristics == frozenset({2}) | prime_divisors(n + 1)
    for label, rank in [("B", 2), ("B", 4), ("C", 3), ("D", 4)]:
        v = vertex_prime_data(label, rank)
        assert v.mark_primes <= {2}
        assert v.excluded_characteristics == frozenset({2})
    for label, rank in [("E", 6), ("E", 7), ("G", 2)]:
        v = vertex_prime_data(label, rank)
        assert v.mark_primes <= {2, 3}
        assert v.excluded_characteristics == frozenset({2, 3})


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction kernels they replaced
# ---------------------------------------------------------------------------

def reduce_to_alcove_reference(datum, x):
    """The Fraction fold: the first simple wall with a negative value, else
    the theta-wall while <theta, x> > 1, with r^2 pairings per step."""
    point = [F(c) for c in x]
    theta = datum.marks  # the highest root
    theta_coroot = datum.positive_coroots[datum.positive_roots.index(theta)]
    word = []
    while True:
        for i in range(datum.rank):
            value = sum(F(datum.cartan[i][j]) * point[j] for j in range(datum.rank))
            if value < 0:
                point[i] -= value
                word.append(i + 1)
                break
        else:
            excess = pairing(datum, theta, point) - 1
            if excess <= 0:
                return tuple(point), tuple(word)
            for j in range(datum.rank):
                point[j] -= excess * theta_coroot[j]
            word.append(0)


def facet_and_degree_reference(datum, x):
    """(walls, special) with every positive root paired as a Fraction."""
    values = [pairing(datum, tuple(int(k == i) for k in range(datum.rank)), x)
              for i in range(datum.rank)]
    walls = {i + 1 for i, v in enumerate(values) if v == 0}
    if pairing(datum, datum.marks, x) == 1:
        walls.add(0)
    special = all(pairing(datum, root, x).denominator == 1
                  for root in datum.positive_roots)
    degree = 1
    for root in datum.positive_roots:
        d = pairing(datum, root, x).denominator
        degree = degree * d // gcd(degree, d)
    return frozenset(walls), special, degree


# root values drawn per point: near the alcove, and far from it (the
# reference fold costs r^2 Fraction products per reflection, so the far
# band narrows with the rank)
def fold_test_points(rng, datum):
    r = datum.rank
    far = 40 if r <= 3 else 10 if r <= 5 else 4
    points = []
    for bound in (1, far):
        for _ in range(2 if r <= 5 else 1):
            values = tuple(F(rng.randint(-bound * 6, bound * 6), rng.choice((1, 2, 3, 5, 6)))
                           for _ in range(r))
            points.append(point_from_root_values(datum, values))
    return points


@pytest.mark.parametrize("label,rank", rank_range(8))
def test_integer_fold_matches_the_fraction_fold(label, rank):
    datum = build_root_datum(label, rank)
    rng = random.Random(f"{label}{rank}")
    for x in fold_test_points(rng, datum):
        point, word = reduce_to_alcove(datum, x)
        assert point == reduce_to_alcove_reference(datum, x)[0]
        assert word == reduce_to_alcove_reference(datum, fold_start(datum, x))[1]
        assert all(type(c) is F for c in point)
        facet = facet_of(datum, point)
        walls, special, degree = facet_and_degree_reference(datum, point)
        assert (facet.vanishing_walls, facet.special) == (walls, special)
        assert min_split_degree(datum, point)[0] == degree
        assert min_split_degree(datum, x)[0] == facet_and_degree_reference(datum, x)[2]
        assert simple_root_values(datum, x) == tuple(
            pairing(datum, tuple(int(k == i) for k in range(rank)), x) for i in range(rank))


@pytest.mark.parametrize("label,rank", rank_range(6))
def test_type_fold_over_lcm_matches_the_fraction_fold(label, rank):
    # type_to_alcove folds b + t over D = lcm(den b, e), which need not be
    # the least denominator of b + t; the point and its facet are those of
    # the Fraction fold of b + t, and the word over D that of its translate
    datum = build_root_datum(label, rank)
    rng = random.Random(f"type {label}{rank}")
    for e in (1, 2, 6):
        for x in fold_test_points(rng, datum):
            base = reduce_to_alcove(datum, x)[0]
            rep = tuple(F(rng.randrange(e), e) for _ in range(rank))
            twisted = tuple(b + t for b, t in zip(base, rep))
            point = reduce_to_alcove_reference(datum, twisted)[0]
            assert type_to_alcove(datum, rep, e, base) == (point, facet_of(datum, point))
            N, B = common_numerators(base)
            D = lcm(N, e)
            X = [b * (D // N) + a * (D // e) for b, a in zip(B, grid_numerators(rep, e))]
            word = tuple(fold_numerators(datum, D, X)[2])
            assert word == reduce_to_alcove_reference(datum, fold_start(datum, twisted))[1]
    with pytest.raises(ValueError, match=r"is not in \(1/2\)Z"):
        type_to_alcove(datum, (F(1, 3),) + (F(0),) * (rank - 1), 2, (F(0),) * rank)
