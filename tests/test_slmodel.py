import itertools
import random
from fractions import Fraction as F

import pytest

from parahoric.alcove import simple_root_values
from parahoric.cohomology import LocalType, cocycle_of, h1_elements, types_of_classes
from parahoric.exactalg import common_numerators, identity_matrix, mat_sub, qz_vector, qz_zero
from parahoric.rootdata import EnumerationCapError
from parahoric.slmodel import (
    MonomialMatrix,
    _sl_base,
    _sl_flip,
    gram_conjugate,
    gram_unit_part,
    hermitian_gram,
    involution_apply,
    lift_of_permutation,
    mm_diag,
    mm_inv,
    mm_mul,
    mm_transpose,
    perm_sign,
    reversal,
    reversal_fixed_permutations,
    sl_diagonal,
    sl_involution,
    sl_local_types,
    sl_torus_h1,
    standard_involution,
    su_special_vertex_types,
    t_w,
    variant_involution,
)

from .references import (
    ImageMembership,
    MatrixAutomorphism,
    class_orbits,
    cocycle_numerators,
    diagonal_action,
    matrix_order,
    monomial_lift_sl_types,
)


def mm_identity(n):
    return MonomialMatrix(n, tuple(range(n)), qz_zero(n))


# ---------------------------------------------------------------------------
# the diagonal model of H^1 and its twisted orbits, the reference for the
# lattice path: types_of_classes on the flip with the base point of the
# involution, written as diagonals
# ---------------------------------------------------------------------------

def sl_types_of_classes(n, spec, classes=None):
    """The types of :func:`types_of_classes` on the triple of
    ``sl_involution``, written as diagonals, the path of the ``sl-J`` and
    ``sl-Jprime`` reports.  ``classes`` (diagonals, as from
    ``sl_torus_h1``) are checked against the coroot classes when given."""
    datum, action, base = sl_involution(n, spec.kind)
    lattice = h1_elements(datum, action)
    if classes is not None:
        assert classes.representatives == tuple(map(sl_diagonal, lattice.representatives))
    return [LocalType(sl_diagonal(t.orbit_representative), t.orbit_size, t.index)
            for t in types_of_classes(datum, action, lattice, base=base)]


def sl_membership(spec):
    """Membership test for the coboundary image (1 - gamma) T(k) inside the
    SL torus: solve (1 - gamma) x = delta with the sum-zero constraint."""
    n = spec.n
    coboundary = mat_sub(identity_matrix(n), diagonal_action(spec).automorphism.matrix)
    return ImageMembership(tuple(coboundary) + ((1,) * n,))


def sl_invariant(member, t):
    return member.invariant(tuple(t) + (F(0),))


def diagonal_classes(n, spec):
    """The least norm-killed diagonal of each class among the 2^n 2-torsion
    diagonals of even weight (every class contains one), in sorted order;
    classes are separated by solvability of (1 - gamma) x = difference
    within the SL torus."""
    member = sl_membership(spec)
    norm = diagonal_action(spec).norm_matrix()
    least = {}
    for bits in itertools.product((0, 1), repeat=n):
        t = tuple(F(b, 2) for b in bits)
        if sum(bits) % 2 or any(sum(a * x for a, x in zip(row, t)) % 1 for row in norm):
            continue
        key = sl_invariant(member, t)
        if key not in least or t < least[key]:
            least[key] = t
    return tuple(sorted(least.values()))


def reversal_fixed_generators(n):
    """The m = n // 2 generators of W^gamma, the hyperoctahedral group
    permuting the pairs {j, n-1-j}: the swaps (i i+1)(n-1-i n-2-i) of
    adjacent pairs for i < m-1, and the flip of the last pair {m-1, n-m}."""
    m = n // 2
    gens = []
    for i in range(m):
        swaps = ((i, i + 1), (n - 1 - i, n - 2 - i)) if i < m - 1 else ((m - 1, n - m),)
        sigma = list(range(n))
        for a, b in swaps:
            sigma[a], sigma[b] = b, a
        gens.append(tuple(sigma))
    return gens


def twisted_diagonal_map(sigma, spec):
    """t -> L^-1 diag(t) gamma(L) for the lift L of sigma, as a map of
    additive diagonals.

    gamma(L) = L diag(c) with c = t_w(L), and conjugating a diagonal by a
    monomial matrix only permutes its entries, so the image is
    t[sigma(j)] + c[j]: a permutation plus a fixed twist.
    """
    c = t_w(lift_of_permutation(sigma), spec)
    return lambda t: tuple((t[s] + x) % 1 for s, x in zip(sigma, c))


def diagonal_types(n, spec, reps):
    """The orbits of the diagonal classes ``reps`` under the generators of
    W^gamma, each applied by :func:`twisted_diagonal_map`."""
    member = sl_membership(spec)
    maps = [twisted_diagonal_map(sigma, spec) for sigma in reversal_fixed_generators(n)]
    return class_orbits(reps, diagonal_action(spec).norm_matrix(),
                        lambda t: sl_invariant(member, t), maps)


def random_monomial(rng, n, max_den=12):
    perm = list(range(n))
    rng.shuffle(perm)
    entries = []
    for _ in range(n):
        den = rng.randint(1, max_den)
        entries.append(F(rng.randint(0, den - 1), den))
    return MonomialMatrix(n, tuple(perm), qz_vector(entries))


def make_sl(m):
    """Adjust the last entry so the determinant vanishes."""
    correction = m.det_value
    entries = list(m.entries)
    entries[-1] = (entries[-1] - correction) % 1
    return MonomialMatrix(m.n, m.perm, qz_vector(entries))


def test_mm_group_axioms():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(2, 6)
        a, b, c = (random_monomial(rng, n) for _ in range(3))
        assert mm_mul(mm_mul(a, b), c) == mm_mul(a, mm_mul(b, c))
        assert mm_mul(a, mm_inv(a)) == mm_identity(n)
        assert mm_mul(mm_inv(a), a) == mm_identity(n)
        assert mm_transpose(mm_transpose(a)) == a
        assert mm_transpose(mm_mul(a, b)) == mm_mul(mm_transpose(b), mm_transpose(a))


def test_mm_inv_worked_example():
    m = MonomialMatrix(2, (1, 0), qz_vector((F(1, 3), F(0))))
    inv = mm_inv(m)
    assert inv.perm == (1, 0)
    assert inv.entries == (F(0), F(2, 3))
    assert mm_mul(m, inv) == mm_identity(2)


def test_transpose_of_diagonal_is_itself():
    d = mm_diag((F(1, 4), F(3, 4), F(0)))
    assert mm_transpose(d) == d


def test_det_value():
    d = mm_diag((F(1, 3), F(2, 3)))
    assert d.det_value == 0 and d.is_sl
    swap = MonomialMatrix(2, (1, 0), qz_vector((F(0), F(0))))
    assert swap.det_value == F(1, 2)  # a transposition has determinant -1
    assert perm_sign((1, 0)) == -1 and perm_sign((0, 1, 2)) == 1


def test_involution_on_diagonal_reverses_inverses():
    spec = standard_involution(4)
    d = mm_diag((F(1, 3), F(1, 4), F(5, 12), F(0)))
    d = make_sl(d)
    out = involution_apply(d, spec)
    assert out.is_diagonal
    assert out.entries == qz_vector(-x for x in reversed(d.entries))


def test_involution_is_involutive():
    rng = random.Random(9)
    for n in (3, 4, 5, 6):
        specs = [standard_involution(n)]
        if n % 2 == 0:
            specs.append(variant_involution(n))
        for spec in specs:
            for _ in range(25):
                m = make_sl(random_monomial(rng, n))
                assert involution_apply(involution_apply(m, spec), spec) == m


def test_involution_preserves_sl():
    rng = random.Random(10)
    spec = standard_involution(5)
    for _ in range(25):
        m = make_sl(random_monomial(rng, 5))
        assert involution_apply(m, spec).is_sl
    with pytest.raises(ValueError):
        involution_apply(
            MonomialMatrix(5, tuple(range(5)), qz_vector((F(1, 3), 0, 0, 0, 0))),
            spec,
        )


def test_identity_fixed_by_involution():
    for n in (3, 4):
        assert involution_apply(mm_identity(n), standard_involution(n)) == mm_identity(n)


def test_central_block_lift():
    w = lift_of_permutation((0, 2, 1, 3))
    # central block [[0,1],[-1,0]]: column 1 -> -e2, column 2 -> +e1
    assert w.perm == (0, 2, 1, 3)
    assert w.entries == (F(0), F(1, 2), F(0), F(0))
    assert w.is_sl


def test_variant_involution_fixes_central_lift():
    w = lift_of_permutation((0, 2, 1, 3))
    assert involution_apply(w, variant_involution(4)) == w


def test_t_w_values_n4():
    w = lift_of_permutation((0, 2, 1, 3))
    assert t_w(w, standard_involution(4)) == (F(0), F(1, 2), F(1, 2), F(0))
    assert t_w(w, variant_involution(4)) == (F(0),) * 4
    assert t_w(mm_identity(4), standard_involution(4)) == (F(0),) * 4


def test_t_w_class_independent_of_lift():
    # two lifts differing by a diagonal SL element induce the same orbits
    spec = standard_involution(4)
    base_types = [t.orbit_representative for t in sl_local_types(4, spec.kind)]

    w = lift_of_permutation((0, 2, 1, 3))
    s = make_sl(mm_diag((F(1, 3), F(1, 5), F(0), F(0))))
    w_alt = mm_mul(w, s)
    classes = sl_torus_h1(4)
    member = sl_membership(spec)
    index_of = {sl_invariant(member, t): i for i, t in enumerate(classes.representatives)}

    def orbit_map(lift):
        out = {}
        for i, rep in enumerate(classes.representatives):
            img = mm_mul(mm_inv(lift), mm_mul(mm_diag(rep), involution_apply(lift, spec)))
            out[i] = index_of[sl_invariant(member, img.diagonal())]
        return out

    assert orbit_map(w) == orbit_map(w_alt)


def test_diagonal_action_has_order_two_read_off_its_powers():
    from parahoric.rootdata import LatticeAutomorphism

    for n in range(3, 13):
        for spec in specs_of(n):
            M = diagonal_action(spec).automorphism.matrix
            assert type(diagonal_action(spec).automorphism) is MatrixAutomorphism
            assert diagonal_action(spec).automorphism.order == matrix_order(M) == 2
            # -rho permutes no nodes, so it is no lattice automorphism of the library
            with pytest.raises(ValueError, match="is not a permutation of the nodes"):
                LatticeAutomorphism(M)


def test_diagonal_action_ignores_entries():
    assert diagonal_action(standard_involution(4)).automorphism \
        == diagonal_action(variant_involution(4)).automorphism


def closure(gens, n):
    """The permutations of range(n) generated by ``gens``."""
    generated = {tuple(range(n))}
    frontier = list(generated)
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                gh = tuple(g[h[j]] for j in range(n))
                if gh not in generated:
                    generated.add(gh)
                    new.append(gh)
        frontier = new
    return generated


def _class_permutation(n, spec, sigma):
    """The twisted action of one fixed permutation on the class indices."""
    classes = sl_torus_h1(n)
    member = sl_membership(spec)
    index_of = {sl_invariant(member, t): i
                for i, t in enumerate(classes.representatives)}
    lift = lift_of_permutation(sigma)
    images = []
    for rep in classes.representatives:
        img = mm_mul(mm_inv(lift), mm_mul(mm_diag(rep),
                                          involution_apply(lift, spec)))
        images.append(index_of[sl_invariant(member, img.diagonal())])
    return images


@pytest.mark.parametrize("n,builder", [(4, standard_involution),
                                       (4, variant_involution),
                                       (6, standard_involution)])
def test_twisted_action_is_bijective_per_generator(n, builder):
    spec = builder(n)
    k = sl_torus_h1(n).structure.order
    for sigma in reversal_fixed_permutations(n):
        images = _class_permutation(n, spec, sigma)
        assert sorted(images) == list(range(k))


def test_orbit_partition_generator_set_independent():
    # the full fixed group versus a proper generating subset of it
    from parahoric.rootdata import orbit_partition

    for builder in (standard_involution, variant_involution):
        spec = builder(4)
        full = reversal_fixed_permutations(4)
        subset = [(3, 1, 2, 0), (1, 0, 3, 2)]  # generates the order-8 centralizer
        assert closure(subset, 4) == set(full)

        def orbits(perms):
            maps = [
                (lambda p, s=s: (_class_permutation(4, spec, s)[p[0]],))
                for s in perms
            ]
            k = sl_torus_h1(4).structure.order
            return orbit_partition([(i,) for i in range(k)], maps)

        assert orbits(full) == orbits(subset)


def test_sl_torus_h1_orders():
    for n in (3, 5, 7):
        assert sl_torus_h1(n).structure.order == 1
    for n in (4, 6):  # the same classes for J and J'
        assert sl_torus_h1(n).structure.order == 2


def test_sl_torus_h1_against_lattice_model_up_to_9():
    for n in range(3, 10):
        specs = [standard_involution(n)]
        if n % 2 == 0:
            specs.append(variant_involution(n))
        for spec in specs:
            classes = sl_torus_h1(n)  # internal hard cross-check runs here
            assert len(classes.representatives) == classes.structure.order


def test_sl_torus_h1_nontrivial_rep_detected_by_half_product():
    classes = sl_torus_h1(4)
    nontrivial = classes.representatives[1]
    assert sum(nontrivial[:2]) % 1 == F(1, 2)


def test_reversal_fixed_permutations_past_the_cap_are_refused_before_the_scan(monkeypatch,
                                                                               capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("the permutations were scanned")

    monkeypatch.setattr(itertools, "permutations", no_scan)
    with pytest.raises(EnumerationCapError) as info:
        reversal_fixed_permutations(9)
    assert str(info.value) == ("reversal-fixed permutations of S_9: a scan of 362880 "
                               "permutations exceeds the cap n <= 8")
    assert capsys.readouterr().out == ""


def test_reversal_fixed_permutations():
    fixed = reversal_fixed_permutations(4)
    assert len(fixed) == 8  # centralizer of the reversal in S4
    rho = reversal(4)
    for sigma in fixed:
        assert tuple(sigma[rho[j]] for j in range(4)) == tuple(
            rho[sigma[j]] for j in range(4)
        )
    assert (0, 2, 1, 3) in fixed


def test_sl_local_types_worked_examples():
    assert len(sl_local_types(5, "J")) == 1
    assert len(sl_local_types(4, "J")) == 1
    assert len(sl_local_types(4, "J-prime")) == 2
    assert len(sl_local_types(6, "J")) == 1
    assert len(sl_local_types(6, "J-prime")) == 2


@pytest.mark.parametrize("n", [3, 5, 7])
def test_sl_local_types_refuses_the_variant_of_odd_size(n):
    # the refusal of sl_involution, the one check of the size
    with pytest.raises(ValueError, match="^the variant involution needs even size$"):
        sl_local_types(n, "J-prime")


@pytest.mark.parametrize("kind", ["K", "j", "sl-J", ""])
def test_sl_local_types_refuses_an_unknown_kind(kind):
    # the refusal of _sl_base, which reads the kind
    with pytest.raises(ValueError, match=f"^unknown involution kind {kind!r}$"):
        sl_local_types(4, kind)


def test_the_sl_lattice_calls_take_the_size_and_a_kind():
    import inspect

    from parahoric.rootdata import DEFAULT_CAP

    for call, names in ((sl_torus_h1, ["n", "cap"]), (sl_local_types, ["n", "kind", "cap"])):
        parameters = inspect.signature(call).parameters
        assert list(parameters) == names and parameters["cap"].default == DEFAULT_CAP


def test_sl_local_types_orbit_sizes():
    types = sl_local_types(4, "J")
    assert types[0].orbit_representative == (F(0),) * 4
    assert types[0].orbit_size == 2
    types = sl_local_types(4, "J-prime")
    assert [t.orbit_size for t in types] == [1, 1]


def test_sl_types_of_classes_matches_sl_local_types():
    for n in (3, 4, 5, 6):
        specs = [standard_involution(n)] + ([variant_involution(n)] if n % 2 == 0 else [])
        for spec in specs:
            classes = sl_torus_h1(n)
            assert sl_types_of_classes(n, spec, classes) == sl_local_types(n, spec.kind)


def specs_of(n):
    return [standard_involution(n)] + ([variant_involution(n)] if n % 2 == 0 else [])


@pytest.mark.parametrize("n", range(3, 9))
def test_reversal_fixed_generators_close_to_the_fixed_group(n):
    gens = reversal_fixed_generators(n)
    assert len(gens) == n // 2
    assert closure(gens, n) == set(reversal_fixed_permutations(n))


@pytest.mark.parametrize("n", range(3, 9))
def test_twisted_diagonal_map_matches_the_monomial_product(n):
    rng = random.Random(n)
    for spec in specs_of(n):
        vectors = list(sl_torus_h1(n).representatives)
        vectors += [make_sl(mm_diag([F(rng.randint(0, 5), 6) for _ in range(n)])).entries
                    for _ in range(3)]
        for sigma in reversal_fixed_permutations(n):
            lift = lift_of_permutation(sigma)
            twist = involution_apply(lift, spec)
            image = twisted_diagonal_map(sigma, spec)
            for t in vectors:
                want = mm_mul(mm_inv(lift), mm_mul(mm_diag(t), twist)).diagonal()
                assert image(t) == want, (spec.kind, sigma, t)


def reference_sl_types(n, spec, classes):
    """The orbits under every element of W^gamma, each applied as the
    monomial product L^-1 diag(t) gamma(L) of its lift."""
    member = sl_membership(spec)
    lifts = [lift_of_permutation(s) for s in reversal_fixed_permutations(n)]
    maps = [
        lambda t, lift=lift: mm_mul(
            mm_inv(lift), mm_mul(mm_diag(t), involution_apply(lift, spec))
        ).diagonal()
        for lift in lifts
    ]
    return class_orbits(classes.representatives, diagonal_action(spec).norm_matrix(),
                        lambda t: sl_invariant(member, t), maps)


@pytest.mark.parametrize("n", range(3, 9))
def test_sl_types_of_classes_match_the_full_group_reference(n):
    for spec in specs_of(n):
        classes = sl_torus_h1(n)
        assert sl_types_of_classes(n, spec, classes) == reference_sl_types(n, spec, classes)


@pytest.mark.parametrize("n", range(3, 13))
def test_lattice_path_matches_the_diagonal_model(n, monkeypatch):
    import parahoric.slmodel as slmodel

    monkeypatch.setattr(slmodel, "SL_WEYL_ENUMERATION_CAP", 12)
    for spec in specs_of(n):
        classes = sl_torus_h1(n)
        reps = diagonal_classes(n, spec)
        assert classes.representatives == reps
        types = sl_types_of_classes(n, spec, classes)
        want = diagonal_types(n, spec, reps)
        assert [(t.orbit_representative, t.orbit_size, t.index) for t in types] == [
            (t.orbit_representative, t.orbit_size, t.index) for t in want]
        action = diagonal_action(spec)
        for got, ref in ((classes.representatives, reps),
                         ([t.orbit_representative for t in types],
                          [t.orbit_representative for t in want])):
            assert ([cocycle_numerators(t, action) for t in got]
                    == [cocycle_numerators(t, action) for t in ref])


@pytest.mark.parametrize("n", range(3, 21))
def test_diagonal_coordinates_intertwine_the_flip_with_minus_rho(n):
    # diag o flip = (-rho) o diag, so the cocycle rows of a diagonal class
    # under -rho are the diagonals of the coroot rows under the flip, mod
    # the same denominator d; past the SL cap, on the flip itself
    datum, flip = _sl_flip(n)
    classes = h1_elements(datum, flip)
    for spec in specs_of(n):
        minus_rho = diagonal_action(spec)
        types = types_of_classes(datum, flip, classes, base=_sl_base(n, spec.kind))
        for c in list(classes.representatives) + [t.orbit_representative for t in types]:
            d, rows = cocycle_numerators(sl_diagonal(c), minus_rho)
            assert common_numerators(c)[0] == d
            assert rows == [sl_diagonal([x.numerator * d // x.denominator for x in row], d)
                            for row in cocycle_of(c, flip).values()]


def test_sl_torus_h1_runs_h1_elements_once(monkeypatch):
    import parahoric.slmodel as slmodel

    calls = []
    original = slmodel.h1_elements

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(slmodel, "h1_elements", counted)
    for spec in specs_of(6):
        calls.clear()
        sl_torus_h1(6)
        assert len(calls) == 1


def test_the_sl_flip_is_built_once_per_n(monkeypatch):
    import parahoric.rootdata as rootdata
    import parahoric.slmodel as slmodel

    first = {spec.kind: sl_local_types(6, spec.kind) for spec in specs_of(6)}

    def refuse(*args, **kwargs):
        raise AssertionError("the A5 flip must not be rebuilt")

    # build_root_datum still holds the closure to the cap on each call, and
    # hands back the datum built once: a rebuild would start at the Cartan matrix
    monkeypatch.setattr(slmodel, "diagram_automorphism", refuse)
    monkeypatch.setattr(rootdata, "_cartan_matrix", refuse)
    monkeypatch.setattr(rootdata, "_positive_roots", refuse)
    for spec in specs_of(6):
        assert sl_local_types(6, spec.kind) == first[spec.kind]
    assert rootdata.build_root_datum("a", 5) is slmodel._sl_flip(spec.n)[0]


def test_sl_torus_h1_honours_the_cap():
    # the root closure of A5, |Phi+| r^2 = 15 * 25 = 375, is held to the cap
    assert len(sl_torus_h1(6, cap=375).representatives) == 2
    with pytest.raises(EnumerationCapError, match=r"A5: \|Phi\+\| \* r\^2 = 375 exceeds cap 374$"):
        sl_torus_h1(6, cap=374)
    for kind in ("J", "J-prime"):
        with pytest.raises(EnumerationCapError, match="A5: .* = 375 exceeds cap 1$"):
            sl_local_types(6, kind, cap=1)
        with pytest.raises(EnumerationCapError, match="A7: .* = 1372 exceeds cap 100$"):
            sl_local_types(8, kind, cap=100)


A7_REFUSED = "root closure for A7: |Phi+| * r^2 = 1372 exceeds cap 100"


@pytest.mark.parametrize("call, out, err", [
    ("main(['types', '--group', 'A7', '--order', '2', '--action', 'sl-J', '--cap', '100'])",
     "3", f"cap exceeded: {A7_REFUSED}\n"),
    ("sl_local_types(8, 'J', cap=100)", A7_REFUSED, ""),
    ("sl_torus_h1(8, cap=100)", A7_REFUSED, ""),
], ids=["types", "sl_local_types", "sl_torus_h1"])
def test_a_refused_sl_root_closure_is_never_built(call, out, err):
    # in a process of its own, so the memo of root closures starts empty and
    # a closure built before the cap refuses it would stay in it
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = ("from parahoric.cli import main\n"
              "from parahoric.rootdata import EnumerationCapError, _root_datum\n"
              "from parahoric.slmodel import sl_local_types, sl_torus_h1\n"
              f"try:\n    print({call})\n"
              "except EnumerationCapError as exc:\n    print(exc)\n"
              "print(_root_datum.cache_info().currsize)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{out}\n0\n", err)


def test_sl_types_of_classes_apply_only_the_generators(monkeypatch):
    # the n // 2 generators of W^gamma act through the base point alone:
    # neither W^gamma nor a monomial lift is ever built
    import parahoric.slmodel as slmodel

    n = 8
    for spec in specs_of(n):
        classes = sl_torus_h1(n)
        want = monomial_lift_sl_types(n, spec, classes)

        def refuse(*args):
            raise AssertionError("no monomial calculus on the types path")

        def no_scan(*args):
            raise AssertionError("W^gamma must not be enumerated")

        with monkeypatch.context() as patch:
            for name in ("involution_apply", "lift_of_permutation", "t_w", "mm_mul"):
                patch.setattr(slmodel, name, refuse)
            patch.setattr(slmodel, "reversal_fixed_permutations", no_scan)
            assert sl_types_of_classes(n, spec, classes) == want
            assert sl_local_types(n, spec.kind) == want


@pytest.mark.parametrize("n", range(3, 13))
def test_base_path_matches_the_monomial_lift_reference(n, monkeypatch):
    # the flip with the base point of J = eps^-1 J' (root value -1/2 at the
    # middle node for sl-J at even n, else 0) against the twists t_w of the
    # monomial lifts, read into coroot coordinates
    import parahoric.slmodel as slmodel

    monkeypatch.setattr(slmodel, "SL_WEYL_ENUMERATION_CAP", 12)
    for spec in specs_of(n):
        classes = sl_torus_h1(n)
        assert sl_types_of_classes(n, spec, classes) == monomial_lift_sl_types(n, spec, classes)
    root_values = {spec.kind: simple_root_values(slmodel._sl_flip(n)[0],
                                                 slmodel._sl_base(n, spec.kind))
                   for spec in specs_of(n)}
    want = [F(-1, 2) if n % 2 == 0 and i == n // 2 - 1 else F(0) for i in range(n - 1)]
    assert list(root_values["J"]) == want
    assert set(root_values.get("J-prime", (F(0),))) == {F(0)}


def test_su_cases_match_the_monomial_lift_reference():
    for n in range(3, 9):
        for case in (("odd-A", "odd-B") if n % 2 else ("even-Lm", "even-L0")):
            spec = variant_involution(n) if case == "even-Lm" else standard_involution(n)
            assert su_special_vertex_types(n, case).type_count \
                == len(monomial_lift_sl_types(n, spec)), (n, case)


def test_sl_base_refuses_an_unknown_involution_kind():
    import parahoric.slmodel as slmodel

    with pytest.raises(ValueError, match="unknown involution kind 'K'"):
        slmodel._sl_base(4, "K")


def test_sl_types_of_classes_refuse_n_over_the_cap():
    from parahoric.slmodel import SL_WEYL_ENUMERATION_CAP

    n = SL_WEYL_ENUMERATION_CAP + 1
    spec = standard_involution(n)
    for refused in (lambda: sl_types_of_classes(n, spec, sl_torus_h1(n)),
                    lambda: sl_local_types(n, spec.kind)):
        with pytest.raises(EnumerationCapError) as err:
            refused()
        assert str(err.value) == (f"twisted W^gamma orbits of SL_{n}: n = {n} exceeds "
                                  f"the cap n <= {SL_WEYL_ENUMERATION_CAP}")


def test_sl_involution_checks_before_it_builds(monkeypatch):
    import parahoric.slmodel as slmodel

    def refuse(*args, **kwargs):
        raise AssertionError("no root datum for a refused involution")

    monkeypatch.setattr(slmodel, "build_root_datum", refuse)
    with pytest.raises(EnumerationCapError, match="SL_121: n = 121 exceeds the cap n <= 8$"):
        sl_involution(121, "J")
    with pytest.raises(ValueError, match="the variant involution needs even size"):
        sl_involution(121, "J-prime")
    with pytest.raises(ValueError, match="the worked involutions need n >= 3"):
        sl_involution(2, "J")


def test_su_special_vertex_types_compute_h1_once(monkeypatch):
    import parahoric.slmodel as slmodel

    import parahoric.cohomology as cohomology

    calls = []
    original = cohomology.h1_elements

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(slmodel, "h1_elements", counted)
    monkeypatch.setattr(cohomology, "h1_elements", counted)
    report = slmodel.su_special_vertex_types(4, "even-Lm")
    assert (report.torus_h1_order, report.type_count) == (2, 2)
    assert len(calls) == 1


def test_su_special_vertex_types_refuse_n_below_3_before_h1(monkeypatch, capsys):
    from parahoric import slmodel

    def no_h1(*args, **kwargs):
        raise AssertionError("H^1 was listed first")

    monkeypatch.setattr(slmodel, "h1_elements", no_h1)
    with pytest.raises(ValueError) as info:
        su_special_vertex_types(2, "even-L0")
    assert str(info.value) == "need n >= 3"
    assert capsys.readouterr().out == ""


def test_su_special_vertex_types():
    assert su_special_vertex_types(5, "odd-A").type_count == 1
    assert su_special_vertex_types(5, "odd-B").type_count == 1
    assert su_special_vertex_types(4, "even-Lm").type_count == 2
    assert su_special_vertex_types(4, "even-L0").type_count == 1
    # unicode aliases accepted
    assert su_special_vertex_types(4, "even-Λm").type_count == 2
    assert su_special_vertex_types(6, "even-Lm").type_count == 2
    assert su_special_vertex_types(7, "odd-B").type_count == 1


def test_su_special_vertex_types_past_the_sl_cap():
    from parahoric.slmodel import SL_WEYL_ENUMERATION_CAP

    # H^1 = 0 for odd n is one type at any n; a nontrivial H^1 runs the orbits
    for n, case in ((9, "odd-A"), (11, "odd-B"), (13, "odd-A")):
        report = su_special_vertex_types(n, case)
        assert (report.torus_h1_order, report.type_count) == (1, 1), (n, case)
    n = SL_WEYL_ENUMERATION_CAP + 2
    with pytest.raises(EnumerationCapError, match=f"SL_{n}: n = {n} exceeds the cap"):
        su_special_vertex_types(n, "even-Lm")


def test_su_case_validation():
    with pytest.raises(ValueError):
        su_special_vertex_types(4, "odd-A")
    with pytest.raises(ValueError):
        su_special_vertex_types(5, "even-Lm")
    with pytest.raises(ValueError):
        su_special_vertex_types(5, "no-such-case")


def test_hermitian_gram_even_case():
    # Gram of the even lattice has constant valuation -1 and unit part
    # matching the variant involution's matrix
    n, m = 4, 2
    gram = hermitian_gram(n, (1,) * m + (0,) * m)
    assert gram.perm == reversal(n)
    assert set(gram.valuations) == {-1}
    unit = gram_unit_part(gram_conjugate(gram))
    assert unit is not None
    assert unit.perm == variant_involution(n).J.perm
    assert unit.entries == variant_involution(n).J.entries


def test_hermitian_gram_odd_case_has_mixed_valuations():
    n, m = 5, 2
    gram = hermitian_gram(n, (1,) * m + (0,) * (m + 1))
    assert gram.perm == reversal(n)
    assert sorted(set(gram.valuations)) == [-1, 0]
    assert gram_unit_part(gram) is None


# the lattice exponents c of each special-vertex case, g_i = pi^(-c_i) f_i
SU_LATTICE_EXPONENTS = {
    "odd-A": lambda n: (0,) * n,
    "odd-B": lambda n: (1,) * (n // 2) + (0,) * (n - n // 2),
    "even-Lm": lambda n: (1,) * (n // 2) + (0,) * (n // 2),
    "even-L0": lambda n: (0,) * n,
}


def gram_involution_kind(n, exponents):
    """The involution of SL_n that the hermitian form of the lattice with
    ``exponents`` induces: a constant valuation leaves a unit part, which
    must be J or J' up to the sign of the scalar that cancels; mixed
    valuations on the antidiagonal leave only the reversal, which acts on
    the diagonal torus as J does."""
    gram = gram_conjugate(hermitian_gram(n, exponents))
    assert gram.perm == reversal(n)
    unit = gram_unit_part(gram)
    if unit is None:
        return "J"
    negated = qz_vector(x + F(1, 2) for x in unit.entries)
    specs = [standard_involution(n)] + ([variant_involution(n)] if n % 2 == 0 else [])
    kinds = [spec.kind for spec in specs
             if spec.J.perm == unit.perm and spec.J.entries in (unit.entries, negated)]
    assert len(kinds) == 1, (n, exponents, unit)
    return kinds[0]


@pytest.mark.parametrize("n,case", [(n, case) for n in range(3, 13)
                                    for case in SU_LATTICE_EXPONENTS
                                    if case.startswith("odd") == (n % 2 == 1)])
def test_su_case_involutions_are_derived_from_their_gram_matrices(n, case):
    import parahoric.slmodel as slmodel

    derived = gram_involution_kind(n, SU_LATTICE_EXPONENTS[case](n))
    if n % 2 == 0 and n > slmodel.SL_WEYL_ENUMERATION_CAP:  # its orbits are refused
        assert slmodel._SU_CASES[case][1] == derived
    else:
        assert su_special_vertex_types(n, case).involution_kind == derived


def test_su_cases_need_no_per_call_construction(monkeypatch):
    import parahoric.slmodel as slmodel

    def refuse(*args, **kwargs):
        raise AssertionError("a special-vertex case is a row of the case table")

    for name in ("hermitian_gram", "gram_conjugate", "gram_unit_part",
                 "standard_involution", "variant_involution"):
        monkeypatch.setattr(slmodel, name, refuse)
    counts = {}
    for n in range(3, 9):
        for case in (("odd-A", "odd-B") if n % 2 else ("even-Lm", "even-L0")):
            report = slmodel.su_special_vertex_types(n, case)
            counts[n, case] = (report.involution_kind, report.type_count)
    assert counts == {
        **{(n, case): ("J", 1) for n in (3, 5, 7) for case in ("odd-A", "odd-B")},
        **{(n, "even-Lm"): ("J-prime", 2) for n in (4, 6, 8)},
        **{(n, "even-L0"): ("J", 1) for n in (4, 6, 8)},
    }


def test_su_reports_carry_derivations():
    report = su_special_vertex_types(5, "odd-B")
    assert "reversal" in report.derivation
    assert report.torus_h1_order == 1


def test_types_and_global_build_only_permutation_automorphisms(monkeypatch, tmp_path):
    # every action of a `types` branch point permutes the nodes: the -rho
    # model is a test oracle only, so its reference order is never read
    import parahoric.rootdata as rootdata
    from parahoric.cli import types_parts

    from . import references
    from .golden import case_stdout, load_cases

    def refuse(*args, **kwargs):
        raise AssertionError("an order read off matrix powers")

    built = []
    new = rootdata.LatticeAutomorphism.__new__

    def recorded(cls, *args, **kwargs):
        built.append(new(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(references, "matrix_order", refuse)
    monkeypatch.setattr(rootdata.LatticeAutomorphism, "__new__", recorded)
    cases = [("A", 3, 4, "trivial", {}), ("B", 2, 4, "trivial", {"point": (F(1, 2), F(0))}),
             ("A", 4, 2, "diagram", {"perm": (3, 2, 1, 0)})]
    cases += [("A", n - 1, 2, kind, {}) for n in range(3, 9)
              for kind in ("sl-J", "sl-Jprime") if kind == "sl-J" or n % 2 == 0]
    for label, rank, order, kind, options in cases:
        _, action, *_ = types_parts(label, rank, order, kind, **options)
        assert type(action.automorphism) is rootdata.LatticeAutomorphism
    for case in load_cases():
        if case["argv"][0] == "global":
            assert case_stdout(case, tmp_path)[0] == case["exit"]
    assert built and all(type(aut) is rootdata.LatticeAutomorphism for aut in built)
