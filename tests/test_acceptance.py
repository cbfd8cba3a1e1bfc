"""Acceptance suite: one test (and one printed PASS line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact, no tolerances anywhere.
"""

import json
import random
from fractions import Fraction as F


from parahoric.alcove import (
    apartment_orbit_types,
    point_from_root_values,
    reduce_to_alcove,
    vertex_prime_data,
)
from parahoric.cli import main
from parahoric.cohomology import (
    GammaAction,
    burnside_type_count,
    h1_elements,
    h1_structural,
    local_types,
    trivial_action,
)
from parahoric.rootdata import (
    build_root_datum,
    weyl_elements,
    weyl_order,
)
from parahoric.slmodel import (
    lift_of_permutation,
    sl_local_types,
    sl_torus_h1,
    standard_involution,
    su_special_vertex_types,
    t_w,
    variant_involution,
)

from .references import grid_h1_elements, pairing, rank_range, weyl_element_automorphism


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_sl2_type_counts(capsys):
    for e in range(1, 13):
        code, out = run_cli(capsys, "types", "--group", "A1", "--order", str(e),
                            "--action", "trivial")
        assert code == 0
        assert out.splitlines()[-1] == f"types: {(e + 1) // 2}"
        code, out = run_cli(capsys, "twist", "--group", "A1", "--order", str(e),
                            "--point", f"1/{e}")
        assert code == 0
        hyper = [l for l in out.splitlines() if "hyperspecial" in l]
        if e % 2 == 1:
            assert len(hyper) == 1
            assert "facet: vertex {0}, hyperspecial" in hyper[0]
        else:
            assert not hyper
    report(1, "types A1 trivial e = floor((e+1)/2) for e=1..12; "
              "one nonstandard hyperspecial twist iff e odd")


def test_criterion_2_sln_involutions():
    for n in (3, 5, 7):
        assert sl_torus_h1(n, standard_involution(n)).structure.order == 1
    for n in (4, 6):
        assert sl_torus_h1(n, standard_involution(n)).structure.order == 2
        assert sl_torus_h1(n, variant_involution(n)).structure.order == 2
    assert len(sl_local_types(5, standard_involution(5))) == 1
    assert len(sl_local_types(4, standard_involution(4))) == 1
    assert len(sl_local_types(4, variant_involution(4))) == 2
    w = lift_of_permutation((0, 2, 1, 3))
    assert t_w(w, standard_involution(4)) == (F(0), F(1, 2), F(1, 2), F(0))
    assert t_w(w, variant_involution(4)) == (F(0),) * 4
    report(2, "SL_n torus H1 orders, type counts and t_w values match")


def test_criterion_3_su_special_vertices():
    expected = {(5, "odd-A"): 1, (5, "odd-B"): 1,
                (4, "even-Lm"): 2, (4, "even-L0"): 1}
    for (n, case), want in sorted(expected.items()):
        assert su_special_vertex_types(n, case).type_count == want
    report(3, "SU_n special vertex type counts 1/1/2/1 match")


def test_criterion_4_trivial_action_formula():
    for label, rank in rank_range(4):
        datum = build_root_datum(label, rank)
        for e in range(1, 7):
            action = trivial_action(rank, e)
            assert h1_structural(datum, action).order == e ** rank
            assert len(h1_elements(datum, action).representatives) == e ** rank
    report(4, "|H1| = e^r for every label of rank <= 4 and e <= 6")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(20240809)
    pool = rank_range(4)
    checked = 0
    while checked < 200:
        label, rank = rng.choice(pool)
        datum = build_root_datum(label, rank)
        kind = rng.choice(("trivial", "diagram", "weyl"))
        if kind == "trivial":
            action = trivial_action(rank, rng.randint(1, 6))
        elif kind == "diagram":
            aut = _random_diagram_aut(datum, rng)
            if aut is None or aut.order > 6:
                continue
            e = aut.order * rng.randint(1, 6 // aut.order)
            action = GammaAction(e, aut)
        else:
            w = rng.choice(weyl_elements(datum, cap=10 ** 4))
            aut = weyl_element_automorphism(w)
            if aut.order > 6:
                continue
            e = aut.order * rng.randint(1, 6 // aut.order)
            action = GammaAction(e, aut)
        structural = h1_structural(datum, action).order
        # the library lists classes for permutation actions only
        listing = grid_h1_elements if kind == "weyl" else h1_elements
        elements = len(listing(datum, action).representatives)
        assert structural == elements
        checked += 1

    burnside_checked = 0
    for label, rank in rank_range(5):
        datum = build_root_datum(label, rank)
        if weyl_order(datum) > 10 ** 4:
            continue
        for e in (1, 2, 3, 4):
            for base in _grid_bases(datum, e):
                got = len(local_types(datum, trivial_action(rank, e), base=base))
                assert got == burnside_type_count(datum, e, base=base)
                burnside_checked += 1
    assert burnside_checked > 0
    report(5, "h1_structural == h1_elements on 200 random actions; "
              f"local_types == Burnside on {burnside_checked} cases")


def _random_diagram_aut(datum, rng):
    from parahoric.rootdata import diagram_automorphism

    n = datum.rank
    candidates = [tuple(range(n))]
    if datum.label == "A" and n >= 2:
        candidates.append(tuple(n - 1 - i for i in range(n)))
    if datum.label == "D":
        candidates.append(tuple(list(range(n - 2)) + [n - 1, n - 2]))
        if n == 4:
            candidates.append((2, 1, 3, 0))
    try:
        return diagram_automorphism(datum, rng.choice(candidates))
    except ValueError:
        return None


def _grid_bases(datum, e):
    zero = tuple(F(0) for _ in range(datum.rank))
    equi = point_from_root_values(datum, tuple(F(1, e) for _ in range(datum.rank)))
    lop = point_from_root_values(
        datum, tuple(F(1, e) if i == 0 else F(0) for i in range(datum.rank))
    )
    return [reduce_to_alcove(datum, b)[0] for b in (zero, equi, lop)]


def test_criterion_6_apartment_cohomology_cross_check():
    cases = [("A", 1, 12), ("A", 2, 6), ("C", 2, 6), ("G", 2, 6)]
    total = 0
    for label, rank, emax in cases:
        datum = build_root_datum(label, rank)
        for e in range(1, emax + 1):
            for base in _grid_bases(datum, e):
                ap = len(apartment_orbit_types(datum, base, e))
                co = len(local_types(datum, trivial_action(rank, e), base=base))
                assert ap == co, (label, rank, e, base)
                total += 1
    report(6, f"|apartment orbits| == |local types| on {total} (datum, e, base) cases")


def test_criterion_7_prime_lists():
    for label, rank in [("B", 2), ("B", 3), ("B", 4), ("B", 5),
                        ("C", 2), ("C", 3), ("C", 4), ("C", 5),
                        ("D", 4), ("D", 5), ("D", 6)]:
        assert vertex_prime_data(label, rank).mark_primes <= {2}
    for label, rank in [("F", 4), ("G", 2), ("E", 6), ("E", 7)]:
        assert vertex_prime_data(label, rank).mark_primes <= {2, 3}
    assert vertex_prime_data("E", 8).mark_primes == {2, 3, 5}
    from parahoric.alcove import prime_divisors

    for n in range(1, 11):
        got = vertex_prime_data("A", n).excluded_characteristics
        assert got == frozenset({2}) | prime_divisors(n + 1)
    report(7, "mark-prime sets and excluded characteristics match the lists")


def test_criterion_8_geometry_properties():
    rng = random.Random(88)
    data = [build_root_datum(*lr) for lr in
            [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]]
    for _ in range(500):
        datum = rng.choice(data)
        r = datum.rank
        x = tuple(F(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(r))
        x0, _ = reduce_to_alcove(datum, x)
        again, word = reduce_to_alcove(datum, x0)
        assert again == x0 and word == ()
        i = rng.randint(0, r - 1)
        value = pairing(datum, tuple(1 if k == i else 0 for k in range(r)), x)
        reflected = tuple(c - (value if k == i else 0) for k, c in enumerate(x))
        assert reduce_to_alcove(datum, reflected)[0] == x0
        mu = tuple(rng.randint(-2, 2) for _ in range(r))
        assert reduce_to_alcove(datum, tuple(c + m for c, m in zip(x, mu)))[0] == x0

    from .test_alcove import grid_orbit_count_bruteforce

    checked = 0
    for label, rank, emax in [("A", 1, 6), ("A", 2, 4), ("C", 2, 4), ("G", 2, 3)]:
        datum = build_root_datum(label, rank)
        for e in range(1, emax + 1):
            for base in _grid_bases(datum, e):
                got = len(apartment_orbit_types(datum, base, e))
                assert got == grid_orbit_count_bruteforce(datum, base, e)
                checked += 1
    report(8, f"500 reduction property trials and {checked} grid brute-force "
              "comparisons pass")


def test_criterion_9_pi0_bookkeeping(capsys, tmp_path):
    # branch-point pool drawn from the criterion 1-3 data, with the type
    # count each one must contribute
    pool = [
        ({"group": {"label": "A", "rank": 1}, "order": e,
          "action": {"kind": "trivial"}}, (e + 1) // 2)
        for e in range(1, 13)
    ] + [
        ({"group": {"label": "A", "rank": 3}, "order": 2,
          "action": {"kind": "sl-involution", "variant": "J"}}, 1),
        ({"group": {"label": "A", "rank": 3}, "order": 2,
          "action": {"kind": "sl-involution", "variant": "J-prime"}}, 2),
        ({"group": {"label": "A", "rank": 4}, "order": 2,
          "action": {"kind": "sl-involution", "variant": "J"}}, 1),
        ({"group": {"label": "A", "rank": 5}, "order": 2,
          "action": {"kind": "sl-involution", "variant": "J-prime"}}, 2),
    ]
    rng = random.Random(909)
    for trial in range(20):
        picks = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        config = {
            "schema_version": "1",
            "branch_points": [
                dict(bp, name=f"x{i}") for i, (bp, _) in enumerate(picks)
            ],
        }
        path = tmp_path / f"config{trial}.json"
        path.write_text(json.dumps(config))
        code = main(["global", "--config", str(path), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        parsed = json.loads(out)
        want = 1
        for _, count in picks:
            want *= count
        assert parsed["pi0"] == want
        assert len(parsed["tuples"]) == want
        counts = [bp["type_count"] for bp in parsed["branch_points"]]
        prod = 1
        for c in counts:
            prod *= c
        assert prod == want
    report(9, "pi0 equals the product of per-point type counts on 20 random configs")
