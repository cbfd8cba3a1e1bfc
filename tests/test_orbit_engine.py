"""The move-table orbit engine against the digit-list engine it replaced.

``cohomology._packed_orbits`` walks packed indices through one move table
per row; ``references.packed_orbits_by_digits`` carries the digit list of
every vector.  The two must give the same orbits on any radices and affine
rows, and the windows of the simple reflections must stay as narrow as the
Bourbaki numbering makes them.
"""

from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parahoric.cohomology import (
    GammaAction,
    _generator_rows,
    _move_table,
    _packed_orbits,
    _radices,
    trivial_action,
)
from parahoric.rootdata import build_root_datum, diagram_automorphism
from parahoric.slmodel import sl_involution

from .references import packed_orbits_by_digits, rank_range

# the largest radix per number of digits, so that a grid has at most 1,024 points
MAX_RADIX = {1: 40, 2: 24, 3: 10, 4: 5, 5: 4}


@st.composite
def engine_inputs(draw):
    r = draw(st.integers(1, 5))
    radices = draw(st.lists(st.integers(1, MAX_RADIX[r]), min_size=r, max_size=r))
    term = st.tuples(st.integers(0, r - 1), st.integers(-5, 5))
    row = st.tuples(st.integers(0, r - 1), st.integers(-30, 30),
                    st.lists(term, max_size=4).map(tuple))
    return radices, draw(st.lists(row, max_size=4))


def generator_case(datum, action, base=None):
    """The radices and generator rows the engine is given for an action."""
    return _radices(action), _generator_rows(datum, action, base)


def diagram_case(label, rank, perm, e):
    datum = build_root_datum(label, rank)
    return generator_case(datum, GammaAction(e, diagram_automorphism(datum, perm)))


@settings(max_examples=300, deadline=None)
@given(engine_inputs())
# radix-1 digits inside a window, one of them with a coefficient
@example(([2, 3, 1, 3, 2], [(1, 0, ((1, -1), (3, 1))), (3, 2, ((1, 1), (2, 5), (3, -1)))]))
# own coefficients 2 and 3, and a term on the row's digit given twice
@example(([5, 4], [(0, 1, ((0, 2), (1, 1))), (1, 3, ((1, 1), (1, 2), (0, -1)))]))
# a zero step on the innermost window digit: own 4 = 0 mod 4, and no own term
@example(([3, 4], [(1, 1, ((0, 1), (1, 4))), (1, 0, ((0, 2),))]))
# windows that are the whole grid
@example(([3, 2, 4], [(0, 0, ((0, -1), (2, 1))), (2, 1, ((0, 1), (2, -1)))]))
# real generator rows, with radix-1 digits inside their windows: D4 triality
# at e = 6 (radices [1, 6, 1, 2]), the E6 flip at e = 4 ([1, 4, 1, 4, 2, 2])
# and SL_8 J with its base point
@example(diagram_case("D", 4, (2, 1, 3, 0), 6))
@example(diagram_case("E", 6, (5, 1, 4, 3, 2, 0), 4))
@example(generator_case(*sl_involution(8, "J")))
def test_move_tables_match_the_digit_engine(case):
    radices, rows = case
    assert _packed_orbits(radices, rows) == packed_orbits_by_digits(radices, rows)
    # a table spans at most the whole grid
    spans = [_move_table(tuple(radices), k, 0, tuple(terms))[1]
             for k, _, terms in rows if radices[k] > 1]
    assert sum(spans) <= len(rows) * prod(radices)
    # each table entry against every grid index, decoded into its digits,
    # at the entry's window sub-index: (new d_k - old d_k) w_k, with new d_k
    # the row's constant + sum c d_j mod radices[k]; every sub-index is reached
    weights = [prod(radices[j + 1:]) for j in range(len(radices))]
    for k, constant, terms in rows:
        if radices[k] == 1:
            continue
        w, span, moves = _move_table(tuple(radices), k, constant, terms)
        # the kept table is the one a fresh build gives
        assert (w, span, moves) == _move_table.__wrapped__(tuple(radices), k, constant, terms)
        assert len(moves) == span
        reached = set()
        for index in range(prod(radices)):
            digits = [index // weight % radix for weight, radix in zip(weights, radices)]
            new = (constant + sum(c * digits[j] for j, c in terms)) % radices[k]
            sub = index // w % span
            assert moves[sub] == (new - digits[k]) * weights[k], (k, digits)
            reached.add(sub)
        assert reached == set(range(span))


def test_move_tables_are_kept_per_row():
    # a second orbit search on the same rows builds no table
    datum = build_root_datum("B", 3)
    action = trivial_action(3, 5)
    radices = tuple(_radices(action))
    rows = _generator_rows(datum, action, None)
    _move_table.cache_clear()
    orbits = _packed_orbits(radices, rows)
    assert _move_table.cache_info().misses == len(rows) == 3
    assert _packed_orbits(radices, rows) == orbits
    assert _move_table.cache_info()[:2] == (len(rows), len(rows))  # (hits, misses)


@pytest.mark.parametrize("label,rank", rank_range(8))
def test_simple_reflections_read_at_most_four_consecutive_digits(label, rank):
    # in the Bourbaki numbering a node and its neighbours lie within 4
    # consecutive nodes, and within 3 outside D and E; the move table of
    # the reflection spans e^width entries
    e = 5
    datum = build_root_datum(label, rank)
    action = trivial_action(rank, e)
    radices = tuple(_radices(action))
    widths = []
    for k, _, terms in _generator_rows(datum, action, None):
        read = [j for j, c in terms if c] + [k]
        widths.append(max(read) - min(read) + 1)
        assert _move_table(radices, k, 0, terms)[1] == e ** widths[-1]
    assert max(widths) <= (4 if label in "DE" else 3)
    if label in "DE":
        assert max(widths) == 4
