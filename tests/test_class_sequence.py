"""The classes of ``h1_elements`` as a sequence that keeps no class tuple.

``H1Classes.representatives`` of a listing is a read-only sequence over the
radices of its nodes: class k is read from its digits by divmod and
iteration runs ``itertools.product`` over the values j/n of each radix n.
It must behave as the tuple of that product in every way a tuple is read (length, indices
of either sign, slices, iteration, ``==`` from either side, ``index``),
and a listing must hold no list of tuples: its memory does not grow with
the class count.
"""

import gc
import itertools
import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahoric.cohomology import GammaAction, _move_table, h1_elements, local_types, trivial_action
from parahoric.rootdata import build_root_datum, diagram_automorphism

MAX_CLASSES = 2 * 10 ** 4

# groups of rank <= 8, each with the diagram symmetries a listing reads
# (their non-largest nodes take the one value 0: digits of radix 1)
GROUPS = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 3), ("A", 4), ("D", 4),
          ("F", 4), ("A", 5), ("D", 5), ("E", 6), ("A", 7), ("E", 7), ("B", 8), ("E", 8)]
SYMMETRIES = {
    ("A", 2): [(1, 0)], ("A", 3): [(2, 1, 0)], ("A", 4): [(3, 2, 1, 0)],
    ("D", 4): [(3, 1, 2, 0), (2, 1, 3, 0)], ("A", 5): [(4, 3, 2, 1, 0)],
    ("D", 5): [(0, 1, 2, 4, 3)], ("E", 6): [(5, 1, 4, 3, 2, 0)],
    ("A", 7): [(6, 5, 4, 3, 2, 1, 0)],
}


@st.composite
def listings(draw):
    """A trivial or diagram action of at most MAX_CLASSES classes."""
    label, rank = draw(st.sampled_from(GROUPS))
    datum = build_root_datum(label, rank)
    perms = SYMMETRIES.get((label, rank), [])
    if perms and draw(st.booleans()):
        aut = diagram_automorphism(datum, draw(st.sampled_from(perms)))
        orbits = aut.node_orbits
        largest = max(m for m in range(1, 200)
                      if prod(m * aut.order // len(o) for o in orbits) <= MAX_CLASSES)
        action = GammaAction(aut.order * draw(st.integers(1, largest)), aut)
    else:
        largest = max(e for e in range(1, 200) if e ** rank <= MAX_CLASSES)
        action = trivial_action(rank, draw(st.integers(1, largest)))
    return datum, action


@settings(max_examples=60, deadline=None)
@given(listings(), st.data())
def test_the_classes_read_as_the_tuple_of_their_product(listing, data):
    datum, action = listing
    classes = h1_elements(datum, action)
    reps = classes.representatives
    # the values j/n of each radix n
    expected = tuple(itertools.product(*[[Fraction(j, n) for j in range(n)] for n in reps.radices]))
    n = len(expected)
    assert len(reps) == n == classes.structure.order
    assert [reps[k] for k in range(n)] == list(expected)
    assert [reps[k] for k in range(-n, 0)] == list(expected)
    for k in (n, -n - 1, n + 7):
        with pytest.raises(IndexError):
            reps[k]
    with pytest.raises(TypeError):
        reps[0.0]
    bound = st.none() | st.integers(-n - 2, n + 2)
    cut = slice(data.draw(bound), data.draw(bound),
                data.draw(st.none() | st.integers(-5, 5).filter(bool)))
    assert reps[cut] == expected[cut]
    assert tuple(reps) == tuple(iter(reps)) == expected
    assert reps == expected and expected == reps
    assert not reps != expected and not expected != reps
    assert reps != expected[:-1] and expected[1:] != reps
    assert reps != list(expected) and list(expected) != reps
    assert reps == h1_elements(datum, action).representatives
    for k in {0, n // 2, n - 1}:
        assert reps.index(expected[k]) == k and expected[k] in reps
    with pytest.raises(ValueError):
        reps.index((Fraction(1, 2 * action.e + 1),) * action.rank)
    # a listing has no hash, as its ClassSequence has none; equal listings are equal
    with pytest.raises(TypeError):
        hash(classes)
    assert classes == h1_elements(datum, action)


def test_a_listing_keeps_no_class_tuple():
    # 360,000 classes: a tuple of tuples of them took 23.7 MB
    datum = build_root_datum("A", 2)
    tracemalloc.start()
    try:
        classes = h1_elements(datum, trivial_action(2, 600))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(classes.representatives) == 360000
    assert peak < 10 ** 6, f"h1_elements peaked at {peak} bytes"
    assert classes.representatives[-1] == (Fraction(599, 600), Fraction(599, 600))


def test_local_types_keeps_nothing_after_the_call():
    # the representatives of 50,001 types are read from a listing of 10^5
    # classes, about 10 MB of results; once they are dropped, no value read
    # stays behind (the move tables the orbit engine keeps per row are
    # cleared with their memo, and the free lists by a collection)
    datum, action = build_root_datum("A", 1), trivial_action(1, 10 ** 5)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        types = local_types(datum, action)
        count, last = len(types), types[-1].orbit_representative
        del types
        _move_table.cache_clear()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 50001 and last == (Fraction(1, 2),)
    assert after - before < 10 ** 6, f"local_types left {after - before} bytes behind"
