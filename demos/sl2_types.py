#!/usr/bin/env python3
"""Rank-one walkthrough: local types for SL2 over a degree-e cover.

The base point sits at distance 1/e from the standard vertex, so the local
model over the cover is reductive while the base group scheme is an
Iwahori.  The script counts the types three independent ways (twisted Weyl
orbits, Burnside, apartment orbits) and locates each twisted parahoric in
the fundamental alcove.
"""

from fractions import Fraction as F

from parahoric import (
    apartment_orbit_types,
    build_root_datum,
    burnside_type_count,
    h1_elements,
    local_types,
    point_from_root_values,
    simple_root_values,
    trivial_action,
    type_to_alcove,
    types_of_classes,
)

datum = build_root_datum("A", 1)

for e in range(1, 13):
    # H^1 of the trivial action is all of T[e]: the classes j/e, in order
    classes = h1_elements(datum, trivial_action(1, e))
    assert classes.representatives == tuple((F(j, e),) for j in range(e))
    assert classes.representatives[-1] == (F(e - 1, e),)  # read by index, as from a tuple
    base = point_from_root_values(datum, (F(1, e),))
    types = types_of_classes(datum, trivial_action(1, e), classes, base=base)
    burnside = burnside_type_count(datum, e, base=base)
    apartment = apartment_orbit_types(datum, base, e)
    assert len(types) == burnside == len(apartment) == (e + 1) // 2

    hyperspecial = []
    for t in types:
        point, facet = type_to_alcove(datum, t.orbit_representative, e, base)
        if facet.classification == "vertex" and facet.special:
            hyperspecial.append((t.index, simple_root_values(datum, point)[0]))

    tag = (f"one nonstandard hyperspecial type (index {hyperspecial[0][0]}, "
           f"point {hyperspecial[0][1]})" if hyperspecial else "all Iwahori")
    print(f"e = {e:2d}: {len(types)} types = floor((e+1)/2); {tag}")

print()
print("Alcove picture for e = 5 (base point 1/5):")
base = point_from_root_values(datum, (F(1, 5),))
for t in local_types(datum, trivial_action(1, 5), base=base):
    point, facet = type_to_alcove(datum, t.orbit_representative, 5, base)
    value = simple_root_values(datum, point)[0]
    print(f"  type {t.index}: representative {t.orbit_representative[0]}, "
          f"alcove point {value}, facet {facet.describe()}")
