#!/usr/bin/env python3
"""Affine geometry: alcove reduction, facets, splitting degrees, and the
identity between apartment orbits and cohomology counts."""

from fractions import Fraction as F
from math import floor

from parahoric import (
    apartment_orbit_types,
    build_root_datum,
    facet_of,
    local_types,
    min_split_degree,
    point_from_root_values,
    reduce_to_alcove,
    simple_root_values,
    trivial_action,
    vertex_prime_data,
)

d1 = build_root_datum("A", 1)
d2 = build_root_datum("A", 2)
g2 = build_root_datum("G", 2)

print("Folding a far point into the fundamental alcove (rank one):")
x = point_from_root_values(d1, (F(71, 6),))
x0, word = reduce_to_alcove(d1, x)
shift = tuple(floor(c) for c in x)  # the coroot translation made before the fold
moved = simple_root_values(d1, tuple(c - k for c, k in zip(x, shift)))[0]
print(f"  71/6 -> {moved} by the coroot translation {list(shift)}, "
      f"then -> {simple_root_values(d1, x0)[0]} via walls {list(word)}")

print()
print("Facets of points of the closed alcove (rank one):")
for v in (F(0), F(1, 3), F(1, 2), F(1)):
    f = facet_of(d1, point_from_root_values(d1, (v,)))
    print(f"  <alpha, x> = {v}: {f.describe()}")

print()
print("Minimal tame splitting degrees:")
bary = point_from_root_values(d2, (F(1, 3), F(1, 3)))
for datum, pt, char, label in [
    (d1, point_from_root_values(d1, (F(1, 3),)), 2, "A1 point 1/3, char 2"),
    (d1, point_from_root_values(d1, (F(1, 3),)), 3, "A1 point 1/3, char 3"),
    (d2, bary, 2, "A2 barycenter, char 2"),
    (g2, point_from_root_values(g2, (F(1, 4), F(0))), 0, "G2 quarter point"),
]:
    degree, tame = min_split_degree(datum, pt, char)
    print(f"  {label}: degree {degree}, {'tame' if tame else 'wild'}")

print()
print("Apartment orbits match the cohomology counts on the (1/e)-grid:")
for datum, e in [(d1, 5), (d2, 3), (g2, 2)]:
    for values in [tuple(F(0) for _ in range(datum.rank)),
                   tuple(F(1, e) for _ in range(datum.rank))]:
        base = reduce_to_alcove(datum, point_from_root_values(datum, values))[0]
        ap = apartment_orbit_types(datum, base, e)
        co = local_types(datum, trivial_action(datum.rank, e), base=base)
        print(f"  {datum.name} e={e} base {list(map(str, values))}: "
              f"{len(ap)} orbits == {len(co)} types")
        assert len(ap) == len(co)

print()
print("Vertex prime data:")
for label, rank in [("A", 4), ("B", 3), ("F", 4), ("E", 8)]:
    data = vertex_prime_data(label, rank)
    print(f"  {label}{rank}: mark primes {sorted(data.mark_primes)}, "
          f"excluded characteristics {sorted(data.excluded_characteristics)}")
