#!/usr/bin/env python3
"""The SL_n involutions behind the quasi-split unitary groups.

gamma(A) = J^-1 (A^t)^-1 J for the antidiagonal J, and the variant
J' = eps J that differs by an inner twist.  The torus cohomology is the
same for both, but the twisting elements t_w differ, and with them the
number of local types.
"""

from parahoric import (
    involution_apply,
    mm_diag,
    sl_local_types,
    sl_torus_h1,
    standard_involution,
    t_w,
    variant_involution,
)
from parahoric.slmodel import lift_of_permutation
from fractions import Fraction as F

print("Torus cohomology H1(Gamma, T) in the diagonal model:")
for n in range(3, 8):
    specs = [standard_involution(n)]
    if n % 2 == 0:
        specs.append(variant_involution(n))
    for spec in specs:
        h1 = sl_torus_h1(n)
        print(f"  n = {n}, {spec.kind:7s}: order {h1.structure.order}, "
              f"classes {[list(map(str, r)) for r in h1.representatives]}")

print()
print("The involution on a diagonal element reverses and inverts:")
d = mm_diag((F(1, 3), F(1, 4), F(5, 12), F(0)))
out = involution_apply(d, standard_involution(4))
print(f"  diag{tuple(map(str, d.entries))} -> diag{tuple(map(str, out.entries))}")

print()
print("Twisting elements of the central transposition lift (n = 4):")
w = lift_of_permutation((0, 2, 1, 3))  # central block [[0,1],[-1,0]]
print(f"  t_w under J : {tuple(map(str, t_w(w, standard_involution(4))))}")
print(f"  t_w under J': {tuple(map(str, t_w(w, variant_involution(4))))}")

print()
print("Local type counts (orbits of the twisted Weyl action):")
for n, spec_builder in [(5, standard_involution), (4, standard_involution),
                        (4, variant_involution), (6, standard_involution),
                        (6, variant_involution)]:
    spec = spec_builder(n)
    types = sl_local_types(n, spec.kind)
    print(f"  n = {n}, {spec.kind:7s}: {len(types)} type(s), "
          f"orbit sizes {[t.orbit_size for t in types]}")

print()
print("Under J the nontrivial torus class is absorbed by the twist; under")
print("J' every twisting element vanishes on it and the two classes stay")
print("separate local types.")
