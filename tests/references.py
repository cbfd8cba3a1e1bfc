"""Reference models that the library no longer runs, kept as oracles.

:func:`class_orbits` is the orbit computation over the generic
``orbit_partition`` on ``Fraction`` vectors, matching each image to its
class through the coset invariant of ``ImageMembership``.  The grid element
model of H^1 that it runs on is the library's own ``_grid_classes``, which
still serves the automorphisms that are not permutations.
"""

from typing import Callable, Sequence

from parahoric.cohomology import LocalType
from parahoric.rootdata import orbit_partition


def _norm_kills(norm, t):
    return all(sum(a * x for a, x in zip(row, t)).denominator == 1 for row in norm)


def class_orbits(
    reps: Sequence[tuple],
    norm,
    invariant: Callable[[tuple], tuple],
    maps: Sequence[Callable[[tuple], tuple]],
):
    """Orbits of the classes ``reps`` under the vector maps ``maps``.

    Each image must stay in the norm kernel and hit one of the classes
    (matched through ``invariant``, a key that two vectors share exactly
    when they lie in the same class); either failure is a hard error.  Each
    orbit is represented by its least member, and the types are numbered in
    the order of those representatives.
    """
    index_of = {invariant(t): i for i, t in enumerate(reps)}

    def class_index(t):
        if not _norm_kills(norm, t):
            raise AssertionError("twisted action left the norm kernel")
        i = index_of.get(invariant(t))
        if i is None:
            raise AssertionError("twisted action image matches no class")
        return i

    orbits = orbit_partition(
        [(i,) for i in range(len(reps))],
        [lambda p, m=m: (class_index(m(reps[p[0]])),) for m in maps],
    )
    keyed = sorted((min(reps[i] for (i,) in orbit), len(orbit)) for orbit in orbits)
    return [LocalType(orbit_representative=rep, orbit_size=size, index=i)
            for i, (rep, size) in enumerate(keyed)]
