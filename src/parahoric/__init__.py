"""Exact-arithmetic local types of equivariant torsors on tame covers.

The package classifies the local types of Gamma-equivariant torsors under
reductive models over a tamely ramified cover, realizes each type as a
point of the fundamental alcove (the combinatorial shadow of its twisted
parahoric group scheme), and verifies the counting identities between the
cohomological and the building-theoretic descriptions.

Layers:

* :mod:`parahoric.exactalg` - integer/rational-mod-Z linear algebra (Smith
  normal form, lattice quotients, the adjugate and determinant from one
  elimination);
* :mod:`parahoric.rootdata` - root data (built under a cap by one integer
  closure that gives every positive root its coroot), Weyl groups,
  lattice automorphisms as node permutations, orbit closure;
* :mod:`parahoric.cohomology` - H^1 of a cyclic group on the torus from
  sigma-orbit sums, checked against the lattice quotient of one Smith form
  of the norm, cocycles read off sigma-cycles, twisted Weyl orbits,
  Burnside oracle;
* :mod:`parahoric.slmodel` - the SL_n involutions J and J' as the
  A_(n-1) diagram flip with a base point, their sum-zero diagonal
  coordinates, the SU_n special vertices, and the exact monomial-matrix
  calculus of the worked examples;
* :mod:`parahoric.alcove` - alcove reduction, facets, splitting degrees,
  apartment orbits;
* :mod:`parahoric.cli` - the `parahoric` command-line tool.
"""

from .exactalg import (
    FiniteAbelianGroup,
    qz,
    qz_vector,
    quotient_structure,
    smith_normal_form,
)
from .rootdata import (
    LatticeAutomorphism,
    RootDatum,
    build_root_datum,
    diagram_automorphism,
    fixed_weyl_generators,
    orbit_partition,
    weyl_order,
)
from .cohomology import (
    GammaAction,
    H1Classes,
    LocalType,
    burnside_type_count,
    cocycle_of,
    h1_elements,
    h1_structural,
    local_types,
    trivial_action,
    types_of_classes,
)
from .slmodel import (
    InvolutionSpec,
    MonomialMatrix,
    involution_apply,
    mm_diag,
    mm_inv,
    mm_mul,
    mm_transpose,
    sl_local_types,
    sl_torus_h1,
    standard_involution,
    su_special_vertex_types,
    t_w,
    variant_involution,
)
from .alcove import (
    FacetDescriptor,
    apartment_orbit_types,
    facet_of,
    min_split_degree,
    point_from_root_values,
    reduce_to_alcove,
    simple_root_values,
    type_to_alcove,
    vertex_prime_data,
)

__version__ = "0.1.0"
