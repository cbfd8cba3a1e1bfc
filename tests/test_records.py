"""The value records of the package are frozen ``typing.NamedTuple`` records.

:func:`check_record` holds one record to what its class keeps: no field can
be set, its repr reads ``Name(field=value, ...)``, and an equal record built
apart through the class hashes alike.  The records whose validation tests
build them (``FiniteAbelianGroup`` in ``test_exactalg.py``, ``GammaAction``
in ``test_cohomology.py``) are checked there; the other ten here.
"""

from fractions import Fraction as F

import pytest

from parahoric.alcove import FacetDescriptor, VertexPrimeData, facet_of, vertex_prime_data
from parahoric.cohomology import H1Classes, LocalType, local_types, trivial_action
from parahoric.rootdata import LatticeAutomorphism, RootDatum, build_root_datum
from parahoric.slmodel import (
    GramMonomial,
    InvolutionSpec,
    MonomialMatrix,
    SUVertexReport,
    hermitian_gram,
    mm_diag,
    sl_torus_h1,
    standard_involution,
    su_special_vertex_types,
)


def check_record(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"
    twin = type(record)(*record)
    assert twin is not record and twin == record and hash(twin) == hash(record)


RECORDS = [
    (LatticeAutomorphism, lambda: LatticeAutomorphism([2, 0, 1])),
    (RootDatum, lambda: build_root_datum("B", 2)),
    (FacetDescriptor, lambda: facet_of(build_root_datum("A", 2), (F(0), F(0)))),
    (VertexPrimeData, lambda: vertex_prime_data("E", 8)),
    (H1Classes, lambda: sl_torus_h1(4)),  # SL diagonals, a tuple: hashable
    (LocalType, lambda: local_types(build_root_datum("A", 1), trivial_action(1, 2))[1]),
    (MonomialMatrix, lambda: mm_diag((F(1, 2), F(1, 2)))),
    (InvolutionSpec, lambda: standard_involution(3)),
    (GramMonomial, lambda: hermitian_gram(3, (0, 1, 0))),
    (SUVertexReport, lambda: su_special_vertex_types(4, "even-Lm")),
]


@pytest.mark.parametrize("cls,build", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_a_record_is_frozen_and_reads_as_its_fields(cls, build):
    record = build()
    assert type(record) is cls
    check_record(record)


def test_a_monomial_matrix_needs_a_permutation_and_one_entry_per_column():
    with pytest.raises(ValueError, match=r"^perm must be a permutation of 0\.\.n-1$"):
        MonomialMatrix(2, (0, 0), (F(0), F(0)))
    with pytest.raises(ValueError, match="^need one entry per column$"):
        MonomialMatrix(2, (1, 0), (F(0),))
