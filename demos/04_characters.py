"""Tour 4: no cubic-matrix algebra on m >= 2 symbols admits a character.

A character is a nonzero linear form that is multiplicative.  Writing the
multiplicativity equations on basis matrices forces all coefficients with
distinct outer indices to zero, confines the survivors to one diagonal
slice, and finally squares each survivor to zero: nothing remains.  The
one-dimensional case keeps exactly the unit form.  A linear form is given
by one coefficient per basis matrix, so it is a CubicMatrix: chi(E(i,j,k))
is its entry (i, j, k).

As an independent check, this demo exhausts ALL linear forms over the
two- and three-element fields for m = 2 (2^8 and 3^8 coefficient vectors)
and confirms none is multiplicative.
"""

import itertools

from cubal import (
    CubicMatrix,
    Operation,
    character_search,
    collect_operations,
    is_character,
)
from cubal.scalars import PrimeFieldElement

print("Search over exact rationals:")
print("  m=1:", character_search(Operation([[1]])))
for m in (2, 3):
    census = collect_operations(m)
    empty = all(character_search(op) == [] for op in census)
    print(f"  m={m}: no characters across all {len(census)} operations: {empty}")

print("\nExhaustive finite-field oracle at m=2:")
census2 = collect_operations(2)
for p in (2, 3):
    elements = [PrimeFieldElement(v, p) for v in range(p)]
    forms = [CubicMatrix(2, coeffs) for coeffs in itertools.product(elements, repeat=8)]
    hits = sum(
        1
        for op in census2
        for chi in forms
        if not chi.is_zero() and is_character(chi, op)
    )
    print(f"  field of size {p}: {len(forms)} forms x 8 operations -> {hits} characters")
