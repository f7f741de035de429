"""Tour 4: no cubic-matrix algebra on m >= 2 symbols admits a character.

A character is a nonzero linear form that is multiplicative.  Writing the
multiplicativity equations on basis matrices forces all coefficients with
distinct outer indices to zero, confines the survivors to one diagonal
slice, and finally squares each survivor to zero: nothing remains.  The
one-dimensional case keeps exactly the unit form.  A linear form is given
by one coefficient per basis matrix, so it is a CubicMatrix: chi(E(i,j,k))
is its entry (i, j, k).

As an independent check, this demo exhausts ALL linear forms over the
two- and three-element fields for m = 2 (2^8 and 3^8 coefficient vectors,
as ints mod p) and confirms none is multiplicative on the basis pairs.
"""

import itertools

from cubal import Operation, character_search, collect_operations

print("Search over exact rationals:")
print("  m=1:", character_search(Operation([[1]])))
for m in (2, 3):
    census = collect_operations(m)
    empty = all(character_search(op) == [] for op in census)
    print(f"  m={m}: no characters across all {len(census)} operations: {empty}")

print("\nExhaustive finite-field oracle at m=2:")
census2 = collect_operations(2)
flat = lambda i, j, k: (i * 2 + j) * 2 + k
for p in (2, 3):
    forms = list(itertools.product(range(p), repeat=8))
    hits = 0
    for op in census2:
        # chi(E(s)) chi(E(t)) = chi(E(s)E(t)) mod p on every basis pair, where
        # E(i,j,k) E(k,n,r) = E(i, a(j,n), r) and the other products vanish
        rules = [
            (flat(i, j, k), flat(l, n, r), flat(i, op.rows[j][n] - 1, r) if k == l else None)
            for i, j, k, l, n, r in itertools.product(range(2), repeat=6)
        ]
        hits += sum(
            1
            for c in forms
            if any(c)
            and all((c[s] * c[t] - (0 if u is None else c[u])) % p == 0 for s, t, u in rules)
        )
    print(f"  field of size {p}: {len(forms)} forms x 8 operations -> {hits} characters")
