"""Tour 1: enumerating associative operations and classifying them by relabeling.

The number of associative binary operations on {1, .., m} grows explosively
(1, 8, 113, 3492, 183732 for m = 1..5); a pruned backtracking search makes
the counts cheap where a full m^(m^2) scan would be hopeless.  Relabeling
the symbols partitions each census into orbits; exactly two operations are
fixed by every relabeling, the left and right projections.
"""

import time

from cubal import (
    Operation,
    Permutation,
    act,
    classify_symmetry,
    count_operations,
    enumerate_operations,
    is_symmetric,
    orbit,
    orbit_census,
)

print("Census sizes (backtracking search with forced-cell propagation):")
for m in (1, 2, 3, 4):
    started = time.perf_counter()
    total = count_operations(m)
    print(f"  m={m}: {total:>6} associative tables   ({time.perf_counter()-started:.3f}s)")

print("\nThe full m=2 census, in lexicographic order:")
ops2 = list(enumerate_operations(2))
for idx, op in enumerate(ops2, start=1):
    tags = []
    if is_symmetric(op):
        tags.append(f"symmetric ({classify_symmetry(op)} projection)")
    print(f"  #{idx}: rows {[list(r) for r in op.rows]} {' '.join(tags)}")

print("\nSwapping the two symbols pairs the census up:")
swap = Permutation([2, 1])
for idx, op in enumerate(ops2, start=1):
    partner = ops2.index(act(swap, op)) + 1
    print(f"  #{idx} -> #{partner}")

census = orbit_census(2)
sizes = [size for _, size in census.representatives]
print(f"\nOrbit census for m=2: {census.orbit_count} orbits with sizes {sizes}")
for rep, size in census.representatives:
    print(f"  representative {[list(r) for r in rep.rows]} generates an orbit of size {size}")

print("\nA six-element orbit on three symbols:")
seed = next(op for op in enumerate_operations(3) if len(orbit(op)) == 6)
members = sorted(orbit(seed), key=lambda o: o.flat())
for member in members:
    print(f"  {[list(r) for r in member.rows]}")
print(f"  canonical representative: {[list(r) for r in min(orbit(seed), key=Operation.flat).rows]}")

big = orbit_census(4)
print(f"\nFor m=4 the {big.total} tables fall into {big.orbit_count} orbits.")
