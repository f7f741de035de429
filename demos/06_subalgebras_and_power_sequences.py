"""Tour 6: invariant subsets, the subalgebras they span, and squaring orbits.

A subset J of the symbols is invariant when products of its members stay in
J.  Fixing outer indices (i, k) and letting the middle index range over an
invariant J spans a subalgebra of basis matrices (with zero multiplication
whenever i != k); the middle index restricted to the operation's image spans
a two-sided ideal.  Squaring orbits i -> a(i, i) -> ... classify as periodic
or convergent on up to three symbols, but a third behavior (falling into a
cycle the start never rejoins) appears at four.
"""

from cubal import (
    CubicMatrix,
    Operation,
    classify_power_sequence,
    closure,
    enumerate_invariant_subsets,
    enumerate_operations,
    image_ideal_span,
    invariance_violation,
    is_ideal,
    is_subalgebra,
    subalgebra_span,
)

cycle = Operation([[1, 2, 3], [2, 3, 1], [3, 1, 2]])
laced = Operation([[1, 1, 1], [1, 2, 2], [1, 3, 3]])

print("For the cyclic group table, invariant subsets are scarce:")
print("  invariant:", [sorted(J) for J in enumerate_invariant_subsets(cycle)])
print("  the squaring cycle of 2 is", sorted(classify_power_sequence(2, cycle).cycle),
      "but it is not invariant:", invariance_violation({2, 3}, cycle))
print("  the closure of {2} grows to", sorted(closure({2}, cycle)))

print("\nA table whose every subset is invariant:")
subsets = enumerate_invariant_subsets(laced)
print("  invariant subsets:", [sorted(J) for J in subsets])
print("  nonempty count (a lower bound on subalgebras):",
      sum(1 for J in subsets if J))
span = subalgebra_span(laced, {2, 3}, 1, 2)
print("  the (1,2) block over {2,3} spans a subalgebra:", is_subalgebra(span, laced))
prod = CubicMatrix.basis(3, 1, 2, 2).mul(CubicMatrix.basis(3, 1, 3, 2), laced)
print("  off-diagonal blocks multiply to zero:", prod.is_zero())

print("\nThe image-restricted span is a two-sided ideal for every m=3 operation:")
ok = all(is_ideal(image_ideal_span(op), op) for op in enumerate_operations(3))
print("  checked 113 operations:", ok)

print("\nSquaring-orbit classes across the m=3 census:")
tags = {}
for op in enumerate_operations(3):
    for i in (1, 2, 3):
        tags[classify_power_sequence(i, op).tag] = tags.get(
            classify_power_sequence(i, op).tag, 0
        ) + 1
print(" ", tags)

print("\nOn four symbols a third class appears (x^5 = x^2 monogenic table):")
mono = Operation([[2, 3, 4, 2], [3, 4, 2, 3], [4, 2, 3, 4], [2, 3, 4, 2]])
cls = classify_power_sequence(1, mono)
print(f"  start 1: tag={cls.tag}, enters after {cls.entry} step(s), "
      f"cycle {sorted(cls.cycle)} of length {cls.period} (start not in cycle)")
