"""Tour 6: invariant subsets, the subalgebras and ideals they span, and squaring orbits.

A subset J of the symbols is invariant when products of its members stay in
J.  Fixing outer indices (i, k) and letting the middle index range over an
invariant J spans a subalgebra of basis matrices (with zero multiplication
whenever i != k); the middle index restricted to the operation's image spans
a two-sided ideal.  Both show up in products: x_J = sum of E(1, j, 1) over J
squares onto the middle indices a(J, J), and u = x_{1..m} times x_J onto
a(S, J).  Squaring orbits i -> a(i, i) -> ... classify as periodic or
convergent on up to three symbols, but a third behavior (falling into a cycle
the start never rejoins) appears at four.
"""

from cubal import (
    CubicMatrix,
    Operation,
    classify_power_sequence,
    enumerate_invariant_subsets,
    enumerate_operations,
    image,
    invariance_violation,
)


def ones(m, J):
    """x_J: the sum of E(1, j, 1) over j in J, every coefficient 1."""
    x = CubicMatrix.zero(m)
    for j in J:
        x = x + CubicMatrix.basis(m, 1, j, 1)
    return x


def middles(x):
    """The middle indices of the nonzero entries of x."""
    m = x.m
    return {flat // m % m + 1 for flat, _ in x.nonzero_items()}


def image_absorbs(op):
    """u x_im and x_im u keep their middle indices in the image of op."""
    u, x = ones(op.m, range(1, op.m + 1)), ones(op.m, image(op))
    return middles(u.mul(x, op)) <= image(op) and middles(x.mul(u, op)) <= image(op)


cycle = Operation([[1, 2, 3], [2, 3, 1], [3, 1, 2]])
laced = Operation([[1, 1, 1], [1, 2, 2], [1, 3, 3]])

print("For the cyclic group table, invariant subsets are scarce:")
print("  invariant:", [sorted(J) for J in enumerate_invariant_subsets(cycle)])
print("  the squaring cycle of 2 is", sorted(classify_power_sequence(2, cycle).cycle),
      "but it is not invariant:", invariance_violation({2, 3}, cycle))
x = ones(3, {2, 3})
print("  so x_{2,3} squares onto middle indices", sorted(middles(x.mul(x, cycle))))
hull = next(J for J in enumerate_invariant_subsets(cycle) if 2 in J)  # listed by size
print("  the least invariant set holding 2 is", sorted(hull))

print("\nA table whose every subset is invariant:")
subsets = enumerate_invariant_subsets(laced)
print("  invariant subsets:", [sorted(J) for J in subsets])
print("  nonempty count (a lower bound on subalgebras):",
      sum(1 for J in subsets if J))
x = ones(3, {2, 3})
print("  x_{2,3} squares inside {2,3}:", sorted(middles(x.mul(x, laced))))
prod = CubicMatrix.basis(3, 1, 2, 2).mul(CubicMatrix.basis(3, 1, 3, 2), laced)
print("  off-diagonal blocks multiply to zero:", prod.is_zero())

print("\nThe image spans a two-sided ideal for every m=3 operation:")

print("  checked 113 operations:", all(map(image_absorbs, enumerate_operations(3))))

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
