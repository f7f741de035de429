"""Tour 3: the surjection onto the m^2-dimensional matrix-unit algebra.

Summing a cubic matrix over its middle index yields an m x m coefficient
matrix in the algebra spanned by matrix units u(i, j).  Remarkably, this map
is an algebra homomorphism for EVERY choice of the underlying operation: the
product's middle-index bookkeeping cancels in the fiber sums.  Its kernel
(matrices whose fiber sums all vanish) is therefore a two-sided ideal.
"""

import random
from fractions import Fraction

from cubal import (
    CubicMatrix,
    accompanying_image,
    collect_operations,
    in_kernel_ideal,
)

E = CubicMatrix.basis
rng = random.Random(1)


def random_cubic(m):
    return CubicMatrix(
        m, [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m**3)]
    )


print("Basis matrices map to matrix units, forgetting the middle index:")
for (i, n, j) in [(1, 1, 1), (1, 2, 1), (2, 1, 2)]:
    u = accompanying_image(E(2, i, n, j))
    print(f"  E({i},{n},{j}) -> unit with coefficients {[list(r) for r in u.coeffs]}")

print("\nThe map respects products for every operation of the m=2 census:")
for op in collect_operations(2):
    x, y = random_cubic(2), random_cubic(2)
    lhs = accompanying_image(x.mul(y, op))
    rhs = accompanying_image(x).mul(accompanying_image(y))
    assert lhs == rhs
print("  image(x y) == image(x) image(y) held for all 8 operations")

print("\nIts coefficient matrix (the accompanying matrix) holds the fiber sums:")
x = random_cubic(3)
sums = [[sum(x.entry(i, n, j) for n in (1, 2, 3)) for j in (1, 2, 3)] for i in (1, 2, 3)]
print("  match:", [list(r) for r in accompanying_image(x).coeffs] == sums)

print("\nBalancing fibers produces kernel elements, and the kernel is an ideal:")
k = E(2, 1, 1, 1) - E(2, 1, 2, 1)
print("  E(1,1,1) - E(1,2,1) in kernel:", in_kernel_ideal(k))
op = collect_operations(2)[3]
y = random_cubic(2)
print("  (kernel element) y stays in the kernel:", in_kernel_ideal(k.mul(y, op)))
print("  y (kernel element) stays in the kernel:", in_kernel_ideal(y.mul(k, op)))
