"""Tour 5: exact zero-divisor witnesses.

For a fixed matrix A, the map X -> A X is linear, so "is A a left zero
divisor" is a kernel question over the rationals, answered exactly.  For the
two projection operations the answer has a closed form: under the right
projection A has a nonzero annihilator exactly when its accompanying matrix
is singular, and under the left projection every A has one (balance the
fibers).  The kernel solver recovers both facts without being told them.
"""

import random
from fractions import Fraction

from cubal import (
    CubicMatrix,
    accompanying_image,
    left_symmetric,
    left_zero_divisor_witness,
    right_symmetric,
)
from cubal.linalg import det

E = CubicMatrix.basis
rng = random.Random(2)


def random_cubic(m):
    return CubicMatrix(
        m, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m**3)]
    )


right_proj = right_symmetric(2)
left_proj = left_symmetric(2)

print("Right projection, singular accompanying matrix:")
a = E(2, 1, 1, 1)
print("  det =", det(accompanying_image(a).coeffs))
w = left_zero_divisor_witness(a, right_proj)
print("  witness:", w)
print("  A X == 0 exactly:", a.mul(w, right_proj).is_zero())

print("\nRight projection, nonsingular accompanying matrix:")
b = E(2, 1, 1, 1) + E(2, 2, 2, 2)
print("  det =", det(accompanying_image(b).coeffs))
print("  witness:", left_zero_divisor_witness(b, right_proj))

print("\nLeft projection: every matrix is a left zero divisor:")
for trial in range(3):
    a = random_cubic(2)
    w = left_zero_divisor_witness(a, left_proj)
    print(f"  trial {trial}: witness found: {w is not None},",
          "product vanishes:", a.mul(w, left_proj).is_zero())

print("\nDeterminant criterion vs kernel solver on random matrices:")
agree = 0
for trial in range(40):
    a = random_cubic(2)
    if trial % 2 == 0:
        entries = list(a.entries)
        entries[4:8] = entries[0:4]  # duplicate outer slices: det 0 by construction
        a = CubicMatrix(2, entries)
    singular = det(accompanying_image(a).coeffs) == 0
    found = left_zero_divisor_witness(a, right_proj) is not None
    agree += singular == found
print(f"  agreement on 40 matrices: {agree}/40")
