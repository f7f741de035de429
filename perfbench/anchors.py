"""Reference numbers the benchmark checks against, kept apart from cubal.

Both sequences come from the OEIS, not from the code under test, so a
change that breaks the enumerator or the orbit classifier cannot also move
the numbers it is checked against.
"""

# A023814: associative binary operations on an m-element set (labelled tables).
A023814 = {1: 1, 2: 8, 3: 113, 4: 3492, 5: 183732}

# A001423: semigroups of order m up to isomorphism, i.e. associative tables
# up to relabeling of the m symbols.
A001423 = {1: 1, 2: 5, 3: 24, 4: 188, 5: 1915}

# The checks of `verify_operation`, as the report names them.
BATTERY = (
    "theorem_1",
    "theorem_2",
    "theorem_3",
    "theorem_4",
    "commutativity",
    "zero_divisors",
    "plenary_powers",
)
