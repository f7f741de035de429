"""Binary operations on a finite index set and the relabeling action on them.

An operation is stored as its Cayley table over I = {1, .., m}: entry (i, j)
holds the product of i and j.  All public indices and table values are
1-based; rows are kept as immutable tuples so operations hash and sort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapacityError, FormatError, NotAssociativeError

LEFT = "left"
RIGHT = "right"
BOTH = "both"
NONE = "none"

PERIODIC = "periodic"
CONVERGENT = "convergent"
EVENTUALLY_PERIODIC = "eventually_periodic"

MAX_SUBSET_SCAN_M = 20
MAX_ORBIT_M = 8


def _normalize_rows(table) -> tuple[tuple[int, ...], ...]:
    try:
        rows = tuple(tuple(row) for row in table)
    except TypeError:
        raise FormatError("a Cayley table is a sequence of rows") from None
    m = len(rows)
    if m == 0:
        raise FormatError("empty Cayley table")
    for row in rows:
        if len(row) != m:
            raise FormatError(f"table is not square: expected {m} columns, got {len(row)}")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= m:
                raise FormatError(f"table entry {v!r} outside 1..{m}")
    return rows


def check_associative(table) -> bool:
    """True iff (i j) k == i (j k) for every triple of a validated table."""
    rows = _normalize_rows(table)
    m = len(rows)
    rng = range(m)
    for i in rng:
        ri = rows[i]
        for j in rng:
            rij = rows[ri[j] - 1]
            rj = rows[j]
            for k in rng:
                if rij[k] != ri[rj[k] - 1]:
                    return False
    return True


class Operation:
    """An associative binary operation on {1, .., m}."""

    __slots__ = ("rows", "_plan")

    def __init__(self, table, *, unchecked: bool = False):
        rows = _normalize_rows(table)
        if not unchecked and not check_associative(rows):
            raise NotAssociativeError("Cayley table is not associative")
        self.rows, self._plan = rows, None

    @classmethod
    def _trusted(cls, rows: tuple) -> "Operation":
        """The operation of int-tuple rows the library built from a valid table."""
        op = object.__new__(cls)
        op.rows, op._plan = rows, None
        return op

    @property
    def m(self) -> int:
        return len(self.rows)

    def __call__(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def _row_plan(self) -> tuple[tuple[int, ...], ...]:
        """Row l (0-based) of the cubic product's offsets (a(l, n) - 1) m + r,
        at n m + r."""
        if self._plan is None:
            m = self.m
            self._plan = tuple(
                tuple((v - 1) * m + r for v in row for r in range(m)) for row in self.rows
            )
        return self._plan

    def flat(self) -> tuple[int, ...]:
        """Row-major flattening; the canonical sort key on operations."""
        return tuple(v for row in self.rows for v in row)

    def __eq__(self, other):
        return isinstance(other, Operation) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __lt__(self, other):
        return self.rows < other.rows

    def __le__(self, other):
        return self.rows <= other.rows

    def __repr__(self):
        return f"Operation({[list(r) for r in self.rows]})"


def right_symmetric(m: int) -> Operation:
    """The projection onto the right argument: (i, j) -> j."""
    return Operation((tuple(range(1, m + 1)),) * m, unchecked=True)


def left_symmetric(m: int) -> Operation:
    """The projection onto the left argument: (i, j) -> i."""
    return Operation(tuple((i,) * m for i in range(1, m + 1)), unchecked=True)


class Permutation:
    """A bijection of {1, .., m}; ``images[i-1]`` is the image of i."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise FormatError(f"{images!r} is not a bijection of 1..{len(images)}")
        self.images = images

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(range(1, m + 1))

    @property
    def m(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.m
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: the composite sends i to self(other(i))."""
        if self.m != other.m:
            raise ValueError("permutation size mismatch")
        return Permutation(self.images[v - 1] for v in other.images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def all_permutations(m: int):
    """All elements of the symmetric group on {1, .., m}, in lexicographic order."""
    for images in itertools.permutations(range(1, m + 1)):
        yield Permutation(images)


def act(pi: Permutation, a: Operation) -> Operation:
    """Relabel a by pi: (i, j) maps to pi(a(pi^-1(i), pi^-1(j))).

    Relabeling preserves associativity, so the result is built unchecked.
    """
    if pi.m != a.m:
        raise ValueError(f"size mismatch: permutation on {pi.m}, operation on {a.m}")
    img, rows = pi.images, a.rows
    src = sorted(range(a.m), key=img.__getitem__)  # src[pi(s) - 1] = s - 1
    return Operation._trusted(tuple(tuple([img[rows[s][t] - 1] for t in src]) for s in src))


def orbit(a: Operation) -> frozenset[Operation]:
    """The set of relabelings of a under the full symmetric group.

    It visits all m! permutations, hence the guard at m = MAX_ORBIT_M.
    """
    if a.m > MAX_ORBIT_M:
        raise CapacityError(f"{a.m}! relabeling scan exceeds the budget (max m = {MAX_ORBIT_M})")
    return frozenset(act(pi, a) for pi in all_permutations(a.m))


def are_equivalent(a: Operation, b: Operation) -> Permutation | None:
    """A permutation carrying a onto b, or None when the tables are inequivalent."""
    if a.m != b.m:
        raise ValueError("operations act on sets of different sizes")
    for pi in all_permutations(a.m):
        if act(pi, a) == b:
            return pi
    return None


def is_symmetric(a: Operation) -> bool:
    """True iff a is fixed by every permutation (its orbit is a singleton)."""
    return all(act(pi, a) == a for pi in all_permutations(a.m))


def classify_symmetry(a: Operation) -> str:
    """One of "right", "left", "both" (m = 1 only), or "none", by table shape."""
    m = a.m
    right = all(a(i, j) == j for i in range(1, m + 1) for j in range(1, m + 1))
    left = all(a(i, j) == i for i in range(1, m + 1) for j in range(1, m + 1))
    if right and left:
        return BOTH
    if right:
        return RIGHT
    if left:
        return LEFT
    return NONE


def image(a: Operation) -> frozenset[int]:
    """The set of values the table attains."""
    return frozenset(v for row in a.rows for v in row)


def _validate_subset(members, m: int) -> frozenset[int]:
    J = frozenset(members)
    for s in J:
        if not isinstance(s, int) or not 1 <= s <= m:
            raise FormatError(f"subset member {s!r} outside 1..{m}")
    return J


def invariance_violation(J, a: Operation) -> tuple[int, int, int] | None:
    """The first (s, t, a(s, t)) escaping J, or None when J is invariant."""
    members = tuple(sorted(_validate_subset(J, a.m)))
    return _escape(a.rows, members, members, members)


def _escape(rows, lefts, rights, J) -> tuple[int, int, int] | None:
    """The first (s, t, a(s, t)), s in lefts then t in rights, in their order,
    with a(s, t) not in J; None when a(lefts, rights) lies in J."""
    for s in lefts:
        row = rows[s - 1]
        for t in rights:
            if row[t - 1] not in J:
                return (s, t, row[t - 1])
    return None


def enumerate_invariant_subsets(a: Operation) -> list[frozenset[int]]:
    """All invariant subsets of {1, .., m}, ordered by size then members.

    Exhaustive over 2^m subsets, hence the guard at m = MAX_SUBSET_SCAN_M.
    """
    m = a.m
    if m > MAX_SUBSET_SCAN_M:
        raise CapacityError(f"2^{m} subset scan exceeds the budget (max m = {MAX_SUBSET_SCAN_M})")
    return [
        frozenset(members)
        for size in range(m + 1)
        for members in itertools.combinations(range(1, m + 1), size)
        if _escape(a.rows, members, members, members) is None
    ]


@dataclass(frozen=True)
class PowerSequence:
    """Behavior of the squaring orbit i, a(i,i), a(a(i,i),a(i,i)), ...

    ``entry`` counts the steps taken before the cycle is entered (0 exactly
    for the periodic case, where the walk returns to its start), ``period``
    is the cycle length, and ``cycle`` holds the cycle's elements.
    """

    tag: str
    entry: int
    period: int
    cycle: frozenset[int]

    @property
    def limit(self) -> int:
        """The fixed point reached, defined for the convergent case."""
        if self.period != 1:
            raise ValueError("sequence does not settle at a fixed point")
        return next(iter(self.cycle))


def power_sequence(i: int, a: Operation, steps: int) -> list[int]:
    """The first ``steps + 1`` terms of the squaring orbit of i."""
    if not 1 <= i <= a.m:
        raise FormatError(f"start index {i} outside 1..{a.m}")
    seq = [i]
    x = i
    for _ in range(steps):
        x = a(x, x)
        seq.append(x)
    return seq


def classify_power_sequence(i: int, a: Operation) -> PowerSequence:
    """Classify the squaring orbit of i as periodic, convergent, or
    eventually periodic (a cycle of length > 1 entered away from i)."""
    if not 1 <= i <= a.m:
        raise FormatError(f"start index {i} outside 1..{a.m}")
    return _classify_squaring(i, lambda x: a(x, x))


def _classify_squaring(x, square) -> PowerSequence:
    """Tag, entry step, period and cycle of the orbit x, square(x), ...

    Shared by index squaring and plenary squaring of cubic matrices; the
    values only need to be hashable.
    """
    seen: dict = {}
    seq: list = []
    while x not in seen:
        seen[x] = len(seq)
        seq.append(x)
        x = square(x)
    entry = seen[x]
    cycle = frozenset(seq[entry:])
    period = len(seq) - entry
    if entry == 0:
        return PowerSequence(PERIODIC, 0, period, cycle)
    if period == 1:
        return PowerSequence(CONVERGENT, entry, 1, cycle)
    return PowerSequence(EVENTUALLY_PERIODIC, entry, period, cycle)
