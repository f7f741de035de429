"""Binary operations on a finite index set and the relabeling action on them.

An operation is stored as its Cayley table over I = {1, .., m}: entry (i, j)
holds the product of i and j.  All public indices and table values are
1-based; rows are kept as immutable tuples so operations hash and sort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapacityError, FormatError, NotAssociativeError, require_count, require_indices
from .errors import require_size, same_size

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
        require_indices(row, m, "table entry")
    return rows


def check_associative(table) -> bool:
    """True iff (i j) k == i (j k) for every triple of the table, which is
    validated first."""
    return _associative(_normalize_rows(table))


def _associative(rows) -> bool:
    """``check_associative`` of rows that are already a valid table."""
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

    __slots__ = ("rows", "m", "_plan")

    def __init__(self, table, *, unchecked: bool = False):
        rows = _normalize_rows(table)
        if not unchecked and not _associative(rows):
            raise NotAssociativeError("Cayley table is not associative")
        self.rows, self.m, self._plan = rows, len(rows), None

    @classmethod
    def _trusted(cls, rows: tuple) -> "Operation":
        """The operation of int-tuple rows the library built from a valid table."""
        op = object.__new__(cls)
        op.rows, op.m, op._plan = rows, len(rows), None
        return op

    def __call__(self, i: int, j: int) -> int:
        require_indices((i, j), self.m, "index")
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

    def __repr__(self):
        return f"Operation({[list(r) for r in self.rows]})"


def right_symmetric(m: int) -> Operation:
    """The projection onto the right argument: (i, j) -> j."""
    return Operation._trusted((tuple(range(1, require_size(m) + 1)),) * m)


def left_symmetric(m: int) -> Operation:
    """The projection onto the left argument: (i, j) -> i."""
    return Operation._trusted(tuple((i,) * m for i in range(1, require_size(m) + 1)))


class Permutation:
    """A bijection of {1, .., m}; ``images[i-1]`` is the image of i."""

    __slots__ = ("images", "m")

    def __init__(self, images):
        images = tuple(images)
        require_indices(images, require_size(len(images)), "permutation image")
        if len(set(images)) != len(images):
            raise FormatError(f"{images!r} is not a bijection of 1..{len(images)}")
        self.images, self.m = images, len(images)

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        """The permutation of an int tuple the library built as a bijection."""
        pi = object.__new__(cls)
        pi.images, pi.m = images, len(images)
        return pi

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls._trusted(tuple(range(1, require_size(m) + 1)))

    def __call__(self, i: int) -> int:
        require_indices((i,), self.m, "index")
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.m
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation._trusted(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: the composite sends i to self(other(i))."""
        same_size(self, other)
        return Permutation._trusted(tuple([self.images[v - 1] for v in other.images]))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def all_permutations(m: int):
    """All elements of the symmetric group on {1, .., m}, in lexicographic order."""
    return map(Permutation._trusted, itertools.permutations(range(1, require_size(m) + 1)))


def act(pi: Permutation, a: Operation) -> Operation:
    """Relabel a by pi: (i, j) maps to pi(a(pi^-1(i), pi^-1(j))).

    Relabeling preserves associativity, so the result is built unchecked.
    """
    img, rows = pi.images, a.rows
    src = sorted(range(same_size(pi, a)), key=img.__getitem__)  # src[pi(s) - 1] = s - 1
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
    for pi in all_permutations(same_size(a, b)):
        if act(pi, a) == b:
            return pi
    return None


def is_symmetric(a: Operation) -> bool:
    """True iff a is fixed by every permutation (its orbit is a singleton)."""
    return all(act(pi, a) == a for pi in all_permutations(a.m))


def classify_symmetry(a: Operation) -> str:
    """One of "right", "left", "both" (m = 1 only), or "none", by table shape."""
    rows, S = a.rows, tuple(range(1, a.m + 1))
    right = all(row == S for row in rows)
    left = all(row == (i,) * a.m for i, row in zip(S, rows))
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


def invariance_violation(J, a: Operation) -> tuple[int, int, int] | None:
    """The first (s, t, a(s, t)) escaping J, or None when J is invariant."""
    J = frozenset(J)
    require_indices(J, a.m, "subset member")
    members = tuple(sorted(J))
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
    require_indices((i,), a.m, "start index")
    seq, rows = [i], a.rows
    for _ in range(require_count(steps, "power sequence steps")):
        i = rows[i - 1][i - 1]
        seq.append(i)
    return seq


def classify_power_sequence(i: int, a: Operation) -> PowerSequence:
    """Classify the squaring orbit of i as periodic, convergent, or
    eventually periodic (a cycle of length > 1 entered away from i)."""
    require_indices((i,), a.m, "start index")
    return _classify_squaring(i, lambda x: a.rows[x - 1][x - 1])


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
