"""Backtracking enumeration of all associative Cayley tables on {1, .., m}.

Cells are filled in row-major order with values tried in increasing order,
so tables come out in lexicographic order.  One table holds every known
cell: a cell is known once it is set or forced, and a forced value is the
value of every consistent completion, so it may be compared early.  After
each assignment every associativity triple whose four products are already
known is checked, and a triple with one unknown cell forces it; a forced
cell is never forced again, so a pin cannot clash, and the comparisons
alone find every contradiction.  This prunes dead branches as early as
possible; a full m^(m^2) scan is hopeless beyond m = 3.

The orbit census and the count run the same search with a lex-leader
filter, which reads the same table of known cells.  Each non-identity
relabeling pi waits in the bucket of the first cell that its next
comparison of act(pi, t) with t lacks, and a node advances only the
buckets of its newly known cells.  One that reads smaller proves no
completion is the minimum of its orbit and prunes the node; one that reads
larger can never catch up and is dropped.  So the leaves are exactly the
orbit minima, in ascending order, and the relabelings that agree on every
cell are the leaf's nontrivial automorphisms; the orbit then has m!/|Aut|
members, and the labelled count is the sum of these sizes.  Only
``enumerate_operations`` and ``collect_operations`` run the plain search,
one leaf per labelled table, and carry no buckets.

With one job the search runs once from the root and its leaves are
consumed as they come, so the count holds no table.  With more, the tree is
split on the first row (the plain search) or the first two rows (the
lex-leader search, whose first rows are few), and each worker follows its
prefix from the root through the same search and returns that prefix's
leaves as one list; the lists are read in prefix order so the output never
depends on the worker count.  One stream, ``_operations``, makes every
table a caller gets, so the tables of one census share their row tuples:
each distinct row is built once, and there are at most m^m of them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import CapacityError, require_size
from .operations import Operation

HARD_MAX_M = 6
DEFAULT_MAX_M = 5


def _check_budget(m: int, max_m: int, what: str, jobs: int = 1) -> None:
    require_size(m, "m", CapacityError)
    require_size(jobs, "jobs", CapacityError)
    require_size(max_m, "max_m", CapacityError)
    cap = min(max_m, HARD_MAX_M)
    if m > cap:
        hint = (
            f"raise the budget explicitly (max_m=..., or CUBAL_MAX_M for the CLI)"
            if m <= HARD_MAX_M
            else f"sizes beyond {HARD_MAX_M} are not supported"
        )
        raise CapacityError(f"{what} for m={m} exceeds the budget of {cap}; {hint}")


def _pin(t: list[int], trail, c: int, w: int) -> None:
    """Force the unknown cell c to w, recorded on ``trail`` for undo."""
    t[c] = w
    trail.append(c)


def _consistent(t: list[int], m: int, pos: int, v: int, val_cells, trail) -> bool:
    """Process every associativity triple touched by assigning cell pos = v.

    A triple (x, y, z) compares t[t[x,y], z] with t[x, t[y,z]]; it is visited
    as soon as any of its four contributing cells is set, which is exactly
    when the new cell plays one of the four roles below.  ``t`` holds every
    known value, set or forced, so a forced value is compared like a set
    one.  Triples with all their cells known are checked; a triple with a
    single unknown cell pins that cell through ``_pin``, the one place a
    forced value is written, so a pin never meets a known cell and cannot
    clash, and later cells are branched on only when genuinely free.  The
    caller must have stored v in t[pos] already: a triple may mention its
    own inner-product cell (for instance when t[x,y] = x), and those lookups
    must resolve to v.
    """
    i, j = divmod(pos, m)
    base_i = i * m
    base_j = j * m
    base_v = v * m
    # role 1: the new cell is the inner product of (i, j, z)
    for z in range(m):
        q = t[base_j + z]
        if q >= 0:
            lhs = t[base_v + z]
            rhs = t[base_i + q]
            if lhs < 0:
                if rhs >= 0:
                    _pin(t, trail, base_v + z, rhs)
            elif rhs < 0:
                _pin(t, trail, base_i + q, lhs)
            elif lhs != rhs:
                return False
    # role 2: the new cell is the inner product of (x, i, j)
    for x in range(m):
        p = t[x * m + i]
        if p >= 0:
            lhs = t[p * m + j]
            rhs = t[x * m + v]
            if lhs < 0:
                if rhs >= 0:
                    _pin(t, trail, p * m + j, rhs)
            elif rhs < 0:
                _pin(t, trail, x * m + v, lhs)
            elif lhs != rhs:
                return False
    # role 3: the new cell is the outer-left product of (x, y, j), t[x,y] = i
    for c0 in val_cells[i]:
        q = t[(c0 % m) * m + j]
        if q >= 0:
            c = (c0 // m) * m + q
            rhs = t[c]
            if rhs < 0:
                _pin(t, trail, c, v)
            elif rhs != v:
                return False
    # role 4: the new cell is the outer-right product of (i, y, z), t[y,z] = j
    for c0 in val_cells[j]:
        p = t[base_i + c0 // m]
        if p >= 0:
            c = p * m + c0 % m
            lhs = t[c]
            if lhs < 0:
                _pin(t, trail, c, v)
            elif lhs != v:
                return False
    return True


def _lex_filter(buckets, t: list[int], pos: int, f: int, trail, moved) -> bool:
    """Advance the relabelings waiting on the cells that have just become known.

    ``t`` holds the value of every set or forced cell, else -1; it is read
    here, never written.  The new cells are ``pos`` (unless it was forced
    already: f >= 0) and the newly forced ``trail``.  Each relabeling
    (src, img, k), with act(pi, t)[c] = img[t[src[c]]], agrees with t on
    cells 0 .. k-1 and waits in ``buckets[w]``, w the first cell that its
    comparison of cell k with cell src[k] still lacks; the sentinel m² is
    never known, so ``buckets[m²]`` holds those that agree everywhere.  One
    that reads larger is dropped.  One that reads smaller means no
    completion is an orbit minimum, and False is returned.  Every bucket
    appended to is recorded on ``moved``; nothing is undone here, on either
    outcome.
    """
    for c in (pos, *trail) if f < 0 else trail:
        for rel in buckets[c]:
            src, img, k = rel
            while (a := t[k]) >= 0 and (b := t[src[k]]) >= 0 and img[b] == a:
                k += 1
            if a < 0:
                w = k
            elif b < 0:
                w = src[k]
            elif img[b] > a:
                continue
            else:
                return False
            buckets[w].append(rel if k == rel[2] else (src, img, k))
            moved.append(w)
    return True


def _search(m: int, t: list[int], val_cells, pos: int, stop: int, buckets=None, prefix=()):
    """Yield (cells, |Aut|) for every consistent completion of t up to ``stop``
    that starts with ``prefix``: in a prefix cell only the prefix's value is tried.

    ``t`` is the one table of known cells: each set or forced value, -1 for
    an unknown cell, and the never-known sentinel cell m² last.  A forced
    cell is the only value tried at its position.  With lex-leader
    ``buckets`` (see ``_lex_filter``), |Aut| counts the identity and the
    relabelings in the sentinel bucket; with none, every completion is
    yielded with 1.  After each value, pruned or not, this is the one place
    it is undone: the buckets on ``moved`` are popped and the cells on
    ``trail`` are freed; at the end t[pos] gets back its value on entry, so
    the search returns every argument as it found it.
    """
    if pos == stop:
        yield tuple(t[:stop]), 1 + len(buckets[-1]) if buckets else 1
        return
    f = t[pos]
    trail: list[int] = []
    moved: list[int] = []
    for v in (prefix[pos],) if pos < len(prefix) else (range(m) if f < 0 else (f,)):
        t[pos] = v
        if _consistent(t, m, pos, v, val_cells, trail) and (
            buckets is None or _lex_filter(buckets, t, pos, f, trail, moved)
        ):
            val_cells[v].append(pos)
            yield from _search(m, t, val_cells, pos + 1, stop, buckets, prefix)
            val_cells[v].pop()
        while moved:
            buckets[moved.pop()].pop()
        while trail:
            t[trail.pop()] = -1
    t[pos] = f


@functools.lru_cache(maxsize=None)
def _relabelings(m: int) -> tuple:
    """(src, img, 0) for every non-identity relabeling of {0, .., m-1}."""
    rels = []
    for img in itertools.islice(itertools.permutations(range(m)), 1, None):  # not the identity
        inv = sorted(range(m), key=img.__getitem__)
        rels.append((tuple(inv[a] * m + inv[b] for a in range(m) for b in range(m)), img, 0))
    return tuple(rels)


def _search_from_root(m: int, stop: int, lex: bool, prefix=()):
    """``_search`` from the empty table of m² unknown cells and the sentinel;
    with ``lex`` every relabeling waits on cell 0."""
    t, val_cells = [-1] * (m * m + 1), [[] for _ in range(m)]
    buckets = [list(_relabelings(m))] + [[] for _ in range(m * m)] if lex else None
    return _search(m, t, val_cells, 0, stop, buckets, prefix)


def _leaves(args) -> list[tuple[tuple[int, ...], int]]:
    """A pool worker's task: every (flat, |Aut|) leaf of one prefix's search."""
    return list(_search_from_root(*args))


def _map_over_prefixes(m: int, jobs: int, lex: bool = False):
    """(flat, |Aut|) for every leaf, in order.  One task streams the search from
    the empty prefix (or the only one); with more jobs each prefix of two rows
    (``lex``) or one row is a task, and a pool worker returns its ``_leaves``."""
    tasks = [(m, m * m, lex)]
    if jobs > 1:
        prefixes = _search_from_root(m, min(2 * m, m * m) if lex else m, lex)
        tasks = [(m, m * m, lex, p) for p, _ in prefixes]
    if len(tasks) == 1:
        yield from _search_from_root(*tasks[0])
        return
    import multiprocessing  # only here, so a run that starts no pool never loads it

    # small chunks: the heaviest subtrees sit together early in prefix order
    processes = min(jobs, len(tasks))
    with multiprocessing.get_context().Pool(processes=processes) as pool:
        for chunk in pool.imap(_leaves, tasks, chunksize=max(1, len(tasks) // (64 * processes))):
            yield from chunk


def _operations(m: int, jobs: int = 1, lex: bool = False):
    """(Operation, |Aut|) for every leaf, in order; the tables share the
    1-based tuple of each distinct row, made once."""
    rows: dict = {}
    for flat, aut in _map_over_prefixes(m, jobs, lex):
        keys = [flat[r : r + m] for r in range(0, m * m, m)]
        table = [rows.get(k) or rows.setdefault(k, tuple(v + 1 for v in k)) for k in keys]
        yield Operation._trusted(tuple(table)), aut


def enumerate_operations(m: int, *, max_m: int = DEFAULT_MAX_M):
    """Yield every associative operation on {1, .., m} once, in lexicographic order."""
    _check_budget(m, max_m, "enumeration")
    for op, _ in _operations(m):
        yield op


def count_operations(m: int, *, jobs: int = 1, max_m: int = DEFAULT_MAX_M) -> int:
    """The number of associative operations on {1, .., m}, as the sum of m!/|Aut|
    over the orbit minima; no labelled table is visited."""
    _check_budget(m, max_m, "counting", jobs)
    return sum(math.factorial(m) // aut for _, aut in _map_over_prefixes(m, jobs, lex=True))


def collect_operations(m: int, *, jobs: int = 1, max_m: int = DEFAULT_MAX_M) -> list[Operation]:
    """The full census as a list, in lexicographic order."""
    _check_budget(m, max_m, "enumeration", jobs)
    return [op for op, _ in _operations(m, jobs)]


@dataclass(frozen=True)
class CensusResult:
    """An orbit classification of the full census for one m."""

    m: int
    total: int
    representatives: tuple[tuple[Operation, int], ...]

    @property
    def orbit_count(self) -> int:
        return len(self.representatives)


def orbit_census(m: int, *, jobs: int = 1, max_m: int = DEFAULT_MAX_M) -> CensusResult:
    """Partition the census into relabeling orbits without listing it.

    The lex-leader search (see the module docstring) yields each orbit's
    lexicographic minimum with its size m!/|Aut|, in lexicographic order;
    the labelled total is the sum of the sizes.
    """
    _check_budget(m, max_m, "orbit classification", jobs)
    order = math.factorial(m)
    representatives = tuple((op, order // aut) for op, aut in _operations(m, jobs, lex=True))
    total = sum(size for _, size in representatives)
    return CensusResult(m=m, total=total, representatives=representatives)
