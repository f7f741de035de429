"""Backtracking enumeration of all associative Cayley tables on {1, .., m}.

Cells are filled in row-major order with values tried in increasing order,
so tables come out in lexicographic order.  After each assignment every
associativity triple whose four products are already determined is checked,
which prunes dead branches as early as possible; a full m^(m^2) scan is
hopeless beyond m = 3.

The orbit census and the count run the same search with a lex-leader
filter.  A node carries the non-identity relabelings pi whose image
act(pi, t) still equals t on every cell compared so far.  Once a cell is
set, each of them is compared with t on the cells now decided on both
sides: one that reads smaller proves no completion is the minimum of its
orbit and prunes the node, one that reads larger can never catch up and is
dropped.  So the leaves are exactly the lexicographic minima of the orbits,
in ascending order, and the relabelings still carried at a leaf are its
nontrivial automorphisms; the orbit then has m!/|Aut| members, and the
labelled count is the sum of these sizes.  Only ``enumerate_operations``
and ``collect_operations`` run the plain search, one leaf per labelled table.

The search tree can be partitioned along the assignments of the first-row
cells, which gives embarrassingly parallel subtrees; partial results are
concatenated in prefix order so the output never depends on the worker
count.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
from dataclasses import dataclass

from .errors import CapacityError
from .operations import Operation, orbit

HARD_MAX_M = 6
DEFAULT_MAX_M = 5


def _check_budget(m: int, max_m: int, what: str) -> None:
    if not isinstance(m, int) or m < 1:
        raise CapacityError(f"m must be a positive integer, got {m!r}")
    cap = min(max_m, HARD_MAX_M)
    if m > cap:
        hint = (
            f"raise the budget explicitly (max_m=..., or CUBAL_MAX_M for the CLI)"
            if m <= HARD_MAX_M
            else f"sizes beyond {HARD_MAX_M} are not supported"
        )
        raise CapacityError(f"{what} for m={m} exceeds the budget of {cap}; {hint}")


def _consistent(t: list[int], m: int, pos: int, v: int, val_cells, forced, trail) -> bool:
    """Process every associativity triple touched by assigning cell pos = v.

    A triple (x, y, z) compares t[t[x,y], z] with t[x, t[y,z]]; it is visited
    as soon as any of its four contributing cells is filled, which is exactly
    when the new cell plays one of the four roles below.  Fully determined
    triples are checked; triples with a single undetermined cell pin that
    cell's value in ``forced`` (recorded on ``trail`` for undo), so later
    cells are branched on only when genuinely free.  The caller must have
    stored v in t[pos] already: a triple may mention its own inner-product
    cell (for instance when t[x,y] = x), and those lookups must resolve to v.
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
            if lhs >= 0:
                if rhs >= 0:
                    if lhs != rhs:
                        return False
                else:
                    c = base_i + q
                    w = forced[c]
                    if w < 0:
                        forced[c] = lhs
                        trail.append(c)
                    elif w != lhs:
                        return False
            elif rhs >= 0:
                c = base_v + z
                w = forced[c]
                if w < 0:
                    forced[c] = rhs
                    trail.append(c)
                elif w != rhs:
                    return False
    # role 2: the new cell is the inner product of (x, i, j)
    for x in range(m):
        p = t[x * m + i]
        if p >= 0:
            lhs = t[p * m + j]
            rhs = t[x * m + v]
            if lhs >= 0:
                if rhs >= 0:
                    if lhs != rhs:
                        return False
                else:
                    c = x * m + v
                    w = forced[c]
                    if w < 0:
                        forced[c] = lhs
                        trail.append(c)
                    elif w != lhs:
                        return False
            elif rhs >= 0:
                c = p * m + j
                w = forced[c]
                if w < 0:
                    forced[c] = rhs
                    trail.append(c)
                elif w != rhs:
                    return False
    # role 3: the new cell is the outer-left product of (x, y, j), t[x,y] = i
    for c0 in val_cells[i]:
        q = t[(c0 % m) * m + j]
        if q >= 0:
            c = (c0 // m) * m + q
            rhs = t[c]
            if rhs >= 0:
                if rhs != v:
                    return False
            else:
                w = forced[c]
                if w < 0:
                    forced[c] = v
                    trail.append(c)
                elif w != v:
                    return False
    # role 4: the new cell is the outer-right product of (i, y, z), t[y,z] = j
    for c0 in val_cells[j]:
        p = t[base_i + c0 // m]
        if p >= 0:
            c = p * m + c0 % m
            lhs = t[c]
            if lhs >= 0:
                if lhs != v:
                    return False
            else:
                w = forced[c]
                if w < 0:
                    forced[c] = v
                    trail.append(c)
                elif w != v:
                    return False
    return True


def _lex_filter(t: list[int], pos: int, rels):
    """The relabelings of ``rels`` still equal to t once cell ``pos`` is set.

    Each entry is (src, img, k): act(pi, t)[c] = img[t[src[c]]], and the two
    tables are known to agree on cells 0 .. k-1.  Comparison goes on while
    both sides of cell k are decided.  None means some relabeling reads
    smaller, so t cannot be the minimum of its orbit.
    """
    live = []
    for rel in rels:
        src, img, k = rel
        while k <= pos and src[k] <= pos:
            d = img[t[src[k]]] - t[k]
            if d:
                if d < 0:
                    return None
                break
            k += 1
        else:
            live.append(rel if k == rel[2] else (src, img, k))
    return live


def _search(m: int, t: list[int], val_cells, forced, pos: int, stop: int, rels=()):
    """Yield (cells, live) for every consistent completion of t up to ``stop``.

    ``rels`` are the lex-leader relabelings carried into this node (see
    ``_lex_filter``); with none, every completion is yielded.
    """
    if pos == stop:
        yield tuple(t[:stop]), rels
        return
    f = forced[pos]
    live = rels
    for v in range(m) if f < 0 else (f,):
        t[pos] = v
        trail: list[int] = []
        if _consistent(t, m, pos, v, val_cells, forced, trail) and (
            not rels or (live := _lex_filter(t, pos, rels)) is not None
        ):
            val_cells[v].append(pos)
            yield from _search(m, t, val_cells, forced, pos + 1, stop, live)
            val_cells[v].pop()
        for c in trail:
            forced[c] = -1
    t[pos] = -1


@functools.lru_cache(maxsize=None)
def _relabelings(m: int) -> tuple:
    """(src, img, 0) for every non-identity relabeling of {0, .., m-1}."""
    rels = []
    for img in itertools.islice(itertools.permutations(range(m)), 1, None):  # not the identity
        inv = sorted(range(m), key=img.__getitem__)
        rels.append((tuple(inv[a] * m + inv[b] for a in range(m) for b in range(m)), img, 0))
    return tuple(rels)


def _fresh_state(m: int):
    return [-1] * (m * m), [[] for _ in range(m)], [-1] * (m * m)


def _resume_state(m: int, prefix: tuple[int, ...], rels=()):
    """Rebuild the search state after the given prefix, which the search produced.

    Assignments are replayed through the consistency pass so the forced-value
    bookkeeping matches what a direct search would hold at this point, and
    through the lex-leader filter so ``rels`` becomes the node's live list.
    """
    t, val_cells, forced = _fresh_state(m)
    for pos, v in enumerate(prefix):
        t[pos] = v
        ok = _consistent(t, m, pos, v, val_cells, forced, [])
        if rels:
            rels = _lex_filter(t, pos, rels)
            ok = ok and rels is not None
        assert ok, "prefix from the search must replay cleanly"
        val_cells[v].append(pos)
    return t, val_cells, forced, rels


def _to_operation(m: int, flat: tuple[int, ...]) -> Operation:
    rows = tuple(tuple(v + 1 for v in flat[r * m : (r + 1) * m]) for r in range(m))
    return Operation(rows, unchecked=True)


def _completions(m: int, prefix: tuple[int, ...], rels=()):
    t, val_cells, forced, live = _resume_state(m, prefix, rels)
    return _search(m, t, val_cells, forced, len(prefix), m * m, live)


def _collect_completions(args) -> list[tuple[int, ...]]:
    m, prefix = args
    return [flat for flat, _ in _completions(m, prefix)]


def _lex_leaders(args) -> list[tuple[tuple[int, ...], int]]:
    """Orbit minima below the prefix, each with its automorphism count."""
    m, prefix = args
    return [(flat, 1 + len(live)) for flat, live in _completions(m, prefix, _relabelings(m))]


def _orbit_minima(m: int, jobs: int):
    """(flat, m!/|Aut|) for every orbit minimum, in lexicographic order."""
    chunks = _map_over_prefixes(m, _lex_leaders, jobs, _relabelings(m))
    return ((flat, math.factorial(m) // aut) for chunk in chunks for flat, aut in chunk)


def _map_over_prefixes(m: int, worker, jobs: int, rels=()):
    """Apply ``worker`` to every first-row search prefix, in prefix order."""
    depth = m if m > 1 else 0
    t, val_cells, forced = _fresh_state(m)
    tasks = [(m, p) for p, _ in _search(m, t, val_cells, forced, 0, depth, rels)]
    if jobs > 1 and len(tasks) > 1:
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=jobs) as pool:
            yield from pool.imap(worker, tasks, chunksize=max(1, len(tasks) // (8 * jobs)))
    else:
        for task in tasks:
            yield worker(task)


def enumerate_operations(m: int, *, max_m: int = DEFAULT_MAX_M):
    """Yield every associative operation on {1, .., m} once, in lexicographic order."""
    _check_budget(m, max_m, "enumeration")
    t, val_cells, forced = _fresh_state(m)
    for flat, _ in _search(m, t, val_cells, forced, 0, m * m):
        yield _to_operation(m, flat)


def count_operations(m: int, *, jobs: int = 1, max_m: int = DEFAULT_MAX_M) -> int:
    """The number of associative operations on {1, .., m}, as the sum of m!/|Aut|
    over the orbit minima; no labelled table is visited."""
    _check_budget(m, max_m, "counting")
    return sum(size for _, size in _orbit_minima(m, jobs))


def collect_operations(m: int, *, jobs: int = 1, max_m: int = DEFAULT_MAX_M) -> list[Operation]:
    """The full census as a list, in lexicographic order."""
    _check_budget(m, max_m, "enumeration")
    ops: list[Operation] = []
    for chunk in _map_over_prefixes(m, _collect_completions, jobs):
        ops.extend(_to_operation(m, flat) for flat in chunk)
    return ops


def canonical_representative(a: Operation) -> Operation:
    """The lexicographic minimum of the orbit of a; constant on orbits."""
    return min(orbit(a), key=Operation.flat)


@dataclass(frozen=True)
class CensusResult:
    """An orbit classification of the full census for one m."""

    m: int
    total: int
    representatives: tuple[tuple[Operation, int], ...]

    @property
    def orbit_count(self) -> int:
        return len(self.representatives)

    def orbit_sizes(self) -> list[int]:
        return [size for _, size in self.representatives]


def orbit_census(m: int, *, jobs: int = 1, max_m: int = DEFAULT_MAX_M) -> CensusResult:
    """Partition the census into relabeling orbits without listing it.

    The lex-leader search (see the module docstring) yields each orbit's
    lexicographic minimum with its size m!/|Aut|, in lexicographic order;
    the labelled total is the sum of the sizes.
    """
    _check_budget(m, max_m, "orbit classification")
    representatives = tuple((_to_operation(m, flat), size) for flat, size in _orbit_minima(m, jobs))
    total = sum(size for _, size in representatives)
    return CensusResult(m=m, total=total, representatives=representatives)
