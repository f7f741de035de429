"""Census counts, lexicographic streaming, the naive-scan oracle, orbit classification."""

import hashlib
import itertools
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from cubal import enumeration
from cubal.enumeration import (
    CensusResult,
    collect_operations,
    count_operations,
    enumerate_operations,
    orbit_census,
)
from cubal.errors import CapacityError
from cubal.operations import (
    Operation,
    act,
    all_permutations,
    are_equivalent,
    check_associative,
    orbit,
)
from cubal.verify import verify_census

from conftest import M2_TABLES, ORBIT6_TABLES, brute_associative

# Census sizes for m = 1..5, frozen reference values (OEIS A023814).
KNOWN_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492, 5: 183732}


def naive_census(m):
    """Full m^(m^2) scan filtered by an independent associativity check."""
    tables = []
    for combo in itertools.product(range(1, m + 1), repeat=m * m):
        rows = [list(combo[r * m : (r + 1) * m]) for r in range(m)]
        if brute_associative(rows):
            tables.append(tuple(combo))
    return tables


def relabel_classify(m):
    """Collect the labelled census and apply every relabeling to each new table."""
    ops = collect_operations(m)
    perms = list(all_permutations(m))
    assigned = set()
    representatives = []
    for op in ops:
        if op in assigned:
            continue
        members = frozenset(act(pi, op) for pi in perms)
        # ops arrive in lexicographic order, so the first member seen is minimal
        representatives.append((op, len(members)))
        assigned.update(members)
    return CensusResult(m=m, total=len(ops), representatives=tuple(representatives))


def record_trails(monkeypatch):
    """Count the consistency passes from here on, the passes that hold and the
    cells they force, in a three-item list, and hash (pos, v, trail, forced
    values of the trail) of each pass that holds into the returned sha256."""
    stats, digest = [0, 0, 0], hashlib.sha256()
    consistent = enumeration._consistent

    def recording(t, m, pos, v, val_cells, trail):
        stats[0] += 1
        ok = consistent(t, m, pos, v, val_cells, trail)
        if ok:
            stats[1] += 1
            stats[2] += len(trail)
            digest.update(repr((pos, v, tuple(trail), tuple(t[c] for c in trail))).encode())
        return ok

    monkeypatch.setattr(enumeration, "_consistent", recording)
    return stats, digest


class InProcessContext:
    """Stands in for multiprocessing.get_context(): records the size of each
    pool asked for and maps its tasks in this process."""

    def __init__(self):
        self.processes = []

    def Pool(self, processes):
        self.processes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.fixture
def in_process_pool(monkeypatch):
    ctx = InProcessContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda *args: ctx)
    return ctx


class TestCounts:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_known_counts(self, m):
        assert count_operations(m) == KNOWN_COUNTS[m]

    def test_count_matches_stream_length(self):
        # the count sums orbit sizes; the stream visits every labelled table
        for m in (1, 2, 3, 4):
            assert count_operations(m) == sum(1 for _ in enumerate_operations(m))

    def test_m5_stream_length_is_a023814(self):
        assert sum(1 for _ in enumerate_operations(5)) == KNOWN_COUNTS[5]

    def test_parallel_count_agrees(self):
        assert count_operations(3, jobs=2) == KNOWN_COUNTS[3]
        assert count_operations(4, jobs=2) == KNOWN_COUNTS[4]
        assert count_operations(5, jobs=2) == KNOWN_COUNTS[5]

    def test_budget_guard(self):
        with pytest.raises(CapacityError):
            count_operations(0)
        with pytest.raises(CapacityError):
            count_operations(6)
        with pytest.raises(CapacityError):
            count_operations(9, max_m=9)  # hard cap stays at 6

    def test_override_admits_m6_stream(self):
        stream = enumerate_operations(6, max_m=6)
        first = next(stream)
        assert first.flat() == (1,) * 36  # the constant table is the lex minimum
        stream.close()


class TestArguments:
    @pytest.mark.parametrize(
        "entry",
        [lambda m: next(enumerate_operations(m)), count_operations, collect_operations, orbit_census],
        ids=["enumerate_operations", "count_operations", "collect_operations", "orbit_census"],
    )
    def test_m_must_not_be_a_bool(self, entry):
        with pytest.raises(CapacityError, match="m must be a positive integer"):
            entry(True)

    @pytest.mark.parametrize("jobs", [0, -3, 2.5, "2", True])
    @pytest.mark.parametrize(
        "entry",
        [count_operations, collect_operations, orbit_census],
        ids=["count_operations", "collect_operations", "orbit_census"],
    )
    def test_jobs_must_be_a_positive_int(self, entry, jobs):
        with pytest.raises(CapacityError, match="jobs must be a positive integer"):
            entry(2, jobs=jobs)

    @pytest.mark.parametrize("max_m", [0, -1, True, 2.5, "7", None])
    @pytest.mark.parametrize(
        "entry",
        [lambda m, **kw: list(enumerate_operations(m, **kw)), count_operations, collect_operations,
         orbit_census, verify_census],
        ids=["enumerate_operations", "count_operations", "collect_operations", "orbit_census", "verify_census"],
    )
    def test_max_m_must_be_a_positive_int(self, entry, max_m):
        with pytest.raises(CapacityError, match="^max_m must be a positive integer"):
            entry(2, max_m=max_m)


def traced_peak(run):
    """The tracemalloc peak, in bytes, of a second call of run (the first fills
    the caches), with its result."""
    run()
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_count_holds_no_leaves(self):
        peak, total = traced_peak(lambda: count_operations(5))
        assert total == KNOWN_COUNTS[5]
        assert peak < 64 * 1024

    def test_orbit_census_holds_only_its_representatives(self):
        peak, census = traced_peak(lambda: orbit_census(5))
        assert census.orbit_count == 1915
        assert peak < 600 * 1024

    @pytest.mark.parametrize(
        "tables",
        [
            lambda: [rep for rep, _ in orbit_census(5).representatives],
            lambda: collect_operations(4),
            lambda: collect_operations(3, jobs=2),
            lambda: list(enumerate_operations(4)),
        ],
        ids=["orbit_census", "collect_operations", "collect_operations_jobs2", "enumerate_operations"],
    )
    def test_a_census_shares_its_rows(self, tables):
        rows = [row for op in tables() for row in op.rows]
        assert len({id(row) for row in rows}) == len(set(rows))

    def test_import_leaves_multiprocessing_unloaded(self):
        src = pathlib.Path(enumeration.__file__).resolve().parent.parent
        code = "import sys, cubal, cubal.cli; sys.exit('multiprocessing' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
        assert result.returncode == 0


class TestStream:
    def test_m2_stream_is_exactly_the_known_eight(self):
        got = [list(map(list, op.rows)) for op in enumerate_operations(2)]
        assert got == M2_TABLES

    def test_sorted_without_duplicates(self):
        for m in (2, 3):
            flats = [op.flat() for op in enumerate_operations(m)]
            assert flats == sorted(set(flats))

    def test_every_yield_is_associative(self):
        for op in enumerate_operations(3):
            assert check_associative(op.rows)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_oracle_equivalence_with_naive_scan(self, m):
        got = [op.flat() for op in enumerate_operations(m)]
        assert got == naive_census(m)

    def test_collect_parallel_merge_is_deterministic(self):
        sequential = collect_operations(3, jobs=1)
        parallel = collect_operations(3, jobs=2)
        assert sequential == parallel


def canonical_representative(a):
    """The lexicographic minimum of the orbit of a, as ``cubal classify`` reports it."""
    return min(orbit(a), key=Operation.flat)


class TestCanonicalRepresentative:
    def test_constant_tables(self, m2_ops):
        assert canonical_representative(m2_ops[7]) == m2_ops[0]

    def test_symmetric_table_is_its_own_representative(self, m2_ops):
        assert canonical_representative(m2_ops[3]) == m2_ops[3]

    def test_group_tables(self, m2_ops):
        assert canonical_representative(m2_ops[6]) == m2_ops[4]

    def test_idempotent(self, orbit6_ops):
        rep = canonical_representative(orbit6_ops[3])
        assert canonical_representative(rep) == rep

    def test_constant_on_orbits_and_separating(self, census3):
        reps = {op: canonical_representative(op) for op in census3}
        for a in census3[::7]:
            for b in census3[::11]:
                equivalent = are_equivalent(a, b) is not None
                assert equivalent == (reps[a] == reps[b])
        for op, rep in reps.items():
            assert rep in orbit(op)
            assert all(rep.flat() <= member.flat() for member in orbit(op))


class TestOrbitCensus:
    def test_m1(self):
        census = orbit_census(1)
        assert census.orbit_count == 1
        assert census.representatives == ((Operation([[1]]), 1),)

    def test_m2_structure(self, orbits2, m2_ops):
        assert orbits2.total == 8
        assert orbits2.orbit_count == 5
        assert sorted(size for _, size in orbits2.representatives) == [1, 1, 2, 2, 2]
        reps = [rep for rep, _ in orbits2.representatives]
        assert reps == [m2_ops[0], m2_ops[1], m2_ops[2], m2_ops[3], m2_ops[4]]

    def test_m3_contains_the_six_element_orbit(self, orbits3):
        members = frozenset(Operation(t) for t in ORBIT6_TABLES)
        rep6 = min(members, key=Operation.flat)
        assert rep6 == Operation(ORBIT6_TABLES[4])
        sizes = dict(orbits3.representatives)
        assert sizes[rep6] == 6
        assert orbit(rep6) == members

    def test_sizes_sum_to_total_and_divide_group_order(self, orbits3):
        sizes = [size for _, size in orbits3.representatives]
        assert sum(sizes) == orbits3.total == 113
        for size in sizes:
            assert 6 % size == 0

    def test_representatives_are_canonical(self, orbits3):
        for rep, _ in orbits3.representatives:
            assert canonical_representative(rep) == rep

    def test_m4_orbit_count_matches_isomorphism_classes(self, census4):
        census = orbit_census(4)
        assert census.total == 3492
        assert census.orbit_count == 188
        assert sum(size for _, size in census.representatives) == 3492

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_orbit_count_against_burnside(self, m, census2, census3, census4):
        # independent oracle: the orbit count equals the average number of
        # tables fixed by a permutation
        from cubal.operations import act, all_permutations

        census = {2: census2, 3: census3, 4: census4}[m]
        fixed_total = sum(
            1
            for pi in all_permutations(m)
            for op in census
            if act(pi, op) == op
        )
        group_order = sum(1 for _ in all_permutations(m))
        assert fixed_total % group_order == 0
        assert fixed_total // group_order == orbit_census(m).orbit_count

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_the_collect_then_relabel_oracle(self, m, jobs):
        assert orbit_census(m, jobs=jobs) == relabel_classify(m)

    def test_m5_counts(self):
        census = orbit_census(5)
        assert census.orbit_count == 1915  # semigroups of order 5 (OEIS A027851)
        assert census.total == KNOWN_COUNTS[5]
        flats = [rep.flat() for rep, _ in census.representatives]
        assert flats == sorted(set(flats))
        assert orbit_census(5, jobs=2) == census

    def test_search_work_is_pinned(self, monkeypatch):
        # consistency passes of the direct m = 4 search; a filter that waited
        # for forced cells to be set would prune later and take more
        calls, _ = record_trails(monkeypatch)
        assert orbit_census(4).orbit_count == 188
        assert calls[0] == 2648

    def test_m4_sizes_are_group_order_over_stabilizer(self):
        perms = list(all_permutations(4))
        for rep, size in orbit_census(4).representatives:
            stabilizer = sum(1 for pi in perms if act(pi, rep) == rep)
            assert size == math.factorial(4) // stabilizer

    def test_budget_guard(self):
        with pytest.raises(CapacityError):
            orbit_census(6)  # m = 6 needs max_m=6 (CUBAL_MAX_M=6 on the CLI)
        with pytest.raises(CapacityError):
            orbit_census(7, max_m=7)  # hard cap stays at 6


class TestSplitSearch:
    def test_split_search_work_is_pinned(self, monkeypatch, in_process_pool):
        # the split into prefixes plus every worker's walk down its prefix
        # and through its subtree; a worker that strayed from its prefix, or
        # dropped part of it, would take a different count.  Each split is
        # the one-job search plus one pass per prefix cell: 2,648 passes plus
        # 8 cells for each of 36 two-row prefixes, and 31,701 plus 4 cells
        # for each of 198 one-row prefixes
        calls, _ = record_trails(monkeypatch)
        split = orbit_census(4, jobs=2)
        assert calls[0] == 2936
        assert split == orbit_census(4)
        calls[0] = 0
        assert len(collect_operations(4, jobs=2)) == KNOWN_COUNTS[4]
        assert calls[0] == 32493

    def test_pool_never_outnumbers_its_tasks(self, in_process_pool):
        assert orbit_census(2, jobs=64) == orbit_census(2)  # 5 two-row prefixes
        # 4 one-row prefixes: each of the 4 first rows begins one of the 8 tables
        assert collect_operations(2, jobs=64) == collect_operations(2)
        assert in_process_pool.processes == [5, 4]


class TestSearchBookkeeping:
    @pytest.mark.parametrize(
        "run, stats, sha256",
        [
            (
                lambda: orbit_census(4),
                [2648, 1377, 641],
                "ad633baff41dce00dbea79d743ce7ed75fc13918e5f2286787c5f353f5107141",
            ),
            (
                lambda: collect_operations(4),
                [31701, 20510, 7255],
                "9451db296638284ea11aecb7f76585ea6f49f5dea0eafb3a05adac575804ca2c",
            ),
        ],
        ids=["orbit_census", "collect_operations"],
    )
    def test_forced_cell_trails_are_pinned(self, monkeypatch, run, stats, sha256):
        # every pass that holds, the cells it forces and their values, in order:
        # a change to the pin rule or to the undo shows here first
        got, digest = record_trails(monkeypatch)
        run()
        assert got == stats
        assert digest.hexdigest() == sha256

    @pytest.mark.parametrize(
        "run, calls",
        [(lambda: orbit_census(4), 1120), (lambda: collect_operations(4), 12547)],
        ids=["orbit_census", "collect_operations"],
    )
    def test_a_pin_only_meets_unknown_cells(self, monkeypatch, run, calls):
        # the consistency pass reads forced values from the same table, so a
        # forced cell is compared, never pinned again or pinned to a clash
        pin, seen = enumeration._pin, []

        def checking(t, trail, c, w):
            assert t[c] < 0
            seen.append(c)
            pin(t, trail, c, w)

        monkeypatch.setattr(enumeration, "_pin", checking)
        run()
        assert len(seen) == calls

    @pytest.mark.parametrize("lex", [False, True], ids=["labelled", "lex"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_the_search_leaves_no_trace(self, m, lex):
        t, val_cells = [-1] * (m * m + 1), [[] for _ in range(m)]
        buckets = [list(enumeration._relabelings(m))] + [[] for _ in range(m * m)] if lex else None
        state = [t, val_cells, buckets]
        before = repr(state)
        leaves = sum(1 for _ in enumeration._search(m, t, val_cells, 0, m * m, buckets))
        assert leaves == (orbit_census(m).orbit_count if lex else KNOWN_COUNTS[m])
        assert repr(state) == before


class TestCensusResultInvariants:
    def test_fields(self, orbits2):
        assert isinstance(orbits2, CensusResult)
        assert orbits2.m == 2
        assert len(orbits2.representatives) == orbits2.orbit_count
