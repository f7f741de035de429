"""Shared fixtures: frozen reference tables and cached censuses.

The m = 2 list below is the complete lexicographic census of associative
tables on two symbols; the m = 3 tables are hand-picked reference points (a
six-element orbit, the two projections, the cyclic group, and a table whose
subsets are all invariant).  Tests cross-check all of them against the
enumerator and brute force.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from cubal.enumeration import collect_operations, orbit_census
from cubal.operations import Operation

# The eight associative tables on {1, 2}, in lexicographic order.
M2_TABLES = [
    [[1, 1], [1, 1]],  # 1: constant
    [[1, 1], [1, 2]],  # 2: meet semilattice
    [[1, 1], [2, 2]],  # 3: left projection
    [[1, 2], [1, 2]],  # 4: right projection
    [[1, 2], [2, 1]],  # 5: two-element group
    [[1, 2], [2, 2]],  # 6: join semilattice
    [[2, 1], [1, 2]],  # 7: two-element group, relabeled
    [[2, 2], [2, 2]],  # 8: constant at 2
]

# A six-table relabeling orbit on {1, 2, 3}; index 4 is its lex minimum.
ORBIT6_TABLES = [
    [[1, 2, 3], [2, 2, 2], [3, 2, 2]],
    [[1, 2, 3], [2, 3, 3], [3, 3, 3]],
    [[1, 1, 1], [1, 2, 3], [1, 3, 1]],
    [[2, 2, 1], [2, 2, 2], [1, 2, 3]],
    [[1, 1, 1], [1, 1, 2], [1, 2, 3]],
    [[3, 1, 3], [1, 2, 3], [3, 3, 3]],
]

RIGHT_PROJ3 = [[1, 2, 3], [1, 2, 3], [1, 2, 3]]
LEFT_PROJ3 = [[1, 1, 1], [2, 2, 2], [3, 3, 3]]

# The cyclic group of order 3: the squaring orbit of 2 cycles through {2, 3}.
CYCLE3 = [[1, 2, 3], [2, 3, 1], [3, 1, 2]]

# Every one of the 8 subsets of {1, 2, 3} is invariant for this table.
ALL_INVARIANT3 = [[1, 1, 1], [1, 2, 2], [1, 3, 3]]

# Monogenic table on 4 symbols with x^5 = x^2: the squaring orbit of 1 runs
# 1 -> 2 -> 4 -> 2 -> ..., entering a 2-cycle it never left from.
MONOGENIC4 = [
    [2, 3, 4, 2],
    [3, 4, 2, 3],
    [4, 2, 3, 4],
    [2, 3, 4, 2],
]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """perfbench's ``name``.py, loaded from its file as ``perfbench_<name>``.
    perfbench/ is on sys.path only while the file runs, for its own imports
    (workloads imports anchors)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def brute_associative(rows) -> bool:
    """Independent triple-loop oracle, no library code."""
    m = len(rows)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if rows[rows[i][j] - 1][k] != rows[i][rows[j][k] - 1]:
                    return False
    return True


def mod_p_characters(op, p) -> list:
    """Every nonzero c in (Z/p)^(m^3), indexed by flat (i, j, k), with
    c[s] c[t] = c[E(s)E(t)] (mod p) on every basis pair: the triple rule
    E(i, j, k)E(k, n, r) = E(i, a(j, n), r), and 0 where the inner indices
    differ.  Exhausts all p^(m^3) vectors, with no library code."""
    m = len(op.rows)
    flat = lambda i, j, k: (i * m + j) * m + k
    rules = [
        (flat(i, j, k), flat(l, n, r), flat(i, op.rows[j][n] - 1, r) if k == l else None)
        for i, j, k, l, n, r in itertools.product(range(m), repeat=6)
    ]
    return [
        c
        for c in itertools.product(range(p), repeat=m**3)
        if any(c) and all((c[s] * c[t] - (0 if u is None else c[u])) % p == 0 for s, t, u in rules)
    ]


@pytest.fixture(scope="session")
def workloads():
    """perfbench's workloads: its seeded inputs, and ``_product``, a
    reference product of flat entry lists that uses no cubal code."""
    return perfbench_module("workloads")


@pytest.fixture(scope="session")
def m2_ops():
    return [Operation(t) for t in M2_TABLES]


@pytest.fixture(scope="session")
def orbit6_ops():
    return [Operation(t) for t in ORBIT6_TABLES]


@pytest.fixture(scope="session")
def cycle3():
    return Operation(CYCLE3)


@pytest.fixture(scope="session")
def all_invariant3():
    return Operation(ALL_INVARIANT3)


@pytest.fixture(scope="session")
def census2():
    return collect_operations(2)


@pytest.fixture(scope="session")
def census3():
    return collect_operations(3)


@pytest.fixture(scope="session")
def census4():
    return collect_operations(4)


@pytest.fixture(scope="session")
def orbits2():
    return orbit_census(2)


@pytest.fixture(scope="session")
def orbits3():
    return orbit_census(3)
