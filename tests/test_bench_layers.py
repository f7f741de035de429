"""The result gates of tools/bench_layers.py, run in process on small inputs:
a wrong verdict, witness or product makes the harness exit 1 and name its unit."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from cubal import structure, verify
from cubal.cubic import CubicMatrix
from cubal.enumeration import collect_operations

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outcome(bench, capsys, layers):
    """The harness's exit status and the JSON line it prints, over one repeat."""
    code = bench.run(layers, 1, seed=0)
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def small_layers(bench):
    tables = collect_operations(2)
    e111 = CubicMatrix.basis(2, 1, 1, 1)
    pairs = bench.operand_pairs(2, random.Random(5))
    return {
        "checks": bench.check_units(tables),
        "solves": bench.solve_units({"basis": [(op, e111) for op in tables]}),
        "products": bench.product_units({(2, kind): p for kind, p in pairs.items()}),
    }


def test_small_inputs_pass_every_gate(bench, capsys):
    code, report = outcome(bench, capsys, small_layers(bench))
    assert (code, report["failed"]) == (0, [])
    assert sorted(report["checks"]["best_s"]) == sorted(c.__name__ for _, c in verify.battery())
    assert report["solves"]["solves"] == {"basis": 16}
    assert report["solves"]["witnesses"] == {"basis": 16}  # E(1,1,1) has both on every table
    assert sorted(report["products"]["pairs"]) == [
        f"m2-{kind}-{mode}" for kind in ("basis", "int", "rational", "slice") for mode in ("cold", "warm")
    ]


@pytest.mark.parametrize("verdict", [False, 1, (False, [])], ids=["false", "one", "false-pair"])
def test_a_verdict_that_is_not_true_fails_its_check(bench, capsys, monkeypatch, verdict):
    tables = collect_operations(2)
    real = verify.check_commutativity

    def check_commutativity(op):  # the real check's name, which names the unit
        return verdict if op == tables[3] else real(op)

    monkeypatch.setattr(verify, "check_commutativity", check_commutativity)
    code, report = outcome(bench, capsys, {"checks": bench.check_units(tables)})
    assert (code, report["failed"]) == (1, ["checks check_commutativity table 3"])


def test_a_witness_that_does_not_annihilate_fails_its_set(bench, capsys, monkeypatch):
    # each m = 2 table's element is E(1,1,1), and E(1,1,1) E(1,1,1) = E(1, a(1,1), 1) is never zero
    e111 = CubicMatrix.basis(2, 1, 1, 1)
    monkeypatch.setattr(structure, "left_zero_divisor_witness", lambda a, op: e111)
    code, report = outcome(bench, capsys, {"solves": small_layers(bench)["solves"]})
    assert (code, report["failed"]) == (1, [f"solves basis {n} left" for n in range(8)])


def test_a_doubled_product_fails_every_product_unit(bench, capsys, monkeypatch):
    real = CubicMatrix.mul
    monkeypatch.setattr(CubicMatrix, "mul", lambda self, other, op: real(self, other, op).scale(2))
    code, report = outcome(bench, capsys, {"products": small_layers(bench)["products"]})
    assert code == 1
    assert {label.rsplit(" ", 1)[0] for label in report["failed"]} == {
        f"products {name}" for name in report["products"]["pairs"]
    }
