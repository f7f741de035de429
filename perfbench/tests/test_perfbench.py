"""The benchmark's own checks must catch a wrong result, its inputs must
follow the seed, and the tracer must see calls between cubal modules."""

import dataclasses

import pytest

import workloads as W
from tracing import Tracer
from workloads import Checks


def _fail_ratio(check, inputs, outcomes) -> float:
    checks = Checks()
    check(inputs, outcomes, checks)
    assert checks.attempted > 0
    return len(checks.failures) / checks.attempted


def _run(units):
    return [unit() for unit in units]


def test_census_check_catches_a_total_off_by_one():
    inputs = {"m": 3}
    report, census = _run(W.census_units(inputs))
    assert _fail_ratio(W.census_check, inputs, [report, census]) == 0
    wrong = dataclasses.replace(census, total=census.total + 1)
    assert _fail_ratio(W.census_check, inputs, [report, wrong]) > 0
    code, text = report
    wrong_report = (code, text.replace('"total": 113', '"total": 112'))
    assert _fail_ratio(W.census_check, inputs, [wrong_report, census]) > 0


def test_census_check_catches_a_missing_orbit():
    inputs = {"m": 3}
    report, census = _run(W.census_units(inputs))
    wrong = dataclasses.replace(census, representatives=census.representatives[1:])
    assert _fail_ratio(W.census_check, inputs, [report, wrong]) > 0


def test_battery_check_catches_a_false_check_and_a_wrong_total():
    from cubal.operations import right_symmetric

    inputs = {"m": 2, "tables": [right_symmetric(2)]}
    report, verdict = _run(W.battery_units(inputs))
    assert _fail_ratio(W.battery_check, inputs, [report, verdict]) == 0
    assert _fail_ratio(W.battery_check, inputs, [report, dict(verdict, theorem_3=False)]) > 0
    code, text = report
    wrong_report = (code, text.replace('"total": 8', '"total": 9', 1))
    assert _fail_ratio(W.battery_check, inputs, [wrong_report, verdict]) > 0


@pytest.fixture(scope="module")
def m4_dense_cases():
    cases = [c for c in W.dense_setup(3) if c.op.m == 4]
    return cases, _run(W.dense_units(cases))


def test_dense_check_catches_a_witness_with_one_entry_changed(m4_dense_cases):
    from cubal.cubic import CubicMatrix

    cases, outcomes = m4_dense_cases
    assert _fail_ratio(W.dense_check, cases, outcomes) == 0
    n, side, e = next(
        (n, side, e)
        for n, out in enumerate(outcomes)
        for side in ("left", "right")
        for e, w in enumerate(out[side])
        if w is not None
    )
    w = outcomes[n][side][e]
    entries = list(w.entries)
    entries[0] += 1
    changed = list(outcomes[n][side])
    changed[e] = CubicMatrix(w.m, entries)
    wrong = list(outcomes)
    wrong[n] = dict(outcomes[n], **{side: changed})
    assert _fail_ratio(W.dense_check, cases, wrong) > 0


def test_dense_check_catches_a_missing_witness_on_a_projection(m4_dense_cases):
    cases, outcomes = m4_dense_cases
    n = next(n for n, c in enumerate(cases) if c.projection == "right")
    singular = 1
    assert outcomes[n]["left"][singular] is not None
    wrong = list(outcomes)
    wrong[n] = dict(outcomes[n], left=[outcomes[n]["left"][0], None])
    assert _fail_ratio(W.dense_check, cases, wrong) > 0


def test_dense_check_catches_a_wrong_product(m4_dense_cases):
    cases, outcomes = m4_dense_cases
    wrong = list(outcomes)
    wrong[0] = dict(outcomes[0], xy=outcomes[0]["xy"].scale(2))
    assert _fail_ratio(W.dense_check, cases, wrong) > 0


@pytest.mark.parametrize("name", ["verify-battery", "dense-algebra"])
def test_the_seed_decides_the_inputs(name):
    setup = W.WORKLOADS[name].setup
    assert W.input_bytes(setup(7)) == W.input_bytes(setup(7))
    assert W.input_bytes(setup(7)) != W.input_bytes(setup(8))


def test_census_inputs_are_fixed():
    assert W.input_bytes(W.census_setup(1)) == W.input_bytes(W.census_setup(2))


def test_tracer_sees_calls_between_modules_and_restores_them():
    from cubal import enumeration, linalg, structure, verify
    from cubal.cubic import CubicMatrix
    from cubal.operations import right_symmetric

    originals = (enumeration.collect_operations, linalg.rref, CubicMatrix.mul)
    tracer = Tracer()
    with tracer.installed():
        verify.verify_census(2)
        structure.left_zero_divisor_witness(CubicMatrix.basis(2, 1, 1, 1), right_symmetric(2))
    assert (enumeration.collect_operations, linalg.rref, CubicMatrix.mul) == originals
    metrics = {name: value for name, (value, unit) in tracer.layer_metrics().items()}
    assert metrics["enumeration.tables"] == 8
    assert metrics["verify.tables"] == 8
    assert metrics["structure.zerodiv_calls"] > 0
    # one 8 x 8 solve on top of the battery's own solves and rank checks
    assert metrics["linalg.rref_cells"] >= 64
    assert 0 < metrics["cubic.mul_basis_calls"] <= metrics["cubic.mul_calls"]
    assert metrics["cubic.mul_terms"] >= metrics["cubic.mul_calls"]
    rows, _ = tracer.aggregate()
    for calls, total, own in rows.values():
        assert 0 <= own <= total


def test_benchmark_json_names_what_the_runner_reports():
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    layer = Tracer().layer_metrics()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (value, unit) in layer.items()
    ]
