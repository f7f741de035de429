"""End-to-end command-line behavior: reports, determinism, exit codes."""

import argparse
import ast
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cubal import formats, operations
from cubal.cli import EXIT_INTERNAL, build_parser, main
from cubal.enumeration import collect_operations, orbit_census
from cubal.formats import census_to_doc, dump_json
from cubal.operations import Operation

from conftest import CYCLE3, LEFT_PROJ3, M2_TABLES, MONOGENIC4, RIGHT_PROJ3


@pytest.fixture
def table_file(tmp_path):
    def write(table, name="op.json"):
        path = tmp_path / name
        path.write_text(dump_json({"m": len(table), "table": table}))
        return str(path)

    return write


@pytest.fixture
def cubic_file(tmp_path):
    def write(m, entries, name):
        path = tmp_path / name
        path.write_text(dump_json({"m": m, "entries": entries}))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestEnum:
    def test_count_only(self, capsys):
        code, doc = run_cli(capsys, "enum", "--m", "2", "--count-only")
        assert code == 0
        assert doc["results"] == {"m": 2, "total": 8}

    def test_full_listing_matches_reference(self, capsys):
        code, doc = run_cli(capsys, "enum", "--m", "2")
        assert code == 0
        assert doc["results"]["operations"] == M2_TABLES

    def test_budget_exceeded_is_exit_2(self, capsys):
        code = main(["enum", "--m", "9", "--count-only"])
        assert code == 2

    def test_env_override_raises_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("CUBAL_MAX_M", "4")
        assert main(["enum", "--m", "5", "--count-only"]) == 2
        monkeypatch.setenv("CUBAL_MAX_M", "not-a-number")
        assert main(["enum", "--m", "2", "--count-only"]) == 2

    @pytest.mark.parametrize("raw", ["0", "-1", "not-a-number"])
    def test_env_budget_must_be_a_positive_int(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("CUBAL_MAX_M", raw)
        assert main(["enum", "--m", "2", "--count-only"]) == 2
        assert capsys.readouterr().err.startswith("cubal: CUBAL_MAX_M must be a positive integer, got ")

    def test_census_file(self, capsys, tmp_path):
        # the one census file: the census reader reads the results of an orbits report
        out = tmp_path / "census.json"
        assert main(["orbits", "--m", "2", "--out", str(out)]) == 0
        stored = formats.census_from_doc(json.loads(out.read_text())["results"])
        assert stored.total == 8
        assert stored.orbit_count == 5

    def test_enum_writes_no_census_file(self, capsys, tmp_path):
        out = tmp_path / "census.json"
        assert main(["enum", "--m", "3", "--census", str(out)]) == 2
        assert "unrecognized arguments: --census" in capsys.readouterr().err
        assert not out.exists()

    def test_orbits_m5_within_the_default_budget(self, capsys):
        code, doc = run_cli(capsys, "orbits", "--m", "5")
        assert code == 0
        assert doc["results"]["orbit_count"] == 1915
        assert doc["results"]["total"] == 183732

    def test_orbits_follow_the_enumeration_budget(self, capsys, monkeypatch, tmp_path):
        assert main(["orbits", "--m", "6"]) == 2
        monkeypatch.setenv("CUBAL_MAX_M", "4")
        assert main(["orbits", "--m", "5"]) == 2
        out = tmp_path / "census.json"
        assert main(["orbits", "--m", "5", "--out", str(out)]) == 2
        assert not out.exists()

    def test_verify_follows_the_enumeration_budget(self, capsys, monkeypatch):
        assert main(["verify", "--m", "6"]) == 2
        monkeypatch.setenv("CUBAL_MAX_M", "2")
        assert main(["verify", "--m", "3"]) == 2
        assert main(["verify", "--m", "2"]) == 0

    def test_usage_error_is_exit_2(self, capsys):
        assert main(["enum"]) == 2
        assert main(["no-such-command"]) == 2


class TestDeterminism:
    def test_reports_are_byte_identical(self, capsys):
        main(["enum", "--m", "3", "--count-only"])
        first = capsys.readouterr().out
        main(["enum", "--m", "3", "--count-only"])
        second = capsys.readouterr().out
        assert first == second

    def test_jobs_do_not_change_the_report(self, capsys):
        for argv in (["enum", "--m", "3"], ["verify", "--m", "3"], ["orbits", "--m", "4"]):
            assert main([*argv, "--jobs", "1"]) == 0
            first = capsys.readouterr().out
            assert main([*argv, "--jobs", "2"]) == 0
            second = capsys.readouterr().out
            assert first == second, argv

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (("verify", "--m", "2"),
             "6bbdf0d1f59d13209ee6c931ecb6376f1cb446aef50c48cd68f46a05b3121017"),
            (("verify", "--m", "3"),
             "91fc134521a7622b33eda2677cf94cfabf3a77e894dd5df10c07f9a28836fdc5"),
            (("orbits", "--m", "4"),
             "f5b0326445ac18ee77dc0607709910a765c12cf0ed13a15db4cf8de69eef414c"),
        ],
        ids=["verify-m2", "verify-m3", "orbits-m4"],
    )
    def test_pinned_report_digests(self, capsys, argv, sha256):
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "table, sha256",
        [
            (CYCLE3,
             "c2f8979f2216cd661c86be7639ec157e46d1d44a0e802ea439dceeefcd8e860a"),
            (RIGHT_PROJ3,
             "235cb2712ed14635103aca104e4f68eaec61c21307e59fe6319e2db3ecf6ad4b"),
            (LEFT_PROJ3,
             "c98d9660d22eec868a64b78d726e160a5744913dc531391fa45ad5fd01e11183"),
            (MONOGENIC4,
             "9807a2ab14a0e9529f72dc6c641d3b09366536c5ae7a1c75485c40dbb0cb22df"),
        ],
        ids=["cycle3", "right-proj3", "left-proj3", "monogenic4"],
    )
    def test_pinned_algebra_digests(self, capsys, table_file, cubic_file, table, sha256):
        """mul, plenary, phi and zerodiv (both sides, on a generic and a
        singular element) on seeded rational input; the digest covers the
        results only, since the report also names the temporary input paths."""
        m = len(table)
        rng = random.Random(str(table))

        def element(name, singular=False):
            entries = [
                [[str(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(m)]
                 for _ in range(m)]
                for _ in range(m)
            ]
            if singular:
                entries[-1] = entries[0]  # equal accompanying rows: det 0
            return cubic_file(m, entries, name)

        op = table_file(table)
        a, b, s = element("a.json"), element("b.json"), element("s.json", singular=True)
        runs = [("mul", "--op", op, a, b), ("plenary", "--op", op, "--n", "2", a), ("phi", a)]
        runs += [
            ("zerodiv", "--op", op, "--side", side, x) for side in ("left", "right") for x in (a, s)
        ]
        results = []
        for argv in runs:
            code, doc = run_cli(capsys, *argv)
            assert code == 0
            results.append(doc["results"])
        assert hashlib.sha256(dump_json(results).encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "table, sha256",
        [
            (CYCLE3,
             "57b74105b212312e9f2d0dc0e619a4a20784e830d53403bb87ac1d966f807a7c"),
            (RIGHT_PROJ3,
             "13eae86f1c668df5e80aa3c5f4a7b3c148d6b7c4000e32b1931bbd13bfa73025"),
            (LEFT_PROJ3,
             "c25a0a929ec20986b46124c38d88b61d1c6efd63a64c7f1cac585dbcdb5d19b7"),
            (MONOGENIC4,
             "b07353f23f8021716fcdb872c3c7d277017ff4846cb5c9a98ce49fc199f585e7"),
            ([[1]],
             "e4f78d6f26062326df962f475e01080f1a22da3f1dcf1c57fdace44684617a16"),
            ([[1, 1], [2, 2]],
             "6508950e13593b698695321daf43c104c980d7140aa3f12b807dcaa3e1ace42b"),
        ],
        ids=["cycle3", "right-proj3", "left-proj3", "monogenic4", "m1", "left-proj2"],
    )
    def test_pinned_table_report_digests(self, capsys, table_file, table, sha256):
        """char, subalg --list-invariant-sets and classify on one table; the
        digest covers the results only, as for the algebra digests."""
        op = table_file(table)
        runs = [("char",), ("subalg", "--list-invariant-sets"), ("classify",)]
        results = []
        for command, *flags in runs:
            code, doc = run_cli(capsys, command, "--op", op, *flags)
            assert code == 0
            results.append(doc["results"])
        assert hashlib.sha256(dump_json(results).encode()).hexdigest() == sha256

    def test_bad_jobs_rejected(self, capsys):
        for command in ("enum", "orbits", "verify"):
            assert main([command, "--m", "2", "--jobs", "0"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "cubal: jobs must be a positive integer, got 0\n"

    def test_emitted_tables_reparse(self, capsys, tmp_path, table_file):
        code, doc = run_cli(capsys, "orbits", "--m", "2")
        assert code == 0
        for entry in doc["results"]["orbits"]:
            rep = table_file(entry["representative"], name="rep.json")
            code2, doc2 = run_cli(capsys, "classify", "--op", rep)
            assert code2 == 0
            assert doc2["results"]["orbit_size"] == entry["size"]


class TestAlgebraCommands:
    def test_mul(self, capsys, table_file, cubic_file):
        op = table_file([[1, 2], [1, 2]])
        a = cubic_file(2, [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]], "a.json")
        b = cubic_file(2, [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]]], "b.json")
        code, doc = run_cli(capsys, "mul", "--op", op, a, b)
        assert code == 0
        # single matching inner index: E(1,1,1) x E(2,1,1) = E(1, a(1,1), 1)
        assert doc["results"]["product"]["entries"][0][0][0] == "0"
        got = doc["results"]["product"]["entries"]
        assert got == [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]

    def test_mul_inner_match(self, capsys, table_file, cubic_file):
        op = table_file([[1, 2], [1, 2]])
        a = cubic_file(2, [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]]], "a2.json")
        b = cubic_file(2, [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]]], "b2.json")
        code, doc = run_cli(capsys, "mul", "--op", op, a, b)
        assert code == 0
        assert doc["results"]["product"]["entries"][0][0][0] == "1"

    def test_plenary(self, capsys, table_file, cubic_file):
        op = table_file(CYCLE3)
        a = cubic_file(
            3,
            [
                [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
                [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            ],
            "e222.json",
        )
        code, doc = run_cli(capsys, "plenary", "--op", op, "--n", "1", a)
        assert code == 0
        assert doc["results"]["power"]["entries"][1][2][1] == "1"

    def test_char(self, capsys, table_file):
        code, doc = run_cli(capsys, "char", "--op", table_file([[1, 1], [2, 2]]))
        assert code == 0
        assert doc["results"]["count"] == 0

    def test_char_m1(self, capsys, table_file):
        code, doc = run_cli(capsys, "char", "--op", table_file([[1]]))
        assert code == 0
        assert doc["results"]["count"] == 1

    def test_phi(self, capsys, cubic_file):
        x = cubic_file(2, [[["1", "0"], ["2", "0"]], [["0", "0"], ["0", "0"]]], "x.json")
        code, doc = run_cli(capsys, "phi", x)
        assert code == 0
        assert doc["results"]["coefficients"] == [["3", "0"], ["0", "0"]]

    def test_zerodiv(self, capsys, table_file, cubic_file):
        op = table_file([[1, 2], [1, 2]])
        a = cubic_file(2, [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]], "za.json")
        code, doc = run_cli(capsys, "zerodiv", "--op", op, "--side", "left", a)
        assert code == 0
        assert doc["results"]["exists"] is True
        assert doc["results"]["accompanying_determinant"] == "0"
        assert doc["results"]["witness"]["m"] == 2

    def test_subalg(self, capsys, table_file):
        op = table_file([[1, 1, 1], [1, 2, 2], [1, 3, 3]])
        code, doc = run_cli(capsys, "subalg", "--op", op, "--list-invariant-sets")
        assert code == 0
        res = doc["results"]
        assert res["nonempty_invariant_count"] == 7
        assert len(res["invariant_subsets"]) == 8
        assert res["image"] == [1, 2, 3]

    def test_classify(self, capsys, table_file):
        code, doc = run_cli(capsys, "classify", "--op", table_file(CYCLE3))
        assert code == 0
        res = doc["results"]
        assert res["symmetric"] is False
        assert res["symmetry"] == "none"
        rep = min(operations.orbit(Operation(CYCLE3)), key=Operation.flat)
        assert res["canonical_representative"] == [list(r) for r in rep.rows]
        assert res["power_sequences"]["2"] == {
            "tag": "periodic",
            "entry": 0,
            "period": 2,
            "cycle": [2, 3],
        }

    def test_classify_refuses_an_orbit_over_its_budget(self, capsys, table_file, monkeypatch):
        # the chain min(i, j) has orbit size m!: 9! = 362,880 relabelings
        monkeypatch.setattr(operations, "all_permutations", lambda m: pytest.fail("scan started"))
        chain = [[min(i, j) for j in range(1, 10)] for i in range(1, 10)]
        assert main(["classify", "--op", table_file(chain)]) == 2
        assert "9! relabeling scan exceeds the budget (max m = 8)" in capsys.readouterr().err

    def test_rejects_non_associative_table(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n2 1\n1 1\n")
        assert main(["classify", "--op", str(bad)]) == 2
        assert main(["classify", "--op", str(bad), "--unchecked"]) == 0
        capsys.readouterr()

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["classify", "--op", "/nonexistent/table.json"]) == 2


class TestExitCodes:
    """0 success, 1 a failed check, 2 bad input or budget, 3 a fault in cubal."""

    @pytest.fixture
    def files(self, table_file, cubic_file):
        op = table_file([[1, 2], [1, 2]])
        a2 = cubic_file(2, [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]], "a2.json")
        a1 = cubic_file(1, [[["1"]]], "a1.json")
        return op, a2, a1

    @pytest.mark.parametrize(
        "argv",
        [
            ["mul", "--op", "{op}", "{a2}", "{a1}"],
            ["mul", "--op", "{op}", "{a1}", "{a2}"],
            ["plenary", "--op", "{op}", "--n", "1", "{a1}"],
            ["zerodiv", "--op", "{op}", "{a1}"],
            ["zerodiv", "--op", "{op}", "--side", "right", "{a1}"],
        ],
        ids=["mul-right", "mul-left", "plenary", "zerodiv-left", "zerodiv-right"],
    )
    def test_matrix_of_another_size_is_exit_2(self, capsys, files, argv):
        op, a2, a1 = files
        code = main([arg.format(op=op, a2=a2, a1=a1) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert "cubic matrix has m=1, the table has m=2" in err

    def test_negative_plenary_index_is_exit_2(self, capsys, files):
        op, a2, _ = files
        assert main(["plenary", "--op", op, "--n", "-1", a2]) == 2
        assert "--n must be an int and nonnegative, got -1" in capsys.readouterr().err

    def test_malformed_inputs_are_exit_2(self, capsys, tmp_path):
        binary = tmp_path / "bin.json"
        binary.write_bytes(b"\xff\xfe\x00")
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"m": 2, "entries": [[1, 2], [3, 4]]}))
        rows = tmp_path / "rows.json"
        rows.write_text(json.dumps({"m": 2, "table": [1, 2]}))
        assert main(["classify", "--op", str(binary)]) == 2
        assert main(["phi", str(binary)]) == 2
        assert main(["phi", str(flat)]) == 2
        assert main(["classify", "--op", str(rows)]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert err.count("cubal: ") == 4
        # an "m" that is not a positive int is named, even when the data fit it
        for m, n in (("2", 2), (True, 1), (2.0, 2), (0, 0)):
            table = tmp_path / "m_table.json"
            table.write_text(json.dumps({"m": m, "table": [[1] * n] * n}))
            cubic = tmp_path / "m_cubic.json"
            cubic.write_text(json.dumps({"m": m, "entries": [[["1"] * n] * n] * n}))
            for argv in (["classify", "--op", str(table)], ["phi", str(cubic)]):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert err == f'cubal: "m" must be a positive integer, got {m!r}\n'

    @pytest.mark.parametrize(
        "name, text, argv, message",
        [
            ("ragged.json", '{"m": 2, "entries": [[["1", "0"], ["0"]], [["0", "0"], ["0", "1"]]]}',
             ["mul", "--op", "{op}", "{file}", "{a2}"], "ragged cubic array"),
            ("ragged.json", '{"m": 2, "entries": [[["1", "0"], ["0"]], [["0", "0"], ["0", "1"]]]}',
             ["phi", "{file}"], "ragged cubic array"),
            ("cut.json", '{"m": 2, "entries": [[["1"', ["phi", "{file}"],
             "bad JSON in cut.json: Expecting ',' delimiter: line 1 column 27 (char 26)"),
            ("no_m.json", '{"entries": [[["1"]]]}', ["phi", "{file}"],
             'cubic matrix document needs "m" and "entries" keys'),
            ("no_entries.json", '{"m": 1}', ["mul", "--op", "{op}", "{a2}", "{file}"],
             'cubic matrix document needs "m" and "entries" keys'),
            ("empty.txt", "", ["classify", "--op", "{file}"], "empty table file"),
            ("blank.txt", "  \n\n", ["char", "--op", "{file}"], "empty table file"),
            ("zero.txt", "0\n", ["classify", "--op", "{file}"],
             '"m" must be a positive integer, got 0'),
            ("minus.txt", "-1\n", ["classify", "--op", "{file}"],
             '"m" must be a positive integer, got -1'),
        ],
        ids=["ragged-mul", "ragged-phi", "cubic-bad-json", "cubic-no-m", "cubic-no-entries",
             "empty-table", "blank-table", "text-m0", "text-m-1"],
    )
    def test_bad_input_file_is_exit_2_with_its_message(
        self, capsys, monkeypatch, tmp_path, files, name, text, argv, message
    ):
        op, a2, _ = files
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text)
        assert main([arg.format(op=op, a2=a2, file=name) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cubal: {message}\n"

    def test_bad_table_json_names_its_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.json").write_text('{"m": 1, table: [[1]]}\n')
        assert main(["classify", "--op", "broken.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "cubal: bad JSON in broken.json: Expecting property name enclosed in double"
            " quotes: line 1 column 10 (char 9)\n"
        )

    @pytest.mark.parametrize(
        "exc",
        [ValueError("boom"), KeyError("boom"), ZeroDivisionError()],
        ids=lambda exc: type(exc).__name__,
    )
    def test_library_fault_is_exit_3(self, capsys, monkeypatch, exc):
        import cubal.cli

        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cubal.cli, "count_operations", broken)
        code = main(["enum", "--m", "2", "--count-only"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL == 3
        assert captured.out == ""
        assert captured.err.startswith(f"cubal: internal error: {type(exc).__name__}")
        assert "Traceback" in captured.err

    def test_capacity_and_os_errors_stay_exit_2(self, capsys):
        assert main(["enum", "--m", "7", "--count-only"]) == 2
        assert main(["phi", "/nonexistent/x.json"]) == 2
        assert "internal error" not in capsys.readouterr().err


class TestVerifyCommand:
    def test_failing_check_yields_exit_1_and_diagnostics(self, capsys, monkeypatch):
        import cubal.verify

        monkeypatch.setattr(cubal.verify, "check_characters", lambda op: False)
        code = main(["verify", "--m", "1", "--all"])
        captured = capsys.readouterr()
        assert code == 1
        assert "theorem_2" in captured.err
        doc = json.loads(captured.out)
        assert doc["results"]["all_pass"] is False

    @pytest.mark.parametrize(
        "key, check, failing",
        [
            ("theorem_1", "check_isomorphisms", False),
            ("theorem_2", "check_characters", False),
            ("theorem_3", "check_accompanying", False),
            ("theorem_4", "check_subalgebras", False),
            ("commutativity", "check_commutativity", (False, {"pair": [[1], [1]]})),
            ("zero_divisors", "check_zero_divisors", False),
            ("plenary_powers", "check_plenary_powers", False),
        ],
    )
    def test_each_failing_check_is_named_alone(self, capsys, monkeypatch, key, check, failing):
        import cubal.verify

        monkeypatch.setattr(cubal.verify, check, lambda op: failing)
        code = main(["verify", "--m", "2"])
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["results"]["all_pass"] is False
        assert captured.err.splitlines() == [
            f"cubal: checks ['{key}'] failed for table {op}" for op in M2_TABLES
        ]

    def test_m2_all_green(self, capsys):
        code, doc = run_cli(capsys, "verify", "--m", "2", "--all")
        assert code == 0
        res = doc["results"]
        assert res["all_pass"] is True
        assert res["total"] == 8
        for entry in res["results"]:
            for key in ("theorem_1", "theorem_2", "theorem_3", "theorem_4",
                        "commutativity", "zero_divisors", "plenary_powers"):
                assert entry[key] is True

    def test_m1(self, capsys):
        code, doc = run_cli(capsys, "verify", "--m", "1", "--all")
        assert code == 0
        assert doc["results"]["all_pass"] is True


class TestOutputModes:
    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["enum", "--m", "2", "--count-only", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["results"]["total"] == 8

    def test_pretty_mode_mentions_timing(self, capsys):
        code = main(["enum", "--m", "2", "--count-only", "--pretty"])
        assert code == 0
        out = capsys.readouterr().out
        assert "elapsed:" in out
        assert "command: enum" in out

    def test_stdout_out_and_census_file_hold_dump_json(self, capsys, tmp_path):
        # the census file is an orbits report, written to --out
        census = tmp_path / "census.json"
        report = {
            "command": "orbits",
            "params": {"m": 3},
            "results": census_to_doc(orbit_census(3)),
            "inputs": {},
        }
        assert main(["orbits", "--m", "3"]) == 0
        assert capsys.readouterr().out == dump_json(report)
        assert main(["orbits", "--m", "3", "--out", str(census)]) == 0
        assert capsys.readouterr().out == ""
        assert census.read_bytes() == dump_json(report).encode()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_a_report_of_many_chunks_holds_dump_json(self, capsys, tmp_path, to_file):
        out = tmp_path / "report.json"
        assert main(["enum", "--m", "4", *(["--out", str(out)] if to_file else [])]) == 0
        ops = collect_operations(4)
        report = {
            "command": "enum",
            "params": {"count_only": False, "m": 4},
            "results": {"m": 4, "total": len(ops), "operations": [op.rows for op in ops]},
            "inputs": {},
        }
        text = out.read_text() if to_file else capsys.readouterr().out
        assert len(text) > 10 * 2**16
        assert text == dump_json(report)

    def test_reports_stream_without_dump_json(self, capsys, tmp_path, monkeypatch):
        # every output path writes the writer's chunks as they come
        monkeypatch.setattr(formats, "dump_json", lambda doc: pytest.fail("the report was held whole"))
        code, doc = run_cli(capsys, "verify", "--m", "2")
        assert code == 0 and doc["results"]["all_pass"] is True
        census = tmp_path / "census.json"
        assert main(["orbits", "--m", "2", "--out", str(census)]) == 0
        assert json.loads(census.read_text())["results"]["total"] == 8
        assert main(["enum", "--m", "2", "--count-only", "--pretty"]) == 0
        assert "command: enum" in capsys.readouterr().out

    def test_input_digests_recorded(self, capsys, table_file):
        op = table_file(CYCLE3)
        code, doc = run_cli(capsys, "classify", "--op", op)
        assert code == 0
        assert doc["inputs"][op].startswith("sha256:")


class TestReportShape:
    """What a report holds besides its results, and what --help lists."""

    @pytest.fixture
    def paths(self, tmp_path, table_file, cubic_file):
        op = table_file([[1, 1], [2, 2]])
        a = cubic_file(2, [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1/2"]]], "a.json")
        b = cubic_file(2, [[["0", "0"], ["3", "0"]], [["1", "0"], ["0", "0"]]], "b.json")
        return {"op": op, "a": a, "b": b, "tmp": str(tmp_path)}

    @pytest.mark.parametrize(
        "argv, params",
        [
            (["enum", "--m", "2", "--count-only"], {"count_only": True, "m": 2}),
            (["orbits", "--m", "2", "--jobs", "2"], {"m": 2}),
            (["verify", "--m", "1", "--all"], {"all": True, "m": 1}),
            (["mul", "--op", "{op}", "{a}", "{b}"],
             {"a": "TMP/a.json", "b": "TMP/b.json", "op": "TMP/op.json", "unchecked": False}),
            (["plenary", "--op", "{op}", "--n", "2", "{a}"],
             {"a": "TMP/a.json", "n": 2, "op": "TMP/op.json", "unchecked": False}),
            (["char", "--op", "{op}", "--unchecked"], {"op": "TMP/op.json", "unchecked": True}),
            (["phi", "{a}"], {"x": "TMP/a.json"}),
            (["zerodiv", "--op", "{op}", "--side", "right", "{a}"],
             {"a": "TMP/a.json", "op": "TMP/op.json", "side": "right", "unchecked": False}),
            (["subalg", "--op", "{op}", "--list-invariant-sets"],
             {"list_invariant_sets": True, "op": "TMP/op.json", "unchecked": False}),
            (["classify", "--op", "{op}"], {"op": "TMP/op.json", "unchecked": False}),
        ],
        ids=["enum-count-only", "orbits", "verify", "mul", "plenary", "char", "phi",
             "zerodiv", "subalg", "classify"],
    )
    def test_params(self, capsys, paths, argv, params):
        code, doc = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 0
        masked = json.loads(json.dumps(doc["params"]).replace(paths["tmp"], "TMP"))
        assert masked == params
        assert list(doc) == ["command", "inputs", "params", "results"]

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (("enum", "--m", "3"),
             "88637f6c6452f91b7bf7ab5b81d798781f0a0d3a843c906eb234b81d8b5daec7"),
            (("enum", "--m", "3", "--count-only"),
             "daeea41e52c36c0a055725bd4093ff5b0ce77c21dae716da964757f609fa1bc1"),
        ],
        ids=["enum-m3", "enum-m3-count-only"],
    )
    def test_pinned_enum_report_bytes(self, capsys, argv, sha256):
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["enum", "--m", "2", "--count-only"],
             'command: enum\n{\n  "m": 2,\n  "total": 8\n}\n'),
            (["char", "--op", "{op}"],
             "command: char\ninput TMP/op.json: "
             "sha256:73eddcd0458c12de45f5b3c26876fa4f6184a76ad9aaeb2a70c8c9e18d7ff92e\n"
             '{\n  "characters": [],\n  "count": 0\n}\n'),
        ],
        ids=["enum", "char"],
    )
    def test_pretty_output(self, capsys, paths, argv, text):
        assert main([*(arg.format(**paths) for arg in argv), "--pretty"]) == 0
        *lines, elapsed = capsys.readouterr().out.replace(paths["tmp"], "TMP").split("\n")[:-1]
        assert "".join(line + "\n" for line in lines) == text
        assert re.fullmatch(r"elapsed: \d+\.\d{3}s", elapsed)

    @pytest.mark.parametrize(
        "command, arguments",
        [
            ("enum", "--m M|[--count-only]|[--jobs JOBS]"),
            ("orbits", "--m M|[--jobs JOBS]"),
            ("mul", "--op TABLE|A.json|B.json|[--unchecked]"),
            ("plenary", "--n N|--op TABLE|A.json|[--unchecked]"),
            ("char", "--op TABLE|[--unchecked]"),
            ("phi", "X.json"),
            ("zerodiv", "--op TABLE|A.json|[--side {left,right}]|[--unchecked]"),
            ("subalg", "--op TABLE|[--list-invariant-sets]|[--unchecked]"),
            ("verify", "--m M|[--all]|[--jobs JOBS]"),
            ("classify", "--op TABLE|[--unchecked]"),
        ],
    )
    def test_help_lists_each_argument(self, capsys, monkeypatch, command, arguments):
        monkeypatch.setenv("COLUMNS", "200")
        assert main([command, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert usage.startswith(f"usage: cubal {command} [-h] ")
        listed = re.findall(r"\[[^\]]*\]|--\S+(?: [A-Z]+)?|\S+", usage[len(f"usage: cubal {command} [-h] "):])
        assert sorted(listed) == sorted([*arguments.split("|"), "[--out FILE]", "[--pretty]"])

    def test_readme_names_each_flag_of_the_parser_and_no_other(self):
        # catches a removed flag still in the docs, and a new one never documented;
        # the section also shows the flags of perfbench/run.py, which are not cubal's
        root = Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command-line tool\n", 1)[1].split("\n## ", 1)[0]
        perfbench = {
            node.args[0].value
            for node in ast.walk(ast.parse((root / "perfbench" / "run.py").read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        }
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings}
        assert set(re.findall(r"--[a-z][a-z-]*", section)) - perfbench == flags - {"-h", "--help"}

    def test_help_lists_each_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith(
            "usage: cubal [-h] {enum,orbits,mul,plenary,char,phi,zerodiv,subalg,verify,classify} ...\n"
        )


class TestTextEncoding:
    """Input files are read, and --out files written, as UTF-8 whatever the
    locale; here the locale's encoding is ASCII (LC_ALL=C, with neither
    locale coercion nor UTF-8 mode)."""

    @staticmethod
    def cubal(cwd, *argv, locale="C"):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": locale,
               "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        return subprocess.run([sys.executable, "-m", "cubal.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=60)

    def test_utf8_input_in_an_ascii_locale(self, tmp_path):
        data = '{"m": 1, "table": [[1]], "note": "café"}\n'.encode("utf-8")
        (tmp_path / "t.json").write_bytes(data)
        done = self.cubal(tmp_path, "classify", "--op", "t.json")
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        assert doc["inputs"] == {"t.json": "sha256:" + hashlib.sha256(data).hexdigest()}
        assert doc["results"]["orbit_size"] == 1
        # invalid UTF-8 is still named as such
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe\x00")
        done = self.cubal(tmp_path, "classify", "--op", "bad.json")
        assert done.returncode == 2
        assert done.stderr.decode() == (
            "cubal: bad.json is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte\n"
        )

    def test_utf8_out_file_in_an_ascii_locale(self, tmp_path):
        data = b"1\n1\n"
        (tmp_path / "tablé.txt").write_bytes(data)
        done = self.cubal(tmp_path, "char", "--op", "tablé.txt", "--pretty", "--out", "fé")
        assert done.returncode == 0, done.stderr
        lines = (tmp_path / "fé").read_bytes().decode("utf-8").splitlines()
        digest = hashlib.sha256(data).hexdigest()
        assert lines[:2] == ["command: char", f"input tablé.txt: sha256:{digest}"]

    @pytest.mark.parametrize(
        "argv, path",
        [(["char", "--op", "tablé.txt"], "tablé.txt")],
        ids=["char"],
    )
    def test_report_shows_a_path_the_same_in_every_locale(self, tmp_path, argv, path):
        (tmp_path / "tablé.txt").write_bytes(b"1\n1\n")
        ascii_run = self.cubal(tmp_path, *argv)
        utf8_run = self.cubal(tmp_path, *argv, locale="C.UTF-8")
        assert ascii_run.returncode == utf8_run.returncode == 0, ascii_run.stderr
        assert ascii_run.stdout == utf8_run.stdout
        doc = json.loads(ascii_run.stdout)
        assert path in doc["params"].values()

    @pytest.mark.parametrize(
        "name, message",
        [("brokén.json", "cubal: bad JSON in brokén.json: Expecting property name enclosed in double quotes:"
                         " line 1 column 2 (char 1)\n"),
         ("missé.json", "cubal: [Errno 2] No such file or directory: 'missé.json'\n")],
        ids=["bad-json", "missing"],
    )
    def test_stderr_shows_a_path_the_same_in_every_locale(self, tmp_path, name, message):
        # stderr is written as UTF-8, so the path shows as the bytes it was given
        (tmp_path / "brokén.json").write_bytes(b"{bad\n")
        runs = [self.cubal(tmp_path, "classify", "--op", name, locale=loc) for loc in ("C", "C.UTF-8")]
        assert [run.returncode for run in runs] == [2, 2]
        assert [run.stderr for run in runs] == [message.encode("utf-8")] * 2


def test_only_reading_an_input_file_loads_hashlib(tmp_path):
    # hashlib loads OpenSSL, and only an input file's digest needs it, so a
    # fresh `enum` process does without it while a table command still
    # reports its input's sha256
    data = b'{"m": 1, "table": [[1]]}\n'
    (tmp_path / "t.json").write_bytes(data)
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from cubal.cli import main\n"
        "main(['enum', '--m', '3', '--count-only', '--out', 'enum.json'])\n"
        "print('hashlib' in set(sys.modules) - before)\n"
        "main(['classify', '--op', 't.json', '--out', 'classify.json'])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    assert json.loads((tmp_path / "enum.json").read_text())["results"]["total"] == 113
    inputs = json.loads((tmp_path / "classify.json").read_text())["inputs"]
    assert inputs == {"t.json": "sha256:" + hashlib.sha256(data).hexdigest()}
