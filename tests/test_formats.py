"""Round-trips and rejection behavior of the documented file formats."""

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubal.cubic import CubicMatrix
from cubal.enumeration import collect_operations, orbit_census
from cubal.errors import FormatError, NotAssociativeError
from cubal.formats import (
    census_from_doc,
    census_to_doc,
    cubic_from_doc,
    cubic_to_doc,
    dump_json,
    expand_census,
    json_chunks,
    operation_from_doc,
    parse_operation,
    table_from_text,
)
from cubal.operations import Operation
from cubal.scalars import format_scalar, parse_scalar

from conftest import CYCLE3, M2_TABLES


class TestScalars:
    def test_parse_integer_and_fraction(self):
        assert parse_scalar("3") == 3
        assert parse_scalar("-1/2") == Fraction(-1, 2)
        assert parse_scalar(4) == 4

    def test_format_reduced(self):
        assert format_scalar(Fraction(2, 4)) == "1/2"
        assert format_scalar(Fraction(-3)) == "-3"
        assert format_scalar(7) == "7"

    def test_round_trip(self):
        for s in ("0", "5", "-7/3", "22/7"):
            assert format_scalar(parse_scalar(s)) == s

    def test_bad_scalars_rejected(self):
        for bad in ("1/0", "a", "", None, 1.5):
            with pytest.raises(FormatError):
                parse_scalar(bad)


def table_doc(op):
    """The JSON table format of op."""
    return {"m": op.m, "table": [list(row) for row in op.rows]}


def table_text(op):
    """The text table format of op: m, then one line per row."""
    return "\n".join([str(op.m), *(" ".join(map(str, row)) for row in op.rows)]) + "\n"


class TestOperationFormats:
    def test_json_round_trip(self):
        op = Operation(CYCLE3)
        assert operation_from_doc(table_doc(op)) == op

    def test_text_round_trip(self):
        op = Operation(CYCLE3)
        assert table_from_text(table_text(op)) == op

    def test_parse_sniffs_json(self):
        op = Operation(M2_TABLES[1])
        assert parse_operation(json.dumps(table_doc(op)), "t.json") == op
        assert parse_operation(table_text(op), "t.txt") == op

    def test_non_associative_rejected_without_escape(self):
        text = "2\n2 1\n1 1\n"
        with pytest.raises(NotAssociativeError):
            table_from_text(text)
        got = table_from_text(text, unchecked=True)
        assert got(1, 1) == 2

    def test_malformed_documents_rejected(self):
        with pytest.raises(FormatError):
            operation_from_doc({"m": 2})
        with pytest.raises(FormatError):
            operation_from_doc({"m": 3, "table": [[1, 1], [1, 1]]})
        with pytest.raises(FormatError):
            table_from_text("2\n1 1\n")
        with pytest.raises(FormatError):
            table_from_text("not a table\n")
        with pytest.raises(FormatError, match=r"^bad JSON in t\.json: "):
            parse_operation("{broken json", "t.json")


class TestCubicFormats:
    def test_round_trip(self):
        x = CubicMatrix(
            2,
            [Fraction(n, d) for n, d in [(1, 1), (0, 1), (-1, 2), (3, 1), (0, 1), (5, 7), (2, 3), (-4, 1)]],
        )
        assert cubic_from_doc(cubic_to_doc(x)) == x

    def test_doc_uses_fraction_strings(self):
        doc = cubic_to_doc(CubicMatrix(1, (Fraction(-1, 2),)))
        assert doc == {"m": 1, "entries": [[["-1/2"]]]}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FormatError):
            cubic_from_doc({"m": 2, "entries": [[["1"]]]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"m": 2, "entries": [["12", "34"], ["56", "78"]]},
            {"m": 1, "entries": ["1"]},
            {"m": 1, "entries": "1"},
            {"m": 1, "entries": [[1]]},
        ],
        ids=["string-rows", "string-plane", "string-entries", "scalar-row"],
    )
    def test_strings_and_scalars_are_not_read_as_lists(self, doc):
        # a string is iterable, but its characters are not a row of scalars
        with pytest.raises(FormatError, match="must nest lists of scalars three deep"):
            cubic_from_doc(doc)


class TestCensusFormats:
    def test_round_trip(self, orbits2):
        doc = census_to_doc(orbits2)
        back = census_from_doc(doc)
        assert back == orbits2

    def test_doc_shape(self, orbits2):
        doc = census_to_doc(orbits2)
        assert doc["m"] == 2
        assert doc["total"] == 8
        assert doc["orbit_count"] == 5
        assert {o["size"] for o in doc["orbits"]} == {1, 2}

    def test_expansion_regenerates_the_census(self, orbits2, census2):
        assert expand_census(orbits2) == census2

    def test_expansion_m3(self, orbits3, census3):
        assert expand_census(orbits3) == census3

    def test_inconsistent_doc_rejected(self, orbits2):
        doc = census_to_doc(orbits2)
        doc["total"] = 9
        with pytest.raises(FormatError):
            census_from_doc(doc)
        doc["total"] = 8
        doc["orbit_count"] = 4
        with pytest.raises(FormatError):
            census_from_doc(doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("m", "2"), ("m", 3), ("m", True),
            ("size", "1"), ("size", True), ("size", 0), ("size", 1.0),
        ],
    )
    def test_ill_typed_doc_rejected(self, field, value):
        # one orbit, the constant table on two symbols; a size stands in the total too
        orbits = [{"representative": [[1, 1], [1, 1]], "size": 1}]
        doc = {"m": 2, "total": 1, "orbit_count": 1, "orbits": orbits}
        if field == "m":
            doc["m"] = value
        else:
            doc["orbits"][0]["size"] = doc["total"] = value
        with pytest.raises(FormatError):
            census_from_doc(doc)

    def test_representative_of_another_size_rejected(self):
        rep = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
        orbits = [{"representative": rep, "size": 1}]
        doc = {"m": "2", "total": 1, "orbit_count": 1, "orbits": orbits}
        with pytest.raises(FormatError):
            census_from_doc(doc)
        doc["m"] = 2
        with pytest.raises(FormatError):
            census_from_doc(doc)
        doc["m"] = 3
        assert census_from_doc(doc).m == 3

    @pytest.mark.parametrize(
        "doc",
        [
            None,
            [],
            {"m": 2},
            {"m": 2, "orbit_count": 0, "orbits": []},
            {"m": 2, "total": 1, "orbit_count": 1, "orbits": [{"size": 1}]},
            {"m": 2, "total": 1, "orbit_count": 1, "orbits": [[[1, 1], [1, 1]]]},
        ],
        ids=["null", "list", "no-orbits", "no-total", "no-representative", "bare-table"],
    )
    def test_malformed_doc_rejected(self, doc):
        with pytest.raises(FormatError, match="bad census document"):
            census_from_doc(doc)

    def test_expansion_rejects_a_wrong_orbit_size(self, orbits2):
        (rep, size), *rest = orbits2.representatives
        wrong = dataclasses.replace(orbits2, representatives=((rep, size + 1), *rest))
        with pytest.raises(FormatError, match=f"stored orbit size {size + 1} disagrees"):
            expand_census(wrong)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_a_written_census_reads_back_and_expands_to_every_table(self, m):
        census = orbit_census(m)
        back = census_from_doc(json.loads(dump_json(census_to_doc(census))))
        assert back == census
        assert expand_census(back) == collect_operations(m)

    # each document below is one that ``orbits`` could not have written

    def test_a_representative_that_is_not_its_orbit_minimum_is_rejected(self):
        # [[1, 1], [1, 1]] is the minimum of this size-2 orbit
        orbits = [{"representative": [[2, 2], [2, 2]], "size": 2}]
        census = census_from_doc({"m": 2, "total": 2, "orbit_count": 1, "orbits": orbits})
        with pytest.raises(FormatError, match=r"^orbit 1: representative \(\(2, 2\), \(2, 2\)\) is not its orbit's minimum$"):
            expand_census(census)

    def test_a_census_with_an_orbit_left_out_is_rejected(self):
        # the orbit of ((1, 1), (2, 2)) (size 1) dropped, total and orbit_count lowered to match
        doc = census_to_doc(orbit_census(2))
        doc["orbits"] = [o for o in doc["orbits"] if o["representative"] != ((1, 1), (2, 2))]
        doc["total"], doc["orbit_count"] = 7, 4
        census = census_from_doc(doc)
        with pytest.raises(FormatError, match=r"^the orbits hold 7 of the 8 associative tables on 2 symbols$"):
            expand_census(census)

    def test_representatives_in_descending_order_are_rejected(self, orbits2):
        doc = census_to_doc(orbits2)
        doc["orbits"].reverse()
        with pytest.raises(FormatError, match=r"^orbit 2: representative .* is not above orbit 1's$"):
            census_from_doc(doc)

    def test_a_representative_stated_twice_is_rejected(self):
        # read, the two orbits would state 4 tables and expand to 2
        orbits = [{"representative": [[1, 1], [1, 1]], "size": 2}] * 2
        doc = {"m": 2, "total": 4, "orbit_count": 2, "orbits": orbits}
        with pytest.raises(FormatError, match=r"^orbit 2: representative \(\(1, 1\), \(1, 1\)\) is not above orbit 1's$"):
            census_from_doc(doc)

    def test_an_orbit_size_that_does_not_divide_m_factorial_is_rejected(self):
        orbits = [{"representative": [[1, 1, 1], [1, 1, 1], [1, 1, 1]], "size": 5}]
        doc = {"m": 3, "total": 5, "orbit_count": 1, "orbits": orbits}
        with pytest.raises(FormatError, match=r"^orbit 1: size 5 does not divide 3!$"):
            census_from_doc(doc)


def reference_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# every string, lone surrogates too (a path that is not UTF-8 shows as those)
characters = st.characters(codec=None, exclude_categories=())
surrogates = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=())
strings = st.text(characters | surrogates) | st.sampled_from(
    ["", "tabl\u00e9.txt", "tabl\udcc3\udca9.txt", "\U0001f600", '"\\\n\t']
)
int_rows = st.lists(st.integers(-9, 9), max_size=6)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | strings
)
json_docs = st.recursive(
    scalars | int_rows | int_rows.map(tuple) | st.lists(st.sampled_from([True, False, 0, 1])),
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(strings, children, max_size=5),
    max_leaves=40,
)


class TestDumpJson:
    """``json_chunks`` (joined by ``dump_json``) against the json module's own
    indented rendering."""

    def test_deterministic_and_newline_terminated(self):
        doc = {"b": 1, "a": [2, 3]}
        text = dump_json(doc)
        assert text == dump_json({"a": [2, 3], "b": 1})
        assert text.endswith("\n")
        assert json.loads(text) == doc

    @settings(max_examples=300)
    @given(doc=json_docs)
    def test_matches_json_dumps(self, doc):
        assert dump_json(doc) == reference_json(doc)

    @settings(max_examples=100)
    @given(row=int_rows, doc=json_docs, other=st.lists(st.sampled_from([True, False, 0, 1]), max_size=4))
    def test_a_row_at_two_depths_and_its_bool_twin(self, row, doc, other):
        # the same row object, and an equal row of bools, at several depths
        twin = [bool(v) for v in other]
        again = [int(v) for v in other]
        doc = {"a": row, "b": [row, {"c": [row, doc]}], "d": [twin, again, [again, twin]], "e": row}
        assert dump_json(doc) == reference_json(doc)

    def test_bools_never_hit_an_int_row(self):
        doc = [[1, 0], [True, False], (1, 0), (True, False), [[1, 0], [True, False]]]
        assert dump_json(doc) == reference_json(doc)
        assert "true,\n    false" in dump_json(doc)

    def test_empty_containers_and_nesting(self):
        doc = {"": [], "a": {}, "b": [[], {}, [[[]]], ()], "c": [[[[[1]]]]], "d": None}
        assert dump_json(doc) == reference_json(doc)
        for top in ([], {}, (), 0, -1, 10**30, True, None, "x", 1.5):
            assert dump_json(top) == reference_json(top)

    def test_a_type_json_cannot_hold_raises(self):
        for doc in ({"a": Fraction(1, 2)}, [{1, 2}], {"a": [object()]}):
            with pytest.raises(TypeError):
                dump_json(doc)

    def test_chunks_are_about_64_kb(self):
        doc = {"operations": [op.rows for op in collect_operations(4)]}
        chunks = list(json_chunks(doc))
        assert "".join(chunks) == reference_json(doc)
        assert len(chunks) > 10
        assert all(2**16 <= len(chunk) < 2**16 + 200 for chunk in chunks[:-1])
