from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given

from birough import (
    AnalysisReport,
    ParseError,
    RelationDocument,
    emit_report,
    parse_classification_file,
    parse_relation_file,
    ratio_decimal,
    ratio_obj,
    ratio_text,
    render_relation_file,
)
from birough.formats import build_approx_report, parse_tables_json
from birough.approx import approximate, RoughType
from naive import NaiveParseError, naive_parse_relation
from strategies import WIDE_U_SIZES, relation_texts, relations

SAMPLE_TEXT = """\
# comment line
V: y1 y2 y3 y4 y5 y6
x1: 1 1 0 0 1 0
x2: 0 0 1 0 0 1

x3: 0 1 0 1 0 0
x4: 1 0 1 1 1 1
x5: 1 1 0 0 1 0
"""


class TestRelationParsing:
    def test_parses_sample_matrix(self, sample):
        doc = parse_relation_file(SAMPLE_TEXT, source="inline")
        assert doc.universes.u_size == 5 and doc.universes.v_size == 6
        assert doc.relation() == sample
        assert doc.source == "inline"

    def test_one_by_one(self):
        doc = parse_relation_file("V: y1\nx1: 1\n")
        assert doc.rows == (1,)

    def test_row_width_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_relation_file("V: y1 y2\nx1: 1 0 1\n", source="f.rel")
        assert exc.value.line == 2
        assert "3 cells, expected 2" in exc.value.message
        assert str(exc.value).startswith("f.rel:2:")

    def test_missing_header(self):
        with pytest.raises(ParseError) as exc:
            parse_relation_file("x1: 1\n")
        assert "V:" in exc.value.message and exc.value.line == 1

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_relation_file("")
        with pytest.raises(ParseError):
            parse_relation_file("# only a comment\n")

    def test_header_without_labels(self):
        with pytest.raises(ParseError, match="at least one label"):
            parse_relation_file("V:\nx1: 1\n")

    def test_no_rows(self):
        with pytest.raises(ParseError, match="no relation rows"):
            parse_relation_file("V: y1\n")

    def test_duplicate_v_label_with_column(self):
        with pytest.raises(ParseError) as exc:
            parse_relation_file("V: y1 y1\nx1: 1 1\n")
        assert exc.value.line == 1 and exc.value.col == 7

    def test_duplicate_u_label(self):
        with pytest.raises(ParseError, match="duplicate U label"):
            parse_relation_file("V: y1\nx1: 1\nx1: 0\n")

    def test_non_binary_cell_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_relation_file("V: y1 y2\nx1: 1 2\n")
        assert exc.value.line == 2 and exc.value.col == 7
        assert "0 or 1" in exc.value.message

    def test_row_without_colon(self):
        with pytest.raises(ParseError, match="<label>:"):
            parse_relation_file("V: y1\nx1 1\n")

    def test_round_trip(self, sample):
        doc = RelationDocument(sample.universes, sample.rows, source="whatever")
        assert parse_relation_file(render_relation_file(doc)) == doc

    @given(relation_texts())
    def test_matches_cell_by_cell_reference(self, text):
        try:
            expected = naive_parse_relation(text)
        except NaiveParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_relation_file(text)
            assert (got.value.line, got.value.col, got.value.message) == exc.where
        else:
            doc = parse_relation_file(text)
            universes = doc.universes
            assert (list(universes.u_labels), list(universes.v_labels), list(doc.rows)) == expected

    @given(relations(max_u=6, max_v=6) | relations(u_sizes=WIDE_U_SIZES, max_v=6))
    def test_round_trip_random(self, rel):
        doc = RelationDocument(rel.universes, rel.rows)
        again = parse_relation_file(render_relation_file(doc))
        assert again.universes == doc.universes and again.rows == doc.rows


class TestClassificationParsing:
    def test_parses_blocks_in_order(self, universes):
        blocks = parse_classification_file("Y1: y1 y2 y6\nY2: y3 y4 y5\n", universes)
        assert [name for name, _ in blocks] == ["Y1", "Y2"]
        assert blocks[0][1].labels() == ("y1", "y2", "y6")

    def test_unknown_label_with_line(self, universes):
        with pytest.raises(ParseError) as exc:
            parse_classification_file("Y1: y1\nY2: y9\n", universes)
        assert exc.value.line == 2 and "y9" in exc.value.message

    def test_duplicate_name(self, universes):
        with pytest.raises(ParseError, match="duplicate block name"):
            parse_classification_file("Y1: y1\nY1: y2\n", universes)

    def test_empty_file_gives_no_blocks(self, universes):
        assert parse_classification_file("", universes) == []

    def test_comments_skipped(self, universes):
        blocks = parse_classification_file("# c\nY1: y1\n", universes)
        assert len(blocks) == 1


class TestTablesJson:
    def test_valid_grid(self):
        text = json.dumps({"union": [[[1]] * 4] * 4})
        tables = parse_tables_json(text)
        assert tables["union"][(RoughType(2), RoughType(3))] == frozenset({RoughType(1)})

    @pytest.mark.parametrize(
        "payload",
        [
            "{",
            "{}",
            '{"meet": []}',
            '{"union": [[[1]]]}',
            '{"union": [[[0],[1],[1],[1]],[[1],[1],[1],[1]],[[1],[1],[1],[1]],[[1],[1],[1],[1]]]}',
        ],
    )
    def test_bad_grids_rejected(self, payload):
        with pytest.raises(ParseError):
            parse_tables_json(payload)


class TestRatios:
    @pytest.mark.parametrize(
        "fraction, decimal",
        [
            (Fraction(1, 4), "0.250000"),
            (Fraction(1, 3), "0.333333"),
            (Fraction(2, 3), "0.666667"),
            (Fraction(0), "0.000000"),
            (Fraction(1), "1.000000"),
            (Fraction(3, 2), "1.500000"),
        ],
    )
    def test_decimal_rendering(self, fraction, decimal):
        assert ratio_decimal(fraction) == decimal

    def test_obj_and_text(self):
        assert ratio_obj(Fraction(1, 4)) == {"num": 1, "den": 4, "decimal": "0.250000"}
        assert ratio_text(Fraction(1, 4)) == "1/4 (0.250000)"


class TestReports:
    def test_schema_version_present(self, universes, sample):
        y = universes.v_subset(["y1", "y2", "y4"])
        report = build_approx_report(sample, "inline", y, approximate(sample, y))
        obj = json.loads(emit_report(report, "json"))
        assert obj["schema_version"] == 1 and obj["command"] == "approx"
        assert obj["lower"] == ["x3"]

    def test_emission_is_deterministic(self, universes, sample):
        y = universes.v_subset(["y5"])
        a = build_approx_report(sample, "inline", y, approximate(sample, y))
        b = build_approx_report(sample, "inline", y, approximate(sample, y))
        for fmt in ("json", "text"):
            assert emit_report(a, fmt) == emit_report(b, fmt)

    def test_json_keys_sorted(self, universes, sample):
        y = universes.v_subset(["y5"])
        report = build_approx_report(sample, "inline", y, approximate(sample, y))
        text = emit_report(report, "json")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(AnalysisReport("approx", {}), "yaml")
