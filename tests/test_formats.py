from __future__ import annotations

import json
import random
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import repeat
from unittest import mock

import pytest
from hypothesis import given

from birough import (
    AnalysisReport,
    BinaryRelation,
    ParseError,
    UniversePair,
    emit_report,
    formats,
    iter_report,
    parse,
    parse_classification_file,
    parse_relation_file,
    ratio_decimal,
    ratio_obj,
    ratio_text,
    render_relation_file,
)
from birough.formats import build_approx_report, build_classify_report, build_neighbors_report
from birough.parse import parse_tables_json
from birough.approx import approximate, RoughType
from birough.classify import (
    approximate_family,
    family_law_report,
    measure_law_report,
    proper_index_subsets,
    validate_classification,
)
from birough.lab import canonical_universes, table_for
from naive import (
    NaiveParseError,
    matrix_of,
    naive_emit_json,
    naive_left,
    naive_parse_relation,
    right_sets,
)
from strategies import WIDE_U_SIZES, Level, json_trees, relation_texts, relations

# The breaks str.splitlines honours besides '\n'.
LINE_BREAKS = ("\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# One list object that several records of a test report hold.
SHARED = ["x1", "x2"]


class Label(str):
    """A str subclass, which a JSON writer must render as the stdlib does."""


def assert_matches_reference(text: str) -> None:
    """``parse_relation_file`` gives the cell-by-cell reading, or its error."""
    try:
        expected = naive_parse_relation(text)
    except NaiveParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_relation_file(text)
        assert (got.value.line, got.value.col, got.value.message) == exc.where
    else:
        rel = parse_relation_file(text)
        universes = rel.universes
        assert (list(universes.u_labels), list(universes.v_labels), list(rel.rows)) == expected


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
        rel = parse_relation_file(SAMPLE_TEXT, source="inline")
        assert rel.u_size == 5 and rel.v_size == 6
        assert rel == sample

    def test_one_by_one(self):
        rel = parse_relation_file("V: y1\nx1: 1\n")
        assert rel.rows == (1,)

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
        assert parse_relation_file(render_relation_file(sample)) == sample

    @given(relation_texts())
    def test_matches_cell_by_cell_reference(self, text):
        assert_matches_reference(text)

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
    @pytest.mark.parametrize(
        "template",
        [
            "V: y1{}y2\nx1: 0 1\n",
            "V: y1 y2{}x1: 0 1\n",
            "V: y1 y2\nx1{}x2: 0 1\n",
            "V: y1 y2\nx1: 0{}1\n",
            "V: y1 y2\nx1: 0 1{}x2: 1 0\n",
            "V: y1 y2\nx1: 0 1\nx2: 1 0{}",
        ],
        ids=["header-label", "header-end", "row-label", "row-cell", "row-end", "last-row-end"],
    )
    def test_line_breaks_other_than_newline_match_reference(self, template, brk):
        # Each file is in the rendered layout but for one break that
        # str.splitlines honours, so it must be read as the per-line loop
        # reads it.
        assert_matches_reference(template.format(brk))

    @pytest.mark.parametrize(
        "text",
        [
            "V: y1\nx1: 1\n#x2: 0\n",
            "V: y1\n#x1: 1\n",
            "V: y1 y2\n#x1: 0 1\nx2: 1 0\n",
            "V: y1\nx1: 1\n#: 0\n",
            "V: y1\nx1: 1\n#x1: 0\n",
            "V: y1\nx#1: 1\n",
            "V: #y1 y2\nx1: 0 1\n",
        ],
        ids=["last-row", "only-row", "first-row", "bare-hash", "repeat-label", "inner-hash", "v-label"],
    )
    def test_hash_prefixed_lines_match_reference(self, text):
        # A line whose first word starts with '#' is a comment, even when the
        # rest of the file is in the rendered layout.
        assert_matches_reference(text)

    @given(relations(max_u=6, max_v=6) | relations(u_sizes=WIDE_U_SIZES, max_v=6))
    def test_round_trip_random(self, rel):
        # A rendered file never needs the per-line loop.
        refused = AssertionError("the per-line loop ran")
        with mock.patch.object(parse, "_parse_lines", side_effect=refused):
            assert parse_relation_file(render_relation_file(rel)) == rel

    def test_parse_memory_is_linear_in_text(self):
        # The relation itself (labels, row ints, their tuples) is about 0.8
        # times the text of a 64-column file; the parse may add the label
        # checks' set beside it, but not another copy of the text.
        n, v = 20_000, 64
        rng = random.Random(5)
        rel = BinaryRelation(canonical_universes(n, v), tuple(rng.getrandbits(v) for _ in range(n)))
        text = render_relation_file(rel)
        tracemalloc.start()
        try:
            parsed = parse_relation_file(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == rel
        assert peak < 2.5 * len(text)

    def test_per_line_parse_memory_is_linear_in_text(self):
        # A leading comment sends the file through the per-line loop, which
        # reads one line at a time and frees its label set before the
        # relation builds its own index: no copy of the text's lines.
        n, v = 20_000, 64
        rng = random.Random(6)
        rel = BinaryRelation(canonical_universes(n, v), tuple(rng.getrandbits(v) for _ in range(n)))
        text = "# one comment line\n" + render_relation_file(rel)
        tracemalloc.start()
        try:
            parsed = parse_relation_file(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == rel
        assert peak < 2 * len(text)

    @pytest.mark.parametrize("end", ["", "\n", "\r", "\r\n"], ids=ascii)
    def test_lines_are_splitlines_across_slices(self, end):
        # Lines of every length around the slice size, ended by every break,
        # so that slices end next to each kind of break.
        rng = random.Random(8)
        breaks = ("\n",) + LINE_BREAKS
        parts = []
        for _ in range(400):
            parts += ("x" * rng.choice([0, 1, 300, 2000, 40_000]), rng.choice(breaks))
        text = "".join(parts[:-1]) + end
        assert len(text) > 8 * 65536
        assert list(parse._lines(text)) == text.splitlines()
        assert list(parse._lines("\r" * 70_000 + "\n")) == ("\r" * 70_000 + "\n").splitlines()
        assert list(parse._lines("")) == []


class TestClassificationParsing:
    def test_parses_blocks_in_order(self, universes):
        blocks = parse_classification_file("Y1: y1 y2 y6\nY2: y3 y4 y5\n", universes)
        assert [name for name, _ in blocks] == ["Y1", "Y2"]
        assert blocks[0][1].labels() == ("y1", "y2", "y6")

    def test_unknown_label_with_line(self, universes):
        with pytest.raises(ParseError) as exc:
            parse_classification_file("Y1: y1\nY2: y9\n", universes)
        assert exc.value.line == 2 and "y9" in exc.value.message

    def test_wide_blocks_match_a_per_token_loop(self):
        v_labels = tuple(f"y{j}" for j in range(4000))
        universes = UniversePair(("x1",), v_labels)
        order = list(v_labels)
        random.Random(3).shuffle(order)
        text = f"A: {' '.join(order[:3999])}\nB:\t{order[3999]}\n"
        masks = []
        for line in text.splitlines():
            mask = 0
            for token in line.split()[1:]:
                mask |= 1 << v_labels.index(token)
            masks.append(mask)
        blocks = parse_classification_file(text, universes)
        assert [(name, block.bits) for name, block in blocks] == list(zip("AB", masks))
        assert masks[0] | masks[1] == (1 << 4000) - 1 and masks[1].bit_count() == 1
        bad = text + "C: y1 y2  y4000 y3\n"
        with pytest.raises(ParseError) as exc:
            parse_classification_file(bad, universes, "wide.classes")
        assert (exc.value.source, exc.value.line, exc.value.col) == ("wide.classes", 3, 11)
        assert exc.value.message == "unknown V label 'y4000'"

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

    @pytest.mark.parametrize("operation", ["union", "intersection"])
    def test_built_in_tables_round_trip(self, operation):
        # The built-in tables written in the --tables-file layout parse back
        # to themselves.
        table = table_for(operation)
        grid = [[sorted(table[a, b]) for b in RoughType] for a in RoughType]
        assert parse_tables_json(json.dumps({operation: grid}))[operation] == table

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

    @pytest.mark.parametrize("code", [True, False, 1.0, 2.5, "1", None, [1]])
    def test_codes_must_be_exact_ints(self, code):
        # JSON true and 1.0 compare equal to 1, but are not rough-type codes
        grid = [[[1]] * 4 for _ in range(4)]
        grid[1][2] = [code]
        with pytest.raises(ParseError, match=r"cell \(2, 3\) must be a non-empty list of codes 1..4"):
            parse_tables_json(json.dumps({"union": grid}))


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


@contextmanager
def c_encoder(available: bool):
    """Run the JSON writer with the stdlib's C string encoder or its pure-Python one."""
    if available:
        yield
        return
    escape = json.encoder.py_encode_basestring_ascii
    with mock.patch.object(formats, "encode_basestring_ascii", escape), mock.patch.dict(
        formats._LEAF_TEXT, {str: escape}
    ):
        yield


def joined_lists(texts) -> list:
    """The lists a spy on ``formats._texts`` saw encoded by joins, once per encoding."""
    return [
        value
        for call in texts.call_args_list
        if all(type(v) in (list, tuple) and all(isinstance(x, str) for x in v) for v in call.args[0])
        for value in call.args[0]
    ]


class TestJsonWriter:
    @pytest.mark.parametrize("available", [True, False], ids=["c-encoder", "no-c-encoder"])
    @given(tree=json_trees(), other=json_trees(max_leaves=8))
    def test_matches_stdlib_indent_2(self, available, tree, other):
        # The same objects at several depths and twice in one container.
        body = {
            "tree": tree,
            "pair": [tree, other, tree],
            "nested": {"deeper": [{"tree": tree}, (other,)], "leaves": ["a", 1, True, None]},
            "level": Level.HIGH,
        }
        report = AnalysisReport("approx", body)
        with c_encoder(available):
            assert emit_report(report, "json") == naive_emit_json(report.to_obj())

    @pytest.mark.parametrize("available", [True, False], ids=["c-encoder", "no-c-encoder"])
    def test_edge_values(self, available):
        body = {
            "empty": [[], (), {}, [[]], {"": {}}],
            "scalars": [0, -1, 2**64, 1.5, float("nan"), float("-inf"), Level.LOW],
            "strings": ["", '"', "\\", "\x00", "\u2028", "\U0001f600", "caf\u00e9"],
            "int_keys": {3: "c", 1: ["a"], -2: {"x": []}},
        }
        report = AnalysisReport("approx", body)
        with c_encoder(available):
            assert emit_report(report, "json") == naive_emit_json(report.to_obj())

    @pytest.mark.parametrize(
        "label",
        ['"', "\\", "\x00", "\x1f", "\x7f", " ", "café", "\U0001f600", Label("x1")],
        ids=["quote", "backslash", "nul", "unit-separator", "delete", "line-separator", "latin-1",
             "astral", "str-subclass"],
    )
    def test_lists_with_a_label_to_escape(self, label):
        # A label that the check of a run's joined labels must catch, or a
        # str subclass, which joins as its text: alone, in a tuple, in a run
        # of label lists that it sends down the escaped route, in lists that
        # equal rows share, and in a record column.
        plain = [f"x{i}" for i in range(5)]
        lists = [plain, [*plain, label], (label,), [label, "y"], plain, []]
        body = {
            "one": [label],
            "tuple": ("a", label),
            "lists": lists,
            "rows": {f"x{i}": lists[i % len(lists)] for i in range(20)},
            "records": [{"blocks": value, "n": i} for i, value in enumerate(lists)],
        }
        report = AnalysisReport("approx", body)
        assert "".join(iter_report(report, "json")) == naive_emit_json(report.to_obj())

    @pytest.mark.parametrize(
        "mixed",
        [["a", 1], ["a", True, False], ["a", None], [None, "a"], [1, 2], [], ["a"], [Level.LOW, "a"]],
        ids=["int", "bools", "none", "none-first", "ints", "empty", "one-label", "int-enum"],
    )
    def test_lists_of_labels_and_other_scalars(self, mixed):
        # Lists that the join route must not take, beside label lists in one
        # run, alone, and in a record column.
        body = {
            "one": mixed,
            "lists": [["a", "b"], mixed, ("c",), mixed],
            "records": [{"blocks": ["a"]}, {"blocks": mixed}, {"blocks": mixed}],
        }
        report = AnalysisReport("approx", body)
        assert "".join(iter_report(report, "json")) == naive_emit_json(report.to_obj())

    def test_emit_memory_is_linear_in_output(self):
        # A classification into single columns: each complement index set
        # lists all but one block name in each of its law entries.  The
        # stdlib's indenting encoder holds a string object per value (over
        # five times the text); the writer holds at most one container's
        # member texts beside their join.
        n = 80
        rng = random.Random(3)
        rows = tuple(rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n))
        rel = BinaryRelation(canonical_universes(n, n), rows)
        named = [(f"B{j}", rel.universes.v_subset([j])) for j in range(n)]
        fa = approximate_family(rel, validate_classification(named))
        laws = family_law_report(fa) + measure_law_report(fa)
        report = build_classify_report(rel, "many.rel", fa, laws)
        tracemalloc.start()
        try:
            text = emit_report(report, "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 500_000
        assert peak < 3 * len(text)

    @pytest.mark.parametrize("available", [True, False], ids=["c-encoder", "no-c-encoder"])
    @given(tree=json_trees(), other=json_trees(max_leaves=8))
    def test_streamed_pieces_match_stdlib_indent_2(self, available, tree, other):
        # As test_matches_stdlib_indent_2, with lists of records (dicts that
        # share their keys) whose members are the trees.
        body = {
            "tree": tree,
            "pair": [tree, other, tree],
            "records": [{"a": tree, "b": other}, {"b": tree, "a": other}],
            "nested": {"deeper": ({"tree": tree}, {"tree": other}), "leaves": ["a", 1, True, None]},
            "level": Level.HIGH,
        }
        report = AnalysisReport("approx", body)
        with c_encoder(available):
            expected = naive_emit_json(report.to_obj())
            assert "".join(iter_report(report, "json")) == expected
            assert emit_report(report, "json") == expected

    @pytest.mark.parametrize("available", [True, False], ids=["c-encoder", "no-c-encoder"])
    @pytest.mark.parametrize(
        "records",
        [
            [{"a": 1, "b": 2}, {"a": 1}, {"b": [1]}],
            [{"a": 1, "b": 2}, {"b": 3, "c": 4}],
            [{"%": "%s", '"': 1, "%(a)s": [], '%%"d': {"e": 1}}, {'%%"d': None, "%(a)s": [2], "%": "", '"': 3}],
            [{}, {}],
            [{"a": 1}, {}],
            [{}, {"a": 1}],
            ({"a": 1}, {"a": [{"b": 2}]}),
            [{"a": Level.LOW, "b": 1}, {"a": Level.HIGH, "b": True}, {"a": 1, "b": 1.5}],
            [{1: "a"}, {1: "b"}],
            [{"a": 1}, [1], {"a": 2}],
            [{"a": [{"b": {"c": []}}, {"b": {"c": [None]}}]}, {"a": [{"b": {}}]}],
            [{"a": SHARED, "b": SHARED}, {"a": SHARED, "b": []}, {"a": [SHARED], "b": SHARED}],
        ],
        ids=[
            "keys-differ", "keys-overlap", "percent-and-quote-keys", "empty-dicts",
            "then-empty", "empty-first", "tuple", "int-enum", "int-keys", "not-all-dicts",
            "nested-records", "one-shared-list",
        ],
    )
    def test_record_lists(self, available, records):
        report = AnalysisReport("approx", {"records": records, "inner": {"records": records}})
        with c_encoder(available):
            assert "".join(iter_report(report, "json")) == naive_emit_json(report.to_obj())

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_pieces_are_batches_of_a_large_report(self, fmt):
        # A record list and a line list over several batches: the pieces
        # join to the text, and none but the last is far below a batch.
        n = 3000
        entries = [
            {"law": f"law-{i % 7}", "blocks": [f"B{j}" for j in range(i % 40)], "hypothesis": i % 3 == 0,
             "conclusion": True, "verdict": "holds"}
            for i in range(n)
        ]
        body = {
            "relation": {"source": "r.rel", "u_size": 1, "v_size": 1},
            "blocks": [],
            "measures": {"accuracy": None, "quality_v": ratio_obj(Fraction(1, 3)),
                         "quality_u": ratio_obj(Fraction(1)), "definable": False, "serial": True},
            "laws": {"holds": n, "vacuous": 0, "violated": 0, "entries": entries},
        }
        report = AnalysisReport("classify", body)
        pieces = list(iter_report(report, fmt))
        text = "".join(pieces)
        if fmt == "json":
            assert text == naive_emit_json(report.to_obj())
        assert len(text) > 4 * formats._BATCH
        assert all(len(piece) >= formats._BATCH for piece in pieces[:-1])
        assert max(map(len, pieces)) < 3 * formats._BATCH

    def test_streamed_memory_is_a_fraction_of_the_output(self):
        # The report of test_emit_memory_is_linear_in_output, written as it
        # is rendered: the writer holds about one batch beside the report.
        n = 80
        rng = random.Random(3)
        rows = tuple(rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n))
        rel = BinaryRelation(canonical_universes(n, n), rows)
        named = [(f"B{j}", rel.universes.v_subset([j])) for j in range(n)]
        fa = approximate_family(rel, validate_classification(named))
        laws = family_law_report(fa) + measure_law_report(fa)
        report = build_classify_report(rel, "many.rel", fa, laws)
        size = 0
        tracemalloc.start()
        try:
            for piece in iter_report(report, "json"):
                size += len(piece)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 500_000
        assert peak < 0.5 * size

    def test_streamed_neighbors_memory_is_a_fraction_of_the_output(self):
        # The relation of test_neighbors_report_memory_is_linear: one class
        # per row, so no neighborhood list recurs and the writer keeps no
        # member's text once it is written.
        n = 10000
        rows = tuple(random.Random(5).sample(range(1 << 40), n))
        rel = BinaryRelation(canonical_universes(n, 40), rows)
        report = build_neighbors_report(rel, "tall.rel")
        size = 0
        tracemalloc.start()
        try:
            for piece in iter_report(report, "json"):
                size += len(piece)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 5_000_000
        assert peak < 0.25 * size

    def test_streamed_shared_neighborhoods_memory_is_a_fraction_of_the_output(self):
        # An 8000x64 relation whose rows come from 800 patterns, the empty
        # one among them: each pattern's label list recurs about ten times
        # among the right neighborhoods, and its text is kept while they
        # are written, beside about one piece.
        rng = random.Random(17)
        patterns = {0}
        while len(patterns) < 800:
            patterns.add(rng.getrandbits(64) & rng.getrandbits(64))
        rows = tuple(map(rng.choice, repeat(sorted(patterns), 8000)))
        rel = BinaryRelation(canonical_universes(8000, 64), rows)
        report = build_neighbors_report(rel, "tall.rel")
        size = 0
        tracemalloc.start()
        try:
            for piece in iter_report(report, "json"):
                size += len(piece)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 3_000_000
        assert peak < 0.2 * size

    @pytest.mark.parametrize("available", [True, False], ids=["c-encoder", "no-c-encoder"])
    def test_members_that_recur_are_encoded_once_per_container(self, available):
        # Many keys and list slots hold one of three list objects, in runs
        # and interleaved, one of them also inside a nested list.
        lists = [[f"y{j}" for j in range(k)] for k in (1, 2, 3)]
        body = {
            "by_key": {f"x{i}": lists[i % 3] for i in range(50)},
            "slots": [lists[i % 2] for i in range(9)] + [lists[2], [lists[0]], lists[0], "leaf"],
            "once": {"a": lists[1], "b": [1, 2]},
        }
        report = AnalysisReport("neighbors", body)
        with c_encoder(available), mock.patch.object(formats, "_texts", wraps=formats._texts) as texts:
            text = "".join(iter_report(report, "json"))
        assert text == json.dumps(report.to_obj(), sort_keys=True, indent=2) + "\n"
        encoded = joined_lists(texts)
        # by_key, slots and the list nested in slots, or once.
        assert sum(value is lists[0] for value in encoded) == 3
        assert sum(value is lists[1] for value in encoded) == 3

    @pytest.mark.parametrize("available", [True, False], ids=["c-encoder", "no-c-encoder"])
    def test_containers_that_recur_in_a_record_column_are_encoded_once(self, available):
        # One list object in several records of a column, in runs and
        # interleaved with lists equal to it but distinct, beside nested
        # uses of it and a long list that recurs past the kept-text limit,
        # its uses apart by more labels than one run of texts holds: each
        # object is encoded once in the column, and the long one at each use.
        shared, equal = ["a", "b"], ["a", "b"]
        long = [f"y{j}" for j in range(formats._KEPT_PER_USE)]
        apart = [f"z{j}" for j in range(formats._RUN_LABELS)]
        column = [shared, equal, shared, shared, ["a", "b"], [shared], long, shared, apart, long, {"k": shared}, []]
        records = [{"blocks": value, "law": f"l{i % 3}", "ok": i % 2 == 0} for i, value in enumerate(column)]
        report = AnalysisReport("classify", {"laws": {"entries": records}})
        with c_encoder(available), mock.patch.object(formats, "_texts", wraps=formats._texts) as texts:
            text = "".join(iter_report(report, "json"))
        assert text == json.dumps(report.to_obj(), sort_keys=True, indent=2) + "\n"
        encoded = joined_lists(texts)
        # Once in the column, and once in each container nested in it.
        assert sum(value is shared for value in encoded) == 3
        assert sum(value is equal for value in encoded) == 1
        assert sum(value is long for value in encoded) == 2
        # The column's six lists of str, long again, and shared twice more.
        assert len(encoded) == 6 + 1 + 2

    @pytest.mark.parametrize("recurring", [False, True], ids=["distinct", "recurring-far-apart"])
    def test_large_lists_in_a_record_column_are_not_kept(self, recurring):
        # Large lists in a record column, each distinct, or each again half
        # the column later: the writer holds about one batch beside the
        # report, not the lists' texts.
        lists = [[f"y{i}-{j}" for j in range(1000)] for i in range(100)]
        column = lists + (lists if recurring else [list(values) for values in lists])
        records = [{"blocks": value, "i": i} for i, value in enumerate(column)]
        report = AnalysisReport("classify", {"entries": records})
        size = 0
        tracemalloc.start()
        try:
            for piece in iter_report(report, "json"):
                size += len(piece)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 2_000_000
        assert peak < 0.1 * size


class TestClassifyReport:
    def test_entries_of_one_index_set_share_one_blocks_object(self):
        # 300 one-column blocks: each complement lists 299 names in the
        # entries of four laws, and each singleton is in twelve.
        n = 300
        rng = random.Random(11)
        rel = BinaryRelation(canonical_universes(20, n), tuple(rng.getrandbits(n) for _ in range(20)))
        named = [(f"B{j}", rel.universes.v_subset([j])) for j in range(n)]
        fa = approximate_family(rel, validate_classification(named))
        laws = family_law_report(fa) + measure_law_report(fa)
        entries = build_classify_report(rel, "wide.rel", fa, laws).body["laws"]["entries"]
        objects: dict[tuple[str, ...], set[int]] = {}
        for entry in entries:
            if entry["blocks"]:
                objects.setdefault(tuple(entry["blocks"]), set()).add(id(entry["blocks"]))
        assert len(objects) == len(proper_index_subsets(n))
        assert all(len(ids) == 1 for ids in objects.values())


class TestNeighborsReport:
    @given(relations(max_u=6, max_v=6) | relations(u_sizes=WIDE_U_SIZES, max_v=6))
    def test_neighborhoods_match_oracle(self, rel):
        body = build_neighbors_report(rel, "r.rel").body
        matrix = matrix_of(rel)
        u_labels, v_labels = rel.universes.u_labels, rel.universes.v_labels
        rights = right_sets(matrix)
        # Insertion order is universe order; members are in universe order.
        assert list(body["right_neighborhoods"].items()) == [
            (x, [v_labels[j] for j in sorted(rights[i])]) for i, x in enumerate(u_labels)
        ]
        assert list(body["left_neighborhoods"].items()) == [
            (y, [u_labels[i] for i in sorted(naive_left(matrix, j))])
            for j, y in enumerate(v_labels)
        ]
