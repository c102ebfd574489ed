"""Text formats, report assembly, and deterministic serialization.

Relation files mirror a Boolean matrix: a ``V:`` header listing the column
labels, then one ``<label>: b1 b2 ...`` line per row, '#' starting a comment
line.  ``parse_relation_file`` reads one into a ``BinaryRelation`` and
``render_relation_file`` writes a relation back in the same layout.  The
parser reads that layout (single spaces, a newline after every line) in a
few whole-text passes, and any other layout line by line, to the same
relation or the same error.  Classification files hold one
``<name>: <labels...>`` block per line.

Reports are small JSON-able trees with a schema version; ``emit_report``
renders them either as stable JSON (sorted keys) or as a human-oriented text
layout.  Identical inputs always serialize to identical bytes.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, itemgetter
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from .approx import ApproxResult, RoughType
from .relation import (
    BinaryRelation,
    BiroughError,
    Side,
    Subset,
    UniversePair,
    digits_row,
    mask_members,
    record,
    row_digits,
    valid_label,
)

if TYPE_CHECKING:
    # Annotations only: a command loads classify or lab when it uses them,
    # and only classify makes a Fraction.
    from fractions import Fraction

    from .classify import FamilyApprox, TheoremReport
    from .lab import PropertyReport, TableCellFinding, Witness

__all__ = [
    "SCHEMA_VERSION",
    "ParseError",
    "parse_relation_file",
    "render_relation_file",
    "parse_classification_file",
    "parse_tables_json",
    "ratio_decimal",
    "ratio_obj",
    "ratio_text",
    "AnalysisReport",
    "emit_report",
    "iter_report",
    "relation_summary",
    "build_approx_report",
    "build_neighbors_report",
    "build_classify_report",
    "build_verify_report",
    "build_tables_report",
    "build_witness_report",
]

SCHEMA_VERSION = 1

_TOKEN_RE = re.compile(r"\S+")


class ParseError(BiroughError, ValueError):
    """A text input failed to parse; carries source, line, and column."""

    def __init__(self, message: str, source: str = "<string>", line: int = 0, col: int = 0):
        self.message = message
        self.source = source
        self.line = line
        self.col = col
        super().__init__(f"{source}:{line}:{col}: {message}")


def parse_relation_file(text: str, source: str = "<string>") -> BinaryRelation:
    """Parse the relation matrix format with line/column diagnostics.

    ``source`` names the input in a ``ParseError`` only.

    A file in the layout that ``render_relation_file`` writes is read in a
    few whole-text passes (``_parse_rendered``).  Any other text, and any
    rendered-looking text with a duplicate label, is read line by line
    (``_parse_lines``) from the start, so every file gives the same relation
    or the same ``ParseError`` on either path.
    """
    rel = _parse_rendered(text)
    return _parse_lines(text, source) if rel is None else rel


def _parse_rendered(text: str) -> BinaryRelation | None:
    """The relation of a file in the rendered layout, else None.

    The layout is a ``V: <labels>`` header, then one ``<label>: d d ... d``
    line per row, with single spaces, one '0'/'1' digit per cell and a
    ``\n`` after every line, and no label twice on one side.
    """
    # A tab or a '\r', the likeliest marks of a hand edit, is found at
    # memchr speed, before the row regex scans the whole text in vain.
    header = re.match(r"V:((?: [^\s:]+)+)\n", text)
    if header is None or not text.endswith("\n") or "\t" in text or "\r" in text:
        return None
    v_labels = header[1].split(" ")[1:]
    # A row match spans its whole line, from the '\n' before it to the '\n'
    # after it, so every row line matched when there are as many matches as
    # lines.  Every break of str.splitlines is whitespace, which no match
    # holds, so the per-line loop would see the same lines.  The cells are
    # matched eight to a round: the regex engine pays per round of a repeat,
    # and compiling an unrolled pattern costs time per column.
    rounds, rest = divmod(len(v_labels), 8)
    cells = "(?:%s){%d}%s" % (" [01]" * 8, rounds, " [01]" * rest)
    # A row label starts with no '#': the per-line loop skips such a line as
    # a comment.
    row = re.compile(r"\n([^\s:#][^\s:]*):%s(?=\n)" % cells)
    u_labels = row.findall(text, header.end() - 1)
    if not u_labels or len(u_labels) != text.count("\n", header.end()):
        return None
    # The regexes admit only valid labels, so a label that repeats is the one
    # fault left; the per-line loop names its line and column.
    if len(set(u_labels)) != len(u_labels) or len(set(v_labels)) != len(v_labels):
        return None
    # A row line is its label, ':' and two characters per cell.  The digits
    # of the line whose '\n' is at ``end`` sit at end-1, end-3, ...; read in
    # that order, last cell first, cell j becomes bit j.
    width = 2 * len(v_labels)
    ends = accumulate(map(add, map(len, u_labels), repeat(width + 2)), initial=header.end() - 1)
    next(ends)
    rows = tuple([int(text[end - 1 : end - width : -2], 2) for end in ends])
    return BinaryRelation(UniversePair(tuple(u_labels), tuple(v_labels)), rows)


def _parse_lines(text: str, source: str) -> BinaryRelation:
    """The relation file read line by line, raising at the first bad token.

    A well-formed row is taken in one pass over its line; any other line goes
    through ``_parse_row``, which locates the first offending token.  The
    lines are read one at a time, so the text is never held twice.
    """
    v_labels: list[str] | None = None
    u_labels: list[str] = []
    masks: list[int] = []
    u_seen: set[str] = set()
    last_line = 0

    for line_no, line in enumerate(_lines(text), 1):
        last_line = line_no
        # str.split() and _TOKEN_RE split at the same (Unicode) whitespace.
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        if v_labels is None:
            v_labels = _parse_v_header(line, source, line_no)
            v_size = len(v_labels)
            continue

        head = words[0]
        label = head[:-1]
        digits = "".join(words[1:])
        # One character per cell, each '0' or '1'; checked before int(),
        # which would also accept '_', whitespace and non-ASCII digits.
        if (
            len(words) == v_size + 1
            and len(digits) == v_size
            and not digits.strip("01")
            and head.endswith(":")
            and valid_label(label)
            and label not in u_seen
        ):
            mask = digits_row(digits)
        else:
            label, mask = _parse_row(line, source, line_no, v_size, u_seen)
        u_seen.add(label)
        u_labels.append(label)
        masks.append(mask)

    # The set outgrows the labels themselves; free it before the relation
    # builds its own label index.
    del u_seen
    if v_labels is None:
        raise ParseError(
            "expected a 'V:' header line listing the V labels", source, max(last_line, 1), 1
        )
    if not u_labels:
        raise ParseError("no relation rows found", source, max(last_line, 1), 1)
    return BinaryRelation(UniversePair(tuple(u_labels), tuple(v_labels)), tuple(masks))


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, one line at a time.

    The text is split a slice of about 64K characters at a time, each slice
    ending just after a '\n'.  Every break of str.splitlines ends at its last
    character, and a '\n' ends any break that holds one, so the slices'
    lines are the text's lines.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + (1 << 16)) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _parse_v_header(line: str, source: str, line_no: int) -> list[str]:
    tokens = list(_TOKEN_RE.finditer(line))
    head = tokens[0]
    if head.group() != "V:":
        raise ParseError(
            "expected a 'V:' header line listing the V labels",
            source,
            line_no,
            head.start() + 1,
        )
    v_labels: list[str] = []
    seen: set[str] = set()
    for match in tokens[1:]:
        token = match.group()
        if not valid_label(token):
            raise ParseError(f"bad V label {token!r}", source, line_no, match.start() + 1)
        if token in seen:
            raise ParseError(
                f"duplicate V label {token!r}", source, line_no, match.start() + 1
            )
        seen.add(token)
        v_labels.append(token)
    if not v_labels:
        raise ParseError(
            "the V header must list at least one label", source, line_no, head.end() + 1
        )
    return v_labels


def _parse_row(
    line: str, source: str, line_no: int, v_size: int, u_seen: set[str]
) -> tuple[str, int]:
    """One relation row, token by token, raising at the first bad token."""
    tokens = list(_TOKEN_RE.finditer(line))
    head = tokens[0]
    if not head.group().endswith(":") or len(head.group()) < 2:
        raise ParseError(
            "expected '<label>: <0/1 cells>'", source, line_no, head.start() + 1
        )
    label = head.group()[:-1]
    if not valid_label(label):
        raise ParseError(f"bad U label {label!r}", source, line_no, head.start() + 1)
    if label in u_seen:
        raise ParseError(f"duplicate U label {label!r}", source, line_no, head.start() + 1)
    cells = tokens[1:]
    if len(cells) != v_size:
        col = cells[-1].start() + 1 if cells else head.end() + 1
        raise ParseError(
            f"row for {label!r} has {len(cells)} cells, expected {v_size}",
            source,
            line_no,
            col,
        )
    mask = 0
    for j, match in enumerate(cells):
        token = match.group()
        if token == "1":
            mask |= 1 << j
        elif token != "0":
            raise ParseError(
                f"cell must be 0 or 1, got {token!r}", source, line_no, match.start() + 1
            )
    return label, mask


def render_relation_file(rel: BinaryRelation) -> str:
    """Render a relation as text; parsing the result reproduces it."""
    v_size = rel.v_size
    lines = ["V: " + " ".join(rel.universes.v_labels)]
    for label, row in zip(rel.universes.u_labels, rel.rows):
        lines.append(f"{label}: {' '.join(row_digits(row, v_size))}")
    return "\n".join(lines) + "\n"


def parse_classification_file(
    text: str, universes: UniversePair, source: str = "<string>"
) -> list[tuple[str, Subset]]:
    """Parse named V-blocks; partition validation happens separately."""
    blocks: list[tuple[str, Subset]] = []
    names: set[str] = set()
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = list(_TOKEN_RE.finditer(line))
        head = tokens[0]
        if not head.group().endswith(":") or len(head.group()) < 2:
            raise ParseError(
                "expected '<name>: <V labels...>'", source, line_no, head.start() + 1
            )
        name = head.group()[:-1]
        if name in names:
            raise ParseError(
                f"duplicate block name {name!r}", source, line_no, head.start() + 1
            )
        bits = 0
        for match in tokens[1:]:
            token = match.group()
            try:
                j = universes.index(Side.V, token)
            except BiroughError:
                raise ParseError(
                    f"unknown V label {token!r}", source, line_no, match.start() + 1
                ) from None
            bits |= 1 << j
        names.add(name)
        blocks.append((name, Subset(universes, Side.V, bits)))
    return blocks


def parse_tables_json(text: str, source: str = "<string>") -> dict[str, dict]:
    """Parse a user-supplied type-table transcription.

    Format: an object mapping 'union' / 'intersection' to a 4x4 grid (rows =
    left type 1..4, columns = right type) of non-empty lists of allowed result
    codes, each a JSON integer 1..4.
    """
    from .lab import OPERATIONS

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", source, exc.lineno, exc.colno) from None
    if not isinstance(data, dict) or not data:
        raise ParseError("expected an object with 'union'/'intersection' grids", source)
    out: dict[str, dict] = {}
    for op, grid in data.items():
        if op not in OPERATIONS:
            raise ParseError(f"unknown operation {op!r}", source)
        if not isinstance(grid, list) or len(grid) != 4 or any(
            not isinstance(row, list) or len(row) != 4 for row in grid
        ):
            raise ParseError(f"{op}: expected a 4x4 grid of allowed-code lists", source)
        table = {}
        for i, row in enumerate(grid):
            for j, cell in enumerate(row):
                # Exact ints only: JSON true and 1.0 compare equal to 1.
                if not isinstance(cell, list) or not cell or any(
                    type(c) is not int or not 1 <= c <= 4 for c in cell
                ):
                    raise ParseError(
                        f"{op}: cell ({i + 1}, {j + 1}) must be a non-empty list of codes 1..4",
                        source,
                    )
                table[(RoughType(i + 1), RoughType(j + 1))] = frozenset(
                    RoughType(c) for c in cell
                )
        out[op] = table
    return out


# --- ratios ------------------------------------------------------------------


def ratio_decimal(value: Fraction) -> str:
    """Exact six-place fixed-point rendering; no floating point involved."""
    whole, frac = divmod(round(value * 10**6), 10**6)
    return f"{whole}.{frac:06d}"


def ratio_obj(value: Fraction) -> dict[str, Any]:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": ratio_decimal(value),
    }


def ratio_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator} ({ratio_decimal(value)})"


# --- reports -----------------------------------------------------------------


@record
class AnalysisReport:
    """A serializable result tree for one CLI command."""

    command: str
    body: Mapping[str, Any]

    def to_obj(self) -> dict[str, Any]:
        return {"schema_version": SCHEMA_VERSION, "command": self.command, **self.body}


def emit_report(report: AnalysisReport, format: str = "text") -> str:
    """Serialize a report; identical reports yield identical bytes.

    JSON is byte for byte ``json.dumps(obj, sort_keys=True, indent=2)`` plus
    a newline.
    """
    return "".join(iter_report(report, format))


def iter_report(report: AnalysisReport, format: str = "text") -> Iterator[str]:
    """The text of ``emit_report(report, format)`` in pieces of about 64K characters.

    A caller that writes the pieces as they come holds about one piece
    beside the report, in place of the whole text.  A member too large for a
    piece (such as one long label list) still comes whole.
    """
    if format == "json":
        return _batched(chain(_json_pieces(report.to_obj(), 0), ("\n",)))
    if format == "text":
        return _batched(_TEXT_RENDERERS[report.command](dict(report.body)), "\n")
    raise ValueError(f"unknown report format {format!r}")


# Characters of text per piece that ``iter_report`` yields: large enough that
# writing a piece costs far more than the call, small beside a large report.
_BATCH = 1 << 16


def _batched(pieces: Iterable[str], end: str = "") -> Iterator[str]:
    """Each piece followed by ``end``, joined into batches of about ``_BATCH`` characters."""
    batch: list[str] = []
    append = batch.append
    size = 0
    for piece in pieces:
        append(piece)
        size += len(piece)
        if size >= _BATCH:
            append("")
            text = end.join(batch)
            batch.clear()
            size = 0
            yield text
    if batch:
        append("")
        yield end.join(batch)


# --- JSON writer -------------------------------------------------------------
#
# ``json.dumps`` with any ``indent`` falls back to its pure-Python encoder,
# one generator step per value.  This writer walks only the dicts and the
# lists of containers in Python; a list of plain scalars is encoded by one
# call of the C encoder, a list of records (dicts that share one set of keys)
# by one ``%``-template per record over C-level columns, a plain scalar as
# the stdlib encodes it, and every other value by the stdlib encoder itself,
# so the bytes are those of ``json.dumps(obj, sort_keys=True, indent=2)``.

_STDLIB_JSON = json.JSONEncoder(sort_keys=True, indent=2)
# The plain scalars, by exact type (an IntEnum is not one), and their text.
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda flag: "true" if flag else "false",
    type(None): lambda _: "null",
}
_LEAF_TYPES = frozenset(_LEAF_TEXT)
_KEY_TYPES = frozenset({str})


def _leaf_text(obj: Any) -> str:
    return _LEAF_TEXT[type(obj)](obj)


@lru_cache(maxsize=None)
def _leaf_list_encoder(depth: int):
    """Encode a non-empty list of ``_LEAF_TYPES`` values at ``depth``."""
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth + "]"
    if c_make_encoder is None:
        separator = "," + inner
        return lambda items: f"[{inner}{separator.join(map(_leaf_text, items))}{outer}"
    encode = c_make_encoder(
        None, None, encode_basestring_ascii, None, ": ", "," + inner,
        True, False, True,
    )
    # The C encoder writes "[item,<inner>item]"; re-frame its brackets.
    return lambda items: f"[{inner}{''.join(encode(items, 0))[1:-1]}{outer}"


# A function that encodes a value as indented JSON at a depth.
_Encoder = Callable[[Any, int], str]


def _flat_encoder(obj: Any) -> _Encoder | None:
    """The encoder of ``obj`` as indented JSON at a depth when it holds no
    container, else None.

    Only the element types are checked here, so a caller that encodes one
    object several times can check it once.  A list of plain scalars is
    encoded by the C encoder; any other value that holds no container (such
    as a dict of plain scalars), and any value the writer does not walk, by
    the stdlib.
    """
    kind = type(obj)
    if kind is list or kind is tuple:
        return _leaf_list_text if _LEAF_TYPES.issuperset(map(type, obj)) else None
    if kind is dict and _KEY_TYPES.issuperset(map(type, obj)):
        return _stdlib_text if _LEAF_TYPES.issuperset(map(type, obj.values())) else None
    return _stdlib_text


def _leaf_list_text(items: Sequence[Any], depth: int) -> str:
    return _leaf_list_encoder(depth)(items) if items else "[]"


def _stdlib_text(obj: Any, depth: int) -> str:
    """The stdlib's text, whose lines are indented from depth 0.  A JSON text
    holds no raw newline inside a string, so each newline starts an
    indented line."""
    return _STDLIB_JSON.encode(obj).replace("\n", "\n" + "  " * depth)


def _pieces_text(obj: Any, depth: int) -> str:
    return "".join(_json_pieces(obj, depth))


def _value_encoder(obj: Any) -> _Encoder:
    """The encoder of ``obj`` as indented JSON at a depth, in one string."""
    return _flat_encoder(obj) or _pieces_text


def _json_pieces(obj: Any, depth: int) -> Iterator[str]:
    """``obj`` as indented JSON at ``depth``, in pieces.

    A container that holds containers comes member by member, a list of
    records a batch of records at a time, and anything else in one piece.
    """
    encode = _flat_encoder(obj)
    if encode is not None:
        yield encode(obj, depth)
        return
    if type(obj) is dict:
        brackets = "{}"
        keys = sorted(obj)
        values = obj.values()
        members = zip(map(add, map(encode_basestring_ascii, keys), repeat(": ")), map(obj.get, keys))
    else:
        keys = _record_keys(obj)
        if keys is not None:
            yield from _record_pieces(obj, keys, depth)
            return
        brackets = "[]"
        values = obj
        members = zip(repeat(""), obj)
    inner = "\n" + "  " * (depth + 1)
    separator = "," + inner
    lead = brackets[0] + inner
    flat_text = _shared_texts(values, _flat_encoder, depth + 1)
    for prefix, value in members:
        leaf = _LEAF_TEXT.get(type(value))
        text = leaf(value) if leaf else flat_text(value)
        if text is None:
            yield lead + prefix
            yield from _json_pieces(value, depth + 1)
        else:
            yield lead + prefix + text
        lead = separator
    yield "\n" + "  " * depth + brackets[1]


# Characters of a kept text per further use of it.  A kept text saves one
# encoding at each further use and is held until its last, so a long text
# with few uses spread over a long container (the names of an index set
# recur once per law section) would hold a share of the report for little.
_KEPT_PER_USE = 256


def _shared_texts(
    values: Iterable[Any], encoder: Callable[[Any], _Encoder | None], depth: int
) -> Callable[[Any], str | None]:
    """The text of each value of one container at ``depth``, taken in their order.

    ``encoder(value)`` checks a value and gives the function that encodes it
    at a depth, or None for a value it does not encode (whose text is None).
    A value that is one object several times over (such as the label list
    that equal rows share, or the names of one index set in every law entry
    over it) is checked once per container.  Its text is kept until its last
    use if it has at most ``_KEPT_PER_USE`` characters per further use, and
    a longer one is encoded again at each use by the function found at the
    first; every other text is dropped once returned.
    """
    uses = Counter(map(id, values))
    left = dict(compress(uses.items(), map((1).__lt__, uses.values())))
    del uses
    # Per recurring value, its kept text, or the encoder of a text too long to keep.
    kept: dict[int, str | _Encoder] = {}

    def text(value: Any) -> str | None:
        key = id(value)
        found = kept.pop(key, None)
        if type(found) is not str:
            encode = found or encoder(value)
            if encode is None:
                return None
            found = encode(value, depth)
            if len(found) > _KEPT_PER_USE * (left.get(key, 1) - 1):
                if key in left:
                    kept[key] = encode
                return found
        further = left[key] - 1
        if further:
            kept[key] = found
            left[key] = further
        return found

    return text


def _record_keys(items: Sequence[Any]) -> list[str] | None:
    """The sorted keys of ``items`` when all are dicts with one non-empty set of str keys."""
    first = items[0]
    if type(first) is not dict or not first or not _KEY_TYPES.issuperset(map(type, first)):
        return None
    keys = first.keys()
    if set(map(type, items)) != {dict} or not all(map(keys.__eq__, map(dict.keys, items))):
        return None
    return sorted(keys)


def _record_pieces(items: Sequence[dict], keys: list[str], depth: int) -> Iterator[str]:
    """A list of records at ``depth``, a group of records at a time.

    Each record is one ``%``-template over its members' texts; the texts of
    one key come from a lazy column, the leaf encoder when the whole column
    is of one leaf type, else ``_shared_texts``, so that a container that
    recurs in the column is encoded once.  A group is sized from the last
    one at about a sixteenth of a batch, so that records that grow along the
    list overfill a batch by little.
    """
    inner = "\n" + "  " * (depth + 1)
    member = "\n" + "  " * (depth + 2)
    template = (
        "{"
        + ",".join(member + encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
        + inner
        + "}"
    )
    columns = []
    for key in keys:
        get = itemgetter(key)
        kinds = set(map(type, map(get, items)))
        encode = _LEAF_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if not encode:
            encode = _shared_texts(map(get, items), _value_encoder, depth + 2)
        columns.append(map(encode, map(get, items)))
    records = map(template.__mod__, zip(*columns))
    separator = "," + inner
    lead = "[" + inner
    count = 1
    while text := separator.join(islice(records, count)):
        yield lead
        yield text
        lead = separator
        count = max(1, count * _BATCH // (16 * len(text)))
    yield "\n" + "  " * depth + "]"


def relation_summary(rel: BinaryRelation, source: str) -> dict[str, Any]:
    return {"source": source, "u_size": rel.u_size, "v_size": rel.v_size}


def build_approx_report(
    rel: BinaryRelation, source: str, query: Subset, result: ApproxResult
) -> AnalysisReport:
    body = {
        "relation": relation_summary(rel, source),
        "set": list(query.labels()),
        "lower": list(result.lower.labels()),
        "upper": list(result.upper.labels()),
        "boundary": list(result.boundary.labels()),
        "type": {"code": int(result.rough_type), "label": result.rough_type.label},
    }
    return AnalysisReport("approx", body)


def _neighborhood_lists(
    masks: Sequence[int], classes: Sequence[list[int]], labels: Sequence[str]
) -> list[list[str]]:
    """The labels of each mask, one list per class of equal masks.

    Elements of one class share their list object.
    """
    out: list[list[str]] = [[]] * len(masks)
    for members in classes:
        shared = list(mask_members(masks[members[0]], labels))
        for i in members:
            out[i] = shared
    return out


def build_neighbors_report(rel: BinaryRelation, source: str) -> AnalysisReport:
    u_classes, v_classes = rel.quotient_classes()
    u_labels, v_labels = rel.universes.u_labels, rel.universes.v_labels
    right = _neighborhood_lists(rel.rows, u_classes, v_labels)
    left = _neighborhood_lists(rel.columns(), v_classes, u_labels)
    body = {
        "relation": relation_summary(rel, source),
        "serial": rel.is_serial(),
        "solitary": list(rel.solitary_set().labels()),
        "right_neighborhoods": dict(zip(u_labels, right)),
        "left_neighborhoods": dict(zip(v_labels, left)),
        "u_partition": [list(map(u_labels.__getitem__, members)) for members in u_classes],
        "v_partition": [list(map(v_labels.__getitem__, members)) for members in v_classes],
        "saturation_identity": rel.saturation_identity_holds(),
    }
    return AnalysisReport("neighbors", body)


def build_classify_report(
    rel: BinaryRelation, source: str, fa: FamilyApprox, laws: TheoremReport
) -> AnalysisReport:
    from .classify import HOLDS, VACUOUS, VIOLATED, UndefinedMeasureError

    blocks = []
    for name, block, lo, up in zip(
        fa.classification.names, fa.classification.blocks, fa.lowers, fa.uppers
    ):
        blocks.append(
            {
                "name": name,
                "members": list(block.labels()),
                "lower": list(lo.labels()),
                "upper": list(up.labels()),
            }
        )
    try:
        accuracy: dict[str, Any] | None = ratio_obj(fa.accuracy())
    except UndefinedMeasureError:
        accuracy = None
    quality = fa.quality()
    measures: dict[str, Any] = {
        "accuracy": accuracy,
        "quality_v": ratio_obj(quality.v_normalized),
        "quality_u": ratio_obj(quality.u_normalized),
        "definable": fa.is_definable(),
        "serial": rel.is_serial(),
    }
    tally = laws.tally()
    body = {
        "relation": relation_summary(rel, source),
        "blocks": blocks,
        "measures": measures,
        "laws": {
            "holds": tally[HOLDS],
            "vacuous": tally[VACUOUS],
            "violated": tally[VIOLATED],
            # An entry's blocks are its law instance's names, one tuple per
            # index set that all its entries share.
            "entries": [
                {
                    "law": e.law,
                    "blocks": e.blocks,
                    "hypothesis": e.hypothesis,
                    "conclusion": e.conclusion,
                    "verdict": e.verdict,
                }
                for e in laws.entries
            ],
        },
    }
    return AnalysisReport("classify", body)


def build_verify_report(
    scope: Mapping[str, Any],
    properties: PropertyReport,
    checks: Mapping[str, tuple[int, int]],
) -> AnalysisReport:
    """Assemble a law-campaign report; ``checks`` maps name -> (checked, failures).

    A law whose violations were not all kept is marked ``truncated``; its
    ``violations`` is the count of them all."""
    details = []
    for record in properties.records:
        for violation in record.violations:
            details.append(
                {
                    "law": violation.law,
                    "relation": violation.relation,
                    "subsets": list(violation.subsets),
                    "expected": violation.expected,
                    "got": violation.got,
                }
            )
    extra = {
        name: {"checked": checked, "failures": failures}
        for name, (checked, failures) in checks.items()
    }
    ok = properties.ok and all(f == 0 for _, f in checks.values())
    body = {
        "scope": dict(scope),
        "laws": [
            {
                "law": record.law,
                "instances": record.instances,
                "violations": record.violation_count,
                **({"truncated": True} if record.truncated else {}),
            }
            for record in properties.records
        ],
        "violation_details": details,
        "checks": extra,
        "pass": ok,
    }
    return AnalysisReport("verify", body)


def _witness_obj(witness: Witness) -> dict[str, Any]:
    return {
        "u": witness.relation.u_size,
        "v": witness.relation.v_size,
        "rows": list(witness.relation.bit_rows()),
        "left_set": list(witness.left_set.labels()),
        "right_set": list(witness.right_set.labels()),
    }


def build_tables_report(
    operation: str, scope: Mapping[str, Any], findings: Sequence[TableCellFinding]
) -> AnalysisReport:
    cells = []
    for finding in findings:
        cells.append(
            {
                "left": finding.left.short,
                "right": finding.right.short,
                "allowed": [t.short for t in sorted(finding.allowed)],
                "observed": [t.short for t in sorted(finding.observed)],
                "unrealized": [t.short for t in finding.unrealized],
                "conformant": finding.conformant,
                "witnesses": [
                    {"result": t.short, **_witness_obj(w)}
                    for t, w in sorted(finding.witnesses.items())
                ],
            }
        )
    body = {
        "operation": operation,
        "scope": dict(scope),
        "cells": cells,
        "conformant": all(finding.conformant for finding in findings),
    }
    return AnalysisReport("tables", body)


def build_witness_report(
    operation: str,
    left: RoughType,
    right: RoughType,
    result: RoughType,
    max_u: int,
    max_v: int,
    witness: Witness | None,
) -> AnalysisReport:
    body = {
        "operation": operation,
        "left": left.short,
        "right": right.short,
        "result": result.short,
        "bounds": {"max_u": max_u, "max_v": max_v},
        "found": witness is not None,
        "witness": _witness_obj(witness) if witness is not None else None,
    }
    return AnalysisReport("witness", body)


# --- text rendering ----------------------------------------------------------


def _set_text(labels: Sequence[str]) -> str:
    return "{" + ", ".join(labels) + "}"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _ratio_line(obj: Mapping[str, Any] | None) -> str:
    if obj is None:
        return "undefined (every block's upper approximation is empty)"
    return f"{obj['num']}/{obj['den']} ({obj['decimal']})"


def _relation_line(meta: Mapping[str, Any]) -> str:
    return f"relation: {meta['source']} (|U|={meta['u_size']}, |V|={meta['v_size']})"


def _render_approx(body: dict) -> Iterator[str]:
    t = body["type"]
    yield _relation_line(body["relation"])
    yield f"set: {_set_text(body['set'])}"
    yield f"lower: {_set_text(body['lower'])}"
    yield f"upper: {_set_text(body['upper'])}"
    yield f"boundary: {_set_text(body['boundary'])}"
    yield f"type: Type {t['code']} ({t['label']})"


def _render_neighbors(body: dict) -> Iterator[str]:
    yield _relation_line(body["relation"])
    yield f"serial: {_yesno(body['serial'])}"
    yield f"solitary: {_set_text(body['solitary'])}"
    yield "right neighborhoods:"
    for x, members in body["right_neighborhoods"].items():
        yield f"  {x}: {_set_text(members)}"
    yield "left neighborhoods:"
    for y, members in body["left_neighborhoods"].items():
        yield f"  {y}: {_set_text(members)}"
    yield "U quotient: " + " | ".join(_set_text(b) for b in body["u_partition"])
    yield "V quotient: " + " | ".join(_set_text(b) for b in body["v_partition"])
    yield "saturation identity: " + ("holds" if body["saturation_identity"] else "VIOLATED")


def _render_classify(body: dict) -> Iterator[str]:
    yield _relation_line(body["relation"])
    yield "blocks:"
    for block in body["blocks"]:
        yield f"  {block['name']} = {_set_text(block['members'])}"
        yield f"    lower: {_set_text(block['lower'])}"
        yield f"    upper: {_set_text(block['upper'])}"
    measures = body["measures"]
    yield f"accuracy: {_ratio_line(measures['accuracy'])}"
    yield f"quality (per |V|): {_ratio_line(measures['quality_v'])}"
    yield f"quality (per |U|): {_ratio_line(measures['quality_u'])}"
    yield f"definable: {_yesno(measures['definable'])}"
    yield f"serial: {_yesno(measures['serial'])}"
    laws = body["laws"]
    yield (
        f"laws: {laws['holds']} holds, {laws['vacuous']} vacuous, "
        f"{laws['violated']} violated"
    )
    for entry in laws["entries"]:
        scope = f" ({', '.join(entry['blocks'])})" if entry["blocks"] else " (all)"
        yield f"  {entry['verdict']:<9}{entry['law']}{scope}"


def _render_verify(body: dict) -> Iterator[str]:
    yield f"campaign: {body['scope']['description']}"
    yield f"{'law':<44}{'instances':>10}{'violations':>12}"
    for record in body["laws"]:
        mark = " (truncated)" if record.get("truncated") else ""
        yield f"{record['law']:<44}{record['instances']:>10}{record['violations']:>12}{mark}"
    for violation in body["violation_details"]:
        yield (
            f"VIOLATION {violation['law']} on {violation['relation']} "
            f"{' '.join(violation['subsets'])}: expected {violation['expected']}, "
            f"got {violation['got']}"
        )
    names = {
        "seriality_biconditional": "seriality biconditional",
        "saturation_identity": "saturation identity",
        "reconstruction_roundtrip": "reconstruction round-trip",
    }
    for key, check in body["checks"].items():
        label = names.get(key, key)
        yield f"{label}: {check['checked']} checked, {check['failures']} failures"
    yield "result: " + ("PASS" if body["pass"] else "FAIL")


def _render_tables(body: dict) -> Iterator[str]:
    yield f"{body['operation']} table conformance: {body['scope']['description']}"
    for cell in body["cells"]:
        status = "ok" if cell["conformant"] else "VIOLATION"
        yield (
            f"{cell['left']} + {cell['right']}: allowed {_set_text(cell['allowed'])}; "
            f"observed {_set_text(cell['observed'])}; {status}"
        )
        for witness in cell["witnesses"]:
            yield (
                f"  {witness['result']} via u={witness['u']} v={witness['v']} "
                f"rows={'|'.join(witness['rows'])} X={_set_text(witness['left_set'])} "
                f"Y={_set_text(witness['right_set'])}"
            )
        if cell["unrealized"]:
            yield f"  unrealized: {', '.join(cell['unrealized'])}"
    yield "result: " + ("CONFORMANT" if body["conformant"] else "VIOLATIONS FOUND")


def _render_witness(body: dict) -> Iterator[str]:
    bounds = body["bounds"]
    yield (
        f"witness search: {body['operation']} {body['left']} + {body['right']} "
        f"-> {body['result']} within u<={bounds['max_u']}, v<={bounds['max_v']}"
    )
    if body["found"]:
        witness = body["witness"]
        yield (
            f"found: u={witness['u']} v={witness['v']} rows={'|'.join(witness['rows'])} "
            f"X={_set_text(witness['left_set'])} Y={_set_text(witness['right_set'])}"
        )
    else:
        yield "not found within the search bounds"


_TEXT_RENDERERS = {
    "approx": _render_approx,
    "neighbors": _render_neighbors,
    "classify": _render_classify,
    "verify": _render_verify,
    "tables": _render_tables,
    "witness": _render_witness,
}
