"""Text inputs: relation files, classification files, and type-table transcriptions.

Relation files mirror a Boolean matrix: a ``V:`` header listing the column
labels, then one ``<label>: b1 b2 ...`` line per row, '#' starting a comment
line.  ``parse_relation_file`` reads one into a ``BinaryRelation`` and
``render_relation_file`` writes a relation back in the same layout.  The
parser reads that layout (single spaces, a newline after every line) in a
few whole-text passes, and any other layout line by line, to the same
relation or the same error.  Classification files hold one
``<name>: <labels...>`` block per line, and ``parse_tables_json`` reads the
JSON layout of ``--tables-file``.  Every parser raises ``ParseError`` with
the source, line and column of the first fault.
"""

from __future__ import annotations

import json
import re
from itertools import accumulate, repeat
from operator import add
from typing import Iterator

from .relation import (
    BinaryRelation,
    BiroughError,
    Side,
    Subset,
    UniversePair,
    digits_row,
    row_digits,
    valid_label,
)

__all__ = [
    "ParseError",
    "parse_relation_file",
    "render_relation_file",
    "parse_classification_file",
    "parse_tables_json",
]

_TOKEN_RE = re.compile(r"\S+")
_V_HEADER = "expected a 'V:' header line listing the V labels"


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
        raise ParseError(_V_HEADER, source, max(last_line, 1), 1)
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


def _line_head(
    line: str, source: str, line_no: int, message: str, name: str | None = None
) -> tuple[str, re.Match, list[re.Match]]:
    """A line that is not blank, as (name, head token, the tokens after it).

    The head must be a name (``name`` itself, when given) followed by ':';
    otherwise ParseError(``message``) at the head's column.
    """
    head, *tokens = _TOKEN_RE.finditer(line)
    text = head.group()
    if len(text) < 2 or not text.endswith(":") or name is not None and text[:-1] != name:
        raise ParseError(message, source, line_no, head.start() + 1)
    return text[:-1], head, tokens


def _parse_v_header(line: str, source: str, line_no: int) -> list[str]:
    _, head, tokens = _line_head(line, source, line_no, _V_HEADER, "V")
    v_labels: list[str] = []
    seen: set[str] = set()
    for match in tokens:
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
    label, head, cells = _line_head(line, source, line_no, "expected '<label>: <0/1 cells>'")
    if not valid_label(label):
        raise ParseError(f"bad U label {label!r}", source, line_no, head.start() + 1)
    if label in u_seen:
        raise ParseError(f"duplicate U label {label!r}", source, line_no, head.start() + 1)
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
    for line_no, line in enumerate(_lines(text), 1):
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        name, head, tokens = _line_head(line, source, line_no, "expected '<name>: <V labels...>'")
        if name in names:
            raise ParseError(
                f"duplicate block name {name!r}", source, line_no, head.start() + 1
            )
        bits = 0
        for match in tokens:
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
    codes, each a JSON integer 1..4.  ``lab.type_table`` builds each table,
    as it builds the built-in ones from the same layout.
    """
    from .lab import OPERATIONS, type_table

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
        for i, row in enumerate(grid, 1):
            for j, cell in enumerate(row, 1):
                # Exact ints only: JSON true and 1.0 compare equal to 1.
                if not isinstance(cell, list) or not cell or any(
                    type(c) is not int or not 1 <= c <= 4 for c in cell
                ):
                    raise ParseError(
                        f"{op}: cell ({i}, {j}) must be a non-empty list of codes 1..4",
                        source,
                    )
        out[op] = type_table(grid)
    return out
