"""Set-based reference implementations used as independent test oracles.

Everything here works on plain 0/1 matrices (lists of lists) and Python
index sets, never on the package's bitset layer, so agreement between the
two is meaningful.
"""

from __future__ import annotations

import json
from itertools import combinations


def matrix_of(rel) -> list[list[int]]:
    return [
        [rel.rows[i] >> j & 1 for j in range(rel.v_size)] for i in range(rel.u_size)
    ]


def right_sets(matrix: list[list[int]]) -> list[set[int]]:
    return [{j for j, cell in enumerate(row) if cell} for row in matrix]


def naive_right(matrix: list[list[int]], i: int) -> set[int]:
    return right_sets(matrix)[i]


def naive_left(matrix: list[list[int]], j: int) -> set[int]:
    return {i for i, row in enumerate(matrix) if row[j]}


def naive_solitary(matrix: list[list[int]]) -> set[int]:
    return {i for i, r in enumerate(right_sets(matrix)) if not r}


def naive_lower(matrix: list[list[int]], y: set[int]) -> set[int]:
    return {i for i, r in enumerate(right_sets(matrix)) if r <= y}


def naive_upper(matrix: list[list[int]], y: set[int]) -> set[int]:
    return {i for i, r in enumerate(right_sets(matrix)) if r & y}


def naive_lower_minmax(matrix: list[list[int]], y: set[int]) -> set[int]:
    # literal per-cell fold: min over columns of max(1 - R(x,y), Y(y))
    out = set()
    for i, row in enumerate(matrix):
        acc = 1
        for j, cell in enumerate(row):
            acc = min(acc, max(1 - cell, 1 if j in y else 0))
        if acc:
            out.add(i)
    return out


def naive_upper_minmax(matrix: list[list[int]], y: set[int]) -> set[int]:
    # literal per-cell fold: max over columns of min(R(x,y), Y(y))
    out = set()
    for i, row in enumerate(matrix):
        acc = 0
        for j, cell in enumerate(row):
            acc = max(acc, min(cell, 1 if j in y else 0))
        if acc:
            out.add(i)
    return out


def naive_type(matrix: list[list[int]], y: set[int]) -> int:
    lo = naive_lower(matrix, y)
    up = naive_upper(matrix, y)
    full = set(range(len(matrix)))
    return (1 if lo else 2) + (2 if up == full else 0)


def naive_saturation_holds(matrix: list[list[int]]) -> bool:
    nu = len(matrix)
    nv = len(matrix[0]) if matrix else 0
    pairs = {(i, j) for i in range(nu) for j in range(nv) if matrix[i][j]}
    rs = right_sets(matrix)
    ls = [naive_left(matrix, j) for j in range(nv)]
    eu = {(a, c) for cls in naive_classes(rs) for a in cls for c in cls}
    ev = {(a, c) for cls in naive_classes(ls) for a in cls for c in cls}
    # (x, y) with some (x, x') in E_U and (x', y) in R, i.e. y in r(x')
    r_after_eu = {(x, y) for (x, xp) in eu for y in rs[xp]}
    ev_after_r = {
        (x, yb) for (x, yp) in pairs for (ya, yb) in ev if ya == yp
    }
    return r_after_eu == pairs and ev_after_r == pairs


def naive_classes(sets: list[set[int]]) -> set[frozenset[int]]:
    """Indices grouped by equal sets."""
    groups: dict[frozenset[int], set[int]] = {}
    for i, s in enumerate(sets):
        groups.setdefault(frozenset(s), set()).add(i)
    return {frozenset(group) for group in groups.values()}


def naive_quotients(matrix: list[list[int]]) -> tuple[set[frozenset[int]], set[frozenset[int]]]:
    nv = len(matrix[0])
    return (
        naive_classes(right_sets(matrix)),
        naive_classes([naive_left(matrix, j) for j in range(nv)]),
    )


def naive_serial_iff(matrix: list[list[int]]) -> bool:
    """Some V-subset has equal lower and upper approximations iff every row
    is non-empty, trying every subset of V."""
    rs = right_sets(matrix)
    nv = len(matrix[0])
    exists = any(
        all((r <= y) == bool(r & y) for r in rs)
        for size in range(nv + 1)
        for y in map(set, combinations(range(nv), size))
    )
    return exists == all(rs)


def naive_law_campaign(matrix, lower, upper, singles, pairs):
    """The ten algebraic laws of ``lower``/``upper``, one subset or pair at a time.

    ``lower`` and ``upper`` map a V index set to a U index set; ``singles``
    and ``pairs`` are the V index sets and pairs a campaign examines, in its
    order.  Families are the cyclic windows of 3 and 4 consecutive singles.
    Returns the instance count of each law and, per law in examination order,
    the subsets of each failed equality or inclusion (so one pair can fail a
    law twice, once per operator).
    """
    us = set(range(len(matrix)))
    vs = set(range(len(matrix[0])))
    solitary = naive_solitary(matrix)
    rows_union = set().union(*right_sets(matrix))
    instances: dict[str, int] = {}
    failed: dict[str, list[tuple[frozenset[int], ...]]] = {}

    def check(law, subsets, *holds):
        instances[law] = instances.get(law, 0) + 1
        failed.setdefault(law, []).extend(
            tuple(frozenset(y) for y in subsets) for h in holds if not h
        )

    none: set[int] = set()
    instances["empty-and-full-values"] = 1
    failed["empty-and-full-values"] = [
        (frozenset(y),)
        for y, holds in (
            (none, lower(none) == solitary),
            (none, upper(none) == none),
            (vs, lower(vs) == us),
            (vs, upper(vs) == us - solitary),
        )
        if not holds
    ]
    for y in singles:
        lo, up = lower(y), upper(y)
        left_union = set().union(*(naive_left(matrix, j) for j in y))
        check("upper-is-union-of-left-neighborhoods", (y,), up == left_union)
        check("solitary-bounds", (y,), solitary <= lo and not up & solitary)
        check("lower-minus-solitary-within-upper", (y,), lo - solitary <= up)
        check(
            "full-lower-and-empty-upper-criteria",
            (y,),
            (lo == us) == (rows_union <= y),
            (up == none) == (not y & rows_union),
        )
        if solitary:
            check("solitary-forces-strict-gap", (y,), lo != up)
        # The complement within U is taken as a symmetric difference, so an
        # element outside U (a faulty operator's) stays in it and fails the law.
        check(
            "complement-duality",
            (y,),
            us ^ lo == upper(vs - y) and us ^ up == lower(vs - y),
        )
    for a, b in pairs:
        meet, join = a & b, a | b
        check(
            "meet-lower-join-upper-distributivity",
            (a, b),
            lower(meet) == lower(a) & lower(b),
            upper(join) == upper(a) | upper(b),
        )
        check(
            "monotonicity",
            (a, b),
            lower(meet) <= lower(a) <= lower(join) and upper(meet) <= upper(a) <= upper(join),
        )
        check(
            "join-lower-meet-upper-bounds",
            (a, b),
            lower(a) | lower(b) <= lower(join),
            upper(meet) <= upper(a) & upper(b),
        )
    n = len(singles)
    for size in (3, 4):
        for k in range(n if n >= size else 0):
            family = [singles[(k + d) % n] for d in range(size)]
            meet, join = set(vs), set()
            lowers, uppers = set(us), set()
            for y in family:
                meet &= y
                join |= y
                lowers &= lower(y)
                uppers |= upper(y)
            check(
                "meet-lower-join-upper-distributivity",
                family,
                lower(meet) == lowers,
                upper(join) == uppers,
            )
    return instances, failed


def naive_emit_json(obj) -> str:
    """A report's JSON bytes through the stdlib's own indenting encoder."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class NaiveParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(line, col, message)
        self.where = (line, col, message)


def _words(line: str) -> list[tuple[int, str]]:
    """(1-based column, token) of each whitespace-separated token, char by char."""
    out: list[tuple[int, str]] = []
    start = None
    for i, ch in enumerate(line + " "):
        if ch.isspace():
            if start is not None:
                out.append((start + 1, line[start:i]))
                start = None
        elif start is None:
            start = i
    return out


def naive_label_ok(token: str) -> bool:
    return token != "" and ":" not in token and not any(ch.isspace() for ch in token)


def naive_parse_relation(text: str) -> tuple[list[str], list[str], list[int]]:
    """The relation file format read cell by cell: (U labels, V labels, rows).

    Raises ``NaiveParseError`` with (line, column, message) at the first
    offending token, in the order the format's checks are specified.
    """
    v_labels = None
    u_labels: list[str] = []
    rows: list[int] = []
    lines = text.splitlines()
    for line_no, line in enumerate(lines, 1):
        words = _words(line)
        if not words or words[0][1][0] == "#":
            continue
        (head_col, head), cells = words[0], words[1:]
        if v_labels is None:
            if head != "V:":
                raise NaiveParseError(line_no, head_col, "expected a 'V:' header line listing the V labels")
            v_labels = []
            for col, token in cells:
                if not naive_label_ok(token):
                    raise NaiveParseError(line_no, col, f"bad V label {token!r}")
                if token in v_labels:
                    raise NaiveParseError(line_no, col, f"duplicate V label {token!r}")
                v_labels.append(token)
            if not v_labels:
                raise NaiveParseError(line_no, head_col + len(head), "the V header must list at least one label")
            continue
        if len(head) < 2 or head[-1] != ":":
            raise NaiveParseError(line_no, head_col, "expected '<label>: <0/1 cells>'")
        label = head[:-1]
        if not naive_label_ok(label):
            raise NaiveParseError(line_no, head_col, f"bad U label {label!r}")
        if label in u_labels:
            raise NaiveParseError(line_no, head_col, f"duplicate U label {label!r}")
        if len(cells) != len(v_labels):
            col = cells[-1][0] if cells else head_col + len(head)
            raise NaiveParseError(
                line_no, col, f"row for {label!r} has {len(cells)} cells, expected {len(v_labels)}"
            )
        row = 0
        for j, (col, cell) in enumerate(cells):
            if cell == "1":
                row += 2**j
            elif cell != "0":
                raise NaiveParseError(line_no, col, f"cell must be 0 or 1, got {cell!r}")
        u_labels.append(label)
        rows.append(row)
    last = max(len(lines), 1)
    if v_labels is None:
        raise NaiveParseError(last, 1, "expected a 'V:' header line listing the V labels")
    if not u_labels:
        raise NaiveParseError(last, 1, "no relation rows found")
    return u_labels, v_labels, rows
