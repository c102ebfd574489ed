"""Report assembly and deterministic serialization.

Reports are small JSON-able trees with a schema version, one builder per
command; ``emit_report`` renders them either as stable JSON (sorted keys) or
as a human-oriented text layout, and ``iter_report`` gives the same text in
pieces.  Identical inputs always serialize to identical bytes.  The text
inputs are read in ``parse``.
"""

from __future__ import annotations

import json
from collections import Counter
from bisect import bisect_right
from itertools import accumulate, chain, compress, islice, repeat
from operator import is_, itemgetter, length_hint
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from .approx import ApproxResult, RoughType
from .relation import BinaryRelation, Subset, mask_members, record

if TYPE_CHECKING:
    # Annotations only: a command loads classify, lab or campaign when it
    # uses them, and only classify makes a Fraction.
    from fractions import Fraction

    from .campaign import PropertyReport
    from .classify import FamilyApprox, TheoremReport
    from .lab import TableCellFinding, Witness

__all__ = [
    "SCHEMA_VERSION",
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
    batch = []
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
# one generator step per value.  This writer takes its Python steps per
# container, per group or run of members and per new member text, and its C
# steps per member and per label.  A container's members, or a list's
# records (dicts that share one set of keys), are joined a group at a time
# from the parts they zip: each one's lead, its key or its record's keys,
# and the texts of its members.  A run of lists of str is encoded by one
# check of all their labels and one join per list between quote-and-indent
# separators, a member text that recurs in its container is looked up by
# ``id``, a record column of one plain scalar type is mapped by its C
# encoder, and every other value is written by the stdlib encoder itself, so
# the bytes are those of ``json.dumps(obj, sort_keys=True, indent=2)``.

_STDLIB_JSON = json.JSONEncoder(sort_keys=True, indent=2)
# The plain scalars, by exact type (an IntEnum is not one), and their text.
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_LEAF_TYPES = frozenset(_LEAF_TEXT)
_KEY_TYPES = frozenset({str})
_LIST_TYPES = frozenset({list, tuple})


def _text(obj: Any, depth: int) -> str | None:
    """``obj`` as indented JSON at ``depth`` when it holds no container, else
    None: a list of plain scalars by ``_texts``, and any other value by the
    stdlib."""
    kind = type(obj)
    if kind in _LIST_TYPES:
        if not _LEAF_TYPES.issuperset(map(type, obj)):
            return None
        return _texts([obj], _stdlib_text, depth)[0]
    if kind is dict and _KEY_TYPES.issuperset(map(type, obj)):
        return _stdlib_text(obj, depth) if _LEAF_TYPES.issuperset(map(type, obj.values())) else None
    return _stdlib_text(obj, depth)


def _stdlib_text(obj: Any, depth: int) -> str:
    """A plain scalar's text, or else the stdlib's, whose lines are indented
    from depth 0: a JSON text holds no raw newline inside a string, so each
    newline starts an indented line.  (The stdlib's indenting encoder leaves
    a reference cycle per call for the collector.)"""
    leaf = _LEAF_TEXT.get(type(obj))
    return leaf(obj) if leaf else _STDLIB_JSON.encode(obj).replace("\n", "\n" + "  " * depth)


def _whole_text(obj: Any, depth: int) -> str:
    """``obj`` as indented JSON at ``depth``, in one string."""
    return _text(obj, depth) or "".join(_json_pieces(obj, depth))


def _texts(values: list, encode: Callable, depth: int) -> list[str | None]:
    """The text of each of ``values`` at ``depth``.

    When all are lists of str, each text is one join between separators: of
    the labels themselves when one check of all of them shows that none
    needs escaping, else of their escaped texts.  Otherwise each value is
    written by ``encode``.
    """
    try:
        labels = (
            "".join(chain.from_iterable(values)) if _LIST_TYPES.issuperset(map(type, values)) else None
        )
    except TypeError:  # a list holds a value other than a str
        labels = None
    if labels is None:
        return list(map(encode, values, repeat(depth)))
    plain = labels.isascii() and '"' not in labels and "\\" not in labels and labels.isprintable()
    quote = '"' * plain
    inner = "\n" + "  " * (depth + 1)
    joined = map(
        f"{quote},{inner}{quote}".join,
        values if plain else map(map, repeat(encode_basestring_ascii), values),
    )
    texts = map(f"[{inner}{quote}%s{quote}\n{'  ' * depth}]".__mod__, joined)
    # An empty list is "[]" whatever its route.
    return list(map({0: "[]"}.get, map(len, values), texts))


def _json_pieces(obj: Any, depth: int) -> Iterator[str]:
    """``obj`` as indented JSON at ``depth``, in pieces.

    A container that holds containers comes a group of members at a time,
    and a member of it that holds containers in pieces of its own; anything
    else comes in one piece.  A group is sized from the last one at about a
    sixteenth of a piece, so that members that grow along the container
    overfill a piece by little.
    """
    text = _text(obj, depth)
    if text is not None:
        yield text
        return
    get = obj.__getitem__
    keyed = type(obj) is dict
    items = sorted(obj) if keyed else range(len(obj))
    texts = chain.from_iterable(_shared_texts(items, get, _text, depth + 1))
    if keyed:
        parts = [map(encode_basestring_ascii, items), repeat(": "), texts]
    else:
        parts = _record_parts(obj, depth + 2) or [texts]
    inner = "\n" + "  " * (depth + 1)
    # Each member's parts: the text before it, then its key, a colon and its
    # text, or its record's keys and members' texts, or its text.
    members = zip(chain(("[{"[keyed] + inner,), repeat("," + inner)), *parts)
    start = 0
    count = 1
    while group := list(islice(members, count)):
        stop = start + len(group)
        if parts[-1] is texts and None in map(itemgetter(-1), group):
            for item, (*head, text) in zip(items[start:stop], group):
                yield "".join(head)
                yield from _json_pieces(get(item), depth + 1) if text is None else (text,)
        else:
            text = "".join(chain.from_iterable(group))
            del group  # its new texts go before the next group's are encoded
            yield text
            count = max(1, count * _BATCH // (16 * len(text)))
        start = stop
    yield "\n" + "  " * depth + "]}"[keyed]


# Characters of a kept text per further use of it.  A kept text saves one
# encoding at each further use and is held while its container is written,
# so a long text with few uses (the names of an index set recur once per law
# section) would hold a share of the report for little.
_KEPT_PER_USE = 256
# Labels in the values of one run of ``_shared_texts``, whose new texts are
# held together: about a sixteenth of a piece of text.
_RUN_LABELS = 256


def _shared_texts(items: Sequence, get: Callable, encode: Callable, depth: int) -> Iterator[list]:
    """The texts at ``depth`` (see ``_texts``) of the values ``get(item)`` of
    one container's ``items``, in order, a run at a time.

    A value that is one object several times over (such as the label list
    that equal rows share, or the names of one index set in every law entry
    over it) is encoded once per container and then looked up by ``id``, if
    its text has at most ``_KEPT_PER_USE`` characters per further use; a
    longer one is encoded again at each use.  A run holds at most a quarter
    as many values as ``_RUN_LABELS``, and ends where their labels (or other
    members) pass it, so that a run of long lists holds a few new texts.
    """
    # The further uses of each value that recurs.
    further = {key: uses - 1 for key, uses in Counter(map(id, map(get, items))).items() if uses > 1}
    kept = {}
    start = 0
    count = 1
    while start < len(items):
        values = list(map(get, items[start : start + count]))
        del values[max(1, bisect_right(list(accumulate(map(length_hint, values))), _RUN_LABELS)) :]
        found = list(map(kept.get, map(id, values)))
        if None in found:
            fresh = dict(compress(zip(map(id, values), values), map(is_, found, repeat(None))))
            texts = dict(zip(fresh, _texts(list(fresh.values()), encode, depth)))
            found = list(map(texts.get, map(id, values), found))
            for key, text in texts.items():
                if text and len(text) <= _KEPT_PER_USE * further.get(key, 0):
                    kept[key] = text
        start += len(values)
        yield found
        count = min(_RUN_LABELS // 4, 2 * len(values))


def _record_parts(items: Sequence, depth: int) -> list | None:
    """The parts of the records ``items`` after their leads, a column at a
    time, when all are dicts that share one non-empty set of str keys, else
    None: each key at ``depth`` before the texts of its members, and the
    closing brace.  A column of one plain scalar type is mapped by its
    encoder, and any other by ``_shared_texts``."""
    first = items[0]
    if (
        set(map(type, items)) != {dict}
        or not first
        or not _KEY_TYPES.issuperset(map(type, first))
        or set(map(len, items)) != {len(first)}
    ):
        return None
    indent = "\n" + "  " * depth
    parts = []
    try:
        for key in sorted(first):
            get = itemgetter(key)
            kinds = set(map(type, map(get, items)))
            leaf = len(kinds) == 1 and _LEAF_TEXT.get(kinds.pop())
            parts += (
                repeat(f"{',' if parts else '{'}{indent}{encode_basestring_ascii(key)}: "),
                map(leaf, map(get, items))
                if leaf
                else chain.from_iterable(_shared_texts(items, get, _whole_text, depth)),
            )
    except KeyError:  # dicts of one size that all hold the first one's keys share them
        return None
    return parts + [repeat(indent[:-2] + "}")]


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
    out = [[]] * len(masks)
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
    from .classify import UndefinedMeasureError

    blocks = [
        {
            "name": name,
            "members": list(block.labels()),
            "lower": list(lo.labels()),
            "upper": list(up.labels()),
        }
        for name, block, lo, up in zip(
            fa.classification.names, fa.classification.blocks, fa.lowers, fa.uppers
        )
    ]
    try:
        accuracy: dict[str, Any] | None = ratio_obj(fa.accuracy())
    except UndefinedMeasureError:
        accuracy = None
    quality = fa.quality()
    measures = {
        "accuracy": accuracy,
        "quality_v": ratio_obj(quality.v_normalized),
        "quality_u": ratio_obj(quality.u_normalized),
        "definable": fa.is_definable(),
        "serial": rel.is_serial(),
    }
    body = {
        "relation": relation_summary(rel, source),
        "blocks": blocks,
        "measures": measures,
        "laws": {
            # The count of each verdict, keyed by the verdict's name.
            **laws.tally(),
            # An entry's blocks are its law instance's names, one tuple per
            # index set that all its entries share.
            "entries": [
                {"law": law, "blocks": names, "hypothesis": h, "conclusion": c, "verdict": v}
                for law, names, h, c, v in zip(
                    laws.laws, laws.blocks, laws.hypotheses, laws.conclusions, laws.verdicts
                )
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
    details = [
        {
            "law": violation.law,
            "relation": violation.relation,
            "subsets": list(violation.subsets),
            "expected": violation.expected,
            "got": violation.got,
        }
        for record in properties.records
        for violation in record.violations
    ]
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
    cells = [
        {
            "left": finding.left.short,
            "right": finding.right.short,
            "allowed": [t.short for t in sorted(finding.allowed)],
            "observed": [t.short for t in sorted(finding.observed)],
            "unrealized": [t.short for t in finding.unrealized],
            "conformant": finding.conformant,
            "witnesses": [
                {"result": t.short, **_witness_obj(w)} for t, w in sorted(finding.witnesses.items())
            ],
        }
        for finding in findings
    ]
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
