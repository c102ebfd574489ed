"""Lower/upper approximation operators and the four-type rough classifier.

A V-side subset Y is approximated from the U side:

    lower(Y) = {x : r(x) is a subset of Y}
    upper(Y) = {x : r(x) meets Y}

The set form tests row bitsets directly.  For the lower operator a matrix
form evaluates the equivalent min/max expression over the 0/1 incidence
matrix, with the fold over {0,1} realized as word operations (min = AND,
max = OR), as a second, independent test.  The upper operator has no matrix
form of its own: the OR-fold of min(R, Y) is the set form's "the row meets
Y" test itself, so its independent route is the union of Y's columns.  The
routes must agree bit for bit; the verification lab and the test suite
cross-check them.

``lower_table`` and ``upper_table`` run the set form for many V-subsets at
once, each in one lane of a packed int, in one pass over the rows, however
few the V-subsets; the law campaign and the lab's seriality check read the
operators through them.
"""

from __future__ import annotations

from enum import IntEnum
from functools import reduce
from itertools import repeat
from operator import eq, or_
from typing import Sequence

from .relation import (
    SHIFT_WIDTH,
    BinaryRelation,
    Side,
    SideMismatchError,
    Subset,
    mask_members,
    mask_of_flags,
    pack_lanes,
    record,
    unpack_lanes,
)

__all__ = [
    "RoughType",
    "ApproxResult",
    "lower_approximation",
    "lower_approximation_matrix",
    "upper_approximation",
    "upper_approximation_from_columns",
    "boundary",
    "rough_type",
    "approximate",
    "lower_bits",
    "upper_bits",
    "lower_table",
    "upper_table",
    "lower_nonempty",
    "upper_covers",
    "type_code",
]


class RoughType(IntEnum):
    """The four-way taxonomy of a V-subset under a relation.

    The tag is decided by two independent bits: whether the lower
    approximation is empty, and whether the upper approximation covers U.
    """

    ROUGHLY_DEFINABLE = 1
    INTERNALLY_UNDEFINABLE = 2
    EXTERNALLY_UNDEFINABLE = 3
    TOTALLY_UNDEFINABLE = 4

    @property
    def label(self) -> str:
        return _TYPE_LABELS[self]

    @property
    def short(self) -> str:
        return f"Type {int(self)}"

    def describe(self) -> str:
        return f"{self.short} ({self.label})"

    @classmethod
    def from_flags(cls, lower_empty: bool, upper_full: bool) -> "RoughType":
        return cls(1 + int(lower_empty) + 2 * int(upper_full))

    @classmethod
    def parse(cls, text: str | int) -> "RoughType":
        """Accept 1..4, 'type3', 'Type 3', or an enum name."""
        if isinstance(text, int):
            return cls(text)
        t = text.strip().lower().replace(" ", "").replace("-", "").replace("_", "")
        if t.startswith("type"):
            t = t[4:]
        if t.isdigit():
            return cls(int(t))
        for member in cls:
            if member.name.lower().replace("_", "") == t:
                return member
        raise ValueError(f"not a rough type: {text!r}")


_TYPE_LABELS = {
    RoughType.ROUGHLY_DEFINABLE: "roughly definable",
    RoughType.INTERNALLY_UNDEFINABLE: "internally undefinable",
    RoughType.EXTERNALLY_UNDEFINABLE: "externally undefinable",
    RoughType.TOTALLY_UNDEFINABLE: "totally undefinable",
}


def lower_bits(rows: Sequence[int], y_bits: int) -> int:
    """U-mask of the lower approximation, by row containment."""
    if len(rows) > SHIFT_WIDTH:
        return mask_of_flags(map(eq, map(y_bits.__and__, rows), rows))
    out = 0
    bit = 1
    for row in rows:
        if row & y_bits == row:
            out += bit
        bit += bit
    return out


def upper_bits(rows: Sequence[int], y_bits: int) -> int:
    """U-mask of the upper approximation, by row intersection."""
    if len(rows) > SHIFT_WIDTH:
        return mask_of_flags(map(bool, map(y_bits.__and__, rows)))
    out = 0
    bit = 1
    for row in rows:
        if row & y_bits:
            out += bit
        bit += bit
    return out


def _ys_in_lanes(rows: Sequence[int], ys: Sequence[int]) -> tuple[int, int, int] | None:
    """``ys`` one per lane, for the tables: (packed, ones, lane bytes).

    A lane is the narrowest of 8, 16, 32 or 64 bits that holds a flag bit
    for each row and a guard bit above every V bit of the rows and of
    ``ys``; None when no lane is that wide.  ``ones`` has 1 in every lane.
    """
    top = 0
    for row in rows:
        top |= row
    for nbytes in (1, 2, 4, 8):
        bits = 8 * nbytes
        if bits < len(rows) or bits <= top.bit_length():
            continue
        # A V-mask too wide for the lane (or negative) fails to pack or
        # reaches its guard bit.
        try:
            lanes = pack_lanes(ys, nbytes)
        except OverflowError:
            continue
        ones = int.from_bytes((1).to_bytes(nbytes, "little") * len(ys), "little")
        if not lanes & ones << bits - 1:
            return lanes, ones, nbytes
    return None


def lower_table(rows: Sequence[int], ys: Sequence[int]) -> list[int]:
    """``[lower_bits(rows, y) for y in ys]``, every V-mask of ``ys`` at once.

    With |U| and the V bits under ``SHIFT_WIDTH`` each V-mask Y sits in one
    lane of a packed int S, and one pass over the rows tabulates them all:
    row i lies within Y when its lane of (S & row) ^ row is zero, and that
    lane's guard flag shifts down to bit i.  Otherwise ``lower_bits`` runs
    per V-mask.
    """
    lanes = _ys_in_lanes(rows, ys)
    if lanes is None:
        return list(map(lower_bits, repeat(rows), ys))
    packed, ones, nbytes = lanes
    top = 8 * nbytes - 1
    guard = ones << top
    out = 0
    for i, row in enumerate(rows):
        spread = row * ones
        out |= (guard - (packed & spread ^ spread) & guard) >> top - i
    return unpack_lanes(out, len(ys), nbytes)


def upper_table(rows: Sequence[int], ys: Sequence[int]) -> list[int]:
    """``[upper_bits(rows, y) for y in ys]``, every V-mask of ``ys`` at once.

    Packed as ``lower_table`` packs: row i meets Y when its lane of S & row
    is non-zero, which carries into the lane's guard bit.
    """
    lanes = _ys_in_lanes(rows, ys)
    if lanes is None:
        return list(map(upper_bits, repeat(rows), ys))
    packed, ones, nbytes = lanes
    top = 8 * nbytes - 1
    guard = ones << top
    below = guard - ones
    out = 0
    for i, row in enumerate(rows):
        out |= ((packed & row * ones) + below & guard) >> top - i
    return unpack_lanes(out, len(ys), nbytes)


def lower_nonempty(rows: Sequence[int], y_bits: int) -> bool:
    """Whether the lower approximation is non-empty: some row lies within Y.

    The scan stops at the first such row.
    """
    return any(map(eq, map(y_bits.__and__, rows), rows))


def upper_covers(rows: Sequence[int], y_bits: int) -> bool:
    """Whether the upper approximation covers U: every row meets Y.

    The scan stops at the first row that misses Y.
    """
    return all(map(y_bits.__and__, rows))


def _lower_bits_matrix(rows: Sequence[int], vmask: int, y_bits: int) -> int:
    # min over columns of max(1 - R(x, y), Y(y)); the AND-fold over a 0/1
    # word is "all bits set".
    return mask_of_flags(map(vmask.__eq__, map(y_bits.__or__, map(vmask.__xor__, rows))))


def type_code(rows: Sequence[int], y_bits: int) -> int:
    """Rough type as a bare 1..4 code; the hot path used by sweep campaigns.

    Only two facts matter: whether some row lies within Y (the lower
    approximation is non-empty) and whether every row meets Y (the upper
    approximation covers U), so no mask is built and the scan stops as soon
    as both are settled.
    """
    lower_empty = upper_full = True
    for row in rows:
        hit = row & y_bits
        if hit == row:
            lower_empty = False
            if not upper_full:
                break
        if not hit:
            upper_full = False
            if not lower_empty:
                break
    return (2 if lower_empty else 1) + (2 if upper_full else 0)


def _require_v_subset(rel: BinaryRelation, y: Subset) -> None:
    if not isinstance(y, Subset):
        raise SideMismatchError(f"expected a Subset, got {type(y).__name__}")
    if y.side is not Side.V or y.universes != rel.universes:
        raise SideMismatchError(
            "approximation takes a V-side subset over the relation's universes"
        )


def lower_approximation(rel: BinaryRelation, y: Subset) -> Subset:
    """Set-form lower approximation of a V-subset.

    Solitary elements always belong: an empty neighborhood is contained in
    every Y.
    """
    _require_v_subset(rel, y)
    return Subset(rel.universes, Side.U, lower_bits(rel.rows, y.bits))


def lower_approximation_matrix(rel: BinaryRelation, y: Subset) -> Subset:
    """Matrix-form lower approximation; must agree with the set form."""
    _require_v_subset(rel, y)
    return Subset(rel.universes, Side.U, _lower_bits_matrix(rel.rows, rel.vmask, y.bits))


def upper_approximation(rel: BinaryRelation, y: Subset) -> Subset:
    """Set-form upper approximation of a V-subset."""
    _require_v_subset(rel, y)
    return Subset(rel.universes, Side.U, upper_bits(rel.rows, y.bits))


def upper_approximation_from_columns(rel: BinaryRelation, y: Subset) -> Subset:
    """Upper approximation as the union of left neighborhoods of Y's members."""
    _require_v_subset(rel, y)
    bits = reduce(or_, mask_members(y.bits, rel.columns()), 0)
    return Subset(rel.universes, Side.U, bits)


def boundary(rel: BinaryRelation, y: Subset) -> Subset:
    """Upper minus lower approximation."""
    return upper_approximation(rel, y) - lower_approximation(rel, y)


def rough_type(rel: BinaryRelation, y: Subset) -> RoughType:
    """Classify Y by lower emptiness and upper coverage of U."""
    _require_v_subset(rel, y)
    return RoughType(type_code(rel.rows, y.bits))


@record
class ApproxResult:
    """Lower, upper, and boundary approximations plus the rough type."""

    lower: Subset
    upper: Subset
    boundary: Subset
    rough_type: RoughType


def approximate(rel: BinaryRelation, y: Subset) -> ApproxResult:
    """Compute all approximation facets of a V-subset in one call."""
    lo = lower_approximation(rel, y)
    up = upper_approximation(rel, y)
    return ApproxResult(
        lower=lo,
        upper=up,
        boundary=up - lo,
        rough_type=RoughType.from_flags(lo.bits == 0, up.bits == rel.umask),
    )
