"""Labeled universes, bitset subsets, partitions, and binary relations.

A relation links two finite universes U and V.  Rows are stored as machine
integers (bit j of row i says whether the i-th U element is related to the
j-th V element), so every set operation is a handful of word operations.

All values are immutable after construction and every operation is a pure
function; instances can be shared freely between threads.
"""

from __future__ import annotations

import re
import struct
import sys
from enum import Enum
from functools import reduce
from itertools import compress, repeat
from operator import or_
from typing import Iterable, Iterator, Sequence, TypeVar

__all__ = [
    "BiroughError",
    "UniverseError",
    "DimensionError",
    "UnknownLabelError",
    "SideMismatchError",
    "PartitionError",
    "Side",
    "UniversePair",
    "Subset",
    "Partition",
    "BinaryRelation",
    "SHIFT_WIDTH",
    "mask_members",
    "mask_of_flags",
    "mask_of_indices",
    "pack_lanes",
    "unpack_lanes",
    "subset_unions",
    "window_unions",
    "transpose",
    "row_digits",
    "digits_row",
    "valid_label",
    "record",
]


class BiroughError(Exception):
    """Base class for every error this package raises deliberately."""


class UniverseError(BiroughError, ValueError):
    """Universe labels are empty, duplicated, or malformed."""


class DimensionError(BiroughError, ValueError):
    """Rows or bit widths do not match the declared universe sizes."""


class UnknownLabelError(BiroughError, LookupError):
    """Lookup of a label that does not belong to the universe."""


class SideMismatchError(BiroughError, TypeError):
    """Operands live on different sides or over different universes."""


class PartitionError(BiroughError, ValueError):
    """Blocks are empty, overlapping, or do not cover the universe."""


_T = TypeVar("_T")


def _refuse_assign(self, name: str, value: object) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name: str) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls: type[_T]) -> type[_T]:
    """Make ``cls`` a frozen record of its own annotated fields, in order.

    It gives what ``dataclass(frozen=True)`` gives these classes, without
    loading ``dataclasses``: an ``__init__`` compiled for the fields, taking
    them positionally or by keyword and then calling ``__post_init__`` if the
    class has one; ``__eq__`` and ``__hash__`` over the field tuple; a
    ``Name(field=value, ...)`` repr unless the class defines its own; and
    ``FrozenInstanceError`` on assignment or deletion.  No defaults,
    inheritance or ordering.  Instances keep their ``__dict__``, so
    ``__post_init__`` can store through ``object.__setattr__`` and a method
    can cache a value in ``self.__dict__``.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))

    def fields(obj: str) -> str:
        return "".join(f"{obj}.{name}, " for name in names)

    # __init__ stores through object.__setattr__: writing to self.__dict__
    # would build a dict per instance and make every later attribute read
    # about 3x slower.
    source = (
        f"def __init__(self, {', '.join(names)}):\n"
        + "".join(f"    _setattr(self, {name!r}, {name})\n" for name in names)
        + ("    self.__post_init__()\n" if "__post_init__" in cls.__dict__ else "")
        + "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({fields('self')}) == ({fields('other')})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({fields('self')}))\n"
    )
    methods: dict = {}
    exec(source, {"_setattr": object.__setattr__}, methods)
    if "__repr__" not in cls.__dict__:

        def __repr__(self) -> str:
            shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
            return f"{type(self).__qualname__}({shown})"

        methods["__repr__"] = __repr__
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__ = _refuse_assign
    cls.__delattr__ = _refuse_delete
    return cls


_LABEL_RE = re.compile(r"^[^\s:]+\Z")


def valid_label(label: object) -> bool:
    """True for a non-empty token without whitespace or ':'."""
    return isinstance(label, str) and bool(_LABEL_RE.match(label))


# U-masks of up to this many bits are built one bit at a time by the
# per-V-mask kernels (approx.lower_bits/upper_bits).  Each step on a wider int
# costs time in proportion to its width, so wider masks go through one
# '0'/'1' digit string instead, in time linear in the width.  The campaigns
# read the operators through the packed tables, so the loops' callers are the
# reconstruction oracle and the seriality check's empty set (about 1,800 calls
# a pass of the benchmark's law campaign).  The loops add single bits where |
# would do the same: the interpreter has a fast path for int + but not for |.
SHIFT_WIDTH = 64

_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def row_digits(row: int, width: int) -> str:
    """``row`` as ``width`` '0'/'1' digits; character j is bit j."""
    return format(row, f"0{width}b")[::-1]


def digits_row(digits: str | bytes) -> int:
    """The int whose bit j is character j of a non-empty '0'/'1' string."""
    return int(digits[::-1], 2)


def mask_of_flags(flags: Iterable[int]) -> int:
    """The mask whose bit i is flag i, in time linear in the number of flags.

    Each flag is 0 or 1 (a bool will do), and there is at least one.
    """
    return digits_row(bytes(flags).translate(_FLAG_DIGITS))


def mask_of_indices(indices: Iterable[int], width: int) -> int:
    """The mask with bit i set for each i in ``indices``, all below ``width``.

    Linear in ``width`` / 8 plus the number of indices, so a few members of
    a wide universe cost far less than one flag per element would.
    """
    packed = bytearray((width + 7) >> 3)
    for i in indices:
        packed[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(packed, "little")


# The struct (and memoryview.cast) format of a lane of 1, 2, 4 or 8 bytes.
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def pack_lanes(values: Sequence[int], nbytes: int) -> int:
    """The int whose lane k, bits [8 * nbytes * k, 8 * nbytes * (k + 1)), is values[k].

    A value outside [0, 2**(8 * nbytes)) raises OverflowError.  Lanes of 1,
    2, 4 or 8 bytes take one ``struct.pack`` call, other widths an
    ``int.to_bytes`` call per value.
    """
    code = _LANE_FORMATS.get(nbytes)
    if code is None:
        packed = b"".join(map(int.to_bytes, values, repeat(nbytes), repeat("little")))
        return int.from_bytes(packed, "little")
    try:
        return int.from_bytes(struct.pack(f"<{len(values)}{code}", *values), "little")
    except struct.error as exc:
        raise OverflowError(str(exc)) from None


def unpack_lanes(packed: int, count: int, nbytes: int) -> list[int]:
    """The ``count`` lanes of ``nbytes`` (1, 2, 4 or 8) bytes of ``packed``, lane k as entry k.

    The inverse of ``pack_lanes`` at those widths.
    """
    raw = packed.to_bytes(count * nbytes, sys.byteorder)
    lanes = memoryview(raw).cast(_LANE_FORMATS[nbytes]).tolist()
    # Read big-endian, the lanes come out last first.
    return lanes if sys.byteorder == "little" else lanes[::-1]


def subset_unions(masks: Sequence[int]) -> list[int]:
    """The OR of ``masks[i]`` over the set bits i of y, as entry y, for every
    y below 2**len(masks).

    Built a mask at a time: the entries with that mask's bit are the entries
    below them ORed with the mask, so each entry costs one OR.
    """
    table = [0]
    for mask in masks:
        table += [entry | mask for entry in table]
    return table


def window_unions(masks: Sequence[int], selectors: Sequence[int]) -> list[int]:
    """``[subset_unions(masks)[s] for s in selectors]`` for selectors below
    2**len(masks), through one 256-entry table per 8 masks.

    Byte k of a selector picks among ``masks[8 * k : 8 * k + 8]``, so a union
    costs one lookup per window, and a window reads byte k of every selector
    in one batch.
    """
    nbytes = (len(masks) + 7) >> 3
    # Selectors of up to 8 bytes are packed in lanes of 1, 2, 4 or 8 bytes,
    # one struct call.
    lane = next((w for w in (1, 2, 4, 8) if w >= nbytes), nbytes)
    raw = pack_lanes(selectors, lane).to_bytes(len(selectors) * lane, "little")
    unions = [0] * len(selectors)
    for k in range(nbytes):
        window = map(subset_unions(masks[8 * k : 8 * k + 8]).__getitem__, raw[k::lane])
        unions = list(map(or_, unions, window) if k else window)
    return unions


def mask_members(mask: int, items: Sequence[_T]) -> Iterator[_T]:
    """The items at the set bits of ``mask``, in order, for a mask that fits
    ``len(items)`` bits.

    The package's one walk over a mask's set bits: one C pass over the width
    (digits, 0/1 flags, ``compress``), however many members.
    """
    flags = row_digits(mask, len(items)).encode("ascii").translate(_DIGIT_FLAGS)
    return compress(items, flags)


def transpose(masks: Sequence[int], width: int) -> tuple[int, ...]:
    """The transpose of the bit matrix whose row i is ``masks[i]``, each below
    2**width: entry j has bit i set when bit j of ``masks[i]`` is.
    """
    if not masks:
        return (0,) * width
    # Row i is the whole-byte lane at bits [i * step, (i + 1) * step) of one
    # int, so in its binary text (most significant digit first) bit j of the
    # rows, last row first, sits every step characters from step - 1 - j:
    # each column is one slice and one int(..., 2).
    lane = (width + 7) >> 3
    step = lane << 3
    text = format(pack_lanes(masks, lane), f"0{len(masks) * step}b")
    return tuple(int(text[step - 1 - j :: step], 2) for j in range(width))


def _equal_key_classes(keys: Iterable[int]) -> list[list[int]]:
    """Indices of equal keys, one list per distinct key, in order of first index."""
    members: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    return list(members.values())


class Side(Enum):
    """Which universe a value lives over."""

    U = "U"
    V = "V"

    def __str__(self) -> str:
        return self.value


def _checked_labels(labels: Iterable[str], side_name: str) -> tuple[str, ...]:
    out = tuple(labels)
    if not out:
        raise UniverseError(f"universe {side_name} must not be empty")
    # A few C passes over all the labels: plain non-empty strings, no
    # whitespace or ':' in any, none twice.  The loop below runs only when
    # they fail (or for a str subclass), to name the first bad label.
    if (
        set(map(type, out)) == {str}
        and all(out)
        and re.search(r"[\s:]", "".join(out)) is None
        and len(set(out)) == len(out)
    ):
        return out
    seen: set[str] = set()
    for label in out:
        if not valid_label(label):
            raise UniverseError(
                f"bad {side_name} label {label!r}: labels are non-empty tokens "
                "without whitespace or ':'"
            )
        if label in seen:
            raise UniverseError(f"duplicate {side_name} label {label!r}")
        seen.add(label)
    return out


@record
class UniversePair:
    """Two ordered, labeled finite universes U and V."""

    u_labels: tuple[str, ...]
    v_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "u_labels", _checked_labels(self.u_labels, "U"))
        object.__setattr__(self, "v_labels", _checked_labels(self.v_labels, "V"))

    @property
    def u_size(self) -> int:
        return len(self.u_labels)

    @property
    def v_size(self) -> int:
        return len(self.v_labels)

    def labels(self, side: Side) -> tuple[str, ...]:
        return self.u_labels if side is Side.U else self.v_labels

    def size(self, side: Side) -> int:
        return len(self.labels(side))

    def full_mask(self, side: Side) -> int:
        return (1 << self.size(side)) - 1

    def index(self, side: Side, key: str | int) -> int:
        """Resolve a label (or an already-dense index) to its index.

        A side's label index is built on its first label lookup: reports
        over a large U (``approx``, ``neighbors``) never look one up.
        """
        if isinstance(key, int):
            if 0 <= key < self.size(side):
                return key
            raise UnknownLabelError(f"index {key} out of range for universe {side}")
        name = "_u_index" if side is Side.U else "_v_index"
        table = self.__dict__.get(name)
        if table is None:
            labels = self.labels(side)
            table = self.__dict__[name] = dict(zip(labels, range(len(labels))))
        try:
            return table[key]
        except KeyError:
            raise UnknownLabelError(f"no {side} element named {key!r}") from None

    def subset(self, side: Side, members: Iterable[str | int] = ()) -> "Subset":
        bits = mask_of_indices((self.index(side, m) for m in members), self.size(side))
        return Subset(self, side, bits)

    def u_subset(self, members: Iterable[str | int] = ()) -> "Subset":
        return self.subset(Side.U, members)

    def v_subset(self, members: Iterable[str | int] = ()) -> "Subset":
        return self.subset(Side.V, members)

    def empty(self, side: Side) -> "Subset":
        return Subset(self, side, 0)

    def full(self, side: Side) -> "Subset":
        return Subset(self, side, self.full_mask(side))


@record
class Subset:
    """A subset of one side of a universe pair, stored as a bitset."""

    universes: UniversePair
    side: Side
    bits: int

    def __post_init__(self) -> None:
        full = self.universes.full_mask(self.side)
        if not 0 <= self.bits <= full:
            raise DimensionError(
                f"subset bits {self.bits:#x} exceed the {self.side} universe "
                f"width {self.universes.size(self.side)}"
            )

    def _joint(self, other: "Subset") -> None:
        if not isinstance(other, Subset):
            raise SideMismatchError(f"expected a Subset, got {type(other).__name__}")
        if other.side is not self.side or other.universes != self.universes:
            raise SideMismatchError(
                "set operations need both operands on the same side of the "
                "same universes"
            )

    def __or__(self, other: "Subset") -> "Subset":
        self._joint(other)
        return Subset(self.universes, self.side, self.bits | other.bits)

    def __and__(self, other: "Subset") -> "Subset":
        self._joint(other)
        return Subset(self.universes, self.side, self.bits & other.bits)

    def __sub__(self, other: "Subset") -> "Subset":
        self._joint(other)
        return Subset(self.universes, self.side, self.bits & ~other.bits)

    def __xor__(self, other: "Subset") -> "Subset":
        self._joint(other)
        return Subset(self.universes, self.side, self.bits ^ other.bits)

    def complement(self) -> "Subset":
        full = self.universes.full_mask(self.side)
        return Subset(self.universes, self.side, self.bits ^ full)

    def __le__(self, other: "Subset") -> bool:
        self._joint(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other: "Subset") -> bool:
        return self <= other and self.bits != other.bits

    def __contains__(self, member: str | int) -> bool:
        try:
            i = self.universes.index(self.side, member)
        except UnknownLabelError:
            return False
        return bool(self.bits >> i & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels())

    def labels(self) -> tuple[str, ...]:
        """Member labels in universe order."""
        return tuple(mask_members(self.bits, self.universes.labels(self.side)))

    def indices(self) -> tuple[int, ...]:
        return tuple(mask_members(self.bits, range(self.universes.size(self.side))))

    @property
    def is_full(self) -> bool:
        return self.bits == self.universes.full_mask(self.side)

    def __str__(self) -> str:
        return "{" + ", ".join(self.labels()) + "}"

    def __repr__(self) -> str:
        return f"Subset({self.side}: {self})"


@record
class Partition:
    """Pairwise-disjoint non-empty blocks covering one side of a universe pair.

    Blocks are kept in canonical order: sorted by their smallest member index.
    """

    universes: UniversePair
    side: Side
    blocks: tuple[Subset, ...]

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        if not blocks:
            raise PartitionError("a partition needs at least one block")
        union = 0
        for block in blocks:
            if (
                not isinstance(block, Subset)
                or block.side is not self.side
                or block.universes != self.universes
            ):
                raise SideMismatchError("partition blocks must match the partition's side and universes")
            if block.bits == 0:
                raise PartitionError("partition blocks must be non-empty")
            if union & block.bits:
                raise PartitionError("partition blocks must be pairwise disjoint")
            union |= block.bits
        if union != self.universes.full_mask(self.side):
            raise PartitionError("partition blocks must cover the whole universe")
        ordered = tuple(sorted(blocks, key=lambda b: b.bits & -b.bits))
        object.__setattr__(self, "blocks", ordered)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.blocks)

    def as_label_sets(self) -> tuple[tuple[str, ...], ...]:
        return tuple(block.labels() for block in self.blocks)

    def __str__(self) -> str:
        return " | ".join(str(block) for block in self.blocks)


@record
class BinaryRelation:
    """An immutable Boolean incidence structure between U and V.

    ``rows[i]`` is the bitset of V elements related to the i-th U element,
    i.e. its right neighborhood.
    """

    universes: UniversePair
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.universes.u_size:
            raise DimensionError(
                f"expected {self.universes.u_size} rows (one per U element), got {len(rows)}"
            )
        vmask = self.universes.full_mask(Side.V)
        # C-level passes; the loop runs only to name the first bad row.
        if not (
            all(map(isinstance, rows, repeat(int))) and min(rows) >= 0 and max(rows) <= vmask
        ):
            for i, row in enumerate(rows):
                if not isinstance(row, int) or not 0 <= row <= vmask:
                    raise DimensionError(
                        f"row for {self.universes.u_labels[i]!r} does not fit the "
                        f"V universe width {self.universes.v_size}"
                    )

    @classmethod
    def from_rows(
        cls, universes: UniversePair, rows: Iterable[Sequence[int]]
    ) -> "BinaryRelation":
        """Build a relation from 0/1 cell rows, one per U element."""
        rows = list(rows)
        if len(rows) != universes.u_size:
            raise DimensionError(
                f"expected {universes.u_size} rows (one per U element), got {len(rows)}"
            )
        v_size = universes.v_size
        masks = []
        for i, cells in enumerate(rows):
            cells = list(cells)
            label = universes.u_labels[i]
            if len(cells) != v_size:
                raise DimensionError(
                    f"row for {label!r} has {len(cells)} cells, expected {v_size}"
                )
            mask = 0
            for j, cell in enumerate(cells):
                if cell not in (0, 1):
                    raise DimensionError(
                        f"row for {label!r}: cell {j + 1} is {cell!r}, expected 0 or 1"
                    )
                mask |= cell << j
            masks.append(mask)
        return cls(universes, tuple(masks))

    @classmethod
    def from_pairs(
        cls, universes: UniversePair, pairs: Iterable[tuple[str | int, str | int]]
    ) -> "BinaryRelation":
        rows = [0] * universes.u_size
        for x, y in pairs:
            rows[universes.index(Side.U, x)] |= 1 << universes.index(Side.V, y)
        return cls(universes, tuple(rows))

    @property
    def u_size(self) -> int:
        return self.universes.u_size

    @property
    def v_size(self) -> int:
        return self.universes.v_size

    @property
    def umask(self) -> int:
        return self.universes.full_mask(Side.U)

    @property
    def vmask(self) -> int:
        return self.universes.full_mask(Side.V)

    def related(self, x: str | int, y: str | int) -> bool:
        i = self.universes.index(Side.U, x)
        j = self.universes.index(Side.V, y)
        return bool(self.rows[i] >> j & 1)

    def right_neighborhood(self, x: str | int) -> Subset:
        """The V elements related to ``x``."""
        i = self.universes.index(Side.U, x)
        return Subset(self.universes, Side.V, self.rows[i])

    def left_neighborhood(self, y: str | int) -> Subset:
        """The U elements related to ``y``."""
        j = self.universes.index(Side.V, y)
        return Subset(self.universes, Side.U, self.column_bits(j))

    def column_bits(self, j: int) -> int:
        """U-mask of the elements related to the j-th V element."""
        return self.columns()[j]

    def columns(self) -> tuple[int, ...]:
        """Every ``column_bits``; the matrix is transposed once per relation."""
        cols = self.__dict__.get("_columns")
        if cols is None:
            cols = self.__dict__["_columns"] = transpose(self.rows, self.v_size)
        return cols

    def solitary_set(self) -> Subset:
        """The U elements whose right neighborhood is empty."""
        bits = mask_of_flags([row == 0 for row in self.rows])
        return Subset(self.universes, Side.U, bits)

    def is_serial(self) -> bool:
        """True when every U element is related to something."""
        return all(row != 0 for row in self.rows)

    def quotient_classes(self) -> tuple[list[list[int]], list[list[int]]]:
        """Indices of the U elements with equal rows and of the V elements with
        equal columns, class by class in order of first member.

        The grouping is computed once per relation and the same lists are
        returned on every call, so callers must not modify them.
        """
        classes = self.__dict__.get("_quotient_classes")
        if classes is None:
            classes = _equal_key_classes(self.rows), _equal_key_classes(self.columns())
            self.__dict__["_quotient_classes"] = classes
        return classes

    def quotient_partitions(self) -> tuple[Partition, Partition]:
        """Partitions of U and V grouping elements with equal neighborhoods."""
        return tuple(
            Partition(
                self.universes,
                side,
                tuple(
                    Subset(self.universes, side, mask_of_indices(members, members[-1] + 1))
                    for members in classes
                ),
            )
            for side, classes in zip((Side.U, Side.V), self.quotient_classes())
        )

    def saturation_identity_holds(self) -> bool:
        """Check that composing with either quotient equivalence leaves R fixed.

        Conventions: composing on the U side relates (x, y) when some x' with
        r(x') = r(x) has (x', y) in R; composing on the V side relates (x, y)
        when some y' in r(x) has l(y') = l(y).  Both compositions are computed
        explicitly; a False return would indicate an implementation bug.
        """
        u_classes, v_classes = self.quotient_classes()
        cols = self.columns()
        class_mask = {cols[m[0]]: mask_of_indices(m, m[-1] + 1) for m in v_classes}
        class_of = [class_mask[col] for col in cols]

        # Both composites depend on x only through its U class, so each is
        # taken once per class and checked against the class's row.
        for members in u_classes:
            row = self.rows[members[0]]
            composed_u = 0
            for k in members:
                composed_u |= self.rows[k]
            composed_v = reduce(or_, mask_members(row, class_of), 0)
            if not composed_u == row == composed_v:
                return False
        return True

    def bit_rows(self) -> tuple[str, ...]:
        """Rows as '0'/'1' strings; character j of row i is R(x_i, y_j)."""
        v_size = self.v_size
        return tuple(row_digits(row, v_size) for row in self.rows)

    def __repr__(self) -> str:
        return f"BinaryRelation({self.u_size}x{self.v_size}, rows={'|'.join(self.bit_rows())})"
