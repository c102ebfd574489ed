"""Verification lab: relation generators, the seriality check, and the type-table sweeps.

Relations come from every relation of small dimensions
(``generate_relations``) or from seeded random streams.  Randomness comes
from string-keyed seeds, so a stream is reproducible regardless of
consumption order, and the relation, subset, and dimension streams never
share state.  Relations and dimensions are derived per item, and the
V-subsets a sampled law campaign (``campaign``) checks at are one draw of
``random_subset_bits``, keyed by its seed and |V|.  The seriality check tries
the empty set through ``lower_bits``/``upper_bits``, then reads the other
subsets through ``lower_table``/``upper_table`` a fixed chunk at a time.  The
type-table sweeps and the witness search walk each distinct (|V|, row set)
once (``_row_set_relations``) through one subset-pair sweep
(``_first_witnesses``).  Every exhaustive check, the law campaign's
included, is refused before any work by one rule, ``pair_work``: relations
walked * (4**|V| + ``RELATION_PAIRS``) at most ``EXHAUSTIVE_PAIR_CAP``.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, product, repeat
from math import comb
from operator import eq
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .approx import RoughType, lower_bits, lower_table, type_code, upper_bits, upper_table
from .relation import (
    SHIFT_WIDTH,
    BinaryRelation,
    BiroughError,
    Side,
    SideMismatchError,
    Subset,
    UniversePair,
    record,
    transpose,
)

__all__ = [
    "EXHAUSTIVE_PAIR_CAP",
    "SERIAL_ENUM_CAP",
    "ConfigError",
    "BudgetError",
    "pair_work",
    "canonical_universes",
    "generate_relations",
    "random_relation",
    "random_subset_bits",
    "random_campaign",
    "verify_serial_iff",
    "reconstruct_relation",
    "OPERATIONS",
    "UNION_TABLE",
    "INTERSECTION_TABLE",
    "type_table",
    "table_for",
    "allowed_result_types",
    "ambiguous_cells",
    "Witness",
    "TableCellFinding",
    "check_relation_against_tables",
    "witness_inventory",
    "find_type_witness",
]

# Most subset pairs' work an exhaustive check may do: the relations it walks,
# each costing 4**|V| subset pairs plus RELATION_PAIRS (see pair_work).
EXHAUSTIVE_PAIR_CAP = 2**26
# The fixed cost of one relation, in subset pairs' worth of time.  Set when a
# pair cost about 1 us and a relation 150-200 us, and kept with the cap so the
# same sizes are refused.  The cap now bounds the pair-by-pair walk of a
# relation whose tables fail the law campaign's identities, and the type
# table sweeps, where a pair costs about 0.1 us at 40x9.
RELATION_PAIRS = 256
# Most bits of one packed int that the table kernels build for a chunk of
# the seriality check or a block of a sampled law campaign's drawn pairs:
# their lanes are at most SHIFT_WIDTH bits, one per V-mask.
LANE_BLOCK_BITS = 2**18
# Largest |V| at which the seriality biconditional scans the whole power set.
SERIAL_ENUM_CAP = 20


class ConfigError(BiroughError, ValueError):
    """A generator or budget configuration is malformed."""


class BudgetError(BiroughError, ValueError):
    """A requested enumeration exceeds the exhaustive work bound."""


def pair_work(spent: int, relations: int, v_size: int, what: str) -> int:
    """``spent`` plus the work of walking ``relations`` relations with |V| = v_size.

    The one bound of every exhaustive check: relations walked * (4**|V| +
    ``RELATION_PAIRS``), summed over the check, at most ``EXHAUSTIVE_PAIR_CAP``.
    Raises BudgetError naming ``what`` at the first charge past the cap.
    """
    # From the cap's bit length on, 4**v alone is over the cap: clamping there
    # keeps a huge |V| from building a giant int.
    width = min(v_size, EXHAUSTIVE_PAIR_CAP.bit_length())
    work = spent + relations * ((1 << 2 * width) + RELATION_PAIRS)
    if work > EXHAUSTIVE_PAIR_CAP:
        raise BudgetError(
            f"{what} needs at least {work} subset pairs' work, "
            f"over the cap of {EXHAUSTIVE_PAIR_CAP}"
        )
    return work


@lru_cache(maxsize=None)
def canonical_universes(u_size: int, v_size: int) -> UniversePair:
    """The x1..xn / y1..ym universe pair used for generated relations."""
    return UniversePair(
        tuple(f"x{i + 1}" for i in range(u_size)),
        tuple(f"y{j + 1}" for j in range(v_size)),
    )


def _stream_rng(seed: int, kind: str, index: int) -> random.Random:
    # String seeding keeps the derivation stable across runs and keeps the
    # relation/subset/dims streams independent of each other.
    return random.Random(f"{seed}:{kind}:{index}")


def random_relation(
    u_size: int, v_size: int, density: float, seed: int, index: int
) -> BinaryRelation:
    """The index-th relation of the (seed, density) stream at fixed dimensions."""
    rng = _stream_rng(seed, "relation", index)
    rows = []
    for _ in range(u_size):
        mask = 0
        for j in range(v_size):
            if rng.random() < density:
                mask |= 1 << j
        rows.append(mask)
    return BinaryRelation(canonical_universes(u_size, v_size), tuple(rows))


def generate_relations(u_size: int, v_size: int) -> Iterator[BinaryRelation]:
    """Every u_size x v_size relation, for an exhaustive law campaign.

    Relation k sets cell (i, j) when bit i*v+j of k is set (row-major bit
    order).  The bounds are checked at the call, before the first relation:
    sizes at least 1, and the 2**(u*v) relations within the exhaustive work
    bound (``pair_work``).
    """
    if u_size < 1 or v_size < 1:
        raise ConfigError("universe sizes must be at least 1")
    cells = u_size * v_size
    # 2**27 relations are over the cap at any |V|: clamping there keeps a huge
    # size from building a giant int.
    relations = 1 << min(cells, EXHAUSTIVE_PAIR_CAP.bit_length())
    pair_work(0, relations, v_size, f"an exhaustive law campaign over {u_size}x{v_size}")
    universes = canonical_universes(u_size, v_size)
    vmask = (1 << v_size) - 1
    return (
        BinaryRelation(universes, tuple(code >> i * v_size & vmask for i in range(u_size)))
        for code in range(1 << cells)
    )


def random_subset_bits(v_size: int, seed: int, count: int) -> list[int]:
    """The first ``count`` V-subsets of the seeded subset stream for |V| = v_size.

    Each draw is uniform on [0, 2**v_size).  The stream is seeded once per
    call, so a shorter draw is a prefix of a longer one.
    """
    rng = _stream_rng(seed, "subset", v_size)
    return list(map(rng.getrandbits, repeat(v_size, count)))


def random_campaign(
    count: int,
    *,
    max_u: int,
    max_v: int,
    density: float = 0.5,
    seed: int = 0,
    min_u: int = 1,
    min_v: int = 1,
) -> Iterator[BinaryRelation]:
    """Seeded random relations with dimensions drawn up to the given bounds."""
    for k in range(count):
        dims = _stream_rng(seed, "dims", k)
        u = dims.randint(min_u, max_u)
        v = dims.randint(min_v, max_v)
        yield random_relation(u, v, density, seed, k)


def verify_serial_iff(rel: BinaryRelation) -> bool:
    """Check: some V-subset has equal approximations iff the relation is serial.

    Up to ``SERIAL_ENUM_CAP`` V elements every subset is tried.  Above it the
    check tries the empty set, V, every singleton and every singleton's
    complement; Y = V is the constructive witness, since lower(V) = U and
    upper(V) = U iff the relation is serial.  The empty set, itself the
    witness of any serial relation (lower(empty) is the solitary set), is
    tried first, through ``lower_bits``/``upper_bits``; the other subsets
    are then tabulated in order, ``LANE_BLOCK_BITS // SHIFT_WIDTH`` at a
    time, and the search stops at the first chunk with a subset whose
    approximations are equal.
    """
    rows = rel.rows
    if rel.v_size <= SERIAL_ENUM_CAP:
        subsets: Sequence[int] = range(1, 1 << rel.v_size)
    else:
        vmask = rel.vmask
        singletons = [1 << j for j in range(rel.v_size)]
        subsets = [vmask, *singletons, *(vmask ^ s for s in singletons)]
    exists = lower_bits(rows, 0) == upper_bits(rows, 0)
    # A table's lanes are at most SHIFT_WIDTH bits, so a chunk's packed int
    # stays within LANE_BLOCK_BITS.
    start, step = 0, LANE_BLOCK_BITS // SHIFT_WIDTH
    while not exists and start < len(subsets):
        chunk = subsets[start : start + step]
        exists = any(map(eq, lower_table(rows, chunk), upper_table(rows, chunk)))
        start += step
    return exists == rel.is_serial()


def reconstruct_relation(
    upper_of_singleton: Callable[[Subset], Subset], universes: UniversePair
) -> BinaryRelation:
    """Rebuild the unique relation whose singleton uppers match the oracle.

    Feeding back a relation's own singleton upper approximations reproduces
    it exactly, which is the uniqueness content of the approximation
    operators determining the relation.
    """
    columns = []
    for j in range(universes.v_size):
        image = upper_of_singleton(Subset(universes, Side.V, 1 << j))
        if (
            not isinstance(image, Subset)
            or image.side is not Side.U
            or image.universes != universes
        ):
            raise SideMismatchError(
                "the oracle must return U-side subsets over the same universes"
            )
        columns.append(image.bits)
    return BinaryRelation(universes, transpose(columns, universes.u_size))


# --- type tables -------------------------------------------------------------


def type_table(
    grid: Sequence[Sequence[Iterable[int]]],
) -> dict[tuple[RoughType, RoughType], frozenset[RoughType]]:
    """The type table of a 4x4 grid of result codes, the ``--tables-file``
    layout: row a - 1 is left type a, column b - 1 right type b, and each cell
    lists the types the operation's result may take.
    """
    return {
        (RoughType(a), RoughType(b)): frozenset(map(RoughType, cell))
        for a, row in enumerate(grid, 1)
        for b, cell in enumerate(row, 1)
    }


UNION_TABLE = type_table(
    [
        [[1, 3], [1, 3], [3], [3]],
        [[1, 3], [1, 2, 3, 4], [3], [3, 4]],
        [[3], [3], [3], [3]],
        [[3], [3, 4], [3], [3, 4]],
    ]
)

INTERSECTION_TABLE = type_table(
    [
        [[1, 2], [2], [1, 2], [2]],
        [[2], [2], [2], [2]],
        [[1, 2], [2], [1, 2, 3, 4], [2, 4]],
        [[2], [2], [2, 4], [2, 4]],
    ]
)

_TABLES = {"union": UNION_TABLE, "intersection": INTERSECTION_TABLE}
OPERATIONS = tuple(_TABLES)


def table_for(operation: str) -> Mapping[tuple[RoughType, RoughType], frozenset[RoughType]]:
    try:
        return _TABLES[operation]
    except KeyError:
        raise ConfigError(f"unknown set operation {operation!r}") from None


def allowed_result_types(
    operation: str, left: RoughType, right: RoughType
) -> frozenset[RoughType]:
    return table_for(operation)[(left, right)]


def ambiguous_cells(operation: str) -> tuple[tuple[RoughType, RoughType], ...]:
    table = table_for(operation)
    return tuple(sorted(cell for cell, allowed in table.items() if len(allowed) > 1))


@record
class Witness:
    """A relation and subset pair realizing one table-cell outcome."""

    relation: BinaryRelation
    left_set: Subset
    right_set: Subset


@record
class TableCellFinding:
    """Observed versus allowed result types for one (left, right) cell."""

    operation: str
    left: RoughType
    right: RoughType
    allowed: frozenset[RoughType]
    witnesses: Mapping[RoughType, Witness]

    @property
    def observed(self) -> frozenset[RoughType]:
        return frozenset(self.witnesses)

    @property
    def conformant(self) -> bool:
        return self.observed <= self.allowed

    @property
    def unrealized(self) -> tuple[RoughType, ...]:
        return tuple(sorted(self.allowed - self.observed))


def _is_union(operation: str) -> bool:
    return table_for(operation) is UNION_TABLE


def _outcome_key(left: int, right: int, result: int) -> int:
    return (left * 10 + right) * 10 + result


def _sweep_blocks(max_u: int, max_v: int) -> list[tuple[int, int]]:
    """The (u, v) blocks up to ``max_u`` x ``max_v``, row-major, that hold a row set.

    Block (u, v) holds the C(2**v, u) sets of u distinct rows of width v, so
    none past u = 2**v.  Each block's row sets are charged to ``pair_work``
    in turn, before any work, so the first block past the bound raises and
    a huge bound is refused as fast as a small one.
    """
    what = f"an exhaustive pair sweep up to {max_u}x{max_v}"
    blocks = []
    work = 0
    for u in range(1, max_u + 1):
        least_v = (u - 1).bit_length()  # the least v with u <= 2**v
        if least_v > max_v:
            break
        for v in range(max(least_v, 1), max_v + 1):
            work = pair_work(work, comb(1 << v, u), v, what)
            blocks.append((u, v))
    return blocks


def _row_set_relations(blocks: Iterable[tuple[int, int]]) -> Iterator[BinaryRelation]:
    """Every (|V|, row set) of the blocks once, as its first relation in sweep order.

    A rough type depends only on |V| and the set of rows.  In the sweep over
    every relation (dimensions row-major, relation k setting cell (i, j) when
    bit i*v+j of k is set), the keys new at (u, v) are exactly the row sets of
    u distinct rows.  They first appear in ``combinations`` order, each in the
    relation whose rows are the combination reversed.
    """
    for u, v in blocks:
        universes = canonical_universes(u, v)
        for combo in combinations(range(1 << v), u):
            yield BinaryRelation(universes, combo[::-1])


def _first_witnesses(
    relations: Iterable[BinaryRelation], union: bool
) -> Iterator[tuple[int, Witness]]:
    """The one subset-pair sweep behind the type tables.

    Types each relation's 2**|V| subsets once, then yields each (left, right,
    result) outcome over every subset pair, keyed as ``_outcome_key`` computes
    it (inlined below, as it runs once per pair), with its first witness in
    relation and pair order.
    """
    seen: set[int] = set()
    for rel in relations:
        subsets = range(1 << rel.v_size)
        codes = [type_code(rel.rows, s) for s in subsets]
        for a, b in product(subsets, repeat=2):
            key = (codes[a] * 10 + codes[b]) * 10 + codes[a | b if union else a & b]
            if key not in seen:
                seen.add(key)
                universes = rel.universes
                yield key, Witness(
                    rel, Subset(universes, Side.V, a), Subset(universes, Side.V, b)
                )


def _findings(
    operation: str,
    tables: Mapping[tuple[RoughType, RoughType], frozenset[RoughType]] | None,
    first: Iterable[tuple[int, Witness]],
) -> list[TableCellFinding]:
    table = tables if tables is not None else table_for(operation)
    found = dict(first)
    out = []
    for ta, tb in product(RoughType, repeat=2):
        witnesses = {
            tr: found[key]
            for tr in RoughType
            if (key := _outcome_key(ta, tb, tr)) in found
        }
        out.append(TableCellFinding(operation, ta, tb, table[(ta, tb)], witnesses))
    return out


def check_relation_against_tables(
    rel: BinaryRelation,
    operation: str,
    *,
    tables: Mapping[tuple[RoughType, RoughType], frozenset[RoughType]] | None = None,
) -> list[TableCellFinding]:
    """Exhaustive subset-pair conformance check for a single relation."""
    union = _is_union(operation)
    pair_work(0, 1, rel.v_size, f"an exhaustive pair sweep at |V| = {rel.v_size}")
    return _findings(operation, tables, _first_witnesses([rel], union))


def witness_inventory(
    operation: str,
    max_u: int,
    max_v: int,
    *,
    tables: Mapping[tuple[RoughType, RoughType], frozenset[RoughType]] | None = None,
) -> list[TableCellFinding]:
    """One exhaustive sweep over all dimensions up to the bounds.

    Reports, per cell, which allowed alternatives were realized and keeps the
    first witness per realized outcome under the canonical generation order
    (dimensions row-major, row sets in first-appearance order, subset pairs in
    numeric order).  An unrealized alternative at the bound is a finding, not a
    failure.
    """
    union = _is_union(operation)
    relations = _row_set_relations(_sweep_blocks(max_u, max_v))
    return _findings(operation, tables, _first_witnesses(relations, union))


def find_type_witness(
    operation: str,
    left: RoughType,
    right: RoughType,
    result: RoughType,
    *,
    max_u: int,
    max_v: int,
) -> Witness | None:
    """First (relation, X, Y) realizing the requested cell outcome, or None.

    The search may be asked for outcomes outside the transcribed tables; it
    then simply exhausts the bound and reports not-found.
    """
    union = _is_union(operation)
    want = _outcome_key(left, right, result)
    relations = _row_set_relations(_sweep_blocks(max_u, max_v))
    first = _first_witnesses(relations, union)
    return next((witness for key, witness in first if key == want), None)
