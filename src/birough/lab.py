"""Verification engine: law campaigns, small-model sweeps, and witness search.

Law campaigns run over every relation of small dimensions
(``generate_relations``) or over seeded random streams.  Randomness comes from
string-keyed seeds, so a stream is reproducible regardless of consumption
order, and the relation, subset, and dimension streams never share state.
Relations and dimensions are derived per item; a sampled law campaign draws
all of one relation's V-subsets from one stream keyed by its seed and |V|.
The type-table sweeps and the witness search walk each distinct (|V|, row
set) once (``_row_set_relations``) through one subset-pair sweep
(``_first_witnesses``).  Every exhaustive check is refused before any work
by one rule, ``_pair_work``: relations walked * (4**|V| + ``RELATION_PAIRS``)
at most ``EXHAUSTIVE_PAIR_CAP``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product, repeat
from math import comb
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .approx import OperatorMemo, RoughType, lower_bits, type_code, upper_bits
from .relation import (
    BinaryRelation,
    BiroughError,
    Side,
    SideMismatchError,
    Subset,
    UniversePair,
    iter_bits,
)

__all__ = [
    "EXHAUSTIVE_PAIR_CAP",
    "SERIAL_ENUM_CAP",
    "ConfigError",
    "BudgetError",
    "canonical_universes",
    "generate_relations",
    "random_relation",
    "random_subset_bits",
    "random_campaign",
    "ALGEBRAIC_LAWS",
    "Violation",
    "LawRecord",
    "PropertyReport",
    "verify_algebraic_properties",
    "merge_property_reports",
    "verify_serial_iff",
    "reconstruct_relation",
    "OPERATIONS",
    "UNION_TABLE",
    "INTERSECTION_TABLE",
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
# each costing 4**|V| subset pairs plus RELATION_PAIRS (see _pair_work).
EXHAUSTIVE_PAIR_CAP = 2**26
# The fixed cost of one relation, in subset pairs' worth of time.  Set when a
# pair cost about 1 us and a relation 150-200 us, and kept with the cap so the
# same sizes are refused.  A pair now costs about 0.05-0.09 us in the packed
# law check at 40x9 (_suspect_groups), 0.03-0.05 us at 40x12, and about
# 0.1 us in a table sweep at 40x9.
RELATION_PAIRS = 256
# Most bits of one packed int in the exhaustive law check: a table's lanes
# are packed in blocks of 2**m whole lanes under it (one lane when a lane
# alone is wider), so a tall relation never builds a huge int.
LANE_BLOCK_BITS = 2**18
# Largest |V| at which the seriality biconditional scans the whole power set.
SERIAL_ENUM_CAP = 20


class ConfigError(BiroughError, ValueError):
    """A generator or budget configuration is malformed."""


class BudgetError(BiroughError, ValueError):
    """A requested enumeration exceeds the exhaustive work bound."""


def _pair_work(spent: int, relations: int, v_size: int, what: str) -> int:
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
    bound (``_pair_work``).
    """
    if u_size < 1 or v_size < 1:
        raise ConfigError("universe sizes must be at least 1")
    cells = u_size * v_size
    # 2**27 relations are over the cap at any |V|: clamping there keeps a huge
    # size from building a giant int.
    relations = 1 << min(cells, EXHAUSTIVE_PAIR_CAP.bit_length())
    _pair_work(0, relations, v_size, f"an exhaustive law campaign over {u_size}x{v_size}")
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
    return [rng.getrandbits(v_size) for _ in range(count)]


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


# --- algebraic law campaign --------------------------------------------------

ALGEBRAIC_LAWS = (
    "upper-is-union-of-left-neighborhoods",
    "empty-and-full-values",
    "solitary-bounds",
    "lower-minus-solitary-within-upper",
    "full-lower-and-empty-upper-criteria",
    "solitary-forces-strict-gap",
    "meet-lower-join-upper-distributivity",
    "monotonicity",
    "join-lower-meet-upper-bounds",
    "complement-duality",
)


@dataclass(frozen=True)
class Violation:
    law: str
    relation: str
    subsets: tuple[str, ...]
    expected: str
    got: str


@dataclass(frozen=True)
class LawRecord:
    law: str
    instances: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class PropertyReport:
    records: tuple[LawRecord, ...]

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records)

    def record(self, law: str) -> LawRecord:
        for record in self.records:
            if record.law == law:
                return record
        raise KeyError(law)

    def total_violations(self) -> int:
        return sum(len(record.violations) for record in self.records)


def merge_property_reports(reports: Iterable[PropertyReport]) -> PropertyReport:
    instances = {law: 0 for law in ALGEBRAIC_LAWS}
    violations: dict[str, list[Violation]] = {law: [] for law in ALGEBRAIC_LAWS}
    for report in reports:
        for record in report.records:
            instances[record.law] += record.instances
            violations[record.law].extend(record.violations)
    return PropertyReport(
        tuple(
            LawRecord(law, instances[law], tuple(violations[law]))
            for law in ALGEBRAIC_LAWS
        )
    )


@lru_cache(maxsize=8)
def _lane_masks(
    u_size: int, v_size: int
) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...]]:
    """The constant masks of the packed pair check at one (|U|, |V|).

    A table of 2**|V| U-masks is packed in blocks of 2**m lanes, lane b of
    block h holding the entry of V-subset h * 2**m + b in ``nbytes`` whole
    bytes.  Returns (nbytes, m, full, clear, set): ``full`` is the U-mask in
    every lane; ``clear[k]``/``set[k]`` fill the lanes whose index has bit k
    clear/set, for k < m.
    """
    nbytes = (u_size + 7) // 8
    m = min(v_size, max(0, (LANE_BLOCK_BITS // (8 * nbytes)).bit_length() - 1))
    lanes = 1 << m
    ones, zeros = b"\xff" * nbytes, bytes(nbytes)
    full = int.from_bytes(((1 << u_size) - 1).to_bytes(nbytes, "little") * lanes, "little")
    clear = tuple(
        int.from_bytes((ones * (1 << k) + zeros * (1 << k)) * (lanes >> k + 1), "little")
        for k in range(m)
    )
    lane_mask = (1 << 8 * nbytes * lanes) - 1
    return nbytes, m, full, clear, tuple(c ^ lane_mask for c in clear)


def _packed_blocks(table: Sequence[int], nbytes: int, m: int) -> list[int]:
    """``table`` packed as ``_lane_masks`` lays it out, one int per block."""
    packed = b"".join(map(int.to_bytes, table, repeat(nbytes), repeat("little")))
    step = nbytes << m
    return [int.from_bytes(packed[i : i + step], "little") for i in range(0, len(packed), step)]


def _suspect_groups(
    lo: Sequence[int], up: Sequence[int], u_size: int, v_size: int
) -> Iterator[int]:
    """The groups a, ascending, of the exhaustive pair check that may hold a failing pair (a, b).

    Every b of a group is checked at once, lane b of the packed tables (see
    ``_lane_masks``).  lo[a & b] is gathered by, for each bit k not in a,
    clearing the lanes with bit k set and copying each remaining lane b to
    b + 2**k; lo[a | b] likewise over the bits in a, downwards; the higher
    bits of a and b pick the blocks.  The steps commute, so the groups
    sharing a block's high bits walk a binary tree over the low bits of a,
    one step per edge, and each leaf holds one group's gathered tables:
    about 2 steps per group in place of m, which makes the check 1.7-2.9x
    faster than gathering each group on its own at 40x9 to 40x12.
    Each condition of the scalar pair test is evaluated there lane by lane,
    a complement as an XOR with ``full``; a group whose fail mask is zero in
    every block has no failing pair.  Every entry lies in [0, U-mask], so it
    fits its lane and XOR with ``full`` is ``~`` there: the single-subset
    laws, checked first, raise on reporting any other value.
    """
    nbytes, m, full, clear, set_ = _lane_masks(u_size, v_size)
    los, ups = _packed_blocks(lo, nbytes, m), _packed_blocks(up, nbytes, m)
    shifts = [8 * nbytes << k for k in range(m)]

    def spread(x: int) -> int:
        """x, a value of lane 0, put in every lane of a block."""
        for shift in shifts:
            x |= x << shift
        return x

    suspects = set()
    for high in range(len(los)):
        for h, (lb, ub) in enumerate(zip(los, ups)):
            # (low bits of a left to decide, the low bits decided, the gathered
            # lo[a & b], up[a & b], lo[a | b], up[a | b])
            stack = [(m, 0, los[h & high], ups[h & high], los[h | high], ups[h | high])]
            while stack:
                k, low, lm, um, lj, uj = stack.pop()
                if k:
                    k -= 1
                    shift, keep = shifts[k], clear[k]
                    x, y = lm & keep, um & keep
                    stack.append((k, low, x | x << shift, y | y << shift, lj, uj))
                    keep = set_[k]
                    x, y = lj & keep, uj & keep
                    stack.append((k, low | 1 << k, lm, um, x | x >> shift, y | y >> shift))
                    continue
                a = high << m | low
                if a in suspects:
                    continue
                la, ua = spread(lo[a]), spread(up[a])
                not_lj = lj ^ full
                if (
                    lm ^ (la & lb)
                    | uj ^ (ua | ub)
                    | lm & (la ^ full)
                    | la & not_lj
                    | um & (ua ^ full)
                    | ua & (uj ^ full)
                    | (la | lb) & not_lj
                    | um & ((ua & ub) ^ full)
                ):
                    suspects.add(a)
    yield from sorted(suspects)


def verify_algebraic_properties(
    rel: BinaryRelation, *, pairs: int | None = None, seed: int = 0
) -> PropertyReport:
    """Check the ten algebraic laws of the approximation operators on one relation.

    With ``pairs`` None every V-subset and every subset pair is examined:
    lower and upper are tabulated once per V-subset (2 * 2**|V| kernel calls)
    and every law is read from the two tables, the subset pairs (a, b) every b
    of an a at once, as packed lanes (``_suspect_groups``); ``seed`` is not
    used, and the one relation must be within the exhaustive work bound (|V|
    at most 12).
    Otherwise ``pairs`` (at least 1) subset pairs are drawn from the subset
    stream of ``seed`` and |V|, which works at any |V|, and each operator is
    memoised on the subsets the draws touch.

    A violation is reported with a witness, never raised; every law of this
    batch is a theorem, so any violation indicates an implementation bug.
    """
    rows = rel.rows
    v_size = rel.v_size
    vmask = rel.vmask
    umask = rel.umask

    # The subset pairs come in (a, bs) groups: every b for each a when
    # exhaustive, one drawn (a, b) pair per group, in draw order, when sampled.
    lo: Sequence[int] | Mapping[int, int]
    up: Sequence[int] | Mapping[int, int]
    groups: Iterable[tuple[int, Sequence[int]]]
    if pairs is None:
        _pair_work(0, 1, v_size, f"an exhaustive law campaign at |V| = {v_size}")
        singles: Sequence[int] = range(1 << v_size)
        lo = [lower_bits(rows, s) for s in singles]
        up = [upper_bits(rows, s) for s in singles]
        # Only the groups the packed check cannot clear reach the scalar test.
        # The check runs at the first group, after the single-subset laws.
        groups = ((a, singles) for a in _suspect_groups(lo, up, rel.u_size, v_size))
        n_pairs = len(singles) ** 2
    else:
        if pairs < 1:
            raise ConfigError(f"a sampled law campaign needs pairs >= 1, got {pairs}")
        draws = random_subset_bits(v_size, seed, 2 * pairs)
        singles = sorted(set(draws) | {0, vmask})
        lo, up = OperatorMemo(lower_bits, rows), OperatorMemo(upper_bits, rows)
        groups = ((a, (b,)) for a, b in zip(draws[0::2], draws[1::2]))
        n_pairs = pairs

    solitary = rel.solitary_set().bits
    sprime = umask ^ solitary
    columns = rel.columns()
    range_union = 0
    for row in rows:
        range_union |= row

    relation_repr = "|".join(rel.bit_rows())
    instances = {law: 0 for law in ALGEBRAIC_LAWS}
    violations: dict[str, list[Violation]] = {law: [] for law in ALGEBRAIC_LAWS}

    def u_str(bits: int) -> str:
        return str(Subset(rel.universes, Side.U, bits))

    def v_str(bits: int) -> str:
        return str(Subset(rel.universes, Side.V, bits))

    def record(law: str, subsets: tuple[int, ...], expected: str, got: str) -> None:
        violations[law].append(
            Violation(law, relation_repr, tuple(v_str(s) for s in subsets), expected, got)
        )

    law = "empty-and-full-values"
    instances[law] += 1
    if lo[0] != solitary:
        record(law, (0,), f"lower(empty) = {u_str(solitary)}", u_str(lo[0]))
    if up[0] != 0:
        record(law, (0,), "upper(empty) = {}", u_str(up[0]))
    if lo[vmask] != umask:
        record(law, (vmask,), f"lower(V) = {u_str(umask)}", u_str(lo[vmask]))
    if up[vmask] != sprime:
        record(law, (vmask,), f"upper(V) = {u_str(sprime)}", u_str(up[vmask]))

    for s in singles:
        lo_s, up_s = lo[s], up[s]

        law = "upper-is-union-of-left-neighborhoods"
        instances[law] += 1
        col_union = 0
        for j in iter_bits(s):
            col_union |= columns[j]
        if up_s != col_union:
            record(law, (s,), u_str(col_union), u_str(up_s))

        law = "solitary-bounds"
        instances[law] += 1
        if solitary & ~lo_s or up_s & solitary:
            record(
                law,
                (s,),
                "solitary within lower and disjoint from upper",
                f"lower={u_str(lo_s)} upper={u_str(up_s)}",
            )

        law = "lower-minus-solitary-within-upper"
        instances[law] += 1
        if lo_s & ~solitary & ~up_s:
            record(law, (s,), "lower minus solitary within upper", u_str(lo_s & ~solitary))

        law = "full-lower-and-empty-upper-criteria"
        instances[law] += 1
        if (lo_s == umask) != (range_union & ~s == 0):
            record(law, (s,), "lower full iff union of rows within the set", u_str(lo_s))
        if (up_s == 0) != (s & range_union == 0):
            record(law, (s,), "upper empty iff the set avoids every row", u_str(up_s))

        if solitary:
            law = "solitary-forces-strict-gap"
            instances[law] += 1
            if lo_s == up_s:
                record(law, (s,), "lower differs from upper", u_str(lo_s))

        law = "complement-duality"
        instances[law] += 1
        if (lo_s ^ umask) != up[s ^ vmask] or (up_s ^ umask) != lo[s ^ vmask]:
            record(
                law,
                (s,),
                "complement of lower is upper of complement (and dually)",
                f"lower={u_str(lo_s)} upper={u_str(up_s)}",
            )

    for law in (
        "meet-lower-join-upper-distributivity",
        "monotonicity",
        "join-lower-meet-upper-bounds",
    ):
        instances[law] += n_pairs
    for a, bs in groups:
        lo_a, up_a = lo[a], up[a]
        for b in bs:
            meet, join = a & b, a | b
            lo_b, up_b, lo_meet, up_meet = lo[b], up[b], lo[meet], up[meet]
            lo_join, up_join = lo[join], up[join]
            # Every condition of the three pair laws, none derived from
            # another: the two distributive equalities, then monotonicity
            # along meet <= a <= join and the join/meet bounds as one mask
            # that must be empty.
            if (
                lo_meet == lo_a & lo_b
                and up_join == up_a | up_b
                and not (
                    lo_meet & ~lo_a
                    | lo_a & ~lo_join
                    | up_meet & ~up_a
                    | up_a & ~up_join
                    | (lo_a | lo_b) & ~lo_join
                    | up_meet & ~(up_a & up_b)
                )
            ):
                continue

            law = "meet-lower-join-upper-distributivity"
            if lo_meet != lo_a & lo_b:
                record(law, (a, b), u_str(lo_a & lo_b), u_str(lo_meet))
            if up_join != up_a | up_b:
                record(law, (a, b), u_str(up_a | up_b), u_str(up_join))

            law = "monotonicity"
            if lo_meet & ~lo_a or lo_a & ~lo_join or up_meet & ~up_a or up_a & ~up_join:
                record(law, (a, b), "operators monotone along meet <= a <= join", "")

            law = "join-lower-meet-upper-bounds"
            if (lo_a | lo_b) & ~lo_join:
                record(law, (a, b), u_str(lo_join), u_str(lo_a | lo_b))
            if up_meet & ~(up_a & up_b):
                record(law, (a, b), u_str(up_a & up_b), u_str(up_meet))

    # Cyclic windows of 3, then 4, consecutive singles give deterministic
    # mixed families without another exponential sweep.  Window k's meet,
    # join and operator folds are built for every k at once from rotated
    # copies of the singles and of their lower/upper values.
    law = "meet-lower-join-upper-distributivity"
    ring = list(singles)
    n = len(ring)
    lo_ring = list(map(lo.__getitem__, ring))
    up_ring = list(map(up.__getitem__, ring))
    meets, joins, lo_meets, up_joins = ring, ring, lo_ring, up_ring
    for d in range(1, min(n, 4)):
        meets = list(map(and_, meets, ring[d:] + ring[:d]))
        joins = list(map(or_, joins, ring[d:] + ring[:d]))
        lo_meets = list(map(and_, lo_meets, lo_ring[d:] + lo_ring[:d]))
        up_joins = list(map(or_, up_joins, up_ring[d:] + up_ring[:d]))
        if d == 1:
            continue
        # The windows of d + 1 singles.
        instances[law] += n
        lo_got = list(map(lo.__getitem__, meets))
        up_got = list(map(up.__getitem__, joins))
        if lo_got == lo_meets and up_got == up_joins:
            continue
        for k in range(n):
            family = tuple(ring[(k + i) % n] for i in range(d + 1))
            if lo_got[k] != lo_meets[k]:
                record(law, family, u_str(lo_meets[k]), u_str(lo_got[k]))
            if up_got[k] != up_joins[k]:
                record(law, family, u_str(up_joins[k]), u_str(up_got[k]))

    return PropertyReport(
        tuple(
            LawRecord(law, instances[law], tuple(violations[law]))
            for law in ALGEBRAIC_LAWS
        )
    )


def verify_serial_iff(rel: BinaryRelation) -> bool:
    """Check: some V-subset has equal approximations iff the relation is serial.

    Up to ``SERIAL_ENUM_CAP`` V elements every subset is tried.  Above it the
    check tries the empty set, V, every singleton and every singleton's
    complement; Y = V is the constructive witness, since lower(V) = U and
    upper(V) = U iff the relation is serial.
    """
    rows = rel.rows
    if rel.v_size <= SERIAL_ENUM_CAP:
        subsets: Iterable[int] = range(1 << rel.v_size)
    else:
        vmask = rel.vmask
        singletons = [1 << j for j in range(rel.v_size)]
        subsets = chain((0, vmask), singletons, (vmask ^ s for s in singletons))
    exists = any(lower_bits(rows, s) == upper_bits(rows, s) for s in subsets)
    return exists == rel.is_serial()


def reconstruct_relation(
    upper_of_singleton: Callable[[Subset], Subset], universes: UniversePair
) -> BinaryRelation:
    """Rebuild the unique relation whose singleton uppers match the oracle.

    Feeding back a relation's own singleton upper approximations reproduces
    it exactly, which is the uniqueness content of the approximation
    operators determining the relation.
    """
    rows = [0] * universes.u_size
    for j, label in enumerate(universes.v_labels):
        image = upper_of_singleton(universes.v_subset([label]))
        if (
            not isinstance(image, Subset)
            or image.side is not Side.U
            or image.universes != universes
        ):
            raise SideMismatchError(
                "the oracle must return U-side subsets over the same universes"
            )
        for i in iter_bits(image.bits):
            rows[i] |= 1 << j
    return BinaryRelation(universes, tuple(rows))


# --- type tables -------------------------------------------------------------

OPERATIONS = ("union", "intersection")


def _cells(
    spec: dict[tuple[int, int], tuple[int, ...]]
) -> dict[tuple[RoughType, RoughType], frozenset[RoughType]]:
    return {
        (RoughType(a), RoughType(b)): frozenset(RoughType(c) for c in allowed)
        for (a, b), allowed in spec.items()
    }


UNION_TABLE = _cells(
    {
        (1, 1): (1, 3),
        (1, 2): (1, 3),
        (1, 3): (3,),
        (1, 4): (3,),
        (2, 1): (1, 3),
        (2, 2): (1, 2, 3, 4),
        (2, 3): (3,),
        (2, 4): (3, 4),
        (3, 1): (3,),
        (3, 2): (3,),
        (3, 3): (3,),
        (3, 4): (3,),
        (4, 1): (3,),
        (4, 2): (3, 4),
        (4, 3): (3,),
        (4, 4): (3, 4),
    }
)

INTERSECTION_TABLE = _cells(
    {
        (1, 1): (1, 2),
        (1, 2): (2,),
        (1, 3): (1, 2),
        (1, 4): (2,),
        (2, 1): (2,),
        (2, 2): (2,),
        (2, 3): (2,),
        (2, 4): (2,),
        (3, 1): (1, 2),
        (3, 2): (2,),
        (3, 3): (1, 2, 3, 4),
        (3, 4): (2, 4),
        (4, 1): (2,),
        (4, 2): (2,),
        (4, 3): (2, 4),
        (4, 4): (2, 4),
    }
)


def table_for(operation: str) -> Mapping[tuple[RoughType, RoughType], frozenset[RoughType]]:
    if operation == "union":
        return UNION_TABLE
    if operation == "intersection":
        return INTERSECTION_TABLE
    raise ConfigError(f"unknown set operation {operation!r}")


def allowed_result_types(
    operation: str, left: RoughType, right: RoughType
) -> frozenset[RoughType]:
    return table_for(operation)[(left, right)]


def ambiguous_cells(operation: str) -> tuple[tuple[RoughType, RoughType], ...]:
    table = table_for(operation)
    return tuple(sorted(cell for cell, allowed in table.items() if len(allowed) > 1))


@dataclass(frozen=True)
class Witness:
    """A relation and subset pair realizing one table-cell outcome."""

    relation: BinaryRelation
    left_set: Subset
    right_set: Subset


@dataclass(frozen=True)
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
    if operation not in OPERATIONS:
        raise ConfigError(f"unknown set operation {operation!r}")
    return operation == "union"


def _outcome_key(left: int, right: int, result: int) -> int:
    return (left * 10 + right) * 10 + result


def _sweep_blocks(max_u: int, max_v: int) -> list[tuple[int, int]]:
    """The (u, v) blocks up to ``max_u`` x ``max_v``, row-major, that hold a row set.

    Block (u, v) holds the C(2**v, u) sets of u distinct rows of width v, so
    none past u = 2**v.  Each block's row sets are charged to ``_pair_work``
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
            work = _pair_work(work, comb(1 << v, u), v, what)
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
    _pair_work(0, 1, rel.v_size, f"an exhaustive pair sweep at |V| = {rel.v_size}")
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
