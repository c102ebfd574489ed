"""Verification engine: law campaigns, small-model sweeps, and witness search.

Law campaigns run over every relation of small dimensions
(``generate_relations``) or over seeded random streams.  Randomness comes from
string-keyed seeds, so a stream is reproducible regardless of consumption
order, and the relation, subset, and dimension streams never share state.
Relations and dimensions are derived per item; a sampled law campaign draws
all of one relation's V-subsets from one stream keyed by its budget seed and
|V|.  The type-table sweeps and the witness search walk each distinct
(|V|, row set) once (``_row_set_relations``) through one subset-pair sweep
(``_first_witnesses``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .approx import RoughType, lower_bits, type_code, upper_bits
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
    "EXHAUSTIVE_SUBSET_CAP",
    "SERIAL_ENUM_CAP",
    "ConfigError",
    "BudgetError",
    "SubsetBudget",
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
    "witness_inventory",
    "find_type_witness",
]

# Most subset pairs an exhaustive sweep may examine: for a type-table sweep,
# C(2**v, u) * 4**v for the u-row sets of width v, summed over the sweep; for
# an exhaustive law campaign, 2**(u*v) relations * (4**v + RELATION_PAIRS).
EXHAUSTIVE_PAIR_CAP = 2**26
# The fixed cost of one relation in an exhaustive law campaign, in subset
# pairs' worth of time (about 150-200 us against about 1 us per pair).
RELATION_PAIRS = 256
# Exhaustive subset enumeration doubles per V element; cap at 4096 subsets.
EXHAUSTIVE_SUBSET_CAP = 12
# Largest |V| at which the seriality biconditional scans the whole power set.
SERIAL_ENUM_CAP = 20


class ConfigError(BiroughError, ValueError):
    """A generator or budget configuration is malformed."""


class BudgetError(BiroughError, ValueError):
    """A requested enumeration exceeds the exhaustive-size caps."""


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
    sizes at least 1, and 2**(u*v) * (4**v + ``RELATION_PAIRS``) at most
    ``EXHAUSTIVE_PAIR_CAP``.
    """
    if u_size < 1 or v_size < 1:
        raise ConfigError("universe sizes must be at least 1")
    cells = u_size * v_size
    # From the cap's bit length on, 2**(u*v) alone is over the cap: refuse
    # there before the shifts, which would build a giant int for a huge size.
    pairs = (
        ((1 << 2 * v_size) + RELATION_PAIRS) << cells
        if cells < EXHAUSTIVE_PAIR_CAP.bit_length()
        else None
    )
    if pairs is None or pairs > EXHAUSTIVE_PAIR_CAP:
        needs = pairs or f"more than 2**{cells}"
        raise BudgetError(
            f"exhaustive law campaign needs at most {EXHAUSTIVE_PAIR_CAP} subset pairs' "
            f"work, {u_size}x{v_size} needs {needs}"
        )
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
class SubsetBudget:
    """Which V-subsets a law campaign examines for one relation."""

    mode: str = "exhaustive"
    pairs: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "sampled"):
            raise ConfigError(f"unknown subset budget mode {self.mode!r}")
        if self.mode == "sampled" and self.pairs < 1:
            raise ConfigError("sampled budgets need pairs >= 1")

    @classmethod
    def exhaustive(cls) -> "SubsetBudget":
        return cls("exhaustive")

    @classmethod
    def sampled(cls, pairs: int, seed: int = 0) -> "SubsetBudget":
        return cls("sampled", pairs, seed)


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

    def total_instances(self) -> int:
        return sum(record.instances for record in self.records)

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


def _window_families(singles: Sequence[int]) -> list[tuple[int, ...]]:
    # Cyclic windows of sizes 3 and 4 over the subset enumeration give
    # deterministic mixed families without another exponential sweep.
    n = len(singles)
    families: list[tuple[int, ...]] = []
    if n >= 3:
        for k in range(n):
            families.append(tuple(singles[(k + d) % n] for d in range(3)))
    if n >= 4:
        for k in range(n):
            families.append(tuple(singles[(k + d) % n] for d in range(4)))
    return families


class _OperatorMemo(dict):
    """``memo[s]`` is ``kernel(rows, s)``, computed the first time it is read."""

    def __init__(self, kernel: Callable[[Sequence[int], int], int], rows: Sequence[int]):
        super().__init__()
        self.kernel = kernel
        self.rows = rows

    def __missing__(self, s: int) -> int:
        value = self[s] = self.kernel(self.rows, s)
        return value


def verify_algebraic_properties(
    rel: BinaryRelation, budget: SubsetBudget = SubsetBudget.exhaustive()
) -> PropertyReport:
    """Check the ten algebraic laws of the approximation operators on one relation.

    An exhaustive budget tabulates lower and upper once for every V-subset
    (2 * 2**|V| kernel calls) and reads every law from the two tables.  A
    sampled budget, which may run at |V| too large to tabulate, memoises each
    operator on the subsets its draws touch.

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
    if budget.mode == "exhaustive":
        if v_size > EXHAUSTIVE_SUBSET_CAP:
            raise BudgetError(
                f"exhaustive subset budget needs |V| <= {EXHAUSTIVE_SUBSET_CAP}, got {v_size}"
            )
        singles: Sequence[int] = range(1 << v_size)
        lo = [lower_bits(rows, s) for s in singles]
        up = [upper_bits(rows, s) for s in singles]
        groups = ((a, singles) for a in singles)
        n_pairs = len(singles) ** 2
    else:
        draws = random_subset_bits(v_size, budget.seed, 2 * budget.pairs)
        singles = sorted(set(draws) | {0, vmask})
        lo, up = _OperatorMemo(lower_bits, rows), _OperatorMemo(upper_bits, rows)
        groups = ((a, (b,)) for a, b in zip(draws[0::2], draws[1::2]))
        n_pairs = budget.pairs
    families = _window_families(singles)

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

    law = "meet-lower-join-upper-distributivity"
    for family in families:
        instances[law] += 1
        meet = vmask
        join = 0
        lo_meet = umask
        up_join = 0
        for s in family:
            meet &= s
            join |= s
            lo_meet &= lo[s]
            up_join |= up[s]
        if lo[meet] != lo_meet:
            record(law, family, u_str(lo_meet), u_str(lo[meet]))
        if up[join] != up_join:
            record(law, family, u_str(up_join), u_str(up[join]))

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
    observed: frozenset[RoughType]
    witnesses: Mapping[RoughType, Witness]

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


def _sweep_blocks(max_u: int, v_sizes: range) -> list[tuple[int, int]]:
    """The (u, v) blocks up to ``max_u`` rows, row-major, that hold a row set.

    Block (u, v) holds the C(2**v, u) sets of u distinct rows of width v, so
    none past u = 2**v.  Both sweep bounds are checked here, before any work:
    |V| at most ``EXHAUSTIVE_SUBSET_CAP``, and at most ``EXHAUSTIVE_PAIR_CAP``
    subset pairs over the blocks.
    """
    if v_sizes and v_sizes[-1] > EXHAUSTIVE_SUBSET_CAP:
        raise BudgetError(f"exhaustive pair sweep needs |V| <= {EXHAUSTIVE_SUBSET_CAP}")
    blocks = [
        (u, v)
        for u in range(1, min(max_u, 1 << EXHAUSTIVE_SUBSET_CAP) + 1)
        for v in v_sizes
        if u <= 1 << v
    ]
    pairs = 0
    for u, v in blocks:
        pairs += comb(1 << v, u) << 2 * v
        if pairs > EXHAUSTIVE_PAIR_CAP:
            raise BudgetError(
                f"exhaustive pair sweep needs at most {EXHAUSTIVE_PAIR_CAP} subset pairs, "
                f"these bounds need at least {pairs}"
            )
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
        out.append(
            TableCellFinding(
                operation, ta, tb, table[(ta, tb)], frozenset(witnesses), witnesses
            )
        )
    return out


def check_relation_against_tables(
    rel: BinaryRelation,
    operation: str,
    *,
    tables: Mapping[tuple[RoughType, RoughType], frozenset[RoughType]] | None = None,
) -> list[TableCellFinding]:
    """Exhaustive subset-pair conformance check for a single relation."""
    union = _is_union(operation)
    if rel.v_size > EXHAUSTIVE_SUBSET_CAP:
        raise BudgetError(f"exhaustive pair sweep needs |V| <= {EXHAUSTIVE_SUBSET_CAP}")
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
    relations = _row_set_relations(_sweep_blocks(max_u, range(1, max_v + 1)))
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
    relations = _row_set_relations(_sweep_blocks(max_u, range(1, max_v + 1)))
    first = _first_witnesses(relations, union)
    return next((witness for key, witness in first if key == want), None)
