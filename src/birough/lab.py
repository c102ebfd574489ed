"""Verification engine: law campaigns, small-model sweeps, and witness search.

Law campaigns run over every relation of small dimensions
(``generate_relations``) or over seeded random streams.  Randomness comes from
string-keyed seeds, so a stream is reproducible regardless of consumption
order, and the relation, subset, and dimension streams never share state.
Relations and dimensions are derived per item; a sampled law campaign draws
all of one relation's V-subsets from one stream keyed by its seed and |V|.  A
law campaign reads lower and upper through ``lower_table``/``upper_table``.
An exhaustive campaign, and a sampled one whose 2**|V| subsets are no more
than the entries it would tabulate at its singles, complements and windows,
tabulates them at every V-subset.  The relation is cleared when those tables
are the operators themselves: upper at each subset the union of its columns
(``subset_unions``) and lower its dual, which gives every law.  When they are
not, the subset pairs are cleared at once by the generator identities of the
distributive laws (``_homomorphic``).  A wider sampled campaign clears its
singles and their complements the same way, against ``window_unions``, and
each block of drawn pairs by four comparisons of whole tables.  Only what
those clears leave is walked one subset at a time.  The seriality check tries
the empty set through ``lower_bits``/``upper_bits``, then reads the other
subsets through the tables a fixed chunk at a time.  The type-table sweeps and
the witness search walk each distinct (|V|, row set) once
(``_row_set_relations``) through one subset-pair sweep
(``_first_witnesses``).  Every exhaustive check is refused before any work by
one rule, ``_pair_work``: relations walked * (4**|V| + ``RELATION_PAIRS``) at
most ``EXHAUSTIVE_PAIR_CAP``.
"""

from __future__ import annotations

import random
from functools import cache, lru_cache, reduce
from itertools import chain, combinations, product, repeat
from math import comb
from operator import and_, eq, or_
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
    subset_unions,
    transpose,
    window_unions,
)

__all__ = [
    "EXHAUSTIVE_PAIR_CAP",
    "SERIAL_ENUM_CAP",
    "VIOLATION_DETAILS",
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
# each costing 4**|V| subset pairs plus RELATION_PAIRS (see _pair_work).
EXHAUSTIVE_PAIR_CAP = 2**26
# The fixed cost of one relation, in subset pairs' worth of time.  Set when a
# pair cost about 1 us and a relation 150-200 us, and kept with the cap so the
# same sizes are refused.  The cap now bounds the pair-by-pair walk of a
# relation whose tables fail the law campaign's identities, and the type
# table sweeps, where a pair costs about 0.1 us at 40x9.
RELATION_PAIRS = 256
# Most bits of one packed int that the table kernels build for a chunk of
# the seriality check or a block of drawn pairs: their lanes are at most
# SHIFT_WIDTH bits, one per V-mask.
LANE_BLOCK_BITS = 2**18
# Drawn pairs per block of a sampled campaign: a block's tables are read at
# four V-masks per pair, so the kernels' packed ints stay within
# LANE_BLOCK_BITS.
PAIR_BLOCK = LANE_BLOCK_BITS // (4 * SHIFT_WIDTH)
# Largest |V| at which the seriality biconditional scans the whole power set.
SERIAL_ENUM_CAP = 20
# Most violations of one law a report keeps, the first in campaign order; the
# rest are counted only, so a faulted campaign's report stays bounded.
VIOLATION_DETAILS = 100


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
# The laws checked at subset pairs.
PAIR_LAWS = (
    "meet-lower-join-upper-distributivity",
    "monotonicity",
    "join-lower-meet-upper-bounds",
)


@record
class Violation:
    law: str
    relation: str
    subsets: tuple[str, ...]
    expected: str
    got: str


@record
class LawRecord:
    """A law's instances and violations, with the first ``VIOLATION_DETAILS``
    of its violations in campaign order."""

    law: str
    instances: int
    violations: tuple[Violation, ...]
    violation_count: int

    @property
    def ok(self) -> bool:
        return not self.violation_count

    @property
    def truncated(self) -> bool:
        """Whether some violations were counted but not kept."""
        return self.violation_count > len(self.violations)


@record
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
        return sum(record.violation_count for record in self.records)


def merge_property_reports(reports: Iterable[PropertyReport]) -> PropertyReport:
    """The reports of a campaign as one, taken in order: the counts summed,
    and the first ``VIOLATION_DETAILS`` violations of each law kept."""
    instances = dict.fromkeys(ALGEBRAIC_LAWS, 0)
    counts = dict.fromkeys(ALGEBRAIC_LAWS, 0)
    violations: dict[str, list[Violation]] = {law: [] for law in ALGEBRAIC_LAWS}
    for report in reports:
        for record in report.records:
            instances[record.law] += record.instances
            counts[record.law] += record.violation_count
            kept = violations[record.law]
            kept += record.violations[: VIOLATION_DETAILS - len(kept)]
    return _property_report(instances, violations, counts)


def _property_report(
    instances: Mapping[str, int],
    violations: Mapping[str, Sequence[Violation]],
    counts: Mapping[str, int],
) -> PropertyReport:
    return PropertyReport(
        tuple(
            LawRecord(law, instances[law], tuple(violations[law]), counts[law])
            for law in ALGEBRAIC_LAWS
        )
    )


def _tables_hold(umask: int, lo: Sequence[int], up: Sequence[int], unions: Sequence[int]) -> bool:
    """Whether ``lo`` and ``up`` are the operators themselves at their V-masks.

    The tables are read at V-masks closed under complement, in mirrored
    order: the complement of entry k is entry -1 - k.  True exactly when
    upper at each is the union of its columns (entry k of ``unions``) and
    lower at each is the complement of upper at its complement: then every
    law holds at every subset, pair and window of these V-masks.
    """
    return up == unions and lo == [umask ^ u for u in reversed(up)]


def _pairs_hold(lo: Sequence[int], up: Sequence[int]) -> bool:
    """Whether every drawn pair (a, b) meets the pair laws.

    ``lo`` and ``up`` hold the table at each pair's a, then at each b, at
    each a & b and at each a | b.  Lower at a & b must be the meet of lower
    at a and at b, upper at a | b the join of upper at a and at b, lower at
    a | b must hold lower at a and at b, and upper at a & b lie within upper
    at a and at b.  On any ints these four give the scalar pair loop's other
    four conditions, so True exactly when that loop records no violation.
    """
    count = len(lo) // 4
    la, lb, lm, lj = (lo[i : i + count] for i in range(0, len(lo), count))
    ua, ub, um, uj = (up[i : i + count] for i in range(0, len(up), count))
    lo_joins, up_meets = list(map(or_, la, lb)), list(map(and_, ua, ub))
    return (
        lm == list(map(and_, la, lb))
        and uj == list(map(or_, ua, ub))
        and list(map(and_, lo_joins, lj)) == lo_joins
        and list(map(and_, um, up_meets)) == um
    )


def _homomorphic(lo: Sequence[int], up: Sequence[int]) -> bool:
    """Whether ``up`` preserves every join and ``lo`` every meet of V-subsets.

    ``lo``/``up`` are the tables at every V-subset.  For each non-empty y,
    with b its lowest element and c = V ^ y, the test asks up[y] =
    up[y ^ b] | up[b] and lo[c] = lo[c | b] & lo[V ^ b], the distributive
    law at one pair each.  By induction on |y|, these 2 * (2**|V| - 1)
    identities hold exactly when up[y] is up[empty] joined with up at each
    element of y, and lo[c] is lo[V] met with lo at V minus each element
    outside c: exactly when both laws hold at every pair.  That implies
    monotonicity and the join/meet bounds too, on any ints, so True exactly
    when the scalar pair loop would record no violation.
    """
    vmask = len(lo) - 1
    for y in range(1, len(lo)):
        b = y & -y
        c = vmask ^ y
        if up[y] != up[y ^ b] | up[b] or lo[c] != lo[c | b] & lo[vmask ^ b]:
            return False
    return True


def _drawn_pair_groups(
    rel: BinaryRelation, a_s: Sequence[int], b_s: Sequence[int]
) -> Iterator[tuple[int, tuple[int], dict[int, int], dict[int, int]]]:
    """The drawn pairs (a_s[k], b_s[k]) that ``_pairs_hold`` does not clear, in order.

    The pairs are tabulated at a, b, a & b and a | b a block of
    ``PAIR_BLOCK`` pairs at a time, so the tables stay small however many
    pairs are drawn.  Each pair of a block ``_pairs_hold`` does not clear
    comes as an (a, (b,), lo, up) group, lo/up its block's tables by V-mask.
    """
    rows = rel.rows
    for start in range(0, len(a_s), PAIR_BLOCK):
        a_block, b_block = a_s[start : start + PAIR_BLOCK], b_s[start : start + PAIR_BLOCK]
        ys = [*a_block, *b_block, *map(and_, a_block, b_block), *map(or_, a_block, b_block)]
        lo, up = lower_table(rows, ys), upper_table(rows, ys)
        if not _pairs_hold(lo, up):
            lo_at, up_at = dict(zip(ys, lo)), dict(zip(ys, up))
            for a, b in zip(a_block, b_block):
                yield a, (b,), lo_at, up_at


def _window_folds(values: list[int], fold: Callable[[int, int], int]) -> list[list[int]]:
    """``fold`` over each cyclic window of 3, then 4, consecutive values.

    Entry k of a list folds values k, k + 1, ... (mod n); a window wider
    than n is left out.  Built for every k at once from rotated copies.
    """
    folds, acc = [], values
    for d in range(1, min(len(values), 4)):
        acc = list(map(fold, acc, values[d:] + values[:d]))
        if d > 1:
            folds.append(acc)
    return folds


def verify_algebraic_properties(
    rel: BinaryRelation, *, pairs: int | None = None, seed: int = 0
) -> PropertyReport:
    """Check the ten algebraic laws of the approximation operators on one relation.

    With ``pairs`` None every V-subset is a single and every subset pair is
    examined; ``seed`` is not used, and the one relation must be within the
    exhaustive work bound (|V| at most 12).  Otherwise ``pairs`` (at least 1)
    subset pairs are drawn from the subset stream of ``seed`` and |V|, which
    works at any |V|, and the singles are the drawn subsets, the empty set
    and V.  The laws are read at the singles, their complements, each pair's
    subsets, meet and join, and the meets and joins of the cyclic windows of
    3 and 4 singles.

    The exhaustive scope, and a sampled one whose 2**|V| subsets are no more
    than the entries of its head tables ((2 + windows) * singles: the
    singles, their complements and a meet or join per window), tabulate
    lower and upper once at every V-subset (``lower_table``,
    ``upper_table``), so they hold no more entries than the head tables
    would.  The relation is cleared there when upper is the join of the
    columns in each subset and lower its dual (``_tables_hold``): the tables
    are then the operators themselves, which gives every law at every
    single, pair and window.  When it is not, the subset pairs are cleared
    together by the 2 * (2**|V| - 1) generator identities of the
    distributive laws (``_homomorphic``).  A wider sampled scope tabulates
    the head tables and clears the singles and their complements the same
    way (``_tables_hold``; stricter than the laws at the singles, since it
    also asks upper at each complement to be its column union), and
    tabulates its drawn pairs a block at a time, each block cleared by four
    comparisons (``_pairs_hold``).

    Only what these clears leave, which includes any table entry outside
    [0, U-mask], is walked one subset at a time, reading the same tables by
    V-mask, so the violations and their order are those of that walk: a
    clear only decides whether the walk runs.  A violation is reported with
    a witness, never raised; every law of this batch is a theorem, so any
    violation indicates an implementation bug.  Each law keeps its first
    ``VIOLATION_DETAILS`` violations and counts the rest.
    """
    rows = rel.rows
    v_size = rel.v_size
    vmask = rel.vmask
    umask = rel.umask
    solitary = rel.solitary_set().bits

    if pairs is None:
        _pair_work(0, 1, v_size, f"an exhaustive law campaign at |V| = {v_size}")
        singles: Sequence[int] = range(1 << v_size)
        n_pairs = len(singles) ** 2
    else:
        if pairs < 1:
            raise ConfigError(f"a sampled law campaign needs pairs >= 1, got {pairs}")
        draws = random_subset_bits(v_size, seed, 2 * pairs)
        singles = sorted({0, vmask, *draws})
        n_pairs = pairs
    n = len(singles)
    # The windows of 3, then 4, singles no wider than the ring (_window_folds).
    n_windows = max(0, min(n, 4) - 2)
    instances = dict.fromkeys(ALGEBRAIC_LAWS, n)
    instances["empty-and-full-values"] = 1
    instances["solitary-forces-strict-gap"] = n if solitary else 0
    for law in PAIR_LAWS:
        instances[law] = n_pairs
    instances["meet-lower-join-upper-distributivity"] += n * n_windows
    violations: dict[str, list[Violation]] = {law: [] for law in ALGEBRAIC_LAWS}
    counts = dict.fromkeys(ALGEBRAIC_LAWS, 0)

    # The subset pairs the scalar pair loop tests come in (a, bs, lo, up)
    # groups, lo/up read as lo[y]: every b for each a when exhaustive, one
    # drawn (a, b) pair per group, in draw order, when sampled.  Entry k of
    # lo_singles/lo_comps is lower at singles[k] and at its complement, and
    # lo_windows holds lower at the meets of the windows of 3, then 4,
    # singles from k on (see _window_folds); likewise up_* with upper and the
    # windows' joins.
    groups: Iterable[
        tuple[int, Sequence[int], Sequence[int] | Mapping[int, int], Sequence[int] | Mapping[int, int]]
    ]
    if pairs is None or 1 << v_size <= (2 + n_windows) * n:
        subsets = range(1 << v_size)
        lo, up = lower_table(rows, subsets), upper_table(rows, subsets)
        # The complement of subset y is entry -1 - y of the tables.
        unions = subset_unions(rel.columns())
        tables_hold = _tables_hold(umask, lo, up, unions)
        if tables_hold:
            # Then upper preserves every join and lower every meet: every law
            # holds at every single, pair and window.
            return _property_report(instances, violations, counts)
        comps = [vmask ^ s for s in singles]
        lo_singles, up_singles = [lo[s] for s in singles], [up[s] for s in singles]
        lo_comps, up_comps = [lo[c] for c in comps], [up[c] for c in comps]
        unions = [unions[s] for s in singles]
        ring = list(singles)
        lo_windows = [list(map(lo.__getitem__, m)) for m in _window_folds(ring, and_)]
        up_windows = [list(map(up.__getitem__, j)) for j in _window_folds(ring, or_)]
        # The pair laws hold at every pair exactly when the generator
        # identities do; otherwise every pair of the scope is walked.
        if _homomorphic(lo, up):
            groups = []
        elif pairs is None:
            groups = ((a, singles, lo, up) for a in singles)
        else:
            groups = ((a, (b,), lo, up) for a, b in zip(draws[0::2], draws[1::2]))
    else:
        # Both tables are read at the singles, then at their complements in
        # mirrored order, then lower at the windows' meets and upper at their
        # joins.
        head = [*singles, *map(vmask.__xor__, reversed(singles))]
        lo_table = lower_table(rows, head + list(chain(*_window_folds(singles, and_))))
        up_table = upper_table(rows, head + list(chain(*_window_folds(singles, or_))))
        unions = window_unions(rel.columns(), head)
        # Stricter than the laws at the singles (see the docstring): when it
        # fails, the scalar loop below decides.
        tables_hold = _tables_hold(umask, lo_table[: 2 * n], up_table[: 2 * n], unions)
        lo_singles, lo_comps = lo_table[:n], lo_table[n : 2 * n][::-1]
        up_singles, up_comps = up_table[:n], up_table[n : 2 * n][::-1]
        lo_windows = [lo_table[i : i + n] for i in range(2 * n, len(lo_table), n)]
        up_windows = [up_table[i : i + n] for i in range(2 * n, len(up_table), n)]
        # Each block of drawn pairs is tabulated and cleared on its own.
        groups = _drawn_pair_groups(rel, draws[0::2], draws[1::2])
    relation_repr = ""

    # A faulted kernel can repeat one wrong mask at many violations: each
    # mask's text is built once per relation.
    @cache
    def u_str(bits: int) -> str:
        if 0 <= bits <= umask:
            return str(Subset(rel.universes, Side.U, bits))
        return f"<U-mask {bits} out of range>"

    @cache
    def v_str(bits: int) -> str:
        return str(Subset(rel.universes, Side.V, bits))

    def record(law: str, subsets: tuple[int, ...], expected: str, got: str) -> None:
        nonlocal relation_repr
        counts[law] += 1
        if counts[law] > VIOLATION_DETAILS:
            return
        # Built at the first violation; a relation that holds never needs it.
        relation_repr = relation_repr or "|".join(rel.bit_rows())
        violations[law].append(
            Violation(law, relation_repr, tuple(v_str(s) for s in subsets), expected, got)
        )

    # The empty set is the first single and V the last.
    law = "empty-and-full-values"
    if lo_singles[0] != solitary:
        record(law, (0,), f"lower(empty) = {u_str(solitary)}", u_str(lo_singles[0]))
    if up_singles[0] != 0:
        record(law, (0,), "upper(empty) = {}", u_str(up_singles[0]))
    if lo_singles[-1] != umask:
        record(law, (vmask,), f"lower(V) = {u_str(umask)}", u_str(lo_singles[-1]))
    sprime = umask ^ solitary
    if up_singles[-1] != sprime:
        record(law, (vmask,), f"upper(V) = {u_str(sprime)}", u_str(up_singles[-1]))

    if not tables_hold:
        range_union = reduce(or_, rows)
        # Entry k of unions is the union of the columns in singles[k].
        for s, col_union, lo_s, up_s, lo_c, up_c in zip(
            singles, unions, lo_singles, up_singles, lo_comps, up_comps
        ):
            law = "upper-is-union-of-left-neighborhoods"
            if up_s != col_union:
                record(law, (s,), u_str(col_union), u_str(up_s))

            law = "solitary-bounds"
            if solitary & ~lo_s or up_s & solitary:
                record(
                    law,
                    (s,),
                    "solitary within lower and disjoint from upper",
                    f"lower={u_str(lo_s)} upper={u_str(up_s)}",
                )

            law = "lower-minus-solitary-within-upper"
            if lo_s & ~solitary & ~up_s:
                record(law, (s,), "lower minus solitary within upper", u_str(lo_s & ~solitary))

            law = "full-lower-and-empty-upper-criteria"
            if (lo_s == umask) != (range_union & ~s == 0):
                record(law, (s,), "lower full iff union of rows within the set", u_str(lo_s))
            if (up_s == 0) != (s & range_union == 0):
                record(law, (s,), "upper empty iff the set avoids every row", u_str(up_s))

            if solitary:
                law = "solitary-forces-strict-gap"
                if lo_s == up_s:
                    record(law, (s,), "lower differs from upper", u_str(lo_s))

            law = "complement-duality"
            if (lo_s ^ umask) != up_c or (up_s ^ umask) != lo_c:
                record(
                    law,
                    (s,),
                    "complement of lower is upper of complement (and dually)",
                    f"lower={u_str(lo_s)} upper={u_str(up_s)}",
                )

    for a, bs, lo, up in groups:
        lo_a, up_a = lo[a], up[a]
        for b in bs:
            meet, join = a & b, a | b
            lo_b, up_b, lo_meet, up_meet = lo[b], up[b], lo[meet], up[meet]
            lo_join, up_join = lo[join], up[join]
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
    # mixed families without another exponential sweep: lower at each
    # window's meet against the meet of its lowers, upper at its join against
    # the join of its uppers.
    law = "meet-lower-join-upper-distributivity"
    lo_folds, up_folds = _window_folds(lo_singles, and_), _window_folds(up_singles, or_)
    for size, lo_w, up_w, lo_f, up_f in zip((3, 4), lo_windows, up_windows, lo_folds, up_folds):
        if lo_w == lo_f and up_w == up_f:
            continue
        for k in range(n):
            family = tuple(singles[(k + i) % n] for i in range(size))
            if lo_w[k] != lo_f[k]:
                record(law, family, u_str(lo_f[k]), u_str(lo_w[k]))
            if up_w[k] != up_f[k]:
                record(law, family, u_str(up_f[k]), u_str(up_w[k]))

    return _property_report(instances, violations, counts)


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
