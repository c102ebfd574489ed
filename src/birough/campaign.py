"""The algebraic law campaign: the ten lower/upper laws, checked on one relation.

``verify_algebraic_properties`` checks one relation, at every V-subset and
subset pair (exhaustive) or at a seeded draw of subset pairs (sampled), and
``merge_property_reports`` folds a campaign's reports into one.  The draws
come from ``lab.random_subset_bits``, keyed by the seed and |V|.  Lower and
upper are read through ``lower_table``/``upper_table``.  An exhaustive
check, and a sampled one whose 2**|V| subsets are no more than the entries
it would tabulate at its singles, complements and windows, tabulates them
at every V-subset.  The relation is cleared when those tables are the
operators themselves: upper at each subset the union of its columns
(``subset_unions``) and lower its dual, which gives every law.  When they
are not, the subset pairs are cleared at once by the generator identities of
the distributive laws (``_homomorphic``).  A wider sampled check clears its
singles and their complements the same way, against ``window_unions``, and
each block of drawn pairs by four comparisons of whole tables.  Only what
those clears leave is walked one subset at a time.  An exhaustive check is
refused before any work by ``lab.pair_work``, the bound of every exhaustive
check.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import chain
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

# random_subset_bits is read off lab at each call, so a wrapper placed there
# (the benchmark's tracer, a test's spy) sees every draw.
from . import lab
from .approx import lower_table, upper_table
from .lab import LANE_BLOCK_BITS, ConfigError, pair_work
from .relation import (
    SHIFT_WIDTH,
    BinaryRelation,
    Side,
    Subset,
    record,
    subset_unions,
    window_unions,
)

__all__ = [
    "VIOLATION_DETAILS",
    "ALGEBRAIC_LAWS",
    "Violation",
    "LawRecord",
    "PropertyReport",
    "verify_algebraic_properties",
    "merge_property_reports",
]

# Drawn pairs per block of a sampled campaign: a block's tables are read at
# four V-masks per pair, so the kernels' packed ints stay within
# LANE_BLOCK_BITS.
PAIR_BLOCK = LANE_BLOCK_BITS // (4 * SHIFT_WIDTH)
# Most violations of one law a report keeps, the first in campaign order; the
# rest are counted only, so a faulted campaign's report stays bounded.
VIOLATION_DETAILS = 100

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
        pair_work(0, 1, v_size, f"an exhaustive law campaign at |V| = {v_size}")
        singles: Sequence[int] = range(1 << v_size)
        n_pairs = len(singles) ** 2
    else:
        if pairs < 1:
            raise ConfigError(f"a sampled law campaign needs pairs >= 1, got {pairs}")
        draws = lab.random_subset_bits(v_size, seed, 2 * pairs)
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
