"""Classifications of V, family approximations, and quality measures.

A classification is a validated partition of V into at least two named,
non-empty, pairwise-disjoint blocks.  Approximating every block gives a
family approximation, from which the accuracy and quality measures are
computed as exact rationals.  Since the blocks partition V, a non-empty
row lies within at most one block, so all the blocks' lowers come from one
pass over the rows.

The family-law checkers evaluate, instance by instance, the duality
biconditionals and the derived implication laws that relate "some union of
blocks has a covering upper approximation" to "the remaining blocks have
empty lower approximations" (and their duals).  Each evaluated instance is
reported as holds, violated, or vacuous, in a ``TheoremReport`` that holds
the instances as columns, filled one law at a time.

A law asks two facts of a union of blocks, never its approximations as
sets: is its lower approximation non-empty, and does its upper cover U?
Both depend only on the set of rows, so they are read over the distinct
rows and memoised by V-mask.  The blockwise side of each law reads the
blocks' own lower and upper U-masks, a separate route.  Each index set's
union of blocks, and the union of the other blocks' uppers, come from one
``window_unions`` call each over all the index sets.  The memos and the
unions belong to one evaluation of the laws (``_LawFacts``):
``family_law_report`` builds it once for both its parts and lets it go when
it returns, so a family holds only its blockwise approximations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, cached_property, partial
from heapq import merge
from itertools import chain, combinations, compress, repeat
from operator import eq, not_
from typing import Iterable, Sequence

from . import approx
from .approx import lower_nonempty, upper_approximation, upper_covers
from .relation import (
    BinaryRelation,
    BiroughError,
    Side,
    SideMismatchError,
    Subset,
    UniversePair,
    mask_of_flags,
    mask_of_indices,
    record,
    window_unions,
)

# Not called here, but kept bound for callers that wrap it by name.
lower_approximation = approx.lower_approximation

__all__ = [
    "ClassificationError",
    "UndefinedMeasureError",
    "Classification",
    "classification_violations",
    "validate_classification",
    "FamilyApprox",
    "approximate_family",
    "Quality",
    "LawInstance",
    "TheoremReport",
    "HOLDS",
    "VIOLATED",
    "VACUOUS",
    "COVER_DUALITY",
    "SUPPORT_DUALITY",
    "DERIVED_LAWS",
    "MEASURE_LAWS",
    "cover_duality_check",
    "support_duality_check",
    "duality_report",
    "derived_laws_report",
    "family_law_report",
    "measure_law_report",
    "proper_index_subsets",
]


class ClassificationError(BiroughError, ValueError):
    """A proposed classification violates the partition requirements."""

    def __init__(self, violations: Iterable[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class UndefinedMeasureError(BiroughError, ArithmeticError):
    """Accuracy is undefined: every block's upper approximation is empty."""


def classification_violations(
    named_blocks: Sequence[tuple[str, Subset]]
) -> list[str]:
    """All partition violations of a proposed list of named V-blocks.

    Side or universe mismatches between the blocks are structural errors and
    raise instead of being reported.
    """
    if not named_blocks:
        return ["no blocks supplied"]
    universes = named_blocks[0][1].universes
    for _, block in named_blocks:
        if block.side is not Side.V or block.universes != universes:
            raise SideMismatchError("classification blocks must be V-side subsets over one universe pair")

    violations = []
    seen_names: set[str] = set()
    for name, _ in named_blocks:
        if name in seen_names:
            violations.append(f"duplicate block name {name!r}")
        seen_names.add(name)
    if len(named_blocks) <= 1:
        violations.append(f"a classification needs more than one block, got {len(named_blocks)}")
    for name, block in named_blocks:
        if not block:
            violations.append(f"block {name!r} is empty")
    union = size_total = 0
    for _, block in named_blocks:
        union |= block.bits
        size_total += len(block)
    # Some blocks overlap exactly when their sizes add up to more than their union.
    if size_total > union.bit_count():
        for (name_a, a), (name_b, b) in combinations(named_blocks, 2):
            common = a & b
            if common:
                violations.append(f"blocks {name_a!r} and {name_b!r} overlap on {common}")
    missing = Subset(universes, Side.V, universes.full_mask(Side.V) ^ union)
    if missing:
        violations.append(f"blocks do not cover {missing}")
    return violations


@record
class Classification:
    """A validated partition of V into more than one named block."""

    universes: UniversePair
    names: tuple[str, ...]
    blocks: tuple[Subset, ...]

    def __post_init__(self) -> None:
        if any(block.universes != self.universes for block in self.blocks):
            raise SideMismatchError("classification blocks must be over its universe pair")
        violations = classification_violations(list(zip(self.names, self.blocks)))
        if violations:
            raise ClassificationError(violations)

    @property
    def n(self) -> int:
        return len(self.blocks)


def validate_classification(
    named_blocks: Sequence[tuple[str, Subset]]
) -> Classification:
    """Validate named V-blocks into a Classification or raise with all violations."""
    if not named_blocks:
        raise ClassificationError(["no blocks supplied"])
    universes = named_blocks[0][1].universes
    names = tuple(name for name, _ in named_blocks)
    blocks = tuple(block for _, block in named_blocks)
    return Classification(universes, names, blocks)


@record
class FamilyApprox:
    """Blockwise lower and upper approximations of a classification."""

    relation: BinaryRelation
    classification: Classification
    lowers: tuple[Subset, ...]
    uppers: tuple[Subset, ...]

    def lower_total(self) -> int:
        return sum(len(s) for s in self.lowers)

    def upper_total(self) -> int:
        return sum(len(s) for s in self.uppers)

    def accuracy(self) -> Fraction:
        """Summed lower sizes over summed upper sizes, reduced.

        Undefined exactly when every upper approximation is empty, which can
        only happen for an all-empty relation; that case raises rather than
        returning a sentinel.
        """
        denominator = self.upper_total()
        if denominator == 0:
            raise UndefinedMeasureError(
                "accuracy is undefined: every block's upper approximation is empty"
            )
        return Fraction(self.lower_total(), denominator)

    def quality(self) -> "Quality":
        """Both normalizations of the quality measure.

        ``v_normalized`` divides the summed lower sizes by |V| and can exceed
        1 when |U| > |V|; ``u_normalized`` divides by |U| and is bounded by 1
        for serial relations.  Both are first-class outputs.
        """
        total = self.lower_total()
        return Quality(
            v_normalized=Fraction(total, self.relation.v_size),
            u_normalized=Fraction(total, self.relation.u_size),
        )

    def is_definable(self) -> bool:
        """True when every block's lower and upper approximations coincide."""
        return all(lo.bits == up.bits for lo, up in zip(self.lowers, self.uppers))


@record
class Quality:
    v_normalized: Fraction
    u_normalized: Fraction


def _block_lowers(rel: BinaryRelation, blocks: Sequence[int]) -> list[int]:
    """The U-masks of the lower approximations of V-masks that partition V,
    in one pass over the rows.

    A non-empty row can lie only within the block that holds its lowest set
    bit, so each row is filed under that block when it lies within it.
    ``owner`` maps the bit length of a row's lowest set bit to its block; a
    bit length of 0, the empty row, maps to a last, empty mask, and the empty
    rows filed there lie within every block.
    """
    owner = [len(blocks)] * (rel.v_size + 1)
    for k, block in enumerate(blocks):
        while block:
            low = block & -block
            owner[low.bit_length()] = k
            block ^= low
    masks = [*blocks, 0]
    members: list[list[int]] = [[] for _ in masks]
    for i, row in enumerate(rel.rows):
        k = owner[(row & -row).bit_length()]
        if row & masks[k] == row:
            members[k].append(i)
    width = rel.u_size
    empty = mask_of_indices(members.pop(), width)
    return [mask_of_indices(rows, width) | empty for rows in members]


def approximate_family(rel: BinaryRelation, classification: Classification) -> FamilyApprox:
    """Approximate every block of a classification under one relation.

    The lowers come from one pass over the rows, the uppers from one
    ``upper_approximation`` per block.
    """
    if classification.universes != rel.universes:
        raise SideMismatchError("classification and relation universes differ")
    blocks = classification.blocks
    lowers = tuple(
        Subset(rel.universes, Side.U, bits)
        for bits in _block_lowers(rel, [block.bits for block in blocks])
    )
    uppers = tuple(upper_approximation(rel, block) for block in blocks)
    return FamilyApprox(rel, classification, lowers, uppers)


# --- family laws -----------------------------------------------------------

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"

COVER_DUALITY = "union-upper-covers-iff-rest-lower-empty"
SUPPORT_DUALITY = "union-lower-nonempty-iff-rest-uppers-not-cover"

DERIVED_LAWS = (
    "cover-by-union-forces-rest-lowers-empty",
    "block-upper-covers-iff-rest-lower-empty",
    "block-lower-empty-iff-rest-upper-covers",
    "block-upper-covers-forces-other-lowers-empty",
    "all-uppers-cover-forces-all-lowers-empty",
    "union-lower-nonempty-forces-rest-uppers-proper",
    "block-lower-nonempty-iff-rest-uppers-union-proper",
    "block-upper-proper-iff-rest-lower-nonempty",
    "block-lower-nonempty-forces-other-uppers-proper",
    "all-lowers-nonempty-forces-all-uppers-proper",
)

MEASURE_LAWS = (
    "definable-forces-unit-accuracy",
    "definable-forces-serial",
    "definable-forces-unit-u-quality",
    "serial-unit-accuracy-forces-definable",
    "serial-measure-chain",
    "definable-forces-unit-v-quality-on-square",
)


@record
class LawInstance:
    """One evaluated law instance over concrete blocks."""

    law: str
    blocks: tuple[str, ...]
    hypothesis: bool
    conclusion: bool
    verdict: str


# A law instance's verdict, by (hypothesis, conclusion), for an implication
# and for a biconditional.
_IMPLIES = {(False, False): VACUOUS, (False, True): VACUOUS, (True, False): VIOLATED, (True, True): HOLDS}
_IFF = {(False, False): HOLDS, (False, True): VIOLATED, (True, False): VIOLATED, (True, True): HOLDS}


@record
class TheoremReport:
    """A batch of law instances with tallies, held as columns: instance i is
    ``LawInstance(laws[i], blocks[i], hypotheses[i], conclusions[i], verdicts[i])``.

    The ``LawInstance`` records are built only when read: ``entries`` builds
    them all on its first read, ``violations`` and ``by_law`` the ones they
    return.
    """

    laws: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]
    hypotheses: tuple[bool, ...]
    conclusions: tuple[bool, ...]
    verdicts: tuple[str, ...]

    def _columns(self) -> tuple[tuple, ...]:
        return self.laws, self.blocks, self.hypotheses, self.conclusions, self.verdicts

    def __add__(self, other: "TheoremReport") -> "TheoremReport":
        """This report's instances, then ``other``'s."""
        return _joined((self, other))

    @cached_property
    def entries(self) -> tuple[LawInstance, ...]:
        return tuple(map(LawInstance, *self._columns()))

    @property
    def ok(self) -> bool:
        return VIOLATED not in self.verdicts

    def tally(self) -> dict[str, int]:
        count = self.verdicts.count
        return {HOLDS: count(HOLDS), VIOLATED: count(VIOLATED), VACUOUS: count(VACUOUS)}

    def _where(self, column: tuple, value: str) -> tuple[LawInstance, ...]:
        """The instances whose item in ``column`` equals ``value``."""
        keep = list(map(eq, column, repeat(value)))
        return tuple(map(LawInstance, *(compress(c, keep) for c in self._columns())))

    def violations(self) -> tuple[LawInstance, ...]:
        return self._where(self.verdicts, VIOLATED)

    def by_law(self, law: str) -> tuple[LawInstance, ...]:
        return self._where(self.laws, law)


def _joined(reports: Iterable[TheoremReport]) -> TheoremReport:
    """The instances of ``reports``, in order, in one report."""
    columns = zip(*(report._columns() for report in reports))
    return TheoremReport(*(tuple(chain.from_iterable(column)) for column in columns))


def _law(
    law: str,
    table: dict,
    blocks: Sequence[tuple[str, ...]],
    hypotheses: Iterable[bool],
    conclusions: Iterable[bool],
) -> TheoremReport:
    """The instances of one law over ``blocks``, judged by ``table``
    (``_IMPLIES`` or ``_IFF``)."""
    hypotheses, conclusions = tuple(hypotheses), tuple(conclusions)
    verdicts = tuple(map(table.__getitem__, zip(hypotheses, conclusions)))
    return TheoremReport((law,) * len(verdicts), tuple(blocks), hypotheses, conclusions, verdicts)


def _checked_index_set(fa: FamilyApprox, index_set: Sequence[int]) -> tuple[int, ...]:
    idxs = tuple(sorted(set(index_set)))
    n = fa.classification.n
    if not idxs or len(idxs) >= n or idxs[0] < 0 or idxs[-1] >= n:
        raise BiroughError(
            f"index set {tuple(index_set)} must be a non-empty proper subset of range({n})"
        )
    return idxs


class _LawFacts:
    """What the family laws read of one family, for one evaluation over its index sets.

    Each index set is a position in four columns: ``names``, the chosen
    blocks' names, which every instance over the index set shares;
    ``unions``, the V-mask of their union (the other blocks unite to
    ``vmask ^ union``, since the blocks partition V); ``chosen``, the mask of
    their block indices; and ``rest_proper``, whether the uppers of the other
    blocks leave some of U uncovered, the blockwise route of the laws over
    the blocks' own uppers.
    ``has_lower`` and ``covers_u`` give, memoised by V-mask, whether a
    union's lower is non-empty and whether its upper covers U; both depend
    only on the set of rows, so they scan the distinct rows, in first-seen
    order, and build no U-mask.  Nothing here outlives the report that reads
    it.
    """

    def __init__(self, fa: FamilyApprox, index_sets: Iterable[Sequence[int]]):
        self.fa = fa
        rows = tuple(dict.fromkeys(fa.relation.rows))
        self.has_lower = cache(partial(lower_nonempty, rows))
        self.covers_u = cache(partial(upper_covers, rows))
        names = fa.classification.names
        bits = [1 << i for i in range(len(names))]
        every_block = (1 << len(names)) - 1
        index_sets = list(index_sets)
        self.names = [tuple(map(names.__getitem__, idxs)) for idxs in index_sets]
        self.chosen = [sum(map(bits.__getitem__, idxs)) for idxs in index_sets]
        self.unions = window_unions([block.bits for block in fa.classification.blocks], self.chosen)
        rest_uppers = window_unions(
            [upper.bits for upper in fa.uppers], [every_block ^ c for c in self.chosen]
        )
        self.rest_proper = list(map(fa.relation.umask.__ne__, rest_uppers))


def _dualities(facts: _LawFacts) -> tuple[TheoremReport, TheoremReport]:
    """The cover and the support duality instances of each index set."""
    has_lower = facts.has_lower
    vmask = facts.fa.relation.vmask
    cover = _law(
        COVER_DUALITY,
        _IFF,
        facts.names,
        map(facts.covers_u, facts.unions),
        [not has_lower(vmask ^ union) for union in facts.unions],
    )
    support = _law(SUPPORT_DUALITY, _IFF, facts.names, map(has_lower, facts.unions), facts.rest_proper)
    return cover, support


def cover_duality_check(fa: FamilyApprox, index_set: Sequence[int]) -> LawInstance:
    """Upper of the chosen union covers U iff lower of the rest is empty."""
    return _dualities(_LawFacts(fa, [_checked_index_set(fa, index_set)]))[0].entries[0]


def support_duality_check(fa: FamilyApprox, index_set: Sequence[int]) -> LawInstance:
    """Lower of the chosen union is non-empty iff the rest's uppers miss some of U."""
    return _dualities(_LawFacts(fa, [_checked_index_set(fa, index_set)]))[1].entries[0]


INDEX_SET_LIMIT = 12
INDEX_SET_SAMPLES = 32
INDEX_SET_SEED = 0


def proper_index_subsets(n: int) -> list[tuple[int, ...]]:
    """Non-empty proper subsets of range(n), lexicographically ordered.

    Full enumeration doubles with every block, so past ``INDEX_SET_LIMIT``
    blocks only singletons, their complements, and ``INDEX_SET_SAMPLES`` more
    seeded draws are kept.
    """
    if n <= INDEX_SET_LIMIT:
        return sorted(s for size in range(1, n) for s in combinations(range(n), size))
    rng = random.Random(f"{INDEX_SET_SEED}:index-subsets:{n}")
    draws = set()
    while len(draws) < INDEX_SET_SAMPLES:
        size = rng.randint(1, n - 1)
        draw = tuple(sorted(rng.sample(range(n), size)))
        # Every subset of size 1 or n - 1 is a singleton or a complement.
        if 1 < size < n - 1:
            draws.add(draw)
    # Slices of one tuple share its index objects, so the n complements
    # hold n * (n - 1) references, not as many ints.  In order, the
    # complement of i comes before that of i - 1 (it holds i - 1 where that
    # one holds i), and a singleton before the complements it is a prefix of:
    # (0,), the complements of n - 1 down to 1, (1,), (1, ..., n - 1), (2,),
    # ..., (n - 1,).  Merging the sorted draws into them compares no two of
    # the long complements.
    every = tuple(range(n))
    complements = (every[:i] + every[i + 1 :] for i in range(n - 1, 0, -1))
    skeleton = [every[:1], *complements, every[1:2], every[1:], *(every[i : i + 1] for i in range(2, n))]
    return list(merge(skeleton, sorted(draws)))


def duality_report(fa: FamilyApprox) -> TheoremReport:
    """Both duality biconditionals over every index subset."""
    cover, support = _dualities(_LawFacts(fa, proper_index_subsets(fa.classification.n)))
    return cover + support


def derived_laws_report(fa: FamilyApprox) -> TheoremReport:
    """Every derived implication/biconditional law, instance by instance."""
    facts = _LawFacts(fa, proper_index_subsets(fa.classification.n))
    return _joined(_derived_laws(facts))


def _derived_laws(facts: _LawFacts) -> list[TheoremReport]:
    """The derived laws' instances over ``facts``' index sets, all the proper
    ones, one report per law."""
    fa = facts.fa
    n = fa.classification.n
    has_lower, covers_u = facts.has_lower, facts.covers_u
    vmask = fa.relation.vmask
    names, unions, chosen = facts.names, facts.unions, facts.chosen
    # Blockwise facts: bit i is set when block i's lower is non-empty (lows)
    # or when block i's upper covers U (covers).
    lows = mask_of_flags([bool(lo) for lo in fa.lowers])
    covers = mask_of_flags([up.is_full for up in fa.uppers])
    every_block = (1 << n) - 1
    others_lower_empty = [not lows & ~c for c in chosen]
    others_upper_proper = [not covers & ~c for c in chosen]
    # Every singleton is a proper index set, in block order; its columns
    # (suffix 1) hold its names tuple, shared down to the report.
    single = [len(blocks) == 1 for blocks in names]
    names1, chosen1, rest_proper1, others_lower_empty1, others_upper_proper1 = (
        list(compress(column, single))
        for column in (names, chosen, facts.rest_proper, others_lower_empty, others_upper_proper)
    )
    rests1 = [vmask ^ union for union in compress(unions, single)]
    rest_has_lower1 = list(map(has_lower, rests1))
    lower_nonempty1 = [bool(lows & c) for c in chosen1]
    upper_covers1 = [bool(covers & c) for c in chosen1]
    reports = []

    law = "cover-by-union-forces-rest-lowers-empty"
    reports.append(_law(law, _IMPLIES, names, map(covers_u, unions), others_lower_empty))

    law = "block-upper-covers-iff-rest-lower-empty"
    reports.append(_law(law, _IFF, names1, upper_covers1, map(not_, rest_has_lower1)))

    law = "block-lower-empty-iff-rest-upper-covers"
    reports.append(_law(law, _IFF, names1, map(not_, lower_nonempty1), map(covers_u, rests1)))

    law = "block-upper-covers-forces-other-lowers-empty"
    reports.append(_law(law, _IMPLIES, names1, upper_covers1, others_lower_empty1))

    law = "all-uppers-cover-forces-all-lowers-empty"
    reports.append(_law(law, _IMPLIES, [()], [covers == every_block], [not lows]))

    law = "union-lower-nonempty-forces-rest-uppers-proper"
    reports.append(_law(law, _IMPLIES, names, map(has_lower, unions), others_upper_proper))

    law = "block-lower-nonempty-iff-rest-uppers-union-proper"
    reports.append(_law(law, _IFF, names1, lower_nonempty1, rest_proper1))

    law = "block-upper-proper-iff-rest-lower-nonempty"
    reports.append(_law(law, _IFF, names1, map(not_, upper_covers1), rest_has_lower1))

    law = "block-lower-nonempty-forces-other-uppers-proper"
    reports.append(_law(law, _IMPLIES, names1, lower_nonempty1, others_upper_proper1))

    law = "all-lowers-nonempty-forces-all-uppers-proper"
    reports.append(_law(law, _IMPLIES, [()], [lows == every_block], [not covers]))

    return reports


def family_law_report(fa: FamilyApprox) -> TheoremReport:
    """Duality biconditionals plus every derived law, in canonical order.

    Both read one ``_LawFacts``, so each fact and each index set's union is
    computed once, and the memos go when the report is returned."""
    facts = _LawFacts(fa, proper_index_subsets(fa.classification.n))
    return _joined((*_dualities(facts), *_derived_laws(facts)))


def measure_law_report(fa: FamilyApprox) -> TheoremReport:
    """The laws tying definability, seriality, accuracy, and quality together."""
    definable = fa.is_definable()
    serial = fa.relation.is_serial()
    try:
        alpha = fa.accuracy()
    except UndefinedMeasureError:
        alpha = None
    quality = fa.quality()
    square = fa.relation.u_size == fa.relation.v_size

    # (hypothesis, conclusion) of each law, in MEASURE_LAWS order.
    sides = (
        (definable, alpha == Fraction(1)),
        (definable, serial),
        (definable, quality.u_normalized == Fraction(1)),
        # Unit accuracy alone does not force definability: with a solitary
        # element the summed lower sizes can match the summed upper sizes
        # while the sets differ (rows 00|11 with singleton blocks gives
        # alpha = 1 on a non-definable family).  Seriality restores the
        # element-wise containment the conclusion needs.
        (serial and alpha is not None and alpha == Fraction(1), definable),
        (
            serial,
            alpha is not None and Fraction(0) <= alpha <= quality.u_normalized <= Fraction(1),
        ),
        (definable and square, quality.v_normalized == Fraction(1)),
    )
    return _joined(
        _law(law, _IMPLIES, [()], [hypothesis], [conclusion])
        for law, (hypothesis, conclusion) in zip(MEASURE_LAWS, sides)
    )
