"""Classifications of V, family approximations, and quality measures.

A classification is a validated partition of V into at least two named,
non-empty, pairwise-disjoint blocks.  Approximating every block gives a
family approximation, from which the accuracy and quality measures are
computed as exact rationals.

The family-law checkers evaluate, instance by instance, the duality
biconditionals and the derived implication laws that relate "some union of
blocks has a covering upper approximation" to "the remaining blocks have
empty lower approximations" (and their duals).  Each evaluated instance is
reported as holds, violated, or vacuous.

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
from functools import cache, partial
from heapq import merge
from itertools import combinations
from typing import Iterable, Sequence

from .approx import (
    lower_approximation,
    lower_nonempty,
    upper_approximation,
    upper_covers,
)
from .relation import (
    BinaryRelation,
    BiroughError,
    Side,
    SideMismatchError,
    Subset,
    UniversePair,
    mask_of_flags,
    record,
    window_unions,
)

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


def approximate_family(rel: BinaryRelation, classification: Classification) -> FamilyApprox:
    """Approximate every block of a classification under one relation."""
    if classification.universes != rel.universes:
        raise SideMismatchError("classification and relation universes differ")
    lowers = tuple(lower_approximation(rel, block) for block in classification.blocks)
    uppers = tuple(upper_approximation(rel, block) for block in classification.blocks)
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


@record
class TheoremReport:
    """A batch of law instances with tallies."""

    entries: tuple[LawInstance, ...]

    @property
    def ok(self) -> bool:
        return all(e.verdict != VIOLATED for e in self.entries)

    def tally(self) -> dict[str, int]:
        counts = {HOLDS: 0, VIOLATED: 0, VACUOUS: 0}
        for e in self.entries:
            counts[e.verdict] += 1
        return counts

    def violations(self) -> tuple[LawInstance, ...]:
        return tuple(e for e in self.entries if e.verdict == VIOLATED)

    def by_law(self, law: str) -> tuple[LawInstance, ...]:
        return tuple(e for e in self.entries if e.law == law)


def _biconditional(law: str, blocks: tuple[str, ...], left: bool, right: bool) -> LawInstance:
    return LawInstance(law, blocks, left, right, HOLDS if left == right else VIOLATED)


def _implication(law: str, blocks: tuple[str, ...], hyp: bool, concl: bool) -> LawInstance:
    if not hyp:
        return LawInstance(law, blocks, hyp, concl, VACUOUS)
    return LawInstance(law, blocks, hyp, concl, HOLDS if concl else VIOLATED)


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

    ``index_sets`` holds (names, union, chosen, rest_proper) for each index
    set: the chosen blocks' names, the V-mask of their union (the other
    blocks unite to ``vmask ^ union``, since the blocks partition V), the
    mask of their block indices, and whether the uppers of the other blocks
    leave some of U uncovered, the blockwise route of the laws over the
    blocks' own uppers.
    Every entry over one index set holds its one names tuple.  ``has_lower``
    and ``covers_u`` give, memoised by V-mask, whether a union's lower is
    non-empty and whether its upper covers U; both depend only on the set of
    rows, so they scan the distinct rows, in first-seen order, and build no
    U-mask.  Nothing here outlives the report that reads it.
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
        chosen = [sum(map(bits.__getitem__, idxs)) for idxs in index_sets]
        unions = window_unions([block.bits for block in fa.classification.blocks], chosen)
        rest_uppers = window_unions(
            [upper.bits for upper in fa.uppers], [every_block ^ c for c in chosen]
        )
        umask = fa.relation.umask
        self.index_sets = [
            (tuple(map(names.__getitem__, idxs)), union, c, rest_upper != umask)
            for idxs, union, c, rest_upper in zip(index_sets, unions, chosen, rest_uppers)
        ]


def _dualities(facts: _LawFacts) -> tuple[list[LawInstance], list[LawInstance]]:
    """The cover and the support duality instances of each index set."""
    has_lower, covers_u = facts.has_lower, facts.covers_u
    vmask = facts.fa.relation.vmask
    cover, support = [], []
    for names, union, _, rest_proper in facts.index_sets:
        right = not has_lower(vmask ^ union)
        cover.append(_biconditional(COVER_DUALITY, names, covers_u(union), right))
        support.append(_biconditional(SUPPORT_DUALITY, names, has_lower(union), rest_proper))
    return cover, support


def cover_duality_check(fa: FamilyApprox, index_set: Sequence[int]) -> LawInstance:
    """Upper of the chosen union covers U iff lower of the rest is empty."""
    return _dualities(_LawFacts(fa, [_checked_index_set(fa, index_set)]))[0][0]


def support_duality_check(fa: FamilyApprox, index_set: Sequence[int]) -> LawInstance:
    """Lower of the chosen union is non-empty iff the rest's uppers miss some of U."""
    return _dualities(_LawFacts(fa, [_checked_index_set(fa, index_set)]))[1][0]


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
    return TheoremReport(tuple(cover + support))


def derived_laws_report(fa: FamilyApprox) -> TheoremReport:
    """Every derived implication/biconditional law, instance by instance."""
    facts = _LawFacts(fa, proper_index_subsets(fa.classification.n))
    return TheoremReport(tuple(_derived_laws(facts)))


def _derived_laws(facts: _LawFacts) -> list[LawInstance]:
    """The derived laws' instances over ``facts``' index sets, all the proper ones."""
    fa = facts.fa
    n = fa.classification.n
    index_sets = facts.index_sets
    has_lower, covers_u = facts.has_lower, facts.covers_u
    vmask = fa.relation.vmask
    # Every singleton is a proper index set, in block order; sharing its
    # entry shares its names tuple, down to the report.
    singles = [s for s in index_sets if len(s[0]) == 1]
    # Blockwise facts: bit i is set when block i's lower is non-empty (lows)
    # or when block i's upper covers U (covers).
    lows = mask_of_flags([bool(lo) for lo in fa.lowers])
    covers = mask_of_flags([up.is_full for up in fa.uppers])
    every_block = (1 << n) - 1
    entries: list[LawInstance] = []

    law = "cover-by-union-forces-rest-lowers-empty"
    for names, union, chosen, _ in index_sets:
        entries.append(_implication(law, names, covers_u(union), not lows & ~chosen))

    law = "block-upper-covers-iff-rest-lower-empty"
    for names, union, chosen, _ in singles:
        right = not has_lower(vmask ^ union)
        entries.append(_biconditional(law, names, bool(covers & chosen), right))

    law = "block-lower-empty-iff-rest-upper-covers"
    for names, union, chosen, _ in singles:
        entries.append(_biconditional(law, names, not lows & chosen, covers_u(vmask ^ union)))

    law = "block-upper-covers-forces-other-lowers-empty"
    for names, _, chosen, _ in singles:
        entries.append(_implication(law, names, bool(covers & chosen), not lows & ~chosen))

    law = "all-uppers-cover-forces-all-lowers-empty"
    entries.append(_implication(law, (), covers == every_block, not lows))

    law = "union-lower-nonempty-forces-rest-uppers-proper"
    for names, union, chosen, _ in index_sets:
        entries.append(_implication(law, names, has_lower(union), not covers & ~chosen))

    law = "block-lower-nonempty-iff-rest-uppers-union-proper"
    for names, _, chosen, rest_proper in singles:
        entries.append(_biconditional(law, names, bool(lows & chosen), rest_proper))

    law = "block-upper-proper-iff-rest-lower-nonempty"
    for names, union, chosen, _ in singles:
        entries.append(_biconditional(law, names, not covers & chosen, has_lower(vmask ^ union)))

    law = "block-lower-nonempty-forces-other-uppers-proper"
    for names, _, chosen, _ in singles:
        entries.append(_implication(law, names, bool(lows & chosen), not covers & ~chosen))

    law = "all-lowers-nonempty-forces-all-uppers-proper"
    entries.append(_implication(law, (), lows == every_block, not covers))

    return entries


def family_law_report(fa: FamilyApprox) -> TheoremReport:
    """Duality biconditionals plus every derived law, in canonical order.

    Both read one ``_LawFacts``, so each fact and each index set's union is
    computed once, and the memos go when the report is returned."""
    facts = _LawFacts(fa, proper_index_subsets(fa.classification.n))
    cover, support = _dualities(facts)
    return TheoremReport((*cover, *support, *_derived_laws(facts)))


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

    entries = (
        _implication(
            "definable-forces-unit-accuracy", (), definable, alpha == Fraction(1)
        ),
        _implication("definable-forces-serial", (), definable, serial),
        _implication(
            "definable-forces-unit-u-quality",
            (),
            definable,
            quality.u_normalized == Fraction(1),
        ),
        # Unit accuracy alone does not force definability: with a solitary
        # element the summed lower sizes can match the summed upper sizes
        # while the sets differ (rows 00|11 with singleton blocks gives
        # alpha = 1 on a non-definable family).  Seriality restores the
        # element-wise containment the conclusion needs.
        _implication(
            "serial-unit-accuracy-forces-definable",
            (),
            serial and alpha is not None and alpha == Fraction(1),
            definable,
        ),
        _implication(
            "serial-measure-chain",
            (),
            serial,
            alpha is not None
            and Fraction(0) <= alpha <= quality.u_normalized <= Fraction(1),
        ),
        _implication(
            "definable-forces-unit-v-quality-on-square",
            (),
            definable and square,
            quality.v_normalized == Fraction(1),
        ),
    )
    return TheoremReport(entries)
