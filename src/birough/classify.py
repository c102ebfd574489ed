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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .approx import lower_approximation, lower_bits, upper_approximation, upper_bits
from .relation import (
    BinaryRelation,
    BiroughError,
    Side,
    SideMismatchError,
    Subset,
    UniversePair,
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
    for (name_a, a), (name_b, b) in combinations(named_blocks, 2):
        common = a & b
        if common:
            violations.append(f"blocks {name_a!r} and {name_b!r} overlap on {common}")
    union = universes.empty(Side.V)
    for _, block in named_blocks:
        union = union | block
    missing = union.complement()
    if missing:
        violations.append(f"blocks do not cover {missing}")
    return violations


@dataclass(frozen=True)
class Classification:
    """A validated partition of V into more than one named block."""

    universes: UniversePair
    names: tuple[str, ...]
    blocks: tuple[Subset, ...]

    def __post_init__(self) -> None:
        violations = classification_violations(list(zip(self.names, self.blocks)))
        if violations:
            raise ClassificationError(violations)

    @property
    def n(self) -> int:
        return len(self.blocks)

    def named_blocks(self) -> tuple[tuple[str, Subset], ...]:
        return tuple(zip(self.names, self.blocks))


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


@dataclass(frozen=True)
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

    @cached_property
    def union_operators(self) -> tuple[Callable[[int], int], Callable[[int], int]]:
        """Memoised (lower, upper) kernels keyed by V-mask; the family laws
        approximate every union of blocks through this one pair."""
        rows = self.relation.rows
        return cache(partial(lower_bits, rows)), cache(partial(upper_bits, rows))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class LawInstance:
    """One evaluated law instance over concrete blocks."""

    law: str
    blocks: tuple[str, ...]
    hypothesis: bool
    conclusion: bool
    verdict: str


@dataclass(frozen=True)
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


def _check_index_set(fa: FamilyApprox, index_set: Sequence[int]) -> tuple[int, ...]:
    idxs = tuple(sorted(set(index_set)))
    n = fa.classification.n
    if not idxs or len(idxs) >= n or idxs[0] < 0 or idxs[-1] >= n:
        raise BiroughError(
            f"index set {tuple(index_set)} must be a non-empty proper subset of range({n})"
        )
    return idxs


def _union_bits(fa: FamilyApprox, idxs: Iterable[int]) -> int:
    # The blocks partition V, so the blocks outside idxs unite to vmask ^ this.
    out = 0
    for i in idxs:
        out |= fa.classification.blocks[i].bits
    return out


def _names(fa: FamilyApprox, idxs: Iterable[int]) -> tuple[str, ...]:
    return tuple(fa.classification.names[i] for i in idxs)


def cover_duality_check(fa: FamilyApprox, index_set: Sequence[int]) -> LawInstance:
    """Upper of the chosen union covers U iff lower of the rest is empty."""
    idxs = _check_index_set(fa, index_set)
    lower, upper = fa.union_operators
    union = _union_bits(fa, idxs)
    left = upper(union) == fa.relation.umask
    right = not lower(fa.relation.vmask ^ union)
    return _biconditional(COVER_DUALITY, _names(fa, idxs), left, right)


def support_duality_check(fa: FamilyApprox, index_set: Sequence[int]) -> LawInstance:
    """Lower of the chosen union is non-empty iff the rest's uppers miss some of U."""
    idxs = _check_index_set(fa, index_set)
    lower, _ = fa.union_operators
    left = bool(lower(_union_bits(fa, idxs)))
    rest_uppers = 0
    for j, up in enumerate(fa.uppers):
        if j not in idxs:
            rest_uppers |= up.bits
    right = rest_uppers != fa.relation.umask
    return _biconditional(SUPPORT_DUALITY, _names(fa, idxs), left, right)


def proper_index_subsets(
    n: int, *, limit: int = 12, samples: int = 32, seed: int = 0
) -> list[tuple[int, ...]]:
    """Non-empty proper subsets of range(n), lexicographically ordered.

    Full enumeration doubles with every block, so past ``limit`` blocks only
    singletons, their complements, and a seeded sample are kept.
    """
    if n <= limit:
        subsets: set[tuple[int, ...]] = set()
        for size in range(1, n):
            subsets.update(combinations(range(n), size))
        return sorted(subsets)
    picked: set[tuple[int, ...]] = set()
    for i in range(n):
        picked.add((i,))
        picked.add(tuple(j for j in range(n) if j != i))
    rng = random.Random(f"{seed}:index-subsets:{n}")
    while len(picked) < 2 * n + samples:
        size = rng.randint(1, n - 1)
        picked.add(tuple(sorted(rng.sample(range(n), size))))
    return sorted(picked)


def duality_report(fa: FamilyApprox, **budget: int) -> TheoremReport:
    """Both duality biconditionals over every index subset within budget."""
    index_sets = proper_index_subsets(fa.classification.n, **budget)
    return TheoremReport(
        tuple(cover_duality_check(fa, idxs) for idxs in index_sets)
        + tuple(support_duality_check(fa, idxs) for idxs in index_sets)
    )


def derived_laws_report(fa: FamilyApprox, **budget: int) -> TheoremReport:
    """Every derived implication/biconditional law, instance by instance."""
    n = fa.classification.n
    lowers, uppers = fa.lowers, fa.uppers
    blocks = fa.classification.blocks
    lower, upper = fa.union_operators
    umask, vmask = fa.relation.umask, fa.relation.vmask
    index_sets = proper_index_subsets(n, **budget)
    entries: list[LawInstance] = []

    law = "cover-by-union-forces-rest-lowers-empty"
    for idxs in index_sets:
        hyp = upper(_union_bits(fa, idxs)) == umask
        concl = all(not lowers[j] for j in range(n) if j not in idxs)
        entries.append(_implication(law, _names(fa, idxs), hyp, concl))

    law = "block-upper-covers-iff-rest-lower-empty"
    for i in range(n):
        left = uppers[i].is_full
        right = not lower(vmask ^ blocks[i].bits)
        entries.append(_biconditional(law, _names(fa, (i,)), left, right))

    law = "block-lower-empty-iff-rest-upper-covers"
    for i in range(n):
        left = not lowers[i]
        right = upper(vmask ^ blocks[i].bits) == umask
        entries.append(_biconditional(law, _names(fa, (i,)), left, right))

    law = "block-upper-covers-forces-other-lowers-empty"
    for i in range(n):
        hyp = uppers[i].is_full
        concl = all(not lowers[j] for j in range(n) if j != i)
        entries.append(_implication(law, _names(fa, (i,)), hyp, concl))

    law = "all-uppers-cover-forces-all-lowers-empty"
    hyp = all(up.is_full for up in uppers)
    concl = all(not lo for lo in lowers)
    entries.append(_implication(law, (), hyp, concl))

    law = "union-lower-nonempty-forces-rest-uppers-proper"
    for idxs in index_sets:
        hyp = bool(lower(_union_bits(fa, idxs)))
        concl = all(not uppers[j].is_full for j in range(n) if j not in idxs)
        entries.append(_implication(law, _names(fa, idxs), hyp, concl))

    law = "block-lower-nonempty-iff-rest-uppers-union-proper"
    for i in range(n):
        left = bool(lowers[i])
        rest_union = 0
        for j in range(n):
            if j != i:
                rest_union |= uppers[j].bits
        right = rest_union != umask
        entries.append(_biconditional(law, _names(fa, (i,)), left, right))

    law = "block-upper-proper-iff-rest-lower-nonempty"
    for i in range(n):
        left = not uppers[i].is_full
        right = bool(lower(vmask ^ blocks[i].bits))
        entries.append(_biconditional(law, _names(fa, (i,)), left, right))

    law = "block-lower-nonempty-forces-other-uppers-proper"
    for i in range(n):
        hyp = bool(lowers[i])
        concl = all(not uppers[j].is_full for j in range(n) if j != i)
        entries.append(_implication(law, _names(fa, (i,)), hyp, concl))

    law = "all-lowers-nonempty-forces-all-uppers-proper"
    hyp = all(bool(lo) for lo in lowers)
    concl = all(not up.is_full for up in uppers)
    entries.append(_implication(law, (), hyp, concl))

    return TheoremReport(tuple(entries))


def family_law_report(fa: FamilyApprox, **budget: int) -> TheoremReport:
    """Duality biconditionals plus every derived law, in canonical order."""
    return TheoremReport(
        duality_report(fa, **budget).entries + derived_laws_report(fa, **budget).entries
    )


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
