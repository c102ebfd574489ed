from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from birough import (
    BinaryRelation,
    Classification,
    ClassificationError,
    FamilyApprox,
    SideMismatchError,
    Side,
    Subset,
    UndefinedMeasureError,
    UniversePair,
    approximate_family,
    classification_violations,
    cover_duality_check,
    derived_laws_report,
    duality_report,
    family_law_report,
    measure_law_report,
    proper_index_subsets,
    support_duality_check,
    validate_classification,
)
from birough.classify import (
    COVER_DUALITY,
    HOLDS,
    INDEX_SET_SAMPLES,
    INDEX_SET_SEED,
    SUPPORT_DUALITY,
    VACUOUS,
    VIOLATED,
)
from birough.lab import canonical_universes, generate_relations
from naive import matrix_of, naive_lower, naive_upper
from strategies import WIDE_U_SIZES, relations


def classification_of(universes, **blocks):
    return validate_classification(
        [(name, universes.v_subset(labels)) for name, labels in blocks.items()]
    )


@pytest.fixture
def two_block(universes, sample):
    # lowers ({x3}, {x2}); uppers ({x1,x3,x4,x5}, {x1,x2,x4,x5})
    cls = classification_of(universes, Y1=("y1", "y2", "y4"), Y2=("y3", "y5", "y6"))
    return approximate_family(sample, cls)


@pytest.fixture
def totally_rough(universes, sample):
    # both lowers empty, both uppers cover U
    cls = classification_of(universes, Y1=("y1", "y2", "y6"), Y2=("y3", "y4", "y5"))
    return approximate_family(sample, cls)


@pytest.fixture
def three_block(universes, sample):
    cls = classification_of(universes, Y1=("y1", "y2", "y4"), Y2=("y3", "y6"), Y3=("y5",))
    return approximate_family(sample, cls)


def definable_2x3():
    up = UniversePair(("x1", "x2"), ("y1", "y2", "y3"))
    rel = BinaryRelation.from_rows(up, [[1, 0, 0], [0, 1, 1]])
    cls = validate_classification(
        [("Y1", up.v_subset(["y1"])), ("Y2", up.v_subset(["y2", "y3"]))]
    )
    return approximate_family(rel, cls)


def wide_u_3x2():
    up = UniversePair(("x1", "x2", "x3"), ("y1", "y2"))
    rel = BinaryRelation.from_rows(up, [[1, 0], [1, 0], [1, 0]])
    cls = validate_classification(
        [("Y1", up.v_subset(["y1"])), ("Y2", up.v_subset(["y2"]))]
    )
    return approximate_family(rel, cls)


class TestValidation:
    def test_valid_two_block_classification(self, universes):
        cls = classification_of(universes, Y1=("y1", "y2", "y6"), Y2=("y3", "y4", "y5"))
        assert cls.n == 2 and cls.names == ("Y1", "Y2")

    def test_overlap_names_blocks_and_element(self, universes):
        blocks = [
            ("Y1", universes.v_subset(["y1"])),
            ("Y2", universes.v_subset(["y1", "y2", "y3", "y4", "y5", "y6"])),
        ]
        violations = classification_violations(blocks)
        assert any("overlap" in v and "y1" in v for v in violations)
        with pytest.raises(ClassificationError):
            validate_classification(blocks)

    def test_single_block_rejected(self, universes):
        blocks = [("Y1", universes.full(Side.V))]
        assert any("more than one block" in v for v in classification_violations(blocks))

    def test_empty_block_and_gap_reported_together(self, universes):
        blocks = [
            ("Y1", universes.v_subset(["y1"])),
            ("Y2", universes.empty(Side.V)),
        ]
        violations = classification_violations(blocks)
        assert any("'Y2' is empty" in v for v in violations)
        assert any("do not cover" in v for v in violations)

    def test_no_blocks(self):
        assert classification_violations([]) == ["no blocks supplied"]
        with pytest.raises(ClassificationError):
            validate_classification([])

    def test_duplicate_names(self, universes):
        blocks = [
            ("Y1", universes.v_subset(["y1", "y2", "y3"])),
            ("Y1", universes.v_subset(["y4", "y5", "y6"])),
        ]
        assert any("duplicate block name" in v for v in classification_violations(blocks))

    def test_u_side_block_raises_type_error(self, universes):
        with pytest.raises(SideMismatchError):
            classification_violations([("Y1", universes.u_subset(["x1"]))])

    def test_blocks_over_other_universes_rejected(self):
        blocks_over = canonical_universes(2, 2)
        blocks = (blocks_over.v_subset(["y1"]), blocks_over.v_subset(["y2"]))
        Classification(blocks_over, ("Y1", "Y2"), blocks)
        with pytest.raises(SideMismatchError):
            Classification(canonical_universes(1, 2), ("Y1", "Y2"), blocks)


class TestFamilyApprox:
    def test_two_block_family(self, two_block):
        assert [s.labels() for s in two_block.lowers] == [("x3",), ("x2",)]
        assert [s.labels() for s in two_block.uppers] == [
            ("x1", "x3", "x4", "x5"),
            ("x1", "x2", "x4", "x5"),
        ]

    def test_totally_rough_family(self, totally_rough):
        assert all(not lo for lo in totally_rough.lowers)
        assert all(up.is_full for up in totally_rough.uppers)

    def test_three_block_family(self, three_block):
        assert three_block.lowers[1].labels() == ("x2",)
        assert three_block.uppers[1].labels() == ("x2", "x4")
        assert three_block.uppers[0].labels() == ("x1", "x3", "x4", "x5")
        assert three_block.uppers[2].labels() == ("x1", "x4", "x5")

    def test_universe_mismatch(self, sample):
        other = UniversePair(("x1",), ("y1", "y2"))
        cls = validate_classification(
            [("A", other.v_subset(["y1"])), ("B", other.v_subset(["y2"]))]
        )
        with pytest.raises(SideMismatchError):
            approximate_family(sample, cls)


class TestMeasures:
    def test_accuracy(self, two_block, totally_rough):
        assert two_block.accuracy() == Fraction(1, 4)
        assert totally_rough.accuracy() == Fraction(0)

    def test_quality_both_normalizations(self, two_block, totally_rough):
        q = two_block.quality()
        assert q.v_normalized == Fraction(1, 3)
        assert q.u_normalized == Fraction(2, 5)
        q0 = totally_rough.quality()
        assert q0.v_normalized == 0 and q0.u_normalized == 0

    def test_definable_family_has_unit_accuracy(self):
        fa = definable_2x3()
        assert fa.is_definable()
        assert fa.accuracy() == Fraction(1)
        # the v-normalized quality disagrees with 1 because |U| != |V|
        assert fa.quality().v_normalized == Fraction(2, 3)
        assert fa.quality().u_normalized == Fraction(1)

    def test_quality_can_exceed_one_when_u_larger(self):
        fa = wide_u_3x2()
        assert fa.quality().v_normalized == Fraction(3, 2)
        assert fa.quality().u_normalized == Fraction(1)
        assert fa.is_definable() and fa.accuracy() == Fraction(1)

    def test_sample_family_not_definable(self, two_block):
        assert not two_block.is_definable()

    def test_solitary_element_blocks_definability(self):
        up = UniversePair(("x1", "x2"), ("y1", "y2"))
        rel = BinaryRelation.from_rows(up, [[0, 0], [1, 1]])
        cls = validate_classification(
            [("A", up.v_subset(["y1"])), ("B", up.v_subset(["y2"]))]
        )
        assert not approximate_family(rel, cls).is_definable()

    def test_accuracy_undefined_only_for_all_zero_relation(self):
        up = UniversePair(("x1", "x2"), ("y1", "y2"))
        rel = BinaryRelation.from_rows(up, [[0, 0], [0, 0]])
        cls = validate_classification(
            [("A", up.v_subset(["y1"])), ("B", up.v_subset(["y2"]))]
        )
        fa = approximate_family(rel, cls)
        with pytest.raises(UndefinedMeasureError):
            fa.accuracy()


class TestIndexSubsets:
    def test_small_enumeration_is_lexicographic(self):
        assert proper_index_subsets(3) == [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]

    def test_large_n_keeps_singletons_and_complements(self):
        subsets = proper_index_subsets(20)
        for i in range(20):
            assert (i,) in subsets
            assert tuple(j for j in range(20) if j != i) in subsets
        assert subsets == sorted(subsets)

    @pytest.mark.parametrize("n", [13, 14, 100, 1000])
    def test_large_n_order_is_the_sorted_picks(self, n):
        # The picks as first written: singletons, complements and seeded
        # draws in one set until 2n + INDEX_SET_SAMPLES distinct, sorted.
        every = tuple(range(n))
        picked = {every[i : i + 1] for i in range(n)} | {every[:i] + every[i + 1 :] for i in range(n)}
        rng = random.Random(f"{INDEX_SET_SEED}:index-subsets:{n}")
        while len(picked) < 2 * n + INDEX_SET_SAMPLES:
            size = rng.randint(1, n - 1)
            picked.add(tuple(sorted(rng.sample(range(n), size))))
        assert proper_index_subsets(n) == sorted(picked)


class TestDualityChecks:
    def test_totally_rough_instance_both_sides_true(self, totally_rough):
        entry = cover_duality_check(totally_rough, (0,))
        assert entry.hypothesis and entry.conclusion and entry.verdict == HOLDS

    def test_two_block_instance_both_sides_false(self, two_block):
        entry = cover_duality_check(two_block, (0,))
        assert not entry.hypothesis and not entry.conclusion and entry.verdict == HOLDS

    def test_support_duality_instances(self, two_block, totally_rough):
        entry = support_duality_check(two_block, (0,))
        assert entry.hypothesis and entry.conclusion and entry.verdict == HOLDS
        entry = support_duality_check(totally_rough, (0,))
        assert not entry.hypothesis and not entry.conclusion and entry.verdict == HOLDS

    def test_bad_index_sets_rejected(self, two_block):
        for bad in ((), (0, 1), (5,)):
            with pytest.raises(Exception):
                cover_duality_check(two_block, bad)

    def test_exhaustive_2x2_never_violated(self):
        for rel in generate_relations(2, 2):
            cls = validate_classification(
                [
                    ("B1", rel.universes.v_subset([0])),
                    ("B2", rel.universes.v_subset([1])),
                ]
            )
            fa = approximate_family(rel, cls)
            report = duality_report(fa)
            assert report.ok

    def test_sampled_larger_models_never_violated(self):
        from birough import random_campaign

        for rel in random_campaign(60, max_u=8, max_v=8, min_v=2, seed=47):
            half = rel.universes.v_subset(range((rel.v_size + 1) // 2))
            fa = approximate_family(
                rel,
                validate_classification([("A", half), ("B", half.complement())]),
            )
            assert duality_report(fa).ok
            assert derived_laws_report(fa).ok


class TestDerivedLaws:
    def test_verified_cover_instance(self, universes, sample):
        # upper(Y1) covers U, so the other blocks must have empty lowers
        cls = classification_of(universes, Y1=("y2", "y3", "y5"), Y2=("y1", "y4"), Y3=("y6",))
        fa = approximate_family(sample, cls)
        report = derived_laws_report(fa)
        entry = next(
            e
            for e in report.by_law("block-upper-covers-forces-other-lowers-empty")
            if e.blocks == ("Y1",)
        )
        assert entry.hypothesis and entry.verdict == HOLDS

    def test_verified_all_lowers_instance(self, two_block):
        report = derived_laws_report(two_block)
        (entry,) = report.by_law("all-lowers-nonempty-forces-all-uppers-proper")
        assert entry.hypothesis and entry.verdict == HOLDS

    def test_verified_support_instance(self, three_block):
        report = derived_laws_report(three_block)
        entry = next(
            e
            for e in report.by_law("block-lower-nonempty-forces-other-uppers-proper")
            if e.blocks == ("Y2",)
        )
        assert entry.hypothesis and entry.verdict == HOLDS

    def test_vacuous_is_distinguished(self, two_block):
        report = derived_laws_report(two_block)
        entry = next(
            e
            for e in report.by_law("block-upper-covers-forces-other-lowers-empty")
            if e.blocks == ("Y1",)
        )
        assert not entry.hypothesis and entry.verdict == VACUOUS

    def test_family_report_has_no_violations(self, two_block, totally_rough, three_block):
        for fa in (two_block, totally_rough, three_block):
            assert family_law_report(fa).ok

    @pytest.mark.parametrize("k", [3, 13, 70])
    def test_reports_alone_match_the_family_report(self, k):
        # Each part, with the facts it builds for itself, gives the entries
        # the family report gives; the family holds only its fields after.
        rng = random.Random(k)
        v = k + 2
        rel = BinaryRelation(canonical_universes(6, v), tuple(rng.getrandbits(v) for _ in range(6)))
        named = [
            (f"B{i}", Subset(rel.universes, Side.V, sum(1 << j for j in block)))
            for i, block in enumerate(seeded_partition(v, k, k))
        ]
        fa = approximate_family(rel, validate_classification(named))
        entries = family_law_report(fa).entries
        assert set(vars(fa)) == {"relation", "classification", "lowers", "uppers"}
        assert duality_report(fa).entries + derived_laws_report(fa).entries == entries
        assert set(vars(fa)) == {"relation", "classification", "lowers", "uppers"}


def seeded_partition(v_size: int, k: int, seed: int) -> list[set[int]]:
    """V split into k non-empty blocks: a seeded shuffle cut at k - 1 places."""
    rng = random.Random(seed)
    order = rng.sample(range(v_size), v_size)
    cuts = sorted(rng.sample(range(1, v_size), k - 1))
    return [set(order[a:b]) for a, b in zip([0, *cuts], [*cuts, v_size])]


@st.composite
def wide_families(draw, block_counts=(13, 70)):
    """(relation, k) with k drawn from ``block_counts``: by default 13 blocks
    (sampled index sets) or 70 (block masks wider than a machine word); each
    row holds a few columns or all but a few, so blocks with non-empty lowers
    and blocks with covering uppers both occur."""
    k = draw(st.sampled_from(block_counts))
    v = draw(st.integers(k, k + 3))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        few = sum(1 << j for j in draw(st.sets(st.integers(0, v - 1), max_size=3)))
        rows.append(few ^ ((1 << v) - 1) if draw(st.booleans()) else few)
    return BinaryRelation(canonical_universes(len(rows), v), tuple(rows)), k


@st.composite
def faults(draw, family):
    """(block, side, flip): the U-elements in ``flip`` toggled in one block's
    lower or upper approximation."""
    rel, k = family
    flip = draw(st.integers(1, rel.universes.full_mask(Side.U)))
    return draw(st.integers(0, k - 1)), draw(st.sampled_from(["lower", "upper"])), flip


class TestFamilyLawOracle:
    """Both sides of every family-law instance, recomputed from naive sets."""

    @given(relations(max_u=5, max_v=6), st.integers(2, 4), st.integers(0, 2**32))
    def test_every_side_matches_naive_sets(self, rel, k, seed):
        assume(rel.v_size >= 2)
        self.check(rel, min(k, rel.v_size), seed)

    @settings(max_examples=30, deadline=None)
    @given(wide_families(), st.integers(0, 2**32))
    def test_past_full_enumeration_and_word_width(self, family, seed):
        self.check(*family, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        wide_families([7, 8, 9, *range(13, 21)]).flatmap(
            lambda family: st.tuples(st.just(family), faults(family))
        ),
        st.integers(0, 2**32),
    )
    def test_faulted_block_on_either_side_of_a_window_edge(self, faulted, seed):
        # One block's lower or upper is wrong, so the blockwise side of the
        # laws reads sets that no relation gives: each verdict must still be
        # the one the naive sets give, with 7-9 and 16-17 blocks around the
        # 8-block window edges and 13-20 blocks on the sampled index sets.
        family, fault = faulted
        self.check(*family, seed, fault)

    @settings(max_examples=30, deadline=None)
    @given(
        relations(max_v=6, u_sizes=WIDE_U_SIZES), st.integers(2, 4), st.integers(0, 2**32)
    )
    def test_tall_relations_with_repeated_rows(self, rel, k, seed):
        # at most 64 distinct rows, so a tall relation repeats rows, and |U|
        # crosses SHIFT_WIDTH
        assume(rel.v_size >= 2)
        self.check(rel, min(k, rel.v_size), seed)

    @given(
        relations(max_u=6, max_v=6),
        st.integers(2, 4),
        st.integers(0, 2**32),
        st.lists(st.integers(0, 5), max_size=8),
    )
    def test_laws_depend_only_on_the_set_of_rows(self, rel, k, seed, repeats):
        # permuting the rows and repeating some of them leaves every instance as it was
        assume(rel.v_size >= 2)
        k = min(k, rel.v_size)
        blocks = seeded_partition(rel.v_size, k, seed)
        rows = list(rel.rows) + [rel.rows[i % rel.u_size] for i in repeats]
        random.Random(seed).shuffle(rows)
        other = BinaryRelation(canonical_universes(len(rows), rel.v_size), tuple(rows))

        def entries(r):
            cls = validate_classification(
                [(f"B{i}", r.universes.v_subset(block)) for i, block in enumerate(blocks)]
            )
            return family_law_report(approximate_family(r, cls)).entries

        assert entries(other) == entries(rel)

    @staticmethod
    def check(rel, k, seed, fault=None):
        """Compare every instance with the naive sets; ``fault`` = (block, side,
        flip) toggles the U-elements in ``flip`` in that block's lower or upper,
        in the family and in the naive sets alike."""
        blocks = seeded_partition(rel.v_size, k, seed)
        names = [f"B{i}" for i in range(k)]
        cls = validate_classification(
            [(name, rel.universes.v_subset(block)) for name, block in zip(names, blocks)]
        )
        fa = approximate_family(rel, cls)
        matrix = matrix_of(rel)
        full = set(range(rel.u_size))
        block_lo = [naive_lower(matrix, block) for block in blocks]
        block_up = [naive_upper(matrix, block) for block in blocks]
        if fault is not None:
            b, side, flip = fault
            sets = {"lower": list(fa.lowers), "upper": list(fa.uppers)}
            sets[side][b] = Subset(rel.universes, Side.U, sets[side][b].bits ^ flip)
            fa = FamilyApprox(rel, cls, tuple(sets["lower"]), tuple(sets["upper"]))
            naive_sets = block_lo if side == "lower" else block_up
            naive_sets[b] = naive_sets[b] ^ {i for i in full if flip >> i & 1}

        def union(ids):
            return set().union(*(blocks[i] for i in ids))

        def lo(ids):
            return naive_lower(matrix, union(ids))

        def up(ids):
            return naive_upper(matrix, union(ids))

        def each_lo(ids):
            return [block_lo[i] for i in ids]

        def each_up(ids):
            return [block_up[i] for i in ids]

        def each_covers(ids):
            return all(u == full for u in each_up(ids))

        # (hypothesis, conclusion) of each law for chosen blocks s and the
        # rest r; a law over one block reads that block's own sets
        oracle = {
            COVER_DUALITY: lambda s, r: (up(s) == full, not lo(r)),
            SUPPORT_DUALITY: lambda s, r: (bool(lo(s)), set().union(*each_up(r)) != full),
            "cover-by-union-forces-rest-lowers-empty":
                lambda s, r: (up(s) == full, not any(each_lo(r))),
            "block-upper-covers-iff-rest-lower-empty":
                lambda s, r: (each_covers(s), not lo(r)),
            "block-lower-empty-iff-rest-upper-covers":
                lambda s, r: (not any(each_lo(s)), up(r) == full),
            "block-upper-covers-forces-other-lowers-empty":
                lambda s, r: (each_covers(s), not any(each_lo(r))),
            "all-uppers-cover-forces-all-lowers-empty":
                lambda s, r: (each_covers(r), not any(each_lo(r))),
            "union-lower-nonempty-forces-rest-uppers-proper":
                lambda s, r: (bool(lo(s)), all(u != full for u in each_up(r))),
            "block-lower-nonempty-iff-rest-uppers-union-proper":
                lambda s, r: (all(each_lo(s)), set().union(*each_up(r)) != full),
            "block-upper-proper-iff-rest-lower-nonempty":
                lambda s, r: (not each_covers(s), bool(lo(r))),
            "block-lower-nonempty-forces-other-uppers-proper":
                lambda s, r: (all(each_lo(s)), all(u != full for u in each_up(r))),
            "all-lowers-nonempty-forces-all-uppers-proper":
                lambda s, r: (all(each_lo(r)), all(u != full for u in each_up(r))),
        }

        report = family_law_report(fa)
        assert len(report.entries) == 4 * len(proper_index_subsets(k)) + 6 * k + 2
        position = {name: i for i, name in enumerate(names)}
        for entry in report.entries:
            chosen = [position[name] for name in entry.blocks]
            rest = sorted(set(range(k)).difference(chosen))
            hypothesis, conclusion = oracle[entry.law](chosen, rest)
            if "-iff-" in entry.law:
                verdict = HOLDS if hypothesis == conclusion else VIOLATED
            elif hypothesis:
                verdict = HOLDS if conclusion else VIOLATED
            else:
                verdict = VACUOUS
            assert (entry.hypothesis, entry.conclusion, entry.verdict) == (
                hypothesis, conclusion, verdict
            ), entry
        if fault is None:
            assert report.ok


class TestMeasureLaws:
    def test_definable_family(self):
        report = measure_law_report(definable_2x3())
        tally = report.tally()
        assert tally[VIOLATED] == 0
        by = {e.law: e for e in report.entries}
        assert by["definable-forces-unit-accuracy"].verdict == HOLDS
        assert by["definable-forces-serial"].verdict == HOLDS
        assert by["definable-forces-unit-u-quality"].verdict == HOLDS
        assert by["serial-unit-accuracy-forces-definable"].verdict == HOLDS
        # not square, so the v-quality claim is not exercised
        assert by["definable-forces-unit-v-quality-on-square"].verdict == VACUOUS

    def test_unit_accuracy_without_seriality_is_not_definability(self):
        # rows 00|11: the solitary x1 sits in every lower approximation, so
        # both measures reach 1 on singleton blocks without the family being
        # definable; only the serial variant of the implication is a law.
        up = UniversePair(("x1", "x2"), ("y1", "y2"))
        rel = BinaryRelation.from_rows(up, [[0, 0], [1, 1]])
        cls = validate_classification(
            [("A", up.v_subset(["y1"])), ("B", up.v_subset(["y2"]))]
        )
        fa = approximate_family(rel, cls)
        assert fa.accuracy() == Fraction(1)
        assert fa.quality().v_normalized == Fraction(1)
        assert not fa.is_definable() and not rel.is_serial()
        assert measure_law_report(fa).ok

    def test_serial_chain_on_sample(self, two_block):
        report = measure_law_report(two_block)
        by = {e.law: e for e in report.entries}
        assert by["serial-measure-chain"].verdict == HOLDS
        assert report.ok

    @given(relations(max_u=5, max_v=5))
    def test_measure_laws_never_violated(self, rel):
        if rel.v_size < 2:
            return
        half = rel.universes.v_subset(range(rel.v_size // 2 or 1))
        cls = validate_classification(
            [("A", half), ("B", half.complement())]
        )
        if not half or not half.complement():
            return
        fa = approximate_family(rel, cls)
        assert measure_law_report(fa).ok
