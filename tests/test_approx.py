from __future__ import annotations

import pytest
from hypothesis import given

from birough import (
    BinaryRelation,
    RoughType,
    SideMismatchError,
    Subset,
    Side,
    UniversePair,
    approximate,
    boundary,
    lower_approximation,
    lower_approximation_matrix,
    rough_type,
    upper_approximation,
    upper_approximation_from_columns,
)
from birough.lab import generate_relations
from naive import (
    matrix_of,
    naive_lower,
    naive_lower_minmax,
    naive_type,
    naive_upper,
    naive_upper_minmax,
)
from strategies import WIDE_U_SIZES, relation_and_subsets


def vset(universes, *labels):
    return universes.v_subset(labels)


class TestLower:
    def test_known_values(self, universes, sample):
        assert lower_approximation(sample, vset(universes, "y1", "y2", "y4")).labels() == ("x3",)
        assert lower_approximation(sample, vset(universes, "y3", "y5", "y6")).labels() == ("x2",)

    def test_empty_set_gives_solitary_set(self, universes, sample):
        assert not lower_approximation(sample, universes.empty(Side.V))
        up = UniversePair(("x1", "x2"), ("y1",))
        rel = BinaryRelation.from_rows(up, [[0], [1]])
        assert lower_approximation(rel, up.empty(Side.V)).labels() == ("x1",)

    def test_full_set_gives_whole_u(self, universes, sample):
        assert lower_approximation(sample, universes.full(Side.V)).is_full

    def test_solitary_elements_always_members(self):
        up = UniversePair(("x1", "x2"), ("y1", "y2"))
        rel = BinaryRelation.from_rows(up, [[0, 0], [1, 0]])
        for bits in range(4):
            assert "x1" in lower_approximation(rel, Subset(up, Side.V, bits))


class TestUpper:
    def test_known_values(self, universes, sample):
        assert upper_approximation(sample, vset(universes, "y1", "y2", "y4")).labels() == (
            "x1",
            "x3",
            "x4",
            "x5",
        )
        assert upper_approximation(sample, vset(universes, "y5")).labels() == ("x1", "x4", "x5")
        assert not upper_approximation(sample, universes.empty(Side.V))

    def test_singleton_equals_left_neighborhood(self, universes, sample):
        single = vset(universes, "y2")
        assert upper_approximation(sample, single) == sample.left_neighborhood("y2")
        assert upper_approximation(sample, single).labels() == ("x1", "x3", "x5")


class TestBoundaryAndTypes:
    def test_boundary_is_upper_minus_lower(self, universes, sample):
        assert boundary(sample, vset(universes, "y1", "y2", "y4")).labels() == ("x1", "x4", "x5")
        assert not boundary(sample, universes.empty(Side.V))
        assert not boundary(sample, universes.full(Side.V))

    @pytest.mark.parametrize(
        "labels, expected",
        [
            (("y1", "y2", "y4"), RoughType.ROUGHLY_DEFINABLE),
            (("y1",), RoughType.INTERNALLY_UNDEFINABLE),
            (("y2", "y3", "y4", "y6"), RoughType.EXTERNALLY_UNDEFINABLE),
            (("y1", "y2", "y6"), RoughType.TOTALLY_UNDEFINABLE),
        ],
    )
    def test_all_four_types_reachable(self, universes, sample, labels, expected):
        assert rough_type(sample, vset(universes, *labels)) is expected

    def test_type3_derived_sets(self, universes, sample):
        y = vset(universes, "y2", "y3", "y4", "y6")
        assert lower_approximation(sample, y).labels() == ("x2", "x3")
        assert upper_approximation(sample, y).is_full

    def test_approximate_bundle_consistent(self, universes, sample):
        result = approximate(sample, vset(universes, "y1", "y2", "y4"))
        assert result.boundary == result.upper - result.lower
        assert result.rough_type is RoughType.ROUGHLY_DEFINABLE

    def test_rough_type_parse(self):
        assert RoughType.parse("3") is RoughType.EXTERNALLY_UNDEFINABLE
        assert RoughType.parse("Type 1") is RoughType.ROUGHLY_DEFINABLE
        assert RoughType.parse("totally-undefinable") is RoughType.TOTALLY_UNDEFINABLE
        with pytest.raises(ValueError):
            RoughType.parse("type9")


class TestArgumentChecking:
    def test_u_side_subset_rejected(self, universes, sample):
        with pytest.raises(SideMismatchError):
            lower_approximation(sample, universes.u_subset(["x1"]))

    def test_foreign_universes_rejected(self, sample):
        other = UniversePair(("a",), ("y1", "y2", "y3", "y4", "y5", "y6"))
        with pytest.raises(SideMismatchError):
            upper_approximation(sample, other.v_subset(["y1"]))

    def test_non_subset_rejected(self, sample):
        with pytest.raises(SideMismatchError):
            rough_type(sample, {"y1"})


class TestStrategyAgreement:
    """Set form, matrix form, column union, and the scalar oracle must agree."""

    def _assert_agreement(self, rel):
        matrix = matrix_of(rel)
        for bits in range(1 << rel.v_size):
            y = Subset(rel.universes, Side.V, bits)
            idx = set(y.indices())
            lo = lower_approximation(rel, y)
            up = upper_approximation(rel, y)
            assert lo == lower_approximation_matrix(rel, y)
            assert up == upper_approximation_from_columns(rel, y)
            assert set(lo.indices()) == naive_lower(matrix, idx) == naive_lower_minmax(matrix, idx)
            assert set(up.indices()) == naive_upper(matrix, idx) == naive_upper_minmax(matrix, idx)
            assert int(rough_type(rel, y)) == naive_type(matrix, idx)

    @pytest.mark.parametrize("u,v", [(1, 1), (2, 2), (2, 3)])
    def test_exhaustive_small_models(self, u, v):
        for rel in generate_relations(u, v):
            self._assert_agreement(rel)

    def test_sample_relation(self, sample):
        self._assert_agreement(sample)

    @given(
        relation_and_subsets(count=1, max_u=7, max_v=7)
        | relation_and_subsets(count=1, max_v=7, u_sizes=WIDE_U_SIZES)
    )
    def test_random_relations(self, case):
        rel, (y,) = case
        matrix = matrix_of(rel)
        idx = set(y.indices())
        assert lower_approximation(rel, y) == lower_approximation_matrix(rel, y)
        assert upper_approximation(rel, y) == upper_approximation_from_columns(rel, y)
        assert set(lower_approximation(rel, y).indices()) == naive_lower(matrix, idx)
        assert set(upper_approximation(rel, y).indices()) == naive_upper(matrix, idx)
        assert int(rough_type(rel, y)) == naive_type(matrix, idx)


class TestAlgebraicShape:
    @given(relation_and_subsets(count=2, max_u=6, max_v=6))
    def test_duality(self, case):
        rel, (x, _) = case
        assert lower_approximation(rel, x).complement() == upper_approximation(rel, x.complement())
        assert upper_approximation(rel, x).complement() == lower_approximation(rel, x.complement())

    @given(relation_and_subsets(count=2, max_u=6, max_v=6))
    def test_monotonicity(self, case):
        rel, (a, b) = case
        small, big = a & b, a | b
        assert lower_approximation(rel, small) <= lower_approximation(rel, big)
        assert upper_approximation(rel, small) <= upper_approximation(rel, big)

    @given(relation_and_subsets(count=2, max_u=6, max_v=6))
    def test_distributivity(self, case):
        rel, (a, b) = case
        assert lower_approximation(rel, a & b) == lower_approximation(rel, a) & lower_approximation(rel, b)
        assert upper_approximation(rel, a | b) == upper_approximation(rel, a) | upper_approximation(rel, b)

    @given(relation_and_subsets(count=2, max_u=6, max_v=6))
    def test_sub_distributivity(self, case):
        rel, (a, b) = case
        assert (lower_approximation(rel, a) | lower_approximation(rel, b)) <= lower_approximation(rel, a | b)
        assert upper_approximation(rel, a & b) <= (upper_approximation(rel, a) & upper_approximation(rel, b))
