from __future__ import annotations

import dataclasses
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birough import (
    BinaryRelation,
    DimensionError,
    Partition,
    PartitionError,
    Side,
    SideMismatchError,
    Subset,
    UniverseError,
    UniversePair,
    UnknownLabelError,
)
from birough.approx import ApproxResult, RoughType
from birough.classify import (
    Classification,
    ClassificationError,
    FamilyApprox,
    LawInstance,
    Quality,
    TheoremReport,
)
from birough.campaign import LawRecord, PropertyReport, Violation
from birough.formats import AnalysisReport, build_neighbors_report
from birough.lab import TableCellFinding, Witness, canonical_universes
from birough.relation import (
    mask_of_indices,
    pack_lanes,
    subset_unions,
    transpose,
    unpack_lanes,
    window_unions,
)
from conftest import SAMPLE_MATRIX
from naive import (
    matrix_of,
    naive_label_ok,
    naive_left,
    naive_quotients,
    naive_saturation_holds,
    naive_solitary,
    right_sets,
)
from strategies import WIDE_U_SIZES, relations

# Small relations, or |U| on both sides of the U-mask kernels' cut-over.
ANY_RELATION = relations() | relations(u_sizes=WIDE_U_SIZES, max_v=4)


class TestUniversePair:
    def test_rejects_empty_side(self):
        with pytest.raises(UniverseError):
            UniversePair((), ("y1",))
        with pytest.raises(UniverseError):
            UniversePair(("x1",), ())

    @pytest.mark.parametrize("bad", ["", "a b", "a:b", "a\tb", 7])
    def test_rejects_bad_labels(self, bad):
        with pytest.raises(UniverseError):
            UniversePair(("x1", bad), ("y1",))

    def test_rejects_duplicates_within_side(self):
        with pytest.raises(UniverseError, match="duplicate"):
            UniversePair(("x1", "x1"), ("y1",))

    @given(
        st.lists(
            st.sampled_from(["a", "b", "c1", "", "a b", "x:y", "p\x0cq", "\u2028", 7, None]),
            min_size=1,
            max_size=6,
        )
    )
    def test_names_the_first_bad_or_duplicate_label(self, labels):
        # The label check runs over all labels at once; its message is the
        # one a label-by-label walk gives.
        expected = None
        for i, label in enumerate(labels):
            if not (isinstance(label, str) and naive_label_ok(label)):
                expected = (
                    f"bad U label {label!r}: labels are non-empty tokens "
                    "without whitespace or ':'"
                )
            elif label in labels[:i]:
                expected = f"duplicate U label {label!r}"
            if expected:
                break
        if expected is None:
            assert UniversePair(tuple(labels), ("y1",)).u_labels == tuple(labels)
        else:
            with pytest.raises(UniverseError) as exc:
                UniversePair(tuple(labels), ("y1",))
            assert str(exc.value) == expected

    def test_str_subclass_labels_are_fine(self):
        class Tag(str):
            pass

        up = UniversePair((Tag("x1"), "x2"), ("y1",))
        assert up.index(Side.U, "x1") == 0

    def test_same_label_on_both_sides_is_fine(self):
        up = UniversePair(("a",), ("a",))
        assert up.index(Side.U, "a") == 0 == up.index(Side.V, "a")

    def test_index_by_label_and_position(self, universes):
        assert universes.index(Side.V, "y3") == 2
        assert universes.index(Side.V, 2) == 2
        with pytest.raises(UnknownLabelError):
            universes.index(Side.V, "y9")
        with pytest.raises(UnknownLabelError):
            universes.index(Side.U, 5)

    def test_label_index_is_built_per_side_on_first_lookup(self):
        labels = (("x1", "x2", "x3"), ("y1", "y2"))
        up, twin = UniversePair(*labels), UniversePair(*labels)
        seen = (hash(up), repr(up))
        assert vars(up).keys() == {"u_labels", "v_labels"}
        assert up.index(Side.V, 1) == 1 and up.index(Side.U, 2) == 2
        assert vars(up).keys() == {"u_labels", "v_labels"}
        assert [up.index(Side.V, label) for label in labels[1]] == [0, 1]
        assert len(vars(up)) == 3
        for side, missing in ((Side.U, "y1"), (Side.V, "x1")):
            with pytest.raises(UnknownLabelError) as exc:
                up.index(side, missing)
            assert str(exc.value) == f"no {side} element named {missing!r}"
        with pytest.raises(UnknownLabelError) as exc:
            up.index(Side.U, 3)
        assert str(exc.value) == "index 3 out of range for universe U"
        assert [up.index(Side.U, label) for label in labels[0]] == [0, 1, 2]
        assert len(vars(up)) == 4
        assert up == twin and twin == up and (hash(up), repr(up)) == seen == (hash(twin), repr(twin))


class TestSubset:
    def test_labels_render_in_universe_order(self, universes):
        s = universes.v_subset(["y5", "y1", "y3"])
        assert s.labels() == ("y1", "y3", "y5")
        assert str(s) == "{y1, y3, y5}"

    def test_algebra_matches_python_sets(self, universes):
        a = universes.v_subset(["y1", "y2", "y4"])
        b = universes.v_subset(["y2", "y5"])
        assert set((a | b).labels()) == set(a.labels()) | set(b.labels())
        assert set((a & b).labels()) == set(a.labels()) & set(b.labels())
        assert set((a - b).labels()) == set(a.labels()) - set(b.labels())
        assert set(a.complement().labels()) == {"y3", "y5", "y6"}

    def test_subset_ordering(self, universes):
        small = universes.v_subset(["y1"])
        big = universes.v_subset(["y1", "y2"])
        assert small <= big and small < big and not big <= small

    def test_membership_and_len(self, universes):
        s = universes.u_subset(["x2", "x4"])
        assert "x2" in s and "x1" not in s and "nope" not in s
        assert len(s) == 2 and bool(s)
        assert not universes.empty(Side.U)

    def test_mixed_sides_raise(self, universes):
        with pytest.raises(SideMismatchError):
            universes.u_subset(["x1"]) | universes.v_subset(["y1"])

    def test_mixed_universes_raise(self, universes):
        other = UniversePair(("x1",), ("y1", "y2", "y3", "y4", "y5", "y6"))
        with pytest.raises(SideMismatchError):
            universes.v_subset(["y1"]) & other.v_subset(["y1"])

    def test_bits_must_fit(self, universes):
        with pytest.raises(DimensionError):
            Subset(universes, Side.U, 1 << 5)

    @given(st.data())
    def test_operator_bits_oracle(self, data):
        width = data.draw(st.sampled_from((6,) + WIDE_U_SIZES))
        names = tuple(f"y{i}" for i in range(1, width + 1))
        up = UniversePair(("x1",), names)
        a_bits, b_bits = (data.draw(st.integers(0, (1 << width) - 1)) for _ in "ab")
        a = Subset(up, Side.V, a_bits)
        b = Subset(up, Side.V, b_bits)
        sa, sb = set(a.indices()), set(b.indices())
        assert sa == {i for i in range(width) if a_bits >> i & 1}
        assert a.labels() == tuple(names[i] for i in sorted(sa))
        assert set((a | b).indices()) == sa | sb
        assert set((a & b).indices()) == sa & sb
        assert set((a - b).indices()) == sa - sb
        assert (a <= b) == (sa <= sb)

    @pytest.mark.parametrize("width", (63, 64, 65, 1000))
    @pytest.mark.parametrize("side", list(Side))
    def test_empty_and_full_masks(self, width, side):
        up = UniversePair(
            tuple(f"x{i}" for i in range(width)), tuple(f"y{i}" for i in range(width))
        )
        assert up.empty(side).labels() == () and up.empty(side).indices() == ()
        assert up.full(side).labels() == up.labels(side)
        assert up.full(side).indices() == tuple(range(width))
        top = Subset(up, side, 1 << width - 1)
        assert top.labels() == (up.labels(side)[-1],) and top.indices() == (width - 1,)

    @given(st.data())
    def test_subset_from_members_oracle(self, data):
        width = data.draw(st.sampled_from((63, 64, 65, 1000)))
        side = data.draw(st.sampled_from(Side))
        prefix = "x" if side is Side.U else "y"
        up = UniversePair(
            tuple(f"x{i}" for i in range(width)), tuple(f"y{i}" for i in range(width))
        )
        index = st.integers(0, width - 1)
        member = index | index.map(lambda i: f"{prefix}{i}")
        bad = st.sampled_from([width, width + 7, -1, "zz", f"{prefix}{width}", "x-1"])
        members = data.draw(st.lists(member | bad if data.draw(st.booleans()) else member))
        members += data.draw(st.lists(st.sampled_from(members), max_size=5)) if members else []
        indices = []
        for m in members:
            if isinstance(m, int) and 0 <= m < width:
                indices.append(m)
            elif isinstance(m, str) and m[1:].isdigit() and m[0] == prefix and int(m[1:]) < width:
                indices.append(int(m[1:]))
            else:
                message = (
                    f"index {m} out of range for universe {side}"
                    if isinstance(m, int)
                    else f"no {side} element named {m!r}"
                )
                with pytest.raises(UnknownLabelError) as err:
                    up.subset(side, members)
                assert str(err.value) == message
                return
        subset = up.subset(side, iter(members))
        assert subset.bits == sum(1 << i for i in set(indices))
        assert subset.indices() == tuple(sorted(set(indices)))


class TestConstruction:
    def test_membership_agrees_with_matrix(self, sample):
        assert sample.related("x1", "y1")
        assert not sample.related("x2", "y1")
        for i, row in enumerate(SAMPLE_MATRIX):
            for j, cell in enumerate(row):
                assert sample.related(i, j) == bool(cell)

    def test_smallest_all_zero_relation(self):
        up = UniversePair(("x1",), ("y1",))
        rel = BinaryRelation.from_rows(up, [[0]])
        assert not rel.right_neighborhood("x1")

    def test_row_count_mismatch(self):
        up = UniversePair(("x1", "x2", "x3"), ("y1",))
        with pytest.raises(DimensionError, match="expected 3 rows"):
            BinaryRelation.from_rows(up, [[1], [0]])

    def test_row_width_mismatch_names_offending_row(self):
        up = UniversePair(("x1", "x2"), ("y1", "y2"))
        with pytest.raises(DimensionError, match="'x2'"):
            BinaryRelation.from_rows(up, [[1, 0], [1]])

    def test_non_binary_cell_rejected(self):
        up = UniversePair(("x1",), ("y1", "y2"))
        with pytest.raises(DimensionError, match="'x1'"):
            BinaryRelation.from_rows(up, [[1, 2]])

    # The first bad row is named even when a later row is bad in another way.
    @pytest.mark.parametrize(
        "rows",
        [(3, -1, "1", 0), (3, 4, -1, 0), (3, "1", 4, 0), (3, 1.0, -1, 0)],
        ids=["negative", "too-wide", "str", "float"],
    )
    def test_first_bad_row_is_named(self, rows):
        up = UniversePair(("x1", "x2", "x3", "x4"), ("y1", "y2"))
        with pytest.raises(DimensionError) as caught:
            BinaryRelation(up, rows)
        assert str(caught.value) == "row for 'x2' does not fit the V universe width 2"

    def test_from_rows_messages(self):
        up = UniversePair(("x1", "x2"), ("y1", "y2", "y3"))
        with pytest.raises(DimensionError) as caught:
            BinaryRelation.from_rows(up, [[1, 0, 1], [1, 0]])
        assert str(caught.value) == "row for 'x2' has 2 cells, expected 3"
        with pytest.raises(DimensionError) as caught:
            BinaryRelation.from_rows(up, [[1, 0, 1], [0, 2, 5]])
        assert str(caught.value) == "row for 'x2': cell 2 is 2, expected 0 or 1"
        # Rows are checked in order: a bad cell before a short row is named.
        with pytest.raises(DimensionError) as caught:
            BinaryRelation.from_rows(up, [[1, 1, "1"], [1]])
        assert str(caught.value) == "row for 'x1': cell 3 is '1', expected 0 or 1"

    @pytest.mark.parametrize("v", [1, 7, 8, 9, 64, 65, 300])
    def test_from_rows_matches_a_per_cell_loop(self, v):
        rng = random.Random(v)
        cells = [[rng.random() < 0.4 for _ in range(v)] for _ in range(4)]
        cells[1] = [int(cell) for cell in cells[1]]
        up = UniversePair(("x1", "x2", "x3", "x4"), tuple(f"y{j}" for j in range(v)))
        rows = tuple(sum(cell << j for j, cell in enumerate(row)) for row in cells)
        assert BinaryRelation.from_rows(up, cells).rows == rows

    def test_bool_rows_accepted(self):
        up = UniversePair(("x1", "x2"), ("y1",))
        assert BinaryRelation(up, (True, False)).rows == (True, False)

    def test_from_pairs(self, universes, sample):
        pairs = [
            (x, y)
            for x in universes.u_labels
            for y in universes.v_labels
            if sample.related(x, y)
        ]
        assert BinaryRelation.from_pairs(universes, pairs) == sample
        assert BinaryRelation.from_pairs(universes, []).rows == (0,) * 5
        assert BinaryRelation.from_pairs(universes, [(1, 5), ("x2", 5), (1, "y1")]).rows == (0, 33, 0, 0, 0)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([("x1", "y1"), ("x2", "y9"), ("x9", "y1")], "no V element named 'y9'"),
            ([("x1", "y1"), ("x9", "y9"), ("x1", "y8")], "no U element named 'x9'"),
            ([("x1", 6)], "index 6 out of range for universe V"),
        ],
    )
    def test_from_pairs_names_the_first_bad_pair(self, universes, pairs, message):
        with pytest.raises(UnknownLabelError) as caught:
            BinaryRelation.from_pairs(universes, pairs)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "u, v, ys, limit",
        [
            # 200,000 pairs: a V index held per pair would cost over 7 MB.
            (100, 2000, range(2000), 1_000_000),
            # Rows of 2**18 bits, about 2.2 MB as ints: held twice, 4.4 MB.
            (64, 1 << 18, [(1 << 18) - 1], 3_500_000),
        ],
    )
    def test_from_pairs_memory_is_the_rows(self, u, v, ys, limit):
        up = canonical_universes(u, v)
        tracemalloc.start()
        try:
            rel = BinaryRelation.from_pairs(up, ((x, y) for x in range(u) for y in ys))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rel.rows == (mask_of_indices(ys, v),) * u
        assert peak < limit

    def test_immutable(self, sample):
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample.rows = ()


class TestNeighborhoods:
    def test_right_neighborhoods(self, sample):
        assert sample.right_neighborhood("x2").labels() == ("y3", "y6")
        assert sample.right_neighborhood("x4").labels() == ("y1", "y3", "y4", "y5", "y6")
        assert sample.right_neighborhood("x1").labels() == ("y1", "y2", "y5")

    def test_right_neighborhood_by_index(self, sample):
        assert sample.right_neighborhood(1) == sample.right_neighborhood("x2")

    def test_left_neighborhoods_from_columns(self, sample):
        assert sample.left_neighborhood("y1").labels() == ("x1", "x4", "x5")
        assert sample.left_neighborhood("y3").labels() == ("x2", "x4")

    def test_zero_relation_neighborhoods(self):
        up = UniversePair(("x1", "x2"), ("y1", "y2"))
        rel = BinaryRelation.from_rows(up, [[0, 0], [0, 0]])
        assert not rel.right_neighborhood("x1")
        assert not rel.left_neighborhood("y1")

    def test_unknown_labels_raise(self, sample):
        with pytest.raises(UnknownLabelError):
            sample.right_neighborhood("x9")
        with pytest.raises(UnknownLabelError):
            sample.left_neighborhood("y9")

    @given(ANY_RELATION)
    def test_neighborhoods_match_oracle(self, rel):
        matrix = matrix_of(rel)
        for i, right in enumerate(right_sets(matrix)):
            assert set(rel.right_neighborhood(i).indices()) == right
        for j in range(rel.v_size):
            assert set(rel.left_neighborhood(j).indices()) == naive_left(matrix, j)


class TestColumns:
    @pytest.mark.parametrize("v_size", [1, 7, 8, 9, 63, 64, 65, 130])
    @pytest.mark.parametrize("u_size", [1, 2, 1000, 8000])
    def test_columns_match_a_naive_transpose(self, u_size, v_size):
        # Lane widths on both sides of each byte boundary; an all-zero and an
        # all-one row, and their complements, so a one-row relation is each.
        full = (1 << v_size) - 1
        rng = random.Random(u_size * 1000 + v_size)
        rows = [0, full, *(rng.getrandbits(v_size) for _ in range(u_size - 2))][:u_size]
        for cells in (rows, [full ^ row for row in rows]):
            rel = BinaryRelation(canonical_universes(u_size, v_size), tuple(cells))
            expected = tuple(
                int("".join(map(str, reversed(column))), 2) for column in zip(*matrix_of(rel))
            )
            assert rel.columns() == expected


def _transpose_loop(masks, width):
    return tuple(
        sum((mask >> j & 1) << i for i, mask in enumerate(masks)) for j in range(width)
    )


class TestTranspose:
    # Widths on both sides of each byte boundary and of 64 bits, and as many
    # masks (the transpose's width) past them.
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 64, 65, 300])
    def test_matches_a_bit_loop_and_inverts_itself(self, width):
        rng = random.Random(width)
        full = (1 << width) - 1
        for count in (0, 1, 7, 8, 9, 63, 64, 65, 70):
            masks = (0, full, *(rng.getrandbits(width) for _ in range(count)))[:count]
            columns = transpose(masks, width)
            assert columns == _transpose_loop(masks, width)
            assert transpose(columns, count) == masks


class TestPackLanes:
    @pytest.mark.parametrize("nbytes", [1, 2, 3, 4, 5, 8])
    def test_packs_as_the_to_bytes_join(self, nbytes):
        # Lane widths with one struct format each and without; values all
        # under 256 and values up to the top of the lane.
        top = (1 << 8 * nbytes) - 1
        values = [v for v in (0, 255, 256, top) if v <= top]
        rng = random.Random(nbytes)
        for lanes in (values, values[:2], [rng.randint(0, top) for _ in range(300)]):
            join = b"".join(v.to_bytes(nbytes, "little") for v in lanes)
            assert pack_lanes(lanes, nbytes) == int.from_bytes(join, "little")

    @pytest.mark.parametrize("nbytes", [1, 2, 4, 8])
    def test_unpack_inverts_pack(self, nbytes):
        top = (1 << 8 * nbytes) - 1
        rng = random.Random(nbytes)
        for lanes in ([], [0, 255, 256 & top, top], [rng.randint(0, top) for _ in range(300)]):
            assert unpack_lanes(pack_lanes(lanes, nbytes), len(lanes), nbytes) == lanes

    @pytest.mark.parametrize("nbytes", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("bad", ["past", "negative"])
    def test_out_of_range_value_overflows(self, nbytes, bad):
        value = 1 << 8 * nbytes if bad == "past" else -1
        for lanes in ([value], [0, 255, value], [value, 1]):
            with pytest.raises(OverflowError):
                pack_lanes(lanes, nbytes)


def _or_loop(masks, selector):
    out = 0
    for i, mask in enumerate(masks):
        if selector >> i & 1:
            out |= mask
    return out


class TestWindowUnions:
    # Selectors of 0 to 9 bytes: 1, 2, 4 and 8 bytes have a struct format, 3
    # and 9 (more than 64 masks) do not.  The masks are up to 100 bits wide.
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 16, 17, 32, 64, 65])
    def test_matches_a_plain_or_loop(self, count):
        rng = random.Random(count)
        masks = [rng.getrandbits(100) for _ in range(count)]
        singletons = [1 << i for i in range(count)]
        drawn = [rng.getrandbits(count) for _ in range(200)]
        selectors = [0, (1 << count) - 1, *singletons, *drawn]
        assert window_unions(masks, selectors) == [_or_loop(masks, s) for s in selectors]
        assert window_unions(masks, []) == []
        if count <= 9:
            every = range(1 << count)
            assert subset_unions(masks) == [_or_loop(masks, s) for s in every]


class TestSolitaryAndSerial:
    def test_sample_has_no_solitary_elements(self, sample):
        assert not sample.solitary_set()
        assert sample.is_serial()

    def test_all_zero_relation_is_all_solitary(self):
        up = UniversePair(("x1", "x2", "x3"), ("y1", "y2", "y3"))
        rel = BinaryRelation.from_rows(up, [[0] * 3] * 3)
        assert rel.solitary_set().labels() == ("x1", "x2", "x3")
        assert not rel.is_serial()

    def test_single_zero_row(self):
        up = UniversePair(("x1", "x2", "x3"), ("y1", "y2", "y3"))
        rel = BinaryRelation.from_rows(up, [[1, 0, 0], [0, 0, 0], [0, 1, 1]])
        assert rel.solitary_set().labels() == ("x2",)
        assert not rel.is_serial()

    def test_identity_like_relation_is_serial(self):
        up = UniversePair(("x1", "x2"), ("y1", "y2"))
        rel = BinaryRelation.from_pairs(up, [("x1", "y1"), ("x2", "y2")])
        assert rel.is_serial()

    @given(ANY_RELATION)
    def test_matches_oracle(self, rel):
        assert set(rel.solitary_set().indices()) == naive_solitary(matrix_of(rel))
        assert rel.is_serial() == (not rel.solitary_set())


class TestQuotients:
    def test_sample_partitions(self, sample):
        u_part, v_part = sample.quotient_partitions()
        assert set(u_part.as_label_sets()) == {
            ("x1", "x5"),
            ("x2",),
            ("x3",),
            ("x4",),
        }
        assert set(v_part.as_label_sets()) == {
            ("y1", "y5"),
            ("y3", "y6"),
            ("y2",),
            ("y4",),
        }

    def test_canonical_block_order(self, sample):
        u_part, v_part = sample.quotient_partitions()
        assert [block.labels()[0] for block in u_part] == ["x1", "x2", "x3", "x4"]
        assert [block.labels()[0] for block in v_part] == ["y1", "y2", "y3", "y4"]

    def test_zero_relation_collapses_to_one_block(self):
        up = UniversePair(("x1", "x2", "x3"), ("y1", "y2", "y3"))
        rel = BinaryRelation.from_rows(up, [[0] * 3] * 3)
        u_part, v_part = rel.quotient_partitions()
        assert len(u_part) == 1 and len(v_part) == 1

    @given(ANY_RELATION)
    def test_partition_invariants(self, rel):
        parts = rel.quotient_partitions()
        for part, side in zip(parts, (Side.U, Side.V)):
            union = 0
            for block in part:
                assert block.bits != 0
                assert union & block.bits == 0
                union |= block.bits
            assert union == rel.universes.full_mask(side)
        assert tuple(
            {frozenset(block.indices()) for block in part} for part in parts
        ) == naive_quotients(matrix_of(rel))

    @given(ANY_RELATION)
    def test_classes_match_oracle_and_partitions(self, rel):
        classes = rel.quotient_classes()
        assert tuple(
            {frozenset(members) for members in side} for side in classes
        ) == naive_quotients(matrix_of(rel))
        # Members ascending, classes in order of first member: the partitions'
        # canonical block order.
        for part, side in zip(rel.quotient_partitions(), classes):
            assert [list(block.indices()) for block in part] == side

    def test_neighbors_report_memory_is_linear(self):
        # One class per row: a U-mask per class as wide as its last member
        # would hold ~n^2/2 bits (about 6 MB at n = 10000) on top of the report.
        n = 10000
        rows = tuple(random.Random(5).sample(range(1 << 40), n))
        rel = BinaryRelation(canonical_universes(n, 40), rows)
        tracemalloc.start()
        try:
            report = build_neighbors_report(rel, "tall.rel")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.body["u_partition"]) == n
        assert peak < 12_000_000


class TestPartitionType:
    def test_rejects_overlap(self, universes):
        with pytest.raises(PartitionError):
            Partition(
                universes,
                Side.U,
                (universes.u_subset(["x1", "x2"]), universes.u_subset(["x2", "x3", "x4", "x5"])),
            )

    def test_rejects_gap(self, universes):
        with pytest.raises(PartitionError):
            Partition(universes, Side.U, (universes.u_subset(["x1"]),))

    def test_rejects_empty_block(self, universes):
        with pytest.raises(PartitionError):
            Partition(universes, Side.U, (universes.full(Side.U), universes.empty(Side.U)))

    def test_normalizes_block_order(self, universes):
        part = Partition(
            universes,
            Side.U,
            (universes.u_subset(["x3", "x4", "x5"]), universes.u_subset(["x1", "x2"])),
        )
        assert part.as_label_sets() == (("x1", "x2"), ("x3", "x4", "x5"))


class TestSaturation:
    def test_sample(self, sample):
        assert sample.saturation_identity_holds()

    def test_zero_relation(self):
        up = UniversePair(("x1", "x2"), ("y1", "y2"))
        rel = BinaryRelation.from_rows(up, [[0, 0], [0, 0]])
        assert rel.saturation_identity_holds()

    @settings(deadline=None)
    @given(relations(max_u=6, max_v=6) | relations(u_sizes=WIDE_U_SIZES, max_v=4))
    def test_agrees_with_pair_composition_oracle(self, rel):
        assert rel.saturation_identity_holds() == naive_saturation_holds(matrix_of(rel))
        assert rel.saturation_identity_holds()


# --- records ---------------------------------------------------------------

_UP = UniversePair(("x1", "x2"), ("y1", "y2", "y3"))
_Y1 = _UP.v_subset(["y1"])
_Y23 = _UP.v_subset(["y2", "y3"])
_REL = BinaryRelation(_UP, (0b011, 0b100))
_VIOLATION = Violation("law", "rel", ("{y1}",), "a", "b")
# Cases of (record class, its fields by keyword in field order, the error
# its __post_init__ raises or None).
RECORD_CASES = [
    pytest.param(cls, fields, error, id=cls.__name__ + ("-error" if error else ""))
    for cls, fields, error in [
        (UniversePair, dict(u_labels=("x1", "x2"), v_labels=("y1",)), None),
        (UniversePair, dict(u_labels=("x1", "x1"), v_labels=("y1",)), UniverseError),
        (Subset, dict(universes=_UP, side=Side.V, bits=0b101), None),
        (Subset, dict(universes=_UP, side=Side.V, bits=0b1000), DimensionError),
        (Partition, dict(universes=_UP, side=Side.V, blocks=(_Y23, _Y1)), None),
        (Partition, dict(universes=_UP, side=Side.V, blocks=(_Y1,)), PartitionError),
        (BinaryRelation, dict(universes=_UP, rows=[0b011, 0b100]), None),
        (BinaryRelation, dict(universes=_UP, rows=(0b1000, 0)), DimensionError),
        (ApproxResult, dict(lower=_Y1, upper=_Y23, boundary=_Y23, rough_type=RoughType(2)), None),
        (Classification, dict(universes=_UP, names=("Y1", "Y2"), blocks=(_Y1, _Y23)), None),
        (Classification, dict(universes=_UP, names=("Y1", "Y2"), blocks=(_Y1, _Y1)), ClassificationError),
        (
            FamilyApprox,
            dict(
                relation=_REL,
                classification=Classification(_UP, ("Y1", "Y2"), (_Y1, _Y23)),
                lowers=(_Y1, _Y23),
                uppers=(_Y1, _Y23),
            ),
            None,
        ),
        (Quality, dict(v_normalized=Fraction(1, 3), u_normalized=Fraction(1, 2)), None),
        (LawInstance, dict(law="law", blocks=("Y1",), hypothesis=True, conclusion=False, verdict="violated"), None),
        (TheoremReport, dict(entries=(LawInstance("law", (), True, True, "holds"),)), None),
        # A dict field makes these two unhashable, as the dataclasses were.
        (AnalysisReport, dict(command="approx", body={"a": 1}), None),
        (
            TableCellFinding,
            dict(
                operation="union",
                left=RoughType(1),
                right=RoughType(2),
                allowed=frozenset({RoughType(1)}),
                witnesses={RoughType(1): Witness(_REL, _Y1, _Y23)},
            ),
            None,
        ),
        (Violation, dict(law="law", relation="rel", subsets=("{y1}",), expected="a", got="b"), None),
        (LawRecord, dict(law="law", instances=3, violations=(_VIOLATION,), violation_count=2), None),
        (PropertyReport, dict(records=(LawRecord("law", 1, (), 0),)), None),
        (Witness, dict(relation=_REL, left_set=_Y1, right_set=_Y23), None),
    ]
]

# The classes that define their own repr keep it.
OWN_REPRS = {Subset: "Subset(V: {y1, y3})", BinaryRelation: "BinaryRelation(2x3, rows=110|001)"}


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cls, fields, error", RECORD_CASES)
def test_record_behaves_as_a_frozen_dataclass(cls, fields, error):
    if error is not None:
        with pytest.raises(error):
            cls(**fields)
        with pytest.raises(error):
            cls(*fields.values())
        return
    twin = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)
    rec = cls(*fields.values())
    # __post_init__ may normalise a field (Partition sorts its blocks), so
    # the twin takes the record's values.
    same = twin(**{name: getattr(rec, name) for name in fields})
    assert cls(**fields) == rec and not cls(**fields) != rec
    assert rec != same and rec.__eq__(same) is NotImplemented
    assert _outcome(hash, rec) == _outcome(hash, same)
    assert repr(rec) == OWN_REPRS.get(cls, repr(same))
    for name in fields:
        assert _outcome(setattr, rec, name, None) == _outcome(setattr, same, name, None)
        assert _outcome(delattr, rec, name) == _outcome(delattr, same, name)
    assert _outcome(setattr, rec, "other", 1) == _outcome(setattr, same, "other", 1)
