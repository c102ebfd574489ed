from __future__ import annotations

import time
import tracemalloc
from functools import partial
from itertools import islice, product
from math import comb

import pytest
from hypothesis import given

from birough import (
    BinaryRelation,
    BudgetError,
    ConfigError,
    DimensionError,
    INTERSECTION_TABLE,
    RoughType,
    Side,
    SideMismatchError,
    UNION_TABLE,
    UniversePair,
    allowed_result_types,
    ambiguous_cells,
    canonical_universes,
    check_relation_against_tables,
    find_type_witness,
    generate_relations,
    merge_property_reports,
    random_campaign,
    random_relation,
    reconstruct_relation,
    rough_type,
    upper_approximation,
    verify_algebraic_properties,
    verify_serial_iff,
    witness_inventory,
)
from birough import approx, lab
from birough.lab import ALGEBRAIC_LAWS
from naive import (
    matrix_of,
    naive_law_campaign,
    naive_lower,
    naive_saturation_holds,
    naive_type,
    naive_upper,
)
from strategies import relations


class TestGenerator:
    def test_exhaustive_counts(self):
        assert len(list(generate_relations(1, 1))) == 2
        assert len(list(generate_relations(2, 2))) == 16

    def test_row_major_bit_order(self):
        rels = list(generate_relations(2, 2))
        assert rels[0].bit_rows() == ("00", "00")
        assert rels[1].bit_rows() == ("10", "00")  # cell (x1, y1) is bit 0
        assert rels[2].bit_rows() == ("01", "00")  # cell (x1, y2) is bit 1
        assert rels[4].bit_rows() == ("00", "10")  # cell (x2, y1) is bit 2
        assert rels[15].bit_rows() == ("11", "11")

    # Both refusals come at the call, not at the first next().
    def test_exhaustive_cap(self):
        with pytest.raises(BudgetError, match="needs"):
            generate_relations(5, 5)
        with pytest.raises(BudgetError, match="needs"):
            generate_relations(18, 1)  # 2**18 * (4 + 256) pairs' work
        with pytest.raises(BudgetError, match="needs"):
            generate_relations(10**6, 10**6)
        assert next(generate_relations(17, 1)).rows == (0,) * 17

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            generate_relations(0, 1)
        with pytest.raises(ConfigError):
            generate_relations(1, 0)

    def test_random_stream_deterministic(self):
        first = [random_relation(5, 6, 0.4, 7, k).rows for k in range(3)]
        second = [random_relation(5, 6, 0.4, 7, k).rows for k in range(3)]
        assert first == second and len(set(first)) == 3

    def test_random_stream_independent_of_consumption(self):
        all_ten = list(random_campaign(10, max_u=4, max_v=4, seed=3))
        assert list(random_campaign(7, max_u=4, max_v=4, seed=3)) == all_ten[:7]
        seventh = next(islice(random_campaign(10, max_u=4, max_v=4, seed=3), 7, None))
        assert seventh == all_ten[7]

    def test_random_campaign_bounds_and_determinism(self):
        a = [r.rows for r in random_campaign(20, max_u=6, max_v=6, seed=5, min_v=2)]
        b = [r.rows for r in random_campaign(20, max_u=6, max_v=6, seed=5, min_v=2)]
        assert a == b
        for rel in random_campaign(20, max_u=6, max_v=6, seed=5, min_v=2):
            assert 1 <= rel.u_size <= 6 and 2 <= rel.v_size <= 6

    def test_density_extremes(self):
        assert random_relation(3, 3, 0.0, 1, 0).rows == (0, 0, 0)
        assert random_relation(3, 3, 1.0, 1, 0).rows == (7, 7, 7)


class TestAlgebraicCampaign:
    def test_sample_relation_exhaustive(self, sample):
        report = verify_algebraic_properties(sample)
        assert report.ok
        assert {r.law for r in report.records} == set(ALGEBRAIC_LAWS)
        assert report.record("monotonicity").instances == 64 * 64
        # serial relation: nothing for the strict-gap law to check
        assert report.record("solitary-forces-strict-gap").instances == 0

    def test_all_zero_relation_exercises_strict_gap(self):
        up = canonical_universes(3, 3)
        rel = BinaryRelation(up, (0, 0, 0))
        report = verify_algebraic_properties(rel)
        assert report.ok
        assert report.record("solitary-forces-strict-gap").instances == 8

    def test_sampled_budget(self, sample):
        report = verify_algebraic_properties(sample, pairs=50, seed=9)
        assert report.ok
        assert report.record("monotonicity").instances == 50

    def test_sampled_budget_deterministic(self, sample):
        a = verify_algebraic_properties(sample, pairs=20, seed=4)
        b = verify_algebraic_properties(sample, pairs=20, seed=4)
        assert a == b

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_sampled_budget_needs_a_pair(self, sample, pairs):
        with pytest.raises(ConfigError):
            verify_algebraic_properties(sample, pairs=pairs)

    def test_exhaustive_subset_cap(self):
        up = UniversePair(("x1",), tuple(f"y{i}" for i in range(13)))
        rel = BinaryRelation(up, (0,))
        with pytest.raises(BudgetError):
            verify_algebraic_properties(rel)

    def test_seeded_random_campaign(self):
        reports = []
        for i, rel in enumerate(random_campaign(60, max_u=8, max_v=8, seed=11)):
            reports.append(verify_algebraic_properties(rel, pairs=20, seed=11 + i))
        merged = merge_property_reports(reports)
        assert merged.ok
        assert merged.record("monotonicity").instances == 60 * 20

    @given(relations(max_u=5, max_v=5))
    def test_laws_hold_on_random_relations(self, rel):
        assert verify_algebraic_properties(rel, pairs=8, seed=1).ok


class TestSubsetStream:
    def test_deterministic(self):
        assert lab.random_subset_bits(7, 5, 50) == lab.random_subset_bits(7, 5, 50)

    def test_prefix_stable(self):
        for v, seed in ((1, 0), (6, 3), (40, 11)):
            assert lab.random_subset_bits(v, seed, 10)[:4] == lab.random_subset_bits(v, seed, 4)

    @pytest.mark.parametrize("v", [1, 3, 12, 40])
    def test_draws_are_v_subsets(self, v):
        draws = lab.random_subset_bits(v, 2, 200)
        assert len(draws) == 200
        assert all(0 <= s < 1 << v for s in draws)
        # the top V element is drawn too, not only the low ones
        assert any(s >> (v - 1) for s in draws)


# Operator kernels for the law campaign: given a relation, the (lower, upper)
# pair that ``lab`` is run with.  Each broken pair is listed with a law it
# must be caught breaking.
def _package_kernels(rel):
    return approx.lower_bits, approx.upper_bits


def _non_monotone_lower(rel):
    # x1 flips in or out of the lower approximation of every singleton.
    return (lambda rows, s: approx.lower_bits(rows, s) ^ (s.bit_count() == 1)), approx.upper_bits


def _non_additive_upper(rel):
    # x1 drops out of the upper approximation of every set of two or more.
    def upper(rows, s):
        bits = approx.upper_bits(rows, s)
        return bits & ~1 if s.bit_count() > 1 else bits

    return approx.lower_bits, upper


def _broken_complement(rel):
    # lower as the complement of an upper, with a complement that misses the
    # last V element.
    short = rel.vmask >> 1
    return (lambda rows, s: rel.umask ^ approx.upper_bits(rows, short & ~s)), approx.upper_bits


def _top_lane_top_bit(rel):
    # One V-subset, one U bit: the last U element drops out of lower(V), the
    # last lane of the packed tables and the top bit of that lane.
    top = 1 << rel.u_size - 1
    return (
        lambda rows, s: approx.lower_bits(rows, s) ^ (top if s == rel.vmask else 0)
    ), approx.upper_bits


def _extra_upper_bit(rel):
    # One V-subset, one U bit: the last U element joins upper({y1}).  A group
    # a containing y1 whose upper holds that element then fails only
    # upper(a & b) within upper(a) & upper(b), at each b containing y1 whose
    # upper lacks it.
    top = 1 << rel.u_size - 1
    return approx.lower_bits, (
        lambda rows, s: approx.upper_bits(rows, s) | (top if s == 1 else 0)
    )


LAW_KERNELS = [
    (_package_kernels, None),
    (_non_monotone_lower, "monotonicity"),
    (_non_additive_upper, "meet-lower-join-upper-distributivity"),
    (_broken_complement, "complement-duality"),
    (_top_lane_top_bit, "monotonicity"),
    (_extra_upper_bit, "join-lower-meet-upper-bounds"),
]
LAW_KERNEL_IDS = [k.__name__ for k, _ in LAW_KERNELS]
PAIR_LAWS = (
    "meet-lower-join-upper-distributivity",
    "monotonicity",
    "join-lower-meet-upper-bounds",
)

# Every shape with u*v <= 9, at two densities.
LAW_RELATIONS = [
    random_relation(u, v, density, seed=13, index=u * 10 + v)
    for density in (0.3, 0.6)
    for v in range(1, 10)
    for u in range(1, 9 // v + 1)
]

# Exhaustive shapes at the packed pair check's lane and byte boundaries (a
# lane is |U| bits rounded up to whole bytes), up to |V| = 7.
LANE_RELATIONS = [
    random_relation(u, v, 0.4, seed=29, index=u * 10 + v)
    for u, v in ((1, 7), (7, 6), (8, 5), (8, 6), (9, 4), (9, 6), (40, 3), (40, 6))
]


def _campaign_subsets(rel, pairs, seed):
    """The V-masks (singles, pairs) a campaign examines, in its order."""
    if pairs is None:
        singles = list(range(1 << rel.v_size))
        return singles, list(product(singles, repeat=2))
    draws = lab.random_subset_bits(rel.v_size, seed, 2 * pairs)
    return sorted(set(draws) | {0, rel.vmask}), list(zip(draws[0::2], draws[1::2]))


def _index_set(mask):
    return {j for j in range(mask.bit_length()) if mask >> j & 1}


def _memo(on_set):
    """``on_set``, a map of V index sets, memoised: the naive campaign reads
    each set's approximations many times."""
    memo = {}

    def lookup(y):
        key = frozenset(y)
        if key not in memo:
            memo[key] = frozenset(on_set(key))
        return memo[key]

    return lookup


def _on_sets(kernel, rel):
    """``kernel`` on ``rel`` as a map from V index sets to U index sets."""
    return _memo(lambda y: _index_set(kernel(rel.rows, sum(1 << j for j in y))))


def _naive_violations(monkeypatch, rel, kernels, faulty, n_pairs, seed):
    """Run the campaign on ``rel`` with ``lab``'s kernels set to ``kernels``
    and check it against ``naive_law_campaign``: instance counts, and every
    violation's law and subsets, in order.  The reference reads the same
    kernels when ``faulty``, else the naive operators.  Returns the
    reference's (law, subsets) list."""
    lower_bits, upper_bits = kernels
    monkeypatch.setattr(lab, "lower_bits", lower_bits)
    monkeypatch.setattr(lab, "upper_bits", upper_bits)
    report = lab.verify_algebraic_properties(rel, pairs=n_pairs, seed=seed)
    matrix = matrix_of(rel)
    if faulty:
        lower, upper = _on_sets(lower_bits, rel), _on_sets(upper_bits, rel)
    else:
        lower, upper = _memo(partial(naive_lower, matrix)), _memo(partial(naive_upper, matrix))
    singles, pairs = _campaign_subsets(rel, n_pairs, seed)
    instances, failed = naive_law_campaign(
        matrix,
        lower,
        upper,
        [_index_set(m) for m in singles],
        [(_index_set(a), _index_set(b)) for a, b in pairs],
    )
    assert [r.instances for r in report.records] == [
        instances.get(law, 0) for law in ALGEBRAIC_LAWS
    ]
    got = [(v.law, v.subsets) for r in report.records for v in r.violations]
    want = [
        (law, tuple(str(rel.universes.v_subset(sorted(y))) for y in subsets))
        for law in ALGEBRAIC_LAWS
        for subsets in failed.get(law, [])
    ]
    assert got == want
    if n_pairs is None:
        # The packed check clears exactly the groups a with no failing pair.
        tables = [[kernel(rel.rows, s) for s in singles] for kernel in kernels]
        failing = {
            sum(1 << j for j in subsets[0])
            for law in PAIR_LAWS
            for subsets in failed.get(law, [])
            if len(subsets) == 2
        }
        assert list(lab._suspect_groups(*tables, rel.u_size, rel.v_size)) == sorted(failing)
    return want


class TestLawCampaignFaultInjection:
    @pytest.mark.parametrize("make_kernels, caught", LAW_KERNELS, ids=LAW_KERNEL_IDS)
    def test_matches_naive_reference(self, monkeypatch, make_kernels, caught):
        violated = set()
        for rel in LAW_RELATIONS:
            budgets = [(30, rel.u_size)]
            if rel.v_size <= 5:
                budgets.append((None, 0))
            for n_pairs, seed in budgets:
                want = _naive_violations(
                    monkeypatch, rel, make_kernels(rel), caught is not None, n_pairs, seed
                )
                violated |= {law for law, _ in want}
        assert (caught in violated) if caught else not violated

    @pytest.mark.parametrize("make_kernels, caught", LAW_KERNELS, ids=LAW_KERNEL_IDS)
    def test_exhaustive_at_lane_boundaries(self, monkeypatch, make_kernels, caught):
        violated = set()
        for rel in LANE_RELATIONS:
            faulty = caught is not None
            want = _naive_violations(monkeypatch, rel, make_kernels(rel), faulty, None, 0)
            violated |= {law for law, _ in want}
        assert (caught in violated) if caught else not violated

    @pytest.mark.parametrize("bad", [-1, 1 << 40], ids=["negative", "too-wide"])
    def test_out_of_range_kernel_value_raises_before_the_pair_phase(self, monkeypatch, bad):
        # The single-subset laws raise on reporting a U-mask outside
        # [0, U-mask], before the packed check would pack it.
        def upper_bits(rows, s):
            return bad if s == 2 else approx.upper_bits(rows, s)

        rel = LANE_RELATIONS[-1]
        monkeypatch.setattr(lab, "upper_bits", upper_bits)
        with pytest.raises(DimensionError, match="exceed the U universe width 40"):
            verify_algebraic_properties(rel)

    def test_window_only_fault(self, monkeypatch):
        # In a sampled campaign, a lower fault on a window family's meet that
        # no single, complement or drawn pair touches: only the families see it.
        faulted = 0
        for rel in LAW_RELATIONS:
            singles, pairs = _campaign_subsets(rel, 30, rel.u_size)
            touched = {0, rel.vmask, *singles, *(s ^ rel.vmask for s in singles)}
            touched.update(*({a, b, a & b, a | b} for a, b in pairs))
            n = len(singles)
            meets = [
                singles[k] & singles[(k + 1) % n] & singles[(k + 2) % n] for k in range(n)
            ]
            target = next((m for m in meets if m not in touched), None)
            if target is None:
                continue

            def lower_bits(rows, s, target=target):
                return approx.lower_bits(rows, s) ^ (s == target)

            kernels = (lower_bits, approx.upper_bits)
            want = _naive_violations(monkeypatch, rel, kernels, True, 30, rel.u_size)
            assert want and {law for law, _ in want} == {
                "meet-lower-join-upper-distributivity"
            }
            assert all(len(subsets) in (3, 4) for _, subsets in want)
            faulted += 1
        assert faulted

    def test_packed_check_bit_budget(self):
        # A tall relation splits each packed table into blocks under
        # LANE_BLOCK_BITS: here 64 lanes of 500 bytes, a quarter of the table.
        rel = random_relation(4000, 8, 0.3, seed=31, index=0)
        lab._lane_masks.cache_clear()
        tracemalloc.start()
        try:
            report = verify_algebraic_properties(rel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.record("monotonicity").instances == 4**8
        assert lab._lane_masks(4000, 8)[1] == 6
        assert peak < 3_000_000


class TestSerialIff:
    def test_sample(self, sample):
        assert verify_serial_iff(sample)

    def test_all_zero(self):
        rel = BinaryRelation(canonical_universes(3, 3), (0, 0, 0))
        assert verify_serial_iff(rel)

    def test_exhaustive_2x2(self):
        assert all(
            verify_serial_iff(rel)
            for rel in generate_relations(2, 2)
        )

    def test_above_enum_cap(self):
        # above the cap only fixed subsets are tried: Y = V witnesses seriality
        up = UniversePair(("x1", "x2"), tuple(f"y{i}" for i in range(21)))
        full = (1 << 21) - 1
        assert verify_serial_iff(BinaryRelation(up, (0, full)))
        assert verify_serial_iff(BinaryRelation(up, (full, full ^ 1)))


class TestReconstruction:
    def test_round_trip_on_sample(self, sample):
        rebuilt = reconstruct_relation(
            lambda s: upper_approximation(sample, s), sample.universes
        )
        assert rebuilt == sample

    def test_zero_oracle(self, universes):
        rebuilt = reconstruct_relation(lambda s: universes.empty(Side.U), universes)
        assert rebuilt.rows == (0,) * 5

    def test_wrong_side_oracle_rejected(self, universes):
        with pytest.raises(SideMismatchError):
            reconstruct_relation(lambda s: s, universes)

    def test_seeded_round_trips(self):
        for rel in random_campaign(50, max_u=8, max_v=8, seed=23):
            rebuilt = reconstruct_relation(
                lambda s, rel=rel: upper_approximation(rel, s), rel.universes
            )
            assert rebuilt == rel


class TestTables:
    def test_transcription_counts(self):
        assert len(ambiguous_cells("union")) == 7
        assert len(ambiguous_cells("intersection")) == 7
        assert sum(1 for c in UNION_TABLE.values() if len(c) == 1) == 9
        assert sum(1 for c in INTERSECTION_TABLE.values() if len(c) == 1) == 9

    def test_tables_symmetric_in_arguments(self):
        for table in (UNION_TABLE, INTERSECTION_TABLE):
            for (a, b), allowed in table.items():
                assert table[(b, a)] == allowed

    def test_specific_cells(self):
        t3 = RoughType.EXTERNALLY_UNDEFINABLE
        for other in RoughType:
            assert allowed_result_types("union", t3, other) == frozenset({t3})
        assert allowed_result_types(
            "intersection", RoughType(1), RoughType(1)
        ) == frozenset({RoughType(1), RoughType(2)})
        assert allowed_result_types("intersection", RoughType(3), RoughType(3)) == frozenset(
            RoughType
        )

    @pytest.mark.parametrize("operation", ["union", "intersection"])
    def test_exhaustive_2x2_conformance(self, operation):
        findings = witness_inventory(operation, 2, 2)
        assert len(findings) == 16
        assert all(f.conformant for f in findings)

    def test_sampled_sweep_conformance(self):
        for rel in random_campaign(40, max_u=6, max_v=6, seed=13):
            findings = check_relation_against_tables(rel, "union")
            assert all(f.conformant for f in findings), rel.bit_rows()

    def test_single_relation_check(self, sample):
        findings = check_relation_against_tables(sample, "union")
        assert all(f.conformant for f in findings)

    def test_corrupted_table_is_flagged(self, sample):
        bad = dict(UNION_TABLE)
        bad[(RoughType(1), RoughType(1))] = frozenset({RoughType(1)})
        findings = check_relation_against_tables(sample, "union", tables=bad)
        flagged = [f for f in findings if not f.conformant]
        assert [(f.left, f.right) for f in flagged] == [(RoughType(1), RoughType(1))]

    def test_witnesses_reevaluate_to_their_cell(self):
        for operation in ("union", "intersection"):
            for finding in witness_inventory(operation, 2, 2):
                for result, witness in finding.witnesses.items():
                    rel = witness.relation
                    assert rough_type(rel, witness.left_set) is finding.left
                    assert rough_type(rel, witness.right_set) is finding.right
                    combined = (
                        witness.left_set | witness.right_set
                        if operation == "union"
                        else witness.left_set & witness.right_set
                    )
                    assert rough_type(rel, combined) is result

    def test_inventory_observed_within_allowed(self):
        for finding in witness_inventory("union", 2, 2):
            assert finding.observed <= finding.allowed
            assert set(finding.unrealized) == set(finding.allowed - finding.observed)


class TestWitnessSearch:
    def test_always_type3_cell_has_tiny_witness(self):
        witness = find_type_witness(
            "union", RoughType(3), RoughType(3), RoughType(3), max_u=3, max_v=3
        )
        assert witness is not None
        assert witness.relation.u_size == 1 and witness.relation.v_size == 1

    def test_out_of_table_request_exhausts(self):
        assert (
            find_type_witness(
                "union", RoughType(1), RoughType(1), RoughType(2), max_u=2, max_v=2
            )
            is None
        )

    def test_found_witness_matches_request(self):
        witness = find_type_witness(
            "intersection", RoughType(1), RoughType(3), RoughType(2), max_u=3, max_v=3
        )
        assert witness is not None
        rel = witness.relation
        assert rough_type(rel, witness.left_set) is RoughType(1)
        assert rough_type(rel, witness.right_set) is RoughType(3)
        assert rough_type(rel, witness.left_set & witness.right_set) is RoughType(2)

    def test_deterministic(self):
        a = find_type_witness("union", RoughType(2), RoughType(2), RoughType(4), max_u=3, max_v=3)
        b = find_type_witness("union", RoughType(2), RoughType(2), RoughType(4), max_u=3, max_v=3)
        assert a == b and a is not None


def _oracle_sweep(operation: str, max_u: int, max_v: int) -> dict:
    """Brute-force canonical-order sweep: first (u, v, matrix, X, Y) per outcome.

    Relation k of a u x v block sets cell (i, j) when bit i*v + j of k is set;
    subset pairs run in numeric order; every relation is visited.
    """
    first = {}
    for u in range(1, max_u + 1):
        for v in range(1, max_v + 1):
            sets = [frozenset(j for j in range(v) if s >> j & 1) for s in range(1 << v)]
            for code in range(1 << (u * v)):
                matrix = [[code >> (i * v + j) & 1 for j in range(v)] for i in range(u)]
                types = {y: naive_type(matrix, set(y)) for y in sets}
                for a, b in product(range(1 << v), repeat=2):
                    x, y = sets[a], sets[b]
                    key = (types[x], types[y], types[x | y if operation == "union" else x & y])
                    first.setdefault(key, (u, v, matrix, a, b))
    return first


def _ids(bounds):
    return "{}x{}".format(*bounds)


def _witness_tuple(witness):
    rel = witness.relation
    return rel.u_size, rel.v_size, matrix_of(rel), witness.left_set.bits, witness.right_set.bits


class TestSweepOracle:
    """First witnesses of the sweep against a brute-force sweep of every relation."""

    @pytest.mark.parametrize("operation", ["union", "intersection"])
    @pytest.mark.parametrize("bounds", [(1, 6), (2, 3), (3, 2), (6, 1)], ids=_ids)
    def test_inventory_matches_oracle(self, operation, bounds):
        oracle = _oracle_sweep(operation, *bounds)
        for finding in witness_inventory(operation, *bounds):
            cell = (int(finding.left), int(finding.right))
            assert finding.observed == {RoughType(k[2]) for k in oracle if k[:2] == cell}
            for result, witness in finding.witnesses.items():
                assert _witness_tuple(witness) == oracle[(*cell, int(result))]

    # 1x6 is left out here only for time: each not-found key sweeps all of it.
    @pytest.mark.parametrize("operation", ["union", "intersection"])
    @pytest.mark.parametrize("bounds", [(2, 3), (3, 2), (6, 1)], ids=_ids)
    def test_search_matches_oracle_for_every_outcome(self, operation, bounds):
        oracle = _oracle_sweep(operation, *bounds)
        for key in product(RoughType, repeat=3):
            witness = find_type_witness(operation, *key, max_u=bounds[0], max_v=bounds[1])
            expected = oracle.get(tuple(map(int, key)))
            assert (witness and _witness_tuple(witness)) == expected


def _first_appearances(dims) -> list[tuple[int, int, tuple[int, ...]]]:
    """(u, v, rows) of every relation, dims in order, whose (v, row set) is new."""
    seen, firsts = set(), []
    for u, v in dims:
        for code in range(1 << (u * v)):
            rows = tuple(code >> (i * v) & ((1 << v) - 1) for i in range(u))
            if (v, frozenset(rows)) not in seen:
                seen.add((v, frozenset(rows)))
                firsts.append((u, v, rows))
    return firsts


# Every (u, v) with u * v <= 12: small enough to walk every relation code.
_SMALL_DIMS = [(u, v) for u in range(1, 13) for v in range(1, 13) if u * v <= 12]


class TestRowSetGenerator:
    """The row-set stream against first appearances in a walk of every relation.

    The pair cap is lifted, since 1x10 to 1x12 lie above it: the stream is
    compared, not swept.
    """

    @pytest.fixture(autouse=True)
    def _no_pair_cap(self, monkeypatch):
        monkeypatch.setattr(lab, "EXHAUSTIVE_PAIR_CAP", 2**64)

    def test_sweep_order_matches_relation_walk(self):
        for max_u, max_v in _SMALL_DIMS:
            expected = _first_appearances(product(range(1, max_u + 1), range(1, max_v + 1)))
            blocks = lab._sweep_blocks(max_u, max_v)
            got = [
                (rel.u_size, rel.v_size, rel.rows) for rel in lab._row_set_relations(blocks)
            ]
            assert got == expected, (max_u, max_v)


class TestSweepBounds:
    @pytest.mark.parametrize("operation", ["union", "intersection"])
    def test_no_new_row_set_past_two_to_the_v(self, operation):
        # At |V| = 1 every row set has at most 2 rows, so |U| = 20 adds nothing.
        start = time.perf_counter()
        assert witness_inventory(operation, 20, 1) == witness_inventory(operation, 2, 1)
        for key in product(RoughType, repeat=3):
            assert find_type_witness(
                operation, *key, max_u=20, max_v=1
            ) == find_type_witness(operation, *key, max_u=2, max_v=1)
        assert time.perf_counter() - start < 2.0

    # The CLI tests cover the same bounds for find_type_witness.
    @pytest.mark.parametrize("dims", [(1, 9), (2, 7), (3, 6), (1, 13)], ids=_ids)
    def test_oversize_table_check_refused_before_any_work(self, dims):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="needs"):
            witness_inventory("union", *dims)
        assert time.perf_counter() - start < 2.0


# The rules the one work bound replaced, written out as the reference: |V| at
# most 12 for one relation or a sweep, and for a sweep at most 2**26 subset
# pairs, Σ C(2**v, u) * 4**v over u <= min(max_u, 4096), v <= max_v, u <= 2**v.
# The sum only grows with max_u, so at each max_v the old rules refuse every
# max_u from one threshold on.
def _old_sweep_threshold(max_v):
    """The least max_u the old rules refuse at ``max_v``, or None."""
    if max_v > 12:
        return 1
    pairs = 0
    for u in range(1, 4097):
        for v in range(1, max_v + 1):
            if u <= 1 << v:
                pairs += comb(1 << v, u) * 4**v
        if pairs > 2**26:
            return u
    return None


_GRID_MAX_U = [*range(1, 300), 511, 4095, 4096, 4097, 10**6, 10**12]
_GRID_MAX_V = range(1, 41)


class TestOneWorkBound:
    """``lab._pair_work`` refuses exactly the sizes the old rules refused."""

    def test_sweeps_match_the_old_rules(self):
        start = time.perf_counter()
        for max_v in _GRID_MAX_V:
            first = _old_sweep_threshold(max_v)
            for max_u in _GRID_MAX_U:
                try:
                    lab._sweep_blocks(max_u, max_v)
                except BudgetError:
                    refused = True
                else:
                    refused = False
                assert refused == (first is not None and max_u >= first), (max_u, max_v)
        assert time.perf_counter() - start < 2.0

    def test_single_relations_match_the_old_rule(self):
        for v_size in _GRID_MAX_V:
            try:
                lab._pair_work(0, 1, v_size, "one relation")
            except BudgetError:
                refused = True
            else:
                refused = False
            assert refused == (v_size > 12), v_size

    def test_each_entry_point_refuses_at_its_first_refused_size(self):
        start = time.perf_counter()
        wide = BinaryRelation(canonical_universes(1, 13), (0,))
        first_v = min(v for v in _GRID_MAX_V if _old_sweep_threshold(v) == 1)
        first_u = _old_sweep_threshold(5)
        refusals = [
            partial(generate_relations, 18, 1),
            partial(verify_algebraic_properties, wide),
            partial(check_relation_against_tables, wide, "union"),
            partial(witness_inventory, "union", 1, first_v),
            partial(witness_inventory, "intersection", first_u, 5),
            partial(find_type_witness, "union", *[RoughType(1)] * 3, max_u=1, max_v=first_v),
            partial(find_type_witness, "union", *[RoughType(1)] * 3, max_u=first_u, max_v=5),
        ]
        for refusal in refusals:
            with pytest.raises(BudgetError, match="needs at least"):
                refusal()
        assert (first_v, first_u) == (9, 5)
        assert time.perf_counter() - start < 2.0


class TestSaturationCampaign:
    def test_seeded_campaign(self):
        for rel in random_campaign(200, max_u=8, max_v=8, seed=31):
            assert rel.saturation_identity_holds()

    def test_oracle_spot_check(self):
        for rel in random_campaign(25, max_u=6, max_v=6, seed=37):
            assert naive_saturation_holds(matrix_of(rel))
