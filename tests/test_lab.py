from __future__ import annotations

import json
import random
import time
import tracemalloc
from collections import Counter
from functools import partial, reduce
from itertools import islice, product
from math import comb
from operator import and_, or_
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from birough import (
    BinaryRelation,
    BudgetError,
    ConfigError,
    INTERSECTION_TABLE,
    RoughType,
    Side,
    SideMismatchError,
    Subset,
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
from birough import approx, campaign, lab
from birough.cli import main
from birough.campaign import ALGEBRAIC_LAWS
from birough.parse import render_relation_file
from naive import (
    matrix_of,
    naive_law_campaign,
    naive_lower,
    naive_saturation_holds,
    naive_serial_iff,
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
        assert tuple(r.law for r in report.records) == ALGEBRAIC_LAWS
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
        assert tuple(r.law for r in report.records) == ALGEBRAIC_LAWS
        assert report.record("monotonicity").instances == 50

    def test_sampled_budget_deterministic(self, sample):
        a = verify_algebraic_properties(sample, pairs=20, seed=4)
        b = verify_algebraic_properties(sample, pairs=20, seed=4)
        assert a == b

    def test_sampled_memory_is_bounded_by_the_pair_block(self, monkeypatch):
        # 20,000 drawn pairs at |V| = 20, where the campaign stays on the
        # sampled route: the pairs' tables are built a block at a time, so
        # the pair phase adds one block (0.35 MB) to what the singles' tables
        # hold, not four tables of every pair (5.5 MB when built at once).
        rel = random_relation(5, 20, 0.5, seed=3, index=20)
        assert not _takes_full_tables(rel, 20000, 3)
        groups = campaign._drawn_pair_groups
        extra = []

        def drawn_pair_groups(*args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            yield from groups(*args)
            extra.append(tracemalloc.get_traced_memory()[1] - start)

        monkeypatch.setattr(campaign, "_drawn_pair_groups", drawn_pair_groups)
        tracemalloc.start()
        try:
            report = verify_algebraic_properties(rel, pairs=20000, seed=3)
        finally:
            tracemalloc.stop()
        assert report.ok and report.record("monotonicity").instances == 20000
        assert len(extra) == 1 and extra[0] < 1_000_000

    def test_full_table_memory_is_bounded_by_the_draws(self, sample):
        # 20,000 drawn pairs on the 5x6 sample, which takes the full tables:
        # the peak of the whole campaign is the draws and the 64-entry tables
        # (0.36 MB), not four tables of every pair (6.8 MB when built at once).
        assert _takes_full_tables(sample, 20000, 3)
        tracemalloc.start()
        try:
            report = verify_algebraic_properties(sample, pairs=20000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.record("monotonicity").instances == 20000
        assert peak < 2_000_000

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
# pair that the campaign is run with.  Each broken pair is listed with a law it
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
    # last entry of the tables and the top bit of that entry.
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
# The laws of one subset each, cleared by campaign._tables_hold.
SINGLE_LAWS = (
    "upper-is-union-of-left-neighborhoods",
    "solitary-bounds",
    "lower-minus-solitary-within-upper",
    "full-lower-and-empty-upper-criteria",
    "solitary-forces-strict-gap",
    "complement-duality",
)

# Every shape with u*v <= 9, at two densities.
LAW_RELATIONS = [
    random_relation(u, v, density, seed=13, index=u * 10 + v)
    for density in (0.3, 0.6)
    for v in range(1, 10)
    for u in range(1, 9 // v + 1)
]

# Exhaustive shapes at the byte boundaries of |U|, where the table kernels
# change lane width, up to |V| = 7.
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


def _takes_full_tables(rel, pairs, seed):
    """Whether a campaign tabulates lower and upper at every V-subset: when
    exhaustive, and when sampled if the 2**|V| subsets are no more than the
    entries of its head tables, (2 + windows) * singles."""
    if pairs is None:
        return True
    n = len(_campaign_subsets(rel, pairs, seed)[0])
    windows = sum(size <= n for size in (3, 4))
    return 2**rel.v_size <= (2 + windows) * n


def _index_set(mask):
    # A negative mask (a faulty kernel's) has every bit from its bit length
    # on; those from 64 on stand as the one element 64.
    width = mask.bit_length() if mask >= 0 else 65
    return {j for j in range(width) if mask >> j & 1}


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


def _per_subset(kernel):
    """``kernel``, a per-V-mask operator, as a table of V-masks."""
    return lambda rows, ys: [kernel(rows, y) for y in ys]


def _clear_results(monkeypatch):
    """The results of ``campaign``'s table and pair clears and generator
    identities from here on, by check name."""
    results = {"_tables_hold": [], "_pairs_hold": [], "_homomorphic": []}
    for name, got in results.items():
        check = getattr(campaign, name)
        monkeypatch.setattr(
            campaign, name, lambda *args, check=check, got=got: got.append(check(*args)) or got[-1]
        )
    return results


def _naive_violations(monkeypatch, rel, kernels, faulty, n_pairs, seed, stricter=False):
    """Run the campaign on ``rel`` with its tables read through
    ``kernels`` and check it against ``naive_law_campaign``: instance counts,
    and every violation's law and subsets, in order.  The reference reads the
    same kernels when ``faulty``, else the naive operators.  Also checks that
    each clear passes exactly when the reference finds no violation of its
    laws.  At the singles, the table clear of the sampled route asks more
    than the laws: ``stricter`` marks kernels that only it fails, and then it
    must fail while the single-subset laws hold.  Returns the reference's
    (law, subsets) list."""
    lower_bits, upper_bits = kernels
    monkeypatch.setattr(campaign, "lower_table", _per_subset(lower_bits))
    monkeypatch.setattr(campaign, "upper_table", _per_subset(upper_bits))
    clears = _clear_results(monkeypatch)
    report = campaign.verify_algebraic_properties(rel, pairs=n_pairs, seed=seed)
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
    want = [
        (law, tuple(str(rel.universes.v_subset(sorted(y))) for y in subsets))
        for law in ALGEBRAIC_LAWS
        for subsets in failed.get(law, [])
    ]
    # Each law keeps its first VIOLATION_DETAILS violations and counts them all.
    got = [([(v.law, v.subsets) for v in r.violations], r.violation_count) for r in report.records]
    by_law = [[item for item in want if item[0] == law] for law in ALGEBRAIC_LAWS]
    assert got == [(items[: campaign.VIOLATION_DETAILS], len(items)) for items in by_law]
    if _takes_full_tables(rel, n_pairs, seed):
        # The full tables are cleared at once by the single-subset laws at
        # every subset, which imply the other laws: the clear passes exactly
        # when the reference over every subset and every pair finds no
        # violation at all.  Only when it fails are the generator identities
        # asked, and they hold exactly when no pair fails.
        if n_pairs is None:
            everywhere = failed
        else:
            every = [_index_set(m) for m in range(1 << rel.v_size)]
            all_pairs = list(product(every, repeat=2))
            everywhere = naive_law_campaign(matrix, lower, upper, every, all_pairs)[1]
        singles_fail = any(everywhere.get(law) for law in SINGLE_LAWS)
        pairs_fail = any(
            len(subsets) == 2 for law in PAIR_LAWS for subsets in everywhere.get(law, [])
        )
        clear = not any(everywhere.values())
        assert clear == (not singles_fail)
        assert clears == {
            "_tables_hold": [not singles_fail],
            "_pairs_hold": [],
            "_homomorphic": [] if clear else [not pairs_fail],
        }
    else:
        singles_fail = any(law in SINGLE_LAWS for law, _ in want)
        assert clears["_tables_hold"] == [not singles_fail and not stricter]
        assert not (stricter and singles_fail)
        # One pair check per block of drawn pairs; the blocks all clear
        # exactly when no drawn pair fails.
        blocks = -(-n_pairs // campaign.PAIR_BLOCK)
        assert len(clears["_pairs_hold"]) == blocks and clears["_homomorphic"] == []
        assert all(clears["_pairs_hold"]) == (
            not any(law in PAIR_LAWS and len(subsets) == 2 for law, subsets in want)
        )
    return want


# Table entries for a notional U-mask of 0b111: negative entries, entries
# within it and entries past it.
TABLE_ENTRIES = st.integers(-(1 << 6), 1 << 6)


@st.composite
def law_tables(draw):
    """(lo, up) tables at every V-subset, |V| <= 4.  Each table is arbitrary,
    or built from generators so that lower preserves meets (upper joins),
    then has a few entries overwritten or widened."""
    size = 1 << draw(st.integers(0, 4))
    arbitrary = st.lists(TABLE_ENTRIES, min_size=size, max_size=size)
    generators = st.lists(TABLE_ENTRIES, min_size=5, max_size=5)
    tables = []
    for fold in (and_, or_):
        if draw(st.booleans()):
            tables.append(draw(arbitrary))
            continue
        # Lower at y is lower at V met with lower at V minus each element
        # outside y; upper at y, upper at the empty set joined with upper at
        # each element of y.
        base, *gens = draw(generators)
        table = []
        for y in range(size):
            picked = (size - 1) ^ y if fold is and_ else y
            table.append(reduce(fold, (g for j, g in enumerate(gens) if picked >> j & 1), base))
        for k, value, widen in draw(
            st.lists(st.tuples(st.integers(0, size - 1), TABLE_ENTRIES, st.booleans()), max_size=3)
        ):
            table[k] = table[k] | value if widen else value
        tables.append(table)
    return tuple(tables)


def _pair_conditions_hold(lo, up):
    """Whether the eight conditions of the scalar pair loop hold at every
    pair of V-masks, on the tables as plain ints."""
    for a, b in product(range(len(lo)), repeat=2):
        m, j = a & b, a | b
        if (
            lo[m] != lo[a] & lo[b]
            or up[j] != up[a] | up[b]
            or lo[m] & ~lo[a]
            or lo[a] & ~lo[j]
            or up[m] & ~up[a]
            or up[a] & ~up[j]
            or (lo[a] | lo[b]) & ~lo[j]
            or up[m] & ~(up[a] & up[b])
        ):
            return False
    return True


class TestLawCampaignFaultInjection:
    @given(law_tables())
    # Monotone tables that break the distributive law at one pair only.
    @example(([0, 0, 0, 0], [0, 1, 2, 7]))
    @example(([0, 1, 3, 3], [0, 0, 0, 0]))
    def test_generator_identities_match_every_pair(self, tables):
        assert campaign._homomorphic(*tables) == _pair_conditions_hold(*tables)

    @pytest.mark.parametrize("make_kernels, caught", LAW_KERNELS, ids=LAW_KERNEL_IDS)
    def test_matches_naive_reference(self, monkeypatch, make_kernels, caught):
        # The laws violated, by scope: sampled (30 pairs) and exhaustive.
        violated = {30: set(), None: set()}
        for rel in LAW_RELATIONS:
            budgets = [(30, rel.u_size)]
            if rel.v_size <= 5:
                budgets.append((None, 0))
            for n_pairs, seed in budgets:
                want = _naive_violations(
                    monkeypatch, rel, make_kernels(rel), caught is not None, n_pairs, seed
                )
                violated[n_pairs] |= {law for law, _ in want}
        for laws in violated.values():
            assert (caught in laws) if caught else not laws

    @pytest.mark.parametrize("make_kernels, caught", LAW_KERNELS, ids=LAW_KERNEL_IDS)
    def test_exhaustive_at_lane_boundaries(self, monkeypatch, make_kernels, caught):
        violated = set()
        for rel in LANE_RELATIONS:
            faulty = caught is not None
            want = _naive_violations(monkeypatch, rel, make_kernels(rel), faulty, None, 0)
            violated |= {law for law, _ in want}
        assert (caught in violated) if caught else not violated

    @pytest.mark.parametrize("pairs", [None, 30], ids=["exhaustive", "sampled"])
    @pytest.mark.parametrize("bad", [-1, 1 << 40], ids=["negative", "too-wide"])
    def test_out_of_range_kernel_value_is_a_violation(self, monkeypatch, bad, pairs):
        # A U-mask outside [0, U-mask] is recorded as it came.
        def upper_bits(rows, s):
            return bad if s == 2 else approx.upper_bits(rows, s)

        rel = LANE_RELATIONS[-1]
        monkeypatch.setattr(campaign, "upper_table", _per_subset(upper_bits))
        report = verify_algebraic_properties(rel, pairs=pairs, seed=2)
        law = report.record("upper-is-union-of-left-neighborhoods")
        assert [(v.subsets, v.got) for v in law.violations] == [
            (("{y2}",), f"<U-mask {bad} out of range>")
        ]

    @pytest.mark.parametrize("pairs", [[], ["--pairs", "20"]], ids=["exhaustive", "sampled"])
    @pytest.mark.parametrize(
        "side, fault, law",
        [
            ("upper", lambda bits: -1, "upper-is-union-of-left-neighborhoods"),
            ("lower", lambda bits: bits | 1 << 5, "empty-and-full-values"),
        ],
        ids=["negative-upper", "lower-past-u"],
    )
    def test_out_of_range_kernel_value_exits_one(
        self, capsys, monkeypatch, side, fault, law, pairs
    ):
        # A kernel bug, not bad input: the U-mask it returns for V itself (a
        # subset every campaign examines) of the 5x6 sample is a violation.
        real = getattr(approx, f"{side}_bits")
        monkeypatch.setattr(
            campaign,
            f"{side}_table",
            _per_subset(lambda rows, s: fault(real(rows, s)) if s == 0b111111 else real(rows, s)),
        )
        sample = Path(__file__).parent / "data" / "sample5x6.rel"
        assert main(["verify", str(sample), *pairs]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"VIOLATION {law} " in captured.out and "out of range>" in captured.out

    @pytest.mark.parametrize("bad", [-1, 1 << 40], ids=["negative", "too-wide"])
    def test_out_of_range_lower_at_a_complement_only(self, capsys, monkeypatch, tmp_path, bad):
        # Sampled route: lower at one complement that no single, drawn pair
        # or window reads.  Only the complement duality at its single sees
        # the entry, and the table clear, which asks more than the laws at
        # the singles, leaves the verdict to the scalar loop.
        rel = random_relation(5, 12, 0.4, seed=7, index=0)
        assert not _takes_full_tables(rel, 20, 0)
        singles, pairs = _campaign_subsets(rel, 20, 0)
        n = len(singles)
        touched = set(singles)
        touched.update(*({a, b, a & b, a | b} for a, b in pairs))
        for size in (3, 4):
            touched.update(reduce(and_, (singles[(k + i) % n] for i in range(size))) for k in range(n))
        single = next(s for s in singles if rel.vmask ^ s not in touched)
        target = rel.vmask ^ single

        def lower_bits(rows, s):
            return bad if s == target else approx.lower_bits(rows, s)

        want = _naive_violations(monkeypatch, rel, (lower_bits, approx.upper_bits), True, 20, 0)
        assert want == [("complement-duality", (str(rel.universes.v_subset(_index_set(single))),))]
        path = tmp_path / "wide.rel"
        path.write_text(render_relation_file(rel), encoding="utf-8")
        assert main(["verify", str(path), "--pairs", "20"]) == 1
        assert "VIOLATION complement-duality " in capsys.readouterr().out

    @pytest.mark.parametrize("bad", [-1, 1 << 40], ids=["negative", "too-wide"])
    def test_out_of_range_lower_on_the_full_tables(self, capsys, monkeypatch, sample, bad):
        # Full route: one bad entry in the lower table only, at a subset that
        # is neither the empty set nor V.  The report is the reference's.
        def lower_bits(rows, s):
            return bad if s == 0b000110 else approx.lower_bits(rows, s)

        want = _naive_violations(monkeypatch, sample, (lower_bits, approx.upper_bits), True, None, 0)
        assert {law for law, _ in want} >= {"complement-duality", "monotonicity"}
        path = Path(__file__).parent / "data" / "sample5x6.rel"
        assert main(["verify", str(path)]) == 1
        assert "VIOLATION complement-duality " in capsys.readouterr().out

    def test_fault_only_the_sampled_table_clear_sees(self, monkeypatch):
        # Sampled route: an element x of upper(s) \ lower(s) moves from
        # upper at the complement c of a single s, which no single is, into
        # lower(s).  The complement duality and every other law at the
        # singles still hold, but upper at c is no longer its column union,
        # so the table clear fails and the scalar loops decide: the report
        # is the reference's.
        rel = random_relation(5, 12, 0.4, seed=7, index=0)
        singles, _ = _campaign_subsets(rel, 20, 0)

        def movable(s):
            # Bits of upper(s) \ lower(s), when lower(s) misses two or more
            # elements (so that it does not become U).
            lower = approx.lower_bits(rel.rows, s)
            if rel.vmask ^ s in singles or (rel.umask & ~lower).bit_count() < 2:
                return 0
            return approx.upper_bits(rel.rows, s) & ~lower

        s = next(s for s in singles if movable(s))
        x = movable(s) & -movable(s)
        target = rel.vmask ^ s

        def lower_bits(rows, y):
            return approx.lower_bits(rows, y) | (x if y == s else 0)

        def upper_bits(rows, y):
            return approx.upper_bits(rows, y) & ~(x if y == target else 0)

        kernels = (lower_bits, upper_bits)
        _naive_violations(monkeypatch, rel, kernels, True, 20, 0, stricter=True)

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

    @pytest.mark.parametrize("make_kernels", [_package_kernels, _non_additive_upper])
    def test_drawn_pairs_in_several_blocks(self, monkeypatch, make_kernels):
        # More drawn pairs than one block holds, at a |V| that keeps the
        # campaign on the sampled route: the blocks are checked, and walked
        # when they fail, in draw order.
        rel = random_relation(2, 14, 0.5, seed=13, index=14)
        n_pairs = campaign.PAIR_BLOCK + 37
        assert not _takes_full_tables(rel, n_pairs, 5)
        faulty = make_kernels is not _package_kernels
        want = _naive_violations(monkeypatch, rel, make_kernels(rel), faulty, n_pairs, 5)
        assert bool(want) == faulty

    @pytest.mark.parametrize("workload_seed", [1, 2])
    def test_benchmark_campaign_never_walks_scalar(self, monkeypatch, workload_seed):
        # perfbench's law_campaign: 250 relations up to 10x10, 100 pairs
        # each.  The relations on the full tables clear on their tables, the
        # others on their head tables and their pair blocks, so no relation
        # reaches the scalar loops.
        clears = _clear_results(monkeypatch)
        rng = random.Random(f"{workload_seed}:law_campaign")
        seed = rng.randrange(2**31)
        relations = list(random_campaign(250, max_u=10, max_v=10, seed=seed))
        reports = [
            verify_algebraic_properties(rel, pairs=100, seed=seed + i)
            for i, rel in enumerate(relations)
        ]
        assert merge_property_reports(reports).ok
        full = sum(_takes_full_tables(rel, 100, seed + i) for i, rel in enumerate(relations))
        # Both routes are taken.
        assert 0 < full < 250
        assert clears == {
            "_tables_hold": [True] * 250, "_pairs_hold": [True] * (250 - full), "_homomorphic": []
        }
        # Its exhaustive check of one 40x9 file at density 0.3, drawn from the
        # same stream: its full tables clear it, so no group reaches the
        # scalar pair loop.
        matrix = [[int(rng.random() < 0.3) for _ in range(9)] for _ in range(40)]
        rel = BinaryRelation.from_rows(canonical_universes(40, 9), matrix)
        report = verify_algebraic_properties(rel)
        assert report.ok and report.record("monotonicity").instances == 4**9
        assert clears == {
            "_tables_hold": [True] * 251, "_pairs_hold": [True] * (250 - full), "_homomorphic": []
        }

    def test_tall_full_table_clear_memory(self):
        # An exhaustive campaign on a 4000x8 relation: the clear compares the
        # 256-entry tables of 500-byte U-masks with the column unions entry
        # by entry, so the peak is the two tables, the unions and one list of
        # duals (about 0.6 MB).  Packing each table into ints on top of that
        # would pass the bound.
        rel = random_relation(4000, 8, 0.3, seed=31, index=0)
        tracemalloc.start()
        try:
            report = verify_algebraic_properties(rel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.record("monotonicity").instances == 4**8
        assert peak < 800_000


def _flip_upper_at_pairs(monkeypatch):
    """Fault the campaign's upper table: one bit flipped at every 2-element V-mask."""
    real = campaign.upper_table

    def upper_table(rows, ys):
        return [t ^ 1 if y.bit_count() == 2 else t for t, y in zip(real(rows, ys), ys)]

    monkeypatch.setattr(campaign, "upper_table", upper_table)


class TestViolationRecord:
    def test_faulted_campaign_report_is_bounded(self, capsys, monkeypatch):
        # Every 3x3 relation with a faulted upper: 6.7 MB of report when each
        # violation was listed.  Each law lists its first VIOLATION_DETAILS,
        # in campaign order, and counts them all.
        _flip_upper_at_pairs(monkeypatch)
        tracemalloc.start()
        try:
            code = main(["verify", "--exhaustive", "3", "3", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 1
        assert peak < 5_000_000 and len(out) < 500_000
        reports = [verify_algebraic_properties(rel) for rel in generate_relations(3, 3)]
        body = json.loads(out)
        listed = [(v["law"], v["relation"], v["subsets"], v["got"]) for v in body["violation_details"]]
        want_listed, want_laws = [], []
        for law in ALGEBRAIC_LAWS:
            stream = [v for report in reports for v in report.record(law).violations]
            kept = stream[: campaign.VIOLATION_DETAILS]
            want_listed += [(v.law, v.relation, list(v.subsets), v.got) for v in kept]
            count = sum(report.record(law).violation_count for report in reports)
            want_laws.append((law, count, count > len(kept)))
        assert listed == want_listed
        assert [(r["law"], r["violations"], r.get("truncated", False)) for r in body["laws"]] == want_laws
        # The fault breaks some laws past the bound, and the marker says so.
        assert any(truncated for *_, truncated in want_laws)
        assert all(r.get("truncated", True) is True for r in body["laws"])

    @pytest.mark.parametrize("pairs", [None, 300])
    def test_each_mask_is_formatted_once_per_relation(self, monkeypatch, sample, pairs):
        # The faulted table repeats its wrong masks across many violations;
        # one relation's report builds each subset's text once.
        _flip_upper_at_pairs(monkeypatch)
        formatted = Counter()
        real_str = Subset.__str__

        def counted_str(subset):
            formatted[subset.side, subset.bits] += 1
            return real_str(subset)

        monkeypatch.setattr(Subset, "__str__", counted_str)
        report = verify_algebraic_properties(sample, pairs=pairs, seed=2)
        assert not report.ok and formatted
        assert max(formatted.values()) == 1

    def test_merge_keeps_the_first_violations_in_order(self):
        # Reports whose laws' violations run past the bound across several
        # reports: the merge keeps the first in report order and sums the counts.
        def report(tag, count):
            kept = tuple(
                campaign.Violation(law, f"{tag}{i}", (), "", "")
                for law in ALGEBRAIC_LAWS
                for i in range(min(count, campaign.VIOLATION_DETAILS))
            )
            return campaign.PropertyReport(
                tuple(
                    campaign.LawRecord(law, 1, tuple(v for v in kept if v.law == law), count)
                    for law in ALGEBRAIC_LAWS
                )
            )

        k = campaign.VIOLATION_DETAILS
        merged = merge_property_reports([report("a", k // 2), report("b", 0), report("c", 2 * k)])
        for record in merged.records:
            assert record.instances == 3 and record.violation_count == k // 2 + 2 * k
            assert [v.relation for v in record.violations] == (
                [f"a{i}" for i in range(k // 2)] + [f"c{i}" for i in range(k - k // 2)]
            )
            assert record.truncated and not record.ok
        assert merged.total_violations() == len(ALGEBRAIC_LAWS) * (k // 2 + 2 * k)

    def test_truncated_laws_are_marked_in_text(self, capsys, monkeypatch):
        # A law's row in the table ends in "(truncated)" exactly when it has
        # more violations than it lists.
        _flip_upper_at_pairs(monkeypatch)
        assert main(["verify", "--exhaustive", "2", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines[2 : 2 + len(ALGEBRAIC_LAWS)]]
        assert [row[0] for row in rows] == list(ALGEBRAIC_LAWS)
        listed = [sum(line.startswith(f"VIOLATION {law} ") for line in lines) for law in ALGEBRAIC_LAWS]
        assert listed == [min(int(row[2]), campaign.VIOLATION_DETAILS) for row in rows]
        assert [row[3:] for row in rows] == [
            ["(truncated)"] if int(row[2]) > campaign.VIOLATION_DETAILS else [] for row in rows
        ]
        assert any(row[3:] for row in rows)


def _lower_table_calls(monkeypatch):
    """The V-masks of each ``lower_table`` call the campaign makes from here on."""
    calls = []

    def lower_table(rows, ys):
        calls.append(list(ys))
        return approx.lower_table(rows, ys)

    monkeypatch.setattr(campaign, "lower_table", lower_table)
    return calls


class TestLawCampaignRoutes:
    def test_law_relations_take_both_routes(self, monkeypatch):
        # At 30 pairs, as the fault-injection tests run them, |V| up to 7
        # takes the full tables (lower at every V-subset, in one call) and
        # |V| of 8 and 9 the sampled route (the head table, then one block).
        calls = _lower_table_calls(monkeypatch)
        for rel in LAW_RELATIONS:
            full = rel.v_size <= 7
            assert _takes_full_tables(rel, 30, rel.u_size) == full
            calls.clear()
            assert verify_algebraic_properties(rel, pairs=30, seed=rel.u_size).ok
            assert (calls == [list(range(1 << rel.v_size))]) == full
            assert len(calls) == (1 if full else 2)
        assert {rel.v_size for rel in LAW_RELATIONS} == set(range(1, 10))

    @pytest.mark.parametrize(
        "v_size, pairs, full",
        [
            (1, 1, True),
            (2, 1, True),
            (3, 2, True),
            (5, 3, False),
            (6, 30, True),
            (7, 30, True),
            (8, 30, False),
            (8, 200, True),
            (9, 100, True),
            (10, 100, False),
            (12, 1000, True),
            (14, 1061, False),
            (40, 50, False),
        ],
    )
    def test_full_tables_only_within_the_head_tables(self, monkeypatch, v_size, pairs, full):
        # A sampled campaign tabulates lower at every V-subset, in one call,
        # exactly when 2**|V| is at most (2 + windows) * singles, the length
        # of the head table of its sampled route; otherwise at the head
        # table, then at each block of drawn pairs.  No call reads more
        # V-masks than that head table holds.
        rel = random_relation(4, v_size, 0.4, seed=17, index=v_size)
        singles = _campaign_subsets(rel, pairs, 7)[0]
        head = (2 + sum(size <= len(singles) for size in (3, 4))) * len(singles)
        assert _takes_full_tables(rel, pairs, 7) == full == (2**v_size <= head)
        calls = _lower_table_calls(monkeypatch)
        assert verify_algebraic_properties(rel, pairs=pairs, seed=7).ok
        if full:
            assert calls == [list(range(1 << v_size))]
        else:
            blocks = [min(campaign.PAIR_BLOCK, pairs - k) for k in range(0, pairs, campaign.PAIR_BLOCK)]
            assert [len(ys) for ys in calls] == [head] + [4 * block for block in blocks]
            assert calls[0][: len(singles)] == singles
        assert max(map(len, calls)) <= head


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

    @pytest.mark.parametrize("v", [12, 13, 14, 15, 16])
    def test_non_serial_against_naive(self, v):
        # No subset has equal approximations, so every chunk is read.
        rows = list(random_relation(6, v, 0.4, seed=37, index=v).rows)
        rows[2] = 0
        rel = BinaryRelation(canonical_universes(6, v), tuple(rows))
        assert verify_serial_iff(rel) == naive_serial_iff(matrix_of(rel))

    def test_stops_at_the_first_chunk_with_a_witness(self, monkeypatch):
        # For a serial relation the empty set, tried before any table, is a
        # witness.
        calls = []

        def lower_table(rows, ys):
            calls.append(len(ys))
            return approx.lower_table(rows, ys)

        monkeypatch.setattr(lab, "lower_table", lower_table)
        rel = random_relation(6, 16, 0.5, seed=37, index=0)
        assert rel.is_serial() and verify_serial_iff(rel)
        assert calls == []
        # A non-serial relation has no witness: every chunk is read, in order,
        # here the 255 non-empty subsets in one.
        rows = list(random_relation(6, 8, 0.5, seed=37, index=0).rows)
        rows[0] = 0
        assert verify_serial_iff(BinaryRelation(canonical_universes(6, 8), tuple(rows)))
        assert calls == [255]

    @pytest.mark.parametrize("v", [12, 14])
    def test_faulted_kernel_is_caught(self, monkeypatch, v):
        # A lower that differs from upper at every subset of a serial
        # relation, and one that equals upper only at V (the last chunk) of
        # a non-serial one: either way the biconditional fails.
        serial = random_relation(6, v, 0.5, seed=41, index=v)
        assert serial.is_serial()

        def lower_bits(rows, s):
            return approx.upper_bits(rows, s) ^ 1

        monkeypatch.setattr(lab, "lower_bits", lower_bits)
        monkeypatch.setattr(lab, "lower_table", _per_subset(lower_bits))
        assert not verify_serial_iff(serial)

        rows = list(serial.rows)
        rows[0] = 0
        non_serial = BinaryRelation(serial.universes, tuple(rows))
        vmask = non_serial.vmask

        def lower_bits(rows, s):
            return approx.upper_bits(rows, s) if s == vmask else approx.lower_bits(rows, s)

        monkeypatch.setattr(lab, "lower_bits", lower_bits)
        monkeypatch.setattr(lab, "lower_table", _per_subset(lower_bits))
        assert not verify_serial_iff(non_serial)
        monkeypatch.setattr(lab, "lower_bits", approx.lower_bits)
        monkeypatch.setattr(lab, "lower_table", approx.lower_table)
        assert verify_serial_iff(non_serial)

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

    @pytest.mark.parametrize("u_size, v_size", [(70, 80), (65, 300), (300, 65)])
    def test_round_trip_past_64_rows_and_columns(self, u_size, v_size):
        rel = random_relation(u_size, v_size, 0.3, 29, u_size)
        rebuilt = reconstruct_relation(lambda s: upper_approximation(rel, s), rel.universes)
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
    """``lab.pair_work`` refuses exactly the sizes the old rules refused."""

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
                lab.pair_work(0, 1, v_size, "one relation")
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
