"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from birough import (
    BinaryRelation,
    SubsetBudget,
    UniversePair,
    ambiguous_cells,
    approximate_family,
    derived_laws_report,
    duality_report,
    generate_relations,
    merge_property_reports,
    parse_relation_file,
    random_campaign,
    reconstruct_relation,
    rough_type,
    table_for,
    upper_approximation,
    validate_classification,
    verify_algebraic_properties,
    verify_serial_iff,
    witness_inventory,
)
from birough.classify import DERIVED_LAWS, VACUOUS, VIOLATED

TESTS = Path(__file__).parent
REPO = TESTS.parent
SAMPLE_PATH = TESTS / "data" / "sample5x6.rel"


@contextmanager
def criterion(number: int, title: str, seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{title}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < seconds
    status = "PASS" if ok else "FAIL (overtime)"
    print(
        f"criterion {number:2d} [{title}]: {status} "
        f"({elapsed:.2f}s, limit {seconds:g}s)"
    )
    assert ok, f"criterion {number} took {elapsed:.2f}s, limit {seconds:g}s"


def load_sample() -> BinaryRelation:
    return parse_relation_file(
        SAMPLE_PATH.read_text(encoding="utf-8"), source=str(SAMPLE_PATH)
    ).relation()


def family_of(rel, **blocks):
    named = [
        (name, rel.universes.v_subset(labels)) for name, labels in blocks.items()
    ]
    return approximate_family(rel, validate_classification(named))


def labels(subset):
    return subset.labels()


def test_criterion_01_first_worked_example():
    with criterion(1, "5x6 worked example: neighborhoods and rough classification", 1.0):
        rel = load_sample()
        assert labels(rel.right_neighborhood("x1")) == ("y1", "y2", "y5")
        assert labels(rel.right_neighborhood("x2")) == ("y3", "y6")
        assert labels(rel.right_neighborhood("x3")) == ("y2", "y4")
        assert labels(rel.right_neighborhood("x4")) == ("y1", "y3", "y4", "y5", "y6")
        assert labels(rel.right_neighborhood("x5")) == ("y1", "y2", "y5")

        u_part, v_part = rel.quotient_partitions()
        assert set(u_part.as_label_sets()) == {
            ("x1", "x5"), ("x2",), ("x3",), ("x4",),
        }
        assert set(v_part.as_label_sets()) == {
            ("y1", "y5"), ("y3", "y6"), ("y2",), ("y4",),
        }

        fa = family_of(rel, Y1=("y1", "y2", "y6"), Y2=("y3", "y4", "y5"))
        assert all(up.is_full for up in fa.uppers)
        assert all(not lo for lo in fa.lowers)


def test_criterion_02_second_worked_example():
    with criterion(2, "5x6 worked example: families and measures", 1.0):
        rel = load_sample()

        fa = family_of(rel, Y1=("y1", "y2", "y4"), Y2=("y3", "y5", "y6"))
        assert [labels(s) for s in fa.lowers] == [("x3",), ("x2",)]
        assert [labels(s) for s in fa.uppers] == [
            ("x1", "x3", "x4", "x5"),
            ("x1", "x2", "x4", "x5"),
        ]
        assert fa.accuracy() == Fraction(1, 4)
        quality = fa.quality()
        assert quality.v_normalized == Fraction(1, 3)
        assert quality.u_normalized == Fraction(2, 5)

        fa3 = family_of(rel, Y1=("y1", "y2", "y4"), Y2=("y3", "y6"), Y3=("y5",))
        assert labels(fa3.lowers[1]) == ("x2",)
        assert labels(fa3.uppers[1]) == ("x2", "x4")
        assert labels(fa3.uppers[0]) == ("x1", "x3", "x4", "x5")
        assert labels(fa3.uppers[2]) == ("x1", "x4", "x5")


def test_criterion_03_algebraic_laws():
    with criterion(3, "algebraic laws: exhaustive small models + 500 seeded", 60.0):
        reports = []
        for u, v in ((2, 2), (3, 3)):
            for rel in generate_relations(u, v):
                reports.append(verify_algebraic_properties(rel))
        for i, rel in enumerate(random_campaign(500, max_u=8, max_v=8, seed=101)):
            reports.append(
                verify_algebraic_properties(rel, SubsetBudget.sampled(50, seed=101 + i))
            )
        merged = merge_property_reports(reports)
        assert merged.ok, merged
        assert merged.total_violations() == 0
        assert merged.record("monotonicity").instances >= 500 * 50


def test_criterion_04_seriality_biconditional():
    with criterion(4, "seriality biconditional over all 3x3 relations", 5.0):
        count = 0
        for rel in generate_relations(3, 3):
            assert verify_serial_iff(rel)
            count += 1
        assert count == 512


def test_criterion_05_reconstruction_round_trip():
    with criterion(5, "reconstruction round-trip on 100 seeded relations", 5.0):
        count = 0
        for rel in random_campaign(100, max_u=8, max_v=8, seed=151):
            rebuilt = reconstruct_relation(
                lambda s, rel=rel: upper_approximation(rel, s), rel.universes
            )
            assert rebuilt == rel
            count += 1
        assert count == 100


def test_criterion_06_saturation_identity():
    with criterion(6, "saturation identity: 512 exhaustive + 1000 seeded", 10.0):
        for rel in generate_relations(3, 3):
            assert rel.saturation_identity_holds()
        count = 0
        for rel in random_campaign(1000, max_u=8, max_v=8, seed=163):
            assert rel.saturation_identity_holds()
            count += 1
        assert count == 1000


THREE_ELEMENT_CLASSIFICATIONS = (
    ((0,), (1,), (2,)),
    ((0, 1), (2,)),
    ((0, 2), (1,)),
    ((1, 2), (0,)),
)


def test_criterion_07_family_theorems_and_derived_laws():
    with criterion(7, "family dualities and derived laws over all 3x3 models", 30.0):
        non_vacuous = {law: 0 for law in DERIVED_LAWS}
        for rel in generate_relations(3, 3):
            for blocks in THREE_ELEMENT_CLASSIFICATIONS:
                named = [
                    (f"B{k + 1}", rel.universes.v_subset(members))
                    for k, members in enumerate(blocks)
                ]
                fa = approximate_family(rel, validate_classification(named))
                assert duality_report(fa).tally()[VIOLATED] == 0
                derived = derived_laws_report(fa)
                assert derived.tally()[VIOLATED] == 0
                for entry in derived.entries:
                    if entry.verdict != VACUOUS:
                        non_vacuous[entry.law] += 1
        assert all(count > 0 for count in non_vacuous.values()), non_vacuous

        # the worked-example instances must appear as non-vacuous "holds"
        rel = load_sample()
        fa = family_of(rel, Y1=("y2", "y3", "y5"), Y2=("y1", "y4"), Y3=("y6",))
        entry = next(
            e
            for e in derived_laws_report(fa).by_law(
                "block-upper-covers-forces-other-lowers-empty"
            )
            if e.blocks == ("Y1",)
        )
        assert entry.hypothesis and entry.verdict == "holds"

        fa = family_of(rel, Y1=("y1", "y2", "y4"), Y2=("y3", "y5", "y6"))
        (entry,) = derived_laws_report(fa).by_law(
            "all-lowers-nonempty-forces-all-uppers-proper"
        )
        assert entry.hypothesis and entry.verdict == "holds"

        fa = family_of(rel, Y1=("y1", "y2", "y4"), Y2=("y3", "y6"), Y3=("y5",))
        entry = next(
            e
            for e in derived_laws_report(fa).by_law(
                "block-lower-nonempty-forces-other-uppers-proper"
            )
            if e.blocks == ("Y2",)
        )
        assert entry.hypothesis and entry.verdict == "holds"


def test_criterion_08_type_tables():
    with criterion(8, "type tables: 2x3 conformance + 4x4 witness inventory", 120.0):
        # transcription shape: 7 ambiguous and 9 unambiguous cells per table
        for operation in ("union", "intersection"):
            table = table_for(operation)
            assert len(ambiguous_cells(operation)) == 7
            assert sum(1 for allowed in table.values() if len(allowed) == 1) == 9

        for operation in ("union", "intersection"):
            findings = witness_inventory(operation, 2, 3)
            assert all(f.conformant for f in findings), operation

        for operation in ("union", "intersection"):
            inventory = witness_inventory(operation, 4, 4)
            assert all(f.conformant for f in inventory)
            for finding in inventory:
                # unrealized alternatives are reported, never raised
                assert set(finding.unrealized) == set(
                    finding.allowed - finding.observed
                )
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


def _random_classification(universes, seed: int, index: int):
    rng = random.Random(f"{seed}:classes:{index}")
    v = universes.v_size
    order = list(range(v))
    rng.shuffle(order)
    n = rng.randint(2, v)
    cuts = sorted(rng.sample(range(1, v), n - 1))
    named = []
    previous = 0
    for k, cut in enumerate([*cuts, v]):
        named.append((f"B{k + 1}", universes.v_subset(order[previous:cut])))
        previous = cut
    return validate_classification(named)


def test_criterion_09_measure_bounds_and_regressions():
    with criterion(9, "measure chain on serial relations + stored regressions", 30.0):
        checked = 0
        definable_seen = 0
        for index, rel in enumerate(
            random_campaign(100000, max_u=8, max_v=8, min_v=2, seed=202)
        ):
            if not rel.is_serial():
                continue
            fa = approximate_family(
                rel, _random_classification(rel.universes, 202, index)
            )
            alpha = fa.accuracy()
            quality = fa.quality()
            assert Fraction(0) <= alpha <= quality.u_normalized <= Fraction(1)
            if fa.is_definable():
                definable_seen += 1
                assert alpha == Fraction(1)
                if rel.u_size == rel.v_size:
                    assert quality.v_normalized == Fraction(1)
            checked += 1
            if checked == 500:
                break
        assert checked == 500

        # stored regression: |U| > |V| pushes the v-normalized quality past 1
        up = UniversePair(("x1", "x2", "x3"), ("y1", "y2"))
        rel = BinaryRelation.from_rows(up, [[1, 0], [1, 0], [1, 0]])
        fa = approximate_family(
            rel,
            validate_classification(
                [("Y1", up.v_subset(["y1"])), ("Y2", up.v_subset(["y2"]))]
            ),
        )
        assert fa.is_definable() and fa.accuracy() == Fraction(1)
        assert fa.quality().v_normalized == Fraction(3, 2)
        assert fa.quality().u_normalized == Fraction(1)

        # stored regression: definable 2x3 family with v-normalized quality 2/3
        up = UniversePair(("x1", "x2"), ("y1", "y2", "y3"))
        rel = BinaryRelation.from_rows(up, [[1, 0, 0], [0, 1, 1]])
        fa = approximate_family(
            rel,
            validate_classification(
                [("Y1", up.v_subset(["y1"])), ("Y2", up.v_subset(["y2", "y3"]))]
            ),
        )
        assert fa.is_definable() and fa.accuracy() == Fraction(1)
        assert fa.quality().v_normalized == Fraction(2, 3)
        assert fa.quality().u_normalized == Fraction(1)


def _run_cli(args: list[str]):
    proc = subprocess.run(
        [sys.executable, "-m", "birough.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_10_cli_goldens_and_exit_codes(tmp_path):
    from test_cli import GOLDEN_CASES

    with criterion(10, "CLI golden files and exit-code contract", 120.0):
        for name, args in sorted(GOLDEN_CASES.items()):
            code, out, err = _run_cli(args)
            assert code == 0 and err == "", (name, err)
            golden = (TESTS / "golden" / name).read_text(encoding="utf-8")
            assert out == golden, f"{name} drifted from its golden file"

        # exit 0: a clean verification run
        code, _, _ = _run_cli(["verify", "tests/data/sample5x6.rel"])
        assert code == 0

        # exit 1: a seeded relation planted to violate a corrupted transcription
        tables = {
            "union": [
                [[1], [1, 3], [3], [3]],
                [[1, 3], [1, 2, 3, 4], [3], [3, 4]],
                [[3], [3], [3], [3]],
                [[3], [3, 4], [3], [3, 4]],
            ]
        }
        tables_path = tmp_path / "tables.json"
        tables_path.write_text(json.dumps(tables), encoding="utf-8")
        mutant_path = tmp_path / "mutant.rel"
        mutant_path.write_text("V: y1 y2\nx1: 1 0\nx2: 0 1\n", encoding="utf-8")
        code, out, _ = _run_cli(
            [
                "tables", "--op", "union",
                "--relation", str(mutant_path),
                "--tables-file", str(tables_path),
            ]
        )
        assert code == 1 and "VIOLATIONS FOUND" in out

        # exit 1: witness request that must exhaust its bounds
        code, _, _ = _run_cli(
            [
                "witness", "--op", "union", "--left", "1", "--right", "1",
                "--result", "2", "--max-u", "2", "--max-v", "2",
            ]
        )
        assert code == 1

        # exit 2: malformed input
        bad_path = tmp_path / "bad.rel"
        bad_path.write_text("V: y1 y2\nx1: 1 0 1\n", encoding="utf-8")
        code, _, err = _run_cli(["approx", str(bad_path), "--set", "y1"])
        assert code == 2 and "error:" in err
