"""Workloads of the birough benchmark: seeded inputs, command lists, checks.

Each workload is a fixed list of real ``birough`` commands.  Its input files
are generated from the benchmark seed; their sizes do not depend on the seed.
Every command carries a check of its stdout against the set-based oracles in
``tests/naive.py`` (passed in as ``oracle``); a check raises ``CheckFailed``
with the reason.

The default sizes are scaled so that one pass over a workload's command list
takes about three seconds on a small machine, while each workload keeps the
property it was chosen for (see perfbench/README.md).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Sequence

Matrix = list[list[int]]


class CheckFailed(Exception):
    """A command's output disagrees with the oracle or checked nothing."""


@dataclass(frozen=True)
class Command:
    """One ``birough`` invocation, its expected exit code, and its output check."""

    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[str], None]

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    inputs: tuple[str, ...]  # one line of input properties per generated input


def _expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# --- inputs ------------------------------------------------------------------


def _u(i: int) -> str:
    return f"x{i + 1}"


def _v(j: int) -> str:
    return f"y{j + 1}"


def _u_labels(indices) -> set[str]:
    return {_u(i) for i in indices}


def _v_labels(indices) -> set[str]:
    return {_v(j) for j in indices}


def _write_relation(path: Path, matrix: Matrix) -> int:
    lines = ["V: " + " ".join(_v(j) for j in range(len(matrix[0])))]
    for i, row in enumerate(matrix):
        lines.append(f"{_u(i)}: " + " ".join(map(str, row)))
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="ascii")
    return len(text)


def _write_classes(path: Path, blocks: Sequence[Sequence[int]]) -> int:
    text = "".join(
        f"c{b + 1}: " + " ".join(_v(j) for j in block) + "\n"
        for b, block in enumerate(blocks)
    )
    path.write_text(text, encoding="ascii")
    return len(text)


def _relation_properties(path: Path, matrix: Matrix, nbytes: int) -> str:
    cells = sum(map(sum, matrix))
    distinct = len({tuple(row) for row in matrix})
    return (
        f"{path.name}: |U|={len(matrix)} |V|={len(matrix[0])} "
        f"density={cells / (len(matrix) * len(matrix[0])):.4f} "
        f"distinct_rows={distinct / len(matrix):.4f} bytes={nbytes}"
    )


def _classes_properties(path: Path, blocks, nbytes: int) -> str:
    return f"{path.name}: blocks={len(blocks)} bytes={nbytes}"


def _even_blocks(columns: Sequence[int], k: int) -> list[list[int]]:
    n = len(columns)
    return [list(columns[b * n // k:(b + 1) * n // k]) for b in range(k)]


# --- output parsing shared by the checks ---------------------------------------


def _text_set(text: str) -> set[str]:
    text = text.strip()
    _expect(text.startswith("{") and text.endswith("}"), f"not a set: {text[:40]!r}")
    return {token for token in text[1:-1].split(", ") if token}


def _text_fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            fields[key] = value
    return fields


def _text_ratio(text: str) -> tuple[int, int] | None:
    if text.startswith("undefined"):
        return None
    num, _, den = text.split(" ", 1)[0].partition("/")
    return int(num), int(den)


def _fraction(num: int, den: int) -> tuple[int, int]:
    value = Fraction(num, den)
    return value.numerator, value.denominator


# --- checks --------------------------------------------------------------------


def _check_neighbors(oracle, matrix: Matrix) -> Callable[[str], None]:
    def check(out: str) -> None:
        obj = json.loads(out)
        nu, nv = len(matrix), len(matrix[0])
        _expect(
            (obj["relation"]["u_size"], obj["relation"]["v_size"]) == (nu, nv),
            "relation size",
        )
        solitary = oracle.naive_solitary(matrix)
        _expect(set(obj["solitary"]) == _u_labels(solitary), "solitary set")
        _expect(obj["serial"] == (not solitary), "seriality")
        rights = obj["right_neighborhoods"]
        _expect(len(rights) == nu, "right neighborhood count")
        for i in range(nu):
            _expect(
                set(rights[_u(i)]) == _v_labels(oracle.naive_right(matrix, i)),
                f"right neighborhood of {_u(i)}",
            )
        lefts = [oracle.naive_left(matrix, j) for j in range(nv)]
        for j in range(nv):
            _expect(
                set(obj["left_neighborhoods"][_v(j)]) == _u_labels(lefts[j]),
                f"left neighborhood of {_v(j)}",
            )
        u_groups: dict[frozenset, set[str]] = {}
        for i in range(nu):
            key = frozenset(oracle.naive_right(matrix, i))
            u_groups.setdefault(key, set()).add(_u(i))
        v_groups: dict[frozenset, set[str]] = {}
        for j in range(nv):
            v_groups.setdefault(frozenset(lefts[j]), set()).add(_v(j))
        _expect(
            {frozenset(b) for b in obj["u_partition"]}
            == {frozenset(b) for b in u_groups.values()},
            "U quotient partition",
        )
        _expect(
            {frozenset(b) for b in obj["v_partition"]}
            == {frozenset(b) for b in v_groups.values()},
            "V quotient partition",
        )
        _expect(obj["saturation_identity"] is True, "saturation identity")

    return check


def _check_approx(oracle, matrix: Matrix, query: set[int]) -> Callable[[str], None]:
    def check(out: str) -> None:
        fields = _text_fields(out)
        lower = _u_labels(oracle.naive_lower(matrix, query))
        upper = _u_labels(oracle.naive_upper(matrix, query))
        _expect(_text_set(fields["set"]) == _v_labels(query), "query set")
        _expect(_text_set(fields["lower"]) == lower, "lower approximation")
        _expect(_text_set(fields["upper"]) == upper, "upper approximation")
        _expect(_text_set(fields["boundary"]) == upper - lower, "boundary")
        code = int(fields["type"].split()[1])
        _expect(code == oracle.naive_type(matrix, query), "rough type")

    return check


def _check_family(oracle, matrix: Matrix, blocks, family: dict) -> None:
    """Compare a normalized classify report with naive lowers and uppers."""
    nu, nv = len(matrix), len(matrix[0])
    _expect(len(family["blocks"]) == len(blocks), "block count")
    lower_total = upper_total = 0
    definable = True
    for b, (block, (name, members, lower, upper)) in enumerate(zip(blocks, family["blocks"])):
        y = set(block)
        want_lower = _u_labels(oracle.naive_lower(matrix, y))
        want_upper = _u_labels(oracle.naive_upper(matrix, y))
        _expect(name == f"c{b + 1}" and members == _v_labels(y), f"block c{b + 1}")
        _expect(lower == want_lower, f"lower approximation of c{b + 1}")
        _expect(upper == want_upper, f"upper approximation of c{b + 1}")
        lower_total += len(want_lower)
        upper_total += len(want_upper)
        definable = definable and want_lower == want_upper
    accuracy = _fraction(lower_total, upper_total) if upper_total else None
    _expect(family["accuracy"] == accuracy, "accuracy")
    _expect(family["quality_v"] == _fraction(lower_total, nv), "quality per |V|")
    _expect(family["quality_u"] == _fraction(lower_total, nu), "quality per |U|")
    _expect(family["definable"] == definable, "definability")
    serial = not oracle.naive_solitary(matrix)
    _expect(family["serial"] == serial, "seriality")
    holds, vacuous, violated = family["tally"]
    _expect(violated == 0 and "violated" not in family["verdicts"], "violated law")
    _expect(family["entries"] > 0, "no law instance checked")
    _expect(holds + vacuous + violated == family["entries"], "law tally")


def _check_classify_text(oracle, matrix: Matrix, blocks) -> Callable[[str], None]:
    def check(out: str) -> None:
        lines = out.splitlines()
        fields = _text_fields(out)
        start = lines.index("blocks:") + 1
        parsed = []
        for b in range(len(blocks)):
            head, lower, upper = lines[start + 3 * b:start + 3 * b + 3]
            name, _, members = head.strip().partition(" = ")
            parsed.append(
                (
                    name,
                    _text_set(members),
                    _text_set(lower.strip().removeprefix("lower: ")),
                    _text_set(upper.strip().removeprefix("upper: ")),
                )
            )
        tally = [int(part.split()[0]) for part in fields["laws"].split(", ")]
        entry_lines = lines[lines.index("laws: " + fields["laws"]) + 1:]
        family = {
            "blocks": parsed,
            "accuracy": _text_ratio(fields["accuracy"]),
            "quality_v": _text_ratio(fields["quality (per |V|)"]),
            "quality_u": _text_ratio(fields["quality (per |U|)"]),
            "definable": fields["definable"] == "yes",
            "serial": fields["serial"] == "yes",
            "tally": tuple(tally),
            "entries": len(entry_lines),
            "verdicts": {line.split()[0] for line in entry_lines},
        }
        _check_family(oracle, matrix, blocks, family)

    return check


def _check_classify_json(oracle, matrix: Matrix, blocks) -> Callable[[str], None]:
    def ratio(obj):
        return None if obj is None else (obj["num"], obj["den"])

    def check(out: str) -> None:
        obj = json.loads(out)
        measures, laws = obj["measures"], obj["laws"]
        family = {
            "blocks": [
                (b["name"], set(b["members"]), set(b["lower"]), set(b["upper"]))
                for b in obj["blocks"]
            ],
            "accuracy": ratio(measures["accuracy"]),
            "quality_v": ratio(measures["quality_v"]),
            "quality_u": ratio(measures["quality_u"]),
            "definable": measures["definable"],
            "serial": measures["serial"],
            "tally": (laws["holds"], laws["vacuous"], laws["violated"]),
            "entries": len(laws["entries"]),
            "verdicts": {e["verdict"] for e in laws["entries"]},
        }
        _check_family(oracle, matrix, blocks, family)

    return check


def _type_code(label: str) -> int:
    return int(label.split()[1])


def _check_tables(oracle, op: str) -> Callable[[str], None]:
    def check(out: str) -> None:
        obj = json.loads(out)
        _expect(obj["operation"] == op and obj["conformant"] is True, "conformance")
        _expect(len(obj["cells"]) == 16, "cell count")
        witnesses = 0
        for cell in obj["cells"]:
            left, right = _type_code(cell["left"]), _type_code(cell["right"])
            allowed = {_type_code(t) for t in cell["allowed"]}
            observed = {_type_code(t) for t in cell["observed"]}
            _expect(cell["conformant"] and observed <= allowed, "cell conformance")
            _expect(
                observed == {_type_code(w["result"]) for w in cell["witnesses"]},
                "observed outcomes without witnesses",
            )
            for w in cell["witnesses"]:
                matrix = [[int(c) for c in row] for row in w["rows"]]
                _expect(
                    len(matrix) == w["u"] and all(len(r) == w["v"] for r in matrix),
                    "witness shape",
                )
                x = {int(label[1:]) - 1 for label in w["left_set"]}
                y = {int(label[1:]) - 1 for label in w["right_set"]}
                combined = x | y if op == "union" else x & y
                _expect(oracle.naive_type(matrix, x) == left, "witness left type")
                _expect(oracle.naive_type(matrix, y) == right, "witness right type")
                _expect(
                    oracle.naive_type(matrix, combined) == _type_code(w["result"]),
                    "witness result type",
                )
                witnesses += 1
        _expect(witnesses > 0, "no witness found")

    return check


def _check_not_found(out: str) -> None:
    lines = out.splitlines()
    _expect(len(lines) == 2, "witness report shape")
    _expect(lines[0].startswith("witness search: "), "witness report header")
    _expect(lines[1] == "not found within the search bounds", "witness found")


def _check_verify(relations: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        obj = json.loads(out)
        _expect(obj["pass"] is True and not obj["violation_details"], "verification failed")
        _expect(all(law["violations"] == 0 for law in obj["laws"]), "law violation")
        _expect(sum(law["instances"] for law in obj["laws"]) > 0, "no law instance checked")
        for name, counts in obj["checks"].items():
            _expect(counts["failures"] == 0, f"{name} failed")
            _expect(counts["checked"] == relations, f"{name} checked {counts['checked']}")

    return check


# --- workloads -----------------------------------------------------------------


def tall_relation(
    seed: int, workdir: Path, oracle, *, u=8000, v=64, pool=800, density=0.3, blocks=4
) -> Workload:
    """Tall |U|, few columns, rows drawn from a small pool of patterns.

    Pattern 0 is the empty row, so the solitary set is never empty.
    """
    rng = random.Random(f"{seed}:tall_relation")
    patterns = {tuple([0] * v)}
    while len(patterns) < pool:
        patterns.add(tuple(int(rng.random() < density) for _ in range(v)))
    ordered = sorted(patterns)
    matrix = [list(rng.choice(ordered)) for _ in range(u)]
    columns = list(range(v))
    queries = [set(rng.sample(columns, v * 3 // 8)), set(rng.sample(columns, v * 3 // 4))]
    rng.shuffle(columns)
    classes = _even_blocks(columns, blocks)

    rel, cls = workdir / "tall.rel", workdir / "tall.classes"
    rel_bytes = _write_relation(rel, matrix)
    cls_bytes = _write_classes(cls, classes)
    commands = [Command(("neighbors", str(rel), "--format", "json"), 0, _check_neighbors(oracle, matrix))]
    for query in queries:
        labels = ",".join(_v(j) for j in sorted(query))
        commands.append(
            Command(("approx", str(rel), "--set", labels), 0, _check_approx(oracle, matrix, query))
        )
    commands.append(
        Command(
            ("classify", str(rel), "--classes", str(cls)),
            0,
            _check_classify_text(oracle, matrix, classes),
        )
    )
    inputs = (
        _relation_properties(rel, matrix, rel_bytes),
        _classes_properties(cls, classes, cls_bytes),
    )
    return Workload(tuple(commands), inputs)


def family_laws(
    seed: int, workdir: Path, oracle, *, u=500, v=500, block_counts=(11, 100), density=0.5
) -> Workload:
    """Distinct rows clustered inside the blocks of the first classification.

    The first classification is small enough for the law engine to enumerate
    every index set; the second is large enough for its sampled path.
    """
    rng = random.Random(f"{seed}:family_laws")
    classifications = [_even_blocks(range(v), k) for k in block_counts]
    home = classifications[0]
    rows: set[tuple[int, ...]] = set()
    matrix: Matrix = []
    while len(matrix) < u:
        cells = [0] * v
        for j in rng.choice(home):
            cells[j] = int(rng.random() < density)
        if rng.random() < 0.5:
            cells[rng.randrange(v)] = 1
        row = tuple(cells)
        if any(row) and row not in rows:
            rows.add(row)
            matrix.append(cells)

    rel = workdir / "family.rel"
    rel_bytes = _write_relation(rel, matrix)
    inputs = [_relation_properties(rel, matrix, rel_bytes)]
    commands = []
    for classes in classifications:
        cls = workdir / f"family{len(classes)}.classes"
        inputs.append(_classes_properties(cls, classes, _write_classes(cls, classes)))
        commands.append(
            Command(
                ("classify", str(rel), "--classes", str(cls), "--format", "json"),
                0,
                _check_classify_json(oracle, matrix, classes),
            )
        )
    return Workload(tuple(commands), tuple(inputs))


def table_sweep(seed: int, workdir: Path, oracle, *, max_u=5, max_v=3) -> Workload:
    """Every relation up to the bounds, through both type tables and a witness search.

    The input is the exhaustive relation space itself, so the seed does not
    change it.  The witness asks for an outcome the union table rules out,
    so the search exhausts the bounds and exits 1.
    """
    bounds = ("--max-u", str(max_u), "--max-v", str(max_v))
    commands = tuple(
        Command(("tables", "--op", op, *bounds, "--format", "json"), 0, _check_tables(oracle, op))
        for op in ("union", "intersection")
    ) + (
        Command(
            ("witness", "--op", "union", "--left", "1", "--right", "1", "--result", "4", *bounds),
            1,
            _check_not_found,
        ),
    )
    relations = sum(2 ** (i * j) for i in range(1, max_u + 1) for j in range(1, max_v + 1))
    # A relation's types depend only on its set of rows: count the distinct
    # (|V|, row set) keys, i.e. non-empty sets of at most max_u rows.
    keys = sum(comb(2**j, k) for j in range(1, max_v + 1) for k in range(1, max_u + 1))
    inputs = (
        f"exhaustive sweep u<={max_u} v<={max_v}: relations={relations} "
        f"distinct_row_sets={keys / relations:.4f}",
    )
    return Workload(commands, inputs)


def law_campaign(
    seed: int, workdir: Path, oracle, *, samples=250, max_dim=10, pairs=100, u=40, v=9, density=0.3
) -> Workload:
    """A seeded random law campaign plus an exhaustive-subset check of one file."""
    rng = random.Random(f"{seed}:law_campaign")
    campaign_seed = rng.randrange(2**31)
    matrix = [[int(rng.random() < density) for _ in range(v)] for _ in range(u)]
    rel = workdir / "campaign.rel"
    rel_bytes = _write_relation(rel, matrix)
    campaign = (
        "verify", "--samples", str(samples), "--max-u", str(max_dim), "--max-v", str(max_dim),
        "--pairs", str(pairs), "--seed", str(campaign_seed), "--format", "json",
    )
    commands = (
        Command(campaign, 0, _check_verify(samples)),
        Command(("verify", str(rel), "--format", "json"), 0, _check_verify(1)),
    )
    inputs = (
        f"campaign: samples={samples} max_u={max_dim} max_v={max_dim} pairs={pairs} "
        f"seed={campaign_seed}",
        _relation_properties(rel, matrix, rel_bytes),
    )
    return Workload(commands, inputs)


WORKLOADS = {
    "tall_relation": tall_relation,
    "family_laws": family_laws,
    "table_sweep": table_sweep,
    "law_campaign": law_campaign,
}
