"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "tall_relation": {"u": 40, "v": 8, "pool": 10, "blocks": 2},
    "family_laws": {"u": 20, "v": 24, "block_counts": (3, 13)},
    "table_sweep": {"max_u": 2, "max_v": 2},
    "law_campaign": {"samples": 5, "max_dim": 3, "pairs": 5, "u": 6, "v": 3},
}


@pytest.fixture(autouse=True)
def root_cwd(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, capsys):
    result = run.run(ROOT, name, seed=3, seconds=0, trace=bool(trace), sizes=TINY[name])
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    if trace:
        assert dict(tracer.PER_LAYER) == expected
    assert not (ROOT / run.WORK_DIR).exists()


def _corrupt_set(out: str) -> str:
    return out.replace("upper: {", "upper: {x9999, ", 1)


def _corrupt_accuracy(out: str) -> str:
    obj = json.loads(out)
    obj["measures"]["quality_u"]["num"] += 1
    return json.dumps(obj)


def _corrupt_witness(out: str) -> str:
    obj = json.loads(out)
    witness = next(c for c in obj["cells"] if c["witnesses"])["witnesses"][0]
    code = int(witness["result"].split()[1])
    witness["result"] = f"Type {code % 4 + 1}"
    return json.dumps(obj)


def _corrupt_laws(out: str) -> str:
    obj = json.loads(out)
    for law in obj["laws"]:
        law["instances"] = 0
    return json.dumps(obj)


def _found(out: str) -> str:
    return out.replace("not found within the search bounds", "found: u=1 v=1 rows=1 X={y1} Y={}")


@pytest.mark.parametrize(
    "name, index, corrupt",
    [
        ("tall_relation", 1, _corrupt_set),
        ("tall_relation", 3, _corrupt_set),
        ("family_laws", 0, _corrupt_accuracy),
        ("table_sweep", 0, _corrupt_witness),
        ("table_sweep", 2, _found),
        ("law_campaign", 0, _corrupt_laws),
    ],
)
def test_corrupted_report_counts_as_failure(name, index, corrupt, tmp_path):
    workdir = Path(run.WORK_DIR) / tmp_path.name
    (ROOT / workdir).mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](3, workdir, run.load_oracle(ROOT), **TINY[name])
        command = workload.commands[index]
        env = {"PYTHONPATH": str(ROOT / "src")}
        spawner = run.Spawner(env)
        try:
            good = spawner.run([*run.UNTRACED, *command.argv], tmp_path / "out", tmp_path / "err")
        finally:
            spawner.close()
    finally:
        shutil.rmtree(ROOT / run.WORK_DIR)
    bad = run.Execution(good.exit, good.wall_s, good.peak_rss_kb,
                        corrupt(good.stdout.decode()).encode(), good.stderr)
    assert bad.stdout != good.stdout

    judge = run.Judge()
    judge.judge(index, command, good)
    judge.judge(index, command, good)
    assert (judge.attempted, judge.failed) == (2, 0)
    judge.judge(index, command, bad)  # differs from the first run's bytes
    assert (judge.attempted, judge.failed) == (3, 1)

    judge = run.Judge()
    judge.judge(index, command, bad)  # the first run is checked against the oracle
    assert (judge.attempted, judge.failed) == (1, 1)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "table_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_depend_on_the_seed_but_their_size_does_not(tmp_path):
    oracle = run.load_oracle(ROOT)
    sizes = {}
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        workdir = tmp_path / sub
        workdir.mkdir()
        for name, build in workloads.WORKLOADS.items():
            build(seed, workdir, oracle)
        sizes[sub] = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    assert sizes["a"] == sizes["b"]
    assert sizes["a"] != sizes["c"]
    assert {k: len(v) for k, v in sizes["a"].items()} == {k: len(v) for k, v in sizes["c"].items()}
