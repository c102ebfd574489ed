"""The benchmark's traced launcher runs every subcommand without changing it.

``perfbench/tracer.py`` wraps names that birough modules import from each
other.  A refactor that drops or renames one of them makes the launcher fail,
so every subcommand is run through it here and compared with a plain run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from birough.cli import main

REPO = Path(__file__).parent.parent
SAMPLE = "tests/data/sample5x6.rel"

CASES = {
    "neighbors": ["neighbors", SAMPLE],
    "approx": ["approx", SAMPLE, "--set", "y1,y2,y4"],
    "classify": ["classify", SAMPLE, "--classes", "tests/data/classes_three.txt"],
    "verify": ["verify", SAMPLE, "--format", "json"],
    "verify-campaign": [
        "verify", "--samples", "3", "--max-u", "3", "--max-v", "3", "--pairs", "5",
    ],
    "verify-exhaustive": ["verify", "--exhaustive", "--u", "2", "--v", "2"],
    "tables": ["tables", "--op", "union", "--max-u", "2", "--max-v", "2"],
    "tables-relation": ["tables", "--op", "union", "--relation", SAMPLE],
    "witness": [
        "witness", "--op", "union", "--left", "1", "--right", "1",
        "--result", "2", "--max-u", "2", "--max-v", "2",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_traced_run_matches_plain_run(name, capsys, monkeypatch, tmp_path):
    argv = CASES[name]
    monkeypatch.chdir(REPO)
    code = main(list(argv))
    plain = capsys.readouterr()

    trace_path = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    traced = subprocess.run(
        [sys.executable, "perfbench/tracer.py", str(trace_path), *argv],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert traced.stderr == plain.err
    assert traced.returncode == code
    assert traced.stdout == plain.out
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    assert trace["command"] == argv[0] and trace["edges"]
    if name == "verify-exhaustive":
        assert trace["counters"]["lab.relations"] == 16
