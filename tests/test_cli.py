from __future__ import annotations

import argparse
import errno
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from birough import cli, formats, lab, parse, relation
from birough.cli import main
from naive import naive_emit_json

TESTS = Path(__file__).parent
REPO = TESTS.parent
GOLDEN = TESTS / "golden"
SAMPLE = "tests/data/sample5x6.rel"
CLASSES = "tests/data/classes_two.txt"

GOLDEN_CASES = {
    "approx.txt": ["approx", SAMPLE, "--set", "y1,y2,y4"],
    "approx.json": ["approx", SAMPLE, "--set", "y1,y2,y4", "--format", "json"],
    "neighbors.txt": ["neighbors", SAMPLE],
    "neighbors.json": ["neighbors", SAMPLE, "--format", "json"],
    "classify.txt": ["classify", SAMPLE, "--classes", CLASSES],
    "classify.json": ["classify", SAMPLE, "--classes", CLASSES, "--format", "json"],
    "verify.txt": ["verify", SAMPLE],
    "verify.json": ["verify", SAMPLE, "--format", "json"],
    "verify_samples.json": [
        "verify", "--samples", "4", "--seed", "3", "--max-u", "4", "--max-v", "4",
        "--pairs", "8", "--format", "json",
    ],
    "verify_exhaustive.json": ["verify", "--exhaustive", "2", "3", "--format", "json"],
    "verify_sampled_pairs.json": [
        "verify", SAMPLE, "--pairs", "20", "--seed", "5", "--format", "json",
    ],
    "tables.txt": ["tables", "--op", "union", "--relation", SAMPLE],
    "tables.json": ["tables", "--op", "union", "--relation", SAMPLE, "--format", "json"],
    "witness.txt": [
        "witness", "--op", "union", "--left", "1", "--right", "1",
        "--result", "3", "--max-u", "3", "--max-v", "3",
    ],
    "witness.json": [
        "witness", "--op", "union", "--left", "1", "--right", "1",
        "--result", "3", "--max-u", "3", "--max-v", "3", "--format", "json",
    ],
    "gen.txt": ["gen", "--u", "4", "--v", "5", "--density", "0.4", "--seed", "7"],
}


@pytest.fixture(autouse=True)
def repo_cwd(monkeypatch):
    monkeypatch.chdir(REPO)


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class ShortWrites(io.RawIOBase):
    """A raw stdout that takes at most ``step`` bytes per write (none, and
    returns None, when ``step`` is None) and raises ``BrokenPipeError`` once
    it holds ``limit`` bytes; ``fd`` stands in for its file descriptor."""

    def __init__(self, fd: int, step: int | None, limit: int | None):
        self.fd, self.step, self.limit = fd, step, limit
        self.taken = bytearray()

    def writable(self) -> bool:
        return True

    def fileno(self) -> int:
        return self.fd

    def write(self, data) -> int | None:
        if self.step is None:
            return None
        if self.limit is not None and len(self.taken) >= self.limit:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        room = len(data) if self.limit is None else self.limit - len(self.taken)
        chunk = bytes(data[: min(self.step, room)])
        self.taken += chunk
        return len(chunk)


# A report and a generated file of several pieces each; "BIG" stands for a
# 3000x64 relation file, written by large_argv.
LARGE_OUTPUTS = pytest.mark.parametrize(
    "argv",
    [["neighbors", "BIG", "--format", "json"], ["gen", "--u", "3000", "--v", "64"]],
    ids=["neighbors-json", "gen"],
)


def large_argv(tmp_path: Path, argv: list[str]) -> list[str]:
    path = tmp_path / "big.rel"
    path.write_text(parse.render_relation_file(lab.random_relation(3000, 64, 0.5, 1, 0)), encoding="utf-8")
    return [str(path) if arg == "BIG" else arg for arg in argv]


def check_golden(name: str, text: str) -> None:
    path = GOLDEN / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.write_text(text, encoding="utf-8")
    assert path.read_text(encoding="utf-8") == text


class TestGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_byte_identical_output(self, capsys, name):
        code, out, err = run_cli(capsys, *GOLDEN_CASES[name])
        assert code == 0 and err == ""
        check_golden(name, out)

    @pytest.mark.parametrize("name", sorted(set(GOLDEN_CASES) - {"gen.txt"}))
    def test_json_writer_matches_stdlib_on_golden_reports(self, capsys, monkeypatch, name):
        reports = []

        def keep(report, fmt):
            reports.append(report)
            return formats.iter_report(report, fmt)

        monkeypatch.setattr("birough.cli.iter_report", keep)
        run_cli(capsys, *GOLDEN_CASES[name])
        [report] = reports
        assert formats.emit_report(report, "json") == naive_emit_json(report.to_obj())

    def test_classify_json_carries_exact_ratio(self, capsys):
        _, out, _ = run_cli(capsys, *GOLDEN_CASES["classify.json"])
        obj = json.loads(out)
        assert obj["measures"]["accuracy"] == {
            "num": 1,
            "den": 4,
            "decimal": "0.250000",
        }

    def test_gen_round_trips_through_approx(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, *GOLDEN_CASES["gen.txt"])
        path = tmp_path / "generated.rel"
        path.write_text(out, encoding="utf-8")
        code, out2, _ = run_cli(capsys, "neighbors", str(path))
        assert code == 0 and "|U|=4, |V|=5" in out2


def per_line_loop_refused(monkeypatch):
    """Make the relation parser's per-line loop fail."""

    def refuse(*args):
        raise AssertionError("the per-line loop ran")

    monkeypatch.setattr(parse, "_parse_lines", refuse)


class TestInputFiles:
    @pytest.mark.parametrize("kind", ["relation", "classes", "tables-file"])
    def test_byte_order_mark_changes_no_output(self, capsys, tmp_path, kind):
        path = tmp_path / "input.txt"
        tables = {"union": [[[1, 2, 3, 4]] * 4] * 4}
        text, argv = {
            "relation": (Path(SAMPLE).read_text(encoding="utf-8"), ["approx", str(path), "--set", "y1,y2,y4"]),
            "classes": (Path(CLASSES).read_text(encoding="utf-8"), ["classify", SAMPLE, "--classes", str(path)]),
            "tables-file": (
                json.dumps(tables),
                ["tables", "--op", "union", "--relation", SAMPLE, "--tables-file", str(path)],
            ),
        }[kind]
        outputs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(mark + text.encode("utf-8"))
            outputs.append(run_cli(capsys, *argv))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and outputs[0][2] == ""

    def test_byte_order_mark_counts_in_a_bad_byte_offset(self, capsys, tmp_path):
        path = tmp_path / "marked.rel"
        path.write_bytes(b"\xef\xbb\xbfV: y1\n\xff: 1\n")
        code, out, err = run_cli(capsys, "neighbors", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: not UTF-8 text (byte 0xff at offset 9)\n"

    @pytest.mark.parametrize("u, v", [(1, 1), (3, 64), (65, 5), (300, 130)])
    def test_gen_output_skips_the_per_line_loop(self, capsys, monkeypatch, u, v):
        code, out, _ = run_cli(capsys, "gen", "--u", str(u), "--v", str(v), "--seed", "3")
        assert code == 0
        per_line_loop_refused(monkeypatch)
        assert parse.parse_relation_file(out) == lab.random_relation(u, v, 0.5, 3, 0)

    def test_benchmark_relation_files_skip_the_per_line_loop(self, monkeypatch, tmp_path):
        # The benchmark writes its own relation files; they must stay in the
        # layout that the parser reads in whole-text passes.
        monkeypatch.syspath_prepend(str(REPO / "perfbench"))
        import naive
        import workloads

        for make in workloads.WORKLOADS.values():
            make(1, tmp_path, naive)
        paths = sorted(tmp_path.glob("*.rel"))
        assert paths
        per_line_loop_refused(monkeypatch)
        for path in paths:
            parse.parse_relation_file(path.read_text(encoding="utf-8"))


class TestExitCodes:
    def test_clean_verify_is_zero(self, capsys):
        code, _, _ = run_cli(capsys, "verify", SAMPLE)
        assert code == 0

    def test_malformed_relation_is_two(self, capsys, tmp_path):
        path = tmp_path / "bad.rel"
        path.write_text("V: y1 y2\nx1: 1 0 1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "approx", str(path), "--set", "y1")
        assert code == 2 and out == ""
        assert "expected 2" in err

    def test_missing_file_is_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "neighbors", str(tmp_path / "nope.rel"))
        assert code == 2 and err.startswith("error:")

    def test_unknown_label_is_two(self, capsys):
        code, _, err = run_cli(capsys, "approx", SAMPLE, "--set", "y9")
        assert code == 2 and "y9" in err

    def test_invalid_classification_is_two(self, capsys, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_text("Y1: y1\nY2: y1 y2 y3 y4 y5 y6\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "classify", SAMPLE, "--classes", str(path))
        assert code == 2 and "overlap" in err

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "early, fmt",
        [
            pytest.param(early, fmt, id=f"{when}-{fmt}")
            for early, when in ((True, "closed-after-50-bytes"), (False, "closed-before-start"))
            for fmt in ("json", "text")
        ]
        # gen writes a relation file, not a report, so it has no format.
        + [pytest.param(True, None, id="gen-closed-after-50-bytes")],
    )
    def test_closed_stdout_is_two(self, tmp_path, early, fmt, buffered):
        # A reader that stops early, as `| head -c 50` does, closes the pipe
        # while a large report or file is written; a reader that is gone
        # before a small report leaves it in stdout's buffer until the flush.
        # Either way: exit 2 with one error line, and no second error from
        # the flush at exit.
        if fmt is None:
            argv = ["gen", "--u", "30000", "--v", "64"]
        elif early:
            path = tmp_path / "big.rel"
            path.write_text(parse.render_relation_file(lab.random_relation(3000, 64, 0.5, 1, 0)), encoding="utf-8")
            argv = ["neighbors", str(path), "--format", fmt]
        else:
            argv = ["approx", SAMPLE, "--set", "y1", "--format", fmt]
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        if not early:
            os.close(read_end)
        proc = subprocess.Popen(
            [sys.executable, "-c", "from birough.cli import run; run()", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
        os.close(write_end)
        if early:
            with os.fdopen(read_end, "rb") as reader:
                assert len(reader.read(50)) == 50
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == f"error: {BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))}\n"

    @LARGE_OUTPUTS
    def test_unbuffered_full_reader_gets_every_byte(self, tmp_path, argv):
        argv = large_argv(tmp_path, argv)
        outputs = []
        for buffered in (True, False):
            env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
            if not buffered:
                env["PYTHONUNBUFFERED"] = "1"
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", "from birough.cli import run; run()", *argv],
                capture_output=True,
                env=env,
                timeout=60,
            )
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.append(proc.stdout)
        assert len(outputs[0]) > 4 * formats._BATCH
        assert outputs[0] == outputs[1]

    @LARGE_OUTPUTS
    @pytest.mark.parametrize("limit", [None, 100_000], ids=["full-reader", "closed-mid-output"])
    def test_short_raw_writes(self, capsys, monkeypatch, tmp_path, argv, limit):
        # Unbuffered stdout: a text layer straight on a raw file that takes
        # at most 4099 bytes per write, then breaks once `limit` bytes are in.
        argv = large_argv(tmp_path, argv)
        expected = run_cli(capsys, *argv)[1].encode()
        raw = ShortWrites(os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT), 4099, limit)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
        try:
            code, _, err = run_cli(capsys, *argv)
        finally:
            os.close(raw.fd)
        if limit is None:
            assert (code, err, bytes(raw.taken)) == (0, "", expected)
        else:
            assert len(expected) > limit and bytes(raw.taken) == expected[:limit]
            assert code == 2
            assert err == f"error: {BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))}\n"

    def test_full_nonblocking_stdout_is_two(self, capsys, monkeypatch, tmp_path):
        # A raw write that takes nothing and returns None (non-blocking
        # stdout, pipe full) must not be retried forever.
        raw = ShortWrites(os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT), None, None)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
        try:
            code, _, err = run_cli(capsys, "approx", SAMPLE, "--set", "y1")
        finally:
            os.close(raw.fd)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["approx"])
        assert exc.value.code == 2

    def test_exhausted_witness_is_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "witness", "--op", "union", "--left", "1", "--right", "1",
            "--result", "2", "--max-u", "2", "--max-v", "2",
        )
        assert code == 1 and "not found" in out

    def test_planted_table_violation_is_one(self, capsys, tmp_path):
        # a transcription corrupted to forbid Type 3 in the union (1, 1) cell,
        # plus a relation that realizes exactly that outcome
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
        code, out, _ = run_cli(
            capsys,
            "tables", "--op", "union", "--relation", str(mutant_path),
            "--tables-file", str(tables_path),
        )
        assert code == 1
        assert "VIOLATION" in out and "VIOLATIONS FOUND" in out

    def test_true_tables_pass_for_same_relation(self, capsys, tmp_path):
        mutant_path = tmp_path / "mutant.rel"
        mutant_path.write_text("V: y1 y2\nx1: 1 0\nx2: 0 1\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "tables", "--op", "union", "--relation", str(mutant_path)
        )
        assert code == 0 and "CONFORMANT" in out

    def test_tables_file_missing_operation_is_two(self, capsys, tmp_path):
        tables_path = tmp_path / "tables.json"
        tables_path.write_text(json.dumps({"union": [[[1]] * 4] * 4}), encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "tables", "--op", "intersection", "--max-u", "1", "--max-v", "1",
            "--tables-file", str(tables_path),
        )
        assert code == 2 and "intersection" in err

    def test_verify_without_scope_is_two(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2 and "nothing to verify" in err

    @pytest.mark.parametrize(
        "scopes",
        [
            [SAMPLE, "--samples", "5"],
            [SAMPLE, "--exhaustive", "2", "2"],
            ["--exhaustive", "2", "2", "--samples", "5"],
            ["--samples", "5", SAMPLE],
            [SAMPLE, "--exhaustive", "2", "2", "--samples", "5"],
        ],
    )
    def test_second_verify_scope_is_two_before_any_work(self, capsys, monkeypatch, scopes):
        def work(*args, **kwargs):
            raise AssertionError("verify started work")

        for name in ("parse_relation_file", "generate_relations", "random_campaign"):
            monkeypatch.setattr(f"birough.cli.{name}", work)
        with pytest.raises(SystemExit) as exc:
            main(["verify", *scopes])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["--exhaustive", "--u", "2", "--v", "2"], ["--exhaustive", "2", "2", "--u", "2"]],
    )
    def test_verify_has_no_separate_exhaustive_sizes(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    def test_pairs_with_exhaustive_campaign_is_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--exhaustive", "2", "2", "--pairs", "3")
        assert code == 2 and out == "" and "--pairs does not apply" in err

    @pytest.mark.parametrize(
        "argv, ignored",
        [
            (["verify", SAMPLE, "--max-u", "1", "--max-v", "1", "--density", "0.9"],
             "--max-u, --max-v, --density do not apply"),
            (["verify", SAMPLE, "--seed", "7"], "--seed does not apply"),
            (["verify", "--exhaustive", "2", "2", "--seed", "7", "--density", "0.1"],
             "--seed, --density do not apply"),
            (["tables", "--op", "union", "--relation", SAMPLE, "--max-u", "1", "--max-v", "1"],
             "--max-u, --max-v do not apply"),
        ],
        ids=["verify-file-shape", "verify-file-seed", "verify-exhaustive", "tables-relation"],
    )
    def test_flag_the_scope_would_ignore_is_two_before_any_work(
        self, capsys, monkeypatch, argv, ignored
    ):
        def work(*args, **kwargs):
            raise AssertionError(f"{argv[0]} started work")

        for name in ("parse_relation_file", "generate_relations", "random_campaign"):
            monkeypatch.setattr(f"birough.cli.{name}", work)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and ignored in err

    @pytest.mark.parametrize("flag", ["relation", "classes", "tables-file"])
    def test_non_utf8_relation_is_two(self, capsys, tmp_path, flag):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"V: y1 y2\n\xff: 1 0\n")
        argv = {
            "relation": ["neighbors", str(path)],
            "classes": ["classify", SAMPLE, "--classes", str(path)],
            "tables-file": ["tables", "--op", "union", "--tables-file", str(path)],
        }[flag]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: not UTF-8") and err.count("\n") == 1

    def test_unexpected_exception_is_two(self, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr("birough.cli.verify_algebraic_properties", crash)
        code, out, err = run_cli(capsys, "verify", SAMPLE)
        assert code == 2 and out == ""
        assert err == "error: KeyError: 'boom'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["tables", "--op", "union", "--max-u", "1", "--max-v", "21"],
            ["tables", "--op", "union", "--max-u", "1", "--max-v", "13"],
            # over the subset-pair cap: C(2**v, u) * 4**v summed over the sweep
            ["tables", "--op", "union", "--max-u", "1", "--max-v", "9"],
            ["tables", "--op", "union", "--max-u", "2", "--max-v", "7"],
            ["tables", "--op", "union", "--max-u", "1", "--max-v", "12"],
            # a (1, 1, 3) witness sits in the first relation, but these bounds
            # could never be searched, so they are refused before the search
            ["witness", "--op", "union", "--left", "1", "--right", "1",
             "--result", "3", "--max-u", "5", "--max-v", "5"],
            ["witness", "--op", "union", "--left", "1", "--right", "1",
             "--result", "3", "--max-u", "2", "--max-v", "10"],
        ],
    )
    def test_oversize_sweep_bounds_are_two_before_any_work(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "needs" in err
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "u, v", [(20, 1), (18, 1), (5, 4), (4, 5), (2, 7), (1, 10), (10**6, 10**6)]
    )
    def test_oversize_exhaustive_campaign_is_two_before_any_work(self, capsys, u, v):
        # 2**(u*v) relations * (4**v subset pairs + per-relation set-up) is
        # over the pair cap; 18x1 is the smallest such size at |V| = 1
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--exhaustive", str(u), str(v))
        assert code == 2 and out == "" and "needs" in err
        assert time.perf_counter() - start < 2.0

    def test_sweep_past_old_cell_cap_runs(self, capsys):
        # 7x3 has 21 cells but only 16,508 subset pairs over its row sets
        code, out, err = run_cli(
            capsys, "tables", "--op", "union", "--max-u", "7", "--max-v", "3", "--format", "json"
        )
        assert code == 0 and err == ""
        assert json.loads(out)["conformant"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--samples", "-3"],
            ["verify", "--samples", "0"],
            ["verify", SAMPLE, "--pairs", "0"],
            ["verify", "--samples", "5", "--pairs", "0"],
            ["verify", "--samples", "5", "--max-u", "0"],
            ["verify", "--samples", "5", "--max-v", "0"],
            ["verify", "--exhaustive", "0", "2"],
            ["verify", "--exhaustive", "2", "0"],
            ["verify", "--samples", "5", "--density", "1.5"],
            ["verify", "--samples", "5", "--density", "nan"],
            ["tables", "--op", "union", "--max-u", "0"],
            ["tables", "--op", "union", "--max-v", "0"],
            ["witness", "--op", "union", "--left", "1", "--right", "1",
             "--result", "3", "--max-u", "0"],
            ["witness", "--op", "union", "--left", "1", "--right", "1",
             "--result", "3", "--max-v", "0"],
            ["gen", "--u", "0", "--v", "2"],
            ["gen", "--u", "2", "--v", "0"],
            ["gen", "--u", "2", "--v", "2", "--density", "2"],
            ["gen", "--u", "2", "--v", "2", "--density", "-0.1"],
        ],
    )
    def test_out_of_range_argument_is_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be" in captured.err


COMMANDS = ("approx", "neighbors", "classify", "verify", "tables", "witness", "gen")
WITNESS_TYPES = ["--left", "1", "--right", "1", "--result", "1"]
# Per subcommand, argvs that argparse refuses: a missing required argument, a
# bad choice, an out-of-range int (where the command has each) and an
# unrecognized argument, which the sub-parser leaves to the main parser.
USAGE_ERRORS = {
    "approx": [
        ["approx", SAMPLE],
        ["approx", SAMPLE, "--set", "y1", "--format", "xml"],
        ["approx", SAMPLE, "--set", "y1", "--bogus"],
    ],
    "neighbors": [
        ["neighbors"],
        ["neighbors", SAMPLE, "--format", "xml"],
        ["neighbors", SAMPLE, "extra"],
    ],
    "classify": [
        ["classify", SAMPLE],
        ["classify", SAMPLE, "--classes", CLASSES, "--format", "xml"],
        ["classify", SAMPLE, "--classes", CLASSES, "--bogus", "1"],
    ],
    "verify": [
        ["verify", "--exhaustive", "2"],
        ["verify", SAMPLE, "--format", "xml"],
        ["verify", "--samples", "0"],
        ["verify", SAMPLE, "extra"],
    ],
    "tables": [
        ["tables", "--max-u", "2"],
        ["tables", "--op", "difference"],
        ["tables", "--op", "union", "--max-v", "0"],
        ["tables", "--op", "union", "--bogus"],
    ],
    "witness": [
        ["witness", "--op", "union", "--left", "1"],
        ["witness", "--op", "difference", *WITNESS_TYPES],
        ["witness", "--op", "union", *WITNESS_TYPES, "--max-u", "0"],
        ["witness", "--op", "union", *WITNESS_TYPES, "extra"],
    ],
    "gen": [
        ["gen", "--u", "2"],
        ["gen", "--u", "0", "--v", "2"],
        ["gen", "--u", "2", "--v", "2", "--bogus"],
    ],
}


def _parse_exit(capsys, parse, argv):
    """Exit code, stdout and stderr of an argparse exit from ``parse(argv)``."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _sub_parser_names(parser) -> list[str]:
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return list(sub.choices)


class TestOneSubParser:
    def test_every_command_is_covered(self):
        assert _sub_parser_names(cli._build_parser()) == list(COMMANDS) == list(USAGE_ERRORS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_main_builds_only_the_named_sub_parser(self, capsys, monkeypatch, command):
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda *args: built.append(build(*args)) or built[-1])
        _parse_exit(capsys, main, [command, "--help"])
        assert [_sub_parser_names(parser) for parser in built] == [[command]]

    @pytest.mark.parametrize(
        "argv",
        [[command, "--help"] for command in COMMANDS]
        + [argv for argvs in USAGE_ERRORS.values() for argv in argvs],
        ids=" ".join,
    )
    def test_same_text_as_the_full_parser(self, capsys, argv):
        full = _parse_exit(capsys, cli._build_parser().parse_args, argv)
        assert _parse_exit(capsys, main, argv) == full
        assert full[0] == (0 if argv[-1] == "--help" else 2)
        assert full[2 if full[0] else 1]

    @pytest.mark.parametrize("argv", [[], ["-h"], ["nosuch"]], ids=repr)
    def test_other_argv_lists_every_command(self, capsys, argv):
        code, out, err = _parse_exit(capsys, main, argv)
        assert code == (0 if argv == ["-h"] else 2)
        text = out or err
        assert "{" + ",".join(COMMANDS) + "}" in text
        if argv == ["-h"]:
            assert all(f"\n    {command} " in text for command in COMMANDS)
        if argv == ["nosuch"]:
            assert ", ".join(map(repr, COMMANDS)) in text


class TestCampaigns:
    @pytest.mark.parametrize("empty_row", [False, True])
    def test_sampled_verify_above_serial_enum_cap(self, capsys, tmp_path, empty_row):
        # gen's 3x21 relation is serial; an all-zero row makes it non-serial
        _, text, _ = run_cli(capsys, "gen", "--u", "3", "--v", "21", "--seed", "1")
        if empty_row:
            text += "x4: " + " ".join("0" * 21) + "\n"
        path = tmp_path / "wide.rel"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(path), "--pairs", "20", "--format", "json")
        assert code == 0 and err == ""
        checks = json.loads(out)["checks"]
        assert checks["seriality_biconditional"] == {"checked": 1, "failures": 0}

    def test_neighbors_on_one_tall_class(self, capsys, tmp_path):
        # 20000 equal rows form one U class; the saturation check must not
        # take time quadratic in the size of a class
        path = tmp_path / "tall.rel"
        rows = "".join(f"x{i}: 1 0 1\n" for i in range(20000))
        path.write_text("V: y1 y2 y3\n" + rows, encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "neighbors", str(path))
        assert code == 0 and err == "" and "saturation identity: holds" in out
        assert time.perf_counter() - start < 10.0

    def test_classify_on_tall_relation_with_repeated_rows(self, capsys, tmp_path):
        # 20000 rows from 400 patterns under 11 blocks: every law reads its
        # two facts per union of blocks over the distinct rows, so the run
        # must not take time proportional to |U| per union
        rng = random.Random(44)
        patterns = [" ".join(rng.choice("01") for _ in range(44)) for _ in range(400)]
        rows = "".join(f"x{i}: {rng.choice(patterns)}\n" for i in range(20000))
        path, classes = tmp_path / "tall.rel", tmp_path / "tall.classes"
        path.write_text("V: " + " ".join(f"y{j}" for j in range(44)) + "\n" + rows, encoding="utf-8")
        blocks = (" ".join(f"y{j}" for j in range(b, b + 4)) for b in range(0, 44, 4))
        classes.write_text("".join(f"B{b}: {labels}\n" for b, labels in enumerate(blocks)))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "classify", str(path), "--classes", str(classes))
        assert code == 0 and err == "" and ", 0 violated" in out
        assert time.perf_counter() - start < 5.0

    def test_neighbors_groups_the_relation_once(self, capsys, monkeypatch):
        # one grouping of the rows and one of the columns, shared by the
        # report and the saturation check
        calls = []
        group = relation._equal_key_classes
        monkeypatch.setattr(
            relation, "_equal_key_classes", lambda keys: calls.append(1) or group(keys)
        )
        code, out, _ = run_cli(capsys, "neighbors", SAMPLE, "--format", "json")
        assert code == 0 and json.loads(out)["saturation_identity"] is True
        assert len(calls) == 2

    def test_sampled_campaign_draws_subsets_once_per_relation(self, capsys, monkeypatch):
        # the campaign reads the draw off lab at each call, so a wrapper
        # placed there sees every draw
        calls = []
        draw = lab.random_subset_bits

        def counting(v_size, seed, count):
            calls.append(count)
            return draw(v_size, seed, count)

        monkeypatch.setattr(lab, "random_subset_bits", counting)
        code, _, _ = run_cli(capsys, "verify", "--samples", "5", "--pairs", "100")
        assert code == 0
        assert calls == [200] * 5

    def test_relation_file_with_sampled_pairs(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", SAMPLE, "--pairs", "3", "--seed", "9", "--format", "json"
        )
        body = json.loads(out)
        assert code == 0
        assert body["scope"]["description"].endswith("with 3 sampled subset pairs (seed 9)")
        instances = {law["law"]: law["instances"] for law in body["laws"]}
        assert instances["monotonicity"] == 3

    def test_campaign_defaults_to_fifty_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "2")
        assert code == 0 and "2 random relations" in out and "50 subset pairs each" in out

    def test_exhaustive_campaign(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--exhaustive", "2", "2")
        assert code == 0
        assert "all 2x2 relations" in out and "result: PASS" in out

    def test_sampled_campaign(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--samples", "10", "--seed", "3",
            "--max-u", "5", "--max-v", "5", "--pairs", "10",
        )
        assert code == 0 and "10 random relations" in out

    def test_tables_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "tables", "--op", "intersection", "--max-u", "2", "--max-v", "2"
        )
        assert code == 0 and "result: CONFORMANT" in out


class TestReportMemory:
    def test_classify_holds_only_its_report_while_writing(self, monkeypatch, tmp_path):
        # 300 one-column blocks on a 20x300 relation.  The family, its law
        # facts and the law instances go before the report is written: when
        # writing starts only the report is held (the law instances alone
        # would add about 0.6 MB here, and with the family's law facts
        # 1.7 MB), and the peak while writing adds the writer's working set.
        n = 300
        rng = random.Random(11)
        rows = "".join(
            f"x{i}: {' '.join(rng.choice('01') for _ in range(n))}\n" for i in range(20)
        )
        path, classes = tmp_path / "wide.rel", tmp_path / "wide.classes"
        path.write_text("V: " + " ".join(f"y{j}" for j in range(n)) + "\n" + rows)
        classes.write_text("".join(f"B{j}: y{j}\n" for j in range(n)))
        from birough import cli, classify

        def build_report():
            rel = parse.parse_relation_file(path.read_text())
            named = parse.parse_classification_file(classes.read_text(), rel.universes)
            fa = classify.approximate_family(rel, classify.validate_classification(named))
            laws = classify.family_law_report(fa) + classify.measure_law_report(fa)
            return formats.build_classify_report(rel, str(path), fa, laws)

        peaks = []

        def write(pieces):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            size = sum(map(len, pieces))
            peaks.append((held, tracemalloc.get_traced_memory()[1], size))

        monkeypatch.setattr(cli, "_write", write)
        tracemalloc.start()
        try:
            report = build_report()
            report_size = tracemalloc.get_traced_memory()[0]
            del report
            base = tracemalloc.get_traced_memory()[0]
            assert main(["classify", str(path), "--classes", str(classes), "--format", "json"]) == 0
        finally:
            tracemalloc.stop()
        [(held, peak, size)] = peaks
        assert size > 5_000_000
        assert held - base < report_size + 300_000
        assert peak - base < report_size + 1_000_000


def test_classify_json_builds_no_law_instance_and_no_block_lower(capsys, monkeypatch, tmp_path):
    # The report's entries come straight from the law report's columns, and
    # the blocks' lowers from one pass over the rows.
    from birough import approx, classify

    classes = tmp_path / "five.classes"
    classes.write_text("A: y1\nB: y2 y3\nC: y4\nD: y5\nE: y6\n")
    counts = {"LawInstance": 0, "lower_approximation": 0}
    init = classify.LawInstance.__init__

    def counted_init(self, *args):
        counts["LawInstance"] += 1
        init(self, *args)

    def counted(module):
        lower = module.lower_approximation

        def lower_approximation(*args):
            counts["lower_approximation"] += 1
            return lower(*args)

        monkeypatch.setattr(module, "lower_approximation", lower_approximation)

    monkeypatch.setattr(classify.LawInstance, "__init__", counted_init)
    counted(classify)
    counted(approx)
    code, out, err = run_cli(capsys, "classify", SAMPLE, "--classes", str(classes), "--format", "json")
    assert code == 0 and err == ""
    body = json.loads(out)
    assert len(body["blocks"]) == 5 and len(body["laws"]["entries"]) > 100
    assert counts == {"LawInstance": 0, "lower_approximation": 0}
    # The counters see a call when one is made.
    up = relation.UniversePair(("x",), ("y",))
    classify.lower_approximation(relation.BinaryRelation(up, (1,)), up.v_subset(["y"]))
    classify.LawInstance("law", (), True, True, "holds")
    assert counts == {"LawInstance": 1, "lower_approximation": 1}
