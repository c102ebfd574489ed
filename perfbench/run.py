"""Benchmark of whole ``birough`` CLI runs, with per-layer timings from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tall_relation --seed 1 --seconds 25 --trace 0

The benchmark generates the workload's inputs from the seed, then runs its
command list again and again for the given number of seconds, each command
as a child process (a closed loop: one command at a time).  A child is
``python -c "from birough.cli import run; run()" ARGS``, the code path of the
installed ``birough`` script, with the checkout's ``src`` on PYTHONPATH.

With ``--trace 0`` it reports the end-to-end metrics:

- ``setup_s``: median time of a fresh interpreter that imports
  ``birough.cli`` and exits; SETUP_PER_PASS samples run before each pass;
- ``wall_s``: time of one pass over the command list, the sum over the
  commands of each command's interquartile mean time;

both at reference speed: each sample is scaled to a machine on which
``reference_job.py`` takes REFERENCE_S, using the reference jobs run just
before and after it (one runs before each command).  That cancels the speed
of the machine, which drifts by tens of percent from second to second and
minute to minute on a shared host.  The raw samples are printed above the
result.  The other two end-to-end metrics are:

- ``peak_rss_mb``: the largest peak RSS of any child, from ``os.wait4``;
- ``pass_ratio``: commands that passed every check, over commands run.

With ``--trace 1`` it alternates untraced passes with passes under
``tracer.py`` and reports the per-layer metrics (medians over the traced
passes) and the tracing overhead.

A command fails when it exits with the wrong code, writes to stderr, prints
stdout that differs from its first run (traced runs included), or when the
first run's stdout fails its check against ``tests/naive.py``.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it list the inputs and every
time sample.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, CheckFailed, Command

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_PER_PASS = 2
MIN_PASSES = 2
SPAWNER_EXIT_S = 90
UNTRACED = ("-c", "from birough.cli import run; run()")
IMPORT_ONLY = ("-c", "import birough.cli")
REFERENCE_JOB = (str(HERE / "reference_job.py"),)
# Time of reference_job.py on an unloaded run of the machine the benchmark was
# written on (2-core Xeon VM); the unit of every end-to-end time.
REFERENCE_S = 0.2
SETUP, REFERENCE = "setup", "reference"
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)


@dataclass(frozen=True)
class Execution:
    exit: int
    wall_s: float
    peak_rss_kb: int
    stdout: bytes
    stderr: bytes


def load_oracle(root: Path):
    """Import ``tests/naive.py`` with ``right_sets`` memoized on the last matrix.

    The oracles recompute every right set on each call; the memo keeps them
    affordable on the benchmark's matrices without changing their logic.
    """
    spec = importlib.util.spec_from_file_location("birough_naive", root / "tests" / "naive.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    right_sets = oracle.right_sets
    last: list = [None, None]

    def memo_right_sets(matrix):
        if last[0] is not matrix:
            last[:] = [matrix, right_sets(matrix)]
        return last[1]

    oracle.right_sets = memo_right_sets
    return oracle


class Spawner:
    """Client of ``perfbench/spawner.py``, which runs every child process."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv: list[str], out: Path, err: Path) -> Execution:
        request = {"argv": argv, "out": str(out), "err": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended unexpectedly")
        reply = json.loads(line)
        return Execution(
            reply["exit"], reply["wall_s"], reply["peak_rss_kb"], out.read_bytes(), err.read_bytes()
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=SPAWNER_EXIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Judge:
    """Counts failures; a command's first stdout is checked and becomes its reference."""

    def __init__(self) -> None:
        self.reference: dict[int, tuple[bytes, str | None]] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def judge(self, index: int, command: Command, run: Execution) -> None:
        digest = hashlib.sha256(run.stdout).digest()
        if index not in self.reference:
            try:
                command.check(run.stdout.decode("utf-8"))
                reason = None
            except (CheckFailed, ValueError, LookupError, TypeError, AttributeError) as exc:
                reason = f"wrong output: {type(exc).__name__}: {exc}"
            self.reference[index] = (digest, reason)
        ref_digest, reason = self.reference[index]
        if run.exit != command.expect_exit:
            reason = f"exit {run.exit}, expected {command.expect_exit}"
        elif run.stderr:
            reason = "stderr: " + run.stderr.decode("utf-8", "replace").strip()[-200:]
        elif digest != ref_digest:
            reason = "stdout differs from the first run"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{' '.join(command.argv)[:80]}: {reason}")


def run(root: Path, name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    work_root = root / WORK_DIR
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root)).relative_to(root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Start the spawner before the inputs exist, while this process is small.
    spawner = Spawner(env)
    try:
        return _measure(root, workdir, spawner, name, seed, seconds, trace, sizes or {})
    finally:
        spawner.close()
        shutil.rmtree(root / workdir)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def _measure(root, workdir, spawner, name, seed, seconds, trace, sizes) -> dict:
    workload = WORKLOADS[name](seed, workdir, load_oracle(root), **sizes)
    for line in workload.inputs:
        print(f"input: {line}")
    out, err = root / workdir / "stdout", root / workdir / "stderr"
    judge = Judge()
    peaks: list[int] = []
    # Wall times of each command, untraced and traced, one entry per pass.
    times = {mode: [[] for _ in workload.commands] for mode in (False, True)}
    # Untraced samples in the order they ran, as (what, wall): what is SETUP,
    # REFERENCE or the index of a command.
    timeline: list[tuple] = []

    def one_pass(traced: bool) -> list[dict]:
        traces = []
        for index, command in enumerate(workload.commands):
            trace_file = root / workdir / f"trace{index}.json"
            if traced:
                argv = [str(HERE / "tracer.py"), str(trace_file), *command.argv]
            else:
                timeline.append((REFERENCE, timed(REFERENCE_JOB)))
                argv = [*UNTRACED, *command.argv]
            execution = spawner.run(argv, out, err)
            judge.judge(index, command, execution)
            times[traced][index].append(execution.wall_s)
            if not traced:
                timeline.append((index, execution.wall_s))
            peaks.append(execution.peak_rss_kb)
            if traced and trace_file.exists():
                traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
                trace_file.unlink()
        return traces

    def timed(argv: tuple[str, ...]) -> float:
        return spawner.run(list(argv), out, err).wall_s

    layer_passes = []
    timed(IMPORT_ONLY)  # fills the bytecode cache
    deadline = time.perf_counter() + seconds
    while True:
        if trace:
            one_pass(False)
            layer_passes.append(tracer.layer_metrics(one_pass(True)))
        else:
            # Spread the set-up samples over the run, like the passes.
            timeline += [(SETUP, timed(IMPORT_ONLY)) for _ in range(SETUP_PER_PASS)]
            one_pass(False)
        if len(times[False][0]) >= MIN_PASSES and time.perf_counter() >= deadline:
            break

    for reason in judge.reasons[:10]:
        print(f"FAIL {name}: {reason}", file=sys.stderr)
    for index, command in enumerate(workload.commands):
        print(_samples(f"untraced runs of {command.name} #{index}", times[False][index]))
    if trace:
        for index, command in enumerate(workload.commands):
            print(_samples(f"traced runs of {command.name} #{index}", times[True][index]))
        units = dict(tracer.PER_LAYER)
        values = {
            key: statistics.median(p[key] for p in layer_passes)
            for key in units
            if key != "trace.overhead_s"
        }
        values["trace.overhead_s"] = sum(map(min, times[True])) - sum(map(min, times[False]))
    else:
        timeline.append((REFERENCE, timed(REFERENCE_JOB)))
        scaled = at_reference_speed(timeline)
        print(_samples("fresh imports of birough.cli", [w for what, w in timeline if what == SETUP]))
        print(_samples("reference jobs", [w for what, w in timeline if what == REFERENCE]))
        for index, command in enumerate(workload.commands):
            print(_samples(f"runs of {command.name} #{index} at reference speed", scaled[index]))
        units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median(scaled[SETUP]),
            "wall_s": sum(interquartile_mean(scaled[i]) for i in range(len(workload.commands))),
            "peak_rss_mb": max(peaks) * 1024 / 1e6,
            "pass_ratio": (judge.attempted - judge.failed) / judge.attempted,
        }
    return {
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and highest quarter.

    As robust as the median to a stray sample, and steadier on the 5 to 9
    samples a run takes of each command.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def at_reference_speed(timeline: list[tuple]) -> dict:
    """Scale each sample to a machine on which the reference job takes REFERENCE_S.

    A sample is divided by the mean of the nearest reference jobs run before
    and after it, then multiplied by REFERENCE_S.  Returns the scaled samples
    grouped by what ran.
    """
    refs = [k for k, (what, _) in enumerate(timeline) if what == REFERENCE]
    scaled: dict = {}
    for k, (what, wall) in enumerate(timeline):
        if what == REFERENCE:
            continue
        before = [timeline[j][1] for j in refs if j < k][-1:]
        after = [timeline[j][1] for j in refs if j > k][:1]
        scaled.setdefault(what, []).append(wall * REFERENCE_S / statistics.fmean(before + after))
    return scaled


def _samples(what: str, values: list[float], unit: str = " s") -> str:
    return (
        f"{len(values)} {what}: min {min(values):.4f}{unit}, median "
        f"{statistics.median(values):.4f}{unit}, max {max(values):.4f}{unit}; "
        + " ".join(f"{v:.4f}" for v in values)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # End through the cleanup in run() when the run is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    missing = [p for p in ("src/birough/cli.py", "tests/naive.py") if not (root / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from the root of a birough "
              "checkout", file=sys.stderr)
        return 2
    result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
