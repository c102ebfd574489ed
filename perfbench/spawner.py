"""Child-process runner of the benchmark.

Linux carries a process's peak RSS across ``exec`` from the memory of the
process that spawned it.  Children spawned by the benchmark process itself,
which holds the generated inputs and parses large outputs, would report the
benchmark's peak instead of their own.  So the benchmark starts this small
process first and has it spawn every child.

Protocol: one JSON request per stdin line, ``{"argv": [...], "out": PATH,
"err": PATH}``; the child is ``sys.executable`` with ``argv``, its stdout and
stderr go to the two files and it inherits this process's environment.  The
reply is one JSON line ``{"exit": int, "wall_s": float, "peak_rss_kb": int}``
with the peak RSS from ``os.wait4``.  A child still running after
TIMEOUT_S seconds is killed.  The process ends at the end of stdin.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import sys
import threading
import time

TIMEOUT_S = 60


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def spawn(argv: list[str], out: str, err: str) -> dict:
    actions = [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ, file_actions=actions)
    timer = threading.Timer(TIMEOUT_S, _kill, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    return {"exit": os.waitstatus_to_exitcode(status), "wall_s": wall, "peak_rss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["argv"], request["out"], request["err"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
