"""Spawn-and-reap helper that ``run.py`` starts every timed process from.

Linux folds the peak RSS of the address space a child was spawned from into
the child's ``ru_maxrss``. A child of ``run.py``, which holds numpy arrays,
would report at least the peak of ``run.py`` itself. This process imports
only the standard library and stays small, so the children it starts report
their own peak.

Protocol, one JSON object per line: a request on stdin
``{"argv": [...], "env": {...}, "stderr": path, "timeout": seconds}`` and a
reply on stdout ``{"wall_s": ..., "maxrss_kb": ..., "exit_code": ...}``.
Wall time runs from spawn to reaping. A child still running after
``timeout`` seconds is killed. The helper exits when stdin closes.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    current = {"pid": None}

    def kill_current(signum, frame):
        if current["pid"] is not None:
            try:
                os.kill(current["pid"], signal.SIGKILL)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGALRM, kill_current)
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"],
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"],
                             file_actions=actions)
        current["pid"] = pid
        signal.setitimer(signal.ITIMER_REAL, max(request["timeout"], 0.001))
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        current["pid"] = None
        signal.setitimer(signal.ITIMER_REAL, 0)
        reply = {
            "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss,
            "exit_code": os.waitstatus_to_exitcode(status),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
