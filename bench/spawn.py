"""Run one command; print its exit code, wall time and own peak RSS as JSON.

    python3 bench/spawn.py OUT ERR TIMEOUT_S COMMAND...

The benchmark starts each CLI child through this small process instead of
directly. On Linux a process's ru_maxrss includes the peak RSS of the memory
image it replaced at exec, and a child started straight from the benchmark
replaces (or, under vfork, shares) the benchmark's own, larger image. Started
from here, the child inherits only this process's few megabytes, which stay
below any CLI run's own peak. The wall time runs from starting the child to
reaping it. A child still running after TIMEOUT_S seconds is killed and
reaped, and the report says so.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from time import perf_counter


class _Expired(Exception):
    pass


def _expire(_signum, _frame):
    raise _Expired()


def main() -> int:
    out, err, timeout = sys.argv[1], sys.argv[2], float(sys.argv[3])
    command = sys.argv[4:]
    signal.signal(signal.SIGALRM, _expire)
    with open(out, "wb") as so, open(err, "wb") as se:
        t0 = perf_counter()
        child = subprocess.Popen(command, stdout=so, stderr=se, stdin=subprocess.DEVNULL)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _pid, status, usage = os.wait4(child.pid, 0)
        except _Expired:
            child.kill()
            os.wait4(child.pid, 0)
            print(json.dumps({"timed_out": True}))
            return 1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - t0
    print(json.dumps({
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
