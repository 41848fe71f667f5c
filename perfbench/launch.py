"""Run one command and print its wall time, CPU time, peak RSS and exit code.

    python perfbench/launch.py TIMEOUT_S CMD...

Prints one JSON line.  run.py starts every measured process through this
small launcher because on Linux a child's ru_maxrss also counts the RSS of
the process that forked it, and the benchmark's own process grows large
(it reads the outputs it checks).  A command still running after TIMEOUT_S
seconds is killed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    timeout_s, cmd = float(argv[0]), argv[1:]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    timer = threading.Timer(timeout_s, os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
