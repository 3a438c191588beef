"""Run one command and report its wall time, CPU time and peak resident set.

    python3 perfbench/launch.py TIMEOUT STDOUT_FILE STDERR_FILE -- ARGV...

Prints one JSON object: ``code``, ``wall_s``, ``cpu_s``, ``peak_rss_mb``.
A command still running after TIMEOUT seconds is killed.

Linux counts the address space a child inherits from the process that
forked it toward the child's peak RSS, so a command started by the
benchmark process itself, which holds numpy and the outputs it checks,
would report that process's size whenever it is the larger.  This small
process starts the command instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def measure(argv: list[str], timeout: float, stdout_path: str, stderr_path: str) -> dict:
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main(argv: list[str]) -> int:
    timeout, stdout_path, stderr_path, sep, *command = argv
    if sep != "--" or not command:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(measure(command, float(timeout), stdout_path, stderr_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
