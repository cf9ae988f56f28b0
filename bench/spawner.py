"""Process launcher for benchmark jobs.

Linux charges a child's peak resident set size with the peak of the address
space it was forked from, so a child spawned by the benchmark's main
process would report at least that process's peak.  This small process
starts before the main process grows and spawns every job instead.  Each
request is one JSON line on stdin:

    {"argv": [...], "cwd": "...", "env": {...}, "stdout": "...", "stderr": "...", "timeout": 60}

and each reply one JSON line on stdout:

    {"returncode": 0, "wall_s": 1.23, "maxrss_kb": 45678, "timed_out": false,
     "reference_s": 0.041}

The wall time runs from just before the spawn to the reap.  A child that
outlives its timeout is killed.  The launcher exits when stdin closes.

The machine's speed is sampled around every child: "reference_s" is the
mean wall time of `reference()` run just before the spawn and just after
the reap.  The benchmark divides the child's times by it (see run.py).
The launcher's heap stays the same small size all run long, so the
reference always runs in the same conditions, whatever the main process
holds.
"""

import json
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction


def reference() -> float:
    """Wall time of a fixed piece of pure-Python work of the kinds the
    package does: integer bytecode, small-Fraction arithmetic, dict updates
    and float formatting.  It allocates little, so the launcher stays small."""
    start = time.perf_counter()
    total = 0
    for i in range(64000):
        total += i * i % 7
    third = Fraction(1, 3)
    for i in range(2400):
        total += ((Fraction(i, 3 ** (i % 13 + 1)) + third) * third).numerator % 7
    cells: dict[int, str] = {}
    for i in range(20000):
        cells[i % 500] = f"{i * 2.5:.6f},{total % 97}"
    return time.perf_counter() - start


def run(request: dict) -> dict:
    before = reference()
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    after = reference()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": proc.returncode < 0 and wall >= request["timeout"],
        "reference_s": (before + after) / 2,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
