"""Core-speed reference for one benchmark run.

    python3 perfbench/calibrate.py CPU

Pinned to CPU, it runs a fixed pure-Python chunk every INTERVAL_S seconds
and records (start, duration) with ``time.perf_counter`` (a system-wide
monotonic clock on Linux, so the launcher can match it against the
timestamps children report).  When its stdin closes it prints the records
as one JSON list and exits.

The benchmark's iterations run pinned to the same CPU, so each chunk sees
the contention that core is under at that moment; the launcher divides
each measured time by the chunk-time median around it (see run.py).  A
chunk takes about 0.5 ms, so the reference costs the measured process
about 3% of the core.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

INTERVAL_S = 0.02


def chunk() -> int:
    x, table = 1, {}
    for i in range(3000):
        x = (x * 31 + i) % 1000003
        table[x & 255] = (x, i)
    return x


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    records = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        t0 = time.perf_counter()
        chunk()
        records.append((t0, time.perf_counter() - t0))
    print(json.dumps(records))


if __name__ == "__main__":
    main()
