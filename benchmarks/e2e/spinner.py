"""Keeps one CPU out of its idle states, and meters how fast it runs.

    python spinner.py <cpu>

**Spinner.**  On a virtual machine a CPU that goes idle is handed back
to the host: every wake-up then pays a trip through the hypervisor, and
work that arrives in short bursts runs at whatever clock the host core
has fallen to (a fixed pure-Python loop measured 27 ms or 40 ms from one
second to the next on the re-anchor host, a steady 28 ms with this
running).  This process pins itself to ``cpu``, drops to the
``SCHED_IDLE`` class — below every normal task, so the server and the
load generator pre-empt it the instant they have work — and never
sleeps.  It ends when its parent does.

**Meter.**  What it spins on is a fixed unit of interpreter work —
dictionary and attribute traffic over a few thousand records, small
allocations, a ``struct`` and a ``json`` round trip; nothing from
``src/`` — and it counts the units it completes and the thread CPU time
they took.  An empty line on stdin is answered with the two running
totals.  Units per CPU-second between two readings is the *host speed
index* of that interval on that CPU: the shared host's speed drifts by
10–40 % over minutes, every compute-bound number the benchmark reports
follows it (correlation 0.96–0.98 run to run), and dividing by the
index takes the drift out (README.md, *Noise*).
"""

from __future__ import annotations

import json
import os
import select
import struct
import sys
import time
from typing import Dict, List, Tuple

_RECORD = struct.Struct("<BBBBIddd")
#: Units between two looks at stdin (a unit is about a quarter millisecond).
_UNITS_PER_POLL = 16


class _Fix:
    __slots__ = ("kind", "stream", "seqno", "key", "payload")

    def __init__(self, seqno: int):
        self.kind = "faa.position"
        self.stream = "faa"
        self.seqno = seqno
        self.key = f"DL{seqno}"
        self.payload = {"lat": 1.0 * seqno, "lon": 2.0, "alt": 3.0, "fix": seqno}


def make_unit() -> "Tuple[Dict[str, _Fix], List[str]]":
    table = {f"DL{i}": _Fix(i) for i in range(5000)}
    return table, list(table)


def run_unit(table: "Dict[str, _Fix]", keys: List[str], cursor: int) -> int:
    """One fixed unit of work; returns a value so nothing is optimised
    away.  ``cursor`` walks the table so successive units touch
    different records."""
    total = 0
    for j in range(300):
        fix = table[keys[(cursor + j * 37) % 5000]]
        payload = fix.payload
        total += fix.seqno + len(fix.key)
        fields = (fix.kind, fix.stream, payload["lat"], payload["alt"])
        scratch = {"a": fields[2], "b": total}
        total += len(scratch)
    packed = bytearray()
    for j in range(60):
        packed += _RECORD.pack(1, 2, 3, 4, j, 1.5 * j, 2.5, 3.5)
    view = memoryview(bytes(packed))
    for j in range(60):
        total += _RECORD.unpack_from(view, j * _RECORD.size)[4]
    total += len(json.loads(json.dumps({"k": list(range(20)), "s": "x" * 20})))
    return total


def main(argv: List[str]) -> int:
    parent = os.getppid()
    os.sched_setaffinity(0, {int(argv[1])})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    table, keys = make_unit()
    stdin = sys.stdin
    sys.stdout.write("spinning\n")
    sys.stdout.flush()
    clock = time.thread_time_ns
    units = cpu_ns = 0
    while os.getppid() == parent:
        for _ in range(_UNITS_PER_POLL):
            began = clock()
            run_unit(table, keys, units)
            cpu_ns += clock() - began
            units += 1
        if select.select([stdin], [], [], 0)[0]:
            if not stdin.readline():
                break  # the parent closed the pipe
            sys.stdout.write(f"{units} {cpu_ns}\n")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
