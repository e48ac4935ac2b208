"""Host-speed probe: a fixed pure-Python loop, timed in CPU time, every
``PERIOD_S`` seconds until its stdin closes.

    python3 probe.py <cpu> <samples.json>

It runs pinned to the CPU that the measured stages are pinned to.  On a
shared host the neighbours' load stretches the CPU time of the probe and
of the stage alike, so a stage's wall time divided by the probe's stretch
while the stage ran is the time the stage takes when the host is quiet.
The probe's CPU time leaves out the time the stage held the CPU.

``slowdowns`` does that division's bookkeeping; ``run.py`` starts the
probe and applies it.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import sys
import time

LOOP = 30_000
# CPU time of one unit on the baseline host when it is quiet.  A fixed
# reference, not the fastest unit of each run: a run can spend its whole
# length on a loaded host, and its fastest unit is then slow too.
QUIET_UNIT_S = 0.002
PERIOD_S = 0.05  # so the probe takes about 4% of the stages' CPU


def unit() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i
    return s


def slowdowns(windows: list[tuple[float, float]], samples: list[tuple[float, float]]) -> list[float]:
    """For each (start, end) window, the mean CPU time of the probe units
    started in it over ``QUIET_UNIT_S``.  ``samples`` are (start, CPU
    seconds) on the ``time.perf_counter`` clock."""
    out = []
    for lo, hi in windows:
        inside = [d for t, d in samples if lo <= t <= hi]
        if not inside:
            raise ValueError(f"no probe sample in the window {lo:.3f}..{hi:.3f}")
        out.append(statistics.fmean(inside) / QUIET_UNIT_S)
    return out


def main(argv: list[str]) -> int:
    cpu, out = int(argv[0]), argv[1]
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        t0, c0 = time.perf_counter(), time.thread_time()
        unit()
        samples.append((t0, time.thread_time() - c0))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
