"""Timings at a reference CPU speed.

On a shared host the CPU a process gets can change speed by 1.5-2x for
seconds to minutes at a time, and process CPU time drifts with it as
much as wall time does.  The benchmark therefore times a fixed
pure-Python reference loop right before and right after every timed
job (and every set-up), and scales the job's wall time by how much
slower or faster than REFERENCE_S that loop ran around it:

    scaled = wall * REFERENCE_S / mean(loop before, loop after)

A scaled time is the wall time the job would take on a CPU on which the
reference loop takes REFERENCE_S seconds.  It moves with the program's
own cost and not with the host's speed, as long as the program and the
loop slow down alike, which holds for interpreter-bound code like
topocbt's (bench/README.md gives the measurements).  The loop is part
of the benchmark and must not change, or scaled times stop being
comparable between commits.
"""

from __future__ import annotations

import gc
import time

# The reference loop's time at the faster of the two speeds a 2-vCPU
# Intel Xeon host showed (Python 3.11); the slower one read ~5.5 ms.
REFERENCE_S = 0.003


def reference_loop() -> int:
    """Fixed interpreter work: dict updates, tuple and str building, a sort."""
    counts: dict = {}
    pairs = []
    total = 0
    for i in range(6000):
        k = (i * 7) % 613
        counts[k] = counts.get(k, 0) + 1
        pairs.append((k, i))
        total += len(str(i))
    pairs.sort()
    return total


def measure() -> float:
    """Wall seconds of one reference loop.

    The cyclic garbage collector is paused for the loop, which makes no
    cycles: a collection there would time the program's heap, not the
    CPU.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the loop times around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
