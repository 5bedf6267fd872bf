"""A fixed pure-Python loop that measures how fast the machine runs right now.

The speed of a shared machine drifts: on a 2-vCPU virtual machine the
same loop took from 11 ms to 29 ms depending on when and where it ran.
Each vCPU has its own speed at a given moment (one 12 ms while the other
took 20 ms), and which one is fast changes within seconds.  A
single-threaded request runs mostly on one CPU, where the loop run right
after it lands too; a request whose threads take turns runs on all of
them.  So ``calibrate()`` times the loop where the calling thread runs
now and on each CPU the process may run on (pinning the thread to one
CPU at a time), and gives the mean of the two.  The worker runs it
before and after every request, and the gated end-to-end metrics divide
request time by the mean of the two, which cancels most of the drift.
A change to this file changes the scale of those metrics, so it is a
change to the benchmark, not to the program.

The loop touches no package code: arithmetic and small-tuple churn, then
attribute loads over 20 000 small objects (about the working set of the
bench10 train), like the hot loops of the workloads.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass

MAX_CPUS = 8  # CPUs sampled at most, spread over the allowed set


@dataclass(frozen=True)
class _Term:
    time: float
    amplitude: float
    k: tuple


_TERMS = [_Term((i * 0.618034) % 1.0, (i * 0.414214) % 1.0, (1, i & 7, 3))
          for i in range(20_000)]


def _arithmetic() -> float:
    acc = 0.0
    slots = {}
    for i in range(30_000):
        x = (i % 97) * 0.05
        pair = (i, x)
        acc += math.exp(-x) * pair[1]
        slots[i & 255] = pair
    return acc


def _objects() -> float:
    acc = 0.0
    for _ in range(2):
        for term in _TERMS:
            x = term.time * term.time
            acc += term.amplitude * (1.0 - 2.0 * x) * math.exp(-x)
    return acc


def _passes(rounds: int) -> float:
    """Median seconds of one pass over ``rounds`` passes; the median ignores
    a pass that was interrupted."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        _arithmetic()
        _objects()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibrate(rounds: int = 3) -> float:
    """Seconds of one pass of the loop (about 15 ms): the mean of the median
    of ``rounds`` passes where the thread runs now and of the mean over the
    CPUs this process may run on of the median of ``rounds`` passes on
    each.  Where the platform cannot pin a thread, only the first part."""
    here = _passes(rounds)
    if not hasattr(os, "sched_setaffinity"):
        return here
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[::max(1, len(allowed) // MAX_CPUS)][:MAX_CPUS]
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_passes(rounds))
    finally:
        os.sched_setaffinity(0, allowed)
    return 0.5 * (here + statistics.mean(per_cpu))
