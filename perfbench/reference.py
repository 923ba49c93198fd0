"""A fixed reference loop that the benchmark times next to every operation.

The benchmark runs on a few vCPUs of a shared host whose speed moves in
steps of up to 50% for tens of seconds at a time (other tenants on the same
cores; the process's CPU time tracks its wall time, so it is not preemption).
Longer runs do not average such steps away.  So every timed operation is
bracketed by two runs of this loop, which does a fixed mix of the work the
program does (interpreter bytecode, small NumPy and LAPACK calls, JSON
serialization), and its time is scaled to the host's reference speed::

    scaled = measured * REFERENCE_S / mean(loop time before, loop time after)

``REFERENCE_S`` is a constant: about the loop's median time on the machine
that recorded ``baseline.json``.  A scaled time therefore reads in seconds at
that speed, and a change to the program moves it exactly as it moves the
measured time, since the loop runs no program code.

An operation that the program spreads over a thread pool is slowed by the
host in another way: its threads hand the interpreter lock between vCPUs,
and each hand-off waits for the host to run the other vCPU.  A single-thread
loop does not see that wait: over eight 12-second sweep runs, the measured
median latencies spread 0.10 (quartile distance over median) and the ones
scaled by the single-thread loop 0.14.  For such an operation the loop runs
the same way, as twice as many tasks as threads on a pool of the same size,
and its time per task is the loop time; scaled by that, they spread 0.02.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

REFERENCE_S = 0.0018

_MATRIX = np.random.default_rng(0).standard_normal((40, 40))
_DOC = {"rows": [{"name": f"r{i}", "values": [i * 0.5, i / 3.0, -i]} for i in range(120)]}


def _loop(_=None):
    total = 0
    for i in range(6000):
        total += i * i % 7
    gram = _MATRIX @ _MATRIX.T
    for _ in range(2):
        np.linalg.eigh(gram)
    json.dumps(_DOC)


def loop_seconds(threads: int = 1) -> float:
    """Wall time of the reference loop per run: one run on this thread, or
    ``2 * threads`` runs on a new pool of ``threads`` threads."""
    start = time.perf_counter()
    if threads == 1:
        _loop()
        return time.perf_counter() - start
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(_loop, range(2 * threads)))
    return (time.perf_counter() - start) / (2 * threads)


class Clock:
    """Scales the wall times of consecutive operations, each run on
    ``threads`` threads, by the reference loop run before and after each."""

    def __init__(self, threads: int = 1):
        self.threads = threads
        loop_seconds(threads)                # warm caches and lazy imports
        self.before = loop_seconds(threads)
        self.loops = []

    def scale(self, seconds: float) -> float:
        after = loop_seconds(self.threads)
        self.loops.append(after)
        factor = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return seconds * factor
