"""Host-speed normalisation of the benchmark's timings.

Benchmarks run on shared virtual machines whose cores run the same code
at different speeds from one second to the next.  On a 2-core VM a fixed
pure-Python loop took anywhere from 1x to 2x its quiet-core time, with
CPU time growing with wall time and no steal time reported; raw job
timings then spread by 0.15-0.40 of their median from run to run, wider
than any bound worth enforcing.

So between jobs the benchmark times a fixed probe — integer arithmetic
on a small dict, then a pointer chase through a 128 Ki-entry ring, the
kinds of work the program's interpreter-bound stages do — shaped like
the jobs: one walk in this process, or for jobs that run ``workers``
processes side by side, one walk in each of that many processes at
once.  Each job's wall and CPU time is scaled by ``REFERENCE_PROBE_S``
over the mean probe time just before and just after it
(:class:`Speedometer`).  Reported times are seconds at reference speed:
what the job would take on a quiet core of the 2-core Xeon VM the
constant was measured on.  The probe is the benchmark's own code, so a
change to the program moves the scaled times exactly as it moves the
raw ones.
"""

from __future__ import annotations

import os
import random
import time
from typing import List, Optional

#: Iterations of each half of the probe walk.
PROBE_STEPS = 40_000
#: One probe walk on a quiet core of the reference machine, in seconds.
REFERENCE_PROBE_S = 0.02
RING_SIZE = 1 << 17
#: Probing after a timed stretch lasts this share of the stretch.
PROBE_SHARE = 0.1
#: Probing before the first stretch lasts this long.
FIRST_PROBE_S = 0.1

_ring: Optional[List[int]] = None


def _make_ring() -> List[int]:
    order = list(range(RING_SIZE))
    random.Random(0).shuffle(order)
    ring = [0] * RING_SIZE
    for here, there in zip(order, order[1:] + order[:1]):
        ring[here] = there
    return ring


def _walk(ring: List[int]) -> None:
    acc = index = 0
    table = {}
    for step in range(PROBE_STEPS):
        acc = (acc * 31 + step) & 0xFFFFFFFF
        table[step & 255] = acc
        if acc & 1:
            acc ^= table.get((step >> 3) & 255, 0)
    for _ in range(PROBE_STEPS):
        index = ring[index]
        acc = (acc + index) & 0xFFFFFFFF


def probe(workers: int = 1) -> float:
    """Seconds until ``workers`` processes (this one and forked
    children) have each run one probe walk, side by side."""
    global _ring
    if _ring is None:
        _ring = _make_ring()
    start = time.perf_counter()
    children = []
    for _ in range(workers - 1):
        pid = os.fork()
        if pid == 0:
            try:
                _walk(_ring)
            finally:
                os._exit(0)
        children.append(pid)
    _walk(_ring)
    for pid in children:
        os.waitpid(pid, 0)
    return time.perf_counter() - start


def probe_for(seconds: float, workers: int = 1) -> float:
    """Mean time of back-to-back probes run for at least ``seconds``
    (at least one probe): one probe alone is as noisy as the host."""
    times = [probe(workers)]
    while sum(times) < seconds:
        times.append(probe(workers))
    return sum(times) / len(times)


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between a probe taking
    ``before`` and one taking ``after`` into seconds at reference speed."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


class Speedometer:
    """Probes host speed between timed stretches of jobs that each run
    ``workers`` processes.  Each stretch is scaled by the probes just
    before and just after it, and the probes after a stretch run for
    :data:`PROBE_SHARE` of its length, so that longer stretches get
    proportionally steadier factors."""

    def __init__(self, workers: int = 1) -> None:
        self.workers = workers
        self.last = probe_for(FIRST_PROBE_S, workers)

    def factor(self, measured: float) -> float:
        """Scale factor for the ``measured`` seconds since the last probe."""
        after = probe_for(PROBE_SHARE * measured, self.workers)
        factor = scale(self.last, after)
        self.last = after
        return factor
