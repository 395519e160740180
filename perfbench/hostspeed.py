"""Host speed, so that CPU time compares across runs on a shared host.

On a virtual machine that shares its cores with other guests, the same
work takes more or less CPU time from one minute to the next, by a third
and more on the 2-vCPU x86-64 VM the bounds of ``BENCHMARK.json`` were
set on, even with no time stolen: other guests load the caches, memory
bus and cores.  Each vCPU speeds up and slows down on its own, so the
benchmark pins its processes to fixed CPUs, and a fixed pure-Python
probe run on those CPUs right before and right after a stretch of work
tells how fast they were meanwhile.  The work is charged its CPU seconds
scaled to a host on which the probe takes :data:`REFERENCE_S`.  The
probe is the benchmark's own code, so a change to the program under
test does not move it.
"""

from __future__ import annotations

import gc
import heapq
import os
import time

#: CPU seconds one probe takes on the reference host.  Only the ratio of
#: two runs' figures matters, so this just sets the scale.
REFERENCE_S = 0.05


def cpus() -> list:
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def pin(cpu_set) -> None:
    """Pin the calling thread (and the threads and processes it starts
    later) to ``cpu_set``."""
    os.sched_setaffinity(0, set(cpu_set))


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def probe(rounds: int = 16) -> float:
    """CPU seconds of this thread for one fixed run of interpreter work
    like the simulator's: a heap of tuples, dict counters, attribute
    access and small allocations.  The cyclic garbage collector is off
    meanwhile, or the probe would pay for collecting the work's heap."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        total = 0
        for r in range(rounds):
            heap: list = []
            counts: dict = {}
            for i in range(1500):
                item = _Item((i * 7919 + r) % 1009, i)
                heapq.heappush(heap, (item.key, i, item))
                counts[item.key] = counts.get(item.key, 0) + 1
            while heap:
                key, _, item = heapq.heappop(heap)
                counts[key] -= 1
                total += item.value
        took = time.thread_time() - t0
    finally:
        if collecting:
            gc.enable()
    if total != rounds * 1499 * 1500 // 2:
        raise AssertionError("host-speed probe miscounted")
    return took


def probe_on(cpu_set, n: int = 1) -> float:
    """Mean probe time over the CPUs of ``cpu_set``, ``n`` probes on
    each; the calling thread's affinity is restored afterwards."""
    before = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(cpu_set):
            pin({cpu})
            times += [probe() for _ in range(n)]
    finally:
        pin(before)
    return sum(times) / len(times)


class Meter:
    """Charges stretches of work done on ``cpu_set`` in reference CPU
    seconds, probing each CPU ``n`` times at each edge of a stretch (one
    probe is a noisy snapshot: the speed changes within a second).

    Each :meth:`factor` probes again and returns the scale for the work
    done since the previous probe: the reference time over the mean of
    the two probe times around it.
    """

    def __init__(self, cpu_set, n: int = 1) -> None:
        self.cpu_set = set(cpu_set)
        self.n = n
        self._last = probe_on(self.cpu_set, n)

    def factor(self) -> float:
        now = probe_on(self.cpu_set, self.n)
        scale = 2.0 * REFERENCE_S / (self._last + now)
        self._last = now
        return scale

    def charge(self, cpu_s: float) -> float:
        """``cpu_s`` of work done since the previous probe, scaled."""
        return cpu_s * self.factor()


class Unscaled:
    """A :class:`Meter` that charges raw CPU seconds and never probes,
    for traced passes, where a probe would show in the profile."""

    @staticmethod
    def factor() -> float:
        return 1.0

    @staticmethod
    def charge(cpu_s: float) -> float:
        return cpu_s
