"""Host-speed sampling, so wall-clock metrics survive a contended host.

On a shared virtual machine the CPU speed one process sees can swing by
a factor of two in phases of a few seconds (a fixed pure-Python loop
timed back to back: per-second medians from 2.5 ms to 5.1 ms, lag
autocorrelation gone after about 4 s).  A 30-second run then lands
anywhere in a ±15% band no matter how the rounds are summarised.

:class:`HostSpeed` measures that swing between the program's phases:
before a round's set-up, between set-up and the measured phase, and
after the measured phase, it times a fixed kernel that belongs to the
benchmark.  The samples are taken outside the program's timed phases,
with the garbage collector disabled around the kernel, so the program's
heap and in-flight state cannot change the divisor.  The runner divides
each phase's wall time by the mean slowdown of the two samples that
bracket it (against ``NOMINAL_S``); the raw figures are printed too.
"""

from __future__ import annotations

import gc
import heapq
import os
import statistics
import struct
import time

import numpy as np

#: Kernel runs per sample; a sample is their median.
REPEATS = 5
#: Kernel time the benchmark treats as nominal speed.  Any constant
#: works for comparing commits; this one is the kernel's median time on
#: the 2-core host the benchmark was built on, so normalised figures
#: read close to raw ones there.
NOMINAL_S = 0.0017

_PACK = struct.Struct(">IH").pack
_LANES = np.arange(1 << 14, dtype=np.uint32)


def _resident_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


_before = _resident_bytes()
#: One byte per cache line of a buffer larger than most per-core
#: caches: the kernel's memory-bound part, which tracks contention for
#: caches and memory bandwidth (the large-record ChaCha20 passes feel it,
#: interpreter work does not).  Filled now, so it is resident for the
#: whole run and its size can be taken out of the peak RSS.
_LINES = np.ones(16 << 20, dtype=np.uint8)[::64]
#: Resident bytes the buffer added; the runner subtracts them from the
#: process's peak RSS so that figure is the program's.
BUFFER_RESIDENT = _resident_bytes() - _before


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _mix(node: _Node, acc: int) -> int:
    return (acc ^ node.value) * 0x9E3779B1 & 0xFFFFFFFF


def kernel(rounds: int = 400) -> float:
    """Fixed work in the program's mix: interpreter work (calls,
    attributes, small objects, dict and heap operations, bytes packing),
    a few vector passes over 64 KiB like the batched ChaCha20 rounds, and
    one pass over 16 MiB of memory; returns its wall time in seconds."""
    start = time.perf_counter()
    np.add(_LINES, 1, out=_LINES)
    lanes = _LANES
    for shift in (7, 9, 13, 18):
        lanes = (lanes + _LANES) ^ ((lanes << shift) | (lanes >> (32 - shift)))
    table = {}
    heap: list = []
    acc = 1
    for i in range(rounds):
        node = _Node(i & 255, acc)
        acc = _mix(node, acc + i)
        table[node.key] = node
        heapq.heappush(heap, (acc & 0xFFFF, i))
        if len(heap) > 32:
            heapq.heappop(heap)
        acc ^= int.from_bytes(_PACK(acc, i & 0xFFFF)[:4], "big") >> 3
    return time.perf_counter() - start


def sample() -> float:
    """The host's slowdown now: the median of ``REPEATS`` kernel runs
    over ``NOMINAL_S``, with the garbage collector off so no collection
    of the program's heap lands in the kernel (the kernel frees what it
    allocates, so it leaves the collector's counts as it found them)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = [kernel() for _ in range(REPEATS)]
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) / NOMINAL_S


class HostSpeed:
    """The three samples that bracket one round's two phases."""

    def __init__(self) -> None:
        self.samples = [sample()]

    def mark(self) -> None:
        """Sample at a phase boundary (after set-up, after measuring)."""
        self.samples.append(sample())

    def slowdown(self, phase: int) -> float:
        """Mean slowdown over phase ``phase`` (0 = set-up, 1 = measured
        phase): 2.0 means the host ran at half speed during it; 1.0 if
        the round ended before the phase did."""
        if len(self.samples) < phase + 2:
            return 1.0
        return (self.samples[phase] + self.samples[phase + 1]) / 2
