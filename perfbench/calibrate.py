"""Host calibration: a fixed reference kernel and the host's steal ticks.

The benchmark divides each unit's host seconds by the mean seconds of
this kernel timed between that unit's cells, so a host that runs slower
for a while (a noisy neighbour, CPU steal on a shared VM) moves
``wall_s`` much more than ``wall_ref``.  The kernel mixes the kinds of
work the simulator does: an interpreter-bound loop (like the object
engine), numpy calls on tiny arrays (like the compiled stepper's rounds)
and a sort with cumulative sums (like the batched kernel).

This file imports nothing from ``repro`` and must not change: every
``*_ref`` figure is in units of this kernel, so editing it rescales them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REF_CHECKSUM", "cpu_ticks", "ref_kernel", "ref_seconds"]

_PY_ITERS = 8_000
_SMALL_ITERS = 120
_SORT_SIZE = 1 << 14
_REPEATS = 5

#: What :func:`ref_kernel` returns on every host; a different value means
#: the kernel did not do its fixed work.
REF_CHECKSUM = 36_316


def ref_kernel() -> int:
    """One pass of the fixed reference work (a few milliseconds).

    Three parts of similar length: an interpreter-bound loop, many numpy
    calls on tiny arrays (per-call overhead, like a per-round stepper) and
    one sort of a mid-sized array (like a batched kernel)."""
    acc = 0
    buckets: dict[int, int] = {}
    for i in range(_PY_ITERS):
        j = (i * 2_654_435_761) & 0xFFFF
        buckets[j & 511] = buckets.get(j & 511, 0) + 1
        acc += j % 7
    rng = np.random.default_rng(12_345)
    for _ in range(_SMALL_ITERS):
        acc += int(np.argmax(np.cumsum(rng.random(64)) > 1.0))
    x = rng.random(_SORT_SIZE)
    order = np.argsort(x, kind="stable")
    cum = np.cumsum(x[order])
    pos = int(np.searchsorted(cum, cum[-1] * 0.5))
    return acc + len(buckets) + pos


def ref_seconds() -> float:
    """Median seconds of a few back-to-back kernel passes."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        value = ref_kernel()
        times.append(time.perf_counter() - start)
        if value != REF_CHECKSUM:
            raise RuntimeError(
                f"reference kernel returned {value}, expected {REF_CHECKSUM}"
            )
    return statistics.median(times)


def cpu_ticks() -> tuple[int, int]:
    """The host's ``(steal, total)`` CPU ticks so far; ``(0, 0)`` where
    ``/proc/stat`` is not available."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0, 0
    # cpu user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user, so the total stops at steal.
    values = [int(f) for f in fields[1:9]]
    return (values[7] if len(values) > 7 else 0), sum(values)
