"""Host-speed probe: a fixed piece of work, timed between operations, that
scales the benchmark's timings to one reference speed of the machine.

A shared host's speed drifts: on a 2-vCPU slice of one, the same pass ran
up to 1.5x slower for a whole 30-50 s run at a time, so raw times of the
same code spread up to 0.3 over ten runs (the middle half of the runs, as a
share of the median), and one set of ten runs came out 4-19% faster than
another. The probe does not touch the program: it is numpy arithmetic on a
10 MB array, the size of one beam's grid sweep, run between the program's
operations in the same process. Each operation's time is multiplied by
``PROBE_REF_S`` over the mean time of the two probes that bracket it, the
last one before it starts and the first one after it ends, so a slow spell
that slows the operation slows those probes too and cancels out. Raw times
stay in every record next to the scaled ones.

Memory-bound array work was the best proxy for all three workloads, the
subprocess-heavy cli included: over five seeds each, it cut the spread of
a pass's time from 0.08-0.26 to 0.03 on each workload, where probes of
numpy calls on small arrays or of plain interpreter work, alone or mixed
in, left 0.06-0.15. Over twenty recorded runs per workload, the two
bracketing probes scaled better than the median of all probes within 1 s
of the operation (certify 0.07 against 0.08-0.12), as the host's speed
spells can be shorter than a second.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# About the probe's time in a fast state of the Intel Xeon 2-vCPU host the
# benchmark was tuned on. It only sets the scale: scaled times are seconds
# of a machine on which the probe takes this long.
PROBE_REF_S = 0.035
# Between operations, probe again once this long has passed since the last
# probe: long operations get a probe on each side, runs of short ones
# (2 ms coverage calls) share one.
PROBE_GAP_S = 0.4


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 1_300_000)
    y = np.abs(np.sin(37.0 * x))
    y /= np.abs(np.sin(x + 2.0))
    float(y.min())
    return time.perf_counter() - t0


class Clock:
    """Times operations and probes the host between them.

    ``op(name, fn, *args)`` runs ``fn`` and records its raw time under
    ``name``; ``scaled(i)`` is operation ``i``'s time at the reference
    speed. A probe runs before the first operation, after any operation
    that ends ``PROBE_GAP_S`` or more after the last probe, and at
    ``finish()``. Without ``probing`` it only records raw times.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.ops: list[tuple[float, float]] = []  # (start, end)
        self.names: list[str] = []
        self.probes: list[tuple[float, float]] = []  # (when started, seconds)
        if probing:
            self._probe()

    def _probe(self) -> None:
        self.probes.append((time.perf_counter(), probe()))

    def op(self, name: str, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        self.ops.append((t0, t1))
        self.names.append(name)
        if self.probing and t1 - self.probes[-1][0] >= PROBE_GAP_S:
            self._probe()
        return result

    def finish(self) -> None:
        if self.probing and self.ops and self.ops[-1][1] > self.probes[-1][0]:
            self._probe()

    def raw(self, i: int) -> float:
        start, end = self.ops[i]
        return end - start

    def factor(self, i: int) -> float:
        """Reference probe time over the mean of the last probe before op
        ``i`` starts and the first one after it ends."""
        start, end = self.ops[i]
        times = [t for t, _ in self.probes]
        before = self.probes[bisect.bisect_right(times, start) - 1][1]
        after = self.probes[bisect.bisect_left(times, end)][1]
        return PROBE_REF_S / ((before + after) / 2)

    def scaled(self, i: int) -> float:
        return self.raw(i) * self.factor(i)

    def median_pass(self) -> float:
        """A pass's scaled time with each operation at its median over the
        passes: the sum, over operation names, of the median scaled time."""
        by_name: dict[str, list[float]] = {}
        for i, name in enumerate(self.names):
            by_name.setdefault(name, []).append(self.scaled(i))
        return sum(statistics.median(times) for times in by_name.values())
