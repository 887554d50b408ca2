"""Host speed gauge: a fixed reference workload, timed between workload items.

The host this benchmark runs on is shared, and its speed drifts by up to 2x
in phases that last from under a second to more than a run.  A reference
of fixed work, timed at least every ``INTERVAL_S`` between items, tracks
that speed.  Each timed piece is scaled by the reference's nominal time
over the mean of the two samples around it, which turns its time into the
time it would take on a host where the reference runs at its nominal time.

Not all code slows alike in a slow phase: tight arithmetic slows more than
the breadth-first search, for instance.  So each workload names the
reference that slows most like it (``Reference``).  The references use
this benchmark's own code and never the library, so a change to the
program moves the scaled times in full.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import workloads

INTERVAL_S = 0.1  # least time between two reference samples
REF_BURST = 3  # least loops per sample; a sample is their median time
SAMPLE_SHARE = 0.05  # reference time per sample over the time since the last
NEIGHBOURS = 1  # samples on each side of a piece that set its scale

_START = workloads.cycle_matrix(3, 6)


def search_reference(steps=16):
    """The first ``steps`` expansions of a breadth-first search over the
    mutation class of the (3, 6) cycle, with this benchmark's own mutation
    rule and a cheap key: the kind of work enumeration and classification
    do."""
    seen = {}
    frontier = [_START]
    n = len(_START)
    for _ in range(steps):
        b = frontier.pop(0)
        for k in range(n):
            c = workloads.mutate_matrix(b, k)
            key = (tuple(sorted(c)), tuple(sorted(zip(*c))))
            if key not in seen:
                seen[key] = c
                frontier.append(c)
    return len(seen)


def fraction_reference(terms=250):
    """Sum of 1/i^2 in exact fractions: the kind of work the series does."""
    total = Fraction(0)
    for i in range(1, terms + 1):
        total += Fraction(1, i * i)
    return total


@dataclass(frozen=True)
class Reference:
    loop: Callable
    # The loop's time on the host the benchmark was written on (2 shared
    # vCPUs, Python 3.11.7) in its fast phases.  It only sets the scale of
    # the reported seconds; comparisons rest on the ratio.
    nominal_s: float


SEARCH = Reference(search_reference, 0.0015)
FRACTIONS = Reference(fraction_reference, 0.0007)


class Gauge:
    """Reference samples taken while a pass runs.

    ``mark`` stands in the workload's item hook: it takes a sample when
    ``INTERVAL_S`` has passed since the last one.  ``sample`` is also called
    once before and once after each pass, so every timed piece has a sample
    on each side.
    """

    def __init__(self, reference):
        self.reference = reference
        self.ends = []  # clock reading at the end of each sample
        self.times = []  # seconds each sample took
        self.spent = 0.0

    def sample(self):
        """Time a burst of reference loops: at least ``REF_BURST``, and more
        until the burst has taken ``SAMPLE_SHARE`` of the time since the
        last sample.  The sample is the median loop time, which drops loops
        slowed by a cold cache or a passing burst of contention; a longer
        gap, as around a long item, gets a more precise sample."""
        clock, loop = time.perf_counter, self.reference.loop
        start = clock()
        budget = SAMPLE_SHARE * (start - self.ends[-1]) if self.ends else 0.0
        loops = []
        while len(loops) < REF_BURST or clock() - start < budget:
            t0 = clock()
            loop()
            loops.append(clock() - t0)
        end = clock()
        self.ends.append(end)
        self.times.append(statistics.median(loops))
        self.spent += end - start

    def mark(self, item):
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def factor_at(self, start):
        """Scale for a piece that started at clock reading ``start``: the
        nominal time over the median of the ``NEIGHBOURS`` samples on each
        side of it.  Of the windows tried (1, 2, 4 or 8 samples a side, or
        0.5 to 2 s), the nearest sample on each side tracked the host best
        on every workload."""
        k = bisect.bisect_right(self.ends, start)
        near = self.times[max(k - NEIGHBOURS, 0):k + NEIGHBOURS]
        return self.reference.nominal_s / statistics.median(near)

    def median_factor(self):
        return self.reference.nominal_s / statistics.median(self.times)
