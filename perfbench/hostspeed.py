"""Host speed: a fixed reference kernel, timed between the jobs of a run.

On a shared host the speed of the whole CPU changes with the neighbours'
load. On the reference host, a 2-vCPU virtual machine, the kernel below took
from about 11 to 21 ms (median of a run) between runs minutes apart, with no
steal time and no run-queue wait to show for it: the process's CPU time grew
as its wall time did. The jobs slow down and speed up with it, though not
all of them by as much, so the benchmark times this kernel between the jobs
and reports each time scaled to a host on which the kernel takes
``NOMINAL_S``:

    reported = wall * NOMINAL_S / (mean of the kernel samples just before
                                   and just after the timed span)

The host switches between its fast and slow states within seconds, so the
two samples that bracket a span tell its state best: on runs of
exponent-fit and relation-suites, scaling by them spread single passes a
third as much as by the median of the 24 samples nearest in time.

The kernel never calls liegrowth, so a change to the program moves the
reported times exactly as it moves the wall times; only the host's common
speed is taken out. It mixes the kinds of work the workloads do: an
interpreter loop over small integers, products of dict polynomials with
tuple keys and Fraction coefficients, and products of integers of about
10 000 digits.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.015  # the kernel's median time on the 2-vCPU reference host
SAMPLE_EVERY_S = 0.25  # most time between two samples while jobs run


def _interpreter_loop() -> int:
    s, seen = 0, {}
    for i in range(25_000):
        s += i * i % 7
        seen[i & 1023] = s
    return s


def _dict_polynomials() -> int:
    p = {(i, j, i * j % 3): Fraction((i + 2 * j) % 5 - 2, 1 + i % 3)
         for i in range(10) for j in range(6)}
    q = {(j, i, 1): Fraction(i - j, 2) for i in range(5) for j in range(4)}
    r: dict = {}
    for (a0, a1, a2), ca in p.items():
        for (b0, b1, b2), cb in q.items():
            key = (a0 + b0, a1 + b1, a2 + b2)
            value = r.get(key, 0) + ca * cb
            if value:
                r[key] = value
            else:
                r.pop(key, None)
    return len(r)


def _big_integers() -> int:
    x, y = 3**20_000, 7**20_000
    return sum((x * y) % (k + 2) for k in range(4))


def kernel() -> None:
    _interpreter_loop()
    _dict_polynomials()
    _big_integers()


class HostSpeed:
    """The kernel samples of one run: their midpoints and durations."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S

    def at_nominal(self, wall: float, start: float) -> float:
        """The wall time of a span from `start`, at the nominal host speed."""
        before = bisect.bisect_left(self.times, start)
        after = bisect.bisect_right(self.times, start + wall)
        around = self.samples[max(before - 1, 0):before] + self.samples[after:after + 1]
        return wall * NOMINAL_S / statistics.fmean(around)
