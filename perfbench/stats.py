"""Percentiles, and a clock that cancels host speed changes.

On a shared host the same code can run up to 1.5 times slower for a
second or for minutes while a neighbour is busy.  A fixed pure-Python
loop slows down by about as much, so the benchmark times that loop on
either side of every request and scales the request's wall time by
``REFERENCE_S / (mean of the two loop times)``.  A time then reads as it
would with the host at full speed, and two runs of the same code agree
far more closely than their raw wall times do.
"""

from __future__ import annotations

import math
from time import perf_counter

LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# calibration_loop() on the reference host (2 vCPUs of a shared x86-64
# machine, Python 3.11) when idle.  Any constant works; this one makes
# scaled times read as wall times there.
REFERENCE_S = 0.0064


def nearest_rank(values, pct: float) -> tuple[float, int]:
    """(value at percentile pct, number of samples above its rank)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def highest_tail(values, beyond: int = 10) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder rung that
    leaves at least ``beyond`` samples above it; the median when none does."""
    chosen = LADDER[0]
    for pct in LADDER:
        if nearest_rank(values, pct)[1] >= beyond:
            chosen = pct
    value, after = nearest_rank(values, chosen)
    return chosen, value, after


def calibration_loop() -> int:
    table: dict[int, int] = {}
    x = 0
    for _ in range(30000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + 1
    return x


class ScaledClock:
    """Times calls, each scaled by the calibration loop timed around it."""

    def __init__(self) -> None:
        self.last = self._loop()
        self.wall = self.scaled = 0.0

    @staticmethod
    def _loop() -> float:
        started = perf_counter()
        calibration_loop()
        return perf_counter() - started

    def time(self, call):
        """(output, error, scaled seconds); an exception is returned, not raised."""
        started = perf_counter()
        try:
            output, error = call(), None
        except Exception as exc:  # a failed request is counted, not fatal
            output, error = None, exc
        wall = perf_counter() - started
        before, self.last = self.last, self._loop()
        scaled = wall * 2 * REFERENCE_S / (before + self.last)
        self.wall += wall
        self.scaled += scaled
        return output, error, scaled
