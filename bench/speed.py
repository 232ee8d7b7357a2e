"""How fast the host runs Python right now, to scale the benchmark's times.

On a shared host the speed of one core drifts as neighbours come and go:
the same pass over a workload can take two thirds longer in a slow spell than
in a quiet one, and such spells last from seconds to minutes.  Noise of that
kind moves every pure-Python loop alike, so the benchmark times a fixed loop
(``calibrate``) next to each measurement and scales the measurement by how
much slower than its reference time that loop ran.  The loop shares no code
with cwsolve, so a change to cwsolve moves the scaled times as much as the
raw ones.
"""

from __future__ import annotations

import time

# The calibration loop's time on the reference host (2 shared cores of an
# Intel Xeon, Python 3.11) in a quiet spell.  A scaled time reads as the time
# the measured work would take on that host at that speed.
REFERENCE_S = 0.02


def calibrate() -> float:
    """Seconds one run of a fixed loop of dict, tuple and integer work takes."""
    started = time.perf_counter()
    table = {}
    acc = 0
    for i in range(24000):
        key = (i & 255, i % 7)
        cell = frozenset((i & 15, i & 240, key))
        table[key] = cell
        acc += len(cell)
    for i in range(160000):
        acc += i * i % 7
    return time.perf_counter() - started


def scale(seconds: float, before: float, after: float) -> float:
    """A time measured between two calibrations, at the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
