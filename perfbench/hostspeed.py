"""Host speed: a calibration loop, and host time cut into segments that
it brackets.

The VM this was built on shares its cores with other tenants: in phases
of tens of milliseconds to tens of seconds the same code runs up to 2x
slower, in CPU time as much as in wall time.  So timed work is cut into
short segments (about 20 ms), and each segment boundary is a
``calibrate()`` reading, a fixed loop that does not touch fairpool.  A segment's *reference time* is its host time scaled by
``REFERENCE_CALIBRATION_S`` over the mean of its two readings: roughly
its time on this VM when nothing else is running.  The loop does not
touch fairpool, so a change to fairpool moves reference time as it
moves host time; only the host's own drift is divided out.

This module imports nothing from fairpool, so a fresh process can read
host speed before fairpool is imported.
"""

from __future__ import annotations

import gc
import statistics
import time

CALIBRATION_LOOPS = 800
# calibrate() on the reference VM when no other tenant slows it.  Only
# the scale of reference time depends on it.
REFERENCE_CALIBRATION_S = 0.0005


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def at(self, x: int) -> int:
        return self.a * x + self.b


def calibrate(runs: int = 3) -> float:
    """Median time of ``runs`` runs of a fixed loop of the operations
    fairpool's hot paths are made of: small objects, method calls,
    tuples, dict lookups and integer arithmetic.  The collector is off
    meanwhile, so the size of the heap around it does not matter; every
    object it makes is freed by reference counting."""
    readings = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            start = time.perf_counter()
            table: dict[int, tuple] = {}
            acc = 0
            for i in range(CALIBRATION_LOOPS):
                p = _Point(i, i + 1)
                t = (i, p.at(3), i % 5)
                table[t[2]] = t
                acc += table.get(i % 7, t)[1] // (i + 1)
            readings.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(readings)


class Segments:
    """Host time from creation on, cut into segments at each ``split()``.

    ``wall`` and ``ref`` are the host and reference seconds of the
    segments ended so far; the calibration readings themselves fall
    between segments and count in neither.  Times are
    ``time.monotonic()``, which is one clock for every process on the
    host, so a segment may start in another process: pass the reading
    and the time taken there as ``reading`` and ``start``.
    """

    def __init__(self, reading: float | None = None, start: float | None = None) -> None:
        self.readings = [calibrate() if reading is None else reading]
        self.wall = 0.0
        self.ref = 0.0
        self.start = time.monotonic() if start is None else start

    def split(self) -> float:
        """End the current segment, read host speed, start the next.

        Returns the ended segment's factor from host to reference time.
        """
        host = time.monotonic() - self.start
        self.readings.append(calibrate())
        factor = 2 * REFERENCE_CALIBRATION_S / (self.readings[-2] + self.readings[-1])
        self.wall += host
        self.ref += host * factor
        self.start = time.monotonic()
        return factor
