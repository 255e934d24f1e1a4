"""``perf stat``-style timers.

The paper timed whole-process executions with::

    perf stat -e duration_time -e cpu-cycles <v2d>

and cross-checked PAPI software timers against the hardware clock,
finding the differences insignificant.  This module provides the
software side of that comparison: :func:`perf_stat`, the one wall+CPU
stopwatch (whole runs, the kernel driver's timed loops), reporting the
same two events (``duration_time`` in nanoseconds, ``cpu-cycles``
estimated from CPU time at a nominal clock rate -- a documented
software proxy, since cycle counters are not readable from Python).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: Nominal A64FX clock rate used to convert CPU seconds into an
#: estimated ``cpu-cycles`` count (the A64FX on Ookami runs at 1.8 GHz).
NOMINAL_HZ: float = 1.8e9


@dataclass(frozen=True)
class PerfStatResult:
    """Result of a :func:`perf_stat` measurement.

    Mirrors the two events the study collected: ``duration_time``
    (nanoseconds of wall clock) and ``cpu-cycles`` (estimated as CPU
    seconds x nominal clock).
    """

    duration_time_ns: int
    cpu_cycles: int
    wall_seconds: float
    cpu_seconds: float

    def report(self) -> str:
        """A ``perf stat``-style text block."""
        lines = [
            " Performance counter stats:",
            "",
            f"  {self.duration_time_ns:>20,d}      duration_time",
            f"  {self.cpu_cycles:>20,d}      cpu-cycles (estimated @ {NOMINAL_HZ/1e9:.1f} GHz)",
            "",
            f"  {self.wall_seconds:>17.6f} seconds time elapsed",
            f"  {self.cpu_seconds:>17.6f} seconds cpu",
        ]
        return "\n".join(lines)


class _PerfStatBox:
    """Mutable holder filled in when the perf_stat region exits."""

    def __init__(self) -> None:
        self.result: PerfStatResult | None = None


@contextmanager
def perf_stat(nominal_hz: float = NOMINAL_HZ) -> Iterator[_PerfStatBox]:
    """Measure a region the way the study ran ``perf stat``.

    Yields a box whose ``.result`` is a :class:`PerfStatResult` once the
    ``with`` block exits::

        with perf_stat() as ps:
            run_simulation()
        print(ps.result.report())
    """
    box = _PerfStatBox()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        yield box
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        box.result = PerfStatResult(
            duration_time_ns=int(wall * 1e9),
            cpu_cycles=int(cpu * nominal_hz),
            wall_seconds=wall,
            cpu_seconds=cpu,
        )
