"""Machine-speed probes: how fast this machine runs fixed reference work now.

A VM whose cores are shared with other machines drifts in speed. On a 2-vCPU
VM, the same Python loop took anywhere from 17 to 35 ms over a minute, and whole
runs differed by 40%. No bound of a few percent survives that. So every
timing is taken together with a reference that belongs to the benchmark,
not to the program. A change to the program therefore cannot move the
reference.

* ``KernelProbe`` serves in-process work. While it is active, a wall-clock
  timer fires every ``KernelProbe.PERIOD_S`` and runs ``kernel()``: fixed
  Python in the program's style (frozen dataclasses, dict lookups, float
  math, sorting and an attribute-comparison scan). Time spent in the probe
  inside a timed operation is subtracted from it.
* ``StartupProbe`` serves fresh processes. It times a fresh interpreter that
  imports a fixed set of standard-library modules. The caller runs it
  between child processes.

A measured time is reported at reference speed: it is multiplied by
``NOMINAL_NS / reference``. Here ``reference`` is the median probe near the
measurement. Raw times are reported alongside.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, replace
from time import perf_counter_ns


class _Probe:
    NOMINAL_NS = 1_000_000  # reference time that defines reference speed
    WINDOW_S = 0.0          # probes this close to a measurement set its scale

    def __init__(self) -> None:
        self.at = array("d")  # probe start, seconds on the perf_counter clock
        self.ns = array("q")  # duration of each probe

    def _record(self, t0: int, t1: int) -> None:
        self.at.append(t0 / 1e9)
        self.ns.append(t1 - t0)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_NS over the median probe within WINDOW_S of [start, end],
        or over the three probes nearest its middle when fewer are that close."""
        if not self.ns:
            raise RuntimeError("no speed probe ran; measure for longer")
        lo = bisect.bisect_left(self.at, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, end + self.WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(mid - 1, len(self.ns) - 3))
            hi = lo + 3
        return self.NOMINAL_NS / statistics.median(self.ns[lo:hi])

    def median_ns(self) -> float:
        return statistics.median(self.ns) if self.ns else math.nan


@dataclass(frozen=True)
class _Item:
    a: float
    b: float
    name: str


def kernel(n: int = 120) -> float:
    """Fixed reference work, 0.6 to 1.4 ms on a 2-vCPU VM depending on load."""
    items = []
    acc = 0.0
    for i in range(n):
        item = _Item(a=math.log10(i + 2.0), b=(i * 0.37) % 1.0, name=f"k{i}")
        item = replace(item, b=item.b + 1e-3)
        items.append(item)
        fields = {"x": item.a, "y": item.b}
        acc += fields["x"] * fields["y"] + len(item.name)
    items.sort(key=lambda t: (t.b, t.a))
    dominated = 0
    for item in items:
        for other in items[:40]:
            if other.a < item.a and other.b < item.b:
                dominated += 1
                break
    return acc + dominated


class KernelProbe(_Probe):
    """Runs ``kernel()`` on a SIGALRM timer while active; one per process."""

    PERIOD_S = 0.2   # a probe costs about 1 ms
    WINDOW_S = 0.6

    def __init__(self) -> None:
        super().__init__()
        self.stolen_ns = 0  # total time spent in probes, to subtract from operations
        self._busy = False
        self._previous = None

    def _fire(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter_ns()
        kernel()
        self._record(t0, perf_counter_ns())
        self.stolen_ns += perf_counter_ns() - t0
        self._busy = False

    def __enter__(self) -> KernelProbe:
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


STARTUP_CODE = ("import argparse, csv, dataclasses, decimal, email.parser, fractions, "
                "json, logging, statistics, xml.dom.minidom")


class StartupProbe(_Probe):
    """Times a fresh interpreter importing fixed standard-library modules."""

    NOMINAL_NS = 100_000_000

    def sample(self) -> None:
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", STARTUP_CODE], check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self._record(t0, perf_counter_ns())
