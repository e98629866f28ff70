"""Times at a fixed reference speed of the machine.

The benchmark runs on a few cores of a shared host, whose speed changes by
up to a factor of two for seconds or minutes at a time, as other tenants
come and go.  Wall times of one run therefore depend more on when it ran
than on the program.  To take that out, the timed phase is cut into
segments of about half a second, and between two segments a fixed
pure-Python task, `calibrate`, measures how fast the machine is right now.
A segment's wall time is scaled by ``REFERENCE_CAL_S / cal``, where ``cal``
is the median of the calibrations around it (`window_medians`), so that one
odd calibration does not rescale the operations next to it.  Calibrations
are not part of any span they interrupt.

The task uses only the standard library, shares no code with polykron and
does not change between commits, so a change to polykron moves the scaled
time exactly as it moves the wall time; the raw wall time is printed next to
it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

#: Time of one `calibrate` call at the reference speed: about its time on a
#: 2.1 GHz Xeon core with Python 3.11.  Scaled times are in seconds at that
#: speed.  Changing it rescales every time.
REFERENCE_CAL_S = 0.010

#: Calibrations on each side of a segment whose median scales it: about
#: two seconds each way, shorter than the host's changes of speed.
WINDOW = 4

_N = 140
#: The task's table lives as long as the process: the first call builds it,
#: later calls overwrite its values.  A table made and freed on every call
#: would be mapped from the kernel anew each time, and page faults would
#: time the host's memory, not its processor.
_TABLE: dict = {}


def _task() -> int:
    """Partitions of _N by dynamic programming over a dict of tuple keys:
    the same mix of small tuples, dict lookups and integer additions that
    polykron's memo tables spend their time in."""
    table = _TABLE
    for n in range(_N + 1):
        for k in range(_N + 1):
            if n == 0:
                table[n, k] = 1
            elif k == 0:
                table[n, k] = 0
            else:
                table[n, k] = table[n, k - 1] + (table[n - k, k] if k <= n else 0)
    return table[_N, _N]


def window_medians(values, k: int = WINDOW) -> list:
    """Median of values[i - k .. i + k], for each i."""
    return [statistics.median(values[max(0, i - k): i + k + 1]) for i in range(len(values))]


class RefClock:
    """Calibrations taken during a timed phase, and scaling by them."""

    def __init__(self):
        self.marks = []  # (start, end) of each calibration

    def calibrate(self) -> None:
        """Time the task once; the garbage collector is off so that the
        program's heap does not change the task's speed."""
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _task()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.marks.append((start, end))

    def start_timer(self, interval: float = 0.5) -> None:
        """Calibrate now and then every `interval` seconds, from a SIGALRM
        handler, which Python runs in the main thread between bytecodes."""
        self.calibrate()
        signal.signal(signal.SIGALRM, lambda *_: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.calibrate()

    def cal_seconds(self) -> list:
        return [end - start for start, end in self.marks]

    def raw(self, a: float, b: float) -> float:
        """Wall time of [a, b] without the calibrations inside it."""
        inside = sum(max(0.0, min(b, e) - max(a, s)) for s, e in self.marks)
        return (b - a) - inside

    def scaled(self, a: float, b: float) -> float:
        """Seconds at the reference speed spent in [a, b].

        [a, b] must lie between the first and the last calibration.
        """
        marks = self.marks
        cal = window_medians(self.cal_seconds())
        total = 0.0
        for k, ((_, e0), (s1, _)) in enumerate(zip(marks, marks[1:])):
            lo, hi = max(a, e0), min(b, s1)
            if hi > lo:
                total += (hi - lo) * 2 * REFERENCE_CAL_S / (cal[k] + cal[k + 1])
        return total
