"""Host-speed probe: wall time rescaled to a reference host speed.

The benchmark shares a few cores of a busy host, and the speed those
cores give a single Python thread drifts by tens of percent within
seconds.  Raw wall time of the same pass therefore spreads too widely to
compare two commits.  The probe measures the host's current speed while
the workload runs and rescales every stretch of program time by it.

Every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler runs
:func:`kernel`, a fixed pure-Python loop of dict, list and attribute
work.  The program time since the previous tick, ``gap``, is credited as
``gap * REFERENCE_KERNEL_S / kernel_time``: the seconds it would have
taken on a host where the kernel takes ``REFERENCE_KERNEL_S``.  The
kernel's own time is excluded from both clocks.  The probe is part of
the benchmark, not of the program, so a change to the program moves
only the program's side of the ratio.

The handler allocates no container objects, so it never advances the
garbage collector's counters, and the program's results are unchanged
(the correctness gate checks that on every op).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

#: Wall time between probe ticks (the kernel adds about 5 %).
INTERVAL_S = 0.02
#: Kernel time on the reference host, by definition.  Rescaled times are
#: seconds on a host where :func:`kernel` takes exactly this long.
REFERENCE_KERNEL_S = 1e-3


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = a * 7 + 1


_TABLE = {i: i * 3 for i in range(512)}
_LIST = list(range(512))
_SLOTS = [_Slot(i) for i in range(64)]


def kernel(rounds: int = 3000) -> int:
    """About a millisecond of dict, list and slot-attribute work."""
    acc = 0
    table, items, slots = _TABLE, _LIST, _SLOTS
    for i in range(rounds):
        j = (i * 37 + acc) & 511
        slot = slots[j & 63]
        acc = (acc + table[j] + items[(j + 5) & 511]
               + slot.a * slot.b) & 0xFFFF
        slot.a = (slot.a + 1) & 7
    return acc


def reference_seconds(seconds: float, samples: int = 15) -> float:
    """Rescale ``seconds`` just measured by the kernel's median time now."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return seconds * REFERENCE_KERNEL_S / statistics.median(times)


class HostProbe:
    """Two clocks over the spans between :meth:`begin` and :meth:`end`:
    ``raw_s``, program wall time, and ``ref_s``, the same time at the
    reference host speed."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.ticks = 0
        self._last = 0.0
        self._timing = False
        self._busy = False
        self._previous = None

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def begin(self) -> None:
        self._timing = True
        self._last = perf_counter()

    def end(self) -> None:
        """Close the last stretch with a tick of its own, then stop."""
        self._timing = False
        self._tick()

    def _on_alarm(self, signum, frame) -> None:
        if self._timing and not self._busy:
            self._tick()

    def _tick(self) -> None:
        self._busy = True
        start = perf_counter()
        kernel()
        stop = perf_counter()
        gap = start - self._last
        self.raw_s += gap
        self.ref_s += gap * REFERENCE_KERNEL_S / (stop - start)
        self.ticks += 1
        self._last = perf_counter()
        self._busy = False
