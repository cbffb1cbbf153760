"""Host speed probe: puts host timings on a fixed reference speed.

On a small shared VM the same simulation takes up to 1.5x longer from one
second or minute to the next.  The process is not waiting for a CPU (CPU
time tracks wall time, and a tight clock loop sees no gaps); the core simply
runs Python slower while other tenants load it.  Medians over one run cannot
remove steps that last longer than the run.

``HostSpeed.start`` arms a 10 ms interval timer (SIGALRM).  On each tick the
handler runs a fixed probe -- build 150 small slotted objects, call a method
on each and append the result to a list, the kind of interpreter work the
simulator is made of -- and records when it started and how long it took.
The probes interleave with whatever the benchmark is timing, on the same
core, so the mean probe time over an interval says how slow the host was
during that interval.  ``ref_seconds`` converts a host interval into
reference seconds: its length times ``REF_PROBE_S`` over that mean.

A probe now and then takes milliseconds instead of microseconds: something
held the core (a preemption, a host stall).  Such a stall costs the
simulation the same time, but landing on one of the hundred probes of a
second it would move their mean far more, so each probe counts at most
``CLIP`` times ``REF_PROBE_S``.  The slow steps stay well within that.  The
probe costs about 1% of the run and uses nothing from r3dla, so a change to
the simulator shows in full in reference seconds.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.01
# mean probe time at reference speed: about the median on a 2-core Intel Xeon
# 2.1 GHz VM with Python 3.11.7; it only sets the scale of reference seconds
REF_PROBE_S = 85e-6
MIN_PROBES = 5          # an interval shorter than this many ticks is widened
CLIP = 3.0              # a probe counts at most CLIP * REF_PROBE_S


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a):
        self.a = a
        self.b = a + 1

    def add(self, x):
        return self.a + x


def probe() -> int:
    out = []
    for i in range(150):
        o = _Obj(i)
        out.append(o.add(o.b))
    return len(out)


class HostSpeed:
    def __init__(self):
        self.at: list[float] = []       # probe start times, perf_counter
        self.took: list[float] = []     # probe durations, s
        self._busy = False
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._busy = False

    def start(self) -> None:
        # one probe now: an interval that ends before the first tick (a tiny
        # warm-up run can) is then scaled by it rather than by nothing
        self._tick(None, None)
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean clipped probe time in [t0, t1] over ``REF_PROBE_S``.

        With fewer than ``MIN_PROBES`` probes inside, the nearest
        ``MIN_PROBES`` around the interval's middle are used.
        """
        at = self.at
        i, j = bisect.bisect_left(at, t0), bisect.bisect_right(at, t1)
        if j - i < MIN_PROBES:
            mid = bisect.bisect_left(at, (t0 + t1) / 2)
            j = min(len(at), max(mid + MIN_PROBES // 2 + 1, MIN_PROBES))
            i = max(0, j - MIN_PROBES)
        if j <= i:
            raise RuntimeError("no host speed probes yet; call start() first")
        cap = CLIP * REF_PROBE_S
        return sum(min(t, cap) for t in self.took[i:j]) / (j - i) / REF_PROBE_S

    def ref_seconds(self, t0: float, t1: float) -> float:
        return (t1 - t0) / self.slowdown(t0, t1)

    def median_probe_s(self) -> float:
        took = sorted(self.took)
        return took[len(took) // 2] if took else 0.0
