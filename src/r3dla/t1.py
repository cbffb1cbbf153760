"""T1: the strided-prefetch offload FSM.

T1 lives in the main thread's core and is deliberately dumb: skeleton
generation marks the strided instructions (S bits), so T1 never has to
discover streams among unrelated addresses.  Per marked instruction it keeps
one table entry, made at its first instance, that starts in TRANSIENT1 and
walks to TRANSIENT2 and STEADY, confirming the stride once before trusting
it.  The prefetch distance is the smoothed memory latency divided by the
smoothed time between instances; a cursor tracks the highest line already
requested so catch-up bursts never re-issue covered addresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TABLE_CAPACITY = 16
FIRST_DEGREE = 2        # prefetch degree on the first stride computation
BURST_CAP = 8           # max prefetches emitted per observed instance
LATENCY_ALPHA = 0.5
LATENCY_MARGIN = 1.25   # safety factor on the smoothed miss latency
ITER_ALPHA = 0.5

TRANSIENT1 = "TRANSIENT1"
TRANSIENT2 = "TRANSIENT2"
STEADY = "STEADY"


@dataclass
class T1Entry:
    pc: int
    state: str = TRANSIENT1
    last_addr: int = 0
    stride: int | None = None
    last_cycle: int = 0
    iter_time: float = 0.0
    distance: int = 1
    loop_pc: int | None = None
    next_prefetch: int | None = None  # cursor: next uncovered address
    lru: int = 0


class LatencyEstimator:
    """Per-pc exponentially smoothed miss latency.

    Hits and merged (already-in-flight) accesses do not update it: their
    latencies say nothing about how far ahead a fill must start.  The
    returned value carries a safety margin so the prefetch distance absorbs
    issue-queue delay and dispatch jitter instead of landing exactly on the
    demand access.
    """

    def __init__(self, default: float):
        self.default = default
        self.est: dict[int, float] = {}

    def note_miss(self, pc: int, latency: int) -> None:
        prev = self.est.get(pc)
        self.est[pc] = latency if prev is None else (
            LATENCY_ALPHA * latency + (1 - LATENCY_ALPHA) * prev)

    def get(self, pc: int) -> float:
        return self.est.get(pc, self.default) * LATENCY_MARGIN


class T1Table:
    """Prefetch table keyed by S-bit instruction pc; LRU over
    ``TABLE_CAPACITY`` entries."""

    def __init__(self):
        self.entries: dict[int, T1Entry] = {}
        self._tick = 0
        self.prefetches_issued = 0
        self.steady_prefetches = 0

    def _alloc(self, pc: int, loop_pc: int | None) -> T1Entry:
        if len(self.entries) >= TABLE_CAPACITY:
            victim = min(self.entries.values(), key=lambda e: e.lru)
            del self.entries[victim.pc]
        e = T1Entry(pc=pc, loop_pc=loop_pc)
        self.entries[pc] = e
        return e

    def observe(self, pc: int, eff_addr: int, cycle: int,
                mem_latency_estimate: float,
                loop_pc: int | None = None) -> list[int]:
        """One dynamic instance of an S-bit instruction; returns prefetch addrs."""
        out: list[int] = []
        self._tick += 1
        e = self.entries.get(pc)
        if e is None:
            e = self._alloc(pc, loop_pc)
            e.last_addr = eff_addr
            e.last_cycle = cycle
            e.lru = self._tick
            return out  # never prefetch on an entry's first touch

        e.lru = self._tick
        delta = eff_addr - e.last_addr
        dt = max(1, cycle - e.last_cycle)
        e.last_cycle = cycle

        if e.state == TRANSIENT1:
            # first stride computed: issue fixed-degree prefetches immediately
            e.stride = delta
            e.iter_time = dt
            e.last_addr = eff_addr
            if delta != 0:
                e.state = TRANSIENT2
                for k in range(1, FIRST_DEGREE + 1):
                    out.append(eff_addr + k * delta)
                e.next_prefetch = eff_addr + (FIRST_DEGREE + 1) * delta
            self.prefetches_issued += len(out)
            return out

        # TRANSIENT2 or STEADY: the stride is nonzero and the cursor is set
        if delta != e.stride:
            # mismatch: guard against bogus strides, fall back to transient
            e.state = TRANSIENT1
            e.stride = None
            e.last_addr = eff_addr
            e.next_prefetch = None
            return out

        e.iter_time = ITER_ALPHA * dt + (1 - ITER_ALPHA) * e.iter_time
        e.last_addr = eff_addr
        e.distance = max(1, math.ceil(mem_latency_estimate / max(1.0, e.iter_time)))
        target = eff_addr + e.distance * e.stride
        # catch up from the cursor toward A + n*stride, bounded per instance
        step = e.stride
        a = e.next_prefetch
        if (target - a) * step >= 0:
            count = abs(target - a) // abs(step) + 1
            for _ in range(min(count, BURST_CAP)):
                out.append(a)
                a += step
            e.next_prefetch = a
        e.state = STEADY    # the stride is confirmed
        self.prefetches_issued += len(out)
        self.steady_prefetches += len(out)
        return out

    def loop_end(self, loop_pc: int) -> None:
        """A loop terminated: clear the entries it owns."""
        dead = [pc for pc, e in self.entries.items() if e.loop_pc == loop_pc]
        for pc in dead:
            del self.entries[pc]

    def stats(self) -> dict:
        return {"live_entries": len(self.entries),
                "prefetches_issued": self.prefetches_issued,
                "steady_prefetches": self.steady_prefetches}
