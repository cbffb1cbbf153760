"""Three-level cache hierarchy with flat DRAM latency.

L1/L2 are private per thread (main thread and look-ahead thread each get
their own pair); L3 and DRAM are shared.  The hierarchy is inclusive with
LRU replacement.  Only tags are modeled: data correctness lives in the
functional interpreter, which also gives speculation containment for free
(the look-ahead thread's stores go to its private state and are simply
discarded, never written back).

An in-flight table per line approximates MSHR behavior: a demand access to
a line whose fill is still outstanding merges with it and waits out the
remaining latency.  A heap of fill-ready times beside the table lets a
drain retire only the fills that are ready.

Each cache level keeps its prefetch marks in one set of line addresses
(``Cache.pref_lines``), not one set per cache set: a line address maps to
exactly one cache set, so a mark is cleared with its line on eviction or on
the demand hit that counts it useful, as before.  The default hierarchy has
3,328 cache sets, and each set is then one dict instead of a dict and a set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

MT = "MT"
LT = "LT"


class MemError(Exception):
    pass


@dataclass(frozen=True)
class LevelConfig:
    size: int
    assoc: int
    line: int
    hit_latency: int


@dataclass(frozen=True)
class CacheConfig:
    l1: LevelConfig = LevelConfig(32 * 1024, 4, 64, 3)
    l2: LevelConfig = LevelConfig(256 * 1024, 8, 64, 9)
    l3: LevelConfig = LevelConfig(2 * 1024 * 1024, 16, 64, 36)
    dram_latency: int = 200
    mshr: int = 32          # miss-status registers; 0 tracks no fills at all

    def __post_init__(self):
        line = self.l1.line
        for lv in (self.l1, self.l2, self.l3):
            if lv.line != line:
                raise MemError("line sizes must match across levels")
            sets = lv.size // (lv.line * lv.assoc)
            if lv.size % (lv.line * lv.assoc) or sets & (sets - 1):
                raise MemError("cache size must be a power-of-two multiple of line*assoc")

    @classmethod
    def from_dict(cls, d: dict) -> "CacheConfig":
        kw = {}
        for name in ("l1", "l2", "l3"):
            if name in d:
                kw[name] = LevelConfig(**d[name])
        for name in ("dram_latency", "mshr"):
            if name in d:
                kw[name] = d[name]
        return cls(**kw)

    def cold_latency(self) -> int:
        return (self.l1.hit_latency + self.l2.hit_latency
                + self.l3.hit_latency + self.dram_latency)


class AccessResult(NamedTuple):
    latency: int
    hit_level: str
    was_prefetched: bool = False
    merged: bool = False    # joined an outstanding fill; latency is remaining


# builds an AccessResult from a full 4-tuple without NamedTuple's Python-level
# __new__: _result(AccessResult, (latency, hit_level, was_prefetched, merged))
_result = tuple.__new__
_PREFETCH_NOOP = AccessResult(0, "L1")       # line present or already in flight
_PREFETCH_DROPPED = AccessResult(0, "DRAM")  # no free miss-status register


class Cache:
    """One set-associative LRU cache level; tags only.

    Each set is a dict whose key order is the LRU order: a hit or a fill moves
    the line to the end, and the victim is the first key.  ``pref_lines``
    holds the line addresses, across all sets, that a prefetch filled and no
    demand access has hit since; evicting a line drops its mark.
    """

    def __init__(self, cfg: LevelConfig):
        self.cfg = cfg
        self.n_sets = cfg.size // (cfg.line * cfg.assoc)
        self.sets: list[dict] = [dict() for _ in range(self.n_sets)]  # tag -> None
        self.pref_lines: set[int] = set()
        self.accesses = 0
        self.misses = 0

    def fill(self, line_addr: int, prefetched: bool = False) -> None:
        s = self.sets[line_addr % self.n_sets]
        if line_addr in s:
            del s[line_addr]
        elif len(s) >= self.cfg.assoc:
            victim = next(iter(s))
            del s[victim]
            self.pref_lines.discard(victim)
        s[line_addr] = None
        if prefetched:
            self.pref_lines.add(line_addr)


@dataclass
class LevelStats:
    prefetch_issued: int = 0
    prefetch_useful: int = 0
    prefetch_late: int = 0


class MemorySystem:
    """Private L1/L2 per thread over a shared L3 + DRAM."""

    def __init__(self, config: CacheConfig | None = None):
        self.cfg = config or CacheConfig()
        self.line = self.cfg.l1.line
        self.l1 = {MT: Cache(self.cfg.l1), LT: Cache(self.cfg.l1)}
        self.l2 = {MT: Cache(self.cfg.l2), LT: Cache(self.cfg.l2)}
        self.l3 = Cache(self.cfg.l3)
        # the lookup order per thread: (hit level, cache)
        self._levels = {m: (("L1", self.l1[m]), ("L2", self.l2[m]), ("L3", self.l3))
                        for m in (MT, LT)}
        self.in_flight: dict[tuple, tuple[int, bool]] = {}  # (mode,line) -> (ready, is_pref)
        # (ready, key) per fill put in in_flight; an entry whose key has
        # since left in_flight or been filled again is stale and skipped
        self._ready_heap: list[tuple[int, tuple]] = []
        self.traffic_lines = 0
        self.pf_stats = LevelStats()  # prefetch counters, aggregated

    # -- core operation ----------------------------------------------------

    def access(self, addr: int, kind: str = "load", mode: str = MT,
               now: int = 0) -> AccessResult:
        """One demand or prefetch access; returns its latency and hit level.

        ``kind`` is load/store/prefetch.  Prefetches fill caches but the
        caller is expected not to charge their latency to the pipeline.
        """
        if addr < 0:
            raise MemError(f"negative address {addr}")
        line_addr = addr // self.line
        demand = kind != "prefetch"
        levels = self._levels[mode]
        l1 = levels[0][1]
        in_flight = self.in_flight
        key = (mode, line_addr)

        if not demand:
            self.pf_stats.prefetch_issued += 1
            s = l1.sets[line_addr % l1.n_sets]
            if line_addr in s:
                del s[line_addr]        # the hit refreshes its LRU place
                s[line_addr] = None
                return _PREFETCH_NOOP
            if key in in_flight:
                return _PREFETCH_NOOP
            if len(in_flight) >= self.cfg.mshr:
                self.pf_stats.prefetch_issued -= 1  # dropped, MSHRs full
                return _PREFETCH_DROPPED

        pending = in_flight.get(key)
        if pending is not None:
            ready, was_pref = pending
            if now >= ready:
                del in_flight[key]
            else:
                # a demand access (a prefetch of an in-flight line returned
                # above) merges with the outstanding fill
                if was_pref:
                    self.pf_stats.prefetch_late += 1
                    in_flight[key] = (ready, False)
                l1.accesses += 1
                l1.misses += 1
                return _result(AccessResult,
                               (max(1, ready - now), "DRAM", was_pref, True))

        # Walk L1, L2, L3.  A hit moves the line to the end of its set's LRU
        # order; a demand hit on a line a prefetch brought in counts that
        # prefetch useful and clears its mark.
        lat = 0
        was_pref = False
        depth = 0
        for hit, cache in levels:
            lat += cache.cfg.hit_latency
            s = cache.sets[line_addr % cache.n_sets]
            if demand:
                cache.accesses += 1
            if line_addr in s:
                del s[line_addr]
                s[line_addr] = None
                if demand and line_addr in cache.pref_lines:
                    self.pf_stats.prefetch_useful += 1
                    cache.pref_lines.discard(line_addr)
                    was_pref = True
                break
            if demand:
                cache.misses += 1
            depth += 1
        else:
            hit = "DRAM"
            lat += self.cfg.dram_latency
            self.traffic_lines += 1
        if depth == 0:
            return _result(AccessResult, (lat, "L1", was_pref, False))
        # fill the levels that missed; a fill occupies a miss-status register,
        # and a prefetch got here only with one free
        prefetched = not demand
        for _, cache in levels[:depth]:
            cache.fill(line_addr, prefetched)
        if prefetched or len(in_flight) < self.cfg.mshr:
            in_flight[key] = (now + lat, prefetched)
            heapq.heappush(self._ready_heap, (now + lat, key))
        return _result(AccessResult, (lat, hit, was_pref, False))

    def drain(self, now: int) -> None:
        """Retire in-flight fills that completed by ``now``."""
        heap = self._ready_heap
        in_flight = self.in_flight
        while heap and heap[0][0] <= now:
            ready, key = heapq.heappop(heap)
            pending = in_flight.get(key)
            if pending is not None and pending[0] == ready:
                del in_flight[key]

    def earliest_ready(self) -> int | None:
        """The earliest ready time in ``in_flight``, or None when it is empty."""
        heap = self._ready_heap
        in_flight = self.in_flight
        while heap:
            ready, key = heap[0]
            pending = in_flight.get(key)
            if pending is not None and pending[0] == ready:
                return ready
            heapq.heappop(heap)
        return None

    # -- statistics ----------------------------------------------------------

    def stats(self, instructions: int = 0) -> dict:
        out = {}
        for name, cache in (("L1.MT", self.l1[MT]), ("L1.LT", self.l1[LT]),
                            ("L2.MT", self.l2[MT]), ("L2.LT", self.l2[LT]),
                            ("L3", self.l3)):
            out[name] = {
                "accesses": cache.accesses,
                "misses": cache.misses,
                "mpki": 1000.0 * cache.misses / max(1, instructions),
            }
        out["prefetch_issued"] = self.pf_stats.prefetch_issued
        out["prefetch_useful"] = self.pf_stats.prefetch_useful
        out["prefetch_late"] = self.pf_stats.prefetch_late
        out["traffic_lines"] = self.traffic_lines
        return out
