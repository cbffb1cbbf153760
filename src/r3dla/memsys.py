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

``serial_walk`` is the main thread's demand path alone, for a caller that
makes one access at a time and waits out each fill (the skeleton profile):
the same L1/L2/L3 sets and LRU order as ``MemorySystem``, and no in-flight
table (such a walk finds each fill complete), prefetch marks or counters,
which it never changes or reads.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from typing import ClassVar, NamedTuple

MT = "MT"
LT = "LT"
LEVELS = ("l1", "l2", "l3")


class MemError(Exception):
    pass


def check_int(name: str, value, minimum: int | None = None, error=MemError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an int (of at least
    ``minimum``, if given).  A bool is an int to Python, but true is no width."""
    if type(value) is not int:
        raise error(f"{name}: must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name}: must be >= {minimum}, got {value!r}")


def check_int_fields(cls, values: dict, error=MemError) -> None:
    """``check_int`` on each field of the dataclass ``cls`` that ``values``
    holds, in field order: a width, size or capacity needs at least one slot,
    and a field in ``cls.ZERO_OK`` (a latency or penalty) may be zero.  Give
    an instance's ``asdict``: ``vars`` would build its ``__dict__``, which
    slows every later attribute read of the instance (CPython 3.11)."""
    for f in fields(cls):
        if f.name in values:
            check_int(f.name, values[f.name], 0 if f.name in cls.ZERO_OK else 1,
                      error)


@dataclass(frozen=True)
class LevelConfig:
    size: int
    assoc: int
    line: int
    hit_latency: int
    ZERO_OK: ClassVar = ("hit_latency",)

    def __post_init__(self):
        check_int_fields(LevelConfig, asdict(self))
        sets = self.size // (self.line * self.assoc)
        if self.size % (self.line * self.assoc) or sets & (sets - 1):
            raise MemError(f"size: must be a power-of-two multiple of line*assoc "
                           f"({self.line * self.assoc}), got {self.size}")


@dataclass(frozen=True)
class CacheConfig:
    l1: LevelConfig = LevelConfig(32 * 1024, 4, 64, 3)
    l2: LevelConfig = LevelConfig(256 * 1024, 8, 64, 9)
    l3: LevelConfig = LevelConfig(2 * 1024 * 1024, 16, 64, 36)
    dram_latency: int = 200
    mshr: int = 32          # miss-status registers

    def __post_init__(self):
        for name in LEVELS:
            level = getattr(self, name)
            if not isinstance(level, LevelConfig):
                raise MemError(f"{name}: must be a LevelConfig, got {level!r}")
            if level.line != self.l1.line:
                raise MemError(f"{name}.line: line sizes must match across "
                               f"levels, l1.line is {self.l1.line}")
        check_int("dram_latency", self.dram_latency, 0)
        check_int("mshr", self.mshr, 1)

    @classmethod
    def from_dict(cls, d: dict) -> "CacheConfig":
        """The config of a JSON cache block, each level given as an object
        with all four fields; a level's error names it (``l1.size: ...``)."""
        kw = dict(d)
        for name in LEVELS:
            if type(d.get(name)) is dict:   # else __post_init__ refuses it
                kw[name] = _level_from_dict(name, d[name])
        return cls(**kw)

    def cold_latency(self) -> int:
        return (self.l1.hit_latency + self.l2.hit_latency
                + self.l3.hit_latency + self.dram_latency)


def _level_from_dict(name: str, d: dict) -> LevelConfig:
    keys = [f.name for f in fields(LevelConfig)]
    for key in d:
        if key not in keys:
            raise MemError(f"{name}.{key}: unknown field")
    missing = [key for key in keys if key not in d]
    try:
        check_int_fields(LevelConfig, d)   # name a bad field before a missing one
        if not missing:
            return LevelConfig(**d)
    except MemError as e:
        raise MemError(f"{name}.{e}") from None
    raise MemError(f"{name}: missing {', '.join(missing)}")


class AccessResult(NamedTuple):
    latency: int
    hit_level: str
    merged: bool = False    # joined an outstanding fill; latency is remaining


# builds an AccessResult from a full 3-tuple without NamedTuple's Python-level
# __new__: _result(AccessResult, (latency, hit_level, merged))
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
                return _result(AccessResult, (max(1, ready - now), "DRAM", True))

        # Walk L1, L2, L3.  A hit moves the line to the end of its set's LRU
        # order; a demand hit on a line a prefetch brought in counts that
        # prefetch useful and clears its mark.
        lat = 0
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
                break
            if demand:
                cache.misses += 1
            depth += 1
        else:
            hit = "DRAM"
            lat += self.cfg.dram_latency
            self.traffic_lines += 1
        if depth == 0:
            return _result(AccessResult, (lat, "L1", False))
        # fill the levels that missed; a fill occupies a miss-status register,
        # and a prefetch got here only with one free
        prefetched = not demand
        for _, cache in levels[:depth]:
            cache.fill(line_addr, prefetched)
        if prefetched or len(in_flight) < self.cfg.mshr:
            in_flight[key] = (now + lat, prefetched)
            heapq.heappush(self._ready_heap, (now + lat, key))
        return _result(AccessResult, (lat, hit, False))

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


def serial_walk(cfg: CacheConfig) -> Callable[[int], tuple[int, str]]:
    """The main thread's demand accesses, one at a time, for a serial walk.

    Returns ``access(addr) -> (latency, hit_level)``, which gives what
    ``MemorySystem(cfg).access(addr, kind, MT, now)`` gives for a load or a
    store made once the previous access's fill is ready: each earlier fill
    is then complete, so none merges, and with no prefetch no line is ever
    marked.  It keeps only the MT's L1, L2 and L3 sets, in the same LRU
    order, and no counters.  ``cfg.mshr`` is not read.
    """
    line = cfg.l1.line
    # each level's sets, its set-index mask (n_sets is a power of two) and ways
    (sets1, m1, w1), (sets2, m2, w2), (sets3, m3, w3) = [
        (c.sets, c.n_sets - 1, c.cfg.assoc)
        for c in (Cache(cfg.l1), Cache(cfg.l2), Cache(cfg.l3))]
    lat = cfg.l1.hit_latency
    hit1 = (lat, "L1")
    lat += cfg.l2.hit_latency
    hit2 = (lat, "L2")
    lat += cfg.l3.hit_latency
    hit3 = (lat, "L3")
    dram = (lat + cfg.dram_latency, "DRAM")

    def access(addr: int) -> tuple[int, str]:
        if addr < 0:
            raise MemError(f"negative address {addr}")
        la = addr // line
        s1 = sets1[la & m1]
        if la in s1:
            del s1[la]          # the hit refreshes its LRU place
            s1[la] = None
            return hit1
        # a miss fills every level above the hit, evicting each set's LRU line
        s2 = sets2[la & m2]
        if la in s2:
            del s2[la]
            s2[la] = None
            res = hit2
        else:
            s3 = sets3[la & m3]
            if la in s3:
                del s3[la]
                res = hit3
            else:
                if len(s3) >= w3:
                    del s3[next(iter(s3))]
                res = dram
            s3[la] = None
            if len(s2) >= w2:
                del s2[next(iter(s2))]
            s2[la] = None
        if len(s1) >= w1:
            del s1[next(iter(s1))]
        s1[la] = None
        return res

    return access
