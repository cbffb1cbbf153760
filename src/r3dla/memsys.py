"""Three-level cache hierarchy with flat DRAM latency.

L1/L2 are private per thread (main thread and look-ahead thread each get
their own pair); L3 and DRAM are shared.  The hierarchy is inclusive with
LRU replacement.  Only tags are modeled: data correctness lives in the
functional interpreter, which also gives speculation containment for free
(the look-ahead thread's stores go to its private state and are simply
discarded, never written back).

An in-flight table per line approximates MSHR behavior: a demand access to
a line whose fill is still outstanding merges with it and waits out the
remaining latency.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    mshr: int = 32

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


@dataclass(frozen=True)
class AccessResult:
    latency: int
    hit_level: str
    was_prefetched: bool = False
    merged: bool = False    # joined an outstanding fill; latency is remaining


class Cache:
    """One set-associative LRU cache level; tags only."""

    def __init__(self, cfg: LevelConfig, name: str):
        self.cfg = cfg
        self.name = name
        self.n_sets = cfg.size // (cfg.line * cfg.assoc)
        self.sets: list[dict] = [dict() for _ in range(self.n_sets)]  # tag -> stamp
        self.pref_lines: list[set] = [set() for _ in range(self.n_sets)]
        self.stamp = 0
        self.accesses = 0
        self.misses = 0

    def lookup(self, line_addr: int, demand: bool = True) -> bool:
        si = line_addr % self.n_sets
        s = self.sets[si]
        if demand:
            self.accesses += 1
        if line_addr in s:
            self.stamp += 1
            s[line_addr] = self.stamp
            return True
        if demand:
            self.misses += 1
        return False

    def was_prefetched(self, line_addr: int) -> bool:
        return line_addr in self.pref_lines[line_addr % self.n_sets]

    def clear_prefetch_mark(self, line_addr: int) -> None:
        self.pref_lines[line_addr % self.n_sets].discard(line_addr)

    def fill(self, line_addr: int, prefetched: bool = False) -> None:
        si = line_addr % self.n_sets
        s = self.sets[si]
        if line_addr not in s and len(s) >= self.cfg.assoc:
            victim = min(s, key=s.get)
            del s[victim]
            self.pref_lines[si].discard(victim)
        self.stamp += 1
        s[line_addr] = self.stamp
        if prefetched:
            self.pref_lines[si].add(line_addr)


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
        self.l1 = {MT: Cache(self.cfg.l1, "L1.MT"), LT: Cache(self.cfg.l1, "L1.LT")}
        self.l2 = {MT: Cache(self.cfg.l2, "L2.MT"), LT: Cache(self.cfg.l2, "L2.LT")}
        self.l3 = Cache(self.cfg.l3, "L3")
        self.in_flight: dict[tuple, tuple[int, bool]] = {}  # (mode,line) -> (ready, is_pref)
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
        l1, l2 = self.l1[mode], self.l2[mode]

        if kind == "prefetch":
            self.pf_stats.prefetch_issued += 1
            if l1.lookup(line_addr, demand=False):
                return AccessResult(0, "L1", False)
            if (mode, line_addr) in self.in_flight:
                return AccessResult(0, "L1", False)
            if len(self.in_flight) >= self.cfg.mshr:
                self.pf_stats.prefetch_issued -= 1  # dropped, MSHRs full
                return AccessResult(0, "DRAM", False)

        key = (mode, line_addr)
        pending = self.in_flight.get(key)
        if pending is not None:
            ready, was_pref = pending
            if now >= ready:
                del self.in_flight[key]
                pending = None
            elif demand:
                # merge with the outstanding fill
                if was_pref:
                    self.pf_stats.prefetch_late += 1
                    self.in_flight[key] = (ready, False)
                l1.accesses += 1
                l1.misses += 1
                return AccessResult(max(1, ready - now), "DRAM", was_pref,
                                    merged=True)
            else:
                return AccessResult(0, "L1", False)

        lat = self.cfg.l1.hit_latency
        if l1.lookup(line_addr, demand=demand):
            hit = "L1"
            if demand and l1.was_prefetched(line_addr):
                self.pf_stats.prefetch_useful += 1
                l1.clear_prefetch_mark(line_addr)
                was_pref = True
            else:
                was_pref = False
            return AccessResult(lat, hit, was_pref)

        was_pref = False
        lat += self.cfg.l2.hit_latency
        if l2.lookup(line_addr, demand=demand):
            hit = "L2"
            if demand and l2.was_prefetched(line_addr):
                self.pf_stats.prefetch_useful += 1
                l2.clear_prefetch_mark(line_addr)
                was_pref = True
        else:
            lat += self.cfg.l3.hit_latency
            if self.l3.lookup(line_addr, demand=demand):
                hit = "L3"
                if demand and self.l3.was_prefetched(line_addr):
                    self.pf_stats.prefetch_useful += 1
                    self.l3.clear_prefetch_mark(line_addr)
                    was_pref = True
            else:
                hit = "DRAM"
                lat += self.cfg.dram_latency
                self.traffic_lines += 1
                self.l3.fill(line_addr, prefetched=(kind == "prefetch"))
            l2.fill(line_addr, prefetched=(kind == "prefetch"))
        l1.fill(line_addr, prefetched=(kind == "prefetch"))
        # only real fills occupy miss-status registers; L1 hits never do
        if hit != "L1":
            if demand and len(self.in_flight) < self.cfg.mshr:
                self.in_flight[key] = (now + lat, False)
            elif kind == "prefetch":
                self.in_flight[key] = (now + lat, True)
        return AccessResult(lat, hit, was_pref)

    def drain(self, now: int) -> None:
        """Retire in-flight fills that completed by ``now``."""
        done = [k for k, (ready, _) in self.in_flight.items() if ready <= now]
        for k in done:
            del self.in_flight[k]

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
