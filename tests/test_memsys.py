"""Cache hierarchy tests: latencies, LRU, prefetch accounting, MSHR merging."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from r3dla.memsys import (MemorySystem, CacheConfig, LevelConfig, MemError,
                          MT, LT, serial_walk)


def small_config(**kw):
    base = dict(
        l1=LevelConfig(1024, 2, 64, 3),
        l2=LevelConfig(4096, 4, 64, 9),
        l3=LevelConfig(16384, 8, 64, 36),
        dram_latency=200,
        mshr=4,
    )
    base.update(kw)
    return CacheConfig(**base)


def test_cold_access_latency():
    mem = MemorySystem()
    res = mem.access(0x1000, "load", MT, 0)
    assert res.hit_level == "DRAM"
    assert res.latency == 3 + 9 + 36 + 200


def test_immediate_repeat_hits_l1():
    mem = MemorySystem()
    mem.access(0x1000, "load", MT, now=0)
    mem.drain(10_000)
    res = mem.access(0x1000, "load", MT, now=10_000)
    assert res.hit_level == "L1"
    assert res.latency == 3


def test_distinct_lines_count_traffic():
    mem = MemorySystem()
    for i in range(1000):
        mem.access(i * 64, "load", MT, now=i * 300)
    assert mem.l1[MT].misses == 1000
    assert mem.traffic_lines == 1000


def test_private_l1_per_thread():
    mem = MemorySystem()
    mem.access(0x1000, "load", MT, 0)
    mem.drain(1000)
    res = mem.access(0x1000, "load", LT, 1000)
    # LT missed its private L1/L2 but the shared L3 has the line
    assert res.hit_level == "L3"


def test_lru_eviction_in_set():
    cfg = small_config()
    mem = MemorySystem(cfg)
    n_sets = 1024 // (64 * 2)
    way = n_sets * 64
    # 3 lines into a 2-way set: first one gets evicted
    for k in range(3):
        mem.access(k * way, "load", MT, now=k * 1000)
    mem.drain(100_000)
    res = mem.access(0, "load", MT, now=100_000)
    assert res.hit_level != "L1"


def test_prefetch_then_demand_is_useful():
    mem = MemorySystem()
    mem.access(0x2000, "prefetch", MT, now=0)
    mem.drain(1000)
    res = mem.access(0x2000, "load", MT, now=1000)
    assert res.hit_level == "L1"
    assert mem.pf_stats.prefetch_useful == 1


def test_prefetch_marks_clear_on_eviction_and_on_demand_hit():
    """Each level keeps one set of the line addresses a prefetch filled."""
    mem = MemorySystem(small_config())
    levels = (mem.l1[MT], mem.l2[MT], mem.l3)
    mem.access(0x8000, "prefetch", MT, now=0)
    mem.drain(1000)
    assert all(c.pref_lines == {0x8000 // 64} for c in levels)
    # eight demand lines in the same set at every level (a multiple of the
    # L3's 32 sets apart) evict the prefetched line from all three
    for k in range(1, 9):
        mem.access(0x8000 + k * 32 * 64, "load", MT, now=1000 * k)
        mem.drain(1000 * k + 500)
    assert not any(c.pref_lines for c in levels)
    # the demand miss that brings the line back counts no prefetch
    res = mem.access(0x8000, "load", MT, now=20_000)
    assert res.hit_level == "DRAM"
    assert mem.pf_stats.prefetch_useful == 0

    mem.access(0x9000, "prefetch", MT, now=30_000)
    mem.drain(31_000)
    res = mem.access(0x9000, "load", MT, now=31_000)
    assert res.hit_level == "L1"
    assert mem.pf_stats.prefetch_useful == 1
    assert 0x9000 // 64 not in mem.l1[MT].pref_lines
    # the hit cleared the mark: the next hit is not counted again
    res = mem.access(0x9000, "load", MT, now=31_001)
    assert res.hit_level == "L1"
    assert mem.pf_stats.prefetch_useful == 1


def test_useless_prefetches():
    mem = MemorySystem()
    for i in range(10):
        mem.access(0x100000 + i * 64, "prefetch", MT, now=i)
    assert mem.pf_stats.prefetch_issued == 10
    assert mem.pf_stats.prefetch_useful == 0
    assert mem.traffic_lines == 10


def test_demand_merges_with_inflight_prefetch():
    mem = MemorySystem()
    mem.access(0x3000, "prefetch", MT, now=0)       # fill lands at 248
    res = mem.access(0x3000, "load", MT, now=100)
    assert res.merged
    assert res.latency == 248 - 100
    assert mem.pf_stats.prefetch_late == 1


def test_l1_hits_do_not_occupy_mshrs():
    mem = MemorySystem(small_config(mshr=2))
    mem.access(0x4000, "load", MT, now=0)
    mem.drain(10_000)
    for _ in range(10):
        mem.access(0x4000, "load", MT, now=10_000)
    assert len(mem.in_flight) == 0


def test_prefetch_dropped_when_mshrs_full():
    mem = MemorySystem(small_config(mshr=2))
    mem.access(0x5000, "prefetch", MT, now=0)
    mem.access(0x6000, "prefetch", MT, now=0)
    before = mem.traffic_lines
    res = mem.access(0x7000, "prefetch", MT, now=0)
    assert res.latency == 0
    assert mem.traffic_lines == before      # dropped: no fill happened
    assert mem.pf_stats.prefetch_issued == 2


def test_negative_address_rejected():
    with pytest.raises(MemError):
        MemorySystem().access(-64, "load", MT, 0)


def test_config_validation():
    with pytest.raises(MemError, match="line sizes"):
        CacheConfig(l1=LevelConfig(1024, 2, 32, 3))
    with pytest.raises(MemError, match="power-of-two"):
        CacheConfig(l1=LevelConfig(1024 + 64, 2, 64, 3))


@pytest.mark.parametrize("kwargs, field", [
    ({"size": 0}, "size"), ({"size": -4096}, "size"), ({"assoc": 0}, "assoc"),
    ({"line": 0}, "line"), ({"hit_latency": -5}, "hit_latency")])
def test_level_config_names_a_bad_field(kwargs, field):
    # size=0 passed the power-of-two check (0 sets) and failed at the first
    # access; assoc=0 and line=0 divided by zero
    with pytest.raises(MemError, match=f"^{field}: must be >= "):
        LevelConfig(**{"size": 4096, "assoc": 4, "line": 64, "hit_latency": 3,
                       **kwargs})


@pytest.mark.parametrize("field", ["dram_latency", "mshr"])
def test_cache_config_names_a_bad_field(field):
    with pytest.raises(MemError, match=f"^{field}: must be >= 0, got -1$"):
        CacheConfig(**{field: -1})
    CacheConfig(**{field: 0})       # zero latency or no MSHRs is legal


def test_config_from_dict():
    cfg = CacheConfig.from_dict({"dram_latency": 123, "mshr": 7,
                                 "l1": {"size": 2048, "assoc": 2,
                                        "line": 64, "hit_latency": 2}})
    assert cfg.dram_latency == 123
    assert cfg.mshr == 7
    assert cfg.l1.hit_latency == 2


@pytest.mark.parametrize("level, fields, error", [
    ("l2", {"line": 0}, r"l2\.line: must be >= 1, got 0"),
    ("l3", {"size": 1000}, r"l3\.size: must be a power-of-two multiple"),
    ("l1", {"bogus": 1}, r"l1\.bogus: unknown field"),
])
def test_config_from_dict_names_the_level(level, fields, error):
    d = {"size": 4096, "assoc": 4, "line": 64, "hit_latency": 3, **fields}
    with pytest.raises(MemError, match=f"^{error}"):
        CacheConfig.from_dict({level: d})


def test_stats_shape():
    mem = MemorySystem()
    mem.access(0, "load", MT, 0)
    st = mem.stats(instructions=1000)
    assert st["L1.MT"]["misses"] == 1
    assert st["L1.MT"]["mpki"] == 1.0
    assert "traffic_lines" in st


# (cycles since the previous op, line, kind, thread); a kind "drain" or
# "earliest" calls that method instead of making an access
_ops = st.lists(st.tuples(st.sampled_from((0, 1, 4, 16, 64, 256)),
                          st.integers(0, 5),
                          st.sampled_from(("load", "store", "prefetch",
                                           "drain", "earliest")),
                          st.sampled_from((MT, LT))),
                max_size=80)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 2, 4, 32)), _ops)
# line 0 leaves L1, its fill retires inside access and it is filled again
# from L2; the drain must keep the new fill despite the old heap entry
@example(32, [(0, 0, "load", MT), (1, 1, "load", MT), (1, 2, "load", MT),
              (298, 0, "load", MT), (5, 0, "drain", MT)])
def test_drain_and_earliest_ready_follow_in_flight(mshr, ops):
    # lines 512 bytes apart share one L1 set, so a line can leave L1 and be
    # filled again while the heap still holds its earlier fill
    mem = MemorySystem(small_config(mshr=mshr))
    now = 0
    for dt, line, kind, mode in ops:
        now += dt
        if kind == "drain":
            before = dict(mem.in_flight)
            mem.drain(now)
            assert mem.in_flight == {k: v for k, v in before.items()
                                     if v[0] > now}
        elif kind == "earliest":
            readies = [ready for ready, _ in mem.in_flight.values()]
            assert mem.earliest_ready() == (min(readies) if readies else None)
        else:
            mem.access(line * 512, kind, mode, now)


@st.composite
def serial_walks(draw):
    """(config, ops): a hierarchy in which each level has as many or twice
    as many sets as the one above it and up to two ways more, and accesses
    to twice as many lines as L3 holds, so that they hit, miss and evict at
    every level.  An op is (line or negative address, offset in the line,
    kind, time)."""
    line = draw(st.sampled_from((16, 64)))
    sets, ways = draw(st.sampled_from((1, 2))), draw(st.integers(1, 2))
    levels = []
    for _ in range(3):
        levels.append(LevelConfig(sets * ways * line, ways, line,
                                  draw(st.integers(0, 40))))
        sets *= draw(st.sampled_from((1, 2)))
        ways += draw(st.integers(0, 2))
    cfg = CacheConfig(*levels, dram_latency=draw(st.integers(0, 300)),
                      mshr=draw(st.integers(0, 32)))
    n_lines = 2 * levels[2].size // line
    ops = draw(st.lists(st.tuples(st.integers(-2, n_lines - 1),
                                  st.integers(0, 15),
                                  st.sampled_from(("load", "store")),
                                  st.integers(0, 10**6)),
                        min_size=60, max_size=150))
    return cfg, ops


_ONE_WAY = LevelConfig(64, 1, 64, 3)


@settings(max_examples=100, deadline=None)
@given(serial_walks())
# one line per level above a two-way L3: line 0 hits L3 and must become its
# most recently used line, so line 2 evicts line 1 and line 0 hits L3 again
@example((CacheConfig(_ONE_WAY, _ONE_WAY, LevelConfig(128, 2, 64, 36)),
          [(0, 0, "load", 0), (1, 0, "load", 0), (0, 0, "load", 0),
           (2, 0, "load", 0), (0, 0, "load", 0)]))
def test_serial_walk_matches_memory_system_without_mshrs(walk):
    """``serial_walk`` gives the (latency, hit level) of the MT demand path
    of ``MemorySystem`` with ``mshr=0`` on every access, whatever its kind
    and time, and the same error on a negative address."""
    cfg, ops = walk
    mem = MemorySystem(replace(cfg, mshr=0))
    access = serial_walk(cfg)
    for line, offset, kind, now in ops:
        addr = line * cfg.l1.line + offset if line >= 0 else line
        try:
            want = mem.access(addr, kind, MT, now)[:2]
        except MemError as e:
            with pytest.raises(MemError) as got:
                access(addr)
            assert str(got.value) == str(e)
        else:
            assert access(addr) == want
