"""Strided-prefetch FSM tests: state walk, distance math, cursor, LRU."""

from r3dla import t1
from r3dla.t1 import (T1Table, LatencyEstimator, BURST_CAP,
                      TRANSIENT1, TRANSIENT2, STEADY)


def test_first_touch_never_prefetches():
    t = T1Table()
    assert t.observe(pc=10, eff_addr=1000, cycle=0,
                     mem_latency_estimate=200) == []
    assert t.entries[10].state == TRANSIENT1


def test_second_instance_computes_stride_and_bursts():
    t = T1Table()
    t.observe(10, 1000, 0, 200)
    out = t.observe(10, 1064, 50, 200)
    e = t.entries[10]
    assert e.stride == 64
    assert e.state == TRANSIENT2
    assert out == [1128, 1192]          # degree-2 immediately on first stride
    assert e.next_prefetch == 1256


def test_steady_distance_formula():
    # mem latency 200cy over 50cy iterations -> n = 4
    t = T1Table()
    t.observe(10, 1000, 0, 200)
    t.observe(10, 1064, 50, 200)
    out = t.observe(10, 1128, 100, 200)
    e = t.entries[10]
    assert e.state == STEADY
    assert e.distance == 4
    assert out[-1] == 1128 + 4 * 64     # catch-up ends exactly at A + n*delta


def test_steady_emits_exactly_a_plus_n_delta():
    t = T1Table()
    cyc = 0
    for k in range(3):
        t.observe(10, 1000 + 64 * k, cyc, 200)
        cyc += 50
    # from here on the cursor is caught up: one address per instance
    for k in range(3, 10):
        a = 1000 + 64 * k
        out = t.observe(10, a, cyc, 200)
        cyc += 50
        assert out == [a + 4 * 64]


def test_stride_mismatch_falls_back():
    t = T1Table()
    t.observe(10, 1000, 0, 200)
    t.observe(10, 1064, 50, 200)
    out = t.observe(10, 5000, 100, 200)     # broken stride
    assert out == []
    e = t.entries[10]
    assert e.state == TRANSIENT1
    assert e.stride is None


def test_zero_delta_is_not_a_stride():
    t = T1Table()
    t.observe(10, 1000, 0, 200)
    out = t.observe(10, 1000, 50, 200)
    assert out == []
    assert t.entries[10].state == TRANSIENT1


def test_burst_cap():
    t = T1Table()
    t.observe(10, 0, 0, 10_000)
    t.observe(10, 64, 1, 10_000)
    out = t.observe(10, 128, 2, 10_000)     # huge latency -> huge distance
    assert len(out) <= BURST_CAP


def test_cursor_never_reissues_covered_lines():
    t = T1Table()
    cyc = 0
    seen = []
    for k in range(12):
        seen += t.observe(10, 1000 + 64 * k, cyc, 200)
        cyc += 50
    assert len(seen) == len(set(seen))


def test_loop_end_clears_owned_entries():
    t = T1Table()
    t.observe(10, 1000, 0, 200, loop_pc=77)
    t.observe(11, 2000, 0, 200, loop_pc=88)
    t.loop_end(77)
    assert 10 not in t.entries
    assert 11 in t.entries
    # re-touch starts over from scratch (first touch, no prefetch)
    assert t.observe(10, 9000, 100, 200, loop_pc=77) == []


def test_lru_eviction_at_capacity(monkeypatch):
    monkeypatch.setattr(t1, "TABLE_CAPACITY", 4)
    t = T1Table()
    for pc in range(4):
        t.observe(pc, 1000 * pc, pc, 200)
    t.observe(0, 1064, 10, 200)             # refresh pc 0
    t.observe(99, 5000, 11, 200)            # evicts the stalest (pc 1)
    assert 0 in t.entries and 99 in t.entries
    assert 1 not in t.entries
    assert len(t.entries) == 4


def test_stats_counters():
    t = T1Table()
    t.observe(10, 1000, 0, 200)
    t.observe(10, 1064, 50, 200)
    t.observe(10, 1128, 100, 200)
    st = t.stats()
    assert st["live_entries"] == 1
    assert st["prefetches_issued"] >= 2
    assert st["steady_prefetches"] >= 1


def test_latency_estimator_smoothing(monkeypatch):
    monkeypatch.setattr(t1, "LATENCY_ALPHA", 0.5)
    monkeypatch.setattr(t1, "LATENCY_MARGIN", 1.0)
    est = LatencyEstimator(default=100.0)
    assert est.get(5) == 100.0
    est.note_miss(5, 200)
    assert est.get(5) == 200.0
    est.note_miss(5, 100)
    assert est.get(5) == 150.0


def test_latency_estimator_margin():
    assert t1.LATENCY_MARGIN == 1.25
    est = LatencyEstimator(default=100.0)
    est.note_miss(5, 200)
    assert est.get(5) == 250.0
