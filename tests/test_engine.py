"""Timing engine tests: pipeline bounds, the correctness firewall, reboots."""

import contextlib
import dataclasses
import gc
import hashlib
import json
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from r3dla import cli, uisa, skeleton, engine, vreuse
from r3dla.engine import CoreParams, DlaParams, Features, Engine, EngineError
from r3dla.memsys import CacheConfig, LevelConfig, MemError
from r3dla.skeleton import SkeletonMask, SkeletonSet

from random_programs import random_program
from reference import (corrupt_predictions, log_commits, reference_trace,
                       run_counting_t1_loads)


def full_skeleton(prog):
    """All six versions contain the whole program (perfect look-ahead)."""
    bits = frozenset(range(len(prog.instrs)))
    return SkeletonSet(versions=[SkeletonMask(bits)] * 6,
                       s_bits=frozenset())


def dla_commit_trace(prog, skel, corrupt=None, **kw):
    """The commit log of a DLA run; ``corrupt`` is (rate, seed) of injected
    value-prediction faults."""
    eng = Engine(prog, skel=skel, **kw)
    if corrupt is not None:
        corrupt_predictions(eng, *corrupt)
    log = log_commits(eng)
    eng.run()
    return log


# -- baseline timing ---------------------------------------------------------

def test_dependent_mul_chain_serializes():
    # every MUL reads its predecessor: IPC ~ 1/3 (3-cycle MUL latency)
    body = "\n".join("MUL r1, r1, r2" for _ in range(400))
    prog = uisa.parse_program(f"ADDI r1, r0, 1\nADDI r2, r0, 1\n{body}\nHALT\n")
    st = Engine(prog).run()
    assert st.ipc == pytest.approx(1 / 3, rel=0.1)


def test_independent_alu_stream_hits_width():
    lines = [f"ADDI r{1 + (k % 8)}, r0, {k}" for k in range(2000)]
    prog = uisa.parse_program("\n".join(lines) + "\nHALT\n")
    st = Engine(prog).run()
    assert st.ipc == pytest.approx(4.0, rel=0.1)


def test_baseline_commit_log_matches_interpreter():
    prog = uisa.gen_branchy(iters=500, streams=2)
    eng = Engine(prog)
    log = log_commits(eng)
    eng.run()
    assert log == reference_trace(prog, 10 ** 6)


def test_limit_marks_partial():
    prog = uisa.gen_strided_loop(iters=10_000)
    st = Engine(prog, limit=1000).run()
    assert st.partial
    assert st.instructions == 1000


def test_fetch_buffer_feature_off_degenerates():
    prog = uisa.gen_branchy(iters=200)
    skel = skeleton.build(prog)
    eng = Engine(prog, skel=skel, features=Features(fetch_buffer=False))
    assert eng.mt.fb_cap == eng.params.decode_width


def test_ideal_modes_record_histograms():
    prog = uisa.gen_strided_loop(iters=2000)
    st_d = Engine(prog, mode="ideal_fetch").run()
    st_s = Engine(prog, mode="ideal_backend").run()
    assert sum(st_d.demand_hist.values()) == st_d.cycles
    assert sum(st_s.supply_hist.values()) == st_s.cycles
    assert max(st_s.supply_hist) <= 4       # bounded by fetch width


def test_ideal_mode_rejected_with_dla():
    prog = uisa.gen_strided_loop(iters=100)
    with pytest.raises(EngineError, match="baseline-only"):
        Engine(prog, skel=full_skeleton(prog), mode="ideal_fetch")


def test_unknown_mode_rejected():
    prog = uisa.gen_strided_loop(iters=10)
    with pytest.raises(EngineError):
        Engine(prog, mode="bogus")


@pytest.mark.parametrize("cls, kwargs, field", [
    # window_size=0 and boq_capacity=0 ran into the progress watchdog, a
    # bool ran as width 1, and a string switched T1 on
    (CoreParams, {"window_size": 0}, "window_size"),
    (CoreParams, {"commit_width": True}, "commit_width"),
    (DlaParams, {"boq_capacity": 0}, "boq_capacity"),
    (Features, {"t1": "no"}, "t1"),
    (Features, {"recycle": "bogus"}, "recycle"),
    (Features, {"static_versions": {7: 9}}, "static_versions.7"),
])
def test_config_dataclass_names_a_bad_field(cls, kwargs, field):
    with pytest.raises(EngineError, match=f"^{field}: "):
        cls(**kwargs)


def test_engine_refuses_a_bad_core_before_cycle_1():
    prog = uisa.gen_strided_loop(iters=10)
    with pytest.raises(EngineError, match="^window_size: must be >= 1, got 0$"):
        Engine(prog, params=CoreParams(window_size=0))
    # a checked config stays checked
    with pytest.raises(dataclasses.FrozenInstanceError):
        CoreParams().window_size = 0


@pytest.mark.parametrize("name, value, message", [
    ("limit", 0, "must be >= 1, got 0"),
    ("limit", -5, "must be >= 1, got -5"),
    ("limit", True, "must be an integer, got True"),
    ("limit", None, "must be an integer, got None"),
    ("max_cycles", 0, "must be >= 1, got 0"),
])
def test_engine_checks_limit_and_max_cycles(name, value, message):
    prog = uisa.gen_branchy(iters=20)
    with pytest.raises(EngineError, match=f"^{name}: {message}$"):
        Engine(prog, **{name: value})


CONFIG_CLASSES = (CoreParams, DlaParams, Features, LevelConfig, CacheConfig)


@pytest.mark.parametrize("cls, field", [
    (cls, f.name) for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)],
    ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_every_config_field_has_a_rule(cls, field):
    """A string in any field of a config dataclass is refused and the error
    names the field, so a field added without a rule fails here."""
    valid = ({"size": 4096, "assoc": 4, "line": 64, "hit_latency": 3}
             if cls is LevelConfig else {})
    error = MemError if cls in (LevelConfig, CacheConfig) else EngineError
    with pytest.raises(error, match=f"^{field}: "):
        cls(**{**valid, field: "1"})


# -- decoupled runs -----------------------------------------------------------

def test_perfect_lt_no_boq_mispredicts():
    prog = uisa.gen_branchy(iters=2000, streams=2)
    st = Engine(prog, skel=full_skeleton(prog)).run()
    assert st.boq_mispredicts == 0
    assert st.reboots == 0
    assert st.boq_consumed == st.branches


def test_dla_firewall_basic():
    prog = uisa.gen_branchy(iters=1000, streams=3)
    skel = skeleton.build(prog)
    ref = reference_trace(prog, 10 ** 6)
    for version in range(6):
        assert dla_commit_trace(prog, skel, version=version) == ref


def test_dla_firewall_all_features():
    prog = uisa.gen_mixed_phases(phase_iters=300, outer=3)
    skel = skeleton.build(prog)
    ref = reference_trace(prog, 10 ** 6)
    feats = Features(t1=True, value_reuse=True, recycle="dynamic")
    assert dla_commit_trace(prog, skel, features=feats) == ref


def test_dla_firewall_with_corruption():
    # injected wrong value predictions must never leak into committed state
    prog = uisa.gen_pointer_chase(length=200, rounds=3, payload=1)
    skel = skeleton.build(prog)
    ref = reference_trace(prog, 10 ** 6)
    feats = Features(value_reuse=True)
    got = dla_commit_trace(prog, skel, features=feats, version=2,
                           corrupt=(0.5, 7))
    assert got == ref


def test_biased_branch_divergence_reboots():
    # version 4 converts the heavily biased loop branch; its one divergence
    # (loop exit) must be caught by the BOQ compare and trigger a reboot
    prog = uisa.gen_mixed_phases(phase_iters=1500, outer=2)
    skel = skeleton.build(prog)
    conv = skel.versions[4].converted_branches
    if not conv:
        pytest.skip("no branch crossed the bias threshold")
    ref = reference_trace(prog, 10 ** 6)
    eng = Engine(prog, skel=skel, version=4)
    log = log_commits(eng)
    st = eng.run()
    assert log == ref
    assert st.boq_mispredicts > 0
    assert st.reboots > 0


def test_boq_depth_law_raises():
    # a real check, not an assert: it holds under python -O too.  The cycle
    # loop checks it on every cycle; this run would walk, so it is forced
    prog = uisa.gen_branchy(iters=300)
    eng = Engine(prog, skel=skeleton.build(prog))
    eng._walk_in_order = lambda: None
    eng.boq_pushed += 1         # a push the queue never saw
    with pytest.raises(EngineError, match="depth accounting broke at cycle 1"):
        eng.run()


class EarlyPops:
    """A view of the BOQ pop cycles that the DLA walk's look-ahead thread
    awaits, which hands each one out a cycle early: the thread commits a
    branch into a slot in the cycle the main thread frees it, not after."""

    def __init__(self, freed):
        self.freed = freed

    def __len__(self):
        return len(self.freed)

    def popleft(self):
        return self.freed.popleft() - 1


def test_boq_depth_law_raises_in_the_dla_walk(monkeypatch):
    # the walk checks the law from its push and pop cycles, not by an
    # assert: a look-ahead walk that breaks the capacity rule overfills it
    prog = uisa.gen_strided_loop(iters=500)
    eng = Engine(prog, skel=skeleton.build(prog), dla=DlaParams(boq_capacity=8))
    walk = Engine._lookahead_walk
    monkeypatch.setattr(Engine, "_lookahead_walk",
                        lambda self, freed, end: walk(self, EarlyPops(freed), end))
    with pytest.raises(EngineError, match=r"depth law broke at cycle \d+: "
                                          r"9 entries pushed, capacity 8"):
        eng.run()


def test_lookahead_stream_hands_out_records_in_order():
    # a real check, not an assert: the stream keeps no record to hand out twice
    prog = uisa.gen_branchy(iters=20)
    skel = skeleton.build(prog)
    stream = engine.LookaheadStream(prog, skel, 0, uisa.ArchState.initial(prog),
                                    engine._RunTable(len(prog.instrs)))
    assert stream.get(0) is not None
    assert stream.get(1) is not None
    with pytest.raises(EngineError, match=r"record 1, but its next record is 2"):
        stream.get(1)
    with pytest.raises(EngineError, match=r"record 5, but its next record is 2"):
        stream.get(5)
    idx = 2
    while stream.get(idx) is not None:
        idx += 1
    assert stream.done and stream.next == idx
    assert stream.get(idx) is None          # asking again at the end is in order


def test_reboot_flushes_queues():
    prog = uisa.gen_branchy(iters=300)
    skel = skeleton.build(prog)
    eng = Engine(prog, skel=skel)
    eng.boq.append(engine.BoqEntry(0, True))
    eng.boq_pushed += 1
    eng.fq.append(("prefetch", 0x1000))
    eng._reboot(100, "guard")
    assert len(eng.boq) == 0
    assert len(eng.fq) == 0
    assert eng.boq_pushed == eng.boq_popped == 0
    assert eng.stats.reboot_reasons == {"guard": 1}


def test_refetched_boq_mispredicted_branch_waits_for_resolution():
    # a replay can re-fetch a branch whose BOQ entry was already consumed and
    # mispredicted: it waits again without a second BOQ pop, and its dispatch
    # still reboots the look-ahead thread
    prog = uisa.gen_branchy(iters=20, streams=2)
    eng = Engine(prog, skel=skeleton.build(prog))
    mt = eng.mt
    mt.engine = eng
    br = next(i for i, ins in enumerate(prog.instrs) if ins.opcode == "BR_COND")
    assert br == 7
    for idx in range(br):
        eng.mt_stream.get(idx)
    mt.fetch_idx = mt.boq_done_idx = br
    mt.boq_mispredicted = {br}
    mt.fetch(1)
    assert mt.wait_resolution == br
    assert [idx for idx, _ in mt.fetch_buffer] == [br]
    assert eng.boq_popped == eng.stats.boq_consumed == 0
    mt.dispatch(2)
    assert mt.wait_resolution is None and mt.boq_mispredicted == set()
    assert [reason for _, reason in eng.pending_reboots] == ["boq_mispredict"]


def test_value_replay_clears_a_younger_wait_resolution():
    # a wrong value prediction squashes everything younger, a branch waiting
    # for resolution included, and refetches after the predicted instruction
    prog = uisa.gen_branchy(iters=20, streams=2)
    eng = Engine(prog, skel=skeleton.build(prog),
                 features=Features(value_reuse=True))
    mt = eng.mt
    rec = eng.mt_stream.get(0)
    ins = rec[0]
    eng.predictions[0] = (ins.index, ins.dst, rec[2] + 1)
    mt.fetch_buffer.extend([(0, rec), (1, eng.mt_stream.get(1))])
    mt.wait_resolution = 5
    _, _, squashed = eng.on_mt_dispatch(mt, 0, ins, rec, complete=2, now=1)
    assert squashed
    assert not mt.fetch_buffer and mt.wait_resolution is None
    assert mt.fetch_idx == 1
    assert eng.vru.counters.mispredicted == 1


def test_boq_capacity_backpressures_lt():
    prog = uisa.gen_strided_loop(iters=5000)
    skel = skeleton.build(prog)
    st = Engine(prog, skel=skel, dla=DlaParams(boq_capacity=8)).run()
    assert max(i for i, c in enumerate(st.boq_occupancy) if c) <= 8


def test_stats_to_dict_schema():
    prog = uisa.gen_strided_loop(iters=500)
    st = Engine(prog, skel=skeleton.build(prog), features=Features(t1=True)).run()
    d = st.to_dict()
    # the exact key set, so that a report field added or dropped is named here
    assert set(d) == {
        "cycles", "instructions", "ipc", "partial", "fetch_bubbles",
        "branches", "mispredicts", "boq_consumed", "boq_empty_stalls",
        "boq_mispredicts", "reboots", "reboot_reasons", "version_swaps",
        "lt_committed", "lt_walked", "footnotes", "fq_drops", "vreuse", "t1",
        "mem", "boq_occupancy", "fb_occupancy", "demand_hist", "supply_hist",
        "recycle", "config"}
    assert d["instructions"] == 5 * 500 + 2


def test_t1_prefetches_improve_hit_rate():
    prog = uisa.gen_strided_loop(stride=64, iters=4000)
    skel = skeleton.build(prog)
    load_pc = next(iter(skel.s_bits))
    st, counts = run_counting_t1_loads(
        Engine(prog, skel=skel, features=Features(t1=True)), warmup=500)
    warm = counts[load_pc]
    assert warm["l1_hits_warm"] / warm["instances_warm"] > 0.5
    assert st.mem["prefetch_useful"] > 0


def test_value_reuse_produces_confirmations():
    prog = uisa.gen_pointer_chase(length=300, rounds=4, payload=1, filler=24)
    skel = skeleton.build(prog)
    st = Engine(prog, skel=skel, version=2, features=Features(value_reuse=True)).run()
    assert st.vreuse["emitted"] > 0
    assert st.vreuse["confirmed"] == st.vreuse["emitted"]
    assert st.vreuse["skipped"] > 0         # scoreboard rule fires
    assert st.vreuse["mispredicted"] == 0   # LT values are exact here


def test_value_reuse_trains_in_the_first_iterations_only():
    # the engine alone tests the training window: the innermost loop's
    # iterations 1..TRAIN_ITERATIONS, counted as the loop tracker counts them
    prog = uisa.gen_pointer_chase(length=300, rounds=4, payload=1, filler=24)
    eng = Engine(prog, skel=skeleton.build(prog),
                 features=Features(value_reuse=True))
    tracker = eng.tracker
    trained_at = []
    peak = 0
    train, observe = eng.vru.train, tracker.observe

    def spy_train(pc, latency):
        trained_at.append(tracker.iterations.get(tracker.current))
        train(pc, latency)

    def spy_observe(*args):
        nonlocal peak
        events = observe(*args)
        peak = max(peak, *tracker.iterations.values(), 0)
        return events

    eng.vru.train, tracker.observe = spy_train, spy_observe
    eng.run()
    assert set(trained_at) == set(range(1, vreuse.TRAIN_ITERATIONS + 1))
    assert peak > vreuse.TRAIN_ITERATIONS       # the loop ran past the window


def test_recycle_dynamic_converges_in_engine():
    prog = uisa.gen_mixed_phases(phase_iters=3000, outer=8)
    skel = skeleton.build(prog)
    st = Engine(prog, skel=skel, features=Features(recycle="dynamic")).run()
    assert st.recycle["chosen"]
    assert all(n >= 10_000 for _, _, _, n in st.recycle["measurements"])


# -- idle-cycle skipping vs a per-cycle oracle ----------------------------------

def step_every_cycle(self, cycle, last_commit_cycle):
    return cycle + 1


def engine_factory(prog, baseline=False, skel=None, corrupt=None,
                   cycle_loop=False, **kw):
    """A fresh Engine per call, for a DLA run unless ``baseline``; a DLA run
    builds its skeleton once if not given.  ``corrupt`` is (rate, seed) of
    injected value-prediction faults.
    ``cycle_loop`` makes a run's walk in program order (a baseline run's,
    or a DLA run's with recycling off) hand the run back at once, so that
    the cycle loop runs it."""
    if not baseline and skel is None:
        skel = skeleton.build(prog, cache_config=kw.get("cache_config"))

    def make():
        eng = Engine(prog, skel=skel, **kw)
        if corrupt is not None:
            corrupt_predictions(eng, *corrupt)
        if cycle_loop:
            eng._walk_in_order = lambda: None
        return eng
    return make


def chase():
    return uisa.gen_pointer_chase(length=200, rounds=3, payload=1, filler=24)


def exit_resolves_under_a_miss():
    # version 4 converts the loop branch; its exit mispredicts against the
    # BOQ and resolves a few cycles after dispatch, while a DRAM miss holds
    # the window head and a full BOQ holds the LT: the reboot falls due alone
    return uisa.parse_program("""
        ADDI r1, r0, 65536
        ADDI r2, r0, 1200
        ADDI r10, r0, 8192
    loop:
        LOAD r3, 0(r1)
        ADDI r1, r1, 4096
        LOAD r5, 0(r10)
        MUL  r5, r5, r5
        MUL  r5, r5, r5
        ADD  r2, r2, r5
        ADDI r2, r2, -1
        BNEZ r2, loop
        HALT
    """)


def lt_stuck_on_stale_memory():
    # the store is outside the skeleton (an L1 hit with another base and
    # offset than the load), so the LT loads 0 and faults on -16: it is stuck,
    # drains, and the starved MT triggers a guard reboot
    return uisa.parse_program("""
        ADDI r1, r0, 4096
        ADDI r2, r0, 8192
        ADDI r3, r0, 4088
        LOAD r9, 0(r1)
        STORE r2, 0(r1)
        LOAD r4, 8(r3)
        BNEZ r9, done
        LOAD r5, -16(r4)
        BNEZ r5, done
        ADDI r6, r0, 1
    done:
        HALT
    """)


# each config reaches one wake-up or credit path; ``reached`` checks it did.
# A run that the walk in program order would take is forced to the loop.
SKIP_CASES = {
    "chase-baseline": (     # the cycle loop, which the walk in order skips
        lambda: engine_factory(chase(), baseline=True, cycle_loop=True),
        lambda d: d["fetch_bubbles"] > 0),
    "chase-dla-t1-reuse": (
        lambda: engine_factory(chase(), features=Features(t1=True, value_reuse=True),
                               cycle_loop=True),
        lambda d: d["boq_empty_stalls"] > 0 and d["vreuse"]["confirmed"] > 0),
    "chase-full-skeleton": (   # the LT commits bursts wider than its width
        lambda: engine_factory(chase(), skel=full_skeleton(chase()),
                               cycle_loop=True),
        lambda d: d["boq_empty_stalls"] > 0),
    "stride-mshr4": (   # queued prefetches wait for an MSHR to free
        lambda: engine_factory(uisa.gen_strided_loop(stride=64, iters=2000),
                               cache_config=CacheConfig(mshr=4),
                               features=Features(t1=True), cycle_loop=True),
        lambda d: d["mem"]["prefetch_issued"] > 0),
    "chase-ideal_fetch": (   # only a full window stops an ideal front end
        lambda: engine_factory(chase(), baseline=True, mode="ideal_fetch"),
        lambda d: d["demand_hist"].get(0, 0) > 0),
    "branchy-ideal_backend": (
        lambda: engine_factory(uisa.gen_branchy(iters=500, streams=2),
                               baseline=True, mode="ideal_backend"),
        lambda d: d["supply_hist"].get(0, 0) > 0),
    "phases-dynamic-recycle": (
        lambda: engine_factory(uisa.gen_mixed_phases(phase_iters=1000, outer=3),
                               features=Features(t1=True, recycle="dynamic")),
        lambda d: d["reboot_reasons"].get("version_swap", 0) > 0),
    "phases-v4-boq-mispredict": (
        lambda: engine_factory(uisa.gen_mixed_phases(phase_iters=1500, outer=2),
                               version=4),
        lambda d: d["reboot_reasons"].get("boq_mispredict", 0) > 0),
    "reboot-due-while-idle": (
        lambda: engine_factory(exit_resolves_under_a_miss(), version=4),
        lambda d: d["reboot_reasons"] == {"boq_mispredict": 1}),
    "guard-reboot": (
        lambda: engine_factory(lt_stuck_on_stale_memory()),
        lambda d: d["reboot_reasons"] == {"guard": 1}),
    "stride-boq-capacity-8": (   # LT commit held back by a full BOQ
        lambda: engine_factory(uisa.gen_strided_loop(iters=2000),
                               dla=DlaParams(boq_capacity=8), cycle_loop=True),
        lambda d: d["boq_occupancy"][8] > 0),
    "chase-no-fetch-buffer": (
        lambda: engine_factory(chase(), features=Features(fetch_buffer=False),
                               cycle_loop=True),
        lambda d: len(d["fb_occupancy"]) == CoreParams().decode_width + 1),
    "chase-reuse-replays": (
        lambda: engine_factory(chase(), version=2,
                               features=Features(value_reuse=True),
                               corrupt=(0.05, 7)),
        lambda d: d["vreuse"]["mispredicted"] > 0),
}


@pytest.mark.parametrize("case", list(SKIP_CASES))
def test_idle_skip_matches_per_cycle_oracle(monkeypatch, case):
    make_factory, reached = SKIP_CASES[case]
    factory = make_factory()
    skipped = []
    wake_cycle = Engine._wake_cycle

    def counting_wake(self, cycle, last_commit_cycle):
        wake = wake_cycle(self, cycle, last_commit_cycle)
        skipped.append(wake - 1 - cycle)
        return wake

    def outcome():
        eng = factory()
        stats = eng.run().to_dict()
        # the per-core counters the skip writes besides RunStats
        cores = [c.boq_starved_at for c in (eng.mt, eng.lt) if c is not None]
        return stats, eng.mt.fetch_bubbles, cores

    monkeypatch.setattr(Engine, "_wake_cycle", counting_wake)
    fast = outcome()
    monkeypatch.setattr(Engine, "_wake_cycle", step_every_cycle)
    slow = outcome()
    assert sum(k for k in skipped if k > 0) > 0, "no cycle was skipped"
    assert reached(fast[0])
    assert fast == slow


# -- the walk in program order vs the cycle loop ---------------------------------

def run_outcome(make, walk=True):
    """``make()``'s run: ((RunStats dict, the MT's fetch bubbles, the commit
    log) or (the error message,), and whether the cycle loop ran.  A run
    the walk hands back starts over on its commit log cleared.  With
    ``walk`` false, ``Engine._walk_in_order`` hands every run back at once,
    so the cycle loop runs it."""
    looped = []
    simulate = Engine._simulate

    def recorded(self):
        looped.append(True)
        return simulate(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_simulate", recorded)
        if not walk:
            mp.setattr(Engine, "_walk_in_order", lambda self: None)
        eng = make()
        log = log_commits(eng)
        try:
            stats = eng.run().to_dict()
        except (EngineError, uisa.ExecError) as e:
            return (str(e),), bool(looped)
    return (stats, eng.mt.fetch_bubbles, log), bool(looped)


def calls_and_jumps():
    """A loop with a CALL, a RET and a JMP; no generator makes one."""
    return uisa.parse_program("""
        ADDI r1, r0, 40
        ADDI r2, r0, 4096
    loop:
        CALL sub
        ANDI r6, r1, 3
        BEQZ r6, skip
        JMP over
    skip:
        STORE r5, 8(r2)
    over:
        ADDI r1, r1, -1
        BNEZ r1, loop
        HALT
    sub:
        LOAD r7, 8(r2)
        ADD  r5, r7, r1
        RET
    """)


def negative_load():
    """The MT's sixth LOAD (seq 22) reads from address -16."""
    return uisa.parse_program("""
        ADDI r1, r0, 64
        ADDI r2, r0, 6
    loop:
        LOAD r3, 0(r1)
        ADDI r1, r1, -16
        ADDI r2, r2, -1
        BNEZ r2, loop
        HALT
    """)


def random_level(rng, max_assoc, max_sets_log2, hit_latency):
    assoc = rng.randrange(1, max_assoc + 1)
    sets = 2 ** rng.randrange(max_sets_log2)
    return LevelConfig(64 * assoc * sets, assoc, 64, rng.choice([0, 1, hit_latency]))


def random_run(rng):
    """A small run's program and Engine keywords: a random program or a
    generator's, with random widths, window, fetch buffer, penalties (zero
    included), caches (zero hit latencies, one MSHR included), ``limit``
    and ``max_cycles``."""
    s = rng.randrange(100)
    prog = rng.choice([
        lambda: random_program(rng, rng.randrange(10, 120)),
        lambda: uisa.gen_strided_loop(stride=rng.choice([8, 64, 4096]),
                                      iters=rng.randrange(1, 300), seed=s),
        lambda: uisa.gen_pointer_chase(length=rng.randrange(2, 100),
                                       rounds=rng.randrange(1, 3),
                                       payload=rng.randrange(3),
                                       filler=rng.randrange(8), seed=s),
        lambda: uisa.gen_branchy(iters=rng.randrange(1, 150),
                                 streams=rng.randrange(1, 4), seed=s),
        lambda: uisa.gen_mixed_phases(phase_iters=rng.randrange(1, 60),
                                      outer=rng.randrange(1, 3), seed=s),
        calls_and_jumps])()
    params = CoreParams(
        fetch_width=rng.randrange(1, 9), decode_width=rng.randrange(1, 9),
        commit_width=rng.randrange(1, 9),
        window_size=rng.choice([1, 2, rng.randrange(1, 193)]),
        fetch_buffer=rng.choice([1, rng.randrange(1, 33)]),
        mispredict_penalty=rng.choice([0, rng.randrange(30)]),
        btb_penalty=rng.choice([0, rng.randrange(6)]))
    cache = CacheConfig(l1=random_level(rng, 4, 4, 3),
                        l2=random_level(rng, 8, 6, 9),
                        l3=random_level(rng, 8, 8, 36),
                        dram_latency=rng.choice([0, rng.randrange(400)]),
                        mshr=rng.choice([1, rng.randrange(1, 33)]))
    kw = {}
    if rng.random() < 0.2:
        kw["limit"] = rng.randrange(1, 3000)
    if rng.random() < 0.1:
        kw["max_cycles"] = rng.randrange(1, 3000)
    return prog, {"params": params, "cache_config": cache, **kw}


def random_baseline(seed):
    prog, kw = random_run(random.Random(seed))
    return engine_factory(prog, baseline=True, **kw)


def memory_free(prog, skel):
    """``skel`` with every LOAD and STORE taken out of each version: the
    look-ahead thread touches no memory, so a DLA run with it walks."""
    mem = {ins.index for ins in prog.instrs if ins.is_mem}
    return SkeletonSet([SkeletonMask(m.bits - mem, m.converted_branches)
                        for m in skel.versions], skel.s_bits, skel.bias_dirs)


def random_dla_walk(seed):
    """A small DLA run whose look-ahead thread touches no memory: a
    ``random_run`` with its skeleton's LOADs and STOREs taken out, and a
    random BOQ capacity (1-64), T1, value reuse, fetch buffer feature,
    reboot time and version.  A look-ahead thread that needed a load runs
    on stale state, so some runs hand back at a BOQ mismatch."""
    rng = random.Random(seed)
    prog, kw = random_run(rng)
    skel = memory_free(prog, skeleton.build(prog, cache_config=kw["cache_config"]))
    features = Features(t1=rng.random() < 0.5, value_reuse=rng.random() < 0.5,
                        fetch_buffer=rng.random() < 0.8)
    dla = DlaParams(boq_capacity=rng.randrange(1, 65),
                    reboot_cycles=rng.randrange(80))
    return engine_factory(prog, skel=skel, features=features, dla=dla,
                          version=rng.randrange(6), **kw)


def random_lt_memory_walk(seed):
    """A small DLA run whose look-ahead thread keeps its skeleton's LOADs
    and STOREs: a ``random_run`` (one MSHR included) with a random BOQ
    capacity (1-64), footnote queue capacity (1-32), T1, value reuse,
    fetch buffer feature, reboot time and version."""
    rng = random.Random(seed)
    prog, kw = random_run(rng)
    skel = skeleton.build(prog, cache_config=kw["cache_config"])
    features = Features(t1=rng.random() < 0.5, value_reuse=rng.random() < 0.5,
                        fetch_buffer=rng.random() < 0.8)
    dla = DlaParams(boq_capacity=rng.randrange(1, 65),
                    fq_capacity=rng.randrange(1, 33),
                    reboot_cycles=rng.randrange(80))
    return engine_factory(prog, skel=skel, features=features, dla=dla,
                          version=rng.randrange(6), **kw)


# perfbench's baseline configs at seed 1
PERFBENCH_BASELINES = {
    "chase": lambda: uisa.gen_pointer_chase(length=1000, payload=1, filler=24,
                                            rounds=2, seed=1),
    "stride": lambda: uisa.gen_strided_loop(stride=8, iters=10000, seed=1),
    "phases": lambda: uisa.gen_mixed_phases(outer=8, phase_iters=2100, seed=1),
    "branchy": lambda: uisa.gen_branchy(iters=2000, streams=2, seed=1),
}


@pytest.mark.parametrize("case", list(PERFBENCH_BASELINES))
def test_walk_in_order_matches_the_cycle_loop(case):
    make = engine_factory(PERFBENCH_BASELINES[case](), baseline=True)
    walked, looped = run_outcome(make)
    assert not looped
    assert walked == run_outcome(make, walk=False)[0]


def test_walk_in_order_matches_the_cycle_loop_on_random_runs():
    started_over = 0
    for seed in range(300):
        make = random_baseline(seed)
        walked, looped = run_outcome(make)
        started_over += looped
        assert walked == run_outcome(make, walk=False)[0], seed
    assert 0 < started_over < 100       # a few pass max_cycles


# each run makes the walk start over; ``reached`` checks how the loop ended
START_OVER_CASES = {
    "max_cycles": (
        lambda: engine_factory(chase(), baseline=True, max_cycles=5000),
        lambda out: out[0]["partial"] and out[0]["cycles"] == 5000),
    "watchdog": (
        lambda: engine_factory(uisa.gen_pointer_chase(length=200, rounds=1),
                               baseline=True,
                               cache_config=CacheConfig(dram_latency=300_000)),
        lambda out: out[0].endswith("at cycle 200004")),
    "negative-load": (
        lambda: engine_factory(negative_load(), baseline=True),
        lambda out: out[0].endswith("seq 22: load from negative address -16")),
}


@pytest.mark.parametrize("case", list(START_OVER_CASES))
def test_walk_in_order_starts_over_where_the_cycle_loop_decides(case):
    make_factory, reached = START_OVER_CASES[case]
    make = make_factory()
    walked, looped = run_outcome(make)
    assert looped
    assert reached(walked)
    assert walked == run_outcome(make, walk=False)[0]


def identity_factory(name, **kw):
    """A DLA run of identity program ``name`` with its features, or with
    the keywords given instead."""
    prog, feats = identity_programs()[name]
    kw.setdefault("features", feats)
    return engine_factory(prog, **kw)


def strided_loop_entered_at_its_test():
    """An outer loop around a strided inner loop that is entered by a jump
    to its test, so T1 first sees the load after the inner loop's first
    backward branch.  With a 30-cycle DRAM, that branch's commit (which
    makes the inner loop the current one) often falls in the cycle the
    load dispatches; T1 must see it first, so the entry belongs to the
    inner loop and its exit clears it."""
    return uisa.parse_program("""
        ADDI r1, r0, 12
        ADDI r2, r0, 65536
    outer:
        ADDI r3, r0, 5
        JMP  check
    inner:
        ADDI r9, r9, 1
        ADDI r9, r9, 1
        ADDI r9, r9, 1
        LOAD r4, 0(r2)
        ADDI r2, r2, 64
    check:
        ADDI r3, r3, -1
        BNEZ r3, inner
        ADDI r1, r1, -1
        BNEZ r1, outer
        HALT
    """)


# DLA runs that walk: perfbench's stride and branchy configs at seed 1, whose
# look-ahead threads touch no memory, one where T1's order against a commit
# counts, and the chase identity configs, whose look-ahead thread loads
DLA_WALKS = {
    "stride": lambda: engine_factory(PERFBENCH_BASELINES["stride"](),
                                     features=Features(t1=True)),
    "branchy": lambda: engine_factory(PERFBENCH_BASELINES["branchy"](),
                                      features=Features(value_reuse=True)),
    "t1-after-same-cycle-commits": lambda: engine_factory(
        strided_loop_entered_at_its_test(),
        cache_config=CacheConfig(dram_latency=30), features=Features(t1=True)),
    **{f"chase-{name}": (lambda kw=kw: identity_factory("chase", **kw))
       for name, kw in (("t1-reuse", {}),
                        ("no-fetch-buffer", {"features": Features(
                            t1=True, value_reuse=True, fetch_buffer=False)}),
                        ("mshr4", {"cache_config": CacheConfig(mshr=4)}))},
}


@pytest.mark.parametrize("case", list(DLA_WALKS))
def test_dla_walk_matches_the_cycle_loop(case):
    make = DLA_WALKS[case]()
    walked, looped = run_outcome(make)
    assert not looped
    assert walked == run_outcome(make, walk=False)[0]


def test_dla_walk_matches_the_cycle_loop_on_random_runs():
    started_over = 0
    seen = dict.fromkeys(("prefetch_issued", "boq_full", "boq_empty_stalls",
                          "fq_drops"), 0)
    for seed in range(200):
        make = random_dla_walk(seed)
        walked, looped = run_outcome(make)
        started_over += looped
        assert walked == run_outcome(make, walk=False)[0], seed
        if not looped:
            d = walked[0]
            seen["prefetch_issued"] += d["mem"]["prefetch_issued"] > 0
            seen["boq_full"] += d["boq_occupancy"][-1] > 0
            seen["boq_empty_stalls"] += d["boq_empty_stalls"] > 0
            seen["fq_drops"] += d["fq_drops"] > 0
    assert 0 < started_over < 100
    assert all(seen.values()), seen


def test_dla_walk_with_lt_memory_matches_the_cycle_loop_on_random_runs():
    """The look-ahead thread's loads and stores meet the main thread's in
    the cache, its misses and values go down as footnotes, and both reach
    ``MemorySystem`` in the cycle loop's order."""
    started_over = 0
    seen = dict.fromkeys(("prefetch_footnotes", "reuse_footnotes",
                          "fq_drops", "prefetch_issued"), 0)
    for seed in range(300):
        make = random_lt_memory_walk(seed)
        walked, looped = run_outcome(make)
        started_over += looped
        assert walked == run_outcome(make, walk=False)[0], seed
        if not looped:
            d = walked[0]
            seen["prefetch_footnotes"] += d["footnotes"]["prefetch"] > 0
            seen["reuse_footnotes"] += d["footnotes"]["reuse"] > 0
            seen["fq_drops"] += d["fq_drops"] > 0
            seen["prefetch_issued"] += d["mem"]["prefetch_issued"] > 0
    assert 0 < started_over < 60
    assert all(seen.values()), seen


def slow_mul_chain():
    """A loop whose branch tests the end of a chain of MULs: the chain's
    last instructions wait 20 cycles and more between dispatch and
    completion, so value reuse's filter arms while it trains, and the
    skeleton, which holds the chain, has no LOAD or STORE.  The look-ahead
    thread commits the chain while the BOQ is empty, so its reuse
    footnotes are dropped."""
    return uisa.parse_program("""
        ADDI r1, r0, 60
        ADDI r7, r0, 1
    loop:
        ADDI r1, r1, -1
        MUL  r5, r1, r7
        MUL  r5, r5, r7
        MUL  r5, r5, r7
        MUL  r5, r5, r7
        MUL  r5, r5, r7
        MUL  r5, r5, r7
        MUL  r5, r5, r7
        MUL  r5, r5, r7
        BNEZ r5, loop
        HALT
    """)


def lt_ends_at_each_start():
    """A branchy DLA run whose look-ahead walk ends at once at the start of
    the run (also when the run starts over): the main thread starves at its
    first branch, and the guard reboot starts a walk that does not end."""
    make = engine_factory(uisa.gen_branchy(iters=200, streams=2))

    def made():
        eng = make()
        lookahead_stream = eng._lookahead_stream

        def ended(state):
            stream = lookahead_stream(state)
            stream.done = eng.stats.reboots == 0
            return stream
        eng._lookahead_stream = ended
        eng.lt_stream.done = True
        return eng
    return made


# each DLA run makes the walk start over; ``reached`` checks how the loop ended
DLA_START_OVER_CASES = {
    "boq-mismatch": (   # version 4 converts the loop branch; its exit mismatches
        lambda: engine_factory(exit_resolves_under_a_miss(), version=4),
        lambda out: out[0]["reboot_reasons"] == {"boq_mispredict": 1}),
    "lt-ends-first": (
        lt_ends_at_each_start,
        lambda out: out[0]["reboot_reasons"] == {"guard": 1}),
    "reuse-filter-arms": (
        lambda: engine_factory(slow_mul_chain(),
                               features=Features(value_reuse=True)),
        lambda out: out[0]["fq_drops"] > 0),    # reuse footnotes, no BOQ entry
    "max_cycles": (
        lambda: engine_factory(uisa.gen_branchy(iters=500, streams=2),
                               max_cycles=5000),
        lambda out: out[0]["partial"] and out[0]["cycles"] == 5000),
    "watchdog": (
        lambda: engine_factory(uisa.gen_strided_loop(stride=64, iters=50),
                               cache_config=CacheConfig(dram_latency=300_000)),
        lambda out: out[0].startswith("no commit progress")),
    "negative-load": (      # the profile faults too: all but the LOAD
        lambda: engine_factory(negative_load(), skel=memory_free(
            negative_load(), full_skeleton(negative_load()))),
        lambda out: out[0].endswith("seq 22: load from negative address -16")),
    "value-replay": (   # chase/dla/corrupt: a wrong prediction replays
        lambda: identity_factory("chase", version=2,
                                 features=Features(value_reuse=True),
                                 corrupt=(0.05, 7)),
        lambda out: out[0]["vreuse"]["mispredicted"] > 0),
}


@pytest.mark.parametrize("case", list(DLA_START_OVER_CASES))
def test_dla_walk_starts_over_where_the_cycle_loop_decides(case):
    make_factory, reached = DLA_START_OVER_CASES[case]
    make = make_factory()
    eng = make()
    assert eng._walkable()
    walked, looped = run_outcome(make)
    assert looped
    assert reached(walked)
    assert walked == run_outcome(make, walk=False)[0]


# -- fast paths vs the slow paths they skip ------------------------------------

def forced(value):
    """A class-level property that reads ``value`` and ignores writes."""
    return property(lambda self: value, lambda self, v: None)


# each run has value reuse on; ``reached`` checks the unit did what is named
FAST_PATH_CASES = {
    **{case: SKIP_CASES[case] for case in ("chase-dla-t1-reuse",
                                           "chase-reuse-replays")},
    "branchy-reuse-idle": (
        lambda: engine_factory(uisa.gen_branchy(iters=500, streams=2),
                               features=Features(value_reuse=True),
                               cycle_loop=True),
        lambda d: d["footnotes"]["reuse"] == 0),
    "phases-all-features": (
        lambda: engine_factory(uisa.gen_mixed_phases(phase_iters=1000, outer=3),
                               features=Features(t1=True, value_reuse=True,
                                                 recycle="dynamic")),
        lambda d: d["vreuse"]["confirmed"] > 0),
}


@pytest.mark.parametrize("case", list(FAST_PATH_CASES))
def test_fast_paths_match_slow_paths(monkeypatch, case):
    """An idle unit or stage is skipped after one test; forcing every such
    test to fail runs the full path and must give the same results."""
    make_factory, reached = FAST_PATH_CASES[case]
    factory = make_factory()
    # the calls each fast path saves: value reuse at MT dispatch, a reuse
    # footnote check at LT commit, a stream read on an empty BOQ
    calls = dict.fromkeys(("on_mt_dispatch", "lt_commit", "get"), 0)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for owner, name in ((Engine, "on_mt_dispatch"), (Engine, "lt_commit"),
                        (engine.MainStream, "get")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))

    def outcome():
        calls.update(dict.fromkeys(calls, 0))
        eng = factory()
        stats = eng.run().to_dict()
        return (stats, eng.mt.fetch_bubbles, eng.mt.boq_starved_at), dict(calls)

    fast, fast_calls = outcome()
    monkeypatch.setattr(vreuse.Scoreboard, "clean", forced(False), raising=False)
    monkeypatch.setattr(vreuse.SlowInstructionFilter, "armed", forced(True),
                        raising=False)
    monkeypatch.setattr(engine._Core, "starved_idx", forced(-2), raising=False)
    slow, slow_calls = outcome()
    assert reached(fast[0])
    for name in calls:      # each forced path ran where the fast one did not
        assert slow_calls[name] > fast_calls[name], name
    assert fast == slow


# -- compiled streams vs stepping ------------------------------------------------

NEVER = 10 ** 9     # a COMPILE_AFTER no run reaches


@contextlib.contextmanager
def compile_after(n):
    """Streams built inside compile a run after it has started ``n`` times."""
    saved = skeleton.COMPILE_AFTER
    skeleton.COMPILE_AFTER = n
    try:
        yield
    finally:
        skeleton.COMPILE_AFTER = saved


def calls_and_stores():
    """A loop whose straight-line runs hold STOREs (one address twice, and a
    fresh address per call), a CALL and a RET.  The runs that end in CALL
    and RET are longer than a fetch group, so the main thread's fetch
    stops inside them, before a STORE and before a register (r10) that
    only the rest of the run writes."""
    return uisa.parse_program("""
        ADDI r1, r0, 300
        ADDI r2, r0, 4096
        ADDI r8, r0, 8192
    loop:
        ADDI r3, r1, 5
        ADDI r9, r9, 1
        STORE r1, 0(r2)
        ADDI r3, r3, 1
        STORE r3, 0(r2)
        ADDI r10, r10, 1
        CALL sub
        LOAD r4, 0(r2)
        ADD  r5, r5, r4
        ANDI r6, r1, 3
        BEQZ r6, skip
        STORE r5, 8(r2)
    skip:
        ADDI r1, r1, -1
        BNEZ r1, loop
        HALT
    sub:
        LOAD r7, 8(r2)
        ADD  r7, r7, r3
        ADDI r8, r8, 8
        ADDI r9, r9, 1
        STORE r7, 0(r8)
        RET
    """)


def faults_at_a_stale_base():
    """From a state whose r1 is negative, the first run faults at its LOAD."""
    prog = uisa.parse_program("""
        ADDI r9, r0, 3
    loop:
        ADDI r2, r2, 1
        LOAD r3, 0(r1)
        ADDI r9, r9, -1
        BNEZ r9, loop
        HALT
    """)
    state = uisa.ArchState.initial(prog)
    state.regs[1] = -64
    return prog, state


def compiled_runs(eng):
    tables = [eng.mt_stream.table, *(getattr(eng, "lt_tables", {}).values())]
    return sum(1 for t in tables for fn in t.runs if fn)


def random_dla(seed):
    prog = random_program(random.Random(seed), 80)
    return engine_factory(prog, version=seed % 6,
                          features=Features(value_reuse=True, t1=True))


def identity_case(name, kind):
    prog, feats = identity_programs()[name]
    return (engine_factory(prog, features=feats) if kind == "dla"
            else engine_factory(prog, baseline=True))


# each factory builds one run; ``reached`` checks the run did what is named
COMPILED_CASES = {
    **{f"{name}-{kind}": (lambda name=name, kind=kind: identity_case(name, kind),
                          lambda d: True)
       for name in ("chase", "stride", "phases", "branchy")
       for kind in ("base", "dla")},
    "phases-v4-corrupt-dynamic": (
        lambda: engine_factory(uisa.gen_mixed_phases(phase_iters=1500, outer=3),
                               version=4, corrupt=(0.05, 3),
                               features=Features(t1=True, value_reuse=True,
                                                 recycle="dynamic")),
        lambda d: d["reboot_reasons"].get("version_swap", 0) > 0
        and d["vreuse"]["mispredicted"] > 0),
    "chase-v4-corrupt": (
        lambda: engine_factory(uisa.gen_pointer_chase(length=300, rounds=4,
                                                      payload=1, filler=10),
                               version=4, corrupt=(0.05, 5),
                               features=Features(value_reuse=True, t1=True)),
        lambda d: d["reboot_reasons"].get("boq_mispredict", 0) > 0),
    "reboot-due-while-idle": SKIP_CASES["reboot-due-while-idle"],
    **{f"random-{seed}": (lambda seed=seed: random_dla(seed),
                          lambda d: d["mem"]["traffic_lines"] > 0)
       for seed in range(6)},
    "calls-and-stores": (
        lambda: engine_factory(calls_and_stores(), version=4,
                               features=Features(recycle="dynamic")),
        lambda d: d["instructions"] > 3000),
    "calls-and-stores-limit": (     # a limit that cuts the last run
        lambda: engine_factory(calls_and_stores(), baseline=True, limit=1001),
        lambda d: d["partial"] and d["instructions"] == 1001),
}


@pytest.mark.parametrize("case", list(COMPILED_CASES))
def test_compiled_streams_match_stepping(case):
    """Running every run compiled after one start gives the same full
    RunStats (``lt_walked`` with them), commit log and final main-thread
    state as running none compiled."""
    make_factory, reached = COMPILED_CASES[case]
    factory = make_factory()

    def outcome(n):
        with compile_after(n):
            eng = factory()
            log = log_commits(eng)
            stats = eng.run().to_dict()
        return (stats, log, eng.mt_stream.snapshot()), compiled_runs(eng)

    stepped, none = outcome(NEVER)
    compiled, some = outcome(1)
    assert none == 0 and some > 0
    assert reached(stepped[0])
    assert compiled == stepped


def walk_lookahead(prog, skel, version, starts, n):
    """Every ``get`` of a look-ahead walk from each start state in turn, up
    to 3000 records each (a masked-out loop counter can keep a walk going),
    all walks sharing one table of compiled runs: (record, walked, done)."""
    out = []
    with compile_after(n):
        table = engine._RunTable(len(prog.instrs))
    for state in starts:
        stream = engine.LookaheadStream(prog, skel, version, state.clone(), table)
        for idx in range(3000):
            rec = stream.get(idx)
            out.append((rec, stream.walked, stream.done))
            if rec is None:
                break
    return out, sum(1 for fn in table.runs if fn)


@pytest.mark.parametrize("make", [calls_and_stores, uisa.gen_branchy,
                                  lambda: uisa.gen_mixed_phases(200, 2),
                                  faults_at_a_stale_base])
def test_compiled_lookahead_walk_matches_stepping(make):
    """Record for record, with ``walked`` after each ``get``: a walk that
    compiles every run after one start, masked-out slots, converted
    branches and a fault in the middle of a run included, is the lazy walk."""
    made = make()
    prog, start = made if isinstance(made, tuple) else (made, None)
    start = start or uisa.ArchState.initial(prog)
    every = frozenset(range(len(prog.instrs)))
    masks = [SkeletonMask(every), SkeletonMask(every - {1})]
    masks += skeleton.build(prog).versions[2:]
    skel = SkeletonSet(masks, frozenset(), skeleton.build(prog).bias_dirs)
    for version in range(len(masks)):
        stepped, none = walk_lookahead(prog, skel, version, [start] * 3, NEVER)
        compiled, some = walk_lookahead(prog, skel, version, [start] * 3, 1)
        assert none == 0 and some > 0
        assert compiled == stepped


def lazy_states(prog, idxs):
    """The interpreter's state after each count of records in ``idxs``."""
    state = uisa.ArchState.initial(prog)
    out = {}
    seq = 0
    for idx in sorted(set(idxs)):
        while seq < idx:
            uisa.step(state, prog, seq)
            seq += 1
        out[idx] = state.clone()
    return out


def reboot_states(eng):
    """Run ``eng``; per reboot, (restart index, the state the new look-ahead
    walk starts from, the opcodes the main stream had computed but not
    handed out)."""
    seen = []
    real = Engine._reboot

    def recording(self, now, reason):
        stream = self.mt_stream
        ahead = list(stream.recs)[len(stream.recs) - (stream.end - stream.next):]
        restart = stream.next
        real(self, now, reason)
        seen.append((restart, self.lt_stream.state.clone(),
                     [rec[0].opcode for rec in ahead]))

    Engine._reboot = recording
    try:
        eng.run()
    finally:
        Engine._reboot = real
    return seen


def assert_reboots_start_lazily(prog, version, cycles):
    skel = skeleton.build(prog)
    with compile_after(1):
        eng = Engine(prog, skel=skel, version=version)
    eng._walk_in_order = lambda: None   # a walk runs no reboot
    for at in cycles:
        eng.schedule_reboot(at, "guard")
    seen = reboot_states(eng)
    want = lazy_states(prog, [restart for restart, _, _ in seen])
    for restart, state, _ in seen:
        assert state == want[restart], restart
    return seen


def test_reboot_rewinds_a_batch_not_yet_handed_out():
    """The main stream computes a compiled run at once; a reboot that falls
    while a STORE, a CALL or a RET of it is not yet handed out still starts
    the look-ahead walk from the lazy interpreter's state."""
    seen = assert_reboots_start_lazily(calls_and_stores(), 0,
                                       range(300, 20000, 211))
    ahead = [set(ops) for _, _, ops in seen]
    assert any({"STORE", "CALL"} <= ops for ops in ahead)
    assert any({"STORE", "RET"} <= ops for ops in ahead)


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.integers(0, 10 ** 6), st.none()), st.integers(0, 5),
       st.lists(st.integers(1, 4000), min_size=1, max_size=12))
def test_every_reboot_starts_from_the_lazy_state(seed, version, cycles):
    prog = (calls_and_stores() if seed is None
            else random_program(random.Random(seed), 80))
    assert_reboots_start_lazily(prog, version, cycles)


def test_version_out_of_range_is_refused():
    # a negative version read skeleton v5 from the end of the list, and 7
    # raised a bare IndexError
    prog = uisa.gen_branchy(iters=20)
    skel = skeleton.build(prog)
    for version in (-1, 6, 7, "1", 1.0):
        with pytest.raises(EngineError, match=r"^version: must be an integer "
                                              r"in 0\.\.5, got "):
            Engine(prog, skel=skel, version=version)
    Engine(prog, skel=skel, version=5).run()


@pytest.mark.parametrize("wake", ["skip", "step"])
def test_watchdog_and_max_cycles_fire_on_the_same_cycle(monkeypatch, wake):
    if wake == "step":
        monkeypatch.setattr(Engine, "_wake_cycle", step_every_cycle)
    prog = uisa.gen_pointer_chase(length=200, rounds=1)
    slow = CacheConfig(dram_latency=300_000)
    with pytest.raises(EngineError, match="at cycle 200004$"):
        Engine(prog, cache_config=slow).run()
    skel = skeleton.build(prog)
    with pytest.raises(EngineError, match="at cycle 200052$"):
        Engine(prog, skel=skel, cache_config=slow).run()
    st = Engine(prog, skel=skel, cache_config=slow, max_cycles=5000).run()
    assert (st.cycles, st.partial, st.instructions) == (5000, True, 5)
    st = Engine(prog, skel=skel, max_cycles=5000).run()
    assert (st.cycles, st.partial, st.instructions) == (5000, True, 63)


# -- run lifetime: a finished run is freed by reference counting ----------------

LIFETIME_CASES = {
    "baseline": {"workload": {"kind": "strided_loop",
                              "params": {"stride": 8, "iters": 500}}},
    "dla-walk": {"workload": {"kind": "strided_loop",
                              "params": {"stride": 8, "iters": 500}},
                 "engine": "dla", "features": {"t1": True}},
    "dla-walk-lt-memory": {
        "workload": {"kind": "pointer_chase",
                     "params": {"length": 100, "payload": 1, "filler": 8}},
        "engine": "dla", "features": {"t1": True, "value_reuse": True}},
    "dla-t1-reuse-recycle": {
        "workload": {"kind": "mixed_phases",
                     "params": {"outer": 1, "phase_iters": 300}},
        "engine": "dla",
        "features": {"t1": True, "value_reuse": True, "recycle": "dynamic"}},
    "ideal_fetch": {"workload": {"kind": "branchy",
                                 "params": {"iters": 100, "streams": 2}},
                    "mode": "ideal_fetch"},
    "ideal_backend": {"workload": {"kind": "branchy",
                                   "params": {"iters": 100, "streams": 2}},
                      "mode": "ideal_backend"},
    "watchdog": {"workload": {"kind": "pointer_chase",
                              "params": {"length": 200, "rounds": 1}},
                 "cache": {"dram_latency": 300_000}},
}


@pytest.mark.parametrize("case", list(LIFETIME_CASES))
def test_finished_run_leaves_no_cyclic_garbage(monkeypatch, case):
    """A run's engine, cores and caches are freed when the caller drops
    them, without the cyclic collector, also when the run raises."""
    cfg = cli.validate_config(LIFETIME_CASES[case])
    engines = []
    run = Engine.run

    def recording_run(self):
        engines.append(weakref.ref(self))
        return run(self)

    monkeypatch.setattr(Engine, "run", recording_run)

    def run_once():
        try:
            cli.run_config(cfg)
        except EngineError as e:
            return str(e)
        return None

    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        error = run_once()
        engine_alive = engines[0]() is not None
        found = gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert len(engines) == 1
    assert (error is not None) == (case == "watchdog")
    if error is not None:
        assert error.endswith("at cycle 200004")
    assert found == 0
    assert not engine_alive


# -- identity: RunStats digests pinned against unintended model changes ---------

def digest(obj):
    """SHA-256 of ``obj`` as canonical JSON (a ``RunStats.to_dict()`` or a log)."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def identity_programs():
    """Small instances of the four benchmark workloads and their DLA features."""
    return {
        "chase": (uisa.gen_pointer_chase(length=200, payload=1, filler=24,
                                         rounds=2, seed=1),
                  Features(t1=True, value_reuse=True)),
        "stride": (uisa.gen_strided_loop(stride=8, iters=2000, seed=1),
                   Features(t1=True)),
        "phases": (uisa.gen_mixed_phases(outer=2, phase_iters=2100, seed=1),
                   Features(t1=True, recycle="dynamic")),
        "branchy": (uisa.gen_branchy(iters=500, streams=2, seed=1),
                    Features(value_reuse=True)),
    }


# SHA-256 of RunStats.to_dict() (and of one commit log) as the simulator
# produced them when these
# values were written down.  A change that is meant to leave the model alone
# must leave them alone; a model change updates them and says why.
IDENTITY_DIGESTS = {
    "chase/base":
        "ce7038d4c773e66d8faad098eb6faf9999e91ace9d8af3b189863ee0a2a0b783",
    "chase/dla":
        "610d3620cd5c2992642df926e3009288684ddff70efc08e7731b7e687661a0ee",
    "stride/base":
        "c8ada1917df232bdedc79041056bf3a0a5036c1c8d8e2544a7de23d8f1d0db32",
    "stride/dla":
        "8738e2bf41100cd9a0c63d0405f98e28289a647e332c4dfd2eea85959af6d619",
    "phases/base":
        "55627daf1dc36e1800bb626fd29099d3abcd5fdb3db4e3a1225f7d2b6ef5fa13",
    "phases/dla":
        "4aecbba28a183a538df222042b21ef560d9da5cc91b7d1ff72a29b9a0c1bdc82",
    "branchy/base":
        "08694176471d194038bfbd6e16ebc7b9b85df6923da68e019b4a67049eea81d0",
    "branchy/dla":
        "0cb86b3956d4aeb27150e0d6866f83a9121c9657b911d51e8b4091ecf49c9ac9",
    "branchy/ideal_fetch":
        "ce8f2e0a4dac9687afe6fe413e2da11621a3d415dd29826bb98cbcf71404389e",
    "branchy/ideal_backend":
        "3c030d86299d49a49a50b1922466370af40eea52c4dffeb7eaaa484fe310c9d1",
    "stride/base/mshr4":
        "2cabaa96b721cf279e529e0d5dcd1dc3524a62540bb67afeb166feac179a68c3",
    "chase/dla/mshr4":
        "610d3620cd5c2992642df926e3009288684ddff70efc08e7731b7e687661a0ee",
    "stride/dla/mshr4":
        "7d3080c695b359b82a310540d53f74baf8ef79d98d8a3857ac926a352e275b61",
    "chase/dla/commit_log":
        "610d3620cd5c2992642df926e3009288684ddff70efc08e7731b7e687661a0ee",
    "chase/dla/commit_log/log":
        "fc790dfa44805b1a668d11f6d418c80635fe28fff985ed28297462e5beb4d100",
    "chase/dla/corrupt":
        "e11f3398af44c460607b99c45b86e1a9048a63ab2caae33d9c21858c4ef3d3d3",
    "chase/dla/no_fetch_buffer":
        "39924349281adc52ce24d41ffc685fbe8eb9b5ac232d9c84fc08fac3e09a35a7",
    "phases/dla/all_features":
        "1796dd906694f4b6ee5496a0a47cd9d54513f1516d8de6a019b83f326bc57a5c",
}


def identity_runs():
    """(key, RunStats.to_dict() or commit log) for every identity config."""
    programs = identity_programs()
    skels = {}
    for name, (prog, feats) in programs.items():
        skels[name] = skeleton.build(prog)
        yield f"{name}/base", Engine(prog).run().to_dict()
        yield f"{name}/dla", Engine(prog, skel=skels[name],
                                    features=feats).run().to_dict()
    prog = programs["branchy"][0]
    for mode in ("ideal_fetch", "ideal_backend"):
        yield f"branchy/{mode}", Engine(prog, mode=mode).run().to_dict()
    # the conditions under which the engine's per-instruction hooks do work
    prog, feats = programs["chase"]
    eng = Engine(prog, skel=skels["chase"], features=feats)
    log = log_commits(eng)
    yield "chase/dla/commit_log", eng.run().to_dict()
    yield "chase/dla/commit_log/log", log
    eng = Engine(prog, skel=skels["chase"], version=2,
                 features=Features(value_reuse=True))
    corrupt_predictions(eng, 0.05, 7)
    yield "chase/dla/corrupt", eng.run().to_dict()
    yield "chase/dla/no_fetch_buffer", Engine(
        prog, skel=skels["chase"],
        features=Features(t1=True, value_reuse=True,
                          fetch_buffer=False)).run().to_dict()
    yield "phases/dla/all_features", Engine(
        programs["phases"][0], skel=skels["phases"],
        features=Features(t1=True, value_reuse=True, recycle="dynamic")).run().to_dict()
    # with four MSHRs, fills that are ready but not yet drained hold back
    # misses and prefetches, so the drain cycles show in the results
    cache = CacheConfig(mshr=4)
    yield "stride/base/mshr4", Engine(programs["stride"][0],
                                      cache_config=cache).run().to_dict()
    for name in ("chase", "stride"):
        prog, feats = programs[name]
        yield f"{name}/dla/mshr4", Engine(
            prog, skel=skeleton.build(prog, cache_config=cache), cache_config=cache,
            features=feats).run().to_dict()


def test_run_stats_identical_to_recorded_digests():
    got = {key: digest(obj) for key, obj in identity_runs()}
    assert got == IDENTITY_DIGESTS


# -- host cost: Python calls per simulated instruction --------------------------

# Python "call" events per committed MT instruction in a baseline or DLA run
# of the identity programs; the counts repeat exactly.  When the phases DLA
# ceiling was set the count was 9.5, down from 20.6 before the engine's hooks
# were called only when they had work and the small helpers below them became
# fields or inline code.  The branchy and chase DLA counts were 12.6 and 8.0
# when their ceilings were set, down from 17.0 and 9.4 before an idle
# value-reuse unit and a main thread retrying on an empty BOQ stopped costing
# calls.  The baseline counts were 4.09 (phases) and
# 5.14 (branchy) when their ceilings were set, down from 4.49 and 5.64 before
# baseline runs stopped tracking loops.  The ceilings were tightened when
# the streams began to run each hot straight-line run as one compiled
# function, not one uisa.step per record: the counts went from 9.47, 12.58
# and 8.03 (DLA) and 4.09 and 5.14 (baseline) to 8.34, 11.42, 6.86, 3.29 and
# 4.44.  The baseline ceilings were tightened again when a baseline run
# became one walk in program order with no stage calls: the counts went
# from 3.30 (phases) and 4.48 (branchy) to 0.88 and 0.63.  The branchy DLA
# ceiling was tightened, and the stride DLA one added, when a DLA run whose
# look-ahead thread touches no memory became two walks in program order:
# the counts went from 11.49 (branchy) and 6.99 (stride) to 2.01 and 3.35.
# The chase DLA ceiling was tightened when a DLA run whose look-ahead thread
# loads and stores became two walks that run their shared events in the
# cycle loop's order: the count went from 6.91 to 2.86.
CALLS_PER_INSTRUCTION_CEILING = {("phases", "dla"): 8.6, ("branchy", "dla"): 2.08,
                                 ("chase", "dla"): 2.96, ("stride", "dla"): 3.46,
                                 ("phases", "base"): 0.96, ("branchy", "base"): 0.68}


def test_calls_per_instruction_ceiling():
    programs = identity_programs()
    for (name, mode), ceiling in CALLS_PER_INSTRUCTION_CEILING.items():
        prog, feats = programs[name]
        if mode == "dla":
            eng = Engine(prog, skel=skeleton.build(prog), features=feats)
        else:
            eng = Engine(prog)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            st = eng.run()
        finally:
            sys.setprofile(previous)
        assert calls / st.instructions <= ceiling, (name, mode,
                                                    calls / st.instructions)
