"""Timing engine tests: pipeline bounds, the correctness firewall, reboots."""

import gc
import hashlib
import json
import sys
import weakref

import pytest

from r3dla import cli, uisa, skeleton, engine, vreuse
from r3dla.engine import CoreParams, DlaParams, Features, Engine, EngineError
from r3dla.memsys import CacheConfig
from r3dla.skeleton import SkeletonMask, SkeletonSet

from reference import reference_trace


def full_skeleton(prog):
    """All six versions contain the whole program (perfect look-ahead)."""
    bits = frozenset(range(len(prog.instrs)))
    return SkeletonSet(versions=[SkeletonMask(i, bits) for i in range(6)],
                       s_bits=frozenset())


def dla_commit_trace(prog, skel, **kw):
    log = []
    Engine(prog, skel=skel, commit_log=log, **kw).run()
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
    log = []
    Engine(prog, commit_log=log).run()
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
                           corrupt_rate=0.5, corrupt_seed=7)
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
    log = []
    st = Engine(prog, skel=skel, version=4, commit_log=log).run()
    assert log == ref
    assert st.boq_mispredicts > 0
    assert st.reboots > 0


def test_boq_depth_law_raises():
    # a real check, not an assert: it holds under python -O too
    prog = uisa.gen_branchy(iters=300)
    eng = Engine(prog, skel=skeleton.build(prog))
    eng.boq_pushed += 1         # a push the queue never saw
    with pytest.raises(EngineError, match="depth accounting broke at cycle 1"):
        eng.run()


def test_lookahead_stream_hands_out_records_in_order():
    # a real check, not an assert: the stream keeps no record to hand out twice
    prog = uisa.gen_branchy(iters=20)
    skel = skeleton.build(prog)
    stream = engine.LookaheadStream(prog, skel, 0, uisa.ArchState.initial(prog))
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


def test_boq_capacity_backpressures_lt():
    prog = uisa.gen_strided_loop(iters=5000)
    skel = skeleton.build(prog)
    st = Engine(prog, skel=skel, dla=DlaParams(boq_capacity=8)).run()
    assert max(i for i, c in enumerate(st.boq_occupancy) if c) <= 8


def test_stats_to_dict_schema():
    prog = uisa.gen_strided_loop(iters=500)
    st = Engine(prog, skel=skeleton.build(prog), features=Features(t1=True)).run()
    d = st.to_dict()
    for key in ("cycles", "instructions", "ipc", "mem", "t1", "vreuse",
                "footnotes", "reboots", "config"):
        assert key in d
    assert d["instructions"] == 5 * 500 + 2


def test_t1_prefetches_improve_hit_rate():
    prog = uisa.gen_strided_loop(stride=64, iters=4000)
    skel = skeleton.build(prog)
    load_pc = next(iter(skel.s_bits))
    st = Engine(prog, skel=skel, features=Features(t1=True),
                track_pcs=skel.s_bits, track_warmup=500).run()
    warm = st.strided[load_pc]
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


def test_recycle_dynamic_converges_in_engine():
    prog = uisa.gen_mixed_phases(phase_iters=3000, outer=8)
    skel = skeleton.build(prog)
    st = Engine(prog, skel=skel, features=Features(recycle="dynamic")).run()
    assert st.recycle["chosen"]
    assert all(n >= 10_000 for _, _, _, n in st.recycle["measurements"])


# -- idle-cycle skipping vs a per-cycle oracle ----------------------------------

def step_every_cycle(self, cycle, last_commit_cycle):
    return cycle + 1


def engine_factory(prog, dla=True, skel=None, **kw):
    """A fresh Engine per call; a DLA run builds its skeleton once if not given."""
    if dla and skel is None:
        skel = skeleton.build(prog, cache_config=kw.get("cache_config"))
    return lambda: Engine(prog, skel=skel, **kw)


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


# each config reaches one wake-up or credit path; ``reached`` checks it did
SKIP_CASES = {
    "chase-baseline": (
        lambda: engine_factory(chase(), dla=False),
        lambda d: d["fetch_bubbles"] > 0),
    "chase-dla-t1-reuse": (
        lambda: engine_factory(chase(), features=Features(t1=True, value_reuse=True)),
        lambda d: d["boq_empty_stalls"] > 0 and d["vreuse"]["confirmed"] > 0),
    "chase-full-skeleton": (   # the LT commits bursts wider than its width
        lambda: engine_factory(chase(), skel=full_skeleton(chase())),
        lambda d: d["boq_empty_stalls"] > 0),
    "stride-mshr4": (   # queued prefetches wait for an MSHR to free
        lambda: engine_factory(uisa.gen_strided_loop(stride=64, iters=2000),
                               cache_config=CacheConfig(mshr=4),
                               features=Features(t1=True)),
        lambda d: d["mem"]["prefetch_issued"] > 0),
    "chase-ideal_fetch": (   # only a full window stops an ideal front end
        lambda: engine_factory(chase(), dla=False, mode="ideal_fetch"),
        lambda d: d["demand_hist"].get(0, 0) > 0),
    "branchy-ideal_backend": (
        lambda: engine_factory(uisa.gen_branchy(iters=500, streams=2), dla=False,
                               mode="ideal_backend"),
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
                               dla=DlaParams(boq_capacity=8)),
        lambda d: d["boq_occupancy"][8] > 0),
    "chase-no-fetch-buffer": (
        lambda: engine_factory(chase(), features=Features(fetch_buffer=False)),
        lambda d: len(d["fb_occupancy"]) == CoreParams().decode_width + 1),
    "chase-reuse-replays": (
        lambda: engine_factory(chase(), version=2,
                               features=Features(value_reuse=True),
                               corrupt_rate=0.05, corrupt_seed=7),
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
                               features=Features(value_reuse=True)),
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
        "1f561cb4929b15413964db026d03e64bd9f7f91e033c597b10a9782c0dd85673",
    "chase/dla":
        "075505204b3baee55b06e2ec92de8c7af4beb8bec202e9292592c355181035f7",
    "stride/base":
        "78bdc3aef3d2cf506f93ce97545eadedf123a3ac33d8e2fe57faae338bf033f8",
    "stride/dla":
        "3d5cb5bdee440f135fcab2d5d1e611e2ddc18d9f5e9758f38cc6d5a241362939",
    "phases/base":
        "5376d7243dd15c85fe66980b73574fe2e5c6a2a3b1ba026ad1b0a6a9ac2577e4",
    "phases/dla":
        "2b10310a87fb2a12647e4df8ecb3d904d1b2106b3d8f9e71813770988982a9d6",
    "branchy/base":
        "fd92889f6a52eb9fb0d340d7c7647a636497d0915fc8c512334af69382a304c8",
    "branchy/dla":
        "bd13743c47c0fc5d0420070267d06c0b2779490502c84119390177f6b148a496",
    "branchy/ideal_fetch":
        "8afd8fc509f734b3a170e92689b15e1e806643c2fb6bbbdca10c7d2c3b0de95c",
    "branchy/ideal_backend":
        "92477baf8a62b109f4afac65352108d645cb54f1de4156afd226d2062608bf93",
    "stride/base/mshr4":
        "928706004b798255901652b3ca9dea325c01b9be35da9cb9e738cef6cc611809",
    "chase/dla/mshr4":
        "075505204b3baee55b06e2ec92de8c7af4beb8bec202e9292592c355181035f7",
    "stride/dla/mshr4":
        "4224d21366adb2e3998ea324c0851d338db0c96e3c7355ddebcbb6ab13001707",
    "stride/dla/track_pcs":
        "ebb2a4301a1ae88ee2834be217cf97b3145c848787fcd957faad6d045c5109ab",
    "chase/dla/commit_log":
        "075505204b3baee55b06e2ec92de8c7af4beb8bec202e9292592c355181035f7",
    "chase/dla/commit_log/log":
        "fc790dfa44805b1a668d11f6d418c80635fe28fff985ed28297462e5beb4d100",
    "chase/dla/corrupt":
        "a845fcffd364761bd00c3d7b85af6c752077d1779150aff9572672d0e931ec29",
    "chase/dla/no_fetch_buffer":
        "30026466301868041eb4c72313bad55e028e77fd48ae97d3158b838b693e081c",
    "phases/dla/all_features":
        "5e84549bd7df7b8923528a8e1a8687df3d8e1b034834f084eafc945477c35e23",
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
    prog, feats = programs["stride"]
    yield "stride/dla/track_pcs", Engine(
        prog, skel=skels["stride"], features=feats,
        track_pcs=skels["stride"].s_bits).run().to_dict()
    prog, feats = programs["chase"]
    log = []
    yield "chase/dla/commit_log", Engine(
        prog, skel=skels["chase"], features=feats, commit_log=log).run().to_dict()
    yield "chase/dla/commit_log/log", log
    yield "chase/dla/corrupt", Engine(
        prog, skel=skels["chase"], version=2, features=Features(value_reuse=True),
        corrupt_rate=0.05, corrupt_seed=7).run().to_dict()
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
# baseline runs stopped tracking loops.
CALLS_PER_INSTRUCTION_CEILING = {("phases", "dla"): 12.0, ("branchy", "dla"): 14.0,
                                 ("chase", "dla"): 8.8,
                                 ("phases", "base"): 4.3, ("branchy", "base"): 5.4}


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
