"""Timing engine tests: pipeline bounds, the correctness firewall, reboots."""

import random

import pytest

from r3dla import uisa, skeleton, engine
from r3dla.engine import CoreParams, DlaParams, Features, Engine, EngineError
from r3dla.skeleton import SkeletonMask, SkeletonSet


def full_skeleton(prog):
    """All six versions contain the whole program (perfect look-ahead)."""
    bits = frozenset(range(len(prog.instrs)))
    return SkeletonSet(versions=[SkeletonMask(i, bits) for i in range(6)],
                       s_bits=frozenset())


def reference_trace(prog, limit):
    return [(ev.pc, ev.eff_addr, ev.value, ev.taken)
            for ev in uisa.run_trace(prog, limit)]


def dla_commit_trace(prog, skel, **kw):
    log = []
    engine.run_dla(prog, skel, commit_log=log, **kw)
    return log


# -- baseline timing ---------------------------------------------------------

def test_dependent_mul_chain_serializes():
    # every MUL reads its predecessor: IPC ~ 1/3 (3-cycle MUL latency)
    body = "\n".join("MUL r1, r1, r2" for _ in range(400))
    prog = uisa.parse_program(f"ADDI r1, r0, 1\nADDI r2, r0, 1\n{body}\nHALT\n")
    st = engine.run_baseline(prog)
    assert st.ipc == pytest.approx(1 / 3, rel=0.1)


def test_independent_alu_stream_hits_width():
    lines = [f"ADDI r{1 + (k % 8)}, r0, {k}" for k in range(2000)]
    prog = uisa.parse_program("\n".join(lines) + "\nHALT\n")
    st = engine.run_baseline(prog)
    assert st.ipc == pytest.approx(4.0, rel=0.1)


def test_baseline_commit_log_matches_interpreter():
    prog = uisa.gen_branchy(iters=500, streams=2)
    log = []
    engine.run_baseline(prog, commit_log=log)
    assert log == reference_trace(prog, 10 ** 6)


def test_limit_marks_partial():
    prog = uisa.gen_strided_loop(iters=10_000)
    st = engine.run_baseline(prog, limit=1000)
    assert st.partial
    assert st.instructions == 1000


def test_fetch_buffer_feature_off_degenerates():
    prog = uisa.gen_branchy(iters=200)
    skel = skeleton.build(prog)
    eng = Engine(prog, skel=skel, features=Features(fetch_buffer=False))
    assert eng.mt.fb_cap == eng.params.decode_width


def test_ideal_modes_record_histograms():
    prog = uisa.gen_strided_loop(iters=2000)
    st_d = engine.run_baseline(prog, mode="ideal_fetch")
    st_s = engine.run_baseline(prog, mode="ideal_backend")
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
    st = engine.run_dla(prog, full_skeleton(prog))
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
    st = engine.run_dla(prog, skel, version=4, commit_log=log)
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
    st = engine.run_dla(prog, skel, dla=DlaParams(boq_capacity=8))
    assert max(i for i, c in enumerate(st.boq_occupancy) if c) <= 8


def test_stats_to_dict_schema():
    prog = uisa.gen_strided_loop(iters=500)
    st = engine.run_dla(prog, skeleton.build(prog), features=Features(t1=True))
    d = st.to_dict()
    for key in ("cycles", "instructions", "ipc", "mem", "t1", "vreuse",
                "footnotes", "reboots", "config"):
        assert key in d
    assert d["instructions"] == 5 * 500 + 2


def test_t1_prefetches_improve_hit_rate():
    prog = uisa.gen_strided_loop(stride=64, iters=4000)
    skel = skeleton.build(prog)
    load_pc = next(iter(skel.s_bits))
    st = engine.run_dla(prog, skel, features=Features(t1=True),
                        track_pcs=skel.s_bits, track_warmup=500)
    warm = st.strided[load_pc]
    assert warm["l1_hits_warm"] / warm["instances_warm"] > 0.5
    assert st.mem["prefetch_useful"] > 0


def test_value_reuse_produces_confirmations():
    prog = uisa.gen_pointer_chase(length=300, rounds=4, payload=1, filler=24)
    skel = skeleton.build(prog)
    st = engine.run_dla(prog, skel, version=2, features=Features(value_reuse=True))
    assert st.vreuse["emitted"] > 0
    assert st.vreuse["confirmed"] == st.vreuse["emitted"]
    assert st.vreuse["skipped"] > 0         # scoreboard rule fires
    assert st.vreuse["mispredicted"] == 0   # LT values are exact here


def test_recycle_dynamic_converges_in_engine():
    prog = uisa.gen_mixed_phases(phase_iters=3000, outer=8)
    skel = skeleton.build(prog)
    st = engine.run_dla(prog, skel, features=Features(recycle="dynamic"))
    assert st.recycle["chosen"]
    assert all(n >= 10_000 for _, _, _, n in st.recycle["measurements"])
