"""Skeleton tests: profiling, seed selection, backward closure vs an oracle."""

import gc
import json
import random
from dataclasses import asdict, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from r3dla import uisa, skeleton, memsys

from closure_oracle import oracle_closure
from reference import reference_profile, reference_trace


# -- closure -----------------------------------------------------------------

def test_closure_three_instruction_chain():
    prog = uisa.parse_program("""
        ADDI r1, r0, 0x100
        LOAD r2, 0(r1)
        BNEZ r2, 0
        HALT
    """)
    mask = skeleton.backward_closure(prog, {2})
    assert mask.bits == frozenset({0, 1, 2})


def test_closure_empty_seeds():
    prog = uisa.gen_strided_loop(iters=3)
    assert skeleton.backward_closure(prog, set()).bits == frozenset()


def test_closure_matches_oracle_small():
    rng = random.Random(11)
    for _ in range(25):
        prog = uisa.random_program(rng, rng.randrange(10, 80))
        idxs = [i.index for i in prog.instrs if i.opcode != "HALT"]
        seeds = set(rng.sample(idxs, max(1, len(idxs) // 5)))
        got = skeleton.backward_closure(prog, seeds).bits
        assert got == oracle_closure(prog, seeds)


def test_closure_idempotent():
    rng = random.Random(5)
    for _ in range(10):
        prog = uisa.random_program(rng, 60)
        seeds = {i.index for i in prog.instrs if i.is_control}
        once = skeleton.backward_closure(prog, seeds).bits
        twice = skeleton.backward_closure(prog, set(once)).bits
        assert once == twice


def test_closure_monotone():
    rng = random.Random(6)
    for _ in range(10):
        prog = uisa.random_program(rng, 60)
        idxs = [i.index for i in prog.instrs]
        a = set(rng.sample(idxs, 3))
        b = a | set(rng.sample(idxs, 3))
        ca = skeleton.backward_closure(prog, a).bits
        cb = skeleton.backward_closure(prog, b).bits
        assert ca <= cb


def test_converted_branches_read_nothing():
    prog = uisa.parse_program("""
        ADDI r1, r0, 7
        BNEZ r1, 0
        HALT
    """)
    full = skeleton.backward_closure(prog, {1})
    conv = skeleton.backward_closure(prog, {1}, converted_branches=frozenset({1}))
    assert 0 in full.bits
    assert conv.bits == frozenset({1})


# -- profiling ---------------------------------------------------------------

def test_profile_no_mem_no_misses():
    prog = uisa.parse_program("""
        ADDI r1, r0, 100
    loop:
        ADDI r1, r1, -1
        BNEZ r1, loop
        HALT
    """)
    prof = skeleton.profile(prog)
    assert all(p.l1_miss_rate == 0.0 for p in prof.values())
    assert prof[2].exec_count == 100     # trained up to the HALT


def test_profile_branch_bias():
    prog = uisa.gen_strided_loop(iters=1000)
    prof = skeleton.profile(prog)
    br = next(pc for pc, ins in enumerate(prog.instrs)
              if ins.opcode == "BR_COND")
    assert prof[br].branch_bias == pytest.approx(0.999)


def test_profile_detects_stride():
    prog = uisa.gen_strided_loop(stride=64, iters=500)
    prof = skeleton.profile(prog)
    load_pc = next(i for i, ins in enumerate(prog.instrs) if ins.opcode == "LOAD")
    assert prof[load_pc].detected_stride() == 64


def test_profile_holds_no_finished_fill(monkeypatch):
    # the profile walks one access at a time, so each fill is done before the
    # next access: its cache (memsys.serial_walk) has no in-flight table, and
    # it builds no MemorySystem that could hold one
    made = []
    init = memsys.MemorySystem.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(memsys.MemorySystem, "__init__", capture)
    prog = uisa.gen_pointer_chase(length=1000, payload=1, filler=24, rounds=2)
    prof = skeleton.profile(prog)
    assert sum(p.l1_misses for p in prof.values()) > 100
    assert made == []


def _assert_profile_matches_reference(prog, cache_config=None):
    got = skeleton.profile(prog, cache_config)
    want = reference_profile(prog, cache_config)
    assert got.keys() == want.keys()
    for pc, p in want.items():
        assert asdict(got[pc]) == asdict(p), pc
    assert (skeleton.build(prog, cache_config)
            == skeleton.gen_skeleton_versions(prog, want))


GENERATOR_CASES = [
    ("strided_loop", {"stride": 8, "iters": 300}),
    ("pointer_chase", {"length": 200, "payload": 1, "filler": 4, "rounds": 2}),
    ("branchy", {"iters": 100, "streams": 2}),
    ("mixed_phases", {"outer": 1, "phase_iters": 300}),
]


@pytest.mark.parametrize("kind,params", GENERATOR_CASES)
def test_profile_matches_reference_on_generators(kind, params):
    _assert_profile_matches_reference(uisa.gen_workload(kind, params, seed=3))


def _check_random_programs(cache_config=None):
    # stores, counted loops and registers read before any write
    rng = random.Random(23)
    for _ in range(50):
        _assert_profile_matches_reference(
            uisa.random_program(rng, rng.randrange(10, 120)), cache_config)


def test_profile_matches_reference_on_random_programs():
    _check_random_programs()


# 4, 8 and 16 lines: the generator cases with memory ops evict from all three
TINY_CACHE = memsys.CacheConfig(l1=memsys.LevelConfig(256, 2, 64, 3),
                                l2=memsys.LevelConfig(512, 2, 64, 9),
                                l3=memsys.LevelConfig(1024, 4, 64, 36))


def test_profile_matches_reference_at_a_tiny_cache():
    """At the default config the largest case here never evicts from L2 or
    L3; at ``TINY_CACHE`` every level evicts."""
    for kind, params in GENERATOR_CASES:
        prog = uisa.gen_workload(kind, params, seed=3)
        _assert_profile_matches_reference(prog, TINY_CACHE)
        if kind == "branchy":       # no loads or stores
            continue
        # more misses than lines at a level means a set of it evicted
        mem = memsys.MemorySystem(replace(TINY_CACHE, mshr=0))
        for pc, addr, _, _ in reference_trace(prog, skeleton.TRAIN_LIMIT):
            if prog.instrs[pc].is_mem:
                mem.access(addr)
        for cache in (mem.l1[memsys.MT], mem.l2[memsys.MT], mem.l3):
            lines = cache.cfg.size // cache.cfg.line
            assert cache.misses > lines, (kind, cache.cfg)
    _check_random_programs(TINY_CACHE)


def test_profile_matches_reference_at_train_limit(monkeypatch):
    monkeypatch.setattr(skeleton, "TRAIN_LIMIT", 700)
    for prog in (uisa.gen_strided_loop(stride=8, iters=1000),
                 uisa.gen_mixed_phases(outer=1, phase_iters=300, seed=2)):
        _assert_profile_matches_reference(prog)
        assert sum(p.exec_count for p in skeleton.profile(prog).values()) == 700


# the chase program's first run is pcs 0-36 (37 instructions, to the loop
# branch); every later one is the 34-instruction loop body from pc 3
RUN_CHASE = dict(length=50, payload=1, filler=24, rounds=2)


# the loop body is compiled after its 16th walk, at 37 + 16 * 34: the last
# two cut the compiled loop's visit at an iteration's end and inside one
CUT_LIMITS = [1, 3, 10, 37, 38, 39, 60, 700, 37 + 34 * 20, 37 + 34 * 20 + 5]


@pytest.mark.parametrize("limit", CUT_LIMITS)
def test_profile_matches_reference_when_train_limit_cuts_a_run(monkeypatch, limit):
    # inside the first run, at its end, inside the loop body's first visit,
    # and inside later ones
    monkeypatch.setattr(skeleton, "TRAIN_LIMIT", limit)
    prog = uisa.gen_pointer_chase(**RUN_CHASE)
    _assert_profile_matches_reference(prog)
    assert sum(p.exec_count for p in skeleton.profile(prog).values()) == limit


def test_profile_raises_like_reference_inside_a_run():
    # the fourth LOAD reads address -8, in the middle of its run
    prog = uisa.parse_program("""
        ADDI r1, r0, 40
        ADDI r2, r0, 10
    loop:
        ADDI r3, r3, 1
        LOAD r4, 0(r1)
        ADDI r1, r1, -16
        ADDI r2, r2, -1
        BNEZ r2, loop
        HALT
    """)
    with pytest.raises(uisa.ExecError) as want:
        reference_profile(prog)
    with pytest.raises(uisa.ExecError) as got:
        skeleton.profile(prog)
    assert "negative address -8" in str(want.value)
    assert str(got.value) == str(want.value)


def test_profile_raises_like_reference_inside_a_compiled_loop():
    # the 27th LOAD reads address -16, in an iteration of the loop body
    # after it was compiled (at the default COMPILE_AFTER)
    prog = uisa.parse_program("""
        ADDI r1, r0, 400
        ADDI r2, r0, 100
    loop:
        ADDI r3, r3, 1
        LOAD r4, 0(r1)
        ADDI r1, r1, -16
        ADDI r2, r2, -1
        BNEZ r2, loop
        HALT
    """)
    with pytest.raises(uisa.ExecError) as want:
        reference_profile(prog)
    with pytest.raises(uisa.ExecError) as got:
        skeleton.profile(prog)
    assert str(want.value) == "seq 133: load from negative address -16"
    assert str(got.value) == str(want.value)


# The inner loop (its run is pcs 5-8) runs once per outer iteration i up to
# i = 17, so its 16 walks before it is compiled never repeat it; from i = 18
# on it runs i - 16 times.  Its registers' producers inside the loop (pc 6
# feeding pcs 5 and 6 of the next iteration) are first seen by a compiled
# visit.
NESTED = """
        ADDI r20, r0, 0
    outer:
        ADDI r20, r20, 1
        ADDI r2, r20, -17
        ADDI r1, r0, 0
        JMP inner
    inner:
        ADD  r3, r3, r1
        ADDI r1, r1, 1
        ADDI r2, r2, -1
        BGE  r2, r0, inner
        ADDI r4, r20, -20
        BNEZ r4, outer
        HALT
"""


def _count_loop_calls(monkeypatch):
    """Wrap each function ``_compile_run`` makes for a run that loops; list
    (start pc, returned (iterations, taken branches)) per call."""
    calls = []
    real = skeleton._compile_run

    def counted_compile(run, program, access):
        fn = real(run, program, access)
        if not skeleton._loops(run):
            return fn
        start = run.body[0][0].index

        def counted(state, seq, limit):
            out = fn(state, seq, limit)
            calls.append((start, out))
            return out
        return counted

    monkeypatch.setattr(skeleton, "_compile_run", counted_compile)
    return calls


def test_profile_walks_a_compiled_loop_visit_in_one_call(monkeypatch):
    # RUN_CHASE's loop body is compiled after its 16th walk, in its one
    # visit: the other 99 - 16 iterations are one call
    calls = _count_loop_calls(monkeypatch)
    prof = skeleton.profile(uisa.gen_pointer_chase(**RUN_CHASE))
    assert calls == [(3, (99 - skeleton.COMPILE_AFTER,
                          99 - skeleton.COMPILE_AFTER - 1))]
    assert prof[3].exec_count == 1 + 99


def test_profile_feeds_a_compiled_loop_after_its_first_iteration(monkeypatch):
    """A compiled loop entered from outside walks its first iteration alone,
    so that the walk feeds the loop's own producers to the second; then one
    call walks the rest of the visit."""
    calls = _count_loop_calls(monkeypatch)
    prog = uisa.parse_program(NESTED)
    prof = skeleton.profile(prog)
    # i = 17 (one iteration), then i = 18, 19, 20 (2, 3, 4 iterations)
    assert calls == [(5, (1, 0)), (5, (1, 1)), (5, (1, 0)), (5, (1, 1)),
                     (5, (2, 1)), (5, (1, 1)), (5, (3, 2))]
    assert prof[6].consumer_pcs == {5, 6}
    _assert_profile_matches_reference(prog)


@pytest.mark.parametrize("prog,starts", [
    (uisa.gen_pointer_chase(**RUN_CHASE), [0, 3]),
    (uisa.gen_strided_loop(iters=300), [0, 2]),
])
def test_profile_builds_each_run_once(monkeypatch, prog, starts):
    built = []
    real = skeleton._straight_run

    def counted(instrs, profs, start, cap):
        built.append(start)
        return real(instrs, profs, start, cap)

    monkeypatch.setattr(skeleton, "_straight_run", counted)
    prof = skeleton.profile(prog)
    assert sorted(built) == starts
    assert prof[starts[-1]].exec_count > len(built)     # the loop body repeats


@pytest.mark.parametrize("compile_after", [1, 10**9])
def test_profile_matches_reference_at_any_compile_threshold(monkeypatch,
                                                            compile_after):
    """The reference tests above run at the default ``COMPILE_AFTER`` (16);
    these run them with every memoized run compiled after its first walk,
    and with none compiled."""
    monkeypatch.setattr(skeleton, "COMPILE_AFTER", compile_after)
    for kind, params in GENERATOR_CASES:
        test_profile_matches_reference_on_generators(kind, params)
    test_profile_matches_reference_on_random_programs()
    test_profile_raises_like_reference_inside_a_run()
    test_profile_raises_like_reference_inside_a_compiled_loop()
    _assert_profile_matches_reference(uisa.parse_program(NESTED))
    test_profile_matches_reference_at_train_limit(monkeypatch)
    for limit in CUT_LIMITS:
        test_profile_matches_reference_when_train_limit_cuts_a_run(monkeypatch,
                                                                   limit)


def test_profile_compiles_each_hot_run_once(monkeypatch):
    # the first run (pcs 0-36) runs once and is never compiled; the loop
    # body (from pc 3, 34 instructions) runs 99 times: the first
    # COMPILE_AFTER on uisa.step, the rest compiled
    compiled, steps = [], []
    real_compile, real_step = skeleton._compile_run, uisa.step

    def counted_compile(run, program, access):
        compiled.append(run.body[0][0].index)
        return real_compile(run, program, access)

    def counted_step(state, program, seq=0):
        steps.append(seq)
        return real_step(state, program, seq)

    monkeypatch.setattr(skeleton, "_compile_run", counted_compile)
    monkeypatch.setattr(uisa, "step", counted_step)
    prof = skeleton.profile(uisa.gen_pointer_chase(**RUN_CHASE))
    assert compiled == [3]
    assert len(steps) == 37 + skeleton.COMPILE_AFTER * 34
    assert prof[3].exec_count == 1 + 99


def test_build_refuses_what_the_compiler_cannot_emit():
    # the profile validates its program, so the compiler needs no fallback:
    # a subop outside the ISA is refused before the walk
    prog = uisa.parse_program("""
        ADDI r1, r0, 20
    loop:
        ADDI r1, r1, -1
        BGE r1, r0, loop
        HALT
    """)
    odd = uisa.StaticInstr(2, "BR_COND", "odd", srcs=(1, 0), target=1)
    prog = uisa.StaticProgram(prog.instrs[:2] + [odd] + prog.instrs[3:])
    with pytest.raises(uisa.UisaError,
                       match=r"^instr 2: BR_COND takes a subop in \["):
        skeleton.build(prog)


def test_build_leaves_no_cyclic_garbage():
    """A compiled run's function and its namespace form no reference cycle:
    a build's garbage is freed by reference counting."""
    prog = uisa.gen_mixed_phases(outer=2, phase_iters=300)
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        skel = skeleton.build(prog)
        found = gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == 0
    assert skel.versions[0].bits


# -- compiled runs ---------------------------------------------------------------

LEVELS = ("L1", "L2", "L3", "DRAM")
REG = st.integers(0, 7)
# small addresses, 64-bit extremes, and values past 64 bits (a LOAD of a
# .data word can put one in a register)
VALUE = st.one_of(st.integers(0, 300), st.integers(-8, 8),
                  st.sampled_from([uisa.SIGN_BIT - 1, -uisa.SIGN_BIT,
                                   uisa.SIGN_BIT >> 1, uisa.WORD_MASK]),
                  st.integers(-2**70, 2**70))


@st.composite
def straight_runs(draw):
    """(program, state): a straight-line run from pc 0 -- ALU ops, loads and
    stores, ended by a control instruction or by the HALT after it -- and
    the architectural state it starts from."""
    body = []
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("ALUI", "ALU", "MUL", "LOAD", "STORE")))
        if kind == "ALUI":
            ins = uisa.StaticInstr(i, "ALUI", draw(st.sampled_from(
                ("add", "sub", "and", "or", "xor"))), dst=draw(REG),
                srcs=(draw(REG),), imm=draw(VALUE))
        elif kind in ("ALU", "MUL"):
            sub = "mul" if kind == "MUL" else draw(st.sampled_from(
                ("add", "sub", "and", "or", "xor")))
            ins = uisa.StaticInstr(i, kind, sub, dst=draw(REG),
                                   srcs=(draw(REG), draw(REG)))
        elif kind == "LOAD":
            ins = uisa.StaticInstr(i, "LOAD", dst=draw(REG), mem_base=draw(REG),
                                   mem_offset=draw(st.integers(-16, 16)))
        else:
            ins = uisa.StaticInstr(i, "STORE", srcs=(draw(REG),),
                                   mem_base=draw(REG),
                                   mem_offset=draw(st.integers(-16, 16)))
        body.append(ins)
    n = len(body)
    target = draw(st.integers(0, n + 1))
    end = draw(st.sampled_from(("eqz", "nez", "lt", "ge", "JMP", "CALL", "RET",
                                None)))
    if end in ("eqz", "nez"):
        body.append(uisa.StaticInstr(n, "BR_COND", end, srcs=(draw(REG),),
                                     target=target))
    elif end in ("lt", "ge"):
        body.append(uisa.StaticInstr(n, "BR_COND", end,
                                     srcs=(draw(REG), draw(REG)), target=target))
    elif end == "JMP":
        body.append(uisa.StaticInstr(n, "BR_UNCOND", target=target))
    elif end is not None:
        body.append(uisa.StaticInstr(n, end, target=target if end == "CALL" else None))
    if not body:
        body.append(uisa.StaticInstr(0, "ALUI", "add", dst=1, srcs=(1,), imm=1))
    body.append(uisa.StaticInstr(len(body), "HALT"))
    regs = [0] * uisa.NUM_REGS
    regs[:8] = draw(st.lists(VALUE, min_size=8, max_size=8))
    state = uisa.ArchState(
        regs=regs, pc=0,
        memory=draw(st.dictionaries(st.integers(0, 320), VALUE, max_size=6)),
        call_stack=draw(st.lists(st.integers(0, 9), max_size=2)))
    return uisa.StaticProgram(body), state


def fake_access(log):
    """An access whose latency and level follow from the address."""
    def access(addr):
        log.append(addr)
        return addr % 7, LEVELS[addr % 4]
    return access


def _loop_that_faults():
    """A run that loops: its LOAD reads address 8, then -8 on the second
    iteration, which faults after the first iteration's access."""
    body = [uisa.StaticInstr(0, "LOAD", dst=1, mem_base=2, mem_offset=0),
            uisa.StaticInstr(1, "ALUI", "add", dst=2, srcs=(2,), imm=-16),
            uisa.StaticInstr(2, "BR_COND", "nez", srcs=(3,), target=0),
            uisa.StaticInstr(3, "HALT")]
    regs = [0] * uisa.NUM_REGS
    regs[2], regs[3] = 8, 1
    return uisa.StaticProgram(body), uisa.ArchState(regs=regs, pc=0, memory={},
                                                     call_stack=[])


@settings(max_examples=300, deadline=None)
@given(straight_runs(), st.integers(0, 10**6), st.integers(1, 3))
@example(_loop_that_faults(), 0, 3)
def test_compiled_run_matches_stepping(case, seq, iterations):
    """A compiled run leaves the same registers, memory, pc and call stack
    as ``uisa.step`` on each of its instructions, returns the same branch
    direction, makes the same accesses, updates each memory op's
    ``PcProfile`` as ``profile``'s stepping loop does, and faults with the
    interpreter's error at the same instruction, each access before the
    fault counted.  A run whose branch goes back to its own start (pc 0) is
    compiled to a loop; given room for ``iterations`` walks of the run, it
    walks it again while the branch is taken and returns the iterations and
    the taken branches."""
    prog, start = case
    profs = [skeleton.PcProfile(last_addr=0) for _ in prog.instrs]
    run, whole = skeleton._straight_run(prog.instrs, profs, 0, len(prog.instrs))
    assert whole and len(run.body) == len(prog.instrs) - 1
    last = run.body[-1][0]
    loops = last.opcode == "BR_COND" and last.target == 0
    assert skeleton._loops(run) == loops
    got_log = []
    fn = skeleton._compile_run(run, prog, fake_access(got_log))
    assert fn is not None

    want = start.clone()
    want_log = []
    want_profs = {}
    want_taken = want_error = None
    want_walks = want_taken_walks = 0
    try:
        while True:
            for k, (ins, p) in enumerate(run.body):
                addr, _, want_taken = uisa.step(
                    want, prog, seq + want_walks * len(run.body) + k)
                if p is not None:
                    want_log.append(addr)
                    lat, level = addr % 7, LEVELS[addr % 4]
                    w = want_profs.setdefault(ins.index,
                                              skeleton.PcProfile(last_addr=0))
                    w.latency_sum += lat
                    w.l1_misses += level != "L1"
                    w.l2_misses += level in ("L3", "DRAM")
                    d = addr - w.last_addr
                    w.stride_votes[d] = w.stride_votes.get(d, 0) + 1
                    w.last_addr = addr
            want_walks += 1
            want_taken_walks += bool(want_taken)
            if not (loops and want_taken and want_walks < iterations):
                break
    except uisa.ExecError as e:
        want_error = str(e)

    got = start.clone()
    got_taken = got_error = None
    try:
        if loops:
            got_taken = fn(got, seq, seq + iterations * len(run.body))
        else:
            got_taken = fn(got, seq)
    except uisa.ExecError as e:
        got_error = str(e)
    assert got_error == want_error
    assert got == want
    assert got_log == want_log
    if want_error is None:
        if loops:
            assert got_taken == (want_walks, want_taken_walks)
        else:
            assert got_taken is want_taken
    for pc, p in enumerate(profs):
        assert asdict(p) == asdict(want_profs.get(pc, skeleton.PcProfile(last_addr=0)))


def test_select_seeds_all_alu(monkeypatch):
    prog = uisa.parse_program("""
        ADDI r1, r0, 10
    loop:
        ADDI r1, r1, -1
        BNEZ r1, loop
        HALT
    """)
    prof = skeleton.profile(prog)
    monkeypatch.setattr(skeleton, "BIAS_THRESHOLD", 1.1)    # converts none
    seeds = skeleton.select_seeds(prog, prof)
    assert seeds.l1_targets == frozenset()
    assert seeds.l2_targets == frozenset()
    assert 2 in seeds.control


def test_biased_branch_conversion(monkeypatch):
    # branch taken 999/1000 times clears a 0.99 threshold
    prog = uisa.gen_strided_loop(iters=1000)
    prof = skeleton.profile(prog)
    monkeypatch.setattr(skeleton, "BIAS_THRESHOLD", 0.99)
    seeds = skeleton.select_seeds(prog, prof)
    br = next(pc for pc, ins in enumerate(prog.instrs)
              if ins.opcode == "BR_COND")
    assert br in seeds.biased_branch_conversions
    assert br not in seeds.control


# -- versions and files -------------------------------------------------------

def test_versions_are_closed_fixpoints():
    prog = uisa.gen_pointer_chase(length=64, rounds=2)
    skel = skeleton.build(prog)
    reaching = skeleton.reaching_producers(prog)
    for m in skel.versions:
        again = skeleton.backward_closure(prog, set(m.bits), reaching,
                                          converted_branches=m.converted_branches)
        assert again.bits == m.bits


def test_version_recipes_relationships():
    prog = uisa.gen_pointer_chase(length=64, rounds=2)
    skel = skeleton.build(prog)
    v = skel.versions
    assert len(v) == 6
    assert v[1].bits == v[5].bits            # both are control + L2 targets
    assert v[1].bits <= v[0].bits            # dropping L1 targets shrinks
    assert v[0].bits <= v[2].bits            # adding reuse targets grows
    assert v[0].bits <= v[3].bits            # adding strided targets grows


@pytest.mark.parametrize("kind,params", GENERATOR_CASES)
def test_v5_is_v1_closed_once(kind, params):
    skel = skeleton.build(uisa.gen_workload(kind, params, seed=3))
    assert skel.versions[5] is skel.versions[1]


def test_s_bits_excluded_except_v3():
    prog = uisa.gen_strided_loop(stride=64, iters=2000)
    skel = skeleton.build(prog)
    assert skel.s_bits
    assert skel.s_bits <= skel.versions[3].bits
    # strided loads are offloaded to T1: the default version never walks them
    assert not (skel.s_bits & skel.versions[0].bits)


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "skel.json"
    for prog in (uisa.gen_branchy(iters=200, streams=2),            # none converted
                 uisa.gen_mixed_phases(phase_iters=300, outer=1)):  # a not-taken bias
        skel = skeleton.build(prog)
        skeleton.save_skeleton(skel, prog, path)
        again = skeleton.load_skeleton(path, prog)
        assert [m.bits for m in again.versions] == [m.bits for m in skel.versions]
        assert ([m.converted_branches for m in again.versions]
                == [m.converted_branches for m in skel.versions])
        assert again.s_bits == skel.s_bits
        assert again.bias_dirs == skel.bias_dirs
    assert False in again.bias_dirs.values()


def test_load_rejects_file_without_bias_dirs(tmp_path):
    prog = uisa.gen_branchy(iters=200, streams=2)
    path = tmp_path / "skel.json"
    skeleton.save_skeleton(skeleton.build(prog), prog, path)
    doc = json.loads(path.read_text())
    del doc["bias_dirs"]
    path.write_text(json.dumps(doc))
    with pytest.raises(uisa.UisaError, match="bias_dirs"):
        skeleton.load_skeleton(path, prog)


def test_load_rejects_a_negative_mask(tmp_path):
    # reading the bits of "-0x5" one shift at a time never reached zero
    prog = uisa.gen_branchy(iters=200, streams=2)
    path = tmp_path / "skel.json"
    skeleton.save_skeleton(skeleton.build(prog), prog, path)
    doc = json.loads(path.read_text())
    doc["versions"][2] = "-0x5"
    path.write_text(json.dumps(doc))
    with pytest.raises(uisa.UisaError, match="malformed: negative mask -0x5"):
        skeleton.load_skeleton(path, prog)


def test_skeleton_set_checks_its_contents():
    mask = skeleton.SkeletonMask(frozenset({0}))
    with pytest.raises(uisa.UisaError, match="versions"):
        skeleton.SkeletonSet(versions=[mask] * 5, s_bits=frozenset())
    conv = skeleton.SkeletonMask(frozenset({0}), converted_branches=frozenset({3}))
    with pytest.raises(uisa.UisaError, match="bias direction"):
        skeleton.SkeletonSet(versions=[mask] * 4 + [conv, mask], s_bits=frozenset())


def test_load_rejects_wrong_program(tmp_path):
    prog = uisa.gen_branchy(iters=200)
    other = uisa.gen_strided_loop(iters=50)
    path = tmp_path / "skel.json"
    skeleton.save_skeleton(skeleton.build(prog), prog, path)
    with pytest.raises(uisa.UisaError, match="does not match"):
        skeleton.load_skeleton(path, other)
