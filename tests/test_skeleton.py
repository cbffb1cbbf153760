"""Skeleton tests: profiling, seed selection, backward closure vs an oracle."""

import json
import random
from dataclasses import asdict

import pytest

from r3dla import uisa, skeleton, memsys

from closure_oracle import oracle_closure
from reference import reference_profile


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
    # next access: none may stay behind in its cache's in-flight table
    made = []
    init = memsys.MemorySystem.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(memsys.MemorySystem, "__init__", capture)
    prog = uisa.gen_pointer_chase(length=1000, payload=1, filler=24, rounds=2)
    prof = skeleton.profile(prog)
    (mem,) = made
    assert sum(p.l1_misses for p in prof.values()) > 100
    assert mem.in_flight == {}
    assert mem.earliest_ready() is None


def _assert_profile_matches_reference(prog):
    got = skeleton.profile(prog)
    want = reference_profile(prog)
    assert got.keys() == want.keys()
    for pc, p in want.items():
        assert asdict(got[pc]) == asdict(p), pc
    assert skeleton.build(prog) == skeleton.gen_skeleton_versions(prog, want)


@pytest.mark.parametrize("kind,params", [
    ("strided_loop", {"stride": 8, "iters": 300}),
    ("pointer_chase", {"length": 200, "payload": 1, "filler": 4, "rounds": 2}),
    ("branchy", {"iters": 100, "streams": 2}),
    ("mixed_phases", {"outer": 1, "phase_iters": 300}),
])
def test_profile_matches_reference_on_generators(kind, params):
    _assert_profile_matches_reference(uisa.gen_workload(kind, params, seed=3))


def test_profile_matches_reference_on_random_programs():
    # stores, counted loops and registers read before any write
    rng = random.Random(23)
    for _ in range(50):
        _assert_profile_matches_reference(
            uisa.random_program(rng, rng.randrange(10, 120)))


def test_profile_matches_reference_at_train_limit(monkeypatch):
    monkeypatch.setattr(skeleton, "TRAIN_LIMIT", 700)
    for prog in (uisa.gen_strided_loop(stride=8, iters=1000),
                 uisa.gen_mixed_phases(outer=1, phase_iters=300, seed=2)):
        _assert_profile_matches_reference(prog)
        assert sum(p.exec_count for p in skeleton.profile(prog).values()) == 700


# the chase program's first run is pcs 0-36 (37 instructions, to the loop
# branch); every later one is the 34-instruction loop body from pc 3
RUN_CHASE = dict(length=50, payload=1, filler=24, rounds=2)


@pytest.mark.parametrize("limit", [1, 3, 10, 37, 38, 39, 60, 700])
def test_profile_matches_reference_when_train_limit_cuts_a_run(monkeypatch, limit):
    # inside the first run, at its end, inside the loop body's first visit,
    # and inside a later visit
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


def test_select_seeds_all_alu():
    prog = uisa.parse_program("""
        ADDI r1, r0, 10
    loop:
        ADDI r1, r1, -1
        BNEZ r1, loop
        HALT
    """)
    prof = skeleton.profile(prog)
    seeds = skeleton.select_seeds(prog, prof, bias_threshold=1.1)
    assert seeds.l1_targets == frozenset()
    assert seeds.l2_targets == frozenset()
    assert 2 in seeds.control


def test_biased_branch_conversion():
    # branch taken 999/1000 times clears the 0.999 default threshold
    prog = uisa.gen_strided_loop(iters=1000)
    prof = skeleton.profile(prog)
    seeds = skeleton.select_seeds(prog, prof, bias_threshold=0.99)
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


def test_skeleton_set_checks_its_contents():
    mask = skeleton.SkeletonMask(0, frozenset({0}))
    with pytest.raises(uisa.UisaError, match="versions"):
        skeleton.SkeletonSet(versions=[mask] * 5, s_bits=frozenset())
    conv = skeleton.SkeletonMask(4, frozenset({0}), converted_branches=frozenset({3}))
    with pytest.raises(uisa.UisaError, match="bias direction"):
        skeleton.SkeletonSet(versions=[mask] * 4 + [conv, mask], s_bits=frozenset())


def test_load_rejects_wrong_program(tmp_path):
    prog = uisa.gen_branchy(iters=200)
    other = uisa.gen_strided_loop(iters=50)
    path = tmp_path / "skel.json"
    skeleton.save_skeleton(skeleton.build(prog), prog, path)
    with pytest.raises(uisa.UisaError, match="does not match"):
        skeleton.load_skeleton(path, other)
