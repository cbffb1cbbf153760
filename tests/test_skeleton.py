"""Skeleton tests: profiling, seed selection, backward closure vs an oracle."""

import json
import random

import pytest

from r3dla import uisa, skeleton

from closure_oracle import oracle_closure


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
    assert all(p.l1_miss_rate == 0.0 for p in prof.per_pc.values())
    assert not prof.partial


def test_profile_branch_bias():
    prog = uisa.gen_strided_loop(iters=1000)
    prof = skeleton.profile(prog)
    br = next(pc for pc, ins in enumerate(prog.instrs)
              if ins.opcode == "BR_COND")
    assert prof.per_pc[br].branch_bias == pytest.approx(0.999)
    assert prof.per_pc[br].backward_taken


def test_profile_detects_stride():
    prog = uisa.gen_strided_loop(stride=64, iters=500)
    prof = skeleton.profile(prog)
    load_pc = next(i for i, ins in enumerate(prog.instrs) if ins.opcode == "LOAD")
    assert prof.per_pc[load_pc].detected_stride() == 64
    assert load_pc in prof.strided_pcs()


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
