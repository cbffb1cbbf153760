"""Micro-ISA tests: assembler round-trip, interpreter semantics, generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from r3dla import uisa

from random_programs import random_program
from reference import reference_trace


def run(text, limit=1000):
    return reference_trace(uisa.parse_program(text), limit)


def loads(prog, trace):
    return [ev for ev in trace if prog.instrs[ev[0]].opcode == "LOAD"]


# -- assembler ---------------------------------------------------------------

def test_parse_simple():
    prog = uisa.parse_program("ADDI r1, r0, 5\nHALT\n")
    assert len(prog.instrs) == 2
    assert prog.instrs[0].opcode == "ALUI"
    assert prog.instrs[0].dst == 1
    assert prog.instrs[0].imm == 5
    assert prog.instrs[1].opcode == "HALT"


def test_parse_empty_is_error():
    with pytest.raises(uisa.ParseError, match="empty program"):
        uisa.parse_program("   \n# just a comment\n")


def test_parse_labels_and_memref():
    prog = uisa.parse_program("""
        loop: LOAD r1, 8(r2)
        STORE r1, 0(r3)
        BNEZ r1, loop
        HALT
    """)
    assert prog.instrs[0].mem_base == 2
    assert prog.instrs[0].mem_offset == 8
    assert prog.instrs[2].target == 0


def test_parse_errors():
    with pytest.raises(uisa.ParseError):
        uisa.parse_program("ADDI r99, r0, 1\nHALT\n")   # reg out of range
    with pytest.raises(uisa.ParseError):
        uisa.parse_program("FROB r1, r2\nHALT\n")        # unknown mnemonic
    with pytest.raises(uisa.ParseError):
        uisa.parse_program("ADDI r1\nHALT\n")            # missing operands
    with pytest.raises(uisa.ParseError, match="duplicate"):
        uisa.parse_program("x: ADDI r1, r0, 1\nx: HALT\n")
    # each error names the line it is on
    for line, error in [
        ("ADDI x1, r0, 1", "expected register, got 'x1'"),
        ("ADDI rx, r0, 1", "bad register 'rx'"),
        ("ADDI r1, r0, abc", "expected integer, got 'abc'"),
        ("LOAD r1, 8", "expected off(reg), got '8'"),
        ("1x: HALT", "bad label '1x'"),
        (".data 5", ".data needs ADDR VALUE"),
    ]:
        with pytest.raises(uisa.ParseError) as e:
            uisa.parse_program(f"ADDI r1, r0, 1\n{line}\nHALT\n")
        assert str(e.value) == f"line 2: {error}"
        assert e.value.line_no == 2


def test_validate_dangling_target():
    ins = [uisa.StaticInstr(0, "BR_UNCOND", target=99),
           uisa.StaticInstr(1, "HALT")]
    with pytest.raises(uisa.UisaError, match="dangling"):
        uisa.StaticProgram(instrs=ins).validate()


@pytest.mark.parametrize("ins, error", [
    (uisa.StaticInstr(1, "FOO"), "instr 1: unknown opcode 'FOO'"),
    (uisa.StaticInstr(1, "ALU", "nand", dst=1, srcs=(0, 0)),
     "instr 1: ALU takes a subop in ['add', 'and', 'or', 'sub', 'xor'], "
     "got 'nand'"),
    (uisa.StaticInstr(1, "BR_COND", "le", srcs=(0, 0), target=2),
     "instr 1: BR_COND takes a subop in ['eqz', 'ge', 'lt', 'nez'], got 'le'"),
    (uisa.StaticInstr(1, "MUL", "add", dst=1, srcs=(0, 0)),
     "instr 1: MUL takes a subop in ['mul'], got 'add'"),
    (uisa.StaticInstr(1, "LOAD", "add", dst=1, mem_base=0),
     "instr 1: LOAD takes no subop, got 'add'"),
])
def test_validate_refuses_what_the_isa_does_not_define(ins, error):
    """An opcode or subop outside the ISA table is named before a run."""
    prog = uisa.StaticProgram([uisa.StaticInstr(0, "ALUI", "add", dst=2,
                                                srcs=(0,), imm=1),
                               ins, uisa.StaticInstr(2, "HALT")])
    with pytest.raises(uisa.UisaError) as err:
        prog.validate()
    assert str(err.value) == error


@pytest.mark.parametrize("text, pc, op", [
    ("BEQZ r0, L2\nHALT\nL2: ADDI r1, r0, 1\n", 2, "ALUI"),   # taken path
    ("JMP L3\nHALT\nF: RET\nL3: CALL F\n", 3, "CALL"),     # its return
])
def test_validate_rejects_a_path_past_the_last_instruction(text, pc, op):
    """A reachable path that runs off the end is named, not left to fail
    later with an IndexError in the profiler or the engine."""
    with pytest.raises(uisa.UisaError,
                       match=rf"instr {pc} \({op}\): control runs past the end"):
        uisa.parse_program(text)


def test_validate_rejects_entry_outside_program():
    prog = uisa.StaticProgram(instrs=[uisa.StaticInstr(0, "HALT")], entry=1)
    with pytest.raises(uisa.UisaError, match="entry 1 is outside"):
        prog.validate()


def test_generated_programs_validate():
    for seed in range(100):
        rng = random.Random(seed)
        random_program(rng, n_instrs=rng.randrange(4, 120)).validate()
    for kind in uisa._GENERATORS:
        uisa.gen_workload(kind, seed=1).validate()


def test_print_parse_round_trip_generators():
    progs = [
        uisa.gen_strided_loop(stride=64, iters=10),
        uisa.gen_pointer_chase(length=16, rounds=2, payload=1, filler=3),
        uisa.gen_branchy(iters=10, streams=3),
        uisa.gen_mixed_phases(phase_iters=5, outer=2),
        # no generator emits JMP, CALL or RET
        uisa.parse_program("CALL f\nJMP end\nf: ADDI r1, r1, 1\nRET\n"
                           "end: HALT\n"),
    ]
    for p in progs:
        text = uisa.print_program(p)
        again = uisa.parse_program(text)
        assert again.instrs == p.instrs
        # .data lines must survive too
        assert again.init_mem == p.init_mem


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(8, 120))
def test_print_parse_round_trip_random(seed, n):
    prog = random_program(random.Random(seed), n)
    again = uisa.parse_program(uisa.print_program(prog))
    assert again.instrs == prog.instrs


# -- interpreter -------------------------------------------------------------

def test_alui_semantics():
    tr = run("ADDI r1, r0, 5\nSUBI r2, r1, 7\nHALT\n")
    assert [value for _, _, value, _ in tr] == [5, -2]


def test_branch_taken_on_zero():
    tr = run("BEQZ r1, 2\nADDI r2, r0, 1\nHALT\n")
    assert tr == [(0, None, None, True)]    # the ADDI was jumped over


def test_blt_bge():
    tr = run("ADDI r1, r0, -3\nBLT r1, r0, 3\nADDI r2, r0, 9\nHALT\n")
    assert tr[1] == (1, None, None, True)


def test_signed_wraparound():
    # (2^63 - 1) + 1 wraps to the most negative value
    tr = run(f"ADDI r1, r0, {2**63 - 1}\nADDI r1, r1, 1\nHALT\n")
    assert tr[1][2] == -(2 ** 63)


def test_unknown_alu_subop_is_error():
    prog = uisa.StaticProgram(instrs=[
        uisa.StaticInstr(0, "ALU", "nand", dst=1, srcs=(0, 0)),
        uisa.StaticInstr(1, "HALT")])
    with pytest.raises(uisa.UisaError, match="unknown alu subop 'nand'"):
        uisa.step(uisa.ArchState.initial(prog), prog)


def test_step_returns_addr_value_taken():
    prog = uisa.parse_program(
        "ADDI r1, r0, 64\nSTORE r1, 8(r1)\nLOAD r2, 8(r1)\nBNEZ r2, 5\n"
        "JMP 5\nHALT\n")
    state = uisa.ArchState.initial(prog)
    got = [uisa.step(state, prog) for _ in range(4)]
    assert got == [(None, 64, None), (72, 64, None), (72, 64, None),
                   (None, None, True)]
    assert [ins.reads for ins in prog.instrs[:4]] == [
        (0,), (1, 1), (1,), (2,)]


def test_load_store_memory():
    tr = run("""
        ADDI r1, r0, 0x100
        ADDI r2, r0, 77
        STORE r2, 8(r1)
        LOAD r3, 8(r1)
        HALT
    """)
    assert tr[2] == (2, 0x108, 77, None)
    assert tr[3] == (3, 0x108, 77, None)


def test_uninitialized_memory_reads_zero():
    tr = run("ADDI r1, r0, 0x100\nLOAD r2, 0(r1)\nHALT\n")
    assert tr[1] == (1, 0x100, 0, None)


def test_data_directive_seeds_memory():
    tr = run(".data 0x200 123\nADDI r1, r0, 0x200\nLOAD r2, 0(r1)\nHALT\n")
    assert tr[-1] == (1, 0x200, 123, None)


def test_negative_address_is_exec_error():
    prog = uisa.parse_program("ADDI r1, r0, -8\nLOAD r2, 0(r1)\nHALT\n")
    state = uisa.ArchState.initial(prog)
    uisa.step(state, prog)
    with pytest.raises(uisa.ExecError):
        uisa.step(state, prog)


def test_call_ret():
    tr = run("""
        CALL f
        HALT
        f: ADDI r1, r0, 1
        RET
    """)
    # the RET goes back to the HALT at 1; any other target runs on
    assert [pc for pc, *_ in tr] == [0, 2, 3]


def test_ret_without_call_is_error():
    prog = uisa.parse_program("CALL f\nHALT\nf: RET\n")
    state = uisa.ArchState.initial(prog)
    state.pc = 2                # jump straight to the RET, stack still empty
    with pytest.raises(uisa.ExecError, match="empty call stack"):
        uisa.step(state, prog)


# -- the compiled-run emitter --------------------------------------------------

REG = st.integers(0, 3)
# small addresses, 64-bit extremes, and values past 64 bits (a LOAD of a
# .data word can put one in a register)
VALUE = st.one_of(st.integers(-20, 300),
                  st.sampled_from([uisa.SIGN_BIT - 1, -uisa.SIGN_BIT,
                                   uisa.SIGN_BIT >> 1, uisa.WORD_MASK]),
                  st.integers(-2**70, 2**70))


@st.composite
def one_instruction(draw):
    """Every opcode and subop ``instr_source`` compiles, at pc 1."""
    op = draw(st.sampled_from(("ALUI", "ALU", "MUL", "LOAD", "STORE", "BR_COND",
                               "BR_UNCOND", "CALL", "RET")))
    if op == "ALUI":
        return uisa.StaticInstr(1, op, draw(st.sampled_from(list(uisa._SUBOP_TO_ALUI))),
                                dst=draw(REG), srcs=(draw(REG),), imm=draw(VALUE))
    if op in ("ALU", "MUL"):
        sub = "mul" if op == "MUL" else draw(st.sampled_from(list(uisa._SUBOP_TO_ALU)))
        return uisa.StaticInstr(1, op, sub, dst=draw(REG), srcs=(draw(REG), draw(REG)))
    if op == "LOAD":
        return uisa.StaticInstr(1, op, dst=draw(REG), mem_base=draw(REG),
                                mem_offset=draw(st.integers(-16, 16)))
    if op == "STORE":
        return uisa.StaticInstr(1, op, srcs=(draw(REG),), mem_base=draw(REG),
                                mem_offset=draw(st.integers(-16, 16)))
    if op == "BR_COND":
        cond = draw(st.sampled_from(list(uisa._SUBOP_TO_COND)))
        srcs = (draw(REG),) if cond in ("eqz", "nez") else (draw(REG), draw(REG))
        return uisa.StaticInstr(1, op, cond, srcs=srcs, target=draw(st.integers(0, 2)))
    target = None if op == "RET" else draw(st.integers(0, 2))
    return uisa.StaticInstr(1, op, target=target)


@settings(max_examples=400, deadline=None)
@given(one_instruction(), st.lists(VALUE, min_size=4, max_size=4),
       st.dictionaries(st.integers(0, 320), VALUE, max_size=4),
       st.lists(st.integers(0, 2), max_size=2))
def test_instr_source_matches_step(ins, regs, memory, call_stack):
    """The source ``instr_source`` writes for one instruction leaves the
    state ``uisa.step`` leaves and names the address, value and direction
    ``step`` returns (with the 64-bit wrap), and the word a STORE
    overwrote.  Where ``step`` faults, the source runs its ``fault`` lines
    with the state untouched; lines that call ``step`` there raise the
    interpreter's own error."""
    prog = uisa.StaticProgram([uisa.StaticInstr(0, "HALT"), ins,
                               uisa.StaticInstr(2, "HALT")])
    start = uisa.ArchState(regs=regs + [0] * (uisa.NUM_REGS - 4), pc=1,
                           memory=memory, call_stack=call_stack)
    op = ins.opcode
    names = {"ALUI": ("None", "v0"), "ALU": ("None", "v0"), "MUL": ("None", "v0"),
             "LOAD": ("a0", "v0"), "STORE": ("a0", "v0")}.get(op, ("None", "None"))
    taken = "t0" if op == "BR_COND" else "None"
    old = "o0" if op == "STORE" else "'none'"

    def compiled(fault):
        lines = uisa.instr_source(ins, 0, fault, keep_old=True)
        assert lines is not None
        if not ins.is_control:
            lines.append("state.pc = 2")
        lines.append(f"return ({names[0]}, {names[1]}, {taken}), {old}")
        return uisa.build_function("state", ["r = state.regs", "m = state.memory",
                                             *lines],
                                   {"step": uisa.step, "program": prog}, "<test>")

    want = start.clone()
    try:
        want_out = uisa.step(want, prog, 7)
        want_error = None
    except uisa.ExecError as e:
        want_error = str(e)
    got = start.clone()
    out = compiled(["return 'fault', None"])(got)
    if want_error is not None:
        assert out == ("fault", None) and got == start
        with pytest.raises(uisa.ExecError) as raised:
            compiled(["step(state, program, 7)"])(start.clone())
        assert str(raised.value) == want_error
        return
    assert got == want
    assert out[0] == want_out and type(out[0][2]) is type(want_out[2])
    if op == "STORE":
        assert out[1] == start.memory.get(want_out[0])



def test_instr_source_refuses_halt():
    """HALT ends every run before it, so it has no source form; asking for
    one names its pc."""
    with pytest.raises(uisa.UisaError, match="^instr 3: HALT has no source form"):
        uisa.instr_source(uisa.StaticInstr(3, "HALT"), 0, ["raise AssertionError"])

# -- workload generators -----------------------------------------------------

def test_strided_loop_addresses():
    prog = uisa.gen_strided_loop(stride=64, iters=100)
    addrs = [addr for _, addr, _, _ in loads(prog, reference_trace(prog, 10_000))]
    assert len(addrs) == 100
    assert all(b - a == 64 for a, b in zip(addrs, addrs[1:]))


def test_pointer_chase_follows_pointers():
    prog = uisa.gen_pointer_chase(length=50, seed=3)
    chase = loads(prog, reference_trace(prog, 10_000))
    for prev, cur in zip(chase, chase[1:]):
        assert cur[1] == prev[2]    # each address is the previous value


def test_pointer_chase_rounds_are_circular():
    prog = uisa.gen_pointer_chase(length=10, rounds=3)
    chase = loads(prog, reference_trace(prog, 10_000))
    assert len(chase) == 30
    assert chase[0][1] == chase[10][1]


def test_generator_determinism():
    a = uisa.gen_branchy(iters=20, streams=2, seed=9)
    b = uisa.gen_branchy(iters=20, streams=2, seed=9)
    assert a == b
    c = uisa.gen_branchy(iters=20, streams=2, seed=10)
    assert a != c


def test_gen_workload_dispatch():
    p = uisa.gen_workload("strided_loop", {"stride": 8, "iters": 5})
    assert p == uisa.gen_strided_loop(stride=8, iters=5)
    assert p != uisa.gen_strided_loop(stride=16, iters=5)
    with pytest.raises(uisa.UisaError, match="unknown workload"):
        uisa.gen_workload("nope")
    # one seed: a seed among the params would beat the seed argument
    with pytest.raises(uisa.UisaError, match="seed argument"):
        uisa.gen_workload("branchy", {"iters": 5, "seed": 3}, seed=4)


@pytest.mark.parametrize("kind, params", [
    ("strided_loop", {"base": -8}),
    ("strided_loop", {"base": 64, "stride": -8, "iters": 10}),
    ("pointer_chase", {"base": 640, "node_spread": -64, "length": 20}),
    ("pointer_chase", {"payload_base": -64, "length": 20}),
    ("pointer_chase", {"payload_lines": 0, "length": 20}),
    ("mixed_phases", {"stride": -64, "phase_iters": 2000}),
])
def test_generators_refuse_negative_addresses(kind, params):
    # each of these would make the program load from a negative address
    with pytest.raises(uisa.UisaError, match=kind):
        uisa.gen_workload(kind, params)


@pytest.mark.parametrize("rounds", [0, -1])
def test_pointer_chase_refuses_fewer_than_one_round(rounds):
    # its loop counter would start at or below zero and never reach it, so
    # the program would run until the caller's limit
    with pytest.raises(uisa.UisaError, match="rounds"):
        uisa.gen_pointer_chase(length=20, rounds=rounds)


def test_mixed_phases_runs_to_halt():
    prog = uisa.gen_mixed_phases(phase_iters=20, outer=2)
    tr = reference_trace(prog, 100_000)
    assert len(tr) < 100_000   # reached HALT
    kinds = {prog.instrs[pc].opcode for pc, *_ in tr}
    assert "LOAD" in kinds and "BR_COND" in kinds


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_programs_terminate(seed):
    prog = random_program(random.Random(seed), 60)
    tr = reference_trace(prog, 200_000)
    assert len(tr) < 200_000   # always reaches HALT
