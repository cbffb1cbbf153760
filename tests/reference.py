"""Functional reference for the engine's commit log, shared by the tests."""

from r3dla import uisa


def reference_trace(program, limit):
    """(pc, eff_addr, value, taken) per instruction run before HALT, at most limit."""
    state = uisa.ArchState.initial(program)
    trace = []
    for seq in range(limit):
        pc = state.pc
        if program.instrs[pc].opcode == "HALT":
            break
        trace.append((pc, *uisa.step(state, program, seq)))
    return trace
