"""Random but well-formed ``uisa`` programs, the fuzz tests' input.

The same seed gives the same program: each draw of ``rng`` is made in a
fixed order.
"""

import random

from r3dla.uisa import _SUBOP_TO_ALU, _SUBOP_TO_ALUI, StaticInstr, StaticProgram


def random_program(rng: random.Random, n_instrs: int = 50) -> StaticProgram:
    """Random but well-formed program, for fuzzing and closure oracles.

    Control flow only moves forward except for bounded, counter-guarded
    backward loops, so every program terminates.
    """
    n = max(4, n_instrs)
    instrs: list[StaticInstr] = []
    fixups: list[tuple[int, int]] = []  # (instr index, forward gap)
    loop_regions: list[tuple[int, int]] = []  # (counter init, loop branch)

    def emit(**kw):
        instrs.append(StaticInstr(index=len(instrs), **kw))

    # r24 is a write-once memory base so effective addresses stay non-negative
    emit(opcode="ALUI", subop="add", dst=24, srcs=(0,), imm=0x1000)
    while len(instrs) < n - 1:
        roll = rng.random()
        if roll < 0.35:
            emit(opcode="ALUI", subop=rng.choice(list(_SUBOP_TO_ALUI)),
                 dst=rng.randrange(1, 16), srcs=(rng.randrange(16),),
                 imm=rng.randrange(-64, 64))
        elif roll < 0.55:
            sub = rng.choice(list(_SUBOP_TO_ALU) + ["mul"])
            emit(opcode="MUL" if sub == "mul" else "ALU", subop=sub,
                 dst=rng.randrange(1, 16),
                 srcs=(rng.randrange(16), rng.randrange(16)))
        elif roll < 0.70:
            emit(opcode="LOAD", dst=rng.randrange(1, 16),
                 mem_base=24, mem_offset=rng.randrange(0, 256, 8))
        elif roll < 0.80:
            emit(opcode="STORE", srcs=(rng.randrange(16),),
                 mem_base=24, mem_offset=rng.randrange(0, 256, 8))
        elif roll < 0.92:
            gap = rng.randrange(1, 6)
            fixups.append((len(instrs), gap))
            emit(opcode="BR_COND", subop=rng.choice(("eqz", "nez")),
                 srcs=(rng.randrange(16),), target=0)
        else:
            ctr = rng.randrange(16, 24)
            emit(opcode="ALUI", subop="add", dst=ctr, srcs=(0,),
                 imm=rng.randrange(1, 4))
            body_start = len(instrs)
            for _ in range(rng.randrange(1, 4)):
                emit(opcode="ALUI", subop="add", dst=rng.randrange(1, 16),
                     srcs=(rng.randrange(16),), imm=1)
            emit(opcode="ALUI", subop="add", dst=ctr, srcs=(ctr,), imm=-1)
            emit(opcode="BR_COND", subop="nez", srcs=(ctr,), target=body_start)
            loop_regions.append((body_start - 1, len(instrs) - 1))
    emit(opcode="HALT")
    last = len(instrs) - 1
    for idx, gap in fixups:
        tgt = min(idx + 1 + gap, last)
        # never jump past a loop's counter init: the loop would never exit
        for a, b in loop_regions:
            if a < tgt <= b:
                tgt = min(b + 1, last)
                break
        instrs[idx] = StaticInstr(index=idx, opcode="BR_COND",
                                  subop=instrs[idx].subop, srcs=instrs[idx].srcs,
                                  target=tgt)
    prog = StaticProgram(instrs=instrs)
    prog.validate()
    return prog
