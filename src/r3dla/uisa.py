"""Micro-ISA: static program representation, assembler, interpreter, workloads.

The ISA is deliberately tiny: 10 opcodes, 64 integer registers, word-granular
sparse memory initialized to zero.  It exists to give the rest of the
simulator exact register/memory dependence edges and branch structure without
any real-binary parsing.

Opcode table (normative):

    mnemonic            opcode      semantics
    ------------------  ----------  ------------------------------------------
    ADDI/SUBI/ANDI/
    ORI/XORI rd,rs,imm  ALUI        rd = rs <op> imm
    ADD/SUB/AND/OR/XOR
    rd,rs1,rs2          ALU         rd = rs1 <op> rs2
    MUL rd,rs1,rs2      MUL         rd = rs1 * rs2
    LOAD rd,off(rb)     LOAD        rd = mem[rb + off]
    STORE rs,off(rb)    STORE       mem[rb + off] = rs
    BEQZ rs,T           BR_COND     taken iff rs == 0
    BNEZ rs,T           BR_COND     taken iff rs != 0
    BLT rs1,rs2,T       BR_COND     taken iff rs1 < rs2
    BGE rs1,rs2,T       BR_COND     taken iff rs1 >= rs2
    JMP T               BR_UNCOND   pc = T
    CALL T              CALL        push pc+1, pc = T
    RET                 RET         pc = pop
    HALT                HALT        stop

All values wrap to signed 64-bit.  Assembly is line oriented: one instruction
per line, labels as ``name:``, comments with ``#``, and ``.data ADDR VALUE``
lines pre-seeding memory.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field

NUM_REGS = 64
WORD_MASK = (1 << 64) - 1
SIGN_BIT = 1 << 63

# mnemonic -> (opcode, subop)
_ALUI_OPS = {"ADDI": "add", "SUBI": "sub", "ANDI": "and", "ORI": "or", "XORI": "xor"}
_ALU_OPS = {"ADD": "add", "SUB": "sub", "AND": "and", "OR": "or", "XOR": "xor"}
_COND_OPS = {"BEQZ": "eqz", "BNEZ": "nez", "BLT": "lt", "BGE": "ge"}

_SUBOP_TO_ALUI = {v: k for k, v in _ALUI_OPS.items()}
_SUBOP_TO_ALU = {v: k for k, v in _ALU_OPS.items()}
_SUBOP_TO_COND = {v: k for k, v in _COND_OPS.items()}


class UisaError(Exception):
    pass


class ParseError(UisaError):
    def __init__(self, line_no, msg):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


class ExecError(UisaError):
    pass


_ALU_FNS = {"add": operator.add, "sub": operator.sub, "and": operator.and_,
            "or": operator.or_, "xor": operator.xor, "mul": operator.mul}


@dataclass(frozen=True)
class StaticInstr:
    index: int
    opcode: str
    subop: str | None = None          # alu function or branch condition
    dst: int | None = None
    srcs: tuple[int, ...] = ()
    imm: int | None = None
    target: int | None = None
    mem_base: int | None = None
    mem_offset: int = 0
    # derived from the fields above in __post_init__
    reads: tuple[int, ...] = field(init=False, repr=False, compare=False)
    is_control: bool = field(init=False, repr=False, compare=False)
    is_mem: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Set ``reads`` (sources plus address base), ``is_control`` and ``is_mem``."""
        is_mem = self.opcode in ("LOAD", "STORE")
        reads = self.srcs
        if is_mem and self.mem_base is not None:
            reads = (*reads, self.mem_base)
        object.__setattr__(self, "reads", reads)
        object.__setattr__(self, "is_control",
                           self.opcode in ("BR_COND", "BR_UNCOND", "CALL", "RET"))
        object.__setattr__(self, "is_mem", is_mem)


# the subops each opcode may carry: ALU functions, branch conditions, or none
_SUBOPS = {"ALUI": frozenset(_SUBOP_TO_ALUI), "ALU": frozenset(_SUBOP_TO_ALU),
           "MUL": frozenset({"mul"}), "BR_COND": frozenset(_SUBOP_TO_COND),
           **dict.fromkeys(("LOAD", "STORE", "BR_UNCOND", "CALL", "RET", "HALT"),
                           frozenset({None}))}


@dataclass
class StaticProgram:
    instrs: list[StaticInstr]
    entry: int = 0
    init_mem: dict[int, int] = field(default_factory=dict)

    def validate(self) -> None:
        n = len(self.instrs)
        if n == 0:
            raise UisaError("empty program")
        for ins in self.instrs:
            subops = _SUBOPS.get(ins.opcode)
            if subops is None:
                raise UisaError(f"instr {ins.index}: unknown opcode {ins.opcode!r}")
            if ins.subop not in subops:
                want = ("no subop" if None in subops
                        else f"a subop in {sorted(subops)}")
                raise UisaError(f"instr {ins.index}: {ins.opcode} takes {want}, "
                                f"got {ins.subop!r}")
            if ins.opcode in ("BR_COND", "BR_UNCOND", "CALL"):
                if ins.target is None or not (0 <= ins.target < n):
                    raise UisaError(f"instr {ins.index}: dangling branch target")
            if ins.opcode in ("LOAD", "STORE") and ins.mem_base is None:
                raise UisaError(f"instr {ins.index}: memory op without base register")
            if ins.opcode in ("ALU", "ALUI", "MUL") and ins.dst is None:
                raise UisaError(f"instr {ins.index}: alu op without destination")
        if self._count_reachable_halts() != 1:
            raise UisaError("program must have exactly one reachable HALT")

    def _count_reachable_halts(self) -> int:
        """Count the HALTs reachable from ``entry``; raise ``UisaError`` if a
        reachable instruction falls through past the last one."""
        n = len(self.instrs)
        if not 0 <= self.entry < n:
            raise UisaError(f"entry {self.entry} is outside the program")
        seen = set()
        stack = [self.entry]
        halts = 0
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            ins = self.instrs[i]
            op = ins.opcode
            if op == "HALT":
                halts += 1
                continue
            if op in ("BR_UNCOND", "BR_COND", "CALL"):
                stack.append(ins.target)    # validate checked it is in range
            # RET has no successor here: return edges are the CALL
            # fall-throughs
            if op in ("BR_UNCOND", "RET"):
                continue
            if i + 1 == n:
                raise UisaError(f"instr {i} ({op}): control runs past the "
                                f"end of the program")
            stack.append(i + 1)
        return halts


@dataclass
class ArchState:
    regs: list[int]
    pc: int
    memory: dict[int, int]
    call_stack: list[int]

    @classmethod
    def initial(cls, program: StaticProgram) -> "ArchState":
        return cls(regs=[0] * NUM_REGS, pc=program.entry,
                   memory=dict(program.init_mem), call_stack=[])

    def clone(self) -> "ArchState":
        return ArchState(regs=list(self.regs), pc=self.pc,
                         memory=dict(self.memory), call_stack=list(self.call_stack))


# ---------------------------------------------------------------------------
# assembler / printer

def _parse_reg(tok: str, line_no: int) -> int:
    tok = tok.strip()
    if not tok.startswith("r"):
        raise ParseError(line_no, f"expected register, got {tok!r}")
    try:
        n = int(tok[1:])
    except ValueError:
        raise ParseError(line_no, f"bad register {tok!r}") from None
    if not (0 <= n < NUM_REGS):
        raise ParseError(line_no, f"register id out of range: {tok}")
    return n


def _parse_int(tok: str, line_no: int) -> int:
    try:
        return int(tok.strip(), 0)
    except ValueError:
        raise ParseError(line_no, f"expected integer, got {tok.strip()!r}") from None


def _parse_memref(tok: str, line_no: int) -> tuple[int, int]:
    tok = tok.strip()
    if not tok.endswith(")") or "(" not in tok:
        raise ParseError(line_no, f"expected off(reg), got {tok!r}")
    off_s, base_s = tok[:-1].split("(", 1)
    off = _parse_int(off_s or "0", line_no)
    return _parse_reg(base_s, line_no), off


def parse_program(text: str) -> StaticProgram:
    """Assemble a line-oriented listing into a StaticProgram."""
    labels: dict[str, int] = {}
    pending: list[tuple[int, str, list[str]]] = []  # (line_no, mnemonic, operands)
    init_mem: dict[int, int] = {}

    idx = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        while ":" in line:
            label, line = line.split(":", 1)
            label = label.strip()
            if not label.isidentifier():
                raise ParseError(line_no, f"bad label {label!r}")
            if label in labels:
                raise ParseError(line_no, f"duplicate label {label!r}")
            labels[label] = idx
            line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnem = parts[0].upper()
        ops = [o.strip() for o in parts[1].split(",")] if len(parts) > 1 else []
        if mnem == ".DATA":
            toks = parts[1].split() if len(parts) > 1 else []
            if len(toks) != 2:
                raise ParseError(line_no, ".data needs ADDR VALUE")
            init_mem[_parse_int(toks[0], line_no)] = _parse_int(toks[1], line_no)
            continue
        pending.append((line_no, mnem, ops))
        idx += 1

    if not pending:
        raise ParseError(0, "empty program")

    def resolve(tok: str, line_no: int) -> int:
        tok = tok.strip()
        if tok in labels:
            return labels[tok]
        return _parse_int(tok, line_no)

    instrs: list[StaticInstr] = []
    for i, (line_no, mnem, ops) in enumerate(pending):
        try:
            if mnem in _ALUI_OPS:
                instrs.append(StaticInstr(i, "ALUI", _ALUI_OPS[mnem],
                                          dst=_parse_reg(ops[0], line_no),
                                          srcs=(_parse_reg(ops[1], line_no),),
                                          imm=_parse_int(ops[2], line_no)))
            elif mnem in _ALU_OPS:
                instrs.append(StaticInstr(i, "ALU", _ALU_OPS[mnem],
                                          dst=_parse_reg(ops[0], line_no),
                                          srcs=(_parse_reg(ops[1], line_no),
                                                _parse_reg(ops[2], line_no))))
            elif mnem == "MUL":
                instrs.append(StaticInstr(i, "MUL", "mul",
                                          dst=_parse_reg(ops[0], line_no),
                                          srcs=(_parse_reg(ops[1], line_no),
                                                _parse_reg(ops[2], line_no))))
            elif mnem == "LOAD":
                base, off = _parse_memref(ops[1], line_no)
                instrs.append(StaticInstr(i, "LOAD", dst=_parse_reg(ops[0], line_no),
                                          mem_base=base, mem_offset=off))
            elif mnem == "STORE":
                base, off = _parse_memref(ops[1], line_no)
                instrs.append(StaticInstr(i, "STORE",
                                          srcs=(_parse_reg(ops[0], line_no),),
                                          mem_base=base, mem_offset=off))
            elif mnem in ("BEQZ", "BNEZ"):
                instrs.append(StaticInstr(i, "BR_COND", _COND_OPS[mnem],
                                          srcs=(_parse_reg(ops[0], line_no),),
                                          target=resolve(ops[1], line_no)))
            elif mnem in ("BLT", "BGE"):
                instrs.append(StaticInstr(i, "BR_COND", _COND_OPS[mnem],
                                          srcs=(_parse_reg(ops[0], line_no),
                                                _parse_reg(ops[1], line_no)),
                                          target=resolve(ops[2], line_no)))
            elif mnem == "JMP":
                instrs.append(StaticInstr(i, "BR_UNCOND", target=resolve(ops[0], line_no)))
            elif mnem == "CALL":
                instrs.append(StaticInstr(i, "CALL", target=resolve(ops[0], line_no)))
            elif mnem == "RET":
                instrs.append(StaticInstr(i, "RET"))
            elif mnem == "HALT":
                instrs.append(StaticInstr(i, "HALT"))
            else:
                raise ParseError(line_no, f"unknown mnemonic {mnem!r}")
        except IndexError:
            raise ParseError(line_no, f"missing operand for {mnem}") from None

    prog = StaticProgram(instrs=instrs, init_mem=init_mem)
    prog.validate()
    return prog


def print_program(program: StaticProgram) -> str:
    """Canonical assembly for a program; parse(print(p)) == p."""
    lines = []
    for addr in sorted(program.init_mem):
        lines.append(f".data {addr} {program.init_mem[addr]}")
    targets = {ins.target for ins in program.instrs if ins.target is not None}
    for ins in program.instrs:
        prefix = f"L{ins.index}: " if ins.index in targets else ""
        if ins.opcode == "ALUI":
            body = f"{_SUBOP_TO_ALUI[ins.subop]} r{ins.dst}, r{ins.srcs[0]}, {ins.imm}"
        elif ins.opcode == "ALU":
            body = f"{_SUBOP_TO_ALU[ins.subop]} r{ins.dst}, r{ins.srcs[0]}, r{ins.srcs[1]}"
        elif ins.opcode == "MUL":
            body = f"MUL r{ins.dst}, r{ins.srcs[0]}, r{ins.srcs[1]}"
        elif ins.opcode == "LOAD":
            body = f"LOAD r{ins.dst}, {ins.mem_offset}(r{ins.mem_base})"
        elif ins.opcode == "STORE":
            body = f"STORE r{ins.srcs[0]}, {ins.mem_offset}(r{ins.mem_base})"
        elif ins.opcode == "BR_COND":
            mnem = _SUBOP_TO_COND[ins.subop]
            regs = ", ".join(f"r{s}" for s in ins.srcs)
            body = f"{mnem} {regs}, L{ins.target}"
        elif ins.opcode == "BR_UNCOND":
            body = f"JMP L{ins.target}"
        elif ins.opcode == "CALL":
            body = f"CALL L{ins.target}"
        else:
            body = ins.opcode
        lines.append(prefix + body)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# interpreter

def step(state: ArchState, program: StaticProgram,
         seq: int = 0) -> tuple[int | None, int | None, bool | None]:
    """Execute one instruction; mutates state.

    Returns ``(eff_addr, value, taken)``: the address of a LOAD or STORE, the
    value an ALU op or LOAD wrote or a STORE stored, and a conditional
    branch's direction; None where a field does not apply.  ``seq`` only
    labels errors.
    """
    pc = state.pc
    ins = program.instrs[pc]
    op = ins.opcode
    regs = state.regs
    if op == "ALUI" or op == "ALU" or op == "MUL":
        srcs = ins.srcs
        try:
            fn = _ALU_FNS[ins.subop]
        except KeyError:
            raise UisaError(f"unknown alu subop {ins.subop!r}") from None
        val = fn(regs[srcs[0]], ins.imm if op == "ALUI" else regs[srcs[1]]) & WORD_MASK
        if val & SIGN_BIT:      # wrap to signed 64-bit
            val -= 1 << 64
        regs[ins.dst] = val
        state.pc = pc + 1
        return None, val, None
    if op == "LOAD":
        addr = regs[ins.mem_base] + ins.mem_offset
        if addr < 0:
            raise ExecError(f"seq {seq}: load from negative address {addr}")
        val = state.memory.get(addr, 0)
        regs[ins.dst] = val
        state.pc = pc + 1
        return addr, val, None
    if op == "STORE":
        addr = regs[ins.mem_base] + ins.mem_offset
        if addr < 0:
            raise ExecError(f"seq {seq}: store to negative address {addr}")
        val = regs[ins.srcs[0]]
        state.memory[addr] = val
        state.pc = pc + 1
        return addr, val, None
    if op == "BR_COND":
        c = ins.subop
        if c == "eqz":
            taken = regs[ins.srcs[0]] == 0
        elif c == "nez":
            taken = regs[ins.srcs[0]] != 0
        elif c == "lt":
            taken = regs[ins.srcs[0]] < regs[ins.srcs[1]]
        elif c == "ge":
            taken = regs[ins.srcs[0]] >= regs[ins.srcs[1]]
        else:
            raise UisaError(f"unknown branch condition {c!r}")
        state.pc = ins.target if taken else pc + 1
        return None, None, taken
    if op == "BR_UNCOND":
        state.pc = ins.target
        return None, None, None
    if op == "CALL":
        state.call_stack.append(pc + 1)
        state.pc = ins.target
        return None, None, None
    if op == "RET":
        if not state.call_stack:
            raise ExecError(f"seq {seq}: RET with empty call stack")
        state.pc = state.call_stack.pop()
        return None, None, None
    if op == "HALT":
        raise ExecError(f"seq {seq}: step on HALT")
    raise UisaError(f"unknown opcode {op!r}")


# ---------------------------------------------------------------------------
# compiled straight-line runs
#
# A hot straight-line run can be turned into one generated Python function
# that does the work of ``step`` on each of its instructions without a call
# and an opcode dispatch per instruction.  ``instr_source`` is the one place
# that writes ``step``'s semantics as source; the skeleton profile and the
# engine's two streams each add what they keep per instruction around it.

# the Python source of each ALU subop and branch condition
_ALU_SRC = {"add": "+", "sub": "-", "and": "&", "or": "|", "xor": "^", "mul": "*"}
_COND_SRC = {"eqz": "r[{0}] == 0", "nez": "r[{0}] != 0",
             "lt": "r[{0}] < r[{1}]", "ge": "r[{0}] >= r[{1}]"}


def instr_source(ins: StaticInstr, k: int, fault: list[str],
                 keep_old: bool = False) -> list[str]:
    """Python source lines that execute ``ins`` as ``step`` does.

    The lines read and write the registers as ``r``, the memory as ``m`` and
    the call stack as ``state.call_stack``, and leave, suffixed with ``k``
    (the instruction's position in its run): ``v{k}``, the value an ALU op
    or LOAD wrote or a STORE stored; ``a{k}``, a LOAD's or STORE's address;
    ``t{k}``, a conditional branch's direction; and with ``keep_old``,
    ``o{k}``, the word a STORE overwrote (None if memory held none there).
    A control instruction sets ``state.pc``; after a run's last
    non-control instruction its caller sets it.  Where ``step`` would raise
    an ``ExecError`` (a negative address, RET on an empty call stack), the
    lines run ``fault`` instead, before changing anything; ``fault`` must
    leave the function or raise.

    ``ins`` must come from a validated program (``StaticProgram.validate``).
    HALT has no source form: it raises ``UisaError`` naming its pc.  The
    source holds only ``int()`` values and text from the tables.
    """
    op = ins.opcode
    pc = int(ins.index)
    guard = ["    " + line for line in fault]
    if op in ("ALUI", "ALU", "MUL"):
        sym = _ALU_SRC[ins.subop]
        lo, hi = -SIGN_BIT, SIGN_BIT
        b = int(ins.imm) if op == "ALUI" else f"r[{int(ins.srcs[1])}]"
        return [f"v{k} = r[{int(ins.srcs[0])}] {sym} ({b})",
                f"if not {lo} <= v{k} < {hi}:",        # wrap to signed 64-bit
                f"    v{k} = ((v{k} + {hi}) & {WORD_MASK}) - {hi}",
                f"r[{int(ins.dst)}] = v{k}"]
    if op == "LOAD" or op == "STORE":
        src = [f"a{k} = r[{int(ins.mem_base)}] + {int(ins.mem_offset)}",
               f"if a{k} < 0:", *guard]
        if op == "LOAD":
            return src + [f"v{k} = m.get(a{k}, 0)", f"r[{int(ins.dst)}] = v{k}"]
        src.append(f"v{k} = r[{int(ins.srcs[0])}]")
        if keep_old:
            src.append(f"o{k} = m.get(a{k})")
        return src + [f"m[a{k}] = v{k}"]
    if op == "BR_COND":
        cond = _COND_SRC[ins.subop]
        return [f"t{k} = {cond.format(*(int(x) for x in ins.srcs))}",
                f"state.pc = {int(ins.target)} if t{k} else {pc + 1}"]
    if op == "BR_UNCOND":
        return [f"state.pc = {int(ins.target)}"]
    if op == "CALL":
        return [f"state.call_stack.append({pc + 1})",
                f"state.pc = {int(ins.target)}"]
    if op == "RET":
        return ["if not state.call_stack:", *guard,
                "state.pc = state.call_stack.pop()"]
    raise UisaError(f"instr {pc}: {op} has no source form")


def straight_line(instrs: list[StaticInstr], start: int) -> list[StaticInstr]:
    """The straight-line run from ``start``: up to the first control
    instruction (inclusive), the instruction before a HALT, or the program's
    last instruction.  Empty at a HALT."""
    body = []
    for ins in instrs[start:]:
        if ins.opcode == "HALT":
            break
        body.append(ins)
        if ins.is_control:
            break
    return body


def build_function(params: str, lines: list[str], free: dict, label: str):
    """Compile ``lines`` as the body of ``def run(<params>)`` and return it;
    the names in ``free`` are its free variables, bound to their values."""
    text = "\n".join([f"def make({', '.join(free)}):",
                      f"    def run({params}):"]
                     + ["        " + line for line in lines]
                     + ["    return run"])
    ns = {}
    exec(compile(text, label, "exec"), ns)
    # popped: left in ``ns``, its own globals, it would form a reference cycle
    make = ns.pop("make")
    return make(*free.values())


# ---------------------------------------------------------------------------
# synthetic workloads

def gen_strided_loop(stride: int = 64, iters: int = 100, base: int = 0x10000,
                     seed: int = 0) -> StaticProgram:
    """Loop whose LOAD walks base, base+stride, ...  Body is 5 instructions.

    The loop has no random part: ``seed`` is taken, as by every generator,
    for ``gen_workload``, and not read."""
    if iters <= 0 or stride == 0:
        raise UisaError("strided_loop: iters must be > 0 and stride nonzero")
    if min(base, base + stride * (iters - 1)) < 0:
        raise UisaError("strided_loop: the loop would load from a negative address")
    text = f"""
        ADDI r1, r0, {base}
        ADDI r2, r0, {iters}
    loop:
        LOAD r3, 0(r1)
        ADD  r4, r4, r3
        ADDI r1, r1, {stride}
        ADDI r2, r2, -1
        BNEZ r2, loop
        HALT
    """
    return parse_program(text)


def gen_pointer_chase(length: int = 1000, seed: int = 0, node_spread: int = 64,
                      base: int = 0x100000, rounds: int = 1,
                      payload: int = 0, filler: int = 0,
                      payload_base: int = 0x4000000,
                      payload_lines: int = 16384) -> StaticProgram:
    """Linked-list traversal: each chase LOAD's address is the previous value.

    Nodes are laid out in a randomly permuted order, ``node_spread`` bytes
    apart.  With rounds > 1 the list is circular.  ``payload`` adds that many
    pseudo-randomly addressed LOADs per iteration derived from the chased
    pointer; ``filler`` adds that many independent ALU instructions per
    iteration (dead weight that never enters a skeleton).
    """
    if length <= 1:
        raise UisaError("pointer_chase: length must be > 1")
    if rounds < 1:
        # the loop counter would start at or below zero and never reach it
        raise UisaError("pointer_chase: rounds must be >= 1")
    for name, count in (("payload", payload), ("filler", filler)):
        if count < 0:
            # a negative count would run silently as 0
            raise UisaError(f"pointer_chase: {name} must be >= 0")
    if node_spread == 0:
        raise UisaError("pointer_chase: node_spread must not be 0 "
                        "(every node would sit at one address)")
    if payload_lines < 1 or payload_lines & (payload_lines - 1):
        raise UisaError("pointer_chase: payload_lines must be a power of two")
    if min(base, base + (length - 1) * node_spread, payload_base) < 0:
        raise UisaError("pointer_chase: a node or payload address would be negative")
    rng = random.Random(seed)
    order = list(range(length))
    rng.shuffle(order)
    addrs = [base + k * node_spread for k in order]
    init_mem = {}
    for i in range(length - 1):
        init_mem[addrs[i]] = addrs[i + 1]
    init_mem[addrs[-1]] = addrs[0] if rounds > 1 else 0

    total = length * rounds
    lines = [
        f"ADDI r1, r0, {addrs[0]}",
        f"ADDI r2, r0, {total}",
        f"ADDI r8, r0, {payload_base}",
        "loop:",
        "LOAD r1, 0(r1)",
    ]
    for p in range(int(payload)):
        # payload address = payload_base + 64 * hash(pointer, iteration, p)
        lines += [
            f"ADDI r7, r7, {2654435761 + 2 * p}",
            "ADD  r6, r1, r7",
            "MUL  r6, r6, r6",
            f"ANDI r6, r6, {(payload_lines - 1) * 64}",
            "ANDI r6, r6, -64",
            "ADD  r6, r6, r8",
            "LOAD r9, 0(r6)",
        ]
    for k in range(filler):
        r = 10 + (k % 4)
        lines.append(f"ADDI r{r}, r{r}, {k + 1}")
    lines += [
        "ADDI r2, r2, -1",
        "BNEZ r2, loop",
        "HALT",
    ]
    prog = parse_program("\n".join(lines))
    prog.init_mem = init_mem
    return prog


def gen_branchy(iters: int = 1000, streams: int = 2, seed: int = 0) -> StaticProgram:
    """Loop with data-dependent branches driven by an in-program LCG."""
    if iters <= 0 or streams <= 0:
        raise UisaError("branchy: iters and streams must be > 0")
    rng = random.Random(seed)
    lines = [
        f"ADDI r1, r0, {rng.randrange(1, 1 << 30) | 1}",
        f"ADDI r2, r0, {iters}",
        f"ADDI r5, r0, 1103515245",
        "loop:",
        "MUL  r1, r1, r5",
        "ADDI r1, r1, 12345",
        f"ANDI r1, r1, {(1 << 31) - 1}",
    ]
    for k in range(streams):
        bit = 1 << rng.randrange(4, 12)
        lines += [
            f"ANDI r3, r1, {bit}",
            f"BEQZ r3, skip{k}",
            f"ADDI r4, r4, {k + 1}",
            f"skip{k}:",
            "ADD  r6, r6, r4",
        ]
    lines += [
        "ADDI r2, r2, -1",
        "BNEZ r2, loop",
        "HALT",
    ]
    return parse_program("\n".join(lines))


def gen_mixed_phases(phase_iters: int = 3000, outer: int = 8, seed: int = 0,
                     stride: int = 64) -> StaticProgram:
    """Two inner loops with different character inside one outer loop.

    Phase A is a strided-load loop, phase B is a pointer-chase loop over a
    small circular list.  Used by the skeleton-recycling tests: the two loop
    branches have distinct PCs and are revisited ``outer`` times.
    """
    if phase_iters <= 0 or outer <= 0:
        raise UisaError("mixed_phases: phase_iters and outer must be > 0")
    base = 0x10000      # phase A's first load
    if base + stride * (phase_iters - 1) < 0:
        raise UisaError("mixed_phases: phase A would load from a negative address")
    rng = random.Random(seed)
    chase_len = 256
    chase_base = 0x800000
    order = list(range(chase_len))
    rng.shuffle(order)
    addrs = [chase_base + k * 64 for k in order]
    init_mem = {addrs[i]: addrs[(i + 1) % chase_len] for i in range(chase_len)}

    lines = [
        f"ADDI r20, r0, {outer}",
        "outer:",
        f"ADDI r1, r0, {base}",
        f"ADDI r2, r0, {phase_iters}",
        "phase_a:",
        "LOAD r3, 0(r1)",
        "ADD  r4, r4, r3",
        f"ADDI r1, r1, {stride}",
        "ADDI r2, r2, -1",
        "BNEZ r2, phase_a",
        f"ADDI r5, r0, {addrs[0]}",
        f"ADDI r6, r0, {phase_iters}",
        "phase_b:",
        "LOAD r5, 0(r5)",
        "ADDI r7, r7, 3",
        "ADD  r8, r8, r7",
        "ADDI r6, r6, -1",
        "BNEZ r6, phase_b",
        "ADDI r20, r20, -1",
        "BNEZ r20, outer",
        "HALT",
    ]
    prog = parse_program("\n".join(lines))
    prog.init_mem = init_mem
    return prog


_GENERATORS = {
    "strided_loop": gen_strided_loop,
    "pointer_chase": gen_pointer_chase,
    "branchy": gen_branchy,
    "mixed_phases": gen_mixed_phases,
}


def gen_workload(kind: str, params: dict | None = None, seed: int = 0) -> StaticProgram:
    """Build a synthetic workload; deterministic for a given (kind, params, seed)."""
    if kind not in _GENERATORS:
        raise UisaError(f"unknown workload kind {kind!r}")
    params = dict(params or {})
    if "seed" in params:
        raise UisaError("the seed is gen_workload's seed argument, not a param")
    return _GENERATORS[kind](**params, seed=seed)
