"""Independent brute-force closure oracle shared by the skeleton tests.

For each (instruction, register) pair the oracle finds may-reaching defs by a
backward BFS over CFG predecessors, stopping any path at a redefinition.
This is deliberately different machinery from the forward dataflow in the
skeleton module, so agreement between the two is meaningful.
"""

from r3dla import skeleton


def cfg_preds(program):
    n = len(program.instrs)
    succs = []
    call_returns = [i.index + 1 for i in program.instrs
                    if i.opcode == "CALL" and i.index + 1 < n]
    for ins in program.instrs:
        i = ins.index
        if ins.opcode == "HALT":
            succs.append([])
        elif ins.opcode == "BR_UNCOND":
            succs.append([ins.target])
        elif ins.opcode == "BR_COND":
            succs.append([ins.target] + ([i + 1] if i + 1 < n else []))
        elif ins.opcode == "CALL":
            succs.append([ins.target])
        elif ins.opcode == "RET":
            succs.append(list(call_returns))
        else:
            succs.append([i + 1] if i + 1 < n else [])
    preds = [[] for _ in range(n)]
    for i, ss in enumerate(succs):
        for s in ss:
            preds[s].append(i)
    return preds


def defs_reaching(program, preds, i, reg):
    """All defs of reg that may reach instruction i along some path."""
    out = set()
    seen = set()
    frontier = list(preds[i])
    while frontier:
        p = frontier.pop()
        if p in seen:
            continue
        seen.add(p)
        if program.instrs[p].dst == reg:
            out.add(p)
            continue    # path blocked by the redefinition
        frontier.extend(preds[p])
    return out


def oracle_closure(program, seeds, converted=frozenset()):
    preds = cfg_preds(program)
    included = set()
    work = list(seeds)
    while work:
        i = work.pop()
        if i in included:
            continue
        included.add(i)
        ins = program.instrs[i]
        if i in converted:
            continue
        for r in ins.reads:
            for d in defs_reaching(program, preds, i, r):
                if d not in included:
                    work.append(d)
        if ins.opcode == "LOAD":
            lo = max(0, i - skeleton.STORE_LOAD_WINDOW)
            for j in range(lo, i):
                s = program.instrs[j]
                if (s.opcode == "STORE" and s.mem_base == ins.mem_base
                        and s.mem_offset == ins.mem_offset):
                    if j not in included:
                        work.append(j)
    return frozenset(included)
