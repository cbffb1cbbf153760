"""Functional references shared by the tests: the engine's commit log and the
skeleton profile."""

from dataclasses import replace

from r3dla import skeleton, uisa
from r3dla.memsys import MT, CacheConfig, MemorySystem
from r3dla.skeleton import EXEC_LATENCY, PcProfile


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


def reference_profile(program, cache_config=None):
    """``skeleton.profile`` written as a plain walk: a clock, a lazily built
    dict per pc, and every statistic updated per instruction."""
    mem = MemorySystem(replace(cache_config or CacheConfig(), mshr=0))
    state = uisa.ArchState.initial(program)
    per_pc = {}
    last_writer = {}
    now = 0
    seq = 0
    while seq < skeleton.TRAIN_LIMIT:
        pc = state.pc
        ins = program.instrs[pc]
        if ins.opcode == "HALT":
            break
        eff_addr, _, taken = uisa.step(state, program, seq)
        seq += 1
        p = per_pc.get(pc)
        if p is None:
            p = per_pc[pc] = PcProfile()
        p.exec_count += 1
        lat = 1
        if ins.is_mem:
            res = mem.access(eff_addr, "load" if ins.opcode == "LOAD" else "store",
                             MT, now)
            lat = res.latency
            if res.hit_level != "L1":
                p.l1_misses += 1
            if res.hit_level in ("L3", "DRAM"):
                p.l2_misses += 1
            if p.last_addr is not None:
                d = eff_addr - p.last_addr
                p.stride_votes[d] = p.stride_votes.get(d, 0) + 1
            p.last_addr = eff_addr
        else:
            lat = EXEC_LATENCY.get(ins.opcode, 1)
        p.latency_sum += lat
        now += lat
        if taken:
            p.taken_count += 1
        for r in ins.reads:
            w = last_writer.get(r)
            if w is not None:
                per_pc[w].consumer_pcs.add(pc)
        if ins.dst is not None:
            last_writer[ins.dst] = pc
    return per_pc
