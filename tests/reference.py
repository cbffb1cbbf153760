"""Functional references shared by the tests: the engine's commit log and the
skeleton profile; a count of the main-thread loads that T1 observes; and the
two hooks the tests put into an ``Engine`` before it runs, a log of the main
thread's commits and fault injection into value-reuse predictions."""

import random
from collections import deque

from r3dla import skeleton, uisa
from r3dla.memsys import MT, MemorySystem
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
    dict per pc, and every statistic updated per instruction.  The clock
    moves on by each instruction's latency, so each access is made once the
    previous one's fill is ready, as the profile's serial walk assumes."""
    mem = MemorySystem(cache_config)
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


def run_counting_t1_loads(eng, warmup):
    """Run ``eng`` and count, per pc, the main-thread loads that reach T1's
    hook ``Engine.on_mt_load`` and how many of them hit L1.  The ``_warm``
    counts leave out each pc's first ``warmup`` loads.  Returns the
    ``RunStats`` and ``{pc: {"instances", "l1_hits", "instances_warm",
    "l1_hits_warm"}}``; a run in which no load reached the hook (T1 off, or
    no S-bit loads) fails instead of returning an empty count."""
    counts = {}
    hook = eng.on_mt_load

    def counting_hook(ins, rec, res, now):
        c = counts.setdefault(ins.index, [0, 0, 0, 0])
        hit = res.hit_level == "L1"
        c[0] += 1
        c[1] += hit
        if c[0] > warmup:
            c[2] += 1
            c[3] += hit
        hook(ins, rec, res, now)

    eng.on_mt_load = counting_hook      # the cores look the hook up per call
    stats = eng.run()
    assert counts, "no main-thread load reached Engine.on_mt_load"
    keys = ("instances", "l1_hits", "instances_warm", "l1_hits_warm")
    return stats, {pc: dict(zip(keys, c)) for pc, c in counts.items()}


class _LoggingRecords(deque):
    """``MainStream.recs`` that logs each record its ``popleft`` takes: the
    core pops the oldest record at every main-thread commit, and nothing
    else pops it.  A run that a walk hands back to the cycle loop starts
    over on these records cleared, so ``clear`` drops the log too."""

    def __init__(self, recs, log):
        super().__init__(recs)
        self.log = log

    def popleft(self):
        rec = super().popleft()
        self.log.append((rec[0].index, rec[1], rec[2], rec[3]))
        return rec

    def clear(self):
        super().clear()
        self.log.clear()


def log_commits(eng):
    """Log ``eng``'s main-thread commits: returns a list that the run fills
    with ``(pc, eff_addr, value, taken)`` per committed instruction, in
    commit order, in the form of ``reference_trace``."""
    log = []
    eng.mt_stream.recs = _LoggingRecords(eng.mt_stream.recs, log)
    return log


class _CorruptingPredictions(dict):
    """``Engine.predictions`` whose stores flip the predicted value's low bit
    at ``rate``, with one draw of ``rng`` per stored prediction.  A run that
    a walk hands back to the cycle loop starts over on this dict cleared, so
    ``clear`` restarts the draws too."""

    def __init__(self, rate, seed):
        super().__init__()
        self.rate = rate
        self.seed = seed
        self.rng = random.Random(seed)

    def clear(self):
        super().clear()
        self.rng = random.Random(self.seed)

    def __setitem__(self, idx, pred):
        pc, dst, value = pred
        if self.rng.random() < self.rate:
            pred = (pc, dst, value ^ 1)
        super().__setitem__(idx, pred)


def corrupt_predictions(eng, rate, seed):
    """Inject faults into ``eng``'s value reuse: each prediction a reuse
    footnote stores is wrong with probability ``rate`` (seeded by ``seed``).
    The main thread must catch each one as a mispredict and replay."""
    eng.predictions = _CorruptingPredictions(rate, seed)
