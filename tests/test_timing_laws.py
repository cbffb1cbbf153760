"""Timing laws: inequalities that any correct timing model meets.

The differential tests hold each walk to the cycle loop, and the digests
hold both to their past, but neither says what a cycle count must be.  Each
law here is a bound that follows from the machine's structure alone, so it
needs no tolerance, and it is checked on walked runs (the DLA walk whose
look-ahead thread loads and stores included) and on runs forced to the
cycle loop, so that neither path can drift from it alone:

- width: no stage moves more than its width of instructions a cycle, so
  ``cycles >= instructions / min(fetch_width, decode_width, commit_width)``;
- mispredicts: a baseline mispredict blocks fetch from the cycle it is
  fetched until ``mispredict_penalty`` cycles after it resolves, and no two
  blocks overlap, so ``cycles >= mispredicts * mispredict_penalty``;
- compulsory traffic: the caches start cold, so each line the main thread
  touches comes from DRAM at least once, whichever thread or prefetch asks
  for it: ``traffic_lines`` is at least the number of distinct lines of the
  loads and stores in the main thread's commit log;
- dependent chain: N loads that each miss to DRAM, each address made by the
  load before, take at least N * ``cold_latency()`` cycles in a baseline
  run.  (In a DLA run the look-ahead thread's request makes the main
  thread's access an L3 hit before the fill is in, which is ROADMAP item
  3a's defect.)

The MSHR law (Little's law over DRAM fills) and the shared-fill law fail at
HEAD; they land with the fixes of ROADMAP item 3.
"""

import pytest
from hypothesis import given, settings, strategies as st

from r3dla import skeleton, uisa
from r3dla.engine import CoreParams, DlaParams, Engine, Features
from r3dla.memsys import CacheConfig, LevelConfig

from reference import log_commits

def alu_loop():
    """Independent ALU work around a predictable loop branch: it runs at
    its narrowest stage's width, where the width law binds."""
    body = "\n".join(f"ADDI r{r}, r{r}, 1" for r in range(2, 14))
    return uisa.parse_program(f"""
        ADDI r1, r0, 150
    loop:
        {body}
        ADDI r1, r1, -1
        BNEZ r1, loop
        HALT
    """)


PROGRAMS = {
    "alu": alu_loop,
    "chase": lambda: uisa.gen_pointer_chase(length=80, rounds=2, payload=1,
                                            filler=6, seed=3),
    "stride": lambda: uisa.gen_strided_loop(stride=64, iters=200, seed=3),
    "branchy": lambda: uisa.gen_branchy(iters=80, streams=2, seed=3),
    "phases": lambda: uisa.gen_mixed_phases(phase_iters=40, outer=2, seed=3),
}


def run(prog, loop, features=None, **kw):
    """One run of ``prog`` (DLA with ``features``, else the baseline):
    its RunStats, the lines its main thread committed loads and stores to,
    and whether the cycle loop ran it.  With ``loop`` the walk in program
    order hands the run back at once."""
    if features is not None:
        kw["skel"] = skeleton.build(prog, cache_config=kw.get("cache_config"))
        kw["features"] = features
    eng = Engine(prog, **kw)
    looped = []
    simulate = eng._simulate
    eng._simulate = lambda: looped.append(True) or simulate()
    if loop:
        eng._walk_in_order = lambda: None
    log = log_commits(eng)
    stats = eng.run()
    line = eng.cache_config.l1.line
    ops = {i: ins.opcode for i, ins in enumerate(prog.instrs)}
    lines = {addr // line for pc, addr, _, _ in log
             if ops[pc] in ("LOAD", "STORE")}
    return stats, lines, bool(looped)


def check_laws(stats, lines, p: CoreParams, baseline: bool):
    width = min(p.fetch_width, p.decode_width, p.commit_width)
    assert stats.cycles * width >= stats.instructions
    if baseline:
        assert stats.cycles >= stats.mispredicts * p.mispredict_penalty
    assert stats.mem["traffic_lines"] >= len(lines)


# (program, DLA features or None for the baseline); the chase skeleton loads
CASES = {
    "alu-base": ("alu", None),
    "alu-dla": ("alu", Features(value_reuse=True)),
    "chase-base": ("chase", None),
    "chase-dla-lt-memory": ("chase", Features(t1=True, value_reuse=True)),
    "stride-base": ("stride", None),
    "stride-dla": ("stride", Features(t1=True)),
    "branchy-base": ("branchy", None),
    "branchy-dla": ("branchy", Features(value_reuse=True)),
    "phases-dla-recycle": ("phases", Features(recycle="dynamic")),
}


@pytest.mark.parametrize("loop", [False, True], ids=["walk", "loop"])
@pytest.mark.parametrize("case", list(CASES))
def test_laws_hold(case, loop):
    name, dla = CASES[case]
    prog = PROGRAMS[name]()
    p = CoreParams(fetch_width=2, decode_width=3, window_size=48,
                   mispredict_penalty=12)
    stats, lines, looped = run(prog, loop, dla, params=p)
    # only a recycling DLA run takes the cycle loop unforced
    assert looped == (loop or (dla is not None and dla.recycle != "off"))
    assert not stats.partial
    check_laws(stats, lines, p, dla is None)


def level(assoc, sets, hit_latency):
    return LevelConfig(64 * assoc * sets, assoc, 64, hit_latency)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(PROGRAMS)), dla=st.booleans(),
       loop=st.booleans(),
       widths=st.tuples(*[st.integers(1, 8)] * 3),
       window=st.integers(1, 96), fetch_buffer=st.integers(1, 32),
       penalty=st.integers(0, 30), btb=st.integers(0, 5),
       hit=st.integers(0, 4), dram=st.integers(0, 300),
       mshr=st.integers(1, 32), features=st.tuples(*[st.booleans()] * 2),
       boq=st.integers(1, 64))
def test_laws_hold_across_configs(name, dla, loop, widths, window,
                                  fetch_buffer, penalty, btb, hit, dram, mshr,
                                  features, boq):
    """Random core configs, and caches of a few lines per set, so that
    lines are evicted and fetched again; baseline and DLA runs."""
    prog = PROGRAMS[name]()
    p = CoreParams(*widths, window_size=window, fetch_buffer=fetch_buffer,
                   mispredict_penalty=penalty, btb_penalty=btb)
    cache = CacheConfig(level(2, 4, hit), level(4, 8, hit), level(4, 32, hit),
                        dram_latency=dram, mshr=mshr)
    kw = {"params": p, "cache_config": cache}
    if dla:
        kw["dla"] = DlaParams(boq_capacity=boq)
    feats = Features(t1=features[0], value_reuse=features[1]) if dla else None
    stats, lines, _ = run(prog, loop, feats, **kw)
    check_laws(stats, lines, p, not dla)


@pytest.mark.parametrize("loop", [False, True], ids=["walk", "loop"])
def test_dependent_chain_waits_out_each_fill(loop):
    """One round of a pointer chase, one node per line, from cold caches:
    every chase load misses to DRAM at the address the one before loaded."""
    n = 120
    cache = CacheConfig()
    stats, lines, looped = run(uisa.gen_pointer_chase(length=n, seed=5), loop,
                               cache_config=cache)
    assert looped == loop
    assert stats.mem["L3"]["misses"] >= n
    assert stats.cycles >= n * cache.cold_latency()
