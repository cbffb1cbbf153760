"""Acceptance gate: the ten quantitative/property criteria, one per test.

Each test prints a single pass/fail line with the measured numbers so a full
run reads as a scorecard.  Tolerances are encoded exactly as stated; nothing
here is tuned to mask a miss.
"""

import random
import time

import numpy as np
import pytest

from r3dla import uisa, skeleton, fetchq, engine
from r3dla.engine import Engine, CoreParams, Features
from r3dla.memsys import CacheConfig
from r3dla.skeleton import backward_closure

import fetchq_oracle
from closure_oracle import oracle_closure
from random_programs import random_program
from reference import (corrupt_predictions, log_commits, reference_trace,
                       run_counting_t1_loads)


def report(n, ok, detail):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def harvest(prog, params=None):
    d = Engine(prog, params=params, mode="ideal_fetch").run().demand_hist
    s = Engine(prog, params=params, mode="ideal_backend").run().supply_hist
    return (fetchq.Distribution.from_counts(d),
            fetchq.Distribution.from_counts(s))


# -- 1: skeleton closure vs brute-force oracle ---------------------------------

def test_criterion_01_closure_oracle():
    t0 = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for _ in range(100):
        prog = random_program(rng, rng.randrange(20, 190))
        assert len(prog.instrs) <= 200
        idxs = [i.index for i in prog.instrs if i.opcode != "HALT"]
        seeds = set(rng.sample(idxs, max(1, len(idxs) // 6)))
        seeds |= {i.index for i in prog.instrs if i.is_control}

        got = backward_closure(prog, seeds).bits
        assert got == oracle_closure(prog, seeds)
        # idempotence: a closure re-closed over itself is itself
        assert backward_closure(prog, set(got)).bits == got
        # monotonicity: growing the seed set can only grow the closure
        extra = seeds | set(rng.sample(idxs, 2))
        assert got <= backward_closure(prog, extra).bits
        checked += 1
    dt = time.monotonic() - t0
    report(1, checked == 100 and dt < 5.0,
           f"{checked} programs exact vs oracle, {dt:.2f}s < 5s")


# -- 2: Markov steady state vs Monte Carlo -------------------------------------

def test_criterion_02_markov_vs_monte_carlo():
    t0 = time.monotonic()
    rng = random.Random(42)
    worst_l1 = 0.0
    worst_res = 0.0
    for trial in range(20):
        # draw supply-surplus pairs: the analysis assumes fetch keeps up
        while True:
            m = rng.randint(1, 4)
            d = {k: rng.random() for k in range(0, m + 1)}
            tot = sum(d.values())
            d = {k: v / tot for k, v in d.items()}
            w = m + rng.randint(1, 4)
            s = {k: rng.random() for k in range(1, w + 1)}
            tot = sum(s.values())
            s = {k: v / tot for k, v in s.items()}
            demand = fetchq.Distribution.from_map(d)
            supply = fetchq.Distribution.from_map(s)
            if fetchq_oracle.mean(supply) - fetchq_oracle.mean(demand) >= 1.25:
                break
        n = rng.randint(4, 64)
        model = fetchq.QueueModel.solve(demand, supply, n)
        res = float(np.abs(model.transition @ model.q_ss - model.q_ss).sum())
        occ, _ = fetchq_oracle.monte_carlo(demand, supply, n, 10 ** 6, seed=trial)
        l1 = fetchq_oracle.l1_distance(occ,
                                       fetchq.Distribution(0, tuple(model.q_ss)))
        worst_l1 = max(worst_l1, l1)
        worst_res = max(worst_res, res)

    # the symmetric +-1 walk on {0,1,2} must be exactly uniform
    p = fetchq.build_transition(
        fetchq.Distribution.from_map({-1: .5, 1: .5}), 2)
    sym_err = float(np.abs(fetchq.steady_state(p) - 1 / 3).max())
    dt = time.monotonic() - t0
    ok = worst_l1 <= 0.02 and worst_res < 1e-9 and sym_err < 1e-9 and dt < 30
    report(2, ok, f"20 triples worst L1={worst_l1:.4f} <= 0.02, "
                  f"residual={worst_res:.1e}, sym walk err={sym_err:.1e}, "
                  f"{dt:.1f}s < 30s")


# -- 3: expected-bubbles properties ---------------------------------------------

def test_criterion_03_bubble_properties():
    dmap = fetchq.Distribution.from_map
    # exact substitution cases
    q_empty = np.array([1.0, 0, 0, 0, 0])
    exact1 = fetchq.expected_bubbles(q_empty, dmap({4: 1.0})) == 4.0
    q_full = np.zeros(9)
    q_full[8] = 1.0
    exact2 = fetchq.expected_bubbles(q_full, dmap({0: .5, 4: .5})) == 0.0

    pairs = []
    # 10 pairs harvested from baseline runs across the workload family
    for prog in (uisa.gen_strided_loop(stride=64, iters=5000),
                 uisa.gen_strided_loop(stride=16, iters=5000),
                 uisa.gen_strided_loop(stride=8, iters=5000),
                 uisa.gen_branchy(iters=3000, streams=1),
                 uisa.gen_branchy(iters=3000, streams=2),
                 uisa.gen_branchy(iters=3000, streams=3),
                 uisa.gen_pointer_chase(length=500, rounds=4),
                 uisa.gen_pointer_chase(length=500, rounds=4,
                                        payload=1, filler=8),
                 uisa.gen_mixed_phases(phase_iters=1000, outer=3),
                 uisa.gen_strided_loop(stride=256, iters=5000)):
        pairs.append(harvest(prog))
    # 10 random pairs
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = {int(k): float(v) for k, v in
             enumerate(rng.dirichlet(np.ones(rng.integers(2, 6))))}
        s = {int(k): float(v) for k, v in
             enumerate(rng.dirichlet(np.ones(rng.integers(2, 6))), start=1)}
        pairs.append((dmap(d), dmap(s)))

    monotone = True
    for demand, supply in pairs:
        rows = fetchq.capacity_sweep(demand, supply, range(4, 65))
        bubbles = [b for _, b, _ in rows]
        if any(b > a + 1e-12 for a, b in zip(bubbles, bubbles[1:])):
            monotone = False
    ok = exact1 and exact2 and monotone
    report(3, ok, f"substitution cases exact={exact1 and exact2}, "
                  f"E(FB) non-increasing over N=4..64 for {len(pairs)} pairs")


# -- 4: engine occupancy vs queue-model prediction ------------------------------

def test_criterion_04_engine_vs_model():
    prog = uisa.gen_pointer_chase(length=2000, rounds=5)
    demand, supply = harvest(prog)
    st = Engine(prog).run()
    cap = CoreParams().fetch_buffer
    occ = np.zeros(cap + 1)
    for i, c in enumerate(st.fb_occupancy[:cap + 1]):
        occ[i] = c
    occ /= occ.sum()
    model = fetchq.QueueModel.solve(demand, supply, cap)
    l1 = float(np.abs(occ - model.q_ss).sum())
    report(4, l1 <= 0.1, f"occupancy histogram L1={l1:.4f} <= 0.1")


# -- 5: BOQ depth law over >= 10^7 instructions ----------------------------------

@pytest.mark.slow
def test_criterion_05_boq_depth_law():
    # Engine.run checks the law on every cycle it steps and raises
    # EngineError if it breaks; a skipped idle cycle cannot change the BOQ or
    # its two counters.  This test drives enough decoupled execution through it
    total = 0
    runs = [
        (uisa.gen_strided_loop(stride=8, iters=1_900_000),
         Features(t1=True)),
        (uisa.gen_branchy(iters=20_000, streams=2),
         Features(value_reuse=True)),
        (uisa.gen_pointer_chase(length=1000, rounds=10, payload=1, filler=10),
         Features(value_reuse=True, t1=True)),
        (uisa.gen_mixed_phases(phase_iters=3000, outer=4),
         Features(t1=True, recycle="dynamic")),
    ]
    for prog, feats in runs:
        skel = skeleton.build(prog)
        st = Engine(prog, skel=skel, features=feats).run()
        total += st.instructions
    report(5, total >= 10 ** 7,
           f"depth law checked on every stepped cycle over {total} instructions")


# -- 6: correctness firewall under fuzzing ---------------------------------------

@pytest.mark.slow
def test_criterion_06_firewall_fuzz():
    limit = 100_000
    progs = [
        uisa.gen_strided_loop(stride=64, iters=30_000),
        uisa.gen_strided_loop(stride=8, iters=30_000),
        uisa.gen_branchy(iters=10_000, streams=3),
        uisa.gen_pointer_chase(length=500, rounds=15, payload=1, filler=10),
        uisa.gen_mixed_phases(phase_iters=3000, outer=4),
    ]
    prepped = []
    for prog in progs:
        skel = skeleton.build(prog)
        ref = reference_trace(prog, limit)
        prepped.append((prog, skel, ref))

    rng = random.Random(777)
    for cfg_no in range(50):
        prog, skel, ref = prepped[cfg_no % len(prepped)]
        feats = Features(
            t1=rng.random() < 0.5,
            value_reuse=rng.random() < 0.5,
            fetch_buffer=rng.random() < 0.8,
            recycle=rng.choice(("off", "dynamic")),
            boq_prefetch_release=rng.random() < 0.8,
        )
        version = rng.randrange(6)      # version 4 exercises LT divergence
        corrupt = rng.choice((0.0, 0.02, 0.05))
        eng = Engine(prog, skel=skel, features=feats, version=version,
                     limit=limit)
        corrupt_predictions(eng, corrupt, cfg_no)
        log = log_commits(eng)
        eng.run()
        assert log == ref[:len(log)] and len(log) == len(ref), \
            f"fuzz config {cfg_no} diverged (version={version}, {feats})"
    report(6, True, "50 fuzz configs x 10^5 instrs bit-identical to the "
                    "functional interpreter")


# -- 7: strided-prefetch offload effectiveness -----------------------------------

def test_criterion_07_t1_effectiveness():
    t0 = time.monotonic()
    prog = uisa.gen_strided_loop(stride=64, iters=10_000)
    cache = CacheConfig(mshr=128)       # enough fill bandwidth for delta=64
    skel = skeleton.build(prog, cache_config=cache)
    load_pc = next(iter(skel.s_bits))
    st, counts = run_counting_t1_loads(
        Engine(prog, skel=skel, cache_config=cache, features=Features(t1=True)),
        warmup=1000)
    c = counts[load_pc]
    hit_warm = c["l1_hits_warm"] / max(1, c["instances_warm"])

    # steady-state prefetch addresses are exactly A + n*delta
    table = engine.T1Table()
    cyc = 0
    steady_exact = True
    for k in range(20):
        a = 0x10000 + 64 * k
        out = table.observe(load_pc, a, cyc, 200.0)
        cyc += 50
        if k >= 5:      # cursor caught up: one address per instance
            n = table.entries[load_pc].distance
            steady_exact &= out == [a + n * 64]

    # offload shrinks the dynamic skeleton: v0 excludes S bits, v3 keeps them
    lt_off = st.lt_committed
    st_on = Engine(prog, skel=skel, cache_config=cache, version=3,
                   features=Features(t1=True)).run()
    lt_on = st_on.lt_committed
    dt = time.monotonic() - t0
    ok = hit_warm >= 0.95 and steady_exact and lt_off < lt_on and dt < 10
    report(7, ok, f"warm L1 hit rate={hit_warm:.3f} >= 0.95, steady "
                  f"prefetch A+n*delta exact={steady_exact}, dynamic skeleton "
                  f"{lt_off} < {lt_on}, {dt:.1f}s < 10s")


# -- 8: decoupled speedup without extra traffic ----------------------------------

def test_criterion_08_dla_speedup():
    prog = uisa.gen_pointer_chase(length=1000, rounds=10, payload=1, filler=24)
    base = Engine(prog).run()
    skel = skeleton.build(prog)
    dla = Engine(prog, skel=skel).run()
    ratio = dla.cycles / base.cycles
    traffic = dla.mem["traffic_lines"] / base.mem["traffic_lines"]
    ok = ratio <= 0.8 and traffic <= 1.05
    report(8, ok, f"cycle ratio={ratio:.3f} <= 0.8, "
                  f"traffic ratio={traffic:.3f} <= 1.05")


# -- 9: value-reuse skip pattern, replay, SIF deletion ----------------------------

def test_criterion_09_value_reuse():
    # the canonical skip pattern: i1/i2 predicted producers, i4 skips, i5
    # (one unpredicted source) must still validate
    sb = engine.ValueReuseUnit().scoreboard
    a1 = sb.apply("ALU", 1, (0,), True)
    a2 = sb.apply("ALU", 2, (0,), True)
    a3 = sb.apply("LOAD", 3, (), False)
    a4 = sb.apply("ALU", 4, (1, 2), True)
    a5 = sb.apply("ALU", 5, (1, 3), True)
    pattern = (a1, a2, a3, a4, a5) == \
        ("validate", "validate", "normal", "skip", "validate")

    # skip soundness fuzz: a skip requires a prediction plus all-validated
    # sources under an independently tracked shadow of the rule
    rng = random.Random(9)
    sound = True
    sb2 = engine.ValueReuseUnit().scoreboard
    shadow = [False] * len(sb2.bits)
    for _ in range(5000):
        op = rng.choice(("ALU", "ALUI", "MUL", "LOAD", "STORE"))
        dst = rng.randrange(16) if op != "STORE" else None
        srcs = tuple(rng.randrange(16) for _ in range(rng.randint(1, 2)))
        pred = rng.random() < 0.5
        action = sb2.apply(op, dst, srcs, pred)
        if action == "skip":
            sound &= pred and op in ("ALU", "ALUI", "MUL")
            sound &= all(shadow[r] for r in srcs)
        if pred and op in ("ALU", "ALUI", "MUL"):
            shadow[dst] = True
        elif dst is not None:
            shadow[dst] = False

    # engine level: every prediction corrupted -> replay fires, the pc is
    # deleted from the SIF, and no further footnote is emitted for it
    prog = uisa.gen_pointer_chase(length=300, rounds=4, payload=1, filler=24)
    skel = skeleton.build(prog)
    ref = reference_trace(prog, 10 ** 6)
    eng = Engine(prog, skel=skel, version=2, features=Features(value_reuse=True))
    corrupt_predictions(eng, 1.0, 5)
    log = log_commits(eng)
    events = []
    orig_emit = eng.vru.should_emit
    orig_mis = eng.vru.on_mispredict
    orig_ins = eng.vru.sif.insert
    orig_clr = eng.vru.sif.clear

    def spy_emit(pc):
        r = orig_emit(pc)
        if r:
            events.append(("emit", pc))
        return r

    def spy_mis(pc):
        events.append(("mispredict", pc))
        orig_mis(pc)

    def spy_ins(pc):
        events.append(("insert", pc))
        orig_ins(pc)

    def spy_clr():
        events.append(("clear", None))
        orig_clr()

    eng.vru.should_emit = spy_emit
    eng.vru.on_mispredict = spy_mis
    eng.vru.sif.insert = spy_ins
    eng.vru.sif.clear = spy_clr
    st = eng.run()

    replayed = st.vreuse["mispredicted"] > 0
    firewall = log == ref
    # after a mispredict a pc stays silent until it is explicitly retrained
    # (re-inserted inside the training window or after a loop re-entry clear)
    silenced = True
    dead = set()
    for kind, pc in events:
        if kind == "mispredict":
            dead.add(pc)
        elif kind == "insert":
            dead.discard(pc)
        elif kind == "clear":
            dead.clear()
        elif pc in dead:
            silenced = False
    deleted = all(not eng.vru.sif.query(pc) for pc in dead)

    ok = pattern and sound and replayed and firewall and silenced and deleted
    report(9, ok, f"skip pattern={pattern}, soundness fuzz={sound}, "
                  f"replays={st.vreuse['mispredicted']}, trace exact={firewall}, "
                  f"no post-mispredict emission={silenced}, SIF deleted={deleted}")


# -- 10: recycle convergence -------------------------------------------------------

def test_criterion_10_recycle_convergence():
    prog = uisa.gen_mixed_phases(phase_iters=3000, outer=8)
    skel = skeleton.build(prog)
    eng = Engine(prog, skel=skel, features=Features(recycle="dynamic"))
    eng.run()
    rec = eng.recycler

    chosen = rec.chosen_versions()
    converged = len(chosen) >= 2        # both phase loops decided
    argmax_ok = True
    lct_ok = True
    for pc, ver in chosen.items():
        samples = {}
        for m in rec.measurements:
            if m.loop_pc == pc:
                samples[m.version] = m.ipc      # later unit overrides earlier
        best = min(sorted(samples), key=lambda v: (-samples[v], v))
        argmax_ok &= ver == best
        lct_ok &= rec.lct.get(pc) == ver
    units_ok = all(m.instructions >= 10_000 for m in rec.measurements)
    # re-entries after selection hit the LCT instead of re-measuring
    per_loop = {pc: sum(1 for m in rec.measurements if m.loop_pc == pc)
                for pc in chosen}
    reentry_ok = all(n <= 6 for n in per_loop.values())

    ok = converged and argmax_ok and lct_ok and units_ok and reentry_ok
    report(10, ok, f"loops decided={sorted(chosen.items())}, argmax={argmax_ok}, "
                   f"LCT hit={lct_ok}, all units >= 10k={units_ok}, "
                   f"measurements per loop={per_loop}")
