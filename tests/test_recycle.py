"""Loop tracking and skeleton-version selection tests."""

import pytest

from r3dla import skeleton, uisa
from r3dla.engine import Engine, Features
from r3dla.recycle import (LoopTracker, LoopConfigTable, RecycleController,
                           UNIT_INSTRUCTIONS)


# -- loop tracker ---------------------------------------------------------------

def test_counted_loop_events():
    t = LoopTracker()
    evs = t.observe(pc=5, opcode="BR_COND", taken=True, target=2)
    assert evs == [("enter", 5)]
    evs = t.observe(5, "BR_COND", True, 2)
    assert evs == [("iterate", 5)]
    assert t.iterations == {5: 2}
    evs = t.observe(5, "BR_COND", False, 2)
    assert evs == [("exit", 5)]
    assert t.current is None


def test_straight_line_no_events():
    t = LoopTracker()
    assert t.observe(3, "BR_COND", True, 9) == []      # forward branch
    assert t.observe(4, "BR_COND", False, 1) == []     # untracked fall-through


def test_nested_loops():
    t = LoopTracker()
    t.observe(9, "BR_COND", True, 0)        # outer enter
    t.observe(5, "BR_COND", True, 3)        # inner enter
    assert t.current == 5
    # outer iterating implies the inner loop finished
    evs = t.observe(9, "BR_COND", True, 0)
    assert evs == [("exit", 5), ("iterate", 9)]
    assert t.current == 9


def test_fall_through_pops_inner_loops():
    t = LoopTracker()
    t.observe(9, "BR_COND", True, 0)
    t.observe(5, "BR_COND", True, 3)
    evs = t.observe(9, "BR_COND", False, 0)
    assert evs == [("exit", 5), ("exit", 9)]
    assert t.stack == []


def test_call_streak_pseudo_loop():
    t = LoopTracker()
    assert t.observe(10, "CALL", None, 100) == []      # first call: no streak
    evs = t.observe(10, "CALL", None, 100)
    assert evs == [("enter", 10)]
    evs = t.observe(10, "CALL", None, 100)
    assert evs == [("iterate", 10)]
    assert t.observe(10, "CALL", None, 200) == []      # different target


# -- loop-config table -------------------------------------------------------------

def test_lct_put_get():
    lct = LoopConfigTable()
    lct.put(5, 3)
    assert lct.get(5) == 3
    assert lct.get(6) is None


def test_lct_lru_eviction():
    lct = LoopConfigTable()
    for pc in range(16):
        lct.put(pc, pc % 6)
    lct.get(0)                  # refresh loop 0
    lct.put(99, 1)              # evicts loop 1 (oldest untouched)
    assert lct.get(0) == 0
    assert lct.get(1) is None
    assert all(lct.get(pc) is not None for pc in [*range(2, 16), 99])


# -- controller ---------------------------------------------------------------

def test_static_mode_uses_map():
    c = RecycleController(mode="static", static_map={5: 4})
    assert c.on_enter(5, 0, 0) == 4
    assert c.on_enter(6, 0, 0) == 0     # default for unmapped loops


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        RecycleController(mode="banana")


def test_off_mode_has_no_controller():
    # with recycle "off" the engine builds none, so a controller refuses it
    prog = uisa.gen_strided_loop(iters=3)
    eng = Engine(prog, skel=skeleton.build(prog), features=Features(recycle="off"))
    assert eng.recycler is None
    assert eng.run().recycle == {"chosen": {}, "measurements": [],
                                 "final_version": 0}
    with pytest.raises(ValueError, match="^recycle: a controller runs in "):
        RecycleController(mode="off")


def drive_units(c, loop_pc, ipcs):
    """Feed the controller one full unit per ipc value; returns decisions."""
    committed = 0
    cycle = 0
    out = []
    c.on_enter(loop_pc, cycle, committed)
    for ipc in ipcs:
        committed += UNIT_INSTRUCTIONS
        cycle += int(UNIT_INSTRUCTIONS / ipc)
        out.append(c.on_progress(loop_pc, cycle, committed))
    return out


def test_dynamic_cycles_then_selects_argmax():
    c = RecycleController(mode="dynamic")
    # version k measured with ipc 1.0 + k/10 except version 2 which is best
    ipcs = [1.0, 1.1, 2.5, 1.3, 1.4, 1.5]
    decisions = drive_units(c, 5, ipcs)
    assert decisions[:5] == [1, 2, 3, 4, 5]     # cycling through versions
    assert decisions[5] == 2                    # selection: measured argmax
    assert c.lct.get(5) == 2
    assert c.chosen_versions() == {5: 2}


def test_dynamic_tie_breaks_low_version():
    c = RecycleController(mode="dynamic")
    decisions = drive_units(c, 5, [1.0] * 6)
    assert decisions[5] == 0


def test_no_short_unit_enters_selection():
    c = RecycleController(mode="dynamic")
    c.on_enter(5, 0, 0)
    # only 9,999 instructions: unit must not close
    assert c.on_progress(5, 5000, UNIT_INSTRUCTIONS - 1) is None
    assert c.measurements == []
    assert c.on_progress(5, 10_000, UNIT_INSTRUCTIONS) is not None
    assert all(m.instructions >= UNIT_INSTRUCTIONS for m in c.measurements)


def test_reentry_hits_lct():
    c = RecycleController(mode="dynamic")
    drive_units(c, 5, [1.0, 1.1, 2.5, 1.3, 1.4, 1.5])
    c.on_exit(5)
    n_measurements = len(c.measurements)
    assert c.on_enter(5, 10 ** 6, 10 ** 6) == 2     # cached, no re-measurement
    c.on_progress(5, 10 ** 6 + 50_000, 10 ** 6 + 50_000)
    assert len(c.measurements) == n_measurements


def test_exit_abandons_partial_unit_but_keeps_samples():
    c = RecycleController(mode="dynamic")
    c.on_enter(5, 0, 0)
    c.on_progress(5, 10_000, UNIT_INSTRUCTIONS)     # one full unit for v0
    c.on_progress(5, 15_000, UNIT_INSTRUCTIONS + 5000)  # partial unit for v1
    c.on_exit(5)
    assert len(c.measurements) == 1
    # the next entry resumes measuring the unmeasured versions
    assert c.on_enter(5, 20_000, 2 * UNIT_INSTRUCTIONS) == 1
