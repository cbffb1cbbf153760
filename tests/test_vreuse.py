"""Value-reuse tests: slow-instruction filter, scoreboard skip rule, training."""

import random

from hypothesis import given, settings, strategies as st

from r3dla.vreuse import (SlowInstructionFilter, Scoreboard, ValueReuseUnit,
                          ALU_CLASS)


# -- bloom filter ---------------------------------------------------------------

def test_filter_insert_query():
    f = SlowInstructionFilter()
    assert not f.query(42)
    f.insert(42)
    assert f.query(42)


def test_filter_delete_masks_pc():
    f = SlowInstructionFilter()
    f.insert(42)
    f.delete(42)
    assert not f.query(42)      # even though the bloom bits are still set
    f.insert(42)                # re-insert lifts the mask
    assert f.query(42)


def test_filter_clear():
    f = SlowInstructionFilter()
    for pc in range(50):
        f.insert(pc)
    f.clear()
    assert not any(f.query(pc) for pc in range(1000))   # no false positives either


def test_filter_armed_from_insert_until_clear():
    f = SlowInstructionFilter()
    assert not f.armed
    f.insert(42)
    assert f.armed
    f.delete(42)                # a delete masks the pc, the filter stays armed
    assert f.armed and not f.query(42)
    f.insert(43)
    f.clear()
    assert not f.armed and not f.query(43)


def test_filter_false_positive_rate_small():
    f = SlowInstructionFilter()
    rng = random.Random(0)
    members = rng.sample(range(100_000), 50)
    for pc in members:
        f.insert(pc)
    others = [pc for pc in range(1000) if pc not in set(members)]
    fp = sum(f.query(pc) for pc in others)
    assert fp / len(others) < 0.05


def test_filter_no_false_negatives():
    f = SlowInstructionFilter()
    for pc in range(0, 5000, 7):
        f.insert(pc)
    assert all(f.query(pc) for pc in range(0, 5000, 7))


# -- scoreboard -----------------------------------------------------------------

def test_scoreboard_skip_pattern():
    """The validation-skip example: two predicted producers, one consumer
    with all-validated sources gets skipped, a consumer with one unpredicted
    source must still validate."""
    sb = Scoreboard()
    assert sb.apply("ALU", 1, (0,), has_prediction=True) == "validate"   # i1
    assert sb.apply("ALU", 2, (0,), has_prediction=True) == "validate"   # i2
    assert sb.apply("LOAD", 3, (), has_prediction=False) == "normal"     # i3
    assert sb.apply("ALU", 4, (1, 2), has_prediction=True) == "skip"     # i4
    assert sb.apply("ALU", 5, (1, 3), has_prediction=True) == "validate" # i5


def test_scoreboard_unpredicted_clears_dst():
    sb = Scoreboard()
    sb.apply("ALU", 1, (0,), has_prediction=True)
    assert sb.bits[1]
    sb.apply("ALU", 1, (0,), has_prediction=False)
    assert not sb.bits[1]


def test_scoreboard_load_clears_even_with_prediction():
    # only ALU-class instructions may skip; a predicted load still validates
    sb = Scoreboard()
    sb.apply("ALU", 1, (0,), has_prediction=True)
    assert sb.apply("LOAD", 2, (1,), has_prediction=True) == "normal"
    assert not sb.bits[2]


def test_scoreboard_reset():
    sb = Scoreboard()
    sb.apply("ALUI", 1, (0,), has_prediction=True)
    sb.reset()
    assert not any(sb.bits)


def test_scoreboard_clean_until_a_predicted_alu_op():
    sb = Scoreboard()
    assert sb.clean
    sb.apply("LOAD", 2, (1,), has_prediction=True)     # clears, sets nothing
    sb.apply("ALU", 3, (1,), has_prediction=False)
    assert sb.clean
    sb.apply("MUL", 1, (0,), has_prediction=True)
    assert not sb.clean
    sb.apply("ALU", 1, (0,), has_prediction=False)     # bit cleared, flag kept
    assert not sb.clean
    sb.reset()
    assert sb.clean


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_scoreboard_skip_soundness(seed):
    """An instruction is only ever skipped when it has a prediction and every
    source bit was set by a predicted ALU-class producer (no clears since);
    a clean scoreboard has no bit set.  The instructions use r0-r7 only, so
    that predicted producers and their consumers meet often."""
    rng = random.Random(seed)
    sb = Scoreboard()
    shadow = [False] * len(sb.bits)
    for _ in range(60):
        if rng.random() < 0.05:     # a taken branch or a replay
            sb.reset()
            shadow = [False] * len(sb.bits)
            assert sb.clean
        op = rng.choice(ALU_CLASS + ("LOAD", "STORE"))
        dst = rng.randrange(8) if op != "STORE" else None
        srcs = tuple(rng.randrange(8) for _ in range(rng.randint(1, 2)))
        pred = rng.random() < 0.5
        action = sb.apply(op, dst, srcs, pred)
        if action == "skip":
            assert pred and op in ALU_CLASS
            assert all(shadow[r] for r in srcs)
        # maintain the independent shadow copy of the rule
        if pred and op in ALU_CLASS:
            shadow[dst] = True
        elif dst is not None:
            shadow[dst] = False
        assert sb.bits == shadow
        if sb.clean:
            assert not any(sb.bits)


# -- unit glue ---------------------------------------------------------------

def test_train_inserts_slow_pcs_in_window():
    vru = ValueReuseUnit()
    vru.train(pc=7, latency=200, loop_iteration=0)
    vru.train(pc=8, latency=3, loop_iteration=0)       # fast: not slow
    vru.train(pc=9, latency=200, loop_iteration=50)    # outside the window
    assert vru.should_emit(7)
    assert not vru.should_emit(8)
    assert not vru.should_emit(9)


def test_train_boundary_latency():
    vru = ValueReuseUnit()
    vru.train(pc=1, latency=20, loop_iteration=0)      # exactly threshold
    vru.train(pc=2, latency=19, loop_iteration=0)
    assert vru.should_emit(1)
    assert not vru.should_emit(2)


def test_mispredict_deletes_from_filter():
    vru = ValueReuseUnit()
    vru.train(pc=7, latency=200, loop_iteration=0)
    assert vru.should_emit(7)
    vru.on_mispredict(7)
    assert not vru.should_emit(7)
    assert vru.counters.mispredicted == 1
