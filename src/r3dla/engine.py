"""Cycle-level timing engine for the two-thread look-ahead machine.

Correctness and timing are deliberately split.  Each thread owns a functional
instruction stream: the main thread's stream is the architectural truth, the
look-ahead thread's stream is a masked walk of the same program over private
(possibly stale) state.  The timing cores never compute values; they fetch,
dispatch and commit stream records with latencies from the memory model, so
a timing bug can slow the machine down but can never corrupt results.

Per cycle the look-ahead core ticks first, then the main core; within a core
the order is commit, dispatch, fetch.  Branch outcomes travel through the
branch outcome queue (BOQ), typed hints (prefetch addresses and reusable
values) through the footnote queue attached to BOQ entries.  The main
thread consumes one BOQ entry per conditional branch at fetch; a mismatch is
a mispredict and triggers a look-ahead reboot from the main thread's fetch
frontier.

Most cycles are idle: both threads wait on memory or on each other.  After
a cycle in which no core commits, dispatches or fetches and no reboot runs,
every following cycle repeats it until the clock reaches an event
(``Engine._wake_cycle``: a window head completing, a fetch block ending, a
reboot falling due, an MSHR freeing for a queued prefetch, the watchdog or
``max_cycles``).  The loop jumps to the cycle before that event and credits
the skipped cycles in one step to everything counted per cycle: the
fetch-buffer and BOQ occupancy histograms, the zero bins of the demand and
supply histograms, the main thread's fetch bubbles at the idle cycle's rate,
BOQ empty stalls if the main thread starved, and the last periodic cache
drain of the stretch.  Every ``RunStats`` field is the same as stepping each
cycle.

A baseline run in mode "normal" runs no cycle loop at all
(``Engine._walk_in_order``).  One core that fetches, dispatches and
commits in program order gives each instruction i its fetch (F), dispatch
(D), complete (C) and commit (K) cycles from earlier instructions' alone,
so one walk over the main thread's records computes them:

- F_i is F_{i-1}, or F_{i-1} + 1 once i-1 ended its fetch group
  (``fetch_width`` reached, a taken branch, a jump, a call, a return or a
  mispredict).  It is at least the fetch block (a BTB miss blocks until
  F + 1 + ``btb_penalty``, a mispredicted branch b until
  C_b + ``mispredict_penalty``) and D_{i - fetch_buffer}, as dispatch runs
  before fetch in a cycle.  The record is ``MainStream.get(i)`` at F_i; the
  first None is the cycle H at which the halt is seen.
- D_i is at least F_i + 1, D_{i-1} and K_{i - window_size}, and one more
  once ``decode_width`` instructions dispatched at D_{i-1}.  The operands'
  start, the access (after the periodic drains below D_i) and C_i are as
  in ``_Core.dispatch``.
- K_i is at least C_i, D_i + 1 and K_{i-1}, and one more once
  ``commit_width`` instructions committed at K_{i-1}.  It pops the record
  at the left of ``MainStream.recs``.

The run ends at max(H, K_last).  The fetch-buffer histogram and the fetch
bubbles, counted per cycle by the loop, come from the fetch and dispatch
groups and the D and K cycles, and the walk keeps nothing per instruction
beyond the pipeline's depth.

A DLA run walks too when recycling is off (``Engine._walkable``): no
version swap happens, and the run is two walks in program order, one per
core.  The main thread's (MT) walk is the baseline walk with the same
rules, except that a conditional branch is predicted by its BOQ entry, not
by the 2-bit counters.  MT branch b is fetched no earlier than P_b, the
cycle in which look-ahead (LT) branch b commits and is pushed (the LT
ticks first in a cycle), and each cycle from F'_b, the fetch cycle the
rules above give it, to P_b finds the BOQ empty: max(0, P_b - F'_b) goes
to ``boq_empty_stalls``.  LT branch j commits no earlier than one cycle
after the MT pops branch j - ``boq_capacity`` (a full BOQ holds the LT's
commit).  The commit hooks (loop tracking, and with it T1's ``loop_end``
and value reuse's training) run for every commit with K <= D before a T1
observe at D, and T1's prefetches issue at the end of each cycle, as
``_issue_prefetches`` does, before any later access.  The LT walk runs
ahead only as far as the MT asks, and at the end up to the run's last
cycle, for ``lt_committed`` and ``lt_walked``.  How the walks meet depends
on whether the LT's skeleton version holds a LOAD or STORE:

- If it holds none, the LT touches no memory: the cache belongs to the MT
  and T1, and no prefetch footnote can be made, so the two walks share
  only the BOQ.  The LT walk (``Engine._lookahead_walk``) finishes each
  instruction before the next, and gives the MT the next push when the MT
  fetches its next branch.
- If it holds one, the LT's loads and stores share the cache and the MSHRs
  with the MT's, its L1 misses go down as prefetch footnotes, and while
  value reuse's filter is armed its values go down as reuse footnotes; the
  MT's pops release them into the prefetch queue and the predictions.
  Every access, prefetch issue and periodic drain must reach
  ``MemorySystem``, and every push, footnote and pop the engine's queues,
  in the loop's order: by cycle, then LT commit, LT dispatch, MT commit
  hooks, MT dispatch, MT fetch, and the end-of-cycle prefetch issue and
  drain.  The LT walk (``Engine._lookahead_events``) makes its events in
  that order, committing an instruction only in its cycle; the MT walk
  resumes it up to each cycle that the MT's next shared event falls in,
  an event of the LT at cycle t reading only the MT's events before t.
  The MT's fetch runs ahead of its dispatch where it must: before a LOAD
  or STORE accesses the cache at D, every branch fetched before D is
  popped (its pop moves the LT and the prefetch queue, and no fetch cycle
  depends on an access made at or after it).  The MT's commit hooks wait
  in a queue, and the LT runs those before its commit's cycle, where it
  reads the filter.  Value reuse's dispatch step (confirm, skip,
  scoreboard) runs as in ``on_mt_dispatch``.

``boq_occupancy`` comes from the push and pop cycles, and the depth law is
checked at each of them (``Engine._boq_occupancy``).

Where the loop would decide the outcome, a walk hands the run back: a
cycle past ``max_cycles``, a gap from one commit, or from the start, to
the next commit or to H past the watchdog, or a fault in the main stream;
in a DLA run also a BOQ entry that does not match (a reboot), an LT walk
that ends before the MT's next branch (a guard reboot), a value-reuse
mispredict (a replay), and, when the LT touches no memory, value reuse's
slow-instruction filter arming (reuse footnotes).  ``_hand_back`` then
rebuilds the run's state as ``__init__`` did, and ``run`` runs the cycle
loop, which gives the partial result, the error message with its cycle,
or the run with its reboots or replays.  The cycle loop stays for
recycling DLA runs, for the idealized modes, and as the walks' oracle:
``test_walk_in_order_matches_the_cycle_loop`` and the
``test_dla_walk_matches_the_cycle_loop`` tests force the loop and compare
the results.

In the cycles that do run, an idle unit or stage costs one test.  Value
reuse acts at main-thread dispatch only on a pending prediction or a set
scoreboard bit (the scoreboard is not ``clean``), and at look-ahead commit
only on a non-branch while the slow-instruction filter is ``armed``.  Commit
returns when the window head is not complete, dispatch when the fetch buffer
is empty (crediting the fetch bubbles), fetch when the buffer is full, and
the main thread's fetch when it is still on the branch that found the BOQ
empty and the BOQ still is (counting the stall).  Each skipped path would
change nothing; ``test_fast_paths_match_slow_paths`` forces it and compares
the results.

Both functional streams run a hot straight-line run as one generated
function.  Once a run (from a start pc to the first control instruction,
or to just before HALT) has started ``skeleton.COMPILE_AFTER`` times, it is
compiled from ``uisa.instr_source``, the one source form of the ISA's
semantics, into a function that steps all of its instructions and builds
all of their records in one call, with no ``uisa.step`` call or opcode
dispatch per record.  The look-ahead thread's runs are compiled per
skeleton version, with its masked-out slots, converted branches and branch
offsets built in, and kept in a table per version on the ``Engine``, so
the walk a reboot starts reuses them.  Cold runs, the main thread's runs
within a program's length of ``limit`` and a faulting instruction step with
``uisa.step``: a compiled run stops before an instruction that would
fault, and ``uisa.step`` raises the interpreter's error, or ends the
look-ahead walk, at the same record.  The main thread's stream can
therefore be up to one run ahead of the records it has handed out
(``MainStream.next``).  A reboot must start the look-ahead thread from the
state after record ``next - 1``, so each compiled run also returns the
values before it of the registers it writes and the words its STOREs
overwrite, and ``MainStream.snapshot`` undoes the run's unhanded records on
a copy of the state (pc, registers, memory, and the call stack for a
trailing CALL or RET).  The records, and so every ``RunStats`` field, are
the same as stepping each instruction; ``test_compiled_streams_match_stepping``
compiles every run or none and compares the results.

The engine takes only what a config gives it; tests watch and perturb a run
through the state it already keeps.  Every main-thread commit pops its record
at the left of ``MainStream.recs``, so a deque subclass put in as
``eng.mt_stream.recs`` sees each committed record in order (the commit log
that the firewall tests compare with the functional interpreter).  Every
value-reuse prediction is stored in ``Engine.predictions`` when its branch
reaches main-thread fetch, so a dict subclass put in there can flip a value
as it is stored (fault injection, which must cost replays and never change a
committed value).  A run that a walk hands back starts over on both objects
cleared, not replaced, so the log holds the cycle loop's commits.
``tests/reference.py`` holds both helpers.

Who references what: the ``Engine`` owns its cores (``mt``, ``lt``), and
each core holds the ``MemorySystem`` and its stream.  A core's stages call
the engine's hooks through ``_Core.engine``, which ``Engine.run`` sets when
it starts and clears when it returns or raises.  It is a plain reference,
not a weak proxy, because perfbench's tracer keys a dict on ``core.engine``
inside its stage wrappers, and a proxy cannot be hashed.  Outside ``run``
nothing points back at the engine, so a finished run is freed by reference
counting as soon as its caller drops it, not at a later pass of the cyclic
garbage collector.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields, asdict, replace
from typing import ClassVar

from . import skeleton, uisa
from .memsys import (MemorySystem, CacheConfig, MT, LT, check_int,
                     check_int_fields)
from .skeleton import NUM_VERSIONS, SkeletonSet
from .t1 import T1Table, LatencyEstimator
from .vreuse import ValueReuseUnit, TRAIN_ITERATIONS
from .recycle import LoopTracker, RecycleController, check_mode as check_recycle_mode

PROGRESS_WATCHDOG = 200_000   # cycles without a main-thread commit -> error
DRAIN_PERIOD = 16
PF_QUEUE_CAP = 64             # prefetches awaiting MSHR room
MUL_LATENCY = skeleton.EXEC_LATENCY["MUL"]    # other non-memory ops take 1
# baseline-only "ideal_fetch" (perfect fetch) and "ideal_backend" (instant
# backend) record the fetch buffer's demand and supply histograms
MODES = ("normal", "ideal_fetch", "ideal_backend")


class EngineError(Exception):
    pass


def check_version(name: str, version) -> None:
    """Refuse anything but a skeleton version, an int in 0..NUM_VERSIONS-1."""
    if type(version) is not int or not 0 <= version < NUM_VERSIONS:
        raise EngineError(f"{name}: must be an integer in "
                          f"0..{NUM_VERSIONS - 1}, got {version!r}")


def check_limits(**limits) -> None:
    """Refuse a run ``limit`` or ``max_cycles`` that is not an int >= 1."""
    for name, value in limits.items():
        check_int(name, value, 1, EngineError)


def check_mode(mode, dla: bool) -> None:
    """Refuse a mode not in ``MODES``, and an idealized one for a DLA run."""
    if mode not in MODES:
        raise EngineError(f"mode: must be one of {MODES}, got {mode!r}")
    if mode != "normal" and dla:
        raise EngineError(f"mode: {mode!r} is a baseline-only measurement; "
                          "a dla run runs in mode 'normal'")


@dataclass(frozen=True)
class CoreParams:
    fetch_width: int = 4
    decode_width: int = 4
    commit_width: int = 4
    window_size: int = 192
    fetch_buffer: int = 32
    mispredict_penalty: int = 20
    btb_penalty: int = 2
    ZERO_OK: ClassVar = ("mispredict_penalty", "btb_penalty")

    def __post_init__(self):
        check_int_fields(CoreParams, asdict(self), EngineError)


@dataclass(frozen=True)
class DlaParams:
    boq_capacity: int = 512
    fq_capacity: int = 128
    reboot_cycles: int = 64
    ZERO_OK: ClassVar = ("reboot_cycles",)

    def __post_init__(self):
        check_int_fields(DlaParams, asdict(self), EngineError)


@dataclass(frozen=True)
class Features:
    t1: bool = False
    value_reuse: bool = False
    fetch_buffer: bool = True
    recycle: str = "off"            # one of recycle.MODES
    static_versions: dict = field(default_factory=dict)   # loop pc -> version
    boq_prefetch_release: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is bool and type(value) is not bool:
                raise EngineError(f"{f.name}: must be true or false, got {value!r}")
        check_recycle_mode(self.recycle, EngineError)
        if type(self.static_versions) is not dict:
            raise EngineError(f"static_versions: must be an object, "
                              f"got {self.static_versions!r}")
        for loop_pc, version in self.static_versions.items():
            name = f"static_versions.{loop_pc}"
            check_int(name, loop_pc, 0, EngineError)
            check_version(name, version)

    @classmethod
    def from_dict(cls, d: dict) -> "Features":
        """The features of a JSON object: a static_versions key "7" is loop pc 7."""
        sv = d.get("static_versions")
        if type(sv) is dict:
            d = {**d, "static_versions": {int(k) if str(k).isdecimal() else k: v
                                          for k, v in sv.items()}}
        return cls(**d)


# ---------------------------------------------------------------------------
# functional streams
#
# A record is (instr, eff_addr, value, taken, offset) where offset is the
# dynamic distance from the preceding conditional branch in the walk
# (meaningful on the look-ahead side, None on the main-thread side).  A
# stream builds each record once; the core's fetch buffer and window carry
# it as (idx, rec).  The main thread reads a record again after a value-reuse
# replay or a retry on an empty BOQ, so ``MainStream`` keeps it until commit
# pops it.  The look-ahead thread never reads one twice (it never replays,
# and a reboot builds a new stream), so ``LookaheadStream`` hands each record
# out once, in order, and keeps only the rest of its last compiled run.

class _RunTable:
    """The compiled straight-line runs of one walk (the main thread's, or
    the look-ahead thread's under one skeleton version), by start pc.

    ``counts[pc]`` is how often the walk has asked for a record at ``pc``
    with none computed; once that reaches ``compile_after``
    (``skeleton.COMPILE_AFTER``), ``runs[pc]`` holds the run from ``pc``
    compiled into one function, or False for a look-ahead run with no
    record.  ``Engine`` validates its program, so every opcode and subop is
    in ``uisa.instr_source``'s tables.
    """

    __slots__ = ("counts", "runs", "compile_after")

    def __init__(self, n: int):
        self.counts = [0] * n
        self.runs: list = [None] * n
        self.compile_after = skeleton.COMPILE_AFTER

    def start(self, pc: int, compile_run, *args):
        """Count a start of the run from ``pc``, which is not compiled yet;
        return ``compile_run(*args)`` once it has enough, else None."""
        count = self.counts[pc]
        if count < self.compile_after:
            self.counts[pc] = count + 1
            return None
        self.runs[pc] = fn = compile_run(*args)
        return fn


def _tuple_source(items: list[str]) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _compile_main_run(program: uisa.StaticProgram, start: int):
    """The straight-line run from ``start`` as one function for
    ``MainStream``.

    ``fn(state, recs)`` steps the run's instructions as ``uisa.step`` does,
    appends their records to ``recs`` and returns ``(batch, writes, pre,
    olds)``: the records, the registers the run writes, their values
    before it, and the word each of its STOREs overwrote (None where memory
    held none), in order.  At an instruction that would fault it stops
    before that instruction, with ``state.pc`` on it, and returns what ran.
    """
    body = uisa.straight_line(program.instrs, start)
    writes = tuple(sorted({ins.dst for ins in body if ins.dst is not None}))
    free = {"writes": writes}
    src = ["r = state.regs", "m = state.memory"]
    pre = "()"
    if writes:
        src.append("p = " + _tuple_source([f"r[{w}]" for w in writes]))
        pre = "p"
    recs, olds = [], []

    def leave():
        return [f"b = {_tuple_source(recs)}", "recs.extend(b)",
                f"return b, writes, {pre}, {_tuple_source(olds)}"]

    for k, ins in enumerate(body):
        fault = [f"state.pc = {int(ins.index)}", *leave()]
        src += uisa.instr_source(ins, k, fault, keep_old=True)
        free[f"i{k}"] = ins
        op = ins.opcode
        if op in ("ALUI", "ALU", "MUL"):
            recs.append(f"(i{k}, None, v{k}, None, None)")
        elif op == "LOAD" or op == "STORE":
            recs.append(f"(i{k}, a{k}, v{k}, None, None)")
            if op == "STORE":
                olds.append(f"o{k}")
        elif op == "BR_COND":
            recs.append(f"(i{k}, None, None, t{k}, None)")
        else:
            free[f"c{k}"] = (ins, None, None, None, None)
            recs.append(f"c{k}")
    if not ins.is_control:
        src.append(f"state.pc = {int(ins.index) + 1}")
    return uisa.build_function("state, recs", src + leave(), free,
                               f"<main-thread run from pc {start}>")


def _compile_lookahead_run(program: uisa.StaticProgram, start: int,
                           bits, converted, bias_dirs):
    """The look-ahead walk's straight-line run from ``start`` under one
    skeleton version as one function for ``LookaheadStream``, or False if
    it holds no record.

    The run ends at its last record: trailing masked-out slots before a HALT
    are left to the next walk.  ``fn(state, sb)``, with ``sb`` the walk's
    ``since_branch``, steps the run's instructions inside the walk as
    ``uisa.step`` does, skips the masked-out ones, follows a converted
    branch's bias, and returns ``(batch, since_branch, walked)``: the
    records, ``since_branch`` after the last of them, and the slots walked
    up to it.  At an instruction that would fault it stops after the last
    record before it, with ``state.pc`` just past that record.
    """
    body = uisa.straight_line(program.instrs, start)
    walk = [ins for ins in body if ins.index in bits or ins.is_control]
    if not walk:
        return False
    free = {}
    src = ["r = state.regs", "m = state.memory"]
    recs = []
    after = (start, "sb", 0)        # (pc, since_branch, walked) at the last record
    for ins in walk:
        pc = int(ins.index)
        k = pc - start
        if pc in converted:
            taken = bias_dirs[pc]
            free[f"c{k}"] = (ins, None, None, taken, None)
            recs.append(f"c{k}")
            src.append(f"state.pc = {int(ins.target) if taken else pc + 1}")
            after = (None, "0", k + 1)
            break
        fault = [f"state.pc = {after[0]}",
                 f"return {_tuple_source(recs)}, {after[1]}, {after[2]}"]
        src += uisa.instr_source(ins, k, fault)
        free[f"i{k}"] = ins
        off = f"sb + {k + 1}"
        op = ins.opcode
        if op in ("ALUI", "ALU", "MUL"):
            recs.append(f"(i{k}, None, v{k}, None, {off})")
        elif op == "LOAD" or op == "STORE":
            recs.append(f"(i{k}, a{k}, v{k}, None, {off})")
        elif op == "BR_COND":
            recs.append(f"(i{k}, None, None, t{k}, {off})")
        else:
            recs.append(f"(i{k}, None, None, None, {off})")
        after = (pc + 1, "0" if op == "BR_COND" else off, k + 1)
    if not ins.is_control:
        src.append(f"state.pc = {int(ins.index) + 1}")
    src.append(f"return {_tuple_source(recs)}, {after[1]}, {after[2]}")
    return uisa.build_function("state, sb", src, free,
                               f"<look-ahead run from pc {start}>")


class MainStream:
    """Lazy architectural trace of the full program.

    The uncommitted records are contiguous, oldest first, so ``recs`` is a
    deque that commit pops at the left, and record ``idx`` is ``end - idx``
    places from its right end.  ``get`` takes an index up to ``next``: an
    older one is a re-read, and ``next`` itself hands out the next record
    (or gives None once the walk has halted).

    A straight-line run that has started ``COMPILE_AFTER`` times runs as one
    compiled function (``_compile_main_run``), which computes all of its
    records at once, so ``end``, the records computed, can run up to one
    run ahead of ``next``, the records handed out.  ``state`` is the state
    after record ``end - 1``; ``snapshot`` gives the one after ``next - 1``.
    Cold runs, the runs near ``limit`` and a faulting instruction step with
    ``uisa.step``, one record at a time.
    """

    def __init__(self, program: uisa.StaticProgram, limit: int):
        self.program = program
        self.state = uisa.ArchState.initial(program)
        self.recs: deque[tuple] = deque()
        self.next = 0
        self.end = 0
        self.halted = False
        self.hit_limit = False
        self.limit = limit
        # a run is at most the whole program: below this no run passes limit
        self.batch_limit = limit - len(program.instrs)
        self.table = _RunTable(len(program.instrs))
        self.undo = None    # what _compile_main_run's function returned last

    def get(self, idx: int):
        nxt = self.next
        if idx < nxt:
            return self.recs[idx - self.end]
        if idx != nxt:
            raise EngineError(f"main stream asked for record {idx}, "
                              f"but its next record is {nxt}")
        if idx < self.end:
            self.next = idx + 1
            return self.recs[idx - self.end]
        if self.halted:
            return None
        program = self.program
        state = self.state
        pc = state.pc
        ins = program.instrs[pc]
        if ins.opcode == "HALT":
            self.halted = True
            return None
        if idx >= self.limit:
            self.halted = True
            self.hit_limit = True
            return None
        fn = self.table.runs[pc]
        if fn is None:
            fn = self.table.start(pc, _compile_main_run, program, pc)
        if fn and idx <= self.batch_limit:
            undo = self.undo = fn(state, self.recs)
            batch = undo[0]
            if batch:
                self.end = idx + len(batch)
                self.next = idx + 1
                return batch[0]
        rec = (ins, *uisa.step(state, program, idx), None)
        self.recs.append(rec)
        self.next = self.end = idx + 1
        return rec

    def snapshot(self) -> uisa.ArchState:
        """A copy of the state after record ``next - 1``: the last compiled
        batch's records not yet handed out are undone."""
        state = self.state.clone()
        back = self.end - self.next
        if not back:
            return state
        batch, writes, pre, olds = self.undo
        cut = len(batch) - back         # the batch's records handed out
        regs = state.regs
        mem = state.memory
        for r, v in zip(writes, pre):
            regs[r] = v
        stores = [rec[1] for rec in batch if rec[0].opcode == "STORE"]
        for addr, old in reversed(list(zip(stores, olds))):
            if old is None:
                del mem[addr]
            else:
                mem[addr] = old
        for ins, addr, value, _, _ in batch[:cut]:
            if ins.dst is not None:
                regs[ins.dst] = value
            elif ins.opcode == "STORE":
                mem[addr] = value
        state.pc = batch[cut][0].index
        op = batch[-1][0].opcode        # a control op ends its run
        if op == "CALL":
            state.call_stack.pop()
        elif op == "RET":
            state.call_stack.append(self.state.pc)
        return state


class LookaheadStream:
    """Masked walk: skeleton bits plus all control; conversions follow bias.

    Masked-out instructions are skipped without executing (their dynamic
    slot still counts toward branch offsets).  The walk is ``done`` at HALT
    or when stale state makes an instruction fail to execute; the engine
    reboots it.  ``get`` takes the indices in order: each call asks for
    ``next`` (again, once the walk is done, to get None).

    A straight-line run of the walk that has started ``COMPILE_AFTER`` times
    runs as one compiled function (``_compile_lookahead_run``), kept in
    ``table``, which the engine keeps per skeleton version so that the
    stream a reboot builds reuses it.  Its records wait in ``batch`` and go
    out one per ``get``; ``walked`` counts the slots up to the last record
    handed out, as a lazy walk would.
    """

    def __init__(self, program: uisa.StaticProgram, skel: SkeletonSet,
                 version: int, state: uisa.ArchState, table: _RunTable):
        mask = skel.versions[version]
        self.program = program
        self.bits = mask.bits
        self.converted = mask.converted_branches
        self.bias_dirs = skel.bias_dirs
        self.state = state
        self.table = table
        self.next = 0
        self.done = False
        self.since_branch = 0
        self.batch: tuple = ()
        self.pos = 0            # records of ``batch`` handed out
        self._walked = 0        # slots walked, up to the end of ``batch``

    @property
    def walked(self) -> int:
        batch = self.batch
        if self.pos < len(batch):
            return (self._walked - batch[-1][0].index
                    + batch[self.pos - 1][0].index)
        return self._walked

    def get(self, idx: int):
        if idx != self.next:
            raise EngineError(f"look-ahead stream asked for record {idx}, "
                              f"but its next record is {self.next}")
        pos = self.pos
        batch = self.batch
        if pos < len(batch):
            self.pos = pos + 1
            self.next = idx + 1
            return batch[pos]
        if self.done:
            return None
        program = self.program
        state = self.state
        pc = state.pc
        fn = self.table.runs[pc]
        if fn is None:
            fn = self.table.start(pc, _compile_lookahead_run, program, pc,
                                  self.bits, self.converted, self.bias_dirs)
        if fn:
            batch, self.since_branch, walked = fn(state, self.since_branch)
            self._walked += walked
            if batch:
                self.batch = batch
                self.pos = 1
                self.next = idx + 1
                return batch[0]
        instrs = program.instrs
        bits = self.bits
        converted = self.converted
        while True:
            pc = state.pc
            ins = instrs[pc]
            op = ins.opcode
            if op == "HALT":
                self.done = True
                return None
            self._walked += 1
            if pc in converted:
                taken = self.bias_dirs[pc]
                state.pc = ins.target if taken else pc + 1
                self.next = idx + 1
                self.since_branch = 0
                return (ins, None, None, taken, None)
            if pc in bits or ins.is_control:
                try:
                    eff_addr, value, taken = uisa.step(state, program, idx)
                except uisa.ExecError:
                    self.done = True
                    return None
                self.since_branch += 1
                off = self.since_branch
                if op == "BR_COND":
                    self.since_branch = 0
                self.next = idx + 1
                return (ins, eff_addr, value, taken, off)
            state.pc = pc + 1   # masked out: free slot, no record
            self.since_branch += 1


# ---------------------------------------------------------------------------

class BoqEntry:
    __slots__ = ("pc", "taken", "fq_count")

    def __init__(self, pc: int, taken: bool):
        self.pc = pc
        self.taken = taken
        self.fq_count = 0


@dataclass
class RunStats:
    cycles: int = 0
    instructions: int = 0
    partial: bool = False
    fetch_bubbles: int = 0
    branches: int = 0
    mispredicts: int = 0
    boq_consumed: int = 0
    boq_empty_stalls: int = 0
    boq_mispredicts: int = 0
    reboots: int = 0
    reboot_reasons: dict = field(default_factory=dict)
    version_swaps: int = 0
    lt_committed: int = 0
    lt_walked: int = 0
    footnotes: dict = field(default_factory=dict)
    fq_drops: int = 0
    vreuse: dict = field(default_factory=dict)
    t1: dict = field(default_factory=dict)
    mem: dict = field(default_factory=dict)
    boq_occupancy: list = field(default_factory=list)
    fb_occupancy: list = field(default_factory=list)
    demand_hist: dict = field(default_factory=dict)
    supply_hist: dict = field(default_factory=dict)
    recycle: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / max(1, self.cycles)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ipc"] = self.ipc
        return d


class _Core:
    """One in-order-fetch, out-of-order-complete timing core."""

    def __init__(self, params: CoreParams, mem: MemorySystem, mem_mode: str,
                 stream, role: str):
        self.p = params
        self.mem = mem
        self.mem_mode = mem_mode
        self.stream = stream
        # role is "baseline", "mt" (main thread of a DLA run) or "lt"
        self.is_lt = role == "lt"
        self.is_mt_dla = role == "mt"
        self.engine: Engine | None = None     # set only while Engine.run runs
        self.window: deque = deque()          # (complete, dispatched, rec)
        self.fetch_buffer: deque = deque()    # (idx, rec)
        self.fb_cap = params.fetch_buffer
        self.fetch_idx = 0
        self.fetch_blocked_until = 0
        self.wait_resolution: int | None = None
        # MT branches that the BOQ mispredicted and have not yet dispatched
        self.boq_mispredicted: set[int] = set()
        self.reg_ready = [0] * uisa.NUM_REGS
        self.committed = 0
        self.branches = 0
        self.mispredicts = 0
        self.fetch_bubbles = 0                # counted on the main thread only
        # per-pc saturating 2-bit counters, initialized weakly taken (2)
        self.predictor: dict[int, int] = {}
        self.btb: set[int] = set()
        self.boq_done_idx = -1
        self.last_fetched = 0
        self.last_dispatched = 0
        self.boq_starved_at = -1
        self.starved_idx = -1     # the MT branch that last found the BOQ empty

    # -- commit ---------------------------------------------------------------

    def commit(self, now: int) -> None:
        window = self.window
        if not window or window[0][0] > now:
            return
        n = 0
        width = self.p.commit_width
        eng = self.engine
        is_lt = self.is_lt
        # the hooks run only for what they act on: the LT's branches (BOQ)
        # and, while the slow-instruction filter is armed, its reuse
        # footnotes; the MT's loop tracking (BR_COND, CALL; DLA runs only)
        # and value-reuse training.  Only the MT's commit, after the LT's in
        # a cycle, arms the filter.
        if is_lt:
            emit = eng.features.value_reuse and eng.vru.sif.armed
        else:
            recs = self.stream.recs
            track = self.is_mt_dla
        while window and n < width:
            complete, dispatched, rec = window[0]
            if complete > now:
                break
            op = rec[0].opcode
            if (is_lt and (emit or op == "BR_COND")
                    and not eng.lt_commit(rec, now)):
                break   # BOQ full or footnote queue full: stall commit
            window.popleft()
            self.committed += 1
            n += 1
            if not is_lt:
                if ((track and (op == "BR_COND" or op == "CALL"))
                        or eng.training):
                    eng.on_mt_commit(self, rec, dispatched, complete, now)
                recs.popleft()

    # -- dispatch ---------------------------------------------------------------

    def dispatch(self, now: int) -> None:
        p = self.p
        window = self.window
        buf = self.fetch_buffer
        space = p.window_size - len(window)
        demand = space if space < p.decode_width else p.decode_width
        is_lt = self.is_lt
        if not buf:
            if not is_lt:
                self.fetch_bubbles += demand
            self.last_dispatched = 0
            return
        n = 0
        eng = self.engine
        # value reuse acts only on a pending prediction or a set scoreboard
        # bit: without either, on_mt_dispatch would change nothing
        reuse = self.is_mt_dla and eng.features.value_reuse
        if reuse:
            predictions = eng.predictions
            sb = eng.vru.scoreboard
        t1_pcs = eng.t1_pcs
        rr = self.reg_ready
        while n < demand and buf:
            idx, rec = buf[0]
            ins = rec[0]
            start = now
            for r in ins.reads:
                t = rr[r]
                if t > start:
                    start = t
            op = ins.opcode
            if op == "LOAD":
                res = self.mem.access(rec[1], "load", self.mem_mode, start)
                complete = start + res.latency
                if is_lt:
                    if res.hit_level != "L1":
                        eng.on_lt_miss(rec[1])
                elif ins.index in t1_pcs:
                    eng.on_mt_load(ins, rec, res, now)
            elif op == "STORE":
                self.mem.access(rec[1], "store", self.mem_mode, start)
                complete = start + 1
            elif op == "MUL":
                complete = start + MUL_LATENCY
            else:
                complete = start + 1

            squashed = False
            ready = complete
            if reuse and (idx in predictions or not sb.clean):
                complete, ready, squashed = eng.on_mt_dispatch(
                    self, idx, ins, rec, complete, now)
            if ins.dst is not None:
                rr[ins.dst] = ready
            if idx == self.wait_resolution:
                self.fetch_blocked_until = complete + p.mispredict_penalty
                self.wait_resolution = None
                if idx in self.boq_mispredicted:
                    self.boq_mispredicted.remove(idx)
                    eng.schedule_reboot(complete, "boq_mispredict")
            window.append((complete, now, rec))
            if not squashed:
                buf.popleft()
            n += 1
            if squashed:
                break
        if not is_lt:
            self.fetch_bubbles += demand - n
        self.last_dispatched = n

    def dispatch_ideal_backend(self, now: int) -> None:
        # backend absorbs everything instantly; used only to measure supply
        buf = self.fetch_buffer
        n = len(buf)
        recs = self.stream.recs
        while buf:
            idx, rec = buf.popleft()
            if idx == self.wait_resolution:
                self.fetch_blocked_until = now + 1 + self.p.mispredict_penalty
                self.wait_resolution = None
            self.committed += 1
            recs.popleft()
        self.last_dispatched = n

    # -- fetch --------------------------------------------------------------

    def fetch(self, now: int) -> None:
        self.last_fetched = 0
        buf = self.fetch_buffer
        if (self.wait_resolution is not None or now < self.fetch_blocked_until
                or len(buf) >= self.fb_cap):
            return
        eng = self.engine
        if self.starved_idx == self.fetch_idx > self.boq_done_idx and not eng.boq:
            # still on the branch that found the BOQ empty, and it still is
            eng.stats.boq_empty_stalls += 1
            self.boq_starved_at = now
            return
        p = self.p
        fetched = 0
        is_mt_dla = self.is_mt_dla
        predictor = self.predictor
        btb = self.btb
        while fetched < p.fetch_width and len(buf) < self.fb_cap:
            idx = self.fetch_idx
            rec = self.stream.get(idx)
            if rec is None:
                break
            ins = rec[0]
            op = ins.opcode
            stop = False
            redirect = False
            if op == "BR_COND":
                taken = rec[3]
                if is_mt_dla:
                    if idx > self.boq_done_idx:
                        if not eng.boq:
                            eng.stats.boq_empty_stalls += 1
                            self.boq_starved_at = now
                            self.starved_idx = idx
                            break
                        entry = eng.boq.popleft()
                        eng.boq_popped += 1
                        eng.stats.boq_consumed += 1
                        if entry.fq_count:
                            eng.process_footnotes(entry, idx, now)
                        self.boq_done_idx = idx
                        if entry.pc != ins.index or entry.taken != taken:
                            self.mispredicts += 1
                            eng.stats.boq_mispredicts += 1
                            self.boq_mispredicted.add(idx)
                            self.wait_resolution = idx
                            stop = True
                    elif idx in self.boq_mispredicted:
                        self.wait_resolution = idx
                        stop = True
                elif self.is_lt and ins.index in self.stream.converted:
                    pass    # statically predicted: never a redirect
                else:
                    pc = ins.index
                    c = predictor.get(pc, 2)
                    if taken:
                        predictor[pc] = c + 1 if c < 3 else 3
                    else:
                        predictor[pc] = c - 1 if c > 0 else 0
                    if (c >= 2) != taken:
                        self.mispredicts += 1
                        self.wait_resolution = idx
                        stop = True
                redirect = taken and not stop
                self.branches += 1
            elif op == "BR_UNCOND" or op == "CALL":
                redirect = True
            elif op == "RET":
                stop = True   # return address stack assumed perfect, 1-group cost
            if redirect:
                # taken control flow ends the fetch group; cold targets cost extra
                stop = True
                if ins.index not in btb:
                    btb.add(ins.index)
                    self.fetch_blocked_until = now + 1 + p.btb_penalty
            buf.append((idx, rec))
            self.fetch_idx = idx + 1
            fetched += 1
            if stop:
                break
        self.last_fetched = fetched

    def fetch_ideal(self, now: int) -> None:
        # fetch never misses, never redirects: used only to measure demand
        buf = self.fetch_buffer
        while len(buf) < self.fb_cap:
            rec = self.stream.get(self.fetch_idx)
            if rec is None:
                break
            buf.append((self.fetch_idx, rec))
            self.fetch_idx += 1

    def drained(self) -> bool:
        return not self.window and not self.fetch_buffer


# ---------------------------------------------------------------------------

class Engine:
    """Owns the cores, the queues, and the feature units for one run."""

    def __init__(self, program: uisa.StaticProgram,
                 params: CoreParams | None = None,
                 cache_config: CacheConfig | None = None,
                 skel: SkeletonSet | None = None,
                 dla: DlaParams | None = None,
                 features: Features | None = None,
                 version: int = 0,
                 limit: int = 10_000_000,
                 max_cycles: int = 200_000_000,
                 mode: str = "normal"):
        program.validate()
        check_version("version", version)
        check_mode(mode, skel is not None)
        check_limits(limit=limit, max_cycles=max_cycles)
        self.program = program
        self.params = params or CoreParams()
        self.cache_config = cache_config or CacheConfig()
        self.dla = dla or DlaParams()
        self.features = features or Features()
        self.skel = skel
        self.dla_on = skel is not None
        self.limit = limit
        self.max_cycles = max_cycles
        self.mode = mode
        # the loads T1 observes (on_mt_load's pcs): the S-bit pcs, when T1 is on
        self.t1_pcs = (skel.s_bits if self.dla_on and self.features.t1
                       else frozenset())
        if self.dla_on:
            self.lt_tables: dict[int, _RunTable] = {}     # by skeleton version
        self._start_run(version, deque(), {})

    def _start_run(self, version: int, recs: deque, predictions: dict) -> None:
        """Build every part of the state a run changes.

        ``__init__`` calls it, and so does a walk that hands its run back
        to the cycle loop (``_hand_back``), which must start from the same
        state.  ``recs`` and ``predictions`` are emptied and put in as
        ``mt_stream.recs`` and ``predictions``: a hand-back passes the
        run's own, so a subclass that a test put in there stays in place.
        """
        recs.clear()
        predictions.clear()
        self.mem = MemorySystem(self.cache_config)
        self.stats = RunStats()
        mt_params = self.params
        if not self.features.fetch_buffer:
            mt_params = replace(self.params, fetch_buffer=self.params.decode_width)
        self.mt_stream = MainStream(self.program, self.limit)
        self.mt_stream.recs = recs
        self.mt = _Core(mt_params, self.mem, MT, self.mt_stream,
                        "mt" if self.dla_on else "baseline")

        self.boq: deque[BoqEntry] = deque()
        self.fq: deque[tuple] = deque()
        self.boq_pushed = 0
        self.boq_popped = 0
        self.predictions: dict[int, tuple] = predictions
        self.pending_reboots: list[tuple[int, str]] = []
        self.pf_queue: deque[int] = deque()   # prefetches awaiting MSHR room
        # value-reuse training: the innermost loop is in its first
        # TRAIN_ITERATIONS iterations (see on_mt_commit)
        self.training = False

        self.version = version
        self.lt = None
        if self.dla_on:
            self.lt_stream = self._lookahead_stream(
                uisa.ArchState.initial(self.program))
            self.lt = _Core(self.params, self.mem, LT, self.lt_stream, "lt")
            self.tracker = LoopTracker()
            self.vru = ValueReuseUnit()
            self.t1 = T1Table()
            self.lat_est = LatencyEstimator(default=float(self.mem.cfg.cold_latency()))
            self.recycler = (None if self.features.recycle == "off" else
                             RecycleController(self.features.recycle,
                                               self.features.static_versions))
            self.prefetch_footnotes = 0
            self.boq_occ = [0] * (self.dla.boq_capacity + 1)
        self.fb_occ = [0] * (self.mt.fb_cap + 1)

    def _hand_back(self) -> None:
        """A walk gives its run up (and returns None): the run starts over,
        on the state ``__init__`` built, in the cycle loop."""
        self._start_run(self.version, self.mt_stream.recs, self.predictions)

    # -- look-ahead side hooks -------------------------------------------------

    def lt_commit(self, rec, now: int) -> bool:
        """Commit one LT record's outputs; False stalls the LT's commit.

        A conditional branch pushes its outcome to the BOQ; with value reuse,
        a value of a pc the slow-instruction filter names goes down as a
        footnote.  A full BOQ or footnote queue holds the record back.  The
        core calls this only for branches and, while value reuse's filter is
        ``armed``, for every record: nothing else has outputs.
        """
        ins = rec[0]
        if ins.opcode == "BR_COND":
            if len(self.boq) >= self.dla.boq_capacity:
                return False
            self.boq.append(BoqEntry(ins.index, rec[3]))
            self.boq_pushed += 1
        elif (ins.dst is not None and rec[2] is not None
                and self.vru.should_emit(ins.index)):
            if len(self.fq) >= self.dla.fq_capacity:
                return False
            if self.boq:
                self.fq.append(("reuse", ins.index, ins.dst, rec[2], rec[4]))
                self.boq[-1].fq_count += 1
                self.vru.counters.emitted += 1
            else:
                self.stats.fq_drops += 1
        return True

    def on_lt_miss(self, addr: int) -> None:
        """An LT load missed L1: the main thread will likely miss there too."""
        if self.boq and len(self.fq) < self.dla.fq_capacity:
            self.fq.append(("prefetch", addr))
            self.boq[-1].fq_count += 1
            self.prefetch_footnotes += 1
        else:
            self.stats.fq_drops += 1

    # -- main-thread side hooks ----------------------------------------------

    def process_footnotes(self, entry: BoqEntry, branch_idx: int, now: int) -> None:
        for _ in range(entry.fq_count):
            fn = self.fq.popleft()
            kind = fn[0]
            if kind == "prefetch":
                if self.features.boq_prefetch_release:
                    if len(self.pf_queue) < PF_QUEUE_CAP:
                        self.pf_queue.append(fn[1])
                    else:
                        self.stats.fq_drops += 1
            elif kind == "reuse":
                _, pc, dst, value, off = fn
                if off is not None:
                    self.predictions[branch_idx + off] = (pc, dst, value)

    def on_mt_load(self, ins, rec, res, now: int) -> None:
        """A main-thread load of a pc in ``t1_pcs``: T1 observes it."""
        pc = ins.index
        if res.hit_level != "L1" and not res.merged:
            self.lat_est.note_miss(pc, res.latency)
        addrs = self.t1.observe(pc, rec[1], now, self.lat_est.get(pc),
                                self.tracker.current)
        q = self.pf_queue
        for a in addrs:
            if a >= 0:
                if len(q) < PF_QUEUE_CAP:
                    q.append(a)
                else:
                    self.stats.fq_drops += 1

    def _issue_prefetches(self, now: int) -> None:
        self.mem.drain(now)
        mshr = self.mem.cfg.mshr
        q = self.pf_queue
        in_flight = self.mem.in_flight
        while q and len(in_flight) < mshr:
            self.mem.access(q.popleft(), "prefetch", MT, now)

    def on_mt_dispatch(self, core: _Core, idx: int, ins, rec,
                       complete: int, now: int):
        """Value-prediction application; returns (complete, ready, squashed).

        Called when value reuse is on and ``idx`` has a pending prediction
        or the scoreboard is not ``clean``; otherwise it would change
        nothing.  ``ready`` is when dependents may read the destination: for a
        confirmed prediction that's right away, even though a load still
        runs to completion for validation.
        """
        vru = self.vru
        sb = vru.scoreboard
        pred = self.predictions.pop(idx, None)
        if pred is not None:
            pc, dst, value = pred
            if pc != ins.index or dst != ins.dst:
                vru.counters.dropped += 1
                pred = None
        action = sb.apply(ins.opcode, ins.dst, ins.srcs, pred is not None)
        ready = complete
        squashed = False
        if pred is not None:
            if value == rec[2]:
                vru.counters.confirmed += 1
                ready = now + 1     # predicted value forwarded at decode
                if action == "skip":
                    vru.counters.skipped += 1
                    complete = now + 1
            else:
                vru.on_mispredict(ins.index)
                sb.reset()
                # replay: squash everything younger, refetch after this one
                core.fetch_buffer.clear()
                core.fetch_idx = idx + 1
                core.fetch_blocked_until = complete + core.p.mispredict_penalty
                if core.wait_resolution is not None and core.wait_resolution > idx:
                    core.wait_resolution = None
                squashed = True
        if ins.opcode == "BR_COND" and rec[3]:
            sb.reset()
        return complete, ready, squashed

    def on_mt_commit(self, core: _Core, rec, dispatched: int, complete: int,
                     now: int) -> None:
        """One main-thread commit.

        The core calls this only in DLA runs: for BR_COND and CALL (loop
        tracking) and while value reuse trains (``training`` is set);
        other commits have nothing to do here.  Only the DLA units act on
        loop events, so a baseline run does not track loops.  Value reuse
        trains on the commits within the innermost loop's first
        ``TRAIN_ITERATIONS`` iterations; this is the one window test.
        """
        ins = rec[0]
        op = ins.opcode
        if op != "BR_COND" and op != "CALL":
            if self.training:
                self.vru.train(ins.index, complete - dispatched)
            return
        events = self.tracker.observe(ins.index, op, rec[3], ins.target)
        if not events:
            return
        if self.features.value_reuse:
            # the tracker's loop state changes only with an event
            it = self.tracker.iterations.get(self.tracker.current)
            self.training = it is not None and it <= TRAIN_ITERATIONS
        for kind, loop_pc in events:
            if kind == "enter" and self.features.value_reuse:
                self.vru.sif.clear()    # training restarts per loop
            if kind == "exit":
                if self.features.t1:
                    self.t1.loop_end(loop_pc)
                if self.recycler is not None:
                    self.recycler.on_exit(loop_pc)
            elif self.recycler is not None:
                if kind == "enter":
                    want = self.recycler.on_enter(loop_pc, now, core.committed)
                else:
                    want = self.recycler.on_progress(loop_pc, now, core.committed)
                if want is not None and want != self.version:
                    self.request_swap(want, now)

    # -- reboots and version swaps ---------------------------------------------

    def schedule_reboot(self, at_cycle: int, reason: str) -> None:
        self.pending_reboots.append((at_cycle, reason))

    def request_swap(self, version: int, now: int) -> None:
        self.version = version
        self.stats.version_swaps += 1
        self._reboot(now, "version_swap")

    def _lookahead_stream(self, state: uisa.ArchState) -> LookaheadStream:
        """A look-ahead walk of the current version from ``state``; the
        runs it compiles are kept for the next walk of the same version."""
        table = self.lt_tables.get(self.version)
        if table is None:
            table = self.lt_tables[self.version] = _RunTable(
                len(self.program.instrs))
        return LookaheadStream(self.program, self.skel, self.version, state,
                               table)

    def _reboot(self, now: int, reason: str) -> None:
        self.stats.reboots += 1
        self.stats.reboot_reasons[reason] = \
            self.stats.reboot_reasons.get(reason, 0) + 1
        restart_idx = self.mt_stream.next
        self.lt_stream = self._lookahead_stream(self.mt_stream.snapshot())
        lt = self.lt
        lt.stream = self.lt_stream
        lt.window.clear()
        lt.fetch_buffer.clear()
        lt.fetch_idx = 0
        lt.wait_resolution = None
        lt.reg_ready = [0] * uisa.NUM_REGS
        lt.fetch_blocked_until = now + self.dla.reboot_cycles
        self.boq.clear()
        self.fq.clear()
        self.boq_pushed = 0
        self.boq_popped = 0
        self.mt.boq_done_idx = max(self.mt.boq_done_idx, restart_idx - 1)

    # -- main loop -------------------------------------------------------------

    def _wake_cycle(self, cycle: int, last_commit_cycle: int) -> int:
        """First cycle after the idle ``cycle`` in which some stage can act.

        Only the clock can end an idle stretch: a window head completing, a
        fetch block running out, a reboot falling due, an MSHR freeing up for
        a queued prefetch (in the next cycle if the cycle's drain freed one),
        or the watchdog and ``max_cycles`` bounds.  A head
        that is complete but held back by ``lt_commit`` waits on the main
        thread, not on time.
        """
        wake = min(last_commit_cycle + PROGRESS_WATCHDOG + 1, self.max_cycles)
        for core in (self.mt, self.lt) if self.dla_on else (self.mt,):
            if core.window:
                t = core.window[0][0]
                if cycle < t < wake:
                    wake = t
            t = core.fetch_blocked_until
            if cycle < t < wake:
                wake = t
        for at, _ in self.pending_reboots:
            if at < wake:
                wake = at
        if self.pf_queue:
            mem = self.mem
            if len(mem.in_flight) < mem.cfg.mshr:
                # a fill of no latency, retired by the cycle's drain, left
                # an MSHR free: the next cycle issues
                return cycle + 1
            ready = mem.earliest_ready()
            if ready < wake:
                wake = ready
        return wake

    def run(self) -> RunStats:
        if self.mode == "normal" and self._walkable():
            stats = self._walk_in_order()
            if stats is not None:
                return stats
        cores = (self.mt, self.lt) if self.dla_on else (self.mt,)
        for core in cores:
            core.engine = self
        try:
            return self._simulate()
        finally:
            for core in cores:
                core.engine = None

    def _walkable(self) -> bool:
        """Whether ``_walk_in_order`` can run this run: a baseline run, or a
        DLA run that never changes version (recycle off), whatever its
        skeleton version holds.  A look-ahead thread that loads or stores
        makes its events in the cycle loop's order (``_lookahead_events``);
        a run hands back where the loop must decide (a reboot, a replay)."""
        return not self.dla_on or self.features.recycle == "off"

    def _walk_in_order(self) -> RunStats | None:
        """A run ``_walkable`` allows, as one walk in program order.

        Each main-thread instruction's fetch (F), dispatch (D), complete (C)
        and commit (K) cycles follow from earlier instructions' cycles, as
        the module docstring sets out; in a DLA run a conditional branch
        also waits for its BOQ entry, which ``_lookahead_walk`` gives, or
        ``_lookahead_events`` when the look-ahead thread loads or stores.
        Returns the ``RunStats`` the cycle loop would, or None where the
        loop must decide, after ``_hand_back`` has rebuilt the run's state:
        a cycle past ``max_cycles``, a gap between commits (or to the halt)
        past the watchdog, a fault in the main stream and, in a DLA run, a
        BOQ entry that does not match, a look-ahead walk that ends (or
        passes ``max_cycles``) before the main thread's next branch, a
        value-reuse mispredict, or, when the look-ahead thread touches no
        memory, value reuse's slow-instruction filter arming.
        """
        core = self.mt
        p = core.p
        fetch_width, decode_width = p.fetch_width, p.decode_width
        commit_width, window_size = p.commit_width, p.window_size
        mispredict_penalty, btb_penalty = p.mispredict_penalty, p.btb_penalty
        max_cycles = self.max_cycles
        stream = self.mt_stream
        recs = stream.recs
        get = stream.get
        access = self.mem.access
        drain = self.mem.drain
        instrs = self.program.instrs
        dla = self.dla_on
        t1_pcs = self.t1_pcs
        # per pc: (kind, registers read, destination, latency if not memory,
        # commit hook).  kind: 0 ALU/MUL, 1 LOAD, 2 STORE, 3 a LOAD that T1
        # observes, 4 BR_COND the predictor predicts, 5 BR_COND the BOQ
        # predicts (DLA), 6 BR_UNCOND/CALL, 7 RET.  hook (DLA): 1 BR_COND and
        # CALL (loop tracking), 2 the rest while value reuse trains.
        kinds = {"LOAD": 1, "STORE": 2, "BR_COND": 5 if dla else 4,
                 "BR_UNCOND": 6, "CALL": 6, "RET": 7}
        reuse = dla and self.features.value_reuse
        table = []
        for ins in instrs:
            op = ins.opcode
            kind = kinds.get(op, 0)
            if kind == 1 and ins.index in t1_pcs:
                kind = 3
            hook = (0 if not dla else 1 if op == "BR_COND" or op == "CALL"
                    else 2 if reuse else 0)
            table.append((kind, ins.reads, ins.dst,
                          MUL_LATENCY if op == "MUL" else 1, hook))
        predictor = [2] * len(instrs)   # 2-bit counters, weakly taken
        btb = [False] * len(instrs)
        reg_ready = [0] * uisa.NUM_REGS
        # D of the last fetch_buffer instructions, K of the last window_size
        fb_cap = core.fb_cap
        dispatched = deque([0] * fb_cap, maxlen=fb_cap)
        committed = deque([0] * window_size, maxlen=window_size)
        # the open fetch, dispatch and commit groups: cycle and size
        f_at = d_at = k_at = 0
        f_n = d_n = k_n = 0
        f_next = 1              # the earliest cycle the next fetch can take
        blocked = 0             # fetch_blocked_until
        # fetch-buffer occupancy per cycle: a fetch group of n at cycle F
        # adds n from F + 1 on, a dispatch group takes its n out from D + 1
        # on.  No later group can show before a closed fetch group does, so
        # its close counts the cycles up to it; ``shown`` holds the dispatch
        # groups that show after the last fetch group counted.
        shown: deque[tuple[int, int]] = deque()
        fb_occ = self.fb_occ
        occ = 0
        swept = 1               # cycles before this one are counted
        # a cycle's dispatch demand is min(window_size - window, decode_width):
        # width = min(decode_width, window_size), less one for each window
        # entry past the first lag = window_size - width.  Instruction j is
        # such an entry in the cycles after D_j and before K_{j - lag}, so the
        # run's demand is width * cycles less those cycles, and its bubbles
        # are the demand less the instructions dispatched.
        width = min(decode_width, window_size)
        taken_slots = 0
        branches = mispredicts = 0
        # DLA: the look-ahead walk, the cycles of the BOQ's pushes and pops
        # not yet counted, the commits whose hooks wait for a T1 observe (or,
        # when the look-ahead thread touches memory and value reuse is on,
        # for its commits), and the queued prefetches, whose end-of-cycle
        # issue is due from ``issue_from`` on
        pf_queue = self.pf_queue
        issue_from = 0
        drained_to = 0          # the last periodic drain applied

        def before_access(d: int) -> None:
            """The end-of-cycle prefetch issues, then the periodic drains,
            of the cycles before an access at cycle ``d``."""
            nonlocal issue_from, drained_to
            if pf_queue and issue_from < d:
                self._prefetch_cycles(issue_from, d - 1)
                issue_from = d
            if d > drained_to + DRAIN_PERIOD:
                drained_to = (d - 1) // DRAIN_PERIOD * DRAIN_PERIOD
                drain(drained_to)
        lt_mem = False          # the look-ahead thread loads or stores
        if dla:
            pushes: deque[int] = deque()
            pops: deque[int] = deque()
            boq = (0, 1)        # the BOQ's depth, and the first cycle not counted
            freed: deque[int] = deque()     # pops the look-ahead walk awaits
            # the look-ahead walk's horizon, whether the run has ended, and
            # (``lt_mem``) the cycle before which it has no event
            lt_end = [max_cycles, False, 0]
            bits = self.skel.versions[self.version].bits
            lt_mem = any(ins.is_mem and ins.index in bits for ins in instrs)
            starved = 0
            on_commit = self.on_mt_commit
            on_load = self.on_mt_load
            sif = self.vru.sif
            # T1 reads the loop state at dispatch, and a look-ahead commit
            # reads value reuse's filter
            defer = bool(t1_pcs) or (lt_mem and reuse)
            pending: deque[tuple] = deque()     # (K, hook, rec, D, C)

            def hooks_until(now: int) -> bool:
                """Run the hooks of the commits by cycle ``now``; False once
                value reuse's filter arms, unless the look-ahead walk makes
                the reuse footnotes."""
                while pending and pending[0][0] <= now:
                    k, hook, rec, d, c = pending.popleft()
                    if hook == 1:
                        on_commit(core, rec, d, c, k)
                    elif self.training:
                        on_commit(core, rec, d, c, k)
                        if sif.armed and not lt_mem:
                            return False
                return True
            if lt_mem:
                lt = self._lookahead_events(freed, lt_end, pending,
                                            hooks_until, before_access)
                lt_buf: deque[tuple] = deque()  # pushes the MT has not fetched
                bq = self.boq
                on_footnotes = self.process_footnotes
                on_dispatch = self.on_mt_dispatch
                predictions = self.predictions
                sb = self.vru.scoreboard
                # per pc: how far the next control instruction is after it
                to_ctrl = [0] * len(instrs)
                t = 1
                for ins in reversed(instrs):
                    to_ctrl[ins.index] = t
                    t = 1 if ins.is_control or ins.opcode == "HALT" else t + 1
            else:
                lt = self._lookahead_walk(freed, lt_end)
            next_lt = lt.__next__
        # lt_mem: the instructions fetched before an earlier LOAD's or STORE's
        # access, as (f, rec, kind, reads, dst, latency, hook), and that
        # access's instruction while it waits for them, dispatched at
        # ``lim``.  ``alt`` is set while either holds something; then
        # ``skip`` says which steps instruction i (or one fetched ahead)
        # still takes: -1 fetch only, 0 all, 1 dispatch and access, 2 access.
        ahead: deque[tuple] = deque()
        wait = None
        lim = 0
        alt = False
        reuse_dispatch = lt_mem and reuse
        i = 0
        end = stream.end
        while True:
            if alt:
                if wait is None:
                    f, rec, kind, reads, dst, latency, hook = ahead.popleft()
                    ins = rec[0]
                    alt = bool(ahead)
                    skip = 1
                else:
                    # fetch n comes before the waiting access if it falls
                    # before that access's cycle; else the access goes
                    n = i + 1 + len(ahead)
                    if n < end:
                        rec = recs[n - end]
                    else:
                        stream.next = n
                        try:
                            rec = get(n)
                        except uisa.ExecError:
                            return self._hand_back()
                        end = stream.end
                    f = f_next
                    t = dispatched[n - i] if n - i < fb_cap else lim
                    if t > f:
                        f = t
                    if blocked > f:
                        f = blocked
                    skip = -1
                    if rec is None or f >= lim:
                        skip = 2
                    elif table[rec[0].index][0] == 5:
                        # its BOQ entry, if the look-ahead thread pushes it
                        # before ``lim``
                        if not lt_buf and lim >= lt_end[2]:
                            lt_end[0] = lim
                            ev = next_lt()
                            if ev is not None:
                                lt_buf.append(ev)
                        if not lt_buf or lt_buf[0][0] >= lim:
                            skip = 2
                    if skip == 2:
                        rec, ins, kind, reads, dst, latency, hook, d = wait
                        wait = None
                        alt = bool(ahead)
            else:
                skip = 0
                # -- fetch: the record at F, with the group's redirect rules
                if i < end:
                    rec = recs[i - end]
                else:
                    stream.next = i
                    try:
                        rec = get(i)
                    except uisa.ExecError:
                        return self._hand_back()
                    end = stream.end
                f = f_next
                t = dispatched[0]   # a free fetch-buffer slot
                if t > f:
                    f = t
                if blocked > f:
                    f = blocked
            if skip < 1:
                if rec is None:
                    break
                ins = rec[0]
                pc = ins.index
                kind, reads, dst, latency, hook = table[pc]
                if kind == 5:
                    # fetched once the look-ahead thread has pushed its
                    # outcome; each cycle before that the BOQ is found empty
                    if lt_mem:
                        if not lt_buf:
                            lt_end[0] = max_cycles
                            ev = next_lt()
                            if ev is None:
                                return self._hand_back()
                            lt_buf.append(ev)
                        t, lt_rec = lt_buf.popleft()
                    else:
                        try:
                            t, lt_rec = next_lt()
                        except StopIteration:
                            return self._hand_back()
                    if lt_rec[0] is not ins or lt_rec[3] != rec[3]:
                        return self._hand_back()
                    pushes.append(t)
                    if t > f:
                        starved += t - f
                        f = t
                    if lt_mem:
                        # the pop, after the look-ahead thread's events
                        # of its cycle: the entry's footnotes go to the
                        # prefetch queue and the predictions
                        if f >= lt_end[2]:
                            lt_end[0] = f
                            ev = next_lt()
                            while ev is not None:
                                lt_buf.append(ev)
                                ev = next_lt()
                        entry = bq.popleft()
                        if entry.fq_count:
                            if pf_queue and issue_from < f:
                                self._prefetch_cycles(issue_from, f - 1)
                            # branch i, or one fetched ahead of it
                            b = i + len(ahead) + 1 if skip else i
                            on_footnotes(entry, b, f)
                            if pf_queue:
                                issue_from = f
                    pops.append(f)
                    freed.append(f)
                    if len(pops) >= 4096:
                        # no later push or pop comes before this push
                        boq = self._boq_occupancy(pushes, pops, t, *boq)
                if f != f_at:
                    if f_n:
                        at = f_at + 1
                        while shown and shown[0][0] <= at:
                            t, m = shown.popleft()
                            if t > swept:
                                fb_occ[occ] += t - swept
                                swept = t
                            occ -= m
                        if at > swept:
                            fb_occ[occ] += at - swept
                            swept = at
                        occ += f_n
                    f_at = f
                    f_n = 0
                f_n += 1
                stop = f_n == fetch_width
                mispredicted = False
                if kind >= 4:
                    # a taken branch, a jump, a call, a return or a
                    # mispredict ends the group; a redirect to a cold
                    # target blocks fetch
                    redirect = kind == 6
                    if kind == 4:
                        taken = rec[3]
                        c = predictor[pc]
                        if taken:
                            predictor[pc] = c + 1 if c < 3 else 3
                        else:
                            predictor[pc] = c - 1 if c > 0 else 0
                        branches += 1
                        if (c >= 2) != taken:
                            mispredicts += 1
                            mispredicted = stop = True
                        else:
                            redirect = taken
                    elif kind == 5:
                        branches += 1
                        redirect = rec[3]
                    else:
                        stop = True
                    if redirect:
                        stop = True
                        if not btb[pc]:
                            btb[pc] = True
                            blocked = f + 1 + btb_penalty
                f_next = f + 1 if stop else f
                if skip:
                    ahead.append((f, rec, kind, reads, dst, latency, hook))
                    continue
            if skip < 2:
                # -- dispatch: in order, decode_width a cycle, a free window
                # slot
                d = d_at + 1 if d_n == decode_width else d_at
                if f >= d:
                    d = f + 1
                t = committed[0]
                if t > d:
                    d = t
                if d != d_at:
                    if d_n:
                        shown.append((d_at + 1, d_n))
                    d_at = d
                    d_n = 0
                d_n += 1
                if lt_mem and 0 < kind < 4 and (
                        ahead or to_ctrl[ins.index] <= (d - f_next) * fetch_width):
                    # every fetch before D comes first (a pop there moves the
                    # look-ahead thread and the prefetch queue), if one of
                    # them can be a branch
                    wait = (rec, ins, kind, reads, dst, latency, hook, d)
                    lim = d
                    alt = True
                    continue
            start = d
            for r in reads:
                t = reg_ready[r]
                if t > start:
                    start = t
            if 0 < kind < 4:
                if lt_mem and d >= lt_end[2]:
                    # the look-ahead thread's events through D come first
                    lt_end[0] = d
                    ev = next_lt()
                    while ev is not None:
                        lt_buf.append(ev)
                        ev = next_lt()
                # the end-of-cycle prefetch issues, then periodic drains,
                # below D run before its access (``before_access``, inline)
                if pf_queue and issue_from < d:
                    self._prefetch_cycles(issue_from, d - 1)
                    issue_from = d
                if d > drained_to + DRAIN_PERIOD:
                    drained_to = (d - 1) // DRAIN_PERIOD * DRAIN_PERIOD
                    drain(drained_to)
                if kind == 2:
                    access(rec[1], "store", MT, start)
                    complete = start + 1
                else:
                    res = access(rec[1], "load", MT, start)
                    complete = start + res[0]
                    if kind == 3:
                        # T1 sees the loop state of the commits by D
                        if not hooks_until(d):
                            return self._hand_back()
                        on_load(ins, rec, res, d)
                        if pf_queue:
                            issue_from = d
            else:
                complete = start + latency
            if reuse_dispatch and (i in predictions or not sb.clean):
                complete, ready, squashed = on_dispatch(core, i, ins, rec,
                                                        complete, d)
                if squashed:
                    return self._hand_back()   # a replay
                if dst is not None:
                    reg_ready[dst] = ready
            elif dst is not None:
                reg_ready[dst] = complete
            if mispredicted:
                blocked = complete + mispredict_penalty
            dispatched.append(d)
            # -- commit: in order, commit_width a cycle, after dispatch
            k = k_at + 1 if k_n == commit_width else k_at
            if d >= k:
                k = d + 1
            if complete > k:
                k = complete
            if k != k_at:
                if k - k_at > PROGRESS_WATCHDOG or k > max_cycles:
                    return self._hand_back()
                k_at = k
                k_n = 0
            k_n += 1
            recs.popleft()
            committed.append(k)
            t = committed[width - 1] - d - 1     # K_{i - lag} - D_i - 1
            if t > 0:
                taken_slots += t
            if hook:
                if defer:
                    pending.append((k, hook, rec, d, complete))
                elif hook == 1:
                    on_commit(core, rec, d, complete, k)
                elif self.training:
                    on_commit(core, rec, d, complete, k)
                    if sif.armed:
                        return self._hand_back()
            i += 1
        # the halt is seen at cycle f; the run ends once it is and all committed
        if f - k_at > PROGRESS_WATCHDOG:
            return self._hand_back()
        cycles = f if f > k_at else k_at
        if cycles > max_cycles:
            return self._hand_back()
        stream.next = i
        if dla:
            lt_end[0] = cycles
            if lt_mem:
                # the look-ahead thread's events up to the end come before
                # the main thread's last hooks and prefetch issues
                lt_end[1] = True
                lt_buf.extend(ev for ev in lt if ev is not None)
                pushes.extend(t for t, _ in lt_buf)
            if not hooks_until(cycles):
                return self._hand_back()
            if pf_queue:
                self._prefetch_cycles(issue_from, cycles)
            if not lt_mem:
                # the look-ahead thread's pushes, fetches and commits up to
                # the end
                pushes.extend(t for t, _ in lt if t <= cycles)
            self._boq_occupancy(pushes, pops, cycles + 1, *boq)
            self.stats.boq_consumed = branches
            self.stats.boq_empty_stalls = starved
        # the groups still open, then the end of the run
        for t, n in sorted([*shown, (f_at + 1, -f_n), (d_at + 1, d_n),
                            (cycles + 1, 0)]):
            if t > swept:
                fb_occ[occ] += t - swept
                swept = t
            occ -= n
        core.committed = i
        core.branches = branches
        core.mispredicts = mispredicts
        core.fetch_bubbles = width * cycles - taken_slots - i
        return self._finalize(cycles)

    def _lookahead_walk(self, freed: deque[int], end: list[int]):
        """The look-ahead thread of a DLA walk, in program order: a
        generator of ``(P, rec)`` per conditional branch, P being the cycle
        in which it commits and pushes its outcome ``rec`` to the BOQ.

        The rules are ``_walk_in_order``'s, except that a converted branch
        never mispredicts, nothing touches memory, and branch j commits no
        earlier than one cycle after the main thread popped branch
        j - ``boq_capacity``.  ``freed`` holds the cycles of the main
        thread's pops, in order, from that of branch j - ``boq_capacity``
        on; the walk takes each off as its branch needs it.  The walk
        fetches up to cycle ``end[0]``, which it reads again after each
        branch; a branch whose pop never comes commits after it.  At its end
        ``lt.committed`` holds the commits by then, and ``lt_stream`` has
        handed out what was fetched by then.
        """
        core = self.lt
        p = core.p
        fetch_width, decode_width = p.fetch_width, p.decode_width
        commit_width, window_size = p.commit_width, p.window_size
        mispredict_penalty, btb_penalty = p.mispredict_penalty, p.btb_penalty
        cap = self.dla.boq_capacity
        stream = self.lt_stream
        get = stream.get
        converted = stream.converted
        instrs = self.program.instrs
        # per pc: (kind, registers read, destination, latency).  kind: 0
        # ALU/MUL, 4 BR_COND the predictor predicts, 5 a converted BR_COND,
        # 6 BR_UNCOND/CALL, 7 RET
        kinds = {"BR_COND": 4, "BR_UNCOND": 6, "CALL": 6, "RET": 7}
        table = [(5 if ins.index in converted else kinds.get(ins.opcode, 0),
                  ins.reads, ins.dst, MUL_LATENCY if ins.opcode == "MUL" else 1)
                 for ins in instrs]
        predictor = [2] * len(instrs)
        btb = [False] * len(instrs)
        reg_ready = [0] * uisa.NUM_REGS
        dispatched = deque([0] * core.fb_cap, maxlen=core.fb_cap)
        committed = deque([0] * window_size, maxlen=window_size)
        f_at = d_at = k_at = 0
        f_n = d_n = k_n = 0
        f_next = 1
        blocked = 0
        limit = end[0]
        i = 0
        j = 0                   # conditional branches
        late = 0                # instructions that commit after ``limit``
        # the records of the stream's last compiled batch are read here,
        # not one ``get`` each; the stream learns how far at the next get
        batch = stream.batch
        pos = stream.pos
        while True:
            f = f_next
            t = dispatched[0]
            if t > f:
                f = t
            if blocked > f:
                f = blocked
            if f > limit:
                break
            if pos < len(batch):
                rec = batch[pos]
                pos += 1
            else:
                stream.pos = pos
                stream.next = i
                rec = get(i)
                if rec is None:
                    break
                batch = stream.batch
                pos = stream.pos
            if f != f_at:
                f_at = f
                f_n = 0
            pc = rec[0].index
            kind, reads, dst, latency = table[pc]
            f_n += 1
            stop = f_n == fetch_width
            mispredicted = False
            if kind >= 4:
                redirect = kind == 6
                if kind == 4:
                    taken = rec[3]
                    c = predictor[pc]
                    if taken:
                        predictor[pc] = c + 1 if c < 3 else 3
                    else:
                        predictor[pc] = c - 1 if c > 0 else 0
                    if (c >= 2) != taken:
                        mispredicted = stop = True
                    else:
                        redirect = taken
                elif kind == 5:
                    redirect = rec[3]
                else:
                    stop = True
                if redirect:
                    stop = True
                    if not btb[pc]:
                        btb[pc] = True
                        blocked = f + 1 + btb_penalty
            f_next = f + 1 if stop else f
            d = d_at + 1 if d_n == decode_width else d_at
            if f >= d:
                d = f + 1
            t = committed[0]
            if t > d:
                d = t
            if d != d_at:
                d_at = d
                d_n = 0
            d_n += 1
            start = d
            for r in reads:
                t = reg_ready[r]
                if t > start:
                    start = t
            complete = start + latency
            if dst is not None:
                reg_ready[dst] = complete
            if mispredicted:
                blocked = complete + mispredict_penalty
            dispatched.append(d)
            k = k_at + 1 if k_n == commit_width else k_at
            if d >= k:
                k = d + 1
            if complete > k:
                k = complete
            branch = kind == 4 or kind == 5
            if branch and j >= cap:
                # a full BOQ holds the branch until the pop that frees a slot
                t = freed.popleft() + 1 if freed else limit + 1
                if t > k:
                    k = t
            if k != k_at:
                k_at = k
                k_n = 0
            k_n += 1
            committed.append(k)
            i += 1
            if k > limit:
                late += 1
            if branch:
                j += 1
                yield k, rec
                limit = end[0]
        stream.pos = pos
        stream.next = i
        core.committed = i - late

    def _lookahead_events(self, freed: deque[int], end: list, pending: deque,
                          hooks_until, before_access):
        """The look-ahead thread of a DLA walk whose skeleton version loads
        or stores: ``_lookahead_walk``'s rules, with its events made in the
        cycle loop's order, since the thread now shares the cache, the BOQ
        and the footnote queue with the main thread.

        It yields ``(P, rec)`` as branch ``rec`` commits and pushes its
        outcome at cycle P, and None once it has made every event up to
        cycle ``end[0]``, setting ``end[2]`` to a cycle before which it has
        none.  Each time it is resumed, the main thread has made all of its
        own events before cycle ``end[0]``: its BOQ pops (whose cycles
        ``freed`` holds from that of branch j - ``boq_capacity`` on), its
        accesses, and its commits, whose hooks ``pending`` holds until
        ``hooks_until`` runs them up to a cycle.

        So the walk makes its events in (cycle, stage) order.  It fetches,
        dispatches and commits in program order, keeping the instructions
        dispatched but not committed in ``window``, and of one cycle it
        commits before it dispatches, and dispatches before it fetches.  A
        commit waits for the pop that frees its BOQ slot and, while value
        reuse's filter is armed, for room in the footnote queue (``lt_commit``
        says when it is full); it runs the main thread's hooks before its
        cycle first.  A LOAD or STORE accesses ``MemorySystem`` as ``LT`` at
        its dispatch, after ``before_access`` has made the end-of-cycle
        prefetch issues and periodic drains of the cycles before it, and a
        load that misses L1 gives ``on_lt_miss`` its prefetch footnote.  The
        BOQ and the footnote queue are the engine's own, so these hooks act
        on them as in the loop.

        Once ``end[1]`` is set the walk also fetches, without dispatching
        them, the instructions it fetches by ``end[0]``, and returns with
        ``lt.committed`` and ``lt_stream`` as ``_lookahead_walk`` leaves them.
        """
        core = self.lt
        p = core.p
        fetch_width, decode_width = p.fetch_width, p.decode_width
        commit_width, window_size = p.commit_width, p.window_size
        mispredict_penalty, btb_penalty = p.mispredict_penalty, p.btb_penalty
        cap = self.dla.boq_capacity
        stream = self.lt_stream
        get = stream.get
        converted = stream.converted
        instrs = self.program.instrs
        # per pc: (kind, registers read, destination, latency, whether value
        # reuse can make a footnote of its commit).  kind: 0 ALU/MUL, 1 LOAD,
        # 2 STORE, 4 BR_COND the predictor predicts, 5 a converted BR_COND,
        # 6 BR_UNCOND/CALL, 7 RET
        kinds = {"LOAD": 1, "STORE": 2, "BR_COND": 4, "BR_UNCOND": 6,
                 "CALL": 6, "RET": 7}
        reuse = self.features.value_reuse
        table = [(5 if ins.index in converted else kinds.get(ins.opcode, 0),
                  ins.reads, ins.dst, MUL_LATENCY if ins.opcode == "MUL" else 1,
                  reuse and ins.dst is not None)
                 for ins in instrs]
        predictor = [2] * len(instrs)
        btb = [False] * len(instrs)
        reg_ready = [0] * uisa.NUM_REGS
        dispatched = deque([0] * core.fb_cap, maxlen=core.fb_cap)
        committed = deque([0] * window_size, maxlen=window_size)
        window: deque[tuple] = deque()      # (rec, kind, emits, D, C)
        f_at = d_at = k_at = 0
        f_n = d_n = k_n = 0
        f_next = 1
        blocked = 0
        access = self.mem.access
        on_miss = self.on_lt_miss
        lt_commit = self.lt_commit
        boq = self.boq
        sif = self.vru.sif
        i = 0                   # instructions fetched
        nk = 0                  # instructions committed
        j = 0                   # conditional branches committed
        held = False            # instruction i - 1 is fetched, not dispatched
        done = False            # the stream has no record left
        stall = 0               # the head commits no earlier (full footnote queue)
        limit = end[0]
        never = self.max_cycles + 1
        batch = stream.batch
        pos = stream.pos
        kc = None               # the head's commit cycle, if decided
        stale = True            # kc must be worked out again
        while True:
            if stale:
                # None while the window is empty or its head waits for a pop
                kc = None
                if window:
                    c_rec, c_kind, c_emits, c_d, c_c = window[0]
                    kc = k_at + 1 if k_n == commit_width else k_at
                    if c_d >= kc:
                        kc = c_d + 1
                    if c_c > kc:
                        kc = c_c
                    if stall > kc:
                        kc = stall
                    if c_kind >= 4 and c_kind < 6 and j >= cap:
                        if freed:
                            t = freed[0] + 1
                            if t > kc:
                                kc = t
                        else:
                            kc = None
                stale = False
            if not held and not done:
                # -- fetch, unless the head commits first
                f = f_next
                t = dispatched[0]
                if t > f:
                    f = t
                if blocked > f:
                    f = blocked
                if f <= limit and (kc is None or f < kc):
                    if pos < len(batch):
                        rec = batch[pos]
                        pos += 1
                    else:
                        stream.pos = pos
                        stream.next = i
                        rec = get(i)
                        if rec is None:
                            done = True
                            continue
                        batch = stream.batch
                        pos = stream.pos
                    if f != f_at:
                        f_at = f
                        f_n = 0
                    pc = rec[0].index
                    kind, reads, dst, latency, emits = table[pc]
                    f_n += 1
                    stop = f_n == fetch_width
                    mispredicted = False
                    if kind >= 4:
                        redirect = kind == 6
                        if kind == 4:
                            taken = rec[3]
                            c = predictor[pc]
                            if taken:
                                predictor[pc] = c + 1 if c < 3 else 3
                            else:
                                predictor[pc] = c - 1 if c > 0 else 0
                            if (c >= 2) != taken:
                                mispredicted = stop = True
                            else:
                                redirect = taken
                        elif kind == 5:
                            redirect = rec[3]
                        else:
                            stop = True
                        if redirect:
                            stop = True
                            if not btb[pc]:
                                btb[pc] = True
                                blocked = f + 1 + btb_penalty
                    f_next = f + 1 if stop else f
                    d0 = d_at + 1 if d_n == decode_width else d_at
                    if f >= d0:
                        d0 = f + 1
                    i += 1
                    held = True
            if held:
                # -- dispatch, unless the head commits first
                w = i - 1 - nk
                if w < window_size:
                    d = d0
                    t = committed[w]    # K of the instruction window_size back
                    if t > d:
                        d = t
                    if d <= limit and (kc is None or d < kc):
                        if d != d_at:
                            d_at = d
                            d_n = 0
                        d_n += 1
                        start = d
                        for r in reads:
                            t = reg_ready[r]
                            if t > start:
                                start = t
                        if kind == 1 or kind == 2:
                            before_access(d)
                            if kind == 1:
                                res = access(rec[1], "load", LT, start)
                                complete = start + res[0]
                                if res[1] != "L1":
                                    on_miss(rec[1])
                            else:
                                access(rec[1], "store", LT, start)
                                complete = start + 1
                        else:
                            complete = start + latency
                        if dst is not None:
                            reg_ready[dst] = complete
                        if mispredicted:
                            blocked = complete + mispredict_penalty
                        dispatched.append(d)
                        if not window:
                            stale = True
                        window.append((rec, kind, emits, d, complete))
                        held = False
                        continue
            if kc is not None and kc <= limit:
                # -- commit the head
                stale = True
                branch = c_kind >= 4 and c_kind < 6
                if branch:
                    if j >= cap:
                        freed.popleft()
                    boq.append(BoqEntry(c_rec[0].index, c_rec[3]))
                    j += 1
                elif c_emits:
                    # the filter as the main thread's commits before kc left it
                    if pending and pending[0][0] < kc:
                        hooks_until(kc - 1)
                    if sif.armed and not lt_commit(c_rec, kc):
                        stall = kc + 1      # footnote queue full: retry next cycle
                        continue
                window.popleft()
                stall = 0
                if kc != k_at:
                    k_at = kc
                    k_n = 0
                k_n += 1
                committed.append(kc)
                nk += 1
                if branch:
                    end[2] = kc
                    yield kc, c_rec
                    limit = end[0]
                continue
            if end[1]:
                if not held:
                    break
                # fetched by the end, dispatched after it
                d_at = limit + 1
                d_n = 0
                dispatched.append(d_at)
                if mispredicted:
                    blocked = d_at
                held = False
                continue
            # no event of the walk comes before ``end[2]``: before a pop
            # that has not come, the walk's events are its fetch or dispatch
            nxt = kc if kc is not None else limit + 1 if window else never
            if held:
                w = i - 1 - nk
                if w < window_size:
                    t = committed[w]
                    if d0 > t:
                        t = d0
                    if t < nxt:
                        nxt = t
            elif not done and f < nxt:
                nxt = f
            end[2] = nxt
            yield None
            limit = end[0]
            stale = True        # a pop may have come
        stream.pos = pos
        stream.next = i
        core.committed = nk

    def _prefetch_cycles(self, c: int, last: int) -> None:
        """The cycle loop's end-of-cycle memory work in cycles ``c`` to
        ``last`` while prefetches wait, for a walk that makes no access in
        them after cycle ``c``'s: issue as ``_issue_prefetches`` does, then
        the periodic drain.  Once the MSHRs are full, nothing changes until
        a fill comes due, so the cycles before that are skipped.  A fill of
        no latency is due in its own cycle: the next cycle issues again if
        its drain retired the fill, or its issue's drain does."""
        queue = self.pf_queue
        mem = self.mem
        while c <= last:
            self._issue_prefetches(c)
            if c % DRAIN_PERIOD == 0:
                mem.drain(c)
            if not queue:
                return
            if len(mem.in_flight) < mem.cfg.mshr:
                c += 1
            else:
                ready = mem.earliest_ready()
                c = ready if ready > c else c + 1

    def _boq_occupancy(self, pushes: deque[int], pops: deque[int],
                       until: int, occ: int, swept: int) -> tuple[int, int]:
        """Count the BOQ's depth at the end of each cycle from ``swept`` to
        ``until`` - 1 into ``boq_occ``, taking the push and pop cycles before
        ``until`` off the fronts of ``pushes`` and ``pops``; ``occ`` is the
        depth before ``swept``.  No push or pop still to come may fall before
        ``until``.  Returns the depth and ``until``.

        The depth law is checked as the cycle loop checks it: a cycle's
        pushes come before its pops, so after them the queue holds at most
        ``boq_capacity`` entries, and after its pops at least none.
        """
        cap = self.dla.boq_capacity
        hist = self.boq_occ
        while True:
            c = until
            if pushes and pushes[0] < c:
                c = pushes[0]
            if pops and pops[0] < c:
                c = pops[0]
            if c == until:
                break
            hist[occ] += c - swept
            while pushes and pushes[0] == c:
                pushes.popleft()
                occ += 1
            if occ > cap:
                raise EngineError(
                    f"branch outcome queue depth law broke at cycle {c}: "
                    f"{occ} entries pushed, capacity {cap}")
            while pops and pops[0] == c:
                pops.popleft()
                occ -= 1
            if occ < 0:
                raise EngineError(
                    f"branch outcome queue depth law broke at cycle {c}: "
                    f"a pop found no pushed entry")
            hist[occ] += 1
            swept = c + 1
        hist[occ] += until - swept
        return occ, until

    def _simulate(self) -> RunStats:
        mt = self.mt
        lt = self.lt
        stats = self.stats
        pf_queue = self.pf_queue
        cycle = 0
        last_commit_cycle = 0
        last_committed = 0
        # an idealized mode records one histogram: ideal_fetch the dispatch
        # demand, ideal_backend the fetch supply
        ideal = self.mode != "normal"
        if ideal:
            record_supply = self.mode == "ideal_backend"
            hist = stats.supply_hist if record_supply else stats.demand_hist
        dla = self.dla_on
        try:
            while cycle < self.max_cycles:
                cycle += 1
                mt_fetch_idx = mt.fetch_idx
                mt_bubbles = mt.fetch_bubbles
                if dla:
                    lt_committed = lt.committed
                    lt_fetch_idx = lt.fetch_idx
                    reboots = stats.reboots
                    lt.commit(cycle)
                    lt.dispatch(cycle)
                    lt.fetch(cycle)
                self.fb_occ[len(mt.fetch_buffer)] += 1
                if ideal:
                    if record_supply:
                        mt.dispatch_ideal_backend(cycle)
                        mt.fetch(cycle)
                        n = mt.last_fetched
                    else:
                        mt.commit(cycle)
                        mt.dispatch(cycle)
                        mt.fetch_ideal(cycle)
                        n = mt.last_dispatched
                    hist[n] = hist.get(n, 0) + 1
                else:
                    mt.commit(cycle)
                    mt.dispatch(cycle)
                    mt.fetch(cycle)
                if dla:
                    # queue depth law: pushes minus pops since the last flush
                    if self.boq_pushed - self.boq_popped != len(self.boq):
                        raise EngineError(f"branch outcome queue depth "
                                          f"accounting broke at cycle {cycle}")
                    self.boq_occ[len(self.boq)] += 1
                    if self.pending_reboots:
                        for at, reason in self.pending_reboots:
                            if cycle >= at:
                                self._reboot(cycle, reason)
                        self.pending_reboots = [
                            (a, r) for a, r in self.pending_reboots if a > cycle]
                    if (mt.boq_starved_at == cycle and self.lt_stream.done
                            and lt.drained()):
                        self._reboot(cycle, "guard")
                    if pf_queue:
                        self._issue_prefetches(cycle)
                if cycle % DRAIN_PERIOD == 0:
                    self.mem.drain(cycle)
                # Issuing prefetches alone is no activity: what stays queued
                # waits for an MSHR to free, and _wake_cycle waits for that.
                # A reboot resets lt.fetch_idx, but not if the LT has not
                # fetched since the last one.
                idle = (mt.committed == last_committed
                        and mt.fetch_idx == mt_fetch_idx
                        and not mt.last_dispatched
                        and (not dla or (lt.committed == lt_committed
                                         and lt.fetch_idx == lt_fetch_idx
                                         and not lt.last_dispatched
                                         and stats.reboots == reboots)))
                if mt.committed != last_committed:
                    last_committed = mt.committed
                    last_commit_cycle = cycle
                elif cycle - last_commit_cycle > PROGRESS_WATCHDOG:
                    raise EngineError(
                        f"no commit progress for {PROGRESS_WATCHDOG} cycles "
                        f"at cycle {cycle}")
                if (self.mt_stream.halted
                        and mt.fetch_idx >= self.mt_stream.next
                        and mt.drained()):
                    break
                if idle:
                    # every cycle before the wake-up would repeat this one:
                    # credit them in one step with this cycle's per-cycle counts
                    wake = self._wake_cycle(cycle, last_commit_cycle)
                    k = wake - 1 - cycle
                    if k > 0:
                        self.fb_occ[len(mt.fetch_buffer)] += k
                        mt.fetch_bubbles += k * (mt.fetch_bubbles - mt_bubbles)
                        if ideal:
                            hist[0] += k
                        if dla:
                            self.boq_occ[len(self.boq)] += k
                            if mt.boq_starved_at == cycle:
                                stats.boq_empty_stalls += k
                                mt.boq_starved_at = wake - 1
                        # a drain retires every fill ready by its cycle, so the
                        # stretch's last periodic drain does the work of them all
                        drain = (wake - 1) // DRAIN_PERIOD * DRAIN_PERIOD
                        if drain > cycle:
                            self.mem.drain(drain)
                        cycle = wake - 1
        except uisa.ExecError as e:
            # the MT stream's fault names its seq; add when it surfaced
            raise uisa.ExecError(f"cycle {cycle}: {e}") from e
        return self._finalize(cycle)

    def _finalize(self, cycle: int) -> RunStats:
        st = self.stats
        st.cycles = cycle
        st.instructions = self.mt.committed
        st.partial = (not self.mt_stream.halted or self.mt_stream.hit_limit
                      or not self.mt.drained())
        st.fetch_bubbles = self.mt.fetch_bubbles
        st.branches = self.mt.branches
        st.mispredicts = self.mt.mispredicts
        st.mem = self.mem.stats(self.mt.committed)
        st.fb_occupancy = self.fb_occ
        if self.dla_on:
            st.lt_committed = self.lt.committed
            st.lt_walked = self.lt_stream.walked
            st.footnotes = {"prefetch": self.prefetch_footnotes,
                            "reuse": self.vru.counters.emitted}
            st.vreuse = self.vru.counters.to_dict()
            st.t1 = self.t1.stats()
            st.boq_occupancy = self.boq_occ
            rec = self.recycler
            st.recycle = {
                "chosen": rec.chosen_versions() if rec else {},
                "measurements": [(m.loop_pc, m.version, round(m.ipc, 4),
                                  m.instructions)
                                 for m in (rec.measurements if rec else ())],
                "final_version": self.version,
            }
        st.config = {
            "core": asdict(self.params),
            "mode": self.mode,
            "dla": asdict(self.dla) if self.dla_on else None,
            "features": asdict(self.features) if self.dla_on else None,
            "version": self.version if self.dla_on else None,
        }
        return st

