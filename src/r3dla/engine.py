"""Cycle-level timing engine for the two-thread look-ahead machine.

Correctness and timing are deliberately split.  Each thread owns a functional
instruction stream: the main thread's stream is the architectural truth, the
look-ahead thread's stream is a masked walk of the same program over private
(possibly stale) state.  The timing cores never compute values; they fetch,
dispatch and commit stream records with latencies from the memory model, so
a timing bug can slow the machine down but can never corrupt results.

Per cycle the look-ahead core ticks first, then the main core; within a core
the order is commit, dispatch, fetch.  Branch outcomes travel through the
branch outcome queue (BOQ), typed hints (prefetch addresses, reusable values,
branch targets) through the footnote queue attached to BOQ entries.  The main
thread consumes one BOQ entry per conditional branch at fetch; a mismatch is
a mispredict and triggers a look-ahead reboot from the main thread's fetch
frontier.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, asdict

from . import uisa
from .memsys import MemorySystem, CacheConfig, MT, LT
from .skeleton import SkeletonSet
from .t1 import T1Table, LatencyEstimator
from .vreuse import ValueReuseUnit
from .recycle import LoopTracker, RecycleController

PROGRESS_WATCHDOG = 200_000   # cycles without a main-thread commit -> error
DRAIN_PERIOD = 16


class EngineError(Exception):
    pass


@dataclass
class CoreParams:
    fetch_width: int = 4
    decode_width: int = 4
    commit_width: int = 4
    window_size: int = 192
    fetch_buffer: int = 32
    mispredict_penalty: int = 20
    btb_penalty: int = 2

    @classmethod
    def from_dict(cls, d: dict) -> "CoreParams":
        return cls(**d)


@dataclass
class DlaParams:
    boq_capacity: int = 512
    fq_capacity: int = 128
    reboot_cycles: int = 64

    @classmethod
    def from_dict(cls, d: dict) -> "DlaParams":
        return cls(**d)


@dataclass
class Features:
    t1: bool = False
    value_reuse: bool = False
    fetch_buffer: bool = True
    recycle: str = "off"            # off | static | dynamic
    static_versions: dict = field(default_factory=dict)
    boq_prefetch_release: bool = True

    @classmethod
    def from_dict(cls, d: dict) -> "Features":
        d = dict(d)
        if "static_versions" in d:
            d["static_versions"] = {int(k): v for k, v in d["static_versions"].items()}
        return cls(**d)


class TwoBitPredictor:
    """Per-pc saturating 2-bit counters, initialized weakly taken."""

    def __init__(self):
        self.table: dict[int, int] = {}

    def predict(self, pc: int) -> bool:
        return self.table.get(pc, 2) >= 2

    def update(self, pc: int, taken: bool) -> None:
        c = self.table.get(pc, 2)
        self.table[pc] = min(3, c + 1) if taken else max(0, c - 1)


# ---------------------------------------------------------------------------
# functional streams
#
# A record is (instr, eff_addr, value, taken, offset) where offset is the
# dynamic distance from the preceding conditional branch in the walk
# (meaningful on the look-ahead side, None on the main-thread side).

class MainStream:
    """Lazy architectural trace of the full program."""

    def __init__(self, program: uisa.StaticProgram, limit: int):
        self.program = program
        self.state = uisa.ArchState.initial(program)
        self.recs: dict[int, tuple] = {}
        self.next = 0
        self.halted = False
        self.hit_limit = False
        self.limit = limit

    def get(self, idx: int):
        recs = self.recs
        if idx in recs:
            return recs[idx]
        program = self.program
        state = self.state
        while idx >= self.next and not self.halted:
            if program.instrs[state.pc].opcode == "HALT":
                self.halted = True
                break
            if self.next >= self.limit:
                self.halted = True
                self.hit_limit = True
                break
            ins = program.instrs[state.pc]
            ev = uisa.step(state, program, self.next)
            recs[self.next] = (ins, ev.eff_addr, ev.value, ev.taken, None)
            self.next += 1
        return recs.get(idx)

    def release(self, idx: int) -> None:
        self.recs.pop(idx, None)


class LookaheadStream:
    """Masked walk: skeleton bits plus all control; conversions follow bias.

    Masked-out instructions are skipped without executing (their dynamic
    slot still counts toward branch offsets).  Execution errors from stale
    state mark the stream stuck; the engine reboots it.
    """

    def __init__(self, program: uisa.StaticProgram, skel: SkeletonSet,
                 version: int, state: uisa.ArchState):
        mask = skel.versions[version]
        self.program = program
        self.bits = mask.bits
        self.converted = mask.converted_branches
        self.bias_dirs = skel.bias_dirs
        self.state = state
        self.recs: dict[int, tuple] = {}
        self.next = 0
        self.halted = False
        self.stuck = False
        self.since_branch = 0
        self.walked = 0

    @property
    def done(self) -> bool:
        return self.halted or self.stuck

    def get(self, idx: int):
        recs = self.recs
        if idx in recs:
            return recs[idx]
        program = self.program
        instrs = program.instrs
        bits = self.bits
        converted = self.converted
        state = self.state
        while idx >= self.next and not (self.halted or self.stuck):
            pc = state.pc
            ins = instrs[pc]
            op = ins.opcode
            if op == "HALT":
                self.halted = True
                break
            self.walked += 1
            if pc in converted:
                taken = self.bias_dirs[pc]
                state.pc = ins.target if taken else pc + 1
                recs[self.next] = (ins, None, None, taken, None)
                self.next += 1
                self.since_branch = 0
            elif pc in bits or ins.is_control:
                try:
                    ev = uisa.step(state, program, self.next)
                except uisa.ExecError:
                    self.stuck = True
                    break
                self.since_branch += 1
                off = self.since_branch
                if op == "BR_COND":
                    self.since_branch = 0
                recs[self.next] = (ins, ev.eff_addr, ev.value, ev.taken, off)
                self.next += 1
            else:
                state.pc = pc + 1   # masked out: free slot, no record
                self.since_branch += 1
        return recs.get(idx)

    def release(self, idx: int) -> None:
        self.recs.pop(idx, None)


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
    strided: dict = field(default_factory=dict)
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
                 stream, role: str, engine: "Engine"):
        self.p = params
        self.mem = mem
        self.mem_mode = mem_mode
        self.stream = stream
        self.role = role                      # "baseline" | "mt" | "lt"
        self.engine = engine
        self.window: deque = deque()          # (idx, complete, dispatched, rec)
        self.fetch_buffer: deque = deque()
        self.fb_cap = params.fetch_buffer
        self.fetch_idx = 0
        self.fetch_blocked_until = 0
        self.wait_resolution: int | None = None
        self.pending_flags: dict[int, str] = {}
        self.reg_ready = [0] * uisa.NUM_REGS
        self.committed = 0
        self.branches = 0
        self.mispredicts = 0
        self.fetch_bubbles = 0
        self.predictor = TwoBitPredictor()
        self.btb: set[int] = set()
        self.boq_done_idx = -1
        self.last_fetched = 0
        self.last_dispatched = 0
        self.boq_starved_at = -1

    # -- commit ---------------------------------------------------------------

    def commit(self, now: int) -> None:
        window = self.window
        n = 0
        width = self.p.commit_width
        eng = self.engine
        is_lt = self.role == "lt"
        while window and n < width:
            idx, complete, dispatched, rec = window[0]
            if complete > now:
                break
            if is_lt and not eng.lt_commit_ok(rec):
                break   # BOQ full or footnote queue full: stall commit
            window.popleft()
            self.committed += 1
            if is_lt:
                eng.on_lt_commit(rec, now)
            else:
                eng.on_mt_commit(self, rec, dispatched, complete, now)
            self.stream.release(idx)
            n += 1

    # -- dispatch ---------------------------------------------------------------

    def dispatch(self, now: int) -> None:
        p = self.p
        window = self.window
        buf = self.fetch_buffer
        space = p.window_size - len(window)
        demand = space if space < p.decode_width else p.decode_width
        n = 0
        eng = self.engine
        while n < demand and buf:
            idx = buf[0]
            rec = self.stream.get(idx)
            ins = rec[0]
            start = now
            rr = self.reg_ready
            for r in ins.read_regs():
                t = rr[r]
                if t > start:
                    start = t
            op = ins.opcode
            if op == "LOAD":
                res = self.mem.access(rec[1], "load", self.mem_mode, start)
                complete = start + res.latency
                if self.role == "lt":
                    eng.on_lt_load(ins, rec, res, now)
                else:
                    eng.on_mt_load(self, ins, rec, res, start, now)
            elif op == "STORE":
                self.mem.access(rec[1], "store", self.mem_mode, start)
                complete = start + 1
            elif op == "MUL":
                complete = start + 3
            else:
                complete = start + 1

            squashed = False
            ready = complete
            if self.role == "mt":
                complete, ready, squashed = eng.on_mt_dispatch(
                    self, idx, ins, rec, start, complete, now)
            if ins.dst is not None:
                rr[ins.dst] = ready
            if idx == self.wait_resolution:
                self.fetch_blocked_until = complete + p.mispredict_penalty
                self.wait_resolution = None
                flag = self.pending_flags.pop(idx, None)
                if flag == "boq":
                    eng.schedule_reboot(complete, "boq_mispredict")
            window.append((idx, complete, now, rec))
            if not squashed:
                buf.popleft()
            n += 1
            if squashed:
                break
        self.fetch_bubbles += demand - n
        self.last_dispatched = n

    def dispatch_ideal_backend(self, now: int) -> None:
        # backend absorbs everything instantly; used only to measure supply
        buf = self.fetch_buffer
        n = len(buf)
        while buf:
            idx = buf.popleft()
            rec = self.stream.get(idx)
            if idx == self.wait_resolution:
                self.fetch_blocked_until = now + 1 + self.p.mispredict_penalty
                self.wait_resolution = None
                self.pending_flags.pop(idx, None)
            self.committed += 1
            self.engine.on_mt_commit(self, rec, now, now, now)
            self.stream.release(idx)
        self.last_dispatched = n

    # -- fetch --------------------------------------------------------------

    def fetch(self, now: int) -> None:
        self.last_fetched = 0
        if self.wait_resolution is not None or now < self.fetch_blocked_until:
            return
        p = self.p
        buf = self.fetch_buffer
        fetched = 0
        eng = self.engine
        is_mt_dla = self.role == "mt" and eng.dla_on
        while fetched < p.fetch_width and len(buf) < self.fb_cap:
            idx = self.fetch_idx
            rec = self.stream.get(idx)
            if rec is None:
                break
            ins = rec[0]
            op = ins.opcode
            stop = False
            if op == "BR_COND":
                taken = rec[3]
                if is_mt_dla:
                    if idx > self.boq_done_idx:
                        if not eng.boq:
                            eng.stats.boq_empty_stalls += 1
                            self.boq_starved_at = now
                            break
                        entry = eng.boq.popleft()
                        eng.boq_popped += 1
                        eng.stats.boq_consumed += 1
                        eng.process_footnotes(entry, idx, now)
                        self.boq_done_idx = idx
                        if entry.pc != ins.index or entry.taken != taken:
                            self.mispredicts += 1
                            eng.stats.boq_mispredicts += 1
                            self.pending_flags[idx] = "boq"
                            self.wait_resolution = idx
                            stop = True
                    elif idx in self.pending_flags:
                        self.wait_resolution = idx
                        stop = True
                elif self.role == "lt" and ins.index in self.stream.converted:
                    pass    # statically predicted: never a redirect
                else:
                    pred = self.predictor.predict(ins.index)
                    self.predictor.update(ins.index, taken)
                    if pred != taken:
                        self.mispredicts += 1
                        if idx not in self.pending_flags:
                            self.pending_flags[idx] = "pred"
                        self.wait_resolution = idx
                        stop = True
                if taken and not stop:
                    stop = self._redirect(ins.index, now)
            elif op in ("BR_UNCOND", "CALL"):
                stop = self._redirect(ins.index, now)
            elif op == "RET":
                stop = True   # return address stack assumed perfect, 1-group cost
            if op == "BR_COND":
                self.branches += 1
            buf.append(idx)
            self.fetch_idx = idx + 1
            fetched += 1
            if stop:
                break
        self.last_fetched = fetched

    def _redirect(self, pc: int, now: int) -> bool:
        """Taken control flow ends the fetch group; cold targets cost extra."""
        if pc not in self.btb:
            self.btb.add(pc)
            self.fetch_blocked_until = now + 1 + self.p.btb_penalty
        return True

    def fetch_ideal(self, now: int) -> None:
        # fetch never misses, never redirects: used only to measure demand
        buf = self.fetch_buffer
        while len(buf) < self.fb_cap:
            rec = self.stream.get(self.fetch_idx)
            if rec is None:
                break
            buf.append(self.fetch_idx)
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
                 mode: str = "normal",
                 track_pcs: frozenset | None = None,
                 track_warmup: int = 500,
                 commit_log: list | None = None,
                 corrupt_rate: float = 0.0, corrupt_seed: int = 0):
        program.validate()
        self.program = program
        self.params = params or CoreParams()
        self.dla = dla or DlaParams()
        self.features = features or Features()
        self.skel = skel
        self.dla_on = skel is not None
        self.limit = limit
        self.max_cycles = max_cycles
        if mode not in ("normal", "ideal_fetch", "ideal_backend"):
            raise EngineError(f"unknown mode {mode!r}")
        if mode != "normal" and self.dla_on:
            raise EngineError("idealized modes are baseline-only measurements")
        self.mode = mode
        self.commit_log = commit_log
        self.mem = MemorySystem(cache_config)
        self.stats = RunStats()

        mt_params = self.params
        if not self.features.fetch_buffer:
            mt_params = CoreParams(**{**asdict(self.params),
                                      "fetch_buffer": self.params.decode_width})
        self.mt_stream = MainStream(program, limit)
        self.mt = _Core(mt_params, self.mem, MT, self.mt_stream,
                        "mt" if self.dla_on else "baseline", self)

        self.boq: deque[BoqEntry] = deque()
        self.fq: deque[tuple] = deque()
        self.boq_pushed = 0
        self.boq_popped = 0
        self.predictions: dict[int, tuple] = {}
        self.pending_reboots: list[tuple[int, str]] = []
        self.pf_queue: deque[int] = deque()   # prefetches awaiting MSHR room
        self.pf_queue_cap = 64
        self.corrupt_rate = corrupt_rate
        self._corrupt = random.Random(corrupt_seed) if corrupt_rate > 0 else None

        self.tracker = LoopTracker()
        self.track_pcs = track_pcs or frozenset()
        self.track_warmup = track_warmup
        self.strided_counts: dict[int, list] = {}

        self.lt = None
        if self.dla_on:
            self.version = version
            self.s_bits = skel.s_bits
            self.lt_stream = LookaheadStream(
                program, skel, version, uisa.ArchState.initial(program))
            self.lt = _Core(self.params, self.mem, LT, self.lt_stream, "lt", self)
            self.vru = ValueReuseUnit()
            self.t1 = T1Table()
            self.lat_est = LatencyEstimator(default=float(self.mem.cfg.cold_latency()))
            self.recycler = RecycleController(
                mode=self.features.recycle,
                static_map=self.features.static_versions)
            self.lt_total_committed = 0
            self.fn_counts = {"prefetch": 0, "reuse": 0}
            self.boq_occ = [0] * (self.dla.boq_capacity + 1)
        self.fb_occ = [0] * (self.mt.fb_cap + 1)

    # -- look-ahead side hooks -------------------------------------------------

    def lt_commit_ok(self, rec) -> bool:
        ins = rec[0]
        if ins.opcode == "BR_COND":
            return len(self.boq) < self.dla.boq_capacity
        if (self.features.value_reuse and ins.dst is not None
                and rec[2] is not None and self.vru.should_emit(ins.index)
                and len(self.fq) >= self.dla.fq_capacity):
            return False
        return True

    def on_lt_commit(self, rec, now: int) -> None:
        ins = rec[0]
        self.lt_total_committed += 1
        if ins.opcode == "BR_COND":
            e = BoqEntry(ins.index, rec[3])
            self.boq.append(e)
            self.boq_pushed += 1
            return
        if (self.features.value_reuse and ins.dst is not None
                and rec[2] is not None and self.vru.should_emit(ins.index)):
            if self.boq:
                self.fq.append(("reuse", ins.index, ins.dst, rec[2], rec[4]))
                self.boq[-1].fq_count += 1
                self.fn_counts["reuse"] += 1
                self.vru.counters.emitted += 1
            else:
                self.stats.fq_drops += 1

    def on_lt_load(self, ins, rec, res, now: int) -> None:
        if res.hit_level != "L1":
            # hint the main thread: this line will likely miss there too
            if self.boq and len(self.fq) < self.dla.fq_capacity:
                self.fq.append(("prefetch", rec[1]))
                self.boq[-1].fq_count += 1
                self.fn_counts["prefetch"] += 1
            else:
                self.stats.fq_drops += 1

    # -- main-thread side hooks ----------------------------------------------

    def process_footnotes(self, entry: BoqEntry, branch_idx: int, now: int) -> None:
        for _ in range(entry.fq_count):
            fn = self.fq.popleft()
            kind = fn[0]
            if kind == "prefetch":
                if self.features.boq_prefetch_release:
                    self._queue_prefetch(fn[1])
            elif kind == "reuse":
                _, pc, dst, value, off = fn
                if off is not None:
                    if (self._corrupt is not None
                            and self._corrupt.random() < self.corrupt_rate):
                        value ^= 1   # fault injection for replay testing
                    self.predictions[branch_idx + off] = (pc, dst, value)

    def on_mt_load(self, core: _Core, ins, rec, res, start: int, now: int) -> None:
        pc = ins.index
        if self.dla_on and self.features.t1 and pc in self.s_bits:
            if res.hit_level != "L1" and not res.merged:
                self.lat_est.note_miss(pc, res.latency)
            addrs = self.t1.observe(pc, rec[1], now, self.lat_est.get(pc),
                                    self.tracker.current)
            for a in addrs:
                if a >= 0:
                    self._queue_prefetch(a)
        if pc in self.track_pcs:
            c = self.strided_counts.setdefault(pc, [0, 0, 0, 0])
            c[0] += 1
            hit = 1 if res.hit_level == "L1" else 0
            c[1] += hit
            if c[0] > self.track_warmup:
                c[2] += 1
                c[3] += hit

    def _queue_prefetch(self, addr: int) -> None:
        if len(self.pf_queue) < self.pf_queue_cap:
            self.pf_queue.append(addr)
        else:
            self.stats.fq_drops += 1

    def _issue_prefetches(self, now: int) -> None:
        self.mem.drain(now)
        mshr = self.mem.cfg.mshr
        q = self.pf_queue
        in_flight = self.mem.in_flight
        while q and len(in_flight) < mshr:
            self.mem.access(q.popleft(), "prefetch", MT, now)

    def on_mt_dispatch(self, core: _Core, idx: int, ins, rec, start: int,
                       complete: int, now: int):
        """Value-prediction application; returns (complete, ready, squashed).

        ``ready`` is when dependents may read the destination: for a
        confirmed prediction that's right away, even though a load still
        runs to completion for validation.
        """
        if not (self.dla_on and self.features.value_reuse):
            return complete, complete, False
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
        ins = rec[0]
        if self.commit_log is not None:
            self.commit_log.append((ins.index, rec[1], rec[2], rec[3]))
        op = ins.opcode
        if op not in ("BR_COND", "CALL"):
            if self.dla_on and self.features.value_reuse:
                it = self.tracker.iterations.get(self.tracker.current)
                if it is not None and it <= self.vru.train_iterations:
                    self.vru.train(ins.index, complete - dispatched, it - 1)
            return
        events = self.tracker.observe(ins.index, op, rec[3], ins.target)
        if not events or not self.dla_on:
            return
        for ev in events:
            if ev.kind == "enter" and self.features.value_reuse:
                self.vru.sif.clear()    # training restarts per loop
            if ev.kind == "exit":
                if self.features.t1:
                    self.t1.loop_end(ev.loop_pc)
                if self.features.recycle == "dynamic":
                    self.recycler.on_exit(ev.loop_pc)
            elif self.features.recycle in ("dynamic", "static"):
                if ev.kind == "enter":
                    want = self.recycler.on_enter(ev.loop_pc, now, core.committed)
                else:
                    want = self.recycler.on_progress(ev.loop_pc, now, core.committed)
                if want is not None and want != self.version:
                    self.request_swap(want, now)

    # -- reboots and version swaps ---------------------------------------------

    def schedule_reboot(self, at_cycle: int, reason: str) -> None:
        self.pending_reboots.append((at_cycle, reason))

    def request_swap(self, version: int, now: int) -> None:
        self.version = version
        self.stats.version_swaps += 1
        self._reboot(now, "version_swap")

    def _reboot(self, now: int, reason: str) -> None:
        self.stats.reboots += 1
        self.stats.reboot_reasons[reason] = \
            self.stats.reboot_reasons.get(reason, 0) + 1
        restart_idx = self.mt_stream.next
        self.lt_stream = LookaheadStream(
            self.program, self.skel, self.version, self.mt_stream.state.clone())
        lt = self.lt
        lt.stream = self.lt_stream
        lt.window.clear()
        lt.fetch_buffer.clear()
        lt.fetch_idx = 0
        lt.wait_resolution = None
        lt.pending_flags.clear()
        lt.reg_ready = [0] * uisa.NUM_REGS
        lt.fetch_blocked_until = now + self.dla.reboot_cycles
        self.boq.clear()
        self.fq.clear()
        self.boq_pushed = 0
        self.boq_popped = 0
        self.mt.boq_done_idx = max(self.mt.boq_done_idx, restart_idx - 1)

    # -- main loop -------------------------------------------------------------

    def run(self) -> RunStats:
        mt = self.mt
        lt = self.lt
        stats = self.stats
        cycle = 0
        last_commit_cycle = 0
        last_committed = 0
        record_demand = self.mode == "ideal_fetch"
        record_supply = self.mode == "ideal_backend"
        dla = self.dla_on
        while cycle < self.max_cycles:
            cycle += 1
            if dla:
                lt.commit(cycle)
                lt.dispatch(cycle)
                lt.fetch(cycle)
            self.fb_occ[len(mt.fetch_buffer)] += 1
            if self.mode == "ideal_backend":
                mt.dispatch_ideal_backend(cycle)
            else:
                mt.commit(cycle)
                mt.dispatch(cycle)
            if self.mode == "ideal_fetch":
                mt.fetch_ideal(cycle)
            else:
                mt.fetch(cycle)
            if record_demand:
                h = stats.demand_hist
                n = mt.last_dispatched
                h[n] = h.get(n, 0) + 1
            if record_supply:
                h = stats.supply_hist
                n = mt.last_fetched
                h[n] = h.get(n, 0) + 1
            if dla:
                # queue depth law: pushes minus pops since the last flush
                if self.boq_pushed - self.boq_popped != len(self.boq):
                    raise EngineError(f"branch outcome queue depth "
                                      f"accounting broke at cycle {cycle}")
                self.boq_occ[len(self.boq)] += 1
                for at, reason in self.pending_reboots:
                    if cycle >= at:
                        self._reboot(cycle, reason)
                self.pending_reboots = [(a, r) for a, r in self.pending_reboots
                                        if a > cycle]
                if (mt.boq_starved_at == cycle and self.lt_stream.done
                        and lt.drained()):
                    self._reboot(cycle, "guard")
                if self.pf_queue:
                    self._issue_prefetches(cycle)
            if cycle % DRAIN_PERIOD == 0:
                self.mem.drain(cycle)
            if mt.committed != last_committed:
                last_committed = mt.committed
                last_commit_cycle = cycle
            elif cycle - last_commit_cycle > PROGRESS_WATCHDOG:
                raise EngineError(
                    f"no commit progress for {PROGRESS_WATCHDOG} cycles "
                    f"at cycle {cycle}")
            if (self.mt_stream.halted and mt.fetch_idx >= self.mt_stream.next
                    and mt.drained()):
                break
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
        st.strided = {pc: {"instances": c[0], "l1_hits": c[1],
                           "instances_warm": c[2], "l1_hits_warm": c[3]}
                      for pc, c in self.strided_counts.items()}
        if self.dla_on:
            st.lt_committed = self.lt_total_committed
            st.lt_walked = self.lt_stream.walked
            st.footnotes = dict(self.fn_counts)
            st.vreuse = self.vru.counters.to_dict()
            st.t1 = self.t1.stats()
            st.boq_occupancy = self.boq_occ
            st.recycle = {
                "chosen": self.recycler.chosen_versions(),
                "measurements": [(m.loop_pc, m.version, round(m.ipc, 4),
                                  m.instructions) for m in self.recycler.measurements],
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


# ---------------------------------------------------------------------------
# front doors

def run_baseline(program: uisa.StaticProgram, params: CoreParams | None = None,
                 cache_config: CacheConfig | None = None,
                 limit: int = 10_000_000, max_cycles: int = 200_000_000,
                 mode: str = "normal", commit_log: list | None = None) -> RunStats:
    eng = Engine(program, params=params, cache_config=cache_config,
                 limit=limit, max_cycles=max_cycles, mode=mode,
                 commit_log=commit_log)
    return eng.run()


def run_dla(program: uisa.StaticProgram, skel: SkeletonSet,
            params: CoreParams | None = None,
            cache_config: CacheConfig | None = None,
            dla: DlaParams | None = None, features: Features | None = None,
            version: int = 0,
            limit: int = 10_000_000, max_cycles: int = 200_000_000,
            track_pcs: frozenset | None = None, track_warmup: int = 500,
            commit_log: list | None = None,
            corrupt_rate: float = 0.0, corrupt_seed: int = 0) -> RunStats:
    eng = Engine(program, params=params, cache_config=cache_config, skel=skel,
                 dla=dla, features=features, version=version,
                 limit=limit, max_cycles=max_cycles,
                 track_pcs=track_pcs, track_warmup=track_warmup,
                 commit_log=commit_log,
                 corrupt_rate=corrupt_rate, corrupt_seed=corrupt_seed)
    return eng.run()
