"""Skeleton recycling: pick the best skeleton version per loop, at runtime.

A lightweight loop tracker watches the main thread's commit stream for
backward taken branches (and repeated same-target calls, which behave like
loops for recursive code).  While a loop is hot, the controller cycles the
six skeleton versions, timing each over a measurement unit of at least
10,000 committed instructions, then locks in the version with the best IPC.
Chosen versions are kept in a loop-configuration table so a loop that comes
back does not pay for re-measurement.  Unlike the paper's bounded table, it
keeps every chosen version for the whole run and never evicts one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .skeleton import NUM_VERSIONS

UNIT_INSTRUCTIONS = 10_000
MODES = ("off", "static", "dynamic")     # "off" runs no controller


def check_mode(mode, error) -> None:
    """Refuse a recycle mode that is not one of ``MODES``."""
    if mode not in MODES:
        raise error(f"recycle: must be one of {MODES}, got {mode!r}")


class LoopTracker:
    """Commit-stream loop detection; keeps a stack of active loops.

    ``observe`` returns the loop events a committed instruction causes, as
    ``(kind, loop_pc)`` pairs with kind "enter", "iterate" or "exit".
    """

    def __init__(self):
        self.stack: list[int] = []          # innermost last
        self.current: int | None = None     # the innermost loop, if any
        self.iterations: dict[int, int] = {}
        self._last_call_target: int | None = None
        self._call_streak_pc: int | None = None

    def observe(self, pc: int, opcode: str, taken: bool,
                target: int | None) -> list[tuple[str, int]]:
        if opcode == "BR_COND":
            self._call_streak_pc = None
            if taken and target is not None and target <= pc:
                if pc == self.current:      # the innermost loop iterates
                    self.iterations[pc] += 1
                    return [("iterate", pc)]
                return self._instance(pc)
            if not taken and pc in self.stack:
                # fall-through of a tracked loop branch ends that loop (and
                # any inner loops still on the stack above it)
                events = []
                while self.stack and self.stack[-1] != pc:
                    events.append(self._pop())
                if self.stack:
                    events.append(self._pop())
                return events
        elif opcode == "CALL":
            # repeated calls to the same target look like loop iterations
            last_target = self._last_call_target
            self._last_call_target = target
            if target is not None and target == last_target:
                if self._call_streak_pc is None:
                    self._call_streak_pc = pc
                return self._instance(self._call_streak_pc)
            self._call_streak_pc = None
        return []

    def _instance(self, loop_pc: int) -> list[tuple[str, int]]:
        events = []
        if loop_pc in self.stack:
            # an outer loop iterating means everything inside it finished
            while self.stack[-1] != loop_pc:
                events.append(self._pop())
            self.iterations[loop_pc] += 1
            events.append(("iterate", loop_pc))
        else:
            self.stack.append(loop_pc)
            self.current = loop_pc
            self.iterations[loop_pc] = 1
            events.append(("enter", loop_pc))
        return events

    def _pop(self) -> tuple[str, int]:
        pc = self.stack.pop()
        self.current = self.stack[-1] if self.stack else None
        self.iterations.pop(pc, None)
        return ("exit", pc)


@dataclass
class _CycleState:
    samples: dict[int, float] = field(default_factory=dict)
    measuring: int | None = None
    unit_start_instr: int = 0
    unit_start_cycle: int = 0


@dataclass
class Measurement:
    loop_pc: int
    version: int
    ipc: float
    instructions: int


class RecycleController:
    """Decides which skeleton version should be active.

    Modes: "static" (fixed per-loop map, version 0 elsewhere, no
    measurement) and "dynamic" (cycle-and-select).  With recycle "off" the
    engine builds no controller and keeps the version it started with.
    The engine asks ``on_enter``/``on_progress`` when the loop context
    changes and performs the actual swap (which costs a reboot).
    """

    def __init__(self, mode: str = "dynamic",
                 static_map: dict[int, int] | None = None):
        if mode not in MODES[1:]:
            raise ValueError(f"recycle: a controller runs in one of "
                             f"{MODES[1:]}, got {mode!r}")
        self.mode = mode
        self.static_map = dict(static_map or {})
        self.lct: dict[int, int] = {}       # loop pc -> chosen version
        self.state: dict[int, _CycleState] = {}
        self.measurements: list[Measurement] = []

    # -- loop lifecycle ------------------------------------------------------

    def on_enter(self, loop_pc: int, cycle: int, committed: int) -> int:
        if self.mode == "static":
            return self.static_map.get(loop_pc, 0)
        cached = self.lct.get(loop_pc)
        if cached is not None:
            return cached
        st = self.state.setdefault(loop_pc, _CycleState())
        if st.measuring is None:
            st.measuring = self._next_unmeasured(st)
        st.unit_start_instr = committed
        st.unit_start_cycle = cycle
        return st.measuring

    def on_progress(self, loop_pc: int, cycle: int, committed: int) -> int | None:
        """Called while a loop is active; returns a new version on unit close.
        A static controller measures nothing, so it has no state to close."""
        st = self.state.get(loop_pc)
        if st is None or st.measuring is None:
            return None
        instrs = committed - st.unit_start_instr
        if instrs < UNIT_INSTRUCTIONS:
            return None
        cycles = max(1, cycle - st.unit_start_cycle)
        ipc = instrs / cycles
        st.samples[st.measuring] = ipc
        self.measurements.append(Measurement(loop_pc, st.measuring, ipc, instrs))
        if len(st.samples) >= NUM_VERSIONS:
            # best IPC wins; ties break toward the lowest version id
            best = min(st.samples, key=lambda v: (-st.samples[v], v))
            st.measuring = None
            self.lct[loop_pc] = best
            return best
        st.measuring = self._next_unmeasured(st)
        st.unit_start_instr = committed
        st.unit_start_cycle = cycle
        return st.measuring

    def on_exit(self, loop_pc: int) -> None:
        # partial unit abandoned: samples gathered so far survive for the
        # next time the loop turns up
        st = self.state.get(loop_pc)
        if st is not None:
            st.measuring = None

    def _next_unmeasured(self, st: _CycleState) -> int:
        # called only while a version is left: all six measured means chosen
        return next(v for v in range(NUM_VERSIONS) if v not in st.samples)

    def chosen_versions(self) -> dict[int, int]:
        # in the loops' first-seen order
        return {pc: self.lct[pc] for pc in self.state if pc in self.lct}
