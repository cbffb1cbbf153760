"""Span tracer that wraps r3dla's public functions from outside.

Nothing in ``r3dla`` is edited: ``Tracer.install`` replaces module and class
attributes with timing wrappers and ``Tracer.uninstall`` puts the originals
back.  Every wrapped call is a span with a parent (the innermost enclosing
wrapped call).  Per span name the tracer keeps the call count and the self
time, which is the span's duration minus the time its child spans cover.

Hot spans (``uisa.step`` runs hundreds of thousands of times per session)
are only aggregated.  Spans in ``KEEP`` are also stored whole -- id, name,
start, end, parent id -- and written out by ``write_spans`` when the
benchmark ends.

The wrappers on the three per-cycle core stages also record which cycles did
any work, which gives the share of idle cycles per run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

KEEP = frozenset({
    "session", "cli.run_config", "engine.run", "skeleton.build",
    "skeleton.profile", "skeleton.closure", "fetchq.harvest", "fetchq.sweep",
    "fetchq.solve",
})


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []          # (id, name, start, end, parent)
        self._stack: list[list] = []          # [start, child_s, kept span id]
        self._active: dict = {}               # engine -> [last busy cycle, busy cycles]
        self.cycles = {"base": 0, "dla": 0}
        self.busy_cycles = {"base": 0, "dla": 0}
        self.skeletons: list[tuple[int, object]] = []   # (static instrs, SkeletonSet)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        keep = name in KEEP

        def traced(*args, **kwargs):
            if keep:
                parent = stack[-1][2] if stack else None
                frame = [clock(), 0.0, len(spans)]
                spans.append(None)            # reserve the id; filled at exit
            else:
                frame = [clock(), 0.0, stack[-1][2] if stack else None]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if keep:
                    spans[frame[2]] = (frame[2], name, frame[0] - self.t0,
                                       end - self.t0, parent)
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as one span; for the benchmark's own steps."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap_attr(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    # -- installation ---------------------------------------------------------

    def install(self, r3dla, run_owner, run_attr: str) -> None:
        """Wrap the layer boundaries.

        ``run_owner.run_attr`` is the callable the engine's ``run`` currently
        delegates to (the benchmark's own timing probe owns ``Engine.run``).
        """
        uisa, engine, memsys = r3dla.uisa, r3dla.engine, r3dla.memsys
        skeleton, fetchq, cli = r3dla.skeleton, r3dla.fetchq, r3dla.cli
        t1, vreuse, recycle = r3dla.t1, r3dla.vreuse, r3dla.recycle

        self._wrap_attr(cli, "run_config", "cli.run_config")
        self._patch(run_owner, run_attr,
                    self._engine_run(getattr(run_owner, run_attr)))
        self._patch_stages(engine._Core)
        self._wrap_attr(engine.MainStream, "get", "engine.stream_get")
        self._wrap_attr(engine.LookaheadStream, "get", "engine.stream_get")
        self._wrap_attr(uisa, "step", "uisa.step")
        self._wrap_attr(memsys.MemorySystem, "access", "memsys.access")
        self._wrap_attr(memsys.MemorySystem, "drain", "memsys.drain")
        self._patch(skeleton, "build", self._skeleton_build(skeleton.build))
        self._wrap_attr(skeleton, "profile", "skeleton.profile")
        self._wrap_attr(skeleton, "backward_closure", "skeleton.closure")
        self._wrap_attr(skeleton, "reaching_producers", "skeleton.closure")
        self._wrap_attr(t1.T1Table, "observe", "t1.observe")
        self._wrap_attr(vreuse.ValueReuseUnit, "should_emit", "vreuse")
        self._wrap_attr(vreuse.ValueReuseUnit, "train", "vreuse")
        self._wrap_attr(vreuse.Scoreboard, "apply", "vreuse")
        self._wrap_attr(recycle.LoopTracker, "observe", "recycle.tracker")
        for hook in ("on_enter", "on_progress", "on_exit"):
            self._wrap_attr(recycle.RecycleController, hook, "recycle.controller")
        solve = fetchq.QueueModel.__dict__["solve"].__func__
        self._patch(fetchq.QueueModel, "solve",
                    classmethod(self.wrap("fetchq.solve", solve)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def _engine_run(self, run):
        traced = self.wrap("engine.run", run)
        active = self._active

        def engine_run(eng):
            st = traced(eng)
            busy = active.pop(eng, (0, 0))[1]
            if eng.mode == "normal":
                kind = "dla" if eng.dla_on else "base"
                self.cycles[kind] += st.cycles
                self.busy_cycles[kind] += busy
            return st
        return engine_run

    def _patch_stages(self, core_cls) -> None:
        """Wrap commit/dispatch/fetch and note each cycle in which one did work."""
        active = self._active
        commit = self.wrap("engine.commit", core_cls.commit)
        dispatch = self.wrap("engine.dispatch", core_cls.dispatch)
        fetch = self.wrap("engine.fetch", core_cls.fetch)

        def busy(eng, now):
            a = active.get(eng)
            if a is None:
                a = active[eng] = [0, 0]
            if a[0] != now:
                a[0] = now
                a[1] += 1

        def traced_commit(core, now):
            before = core.committed
            commit(core, now)
            if core.committed != before:
                busy(core.engine, now)

        def traced_dispatch(core, now):
            dispatch(core, now)
            if core.last_dispatched:
                busy(core.engine, now)

        def traced_fetch(core, now):
            fetch(core, now)
            if core.last_fetched:
                busy(core.engine, now)

        self._patch(core_cls, "commit", traced_commit)
        self._patch(core_cls, "dispatch", traced_dispatch)
        self._patch(core_cls, "fetch", traced_fetch)

    def _skeleton_build(self, build):
        traced = self.wrap("skeleton.build", build)

        def skeleton_build(program, *args, **kwargs):
            skel = traced(program, *args, **kwargs)
            self.skeletons.append((len(program.instrs), skel))
            return skel
        return skeleton_build

    # -- results ------------------------------------------------------------

    def idle_cycle_frac(self, kind: str) -> float:
        cycles = self.cycles[kind]
        return 1.0 - self.busy_cycles[kind] / cycles if cycles else 0.0

    def write_spans(self, path) -> None:
        doc = {"fields": ["id", "name", "start_s", "end_s", "parent"],
               "spans": [s for s in self.spans if s is not None],
               "self_s": dict(self.self_s), "calls": dict(self.calls)}
        with open(path, "w") as f:
            json.dump(doc, f)
