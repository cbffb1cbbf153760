"""The benchmark's span tracer finds and calls every name it wraps.

``perfbench/tracer.py`` wraps module and class attributes of ``r3dla`` by
name, from outside.  An engine change that renames a wrapped function, or
stops calling it through its attribute, leaves its span silent and the
benchmark's per-layer metric at zero.  This test installs the tracer, runs one
small session of each kind the benchmark runs, and checks that every wrapped
name was called.  It reads ``perfbench/`` and changes nothing there.
"""

import importlib.util
from pathlib import Path

import r3dla
from r3dla import cli, fetchq
from r3dla.engine import Engine     # loads every module the tracer wraps

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

SPAN_NAMES = {
    "cli.run_config", "engine.run", "engine.commit", "engine.dispatch",
    "engine.fetch", "engine.stream_get", "uisa.step", "memsys.access",
    "memsys.drain", "skeleton.build", "skeleton.profile", "skeleton.closure",
    "t1.observe", "vreuse", "recycle.tracker", "recycle.controller",
    "fetchq.solve",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_name_is_called():
    tracer = load_tracer()

    class NameRecorder(tracer.Tracer):
        def __init__(self):
            super().__init__()
            self.wrapped = set()

        def wrap(self, name, fn):
            self.wrapped.add(name)
            return super().wrap(name, fn)

    phases = {"name": "phases-dla", "seed": 1, "engine": "dla",
              "workload": {"kind": "mixed_phases",
                           "params": {"outer": 1, "phase_iters": 300}},
              "features": {"t1": True, "value_reuse": True,
                           "recycle": "dynamic"}}
    branchy = {"name": "branchy-base", "seed": 1, "engine": "baseline",
               "workload": {"kind": "branchy",
                            "params": {"iters": 100, "streams": 2}}}
    tr = NameRecorder()
    # uninstall puts a bound method where the classmethod was; keep the original
    solve = fetchq.QueueModel.__dict__["solve"]
    tr.install(r3dla, Engine, "run")
    try:
        cli.run_config(phases)
        hists = {}
        for mode, key in (("ideal_fetch", "demand_hist"),
                          ("ideal_backend", "supply_hist")):
            hists[key] = getattr(cli.run_config({**branchy, "mode": mode}), key)
        demand, supply = fetchq.harvest_distributions(hists)
        fetchq.capacity_sweep(demand, supply, range(4, 8))
    finally:
        tr.uninstall()
        fetchq.QueueModel.solve = solve
    assert tr.wrapped == SPAN_NAMES
    silent = sorted(name for name in SPAN_NAMES if not tr.calls.get(name))
    assert not silent, f"wrapped but never called: {silent}"
