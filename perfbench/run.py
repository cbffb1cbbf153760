"""r3dla benchmark: host cost of simulating the decoupled look-ahead machine.

Run from the repository root:

    python3 perfbench/run.py --workload chase --seed 1 --seconds 24 --trace 0

Each workload is a *session* built from the public calls behind
``sim compare`` and ``fetchq harvest`` / ``fetchq analyze --sweep``:
``cli.run_config`` on a baseline config and on a DLA config of one generated
program (plus, on ``branchy``, two idealized baseline runs and a
``fetchq.capacity_sweep``).  The seed goes into the generated configs; the
simulator receives nothing else.  After six untimed warm-up sessions on a
tiny program of the same kind, sessions repeat until ``--seconds`` is used
up (at least three), and every timing is the median over sessions.
Host times are given in reference seconds: hostspeed.py probes the host's
speed every 10 ms during the run and scales each interval to a fixed
reference speed, because on a shared machine the raw times move in steps
longer than a run.  The raw host times are in the details line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
sessions for half the time, then one session with every layer boundary
wrapped (see tracer.py), and prints the per-layer metrics listed in
layers.json.  The last line of standard output is the result object; the
line before it, and a file under perfbench/out/, hold the details: every
session, the RunStats digests and the machine the numbers came from.

Every simulation is checked against the functional interpreter, which runs
once per invocation outside the timed region.  README.md describes the
checks, the workloads and the noise on a small shared machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# one single-threaded process: numpy's BLAS/OpenMP pools get one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SESSIONS = 3
# A fresh process runs its first four sessions 15-25% slower while its heap
# grows to working size (they page-fault, later ones do not).  This many
# untimed sessions on the workload's "warmup" program, a tiny one of the same
# kind and features, get it there in a few seconds.
WARMUP_SESSIONS = 6
SWEEP = range(4, 65)                  # fetchq analyze --sweep 4:64
HARVEST = (("ideal_fetch", "demand_hist"), ("ideal_backend", "supply_hist"))

# Why each workload is here: README.md.  Sizes keep one session to a few
# seconds, so a run holds several sessions and reports their median.
# "warmup" holds the params of the tiny warm-up program.
WORKLOADS = {
    "chase": {
        "workload": {"kind": "pointer_chase",
                     "params": {"length": 1000, "payload": 1, "filler": 24,
                                "rounds": 2}},
        "warmup": {"length": 100, "payload": 1, "filler": 24, "rounds": 1},
        "features": {"t1": True, "value_reuse": True},
    },
    "stride": {
        "workload": {"kind": "strided_loop",
                     "params": {"stride": 8, "iters": 10000}},
        "warmup": {"stride": 8, "iters": 500},
        "features": {"t1": True},
    },
    "phases": {
        "workload": {"kind": "mixed_phases", "params": {"outer": 8, "phase_iters": 2100}},
        "warmup": {"outer": 1, "phase_iters": 300},
        "features": {"t1": True, "recycle": "dynamic"},
    },
    "branchy": {
        "workload": {"kind": "branchy", "params": {"iters": 2000, "streams": 2}},
        "warmup": {"iters": 100, "streams": 2},
        "features": {"value_reuse": True},
        "harvest": True,
    },
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "base_kips": "kinstr/s",
             "dla_kips": "kinstr/s", "peak_rss_mb": "MB", "dla_speedup": "x",
             "ok_frac": "ratio"}


def stats_digest(stats) -> str:
    """SHA-256 of the canonical ``RunStats.to_dict()``."""
    canon = json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def interpret(uisa, program):
    """Functional reference: instruction count and final (pc, regs, memory)."""
    state = uisa.ArchState.initial(program)
    n = 0
    while program.instrs[state.pc].opcode != "HALT":
        uisa.step(state, program, n)
        n += 1
    return n, (state.pc, state.regs, state.memory)


class RunProbe:
    """Owns ``Engine.run``: times each simulation and checks the MT's state.

    ``inner`` is what the wrapper delegates to; the tracer wraps it in the
    traced session.  One ``run_config`` call makes exactly one ``Engine.run``.
    ``ref_state`` is the interpreter's final state for the program that runs
    next; each ``Bench`` sets it before its simulations.
    """

    def __init__(self, engine_cls):
        self.inner = engine_cls.run
        self.last = None
        self.ref_state = None
        probe = self

        def run(eng):
            t0 = time.perf_counter()
            st = probe.inner(eng)
            t1 = time.perf_counter()
            s = eng.mt_stream.state
            probe.last = (t0, t1, (s.pc, s.regs, s.memory) == probe.ref_state)
            return st
        engine_cls.run = run


def _plain_call(name, fn, *args):
    return fn(*args)


class Bench:
    """One workload at one seed: its configs, reference and checks."""

    def __init__(self, r3dla, name: str, seed: int, speed, probe, warmup=False):
        self.cli, self.fetchq = r3dla.cli, r3dla.fetchq
        self.speed = speed
        spec = WORKLOADS[name]
        workload = spec["workload"]
        if warmup:
            name = f"{name}-warmup"
            workload = {**workload, "params": spec["warmup"]}
        base = {"name": f"{name}-base", "workload": workload,
                "seed": seed, "engine": "baseline"}
        self.cfgs = {"base": base,
                     "dla": {**base, "name": f"{name}-dla", "engine": "dla",
                             "features": spec["features"]}}
        if spec.get("harvest"):
            for mode, _ in HARVEST:
                self.cfgs[mode] = {**base, "name": f"{name}-{mode}", "mode": mode}
        for cfg in self.cfgs.values():
            self.cli.validate_config(cfg)
        self.ref_count, self.ref_state = interpret(
            r3dla.uisa, self.cli.build_workload(base))
        self.probe = probe
        self.digests: dict[str, str] = {}     # mode -> RunStats digest
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _check_digest(self, mode: str, digest: str) -> str | None:
        prev = self.digests.setdefault(mode, digest)
        return None if prev == digest else f"digest {digest} != earlier {prev}"

    def _fail(self, mode: str, why: str):
        self.failed += 1
        self.errors.append(f"{mode}: {why}")
        return None, None

    def simulate(self, mode: str):
        """One ``run_config``; returns (record, RunStats) or (None, None)."""
        self.attempted += 1
        self.probe.last = None
        self.probe.ref_state = self.ref_state
        t0 = time.perf_counter()
        try:
            st = self.cli.run_config(self.cfgs[mode])
        except Exception as e:      # a raising run is a failed run; keep going
            return self._fail(mode, f"raised {e!r}")
        t_run, t_end, state_ok = self.probe.last
        errors = []
        if st.partial:
            errors.append("partial run")
        if st.instructions != self.ref_count:
            errors.append(f"committed {st.instructions} instructions, "
                          f"interpreter {self.ref_count}")
        if not state_ok:
            errors.append("MT final registers or memory differ from interpreter")
        digest = stats_digest(st)
        bad = self._check_digest(mode, digest)
        if bad:
            errors.append(bad)
        if errors:
            return self._fail(mode, "; ".join(errors))
        ref = self.speed.ref_seconds
        return {"setup_s": ref(t0, t_run), "run_s": ref(t_run, t_end),
                "setup_host_s": t_run - t0, "run_host_s": t_end - t_run,
                "instructions": st.instructions, "cycles": st.cycles,
                "digest": digest}, st

    def _harvest(self, runs: dict, stats: dict) -> dict:
        hists = {}
        for mode, key in HARVEST:
            runs[mode], stats[mode] = self.simulate(mode)
            if stats[mode] is not None:
                hists[key] = getattr(stats[mode], key)
        return hists

    def _sweep(self, hists: dict) -> None:
        self.attempted += 1
        try:
            demand, supply = self.fetchq.harvest_distributions(hists)
            rows = self.fetchq.capacity_sweep(demand, supply, SWEEP)
        except Exception as e:
            self._fail("sweep", f"raised {e!r}")
            return
        canon = json.dumps([[n, b] for n, b, _ in rows])
        bad = self._check_digest("sweep", hashlib.sha256(canon.encode()).hexdigest())
        if bad:
            self._fail("sweep", bad)

    def session(self, call=_plain_call) -> tuple[dict, dict]:
        """One workload session; returns its timings and RunStats by mode."""
        runs: dict = {}
        stats: dict = {}
        rec: dict = {}
        t0 = time.perf_counter()
        if "ideal_fetch" in self.cfgs:
            hists = call("fetchq.harvest", self._harvest, runs, stats)
            rec["harvest_s"] = time.perf_counter() - t0
            call("fetchq.sweep", self._sweep, hists)
        for mode in ("base", "dla"):
            runs[mode], stats[mode] = self.simulate(mode)
        t_end = time.perf_counter()
        rec["wall_s"] = self.speed.ref_seconds(t0, t_end)
        rec["wall_host_s"] = t_end - t0
        done = [r for r in runs.values() if r is not None]
        for key in ("setup_s", "setup_host_s"):
            rec[key] = sum(r[key] for r in done)
        base, dla = runs["base"], runs["dla"]
        for mode, r in (("base", base), ("dla", dla)):
            if r is not None:
                rec[f"{mode}_kips"] = r["instructions"] / r["run_s"] / 1000
                rec[f"{mode}_host_kips"] = (r["instructions"] / r["run_host_s"]
                                            / 1000)
        if base is not None and dla is not None:
            rec["dla_speedup"] = base["cycles"] / dla["cycles"]
            rec["kcps"] = ((base["cycles"] + dla["cycles"])
                           / (base["run_s"] + dla["run_s"]) / 1000)
        rec["runs"] = runs
        return rec, stats


def measure(bench: Bench, seconds: float, min_sessions: int) -> list[dict]:
    """Repeat sessions while the next one still fits in ``seconds``."""
    sessions = []
    t0 = time.perf_counter()
    while True:
        rec = bench.session()[0]
        rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sessions.append(rec)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(s["wall_s"] for s in sessions)
        if len(sessions) >= min_sessions and elapsed + typical > seconds:
            return sessions


def median_of(sessions: list[dict], key: str) -> float:
    vals = [s[key] for s in sessions if key in s]
    return statistics.median(vals) if vals else 0.0


def end_to_end(sessions: list[dict], attempted: int, failed: int) -> dict:
    m = {k: median_of(sessions, k)
         for k in ("wall_s", "setup_s", "base_kips", "dla_kips", "dla_speedup")}
    # after a fixed number of sessions: the allocator's peak can still step up
    # a few MB in later ones, and how many sessions fit depends on host speed
    m["peak_rss_mb"] = sessions[MIN_SESSIONS - 1]["peak_rss_mb"]
    m["ok_frac"] = 1.0 - failed / attempted
    return m


def host_medians(sessions: list[dict]) -> dict:
    """The timing medians in raw host seconds, for the details line."""
    return {k: median_of(sessions, k) for k in
            ("wall_host_s", "setup_host_s", "base_host_kips", "dla_host_kips")}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tr, stats: dict, traced: dict, untraced: list[dict]) -> dict:
    """Per-layer metrics from the traced session; names as in layers.json."""
    calls, self_s = tr.calls, tr.self_s
    m = {}
    for name in ("engine.run", "engine.commit", "engine.dispatch", "engine.fetch",
                 "skeleton.closure"):
        m[f"{name}.self_s"] = self_s[name]
    for name in ("engine.stream_get", "uisa.step", "memsys.access",
                 "memsys.drain", "skeleton.profile", "t1.observe", "vreuse",
                 "fetchq.solve"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["recycle.calls"] = calls["recycle.tracker"] + calls["recycle.controller"]
    m["recycle.self_s"] = self_s["recycle.tracker"] + self_s["recycle.controller"]
    m["recycle.controller.calls"] = calls["recycle.controller"]
    m["engine.idle_cycle_frac.base"] = tr.idle_cycle_frac("base")
    m["engine.idle_cycle_frac.dla"] = tr.idle_cycle_frac("dla")
    m["engine.kcps"] = median_of(untraced, "kcps")
    m["fetchq.harvest_s"] = traced.get("harvest_s", 0.0)
    m["trace.overhead_frac"] = traced["wall_s"] / median_of(untraced, "wall_s") - 1
    if tr.skeletons:
        n_instrs, skel = tr.skeletons[-1]
        m["skeleton.distinct_versions"] = len(
            {(v.bits, v.converted_branches) for v in skel.versions})
        m["skeleton.v0_frac"] = len(skel.versions[0].bits) / n_instrs
    st = stats.get("dla")
    if st is not None:
        mem = st.mem
        issued = mem["prefetch_issued"]
        m["memsys.l1_mt_mpki"] = mem["L1.MT"]["mpki"]
        m["memsys.l2_mt_mpki"] = mem["L2.MT"]["mpki"]
        m["memsys.l3_mpki"] = mem["L3"]["mpki"]
        m["memsys.prefetch_issued"] = issued
        m["memsys.prefetch_useful"] = mem["prefetch_useful"]
        m["memsys.prefetch_useful_frac"] = _ratio(mem["prefetch_useful"], issued)
        m["memsys.prefetch_late_frac"] = _ratio(mem["prefetch_late"], issued)
        m["memsys.traffic_lines"] = mem["traffic_lines"]
        vr = st.vreuse
        m["vreuse.confirm_frac"] = _ratio(vr["confirmed"], vr["emitted"])
        m["vreuse.skip_frac"] = _ratio(vr["skipped"], vr["confirmed"])
        m["recycle.measurements"] = len(st.recycle["measurements"])
        m["recycle.version_swaps"] = st.version_swaps
        m["engine.reboots"] = st.reboots
        m["engine.boq_empty_frac"] = _ratio(st.boq_empty_stalls, st.cycles)
        m["engine.lt_commit_frac"] = _ratio(st.lt_committed, st.instructions)
        m["engine.fq_drops"] = st.fq_drops
    return m


# -- run environment and bookkeeping -------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "r3dla").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(numpy) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "source_sha256": source_digest(),
            "blas_threads": os.environ["OMP_NUM_THREADS"]}


def load_digests(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def refuse(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        return refuse("python -O strips the engine's per-cycle BOQ depth "
                      "assert; run without -O")
    if "R3DLA_SEED" in os.environ:
        return refuse("R3DLA_SEED is set; it would override the benchmark's "
                      "--seed inside cli.build_workload")
    if not (SRC / "r3dla" / "engine.py").is_file():
        return refuse(f"no r3dla sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import r3dla
    # the tracer reaches these as attributes of the package
    from r3dla import (cli, engine, fetchq, memsys, recycle,  # noqa: F401
                       skeleton, t1, uisa, vreuse)
    from hostspeed import HostSpeed
    from tracer import Tracer

    env = environment(numpy)
    OUT.mkdir(exist_ok=True)
    store_path = OUT / "digests.json"
    speed = HostSpeed()
    probe = RunProbe(engine.Engine)
    bench = Bench(r3dla, args.workload, args.seed, speed, probe)
    warm = Bench(r3dla, args.workload, args.seed, speed, probe, warmup=True)
    # digests of earlier runs of the same sources on the same configs
    canon = json.dumps([env["source_sha256"], bench.cfgs], sort_keys=True)
    key = (f"{args.workload}/seed{args.seed}/"
           f"{hashlib.sha256(canon.encode()).hexdigest()[:16]}")
    store = load_digests(store_path)
    bench.digests = store.setdefault(key, {})

    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "env": env,
               "configs": bench.cfgs}
    speed.start()
    try:
        for _ in range(WARMUP_SESSIONS):
            warm.session()
        if args.trace:
            untraced = measure(bench, args.seconds / 2, 1)
            tr = Tracer()
            tr.install(r3dla, bench.probe, "inner")
            try:
                traced, stats = tr.call("session", bench.session, tr.call)
            finally:
                tr.uninstall()
        else:
            sessions = measure(bench, args.seconds, MIN_SESSIONS)
    finally:
        speed.stop()
    # warm-up runs are checked like the others and count as operations
    attempted = bench.attempted + warm.attempted
    failed = bench.failed + warm.failed
    if args.trace:
        tr.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = per_layer(tr, stats, traced, untraced)
        layers = json.loads((HERE / "layers.json").read_text())["metrics"]
        names = {m["name"] for m in layers}
        if set(metrics) - names or (failed == 0 and names - set(metrics)):
            raise RuntimeError("per-layer metrics and layers.json disagree: "
                               f"{sorted(set(metrics) ^ names)}")
        units = {m["name"]: m["unit"] for m in layers}
        details["sessions"] = untraced + [traced]
    else:
        metrics = end_to_end(sessions, attempted, failed)
        units = E2E_UNITS
        details["sessions"] = sessions
        details["host_medians"] = host_medians(sessions)
    details["host_probe_median_s"] = speed.median_probe_s()

    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    details["digests"] = bench.digests
    details["warmup"] = {"configs": warm.cfgs, "sessions": WARMUP_SESSIONS,
                         "digests": warm.digests}
    details["errors"] = warm.errors + bench.errors
    details["samples"] = len(details["sessions"])
    # a metric that failed runs left unmeasured reads 0; correct is false then
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                          for name, unit in units.items()}}
    details["result"] = result
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
