"""Command line front ends: experiment configs, reports, comparisons.

Three console scripts live here:

  sim     run | compare | sweep | ablate    (timing experiments)
  skel    build                             (skeleton files)
  fetchq  analyze | harvest                 (fetch buffer model)

Configs are JSON; validation errors name the offending field path.  Exit
codes: 0 ok, 1 runtime error, 2 config error, which includes a non-integer
``R3DLA_SEED`` (it overrides the workload seed) and a bad workload param.

Every command runs its configs through ``run_many``: it builds its whole
config list first (so a bad swept value is refused before any run), then
makes one call, which builds each skeleton it needs once.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import os
import sys
from dataclasses import fields

from . import __version__, uisa, skeleton, fetchq, engine
from .memsys import CacheConfig, MemError, check_int
from .engine import CoreParams, DlaParams, Features

FEATURE_NAMES = ("t1", "value_reuse", "fetch_buffer", "recycle")


class ConfigError(Exception):
    """Invalid configuration; message carries the field path."""


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _expect(d, path: str, cls=dict):
    if not isinstance(d, cls):
        _fail(path, f"expected {cls.__name__}, got {type(d).__name__}")
    return d


def _check_keys(d: dict, path: str, allowed) -> None:
    for k in d:
        if k not in allowed:
            _fail(f"{path}.{k}" if path else k, "unknown field")


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON: {e}") from None
    return validate_config(cfg)


TOP_KEYS = {"workload", "core", "cache", "engine", "dla", "features",
            "skeleton", "version", "limit", "max_cycles", "mode", "seed",
            "name"}
WORKLOAD_KEYS = {"kind", "params", "program_file", "seed"}
# the config blocks that a dataclass checks field by field
SECTIONS = {"core": CoreParams, "dla": DlaParams, "features": Features,
            "cache": CacheConfig}


def section(cfg: dict, name: str):
    """The config object of block ``name`` of ``cfg`` (None if absent); its
    dataclass checks each field, and an error names the field's path."""
    if name not in cfg:
        return None
    cls = SECTIONS[name]
    d = _expect(cfg[name], name)
    _check_keys(d, name, {f.name for f in fields(cls)})
    try:
        if hasattr(cls, "from_dict"):   # Features and CacheConfig read JSON forms
            return cls.from_dict(d)
        return cls(**d)
    except (engine.EngineError, MemError) as e:
        raise ConfigError(f"{name}.{e}") from None


def validate_config(cfg: dict) -> dict:
    """``cfg``, or a ConfigError naming the bad field's path.  The blocks'
    dataclasses check their own fields (see ``section``); this the rest."""
    _expect(cfg, "<config>")
    _check_keys(cfg, "", TOP_KEYS)
    if "name" in cfg:
        _expect(cfg["name"], "name", str)
    wl = _expect(cfg.get("workload"), "workload")
    _check_keys(wl, "workload", WORKLOAD_KEYS)
    for path, d in (("seed", cfg), ("workload.seed", wl)):
        if "seed" in d:
            check_int(path, d["seed"], error=ConfigError)
    if "program_file" in wl:
        path = _expect(wl["program_file"], "workload.program_file", str)
        if not os.path.exists(path):
            _fail("workload.program_file", f"no such file {path!r}")
    else:
        kind = wl.get("kind")
        if not isinstance(kind, str) or kind not in uisa._GENERATORS:
            _fail("workload.kind",
                  f"unknown generator {kind!r}; one of {sorted(uisa._GENERATORS)}")
        params = _expect(wl.get("params", {}), "workload.params")
        _check_keys(params, "workload.params",
                    inspect.signature(uisa._GENERATORS[kind]).parameters)
        if "seed" in params:
            _fail("workload.params.seed", 'give the seed as the config\'s "seed" '
                                          "(R3DLA_SEED overrides it)")
        for name, v in params.items():      # every generator param is an int
            check_int(f"workload.params.{name}", v, error=ConfigError)
    for name in SECTIONS:
        section(cfg, name)
    # CacheConfig takes mshr=0, a cache that tracks no fills (the tests'
    # serial reference profile); a run needs at least one miss-status register
    if "mshr" in cfg.get("cache", {}):
        check_int("cache.mshr", cfg["cache"]["mshr"], 1, ConfigError)
    eng = cfg.get("engine", "baseline")
    if eng not in ("baseline", "dla"):
        _fail("engine", f"expected 'baseline' or 'dla', got {eng!r}")
    try:
        engine.check_limits(**{key: cfg[key] for key in ("limit", "max_cycles")
                               if key in cfg})
        engine.check_version("version", cfg.get("version", 0))
        engine.check_mode(cfg.get("mode", "normal"), eng == "dla")
    except engine.EngineError as e:
        raise ConfigError(str(e)) from None
    if "skeleton" in cfg:
        sk = _expect(cfg["skeleton"], "skeleton")
        _check_keys(sk, "skeleton", ("path",))
        if "path" in sk:
            path = _expect(sk["path"], "skeleton.path", str)
            if not os.path.exists(path):
                _fail("skeleton.path", f"no such file {path!r}")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def workload_seed(cfg: dict) -> int | None:
    """The seed a generated workload is built with (``R3DLA_SEED`` wins);
    None for a program file."""
    wl = cfg["workload"]
    if "program_file" in wl:
        return None
    env_seed = os.environ.get("R3DLA_SEED")
    if env_seed is not None:
        try:
            return int(env_seed)
        except ValueError:
            _fail("R3DLA_SEED", f"not an integer: {env_seed!r}")
    return cfg.get("seed", wl.get("seed", 0))


def build_workload(cfg: dict) -> uisa.StaticProgram:
    wl = cfg["workload"]
    if "program_file" in wl:
        try:
            with open(wl["program_file"]) as f:
                return uisa.parse_program(f.read())
        except (OSError, ValueError, uisa.UisaError) as e:
            raise ConfigError(f"workload.program_file: {e}") from None
    try:
        return uisa.gen_workload(wl["kind"], wl.get("params"), seed=workload_seed(cfg))
    except uisa.UisaError as e:
        raise ConfigError(f"workload.params: {e}") from None


def run_many(cfgs: list[dict]) -> list[engine.RunStats]:
    """Run the configs in order; their ``RunStats`` in the same order.

    A DLA run without a skeleton file shares the skeleton of any earlier run
    in the call with the same program and cache config: each is built once.

    An ``EngineError`` or ``ExecError`` is raised again with the same type,
    its message prefixed by what reproduces the run: the config's name,
    the workload seed and ``config_hash(cfg)``.  The engine has already
    prefixed a main-thread ``ExecError`` with its cycle."""
    skeletons = {}      # (program hash, cache config) -> SkeletonSet
    stats = []
    for cfg in cfgs:
        try:
            stats.append(_run_config(cfg, skeletons))
        except (engine.EngineError, uisa.ExecError) as e:
            seed = workload_seed(cfg)
            at_seed = "" if seed is None else f", seed {seed}"
            raise type(e)(f"config {cfg.get('name', '<unnamed>')!r}{at_seed}, "
                          f"config_hash {config_hash(cfg)}: {e}") from e
    return stats


def run_config(cfg: dict) -> engine.RunStats:
    """Run one config: ``run_many([cfg])[0]``."""
    return run_many([cfg])[0]


def _run_config(cfg: dict, skeletons: dict) -> engine.RunStats:
    prog = build_workload(cfg)
    cache = section(cfg, "cache")
    common = dict(params=section(cfg, "core"), cache_config=cache)
    common.update((key, cfg[key]) for key in ("limit", "max_cycles") if key in cfg)
    if cfg.get("engine", "baseline") == "baseline":
        return engine.Engine(prog, mode=cfg.get("mode", "normal"), **common).run()
    sk_path = cfg.get("skeleton", {}).get("path")
    if sk_path is not None:
        try:
            skel = skeleton.load_skeleton(sk_path, prog)
        except (OSError, uisa.UisaError) as e:
            raise ConfigError(f"skeleton.path: {e}") from None
    else:
        key = (skeleton.program_hash(prog), cache)
        skel = skeletons.get(key)
        if skel is None:
            skel = skeletons[key] = skeleton.build(prog, cache_config=cache)
    return engine.Engine(prog, skel=skel, dla=section(cfg, "dla"),
                         features=section(cfg, "features"),
                         version=cfg.get("version", 0), **common).run()


def make_report(cfg: dict, stats: engine.RunStats) -> dict:
    return {"tool_version": __version__, "config_hash": config_hash(cfg),
            "config": cfg, "stats": stats.to_dict()}


def _write_json(doc, path: str | None) -> None:
    text = json.dumps(doc, indent=1, sort_keys=True)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# sim subcommands

def cmd_run(args) -> int:
    cfg = load_config(args.config)
    stats = run_config(cfg)
    _write_json(make_report(cfg, stats), args.out)
    return 0


def _summary_row(name: str, st: engine.RunStats) -> dict:
    return {"name": name, "cycles": st.cycles, "instructions": st.instructions,
            "ipc": round(st.ipc, 6),
            "mpki_l1": round(st.mem["L1.MT"]["mpki"], 4),
            "traffic_lines": st.mem["traffic_lines"],
            "mispredicts": st.mispredicts, "reboots": st.reboots}


def _write_csv(rows: list[dict], path: str | None) -> None:
    cols = list(rows[0].keys())
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.DictWriter(out, fieldnames=cols)
        w.writeheader()
        w.writerows(rows)
    finally:
        if path:
            out.close()


def cmd_compare(args) -> int:
    if len(args.configs) < 2:
        raise ConfigError("compare needs at least 2 configs")
    cfgs = [load_config(p) for p in args.configs]
    base_wl = json.dumps(cfgs[0]["workload"], sort_keys=True)
    for p, c in zip(args.configs[1:], cfgs[1:]):
        if json.dumps(c["workload"], sort_keys=True) != base_wl and not args.force:
            raise ConfigError(
                f"{p}: workload differs from {args.configs[0]} (use --force)")
    rows = [_summary_row(cfg.get("name", path), st)
            for path, cfg, st in zip(args.configs, cfgs, run_many(cfgs))]
    ref = rows[0]
    for row in rows:
        row["speedup_vs_first"] = round(ref["cycles"] / max(1, row["cycles"]), 4)
        row["traffic_vs_first"] = round(
            row["traffic_lines"] / max(1, ref["traffic_lines"]), 4)
    _write_csv(rows, args.out)
    return 0


def _set_path(cfg: dict, dotted: str, value):
    keys = dotted.split(".")
    d = cfg
    for k in keys[:-1]:
        d = d.setdefault(k, {})
    d[keys[-1]] = value


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = []
    for tok in args.values.split(","):
        try:
            values.append(json.loads(tok))
        except json.JSONDecodeError:
            values.append(tok)
    cfgs = []
    for v in values:
        c = json.loads(json.dumps(cfg))
        _set_path(c, args.param, v)
        cfgs.append(validate_config(c))
    _write_csv([_summary_row(f"{args.param}={v}", st)
                for v, st in zip(values, run_many(cfgs))], args.out)
    return 0


def _with_features(cfg: dict, feature_set: set[str]) -> dict:
    """A copy of ``cfg`` with exactly the features in ``feature_set`` on."""
    c = json.loads(json.dumps(cfg))
    feats = c.setdefault("features", {})
    for name in FEATURE_NAMES:
        on = name in feature_set
        feats[name] = ("dynamic" if on else "off") if name == "recycle" else on
    return c


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    if cfg.get("engine") != "dla":
        raise ConfigError("engine: ablate needs a dla config")
    every = set(FEATURE_NAMES)
    # none, all, then each feature alone and all but it
    sets = [set(), every] + [s for name in FEATURE_NAMES
                             for s in ({name}, every - {name})]
    none_cycles, all_cycles, *each = (
        st.cycles for st in run_many([_with_features(cfg, s) for s in sets]))
    rows = [{"feature": name,
             "speedup_first": round(none_cycles / max(1, alone), 4),
             "speedup_last": round(without / max(1, all_cycles), 4)}
            for name, alone, without in zip(FEATURE_NAMES, each[::2], each[1::2])]
    rows.append({"feature": "(all)",
                 "speedup_first": round(none_cycles / max(1, all_cycles), 4),
                 "speedup_last": round(none_cycles / max(1, all_cycles), 4)})
    _write_csv(rows, args.out)
    return 0


# ---------------------------------------------------------------------------
# skel / fetchq subcommands

def cmd_skel_build(args) -> int:
    cfg = load_config(args.config)
    prog = build_workload(cfg)
    skel = skeleton.build(prog, cache_config=section(cfg, "cache"))
    skeleton.save_skeleton(skel, prog, args.out)
    total = len(prog.instrs)
    for version, m in enumerate(skel.versions):
        print(f"v{version}: {len(m.bits)}/{total} static instrs, "
              f"{len(m.converted_branches)} converted branches")
    print(f"s_bits: {sorted(skel.s_bits)}")
    return 0


def _load_pair(path: str) -> tuple[fetchq.Distribution, fetchq.Distribution]:
    with open(path) as f:
        doc = json.load(f)
    return fetchq.harvest_distributions(doc)


def cmd_fetchq_analyze(args) -> int:
    demand, supply = _load_pair(args.pair)
    if args.sweep:
        try:
            lo, hi = (int(x) for x in args.sweep.split(":"))
        except ValueError:
            lo = hi = 0
        if not 1 <= lo <= hi:
            _fail("--sweep", "expected LO:HI integers with 1 <= LO <= HI, "
                             f"got {args.sweep!r}")
        rows = [{"capacity": n, "expected_bubbles": round(b, 6)}
                for n, b, _ in fetchq.capacity_sweep(demand, supply,
                                                     range(lo, hi + 1))]
        _write_csv(rows, args.out)
        return 0
    check_int("--capacity", args.capacity, 1, ConfigError)
    model = fetchq.QueueModel.solve(demand, supply, args.capacity)
    doc = {"capacity": args.capacity,
           "demand": demand.to_map(), "supply": supply.to_map(),
           "steady_state": [round(float(q), 9) for q in model.q_ss],
           "expected_bubbles": model.bubbles()}
    _write_json(doc, args.out)
    return 0


def cmd_fetchq_harvest(args) -> int:
    cfg = load_config(args.config)
    if cfg.get("engine", "baseline") != "baseline":
        raise ConfigError("engine: harvest uses baseline runs")
    keys = {"ideal_fetch": "demand_hist", "ideal_backend": "supply_hist"}
    stats = run_many([{**cfg, "mode": mode} for mode in keys])
    _write_json({key: getattr(st, key) for key, st in zip(keys.values(), stats)},
                args.out)
    return 0


# ---------------------------------------------------------------------------
# entry points

def _dispatch(parser: argparse.ArgumentParser, argv) -> int:
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def sim_main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="sim", description="timing experiments")
    sub = p.add_subparsers(required=True)

    r = sub.add_parser("run", help="run one config, emit a JSON report")
    r.add_argument("--config", required=True)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("compare", help="side-by-side CSV for several configs")
    c.add_argument("configs", nargs="+")
    c.add_argument("--out", default=None)
    c.add_argument("--force", action="store_true",
                   help="allow differing workloads")
    c.set_defaults(func=cmd_compare)

    s = sub.add_parser("sweep", help="vary one config field")
    s.add_argument("--config", required=True)
    s.add_argument("--param", required=True, help="dotted field path")
    s.add_argument("--values", required=True, help="comma-separated values")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sweep)

    a = sub.add_parser("ablate", help="per-feature first/last contributions")
    a.add_argument("--config", required=True)
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_ablate)

    return _dispatch(p, argv)


def skel_main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="skel", description="skeleton files")
    sub = p.add_subparsers(required=True)
    b = sub.add_parser("build", help="profile a workload and save its skeleton")
    b.add_argument("--config", required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_skel_build)
    return _dispatch(p, argv)


def fetchq_main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="fetchq", description="fetch buffer model")
    sub = p.add_subparsers(required=True)

    a = sub.add_parser("analyze", help="solve the queue model for a (D,S) pair")
    a.add_argument("--pair", required=True,
                   help="JSON file with demand_hist/supply_hist")
    a.add_argument("--capacity", type=int, default=32)
    a.add_argument("--sweep", default=None, help="LO:HI capacity sweep -> CSV")
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_fetchq_analyze)

    h = sub.add_parser("harvest", help="measure demand/supply from a workload")
    h.add_argument("--config", required=True)
    h.add_argument("--out", default=None)
    h.set_defaults(func=cmd_fetchq_harvest)

    return _dispatch(p, argv)


if __name__ == "__main__":
    sys.exit(sim_main())
