"""Command line tests: configs, reports, exit codes, determinism."""

import contextlib
import copy
import csv
import inspect
import io
import json
import os
import re
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from r3dla import cli, engine, skeleton, uisa


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def base_cfg(**kw):
    cfg = {"workload": {"kind": "strided_loop",
                        "params": {"stride": 64, "iters": 500}}}
    cfg.update(kw)
    return cfg


def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


# -- sim run ------------------------------------------------------------------

def test_run_emits_report(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", base_cfg())
    out = tmp_path / "report.json"
    assert cli.sim_main(["run", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["tool_version"]
    assert len(doc["config_hash"]) == 16
    for key in ("cycles", "instructions", "ipc", "mem"):
        assert key in doc["stats"]


def test_run_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", base_cfg())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.sim_main(["run", "--config", cfg, "--out", str(a)])
    cli.sim_main(["run", "--config", cfg, "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.sim_main(["run", "--config", str(p)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    path = tmp_path / "no_such.json"
    assert cli.sim_main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


def test_unknown_field_named_in_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(tubro=True))
    assert cli.sim_main(["run", "--config", cfg]) == 2
    assert "tubro" in capsys.readouterr().err


def test_bad_nested_field_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {"workload": {"kind": "no_such_generator"}})
    assert cli.sim_main(["run", "--config", cfg]) == 2
    assert "workload.kind" in capsys.readouterr().err


def test_runtime_error_names_the_run(tmp_path, capsys, monkeypatch):
    """A run that raises exits 1 with what reproduces it: name, seed,
    config hash, and the cycle the engine stopped at."""
    doc = {"name": "slow-dram", "seed": 5,
           "workload": {"kind": "pointer_chase",
                        "params": {"length": 200, "rounds": 1}},
           "cache": {"dram_latency": 300_000}}
    cfg = write_cfg(tmp_path, "c.json", doc)
    monkeypatch.delenv("R3DLA_SEED", raising=False)
    assert cli.sim_main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: config 'slow-dram', seed 5, config_hash "
                   f"{cli.config_hash(doc)}: no commit progress for 200000 "
                   f"cycles at cycle 200004\n")
    monkeypatch.setenv("R3DLA_SEED", "7")      # the seed the run really used
    with pytest.raises(engine.EngineError, match=r"'slow-dram', seed 7, "):
        cli.run_config(doc)


def test_mt_fault_names_the_run_and_the_cycle(tmp_path, capsys, monkeypatch):
    """An MT load from a negative address exits 1 naming the config, seed,
    config hash, the cycle the fault surfaced in and the instruction."""
    prog = uisa.parse_program("""
        ADDI r1, r0, 64
        ADDI r2, r0, 6
    loop:
        LOAD r3, 0(r1)
        ADDI r1, r1, -16
        ADDI r2, r2, -1
        BNEZ r2, loop
        HALT
    """)
    # the generators refuse such a program, so one stands in for them
    monkeypatch.setattr(uisa, "gen_workload", lambda kind, params, seed: prog)
    monkeypatch.delenv("R3DLA_SEED", raising=False)
    doc = {"name": "bad-load", "seed": 5, "workload": {"kind": "strided_loop"}}
    cfg = write_cfg(tmp_path, "c.json", doc)
    assert cli.sim_main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    # the sixth LOAD (seq 22) reads 64 - 5 * 16
    m = re.fullmatch(
        rf"error: config 'bad-load', seed 5, config_hash {cli.config_hash(doc)}: "
        r"cycle (\d+): seq 22: load from negative address -16\n", err)
    assert m and int(m[1]) > 0, err


def test_bad_version_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(version=9))
    assert cli.sim_main(["run", "--config", cfg]) == 2


def test_bad_recycle_mode_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    base_cfg(engine="dla", features={"recycle": "banana"}))
    assert cli.sim_main(["run", "--config", cfg]) == 2
    assert "features.recycle" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["ideal_fetch", "ideal_backend"])
def test_dla_config_with_idealized_mode_rejected(tmp_path, capsys, mode):
    # the engine runs the idealized modes only without a look-ahead thread
    cfg = write_cfg(tmp_path, "c.json", base_cfg(engine="dla", mode=mode))
    assert cli.sim_main(["run", "--config", cfg]) == 2
    assert "mode: " in capsys.readouterr().err


@pytest.mark.parametrize("max_cycles", ["abc", 0, -5, 1.5, True])
def test_bad_max_cycles_rejected(tmp_path, capsys, max_cycles):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(max_cycles=max_cycles))
    assert cli.sim_main(["run", "--config", cfg]) == 2
    assert "max_cycles" in capsys.readouterr().err


@pytest.mark.parametrize("section, field, value", [
    ("core", "fetch_width", 0),
    ("core", "decode_width", "4"),
    ("core", "window_size", True),
    ("core", "mispredict_penalty", -1),
    ("core", "btb_penalty", 2.5),
    ("dla", "fq_capacity", -1),
    ("dla", "boq_capacity", 0),
    ("dla", "reboot_cycles", -3),
    ("cache", "mshr", 0),
    ("cache", "dram_latency", None),
    ("cache.l1", "hit_latency", -1),
    ("cache.l2", "line", 0),
    # a level's size that is no power-of-two multiple of line*assoc
    ("cache", "l1", {"size": 1000, "assoc": 4, "line": 64, "hit_latency": 3}),
    # a level without line and hit_latency
    ("cache", "l1", {"size": 32768, "assoc": 4}),
])
def test_bad_numeric_field_rejected(tmp_path, capsys, section, field, value):
    cfg = base_cfg(engine="dla")
    d = cfg
    for part in section.split("."):
        d = d.setdefault(part, {})
    d[field] = value
    assert cli.sim_main(["run", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 2
    assert f"{section}.{field}" in capsys.readouterr().err


def test_bad_static_version_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "workload": {"kind": "mixed_phases"}, "engine": "dla",
        "features": {"recycle": "static", "static_versions": {"7": 9}}})
    assert cli.sim_main(["run", "--config", cfg]) == 2
    assert "features.static_versions" in capsys.readouterr().err


@pytest.mark.parametrize("field, extra", [
    ("version", {"version": True}),
    ("features.static_versions.6",
     {"features": {"recycle": "static", "static_versions": {"6": True}}}),
    ("features.t1", {"features": {"t1": "false"}}),
    ("features.value_reuse", {"features": {"value_reuse": 1}}),
    ("features.fetch_buffer", {"features": {"fetch_buffer": "true"}}),
    ("features.boq_prefetch_release", {"features": {"boq_prefetch_release": None}}),
    # a param the generator does not take, and one it rejects
    ("workload.params.bogus",
     {"workload": {"kind": "strided_loop", "params": {"bogus": 1}}}),
    ("workload.params",
     {"workload": {"kind": "strided_loop", "params": {"iters": -5}}}),
    # unknown keys in the workload block and at the top of the cache block
    ("workload.parms",
     {"workload": {"kind": "strided_loop", "parms": {"iters": 5}}}),
    ("cache.bogus", {"cache": {"bogus": 1}}),
    ("skeleton.bogus", {"skeleton": {"bogus": 1}}),
    ("core.bogus", {"core": {"bogus": 1}}),
    # a param of the wrong type names itself
    ("workload.params.iters",
     {"workload": {"kind": "strided_loop", "params": {"iters": "5"}}}),
    ("workload.params.iters",
     {"workload": {"kind": "strided_loop", "params": {"iters": 5.5}}}),
    ("workload.params.iters",
     {"workload": {"kind": "strided_loop", "params": {"iters": True}}}),
    ("seed", {"seed": "5"}),
    # a param that would make the program load from a negative address
    ("workload.params",
     {"workload": {"kind": "strided_loop", "params": {"base": -64}}}),
    # a chase with no round would run until the limit
    ("workload.params",
     {"workload": {"kind": "pointer_chase", "params": {"rounds": 0}}}),
    # a name lands in the report and in CSV rows
    ("name", {"name": ["x", 1]}),
    # a skeleton is built whenever no path is given; there is no switch
    ("skeleton.auto: unknown field", {"skeleton": {"auto": False}}),
    # a file the config names that is not there
    ("workload.program_file: no such file",
     {"workload": {"program_file": "no-such-dir/prog.s"}}),
    ("skeleton.path: no such file", {"skeleton": {"path": "no-such-dir/skel.json"}}),
    # the config's "seed" is the one seed, not a second one in the workload
    ('workload.seed: give the seed as the config\'s "seed"',
     {"workload": {"kind": "strided_loop", "seed": 3}}),
])
def test_wrongly_typed_field_rejected(tmp_path, capsys, field, extra):
    # a bool is no version, and an on/off feature is JSON true or false
    cfg = write_cfg(tmp_path, "c.json", base_cfg(engine="dla", **extra))
    assert cli.sim_main(["run", "--config", cfg]) == 2
    assert field in capsys.readouterr().err


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    cfg = {"workload": {"kind": "branchy", "params": {"iters": 50}}, "seed": 1}
    monkeypatch.delenv("R3DLA_SEED", raising=False)
    p1 = cli.build_workload(cfg)
    monkeypatch.setenv("R3DLA_SEED", "2")
    p2 = cli.build_workload(cfg)
    assert p1 != p2
    # a seed that is no integer is a config error that names the variable
    monkeypatch.setenv("R3DLA_SEED", "abc")
    assert cli.sim_main(["run", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 2
    assert "R3DLA_SEED" in capsys.readouterr().err


def test_seed_is_not_a_workload_param(tmp_path, capsys, monkeypatch):
    # the config's "seed" is the one seed, and R3DLA_SEED overrides it
    cfg = {"workload": {"kind": "branchy", "params": {"iters": 50, "seed": 3}}}
    monkeypatch.setenv("R3DLA_SEED", "5")
    assert cli.sim_main(["run", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: workload.params.seed: ")
    assert '"seed"' in err and "R3DLA_SEED" in err


def test_every_generator_param_is_an_int():
    # validate_config checks every workload param as an integer
    for gen in uisa._GENERATORS.values():
        for p in inspect.signature(gen).parameters.values():
            assert p.annotation == "int", (gen.__name__, p.name)


# -- config mutations: every bad config exits 2 and names its path --------------

SMALL_CONFIGS = [
    {"name": "stride-dla", "seed": 3, "engine": "dla", "version": 1,
     "limit": 400, "max_cycles": 100_000,
     "workload": {"kind": "strided_loop", "params": {"stride": 8, "iters": 60}},
     "features": {"t1": True, "value_reuse": False, "recycle": "dynamic"},
     "core": {"window_size": 32, "fetch_width": 2},
     "dla": {"boq_capacity": 64, "reboot_cycles": 8},
     "cache": {"l1": {"size": 4096, "assoc": 2, "line": 64, "hit_latency": 2},
               "mshr": 4, "dram_latency": 50}},
    {"workload": {"kind": "pointer_chase",
                  "params": {"length": 20, "payload": 1, "filler": 2}},
     "limit": 300},
    {"workload": {"kind": "branchy", "params": {"iters": 20, "streams": 1}},
     "mode": "ideal_fetch", "limit": 300},
    {"engine": "dla", "limit": 300,
     "workload": {"kind": "mixed_phases",
                  "params": {"phase_iters": 20, "outer": 2, "stride": 64}},
     "features": {"recycle": "static", "static_versions": {"7": 2}}},
]
WRONG_TYPES = ["5", 5, 1.5, True, None, [1], {"a": 1}]


def _paths(d, prefix=()):
    """Every key path in a nested config, parents before children."""
    for k, v in d.items():
        yield (*prefix, k)
        if isinstance(v, dict):
            yield from _paths(v, (*prefix, k))


def _get(cfg, path):
    for k in path:
        cfg = cfg[k]
    return cfg


@st.composite
def mutated_configs(draw):
    """(config, dotted path): a small valid config with one key dropped,
    given a value of another type or out of range, or one unknown key
    added (the path is then the new key's)."""
    cfg = copy.deepcopy(draw(st.sampled_from(SMALL_CONFIGS)))
    how = draw(st.sampled_from(("drop", "type", "range", "unknown")))
    if how == "unknown":
        parents = [()] + [p for p in _paths(cfg)
                          if isinstance(_get(cfg, p), dict)]
        path = (*draw(st.sampled_from(parents)), "bogus")
        value = 1
    else:
        path = draw(st.sampled_from(list(_paths(cfg))))
        old = _get(cfg, path)
        if how == "type":
            value = draw(st.sampled_from(
                [v for v in WRONG_TYPES if type(v) is not type(old)]))
        elif how == "range":
            value = draw(st.sampled_from([-1, 0, -10**6] if type(old) is int
                                         else ["bogus", -1]))
    parent = _get(cfg, path[:-1])
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg, ".".join(path)


def _sim_run(cfg, tmp):
    path = os.path.join(tmp, "c.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.sim_main(["run", "--config", path,
                             "--out", os.path.join(tmp, "r.json")])
    return code, err.getvalue()


def test_small_configs_run():
    with tempfile.TemporaryDirectory() as tmp:
        for i, cfg in enumerate(SMALL_CONFIGS):
            assert _sim_run(cfg, tmp) == (0, ""), i


@settings(max_examples=120, deadline=None)
@given(mutated_configs())
def test_mutated_config_exits_0_or_names_its_path(case):
    """A config with one bad field is run or refused: exit 0, or exit 2 with
    the mutated path (or a block that holds it) named first on stderr."""
    cfg, mutated = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ):
        os.environ.pop("R3DLA_SEED", None)
        code, err = _sim_run(cfg, tmp)
    assert code in (0, 2), err
    if code == 2:
        m = re.fullmatch(r"config error: ([\w.]+): [^\n]+\n", err)
        assert m, err
        named = m.group(1)
        assert mutated == named or mutated.startswith(named + "."), err


# -- sim compare ---------------------------------------------------------------

def test_compare_identical_configs(tmp_path):
    a = write_cfg(tmp_path, "a.json", base_cfg(name="one"))
    b = write_cfg(tmp_path, "b.json", base_cfg(name="two"))
    out = tmp_path / "cmp.csv"
    assert cli.sim_main(["compare", a, b, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert float(rows[1]["speedup_vs_first"]) == 1.0
    assert float(rows[1]["traffic_vs_first"]) == 1.0


def test_compare_three_way(tmp_path):
    paths = [write_cfg(tmp_path, f"{i}.json", base_cfg()) for i in range(3)]
    out = tmp_path / "cmp.csv"
    assert cli.sim_main(["compare", *paths, "--out", str(out)]) == 0
    assert len(read_rows(out)) == 3


def test_compare_refuses_mismatched_workloads(tmp_path, capsys):
    a = write_cfg(tmp_path, "a.json", base_cfg())
    b = write_cfg(tmp_path, "b.json",
                  {"workload": {"kind": "branchy", "params": {"iters": 100}}})
    assert cli.sim_main(["compare", a, b]) == 2
    assert "--force" in capsys.readouterr().err
    out = tmp_path / "cmp.csv"
    assert cli.sim_main(["compare", a, b, "--force", "--out", str(out)]) == 0


def test_compare_needs_two(tmp_path):
    a = write_cfg(tmp_path, "a.json", base_cfg())
    assert cli.sim_main(["compare", a]) == 2


def test_compare_dla_vs_baseline_speedup(tmp_path):
    wl = {"kind": "pointer_chase",
          "params": {"length": 300, "rounds": 5, "payload": 1, "filler": 24}}
    a = write_cfg(tmp_path, "a.json", {"workload": wl})
    b = write_cfg(tmp_path, "b.json", {"workload": wl, "engine": "dla"})
    out = tmp_path / "cmp.csv"
    assert cli.sim_main(["compare", a, b, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert float(rows[1]["speedup_vs_first"]) > 1.0


# -- sim sweep / ablate ------------------------------------------------------

def test_sweep_varies_param(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", base_cfg())
    out = tmp_path / "sweep.csv"
    rc = cli.sim_main(["sweep", "--config", cfg, "--param",
                       "core.fetch_buffer", "--values", "8,16,32",
                       "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert [r["name"] for r in rows] == [
        "core.fetch_buffer=8", "core.fetch_buffer=16", "core.fetch_buffer=32"]


def test_sweep_passes_non_json_values_as_strings(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(engine="dla"))
    out = tmp_path / "sweep.csv"
    assert cli.sim_main(["sweep", "--config", cfg, "--param",
                         "features.recycle", "--values", "off,dynamic",
                         "--out", str(out)]) == 0
    assert [r["name"] for r in read_rows(out)] == [
        "features.recycle=off", "features.recycle=dynamic"]


def test_ablate_requires_dla(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", base_cfg())
    assert cli.sim_main(["ablate", "--config", cfg]) == 2


def test_ablate_emits_feature_rows(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(engine="dla"))
    out = tmp_path / "abl.csv"
    assert cli.sim_main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [r["feature"] for r in rows] == [
        "t1", "value_reuse", "fetch_buffer", "recycle", "(all)"]
    for r in rows:
        assert float(r["speedup_first"]) > 0
        assert float(r["speedup_last"]) > 0


def count_builds(monkeypatch):
    """Patch ``skeleton.build`` to note the program hash of each call."""
    calls = []
    real = skeleton.build

    def counted(program, *args, **kw):
        calls.append(skeleton.program_hash(program))
        return real(program, *args, **kw)
    monkeypatch.setattr(skeleton, "build", counted)
    return calls


def test_ablate_builds_the_skeleton_once(tmp_path, monkeypatch):
    """Ten runs, one build; ``R3DLA_SEED`` reaches every run of the call."""
    monkeypatch.delenv("R3DLA_SEED", raising=False)
    cfg = write_cfg(tmp_path, "c.json",
                    {"workload": {"kind": "branchy", "params": {"iters": 200}},
                     "engine": "dla", "seed": 1})
    builds = count_builds(monkeypatch)
    assert cli.sim_main(["ablate", "--config", cfg]) == 0
    assert len(builds) == 1
    monkeypatch.setenv("R3DLA_SEED", "2")
    assert cli.sim_main(["ablate", "--config", cfg]) == 0
    assert len(builds) == 2
    assert builds[1] != builds[0]


SMALL_DLA = base_cfg(engine="dla", workload={"kind": "branchy",
                                             "params": {"iters": 200}}, seed=1)


@pytest.mark.parametrize("command, main, cfgs, args", [
    # the second config shares the first's skeleton; the third's cache
    # differs, so it needs one of its own
    ("compare", cli.sim_main,
     [SMALL_DLA, SMALL_DLA, {**SMALL_DLA, "cache": {"dram_latency": 100}}], []),
    ("sweep", cli.sim_main, [SMALL_DLA],
     ["--param", "core.fetch_buffer", "--values", "8,16,32"]),
    ("ablate", cli.sim_main, [SMALL_DLA], []),
    ("harvest", cli.fetchq_main, [base_cfg()], []),
], ids=["compare", "sweep", "ablate", "harvest"])
def test_multi_run_command_matches_separate_runs(tmp_path, monkeypatch,
                                                 command, main, cfgs, args):
    """A multi-run command writes what runs made one ``run_config`` at a
    time write, and builds each distinct (program, cache) skeleton once."""
    monkeypatch.delenv("R3DLA_SEED", raising=False)
    paths = [write_cfg(tmp_path, f"{i}.json", c) for i, c in enumerate(cfgs)]
    argv = [command, *paths] if command == "compare" else [command, "--config", *paths]
    builds = count_builds(monkeypatch)
    real = cli.run_many
    calls = []

    def recorded(run_cfgs):
        calls.append(run_cfgs)
        return real(run_cfgs)
    monkeypatch.setattr(cli, "run_many", recorded)
    shared = tmp_path / "shared.out"
    assert main([*argv, *args, "--out", str(shared)]) == 0
    assert len(calls) == 1
    run_cfgs = calls[0]
    dla = [c for c in run_cfgs if c.get("engine") == "dla"]
    assert len(builds) == len({json.dumps([c["workload"], c.get("cache")])
                               for c in dla})

    # each config on its own, as run_config runs it
    monkeypatch.setattr(cli, "run_many",
                        lambda run_cfgs: [real([c])[0] for c in run_cfgs])
    own = tmp_path / "own.out"
    del builds[:]
    assert main([*argv, *args, "--out", str(own)]) == 0
    assert len(builds) == len(dla)
    assert shared.read_text() == own.read_text()


def test_sweep_refuses_a_bad_value_before_any_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_many", None)      # a run would raise here
    cfg = write_cfg(tmp_path, "c.json", base_cfg())
    assert cli.sim_main(["sweep", "--config", cfg, "--param",
                         "core.fetch_buffer", "--values", "8,0"]) == 2
    assert capsys.readouterr().err.startswith("config error: core.fetch_buffer: ")


@pytest.mark.parametrize("param, scalar", [
    ("seed.x", "seed"), ("name.x", "name"),
    ("workload.params.iters.x", "workload.params.iters"),
    ("workload.params.iters.x.y", "workload.params.iters")])
def test_sweep_param_through_a_scalar_exits_2(tmp_path, capsys, param, scalar):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(seed=3, name="n"))
    assert cli.sim_main(["sweep", "--config", cfg, "--param", param,
                         "--values", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --param: {scalar} is not an object\n"


def test_runtime_error_in_a_later_run_names_that_run(tmp_path, capsys,
                                                     monkeypatch):
    wl = {"kind": "pointer_chase", "params": {"length": 200, "rounds": 1}}
    slow = {"name": "slow-dram", "seed": 5, "workload": wl,
            "cache": {"dram_latency": 300_000}}
    a = write_cfg(tmp_path, "a.json", {"name": "fast", "seed": 5, "workload": wl})
    b = write_cfg(tmp_path, "b.json", slow)
    monkeypatch.delenv("R3DLA_SEED", raising=False)
    assert cli.sim_main(["compare", a, b]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: config 'slow-dram', seed 5, config_hash "
        f"{cli.config_hash(slow)}: no commit progress ")


def test_sweep_and_compare_share_skeletons(tmp_path, monkeypatch):
    builds = count_builds(monkeypatch)
    cfg = write_cfg(tmp_path, "c.json", base_cfg(engine="dla"))
    assert cli.sim_main(["sweep", "--config", cfg, "--param",
                         "core.fetch_buffer", "--values", "8,16,32"]) == 0
    assert len(builds) == 1
    # a cache that differs needs a skeleton of its own
    other = write_cfg(tmp_path, "d.json",
                      base_cfg(engine="dla", cache={"dram_latency": 100}))
    assert cli.sim_main(["compare", cfg, cfg, other]) == 0
    assert len(builds) == 3


# -- skel / fetchq ---------------------------------------------------------------

def test_skel_build_round_trips(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", base_cfg())
    out = tmp_path / "skel.json"
    assert cli.skel_main(["build", "--config", cfg, "--out", str(out)]) == 0
    assert "v0:" in capsys.readouterr().out
    from r3dla import skeleton
    skel = skeleton.load_skeleton(out, cli.build_workload(base_cfg()))
    assert len(skel.versions) == 6


def test_run_with_prebuilt_skeleton(tmp_path):
    cfg_d = base_cfg()
    cfg_p = write_cfg(tmp_path, "c.json", cfg_d)
    skel_p = tmp_path / "skel.json"
    cli.skel_main(["build", "--config", cfg_p, "--out", str(skel_p)])
    cfg2 = write_cfg(tmp_path, "d.json",
                     base_cfg(engine="dla", skeleton={"path": str(skel_p)}))
    out = tmp_path / "rep.json"
    assert cli.sim_main(["run", "--config", cfg2, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["stats"]["lt_walked"] > 0


def count_profiles(monkeypatch):
    calls = []
    real = skeleton.profile

    def counted(*args, **kw):
        calls.append(args[0])
        return real(*args, **kw)
    monkeypatch.setattr(skeleton, "profile", counted)
    return calls


def test_dla_run_profiles_once(monkeypatch):
    calls = count_profiles(monkeypatch)
    cli.run_config(base_cfg(engine="dla"))
    assert len(calls) == 1


def test_run_from_skeleton_file_does_not_profile(tmp_path, monkeypatch):
    prog = cli.build_workload(base_cfg())
    path = tmp_path / "skel.json"
    skeleton.save_skeleton(skeleton.build(prog), prog, path)
    calls = count_profiles(monkeypatch)
    cli.run_config(base_cfg(engine="dla", skeleton={"path": str(path)}))
    assert calls == []


@pytest.mark.parametrize("command", ["sim run", "skel build"])
@pytest.mark.parametrize("text, error", [
    ("ADDI r1, r0, 1\nFOO r1\nHALT\n", "line 2: unknown mnemonic 'FOO'"),
    ("ADDI r1, r0, 1\nJMP 0\n", "program must have exactly one reachable HALT"),
    ("# no instruction\n", "line 0: empty program"),
])
def test_bad_program_file_exits_2(tmp_path, capsys, command, text, error):
    """A program file that does not assemble or validate is a config error
    that names ``workload.program_file``."""
    prog = tmp_path / "prog.s"
    prog.write_text(text)
    cfg = write_cfg(tmp_path, "c.json", {"workload": {"program_file": str(prog)}})
    if command == "sim run":
        code = cli.sim_main(["run", "--config", cfg])
    else:
        code = cli.skel_main(["build", "--config", cfg,
                              "--out", str(tmp_path / "skel.json")])
    assert code == 2
    assert capsys.readouterr().err == \
        f"config error: workload.program_file: {error}\n"


def _rewrite_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _save_other_program(path):
    other = uisa.gen_branchy(iters=20)
    skeleton.save_skeleton(skeleton.build(other), other, path)


@pytest.mark.parametrize("spoil, error", [
    (lambda p: p.write_text("not json"),
     "skeleton file is not JSON: Expecting value: line 1 column 1 (char 0)"),
    (lambda p: p.write_text("[1, 2]"), "skeleton file is malformed: "),
    (lambda p: _rewrite_json(p, lambda d: d.pop("versions")),
     "skeleton file has no versions; rebuild it with skel build"),
    (lambda p: _rewrite_json(p, lambda d: d.update(versions=["0xzz"] * 6)),
     "skeleton file is malformed: "),
    (lambda p: _rewrite_json(p, lambda d: d.update(versions=["0x1"] * 5)),
     "a skeleton has 6 versions, got 5"),
    (_save_other_program, "skeleton file does not match program"),
])
def test_bad_skeleton_file_exits_2(tmp_path, capsys, spoil, error):
    """A skeleton file that is not JSON, lacks or spoils a field, or was
    built for another program is a config error that names
    ``skeleton.path``."""
    prog = cli.build_workload(base_cfg())
    path = tmp_path / "skel.json"
    skeleton.save_skeleton(skeleton.build(prog), prog, path)
    spoil(path)
    cfg = write_cfg(tmp_path, "c.json",
                    base_cfg(engine="dla", skeleton={"path": str(path)}))
    assert cli.sim_main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: skeleton.path: {error}")


def test_fetchq_harvest_then_analyze(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", base_cfg())
    pair = tmp_path / "pair.json"
    assert cli.fetchq_main(["harvest", "--config", cfg,
                            "--out", str(pair)]) == 0
    doc = json.loads(pair.read_text())
    assert doc["demand_hist"] and doc["supply_hist"]
    out = tmp_path / "model.json"
    assert cli.fetchq_main(["analyze", "--pair", str(pair),
                            "--capacity", "16", "--out", str(out)]) == 0
    model = json.loads(out.read_text())
    assert len(model["steady_state"]) == 17
    assert abs(sum(model["steady_state"]) - 1.0) < 1e-6


def test_fetchq_sweep_csv(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", base_cfg())
    pair = tmp_path / "pair.json"
    cli.fetchq_main(["harvest", "--config", cfg, "--out", str(pair)])
    out = tmp_path / "sweep.csv"
    assert cli.fetchq_main(["analyze", "--pair", str(pair),
                            "--sweep", "4:12", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 9
    bubbles = [float(r["expected_bubbles"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(bubbles, bubbles[1:]))


@pytest.mark.parametrize("args, field", [
    (["--sweep", "64:4"], "--sweep"),
    (["--sweep", "4"], "--sweep"),
    (["--sweep", "a:b"], "--sweep"),
    (["--sweep", "0:4"], "--sweep"),
    (["--capacity", "0"], "--capacity"),
    (["--capacity", "-3"], "--capacity"),
])
def test_fetchq_analyze_bad_args_exit_2(tmp_path, capsys, args, field):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"demand_hist": {"0": 1, "2": 1},
                                "supply_hist": {"4": 1}}))
    assert cli.fetchq_main(["analyze", "--pair", str(pair), *args]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("text, error", [
    (None, "No such file"),
    ("{not json", "Expecting property name"),
    ('{"demand_hist": {"0": 1}}', "report has no supply_hist"),
    ("[1, 2]", "expected dict, got list"),
], ids=["missing", "not-json", "no-supply-hist", "not-an-object"])
def test_fetchq_analyze_bad_pair_exits_2(tmp_path, capsys, text, error):
    pair = tmp_path / "pair.json"
    if text is not None:
        pair.write_text(text)
    assert cli.fetchq_main(["analyze", "--pair", str(pair)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --pair: ") and error in err


def test_harvest_rejects_dla_config(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(engine="dla"))
    assert cli.fetchq_main(["harvest", "--config", cfg]) == 2


def test_config_hash_stable():
    a = cli.config_hash({"b": 1, "a": 2})
    b = cli.config_hash({"a": 2, "b": 1})
    assert a == b
    assert a != cli.config_hash({"a": 2, "b": 3})
