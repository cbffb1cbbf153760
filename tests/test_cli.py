"""Command line tests: configs, reports, exit codes, determinism."""

import csv
import json

import pytest

from r3dla import cli, engine, skeleton


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
])
def test_wrongly_typed_field_rejected(tmp_path, capsys, field, extra):
    # a bool is no version, and an on/off feature is JSON true or false
    cfg = write_cfg(tmp_path, "c.json", base_cfg(engine="dla", **extra))
    assert cli.sim_main(["run", "--config", cfg]) == 2
    assert field in capsys.readouterr().err


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = {"workload": {"kind": "branchy", "params": {"iters": 50}}, "seed": 1}
    monkeypatch.delenv("R3DLA_SEED", raising=False)
    p1 = cli.build_workload(cfg)
    monkeypatch.setenv("R3DLA_SEED", "2")
    p2 = cli.build_workload(cfg)
    assert p1 != p2


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
    monkeypatch.delenv("R3DLA_SEED", raising=False)
    cfg = write_cfg(tmp_path, "c.json",
                    {"workload": {"kind": "branchy", "params": {"iters": 200}},
                     "engine": "dla", "seed": 1})
    builds = count_builds(monkeypatch)
    shared, own = tmp_path / "shared.csv", tmp_path / "own.csv"
    assert cli.sim_main(["ablate", "--config", cfg, "--out", str(shared)]) == 0
    assert len(builds) == 1
    # the same rows as runs that each build their own skeleton
    real = cli.run_config
    monkeypatch.setattr(cli, "run_config", lambda c, skeletons=None: real(c))
    assert cli.sim_main(["ablate", "--config", cfg, "--out", str(own)]) == 0
    assert len(builds) == 11
    assert shared.read_text() == own.read_text()
    monkeypatch.setattr(cli, "run_config", real)
    monkeypatch.setenv("R3DLA_SEED", "2")
    assert cli.sim_main(["ablate", "--config", cfg]) == 0
    assert len(builds) == 12
    assert builds[-1] != builds[0]


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


def test_harvest_rejects_dla_config(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(engine="dla"))
    assert cli.fetchq_main(["harvest", "--config", cfg]) == 2


def test_config_hash_stable():
    a = cli.config_hash({"b": 1, "a": 2})
    b = cli.config_hash({"a": 2, "b": 1})
    assert a == b
    assert a != cli.config_hash({"a": 2, "b": 3})
