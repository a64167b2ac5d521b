"""The config pass: its typed fields are the only way a run reads a config."""

import ast
import json
import os
import pickle

import pytest

import mcflow
from mcflow.config import (LINE_SCENARIOS, MAX_RECORDS, MAX_SNAPSHOT_VALUES,
                           ConfigError, ScenarioConfig,
                           build_field_from_config)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
PACKAGE_DIR = os.path.dirname(os.path.abspath(mcflow.__file__))


def shipped_configs():
    return sorted(name for name in os.listdir(CONFIG_DIR)
                  if name.endswith(".json"))


def load(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# structure: no module reads the JSON behind the pass
# ---------------------------------------------------------------------------

def test_no_module_imports_the_private_readers():
    found = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py") or name == "config.py":
            continue
        with open(os.path.join(PACKAGE_DIR, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module, node.level) in (("config", 1),
                                                      ("mcflow.config", 0))):
                found += [f"{name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert not found


def test_a_validated_config_keeps_no_raw_dict():
    cfg = ScenarioConfig.from_dict(load("no_lift_off.json"))
    assert not hasattr(cfg, "raw")


@pytest.mark.parametrize("name", shipped_configs())
def test_shipped_configs_pickle_with_their_profiles(name):
    cfg = ScenarioConfig.from_dict(load(name))
    copy = pickle.loads(pickle.dumps(cfg))
    assert repr(copy) == repr(cfg)
    if cfg.initial_data is None:
        return
    kind = "line" if cfg.scenario in LINE_SCENARIOS else "radial"
    outer = max(cfg.sweep_values) ** 2 if cfg.sweep_values else None
    field = build_field_from_config(cfg, kind, outer=outer)
    again = build_field_from_config(copy, kind, outer=outer)
    assert field.nodes.size > 2
    assert again.values.tobytes() == field.values.tobytes()


def test_config_errors_pickle_with_their_field_path():
    err = pickle.loads(pickle.dumps(ConfigError("solver.h", "must be > 0")))
    assert err.path == "solver.h" and str(err) == "solver.h: must be > 0"


# ---------------------------------------------------------------------------
# unknown keys: every key the pass does not read is an error
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, section, key, path", [
    ("no_lift_off.json", "solver", "record_evry", "solver.record_evry"),
    ("no_lift_off.json", "solver", "clamp_policy", "solver.clamp_policy"),
    ("no_lift_off.json", None, "comment", "comment"),
    # read by other scenarios or families, not by this one
    ("dirichlet_sweep.json", "domain", "hi", "domain.hi"),
    ("dirichlet_sweep.json", "initial_data", "sigma", "initial_data.sigma"),
    ("translating_verify.json", None, "solver", "solver"),
    ("decay_study.json", None, "R", "R"),
])
def test_an_unread_key_is_a_config_error_naming_it(name, section, key,
                                                   path):
    raw = load(name)
    (raw if section is None else raw[section])[key] = 1.0
    with pytest.raises(ConfigError, match="unknown key") as info:
        ScenarioConfig.from_dict(raw)
    assert info.value.path == path


def test_every_unread_key_is_named():
    raw = load("no_lift_off.json")
    raw["solver"]["record_evry"] = 0.1
    raw["metric"]["colour"] = "red"
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_dict(raw)
    assert info.value.path == "metric.colour"
    assert "(nor solver.record_evry)" in str(info.value)


# ---------------------------------------------------------------------------
# the snapshot caps, checked in the pass (these configs are never run)
# ---------------------------------------------------------------------------

def line_config(lo, hi, h, t_end, snapshot_every, record_every):
    return {
        "scenario": "flow_1d",
        "metric": {"family": "euclidean", "n": 1},
        "domain": {"lo": lo, "hi": hi},
        "initial_data": {"family": "gaussian", "height": 0.4, "sigma": 1.0},
        "solver": {"h": h, "t_end": t_end, "snapshot_every": snapshot_every,
                   "record_every": record_every},
    }


def snapshot_error(cfg):
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(cfg)
    assert exc.value.path == "solver.snapshot_every"
    return str(exc.value)


def test_a_million_and_a_quarter_snapshots_are_a_config_error():
    # 1.25e6 snapshots of a 201-node line, records every 0.05
    cfg = line_config(-10.0, 10.0, 0.1, 0.5, 4e-7, 0.05)
    assert "1.25e+06 snapshots of 201 nodes" in snapshot_error(cfg)


@pytest.mark.parametrize("extra, ok", [(0, True), (1, False)])
def test_snapshot_count_cap_edge(extra, ok):
    # 65 nodes, so the count cap binds first: 6.5e7 values at the cap; a
    # cadence of 2^-18 (3.8e-6) gives each snapshot its own file name
    cadence = 2.0 ** -18
    t_end = (MAX_RECORDS + extra) * cadence
    cfg = line_config(-4.0, 4.0, 0.125, t_end, cadence, t_end)
    if ok:
        assert ScenarioConfig.from_dict(cfg).solver.t_end == t_end
    else:
        snapshot_error(cfg)


@pytest.mark.parametrize("extra, ok", [(0, True), (1, False)])
def test_snapshot_value_cap_edge(extra, ok):
    # 1,000 nodes times 100,000 snapshots is the cap exactly
    cadence = 2.0 ** -10
    t_end = (MAX_SNAPSHOT_VALUES // 1000 + extra) * cadence
    cfg = line_config(-62.4375, 62.4375, 0.125, t_end, cadence, t_end)
    if ok:
        assert ScenarioConfig.from_dict(cfg).solver.t_end == t_end
    else:
        snapshot_error(cfg)


def test_nested_balls_hold_the_snapshots_of_every_ball():
    # R = 4 and 8 at h = 1/16: 257 + 1,025 nodes.  A dirichlet sweep holds
    # one ball's run at a time (8.2e7 values); a nested-ball study keeps
    # both (1.0256e8 values)
    cfg = load("nested_balls.json")
    cfg["sweep"]["values"] = [4, 8]
    cadence = 2.0 ** -10
    cfg["solver"].update(t_end=80_000 * cadence, snapshot_every=cadence,
                         record_every=80_000 * cadence)
    assert "snapshots of 1282 nodes" in snapshot_error(cfg)
    cfg["scenario"] = "dirichlet"
    assert ScenarioConfig.from_dict(cfg).sweep_values == [4, 8]


# ---------------------------------------------------------------------------
# sweep radii
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["dirichlet_sweep.json", "nested_balls.json"])
@pytest.mark.parametrize("values", [[4, 4], [8, 4, 8.0], [4, 16, 8, 16]])
def test_repeated_sweep_radii_are_a_config_error(name, values):
    cfg = load(name)
    cfg["sweep"]["values"] = values
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(cfg)
    assert exc.value.path == "sweep.values"
    assert "more than once" in str(exc.value)


def test_radii_sharing_a_run_directory_are_a_config_error():
    # a sweep writes each run to run_R{R:g}: 4 and 4.0000001 would share
    # run_R4
    cfg = load("dirichlet_sweep.json")
    cfg["sweep"]["values"] = [4, 4.0000001]
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(cfg)
    assert exc.value.path == "sweep.values"
    assert "share the run directory run_R4" in str(exc.value)


def test_radii_with_distinct_run_directories_are_accepted():
    cfg = load("dirichlet_sweep.json")
    cfg["sweep"]["values"] = [4, 4.5, 8]
    assert ScenarioConfig.from_dict(cfg).sweep_values == [4, 4.5, 8]
