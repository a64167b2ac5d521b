import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mcflow
from mcflow import scenarios, solver, textfmt, verification
from mcflow.cli import main
from mcflow.config import MAX_NODES, MIN_TRANSLATING_MU, SWEEP_SCENARIOS
from mcflow.geometry import RadialOperator, SpacelikeViolationError
from mcflow.diagnostics import COLUMNS
from mcflow.scenarios import (MEASURED_SLOPE_FLOOR, ConfigError,
                              ScenarioConfig, _fit_loglog, fmt,
                              read_diagnostics_csv, read_snapshot_csv,
                              run_dirichlet_case, run_scenario_config,
                              write_diagnostics_csv, write_run_artifacts,
                              write_snapshot_csvs)
from mcflow.solver import FlowTrajectory


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def smoke_flow_config(out_dir, t_end=0.5):
    return {
        "scenario": "flow_1d",
        "metric": {"family": "euclidean", "n": 1},
        "domain": {"lo": -10.0, "hi": 10.0},
        "initial_data": {"family": "gaussian", "height": 0.4, "sigma": 1.0},
        "solver": {"h": 0.1, "t_end": t_end, "snapshot_every": 0.25,
                   "record_every": 0.05},
        "output_dir": out_dir,
    }


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_missing_field_names_path(tmp_path, capsys):
    cfg = smoke_flow_config(str(tmp_path / "out"))
    del cfg["solver"]["h"]
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["simulate", path]) == 2
    assert "solver.h" in capsys.readouterr().err


def test_unknown_key_exits_two_naming_its_path(tmp_path, capsys):
    cfg = smoke_flow_config(str(tmp_path / "out"))
    cfg["solver"]["record_evry"] = 0.1
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["simulate", path]) == 2
    assert "config error: solver.record_evry: unknown key" in \
        capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_bad_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", str(path)]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("n, code", [(3, 0), (3.0, 0), (3.7, 2), (2.5, 2)])
def test_metric_dimension_must_be_whole(tmp_path, capsys, n, code):
    cfg = smoke_flow_config(str(tmp_path / "out"), t_end=0.1)
    cfg.update(scenario="flow_radial", domain={"lo": 0.0, "hi": 10.0})
    cfg["metric"]["n"] = n
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["simulate", path]) == code
    if code == 2:
        assert "config error: metric.n: expected an integer" in \
            capsys.readouterr().err


def test_unknown_scenario_rejected(tmp_path):
    cfg = smoke_flow_config(str(tmp_path / "out"))
    cfg["scenario"] = "warp_drive"
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(cfg)


@pytest.mark.parametrize("t_end, every, first, distinct", [
    (2e-5, 1e-7, "t = 0.0 and 1e-07 share the file name t0.000000.csv",
     (2e-5, 2e-6)),
    (1.0000001, 0.5, "t = 1.0 and 1.0000001 share the file name "
                     "t1.000000.csv", (1.000001, 0.5))])
def test_snapshots_that_share_a_file_name_are_a_config_error(
        tmp_path, capsys, t_end, every, first, distinct):
    # snapshot files are named t{t:.6f}.csv: 201 snapshots 1e-7 apart would
    # share 21 names, and the state at t_end would overwrite the one at 1
    cfg = smoke_flow_config(str(tmp_path / "out"), t_end=t_end)
    cfg["domain"] = {"lo": -5.0, "hi": 5.0}
    cfg["initial_data"]["height"] = 0.1
    cfg["solver"].update(h=0.05, snapshot_every=every, record_every=every)
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["simulate", path]) == 2
    assert capsys.readouterr().err == (
        f"config error: solver.snapshot_every: snapshots at {first}\n")
    assert not (tmp_path / "out" / "snapshots").exists()
    # a schedule whose names differ passes the config pass
    cfg["solver"].update(t_end=distinct[0], snapshot_every=distinct[1])
    assert ScenarioConfig.from_dict(cfg).solver.t_end == distinct[0]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_zero_run_exit_zero(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = smoke_flow_config(out)
    cfg["initial_data"] = {"family": "zero"}
    path = write_config(tmp_path, "zero.json", cfg)
    assert main(["simulate", path]) == 0
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert "halt_message" not in summary  # only halted runs carry one
    recs = read_diagnostics_csv(os.path.join(out, "diagnostics.csv"))
    assert np.all(recs["sup_u"] == 0.0)
    snaps = sorted(os.listdir(os.path.join(out, "snapshots")))
    assert snaps[0] == "t0.000000.csv"
    coord, data = read_snapshot_csv(os.path.join(out, "snapshots", snaps[0]))
    assert coord == "x"
    assert np.all(data[:, 1] == 0.0)


def test_simulate_outputs_are_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    p1 = write_config(tmp_path, "c1.json", smoke_flow_config(out1))
    p2 = write_config(tmp_path, "c2.json", smoke_flow_config(out2))
    assert main(["simulate", p1]) == 0
    assert main(["simulate", p2]) == 0
    for name in ("diagnostics.csv", os.path.join("snapshots", "t0.250000.csv")):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2


def test_simulate_output_dir_flag_overrides(tmp_path):
    out = str(tmp_path / "flagged")
    path = write_config(tmp_path, "c.json",
                        smoke_flow_config(str(tmp_path / "ignored")))
    assert main(["simulate", path, "--output-dir", out]) == 0
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_simulate_output_dir_that_cannot_be_made_exit_two(tmp_path, capsys,
                                                        monkeypatch):
    # made before the run: the runner is never called
    monkeypatch.setattr("mcflow.cli.run_scenario_config",
                        lambda cfg: pytest.fail("the scenario ran"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = write_config(tmp_path, "c.json", smoke_flow_config(str(blocker)))
    assert main(["simulate", path]) == 2
    err = capsys.readouterr().err
    assert "config error: output_dir: cannot create" in err
    assert "Traceback" not in err
    assert main(["simulate", path, "--output-dir", str(blocker)]) == 2
    assert "config error: --output-dir: cannot create" in \
        capsys.readouterr().err


def test_simulate_diagnostics_roundtrip(tmp_path):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, "c.json", smoke_flow_config(out))
    assert main(["simulate", path]) == 0
    recs = read_diagnostics_csv(os.path.join(out, "diagnostics.csv"))
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["pass"] is True
    assert summary["records"] == len(recs["t"])
    assert tuple(recs) == COLUMNS[:5]  # no monitor, no barrier


def test_tabulated_initial_data(tmp_path):
    table = tmp_path / "profile.csv"
    xs = np.linspace(-10, 10, 201)
    lines = ["x,u"] + [f"{x},{0.3 * np.exp(-x * x)}" for x in xs]
    table.write_text("\n".join(lines))
    cfg = smoke_flow_config(str(tmp_path / "out"))
    cfg["initial_data"] = {"family": "tabulated", "path": str(table)}
    path = write_config(tmp_path, "tab.json", cfg)
    assert main(["simulate", path]) == 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "maximal_surface_residual" in out
    assert "FAIL" not in out


def test_verify_inject_fault_fails(capsys, monkeypatch):
    # one identity pushed past its tolerance fails the suite by name
    check = verification.check_graph_quantities

    def faulty(**kwargs):
        checks = check(**kwargs)
        gradient = checks[0]
        assert gradient["name"] == "graph_gradient_identity"
        checks[0] = verification._check(gradient["name"],
                                         [10.0 * gradient["tolerance"]],
                                         gradient["tolerance"],
                                         gradient["samples"])
        return checks
    monkeypatch.setattr(verification, "check_graph_quantities", faulty)
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "graph_gradient_identity" in captured.err


def test_verify_empty_sweep_exit_two(capsys):
    assert main(["verify", "--dimensions", ""]) == 2
    assert "nothing to verify" in capsys.readouterr().err


def test_verify_seed_changes_samples_not_outcome():
    assert main(["verify", "--seed", "7"]) == 0


def test_verify_negative_seed_exit_two(capsys):
    assert main(["verify", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == \
        "config error: --seed: must be >= 0, got -1\n"


@pytest.mark.parametrize("dims", ["41", "3,41", "79", "2", "0", "3,x"])
def test_verify_bad_dimensions_exit_two(capsys, dims):
    # past the cap of 40: at 79 the stationary profile's r^(2n-2) overflows
    # to NaN residuals; below 3 there is no static profile
    assert main(["verify", "--dimensions", dims]) == 2
    assert "config error: --dimensions: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def dirichlet_sweep_config(out_dir, values):
    return {
        "scenario": "dirichlet",
        "sweep": {"parameter": "R", "values": values},
        "metric": {"family": "euclidean", "n": 3},
        "domain": {"lo": 0.0},
        "initial_data": {"family": "bump", "height": 0.3, "plateau": 0.25,
                         "support": 1.0},
        "solver": {"h": 0.1, "t_end": 2.0, "snapshot_every": 0.5,
                   "record_every": 0.5},
        "output_dir": out_dir,
    }


def test_sweep_single_point_exit_two(tmp_path, capsys):
    # a nested study of one radius included: it compares no pair
    for scenario in ("dirichlet", "nested_balls"):
        cfg = dirichlet_sweep_config(str(tmp_path / "out"), [4])
        cfg["scenario"] = scenario
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["sweep", path]) == 2
        err = capsys.readouterr().err
        assert "config error: sweep.values: need a grid of >= 2 points" in err
        assert "Traceback" not in err


def test_sweep_dirichlet_small(tmp_path):
    out = str(tmp_path / "out")
    cfg = dirichlet_sweep_config(out, [2, 3])
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", path]) == 0
    from mcflow.scenarios import read_sweep_csv
    rows = read_sweep_csv(os.path.join(out, "sweep.csv"))
    assert [r["R"] for r in rows] == [2.0, 3.0]
    assert all(r["pass"] for r in rows)
    summary = json.load(open(os.path.join(out, "sweep_summary.json")))
    assert summary["fits"]["bound_exponent"] is not None
    assert os.path.exists(os.path.join(out, "run_R2", "summary.json"))


def test_sweep_dirichlet_parallel_workers(tmp_path):
    out = str(tmp_path / "out")
    cfg = dirichlet_sweep_config(out, [2, 3])
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", path, "--workers", "2"]) == 0
    from mcflow.scenarios import read_sweep_csv
    rows = read_sweep_csv(os.path.join(out, "sweep.csv"))
    assert [r["R"] for r in rows] == [2.0, 3.0]


def test_sweep_output_dir_that_cannot_be_made_exit_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = dict(dirichlet_sweep_config(str(blocker / "x"), [2, 3]),
               scenario="nested_balls")
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", path]) == 2
    err = capsys.readouterr().err
    assert "config error: output_dir: cannot create" in err
    assert "Traceback" not in err
    assert main(["sweep", path, "--output-dir", str(blocker / "x")]) == 2
    assert "config error: --output-dir: cannot create" in \
        capsys.readouterr().err


def test_sweep_starts_no_more_workers_than_radii(tmp_path, monkeypatch):
    # a pool starts all of its workers on the first submit: never ask for
    # more than there are runs
    import concurrent.futures
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = dirichlet_sweep_config(str(tmp_path / "out"), [2, 3, 4])
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", path, "--workers", "64"]) == 0
    assert started == [3]


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize("name", ["dirichlet", "nested_balls"])
def test_sweep_workers_below_one_exit_two(tmp_path, capsys, name, workers):
    cfg = dirichlet_sweep_config(str(tmp_path / "out"), [2, 3])
    cfg["scenario"] = name
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", path, "--workers", str(workers)]) == 2
    err = capsys.readouterr().err
    assert f"config error: --workers: must be >= 1, got {workers}" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "out")


def test_nested_ball_sweep_rejects_workers(tmp_path, capsys):
    # a nested-ball study runs its radii in one process: --workers 2 is not
    # ignored but refused, before any run
    cfg = dirichlet_sweep_config(str(tmp_path / "out"), [2, 3])
    cfg["scenario"] = "nested_balls"
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", path, "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert "config error: --workers: applies to dirichlet sweeps" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_config_error_in_a_worker_exits_two(tmp_path, capsys, workers):
    # the steep data fail as each swept run samples them on its grid: the
    # error is raised in the worker process and must reach the CLI intact
    cfg = dirichlet_sweep_config(str(tmp_path / "out"), [2, 3])
    cfg["initial_data"]["height"] = 5.0
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", path, "--workers", str(workers)]) == 2
    err = capsys.readouterr().err
    assert ("config error: initial_data: not spacelike in the metric: "
            "node-to-node slope" in err)
    assert "Traceback" not in err


def test_simulate_numeric_failure_exit_three(tmp_path, capsys):
    # data with nearly null slope trip the strict spacelikeness guard on the
    # first step; the run halts and the CLI reports a numeric failure
    xs = np.arange(-10.0, 10.0 + 1e-9, 0.1)
    slope = 1.0 - 1e-13
    peak = 2.0
    vals = np.maximum(peak - slope * np.abs(xs), 0.0)
    table = tmp_path / "steep.csv"
    table.write_text("x,u\n" + "\n".join(f"{x},{u}" for x, u in zip(xs, vals)))
    cfg = smoke_flow_config(str(tmp_path / "out"))
    cfg["initial_data"] = {"family": "tabulated", "path": str(table)}
    path = write_config(tmp_path, "steep.json", cfg)
    assert main(["simulate", path]) == 3
    err = capsys.readouterr().err
    assert "spacelikeness" in err
    # the violation text, not a fixed string, with where it happened
    assert "(spacelike_violation)" in err and "1 - (u'/w)^2" in err
    summary = json.load(open(os.path.join(str(tmp_path / "out"),
                                          "summary.json")))
    assert summary["termination"] == "spacelike_violation"
    assert summary["halt_message"] in err


def test_simulate_non_finite_exit_three(tmp_path, capsys, monkeypatch):
    # a NaN the flow produces (here a stubbed operator writing one into
    # every speed) halts at once as a non-finite value, not as a
    # spacelikeness violation after every dt halving
    rhs = RadialOperator.rhs

    def poisoned(self, du, d2u, comp, out, work):
        rhs(self, du, d2u, comp, out, work)
        out[out.size // 2] = np.nan
        return out

    monkeypatch.setattr(RadialOperator, "rhs", poisoned)
    cfg = smoke_flow_config(str(tmp_path / "out"))
    path = write_config(tmp_path, "nan.json", cfg)
    assert main(["simulate", path]) == 3
    err = capsys.readouterr().err
    assert "(non_finite)" in err and "non-finite slope at x = " in err
    summary = json.load(open(os.path.join(str(tmp_path / "out"),
                                          "summary.json")))
    assert summary["termination"] == "non_finite"
    assert summary["steps"] == 0


def shipped_config(name):
    with open(os.path.join(os.path.dirname(__file__), "..", "configs",
                           name)) as fh:
        return json.load(fh)


def run_no_lift_off_in_dimension_40(tmp_path, **solver):
    # the no_lift_off data in n = 40: w(r) = 1 + 0.5/r reaches 2 at the
    # pinned inner end, where the state steepens past the flat bound
    # |u_{i+1} - u_i|/h < 1 while |u'|/w stays below 1
    cfg = shipped_config("no_lift_off.json")
    cfg["metric"]["n"] = 40
    cfg["solver"].update(solver)
    out = str(tmp_path / "out")
    path = write_config(tmp_path, "n40.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or log(0) warning
        code = main(["simulate", path, "--output-dir", out])
    return code, out


def test_states_past_the_flat_slope_bound_are_recorded(tmp_path, capsys):
    code, out = run_no_lift_off_in_dimension_40(
        tmp_path, t_end=0.06, record_every=0.005, snapshot_every=0.01)
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["termination"] == "reached_t_end"
    assert summary["records"] == 13
    # the run is reported, not cut short: the slope grows by more than the
    # preservation slack in n = 40, the one failed check
    assert code == 1
    failed = [c["name"] for c in summary["checks"] if not c["pass"]]
    assert failed == ["spacelike_preservation"]
    assert all(np.isfinite(v) for c in summary["checks"] for k, v in c.items()
               if isinstance(v, float))
    coord, data = read_snapshot_csv(os.path.join(out, "snapshots",
                                                 "t0.060000.csv"))
    assert np.max(np.abs(np.diff(data[:, 1]))) / 0.05 > 1.0
    recs = read_diagnostics_csv(os.path.join(out, "diagnostics.csv"))
    assert tuple(recs) == COLUMNS
    assert all(np.all(np.isfinite(column)) for column in recs.values())


def test_dimension_40_run_halts_as_the_solver_reports(tmp_path, capsys):
    # through t = 1 (records at 0 and 1) the inner end's slope reaches the
    # null cone: the solver halts after every halving, and the CLI says so
    # along with what the record of the halted state found
    code, _ = run_no_lift_off_in_dimension_40(tmp_path, t_end=1.0)
    assert code == 3
    err = capsys.readouterr().err
    assert "node-to-node slope" not in err
    assert "(the run had halted: spacelikeness lost: updated slope" in err


def test_tilt_monitor_overflow_is_a_numeric_failure(tmp_path, capsys):
    # metric.a = 40: Ricci constant 5.9e-4, so mu = 1/lambda ~ 1688 and
    # v exp(mu e^(lambda u)) overflows on the data at t = 0
    cfg = shipped_config("no_lift_off.json")
    cfg["metric"]["a"] = 40.0
    cfg["solver"].update(t_end=1.0, snapshot_every=0.5, record_every=0.5)
    path = write_config(tmp_path, "a40.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or inf - inf warning
        code = main(["simulate", path, "--output-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert ("numeric failure (record): state at t = 0: tilt monitor "
            "overflows" in err)
    # mu = 1/lambda: 1 / 0.00059239 = 1688.08
    assert "with lambda = 0.00059239, mu = 1688.08" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("scenario", ["no_lift_off", "flow_radial"])
def test_data_not_spacelike_in_the_metric_exit_two(tmp_path, capsys,
                                                   scenario):
    # power -2: w(r) = (1 + 0.5/r)^-2 < 1, and the bump's rise, below the
    # flat bound, is a node-to-node slope of 1.00179 in the metric
    cfg = shipped_config("no_lift_off.json")
    cfg["metric"]["power"] = -2.0
    cfg["solver"]["t_end"] = 1.0
    if scenario == "flow_radial":
        cfg["scenario"] = scenario
        del cfg["barrier"]
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", path, "--output-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: initial_data: not spacelike in the metric: "
        "node-to-node slope 1.00179 >= 1 between r = 1.45 and 1.5\n")
    assert os.listdir(out) == []  # no step and no record was made


def steep_bump_config(height):
    """no_lift_off through t = 1 with a bump rising on [0.6, 0.8], where
    w = 1 + 0.5/r is 1.6-1.8: its flat slope |u_{i+1} - u_i|/h is larger
    than its slope in the metric |u_{i+1} - u_i|/(h w)."""
    cfg = shipped_config("no_lift_off.json")
    cfg["initial_data"].update(height=height, rise=[0.6, 0.8])
    cfg["solver"]["t_end"] = 1.0
    return cfg


def test_data_spacelike_in_the_metric_but_not_flat_run(tmp_path, capsys):
    # flat slope 1.18945, but 0.704 in the metric: the data are spacelike
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", steep_bump_config(0.15))
    assert main(["simulate", path, "--output-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.load(open(out / "summary.json"))
    assert summary["termination"] == "reached_t_end"
    assert [c["name"] for c in summary["checks"] if c["pass"]] == [
        "max_principle", "spacelike_preservation", "barrier_margin_positive",
        "phi_monotone"]


def test_data_steep_in_the_metric_where_w_exceeds_one_exit_two(
        tmp_path, capsys, monkeypatch):
    # the same bump at height 0.25 reaches 1.17 in the metric: a config
    # error naming the gap, before any barrier, step or record
    monkeypatch.setattr(scenarios, "build_outer_barrier",
                        lambda *args, **kwargs: pytest.fail("a barrier"))
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", steep_bump_config(0.25))
    assert main(["simulate", path, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: initial_data: not spacelike in the metric: "
        "node-to-node slope 1.17327 >= 1 between r = 0.7 and 0.75\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("scenario", ["dirichlet", "nested_balls"])
def test_ball_data_not_spacelike_in_the_metric_name_their_slope(
        tmp_path, capsys, scenario):
    # power -2 on the annulus-ball [0.5, R^2]: the bump's rise is a
    # node-to-node slope of 1.5 in the metric.  The blend's own margin,
    # 1 - lipschitz_constant = -0.484, is not what the message names.
    cfg = shipped_config("dirichlet_sweep.json")
    cfg.update(scenario=scenario, domain={"lo": 0.5}, initial_data={
        "family": "radial_bump", "height": 0.45, "rise": [1.0, 2.0],
        "fall": [2.5, 3.5]})
    cfg["metric"] = {"family": "conformal_power", "n": 3, "a": 0.5,
                     "tau": 1.0, "power": -2.0}
    cfg["solver"]["t_end"] = 1.0
    path = write_config(tmp_path, "c.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", path, "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: initial_data: not spacelike in the metric: "
        "node-to-node slope 1.50028 >= 1 between r = 1.4375 and 1.5\n")


@pytest.mark.parametrize("name", ["flow_1d", "translating_verify"])
def test_a_run_returns_the_summary_it_writes(tmp_path, name):
    raw = (smoke_flow_config(str(tmp_path / "unused")) if name == "flow_1d"
           else shipped_config("translating_verify.json"))
    summary, trajectory = run_scenario_config(ScenarioConfig.from_dict(raw))
    assert (trajectory is None) == (name == "translating_verify")
    assert summary["pass"] is True and summary["checks"]
    write_run_artifacts(summary, trajectory, str(tmp_path / "out"))
    with open(tmp_path / "out" / "summary.json") as fh:
        assert json.load(fh) == json.loads(json.dumps(summary))


# ---------------------------------------------------------------------------
# runs that stop before t_end, barriers that cannot be built, NaN reductions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, command, max_steps", [
    ("no_lift_off.json", "simulate", 1),
    ("decay_study.json", "simulate", 3),  # too few records for its fit
    ("dirichlet_sweep.json", "sweep", 1),
    ("nested_balls.json", "sweep", 1)])
def test_a_run_stopped_at_the_step_cap_fails(tmp_path, capsys, name, command,
                                             max_steps):
    cfg = shipped_config(name)
    cfg["solver"]["max_steps"] = max_steps
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", cfg)
    assert main([command, path, "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"solver.max_steps = {max_steps} steps" in err
    assert "config error" not in err and "Traceback" not in err
    runs = sorted(out.glob("**/summary.json"))  # none for a nested sweep
    for run in runs:
        summary = json.load(open(run))
        assert summary["termination"] == "step_cap"
        assert summary["pass"] is False
    if command == "sweep":
        summary = json.load(open(out / "sweep_summary.json"))
        assert summary["pass"] is False
        terminations = summary.get("terminations") or [
            row["termination"] for row in summary["rows"]]
        assert terminations == ["step_cap"] * 3
        assert len(runs) == (3 if name == "dirichlet_sweep.json" else 0)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the stopped state's file name, t0.000000.csv, is "
                          "the t = 0 snapshot's, and it overwrites that file")
def test_a_state_stopped_right_after_a_mark_keeps_its_own_snapshot(tmp_path):
    # one step of 4.4e-7 from t = 0: the run holds the t = 0 state and the
    # stopped state, and its snapshot files should hold both
    cfg = smoke_flow_config(str(tmp_path / "out"), t_end=0.01)
    cfg["domain"] = {"lo": -1.0, "hi": 1.0}
    cfg["initial_data"] = {"family": "gaussian", "height": 0.05,
                           "sigma": 0.2}
    cfg["solver"].update(h=0.001, snapshot_every=0.005, max_steps=1)
    del cfg["solver"]["record_every"]
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["simulate", path]) == 1
    traj = run_scenario_config(ScenarioConfig.from_dict(cfg))[1]
    assert traj.termination == "step_cap"
    assert 0.0 < traj.times[1] < 5e-7 and len(traj.times) == 2
    snaps = tmp_path / "out" / "snapshots"
    written = [read_snapshot_csv(str(snaps / name))[1][:, 1].tobytes()
               for name in sorted(os.listdir(snaps))]
    assert written == [row.tobytes() for row in traj.snapshots]


@pytest.mark.parametrize("name", ["dirichlet_sweep.json", "nested_balls.json"])
def test_a_sweep_whose_runs_halt_exit_three(tmp_path, capsys, monkeypatch,
                                            name):
    def violation(self, tau, dt_fe):
        raise SpacelikeViolationError("spacelikeness lost: injected")
    monkeypatch.setattr(solver._Engine, "rkl2", violation)
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", shipped_config(name))
    assert main(["sweep", path, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    # each halted run with its message, as `simulate` prints it
    message = "spacelikeness lost: injected (last dt "
    assert err.count("numeric failure (spacelike_violation) in ") == 3
    assert [line.split(": ", 1)[1].startswith(message)
            for line in err.splitlines()] == [True] * 3
    assert "Traceback" not in err
    summary = json.load(open(out / "sweep_summary.json"))
    assert summary["pass"] is False
    if name == "dirichlet_sweep.json":
        assert all(row["termination"] == "spacelike_violation"
                   and row["pass"] is False
                   and row["halt_message"].startswith(message)
                   for row in summary["rows"])
    else:
        assert summary["terminations"] == ["spacelike_violation"] * 3
        assert all(text.startswith(message)
                   for text in summary["halt_messages"])


@pytest.mark.parametrize("name, key, value", [
    ("barrier_verify.json", "h", 1e20),
    ("no_lift_off.json", "eps", 1e300),
    ("no_lift_off.json", "r1_min", 1e300)])
def test_a_barrier_that_cannot_be_built_exit_two(tmp_path, capsys, name, key,
                                                 value):
    cfg = shipped_config(name)
    cfg["barrier"][key] = value
    path = write_config(tmp_path, "c.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        code = main(["simulate", path, "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: barrier: no static barrier: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, key, value, message", [
    # w(0.5) = 2e200, whose square overflows in the Ricci bound
    ("no_lift_off.json", "metric.a", 1e200, "metric.a: w(r) = (1 + a "
     "r^-tau)^power leaves the float range on [0.5, 50]"),
    # w(0.5) = 2^600 and 2^-600: the square, or its reciprocal, overflows;
    # at power 1 w stays in range, so the power is named
    ("no_lift_off.json", "metric.power", 600, "metric.power: w(r) = (1 + a "
     "r^-tau)^power leaves the float range on [0.5, 50]"),
    ("no_lift_off.json", "metric.power", -600, "metric.power: w(r) = (1 + a "
     "r^-tau)^power leaves the float range on [0.5, 50]"),
    # a cone below the mu where its flat identity holds to SAMPLE_TOL
    ("translating_verify.json", "translating.mu", 1e-12,
     "translating.mu: must be > 1e-06, got 1e-12"),
    ("translating_verify.json", "translating.mu", 3e-10,
     "translating.mu: must be > 1e-06, got 3e-10"),
    # a profile whose inner radius lies past the grid's end at 50
    ("no_lift_off.json", "barrier.r1_min", 100, "barrier: the profile's "
     "inner radius r0 = 100 lies past the grid's end 50"),
    ("no_lift_off.json", "barrier.eps", 1e6, "barrier: the profile's "
     "inner radius r0 = 1.04858e+06 lies past the grid's end 50"),
    ("no_lift_off.json", "solver.h", 0, "solver.h: must be > 0, got 0"),
    ("no_lift_off.json", "solver.t_end", -1,
     "solver.t_end: must be > 0, got -1"),
    ("no_lift_off.json", "solver.cfl_safety", 2,
     "solver.cfl_safety: must be <= 1.0, got 2")],
    ids=["a", "power-600", "power-minus-600", "mu-1e-12", "mu-3e-10",
         "r1_min", "eps", "h", "t_end", "cfl_safety"])
def test_an_entry_out_of_range_exits_two_naming_its_field(
        tmp_path, capsys, name, key, value, message):
    cfg = shipped_config(name)
    section, entry = key.split(".")
    cfg[section][entry] = value
    path = write_config(tmp_path, "c.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        code = main(["simulate", path, "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"


def test_translating_mu_just_above_its_bound_runs(tmp_path):
    # its gradients stay strictly spacelike: the run returns an exit code
    cfg = shipped_config("translating_verify.json")
    cfg["translating"]["mu"] = MIN_TRANSLATING_MU * (1.0 + 1e-9)
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) \
        in (0, 1)


@pytest.mark.parametrize("n, t0", [(3, -4.0), (1, -1.0001)])
def test_translating_mu_at_its_bound_passes(tmp_path, n, t0):
    # the shipped cone, and the one-dimensional cone just past t0 = -1,
    # whose identity residual was the largest measured near the bound
    cfg = shipped_config("translating_verify.json")
    cfg["metric"]["n"] = n
    cfg["translating"].update(mu=MIN_TRANSLATING_MU * (1.0 + 1e-9), t0=t0)
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) \
        == 0


def test_translating_mu_just_below_its_bound_exit_two(tmp_path, capsys):
    cfg = shipped_config("translating_verify.json")
    cfg["translating"]["mu"] = MIN_TRANSLATING_MU * (1.0 - 1e-9)
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) \
        == 2
    assert capsys.readouterr().err == ("config error: translating.mu: must "
                                       "be > 1e-06, got 9.99999999e-07\n")


def test_a_line_scenario_on_a_curved_metric_exit_two(tmp_path, capsys):
    cfg = shipped_config("decay_study.json")
    cfg["metric"].update(family="conformal_power", a=0.5, tau=1.0)
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["simulate", path, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: metric.family: decay_study runs on the flat" in err
    assert "Traceback" not in err
    assert not out.exists()  # refused by the config pass, before any run


def test_a_nan_ricci_bound_is_a_numeric_failure(tmp_path, capsys,
                                                monkeypatch):
    # NaN > 0 is False: the tilt monitor must not be switched off silently
    monkeypatch.setattr(scenarios, "ricci_form_bound",
                        lambda *args: float("nan"))
    cfg = shipped_config("no_lift_off.json")
    cfg["solver"].update(t_end=1.0)
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "numeric failure (record): the Ricci bound on [0.5, 50] is NaN" \
        in err
    assert "Traceback" not in err


def nan_slope_records():
    """Three records, the last with a NaN `grad_max`."""
    return {"t": np.array([0.0, 0.5, 1.0]), "sup_u": np.full(3, 0.5),
            "grad_max": np.array([0.2, 0.2, np.nan]), "l2": np.ones(3),
            "h1_grad": np.full(3, 0.1)}


def test_spacelike_preservation_fails_on_a_nan():
    traj = FlowTrajectory(field=None, times=None, snapshots=None,
                          records=nan_slope_records())
    check = next(c for c in scenarios._base_flow_checks(traj)
                 if c["name"] == "spacelike_preservation")
    assert check["pass"] is False and math.isnan(check["max"])


def test_max_grad_max_keeps_a_nan():
    traj = FlowTrajectory(field=None, times=np.array([0.0, 1.0]),
                          snapshots=None, records=nan_slope_records())
    assert math.isnan(scenarios._summarize(traj)["max_grad_max"])


def test_barrier_margin_positive_fails_on_a_nan(monkeypatch):
    run_flow = scenarios.run_flow

    def nan_margin(*args, **kwargs):
        traj = run_flow(*args, **kwargs)
        traj.records["barrier_margin"][-1] = np.nan
        return traj
    monkeypatch.setattr(scenarios, "run_flow", nan_margin)
    cfg = shipped_config("no_lift_off.json")
    cfg["solver"].update(t_end=1.0)
    summary, _ = run_scenario_config(ScenarioConfig.from_dict(cfg))
    check = next(c for c in summary["checks"]
                 if c["name"] == "barrier_margin_positive")
    assert check["pass"] is False and math.isnan(check["min_margin"])


@pytest.mark.parametrize("height", [1e5, 1e6])
def test_barrier_verify_runs_at_large_heights(tmp_path, capsys, height):
    # the gap between the height rule at step h and at 2h, 2.3e-10 and
    # 1.2e-10 here, is rounding of heights near 1e5, above an absolute 1e-10
    cfg = shipped_config("barrier_verify.json")
    cfg["barrier"]["h"] = height
    out = str(tmp_path / "out")
    path = write_config(tmp_path, "tall.json", cfg)
    assert main(["simulate", path, "--output-dir", out]) == 0
    assert "Traceback" not in capsys.readouterr().err
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["pass"]
    assert [c["name"] for c in summary["checks"] if c["pass"]] == [
        "flat_identity", "curved_sign"]


@pytest.mark.parametrize("where, value, field", [
    (("metric", "n"), 41, "metric.n: must be <= 40"),
    (("domain", "hi"), -10.0 + 0.1 * MAX_NODES, "domain.hi: the grid"),
    (("solver", "record_every"), 4e-7, "solver.record_every: t_end"),
    (("solver", "snapshot_every"), 4e-7, "solver.snapshot_every: t_end"),
])
def test_sizes_past_the_caps_are_config_errors(tmp_path, capsys, where,
                                               value, field):
    cfg = smoke_flow_config(str(tmp_path / "out"))
    cfg.update(scenario="flow_radial", domain={"lo": 0.0, "hi": 10.0})
    if where[0] == "domain":
        cfg.update(scenario="flow_1d", domain={"lo": -10.0, "hi": 10.0})
    cfg[where[0]][where[1]] = value
    if where[1] == "snapshot_every":  # records then share its cadence
        del cfg["solver"]["record_every"]
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["simulate", path]) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}" in err and "Traceback" not in err
    assert not os.path.exists(str(tmp_path / "out"))


@pytest.mark.parametrize("name, command, key, value, field", [
    ("dirichlet_sweep.json", "sweep", "sweep", [4, 251], "sweep.values"),
    ("barrier_verify.json", "simulate", "sample_radii", MAX_NODES + 1,
     "sample_radii: must be <= 1000000"),
])
def test_shipped_configs_past_the_caps_exit_two(tmp_path, capsys, name,
                                                command, key, value, field):
    # R = 251 puts 1,008,017 nodes on [0, R^2] at h = 1/16
    cfg = shipped_config(name)
    if key == "sweep":
        cfg["sweep"]["values"] = value
    else:
        cfg[key] = value
    path = write_config(tmp_path, "c.json", cfg)
    assert main([command, path, "--output-dir", str(tmp_path / "out")]) == 2
    assert f"config error: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("name, path, value, field", [
    ("translating_verify.json", ("metric", "n"), 1e6, "metric.n"),
    ("translating_verify.json", ("metric", "n"), 1e9, "metric.n"),
    ("decay_study.json", ("domain", "hi"), 1e6, "domain.hi"),
    ("decay_study.json", ("domain", "hi"), 1e9, "domain.hi"),
    ("dirichlet_sweep.json", ("R",), 1e4, "R"),
    ("nested_balls.json", ("sweep", "values"), [4, 1e4], "sweep.values"),
    ("decay_study.json", ("solver", "t_end"), 1e9, "solver.record_every"),
    # past the float range: R^2 overflows, an int does not convert
    ("dirichlet_sweep.json", ("R",), 1e200, "R"),
    pytest.param("decay_study.json", ("domain", "hi"), 10 ** 400, "domain.hi",
                 id="decay_study.json-int-past-floats-domain.hi"),
    pytest.param("nested_balls.json", ("sweep", "values"), [4, 10 ** 200],
                 "sweep.values", id="nested_balls.json-int-squared-past-floats"),
])
def test_huge_sizes_fail_the_config_pass(name, path, value, field):
    # checked before anything is built: these are never run
    cfg = shipped_config(name)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    if path[0] != "sweep":
        cfg.pop("sweep", None)
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(cfg)
    assert exc.value.path == field


def test_measured_exponent_fits_the_slopes_above_the_floor():
    # the shipped sweep's slopes: the R = 16 one is the discrete tail
    radii = [4.0, 8.0, 16.0]
    slopes = [2.6987594014499716e-4, 2.1041594227523926e-10,
              1.6025658313073766e-152]
    bounds = np.array([0.12403473458920845, 0.044151078568834795,
                       0.015623093000542114])
    floor = MEASURED_SLOPE_FLOOR * bounds
    assert _fit_loglog(radii, slopes, floor=floor) == pytest.approx(
        math.log(slopes[1] / slopes[0]) / math.log(2.0), rel=1e-12)
    assert _fit_loglog(radii, [slopes[0], 0.0, slopes[2]],
                       floor=floor) is None
    assert _fit_loglog(radii, bounds) == _fit_loglog(radii, bounds,
                                                     floor=0.0)


@pytest.mark.parametrize("table", [
    "x,u\n-10,0\n0,nan\n10,0\n",     # a non-finite entry
    "x\n-10\n0\n10\n",               # a single column
    "x,u\n-10,0\n0,zero\n10,0\n",    # a non-numeric cell
])
def test_malformed_tabulated_data_is_config_error(tmp_path, capsys, table):
    csv = tmp_path / "table.csv"
    csv.write_text(table)
    cfg = smoke_flow_config(str(tmp_path / "out"))
    cfg["initial_data"] = {"family": "tabulated", "path": str(csv)}
    path = write_config(tmp_path, "tab.json", cfg)
    assert main(["simulate", path]) == 2
    err = capsys.readouterr().err
    assert "config error: initial_data.path" in err
    assert "Traceback" not in err
    assert not os.path.exists(str(tmp_path / "out"))


@pytest.mark.parametrize("argv", [["simulate", "c.json", "--seed", "1"],
                                  ["sweep", "c.json", "--seed", "1"],
                                  ["simulate", "c.json", "--strict"],
                                  ["sweep", "c.json", "--strict"],
                                  ["verify", "--strict"]])
def test_removed_ignored_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def check_snapshot_files(kind, nodes, times, rows, directory):
    """Write one run's snapshots, the value `rows` at `times` on a grid of
    `kind` and `nodes`, into `directory` and compare each file with its
    cells written one at a time by `fmt`."""
    grid = SimpleNamespace(kind=kind, nodes=nodes)
    write_snapshot_csvs(FlowTrajectory(grid, np.array(times), np.array(rows),
                                       {}), str(directory))
    coord = "x" if kind == "line" else "r"
    for t, values in zip(times, rows):
        lines = [f"{coord},u"] + [f"{fmt(c)},{fmt(u)}"
                                  for c, u in zip(nodes, values)]
        expected = ("\n".join(lines) + "\n").encode()
        assert (directory / f"t{t:.6f}.csv").read_bytes() == expected


def test_snapshot_writer_bytes_match_per_cell_formatting(tmp_path):
    # the writer formats each cell as `fmt` does, so files keep their bytes;
    # values a Field would reject still exercise the formatting
    values = np.array([-0.0, 1e-300, 1e300, -1e-300, 0.1, 1.0 / 3.0,
                       -2.5e-17, 5e-324, np.nan, np.inf, -np.inf, 0.0])
    nodes = np.linspace(0.0, 2.0, values.size)
    check_snapshot_files("radial", nodes, [0.0, 0.5],
                         [values, values[::-1]], tmp_path / "radial")
    check_snapshot_files("line", nodes - 1.0, [1.0], [values],
                         tmp_path / "line")


def test_diagnostics_writer_bytes_match_per_cell_formatting(tmp_path):
    # every column set a run can record, each cell as `fmt` writes it and
    # the columns the run does not record blank
    cells = [-0.0, 5e-324, np.nan, np.inf, -np.inf, 1.0 / 3.0, 1e300,
             np.float64(0.1), 2]
    for absent in ((), ("sup_phi",), ("barrier_margin",),
                   ("sup_phi", "barrier_margin")):
        records = {name: np.array([cells[(k + j) % len(cells)]
                                   for k in range(12)], dtype=float)
                   for j, name in enumerate(COLUMNS) if name not in absent}
        path = tmp_path / "diagnostics.csv"
        write_diagnostics_csv(records, str(path))
        lines = [",".join(COLUMNS)] + [
            ",".join(fmt(records[name][k] if name in records else None)
                     for name in COLUMNS) for k in range(12)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_snapshot_writer_on_two_grids(tmp_path):
    # each run's snapshots are formatted with its own grid's nodes
    coarse = np.linspace(0.0, 2.0, 7)
    fine = np.linspace(-1.0, 1.0, 13)
    check_snapshot_files("radial", coarse, [0.0, 0.25, 0.75],
                         [np.sin(coarse), -np.sin(coarse) / 3.0, np.zeros(7)],
                         tmp_path / "coarse")
    check_snapshot_files("line", fine, [0.5], [np.exp(fine) * 1e-200],
                         tmp_path / "fine")


def test_diagnostics_writer_over_several_chunks(tmp_path):
    rng = np.random.default_rng(11)
    rows = textfmt.CHUNK_VALUES // 7 * 3 + 5  # four formatting passes
    scale = 10.0 ** rng.integers(-40, 40, rows)
    records = {name: rng.standard_normal(rows) * scale
               for name in COLUMNS if name != "barrier_margin"}
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(records, str(path))
    lines = [",".join(COLUMNS)] + [
        ",".join(fmt(c) for c in row) + "," for row in zip(*records.values())]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    read = read_diagnostics_csv(str(path))
    assert read.keys() == records.keys()
    assert all(np.array_equal(read[name], records[name]) for name in read)
    write_diagnostics_csv({name: np.empty(0) for name in COLUMNS}, str(path))
    assert path.read_bytes() == (",".join(COLUMNS) + "\n").encode()


def test_a_nan_in_a_recorded_column_is_not_a_blank_cell(tmp_path):
    # a NaN the run recorded is written as `nan` and reads back as NaN; a
    # column the run does not record is blank and absent once read
    records = {name: np.array([0.5, np.nan, 2.0]) for name in COLUMNS
               if name != "sup_phi"}
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(records, str(path))
    lines = path.read_text().splitlines()
    assert lines[2] == "nan,nan,nan,nan,nan,,nan"
    read = read_diagnostics_csv(str(path))
    assert tuple(read) == tuple(records)
    assert np.isnan(read["barrier_margin"][1])
    assert read["barrier_margin"][[0, 2]].tolist() == [0.5, 2.0]


def test_no_lift_off_artifacts_with_monitor_columns(tmp_path):
    out = str(tmp_path / "out")
    cfg = {
        "scenario": "no_lift_off",
        "metric": {"family": "conformal_power", "n": 3, "a": 0.5, "tau": 1.0},
        "domain": {"lo": 0.5, "hi": 20.0},
        "initial_data": {"family": "radial_bump", "height": 0.3,
                         "rise": [1.0, 2.0], "fall": [3.0, 5.0]},
        "solver": {"h": 0.1, "t_end": 1.0, "snapshot_every": 0.5,
                   "record_every": 0.25},
        "barrier": {"eps": 0.05, "r1_min": 1.0},
        "output_dir": out,
    }
    path = write_config(tmp_path, "nlo.json", cfg)
    assert main(["simulate", path]) == 0
    recs = read_diagnostics_csv(os.path.join(out, "diagnostics.csv"))
    assert tuple(recs) == COLUMNS
    assert np.all(recs["barrier_margin"] > 0)
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["ricci_constant"] > 0


def test_sweep_nested_balls(tmp_path, capsys):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, "c.json", nested_config(out))
    assert main(["sweep", path]) == 0
    assert "max difference" in capsys.readouterr().out
    summary = json.load(open(os.path.join(out, "sweep_summary.json")))
    assert len(summary["rows"]) == 1
    assert "halt_messages" not in summary  # only sweeps with a halted run


def nested_config(out_dir):
    return {
        "scenario": "nested_balls",
        "sweep": {"parameter": "R", "values": [2, 3]},
        "metric": {"family": "euclidean", "n": 3},
        "domain": {"lo": 0.0},
        "initial_data": {"family": "bump", "height": 0.3, "plateau": 0.25,
                         "support": 1.0},
        "solver": {"h": 0.1, "t_end": 1.0, "snapshot_every": 0.25},
        "output_dir": out_dir,
    }


def test_simulate_nested_balls_is_a_config_error(tmp_path, capsys):
    # the study runs under `sweep` only; simulate refuses it before any run
    path = write_config(tmp_path, "c.json",
                        nested_config(str(tmp_path / "out")))
    assert main(["simulate", path]) == 2
    err = capsys.readouterr().err
    assert "config error: scenario:" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "out")


def test_nested_sweep_reports_whether_differences_decrease(tmp_path,
                                                           monkeypatch):
    cfg = nested_config(str(tmp_path / "out"))
    cfg["sweep"]["values"] = [2, 3, 4]
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", path]) == 0
    summary = json.load(open(tmp_path / "out" / "sweep_summary.json"))
    diffs = [row["max_difference"] for row in summary["rows"]]
    assert diffs[0] > diffs[1] > 0.0
    assert summary["differences_decrease"] is True
    assert "warnings" not in summary

    # rising differences are reported, not failed: shifting the balls' runs
    # by 0, 0.1 and 0.3 makes the differences about 0.1 and 0.2
    solve = scenarios.solve_dirichlet

    def shifted(R, *args):
        traj = solve(R, *args)
        shift = {2: 0.0, 3: 0.1, 4: 0.3}[R]
        traj.snapshots = traj.snapshots + shift
        return traj
    monkeypatch.setattr(scenarios, "solve_dirichlet", shifted)
    assert main(["sweep", path]) == 0
    summary = json.load(open(tmp_path / "out" / "sweep_summary.json"))
    assert summary["differences_decrease"] is False
    assert summary["pass"] is True


def test_nested_sweep_keeps_a_nan_difference(tmp_path, monkeypatch):
    solve = scenarios.solve_dirichlet

    def nan_in_window(R, *args):
        traj = solve(R, *args)
        if R == 3:  # a NaN at r = 0 of the last snapshot of one ball
            traj.snapshots[-1, 0] = np.nan
        return traj
    monkeypatch.setattr(scenarios, "solve_dirichlet", nan_in_window)
    cfg = nested_config(str(tmp_path / "out"))
    summary = scenarios.run_nested_sweep(ScenarioConfig.from_dict(cfg))
    assert math.isnan(summary["rows"][0]["max_difference"])


def test_dirichlet_domination_margin_is_interior(tmp_path):
    # the pinned outer node, where profile and run are both zero, is left
    # out: the worst margin is that of the interior, above zero
    raw = dirichlet_sweep_config(str(tmp_path / "out"), [2, 3])
    cfg = ScenarioConfig.from_dict(raw)
    for R in (2, 3):
        check = next(c for c in run_dirichlet_case(cfg, R)[0]["checks"]
                     if c["name"] == "dirichlet_domination")
        assert check["pass"] and check["worst_margin"] > 0.0


def test_dirichlet_domination_fails_on_a_nan(tmp_path, monkeypatch):
    solve = scenarios.solve_dirichlet

    def nan_inside(R, *args):
        traj = solve(R, *args)
        last = traj.snapshots[-1]
        last[len(last) // 2] = np.nan
        return traj
    monkeypatch.setattr(scenarios, "solve_dirichlet", nan_inside)
    cfg = ScenarioConfig.from_dict(
        dirichlet_sweep_config(str(tmp_path / "out"), [2, 3]))
    check = next(c for c in run_dirichlet_case(cfg, 3)[0]["checks"]
                 if c["name"] == "dirichlet_domination")
    assert check["pass"] is False
    assert math.isnan(check["worst_margin"])


@pytest.mark.parametrize("values", [[1, 4], [4, 0.5]])
def test_sweep_radius_below_two_is_config_error(tmp_path, capsys, values):
    cfg = dirichlet_sweep_config(str(tmp_path / "out"), values)
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", path]) == 2
    assert "config error: sweep.values: radii must be >= 2.0" in \
        capsys.readouterr().err
    nested = dict(cfg, scenario="nested_balls")
    assert main(["sweep", write_config(tmp_path, "n.json", nested)]) == 2


def test_sweep_radii_sharing_a_run_directory_exit_2(tmp_path, capsys):
    cfg = dirichlet_sweep_config(str(tmp_path / "out"), [4, 4.0000001])
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", path]) == 2
    err = capsys.readouterr().err
    assert "config error: sweep.values:" in err
    assert "Traceback" not in err
    assert not os.path.exists(str(tmp_path / "out"))


@pytest.mark.parametrize("bad", ["ab", [1.0], [-1.7, "x"], 3])
def test_sweep_bound_exponent_range_is_validated(tmp_path, capsys, bad):
    cfg = dirichlet_sweep_config(str(tmp_path / "out"), [2, 3])
    cfg["expected_bound_exponent_range"] = bad
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", path]) == 2
    assert ("config error: expected_bound_exponent_range: expected a pair"
            in capsys.readouterr().err)
    assert not os.path.exists(str(tmp_path / "out"))


def test_sweep_unknown_parameter(tmp_path, capsys):
    cfg = dirichlet_sweep_config(str(tmp_path / "out"), [2, 3])
    cfg["sweep"]["parameter"] = "h"
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", path]) == 2


# ---------------------------------------------------------------------------
# scenario runners against shipped configs (downscaled)
# ---------------------------------------------------------------------------

def test_shipped_configs_parse():
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in os.listdir(here):
        raw = json.load(open(os.path.join(here, name)))
        ScenarioConfig.from_dict(raw)


def test_barrier_verify_scenario_runs():
    raw = {
        "scenario": "barrier_verify",
        "metric": {"family": "conformal_power", "n": 3, "a": 0.5, "tau": 1.0},
        "barrier": {"r1_min": 5.0, "h": 1.0, "eps": 0.0},
        "sample_radii": 64,
    }
    summary, trajectory = run_scenario_config(ScenarioConfig.from_dict(raw))
    assert summary["pass"] and trajectory is None
    assert len(summary["rows"]) == 64


@pytest.mark.parametrize("x0", [[float("nan"), 0, 0], [0, float("inf"), 0],
                                [0, 0], [0, 0, 0, 0], 0, "0,0,0", None])
def test_translating_center_is_validated(tmp_path, capsys, x0):
    cfg = shipped_config("translating_verify.json")
    cfg["translating"]["x0"] = x0
    path = write_config(tmp_path, "c.json", cfg)  # json reads NaN, Infinity
    assert main(["simulate", path, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: translating.x0" in err and "Traceback" not in err


def test_translating_verify_scenario_runs():
    raw = {
        "scenario": "translating_verify",
        "metric": {"family": "euclidean", "n": 3},
        "translating": {"t0": -4.0, "mu": 0.5, "alpha": 0.1},
    }
    summary, trajectory = run_scenario_config(ScenarioConfig.from_dict(raw))
    assert summary["pass"] and trajectory is None
    cert = summary["certificate"]
    assert cert["rho"] == pytest.approx(12.0)


#: Runs of the shipped configs: every config once, a dirichlet sweep also
#: across worker processes.
SHIPPED_RUNS = [("decay_study.json", "simulate", ()),
                ("no_lift_off.json", "simulate", ()),
                ("dirichlet_sweep.json", "sweep", ()),
                ("dirichlet_sweep.json", "sweep", ("--workers", "2")),
                ("nested_balls.json", "sweep", ()),
                ("barrier_verify.json", "simulate", ()),
                ("translating_verify.json", "simulate", ())]


def test_shipped_configs_run_without_scipy(tmp_path):
    # a fresh interpreter whose import system refuses scipy runs every
    # shipped config (shortened) through the CLI: mcflow needs only numpy
    runs = []
    for i, (name, command, flags) in enumerate(SHIPPED_RUNS):
        raw = shipped_config_short(name)
        if name == "decay_study.json":  # its exponent check needs t >= 10
            raw["solver"].update(t_end=100.0, record_every=0.5)
            raw["fit_window"] = [10.0, 100.0]
        config = write_config(tmp_path, name, raw)
        runs.append([command, config, "--output-dir",
                     str(tmp_path / f"out{i}"), *flags])
    code = "\n".join([
        "import contextlib, importlib.abc, io, json, sys",
        "class NoScipy(importlib.abc.MetaPathFinder):",
        "    def find_spec(self, name, path=None, target=None):",
        "        if name.split('.')[0] == 'scipy':",
        "            raise ImportError(f'{name} is not installed')",
        "sys.meta_path.insert(0, NoScipy())",
        "try:",
        "    import scipy",
        "except ImportError:",
        "    pass",
        "else:",
        "    sys.exit('the finder let scipy in')",
        "from mcflow.cli import main",
        "codes = []",
        f"for argv in {runs!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        codes.append(main(argv))",
        "print(json.dumps(codes))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(mcflow.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(runs), (codes, proc.stderr)
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# exit-code contract under malformed configs
# ---------------------------------------------------------------------------

#: Replacement values: wrong types, out-of-range and non-integral numbers,
#: malformed pairs and lists.  Magnitudes stay small: a large dimension or
#: domain is valid input that costs memory in proportion, not malformed.
MUTANT_VALUES = [0, -1, 1, 2.5, 3.7, -0.5, 40, "ab", None, True, [], {},
                 [1, 4], [2.0, 1.0], [0.5, 0.5, 0.5]]


def shipped_config_short(name):
    """A shipped config with t_end at most 1 and cadences at most 0.5."""
    raw = shipped_config(name)
    raw.pop("output_dir", None)
    solver = raw.get("solver")
    if solver is not None:
        solver["t_end"] = min(solver["t_end"], 1.0)
        for key in ("snapshot_every", "record_every"):
            if key in solver:
                solver[key] = min(solver[key], 0.5)
        if raw["scenario"] == "decay_study":
            solver["record_every"] = 0.05
            raw["fit_window"] = [0.1, 1.0]
    return raw


def entry_paths(obj, path=()):
    """Paths of every entry below `obj`: dict keys and list indices."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from entry_paths(value, path + (key,))


@given(data=st.data())
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_shipped_configs_keep_the_exit_code_contract(data):
    name = data.draw(st.sampled_from(sorted(os.listdir(os.path.join(
        os.path.dirname(__file__), "..", "configs")))))
    raw = shipped_config_short(name)
    path = data.draw(st.sampled_from(list(entry_paths(raw))))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(MUTANT_VALUES))
    commands = ["simulate"]
    if "sweep" in raw:  # a shipped sweep runs under `sweep` only
        commands = (["sweep"] if raw.get("scenario") in SWEEP_SCENARIOS
                    else ["simulate", "sweep"])
    command = data.draw(st.sampled_from(commands))
    # one step never ends a shortened flow: a first step is dt_FE long,
    # and it stops at the first snapshot mark, before t_end, at the latest
    capped = isinstance(raw.get("solver"), dict) and data.draw(st.booleans())
    if capped:
        raw["solver"]["max_steps"] = 1
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "c.json")
        with open(config, "w") as fh:
            json.dump(raw, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            # an exception escaping main is a traceback at the shell
            code = main([command, config, "--output-dir",
                         os.path.join(tmp, "out")])
    assert code in ((1, 2, 3) if capped else (0, 1, 2, 3))
