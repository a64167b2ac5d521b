"""Diagnostics records from one per-grid plan against the formulas they
replaced.

`reference_record` keeps the per-record arithmetic the plan took over
verbatim: the gradient, w(r), the volume weight and the trapezoid weights
formed afresh from a Field, the tilt factor and the barrier's b_eps
re-evaluated per record.
The plan performs the same operations in the same order, so the two must
agree bit for bit on every recorded state of a run.
"""

import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mcflow import diagnostics, solver
from mcflow.barriers import build_outer_barrier
from mcflow.fields import Field, line_field, radial_field
from mcflow.geometry import (TOL_SPACELIKE, SpacelikeViolationError,
                             euclidean_metric, ricci_form_bound)
from mcflow.initial_data import (decay_radius, interpolate_initial_data,
                                 lipschitz_constant)
from mcflow.scenarios import ScenarioConfig, build_field_from_config
from mcflow.solver import SolverConfig, run_flow, solve_dirichlet

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def reference_gradient(field):
    u, h = field.values, field.h
    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    if field.axis:
        du[0] = 0.0
    return du


def reference_record(field, metric, t, phi_params=None, profile=None):
    r = field.radii()
    w = metric.w(r)
    du = reference_gradient(field)
    sup_u = float(np.max(np.abs(field.values)))
    grad_max = float(np.max(np.abs(du) / w))
    if field.kind == "radial":
        weight = r ** (metric.n - 1) * w ** metric.n
    else:
        weight = np.ones_like(r)
    # the trapezoid rule as one weighted sum per row
    quad = np.full(r.size, field.h)
    quad[[0, -1]] *= 0.5
    quad *= weight
    squares = {"l2": field.values ** 2, "h1": (du / w) ** 2}
    sums = {name: float(np.einsum("ij,j->i", y[None], quad)[0])
            for name, y in squares.items()}
    for name, y in squares.items():  # the rule's own arithmetic, to rounding
        trapezoid = np.trapezoid(y * weight, dx=field.h)
        assert abs(sums[name] - trapezoid) <= 1e-14 * trapezoid
    l2, h1 = np.sqrt(sums["l2"]), np.sqrt(sums["h1"])
    record = {"t": t, "sup_u": sup_u, "grad_max": grad_max, "l2": l2,
              "h1_grad": h1}
    if phi_params is not None:
        lam, mu = phi_params
        p = np.abs(reference_gradient(field)) / metric.w(field.radii())
        assert not np.any(p * p >= 1.0 - TOL_SPACELIKE)
        record["sup_phi"] = float(np.max(
            np.exp(mu * np.exp(lam * field.values)) / np.sqrt(1.0 - p * p)))
    if profile is not None:
        outside = r >= profile.r0
        record["barrier_margin"] = float(np.min(
            profile.value(r[outside]) - np.abs(field.values[outside])))
    return record


def record_rows(records):
    """A run's records, one {name: value} per record time."""
    return [dict(zip(records, values)) for values in zip(*records.values())]


def bits(record):
    return {name: float(x).hex() for name, x in record.items()}


def load(name, **solver):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        raw = json.load(fh)
    raw["solver"].update(solver)
    return ScenarioConfig.from_dict(raw)


def decay_line_run():
    cfg = load("decay_study.json", t_end=2.0, record_every=0.25,
               snapshot_every=0.25)
    u0 = build_field_from_config(cfg, "line")
    return run_flow(cfg.metric, u0, cfg.solver), cfg.metric, None, None


def axis_ball_run():
    # the ball of radius 4 with its axis node, under the blend's metric
    cfg = load("dirichlet_sweep.json", t_end=2.0, record_every=0.25,
               snapshot_every=0.25)
    u0 = build_field_from_config(cfg, "radial", outer=16.0)
    traj = solve_dirichlet(4.0, cfg.metric, u0, cfg.solver)
    eps = min(0.999, 1.0 - lipschitz_constant(cfg.metric, u0))
    sigma_tilde, _ = interpolate_initial_data(cfg.metric, u0, 3.0, 4.0, eps)
    return traj, sigma_tilde, None, None


def curved_run():
    cfg = load("no_lift_off.json", t_end=1.0, record_every=0.1,
               snapshot_every=0.1)
    return curved_run_of(cfg, lam=None)


@pytest.mark.parametrize("run", [decay_line_run, axis_ball_run, curved_run])
def test_plan_records_match_the_formulas_bit_for_bit(run):
    traj, metric, phi, profile = run()
    # snapshots share the record cadence: one state per record
    assert traj.times.tolist() == traj.records["t"].tolist()
    assert len(traj.records["t"]) >= 9
    for rec, t, values in zip(record_rows(traj.records), traj.times,
                              traj.snapshots):
        fld = replace(traj.field, values=values)
        assert bits(rec) == bits(reference_record(fld, metric, t, phi, profile))
        # a one-row plan of the state alone: the same bits
        plan = diagnostics.RecordPlan(fld, metric, phi, profile)
        alone = diagnostics.make_record(plan, fld.values[None], [t])[0]
        assert bits(dict(zip(plan.columns, alone))) == bits(rec)


@pytest.mark.parametrize("run", [decay_line_run, axis_ball_run, curved_run])
def test_snapshots_of_a_run_share_its_grid(run):
    # the snapshot writer formats one grid's nodes for every snapshot: a
    # run holds one C-contiguous table, a row per snapshot time
    traj = run()[0]
    assert len(traj.times) >= 9
    assert traj.snapshots.shape == (len(traj.times), traj.field.nodes.size)
    assert traj.snapshots.flags.c_contiguous


@pytest.mark.parametrize("kind", ["line", "radial"])
def test_plan_matches_the_formulas_on_signed_data(kind):
    # values of both signs beyond r0; on a line the nodes with |x| >= r0
    # are two tails, not a suffix
    metric = (load("no_lift_off.json").metric if kind == "radial"
              else euclidean_metric(1))
    profile = build_outer_barrier(3, r1_min=5.0, h=0.3, eps=0.05)
    grid = radial_field(0.5, 50.0, 0.05, lambda r: np.zeros_like(r)) \
        if kind == "radial" else line_field(-30.0, 30.0, 0.05,
                                            lambda x: np.zeros_like(x))
    values = 0.04 * np.cos(grid.nodes)
    fld = Field(kind=kind, nodes=grid.nodes, values=values, h=grid.h,
                bc=grid.bc)
    phi = (0.0, 0.5)  # lambda = 0 admits data of both signs
    plan = diagnostics.RecordPlan(fld, metric, phi, profile)
    block = diagnostics.make_record(plan, fld.values[None], [0.25])
    assert bits(dict(zip(plan.columns, block[0]))) == bits(reference_record(
        fld, metric, 0.25, phi, profile))


def test_plan_validates_the_monitor_once_and_the_data_per_record():
    cfg = load("no_lift_off.json")
    u0 = build_field_from_config(cfg, "radial")
    with pytest.raises(ValueError, match="mu must be > 0"):
        diagnostics.RecordPlan(u0, cfg.metric, phi_params=(1.0, 0.0))
    with pytest.raises(ValueError, match="lambda must be >= 0"):
        diagnostics.RecordPlan(u0, cfg.metric, phi_params=(-1.0, 1.0))
    plan = diagnostics.RecordPlan(u0, cfg.metric, phi_params=(1.0, 1.0))
    with pytest.raises(ValueError, match="min u >= 0"):
        diagnostics.make_record(plan, -u0.values[None], [0.0])
    steep = u0.values * 0.0
    steep[100] = 0.2  # |u'| = 2 = 0.2 / (2 h) at its neighbours
    with pytest.raises(SpacelikeViolationError):
        diagnostics.make_record(plan, steep[None], [0.0])


@pytest.mark.parametrize("phi, scale, shift", [
    # exp(e^u) overflows once u exceeds about 6.56: in the shifted row only
    ((1.0, 1.0), 1.0, 7.0),
    # exp(709.7) = 1.65e308 is finite; times the tilt factor v it overflows
    # where v > 1.086: max v is 1.023 on the halved data, 1.101 on the data
    ((0.0, 709.7), 0.5, 0.0)], ids=["exp", "product"])
def test_a_later_row_whose_tilt_overflows_names_its_time(phi, scale, shift):
    # no overflow warning reaches the caller
    cfg = load("no_lift_off.json")
    u0 = build_field_from_config(cfg, "radial")
    plan = diagnostics.RecordPlan(u0, cfg.metric, phi_params=phi)
    rows = np.array([scale * u0.values, u0.values + shift])
    blocks = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(solver.RecordError,
                           match=r"^state at t = 0\.75: tilt monitor "
                                 r"overflows") as exc:
            solver._record(blocks, plan, u0, solver._Engine(u0, cfg.metric),
                           [0.5, 0.75], rows, np.diff(rows, axis=1))
    assert f"lambda = {phi[0]:g}, mu = {phi[1]:g}" in str(exc.value)
    assert [block[0, 0] for block in blocks] == [0.5]
    assert np.isfinite(blocks[0][0, plan.columns.index("sup_phi")])


def test_recorded_state_with_unit_node_slope_raises(monkeypatch):
    # a state whose node-to-node slope |u_{i+1} - u_i|/(h w) reaches 1 is
    # not spacelike in the metric, so its record raises; the state is
    # steepened after each accepted step
    original = solver._Engine.super_step

    def steepen(engine, *args, **kwargs):
        out = original(engine, *args, **kwargs)
        engine.u *= 50.0
        np.subtract(engine.u[1:], engine.u[:-1], out=engine.d)
        return out
    monkeypatch.setattr(solver._Engine, "super_step", steepen)
    cfg = load("no_lift_off.json", t_end=1.0, record_every=0.5)
    u0 = build_field_from_config(cfg, "radial")
    with pytest.raises(ValueError, match="node-to-node slope .* >= 1") as exc:
        run_flow(cfg.metric, u0, cfg.solver)
    assert isinstance(exc.value, solver.RecordError)


def test_record_check_reads_the_engine_differences(monkeypatch):
    # the check takes the forward differences the engine keeps: with those
    # steepened alone, the record raises although the values are smooth
    original = solver._Engine.super_step

    def steepen_differences(engine, *args, **kwargs):
        out = original(engine, *args, **kwargs)
        engine.d[len(engine.d) // 2] = 2.0 * engine.h
        return out
    monkeypatch.setattr(solver._Engine, "super_step", steepen_differences)
    cfg = SolverConfig(t_end=0.5, record_every=0.25)
    u0 = build_field_from_config(load("decay_study.json"), "line")
    u0 = type(u0)(kind="line", nodes=u0.nodes[::2], values=u0.values[::2],
                  h=0.1, bc=u0.bc)
    with pytest.raises(ValueError, match="node-to-node slope 2 >= 1"):
        run_flow(load("decay_study.json").metric, u0, cfg)


# ---------------------------------------------------------------------------
# batches: the records inside a super-step from one pass over their rows
# ---------------------------------------------------------------------------

def capture_batches(monkeypatch):
    """Wrap `make_record`, as the solver calls it, to log each batch's rows
    and times; `None` marks each accepted super-step."""
    log = []
    original = diagnostics.make_record
    step = solver._Engine.super_step

    def capture(plan, rows, times):
        log.append((rows.copy(), list(times)))
        return original(plan, rows, times)

    def mark(engine, *args):
        log.append(None)
        return step(engine, *args)
    monkeypatch.setattr(diagnostics, "make_record", capture)
    monkeypatch.setattr(solver._Engine, "super_step", mark)
    return log


def dense_decay_line_run():
    cfg = load("decay_study.json", t_end=20.0, record_every=0.05,
               snapshot_every=5.0)
    u0 = build_field_from_config(cfg, "line")
    return run_flow(cfg.metric, u0, cfg.solver), cfg.metric, None, None


def dense_axis_ball_run():
    cfg = load("dirichlet_sweep.json", t_end=4.0, record_every=0.01,
               snapshot_every=1.0)
    u0 = build_field_from_config(cfg, "radial", outer=16.0)
    traj = solve_dirichlet(4.0, cfg.metric, u0, cfg.solver)
    eps = min(0.999, 1.0 - lipschitz_constant(cfg.metric, u0))
    sigma_tilde, _ = interpolate_initial_data(cfg.metric, u0, 3.0, 4.0, eps)
    return traj, sigma_tilde, None, None


def dense_curved_run():
    # the benchmark's cadence: up to 20 records a step
    cfg = load("no_lift_off.json", t_end=3.0, record_every=0.005,
               snapshot_every=0.1)
    return curved_run_of(cfg, lam=None)


def chunked_curved_run():
    # past t = 2.4 a step holds more records than a batch: it is chunked.
    # The monitor runs at lambda = 0: at lambda = c, this cadence puts a
    # record inside the first step, whose interpolant dips below the
    # monitor's floor min u >= -1e-9 (see CHANGES.md)
    cfg = load("no_lift_off.json", t_end=3.0, record_every=0.001,
               snapshot_every=0.1)
    return curved_run_of(cfg, lam=0.0)


def curved_run_of(cfg, lam):
    """The curved run with its barrier and the tilt monitor at (lam, 1/c),
    lam None meaning the Ricci constant c."""
    u0 = build_field_from_config(cfg, "radial")
    eps = cfg.barrier_eps
    r1 = max(decay_radius(u0, eps), cfg.metric.r_min * 10, cfg.barrier_r1_min)
    profile = build_outer_barrier(cfg.metric.n, r1_min=r1,
                                  h=float(np.max(np.abs(u0.values))), eps=eps,
                                  metric=cfg.metric)
    c = ricci_form_bound(cfg.metric, float(u0.nodes[0]), float(u0.nodes[-1]))
    phi = (c if lam is None else lam, 1.0 / c)
    traj = run_flow(cfg.metric, u0, cfg.solver, phi_params=phi,
                    barrier=profile)
    return traj, cfg.metric, phi, profile


@pytest.mark.parametrize("run", [dense_decay_line_run, dense_axis_ball_run,
                                 dense_curved_run, chunked_curved_run])
def test_batched_records_match_the_formulas_bit_for_bit(run, monkeypatch):
    log = capture_batches(monkeypatch)
    traj, metric, phi, profile = run()
    assert traj.termination == "reached_t_end"
    grid = traj.field
    batches = [entry for entry in log if entry is not None]
    assert sum(len(times) for _, times in batches) == len(traj.records["t"])
    cap = diagnostics.batch_rows(grid.nodes.size)
    largest = max(len(times) for _, times in batches)
    # the line's 8,001 nodes are recorded a row at a time
    assert largest == 1 if cap == 1 else 1 < largest <= cap
    if run is chunked_curved_run:  # a step's records fill two batches
        assert cap == 33
        sizes = [0 if entry is None else len(entry[1]) for entry in log]
        assert any(sizes[i:i + 2] == [0, cap] and sizes[i + 2] > 1
                   for i in range(len(sizes) - 2))
    records = iter(record_rows(traj.records))
    for rows, times in batches:
        for row, t in zip(rows, times):
            assert bits(next(records)) == bits(reference_record(
                replace(grid, values=row), metric, t, phi, profile))


def test_records_do_not_depend_on_the_batch(monkeypatch):
    # the curved run with the tilt monitor and the barrier margin, reduced
    # in batches of up to 33 rows across steps and one row at a time
    runs, largest = {}, {}
    for batch_values in (diagnostics.BATCH_VALUES, 1):
        monkeypatch.setattr(diagnostics, "BATCH_VALUES", batch_values)
        log = capture_batches(monkeypatch)
        runs[batch_values] = dense_curved_run()[0]
        largest[batch_values] = max(len(entry[1]) for entry in log if entry)
        monkeypatch.undo()
    batched, single = runs[diagnostics.BATCH_VALUES], runs[1]
    assert largest == {diagnostics.BATCH_VALUES: 33, 1: 1}
    assert batched.termination == single.termination == "reached_t_end"
    assert batched.steps == single.steps
    assert tuple(batched.records) == diagnostics.COLUMNS
    for name in diagnostics.COLUMNS:
        assert batched.records[name].tobytes() \
            == single.records[name].tobytes()
    assert batched.times.tobytes() == single.times.tobytes()
    assert batched.snapshots.tobytes() == single.snapshots.tobytes()


def test_every_record_of_a_cli_run_passes_through_make_record(tmp_path,
                                                              monkeypatch):
    # the benchmark times records by wrapping `diagnostics.make_record`:
    # every record of a run, inside a step or at its end, is in a batch
    from mcflow.cli import main
    sizes = []
    original = diagnostics.make_record
    monkeypatch.setattr(diagnostics, "make_record", lambda plan, rows, times:
                        sizes.append(len(times)) or original(plan, rows,
                                                             times))
    with open(os.path.join(CONFIG_DIR, "no_lift_off.json")) as fh:
        raw = json.load(fh)
    raw["solver"].update(t_end=5.0, record_every=0.005, snapshot_every=0.1)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--output-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["records"] == 1001 == sum(sizes)
    assert len(sizes) < summary["records"] / 2
