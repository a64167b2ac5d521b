import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflow import solver
from mcflow.barriers import maximal_slope, supersolution_height
from mcflow.fields import Field, check_node_slopes, line_field, radial_field
from mcflow.geometry import (DomainError, SpacelikeViolationError,
                             conformal_metric, euclidean_metric)
from mcflow.initial_data import smooth_cutoff
from mcflow.scenarios import (ScenarioConfig, build_field_from_config,
                              run_nested_sweep)
from mcflow.solver import (SolverConfig, run_flow, solve_dirichlet, stable_dt,
                           step_1d, step_radial)


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def gaussian(height, sigma):
    return lambda x: height * np.exp(-x * x / (2 * sigma * sigma))


# ---------------------------------------------------------------------------
# field validation
# ---------------------------------------------------------------------------

def test_field_validation():
    with pytest.raises(ValueError):
        Field(kind="line", nodes=np.array([0.0, 0.1, 0.3]),
              values=np.zeros(3), h=0.1, bc=("dirichlet_zero",) * 2)
    with pytest.raises(ValueError):
        Field(kind="line", nodes=np.arange(3.0), values=np.zeros(3), h=1.0,
              bc=("axis_symmetry", "dirichlet_zero"))
    # node-to-node slope 1 is not spacelike: `check_node_slopes` says so,
    # by the metric's rule, not the grid
    steep = Field(kind="line", nodes=np.arange(3.0),
                  values=np.array([0.0, 1.0, 2.0]), h=1.0,
                  bc=("dirichlet_zero",) * 2)
    with pytest.raises(ValueError, match="slope 1 >= 1 between x = 0 and 1"):
        check_node_slopes(steep, None)
    # axis tag only at r = 0
    with pytest.raises(ValueError):
        Field(kind="radial", nodes=np.array([1.0, 2.0, 3.0]),
              values=np.zeros(3), h=1.0,
              bc=("axis_symmetry", "dirichlet_zero"))


@pytest.mark.parametrize("name, value", [
    ("record_every", -0.05), ("record_every", math.nan),
    ("record_every", math.inf), ("snapshot_every", -0.25),
    ("snapshot_every", math.nan), ("snapshot_every", math.inf),
    ("t_end", math.nan), ("t_end", math.inf), ("t_end", 0.0),
    ("max_steps", 0), ("max_steps", -5), ("cfl_safety", math.nan),
])
def test_solver_config_rejects_a_bad_field(name, value):
    # built, never run: a run at record_every -0.05 would not end
    with pytest.raises(ValueError, match=f"^{name} must be"):
        SolverConfig(**{"t_end": 1.0, name: value})


# ---------------------------------------------------------------------------
# stable step size
# ---------------------------------------------------------------------------

def test_stable_dt_flat_zero():
    cfg = SolverConfig(t_end=1.0, cfl_safety=0.5)
    fld = line_field(-1.0, 1.0, 0.01, lambda x: np.zeros_like(x))
    assert stable_dt(fld, euclidean_metric(1), cfg) == pytest.approx(2.5e-5,
                                                                     rel=1e-12)


def test_stable_dt_slope_dependence():
    cfg = SolverConfig(t_end=1.0, cfl_safety=0.5)
    fld = replace(line_field(-1.0, 1.0, 0.01, lambda x: 0.8 * x),
                  bc=("asymptotic_decay", "asymptotic_decay"))
    # coefficient 1 / (1 - 0.64)
    assert stable_dt(fld, euclidean_metric(1), cfg) == pytest.approx(9e-6,
                                                                     rel=1e-9)


def test_stable_dt_h_squared_scaling():
    m = euclidean_metric(1)
    f1 = line_field(-1.0, 1.0, 0.01, gaussian(0.3, 0.5))
    f2 = line_field(-1.0, 1.0, 0.02, gaussian(0.3, 0.5))
    cfg = SolverConfig(t_end=1.0)
    ratio = stable_dt(f2, m, cfg) / stable_dt(f1, m, cfg)
    assert ratio == pytest.approx(4.0, rel=1e-3)


def test_stable_dt_axis_coefficient():
    cfg = SolverConfig(t_end=1.0, cfl_safety=1.0)
    fld = radial_field(0.0, 5.0, 0.1, lambda r: np.zeros_like(r))
    # at rest (every a_i = 1) the axis term is the balanced Gershgorin bound
    # n (1 + delta*)/2 for n <= 3, where n = 3 has e = 0 and the bound
    # max(2n, 3 + 1)/4, and n itself from n = 4 on
    for n, coeff in ((1, 1.0), (2, (15.0 + math.sqrt(33.0)) / 16.0),
                     (3, 1.5), (4, 4.0), (5, 5.0)):
        assert stable_dt(fld, euclidean_metric(n), cfg) == pytest.approx(
            1.0 * 0.01 / (2 * coeff), rel=1e-12)


def frozen_jacobian(engine):
    """The frozen-coefficient operator of an axis grid with a pinned outer
    end, from the engine's own principal coefficients a_i, and the a_i:
    rows 0 .. N-2 (the pinned end is dropped), the axis row
    2n (u_1 - u_0)/h^2 and, inside,
        a_i (u_{i+1} - 2 u_i + u_{i-1})/h^2
        + (n - 1)/(2 i) (u_{i+1} - u_{i-1})/h^2.
    Needs `engine.step_bounds` to have formed C."""
    h, n = engine.h, engine.n
    a = 4.0 * h * h / engine.comp
    size = engine.u.size - 1
    jac = np.zeros((size, size))
    jac[0, :2] = -2.0 * n, 2.0 * n
    for i in range(1, size):
        drift = 0.5 * (n - 1) / i
        jac[i, i - 1:i + 1] = a[i - 1] - drift, -2.0 * a[i - 1]
        if i + 1 < size:
            jac[i, i + 1] = a[i - 1] + drift
    return jac / (h * h), a


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 5),
       slopes=st.lists(st.floats(-0.999, 0.999), min_size=3, max_size=40))
def test_axis_coefficient_bounds_the_spectrum(n, slopes):
    # any spacelike state on an axis grid with a pinned outer end: the
    # stage unit's coefficient bounds every eigenvalue of the frozen
    # operator, 4 coeff/h^2 >= max |lambda| (to eigvals' rounding)
    h = 0.1
    values = np.concatenate([[0.0], np.cumsum(slopes)]) * h
    values -= values[-1]
    fld = Field(kind="radial", nodes=h * np.arange(values.size),
                values=values, h=h, bc=("axis_symmetry", "dirichlet_zero"))
    engine = solver._Engine(fld, euclidean_metric(n))
    engine.step_bounds(0.9)
    coeff = engine.coeff
    jac, a = frozen_jacobian(engine)
    radius = float(np.max(np.abs(np.linalg.eigvals(jac))))
    assert radius <= 4.0 * coeff / h ** 2 * (1.0 + 1e-12)
    if n >= 4:  # the axis term stays n
        assert coeff == max(float(np.max(a)), float(n))
    else:
        assert coeff <= max(float(np.max(a)), float(n))


def stage_limit_run(n, coeff=None, steps=60, stages=20):
    """(coeff, sup|u| before, sup|u| after) `steps` RKL2 super-steps of
    `stages` stages at the longest step they allow in units of
    dt_FE = cfl h^2/(2 coeff) (the engine's own coefficient when None),
    with no error control, from 1e-8 noise on the ball of radius R^2 = 16
    at h = 0.0625."""
    h, cfl = 0.0625, 0.9
    noise = np.random.default_rng(7).uniform(-1e-8, 1e-8, 257)
    noise[-1] = 0.0
    fld = Field(kind="radial", nodes=h * np.arange(257), values=noise, h=h,
                bc=("axis_symmetry", "dirichlet_zero"))
    engine = solver._Engine(fld, euclidean_metric(n))
    engine.step_bounds(cfl)
    coeff = engine.coeff if coeff is None else coeff
    dt_fe = cfl * h * h / (2.0 * coeff)
    tau = dt_fe * (stages * stages + stages - 2) / 4.0
    assert solver.rkl2_stages(tau, dt_fe) == stages
    for _ in range(steps):
        engine.rkl2(tau, dt_fe)
        engine._accept()
    return coeff, float(np.max(np.abs(noise))), float(np.max(np.abs(engine.u)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10])
def test_axis_grids_are_stable_at_the_stage_limit(n):
    # the stage unit of the engine's coefficient: the balanced axis bound
    # for n <= 3, n from n = 4 on
    coeff, before, after = stage_limit_run(n)
    assert (coeff == n) == (n >= 4)
    assert after < before


def test_stage_limit_run_breaks_under_a_too_small_coefficient():
    # the control: n/2 at n = 2 sits below the axis row's spectrum
    with pytest.raises(SpacelikeViolationError):
        stage_limit_run(2, coeff=1.0)


@pytest.mark.xfail(raises=SpacelikeViolationError, strict=True,
                   reason="for large n the axis term n does not keep RKL2 "
                          "stable: node 1's coupling to the axis is negative "
                          "and the spectrum complex")
def test_axis_grid_in_dimension_40_is_stable_at_the_stage_limit():
    _, before, after = stage_limit_run(40)
    assert after < before


def test_axis_error_rejections_stop_at_the_gershgorin_floor():
    # the stages count in dt_FE of the coefficient 3/2, but a run starts,
    # and error rejections stop, at cfl h^2/(2 max(a, n)) = cfl h^2/6
    cfg = SolverConfig(t_end=1.0)
    fld = radial_field(0.0, 5.0, 0.1, gaussian(0.3, 1.0))
    engine = solver._Engine(fld, euclidean_metric(3))
    floor = cfg.cfl_safety * 0.1 * 0.1 / (2 * 3.0)
    assert 1.99 * floor < stable_dt(fld, euclidean_metric(3), cfg) <= 2 * floor
    assert engine.super_step(None, math.inf, cfg.cfl_safety, 0.0)[0] == floor
    assert engine.super_step(100.0 * floor, math.inf, cfg.cfl_safety,
                             0.0)[0] == floor


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_step_1d_zero_fixed_point():
    cfg = SolverConfig(t_end=1.0)
    fld = line_field(-2.0, 2.0, 0.05, lambda x: np.zeros_like(x))
    out, dt = step_1d(fld, cfg)
    assert dt > 0
    assert np.all(out.values == 0.0)


def test_step_1d_linear_segment_stationary():
    cfg = SolverConfig(t_end=1.0)
    fld = replace(line_field(-2.0, 2.0, 0.05, lambda x: 0.5 * x),
                  bc=("asymptotic_decay", "asymptotic_decay"))
    out, _ = step_1d(fld, cfg)
    assert np.max(np.abs(out.values - fld.values)) < 1e-15


def test_step_1d_spacelike_violation(monkeypatch):
    cfg = SolverConfig(t_end=1.0)
    slope = 1.0 - 1e-13
    nodes = np.arange(-2.0, 2.0 + 1e-9, 0.05)
    fld = Field(kind="line", nodes=nodes, values=slope * nodes, h=0.05,
                bc=("asymptotic_decay", "asymptotic_decay"))
    with pytest.raises(SpacelikeViolationError):
        step_1d(fld, cfg)
    monkeypatch.setattr(solver, "MAX_DT_HALVINGS", 0)
    with pytest.raises(SpacelikeViolationError):
        step_1d(fld, cfg)


def test_step_radial_zero_fixed_point():
    cfg = SolverConfig(t_end=1.0)
    fld = radial_field(0.0, 5.0, 0.05, lambda r: np.zeros_like(r))
    out, _ = step_radial(fld, euclidean_metric(3), 3, cfg)
    assert np.all(out.values == 0.0)


@pytest.mark.parametrize("n", [2, 4])
def test_step_radial_steps_only_in_the_metric_dimension(n):
    fld = radial_field(0.0, 5.0, 0.05, lambda r: np.zeros_like(r))
    with pytest.raises(ValueError, match=f"dimension 3, got n = {n}$"):
        step_radial(fld, euclidean_metric(3), n, SolverConfig(t_end=1.0))


def test_step_radial_exact_profile_nearly_stationary():
    # the exact stationary profile moves only by truncation error, and the
    # residual speed shrinks at second order under grid refinement
    flat = euclidean_metric(3)

    def residual(h):
        nodes = np.arange(1.0, 8.0 + h / 2, h)
        beta = np.array([supersolution_height(3, 1.0, 1.0)
                         - _beta_height_gap(r) for r in nodes])
        fld = Field(kind="radial", nodes=nodes, values=beta, h=h,
                    bc=("asymptotic_decay", "asymptotic_decay"))
        cfg = SolverConfig(t_end=1.0)
        out, dt = step_radial(fld, flat, 3, cfg)
        return np.max(np.abs(out.values - fld.values)) / dt

    def _beta_height_gap(r):
        # integral of -beta' from 1 to r via dense trapezoid
        s = np.linspace(1.0, max(r, 1.0 + 1e-12), 4001)
        return np.trapezoid(-maximal_slope(3, 1.0, s), s)

    r1, r2 = residual(0.04), residual(0.02)
    assert r1 < 2e-3
    assert r1 / r2 == pytest.approx(4.0, abs=1.0)


def test_evolved_exact_profile_drift_is_second_order():
    # evolve the stationary profile with pinned ends to a fixed time; the
    # sup-norm drift from the initial profile is pure truncation error and
    # shrinks by ~4 when h halves
    flat = euclidean_metric(3)
    t_end = 0.25

    xg, wg = np.polynomial.legendre.leggauss(8)

    def drift(h):
        nodes = np.arange(1.0, 8.0 + h / 2, h)
        # integral of -beta' from 1 to each node: 8-point Gauss-Legendre on
        # each grid panel, accumulated outward
        lo, hi = nodes[:-1, None], nodes[1:, None]
        s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xg
        panels = (-maximal_slope(3, 1.0, s) @ wg) * 0.5 * (hi - lo)[:, 0]
        gaps = np.concatenate([[0.0], np.cumsum(panels)])
        beta = gaps.max() - gaps  # decreasing, beta(8) = 0
        fld = Field(kind="radial", nodes=nodes, values=beta, h=h,
                    bc=("asymptotic_decay", "asymptotic_decay"))
        cfl = SolverConfig(t_end=t_end).cfl_safety
        t = 0.0
        while t < t_end - 1e-12:  # `step_radial`'s steps, the last capped
            engine = solver._Engine(fld, flat)
            t += engine.super_step(None, t_end - t, cfl, math.inf)[0]
            fld = replace(fld, values=engine.u)
        return float(np.max(np.abs(fld.values - beta)))

    d1, d2 = drift(0.04), drift(0.02)
    assert d1 < 1e-3        # small drift at all, C h^2 t scale
    assert 3.5 <= d1 / d2 <= 4.5


def test_step_radial_static_profile_descends():
    # one step on the static upper profile: the discrete speed is negative
    # up to the measured O(h^2) truncation constant
    flat = euclidean_metric(3)

    def max_speed(h):
        nodes = np.arange(2.0, 12.0 + h / 2, h)
        heights = np.array([supersolution_height(3, 2.0, r) for r in nodes])
        fld = Field(kind="radial", nodes=nodes, values=heights, h=h,
                    bc=("asymptotic_decay", "asymptotic_decay"))
        cfg = SolverConfig(t_end=1.0)
        out, dt = step_radial(fld, flat, 3, cfg)
        return float(np.max((out.values - fld.values)[1:-1]) / dt)

    s1, s2 = max_speed(0.05), max_speed(0.025)
    tol_grid_1 = abs(s2 - s1) * 8  # generous multiple of the measured h^2 term
    assert s1 <= max(0.0, tol_grid_1)
    assert s1 < 0.0 or s1 < 1e-3


def test_step_radial_keeps_states_steeper_than_the_flat_bound():
    # on w = 1 + 0.5/r the solver's bound |u_{i+1} - u_i| / (h w) < 1
    # admits node slopes above the flat bound |u_{i+1} - u_i| / h < 1 that a
    # Field checks at construction; a step returns such a state
    curved = conformal_metric(3, 0.5, 1.0)
    h = 0.01
    nodes = 0.5 + h * np.arange(451)
    fld = Field(kind="radial", nodes=nodes,
                values=0.995 * np.maximum(2.0 - nodes, 0.0), h=h,
                bc=("asymptotic_decay", "dirichlet_zero"))
    cfg = SolverConfig(t_end=1.0)
    steepest = 0.0
    for _ in range(50):
        fld, _ = step_radial(fld, curved, 3, cfg)
        steepest = max(steepest, float(np.max(np.abs(np.diff(fld.values))))
                       / h)
    assert steepest > 1.0


def test_axis_grid_on_a_curved_metric_is_refused():
    # w(r) = 1 + 0.5/r is singular at r = 0, where the flat axis rule would
    # apply: no step is taken
    fld = radial_field(0.0, 10.0, 0.05, lambda r: 0.3 * np.exp(-r * r / 2),
                       bc=("axis_symmetry", "dirichlet_zero"))
    with pytest.raises(DomainError, match="axis grid"):
        run_flow(conformal_metric(3, 0.5, 1.0), fld,
                 SolverConfig(t_end=0.1))
    flat = run_flow(euclidean_metric(3), fld, SolverConfig(t_end=0.1))
    assert flat.termination == "reached_t_end"


def test_axis_rule_uses_even_reflection():
    cfg = SolverConfig(t_end=1.0)
    fld = radial_field(0.0, 2.0, 0.02, lambda r: 0.2 * np.cos(r),
                       bc=("axis_symmetry", "asymptotic_decay"))
    out, dt = step_radial(fld, euclidean_metric(3), 3, cfg)
    # analytic limit: n u''(0) = -0.6 cos(0); the rule itself is
    # test_speed_at_the_axis_node_is_the_even_reflection_rule
    assert (out.values[0] - fld.values[0]) / dt == pytest.approx(-0.6, abs=2e-3)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_flow_zero_trajectory():
    cfg = SolverConfig(t_end=0.5, snapshot_every=0.1)
    fld = line_field(-5.0, 5.0, 0.05, lambda x: np.zeros_like(x))
    traj = run_flow(euclidean_metric(1), fld, cfg)
    assert traj.termination == "reached_t_end"
    for snap in traj.snapshots:
        assert np.all(snap == 0.0)
    times = traj.times.tolist()
    assert times == sorted(times)
    assert all(b > a for a, b in zip(times, times[1:]))


def test_run_flow_bump_sup_monotone():
    cfg = SolverConfig(t_end=2.0, snapshot_every=0.5,
                       record_every=0.1)
    fld = line_field(-20.0, 20.0, 0.05, gaussian(0.5, 1.0))
    traj = run_flow(euclidean_metric(1), fld, cfg)
    sups = traj.records["sup_u"]
    assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 0.5


def test_run_flow_requires_decayed_edges():
    cfg = SolverConfig(t_end=1.0)
    fld = line_field(-3.0, 3.0, 0.05, gaussian(0.5, 2.0))  # edge ~ 0.16 sup
    with pytest.raises(ValueError):
        run_flow(euclidean_metric(1), fld, cfg)


def test_run_flow_self_convergence_richardson():
    sups = {}
    for h in (0.1, 0.05, 0.025):
        cfg = SolverConfig(t_end=0.25, snapshot_every=0.25)
        fld = line_field(-10.0, 10.0, h, gaussian(0.5, 0.8))
        traj = run_flow(euclidean_metric(1), fld, cfg)
        sups[h] = float(np.max(np.abs(traj.snapshots[-1])))
    ratio = (sups[0.1] - sups[0.05]) / (sups[0.05] - sups[0.025])
    assert 3.0 < ratio < 5.0


def no_lift_off_capped(t_end, max_steps):
    """configs/no_lift_off.json to `t_end`, at most `max_steps` steps."""
    with open(os.path.join(CONFIG_DIR, "no_lift_off.json")) as fh:
        raw = json.load(fh)
    raw["solver"].update(t_end=t_end, max_steps=max_steps)
    cfg = ScenarioConfig.from_dict(raw)
    return cfg.metric, build_field_from_config(cfg, "radial"), cfg.solver


def test_run_flow_max_steps_cap():
    # (metric, data, config, the snapshot times kept or None, the record
    # times kept or None), None where the stop time is not known ahead
    line = line_field(-20.0, 20.0, 0.05, gaussian(0.5, 1.0))
    smoke = line_field(-10.0, 10.0, 0.1, gaussian(0.4, 1.0))
    smoke_cfg = SolverConfig(t_end=0.5, snapshot_every=0.25,
                             record_every=0.05, max_steps=33)
    # steps end only on t_end, so a cap stops inside a snapshot interval:
    # the marks before the stop come from the steps' interpolants, the stop
    # from the state
    stop = 0.2502113412755282  # smoke's 33rd step ends just past 0.25
    cases = [
        # stops before the first mark
        (euclidean_metric(1), line, SolverConfig(t_end=10.0, max_steps=10),
         None, None),
        # the last step holds a snapshot and record mark
        (euclidean_metric(1), smoke, smoke_cfg, [0.0, 0.25, stop],
         [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, stop]),
        (*no_lift_off_capped(20.0, 429), [0.0, 10.0, 10.053889394541336],
         [*map(float, range(11)), 10.053889394541336]),
        # the last step holds a snapshot mark that is not a record mark
        (euclidean_metric(1), smoke, replace(smoke_cfg, record_every=0.1),
         [0.0, 0.25, stop], [0.0, 0.1, 0.2, stop]),
    ]
    for metric, fld, cfg, times, record_times in cases:
        traj = run_flow(metric, fld, cfg)
        assert traj.termination == "step_cap"
        assert traj.steps == cfg.max_steps
        t = traj.records["t"]
        assert np.all(np.diff(traj.times) > 0.0) and np.all(np.diff(t) > 0.0)
        # the run records and snapshots the state it stopped at
        t_stop = traj.times[-1]
        assert t[-1] == t_stop
        assert traj.snapshots.shape == (len(traj.times), fld.nodes.size)
        assert traj.records["sup_u"][-1] == np.max(np.abs(traj.snapshots[-1]))
        assert traj.records["sup_u"][-1] < traj.records["sup_u"][0]
        if times is None:
            assert 0.0 < t_stop < cfg.snapshot_cadence
            assert traj.times.tolist() == t.tolist() == [0.0, t_stop]
        else:
            assert traj.times.tolist() == times
            assert t.tolist() == pytest.approx(record_times, abs=1e-12)


def test_a_run_ends_its_steps_on_the_config_snapshot_times():
    # the mark 0.75 lies within 1e-12 below t_end: the run ends there
    cfg = SolverConfig(t_end=0.75 + 5e-13, snapshot_every=0.25,
                       record_every=0.1)
    assert cfg.snapshot_times() == [0.0, 0.25, 0.5, 0.75]
    assert SolverConfig(t_end=0.8, snapshot_every=0.25).snapshot_times() \
        == [0.0, 0.25, 0.5, 0.75, 0.8]
    with pytest.raises(ValueError, match="at most 1000000 snapshots"):
        SolverConfig(t_end=1e7, snapshot_every=1.0).snapshot_times()
    fld = line_field(-10.0, 10.0, 0.1, gaussian(0.4, 1.0))
    traj = run_flow(euclidean_metric(1), fld, cfg)
    assert traj.termination == "reached_t_end"
    assert traj.times.tolist() == cfg.snapshot_times()
    assert traj.records["t"][-1] == 0.75
    # the snapshot table holds a row per snapshot time, no spare rows
    assert traj.snapshots.base.shape == traj.snapshots.shape


def test_solve_dirichlet_zero_data():
    cfg = SolverConfig(t_end=0.5, snapshot_every=0.25)
    fld = radial_field(0.0, 9.0, 0.1, lambda r: np.zeros_like(r))
    traj = solve_dirichlet(3.0, euclidean_metric(3), fld, cfg)
    assert traj.termination == "reached_t_end"
    for snap in traj.snapshots:
        assert np.all(snap == 0.0)


def test_solve_dirichlet_sup_inf_preserved():
    cfg = SolverConfig(t_end=1.0, snapshot_every=0.2)
    fld = radial_field(0.0, 9.0, 0.05,
                       lambda r: 0.4 * smooth_cutoff(0.5, 2.0, r))
    traj = solve_dirichlet(3.0, euclidean_metric(3), fld, cfg)
    u0 = traj.snapshots[0]
    lo, hi = u0.min(), u0.max()
    for snap in traj.snapshots:
        assert snap.min() >= lo - 1e-9
        assert snap.max() <= hi + 1e-9


def test_solve_dirichlet_grid_mismatch_rejected():
    cfg = SolverConfig(t_end=0.5)
    fld = radial_field(0.0, 5.0, 0.1, lambda r: np.zeros_like(r))
    with pytest.raises(ValueError):
        solve_dirichlet(3.0, euclidean_metric(3), fld, cfg)


def nested_config(values, initial_data):
    """A nested-ball sweep config over `values`; the data live on the
    largest ball, [0, max(values)^2]."""
    return ScenarioConfig.from_dict({
        "scenario": "nested_balls",
        "sweep": {"parameter": "R", "values": values},
        "metric": {"family": "euclidean", "n": 3},
        "domain": {"lo": 0.0},
        "initial_data": initial_data,
        "solver": {"h": 0.05, "t_end": 1.0, "snapshot_every": 0.25},
    })


def test_nested_ball_study_zero_and_bump():
    summary = run_nested_sweep(nested_config([3.0, 4.0], {"family": "zero"}))
    rows = summary["rows"]
    assert len(rows) == 1
    assert rows[0]["max_difference"] == 0.0

    bump = {"family": "bump", "height": 0.4, "plateau": 0.25, "support": 1.0}
    summary = run_nested_sweep(nested_config([2.0, 3.0, 5.0], bump))
    rows = summary["rows"]
    assert len(rows) == 2
    assert rows[0]["max_difference"] > 0.0
    # nested runs approach each other as the domain grows
    assert rows[1]["max_difference"] < rows[0]["max_difference"]
    assert summary["terminations"] == ["reached_t_end"] * 3
