"""The in-place stepping kernel: its operator against a reference copy of
the array-per-operation engine it replaced, the RKL2 super-steps that runs
and single steps take, and the interpolant that records inside a step are
read from.

The reference below keeps that engine's operator verbatim: central
differences formed from the values and the operator written out inline.
The kernel forms its differences from the forward differences instead and
evaluates the operator through `geometry.RadialOperator`, so the two agree
to rounding, not bit for bit.
"""

import importlib.util
import json
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from mcflow import diagnostics, geometry, solver
from mcflow.barriers import build_outer_barrier
from mcflow.fields import Field
from mcflow.geometry import (TOL_SPACELIKE, DomainError, NonFiniteError,
                             SpacelikeViolationError, euclidean_metric,
                             radial_factors)
from mcflow.initial_data import interpolate_initial_data, lipschitz_constant
from mcflow.scenarios import (ScenarioConfig, build_field_from_config,
                              run_dirichlet_case)
from mcflow.fields import radial_field
from mcflow.geometry import conformal_metric
from mcflow.solver import (TIME_ERROR_KAPPA, SolverConfig, rkl2_stages,
                           run_flow, stable_dt, step_1d, step_radial)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
STEPS = 100
EPS = np.finfo(float).eps


class ReferenceEngine:
    """The operator re-derived inline, one new array per operation; the
    arithmetic the in-place kernel's speed is checked against."""

    def __init__(self, kind, nodes, h, bc, metric, n):
        self.kind = kind
        self.h = h
        self.n = n
        self.axis = bc[0] == "axis_symmetry"
        if kind == "line":
            if getattr(metric, "a", 0.0) != 0.0:
                raise DomainError("line problems run on the flat metric")
            self.w_int = np.ones(nodes.size - 2)
            self.fp_int = np.zeros(nodes.size - 2)
            self.r_int = None
        else:
            self.r_int = nodes[1:-1]
            self.w_int, self.fp_int = radial_factors(metric, self.r_int)

    def rhs_and_coeff(self, u):
        h = self.h
        du = (u[2:] - u[:-2]) * (0.5 / h)
        d2u = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
        w = self.w_int
        p2 = (du / w) ** 2
        comp = 1.0 - p2
        if np.any(comp <= TOL_SPACELIKE):
            raise SpacelikeViolationError(
                "interior gradient reached the null slope")
        coeff = float(np.max(1.0 / (w * w * comp)))
        if self.kind == "line":
            rhs = d2u / comp
        else:
            n = self.n
            rhs = (w ** -2 * (d2u + (n - 1) * du / self.r_int
                              + (n - 2) * self.fp_int * du)
                   + w ** -4 * du * du * (d2u - self.fp_int * du) / comp)
        axis_rhs = None
        if self.axis:
            axis_rhs = self.n * 2.0 * (u[1] - u[0]) / (h * h)
            coeff = max(coeff, self.axis_coefficient(1.0 / comp[0]))
        return rhs, axis_rhs, coeff

    def axis_coefficient(self, a1):
        """The axis term of the stability coefficient (axis grids are
        flat), with a1 the coefficient at r = h.  Gershgorin's discs of
        D J D^-1, D = diag(delta, 1, 1, ...), reach 2n (1 + delta)/h^2 in the
        axis row and (3 a1 + P + e/delta)/h^2 in the next, P = (n - 1)/2,
        e = a1 - P; the bound balances the two.  From n = 4 on it is n."""
        n = self.n
        if n >= 4:
            return float(n)
        p = 0.5 * (n - 1)
        e = a1 - p
        if e == 0.0:  # row 1 does not see the axis: delta -> 0
            return max(2.0 * n, 3.0 * a1 + p) / 4.0
        # the balance 2n (1 + delta) = 3 a1 + P + e/delta, times delta
        delta = max(np.roots([2.0 * n, 2.0 * n - 3.0 * a1 - p, -e]).real)
        return n * (1.0 + delta) / 2.0


def load_config(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return ScenarioConfig.from_dict(json.load(fh))


def decay_line_case():
    cfg = load_config("decay_study.json")
    return build_field_from_config(cfg, "line"), cfg.metric, cfg.solver


def flat_axis_case():
    # ball grid of the sweep's smallest radius: axis node at r = 0 and a
    # pinned outer end, flat background
    cfg = load_config("dirichlet_sweep.json")
    u0 = build_field_from_config(cfg, "radial", outer=16.0)
    assert u0.bc == ("axis_symmetry", "dirichlet_zero")
    return u0, cfg.metric, cfg.solver


def blended_axis_case():
    # the same ball under its blended metric, as `solve_dirichlet` runs it
    u0, metric, config = flat_axis_case()
    eps = min(0.999, 1.0 - lipschitz_constant(metric, u0))
    sigma_tilde, u_tilde = interpolate_initial_data(metric, u0, 3.0, 4.0,
                                                    eps)
    return u_tilde, sigma_tilde, config


def curved_case():
    cfg = load_config("no_lift_off.json")
    u0 = build_field_from_config(cfg, "radial")
    assert cfg.metric.a > 0.0
    return u0, cfg.metric, cfg.solver


CASES = {"decay_line": decay_line_case, "flat_axis": flat_axis_case,
         "blended_axis": blended_axis_case, "curved": curved_case}


def step(field, metric, config):
    if field.kind == "line":
        return step_1d(field, config)
    return step_radial(field, metric, metric.n, config)


def reference_for(field, metric):
    return ReferenceEngine(field.kind, field.nodes, field.h, field.bc,
                           metric, 1 if field.kind == "line" else metric.n)


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_reference_over_100_steps(case):
    # the speed (the rows hold F/4) and the principal coefficient against
    # the inline operator, on the initial data and after 100 fixed
    # super-steps; a second difference rounds at about EPS sup|u| / h^2
    field, metric, config = CASES[case]()
    ref = reference_for(field, metric)
    tau = 20.0 * stable_dt(field, metric, config)
    for engine in (solver._Engine(field, metric),
                   fixed_steps(field, metric, tau, STEPS)):
        engine.step_bounds(config.cfl_safety)  # kept from the last step
        coeff, speed = engine.coeff, 4.0 * engine.f
        rhs, axis_rhs, coeff_ref = ref.rhs_and_coeff(engine.u)
        expected = np.zeros(field.nodes.size)
        expected[1:-1] = rhs
        if axis_rhs is not None:
            expected[0] = axis_rhs
        tol = 64 * EPS * float(np.max(np.abs(engine.u))) / field.h ** 2
        assert tol > 0.0
        assert np.max(np.abs(speed - expected)) <= tol
        assert coeff == pytest.approx(coeff_ref, rel=64 * EPS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_leaves_input_values_unwritten(case):
    field, metric, config = CASES[case]()
    before = field.values.copy()
    field.values.flags.writeable = False  # any write into it would raise
    out, _ = step(field, metric, config)
    assert np.array_equal(field.values, before)
    assert not np.shares_memory(out.values, field.values)
    assert np.any(out.values != before)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_candidate_leaves_state_untouched(case, monkeypatch):
    # reject the first candidate whatever its slope: the halved retry must
    # start from the untouched state, so the step equals a one-shot step
    # capped at half the first dt
    field, metric, config = CASES[case]()
    _, dt_full = step(field, metric, config)
    expected = solver._Engine(field, metric)
    dt_half, _ = expected.super_step(None, 0.5 * dt_full, config.cfl_safety,
                                     math.inf)
    assert dt_half == 0.5 * dt_full

    check = solver._Engine.max_metric_slope
    calls = []

    def reject_first(self, d):
        calls.append(1)
        return 1.0 if len(calls) == 1 else check(self, d)

    monkeypatch.setattr(solver._Engine, "max_metric_slope", reject_first)
    out, dt = step(field, metric, config)
    assert len(calls) == 2
    assert dt == dt_half
    assert np.array_equal(out.values, expected.u)
    # without retries the rejected candidate halts the step
    monkeypatch.setattr(solver, "MAX_DT_HALVINGS", 0)
    calls.clear()
    with pytest.raises(SpacelikeViolationError, match="spacelikeness"):
        step(field, metric, config)
    assert len(calls) == 1


def test_engine_keeps_the_accepted_differences():
    field, metric, config = decay_line_case()
    engine = solver._Engine(field, metric)
    u_before, d_before = engine.u.copy(), engine.d.copy()
    buffers = (engine.u, engine.d)
    engine.super_step(None, math.inf, config.cfl_safety, math.inf)
    assert engine.u is not buffers[0] and engine.d is not buffers[1]
    # the kept differences are those of the accepted values
    assert np.array_equal(engine.d, np.diff(engine.u))
    assert not np.array_equal(engine.u, u_before)
    assert np.array_equal(field.values, u_before)
    assert np.array_equal(np.diff(u_before), d_before)


# ---------------------------------------------------------------------------
# non-finite states
# ---------------------------------------------------------------------------

def nan_line(position):
    nodes = np.linspace(-5.0, 5.0, 201)
    values = 0.3 * np.exp(-nodes * nodes)
    values[position] = np.nan
    return Field(kind="line", nodes=nodes, values=values, h=0.05,
                 bc=("dirichlet_zero", "dirichlet_zero"))


@pytest.mark.parametrize("position", [0, 100, 200])
def test_step_1d_reports_non_finite_without_halving(position, monkeypatch):
    calls = []
    check = solver._Engine.max_metric_slope
    monkeypatch.setattr(solver._Engine, "max_metric_slope",
                        lambda self, d: calls.append(1) or check(self, d))
    with pytest.raises(NonFiniteError, match="non-finite slope at x = "):
        step_1d(nan_line(position), SolverConfig(t_end=1.0))
    assert calls == []


def test_step_radial_reports_nan_and_infinity_as_non_finite():
    nodes = np.linspace(0.0, 5.0, 101)
    values = np.zeros_like(nodes)
    values[0] = np.nan
    fld = Field(kind="radial", nodes=nodes, values=values, h=0.05,
                bc=("axis_symmetry", "dirichlet_zero"))
    with pytest.raises(NonFiniteError):
        step_radial(fld, euclidean_metric(3), 3,
                    SolverConfig(t_end=1.0))
    # Field rejects infinite values, so hand one to the engine directly
    engine = solver._Engine(fld, euclidean_metric(3))
    engine.u[0] = np.inf
    engine.d[0] = engine.u[1] - engine.u[0]
    with pytest.raises(NonFiniteError, match="non-finite"):
        engine.super_step(None, math.inf, 0.9, math.inf)


def test_run_flow_terminates_non_finite_with_message():
    traj = run_flow(euclidean_metric(1), nan_line(100),
                    SolverConfig(t_end=1.0))
    assert traj.termination == "non_finite"
    assert traj.termination in solver.TERMINATIONS
    assert "non-finite" in traj.message
    assert traj.steps == 0


def test_run_flow_keeps_violation_message():
    nodes = np.linspace(-5.0, 5.0, 201)
    tent = np.maximum(2.0 - (1.0 - 1e-13) * np.abs(nodes), 0.0)
    fld = Field(kind="line", nodes=nodes, values=tent, h=0.05,
                bc=("dirichlet_zero", "dirichlet_zero"))
    traj = run_flow(euclidean_metric(1), fld, SolverConfig(t_end=1.0))
    assert traj.termination == "spacelike_violation"
    assert "spacelikeness" in traj.message
    zero = Field(kind="line", nodes=nodes, values=np.zeros_like(nodes),
                 h=0.05, bc=("dirichlet_zero", "dirichlet_zero"))
    ok = run_flow(euclidean_metric(1), zero, SolverConfig(t_end=0.01))
    assert ok.termination == "reached_t_end" and ok.message == ""


# ---------------------------------------------------------------------------
# RKL2 super-steps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ratio", [0.25, 1.0, 1.0 + 1e-12, 2.5, 7.0, 100.0,
                                   1234.5])
def test_rkl2_stage_count_is_the_fewest_stable(ratio):
    dt_fe = 1.1e-3
    tau = ratio * dt_fe
    s = rkl2_stages(tau, dt_fe)
    assert s >= 2 and 4.0 * tau <= dt_fe * (s * s + s - 2)
    assert s == 2 or 4.0 * tau > dt_fe * ((s - 1) ** 2 + (s - 1) - 2)


def fixed_steps(field, metric, tau, count):
    """`count` RKL2 super-steps of size tau with no error control."""
    engine = solver._Engine(field, metric)
    for _ in range(count):
        dt, _ = engine.super_step(tau, tau, 0.9, math.inf)
        assert dt == tau
    return engine


def test_fixed_tau_super_steps_are_second_order():
    # self-convergence: with u_k from k fixed super-steps to t_end, the
    # differences u_16 - u_32 and u_32 - u_64 shrink by 4 at second order
    field, metric, _ = decay_line_case()
    t_end = 0.25
    u16, u32, u64 = (fixed_steps(field, metric, t_end / k, k).u
                     for k in (16, 32, 64))  # tau = 17, 8.5, 4.25 dt_FE
    ratio = (float(np.max(np.abs(u16 - u32)))
             / float(np.max(np.abs(u32 - u64))))
    assert 3.5 <= ratio <= 4.5


def reject_first(monkeypatch, names, rejection):
    """Make the first call of any of the methods `_Engine.<name>`, for the
    names in `names`, return `rejection`."""
    calls = []

    def patch(original):
        def patched(self, *args):
            calls.append(1)
            return rejection if len(calls) == 1 else original(self, *args)
        return patched

    for name in names:
        monkeypatch.setattr(solver._Engine, name,
                            patch(getattr(solver._Engine, name)))
    return calls


@pytest.mark.parametrize("kind", ["estimate", "slope"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_super_step_retries_from_the_untouched_state(
        case, kind, monkeypatch):
    # a failed estimate shrinks dt (by 0.1 here), a failed slope check
    # halves it; either way the retry equals a one-shot step of that size
    field, metric, config = CASES[case]()
    tau = 40.0 * stable_dt(field, metric, config)
    tol = 1.0  # far above any real estimate here
    if kind == "estimate":  # on the line, the first try is a ROS2 step
        calls = reject_first(monkeypatch, ("rkl2", "ros2"), 1000.0 * tol)
    else:
        calls = reject_first(monkeypatch, ("max_metric_slope",), 1.0)
    engine = solver._Engine(field, metric)
    dt, _ = engine.super_step(tau, tau, config.cfl_safety, tol)
    assert len(calls) == 2
    assert dt == (0.1 * tau if kind == "estimate" else 0.5 * tau)
    monkeypatch.undo()
    one_shot = solver._Engine(field, metric)
    assert one_shot.super_step(dt, dt, config.cfl_safety, tol)[0] == dt
    for name in ("u", "d", "f"):
        assert np.array_equal(getattr(engine, name), getattr(one_shot, name))
    assert engine.coeff == one_shot.coeff


@pytest.mark.parametrize("case", sorted(CASES))
def test_halt_and_report_halts_on_the_first_stage_violation(case,
                                                            monkeypatch):
    # with no halvings left a violation halts the step and reports it
    field, metric, config = CASES[case]()
    tau = 40.0 * stable_dt(field, metric, config)
    engine = solver._Engine(field, metric)
    engine.super_step(tau, tau, config.cfl_safety, math.inf)  # forms F(u)
    state = {name: getattr(engine, name).copy() for name in ("u", "d", "f")}
    coefficient = solver._Engine._coefficient
    stages = []

    def violate_first_stage(self, comp):
        stages.append(1)
        if len(stages) == 1:
            raise SpacelikeViolationError("spacelikeness lost: stub")
        return coefficient(self, comp)

    monkeypatch.setattr(solver._Engine, "_coefficient", violate_first_stage)
    monkeypatch.setattr(solver, "MAX_DT_HALVINGS", 0)
    with pytest.raises(SpacelikeViolationError,
                       match=re.escape(f"stub (last dt {tau:g})")):
        engine.super_step(tau, tau, config.cfl_safety, math.inf)
    assert len(stages) == 1
    for name, before in state.items():
        assert np.array_equal(getattr(engine, name), before)
    # with halvings left the same violation costs one halving
    monkeypatch.setattr(solver, "MAX_DT_HALVINGS", 10)
    stages.clear()
    dt, _ = engine.super_step(tau, tau, config.cfl_safety, math.inf)
    assert dt == 0.5 * tau


def test_super_steps_hold_pinned_and_frozen_ends():
    # pinned ends stay exactly +0.0 ...
    field, metric, config = flat_axis_case()
    engine = fixed_steps(field, metric,
                         20.0 * stable_dt(field, metric, config), 5)
    assert engine.u[-1] == 0.0 and not np.signbit(engine.u[-1])
    assert engine.u[0] != field.values[0]  # the axis node moves
    # ... and 'asymptotic_decay' ends keep their values bit for bit, the
    # outer one -0.0, which an update u + 0 would turn into +0.0
    curved = conformal_metric(3, a=0.5, tau=1.0)
    fld = radial_field(1.0, 8.0, 0.05,
                       lambda r: -0.3 * np.exp(-r) * (8.0 - r) / 7.0,
                       bc=("asymptotic_decay", "asymptotic_decay"))
    assert np.signbit(fld.values[-1]) and fld.values[0] != 0.0
    config = SolverConfig(t_end=1.0)
    engine = fixed_steps(fld, curved, 20.0 * stable_dt(fld, curved, config),
                         5)
    assert engine.u[[0, -1]].tobytes() == fld.values[[0, -1]].tobytes()
    assert np.any(engine.u != fld.values)


def test_speed_at_the_axis_node_is_the_even_reflection_rule():
    field, metric, _ = flat_axis_case()
    # the case's plateau has u_1 = u_0; tilted, the rule is not 0 = 0
    field = replace(field, values=field.values * np.exp(-field.nodes / 16.0))
    engine = solver._Engine(field, metric)
    engine.step_bounds(0.9)
    f = engine.f
    u, h = field.values, field.h
    assert f[0] != 0.0
    # the engine's speed rows hold F/4
    assert 4.0 * f[0] == metric.n * 2.0 * (u[1] - u[0]) / (h * h)
    assert f[-1] == 0.0


def test_accepted_super_steps_meet_the_error_tolerance(monkeypatch):
    field, metric, config = decay_line_case()
    tol = TIME_ERROR_KAPPA * field.h ** 2 * float(np.max(np.abs(field.values)))
    rkl2, ros2 = solver._Engine.rkl2, solver._Engine.ros2
    attempts = []
    monkeypatch.setattr(solver._Engine, "rkl2", lambda self, tau, dt_fe:
                        attempts.append((tau, dt_fe, rkl2(self, tau, dt_fe)))
                        or attempts[-1][2])
    # the step's dt_FE as `super_step` forms it
    monkeypatch.setattr(solver._Engine, "ros2", lambda self, tau:
                        attempts.append((tau, config.cfl_safety * self.h
                                         * self.h / (2.0 * self.coeff),
                                         ros2(self, tau)))
                        or attempts[-1][2])
    engine = solver._Engine(field, metric)
    tau, t, above = None, 0.0, 0
    while t < 2.0:  # past the initial layer, where steps stay near dt_FE
        dt, tau = engine.super_step(tau, math.inf, config.cfl_safety, tol)
        t += dt
        accepted_tau, dt_fe, err = attempts[-1]
        assert accepted_tau == dt
        assert err <= tol or dt <= dt_fe
        above += dt > dt_fe
    assert above >= 5  # the check bites on genuine super-steps


def test_max_steps_counts_accepted_super_steps(monkeypatch):
    # every step's first candidate is rejected and retried on half of it
    check = solver._Engine.max_metric_slope
    calls = []

    def reject_odd(self, d):
        calls.append(1)
        return 1.0 if len(calls) % 2 else check(self, d)

    monkeypatch.setattr(solver._Engine, "max_metric_slope", reject_odd)
    field, metric, _ = decay_line_case()
    config = SolverConfig(t_end=100.0, max_steps=5)
    traj = run_flow(metric, field, config)
    assert traj.termination == "step_cap"
    assert traj.steps == 5 and len(calls) == 10


# ---------------------------------------------------------------------------
# dense output: records inside a super-step from its cubic Hermite interpolant
# ---------------------------------------------------------------------------

def stepped_engine(field, metric, config, t_min):
    """An engine advanced by error-controlled super-steps past `t_min`, then
    one more; returns (engine, t_n, size of that last step, tol)."""
    tol = TIME_ERROR_KAPPA * field.h ** 2 * float(np.max(np.abs(field.values)))
    engine, tau, t = solver._Engine(field, metric), None, 0.0
    while True:
        dt, tau = engine.super_step(tau, math.inf, config.cfl_safety, tol)
        if t >= t_min:
            return engine, t, dt, tol
        t += dt


@pytest.mark.parametrize("case", sorted(CASES))
def test_interpolant_ends_are_the_step_ends_bit_for_bit(case):
    field, metric, config = CASES[case]()
    engine, _, dt, _ = stepped_engine(field, metric, config, 0.5)
    u_n, u_next = engine.cand.copy(), engine.u.copy()
    assert not np.array_equal(u_n, u_next)
    for theta, expected in ((0.0, u_n), (1.0, u_next)):
        values, d = (row[0] for row in engine.interpolate([theta], dt))
        assert values.tobytes() == expected.tobytes()
        assert np.array_equal(d, np.diff(expected))
    # the step's two states are left as they were
    assert engine.u.tobytes() == u_next.tobytes()
    assert engine.cand.tobytes() == u_n.tobytes()


def test_interpolant_is_exact_on_data_cubic_in_time(rng):
    field, metric, _ = decay_line_case()
    engine = solver._Engine(field, metric)
    size, tau = field.nodes.size, 0.7
    a, b, c, e = (rng.uniform(-1.0, 1.0, size) for _ in range(4))
    for coeff in (a, b, c, e):
        coeff[[0, -1]] = 0.0  # the line's pinned ends
    # u(t_n), u'(t_n) with t_n = 0; the engine's speed rows hold u'/4
    engine.cand[:], engine.f_cand[:] = a, b / 4.0
    engine.u[:] = a + tau * (b + tau * (c + tau * e))
    engine.f[:] = (b + tau * (2.0 * c + 3.0 * tau * e)) / 4.0
    for theta in (0.1, 0.25, 0.5, 0.6, 0.75, 0.95):
        s = theta * tau
        exact = a + s * (b + s * (c + s * e))
        values, d = (row[0] for row in engine.interpolate([theta], tau))
        assert np.max(np.abs(values - exact)) <= 1e-14
        assert np.array_equal(d, np.diff(values))
    # the ends, bit for bit, also where u_n + (u_{n+1} - u_n) rounds away
    # from u_{n+1}: here, where u_{n+1} is far below u_n
    engine.u[:] = 1e-3 * a + 1e-20 * b
    assert np.any(engine.cand + (engine.u - engine.cand) != engine.u)
    for theta, expected in ((0.0, engine.cand), (1.0, engine.u)):
        assert engine.interpolate([theta], tau)[0][0].tobytes() \
            == expected.tobytes()


def fine_reference(field, metric, u_n, span, substeps):
    """u at t_n + span from u_n by `substeps` fixed RKL2 super-steps."""
    engine = solver._Engine(replace(field, values=u_n), metric)
    for _ in range(substeps):
        tau = span / substeps
        assert engine.super_step(tau, tau, 0.9, math.inf)[0] == tau
    return engine.u


@pytest.mark.parametrize("case, t_min", [("decay_line", 5.0),
                                         ("curved", 20.0)])
def test_interpolant_is_within_the_step_tolerance(case, t_min):
    # against a fine reference stepped from the same state: steps of 1/64
    # of the accepted one carry about 1/4096 of its error
    field, metric, config = CASES[case]()
    engine, _, dt, tol = stepped_engine(field, metric, config, t_min)
    assert dt > 10.0 * stable_dt(replace(field, values=engine.cand), metric,
                                 config)  # a genuine super-step
    u_n = engine.cand.copy()
    for quarter in (1, 2, 3):
        values = engine.interpolate([quarter / 4.0], dt)[0][0].copy()
        reference = fine_reference(field, metric, u_n, quarter * dt / 4.0,
                                   16 * quarter)
        assert np.max(np.abs(values - reference)) <= tol


def test_interpolated_records_check_their_own_differences(monkeypatch):
    # with the interpolant's differences steepened alone, a record or a
    # snapshot inside a step raises, although the step's end states are
    # smooth
    original = solver._Engine.interpolate

    def steepen(engine, theta, tau, at):
        values, d = original(engine, theta, tau, at)
        d[len(d) // 2] = 2.0 * engine.h
        return values, d
    monkeypatch.setattr(solver._Engine, "interpolate", steepen)
    field, metric, _ = decay_line_case()
    for record_every, snapshot_every, t_first in (
            (0.01, 1.0, 0.01),  # records inside steps
            (2.0, 0.25, 0.25)):  # snapshots that are not records
        config = SolverConfig(t_end=2.0, record_every=record_every,
                              snapshot_every=snapshot_every)
        with pytest.raises(solver.RecordError, match=(
                f"^state at t = {t_first:g}: .*node-to-node slope 2 >= 1")):
            run_flow(metric, field, config)


def test_interpolated_records_hold_pinned_and_frozen_ends():
    field, metric, config = flat_axis_case()
    engine, _, dt, _ = stepped_engine(field, metric, config, 0.5)
    values = engine.interpolate([0.3], dt)[0][0]
    assert values[-1] == 0.0 and not np.signbit(values[-1])
    assert values[0] != engine.u[0]  # the axis node is interpolated
    curved = conformal_metric(3, a=0.5, tau=1.0)
    fld = radial_field(1.0, 8.0, 0.05,
                       lambda r: -0.3 * np.exp(-r) * (8.0 - r) / 7.0,
                       bc=("asymptotic_decay", "asymptotic_decay"))
    engine, _, dt, _ = stepped_engine(fld, curved,
                                      SolverConfig(t_end=1.0), 0.5)
    for theta in (0.3, 0.7):
        values = engine.interpolate([theta], dt)[0][0]
        assert values[[0, -1]].tobytes() == fld.values[[0, -1]].tobytes()


def count_evaluations(monkeypatch):
    """Counters of `RadialOperator.rhs` calls and of the stage counts the
    super-steps ask for."""
    rhs, stages = [], []
    original_rhs = solver.RadialOperator.rhs
    original_stages = solver.rkl2_stages
    monkeypatch.setattr(solver.RadialOperator, "rhs",
                        lambda self, *a: rhs.append(1) or original_rhs(self,
                                                                        *a))
    monkeypatch.setattr(solver, "rkl2_stages",
                        lambda tau, dt_fe: stages.append(
                            original_stages(tau, dt_fe)) or stages[-1])
    return rhs, stages


def test_records_cost_no_evaluation_and_do_not_move_the_steps(monkeypatch):
    # a step costs its stage count in operator calls (plus the first
    # state's speed), however many records fall inside it
    cfg = load_config("no_lift_off.json")
    u0 = build_field_from_config(cfg, "radial")
    runs = {}
    for record_every in (10.0, 0.01):
        rhs, stages = count_evaluations(monkeypatch)
        config = replace(cfg.solver, t_end=20.0, record_every=record_every)
        traj = run_flow(cfg.metric, u0, config)
        assert traj.termination == "reached_t_end"
        assert len(rhs) == 1 + sum(stages)
        runs[record_every] = traj, len(rhs)
        monkeypatch.undo()
    (sparse, sparse_rhs), (dense, dense_rhs) = runs[10.0], runs[0.01]
    assert len(sparse.records["t"]) == 3 and len(dense.records["t"]) == 2001
    assert dense.steps == sparse.steps and dense_rhs == sparse_rhs
    for t, t_dense, row, row_dense in zip(sparse.times, dense.times,
                                          sparse.snapshots, dense.snapshots):
        assert t == t_dense
        assert row.tobytes() == row_dense.tobytes()


def cadence_times(cadence, t_end):
    """The record times of a run: 0, then the cadence formula of `_evolve`
    up to t_end, and t_end."""
    times = [0.0]
    while times[-1] < t_end - 1e-12:
        times.append(min((np.floor(times[-1] / cadence + 0.5) + 1.0)
                         * cadence, t_end))
    return times


@pytest.mark.parametrize("name, kind, t_end", [
    ("decay_study.json", "line", 50.0),
    ("no_lift_off.json", "radial", 100.0),
    ("dirichlet_sweep.json", "ball", 16.0)])
def test_record_times_and_count_follow_the_cadence(name, kind, t_end):
    cfg = load_config(name)
    config = replace(cfg.solver, t_end=t_end)
    if kind == "ball":
        u0 = build_field_from_config(cfg, "radial", outer=16.0)
        traj = solver.solve_dirichlet(4.0, cfg.metric, u0, config)
    else:
        traj = run_flow(cfg.metric, build_field_from_config(cfg, kind),
                        config)
    assert traj.termination == "reached_t_end"
    expected = cadence_times(config.record_cadence, t_end)
    assert traj.records["t"].tolist() == expected
    assert tuple(traj.records) == diagnostics.COLUMNS[:5]  # no monitor
    assert all(len(column) == len(expected)
               for column in traj.records.values())


@pytest.mark.parametrize("halt", [False, True])
def test_records_hold_the_plan_columns_whether_or_not_a_run_halts(
        halt, monkeypatch):
    # with the tilt monitor and the barrier: every column, each a value per
    # record, on the reached-t_end path and on the halted one (a violation
    # from the 40th super-step on)
    cfg = load_config("no_lift_off.json")
    u0 = build_field_from_config(cfg, "radial")
    profile = build_outer_barrier(3, r1_min=5.0, h=0.3, eps=0.05,
                                  metric=cfg.metric)
    config = replace(cfg.solver, t_end=2.0, record_every=0.01,
                     snapshot_every=1.0)
    if halt:
        rkl2, calls, halted = solver._Engine.rkl2, [], []

        def violation(engine, tau, dt_fe):
            calls.append(tau)
            if len(calls) >= 40:
                halted.append(engine.u.copy())  # the state the run keeps
                raise SpacelikeViolationError("spacelikeness lost: injected")
            return rkl2(engine, tau, dt_fe)
        monkeypatch.setattr(solver._Engine, "rkl2", violation)
    traj = run_flow(cfg.metric, u0, config, phi_params=(0.1, 10.0),
                    barrier=profile)
    assert traj.termination == ("spacelike_violation" if halt
                                else "reached_t_end")
    assert tuple(traj.records) == diagnostics.COLUMNS
    count = len(traj.records["t"])
    assert count >= 5 if halt else count == 201
    assert all(column.shape == (count,) for column in traj.records.values())
    assert traj.records["t"][-1] == traj.times[-1]
    # the snapshot table is trimmed to its times; its last row is the state
    # the run halted at, or the state at t_end, which the last record reads
    assert traj.snapshots.shape == (len(traj.times), u0.nodes.size)
    assert traj.times.tolist() == ([0.0, traj.times[-1]] if halt
                                   else [0.0, 1.0, 2.0])
    if halt:
        assert traj.snapshots[-1].tobytes() == halted[-1].tobytes()
    assert traj.records["sup_u"][-1] == np.max(np.abs(traj.snapshots[-1]))


def test_a_snapshot_at_a_record_mark_is_the_records_row():
    cfg = load_config("no_lift_off.json")
    u0 = build_field_from_config(cfg, "radial")
    config = replace(cfg.solver, t_end=10.0, record_every=0.05,
                     snapshot_every=1.0)
    traj = run_flow(cfg.metric, u0, config)
    rows = np.column_stack(list(traj.records.values()))
    by_time = {row[0]: row for row in rows}
    plan = solver.diagnostics.RecordPlan(u0, cfg.metric)
    assert len(traj.times) == len(traj.snapshots) == 11
    for t, values in zip(traj.times, traj.snapshots):
        expected, = solver.diagnostics.make_record(plan, values[None], [t])
        assert [x.hex() for x in by_time[t].tolist()] \
            == [x.hex() for x in expected.tolist()]


def log_steps(monkeypatch):
    """Wrap `super_step` to log each accepted step's size and copies of the
    two states and speeds its interpolant reads."""
    log, step = [], solver._Engine.super_step

    def logged(engine, *args):
        dt, proposal = step(engine, *args)
        log.append((dt, *(row.copy() for row in (
            engine.cand, engine.f_cand, engine.u, engine.f))))
        return dt, proposal
    monkeypatch.setattr(solver._Engine, "super_step", logged)
    return log


@pytest.mark.parametrize("case", ["curved", "asymptotic_decay"])
def test_a_snapshot_inside_a_step_is_its_one_theta_interpolant(
        case, monkeypatch):
    # snapshots every 0.125 and records every 0.3: most snapshots are not
    # records, and only t_end ends a step
    if case == "curved":
        field, metric, config = curved_case()
        config = replace(config, t_end=2.0)
    else:
        field, metric, config = asymptotic_decay_case()
    config = replace(config, snapshot_every=0.125, record_every=0.3)
    log = log_steps(monkeypatch)
    traj = solver._evolve(field, metric, config)  # frozen ends do not decay
    assert traj.termination == "reached_t_end" and traj.steps == len(log)
    t_end, ends, t = config.t_end, [], 0.0
    for dt, *_ in log:  # the step ends, as `_evolve` forms them
        t = t_end if dt >= t_end - t - 1e-15 else t + dt
        ends.append(t)
    assert ends[-1] == t_end and traj.times.tolist() \
        == config.snapshot_times()
    alone = set(traj.times) - set(traj.records["t"])
    assert len(alone) >= len(traj.times) - 4
    fresh = solver._Engine(traj.field, metric)
    for t, row in zip(traj.times[1:-1], traj.snapshots[1:-1]):
        i = int(np.searchsorted(ends, t))
        start = ends[i - 1] if i else 0.0
        assert start < t < ends[i] - 1e-12  # strictly inside step i
        dt, *states = log[i]
        for target, values in zip((fresh.cand, fresh.f_cand, fresh.u,
                                   fresh.f), states):
            target[:] = values
        expected = fresh.interpolate([(t - start) / dt], dt)[0][0]
        assert row.tobytes() == expected.tobytes()
        # the held ends: pinned at +0.0, frozen at the data's bits
        if field.bc[1] == "dirichlet_zero":
            assert row[[0, -1]].tobytes() == np.zeros(2).tobytes()
        else:
            assert row[[0, -1]].tobytes() == field.values[[0, -1]].tobytes()


# ---------------------------------------------------------------------------
# records in batches: one interpolant evaluation per batch of records
# ---------------------------------------------------------------------------

BATCH_THETAS = [0.0, 0.1, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.75, 0.999, 1.0]


def asymptotic_decay_case():
    # 'asymptotic_decay' ends are frozen: the outer one at -0.0
    curved = conformal_metric(3, a=0.5, tau=1.0)
    fld = radial_field(1.0, 8.0, 0.05,
                       lambda r: -0.3 * np.exp(-r) * (8.0 - r) / 7.0,
                       bc=("asymptotic_decay", "asymptotic_decay"))
    assert np.signbit(fld.values[-1])
    return fld, curved, SolverConfig(t_end=1.0)


@pytest.mark.parametrize("case", ["flat_axis", "blended_axis", "curved",
                                  "asymptotic_decay"])
def test_batched_interpolant_rows_are_one_theta_interpolants(case):
    field, metric, config = (asymptotic_decay_case() if case ==
                             "asymptotic_decay" else CASES[case]())
    engine, _, dt, _ = stepped_engine(field, metric, config, 0.5)
    thetas = BATCH_THETAS  # 0, 1/2 exactly, both sides of 1/2 and 1
    assert engine.batch >= len(thetas)
    values, d = (block.copy() for block in engine.interpolate(thetas, dt))
    assert values.shape == (len(thetas), field.nodes.size)
    assert d.shape == (len(thetas), field.nodes.size - 1)
    for row, theta in enumerate(thetas):
        one_values, one_d = engine.interpolate([theta], dt)
        assert values[row].tobytes() == one_values[0].tobytes()
        assert d[row].tobytes() == one_d[0].tobytes()
        assert np.array_equal(d[row], np.diff(values[row]))
    # the step's ends, and the held ends of every row
    assert values[0].tobytes() == engine.cand.tobytes()
    assert values[-1].tobytes() == engine.u.tobytes()
    if field.bc[1] == "dirichlet_zero":
        assert not np.signbit(values[:, -1]).any()
        assert not values[:, -1].any()
    else:
        assert values[:, [0, -1]].tobytes() == np.tile(
            field.values[[0, -1]], (len(thetas), 1)).tobytes()


def corrupt_rows(monkeypatch, steep_at, negative_at):
    """Make the interpolated rows numbered `steep_at` (counting every row
    of a run) break the node slope bound, and `negative_at` the tilt
    monitor's min u >= 0."""
    original = solver._Engine.interpolate
    count = [0]

    def corrupt(engine, theta, tau, at):
        values, d = original(engine, theta, tau, at)
        for row in range(len(theta)):
            if count[0] == steep_at:
                d[row] = 2.0 * engine.h
            if count[0] == negative_at:
                values[row] *= -1.0
            count[0] += 1
        return values, d
    monkeypatch.setattr(solver._Engine, "interpolate", corrupt)


def curved_monitor_run():
    u0, metric, config = curved_case()
    c = geometry.ricci_form_bound(metric, float(u0.nodes[0]),
                                  float(u0.nodes[-1]))
    config = replace(config, t_end=4.0, record_every=0.01, snapshot_every=1.0)
    return run_flow(metric, u0, config, phi_params=(c, 1.0 / c))


@pytest.mark.parametrize("first", ["slope", "tilt"])
def test_record_error_names_the_first_failing_row_of_a_batch(first,
                                                              monkeypatch):
    # a clean run gives the rows' times: the first step with 3 or more
    # interpolated rows starts at interpolated row `start`.  Every record
    # but those at t = 0 and t_end is interpolated, and records are reduced
    # in batches of `cap` rows across steps, from t = 0 on
    sizes = []
    interpolate = solver._Engine.interpolate

    def note(engine, theta, tau, at):
        sizes.append(len(theta))
        return interpolate(engine, theta, tau, at)
    monkeypatch.setattr(solver._Engine, "interpolate", note)
    clean = curved_monitor_run()
    assert clean.termination == "reached_t_end"
    monkeypatch.undo()
    times = clean.records["t"]
    assert len(times) == sum(sizes) + 2
    k = next(i for i, size in enumerate(sizes) if size >= 3)
    start = sum(sizes[:k])
    t_first = times[start + 2]  # interpolated row start + 1
    cap = diagnostics.batch_rows(clean.field.nodes.size)
    assert 0 < (start + 2) % cap < cap - 1  # mid-batch, with the next row
    rows = (start + 1, start + 2) if first == "slope" else (start + 2,
                                                           start + 1)
    messages = {}
    for batch_values in (diagnostics.BATCH_VALUES, 1):  # 1: one-row batches
        monkeypatch.setattr(diagnostics, "BATCH_VALUES", batch_values)
        corrupt_rows(monkeypatch, *rows)
        with pytest.raises(solver.RecordError) as exc:
            curved_monitor_run()
        messages[batch_values] = str(exc.value)
        monkeypatch.undo()
    expected = ("not spacelike in the metric: node-to-node slope"
                if first == "slope"
                else "monitor needs min u >= 0")
    assert messages[1] == messages[diagnostics.BATCH_VALUES]
    assert messages[1].startswith(f"state at t = {t_first:.6g}: {expected}")


def test_a_waiting_record_failure_comes_before_a_later_halt(monkeypatch):
    # interpolated row 3 (t = 0.04) breaks the slope bound; the step after
    # the one that forms it halts while the row still waits in the batch
    # scratch: the run raises the record's failure, without the halt's
    # suffix, as it does when no step halts
    messages, calls_at_halt = {}, []
    for halt in (False, True):
        interpolate, rkl2 = solver._Engine.interpolate, solver._Engine.rkl2
        make_record, formed, calls = diagnostics.make_record, [0], []

        def steepen_row_3(engine, theta, tau, at):
            values, d = interpolate(engine, theta, tau, at)
            for row in range(len(theta)):
                if formed[0] == 3:
                    d[row] = 2.0 * engine.h
                formed[0] += 1
            return values, d

        def halt_after_it(engine, tau, dt_fe):
            if halt and formed[0] > 3:
                calls_at_halt.append(len(calls))
                raise SpacelikeViolationError("spacelikeness lost: injected")
            return rkl2(engine, tau, dt_fe)
        monkeypatch.setattr(solver._Engine, "interpolate", steepen_row_3)
        monkeypatch.setattr(solver._Engine, "rkl2", halt_after_it)
        monkeypatch.setattr(diagnostics, "make_record", lambda *args: (
            calls.append(1), make_record(*args))[1])
        with pytest.raises(solver.RecordError) as exc:
            curved_monitor_run()
        messages[halt] = str(exc.value)
        monkeypatch.undo()
    # the halting step and its halved retries: no batch was reduced yet
    assert calls_at_halt == [0] * (solver.MAX_DT_HALVINGS + 1)
    assert messages[True] == messages[False]
    assert messages[True].startswith(
        "state at t = 0.04: not spacelike in the metric: node-to-node slope")
    assert "halted" not in messages[True]


# ---------------------------------------------------------------------------
# the window: grids with a pinned outer end step only their live prefix
# ---------------------------------------------------------------------------

def curved_ball_config():
    # the dirichlet sweep on an annulus-ball of w = (1 + 0.5/r)^-2, which
    # rises outward (no_lift_off's w = 1 + 0.5/r falls outward)
    with open(os.path.join(CONFIG_DIR, "dirichlet_sweep.json")) as fh:
        raw = json.load(fh)
    raw["metric"] = {"family": "conformal_power", "n": 3, "a": 0.5,
                     "tau": 1.0, "power": -2.0}
    raw["domain"] = {"lo": 0.5}
    raw["initial_data"] = {"family": "radial_bump", "height": 0.2,
                           "rise": [1.0, 2.0], "fall": [2.5, 3.5]}
    return raw


def window_run(case):
    """One run of `case`: a ball (n = 3, R = 8), the no_lift_off annulus or
    the curved ball, shortened.  Returns its trajectory."""
    if case == "no_lift_off":
        with open(os.path.join(CONFIG_DIR, "no_lift_off.json")) as fh:
            raw = json.load(fh)
        raw["solver"].update(t_end=2.0, snapshot_every=0.5, record_every=0.1)
        cfg = ScenarioConfig.from_dict(raw)
        return solver.run_flow(cfg.metric, build_field_from_config(
            cfg, "radial"), cfg.solver)
    if case == "ball":
        with open(os.path.join(CONFIG_DIR, "dirichlet_sweep.json")) as fh:
            raw = json.load(fh)
    else:
        raw = curved_ball_config()
    raw["solver"].update(t_end=4.0, snapshot_every=1.0, record_every=0.25)
    cfg = ScenarioConfig.from_dict(raw)
    u0 = build_field_from_config(cfg, "radial", outer=64.0)
    return solver.solve_dirichlet(8.0, cfg.metric, u0, cfg.solver)


def plus_zeros(row):
    return bool(np.all(row.view(np.int64) == 0))  # +0.0 has no bit set


@pytest.mark.parametrize("case", ["ball", "no_lift_off", "curved_ball"])
def test_the_window_keeps_the_whole_grid_answer(case, monkeypatch):
    init, super_step = solver._Engine.__init__, solver._Engine.super_step
    windows, lowest = [], []

    def keep_origin(self, field, metric):
        init(self, field, metric)
        self.origin = field, metric

    def checked(self, *args):
        result = super_step(self, *args)
        m, size = self.m, self.u.size
        windows.append(m / size)
        assert m == size or m % 64 == 0
        for row in (self.u, self.f, self.stage, self.stage_prev):
            assert plus_zeros(row[m:])
        assert plus_zeros(self.d[m - 1:])
        # the cut: no value the window steps lies in (0, cut)
        live = np.abs(self.u[:m])
        live = live[live > 0.0]
        assert self.cut > 0.0 and not np.any(live < self.cut)
        lowest.append(float(live.min()) / self.cut)
        # a fresh engine on the whole grid: the same speed and coefficient
        field, metric = self.origin
        fresh = solver._Engine(replace(field, values=self.u.copy()), metric)
        fresh.step_bounds(0.9)
        assert fresh.coeff == self.cand_coeff == self.coeff
        assert fresh.f.tobytes() == self.f.tobytes()
        return result

    monkeypatch.setattr(solver._Engine, "__init__", keep_origin)
    monkeypatch.setattr(solver._Engine, "super_step", checked)
    windowed = window_run(case)
    monkeypatch.undo()
    assert min(windows) < 0.5 and windowed.steps == len(windows)
    assert min(lowest) < 2.0  # the far field reaches the cut
    # the same run with every step on the whole grid: an engine that holds
    # its outer end frozen at the +0.0 it is pinned to forms no window, and
    # cuts its candidates as the windowed engine does
    def whole_grid(self, field, metric):
        init(self, field, metric)
        self.pin_right = False

    monkeypatch.setattr(solver._Engine, "__init__", whole_grid)
    monkeypatch.setattr(solver._Engine, "super_step", lambda self, *args: (
        super_step(self, *args), windows.append(self.m / self.u.size))[0])
    windows.clear()
    whole = window_run(case)
    assert min(windows) == 1.0
    assert whole.steps == windowed.steps
    assert whole.termination == windowed.termination == "reached_t_end"
    assert len(whole.times) == len(windowed.times)
    for t_w, t, f_w, f in zip(windowed.times, whole.times,
                              windowed.snapshots, whole.snapshots):
        assert t_w == t and f_w.tobytes() == f.tobytes()
    assert windowed.records.keys() == whole.records.keys()
    assert all(windowed.records[name].tobytes()
               == whole.records[name].tobytes() for name in whole.records)


def ball_sweep_config(seed):
    """The benchmark's `ball_sweep` config for `seed`, from perfbench."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    root = os.path.join(os.path.dirname(__file__), "..")
    return ScenarioConfig.from_dict(
        workloads.generate_config(root, "ball_sweep", seed))


def test_ball_sweep_steps_and_stages_are_pinned(monkeypatch):
    # the cut stops the window where the far field underflows; it takes
    # the steps and stages of the run without it
    cfg = ball_sweep_config(3)
    rkl2, stages = solver._Engine.rkl2, []
    monkeypatch.setattr(solver._Engine, "rkl2", lambda self, tau, dt_fe: (
        stages.append(rkl2_stages(tau, dt_fe)), rkl2(self, tau, dt_fe))[1])
    counts = []
    for R in (4.0, 8.0, 16.0):
        stages.clear()
        u0 = build_field_from_config(cfg, "radial", outer=R * R)
        traj = solver.solve_dirichlet(R, cfg.metric, u0, cfg.solver)
        assert traj.termination == "reached_t_end"
        counts.append((traj.steps, sum(stages)))
    assert counts == [(386, 3784), (363, 3749), (363, 3748)]


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_the_cut_keeps_a_non_finite_value_beyond_the_support(value,
                                                           monkeypatch):
    # the first step of a run has two stages, so the first stage's speed
    # forms the last increment D_2 and goes into the candidate unchecked.
    # A value planted there at node k, beyond the support of a flat ball,
    # is not cut (|NaN| < cut and |inf| < cut are false): the candidate's
    # check halts the run as non_finite.  It names the first NaN of C:
    # node k - 1 for a NaN, node k for an inf (C = -inf at k - 1 and k + 1,
    # inf - inf = NaN at k)
    field, metric, config = flat_axis_case()
    rhs, sizes = geometry.RadialOperator.rhs, []

    def poisoned(self, s, q, comp, out, work):
        rhs(self, s, q, comp, out, work)
        sizes.append(out.size)
        if len(sizes) == 2:
            out[-1] = value  # node out.size
        return out

    monkeypatch.setattr(geometry.RadialOperator, "rhs", poisoned)
    with np.errstate(invalid="ignore"):
        traj = solver.solve_dirichlet(4.0, metric, field, config)
    assert len(sizes) == 2  # the state's speed, then the one stage
    k = sizes[1]
    assert k < field.nodes.size - 2  # inside the window, not at its end
    assert not np.any(traj.snapshots[0][k - 2:k + 3])
    assert traj.termination == "non_finite" and traj.steps == 0
    named = field.nodes[k - 1 if np.isnan(value) else k]
    assert traj.message == f"non-finite slope at x = {named:.6g}"


def test_the_cut_keeps_frozen_ends_below_it():
    # 'asymptotic_decay' ends keep their bits, here a value below the cut
    # and -0.0: the cut comes before the ends are held.  The data vanish
    # away from r = 5, so node 1 moves only by the frozen end's value,
    # and that candidate is cut to +0.0
    curved = conformal_metric(3, a=0.5, tau=1.0)
    fld = radial_field(1.0, 8.0, 0.05, lambda r: 0.3 * np.maximum(
        0.0, 1.0 - (r - 5.0) ** 2) ** 3, bc=("asymptotic_decay",
                                              "asymptotic_decay"))
    values = fld.values.copy()
    values[0], values[-1] = 1e-170, -0.0
    fld = replace(fld, values=values)
    config = SolverConfig(t_end=1.0)
    engine = fixed_steps(fld, curved, 20.0 * stable_dt(fld, curved, config),
                         5)
    assert 0.0 < values[0] < engine.cut
    assert engine.u[[0, -1]].tobytes() == values[[0, -1]].tobytes()
    assert engine.u[1] == 0.0 and not np.signbit(engine.u[1])
    inner = np.abs(engine.u[1:-1])
    assert not np.any((inner > 0.0) & (inner < engine.cut))


def test_the_cut_leaves_tiny_data_alone():
    # the cut scales with sup|u_0|: on data of height 1e-200 it underflows
    # to 0 and cuts nothing, so the run steps as it would without it
    # (an absolute cut of 2^-511 would zero the data: 5 steps, sup 0)
    with open(os.path.join(CONFIG_DIR, "dirichlet_sweep.json")) as fh:
        raw = json.load(fh)
    raw["initial_data"]["height"] = 1e-200
    raw["solver"]["t_end"] = 0.5
    cfg = ScenarioConfig.from_dict(raw)
    summary, _ = run_dirichlet_case(cfg, 4.0)
    assert summary["termination"] == "reached_t_end" and summary["pass"]
    assert summary["steps"] == 135
    assert summary["final_sup_u"] == 8.451670564663556e-201
