"""The in-place stepping kernel: the forward-Euler step against a reference
copy of the array-per-operation engine it replaced, and the RKL2 super-steps
that runs take.

The reference below keeps that engine's arithmetic verbatim: central
differences formed from the values, the operator written out inline, a
fresh candidate array per attempt.  The kernel forms its differences from
the forward differences instead and evaluates the operator through
`geometry.RadialOperator`, so the two agree to rounding, not bit for bit.
"""

import json
import math
import os

import numpy as np
import pytest

from mcflow import solver
from mcflow.fields import Field
from mcflow.geometry import (TOL_SPACELIKE, DomainError, NonFiniteError,
                             SpacelikeViolationError, euclidean_metric,
                             radial_factors)
from mcflow.initial_data import interpolate_initial_data, lipschitz_constant
from mcflow.scenarios import ScenarioConfig, build_field_from_config
from mcflow.fields import radial_field
from mcflow.geometry import conformal_metric
from mcflow.solver import (MAX_DT_HALVINGS, TIME_ERROR_KAPPA, SolverConfig,
                           rkl2_stages, run_flow, stable_dt, step_1d,
                           step_radial)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
STEPS = 100
EPS = np.finfo(float).eps


class ReferenceEngine:
    """Explicit step with the operator re-derived inline, one new array per
    operation; the arithmetic the in-place kernel is checked against."""

    def __init__(self, kind, nodes, h, bc, metric, n):
        self.kind = kind
        self.nodes = nodes
        self.h = h
        self.bc = bc
        self.n = n
        self.axis = bc[0] == "axis_symmetry"
        r_min = getattr(metric, "r_min", 0.0)
        if kind == "line":
            if getattr(metric, "a", 0.0) != 0.0:
                raise DomainError("line problems run on the flat metric")
            self.w_int = np.ones(nodes.size - 2)
            self.fp_int = np.zeros(nodes.size - 2)
            self.w_mid = np.ones(nodes.size - 1)
            self.r_int = None
        else:
            self.r_int = nodes[1:-1]
            self.w_int, self.fp_int = radial_factors(metric, self.r_int)
            mid = 0.5 * (nodes[:-1] + nodes[1:])
            self.w_mid = metric.w(np.maximum(mid, max(r_min, 1e-300)))

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
            coeff = max(coeff, float(self.n))
        return rhs, axis_rhs, coeff

    def apply(self, u, dt, rhs, axis_rhs):
        out = u.copy()
        out[1:-1] += dt * rhs
        if self.axis:
            out[0] = u[0] + dt * axis_rhs
        elif self.bc[0] == "dirichlet_zero":
            out[0] = 0.0
        if self.bc[1] == "dirichlet_zero":
            out[-1] = 0.0
        return out

    def max_metric_slope(self, u):
        return float(np.max(np.abs(np.diff(u)) / (self.h * self.w_mid)))

    def advance(self, u, dt_cap, cfl, policy):
        rhs, axis_rhs, coeff = self.rhs_and_coeff(u)
        dt = cfl * self.h * self.h / (2.0 * coeff)
        if dt_cap is not None:
            dt = min(dt, dt_cap)
        attempts = 1 + (MAX_DT_HALVINGS if policy == "reject" else 0)
        for _ in range(attempts):
            candidate = self.apply(u, dt, rhs, axis_rhs)
            if self.max_metric_slope(candidate) < 1.0 - TOL_SPACELIKE:
                return candidate, dt
            dt *= 0.5
        raise SpacelikeViolationError("updated slope reached the null slope")


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
    interp = interpolate_initial_data(metric, u0, 3.0, 4.0, eps)
    return interp.u_tilde, interp.sigma_tilde, config


def curved_case():
    cfg = load_config("no_lift_off.json")
    u0 = build_field_from_config(cfg, "radial")
    assert cfg.metric.a > 0.0
    return u0, cfg.metric, cfg.solver


CASES = {"decay_line": decay_line_case, "flat_axis": flat_axis_case,
         "blended_axis": blended_axis_case, "curved": curved_case}


def step(field, metric, config, dt_cap=None):
    if field.kind == "line":
        return step_1d(field, config, dt_cap)
    return step_radial(field, metric, metric.n, config, dt_cap)


def reference_for(field, metric):
    return ReferenceEngine(field.kind, field.nodes, field.h, field.bc,
                           metric, 1 if field.kind == "line" else metric.n)


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_reference_over_100_steps(case):
    field, metric, config = CASES[case]()
    ref = reference_for(field, metric)
    u_ref = field.values.copy()
    tol = 64 * EPS * float(np.max(np.abs(field.values)))
    assert tol > 0.0
    for _ in range(STEPS):
        field, dt = step(field, metric, config)
        u_ref, dt_ref = ref.advance(u_ref, None, config.cfl_safety,
                                    config.clamp_policy)
        assert dt == pytest.approx(dt_ref, rel=1e-12)
    assert np.max(np.abs(field.values - u_ref)) <= tol


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
    expected, dt_half = step(field, metric, config, dt_cap=0.5 * dt_full)
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
    assert np.array_equal(out.values, expected.values)
    # without retries the rejected candidate halts the step
    halt = SolverConfig(h=config.h, t_end=config.t_end,
                        clamp_policy="halt_and_report")
    calls.clear()
    with pytest.raises(SpacelikeViolationError, match="spacelikeness"):
        step(field, metric, halt)
    assert len(calls) == 1


def test_engine_keeps_the_accepted_differences():
    field, metric, config = decay_line_case()
    engine = solver._Engine(field, metric)
    u_before, d_before = engine.u.copy(), engine.d.copy()
    buffers = (engine.u, engine.d)
    engine.advance(None, config.cfl_safety, config.clamp_policy)
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
        step_1d(nan_line(position), SolverConfig(h=0.05, t_end=1.0))
    assert calls == []


def test_step_radial_reports_nan_and_infinity_as_non_finite():
    nodes = np.linspace(0.0, 5.0, 101)
    values = np.zeros_like(nodes)
    values[0] = np.nan
    fld = Field(kind="radial", nodes=nodes, values=values, h=0.05,
                bc=("axis_symmetry", "dirichlet_zero"))
    with pytest.raises(NonFiniteError):
        step_radial(fld, euclidean_metric(3), 3,
                    SolverConfig(h=0.05, t_end=1.0))
    # Field rejects infinite values, so hand one to the engine directly
    engine = solver._Engine(fld, euclidean_metric(3))
    engine.u[0] = np.inf
    engine.d[0] = engine.u[1] - engine.u[0]
    with pytest.raises(NonFiniteError, match="non-finite"):
        engine.advance(None, 0.9, "reject")


def test_run_flow_terminates_non_finite_with_message():
    traj = run_flow(euclidean_metric(1), nan_line(100),
                    SolverConfig(h=0.05, t_end=1.0))
    assert traj.termination == "non_finite"
    assert traj.termination in solver.TERMINATIONS
    assert "non-finite" in traj.message
    assert traj.steps == 0


def test_run_flow_keeps_violation_message():
    nodes = np.linspace(-5.0, 5.0, 201)
    tent = np.maximum(2.0 - (1.0 - 1e-13) * np.abs(nodes), 0.0)
    fld = Field(kind="line", nodes=nodes, values=tent, h=0.05,
                bc=("dirichlet_zero", "dirichlet_zero"))
    traj = run_flow(euclidean_metric(1), fld, SolverConfig(h=0.05, t_end=1.0))
    assert traj.termination == "spacelike_violation"
    assert "spacelikeness" in traj.message
    zero = Field(kind="line", nodes=nodes, values=np.zeros_like(nodes),
                 h=0.05, bc=("dirichlet_zero", "dirichlet_zero"))
    ok = run_flow(euclidean_metric(1), zero, SolverConfig(h=0.05, t_end=0.01))
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
        dt, _ = engine.super_step(tau, tau, 0.9, "reject", math.inf)
        assert dt == tau
    return engine


def test_fixed_tau_super_steps_are_second_order():
    # against forward Euler at dt_FE/8 and dt_FE/16, extrapolated to second
    # order (its own error is ~1e-9 here, against ~1e-5 for RKL2)
    field, metric, config = decay_line_case()
    dt_fe = stable_dt(field, metric, config)
    t_end = 0.25
    fine = []
    for dt in (dt_fe / 8.0, dt_fe / 16.0):
        engine, t = solver._Engine(field, metric), 0.0
        while t < t_end - 1e-15:
            t += engine.advance(min(dt, t_end - t), config.cfl_safety,
                                config.clamp_policy)
        fine.append(engine.u)
    reference = 2.0 * fine[1] - fine[0]
    errors = [float(np.max(np.abs(
        fixed_steps(field, metric, t_end / k, k).u - reference)))
        for k in (16, 32)]  # tau = 17 and 8.5 dt_FE
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def reject_first(monkeypatch, name, rejection):
    """Make the first call of `_Engine.<name>` return `rejection`."""
    original = getattr(solver._Engine, name)
    calls = []

    def patched(self, *args):
        calls.append(1)
        return rejection if len(calls) == 1 else original(self, *args)

    monkeypatch.setattr(solver._Engine, name, patched)
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
    if kind == "estimate":
        calls = reject_first(monkeypatch, "rkl2", 1000.0 * tol)
    else:
        calls = reject_first(monkeypatch, "max_metric_slope", 1.0)
    engine = solver._Engine(field, metric)
    dt, _ = engine.super_step(tau, tau, config.cfl_safety, "reject", tol)
    assert len(calls) == 2
    assert dt == (0.1 * tau if kind == "estimate" else 0.5 * tau)
    monkeypatch.undo()
    one_shot = solver._Engine(field, metric)
    assert one_shot.super_step(dt, dt, config.cfl_safety, "reject",
                               tol)[0] == dt
    for name in ("u", "d", "f"):
        assert np.array_equal(getattr(engine, name), getattr(one_shot, name))
    assert engine.coeff == one_shot.coeff


@pytest.mark.parametrize("case", sorted(CASES))
def test_halt_and_report_halts_on_the_first_stage_violation(case,
                                                            monkeypatch):
    field, metric, config = CASES[case]()
    tau = 40.0 * stable_dt(field, metric, config)
    engine = solver._Engine(field, metric)
    engine.super_step(tau, tau, config.cfl_safety, "halt_and_report",
                      math.inf)  # forms the state's speed
    state = {name: getattr(engine, name).copy() for name in ("u", "d", "f")}
    complement = solver._Engine._complement
    stages = []

    def violate_first_stage(self, d):
        stages.append(1)
        if len(stages) == 1:
            raise SpacelikeViolationError("spacelikeness lost: stub")
        return complement(self, d)

    monkeypatch.setattr(solver._Engine, "_complement", violate_first_stage)
    with pytest.raises(SpacelikeViolationError,
                       match="stub .policy halt_and_report"):
        engine.super_step(tau, tau, config.cfl_safety, "halt_and_report",
                          math.inf)
    assert len(stages) == 1
    for name, before in state.items():
        assert np.array_equal(getattr(engine, name), before)
    # under 'reject' the same violation costs one halving
    stages.clear()
    dt, _ = engine.super_step(tau, tau, config.cfl_safety, "reject",
                              math.inf)
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
    config = SolverConfig(h=0.05, t_end=1.0)
    engine = fixed_steps(fld, curved, 20.0 * stable_dt(fld, curved, config),
                         5)
    assert engine.u[[0, -1]].tobytes() == fld.values[[0, -1]].tobytes()
    assert np.any(engine.u != fld.values)


def test_speed_at_the_axis_node_is_the_even_reflection_rule():
    field, metric, _ = flat_axis_case()
    engine = solver._Engine(field, metric)
    engine.coefficient()
    f = engine._speed(engine.d, np.empty(field.nodes.size))
    u, h = field.values, field.h
    assert f[0] == metric.n * 2.0 * (u[1] - u[0]) / (h * h)
    assert f[-1] == 0.0


def test_accepted_super_steps_meet_the_error_tolerance(monkeypatch):
    field, metric, config = decay_line_case()
    tol = TIME_ERROR_KAPPA * field.h ** 2 * float(np.max(np.abs(field.values)))
    rkl2 = solver._Engine.rkl2
    attempts = []
    monkeypatch.setattr(solver._Engine, "rkl2", lambda self, tau, dt_fe:
                        attempts.append((tau, dt_fe, rkl2(self, tau, dt_fe)))
                        or attempts[-1][2])
    engine = solver._Engine(field, metric)
    tau, t, above = None, 0.0, 0
    while t < 2.0:  # past the initial layer, where steps stay near dt_FE
        dt, tau = engine.super_step(tau, math.inf, config.cfl_safety,
                                    config.clamp_policy, tol)
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
    config = SolverConfig(h=field.h, t_end=100.0, max_steps=5)
    traj = run_flow(metric, field, config)
    assert traj.termination == "step_cap"
    assert traj.steps == 5 and len(calls) == 10
