"""The in-place stepping kernel against a reference copy of the array-per-
operation engine it replaced.

The reference below keeps that engine's arithmetic verbatim: central
differences formed from the values, the operator written out inline, a
fresh candidate array per attempt.  The kernel forms its differences from
the forward differences instead and evaluates the operator through
`geometry.RadialOperator`, so the two agree to rounding, not bit for bit.
"""

import json
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
from mcflow.solver import (MAX_DT_HALVINGS, SolverConfig, run_flow,
                           step_1d, step_radial)

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
