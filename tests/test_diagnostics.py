from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mcflow.barriers import build_outer_barrier
from mcflow.diagnostics import (COLUMNS, InsufficientDataError, RecordPlan,
                                decay_exponent_fit, h1_decay_check,
                                make_record, max_boundary_slope,
                                max_principle_check, rise_check)
from mcflow.fields import line_field, radial_field
from mcflow.geometry import conformal_metric, euclidean_metric
from mcflow.initial_data import smooth_cutoff
from mcflow.solver import FlowTrajectory, SolverConfig, run_flow

FROZEN = ("asymptotic_decay", "asymptotic_decay")


def records_from(ts, sups, l2s=None, h1s=None):
    l2s = l2s if l2s is not None else np.zeros_like(ts)
    h1s = h1s if h1s is not None else np.zeros_like(ts)
    return {"t": np.asarray(ts, float), "sup_u": np.asarray(sups, float),
            "grad_max": np.zeros(len(ts)), "l2": np.asarray(l2s, float),
            "h1_grad": np.asarray(h1s, float)}


def one_record(fld, metric, phi_params=None, profile=None):
    """The record of `fld` alone, by column name, from a one-row plan."""
    plan = RecordPlan(fld, metric, phi_params, profile)
    row = make_record(plan, fld.values[None], [0.0])[0]
    return dict(zip(plan.columns, row.tolist()))


def record_norms(fld, metric):
    """(sup|u|, max |u'|/w, L2 norm, L2 norm of the gradient) of `fld`."""
    record = one_record(fld, metric)
    return tuple(record[name] for name in COLUMNS[1:5])


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norms_zero_field():
    fld = line_field(-5.0, 5.0, 0.1, lambda x: np.zeros_like(x))
    assert record_norms(fld, euclidean_metric(1)) == (0.0, 0.0, 0.0, 0.0)


def test_norms_gaussian_l2():
    fld = replace(line_field(-12.0, 12.0, 0.01, lambda x: np.exp(-x * x / 2)),
                  bc=FROZEN)
    _, _, l2, _ = record_norms(fld, euclidean_metric(1))
    assert l2 ** 2 == pytest.approx(np.sqrt(np.pi), abs=1e-6)


def test_norms_polynomial_l2():
    fld = line_field(0.0, 1.0, 1e-3, lambda x: x * (1 - x))
    _, _, l2, _ = record_norms(fld, euclidean_metric(1))
    assert l2 ** 2 == pytest.approx(1.0 / 30.0, abs=1e-8)


def test_norms_radial_volume_weight():
    # u == 1 on [0, 1] flat n=3: integral of r^2 dr = 1/3
    fld = radial_field(0.0, 1.0, 1e-3, lambda r: np.ones_like(r),
                       bc=("axis_symmetry", "asymptotic_decay"))
    _, _, l2, _ = record_norms(fld, euclidean_metric(3))
    assert l2 ** 2 == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_norms_grad_max_uses_metric():
    metric = conformal_metric(3, a=1.0, tau=1.0)
    fld = radial_field(1.0, 5.0, 0.01, lambda r: 0.5 * r,
                       bc=("asymptotic_decay", "asymptotic_decay"))
    _, grad_max, _, _ = record_norms(fld, metric)
    assert grad_max == pytest.approx(0.5 / float(metric.w(5.0)), abs=1e-12)


# ---------------------------------------------------------------------------
# tilt monitor
# ---------------------------------------------------------------------------

def test_phi_zero_field():
    fld = line_field(-2.0, 2.0, 0.1, lambda x: np.zeros_like(x))
    assert one_record(fld, euclidean_metric(1), (0.7, 0.3))["sup_phi"] \
        == pytest.approx(np.exp(0.3), abs=1e-12)


def test_phi_lambda_zero_drops_u_dependence():
    fld = replace(line_field(-2.0, 2.0, 0.1, lambda x: 0.3 * np.exp(-x * x)),
                  bc=FROZEN)
    from mcflow.fields import gradient
    du = gradient(fld)
    v_max = float(np.max(1 / np.sqrt(1 - du ** 2)))
    assert one_record(fld, euclidean_metric(1), (0.0, 0.5))["sup_phi"] \
        == pytest.approx(v_max * np.exp(0.5), rel=1e-12)


def test_phi_requires_nonnegative_u_when_monotone():
    fld = replace(line_field(-2.0, 2.0, 0.1, lambda x: -0.5 * np.exp(-x * x)),
                  bc=FROZEN)
    with pytest.raises(ValueError):
        one_record(fld, euclidean_metric(1), (1.0, 1.0))


def test_phi_monotone_on_curved_run():
    metric = conformal_metric(3, a=0.5, tau=1.0)
    from mcflow.geometry import ricci_form_bound
    c = ricci_form_bound(metric, 0.5, 20.0)
    fld = radial_field(
        0.5, 20.0, 0.05,
        lambda r: 0.3 * (1 - smooth_cutoff(1.0, 2.0, r)) * smooth_cutoff(3.0, 5.0, r))
    cfg = SolverConfig(t_end=2.0, snapshot_every=1.0, record_every=0.1)
    traj = run_flow(metric, fld, cfg, phi_params=(c, 1.0 / c))
    phis = traj.records["sup_phi"]
    assert all(b <= a + 1e-6 for a, b in zip(phis, phis[1:]))
    assert all(p >= np.exp(1.0 / c) - 1e-12 for p in phis)


# ---------------------------------------------------------------------------
# barrier margin
# ---------------------------------------------------------------------------

def test_barrier_margin_zero_field():
    prof = build_outer_barrier(3, r1_min=2.0, h=1.0, eps=0.1)
    fld = radial_field(0.0, 50.0, 0.1, lambda r: np.zeros_like(r))
    assert one_record(fld, euclidean_metric(3), profile=prof)[
        "barrier_margin"] >= 0.1


def test_barrier_margin_of_profile_itself_is_zero():
    prof = build_outer_barrier(3, r1_min=2.0, h=1.0, eps=0.1)
    nodes = np.arange(2.0, 40.0, 0.05)
    vals = prof.value(nodes)
    from mcflow.fields import Field
    fld = Field(kind="radial", nodes=nodes, values=vals, h=0.05,
                bc=("asymptotic_decay", "asymptotic_decay"))
    assert one_record(fld, euclidean_metric(3), profile=prof)[
        "barrier_margin"] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# fits and checks
# ---------------------------------------------------------------------------

def test_decay_fit_exact_power_laws():
    ts = np.geomspace(1.0, 100.0, 40)
    fit = decay_exponent_fit(records_from(ts, ts ** -0.25), (1.0, 100.0))
    assert fit["exponent"] == pytest.approx(-0.25, abs=1e-10)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert fit["window"] == [1.0, 100.0]
    fit = decay_exponent_fit(records_from(ts, 3.0 * ts ** -0.5), (1.0, 100.0))
    assert fit["exponent"] == pytest.approx(-0.5, abs=1e-10)
    assert fit["intercept"] == pytest.approx(np.log(3.0), abs=1e-10)


def test_decay_fit_needs_enough_points():
    ts = np.geomspace(1.0, 100.0, 5)
    with pytest.raises(InsufficientDataError):
        decay_exponent_fit(records_from(ts, ts ** -0.25), (1.0, 100.0))


def test_boundary_slope_series_zero_run():
    cfg = SolverConfig(t_end=0.5, snapshot_every=0.1)
    fld = radial_field(0.0, 4.0, 0.05, lambda r: np.zeros_like(r))
    traj = run_flow(euclidean_metric(3), fld, cfg)
    assert max_boundary_slope(traj) == 0.0


def test_max_boundary_slope_takes_the_largest_and_keeps_a_nan():
    # the one-sided end slope (3 u_N - 4 u_(N-1) + u_(N-2)) / (2 h)
    steep = [0.5, 0.2, 0.0]     # |0 - 0.8 + 0.5| / 0.2 = 1.5
    gentle = [0.1, 0.05, 0.0]   # |0 - 0.2 + 0.1| / 0.2 = 0.5
    traj = FlowTrajectory(field=SimpleNamespace(h=0.1),
                          times=np.array([0.0, 1.0]),
                          snapshots=np.array([gentle, steep]), records={})
    assert max_boundary_slope(traj) == pytest.approx(1.5, rel=1e-14)
    traj.times = np.append(traj.times, 2.0)
    traj.snapshots = np.vstack([traj.snapshots, [np.nan, 0.0, 0.0]])
    assert np.isnan(max_boundary_slope(traj))


def test_max_principle_check():
    recs = records_from([0, 1, 2], [1.0, 0.9, 0.8])
    assert max_principle_check(recs)["pass"]
    recs = records_from([0, 1, 2], [1.0, 0.9, 0.901])
    rep = max_principle_check(recs)
    assert rep["name"] == "max_principle"
    assert rep["pass"] is False
    assert rep["worst"] == pytest.approx(1e-3, abs=1e-12)
    flat = records_from([0, 1], [0.0, 0.0])
    assert max_principle_check(flat)["pass"]


def test_rise_check():
    assert rise_check("r", [1.0, 0.5, 0.5], 0.0) == {
        "name": "r", "pass": True, "worst": 0.0}
    assert rise_check("r", [1.0], 0.0)["worst"] == 0.0
    rep = rise_check("r", [1.0, 1.5, 1.0], 0.4)
    assert rep["pass"] is False and rep["worst"] == 0.5
    # a slack per rise, as the relative L2 slack
    assert rise_check("r", [1.0, 1.5, 2.0], np.array([0.5, 0.4]))["pass"] \
        is False
    nan = rise_check("r", [1.0, np.nan, 0.5], 1.0)
    assert nan["pass"] is False and np.isnan(nan["worst"])


def test_h1_decay_check():
    ts = np.array([0.0, 1.0, 2.0])
    good = records_from(ts, ts * 0, l2s=[1.0, 0.8, 0.7],
                        h1s=[0.5, 0.4, 0.3])
    assert h1_decay_check(good)["pass"]
    bad = records_from(ts, ts * 0, l2s=[1.0, 1.0, 1.0], h1s=[0.0, 0.4, 0.0])
    # at t=1: 1.0 + 0.16 > 1.001
    rep = h1_decay_check(bad)
    assert rep["name"] == "h1_integral_bound"
    assert rep["pass"] is False
    assert rep["worst"] > 1.1


def test_a_plan_records_the_columns_it_is_configured_for():
    # the five norms always, the tilt monitor and the barrier margin only
    # when configured; a block has a row per time, a column per name
    metric = conformal_metric(3, a=0.5, tau=1.0)
    fld = radial_field(0.5, 20.0, 0.05, lambda r: 0.1 * np.exp(-r))
    profile = build_outer_barrier(3, r1_min=2.0, h=1.0, eps=0.05,
                                  metric=metric)
    assert COLUMNS == ("t", "sup_u", "grad_max", "l2", "h1_grad", "sup_phi",
                       "barrier_margin")
    rows = np.stack([fld.values, 0.5 * fld.values, 0.25 * fld.values])
    for phi, barrier, columns in (
            (None, None, COLUMNS[:5]),
            ((0.1, 10.0), None, COLUMNS[:6]),
            (None, profile, COLUMNS[:5] + ("barrier_margin",)),
            ((0.1, 10.0), profile, COLUMNS)):
        plan = RecordPlan(fld, metric, phi, barrier)
        assert plan.columns == columns
        block = make_record(plan, rows, [0.0, 0.5, 1.0])
        assert block.shape == (3, len(columns))
        assert block[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert np.all(np.diff(block[:, 1]) < 0)  # sup|u| halves, row by row
