"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with `pytest -s -v` to see
them live).  The long flow runs are shared session fixtures; total runtime
is a couple of minutes at desk scale.
"""

import json
import os
import time

import numpy as np
import pytest

from mcflow.barriers import build_outer_barrier, curved_profile_speed
from mcflow.geometry import conformal_metric
from mcflow.scenarios import (ScenarioConfig, run_dirichlet_sweep,
                              run_scenario_config)
from mcflow.verification import (RANDOM_SAMPLES, check_graph_quantities,
                                 check_maximal_surface_residual,
                                 check_strict_supersolution_identity,
                                 check_translating_certificates,
                                 check_translating_identity)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def load_config(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return json.load(fh)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared long runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def decay_result():
    cfg = ScenarioConfig.from_dict(load_config("decay_study.json"))
    return run_scenario_config(cfg)


@pytest.fixture(scope="session")
def dirichlet_sweep_result():
    cfg = ScenarioConfig.from_dict(load_config("dirichlet_sweep.json"))
    return run_dirichlet_sweep(cfg)


@pytest.fixture(scope="session")
def no_lift_off_result():
    cfg = ScenarioConfig.from_dict(load_config("no_lift_off.json"))
    return run_scenario_config(cfg)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_maximal_surface_residual():
    t0 = time.time()
    check = check_maximal_surface_residual()
    elapsed = time.time() - t0
    # n in (3, 4, 5) x c in (0.5, 1, 2), 201 radii each on [0.1, 100]
    assert check["samples"] == 9 * 201
    report("criterion 1: stationary-profile residual <= 1e-10",
           check["pass"] and elapsed < 1.0,
           f"worst {check['deviation']:.3e} over {check['samples']} samples, "
           f"{elapsed:.2f}s")


def test_criterion_02_strict_supersolution_identity():
    t0 = time.time()
    check = check_strict_supersolution_identity()
    elapsed = time.time() - t0
    # n in (3, 4, 5) x r0 in (0.5, 1, 2), 201 radii each on [r0, 100]
    assert check["samples"] == 9 * 201
    report("criterion 2: static-profile speed = (1/2) b'/r to 1e-10",
           check["pass"] and elapsed < 1.0,
           f"worst {check['deviation']:.3e}, {elapsed:.2f}s")


def test_criterion_03_translating_certificate():
    t0 = time.time()
    ident = check_translating_identity(n_points=RANDOM_SAMPLES)
    grad_chk, slope_chk = check_translating_certificates()
    elapsed = time.time() - t0
    # mu in (0.1, 0.5, 0.9) x t0 in (-2, -10, -100), 1,112 points each
    assert ident["samples"] == 9 * 1112 and RANDOM_SAMPLES == 10000
    assert grad_chk["samples"] == slope_chk["samples"] == 9
    ok = ident["pass"] and grad_chk["pass"] and slope_chk["pass"] and elapsed < 5.0
    report("criterion 3: translating identity 1e-12 + inequality certificates",
           ok, f"identity worst {ident['deviation']:.3e} at {ident['samples']} pts, "
               f"{elapsed:.2f}s")


def test_criterion_04_curved_supersolution_sign():
    t0 = time.time()
    worst = -np.inf
    for a in (0.1, 0.5, 1.0):
        for tau in (0.5, 1.0):
            metric = conformal_metric(3, a=a, tau=tau)
            prof = build_outer_barrier(3, r1_min=2.0, h=1.0, eps=0.05,
                                       metric=metric)
            radii = np.geomspace(prof.r0, 1e4 * prof.r0, 256)
            worst = max(worst, float(np.max(
                curved_profile_speed(metric, 3, prof.r0, radii))))
    elapsed = time.time() - t0
    report("criterion 4: curved speed <= 0 on all certificate grids",
           worst <= 0.0 and elapsed < 10.0,
           f"worst speed {worst:.3e}, {elapsed:.1f}s")


def test_criterion_05_one_dimensional_decay_rate(decay_result):
    summary, _ = decay_result
    fit = summary["decay_fit"]
    ok = (summary["termination"] == "reached_t_end"
          and -0.30 <= fit["exponent"] <= -0.20)
    report("criterion 5: sup-norm decay exponent in [-0.30, -0.20]", ok,
           f"exponent {fit['exponent']:.4f} (r^2 = {fit['r_squared']:.5f})")


def test_criterion_06_one_dimensional_integral_bounds(decay_result):
    recs = decay_result[1].records
    l2s = recs["l2"]
    mono = bool(np.all(np.diff(l2s) <= 1e-3 * l2s[:-1]))
    bound = l2s[0] ** 2 * (1 + 1e-3)
    lhs = l2s ** 2 + recs["t"] * recs["h1_grad"] ** 2
    h1_ok = bool(np.all(lhs <= bound))
    report("criterion 6: L2 nonincreasing and l2^2 + t h1^2 <= l2(0)^2",
           mono and h1_ok,
           f"max lhs/bound {float((lhs / bound).max()):.6f}")


def test_criterion_07_boundary_gradient_scaling(dirichlet_sweep_result):
    rows, fits = dirichlet_sweep_result["rows"], dirichlet_sweep_result["fits"]
    exponent = fits["bound_exponent"]
    dominated = all(row["max_boundary_slope"] <= row["bound_slope"]
                    for row in rows)
    ok = dominated and -1.7 <= exponent <= -1.3
    report("criterion 7: boundary-gradient bound scales like R^{-1.5} and "
           "dominates the measured slopes", ok,
           f"bound exponent {exponent:.4f}, measured exponent "
           f"{fits['measured_exponent']:.2f}, slopes "
           + ", ".join(f"{row['max_boundary_slope']:.2e}<={row['bound_slope']:.2e}"
                       for row in rows))


def test_criterion_08_no_lift_off(no_lift_off_result):
    summary, traj = no_lift_off_result
    recs = traj.records
    margins = recs["barrier_margin"]
    ok = (summary["termination"] == "reached_t_end"
          and min(margins) > 0.0 and recs["t"][-1] >= 100.0 - 1e-9)
    report("criterion 8: barrier margin positive through t = 100", ok,
           f"min margin {min(margins):.4f} over {len(recs['t'])} records")


def test_criterion_09_spacelikeness_preservation(decay_result,
                                                 dirichlet_sweep_result,
                                                 no_lift_off_result):
    worst_rise = -np.inf
    runs = [decay_result[1], no_lift_off_result[1]]
    details = []
    for traj in runs:
        grads = traj.records["grad_max"]
        worst_rise = max(worst_rise, max(grads) - grads[0])
        details.append(f"{grads[0]:.3f}->{max(grads):.3f}")
    for row in dirichlet_sweep_result["rows"]:
        worst_rise = max(worst_rise, row["max_grad_max"]
                         - row["initial_grad_max"])
        details.append(f"{row['initial_grad_max']:.3f}->"
                       f"{row['max_grad_max']:.3f}")
    report("criterion 9: metric slope never rises by more than 0.02",
           worst_rise <= 0.02, f"worst rise {worst_rise:.2e} ({details})")


def test_criterion_10_graph_quantity_identities():
    t0 = time.time()
    grad_chk, inv_chk = check_graph_quantities(n_points=RANDOM_SAMPLES)
    elapsed = time.time() - t0
    assert grad_chk["samples"] == inv_chk["samples"] == 10000
    ok = grad_chk["pass"] and inv_chk["pass"] and elapsed < 1.0
    report("criterion 10: graph identities to 1e-12 at 1e4 configurations",
           ok, f"gradient {grad_chk['deviation']:.3e}, inverse "
               f"{inv_chk['deviation']:.3e}, {elapsed:.2f}s")


def test_criterion_11_self_convergence():
    def sup_at_t1(h):
        raw = load_config("decay_study.json")
        raw["scenario"] = "flow_1d"
        del raw["fit_window"], raw["expected_exponent_range"]  # unread
        raw["solver"].update({"h": h, "t_end": 1.0, "snapshot_every": 1.0,
                              "record_every": 1.0})
        summary, _ = run_scenario_config(ScenarioConfig.from_dict(raw))
        return summary["final_sup_u"]

    s1, s2, s4 = sup_at_t1(0.05), sup_at_t1(0.025), sup_at_t1(0.0125)
    ratio = (s1 - s2) / (s2 - s4)
    report("criterion 11: Richardson ratio in [3.5, 4.5] under grid halving",
           3.5 <= ratio <= 4.5, f"ratio {ratio:.3f}")
