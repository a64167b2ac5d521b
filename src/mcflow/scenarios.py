"""Configuration-driven scenario runners and their file artifacts.

A scenario config is a JSON object with nested sections (see
docs/config_schema.md).  Every runner returns a ScenarioResult carrying a
summary dict, a list of named pass/fail checks, and warnings; the CLI turns
those into exit codes.  All data files are written with 17 significant
digits and fixed column order, so identical configs produce byte-identical
output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import diagnostics
from .barriers import (TranslatingBarrier,
                       build_outer_barrier, supersolution_profile_derivs,
                       translating_barrier_certificate,
                       translating_barrier_eval, verify_static_supersolution)
from .fields import Field, line_field, radial_field
from .geometry import (RadialMetric, conformal_metric, euclidean_metric,
                       graph_quantities, ricci_form_bound)
from .initial_data import decay_radius, smooth_cutoff
from .solver import (NUMERIC_FAILURES, FlowTrajectory, SolverConfig,
                     nested_ball_study, run_flow, solve_dirichlet)

SCENARIO_TAGS = ("flow_1d", "flow_radial", "dirichlet", "nested_balls",
                 "no_lift_off", "barrier_verify", "translating_verify",
                 "decay_study")

#: Allowed rise of the discrete metric slope over a run (empirical surrogate
#: for gradient preservation).
SPACELIKE_PRESERVATION_SLACK = 0.02
#: Per-record slack for the monotone tilt monitor.
PHI_MONOTONE_SLACK = 1e-6


class ConfigError(ValueError):
    """Invalid or missing configuration entry; carries the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _section(cfg: dict, key: str, path: str = "") -> dict:
    full = f"{path}.{key}" if path else key
    value = cfg.get(key)
    if value is None:
        raise ConfigError(full, "missing section")
    if not isinstance(value, dict):
        raise ConfigError(full, "expected an object")
    return value


def _number(sec: dict, key: str, path: str, default=None, minimum=None):
    if key not in sec:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required number")
        return default
    value = sec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    return float(value)


def _string(sec: dict, key: str, path: str, choices=None, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required string")
        return default
    value = sec[key]
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}", f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}.{key}", f"must be one of {choices}")
    return value


def _pair(sec: dict, key: str, path: str, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required pair")
        return default
    value = sec[key]
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in value)):
        raise ConfigError(f"{path}.{key}", "expected a pair of numbers")
    return (float(value[0]), float(value[1]))


def build_metric(cfg: dict) -> RadialMetric:
    sec = _section(cfg, "metric")
    family = _string(sec, "family", "metric",
                     choices=("euclidean", "conformal_power"))
    n = int(_number(sec, "n", "metric", minimum=1))
    if family == "euclidean":
        return euclidean_metric(n)
    a = _number(sec, "a", "metric", minimum=0.0)
    tau = _number(sec, "tau", "metric")
    power = _number(sec, "power", "metric", default=1.0)
    if tau <= 0:
        raise ConfigError("metric.tau", f"must be > 0, got {tau}")
    if a == 0:
        raise ConfigError("metric.a", "conformal_power needs a > 0")
    return conformal_metric(n, a=a, tau=tau, power=power)


def build_solver_config(cfg: dict) -> SolverConfig:
    sec = _section(cfg, "solver")
    kwargs = dict(
        h=_number(sec, "h", "solver"),
        t_end=_number(sec, "t_end", "solver"),
        cfl_safety=_number(sec, "cfl_safety", "solver", default=0.9),
        snapshot_every=_number(sec, "snapshot_every", "solver", default=0.0) or None,
        record_every=_number(sec, "record_every", "solver", default=0.0) or None,
        clamp_policy=_string(sec, "clamp_policy", "solver",
                             choices=("reject", "halt_and_report"),
                             default="reject"),
        max_steps=int(_number(sec, "max_steps", "solver", default=20_000_000)),
    )
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError("solver", str(exc)) from exc


def initial_profile(sec: dict, path: str = "initial_data"):
    """Profile callable from an initial-data section."""
    family = _string(sec, "family", path,
                     choices=("zero", "gaussian", "bump", "radial_bump",
                              "slow_tail", "tabulated"))
    if family == "zero":
        return lambda c: np.zeros_like(np.asarray(c, dtype=float))
    if family == "gaussian":
        height = _number(sec, "height", path)
        sigma = _number(sec, "sigma", path, minimum=1e-12)
        center = _number(sec, "center", path, default=0.0)
        return lambda c: height * np.exp(-((c - center) ** 2) / (2 * sigma ** 2))
    if family == "bump":
        height = _number(sec, "height", path)
        plateau = _number(sec, "plateau", path, minimum=0.0)
        support = _number(sec, "support", path)
        center = _number(sec, "center", path, default=0.0)
        if support <= plateau:
            raise ConfigError(f"{path}.support", "must exceed plateau")
        return lambda c: height * smooth_cutoff(plateau, support,
                                                np.abs(c - center))
    if family == "radial_bump":
        height = _number(sec, "height", path)
        rise = _pair(sec, "rise", path)
        fall = _pair(sec, "fall", path)
        return lambda c: height * (1.0 - smooth_cutoff(rise[0], rise[1], c)) \
            * smooth_cutoff(fall[0], fall[1], c)
    if family == "slow_tail":
        height = _number(sec, "height", path)
        core = _number(sec, "core", path, minimum=1e-12)
        taper = _pair(sec, "taper", path)
        center = _number(sec, "center", path, default=0.0)
        return lambda c: (height * (1.0 + ((c - center) / core) ** 2) ** -0.25
                          * smooth_cutoff(taper[0], taper[1], np.abs(c - center)))
    # tabulated
    file_path = _string(sec, "path", path)
    try:
        data = np.loadtxt(file_path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"{path}.path", f"cannot read {file_path}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"{path}.path", f"cannot parse {file_path}: {exc}")
    if data.shape[0] < 1 or data.shape[1] < 2:
        raise ConfigError(f"{path}.path", f"{file_path} needs rows of x, u "
                          f"columns, got an array of shape {data.shape}")
    if not np.isfinite(data).all():
        raise ConfigError(f"{path}.path",
                          f"{file_path} holds a non-finite entry")
    order = np.argsort(data[:, 0])
    xs, us = data[order, 0], data[order, 1]
    return lambda c: np.interp(c, xs, us, left=0.0, right=0.0)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    metric: RadialMetric
    solver: SolverConfig | None
    raw: dict

    @classmethod
    def from_dict(cls, cfg: dict) -> "ScenarioConfig":
        if not isinstance(cfg, dict):
            raise ConfigError("config", "top level must be an object")
        scenario = _string(cfg, "scenario", "", choices=SCENARIO_TAGS)
        metric = build_metric(cfg)
        needs_solver = scenario not in ("barrier_verify", "translating_verify")
        solver = build_solver_config(cfg) if needs_solver else None
        return cls(scenario=scenario, metric=metric, solver=solver, raw=cfg)


@dataclass
class ScenarioResult:
    summary: dict
    checks: list = dc_field(default_factory=list)
    warnings: list = dc_field(default_factory=list)
    trajectory: FlowTrajectory | None = None

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    @property
    def numeric_failure(self) -> bool:
        return self.summary.get("termination") in NUMERIC_FAILURES


# ---------------------------------------------------------------------------
# artifact I/O
# ---------------------------------------------------------------------------

DIAG_HEADER = "t,sup_u,grad_max,l2,h1_grad,sup_phi,barrier_margin"


def fmt(x) -> str:
    return "" if x is None else format(float(x), ".17g")


def write_diagnostics_csv(records, path: str):
    lines = [DIAG_HEADER]
    for rec in records:
        lines.append(",".join([fmt(rec.t), fmt(rec.sup_u), fmt(rec.grad_max),
                               fmt(rec.l2), fmt(rec.h1_grad), fmt(rec.sup_phi),
                               fmt(rec.barrier_margin)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_diagnostics_csv(path: str):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != DIAG_HEADER:
            raise ValueError(f"unexpected diagnostics header {header!r}")
        records = []
        for line in fh:
            parts = line.strip().split(",")
            vals = [float(p) if p else None for p in parts]
            records.append(diagnostics.DiagnosticsRecord(
                t=vals[0], sup_u=vals[1], grad_max=vals[2], l2=vals[3],
                h1_grad=vals[4], sup_phi=vals[5], barrier_margin=vals[6]))
    return records


def write_snapshot_csvs(trajectory: FlowTrajectory, directory: str):
    """One `x,u` or `r,u` CSV per snapshot, named by its time.

    Cells are written as `fmt` writes them; the node column, shared by the
    snapshots of a trajectory, is formatted once.
    """
    os.makedirs(directory, exist_ok=True)
    nodes = cells = None
    for t, fld in trajectory.snapshots:
        if fld.nodes is not nodes:
            nodes = fld.nodes
            cells = [f"{c:.17g}," for c in nodes.tolist()]
        with open(os.path.join(directory, f"t{t:.6f}.csv"), "w") as fh:
            fh.write("x,u\n" if fld.kind == "line" else "r,u\n")
            fh.writelines(f"{c}{u:.17g}\n"
                          for c, u in zip(cells, fld.values.tolist()))


def read_snapshot_csv(path: str):
    with open(path) as fh:
        header = fh.readline().strip()
        if header not in ("x,u", "r,u"):
            raise ValueError(f"unexpected snapshot header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header.split(",")[0], data


def write_summary_json(summary: dict, path: str):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run_artifacts(result: ScenarioResult, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    if result.trajectory is not None:
        write_diagnostics_csv(result.trajectory.records,
                              os.path.join(out_dir, "diagnostics.csv"))
        write_snapshot_csvs(result.trajectory,
                            os.path.join(out_dir, "snapshots"))
    payload = dict(result.summary)
    payload["checks"] = result.checks
    payload["warnings"] = sorted(result.warnings)
    payload["pass"] = result.all_passed
    write_summary_json(payload, os.path.join(out_dir, "summary.json"))


# ---------------------------------------------------------------------------
# shared run pieces
# ---------------------------------------------------------------------------

def _base_flow_checks(traj: FlowTrajectory, slack=SPACELIKE_PRESERVATION_SLACK):
    checks = []
    mp = diagnostics.max_principle_check(traj.records)
    checks.append({"name": "max_principle", "pass": mp.passed,
                   "worst": mp.worst})
    grads = [rec.grad_max for rec in traj.records]
    ok = max(grads) <= grads[0] + slack
    checks.append({"name": "spacelike_preservation", "pass": bool(ok),
                   "initial": grads[0], "max": max(grads), "slack": slack})
    return checks


def _line_integral_checks(traj: FlowTrajectory):
    checks = []
    l2s = np.array([rec.l2 for rec in traj.records])
    rises = np.diff(l2s)
    ok = bool(np.all(rises <= 1e-3 * l2s[:-1]))
    checks.append({"name": "l2_monotone", "pass": ok,
                   "worst": float(rises.max()) if rises.size else 0.0})
    hb = diagnostics.h1_decay_check(traj.records)
    checks.append({"name": "h1_integral_bound", "pass": hb.passed,
                   "worst": hb.worst})
    return checks


def _phi_monotone_check(traj: FlowTrajectory):
    phis = np.array([rec.sup_phi for rec in traj.records])
    rises = np.diff(phis)
    worst = float(rises.max()) if rises.size else 0.0
    return {"name": "phi_monotone", "pass": bool(worst <= PHI_MONOTONE_SLACK),
            "worst": worst}


def _summarize(traj: FlowTrajectory) -> dict:
    last = traj.records[-1]
    summary = {"termination": traj.termination, "steps": traj.steps,
               "final_time": traj.final_time,
               "final_sup_u": last.sup_u, "final_l2": last.l2,
               "initial_grad_max": traj.records[0].grad_max,
               "max_grad_max": max(rec.grad_max for rec in traj.records),
               "records": len(traj.records)}
    if traj.message:  # a halted run says why; other summaries keep their keys
        summary["halt_message"] = traj.message
    return summary


def build_field_from_config(cfg: ScenarioConfig, kind: str,
                            outer: float | None = None) -> Field:
    raw = cfg.raw
    sec = _section(raw, "domain")
    lo = _number(sec, "lo", "domain")
    hi = outer if outer is not None else _number(sec, "hi", "domain")
    profile = initial_profile(_section(raw, "initial_data"))
    h = cfg.solver.h
    if kind == "line":
        return line_field(lo, hi, h, profile)
    if lo < cfg.metric.r_min:
        raise ConfigError("domain.lo",
                          f"below the metric's r_min = {cfg.metric.r_min:g}")
    return radial_field(lo, hi, h, profile)


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def run_flow_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    kind = "line" if cfg.scenario in ("flow_1d", "decay_study") else "radial"
    u0 = build_field_from_config(cfg, kind)
    traj = run_flow(cfg.metric, u0, cfg.solver)
    checks = _base_flow_checks(traj)
    if kind == "line":
        checks.extend(_line_integral_checks(traj))
    summary = _summarize(traj)
    result = ScenarioResult(summary=summary, checks=checks, trajectory=traj)
    if cfg.scenario == "decay_study":
        window = _pair(cfg.raw, "fit_window", "", default=(10.0, cfg.solver.t_end))
        rng = _pair(cfg.raw, "expected_exponent_range", "",
                    default=(-0.30, -0.20))
        fit = diagnostics.decay_exponent_fit(traj.records, window)
        summary["decay_fit"] = fit.to_dict()
        checks.append({"name": "decay_exponent_in_range",
                       "pass": bool(rng[0] <= fit.exponent <= rng[1]),
                       "exponent": fit.exponent, "range": list(rng)})
    return result


def dirichlet_gradient_bound(metric: RadialMetric, R: float,
                             sup_u0: float) -> dict:
    """A priori outer-boundary slope bound for the ball problem at radius R.

    Built from the static profile with inner radius >= R, cap sup_u0 + 1 and
    zero offset; the bound is |b'(R^2)| (the blend makes the metric flat at
    the outer sphere, so the flat norm applies there).
    """
    profile = build_outer_barrier(metric.n, r1_min=R, h=sup_u0 + 1.0,
                                  eps=0.0, metric=metric)
    b1 = supersolution_profile_derivs(metric.n, profile.r0, R * R)[0]
    return {"r0": profile.r0, "bound_slope": float(abs(b1)),
            "profile": profile}


def run_dirichlet_case(cfg: ScenarioConfig, R: float) -> ScenarioResult:
    u0 = build_field_from_config(cfg, "radial", outer=R * R)
    traj = solve_dirichlet(R, cfg.metric, u0, cfg.solver)
    series = diagnostics.boundary_slope_series(traj)
    bound = dirichlet_gradient_bound(cfg.metric, R,
                                     float(np.max(np.abs(u0.values))))
    profile = bound.pop("profile")
    checks = _base_flow_checks(traj)
    checks.append({"name": "boundary_slope_dominated",
                   "pass": bool(series.max_slope <= bound["bound_slope"]),
                   "max_boundary_slope": series.max_slope,
                   "bound_slope": bound["bound_slope"]})
    # domination by the shifted profile on [r0, R^2]
    shift = profile.value(R * R)
    worst = np.inf
    for _, fld in traj.snapshots:
        mask = fld.nodes >= profile.r0
        if not np.any(mask):
            continue
        margin = (profile.value(fld.nodes[mask]) - shift
                  - np.abs(fld.values[mask]))
        worst = min(worst, float(margin.min()))
    checks.append({"name": "dirichlet_domination",
                   "pass": bool(worst >= -1e-12), "worst_margin": worst})
    summary = _summarize(traj)
    summary.update({"R": R, "max_boundary_slope": series.max_slope,
                    "bound_slope": bound["bound_slope"],
                    "barrier_r0": bound["r0"]})
    return ScenarioResult(summary=summary, checks=checks, trajectory=traj)


def run_dirichlet_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    R = _number(cfg.raw, "R", "", minimum=2.0)
    return run_dirichlet_case(cfg, R)


def run_nested_scenario(cfg: ScenarioConfig, R_values=None) -> ScenarioResult:
    if R_values is None:
        raw_list = cfg.raw.get("R_list")
        if (not isinstance(raw_list, list) or len(raw_list) < 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in raw_list)):
            raise ConfigError("R_list", "expected a list of >= 2 numbers")
        R_values = [float(v) for v in raw_list]
    R_values = sorted(R_values)
    u0 = build_field_from_config(cfg, "radial", outer=max(R_values) ** 2)
    rows = nested_ball_study(R_values, cfg.metric, u0, cfg.solver)
    diffs = [row["max_difference"] for row in rows]
    warnings = []
    if any(b > a for a, b in zip(diffs[:-1], diffs[1:])):
        warnings.append("nested-ball differences are not monotone decreasing")
    summary = {"rows": rows, "R_values": R_values}
    return ScenarioResult(summary=summary, checks=[], warnings=warnings)


def run_no_lift_off_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    u0 = build_field_from_config(cfg, "radial")
    sec = _section(cfg.raw, "barrier")
    eps = _number(sec, "eps", "barrier", minimum=0.0)
    sup0 = float(np.max(np.abs(u0.values)))
    r1 = decay_radius(u0, eps) if eps > 0 and sup0 > 0 else float(u0.nodes[0])
    r1 = max(r1, cfg.metric.r_min * 10, _number(sec, "r1_min", "barrier",
                                                default=1.0))
    profile = build_outer_barrier(cfg.metric.n, r1_min=r1,
                                  h=max(sup0, 1e-6), eps=eps,
                                  metric=cfg.metric)
    phi_params = None
    if cfg.metric.a != 0.0:
        c_ric = ricci_form_bound(cfg.metric, float(u0.nodes[0]),
                                 float(u0.nodes[-1]))
        if c_ric > 0:
            phi_params = (c_ric, 1.0 / c_ric)
    traj = run_flow(cfg.metric, u0, cfg.solver, phi_params=phi_params,
                    barrier=profile)
    checks = _base_flow_checks(traj)
    margins = [rec.barrier_margin for rec in traj.records]
    checks.append({"name": "barrier_margin_positive",
                   "pass": bool(min(margins) > 0.0),
                   "min_margin": float(min(margins))})
    if phi_params is not None:
        checks.append(_phi_monotone_check(traj))
    summary = _summarize(traj)
    summary.update({"barrier_r0": profile.r0, "barrier_eps": eps,
                    "decay_radius": r1,
                    "ricci_constant": phi_params[0] if phi_params else 0.0})
    return ScenarioResult(summary=summary, checks=checks, trajectory=traj)


def run_barrier_verify_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    sec = _section(cfg.raw, "barrier")
    profile = build_outer_barrier(
        cfg.metric.n,
        r1_min=_number(sec, "r1_min", "barrier"),
        h=_number(sec, "h", "barrier"),
        eps=_number(sec, "eps", "barrier", default=0.0, minimum=0.0),
        metric=cfg.metric)
    count = int(_number(cfg.raw, "sample_radii", "", default=256.0))
    radii = np.geomspace(profile.r0, profile.r_grid[-1], count)
    report = verify_static_supersolution(cfg.metric, profile, radii)
    checks = [
        {"name": "flat_identity", "pass":
            bool(report.max_identity_deviation <= 1e-10),
         "worst": report.max_identity_deviation},
        {"name": "curved_sign", "pass": report.all_passed,
         "worst": report.max_curved_value},
    ]
    summary = {"barrier_r0": profile.r0, "cap": profile.cap,
               "eps": profile.eps, "rows": report.to_json_rows()}
    return ScenarioResult(summary=summary, checks=checks)


def run_translating_verify_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    sec = _section(cfg.raw, "translating")
    n = cfg.metric.n
    x0 = sec.get("x0", [0.0] * n)
    tb = TranslatingBarrier(
        n=n, x0=np.asarray(x0, dtype=float),
        t0=_number(sec, "t0", "translating"),
        alpha=_number(sec, "alpha", "translating", default=0.0, minimum=0.0),
        mu=_number(sec, "mu", "translating"))
    cert = translating_barrier_certificate(tb)
    rng = np.random.default_rng(int(_number(cfg.raw, "seed", "", default=0.0)))
    worst = 0.0
    flat = euclidean_metric(n)
    for _ in range(200):
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        x = tb.x0 + d * tb.rho * rng.uniform(0.0, 1.0)
        t = rng.uniform(0.0, -tb.t0)
        _, dtv, grad, hess = translating_barrier_eval(tb, x, t)
        q = graph_quantities(flat, x, grad)
        worst = max(worst, abs(dtv - float(np.sum(q.g_inv * hess)) - tb.alpha))
    checks = [
        {"name": "translating_identity", "pass": bool(worst <= 1e-12),
         "worst": worst},
        {"name": "gradient_bound", "pass": cert.gradient_ok,
         "value": cert.min_gradient_complement, "bound": cert.gradient_bound},
        {"name": "boundary_slope", "pass": cert.boundary_ok,
         "value": cert.min_boundary_slope, "bound": cert.boundary_slope_bound},
    ]
    return ScenarioResult(summary={"certificate": cert.to_dict()},
                          checks=checks)


_RUNNERS = {
    "flow_1d": run_flow_scenario,
    "flow_radial": run_flow_scenario,
    "decay_study": run_flow_scenario,
    "dirichlet": run_dirichlet_scenario,
    "nested_balls": run_nested_scenario,
    "no_lift_off": run_no_lift_off_scenario,
    "barrier_verify": run_barrier_verify_scenario,
    "translating_verify": run_translating_verify_scenario,
}


def run_scenario_config(cfg: ScenarioConfig) -> ScenarioResult:
    return _RUNNERS[cfg.scenario](cfg)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _fit_loglog(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    good = ys > 0
    if good.sum() < 2:
        return None
    return float(np.polyfit(np.log(xs[good]), np.log(ys[good]), 1)[0])


def sweep_worker(args):
    """Top-level worker for process pools: one swept run from primitives."""
    raw, R, out_dir = args
    cfg = ScenarioConfig.from_dict(raw)
    result = run_dirichlet_case(cfg, R)
    if out_dir is not None:
        write_run_artifacts(result, out_dir)
    result.trajectory = None  # keep the return payload picklable and small
    return R, result


def run_dirichlet_sweep(raw_config: dict, R_values, out_dir=None,
                        workers: int = 1):
    """Ball-problem sweep over R: per-run rows plus scaling fits.

    The per-R a priori bound |b'(R^2)| gives the scaling that is fitted
    (`bound_exponent`); the measured outer slopes are checked against their
    bounds and their own fit is reported as `measured_exponent` for
    information (it decays far faster than the bound; see the README).
    """
    jobs = [(raw_config, R,
             None if out_dir is None else os.path.join(out_dir, f"run_R{R:g}"))
            for R in sorted(R_values)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(sweep_worker, jobs))
    else:
        outcomes = [sweep_worker(job) for job in jobs]
    outcomes.sort(key=lambda pair: pair[0])
    rows = []
    for R, result in outcomes:
        s = result.summary
        rows.append({"R": R, "max_boundary_slope": s["max_boundary_slope"],
                     "bound_slope": s["bound_slope"],
                     "barrier_r0": s["barrier_r0"],
                     "initial_grad_max": s["initial_grad_max"],
                     "max_grad_max": s["max_grad_max"],
                     "termination": s["termination"],
                     "pass": result.all_passed})
    fits = {
        "bound_exponent": _fit_loglog([r["R"] for r in rows],
                                      [r["bound_slope"] for r in rows]),
        "measured_exponent": _fit_loglog([r["R"] for r in rows],
                                         [r["max_boundary_slope"] for r in rows]),
    }
    return rows, fits, [result for _, result in outcomes]


SWEEP_HEADER = ("R,max_boundary_slope,bound_slope,barrier_r0,"
                "initial_grad_max,max_grad_max,termination,pass")


def write_sweep_csv(rows, path: str):
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(",".join([
            fmt(r["R"]), fmt(r["max_boundary_slope"]), fmt(r["bound_slope"]),
            fmt(r["barrier_r0"]), fmt(r["initial_grad_max"]),
            fmt(r["max_grad_max"]), r["termination"], str(r["pass"]).lower()]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sweep_csv(path: str) -> list:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != SWEEP_HEADER:
            raise ValueError(f"unexpected sweep header {header!r}")
        rows = []
        for line in fh:
            parts = line.strip().split(",")
            rows.append({"R": float(parts[0]),
                         "max_boundary_slope": float(parts[1]),
                         "bound_slope": float(parts[2]),
                         "barrier_r0": float(parts[3]),
                         "initial_grad_max": float(parts[4]),
                         "max_grad_max": float(parts[5]),
                         "termination": parts[6],
                         "pass": parts[7] == "true"})
    return rows
