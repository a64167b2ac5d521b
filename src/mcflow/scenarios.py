"""Configuration-driven scenario runners and their file artifacts.

Runners take the typed `config.ScenarioConfig` of the one config pass,
never the JSON (see docs/config_schema.md).  A run returns (summary,
trajectory): the summary is the dict its summary.json writes, with its
named pass/fail `checks` and its `pass`, and the trajectory is None for a
certificate.  A sweep returns its summary dict, in the same shape; the CLI
turns their `pass` into exit codes.  Data files have a fixed column order,
and each float in a text file is written as `fmt` writes it,
`format(x, '.17g')`, through `%.17g` row templates.  A run's snapshot
values are one binary table, `snapshots/u.npy`, beside the text columns
of its nodes and times.  So identical configs produce byte-identical
output.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from . import diagnostics
from .barriers import (EQUALITY_SLACK, BarrierConstructionError,
                       build_outer_barrier, supersolution_profile_derivs,
                       translating_barrier_certificate,
                       verify_static_supersolution)
from .config import (LINE_SCENARIOS, ConfigError, ScenarioConfig,
                     build_field_from_config)
from .fields import Field
from .geometry import DomainError, RadialMetric, ricci_form_bound
from .initial_data import decay_radius
from .solver import FlowTrajectory, RecordError, run_flow, solve_dirichlet
from .verification import (PROFILE_TOL, SAMPLE_TOL,
                           translating_identity_deviation)

#: Allowed rise of the discrete metric slope over a run (empirical surrogate
#: for gradient preservation).
SPACELIKE_PRESERVATION_SLACK = 0.02
#: Per-record slack for the monotone tilt monitor.
PHI_MONOTONE_SLACK = 1e-6


def run_passed(termination: str | None, checks) -> bool:
    """The one pass rule: a flow run passes only if it reached t_end and
    every check passed; a run without a termination (a certificate) passes
    if every check passed."""
    return (termination in (None, "reached_t_end")
            and all(c["pass"] for c in checks))


def _finish(summary: dict, checks: list, trajectory=None) -> tuple:
    """A run's (summary, trajectory), its summary completed with its
    `checks` and their `pass` by `run_passed`."""
    summary["checks"] = checks
    summary["pass"] = run_passed(summary.get("termination"), checks)
    return summary, trajectory


# ---------------------------------------------------------------------------
# artifact I/O
# ---------------------------------------------------------------------------

def fmt(x) -> str:
    """One cell as every data file writes it: '' for None, else
    format(float(x), '.17g'), the bytes of the `%.17g` templates of the
    writers below."""
    return "" if x is None else format(float(x), ".17g")


#: Rows of a data file formatted per write: bounds the text held at once.
BLOCK_ROWS = 512


def _write_rows(path: str, header: str, template: str, values):
    """`header`, then a line `template % row` per row of the 2-D float
    array `values`, formatted and written a block of rows at a time."""
    with open(path, "w", newline="\n") as fh:  # same bytes on any OS
        fh.write(header + "\n")
        for start in range(0, len(values), BLOCK_ROWS):
            block = values[start:start + BLOCK_ROWS].tolist()
            fh.write("".join([template % tuple(row) for row in block]))


def write_diagnostics_csv(records, path: str):
    """One line per record, a cell per name of `diagnostics.COLUMNS`, as
    `fmt` writes it: blank in the columns the run does not record."""
    template = ",".join("%.17g" if name in records else ""
                        for name in diagnostics.COLUMNS) + "\n"
    _write_rows(path, ",".join(diagnostics.COLUMNS), template,
                np.column_stack([records[name] for name in diagnostics.COLUMNS
                                 if name in records]))


def read_diagnostics_csv(path: str) -> dict:
    """The records `write_diagnostics_csv` wrote to `path`: a column per
    name with a value in it."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ",".join(diagnostics.COLUMNS):
            raise ValueError(f"unexpected diagnostics header {header!r}")
        cells = [line.rstrip("\n").split(",") for line in fh]
    return {name: np.array(column, dtype=float) for name, column
            in zip(diagnostics.COLUMNS, zip(*cells)) if any(column)}


def write_snapshots(trajectory: FlowTrajectory, directory: str):
    """A run's snapshots as three files in `directory`:
    - `nodes.csv`: header `x` (line) or `r` (radial), a node per line
    - `times.csv`: header `t`, a snapshot time per line
    - `u.npy`: `np.save` of the snapshot table as the run holds it, float64
      with a row per time and a column per node
    `nodes.csv` sorts first, so a reader that takes the first file of the
    directory finds the grid."""
    os.makedirs(directory, exist_ok=True)
    grid = trajectory.field
    _write_rows(os.path.join(directory, "nodes.csv"),
                "x" if grid.kind == "line" else "r", "%.17g\n",
                grid.nodes[:, None])
    _write_rows(os.path.join(directory, "times.csv"), "t", "%.17g\n",
                trajectory.times[:, None])
    np.save(os.path.join(directory, "u.npy"), trajectory.snapshots)


def read_snapshots(directory: str) -> tuple:
    """(nodes, times, table) of the snapshots `write_snapshots` wrote to
    `directory`."""
    columns = []
    for name, headers in (("nodes.csv", ("x", "r")), ("times.csv", ("t",))):
        with open(os.path.join(directory, name)) as fh:
            header = fh.readline().strip()
            if header not in headers:
                raise ValueError(f"unexpected {name} header {header!r}")
            columns.append(np.loadtxt(fh, ndmin=1))
    return (*columns, np.load(os.path.join(directory, "u.npy")))


def write_summary_json(summary: dict, path: str):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run_artifacts(summary: dict, trajectory, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    if trajectory is not None:
        write_diagnostics_csv(trajectory.records,
                              os.path.join(out_dir, "diagnostics.csv"))
        write_snapshots(trajectory, os.path.join(out_dir, "snapshots"))
    write_summary_json(summary, os.path.join(out_dir, "summary.json"))


# ---------------------------------------------------------------------------
# shared run pieces
# ---------------------------------------------------------------------------

def _base_flow_checks(traj: FlowTrajectory):
    grads = traj.records["grad_max"]
    worst = float(np.max(grads))  # a NaN fails
    slack = SPACELIKE_PRESERVATION_SLACK
    return [diagnostics.max_principle_check(traj.records),
            {"name": "spacelike_preservation",
             "pass": bool(worst <= grads[0] + slack),
             "initial": float(grads[0]), "max": worst, "slack": slack}]


def _line_integral_checks(traj: FlowTrajectory):
    l2s = traj.records["l2"]
    return [diagnostics.rise_check("l2_monotone", l2s, 1e-3 * l2s[:-1]),
            diagnostics.h1_decay_check(traj.records)]


def _summarize(traj: FlowTrajectory) -> dict:
    records = traj.records
    summary = {"termination": traj.termination, "steps": traj.steps,
               "final_time": float(traj.times[-1]),
               "final_sup_u": float(records["sup_u"][-1]),
               "final_l2": float(records["l2"][-1]),
               "initial_grad_max": float(records["grad_max"][0]),
               "max_grad_max": float(np.max(records["grad_max"])),
               "records": len(records["t"])}
    if traj.message:  # a halted run says why; other summaries keep their keys
        summary["halt_message"] = traj.message
    return summary


@contextlib.contextmanager
def _solver_input():
    """Report the solver's checks on its input (data that does not decay at
    the grid edge, or breaks spacelikeness once its pinned ends are zero)
    as config errors; a failed record is a numeric failure."""
    try:
        yield
    except RecordError:
        raise
    except ValueError as exc:
        raise ConfigError("initial_data", str(exc)) from exc


def _static_barrier(cfg: ScenarioConfig, r1_min: float, h: float,
                    eps: float):
    """The static barrier on the config's metric.  One that cannot be built
    from the config's numbers (no certified inner radius within the search
    budget, or one too large for float64) is a config error naming
    `barrier`."""
    try:
        return build_outer_barrier(cfg.metric.n, r1_min=r1_min, h=h, eps=eps,
                                   metric=cfg.metric)
    except BarrierConstructionError as exc:
        raise ConfigError("barrier", f"no static barrier: {exc}") from exc


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def run_flow_scenario(cfg: ScenarioConfig) -> tuple:
    kind = "line" if cfg.scenario in LINE_SCENARIOS else "radial"
    u0 = build_field_from_config(cfg, kind)
    with _solver_input():
        traj = run_flow(cfg.metric, u0, cfg.solver)
    checks = _base_flow_checks(traj)
    if kind == "line":
        checks.extend(_line_integral_checks(traj))
    summary = _summarize(traj)
    # a run cut short fails whatever its fit; its window may hold no record
    if cfg.scenario == "decay_study" and traj.termination == "reached_t_end":
        try:
            fit = diagnostics.decay_exponent_fit(traj.records, cfg.fit_window)
        except diagnostics.InsufficientDataError as exc:
            raise ConfigError("fit_window", str(exc)) from exc
        summary["decay_fit"] = fit
        rng = cfg.expected_exponent_range
        checks.append({"name": "decay_exponent_in_range",
                       "pass": bool(rng[0] <= fit["exponent"] <= rng[1]),
                       "exponent": fit["exponent"], "range": list(rng)})
    return _finish(summary, checks, traj)


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


def run_dirichlet_case(cfg: ScenarioConfig, R: float) -> tuple:
    u0 = build_field_from_config(cfg, "radial", outer=R * R)
    try:
        bound = dirichlet_gradient_bound(cfg.metric, R,
                                         float(np.max(np.abs(u0.values))))
    except (DomainError, BarrierConstructionError) as exc:  # no profile fits
        raise ConfigError("R", f"no a priori slope bound at R = {R:g}: "
                          f"{exc}") from exc
    with _solver_input():
        traj = solve_dirichlet(R, cfg.metric, u0, cfg.solver)
    max_slope = diagnostics.max_boundary_slope(traj)
    profile = bound.pop("profile")
    checks = _base_flow_checks(traj)
    checks.append({"name": "boundary_slope_dominated",
                   "pass": bool(max_slope <= bound["bound_slope"]),
                   "max_boundary_slope": max_slope,
                   "bound_slope": bound["bound_slope"]})
    # domination by the shifted profile on [r0, R^2): both are 0 at R^2
    shift = profile.value(R * R)
    inside = np.flatnonzero(traj.field.nodes[:-1] >= profile.r0)
    margins = (profile.value(traj.field.nodes[inside]) - shift
               - np.abs(traj.snapshots[:, inside]))
    worst = float(np.min(margins, initial=np.inf))  # a NaN margin fails
    checks.append({"name": "dirichlet_domination",
                   "pass": bool(worst >= -1e-12), "worst_margin": worst})
    summary = _summarize(traj)
    summary.update({"R": R, "max_boundary_slope": max_slope,
                    "bound_slope": bound["bound_slope"],
                    "barrier_r0": bound["r0"]})
    return _finish(summary, checks, traj)


def run_dirichlet_scenario(cfg: ScenarioConfig) -> tuple:
    if cfg.R is None:
        raise ConfigError("R", "missing required number")
    return run_dirichlet_case(cfg, cfg.R)


def run_no_lift_off_scenario(cfg: ScenarioConfig) -> tuple:
    u0 = build_field_from_config(cfg, "radial")
    eps = cfg.barrier_eps
    sup0 = float(np.max(np.abs(u0.values)))
    try:
        r1 = (decay_radius(u0, eps) if eps > 0 and sup0 > 0
              else float(u0.nodes[0]))
    except ValueError as exc:
        raise ConfigError("barrier.eps", str(exc)) from exc
    r1 = max(r1, cfg.metric.r_min * 10, cfg.barrier_r1_min)
    lo, hi = float(u0.nodes[0]), float(u0.nodes[-1])
    phi_params = None
    if cfg.metric.a != 0.0:
        try:
            c_ric = ricci_form_bound(cfg.metric, lo, hi)
        except ArithmeticError as exc:  # w^2 or 1/w past the float range
            raise ConfigError("metric.a", f"w(r) = (1 + a r^-tau)^power "
                              f"leaves the float range on [{lo:g}, {hi:g}]"
                              ) from exc
        if np.isnan(c_ric):  # `c_ric > 0` would turn the monitor off
            raise RecordError(f"the Ricci bound on [{lo:g}, {hi:g}] is NaN: "
                              f"no tilt monitor")
        if c_ric > 0:
            phi_params = (c_ric, 1.0 / c_ric)
    profile = _static_barrier(cfg, r1, max(sup0, 1e-6), eps)
    if profile.r0 > hi:  # the margin needs a node at r >= r0
        raise ConfigError("barrier", f"the profile's inner radius r0 = "
                          f"{profile.r0:g} lies past the grid's end {hi:g}")
    with _solver_input():
        traj = run_flow(cfg.metric, u0, cfg.solver, phi_params=phi_params,
                        barrier=profile)
    checks = _base_flow_checks(traj)
    worst = float(np.min(traj.records["barrier_margin"]))
    checks.append({"name": "barrier_margin_positive",
                   "pass": bool(worst > 0.0), "min_margin": worst})
    if phi_params is not None:
        checks.append(diagnostics.rise_check(
            "phi_monotone", traj.records["sup_phi"], PHI_MONOTONE_SLACK))
    summary = _summarize(traj)
    summary.update({"barrier_r0": profile.r0, "barrier_eps": eps,
                    "decay_radius": r1,
                    "ricci_constant": phi_params[0] if phi_params else 0.0})
    return _finish(summary, checks, traj)


def run_barrier_verify_scenario(cfg: ScenarioConfig) -> tuple:
    profile = _static_barrier(cfg, cfg.barrier_r1_min, cfg.barrier_h,
                              cfg.barrier_eps)
    radii = np.geomspace(profile.r0, profile.r_grid[-1], cfg.sample_radii)
    rows = verify_static_supersolution(cfg.metric, profile, radii)
    deviation = float(np.max([row["identity_deviation"] for row in rows]))
    checks = [
        {"name": "flat_identity", "pass": bool(deviation <= PROFILE_TOL),
         "worst": deviation},
        {"name": "curved_sign", "pass": all(row["pass"] for row in rows),
         "worst": float(np.max([row["curved_value"] for row in rows]))},
    ]
    return _finish({"barrier_r0": profile.r0, "cap": profile.cap,
                    "eps": profile.eps, "rows": rows}, checks)


def run_translating_verify_scenario(cfg: ScenarioConfig) -> tuple:
    cert = translating_barrier_certificate(cfg.translating)
    worst = translating_identity_deviation(
        cfg.translating, np.random.default_rng(cfg.seed), 200)
    checks = [{"name": "translating_identity",
               "pass": bool(worst <= SAMPLE_TOL), "worst": worst}]
    for name, value, bound in (
            ("gradient_bound", "min_gradient_complement", "gradient_bound"),
            ("boundary_slope", "min_boundary_slope", "boundary_slope_bound")):
        checks.append({"name": name,
                       "pass": bool(cert[value]
                                    >= cert[bound] - EQUALITY_SLACK),
                       "value": cert[value], "bound": cert[bound]})
    return _finish({"certificate": cert}, checks)


#: The runner of each scenario `simulate` runs: all but the nested study.
RUNNERS = {
    "flow_1d": run_flow_scenario,
    "flow_radial": run_flow_scenario,
    "decay_study": run_flow_scenario,
    "dirichlet": run_dirichlet_scenario,
    "no_lift_off": run_no_lift_off_scenario,
    "barrier_verify": run_barrier_verify_scenario,
    "translating_verify": run_translating_verify_scenario,
}


def run_scenario_config(cfg: ScenarioConfig) -> tuple:
    return RUNNERS[cfg.scenario](cfg)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

#: A swept run's summary entries in its row, between R and the pass flag.
SWEEP_KEYS = ("max_boundary_slope", "bound_slope", "barrier_r0",
              "initial_grad_max", "max_grad_max", "termination")
SWEEP_HEADER = ",".join(("R",) + SWEEP_KEYS + ("pass",))
#: A measured boundary slope at or below this fraction of its bound (the
#: bound's rounding unit) is the scheme's discrete tail, not the flow's.
MEASURED_SLOPE_FLOOR = float(np.finfo(float).eps)


def _fit_loglog(xs, ys, floor=0.0):
    """Slope of log y against log x over the points with y > floor; None
    with fewer than two."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    good = ys > floor
    if good.sum() < 2:
        return None
    return float(np.polyfit(np.log(xs[good]), np.log(ys[good]), 1)[0])


def sweep_worker(args):
    """Top-level worker for process pools: one swept run of a config, as
    (R, its summary)."""
    cfg, R, out_dir = args
    summary, trajectory = run_dirichlet_case(cfg, R)
    if out_dir is not None:
        write_run_artifacts(summary, trajectory, out_dir)
    return R, summary


def run_dirichlet_sweep(cfg: ScenarioConfig, out_dir=None, workers: int = 1):
    """Ball-problem sweep over R: the summary of per-run rows, scaling
    fits and `pass`, which needs every run to pass and the bound exponent
    in the config's range, if set.

    The per-R a priori bound |b'(R^2)| gives the scaling that is fitted
    (`bound_exponent`); the measured outer slopes are checked against their
    bounds and their own fit is reported as `measured_exponent` for
    information (it decays far faster than the bound; see the README),
    over the slopes above MEASURED_SLOPE_FLOOR times their bound.
    """
    jobs = [(cfg, R,
             None if out_dir is None else os.path.join(out_dir, f"run_R{R:g}"))
            for R in sorted(cfg.sweep_values)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        # all workers start on the first submit: no more than there are runs
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            outcomes = list(pool.map(sweep_worker, jobs))
    else:
        outcomes = [sweep_worker(job) for job in jobs]
    rows = []
    for R, summary in outcomes:
        rows.append({"R": R, **{key: summary[key] for key in SWEEP_KEYS},
                     "pass": summary["pass"]})
        if "halt_message" in summary:  # a halted run says why
            rows[-1]["halt_message"] = summary["halt_message"]
    radii = [r["R"] for r in rows]
    bounds = np.array([r["bound_slope"] for r in rows])
    fits = {
        "bound_exponent": _fit_loglog(radii, bounds),
        "measured_exponent": _fit_loglog(
            radii, [r["max_boundary_slope"] for r in rows],
            floor=MEASURED_SLOPE_FLOOR * bounds),
    }
    summary = {"rows": rows, "fits": fits}
    passed = all(r["pass"] for r in rows)
    rng = cfg.bound_exponent_range
    if rng is not None:
        exponent = fits["bound_exponent"]
        in_range = exponent is not None and rng[0] <= exponent <= rng[1]
        summary["bound_exponent_in_range"] = bool(in_range)
        passed = passed and in_range
    summary["pass"] = bool(passed)
    return summary


def run_nested_sweep(cfg: ScenarioConfig) -> dict:
    """Nested-ball study over the sweep's radii: one ball run per R, on the
    data of the largest ball restricted to [lo, R^2].  A row holds max
    |u_R - u_R'| of consecutive radii over r <= min(R)/2 and their shared
    snapshot times (NaN if any is).  The summary adds whether the rows
    decrease (reported, not checked), each run's termination, their halt
    messages if a run halted, and `pass`."""
    R_values = sorted(cfg.sweep_values)
    u0 = build_field_from_config(cfg, "radial", outer=max(R_values) ** 2)
    window = R_values[0] / 2.0
    runs = []
    with _solver_input():
        for R in R_values:
            inside = u0.nodes <= R * R + u0.h / 2.0
            ball = Field(kind="radial", nodes=u0.nodes[inside],
                         values=u0.values[inside], h=u0.h, bc=u0.bc)
            runs.append(solve_dirichlet(float(R), cfg.metric, ball,
                                        cfg.solver))
    rows = []
    for i, (small, large) in enumerate(zip(runs, runs[1:])):
        m = np.count_nonzero(small.field.nodes <= window + u0.h / 2.0)
        k = min(len(small.times), len(large.times))
        t_s = small.times[:k]
        same = ~(np.abs(t_s - large.times[:k]) > 1e-9 * np.maximum(1.0, t_s))
        diffs = np.abs(small.snapshots[:k][same, :m]
                       - large.snapshots[:k][same, :m])
        rows.append({"R_small": float(R_values[i]),
                     "R_large": float(R_values[i + 1]), "window": window,
                     "max_difference": float(np.max(diffs, initial=0.0))})
    diffs = [row["max_difference"] for row in rows]
    decrease = all(b <= a for a, b in zip(diffs[:-1], diffs[1:]))
    terminations = [traj.termination for traj in runs]
    summary = {"rows": rows, "R_values": R_values,
               "differences_decrease": decrease, "terminations": terminations,
               "pass": all(run_passed(t, []) for t in terminations)}
    if any(traj.message for traj in runs):
        summary["halt_messages"] = [traj.message for traj in runs]
    return summary


def write_sweep_csv(rows, path: str):
    """One line per run, its numbers written as `fmt` writes them."""
    template = "%.17g," * 6 + "%s,%s\n"
    with open(path, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        fh.writelines(template % (r["R"], *(r[key] for key in SWEEP_KEYS),
                                  str(r["pass"]).lower()) for r in rows)


def read_sweep_csv(path: str) -> list:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != SWEEP_HEADER:
            raise ValueError(f"unexpected sweep header {header!r}")
        rows = []
        for line in fh:
            *numbers, termination, passed = line.strip().split(",")
            row = dict(zip(SWEEP_HEADER.split(","), map(float, numbers)))
            row.update({"termination": termination, "pass": passed == "true"})
            rows.append(row)
    return rows
