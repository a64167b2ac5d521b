"""Scenario configs: reading and validating the JSON, and the initial field.

A scenario config is a JSON object with nested sections (see
docs/config_schema.md).  `ScenarioConfig.from_dict` is the one pass that
validates the shared sections (scenario, metric, solver, sweep); every
malformed entry raises ConfigError naming its field path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field, line_field, radial_field
from .geometry import RadialMetric, conformal_metric, euclidean_metric
from .initial_data import smooth_cutoff
from .solver import SolverConfig

SCENARIO_TAGS = ("flow_1d", "flow_radial", "dirichlet", "nested_balls",
                 "no_lift_off", "barrier_verify", "translating_verify",
                 "decay_study")


#: Largest dimension n.  The static barrier tabulates (r/r0)^(2n-3) over
#: [r0, 1e4 r0], which float64 holds for 2n - 3 <= 77; the identity checks
#: build n x n x n arrays.
MAX_DIMENSION = 40
#: Most nodes of a grid, and most barrier sample radii.
MAX_NODES = 1_000_000
#: Most diagnostics records of a run, t_end over the record cadence.
MAX_RECORDS = 1_000_000


class ConfigError(ValueError):
    """Invalid or missing configuration entry; carries the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _section(cfg: dict, key: str, path: str = "") -> dict:
    full = _join(path, key)
    value = cfg.get(key)
    if value is None:
        raise ConfigError(full, "missing section")
    if not isinstance(value, dict):
        raise ConfigError(full, "expected an object")
    return value


def _number(sec: dict, key: str, path: str, default=None, minimum=None,
            maximum=None):
    if key not in sec:
        if default is None:
            raise ConfigError(_join(path, key), "missing required number")
        return default
    value = sec[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(_join(path, key),
                          f"expected a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(_join(path, key), f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(_join(path, key), f"must be <= {maximum}, got {value}")
    return float(value)


def _positive(sec: dict, key: str, path: str, default=None) -> float:
    value = _number(sec, key, path, default=default)
    if not value > 0:
        raise ConfigError(_join(path, key), f"must be > 0, got {value}")
    return value


def _integer(sec: dict, key: str, path: str, default=None, minimum=None,
             maximum=None) -> int:
    """A whole number; 3 and 3.0 are accepted, 3.7 is not."""
    value = _number(sec, key, path, default=default, minimum=minimum,
                    maximum=maximum)
    if value != int(value):
        raise ConfigError(_join(path, key),
                          f"expected an integer, got {sec[key]!r}")
    return int(value)


def _string(sec: dict, key: str, path: str, choices=None, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(_join(path, key), "missing required string")
        return default
    value = sec[key]
    if not isinstance(value, str):
        raise ConfigError(_join(path, key), f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(_join(path, key), f"must be one of {choices}")
    return value


def _pair(sec: dict, key: str, path: str, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(_join(path, key), "missing required pair")
        return default
    value = sec[key]
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   or not math.isfinite(v) for v in value)):
        raise ConfigError(_join(path, key), "expected a pair of numbers")
    return (float(value[0]), float(value[1]))


def _interval(sec: dict, key: str, path: str, default=None) -> tuple:
    """A pair (lo, hi) with lo < hi."""
    lo, hi = _pair(sec, key, path, default=default)
    if not lo < hi:
        raise ConfigError(_join(path, key), f"needs lo < hi, got [{lo}, {hi}]")
    return lo, hi


def build_metric(cfg: dict) -> RadialMetric:
    sec = _section(cfg, "metric")
    family = _string(sec, "family", "metric",
                     choices=("euclidean", "conformal_power"))
    n = _integer(sec, "n", "metric", minimum=1, maximum=MAX_DIMENSION)
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
        snapshot_every=_number(sec, "snapshot_every", "solver", default=0.0,
                               minimum=0.0) or None,
        record_every=_number(sec, "record_every", "solver", default=0.0,
                             minimum=0.0) or None,
        clamp_policy=_string(sec, "clamp_policy", "solver",
                             choices=("reject", "halt_and_report"),
                             default="reject"),
        max_steps=_integer(sec, "max_steps", "solver", default=20_000_000,
                           minimum=1),
    )
    try:
        config = SolverConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError("solver", str(exc)) from exc
    # records do not end steps, so max_steps does not bound their count
    records = config.t_end / config.record_cadence
    if records > MAX_RECORDS:
        key = "record_every" if config.record_every else "snapshot_every"
        raise ConfigError(f"solver.{key}", f"t_end / {key} = {records:.4g} "
                          f"records, at most {MAX_RECORDS}")
    return config


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
        rise = _interval(sec, "rise", path)
        fall = _interval(sec, "fall", path)
        return lambda c: height * (1.0 - smooth_cutoff(rise[0], rise[1], c)) \
            * smooth_cutoff(fall[0], fall[1], c)
    if family == "slow_tail":
        height = _number(sec, "height", path)
        core = _number(sec, "core", path, minimum=1e-12)
        taper = _interval(sec, "taper", path)
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


#: Scenarios the `sweep` command runs, each over the radius R.
SWEEP_SCENARIOS = ("dirichlet", "nested_balls")
#: Smallest ball radius R of the zero-boundary problem.
MIN_BALL_RADIUS = 2.0


def _radius_list(cfg: dict, key: str, path: str) -> list:
    """A list of >= 2 ball radii R >= MIN_BALL_RADIUS, as given."""
    full = _join(path, key)
    values = cfg.get(key)
    if (not isinstance(values, list)
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   or not math.isfinite(v) for v in values)):
        raise ConfigError(full, "expected a list of finite numbers")
    if len(values) < 2:
        raise ConfigError(full, "need a grid of >= 2 points")
    small = [v for v in values if not v >= MIN_BALL_RADIUS]
    if small:
        raise ConfigError(full, f"radii must be >= {MIN_BALL_RADIUS}, "
                          f"got {small[0]}")
    return values


def _sweep_values(cfg: dict, scenario: str) -> list:
    """The validated R values of the `sweep` section, as given."""
    sec = _section(cfg, "sweep")
    parameter = sec.get("parameter")
    if parameter != "R":
        raise ConfigError("sweep.parameter",
                          f"only 'R' sweeps are supported, got {parameter!r}")
    values = _radius_list(sec, "values", "sweep")
    if scenario not in SWEEP_SCENARIOS:
        raise ConfigError("scenario", f"sweep supports dirichlet and "
                          f"nested_balls, got {scenario!r}")
    return values


def _check_grid_size(cfg: dict, scenario: str, h: float, sweep):
    """Raise ConfigError, naming the field that sets the far end, unless
    every grid the scenario builds holds at most MAX_NODES nodes."""
    ends = {}  # field: far end of its grid; balls of radius R end at R^2
    if sweep is not None:
        ends["sweep.values"] = max(sweep) ** 2
    if scenario == "dirichlet" and "R" in cfg:
        ends["R"] = _number(cfg, "R", "", minimum=MIN_BALL_RADIUS) ** 2
    elif scenario == "nested_balls" and "R_list" in cfg:
        ends["R_list"] = max(_radius_list(cfg, "R_list", "")) ** 2
    elif scenario not in SWEEP_SCENARIOS:
        ends["domain.hi"] = _number(_section(cfg, "domain"), "hi", "domain")
    lo = _number(_section(cfg, "domain"), "lo", "domain")
    for path, hi in ends.items():
        nodes = (hi - lo) / h + 1.0
        if nodes > MAX_NODES:
            raise ConfigError(path, f"the grid [{lo:g}, {hi:g}] at h = {h:g} "
                              f"has {nodes:.4g} nodes, at most {MAX_NODES}")


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario config.  `sweep_values` are the R values of
    its `sweep` section, as given (None without one), and
    `bound_exponent_range` its `expected_bound_exponent_range`."""

    scenario: str
    metric: RadialMetric
    solver: SolverConfig | None
    raw: dict
    sweep_values: list | None = None
    bound_exponent_range: tuple | None = None

    @classmethod
    def from_dict(cls, cfg: dict) -> "ScenarioConfig":
        if not isinstance(cfg, dict):
            raise ConfigError("config", "top level must be an object")
        scenario = _string(cfg, "scenario", "", choices=SCENARIO_TAGS)
        sweep = _sweep_values(cfg, scenario) if "sweep" in cfg else None
        metric = build_metric(cfg)
        needs_solver = scenario not in ("barrier_verify", "translating_verify")
        solver = build_solver_config(cfg) if needs_solver else None
        if solver is not None:
            _check_grid_size(cfg, scenario, solver.h, sweep)
        rng = None
        if "expected_bound_exponent_range" in cfg:
            rng = _pair(cfg, "expected_bound_exponent_range", "")
        return cls(scenario=scenario, metric=metric, solver=solver, raw=cfg,
                   sweep_values=sweep, bound_exponent_range=rng)


def build_field_from_config(cfg: ScenarioConfig, kind: str,
                            outer: float | None = None) -> Field:
    raw = cfg.raw
    sec = _section(raw, "domain")
    lo = _number(sec, "lo", "domain")
    hi = outer if outer is not None else _number(sec, "hi", "domain")
    profile = initial_profile(_section(raw, "initial_data"))
    h = cfg.solver.h
    if not round((hi - lo) / h) >= 2:
        raise ConfigError("domain", f"[{lo:g}, {hi:g}] holds fewer than 3 "
                          f"nodes at h = {h:g}")
    if kind == "radial" and lo < cfg.metric.r_min:
        raise ConfigError("domain.lo",
                          f"below the metric's r_min = {cfg.metric.r_min:g}")
    grid = line_field if kind == "line" else radial_field
    try:
        return grid(lo, hi, h, profile)
    except ValueError as exc:  # the sampled data is not spacelike
        raise ConfigError("initial_data", str(exc)) from exc
