"""Scenario configs: reading and validating the JSON, and the initial field.

A scenario config is a JSON object with nested sections (see
docs/config_schema.md).  `ScenarioConfig.from_dict` is the one pass that
reads it: every key a runner or the CLI uses becomes a typed field, and
every malformed entry, and every key the pass does not read, raises
ConfigError naming its field path before anything is built or run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .barriers import TranslatingBarrier
from .fields import (Field, check_node_slopes, gap_scale, line_field,
                     radial_field)
from .geometry import RadialMetric, conformal_metric, euclidean_metric
from .initial_data import smooth_cutoff
from .solver import MAX_RECORDS, SolverConfig

SCENARIO_TAGS = ("flow_1d", "flow_radial", "dirichlet", "nested_balls",
                 "no_lift_off", "barrier_verify", "translating_verify",
                 "decay_study")
#: Scenarios on a line grid; the other flows run on radial grids.
LINE_SCENARIOS = ("flow_1d", "decay_study")
#: Scenarios the `sweep` command runs, each over the radius R.
SWEEP_SCENARIOS = ("dirichlet", "nested_balls")
#: Smallest ball radius R of the zero-boundary problem.
MIN_BALL_RADIUS = 2.0


#: Largest dimension n.  The static barrier tabulates (r/r0)^(2n-3) over
#: [r0, 1e4 r0], which float64 holds for 2n - 3 <= 77; the identity checks
#: build n x n x n arrays.
MAX_DIMENSION = 40
#: Most nodes of a grid, and most barrier sample radii.
MAX_NODES = 1_000_000
#: Most snapshot values a run holds: snapshots times nodes of its grids.
MAX_SNAPSHOT_VALUES = 100_000_000
#: Least `translating.mu` (exclusive): above it the cone's flat identity
#: holds to SAMPLE_TOL (worst 4.0e-13 at 1e-6, 2.5e-12 at 1e-8; n = 1).
MIN_TRANSLATING_MU = 1e-6
#: log of the largest float: w^2 and 1/w^2 are finite while 2 |log w| is
#: below it.
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


class ConfigError(ValueError):
    """Invalid or missing configuration entry; carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(path, message)  # both, so that the error pickles
        self.path = path

    def __str__(self) -> str:
        return "%s: %s" % self.args


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


class _Keys(dict):
    """A config object that records which of its keys are read; its object
    values are _Keys too."""

    def __init__(self, value: dict, path: str = ""):
        super().__init__((key, _Keys(item, _join(path, key))
                          if isinstance(item, dict) else item)
                         for key, item in value.items())
        self.path = path
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def unread(self):
        """The dotted path of each key that was not read, here and in the
        objects that were."""
        for key, item in self.items():
            if key not in self.read:
                yield _join(self.path, key)
            elif isinstance(item, _Keys):
                yield from item.unread()


def _finite(value) -> bool:
    """A finite JSON number: not a bool, nor an int past the float range."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


def _section(cfg: dict, key: str) -> dict:
    value = cfg.get(key)
    if value is None:
        raise ConfigError(key, "missing section")
    if not isinstance(value, dict):
        raise ConfigError(key, "expected an object")
    return value


def _number(sec: dict, key: str, path: str, default=None, minimum=None,
            maximum=None, above=None):
    if key not in sec:
        if default is None:
            raise ConfigError(_join(path, key), "missing required number")
        return default
    value = sec[key]
    if not _finite(value):
        raise ConfigError(_join(path, key),
                          f"expected a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(_join(path, key), f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(_join(path, key), f"must be <= {maximum}, got {value}")
    if above is not None and not value > above:
        raise ConfigError(_join(path, key), f"must be > {above:g}, got {value}")
    return float(value)


def _integer(sec: dict, key: str, path: str, default=None, minimum=None,
             maximum=None) -> int:
    """A whole number; 3 and 3.0 are accepted, 3.7 is not."""
    value = _number(sec, key, path, default=default, minimum=minimum,
                    maximum=maximum)
    if value != int(value):
        raise ConfigError(_join(path, key),
                          f"expected an integer, got {sec[key]!r}")
    return int(value)


def _string(sec: dict, key: str, path: str, choices=None):
    if key not in sec:
        raise ConfigError(_join(path, key), "missing required string")
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
            or not all(map(_finite, value))):
        raise ConfigError(_join(path, key), "expected a pair of numbers")
    return (float(value[0]), float(value[1]))


def _interval(sec: dict, key: str, path: str, default=None) -> tuple:
    """A pair (lo, hi) with lo < hi."""
    lo, hi = _pair(sec, key, path, default=default)
    if not lo < hi:
        raise ConfigError(_join(path, key), f"needs lo < hi, got [{lo}, {hi}]")
    return lo, hi


def _numbers(sec: dict, key: str, path: str) -> list:
    """A list of finite numbers, as given."""
    values = sec.get(key)
    if not isinstance(values, list) or not all(map(_finite, values)):
        raise ConfigError(_join(path, key), "expected a list of finite numbers")
    return values


def build_metric(cfg: dict) -> RadialMetric:
    sec = _section(cfg, "metric")
    family = _string(sec, "family", "metric",
                     choices=("euclidean", "conformal_power"))
    n = _integer(sec, "n", "metric", minimum=1, maximum=MAX_DIMENSION)
    if family == "euclidean":
        return euclidean_metric(n)
    a = _number(sec, "a", "metric", above=0.0)
    tau = _number(sec, "tau", "metric", above=0.0)
    power = _number(sec, "power", "metric", default=1.0)
    return conformal_metric(n, a=a, tau=tau, power=power)


def build_solver_config(cfg: dict) -> SolverConfig:
    sec = _section(cfg, "solver")
    config = SolverConfig(
        t_end=_number(sec, "t_end", "solver", above=0.0),
        cfl_safety=_number(sec, "cfl_safety", "solver", default=0.9,
                           above=0.0, maximum=1.0),
        snapshot_every=_number(sec, "snapshot_every", "solver", default=0.0,
                               minimum=0.0) or None,
        record_every=_number(sec, "record_every", "solver", default=0.0,
                             minimum=0.0) or None,
        max_steps=_integer(sec, "max_steps", "solver", default=20_000_000,
                           minimum=1),
    )
    # records do not end steps, so max_steps does not bound their count
    records = config.t_end / config.record_cadence
    if records > MAX_RECORDS:
        key = "record_every" if config.record_every else "snapshot_every"
        raise ConfigError(f"solver.{key}", f"t_end / {key} = {records:.4g} "
                          f"records, at most {MAX_RECORDS}")
    return config


@dataclass(frozen=True)
class InitialProfile:
    """Initial height at coordinates c: a family and its parameters, in the
    order `initial_profile` reads them; plain data, so configs pickle."""

    family: str
    params: tuple = ()

    def __call__(self, c):
        if self.family == "zero":
            return np.zeros_like(np.asarray(c, dtype=float))
        if self.family == "gaussian":
            height, sigma, center = self.params
            return height * np.exp(-((c - center) ** 2) / (2 * sigma ** 2))
        if self.family == "bump":
            height, plateau, support, center = self.params
            return height * smooth_cutoff(plateau, support, np.abs(c - center))
        if self.family == "radial_bump":
            height, rise, fall = self.params
            return height * (1.0 - smooth_cutoff(rise[0], rise[1], c)) \
                * smooth_cutoff(fall[0], fall[1], c)
        if self.family == "slow_tail":
            height, core, taper, center = self.params
            return (height * (1.0 + ((c - center) / core) ** 2) ** -0.25
                    * smooth_cutoff(taper[0], taper[1], np.abs(c - center)))
        xs, us = self.params  # tabulated
        return np.interp(c, xs, us, left=0.0, right=0.0)


def initial_profile(sec: dict) -> InitialProfile:
    """The profile of the `initial_data` section; a table is read once."""
    path = "initial_data"
    family = _string(sec, "family", path,
                     choices=("zero", "gaussian", "bump", "radial_bump",
                              "slow_tail", "tabulated"))
    if family == "zero":
        return InitialProfile(family)
    if family == "tabulated":
        file_path = _string(sec, "path", path)
        try:
            data = np.loadtxt(file_path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}.path", f"cannot read {file_path}: {exc}")
        if data.shape[0] < 1 or data.shape[1] < 2:
            raise ConfigError(f"{path}.path", f"{file_path} needs rows of x, "
                              f"u columns, got an array of shape {data.shape}")
        if not np.isfinite(data).all():
            raise ConfigError(f"{path}.path",
                              f"{file_path} holds a non-finite entry")
        order = np.argsort(data[:, 0])
        return InitialProfile(family, (data[order, 0], data[order, 1]))
    height = _number(sec, "height", path)
    if family == "radial_bump":
        return InitialProfile(family, (height, _interval(sec, "rise", path),
                                       _interval(sec, "fall", path)))
    center = _number(sec, "center", path, default=0.0)
    if family == "gaussian":
        sigma = _number(sec, "sigma", path, minimum=1e-12)
        return InitialProfile(family, (height, sigma, center))
    if family == "bump":
        plateau = _number(sec, "plateau", path, minimum=0.0)
        support = _number(sec, "support", path)
        if support <= plateau:
            raise ConfigError(f"{path}.support", "must exceed plateau")
        return InitialProfile(family, (height, plateau, support, center))
    core = _number(sec, "core", path, minimum=1e-12)  # slow_tail
    taper = _interval(sec, "taper", path)
    return InitialProfile(family, (height, core, taper, center))


def _sweep_values(cfg: dict, scenario: str) -> list:
    """The validated R values of the `sweep` section, as given."""
    sec = _section(cfg, "sweep")
    parameter = sec.get("parameter")
    if parameter != "R":
        raise ConfigError("sweep.parameter",
                          f"only 'R' sweeps are supported, got {parameter!r}")
    values = _numbers(sec, "values", "sweep")
    if len(values) < 2:
        raise ConfigError("sweep.values", "need a grid of >= 2 points")
    small = [v for v in values if not v >= MIN_BALL_RADIUS]
    if small:
        raise ConfigError("sweep.values", f"radii must be >= "
                          f"{MIN_BALL_RADIUS}, got {small[0]}")
    radii = sorted(map(float, values))
    for a, b in zip(radii, radii[1:]):
        if a == b:
            raise ConfigError("sweep.values", f"radii must differ, got "
                              f"{a:g} more than once")
        if f"{a:g}" == f"{b:g}":  # a sweep writes each run to run_R{R:g}
            raise ConfigError("sweep.values", f"radii {a!r} and {b!r} "
                              f"share the run directory run_R{a:g}")
    if scenario not in SWEEP_SCENARIOS:
        raise ConfigError("scenario", f"sweep supports dirichlet and "
                          f"nested_balls, got {scenario!r}")
    return values


def _check_grids(scenario: str, metric: RadialMetric, solver: SolverConfig,
                 h: float, lo: float, hi, R, sweep):
    """Raise ConfigError unless each grid the scenario builds at spacing h
    holds 3 to MAX_NODES nodes, starting at r_min or above when radial,
    with w^2 and 1/w^2 in the float range on it, and the run's snapshots
    are within MAX_RECORDS and MAX_SNAPSHOT_VALUES."""
    # (field, far end) per grid; a ball of radius R ends at R^2 (inf if huge)
    ends = [("sweep.values", float(v) * float(v)) for v in sweep or ()]
    if R is not None:
        ends.append(("R", R * R))
    if hi is not None:
        ends.append(("domain.hi", hi))
    nodes = [(end - lo) / h + 1.0 for _, end in ends]
    for (path, end), count in zip(ends, nodes):
        if count > MAX_NODES:
            raise ConfigError(path, f"the grid [{lo:g}, {end:g}] at h = {h:g} "
                              f"has {count:.4g} nodes, at most {MAX_NODES}")
        if not round((end - lo) / h) >= 2:
            raise ConfigError("domain", f"[{lo:g}, {end:g}] holds fewer than "
                              f"3 nodes at h = {h:g}")
    if scenario not in LINE_SCENARIOS and lo < metric.r_min:
        raise ConfigError("domain.lo",
                          f"below the metric's r_min = {metric.r_min:g}")
    if metric.a != 0.0:
        # w = (1 + a r^-tau)^power is monotone in r: farthest from 1 at lo.
        # The power is at fault if w would stay in range at power 1.
        log_base = float(np.logaddexp(0.0, np.log(metric.a)
                                      - metric.tau * np.log(lo)))
        if not 2.0 * abs(metric.power * log_base) < LOG_FLOAT_MAX:
            far = max((end for _, end in ends), default=lo)
            raise ConfigError(
                "metric.power" if 2.0 * log_base < LOG_FLOAT_MAX
                else "metric.a", f"w(r) = (1 + a r^-tau)^power leaves the "
                f"float range on [{lo:g}, {far:g}]")
    if scenario == "nested_balls" and lo > min(sweep) / 2.0:
        raise ConfigError("domain.lo", f"the compared window r <= min(R)/2 "
                          f"= {min(sweep) / 2.0:g} holds no node")
    # a nested-ball study keeps every ball's run; other runs one grid each
    held = sum(nodes) if scenario == "nested_balls" else max(nodes, default=0)
    snapshots = solver.t_end / solver.snapshot_cadence
    if snapshots > MAX_RECORDS or snapshots * held > MAX_SNAPSHOT_VALUES:
        raise ConfigError("solver.snapshot_every", f"t_end / snapshot_every = "
                          f"{snapshots:.4g} snapshots of {held:.4g} nodes; the "
                          f"caps are {MAX_RECORDS} snapshots and "
                          f"{MAX_SNAPSHOT_VALUES} values")


def _flow_fields(cfg: dict, scenario: str, metric, sweep) -> dict:
    """The typed fields of a scenario that runs the flow."""
    h = _number(_section(cfg, "solver"), "h", "solver", above=0.0)
    solver = build_solver_config(cfg)
    sec = _section(cfg, "domain")
    lo = _number(sec, "lo", "domain")
    hi = None if scenario in SWEEP_SCENARIOS else _number(sec, "hi", "domain")
    R = (_number(cfg, "R", "", minimum=MIN_BALL_RADIUS)
         if scenario == "dirichlet" and "R" in cfg else None)
    _check_grids(scenario, metric, solver, h, lo, hi, R, sweep)
    fields = dict(solver=solver, h=h, domain=(lo, hi), R=R)
    if scenario == "no_lift_off":
        sec = _section(cfg, "barrier")
        fields.update(barrier_eps=_number(sec, "eps", "barrier", minimum=0.0),
                      barrier_r1_min=_number(sec, "r1_min", "barrier",
                                             default=1.0))
    elif scenario == "decay_study":
        if "fit_window" not in cfg and not solver.t_end > 10.0:
            raise ConfigError("fit_window", f"absent, and the default window "
                              f"[10, t_end] needs t_end > 10, got "
                              f"t_end = {solver.t_end:g}")
        window = _interval(cfg, "fit_window", "", default=(10.0, solver.t_end))
        if not window[0] > 0.0:
            raise ConfigError("fit_window", f"must start after t = 0, got "
                              f"{window[0]}")
        fields.update(fit_window=window, expected_exponent_range=_pair(
            cfg, "expected_exponent_range", "", default=(-0.30, -0.20)))
    fields["initial_data"] = initial_profile(_section(cfg, "initial_data"))
    return fields


def _translating(cfg: dict, n: int) -> TranslatingBarrier:
    sec = _section(cfg, "translating")
    t0 = _number(sec, "t0", "translating")
    alpha = _number(sec, "alpha", "translating", default=0.0, minimum=0.0)
    mu = _number(sec, "mu", "translating", above=MIN_TRANSLATING_MU)
    x0 = _numbers(sec, "x0", "translating") if "x0" in sec else [0.0] * n
    if len(x0) != n:
        raise ConfigError("translating.x0", f"expected metric.n = {n} "
                          f"numbers, got {len(x0)}")
    try:
        return TranslatingBarrier(n=n, x0=x0, t0=t0, alpha=alpha, mu=mu)
    except ValueError as exc:
        raise ConfigError("translating", str(exc)) from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated config: a typed field per key that a runner or the CLI
    reads (None where the scenario reads no such key).  `h` is the grid
    spacing `solver.h`, `domain` is (lo, hi), hi None on balls;
    `sweep_values` are as given (ints stay ints)."""

    scenario: str
    metric: RadialMetric
    output_dir: str = "mcflow_out"
    solver: SolverConfig | None = None
    h: float | None = None
    domain: tuple | None = None
    initial_data: InitialProfile | None = None
    R: float | None = None
    sweep_values: list | None = None
    bound_exponent_range: tuple | None = None
    fit_window: tuple | None = None
    expected_exponent_range: tuple | None = None
    barrier_eps: float | None = None
    barrier_r1_min: float | None = None
    barrier_h: float | None = None
    sample_radii: int | None = None
    translating: TranslatingBarrier | None = None
    seed: int | None = None

    @classmethod
    def from_dict(cls, cfg: dict) -> "ScenarioConfig":
        if not isinstance(cfg, dict):
            raise ConfigError("config", "top level must be an object")
        cfg = _Keys(cfg)
        scenario = _string(cfg, "scenario", "", choices=SCENARIO_TAGS)
        sweep = (_sweep_values(cfg, scenario)
                 if "sweep" in cfg or scenario == "nested_balls" else None)
        metric = build_metric(cfg)
        if scenario in LINE_SCENARIOS and metric.family != "euclidean":
            raise ConfigError("metric.family", f"{scenario} runs on the flat "
                              f"line: needs 'euclidean', got {metric.family!r}")
        barrier = scenario in ("dirichlet", "no_lift_off", "barrier_verify")
        if barrier and metric.n < 3:
            raise ConfigError("metric.n", f"the static barrier needs n >= 3, "
                              f"got {metric.n}")
        out = cfg.get("output_dir")
        if out is not None and not isinstance(out, str):
            raise ConfigError("output_dir", "expected a string path")
        fields = dict(scenario=scenario, metric=metric, sweep_values=sweep,
                      output_dir=out or "mcflow_out")
        if scenario == "dirichlet" and "expected_bound_exponent_range" in cfg:
            fields["bound_exponent_range"] = _pair(
                cfg, "expected_bound_exponent_range", "")
        if scenario == "barrier_verify":
            sec = _section(cfg, "barrier")
            fields.update(
                barrier_r1_min=_number(sec, "r1_min", "barrier", above=0.0),
                barrier_h=_number(sec, "h", "barrier", above=0.0),
                barrier_eps=_number(sec, "eps", "barrier", default=0.0,
                                    minimum=0.0),
                sample_radii=_integer(cfg, "sample_radii", "", default=256,
                                      minimum=1, maximum=MAX_NODES))
        elif scenario == "translating_verify":
            fields.update(translating=_translating(cfg, metric.n),
                          seed=_integer(cfg, "seed", "", default=0, minimum=0))
        else:
            fields.update(_flow_fields(cfg, scenario, metric, sweep))
        unread = list(cfg.unread())
        if unread:
            others = f" (nor {', '.join(unread[1:])})" if unread[1:] else ""
            raise ConfigError(unread[0], f"unknown key: a {scenario} config "
                              f"does not read it{others}")
        return cls(**fields)


def build_field_from_config(cfg: ScenarioConfig, kind: str,
                            outer: float | None = None) -> Field:
    """The initial field on the config's domain, or on [lo, outer]; data
    not spacelike in the config's metric are a config error."""
    lo, hi = cfg.domain
    grid = line_field if kind == "line" else radial_field
    try:
        field = grid(lo, hi if outer is None else outer, cfg.h,
                     cfg.initial_data)
        check_node_slopes(field, gap_scale(field, cfg.metric))
    except ValueError as exc:
        raise ConfigError("initial_data", str(exc)) from exc
    return field
