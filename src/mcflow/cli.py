"""Command line entry point: `simulate <config>`, `verify`, `sweep <config>`.

Exit codes: 0 every run reached t_end and all enabled checks pass, 1 a
check failed or a run stopped at the step cap `solver.max_steps`, 2
configuration error (the message names the offending field), 3 numeric
failure (a run halted on a spacelikeness violation or a non-finite value,
or a recorded state failed its record's checks; the message says which and
where).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import MAX_DIMENSION
from .scenarios import (RUNNERS, ConfigError, ScenarioConfig,
                        run_dirichlet_sweep, run_nested_sweep,
                        run_scenario_config, write_run_artifacts,
                        write_summary_json, write_sweep_csv)
from .solver import NUMERIC_FAILURES, RecordError
from .verification import run_identity_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}")


def _output_dir(args, cfg) -> str:
    """The run's output directory, made before anything runs: one that
    cannot be made is a config error naming the flag or config key it came
    from."""
    out = args.output_dir or cfg.output_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--output-dir" if args.output_dir else "output_dir",
                          f"cannot create {out}: {exc}") from exc
    return out


def _exit_code(summary: dict, runs, solver) -> int:
    """The exit code of a command whose result is `summary`.  Says on
    stderr which of `runs`, (where, termination, halt message) triples,
    stopped before t_end and why: EXIT_NUMERIC if one halted on a numeric
    failure, else EXIT_OK or EXIT_CHECK_FAILED by the summary's `pass`
    (which a run stopped at the step cap fails)."""
    code = EXIT_OK if summary["pass"] else EXIT_CHECK_FAILED
    for where, termination, message in runs:
        if termination in NUMERIC_FAILURES:
            print(f"numeric failure ({termination}){where}"
                  + (f": {message}" if message else ""), file=sys.stderr)
            code = EXIT_NUMERIC
        elif termination == "step_cap":
            print(f"step cap{where}: stopped before t_end after "
                  f"solver.max_steps = {solver.max_steps} steps",
                  file=sys.stderr)
    return code


def cmd_simulate(args) -> int:
    cfg = ScenarioConfig.from_dict(_load_config(args.config))
    if cfg.scenario not in RUNNERS:
        raise ConfigError("scenario", f"{cfg.scenario} runs under sweep only")
    out = _output_dir(args, cfg)
    summary, trajectory = run_scenario_config(cfg)
    write_run_artifacts(summary, trajectory, out)
    for check in summary["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{check['name']:32s} {status}")
    return _exit_code(summary, [("", summary.get("termination"),
                                 summary.get("halt_message", ""))],
                      cfg.solver)


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed", f"must be >= 0, got {args.seed}")
    try:
        dims = tuple(int(s) for s in args.dimensions.split(",") if s.strip())
    except ValueError:
        raise ConfigError("--dimensions", f"must be a comma list of integers, "
                          f"got {args.dimensions!r}")
    if any(n > MAX_DIMENSION for n in dims):
        raise ConfigError("--dimensions", f"must be at most {MAX_DIMENSION}, "
                          f"got {args.dimensions!r}")
    try:
        checks = run_identity_suite(seed=args.seed, dims=dims)
    except ValueError as exc:  # a dimension the profiles are not defined in
        raise ConfigError("--dimensions", str(exc)) from exc
    if not checks:
        print("nothing to verify: empty sweep", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{'identity':34s} {'samples':>8s} {'deviation':>13s} "
          f"{'tolerance':>10s}  status")
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{check['name']:34s} {check['samples']:8d} "
              f"{check['deviation']:13.3e} {check['tolerance']:10.0e}  "
              f"{status}")
    failed = [check for check in checks if not check["pass"]]
    if failed:
        worst = max(failed, key=lambda c: c["deviation"] - c["tolerance"])
        print(f"FAILED: {worst['name']} deviated by {worst['deviation']:.3e} "
              f"(tolerance {worst['tolerance']:.0e})", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers", f"must be >= 1, got {args.workers}")
    cfg = ScenarioConfig.from_dict(_load_config(args.config))
    if cfg.sweep_values is None:
        raise ConfigError("sweep", "missing sweep section")
    if args.workers > 1 and cfg.scenario != "dirichlet":
        raise ConfigError("--workers", f"applies to dirichlet sweeps; a "
                          f"{cfg.scenario} sweep runs in one process")
    out = _output_dir(args, cfg)
    if cfg.scenario == "dirichlet":
        summary = run_dirichlet_sweep(cfg, out_dir=out, workers=args.workers)
        write_sweep_csv(summary["rows"], os.path.join(out, "sweep.csv"))
        print(f"bound exponent: {summary['fits']['bound_exponent']}")
        print(f"measured exponent: {summary['fits']['measured_exponent']}")
        runs = [(row["termination"], row.get("halt_message", ""))
                for row in summary["rows"]]
    else:
        summary = run_nested_sweep(cfg)
        for row in summary["rows"]:
            print(f"R {row['R_small']:g} vs {row['R_large']:g}: "
                  f"max difference {row['max_difference']:.6e}")
        runs = zip(summary["terminations"], summary.get(
            "halt_messages", [""] * len(summary["terminations"])))
    write_summary_json(summary, os.path.join(out, "sweep_summary.json"))
    return _exit_code(summary, [(f" in the run at R = {R:g}", *run)
                                for R, run in zip(sorted(cfg.sweep_values),
                                                  runs)],
                      cfg.solver)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcflow",
        description="Graphical spacelike curvature flow laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario from a config")
    p_sim.add_argument("config")
    p_sim.add_argument("--output-dir", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the closed-form identity suite")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for randomized sample points")
    p_ver.add_argument("--dimensions", default="3,4,5",
                       help="profile dimensions to sweep (comma list)")
    p_ver.set_defaults(func=cmd_verify)

    p_swp = sub.add_parser("sweep", help="run a parameter sweep from a config")
    p_swp.add_argument("config")
    p_swp.add_argument("--output-dir", default=None)
    p_swp.add_argument("--workers", type=int, default=1,
                       help="processes for a dirichlet sweep's runs")
    p_swp.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RecordError as exc:
        print(f"numeric failure (record): {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
