"""The benchmark's workloads: seeded configs, one CLI run, output checks.

Each workload starts from a shipped config under `configs/`, sets its own
horizon and output cadence, and for a seed other than 0 scales the
initial-data height by a factor in [0.98, 1.02].  Checks, expected ranges,
grids and backgrounds stay as shipped.  mcflow sees only the generated file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass

#: Largest relative change of the initial-data height a seed may make.
HEIGHT_JITTER = 0.02


@dataclass(frozen=True)
class Workload:
    source: str            # shipped config under configs/
    command: str           # mcflow CLI subcommand
    solver: dict           # overrides of the config's solver section


#: Why each workload was chosen is in perfbench/README.md.
WORKLOADS = {
    "line_decay": Workload("decay_study.json", "simulate", {"t_end": 100.0}),
    "ball_sweep": Workload("dirichlet_sweep.json", "sweep", {"t_end": 16.0}),
    "curved_dense": Workload(
        "no_lift_off.json", "simulate",
        {"t_end": 50.0, "record_every": 0.005, "snapshot_every": 0.1}),
}


def generate_config(root: str, name: str, seed: int) -> dict:
    """The workload's config for `seed`; seed 0 keeps the shipped values."""
    spec = WORKLOADS[name]
    with open(os.path.join(root, "configs", spec.source)) as fh:
        raw = json.load(fh)
    raw["solver"].update(spec.solver)
    if seed != 0:
        scale = 1.0 + HEIGHT_JITTER * random.Random(seed).uniform(-1.0, 1.0)
        raw["initial_data"]["height"] *= scale
    return raw


def run_cli(name: str, config_path: str, out_dir: str) -> int:
    """One user-level run through `mcflow.cli.main`; returns its exit code.

    The per-check lines the CLI prints are captured, not shown.
    """
    from mcflow import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([WORKLOADS[name].command, config_path,
                         "--output-dir", out_dir])


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_dirs(name: str, out_dir: str) -> list:
    """Directories holding one flow run's summary.json and snapshots."""
    if WORKLOADS[name].command == "simulate":
        return [out_dir]
    return sorted(os.path.join(out_dir, d) for d in os.listdir(out_dir)
                  if d.startswith("run_R"))


def check_outputs(name: str, out_dir: str, exit_code: int) -> list:
    """Reasons the run failed; empty when it passed.

    A run fails on a non-zero exit code, on any failed named check and on
    any termination other than `reached_t_end`.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    dirs = run_dirs(name, out_dir) if os.path.isdir(out_dir) else []
    if not dirs:
        problems.append("no run directories written")
    for d in dirs:
        if not os.path.isfile(os.path.join(d, "summary.json")):
            problems.append(f"{d}: no summary.json")
            continue
        summary = _load(os.path.join(d, "summary.json"))
        if summary.get("termination") != "reached_t_end":
            problems.append(f"{d}: termination {summary.get('termination')}")
        problems.extend(f"{d}: check {c['name']} failed"
                        for c in summary["checks"] if not c["pass"])
    if WORKLOADS[name].command == "sweep":
        path = os.path.join(out_dir, "sweep_summary.json")
        sweep = _load(path) if os.path.isfile(path) else {}
        if not sweep.get("pass") or not sweep.get("bound_exponent_in_range"):
            problems.append("sweep summary missing or failed")
    return problems


def digest_tree(out_dir: str) -> tuple:
    """(sha256 over every file's relative path and bytes, bytes, files)."""
    digest = hashlib.sha256()
    total = files = 0
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames.sort()
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(hashlib.sha256(data).digest())
            total += len(data)
            files += 1
    return digest.hexdigest(), total, files


def step_counts(name: str, out_dir: str) -> tuple:
    """(steps, node steps) summed over the workload's flow runs."""
    steps = node_steps = 0
    for d in run_dirs(name, out_dir):
        n = _load(os.path.join(d, "summary.json"))["steps"]
        snap_dir = os.path.join(d, "snapshots")
        with open(os.path.join(snap_dir, sorted(os.listdir(snap_dir))[0])) as fh:
            nodes = sum(1 for _ in fh) - 1
        steps += n
        node_steps += n * nodes
    return steps, node_steps
