"""Check that the working tree writes the same outputs as a commit.

    python tools/compare_outputs.py REV

Runs, once under a `git archive` of REV and once under the working tree:
the six shipped configs (`sweep` for the two sweeps, `simulate` for the
others), one ball of the dirichlet sweep under `simulate`, a sweep of
curved balls, a decay study on a grid of odd
N = nodes - 1, six no_lift_off variants at the edges of the schedule and
the checks (see `no_lift_off_variants`), three flow_radial runs on axis
grids at n = 1, 2 and 5 (`flow_radial_axis`),
`mcflow verify`, and the benchmark workloads' configs at seeds 0 and 3, as
`perfbench/workloads.py` of the working tree generates them.
Both sides run the same config files, from the same relative paths, so
their stdout and stderr can be compared as they are.  Prints every
difference in exit code, stdout, stderr and the files each run writes,
and exits 1 if there is any, else 0.  For a CSV, JSON or `.npy` file that
differs it also prints how far its numbers moved: how many numeric cells
differ, the largest relative change among cells that are nonzero on both
sides, and how many cells are zero on one side only.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

SWEEPS = ("dirichlet_sweep", "nested_balls")
SEEDS = (0, 3)


def configs() -> dict:
    """{run name: (command, config)} for every config run."""
    runs = {}
    for fname in sorted(os.listdir(os.path.join(ROOT, "configs"))):
        name = fname[:-len(".json")]
        with open(os.path.join(ROOT, "configs", fname)) as fh:
            runs[name] = ("sweep" if name in SWEEPS else "simulate",
                          json.load(fh))
    runs["dirichlet_simulate"] = ("simulate", dirichlet_simulate())
    runs["curved_ball_sweep"] = ("sweep", curved_ball_sweep())
    runs["decay_study_odd"] = ("simulate", decay_study_odd())
    for name, raw in no_lift_off_variants().items():
        runs[name] = ("simulate", raw)
    for n in (1, 2, 5):
        runs[f"flow_radial_n{n}"] = ("simulate", flow_radial_axis(n))
    for name, spec in workloads.WORKLOADS.items():
        for seed in SEEDS:
            runs[f"{name}_seed{seed}"] = (
                spec.command, workloads.generate_config(ROOT, name, seed))
    return runs


def dirichlet_simulate() -> dict:
    """configs/dirichlet_sweep.json as one run: the ball R = 4 through
    t = 4, with no sweep and no expected bound exponent."""
    with open(os.path.join(ROOT, "configs", "dirichlet_sweep.json")) as fh:
        raw = json.load(fh)
    del raw["sweep"], raw["expected_bound_exponent_range"]
    raw["R"] = 4.0
    raw["solver"]["t_end"] = 4.0
    return raw


def curved_ball_sweep() -> dict:
    """The dirichlet sweep, R = 4 and 8, on the annulus-balls [0.5, R^2] of
    w = (1 + 0.5/r)^-2, which rises outward: the stability coefficient's
    min K then lies at the inner end, where no_lift_off's lies outward."""
    with open(os.path.join(ROOT, "configs", "dirichlet_sweep.json")) as fh:
        raw = json.load(fh)
    del raw["expected_bound_exponent_range"]
    raw["sweep"]["values"] = [4, 8]
    raw["metric"] = {"family": "conformal_power", "n": 3, "a": 0.5,
                     "tau": 1.0, "power": -2.0}
    raw["domain"] = {"lo": 0.5}
    raw["initial_data"] = {"family": "radial_bump", "height": 0.2,
                           "rise": [1.0, 2.0], "fall": [2.5, 3.5]}
    raw["solver"]["t_end"] = 8.0
    return raw


def decay_study_odd() -> dict:
    """configs/decay_study.json on [-200, 199.95] through t = 100: 8,000
    nodes, so the ROS2 steps' sine transforms run at odd N = 7,999, where
    every shipped line grid has N = 8,000."""
    with open(os.path.join(ROOT, "configs", "decay_study.json")) as fh:
        raw = json.load(fh)
    raw["domain"]["hi"] = 199.95
    raw["solver"]["t_end"] = 100.0
    return raw


def flow_radial_axis(n: int) -> dict:
    """A flat flow_radial run in dimension `n` on the axis grid [0, 16]
    at h = 1/16 through t = 4: the axis row at n other than the shipped
    configs' 3."""
    return {"scenario": "flow_radial",
            "metric": {"family": "euclidean", "n": n},
            "domain": {"lo": 0.0, "hi": 16.0},
            "initial_data": {"family": "bump", "height": 0.5,
                             "plateau": 1.0, "support": 4.0},
            "solver": {"h": 0.0625, "t_end": 4.0, "record_every": 0.5,
                       "snapshot_every": 1.0}}


def no_lift_off_variants() -> dict:
    """configs/no_lift_off.json with:
    - `record_dip`: records every 0.002 through t = 0.1, one of them where
      the step's interpolant dips below the tilt monitor's floor (exit 3,
      as since records inside a step are interpolated; snapshots inside a
      step are too)
    - `record_inner_end_n40`: metric.n 40 through t = 0.075, records every
      0.005 and snapshots every 0.025; a record reads |u'|/w > 1 at the
      inner end (exit 3)
    - `steep_flat_bump`: a bump of height 0.15 rising on [0.6, 0.8]
      through t = 1, its flat slope 1.19 but its slope in the metric 0.70
      (a config error while the flat slope was checked)
    - `close_marks`: snapshots every 0.5 through t = 1.0000001, whose
      last two times, the mark t = 1 and t_end, lie 1e-7 apart and keep a
      row each (a config error while each snapshot time had its own file
      name)
    - `step_cap`: at most 3 steps (exit 1; the run records and snapshots
      the state it stopped at, as a halted run does)
    - `cap_between_marks`: through t = 20 at most 460 steps, which stop
      near t = 14, between the snapshot marks 10 and 20 (exit 1; the mark
      t = 10 comes from its step's interpolant, and the state the run
      stopped at is recorded and snapshotted)"""
    with open(os.path.join(ROOT, "configs", "no_lift_off.json")) as fh:
        text = fh.read()
    variants = {name: json.loads(text) for name in (
        "record_dip", "record_inner_end_n40", "steep_flat_bump",
        "close_marks", "step_cap", "cap_between_marks")}
    variants["record_dip"]["solver"].update(t_end=0.1, record_every=0.002)
    variants["record_inner_end_n40"]["metric"]["n"] = 40
    variants["record_inner_end_n40"]["solver"].update(
        t_end=0.075, record_every=0.005, snapshot_every=0.025)
    variants["steep_flat_bump"]["initial_data"].update(height=0.15,
                                                       rise=[0.6, 0.8])
    variants["steep_flat_bump"]["solver"]["t_end"] = 1.0
    variants["close_marks"]["solver"].update(t_end=1.0000001,
                                             snapshot_every=0.5)
    variants["step_cap"]["solver"]["max_steps"] = 3
    variants["cap_between_marks"]["solver"].update(t_end=20.0,
                                                   max_steps=460)
    return variants


def tree(path: str) -> dict:
    """{relative path: bytes} of every file below `path`."""
    files = {}
    for dirpath, _, filenames in os.walk(path):
        for fname in filenames:
            full = os.path.join(dirpath, fname)
            with open(full, "rb") as fh:
                files[os.path.relpath(full, path)] = fh.read()
    return files


def run_side(src: str, work: str, runs: dict) -> dict:
    """{run name: (exit code, stdout, stderr, files)} of each run, made
    with `src` on PYTHONPATH and `work` as the working directory."""
    env = {**os.environ, "PYTHONPATH": src}
    results = {}
    for name, (command, raw) in runs.items():
        argv = ["verify"]
        if raw is not None:
            with open(os.path.join(work, f"{name}.json"), "w") as fh:
                json.dump(raw, fh, indent=2)
            argv = [command, f"{name}.json", "--output-dir", f"out/{name}"]
        proc = subprocess.run([sys.executable, "-m", "mcflow", *argv],
                              cwd=work, env=env, capture_output=True)
        results[name] = (proc.returncode, proc.stdout, proc.stderr,
                         tree(os.path.join(work, "out", name)))
    return results


def first_difference(a: bytes, b: bytes) -> str:
    """The first line where two texts differ, with its number."""
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(a_lines, b_lines)):
        if x != y:
            return f"line {i + 1}: {x[:200]!r} != {y[:200]!r}"
    return f"{len(a_lines)} lines != {len(b_lines)} lines"


def numbers(path: str, data: bytes) -> dict | None:
    """{position: value} of every numeric cell of a CSV, JSON or `.npy`
    file (a JSON position is its key path, a `.npy` one its index), or None
    for any other file."""
    if path.endswith(".npy"):
        table = np.load(io.BytesIO(data))
        return dict(zip(np.ndindex(table.shape), table.ravel().tolist()))
    cells = {}
    if path.endswith(".csv"):
        for i, line in enumerate(data.decode().splitlines()):
            for j, cell in enumerate(line.split(",")):
                try:
                    cells[i, j] = float(cell)
                except ValueError:
                    pass
        return cells
    if not path.endswith(".json"):
        return None

    def walk(value, key):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, (*key, k))
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(v, (*key, i))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            cells[key] = float(value)

    walk(json.loads(data), ())
    return cells


def moved(path: str, a: bytes, b: bytes) -> str:
    """How far the numbers of a CSV, JSON or `.npy` file moved from `a` to
    `b`; empty for any other file."""
    x, y = numbers(path, a), numbers(path, b)
    if x is None:
        return ""
    common = x.keys() & y.keys()
    differ = [k for k in common if x[k] != y[k]
              and not (math.isnan(x[k]) and math.isnan(y[k]))]
    relative = [abs(y[k] - x[k]) / abs(x[k]) for k in differ
                if x[k] and y[k] and math.isfinite(x[k])
                and math.isfinite(y[k])]
    one_zero = sum((x[k] == 0.0) != (y[k] == 0.0) for k in differ)
    unpaired = len(x.keys() ^ y.keys())
    return (f"{len(differ)} numeric cells differ; largest relative change "
            f"where both are nonzero {max(relative, default=0.0):.2g}; "
            f"{one_zero} zero on one side only"
            + (f"; {unpaired} cells on one side only" if unpaired else ""))


def differences(base: dict, head: dict) -> list:
    found = []
    for name in base:
        code_b, out_b, err_b, files_b = base[name]
        code_h, out_h, err_h, files_h = head[name]
        if code_b != code_h:
            found.append(f"{name}: exit code {code_b} != {code_h}")
        for label, x, y in (("stdout", out_b, out_h),
                            ("stderr", err_b, err_h)):
            if x != y:
                found.append(f"{name}: {label} {first_difference(x, y)}")
        for path in sorted(files_b.keys() | files_h.keys()):
            if path not in files_h:
                found.append(f"{name}: {path} only at the base")
            elif path not in files_b:
                found.append(f"{name}: {path} only in the working tree")
            elif files_b[path] != files_h[path]:
                a, b = files_b[path], files_h[path]
                stats = moved(path, a, b)
                found.append(f"{name}: {path} {first_difference(a, b)}"
                             + (f"\n    {stats}" if stats else ""))
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    runs = {**configs(), "verify": ("verify", None)}
    scratch = tempfile.mkdtemp(prefix="compare_outputs-")
    try:
        base_root = os.path.join(scratch, "base")
        os.makedirs(base_root)
        archive = subprocess.run(["git", "-C", ROOT, "archive", args[0]],
                                 capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode(), end="", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", base_root], input=archive.stdout,
                       check=True)
        sides = {}
        for side, src in (("base", os.path.join(base_root, "src")),
                          ("head", os.path.join(ROOT, "src"))):
            work = os.path.join(scratch, side + "_runs")
            os.makedirs(work)
            sides[side] = run_side(src, work, runs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    found = differences(sides["base"], sides["head"])
    for line in found:
        print(line)
    files = sum(len(result[3]) for result in sides["head"].values())
    print(f"{len(runs)} runs, {files} files: "
          f"{len(found) or 'no'} difference{'s' * (len(found) != 1)} "
          f"against {args[0]}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
