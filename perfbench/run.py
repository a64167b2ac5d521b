"""mcflow benchmark: one workload, one seed, end-to-end or per-layer numbers.

Usage (from the repository root):

    python3 perfbench/run.py --workload line_decay --seed 1 --seconds 20 --trace 0

The benchmark writes the workload's config for the seed, times a fresh
interpreter's set-up several times, then runs `mcflow.cli.main` on the
config in a closed loop, one run at a time in this process, for `--seconds`
seconds.  Every run's exit code, named checks, termination and artifact
bytes are checked.  `--trace 0` reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` alternates untraced and traced runs and reports
its per-layer metrics.  The last stdout line is one JSON result object.
See perfbench/README.md for the metrics and the reasons for each workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")
#: Fresh interpreters timed per run (after one untimed warm-up).
SETUP_RUNS = 7
#: Runs of each kind at least: the determinism check needs two per seed.
MIN_RUNS = 2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")

sys.path.insert(0, HERE)
import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
           "cpu_model": platform.processor() or "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            path = os.path.join(cache_dir, index)
            if not index.startswith("index"):
                continue
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                env[f"l{level}_cache"] = size
    except OSError:
        pass
    return env


def setup_times(config_path: str) -> list:
    """`SETUP_RUNS` fresh interpreters' import and config/field times."""
    cmd = [sys.executable, os.path.join(HERE, "setup_child.py"), SRC,
           config_path]
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
        if i:
            times.append(json.loads(proc.stdout.splitlines()[-1]))
    return times


def measure(name: str, seed: int, seconds: float, traced: bool,
            config_path: str, work: str):
    """Closed loop of CLI runs for `seconds`; returns (runs, tracer)."""
    tracer = spans.Tracer()
    kinds = (False, True) if traced else (False,)
    reference = None
    runs = []
    start = time.perf_counter()
    while (len(runs) < MIN_RUNS * len(kinds)
           or time.perf_counter() - start < seconds):
        run = {"traced": kinds[len(runs) % len(kinds)], "problems": []}
        out = os.path.join(work, f"run{len(runs)}")
        gc.collect()
        try:
            if run["traced"]:
                code, run["spans"] = tracer.run(
                    f"{name}-seed{seed}-run{len(runs)}", "cli.main",
                    workloads.run_cli, name, config_path, out)
                run["wall"] = run["spans"][0].duration
            else:
                t0 = time.perf_counter()
                code = workloads.run_cli(name, config_path, out)
                run["wall"] = time.perf_counter() - t0
            run["problems"] = workloads.check_outputs(name, out, code)
            digest, run["bytes"], run["files"] = workloads.digest_tree(out)
            if reference is None:
                reference = digest
            elif digest != reference:
                run["problems"].append("artifacts differ from the first run")
            if not run["problems"]:
                run["steps"], run["node_steps"] = workloads.step_counts(name,
                                                                        out)
        except Exception as exc:  # a crashing run is a failed run
            traceback.print_exc()
            run["problems"].append(f"{type(exc).__name__}: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        runs.append(run)
    return runs, tracer


def layer_metrics(run: dict) -> dict:
    """Per-layer numbers of one passing traced run."""
    st = spans.self_times(run["spans"])

    def get(span_name, k):  # k: 0 count, 1 self seconds
        return st.get(span_name, (0, 0.0))[k]

    wall = run["wall"]
    solver_s = get("solver.run", 1)
    diag_s = get("diagnostics.record", 1)
    records = get("diagnostics.record", 0)
    return {
        "solver.steps": run["steps"],
        "solver.node_steps": run["node_steps"],
        "solver.self_s": solver_s,
        "solver.share": solver_s / wall,
        "solver.step_us": 1e6 * solver_s / run["steps"],
        "solver.node_step_ns": 1e9 * solver_s / run["node_steps"],
        "diagnostics.records": records,
        "diagnostics.record_us": 1e6 * diag_s / records,
        "diagnostics.self_s": diag_s,
        "diagnostics.share": diag_s / wall,
        "scenarios.write_s": get("scenarios.write", 1),
        "scenarios.self_s": get("scenarios.run", 1),
        "scenarios.bytes_written": run["bytes"],
        "scenarios.files_written": run["files"],
        "barriers.builds": get("barriers.build", 0),
        "geometry.ricci_bounds": get("geometry.ricci_bound", 0),
        "initial_data.blends": get("initial_data.blend", 0),
        "tracing.wall_s": wall,
        "tracing.accounted_share": 1.0 - get("cli.main", 1) / wall,
    }


def medians(rows: list) -> dict:
    return {key: statistics.median_low(row[key] for row in rows)
            for key in rows[0]} if rows else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    needed = [spec_path, os.path.join(SRC, "mcflow", "__init__.py")]
    needed += [os.path.join(ROOT, "configs", w.source)
               for w in workloads.WORKLOADS.values()]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: program files missing: {missing}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    for var in BLAS_THREAD_VARS:  # before numpy is imported anywhere
        os.environ[var] = "1"
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}"
                              f"-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raws = {name: workloads.generate_config(ROOT, name, args.seed)
            for name in workloads.WORKLOADS}
    config_path = os.path.join(work, f"{args.workload}.json")
    with open(config_path, "w") as fh:
        json.dump(raws[args.workload], fh, indent=2)

    setup = setup_times(config_path)
    sys.path.insert(0, SRC)
    import mcflow
    if not os.path.abspath(mcflow.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported mcflow from {mcflow.__file__}",
              file=sys.stderr)
        return 2
    env = environment()

    if args.trace:
        probe = probes.solver_probes(raws[args.workload])
        probe.update(probes.minor_layer_probes(raws["ball_sweep"],
                                               raws["curved_dense"]))
    runs, tracer = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace), config_path, work)
    passed = [r for r in runs if not r["problems"]]
    untraced = [r["wall"] for r in runs if "wall" in r and not r["traced"]]
    if args.trace:
        values = medians([layer_metrics(r) for r in passed if r["traced"]])
        values.update(probe)
        values["mcflow.import_s"] = statistics.median(
            s["import_s"] for s in setup)
        values["scenarios.config_s"] = statistics.median(
            s["config_s"] for s in setup)
        if "tracing.wall_s" in values and untraced:
            values["tracing.overhead_s"] = (values["tracing.wall_s"]
                                            - statistics.median(untraced))
    else:
        values = {
            "wall_s": statistics.median(untraced) if untraced else None,
            "setup_s": statistics.median(s["import_s"] + s["config_s"]
                                         for s in setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    failed = len(runs) - len(passed)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in declared}
    complete = all(v["value"] is not None for v in metrics.values())
    result = {"correct": failed == 0 and complete, "attempted": len(runs),
              "failed": failed, "metrics": metrics}

    tracer.dump(os.path.join(work, "spans.jsonl"))
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "environment": env, "setup_runs": setup,
                   "runs": [{"traced": r["traced"], "wall_s": r.get("wall"),
                             "problems": r["problems"]} for r in runs],
                   "result": result}, fh, indent=2)
    print("environment: " + json.dumps(env, sort_keys=True))
    for r in runs:
        for problem in r["problems"]:
            print(f"FAILED: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(runs)} runs, "
          f"{failed} failed, fail_rate {failed / len(runs):g}")
    for key, m in metrics.items():
        print(f"{key:28s} {m['value']!s:>24s} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
