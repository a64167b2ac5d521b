"""The benchmark's traced-run probes of single public mcflow calls, and
its span recorder.

`perfbench/probes.py` times `stable_dt`, `step_1d`/`step_radial`, one
barrier build, one Ricci bound and one blend on each workload's config.
Each probe runs here once, on every workload's seed-0 config, so that an
API change that would break `perfbench/run.py --trace 1` fails the suite.
`perfbench/spans.py` times layers by wrapping the names their callers look
up; a shortened traced run of two workloads checks that each layer's span
still opens, so that a renamed or bypassed caller-side name fails too.
`workloads.step_counts` reads each workload's output files; a shortened
run of each checks its counts against the runs' summaries and grids.
"""

import importlib
import importlib.util
import json
import math
import os
import sys
import time

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def load(name):
    """A perfbench module, loaded by path under a name of its own."""
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


probes, workloads, spans = load("probes"), load("workloads"), load("spans")


@pytest.fixture
def single_calls(monkeypatch):
    """`probes.per_call` cut to one timed call."""
    def once(fn, calls, batches=9):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    monkeypatch.setattr(probes, "per_call", once)


def seed_zero(name):
    return workloads.generate_config(ROOT, name, 0)


def check_timings(values, names):
    assert sorted(values) == sorted(names)
    assert all(math.isfinite(v) and v >= 0.0 for v in values.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_solver_probes_run_on_each_workload(name, single_calls):
    check_timings(probes.solver_probes(seed_zero(name)),
                  ["solver.stable_dt_us", "solver.step_call_us"])


def test_minor_layer_probes_run(single_calls):
    check_timings(probes.minor_layer_probes(seed_zero("ball_sweep"),
                                            seed_zero("curved_dense")),
                  ["barriers.build_s", "geometry.ricci_bound_s",
                   "initial_data.blend_s"])


def test_wrapped_names_resolve():
    for module, attr, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr)), \
            (module, attr)


@pytest.mark.parametrize("name, solver, layers", [
    ("ball_sweep", {"t_end": 0.5}, ()),
    ("curved_dense", {"t_end": 0.5}, ("geometry.ricci_bound",)),
])
def test_traced_runs_open_every_layer_span(tmp_path, name, solver, layers):
    raw = seed_zero(name)
    raw["solver"].update(solver)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    code, run = spans.Tracer().run(
        name, "cli.main", workloads.run_cli, name, str(config),
        str(tmp_path / "out"))
    assert code == 0
    opened = {span.name for span in run}
    for layer in ("scenarios.run", "scenarios.write", "solver.run",
                  "barriers.build", "diagnostics.record") + layers:
        assert layer in opened, (name, layer, sorted(opened))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_step_counts_read_each_workload_output(tmp_path, name):
    # the benchmark counts a run's nodes by the lines of the first file
    # under its snapshots/, less a header
    raw = seed_zero(name)
    raw["solver"]["t_end"] = 0.5
    if name == "line_decay":  # ten records of 0.5 in the decay fit's window
        raw["solver"]["t_end"] = 5.0
        raw["fit_window"] = [0.5, 5.0]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    out = str(tmp_path / "out")
    assert workloads.run_cli(name, str(config), out) in (0, 1)
    steps = node_steps = 0
    lo, h = raw["domain"]["lo"], raw["solver"]["h"]
    for run in workloads.run_dirs(name, out):
        with open(os.path.join(run, "summary.json")) as fh:
            summary = json.load(fh)
        end = summary["R"] ** 2 if "R" in summary else raw["domain"]["hi"]
        steps += summary["steps"]
        node_steps += summary["steps"] * (round((end - lo) / h) + 1)
    assert steps > 0
    assert workloads.step_counts(name, out) == (steps, node_steps)
