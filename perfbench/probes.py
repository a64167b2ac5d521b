"""Timings of single public mcflow calls, taken in traced runs only."""

from __future__ import annotations

import statistics
import time


def per_call(fn, calls: int, batches: int = 9) -> float:
    """Median over `batches` of the mean seconds per call in a batch."""
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def initial_field(cfg, raw: dict):
    """The field a run of `raw` starts from; the largest ball for sweeps."""
    from mcflow.scenarios import build_field_from_config
    if cfg.scenario == "dirichlet":
        R = max(raw["sweep"]["values"])
        return build_field_from_config(cfg, "radial", outer=R * R)
    kind = "line" if cfg.scenario == "decay_study" else "radial"
    return build_field_from_config(cfg, kind)


def solver_probes(raw: dict) -> dict:
    """One `stable_dt` and one `step_1d`/`step_radial` call on the workload's
    initial field, each including the engine construction, in microseconds."""
    from mcflow import solver
    from mcflow.scenarios import ScenarioConfig
    cfg = ScenarioConfig.from_dict(raw)
    field = initial_field(cfg, raw)
    if field.kind == "line":
        def step():
            solver.step_1d(field, cfg.solver)
    else:
        def step():
            solver.step_radial(field, cfg.metric, cfg.metric.n, cfg.solver)
    return {
        "solver.stable_dt_us": 1e6 * per_call(
            lambda: solver.stable_dt(field, cfg.metric, cfg.solver), 100),
        "solver.step_call_us": 1e6 * per_call(step, 100),
    }


def minor_layer_probes(ball_raw: dict, curved_raw: dict) -> dict:
    """Seconds for one barrier build, one Ricci bound and one blend.

    Each repeats the call a workload makes: the barrier and blend of the
    largest ball in `ball_raw`, the Ricci bound over the domain of
    `curved_raw`.  They are timed on every workload so that a change in
    these layers shows even where a workload does not call them.
    """
    import numpy as np
    from mcflow.barriers import build_outer_barrier
    from mcflow.geometry import ricci_form_bound
    from mcflow.initial_data import interpolate_initial_data, lipschitz_constant
    from mcflow.scenarios import ScenarioConfig
    ball = ScenarioConfig.from_dict(ball_raw)
    u0 = initial_field(ball, ball_raw)
    R = max(ball_raw["sweep"]["values"])
    sup0 = float(np.max(np.abs(u0.values)))
    eps = min(0.999, 1.0 - lipschitz_constant(ball.metric, u0))
    curved = ScenarioConfig.from_dict(curved_raw)
    c0 = initial_field(curved, curved_raw)
    return {
        "barriers.build_s": per_call(lambda: build_outer_barrier(
            ball.metric.n, r1_min=R, h=sup0 + 1.0, eps=0.0,
            metric=ball.metric), 1),
        "geometry.ricci_bound_s": per_call(lambda: ricci_form_bound(
            curved.metric, float(c0.nodes[0]), float(c0.nodes[-1])), 1),
        "initial_data.blend_s": per_call(lambda: interpolate_initial_data(
            ball.metric, u0, R - 1.0, R, eps), 1),
    }
