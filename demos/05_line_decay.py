"""Decay of the line flow u_t = u'' / (1 - u'^2).

A hump with slowly decaying tails (the borderline square-integrable kind)
relaxes with sup-norm rate close to t^{-1/4}; compactly supported humps
relax faster, at the heat-kernel rate t^{-1/2}.  Downscaled from the
acceptance run (configs/decay_study.json) to finish in seconds.
"""

import numpy as np

from mcflow import (SolverConfig, decay_exponent_fit, euclidean_metric,
                    line_field, run_flow, smooth_cutoff)

metric = euclidean_metric(1)
h = 0.1  # grid spacing
cfg = SolverConfig(t_end=100.0, snapshot_every=25.0, record_every=0.25)


def slow_tail(x):
    return 0.5 * (1 + (x / 0.25) ** 2) ** -0.25 * smoothed_edge(np.abs(x))


def smoothed_edge(r):
    return smooth_cutoff(30.0, 55.0, r)


u0 = line_field(-60.0, 60.0, h, slow_tail)
traj = run_flow(metric, u0, cfg)
fit = decay_exponent_fit(traj.records, (2.0, 100.0))
print("slow-tail hump:")
print("  records:", len(traj.records["t"]), " termination:", traj.termination)
print("  fitted sup-norm exponent:", round(fit["exponent"], 4),
      " r^2:", round(fit["r_squared"], 5))

l2s = traj.records["l2"]
lhs = l2s ** 2 + traj.records["t"] * traj.records["h1_grad"] ** 2
print("  L2 nonincreasing:", bool(np.all(np.diff(l2s) <= 1e-9)))
print("  sup of l2^2 + t h1^2 over l2(0)^2:", float(lhs.max() / l2s[0] ** 2))

gauss = line_field(-60.0, 60.0, h,
                   lambda x: 0.5 * np.exp(-x * x / 2.0))
traj_g = run_flow(metric, gauss, cfg)
fit_g = decay_exponent_fit(traj_g.records, (2.0, 100.0))
print("\ncompact hump (for contrast):")
print("  fitted sup-norm exponent:", round(fit_g["exponent"], 4),
      " (heat-kernel rate -1/2)")
