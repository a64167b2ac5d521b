"""The zero-boundary problem on balls and its boundary-gradient bound.

Each run blends the data to (flat, zero) across [R-1, R] and evolves on
[0, R^2] with the outer value pinned to zero.  A static profile with inner
radius R and cap above sup u0 + 1 dominates the solution outside K_R, so
its slope at R^2, which scales like R^{-3/2} in three dimensions, bounds
the measured boundary slope a priori.  Downscaled from
configs/dirichlet_sweep.json.
"""

import numpy as np

from mcflow import (SolverConfig, euclidean_metric, max_boundary_slope,
                    radial_field, smooth_cutoff, solve_dirichlet)
from mcflow.scenarios import (ScenarioConfig, dirichlet_gradient_bound,
                              run_nested_sweep)

metric = euclidean_metric(3)
h = 0.1  # grid spacing
cfg = SolverConfig(t_end=8.0, snapshot_every=1.0, record_every=1.0)


def bump(r):
    return 0.4 * smooth_cutoff(0.5, 2.0, r)


print("R    boundary slope   a priori bound")
slopes, bounds, Rs = [], [], (2.0, 3.0, 4.0)
for R in Rs:
    u0 = radial_field(0.0, R * R, h, bump)
    traj = solve_dirichlet(R, metric, u0, cfg)
    slope = max_boundary_slope(traj)
    bound = dirichlet_gradient_bound(metric, R, 0.4)["bound_slope"]
    slopes.append(slope)
    bounds.append(bound)
    print(f"{R:3.0f}   {slope:12.3e}   {bound:12.3e}")

fit = np.polyfit(np.log(Rs), np.log(bounds), 1)[0]
print("\nbound-slope scaling exponent:", round(fit, 3),
      "(the three-dimensional rate is -3/2 as R grows)")

# the nested-ball study, as `mcflow sweep` runs it from a config: the same
# data, restricted from the largest ball to each smaller one
nested = run_nested_sweep(ScenarioConfig.from_dict({
    "scenario": "nested_balls",
    "sweep": {"parameter": "R", "values": [2, 3, 4]},
    "metric": {"family": "euclidean", "n": 3},
    "domain": {"lo": 0.0},
    "initial_data": {"family": "bump", "height": 0.4, "plateau": 0.5,
                     "support": 2.0},
    "solver": {"h": h, "t_end": cfg.t_end, "snapshot_every": 1.0,
               "record_every": 1.0},
}))
print("\nnested-domain differences on the shared window:")
for row in nested["rows"]:
    print(f"  R {row['R_small']:g} vs {row['R_large']:g}: "
          f"max |difference| = {row['max_difference']:.3e}")
