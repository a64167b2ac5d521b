"""Numerical laboratory for graphical spacelike curvature flow.

Library layout:

* `geometry` - radial conformal backgrounds, graph quantities, flow operators
* `barriers` - stationary, static and translating comparison profiles
* `initial_data` - cutoffs, metric blending, slope and decay functionals
* `solver` - RKL2 super-steps and, on lines with both ends pinned, ROS2
  W-steps: line, radial and ball problems
* `diagnostics` - norms, monitors, margins, rate fits
* `verification` - the closed-form identity suite
* `config` - reading and validating scenario configs, the initial field
* `scenarios` / `cli` - config-driven runs and sweeps (the nested-ball
  study among them), file artifacts
"""

from .barriers import (BarrierProfile, TranslatingBarrier, build_outer_barrier,
                       maximal_slope, supersolution_height,
                       supersolution_profile_derivs,
                       translating_barrier_certificate,
                       translating_barrier_eval, verify_static_supersolution)
from .diagnostics import (decay_exponent_fit, h1_decay_check,
                          max_boundary_slope, max_principle_check)
from .fields import Field, gradient, line_field, radial_field
from .geometry import (GraphQuantities, RadialMetric, conformal_metric,
                       euclidean_metric, graph_quantities, mcf_operator_cartesian,
                       mcf_operator_radial, metric_eval, ricci_eval)
from .initial_data import (decay_radius, interpolate_initial_data,
                           lipschitz_constant, smooth_cutoff)
from .solver import (FlowTrajectory, SolverConfig, run_flow, solve_dirichlet,
                     stable_dt, step_1d, step_radial)
from .verification import run_identity_suite

__version__ = "0.1.0"
