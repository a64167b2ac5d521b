"""Static comparison profiles.

The stationary profile beta has exactly zero flow speed; tweaking its slope
exponent produces a profile b whose flat speed is exactly (1/2) b'/r < 0,
and which stays a descending profile under small conformal perturbations of
the background once its inner radius is large enough.
"""

import numpy as np

from mcflow import (build_outer_barrier, conformal_metric, euclidean_metric,
                    supersolution_height, verify_static_supersolution)
from mcflow.barriers import maximal_surface_residual

# Zero speed of the stationary profile, across dimensions and constants.
worst = max(
    float(np.max(np.abs(maximal_surface_residual(n, c, np.geomspace(0.1, 100, 200)))))
    for n in (3, 4, 5) for c in (0.5, 1.0, 2.0))
print("stationary profile residual, worst over sweep:", worst)

# Heights decay like r^{-(n - 5/2)}: for n = 3 the tail is 2 r0^{3/2} / sqrt(r).
for r in (10.0, 100.0, 1000.0):
    h = supersolution_height(3, 1.0, r)
    print(f"b({r:7.1f}) = {h: .8f}   tail formula {2 * r**-0.5: .8f}")

# Build a certified profile over a curved background and verify it per radius.
metric = conformal_metric(3, a=0.5, tau=1.0)
profile = build_outer_barrier(3, r1_min=10.0, h=2.0, eps=0.0, metric=metric)
print("\ninner radius found:", profile.r0, " cap:", profile.cap)
rows = verify_static_supersolution(metric, profile,
                                   np.geomspace(profile.r0, 1e3 * profile.r0, 9))
print("radius      flat speed     deviation from (1/2)b'/r   curved speed")
for row in rows:
    print(f"{row['radius']:9.2f}  {row['flat_value']: .3e}   {row['identity_deviation']:.3e}"
          f"               {row['curved_value']: .3e}  {'ok' if row['pass'] else 'BAD'}")

# The same profile shifted up stays valid (the speed sees only derivatives),
# and its negation descends from below.
flat_rows = verify_static_supersolution(euclidean_metric(3), profile, [profile.r0])
print("\nflat speed at r0 =", flat_rows[0]["flat_value"],
      " (exactly half the slope over the radius)")
