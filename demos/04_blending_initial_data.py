"""Blending curved initial data into flat zero data.

Whole-space data on a curved background are matched to (flat, zero) across
an annulus: the data are damped by a cutoff while the metric is stretched
by a factor lam, which absorbs the cutoff's extra gradient so the
spacelikeness margin survives.
"""

import numpy as np

from mcflow import (conformal_metric, interpolate_initial_data,
                    lipschitz_constant, radial_field, smooth_cutoff)

metric = conformal_metric(3, a=0.5, tau=1.0)
u0 = radial_field(0.5, 30.0, 0.02,
                  lambda r: 1.0 * smooth_cutoff(6.0, 16.0, r),
                  bc=("asymptotic_decay", "dirichlet_zero"))
margin0 = 1.0 - lipschitz_constant(metric, u0)
print("slope margin of the raw data:", margin0)

sigma_tilde, u_tilde = interpolate_initial_data(metric, u0, R1=10.0, R2=20.0,
                                                eps=0.5)
print("annulus thirds S1..S4:", sigma_tilde.s1, sigma_tilde.s2,
      sigma_tilde.s3, sigma_tilde.s4)
print("metric stretch lam   :", sigma_tilde.lam)

r = u0.radii()
print("\nblend anatomy (r, w_tilde, u_tilde):")
for rr in (5.0, 11.0, 15.0, 18.0, 25.0):
    i = int(np.argmin(np.abs(r - rr)))
    print(f"  r = {rr:5.1f}   w = {float(sigma_tilde.w(rr)):.6f}   "
          f"u = {u_tilde.values[i]:.6f}")

print("\ndata unchanged inside S1:",
      bool(np.array_equal(u_tilde.values[r <= 10.0],
                          u0.values[r <= 10.0])))
print("data zero beyond S3:",
      bool(np.all(u_tilde.values[r >= sigma_tilde.s3] == 0.0)))
print("blended slope margin:",
      1.0 - lipschitz_constant(sigma_tilde, u_tilde),
      "(requested eps = 0.5)")
