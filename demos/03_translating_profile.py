"""The translating cone profile and its certificate.

b_hat(x, t) = sqrt(2n(t - t0) + |x - x0|^2) + alpha t rides an expanding
light cone from far in the past: its flat residual is exactly the drift
alpha, its slope stays uniformly below 1, and its boundary slope is steep
enough to repel interior solutions with smaller gradients.
"""

import numpy as np

from mcflow import (TranslatingBarrier, euclidean_metric, graph_quantities,
                    translating_barrier_certificate, translating_barrier_eval)

tb = TranslatingBarrier(n=3, x0=np.zeros(3), t0=-4.0, alpha=0.0, mu=0.5)
print("comparison radius rho =", tb.rho)                    # sqrt(3 * 48) = 12

value, dtv, grad, hess = translating_barrier_eval(tb, np.zeros(3), 0.0)
print("value at the center   =", value, "(= sqrt(24))")
print("time derivative there =", dtv, "(= 3/sqrt(24))")
print("gradient there        =", grad)

# The residual identity at random admissible points.
rng = np.random.default_rng(0)
flat = euclidean_metric(3)
worst = 0.0
for _ in range(1000):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    x = d * tb.rho * rng.uniform(0, 1)
    t = rng.uniform(0, 4.0)
    _, dtv, grad, hess = translating_barrier_eval(tb, x, t)
    q = graph_quantities(flat, x, grad)
    worst = max(worst, abs(dtv - float(np.sum(q.g_inv * hess))))
print("\nworst |d_t b - flat speed| over 1000 points:", worst)

cert = translating_barrier_certificate(tb)
print("\nmin (1 - |grad|^2) =", cert["min_gradient_complement"],
      ">= mu/4 =", cert["gradient_bound"])
print("min boundary slope =", cert["min_boundary_slope"],
      ">= sqrt(1 - mu/2) =", cert["boundary_slope_bound"])
print("certificate passed:", cert["pass"])
