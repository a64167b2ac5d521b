"""Closed-form identity suite: exact profiles, certificates, graph algebra.

Every check evaluates an analytically exact identity (or inequality) at many
sample points and reports the worst deviation against a fixed tolerance.
Inequality checks report (bound - value), so any positive deviation is a
violation and the tolerance is zero.  A check is the dict that summary.json
writes: name, pass, deviation, tolerance, samples.  The worst deviation is
reduced with `np.max`, so a NaN anywhere is the worst deviation and fails.
"""

from __future__ import annotations

import math

import numpy as np

from .barriers import (EQUALITY_SLACK, TranslatingBarrier,
                       curved_profile_speed, maximal_surface_residual,
                       supersolution_profile_derivs,
                       translating_barrier_certificate,
                       translating_barrier_eval)
from .geometry import (conformal_metric, euclidean_metric, graph_quantities,
                       mcf_operator_cartesian, mcf_operator_radial)

#: Tolerance of the flow-speed residuals of the closed-form radial profiles
#: and of the reduced radial operator against the full contraction.
PROFILE_TOL = 1e-10
#: Tolerance of the pointwise identities at random samples: the cone
#: profile's drift and the graph algebra.
SAMPLE_TOL = 1e-12
#: Log-spaced radii per profile in the radial profile checks.
PROFILE_RADII = 201


def _check(name, deviations, tolerance, samples) -> dict:
    """The named check of the worst of `deviations`."""
    deviation = float(np.max(deviations))
    return {"name": name, "deviation": deviation, "tolerance": tolerance,
            "pass": bool(deviation <= tolerance), "samples": samples}


def check_maximal_surface_residual(dims=(3, 4, 5), cs=(0.5, 1.0, 2.0),
                                   r_range=(0.1, 100.0)):
    """Flat radial speed on the exact stationary profile is zero."""
    radii = np.geomspace(r_range[0], r_range[1], PROFILE_RADII)
    worsts = [np.max(np.abs(maximal_surface_residual(n, c, radii)))
              for n in dims for c in cs]
    return _check("maximal_surface_residual", worsts, PROFILE_TOL,
                  len(worsts) * radii.size)


def check_strict_supersolution_identity(dims=(3, 4, 5),
                                        inner_radii=(0.5, 1.0, 2.0)):
    """Flat radial speed on the static profile equals (1/2) b'/r on
    [r0, 100]."""
    worsts = []
    for n in dims:
        flat = euclidean_metric(n)
        for r0 in inner_radii:
            radii = np.geomspace(r0, 100.0, PROFILE_RADII)
            b1 = supersolution_profile_derivs(n, r0, radii)[0]
            vals = curved_profile_speed(flat, n, r0, radii)
            worsts.append(np.max(np.abs(vals - 0.5 * b1 / radii)))
    return _check("strict_supersolution_identity", worsts, PROFILE_TOL,
                  len(worsts) * PROFILE_RADII)


def check_translating_identity(n_points=10000, mus=(0.1, 0.5, 0.9),
                               t0s=(-2.0, -10.0, -100.0), seed=0):
    """d_t b_hat minus the flat flow speed of b_hat equals the drift alpha."""
    rng = np.random.default_rng(seed)
    n = 3
    cases = [(mu, t0) for mu in mus for t0 in t0s]
    per = -(-n_points // len(cases))  # ceil: at least n_points total
    worsts = []
    for mu, t0 in cases:
        tb = TranslatingBarrier(n=n, x0=np.zeros(n), t0=t0,
                                alpha=float(rng.uniform(0.0, 2.0)), mu=mu)
        worsts.append(translating_identity_deviation(tb, rng, per))
    return _check("translating_flat_identity", worsts, SAMPLE_TOL,
                  len(cases) * per)


def translating_identity_deviation(tb: TranslatingBarrier, rng,
                                   samples: int) -> float:
    """Worst |d_t b - flat flow speed of b - alpha| of the cone profile `tb`
    over `samples` random points of its ball and time window (NaN if any
    is NaN).

    Each sample draws a normal direction, a radius fraction and a time from
    `rng`, in that order.
    """
    flat = euclidean_metric(tb.n)
    deviations = []
    for _ in range(samples):
        direction = rng.normal(size=tb.n)
        direction /= np.linalg.norm(direction)
        x = tb.x0 + direction * tb.rho * rng.uniform(0.0, 1.0)
        t = rng.uniform(0.0, -tb.t0)
        _, dtv, grad, hess = translating_barrier_eval(tb, x, t)
        q = graph_quantities(flat, x, grad)
        deviations.append(abs(dtv - float(np.sum(q.g_inv * hess))
                              - tb.alpha))
    return float(np.max(deviations))


def check_translating_certificates(mus=(0.1, 0.5, 0.9),
                                   t0s=(-2.0, -10.0, -100.0)):
    """Slope-complement and boundary-slope inequalities of the cone profile.

    Returns two checks; deviations are (bound - value), so <= 0 passes.  The
    boundary slope attains its bound exactly at the far end of the time
    window, hence the rounding allowance.
    """
    certs = [translating_barrier_certificate(
                 TranslatingBarrier(n=3, x0=np.zeros(3), t0=t0, alpha=0.0,
                                    mu=mu))
             for mu in mus for t0 in t0s]
    return [_check("translating_gradient_bound",
                   [c["gradient_bound"] - c["min_gradient_complement"]
                    for c in certs], EQUALITY_SLACK, len(certs)),
            _check("translating_boundary_slope",
                   [c["boundary_slope_bound"] - c["min_boundary_slope"]
                    for c in certs], EQUALITY_SLACK, len(certs))]


def check_graph_quantities(n_points=10000, seed=0):
    """|grad u|^2_g = v^2 - 1 and g g^{-1} = identity on random configurations.

    Returns two checks at tolerance SAMPLE_TOL.
    """
    rng = np.random.default_rng(seed)
    dims = range(1, 6)
    flat = {n: euclidean_metric(n) for n in dims}
    identity = {n: np.eye(n) for n in dims}
    grad_devs, inv_devs = [], []
    for _ in range(n_points):
        n = int(rng.integers(1, 6))
        if rng.random() < 0.3:
            metric = flat[n]
        else:
            metric = conformal_metric(n, a=float(rng.uniform(0.01, 1.0)),
                                      tau=float(rng.uniform(0.5, 2.0)))
        # math.sqrt(v.dot(v)) is np.linalg.norm(v)'s arithmetic
        x = rng.normal(size=n)
        x *= rng.uniform(0.5, 20.0) / math.sqrt(x.dot(x))
        r = math.sqrt(x.dot(x))
        direction = rng.normal(size=n)
        direction /= math.sqrt(direction.dot(direction))
        s = rng.uniform(0.0, 0.999)
        grad = direction * s * float(metric.w(r))
        q = graph_quantities(metric, x, grad)
        grad_g_sq = float(grad @ q.g_inv @ grad)
        grad_devs.append(abs(grad_g_sq - (q.v ** 2 - 1.0)))
        inv_devs.append(np.abs(q.g @ q.g_inv - identity[n]).max())
    return [_check("graph_gradient_identity", grad_devs, SAMPLE_TOL, n_points),
            _check("graph_inverse_identity", inv_devs, SAMPLE_TOL, n_points)]


def check_radial_cartesian_consistency(seed=0):
    """Reduced radial speed against the full contraction at 100 aligned
    points."""
    rng = np.random.default_rng(seed)
    deviations = []
    for _ in range(100):
        n = int(rng.integers(1, 6))
        if rng.random() < 0.25:
            metric = euclidean_metric(n)
        else:
            metric = conformal_metric(n, a=float(rng.uniform(0.01, 1.0)),
                                      tau=float(rng.uniform(0.5, 2.0)))
        r = float(rng.uniform(0.5, 20.0))
        du = float(rng.uniform(-0.95, 0.95)) * float(metric.w(r))
        d2u = float(rng.uniform(-2.0, 2.0))
        x = np.zeros(n)
        x[0] = r
        grad = np.zeros(n)
        grad[0] = du
        hess = np.diag(np.full(n, du / r))
        hess[0, 0] = d2u
        deviations.append(abs(mcf_operator_cartesian(metric, x, grad, hess)
                              - mcf_operator_radial(metric, r, du, d2u)))
    return _check("radial_cartesian_consistency", deviations, PROFILE_TOL,
                  len(deviations))


def run_identity_suite(seed: int = 0, dims=(3, 4, 5),
                       n_random: int = 10000) -> list:
    """Run the whole closed-form suite; returns its checks.

    `dims` sweeps the profile dimensions (an empty sweep runs no check).
    """
    if not dims:
        return []
    return [check_maximal_surface_residual(dims=dims),
            check_strict_supersolution_identity(dims=dims),
            check_translating_identity(n_points=n_random, seed=seed),
            *check_translating_certificates(),
            *check_graph_quantities(n_points=n_random, seed=seed),
            check_radial_cartesian_consistency(seed=seed)]
