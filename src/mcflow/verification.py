"""Closed-form identity suite: exact profiles, certificates, graph algebra.

Every check evaluates an analytically exact identity (or inequality) at many
sample points and reports the worst deviation against a fixed tolerance.
Inequality checks report (bound - value), so any positive deviation is a
violation and the tolerance is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barriers import (TranslatingBarrier, maximal_surface_residual,
                       supersolution_profile_derivs,
                       translating_barrier_certificate,
                       translating_barrier_eval)
from .geometry import (conformal_metric, euclidean_metric, graph_quantities,
                       mcf_operator_cartesian, mcf_operator_radial,
                       radial_factors, radial_flow_rhs)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    deviation: float
    tolerance: float
    passed: bool
    samples: int

    def to_dict(self) -> dict:
        return {"name": self.name, "deviation": self.deviation,
                "tolerance": self.tolerance, "pass": self.passed,
                "samples": self.samples}


@dataclass(frozen=True)
class VerificationReport:
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def empty(self) -> bool:
        return not self.checks

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks],
                "pass": self.all_passed}


def _check(name, deviation, tolerance, samples) -> IdentityCheck:
    return IdentityCheck(name=name, deviation=float(deviation),
                         tolerance=tolerance,
                         passed=bool(deviation <= tolerance), samples=samples)


def check_maximal_surface_residual(dims=(3, 4, 5), cs=(0.5, 1.0, 2.0),
                                   r_range=(0.1, 100.0), n_radii=201):
    """Flat radial speed on the exact stationary profile is zero."""
    radii = np.geomspace(r_range[0], r_range[1], n_radii)
    worst, count = 0.0, 0
    for n in dims:
        for c in cs:
            worst = max(worst, float(np.max(np.abs(
                maximal_surface_residual(n, c, radii)))))
            count += radii.size
    return _check("maximal_surface_residual", worst, 1e-10, count)


def check_strict_supersolution_identity(dims=(3, 4, 5),
                                        inner_radii=(0.5, 1.0, 2.0),
                                        r_hi=100.0, n_radii=201):
    """Flat radial speed on the static profile equals (1/2) b'/r."""
    worst, count = 0.0, 0
    for n in dims:
        flat = euclidean_metric(n)
        for r0 in inner_radii:
            radii = np.geomspace(r0, r_hi, n_radii)
            b1, b2, q = supersolution_profile_derivs(n, r0, radii)
            w, fp = radial_factors(flat, radii)
            vals = radial_flow_rhs(n, radii, b1, b2, w, fp,
                                   one_minus_slope_sq=q)
            worst = max(worst, float(np.max(np.abs(vals - 0.5 * b1 / radii))))
            count += radii.size
    return _check("strict_supersolution_identity", worst, 1e-10, count)


def check_translating_identity(n_points=10000, mus=(0.1, 0.5, 0.9),
                               t0s=(-2.0, -10.0, -100.0), seed=0):
    """d_t b_hat minus the flat flow speed of b_hat equals the drift alpha."""
    rng = np.random.default_rng(seed)
    n = 3
    cases = [(mu, t0) for mu in mus for t0 in t0s]
    per = -(-n_points // len(cases))  # ceil: at least n_points total
    worst, count = 0.0, 0
    for mu, t0 in cases:
        tb = TranslatingBarrier(n=n, x0=np.zeros(n), t0=t0,
                                alpha=float(rng.uniform(0.0, 2.0)), mu=mu)
        worst = max(worst, translating_identity_deviation(tb, rng, per))
        count += per
    return _check("translating_flat_identity", worst, 1e-12, count)


def translating_identity_deviation(tb: TranslatingBarrier, rng,
                                   samples: int) -> float:
    """Worst |d_t b - flat flow speed of b - alpha| of the cone profile `tb`
    over `samples` random points of its ball and time window.

    Each sample draws a normal direction, a radius fraction and a time from
    `rng`, in that order.
    """
    flat = euclidean_metric(tb.n)
    worst = 0.0
    for _ in range(samples):
        direction = rng.normal(size=tb.n)
        direction /= np.linalg.norm(direction)
        x = tb.x0 + direction * tb.rho * rng.uniform(0.0, 1.0)
        t = rng.uniform(0.0, -tb.t0)
        _, dtv, grad, hess = translating_barrier_eval(tb, x, t)
        q = graph_quantities(flat, x, grad)
        worst = max(worst, abs(dtv - float(np.sum(q.g_inv * hess))
                               - tb.alpha))
    return worst


def check_translating_certificates(mus=(0.1, 0.5, 0.9),
                                   t0s=(-2.0, -10.0, -100.0)):
    """Slope-complement and boundary-slope inequalities of the cone profile.

    Returns two checks; deviations are (bound - value), so <= 0 passes.  The
    boundary slope attains its bound exactly at the far end of the time
    window, hence the rounding allowance.
    """
    from .barriers import EQUALITY_SLACK

    grad_dev, slope_dev, count = -np.inf, -np.inf, 0
    for mu in mus:
        for t0 in t0s:
            tb = TranslatingBarrier(n=3, x0=np.zeros(3), t0=t0, alpha=0.0,
                                    mu=mu)
            cert = translating_barrier_certificate(tb)
            grad_dev = max(grad_dev,
                           cert.gradient_bound - cert.min_gradient_complement)
            slope_dev = max(slope_dev,
                            cert.boundary_slope_bound - cert.min_boundary_slope)
            count += 1
    return [_check("translating_gradient_bound", grad_dev, EQUALITY_SLACK, count),
            _check("translating_boundary_slope", slope_dev, EQUALITY_SLACK, count)]


def check_graph_quantities(n_points=10000, seed=0):
    """|grad u|^2_g = v^2 - 1 and g g^{-1} = identity on random configurations.

    Returns two checks at tolerance 1e-12.
    """
    rng = np.random.default_rng(seed)
    dims = range(1, 6)
    flat = {n: euclidean_metric(n) for n in dims}
    identity = {n: np.eye(n) for n in dims}
    worst_grad, worst_inv = 0.0, 0.0
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
        worst_grad = max(worst_grad, abs(grad_g_sq - (q.v ** 2 - 1.0)))
        worst_inv = max(worst_inv, float(
            np.abs(q.g @ q.g_inv - identity[n]).max()))
    return [_check("graph_gradient_identity", worst_grad, 1e-12, n_points),
            _check("graph_inverse_identity", worst_inv, 1e-12, n_points)]


def check_radial_cartesian_consistency(n_points=100, seed=0):
    """Reduced radial speed against the full contraction at aligned points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
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
        worst = max(worst, abs(mcf_operator_cartesian(metric, x, grad, hess)
                               - mcf_operator_radial(metric, r, du, d2u)))
    return _check("radial_cartesian_consistency", worst, 1e-10, n_points)


def run_identity_suite(seed: int = 0, dims=(3, 4, 5),
                       n_random: int = 10000) -> VerificationReport:
    """Run the whole closed-form suite.

    `dims` sweeps the profile dimensions (an empty sweep yields an empty
    report).
    """
    checks: list = []
    if dims:
        checks.append(check_maximal_surface_residual(dims=dims))
        checks.append(check_strict_supersolution_identity(dims=dims))
        checks.append(check_translating_identity(n_points=n_random, seed=seed))
        checks.extend(check_translating_certificates())
        checks.extend(check_graph_quantities(n_points=n_random, seed=seed))
        checks.append(check_radial_cartesian_consistency(seed=seed))
    return VerificationReport(checks=checks)
