"""Monitored quantities: norms, slope margins, monotone monitors, rate fits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field, gradient, gradient_into
from .geometry import TOL_SPACELIKE, SpacelikeViolationError


class InsufficientDataError(ValueError):
    """Too few usable records for the requested fit."""


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-time diagnostics; sup_phi and barrier_margin only when configured."""

    t: float
    sup_u: float
    grad_max: float
    l2: float
    h1_grad: float
    sup_phi: float | None = None
    barrier_margin: float | None = None


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    intercept: float
    r_squared: float
    window: tuple

    def to_dict(self) -> dict:
        return {"exponent": self.exponent, "intercept": self.intercept,
                "r_squared": self.r_squared,
                "window": [self.window[0], self.window[1]]}


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    worst: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {"pass": self.passed, "worst": self.worst, "detail": self.detail}


class RecordPlan:
    """The per-grid part of the diagnostics records, formed once per run.

    Holds w(r) at the nodes, the volume weight r^{n-1} w^n, the tilt
    monitor's validated (lambda, mu) and the barrier's b_eps on the nodes
    with r >= r0, with their mask.  A record forms u' once, into a buffer,
    and p = |u'|/w once: p gives max |u'|/w, and its square the
    gradient-norm integrand and the tilt factor.  A w that is 1 at every
    node and the line's unit weight are dropped: division and
    multiplication by 1 are exact.  Without a metric (None) the plan serves
    only the barrier margin.
    """

    def __init__(self, field: Field, metric, phi_params=None, profile=None):
        r = field.radii()
        self.h, self.axis = field.h, field.axis
        if metric is not None:
            w = metric.w(r)
            self.weight = (r ** (metric.n - 1) * w ** metric.n
                           if field.kind == "radial" else None)
            self.w = None if np.all(w == 1.0) else w
        self.phi = None
        if phi_params is not None:
            lambda_phi, mu_phi = phi_params
            if mu_phi <= 0:
                raise ValueError(f"mu must be > 0, got {mu_phi}")
            if lambda_phi < 0:
                raise ValueError(f"lambda must be >= 0, got {lambda_phi}")
            self.phi = (lambda_phi, mu_phi)
        self.outside = self.b_eps = None
        if profile is not None:
            outside = r >= profile.r0
            if not np.any(outside):
                raise ValueError("field grid does not reach the profile's "
                                 "inner radius")
            self.b_eps = profile.value(r[outside])
            first = int(outside.argmax())
            # on a radial grid the nodes outside are a suffix: slice them
            self.outside = (slice(first, None) if outside[first:].all()
                            else outside)
        self.du, self.p2, self.work = (np.empty_like(r) for _ in range(3))

    def slopes(self, u) -> float:
        """Form u' and p^2 = (|u'|/w)^2 of the values `u`; return max
        |u'|/w.  (u'/w)^2 is p^2: the quotient's sign does not touch its
        bits."""
        gradient_into(u, self.h, self.axis, self.du)
        p = np.abs(self.du, out=self.p2)
        if self.w is not None:
            p /= self.w
        grad_max = float(p.max())
        p *= p
        return grad_max

    def _trapezoid(self, y) -> float:
        """np.trapezoid(y, dx=h): its arithmetic, (h (y[1:] + y[:-1]) /
        2).sum(), without its per-call set-up."""
        pairs = np.add(y[1:], y[:-1], out=self.du[1:])
        pairs *= self.h
        pairs /= 2.0
        return pairs.sum()

    def _weighted(self, y):
        """y times the volume weight, in the work buffer (y itself on a
        line)."""
        if self.weight is None:
            return y
        return np.multiply(y, self.weight, out=self.work)

    def norms(self, u) -> tuple:
        """(sup|u|, L2 norm, L2 norm of the gradient) of the values `u`;
        needs `slopes(u)`."""
        sup_u = float(np.abs(u, out=self.work).max())
        l2 = math.sqrt(self._trapezoid(
            self._weighted(np.multiply(u, u, out=self.work))))
        h1 = math.sqrt(self._trapezoid(self._weighted(self.p2)))
        return sup_u, l2, h1

    def tilt(self, u) -> float:
        """`phi_supremum` of the values `u`; needs `slopes(u)`."""
        lambda_phi, mu_phi = self.phi
        if lambda_phi > 0 and float(u.min()) < -1e-9:
            raise ValueError("monitor needs min u >= 0; shift the data first")
        if (self.p2 >= 1.0 - TOL_SPACELIKE).any():
            raise SpacelikeViolationError("field is not strictly spacelike")
        v = np.sqrt(np.subtract(1.0, self.p2, out=self.du), out=self.du)
        v = np.divide(1.0, v, out=v)
        e = np.exp(np.multiply(u, lambda_phi, out=self.work), out=self.work)
        e = np.exp(np.multiply(e, mu_phi, out=e), out=e)
        return float(np.multiply(v, e, out=e).max())

    def margin(self, u) -> float:
        """`barrier_margin` of the values `u`."""
        gap = np.abs(u[self.outside], out=self.work[:self.b_eps.size])
        return float(np.subtract(self.b_eps, gap, out=gap).min())


def field_norms(field: Field, metric) -> tuple:
    """(sup|u|, max |u'|/w, L2 norm, L2 norm of the gradient).

    Radial integrals carry the volume weight r^{n-1} w(r)^n; line integrals
    use plain dx.  The gradient norm integrand is |u'/w|^2 with the same
    weight, which reduces to the plain integral of u'^2 on a flat line.
    """
    plan = RecordPlan(field, metric)
    grad_max = plan.slopes(field.values)
    sup_u, l2, h1 = plan.norms(field.values)
    return sup_u, grad_max, l2, h1


def phi_supremum(field: Field, metric, lambda_phi: float, mu_phi: float) -> float:
    """sup over nodes of v * exp(mu * e^{lambda * u}), v the tilt factor.

    A monotone monitor on curved runs when lambda is the measured curvature
    constant and mu its reciprocal; requires min u >= 0 (up to rounding) for
    monotonicity, which is validated here whenever lambda > 0.
    """
    plan = RecordPlan(field, metric, phi_params=(lambda_phi, mu_phi))
    plan.slopes(field.values)
    return plan.tilt(field.values)


def barrier_margin(field: Field, profile) -> float:
    """min over nodes with r >= r0 of (b_eps(r) - |u|); positive = dominated."""
    return RecordPlan(field, None, profile=profile).margin(field.values)


@dataclass(frozen=True)
class HypothesisCheck:
    passed: bool
    sup_gradient: float
    boundary_slope: float

    def to_dict(self) -> dict:
        return {"pass": self.passed, "sup_gradient": self.sup_gradient,
                "boundary_slope": self.boundary_slope}


def comparison_hypothesis_check(field: Field, boundary_slope: float,
                                region: tuple, metric=None) -> HypothesisCheck:
    """Check sup |u'|/w over a radial region against a profile's boundary slope.

    This is the hypothesis under which an upper profile cannot be touched
    first on its boundary sphere.
    """
    r = field.radii()
    mask = (r >= region[0]) & (r <= region[1])
    if not np.any(mask):
        raise ValueError(f"region {region} contains no grid nodes")
    du = np.abs(gradient(field))
    w = metric.w(r) if metric is not None else np.ones_like(r)
    sup_grad = float(np.max((du / w)[mask]))
    return HypothesisCheck(passed=sup_grad < boundary_slope,
                           sup_gradient=sup_grad,
                           boundary_slope=float(boundary_slope))


def decay_exponent_fit(records, window: tuple) -> DecayFit:
    """Least-squares line through (log t, log sup_u) inside the window."""
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError(f"window must have t_lo < t_hi, got {window}")
    pts = [(rec.t, rec.sup_u) for rec in records
           if t_lo <= rec.t <= t_hi and rec.sup_u > 0.0]
    if len(pts) < 10:
        raise InsufficientDataError(
            f"need >= 10 records with sup_u > 0 in {window}, have {len(pts)}")
    logt = np.log([p[0] for p in pts])
    logs = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(logt, logs, 1)
    fitted = slope * logt + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return DecayFit(exponent=float(slope), intercept=float(intercept),
                    r_squared=r2, window=(float(t_lo), float(t_hi)))


@dataclass(frozen=True)
class SlopeSeries:
    times: np.ndarray
    slopes: np.ndarray

    @property
    def max_slope(self) -> float:
        return float(self.slopes.max())


def boundary_slope_series(trajectory, metric=None) -> SlopeSeries:
    """Outer-boundary |u'|/w per snapshot, one-sided second order."""
    times, slopes = [], []
    for t, field in trajectory.snapshots:
        u = field.values
        du = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * field.h)
        w = float(metric.w(field.radii()[-1])) if metric is not None else 1.0
        times.append(t)
        slopes.append(abs(du) / w)
    return SlopeSeries(times=np.asarray(times), slopes=np.asarray(slopes))


def max_principle_check(records, slack: float = 1e-9) -> CheckReport:
    """Pass iff sup_u never rises by more than `slack` between records."""
    if len(records) < 2:
        raise ValueError("need at least 2 records")
    sups = np.array([rec.sup_u for rec in records])
    rises = np.diff(sups)
    worst = float(rises.max())
    return CheckReport(passed=worst <= slack, worst=worst,
                       detail="largest sup_u increase between records")


def h1_decay_check(records, rel_slack: float = 1e-3) -> CheckReport:
    """Pass iff l2^2 + t * h1_grad^2 <= l2(0)^2 (1 + rel_slack) at every record.

    The right-hand side is the integral bound the cutoff argument yields in
    the limit of wide cutoffs; see the notes on the stated versus derived
    constant in the README.
    """
    if not records:
        raise ValueError("no records")
    bound = records[0].l2 ** 2 * (1.0 + rel_slack)
    lhs = np.array([rec.l2 ** 2 + rec.t * rec.h1_grad ** 2 for rec in records])
    if bound == 0.0:
        return CheckReport(passed=bool(np.all(lhs == 0.0)),
                           worst=float(lhs.max()),
                           detail="zero initial data: bound degenerate")
    worst = float((lhs / bound).max())
    return CheckReport(passed=bool(np.all(lhs <= bound)), worst=worst,
                       detail="max of (l2^2 + t h1^2) / bound")


def make_record(plan: RecordPlan, u: np.ndarray, t: float) -> DiagnosticsRecord:
    """The record of the values `u` at time t on the plan's grid; the tilt
    monitor and barrier margin when the plan has them."""
    grad_max = plan.slopes(u)
    sup_u, l2, h1 = plan.norms(u)
    sup_phi = None if plan.phi is None else plan.tilt(u)
    margin = None if plan.b_eps is None else plan.margin(u)
    return DiagnosticsRecord(t=t, sup_u=sup_u, grad_max=grad_max, l2=l2,
                             h1_grad=h1, sup_phi=sup_phi, barrier_margin=margin)
