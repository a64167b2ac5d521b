"""Static and translating comparison profiles for the graphical flow.

Three rotationally symmetric families:

* the exact stationary profile beta on flat background, with slope
  beta' = -(1 + c r^{2n-2})^{-1/2} (zero flow speed for every c > 0);
* the static upper profile b with slope b' = -(1 + (r/r0)^{2n-3})^{-1/2},
  on which the flat flow speed is exactly (1/2) b'/r < 0 and which remains
  nonpositive under small conformal perturbations once r0 is large enough;
* the translating profile  b_hat = sqrt(2n(t - t0) + |x - x0|^2) + alpha t,
  an expanding-cone perturbation with flat residual exactly alpha, a uniform
  slope bound and a steep boundary slope.

Heights are recovered from slopes as the improper integral
b(r) = -int_r^inf b'(s) ds by a double-exponential (exp-sinh) rule
(Takahasi & Mori, Publ. RIMS 9, 1974): the substitution
s = r + r0 exp((pi/2) sinh t) makes the integrand decay double
exponentially at both ends of the t axis, so the trapezoid rule on a
truncated, uniform t grid converges geometrically in the step.  One array
expression evaluates it at every radius of a profile at once, and the same
nodes at twice the step give its error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (DomainError, RadialMetric, euclidean_metric,
                       radial_factors, radial_flow_rhs)

#: Log-spaced tabulation points per profile.
PROFILE_GRID_POINTS = 1024
#: Outer tabulation edge as a multiple of r0.
PROFILE_GRID_SPAN = 1.0e4
#: Certificate sample count for the curved sign check.
CERTIFICATE_POINTS = 256
#: Doubling-search budget for the inner radius.
MAX_DOUBLINGS = 40
#: Exp-sinh nodes: t = k * step for |t| <= HEIGHT_T_MAX.  At t = +-4.6,
#: s - r = r0 exp(+-78.1): for n >= 3 the two dropped tails of the integral
#: sum to less than 2.3e-17 r0.
HEIGHT_T_MAX = 4.6
HEIGHT_STEP = 1.0 / 32.0
#: Largest accepted gap between the height rule at step h and at step 2h,
#: absolute up to heights of 1 and relative to the largest height above.
HEIGHT_TOL = 1e-10
#: Rounding allowance for certificate inequalities whose extreme case is an
#: exact analytic equality (e.g. the boundary slope at the window's far end).
EQUALITY_SLACK = 1e-14


class QuadratureError(ArithmeticError):
    """The height rule's error estimate exceeds its tolerance."""


class BarrierConstructionError(RuntimeError):
    """No inner radius within the search budget yields a certified profile."""


# ---------------------------------------------------------------------------
# closed-form slopes and curvatures
# ---------------------------------------------------------------------------

def maximal_slope(n: int, c: float, r):
    """Slope beta'(r) = -(1 + c r^{2n-2})^{-1/2} of the stationary profile."""
    if c <= 0:
        raise DomainError(f"constant c must be > 0, got {c}")
    r = np.asarray(r, dtype=float)
    return -(1.0 + c * r ** (2 * n - 2)) ** -0.5


def maximal_curvature(n: int, c: float, r):
    """beta''(r) = c (n-1) r^{2n-3} (1 + c r^{2n-2})^{-3/2}."""
    if c <= 0:
        raise DomainError(f"constant c must be > 0, got {c}")
    r = np.asarray(r, dtype=float)
    return c * (n - 1) * r ** (2 * n - 3) * (1.0 + c * r ** (2 * n - 2)) ** -1.5


def maximal_slope_sq_complement(n: int, c: float, r):
    """1 - beta'^2 = c r^{2n-2} / (1 + c r^{2n-2}), free of cancellation."""
    r = np.asarray(r, dtype=float)
    q = c * r ** (2 * n - 2)
    return q / (1.0 + q)


def maximal_surface_residual(n: int, c: float, r):
    """Flat radial flow speed on beta; identically zero in exact arithmetic."""
    du = maximal_slope(n, c, r)
    d2u = maximal_curvature(n, c, r)
    q = maximal_slope_sq_complement(n, c, r)
    r = np.asarray(r, dtype=float)
    w = np.ones_like(r)
    return radial_flow_rhs(n, r, du, d2u, w, np.zeros_like(r), one_minus_slope_sq=q)


def supersolution_profile_derivs(n: int, r0: float, r):
    """(b', b'', 1 - b'^2) for the static upper profile.

    b'  = -(1 + (r/r0)^{2n-3})^{-1/2}
    b'' = (n - 3/2) (1/r0) (r/r0)^{2n-4} / (1 + (r/r0)^{2n-3})^{3/2}
    1 - b'^2 = (r/r0)^{2n-3} / (1 + (r/r0)^{2n-3})

    Defined for n >= 3 and r >= r0 > 0.
    """
    if n < 3:
        raise DomainError(f"static profile needs n >= 3, got n = {n}")
    if r0 <= 0:
        raise DomainError(f"inner radius must be > 0, got {r0}")
    r = np.asarray(r, dtype=float)
    if np.any(r < r0 * (1.0 - 1e-12)):
        raise DomainError("profile evaluated inside its inner radius")
    q = (r / r0) ** (2 * n - 3)
    b1 = -(1.0 + q) ** -0.5
    b2 = (n - 1.5) * (1.0 / r0) * (r / r0) ** (2 * n - 4) * (1.0 + q) ** -1.5
    return b1, b2, q / (1.0 + q)


def supersolution_height(n: int, r0: float, r: float) -> float:
    """Height b(r) = -int_r^inf b'(s) ds by the exp-sinh rule.

    With s = r + r0 exp((pi/2) sinh t), the trapezoid rule at step 1/32 on
    t in [-4.6, 4.6] integrates |b'(s)| ds/dt; the same rule at step 1/16
    (every other node) must agree to 1e-10 max(1, b), else QuadratureError.
    """
    if n < 3:
        raise DomainError(f"static profile needs n >= 3, got n = {n}")
    if r < r0:
        raise DomainError("height requested inside the inner radius")
    return float(_heights(n, r0, [r])[0])


def _heights(n, r0, radii, step=HEIGHT_STEP):
    """b(r) at each of `radii` (all >= r0) by the exp-sinh rule at `step`.

    The slope magnitude is evaluated as x^{-m/2} (1 + x^{-m})^{-1/2}, with
    x = s/r0 >= 1 and m = 2n - 3: only negative powers of x, so nothing
    overflows and heights far below the rounding unit of 1 keep their
    digits (the form (1 + x^m)^{-1/2} overflows to 0 at large n).
    """
    m = 2 * n - 3
    k = np.arange(-int(HEIGHT_T_MAX / step), int(HEIGHT_T_MAX / step) + 1)
    t = k * step
    e = np.exp(0.5 * np.pi * np.sinh(t))
    jacobian = (0.5 * np.pi * r0) * np.cosh(t) * e   # ds/dt
    x = np.add.outer(np.asarray(radii, dtype=float) / r0, e)
    f = np.power(x, -0.5 * m, out=x)                             # x^{-m/2}
    q = np.multiply(f, f)                                        # x^{-m}
    q += 1.0
    f /= np.sqrt(q, out=q)
    f *= jacobian
    fine = step * f.sum(axis=1)
    coarse = 2.0 * step * f[:, k % 2 == 0].sum(axis=1)
    gap = float(np.max(np.abs(fine - coarse)))
    bound = HEIGHT_TOL * max(1.0, float(fine.max()))
    if gap > bound:
        raise QuadratureError(
            f"height rule error estimate {gap:g} > {bound:g}")
    return fine


def supersolution_tail_coefficient(n: int, r0: float) -> float:
    """Leading tail coefficient: b(r) ~ coeff * r^{-(n - 5/2)} as r -> inf."""
    return r0 ** (n - 1.5) / (n - 2.5)


# ---------------------------------------------------------------------------
# tabulated static profile with offset and interior cap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarrierProfile:
    """Tabulated static upper profile b_eps = b + eps, capped inside r0."""

    n: int
    r0: float
    eps: float
    cap: float
    r_grid: np.ndarray
    b_values: np.ndarray        # b(r) + eps on r_grid
    tail_coeff: float

    def value(self, r):
        """Evaluate b_eps(r): cap inside r0, tabulated values interpolated in
        log-log, closed-form power tail beyond the grid."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        inside = r < self.r0
        out[inside] = self.cap
        beyond = r > self.r_grid[-1]
        out[beyond] = self.eps + self.tail_coeff * r[beyond] ** -(self.n - 2.5)
        mid = ~inside & ~beyond
        if np.any(mid):
            # heights below the rounding unit of eps are 0 in b_values - eps:
            # log gives -inf there and exp 0, so b_eps = eps, their limit
            with np.errstate(divide="ignore"):
                logb = np.interp(np.log(r[mid]), np.log(self.r_grid),
                                 np.log(self.b_values - self.eps))
            out[mid] = self.eps + np.exp(logb)
        return float(out[0]) if scalar else out

    def derivs(self, r):
        """Closed-form (b', b'', 1 - b'^2) on r >= r0 (offset-independent)."""
        return supersolution_profile_derivs(self.n, self.r0, r)


def curved_profile_speed(metric, profile_n, r0, radii):
    """Flow speed of the static profile under `metric`, cancellation-free."""
    radii = np.asarray(radii, dtype=float)
    b1, b2, q = supersolution_profile_derivs(profile_n, r0, radii)
    w, fprime = radial_factors(metric, radii)
    return radial_flow_rhs(profile_n, radii, b1, b2, w, fprime,
                           one_minus_slope_sq=q)


def build_outer_barrier(n: int, r1_min: float, h: float, eps: float,
                        metric: RadialMetric | None = None) -> BarrierProfile:
    """Search an inner radius r0 >= r1_min whose profile clears height h.

    Doubling search: accept the first r0 with b(r0) >= h + eps whose flow
    speed under `metric` is <= 0 on a log-spaced certificate grid spanning
    [r0, 1e4 r0].  With a flat (or omitted) metric the speed is exactly
    (1/2) b'/r < 0 and only the height condition is active.
    """
    if h <= 0:
        raise DomainError(f"cap height must be > 0, got {h}")
    if eps < 0:
        raise DomainError(f"offset must be >= 0, got {eps}")
    if n < 3:
        raise DomainError(f"static profile needs n >= 3, got n = {n}")
    curved = metric is not None and metric.a != 0.0
    r0 = float(r1_min)
    worst = np.inf
    for _ in range(MAX_DOUBLINGS + 1):
        try:  # for n >= 3, r0^(n - 3/2) overflows before any height does
            tail_coeff = supersolution_tail_coefficient(n, r0)
        except OverflowError:
            raise BarrierConstructionError(
                f"inner radius r0 = {r0:g} too large: the tail coefficient "
                f"r0^(n - 3/2) overflows") from None
        height_ok = supersolution_height(n, r0, r0) >= h + eps
        if curved:
            radii = np.geomspace(r0, PROFILE_GRID_SPAN * r0, CERTIFICATE_POINTS)
            worst = float(np.max(curved_profile_speed(metric, n, r0, radii)))
            sign_ok = worst <= 0.0
        else:
            sign_ok = True
        if height_ok and sign_ok:
            r_grid = np.geomspace(r0, PROFILE_GRID_SPAN * r0,
                                  PROFILE_GRID_POINTS)
            return BarrierProfile(n=n, r0=r0, eps=eps, cap=h, r_grid=r_grid,
                                  b_values=_heights(n, r0, r_grid) + eps,
                                  tail_coeff=tail_coeff)
        r0 *= 2.0
    raise BarrierConstructionError(
        f"no inner radius in [{r1_min:g}, {r0 / 2:g}] certified for the "
        f"height h + eps = {h + eps:g}; worst curved speed {worst:.3g}")


def verify_static_supersolution(metric: RadialMetric, profile: BarrierProfile,
                                sample_radii) -> list:
    """Per-radius certificate rows for a tabulated profile.

    Each row dict carries the radius, the flat flow speed, its deviation
    from the exact identity (1/2) b'/r, the speed under `metric`, and a sign
    flag `pass` (curved speed <= 0).  Failures are rows, not exceptions.
    """
    sample_radii = np.asarray(sample_radii, dtype=float)
    if np.any(sample_radii < profile.r0 * (1.0 - 1e-12)):
        raise DomainError("sample radii must be >= the profile's inner radius")
    b1 = profile.derivs(sample_radii)[0]
    flat_vals = curved_profile_speed(euclidean_metric(profile.n), profile.n,
                                     profile.r0, sample_radii)
    deviations = np.abs(flat_vals - 0.5 * b1 / sample_radii)
    curved_vals = curved_profile_speed(metric, profile.n, profile.r0,
                                       sample_radii)
    return [{"radius": r, "flat_value": fv, "identity_deviation": dev,
             "curved_value": cv, "pass": cv <= 0.0}
            for r, fv, dev, cv in zip(sample_radii.tolist(), flat_vals.tolist(),
                                      deviations.tolist(),
                                      curved_vals.tolist())]


# ---------------------------------------------------------------------------
# translating profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranslatingBarrier:
    """Expanding-cone profile sqrt(2n(t - t0) + |x - x0|^2) + alpha t.

    Lives on the closed ball of radius rho about x0 for t in [0, -t0], where
    rho = sqrt(((2 - mu)/mu) 4n (-t0)) and mu in (0, 1) is the slope margin.
    """

    n: int
    x0: np.ndarray
    t0: float
    alpha: float
    mu: float
    rho: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.x0.shape != (self.n,):
            raise ValueError(f"x0 has shape {self.x0.shape}, expected ({self.n},)")
        if self.t0 >= -1.0:
            raise ValueError(f"backward offset t0 must be < -1, got {self.t0}")
        if self.alpha < 0:
            raise ValueError(f"drift alpha must be >= 0, got {self.alpha}")
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"margin mu must be in (0, 1), got {self.mu}")
        rho = np.sqrt((2.0 - self.mu) / self.mu * 4.0 * self.n * (-self.t0))
        object.__setattr__(self, "rho", float(rho))


def translating_barrier_eval(tb: TranslatingBarrier, x, t: float):
    """(value, time derivative, gradient, Hessian) of the translating profile.

    Only defined for |x - x0| <= rho and t in [0, -t0].
    """
    x = np.asarray(x, dtype=float)
    d = x - tb.x0
    dist = float(np.linalg.norm(d))
    if dist > tb.rho * (1.0 + 1e-12):
        raise DomainError(f"|x - x0| = {dist:g} outside the ball of radius {tb.rho:g}")
    if not -1e-12 <= t <= -tb.t0 + 1e-12:
        raise DomainError(f"t = {t:g} outside the window [0, {-tb.t0:g}]")
    s = 2.0 * tb.n * (t - tb.t0) + dist * dist
    root = np.sqrt(s)
    value = root + tb.alpha * t
    dt_value = tb.n / root + tb.alpha
    grad = d / root
    hess = (np.eye(tb.n) - np.outer(d, d) / s) / root
    return value, dt_value, grad, hess


def translating_barrier_certificate(tb: TranslatingBarrier) -> dict:
    """Sampled inequality certificate for the translating profile, as the
    dict summary.json writes: `rho`, the least slope complement and
    boundary slope with their bounds mu/4 and sqrt(1 - mu/2), and `pass`.

    By rotational symmetry about x0 the extrema live on a (radius, time)
    rectangle, sampled at 101 radii by 51 times: 1 - |grad|^2 =
    2n(t - t0) / s is smallest at t = 0 on the boundary sphere, the
    boundary radial slope rho / sqrt(s) at t = -t0.
    """
    radii = np.linspace(0.0, tb.rho, 101)
    times = np.linspace(0.0, -tb.t0, 51)
    rr, tt = np.meshgrid(radii, times, indexing="ij")
    s = 2.0 * tb.n * (tt - tb.t0) + rr * rr
    complement = 2.0 * tb.n * (tt - tb.t0) / s
    min_comp = float(complement.min())
    s_boundary = 2.0 * tb.n * (times - tb.t0) + tb.rho ** 2
    min_slope = float(np.min(tb.rho / np.sqrt(s_boundary)))
    grad_bound = tb.mu / 4.0
    slope_bound = float(np.sqrt(1.0 - tb.mu / 2.0))
    return {"rho": tb.rho,
            "min_gradient_complement": min_comp, "gradient_bound": grad_bound,
            "min_boundary_slope": min_slope,
            "boundary_slope_bound": slope_bound,
            "pass": (min_comp >= grad_bound - EQUALITY_SLACK
                     and min_slope >= slope_bound - EQUALITY_SLACK)}
