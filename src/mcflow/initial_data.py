"""Blending arbitrary initial data into flat zero data across an annulus.

Given (sigma, u0) and radii R1 < R2, the blend keeps (sigma, u0) inside
radius R1, is exactly (delta, 0) outside R2, and preserves the spacelikeness
margin throughout.  The annulus is split into thirds S1 < S2 < S3 < S4:
on the first third the metric ramps from sigma to lam * sigma, on the middle
third u is damped to zero while the stretched metric absorbs the cutoff
gradients, and on the last third the metric ramps down to delta.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import Field, gradient
from .geometry import DomainError, RadialMetric

#: Multiplier on the computed metric stretch, absorbing discretisation error.
LAMBDA_SAFETY = 1.05


class InterpolationError(RuntimeError):
    """The blended data failed the discrete spacelikeness re-check."""


def smooth_cutoff(s_lo: float, s_hi: float, x):
    """Quintic smoothstep: 1 for x <= s_lo, 0 for x >= s_hi, C^2 monotone.

    The derivative is bounded by 1.875 / (s_hi - s_lo) < 2 / (s_hi - s_lo).
    """
    if s_lo >= s_hi:
        raise DomainError(f"cutoff needs s_lo < s_hi, got [{s_lo}, {s_hi}]")
    x = np.asarray(x, dtype=float)
    s = np.clip((x - s_lo) / (s_hi - s_lo), 0.0, 1.0)
    return 1.0 - s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)


def smooth_cutoff_deriv(s_lo: float, s_hi: float, x):
    """d/dx of `smooth_cutoff` (nonpositive)."""
    if s_lo >= s_hi:
        raise DomainError(f"cutoff needs s_lo < s_hi, got [{s_lo}, {s_hi}]")
    x = np.asarray(x, dtype=float)
    s = np.clip((x - s_lo) / (s_hi - s_lo), 0.0, 1.0)
    return -30.0 * s * s * (1.0 - s) ** 2 / (s_hi - s_lo)


@dataclass(frozen=True)
class BlendedRadialMetric:
    """Radial conformal metric sigma_tilde of the blend.

    Conformal to delta with factor
        W^2 = psi3 * (psi1 + (1 - psi1) lam) * w^2 + (1 - psi3),
    so W = w inside S1 (psi1 = psi3 = 1) and W = 1 outside S4 (psi3 = 0).
    Exposes the same (n, w, dw, r_min) surface as RadialMetric, so solvers
    and norms take it unchanged.
    """

    base: RadialMetric
    lam: float
    s1: float
    s2: float
    s3: float
    s4: float

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def a(self) -> float:
        return self.base.a

    @property
    def r_min(self) -> float:
        return self.base.r_min

    def _pieces(self, r):
        psi1 = smooth_cutoff(self.s1, self.s2, r)
        psi3 = smooth_cutoff(self.s3, self.s4, r)
        stretch = psi1 + (1.0 - psi1) * self.lam
        return psi1, psi3, stretch

    def w(self, r):
        r = np.asarray(r, dtype=float)
        _, psi3, stretch = self._pieces(r)
        wb = self.base.w(r)
        return np.sqrt(psi3 * stretch * wb * wb + (1.0 - psi3))

    def dw(self, r):
        r = np.asarray(r, dtype=float)
        psi1, psi3, stretch = self._pieces(r)
        dpsi1 = smooth_cutoff_deriv(self.s1, self.s2, r)
        dpsi3 = smooth_cutoff_deriv(self.s3, self.s4, r)
        wb = self.base.w(r)
        dwb = self.base.dw(r)
        wsq = psi3 * stretch * wb * wb + (1.0 - psi3)
        dwsq = (dpsi3 * (stretch * wb * wb - 1.0)
                + psi3 * (dpsi1 * (1.0 - self.lam) * wb * wb
                          + 2.0 * stretch * wb * dwb))
        return dwsq / (2.0 * np.sqrt(wsq))


def lipschitz_constant(metric, field: Field) -> float:
    """sup over nodes of |u'| / w(r), the discrete slope in the metric."""
    r = field.radii()
    r_min = getattr(metric, "r_min", 0.0)
    if r_min > 0.0 and np.any(r < r_min):
        raise DomainError("grid reaches below the metric's r_min")
    return float(np.max(np.abs(gradient(field)) / metric.w(r)))


def decay_radius(field: Field, eps: float) -> float:
    """Smallest grid radius beyond which |u| <= eps everywhere outward."""
    if eps <= 0:
        raise DomainError(f"decay threshold must be > 0, got {eps}")
    r = field.radii()
    violating = r[np.abs(field.values) > eps]
    if violating.size == 0:
        return float(r.min())
    outer = r[r > violating.max()]
    if outer.size == 0:
        raise ValueError(f"|u| > {eps:g} at the outermost radius {r.max():g}")
    return float(outer.min())


def interpolate_initial_data(metric: RadialMetric, u0: Field, R1: float,
                             R2: float, eps: float) -> tuple:
    """Blend (sigma, u0) to (delta, 0) across [R1, R2], keeping margin eps:
    the blended metric sigma_tilde (a BlendedRadialMetric, which holds lam
    and the annulus thirds s1..s4) and the damped data u_tilde.

    The stretch is lam = max(1, 2 sup(u0^2 |psi2'|^2_sigma
    + psi2^2 |u0'|^2_sigma) / (1 - eps)^2) * 1.05, the sup running over the
    middle third where the damping acts.  Raises InterpolationError if the
    blended data misses the margin at any node.
    """
    if not R2 > R1:
        raise DomainError(f"need R2 > R1, got R1={R1}, R2={R2}")
    if R1 <= getattr(metric, "r_min", 0.0):
        raise DomainError("R1 must lie in the asymptotic chart (R1 > r_min)")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"margin eps must be in (0, 1), got {eps}")
    s1, s4 = float(R1), float(R2)
    s2 = s1 + (s4 - s1) / 3.0
    s3 = s1 + 2.0 * (s4 - s1) / 3.0

    r = u0.radii()
    w = metric.w(r)
    psi2 = smooth_cutoff(s2, s3, r)
    dpsi2 = smooth_cutoff_deriv(s2, s3, r)
    du0 = gradient(u0)

    mid = (r >= s2) & (r <= s3)
    budget = (u0.values ** 2 * (dpsi2 / w) ** 2 + psi2 ** 2 * (du0 / w) ** 2)
    sup_mid = float(budget[mid].max()) if np.any(mid) else 0.0
    lam = max(1.0, 2.0 * sup_mid / (1.0 - eps) ** 2) * LAMBDA_SAFETY

    sigma_tilde = BlendedRadialMetric(base=metric, lam=lam,
                                      s1=s1, s2=s2, s3=s3, s4=s4)
    u_tilde = replace(u0, values=psi2 * u0.values)

    slopes = np.abs(gradient(u_tilde)) / sigma_tilde.w(r)
    worst = int(np.argmax(slopes))
    # the factor 1 + 1e-12 absorbs sqrt(w^2) rounding for data exactly at
    # the margin; genuine violations are far above it
    if slopes[worst] > (1.0 - eps) * (1.0 + 1e-12):
        raise InterpolationError(
            f"blended slope {slopes[worst]:.12g} > 1 - eps = {1 - eps:.12g} "
            f"at node {worst} (r = {r[worst]:g})")
    return sigma_tilde, u_tilde
