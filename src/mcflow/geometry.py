"""Asymptotically flat radial metrics and the graphical flow operator.

The spatial background is R^n with a rotationally symmetric conformal metric

    sigma_ij(x) = w(r)^2 delta_ij,     w(r) = (1 + a r^{-tau})^power,

which approaches the Euclidean metric at rate a r^{-tau}.  A
spacelike graph over this background is described pointwise by its gradient
(and Hessian), and the flow speed is the trace of the graph Hessian against
the inverse induced metric

    g^{ij} = sigma^{ij} + sigma^{ik} sigma^{jl} u_k u_l / (1 - sigma^{kl} u_k u_l).

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

#: Gradients with |grad u|^2_sigma >= 1 - TOL_SPACELIKE are rejected.
TOL_SPACELIKE = 1e-10

#: Non-Euclidean metrics are never evaluated below this radius.
R_MIN = 1e-6

#: Central-difference spacing of the Christoffel symbols in `ricci_eval`.
RICCI_SPACING = 1e-4


class DomainError(ValueError):
    """Input outside the metric's validity domain (r < r_min, non-finite, ...)."""


class SpacelikeViolationError(ValueError):
    """A gradient failed the strict spacelikeness requirement |grad u|_sigma < 1."""


class NonFiniteError(ValueError):
    """A state to be evolved holds a NaN or an infinity."""


@dataclass(frozen=True)
class RadialMetric:
    """Rotationally symmetric conformally flat metric w(r)^2 * delta.

    family 'euclidean' forces a == 0 (w identically 1, all Christoffel symbols
    vanish).  family 'conformal_power' uses w(r) = (1 + a r^{-tau})^power; the
    extra exponent generalises the basic a, tau family enough to host e.g. the
    time-symmetric Schwarzschild slice (power=2, tau=1, a=m/2) used as a
    curvature test case.
    """

    n: int
    family: str = "euclidean"
    a: float = 0.0
    tau: float = 1.0
    power: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.family not in ("euclidean", "conformal_power"):
            raise ValueError(f"unknown metric family {self.family!r}")
        if self.a < 0:
            raise ValueError(f"amplitude a must be >= 0, got {self.a}")
        if self.tau <= 0:
            raise ValueError(f"decay exponent tau must be > 0, got {self.tau}")
        if (self.family == "euclidean") != (self.a == 0.0):
            raise ValueError("family 'euclidean' if and only if a == 0")

    @property
    def r_min(self) -> float:
        return 0.0 if self.a == 0.0 else R_MIN

    def w(self, r):
        """Conformal factor w(r); accepts scalars or arrays."""
        r = np.asarray(r, dtype=float)
        if self.a == 0.0:
            return np.ones_like(r)
        return (1.0 + self.a * r ** -self.tau) ** self.power

    def dw(self, r):
        """dw/dr; accepts scalars or arrays."""
        r = np.asarray(r, dtype=float)
        if self.a == 0.0:
            return np.zeros_like(r)
        base = 1.0 + self.a * r ** -self.tau
        return self.power * base ** (self.power - 1.0) * (
            -self.a * self.tau * r ** (-self.tau - 1.0))


def euclidean_metric(n: int) -> RadialMetric:
    return RadialMetric(n=n, family="euclidean")


def conformal_metric(n: int, a: float, tau: float, power: float = 1.0) -> RadialMetric:
    return RadialMetric(n=n, family="conformal_power", a=a, tau=tau, power=power)


@dataclass(frozen=True)
class GraphQuantities:
    """Pointwise quantities of a spacelike graph: tilt v, induced metric and
    its inverse."""

    v: float
    g: np.ndarray
    g_inv: np.ndarray


def _check_point(metric, x) -> tuple[np.ndarray, float]:
    x = np.asarray(x, dtype=float)
    if x.shape != (metric.n,):
        raise DomainError(f"point has shape {x.shape}, expected ({metric.n},)")
    r = math.sqrt(x.dot(x))  # np.linalg.norm's own arithmetic, less overhead
    # a NaN or infinity in x makes r non-finite; a finite r rules both out
    if not math.isfinite(r) and not np.isfinite(x).all():
        raise DomainError("non-finite point coordinates")
    if metric.a != 0.0 and r < R_MIN:
        raise DomainError(f"|x| = {r:g} below r_min = {R_MIN:g} for a non-Euclidean metric")
    return x, r


@functools.lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, shared and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _sigma_at(metric, r: float, n: int):
    w2 = float(metric.w(r)) ** 2
    eye = _identity(n)
    return w2 * eye, eye / w2


def metric_eval(metric: RadialMetric, x):
    """Evaluate (sigma, sigma^{-1}, Christoffel) at a point.

    For the conformal family sigma = e^{2f} delta with f = ln w the
    Christoffel symbols are Gamma^k_ij = d^k_i f_j + d^k_j f_i - d_ij f^k.

    Returns:
        (sigma, sigma_inv, gamma) with sigma, sigma_inv of shape (n, n) and
        gamma of shape (n, n, n) indexed as gamma[k, i, j] = Gamma^k_ij.
    """
    x, r = _check_point(metric, x)
    n = metric.n
    sigma, sigma_inv = _sigma_at(metric, r, n)
    gamma = np.zeros((n, n, n))
    if metric.a != 0.0:
        fp = float(metric.dw(r)) / float(metric.w(r))
        fvec = fp * x / r
        eye = _identity(n)
        gamma = (eye[:, :, None] * fvec[None, None, :]
                 + eye[:, None, :] * fvec[None, :, None]
                 - eye[None, :, :] * fvec[:, None, None])
    return sigma, sigma_inv, gamma


def ricci_eval(metric: RadialMetric, x) -> np.ndarray:
    """Ricci tensor of sigma at a point, by central differencing of
    Christoffels at spacing RICCI_SPACING.

    Ric_jk = d_i Gamma^i_jk - d_j Gamma^i_ik
             + Gamma^i_ip Gamma^p_jk - Gamma^i_jp Gamma^p_ik.

    One code path for any conformal factor; validated against the closed
    conformal form and a scalar-flat test slice in the test suite.
    """
    x, _ = _check_point(metric, x)
    n = metric.n
    if metric.a == 0.0:
        return np.zeros((n, n))
    dgamma = np.empty((n, n, n, n))  # dgamma[l] = d_l Gamma
    for l in range(n):
        e = np.zeros(n)
        e[l] = RICCI_SPACING
        gp = metric_eval(metric, x + e)[2]
        gm = metric_eval(metric, x - e)[2]
        dgamma[l] = (gp - gm) / (2.0 * RICCI_SPACING)
    g0 = metric_eval(metric, x)[2]
    ric = (np.einsum("iijk->jk", dgamma)
           - np.einsum("jiik->jk", dgamma)
           + np.einsum("iip,pjk->jk", g0, g0)
           - np.einsum("ijp,pik->jk", g0, g0))
    return ric


def graph_quantities(metric: RadialMetric, x, grad_u) -> GraphQuantities:
    """Tilt factor, induced metric and inverse of a graph.

    Requires a strictly spacelike gradient, |grad u|^2_sigma < 1 - TOL_SPACELIKE.
    """
    x, r = _check_point(metric, x)
    grad_u = np.asarray(grad_u, dtype=float)
    sigma, sigma_inv = _sigma_at(metric, r, metric.n)
    raised = grad_u @ sigma_inv  # sigma_inv is symmetric
    du2 = float(raised @ grad_u)
    if du2 >= 1.0 - TOL_SPACELIKE:
        raise SpacelikeViolationError(
            f"|grad u|^2_sigma = {du2:.17g} >= 1 - {TOL_SPACELIKE:g}")
    v = 1.0 / math.sqrt(1.0 - du2)
    # a[:, None] * b is np.outer(a, b) without its call overhead
    g = sigma - grad_u[:, None] * grad_u
    g_inv = sigma_inv + raised[:, None] * raised / (1.0 - du2)
    return GraphQuantities(v=v, g=g, g_inv=g_inv)


def mcf_operator_cartesian(metric: RadialMetric, x, grad_u, hess_u) -> float:
    """Flow speed g^{ij}(sigma, grad u) (u_ij - Gamma^k_ij u_k) at a point."""
    x, _ = _check_point(metric, x)
    grad_u = np.asarray(grad_u, dtype=float)
    hess_u = np.asarray(hess_u, dtype=float)
    q = graph_quantities(metric, x, grad_u)
    gamma = metric_eval(metric, x)[2]
    cov_hess = hess_u - np.einsum("kij,k->ij", gamma, grad_u)
    return float(np.sum(q.g_inv * cov_hess))


def radial_factors(metric, r):
    """(w, f') on an array of radii, where f = ln w.

    Solvers precompute these once per grid; `mcf_operator_radial` uses them
    per call.
    """
    r = np.asarray(r, dtype=float)
    w = metric.w(r)
    fprime = metric.dw(r) / w
    return w, fprime


class RadialOperator:
    """The rotationally reduced flow speed on one grid of radii.

    For u = U(r) on the conformal background, with p = (U'/w)^2, the
    operator contracts to

        F = w^{-2} [U'' + (n-1) U'/r + (n-2) f' U'] + w^{-4} U'^2 (U'' - f' U') / (1 - p)
          = w^{-2} [(U'' - f' U') / (1 - p) + (n-1) (1/r + f') U'].

    It is evaluated on scaled inputs s = a U' and q = b U'' (a = b = 1 for
    pointwise callers; a solver passes sums and differences of its forward
    differences, with a = 2h and b = h^2).  With K = a^2 w^2 and the scaled
    complement C = K - s^2 = K (1 - p), the second form times b/a^2 is

        F b/a^2 = (q - g s) / C + k s,
        g = (b/a) f',    k = (b/a^3) w^{-2} (n-1) (1/r + f'),

    and that is what `rhs` returns.  K, g and k are formed once per grid.
    On a flat background (w = 1 and f' = 0 at every radius) K is the scalar
    a^2 and g is None; for n = 1 the drift term vanishes and k is None:
    what is left is the line operator, for which `r` is not used.
    """

    def __init__(self, n, r, w, fprime, a=1.0, b=1.0):
        w = np.asarray(w, dtype=float)
        fprime = np.asarray(fprime, dtype=float)
        flat = bool(np.all(w == 1.0) and np.all(fprime == 0.0))
        self.K = a * a if flat else a * a * (w * w)
        self.inv_K = None if flat else 1.0 / self.K
        self.g = None if flat else (b / a) * fprime
        if n == 1:
            self.k = None
        else:
            drift = (n - 1) * (1.0 / np.asarray(r, dtype=float) + fprime)
            self.k = (b / (a * a * a)) * (drift if flat else drift / (w * w))

    def window(self, stop):
        """This operator on the first `stop` radii: its arrays as views."""
        view = object.__new__(RadialOperator)
        view.__dict__ = {k: v[:stop] if isinstance(v, np.ndarray) else v
                         for k, v in vars(self).items()}
        return view

    def complement(self, s, out):
        """Write C = K - s^2 into `out` and return it."""
        np.multiply(s, s, out=out)
        return np.subtract(self.K, out, out=out)

    def rhs(self, s, q, comp, out, work):
        """Write F b/a^2 into `out` and return it.

        `comp` holds C = K - s^2 > 0; `work` is scratch of `out`'s shape.
        The inputs are not written.
        """
        if self.g is None:
            np.divide(q, comp, out=out)
        else:
            np.multiply(self.g, s, out=out)
            np.subtract(q, out, out=out)
            np.divide(out, comp, out=out)
        if self.k is not None:
            np.multiply(self.k, s, out=work)
            np.add(out, work, out=out)
        return out


def radial_flow_rhs(n, r, du, d2u, w, fprime, one_minus_slope_sq=None):
    """Rotationally reduced flow speed, vectorised over radius arrays.

    Evaluates `RadialOperator` (see there for the formula) with a = b = 1
    on freshly formed factors.  `one_minus_slope_sq` may supply 1 - U'^2 in
    a cancellation-free closed form (profiles with |U'| near 1); the
    complement then enters as C = w^2 - U'^2 = (1 - U'^2) + (w^2 - 1).
    Otherwise C is formed from du.
    """
    op = RadialOperator(n, r, w, fprime)
    shape = np.broadcast_shapes(np.shape(r), np.shape(du), np.shape(d2u),
                                np.shape(w))
    comp = np.empty(shape)
    if one_minus_slope_sq is None:
        op.complement(du, comp)
    else:
        np.add(one_minus_slope_sq, w * w - 1.0, out=comp)
    return op.rhs(du, d2u, comp, np.empty(shape), np.empty(shape))


def mcf_operator_radial(metric, r, du, d2u):
    """Flow speed for a rotationally symmetric graph u = U(r).

    Args:
        metric: object with attributes `n`, `w(r)`, `dw(r)` (RadialMetric or a
            blended metric from the interpolation module).
        r: radius > 0 (scalar or array).
        du, d2u: U'(r), U''(r); a near-null profile's exact 1 - U'^2
            goes to `radial_flow_rhs` instead.

    Agrees with `mcf_operator_cartesian` on the rotationally symmetric
    extension to machine precision.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("radial operator needs r > 0; the r = 0 axis rule "
                          "lives in the solver")
    r_min = getattr(metric, "r_min", 0.0)
    if r_min > 0.0 and np.any(r < r_min):
        raise DomainError(f"radius below r_min = {r_min:g}")
    du = np.asarray(du, dtype=float)
    w, fprime = radial_factors(metric, r)
    if np.any((du / w) ** 2 >= 1.0 - TOL_SPACELIKE):
        raise SpacelikeViolationError("|U'/w|^2 >= 1 - tol in radial operator")
    out = radial_flow_rhs(metric.n, r, du, np.asarray(d2u, dtype=float),
                          w, fprime)
    return float(out) if out.ndim == 0 else out


def ricci_form_bound(metric: RadialMetric, r_lo: float, r_hi: float) -> float:
    """Measured constant C with |Ric_sigma(y, y)| <= C |y|^2_sigma on [r_lo, r_hi].

    The bound is sampled, not proven: 40 log-spaced radii along the first
    axis (rotational symmetry makes the base point direction irrelevant) and
    8 random test directions per radius, from seed 0.  Used to configure the
    tilt monitor on curved runs.
    """
    if metric.a == 0.0:
        return 0.0
    rng = np.random.default_rng(0)
    ratios = []
    for r in np.geomspace(max(r_lo, R_MIN * 10), r_hi, 40):
        x = np.zeros(metric.n)
        x[0] = r
        ric = ricci_eval(metric, x)
        w2 = float(metric.w(r)) ** 2
        for _ in range(8):
            y = rng.normal(size=metric.n)
            ratios.append(abs(y @ ric @ y) / (w2 * (y @ y)))
    return float(np.max(ratios, initial=0.0))  # NaN if any ratio is
