"""Monitored quantities: norms, slope margins, monotone monitors, rate fits."""

from __future__ import annotations

import numpy as np

from .fields import Field, gradient_into
from .geometry import TOL_SPACELIKE, SpacelikeViolationError


class InsufficientDataError(ValueError):
    """Too few usable records for the requested fit."""


#: The recorded quantities, in diagnostics.csv's column order; sup_phi and
#: barrier_margin only where a run configures the monitor or the barrier.
COLUMNS = ("t", "sup_u", "grad_max", "l2", "h1_grad", "sup_phi",
           "barrier_margin")


#: Values in each row buffer of a record batch: a batch holds at most
#: `batch_rows(nodes)` rows, 33 at 991 nodes, which a run collects across
#: steps.
BATCH_VALUES = 2 ** 15
#: Grids of more nodes record one row at a time.  There a row's arithmetic
#: dwarfs the per-call cost a batch saves, while the batch's six row
#: buffers push the step's own rows out of the L2 cache: at 8,001 nodes,
#: 4-row batches made a line_decay run 8% slower on a 2-core Intel Xeon
#: with 2 MB of L2.
BATCH_MAX_NODES = 2 ** 12


def batch_rows(nodes: int) -> int:
    """Most rows of a record batch on a grid of `nodes` nodes: a run
    reduces its records this many at a time, whichever steps they come
    from, and the rest when it stops."""
    return max(1, BATCH_VALUES // nodes) if nodes <= BATCH_MAX_NODES else 1


class RecordPlan:
    """The per-grid part of the diagnostics records, formed once per run.

    Holds the `columns` it records (of COLUMNS), w(r) at the nodes, the
    quadrature weights `quad` (the trapezoid rule's h (1/2, 1, ..., 1, 1/2)
    times the volume weight r^{n-1} w^n on a radial grid), the tilt
    monitor's validated (lambda, mu), the barrier's b_eps on the nodes with
    r >= r0 (0 on the others, which the margin never reads) with their mask,
    and the scratch of a batch of `rows` value rows.  A batch forms u' once,
    into a buffer, and p = |u'|/w once: p gives max |u'|/w, and its square
    the gradient-norm integrand and the tilt factor.  Every reduction runs
    along the rows (`axis=1`, or einsum's 'ij,j->i', never a BLAS product),
    so each row's numbers are those of its own values, whichever batch
    holds it.  A w that is 1 at every node is dropped: division by 1 is
    exact.
    """

    def __init__(self, field: Field, metric, phi_params=None, profile=None):
        r = field.radii()
        self.h, self.axis = field.h, field.axis
        w = metric.w(r)
        self.quad = np.full(r.size, field.h)
        self.quad[[0, -1]] *= 0.5
        if field.kind == "radial":
            self.quad *= r ** (metric.n - 1) * w ** metric.n
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
            # b_eps on the nodes outside, 0 (never read) on those inside
            self.b_eps = np.zeros_like(r)
            self.b_eps[outside] = profile.value(r[outside])
            first = int(outside.argmax())
            # on a radial grid the nodes outside are a suffix: slice them
            self.outside = (slice(first, None) if outside[first:].all()
                            else outside)
        self.columns = (COLUMNS[:5] + ("sup_phi",) * (self.phi is not None)
                        + ("barrier_margin",) * (self.b_eps is not None))
        self.rows = batch_rows(r.size)
        self.du, self.p2, self.work = np.empty((3, self.rows, r.size))

    def slopes(self, u) -> np.ndarray:
        """Form u' and p^2 = (|u'|/w)^2 of the value rows `u`; return max
        |u'|/w per row.  (u'/w)^2 is p^2: the quotient's sign does not
        touch its bits."""
        du = gradient_into(u, self.h, self.axis, self.du[:len(u)])
        p = np.abs(du, out=self.p2[:len(u)])
        if self.w is not None:
            p /= self.w
        grad_max = p.max(axis=1)
        p *= p
        return grad_max

    def norms(self, u) -> tuple:
        """(sup|u|, L2 norm, L2 norm of the gradient) per row of the value
        rows `u`; needs `slopes(u)`.  sup|u| is max(max u, -min u), +0.0
        for a row of zeros as |u| gives; each norm is the square root of
        one weighted sum, with the weights `quad`."""
        sup_u = np.maximum(u.max(axis=1), -u.min(axis=1))
        sup_u += 0.0  # -0.0, from a row of signed zeros, to +0.0
        square = np.multiply(u, u, out=self.work[:len(u)])
        l2 = np.sqrt(np.einsum("ij,j->i", square, self.quad))
        h1 = np.sqrt(np.einsum("ij,j->i", self.p2[:len(u)], self.quad))
        return sup_u, l2, h1

    def tilt(self, u) -> np.ndarray:
        """The tilt monitor sup v exp(mu e^{lambda u}), v = 1/sqrt(1 - p^2),
        per row of the value rows `u`; needs `slopes(u)`.  Raises if any
        row fails the monitor's hypotheses (min u >= 0 up to rounding when
        lambda > 0, strict spacelikeness) or its supremum overflows."""
        lambda_phi, mu_phi = self.phi
        du, p2, work = self.du[:len(u)], self.p2[:len(u)], self.work[:len(u)]
        if lambda_phi > 0 and float(u.min()) < -1e-9:
            raise ValueError("monitor needs min u >= 0; shift the data first")
        if (p2 >= 1.0 - TOL_SPACELIKE).any():
            raise SpacelikeViolationError("field is not strictly spacelike")
        root = np.sqrt(np.subtract(1.0, p2, out=du), out=du)  # 1/v
        with np.errstate(over="ignore"):  # an overflow raises, below
            e = np.exp(np.multiply(u, lambda_phi, out=work), out=work)
            e = np.exp(np.multiply(e, mu_phi, out=e), out=e)
            sup = np.divide(e, root, out=e).max(axis=1)
        if np.isinf(sup).any():  # a NaN state keeps its NaN
            raise ValueError(f"tilt monitor overflows: sup v exp(mu e^(lambda"
                             f" u)) is inf with lambda = {lambda_phi:.6g}, "
                             f"mu = {mu_phi:.6g}")
        return sup

    def margin(self, u) -> np.ndarray:
        """min over nodes with r >= r0 of b_eps(r) - |u| (positive:
        dominated) per row of the value rows `u`."""
        gap = np.abs(u, out=self.work[:len(u)])
        return np.subtract(self.b_eps, gap, out=gap)[:, self.outside].min(
            axis=1)


def decay_exponent_fit(records, window: tuple) -> dict:
    """Least-squares line through (log t, log sup_u) of the `records`
    inside the window: its `exponent`, `intercept` and `r_squared`, and the
    `window` [t_lo, t_hi], as summary.json writes them."""
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError(f"window must have t_lo < t_hi, got {window}")
    t, sup_u = records["t"], records["sup_u"]
    inside = (t_lo <= t) & (t <= t_hi) & (sup_u > 0.0)
    count = int(inside.sum())
    if count < 10:
        raise InsufficientDataError(
            f"need >= 10 records with sup_u > 0 in {window}, have {count}")
    logt = np.log(t[inside])
    logs = np.log(sup_u[inside])
    slope, intercept = np.polyfit(logt, logs, 1)
    fitted = slope * logt + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return {"exponent": float(slope), "intercept": float(intercept),
            "r_squared": r2, "window": [float(t_lo), float(t_hi)]}


def max_boundary_slope(trajectory) -> float:
    """Largest outer-boundary |u'| over the snapshots, one-sided second
    order (the ball problem's metric is flat there); NaN if any is."""
    u = trajectory.snapshots
    return float(np.max(np.abs(3.0 * u[:, -1] - 4.0 * u[:, -2] + u[:, -3])
                        / (2.0 * trajectory.field.h)))


#: Largest rise of sup|u| between records that `max_principle_check` passes.
MAX_PRINCIPLE_SLACK = 1e-9
#: Relative slack of the integral bound that `h1_decay_check` passes.
H1_BOUND_REL_SLACK = 1e-3


def rise_check(name: str, values, slack) -> dict:
    """The named check that `values`, one per record, never rise by more
    than `slack` (a number, or one per rise) between records; `worst` is
    the largest rise (0.0 with one record, NaN if any value is NaN)."""
    rises = np.diff(np.asarray(values, dtype=float))
    return {"name": name, "pass": bool(np.all(rises <= slack)),
            "worst": float(rises.max()) if rises.size else 0.0}


def max_principle_check(records) -> dict:
    """Pass iff sup_u rises by at most MAX_PRINCIPLE_SLACK between records."""
    return rise_check("max_principle", records["sup_u"], MAX_PRINCIPLE_SLACK)


def h1_decay_check(records) -> dict:
    """Pass iff l2^2 + t * h1_grad^2 <= l2(0)^2 (1 + H1_BOUND_REL_SLACK) at
    every record.

    The right-hand side is the integral bound the cutoff argument yields in
    the limit of wide cutoffs; see the notes on the stated versus derived
    constant in the README.  `worst` is the largest ratio of the two sides
    (the largest left-hand side when the data are zero).
    """
    if not len(records["t"]):
        raise ValueError("no records")
    # squares by Python's ** (libm pow), which rounds some of them apart
    # from numpy's x * x: the written `worst` keeps its bits
    t, l2, h1 = (records[name].tolist() for name in ("t", "l2", "h1_grad"))
    bound = l2[0] ** 2 * (1.0 + H1_BOUND_REL_SLACK)
    lhs = np.array([a ** 2 + s * b ** 2 for s, a, b in zip(t, l2, h1)])
    if bound == 0.0:
        ok, worst = np.all(lhs == 0.0), lhs.max()
    else:
        ok, worst = np.all(lhs <= bound), (lhs / bound).max()
    return {"name": "h1_integral_bound", "pass": bool(ok),
            "worst": float(worst)}


def make_record(plan: RecordPlan, rows: np.ndarray, times) -> np.ndarray:
    """The records of the value rows `rows` (one per time in `times`, at
    most `plan.rows` of them) on the plan's grid, as a block: a row per
    time, a column per name of `plan.columns`.  Raises, as `tilt` does,
    when any row fails the monitor's hypotheses."""
    grad_max = plan.slopes(rows)
    sup_u, l2, h1 = plan.norms(rows)
    cols = [times, sup_u, grad_max, l2, h1]
    if plan.phi is not None:
        cols.append(plan.tilt(rows))
    if plan.b_eps is not None:
        cols.append(plan.margin(rows))
    return np.column_stack(cols)
