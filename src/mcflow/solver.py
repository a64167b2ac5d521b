"""Time stepping for the graphical flow.

Space: second-order central differences, with the flow speed F from
`geometry.RadialOperator` inside the grid (the line is its flat n = 1
case), the axis rule n * 2 (u_1 - u_0) / h^2 at r = 0, and zero speed at
pinned or frozen ends.  This covers the flat line problem
u_t = u'' / (1 - u'^2), the rotationally symmetric radial problem on
conformal backgrounds, and the zero-boundary problem on balls with blended
initial data.

Time: two second-order schemes under one local error control.  Runs take
Runge-Kutta-Legendre (RKL2) super-steps (Meyer, Balsara & Aslam,
J. Comput. Phys. 257, 2014), and line grids with both ends pinned take
ROS2 W-steps with a sine-transform solve where RKL2 would need many stages
(below).  An RKL2 super-step of size tau uses the fewest s >= 2 stages
that are stable,

    tau <= dt_FE (s^2 + s - 2) / 4,       dt_FE = cfl * h^2 / (2 c),
    a(u') = w^{-2} / (1 - (u'/w)^2),

where dt_FE is the forward-Euler bound at the step's start and c the
stability coefficient: every eigenvalue of the frozen-coefficient operator
lies within 4c/h^2 of 0.  On line grids and annuli c = max a, from each
row's Gershgorin disc.  On an axis grid (flat at r = 0) and n <= 3 the
axis row's own disc, reaching 4n/h^2, overstates the spectrum, and
c = max(max a, `axis_coefficient`), which is 3/2 instead of n = 3 on a
resting ball.  For n >= 4 the axis term stays n.  The local error is
estimated as in RKC (Sommeijer, Shampine & Verwer, 1998),

    est = 0.8 (u_n - u_{n+1}) + 0.4 tau (F(u_n) + F(u_{n+1})),

and a step is accepted when max|est| <= TIME_ERROR_KAPPA h^2 sup|u_0|.
That tolerance is per step, and steps grow as its cube root, so the global
time error falls like h^(4/3), not h^2: in the manufactured line run of
tests/test_ros2.py (to t = 20, its space error measured with the
tolerance 10^4 times smaller) the time error is 0.11, 0.19 and 0.31 of the
space error at h = 0.2, 0.1 and 0.05, of opposite sign.  F(u_{n+1}) is
the next step's F(u_n): an accepted step costs s evaluations.  Error
rejections stop at the floor cfl * h^2 / (2 max(c, n)) on axis grids (the
Gershgorin bound with the axis row's own disc; equal to dt_FE for n >= 4)
and at dt_FE elsewhere; a step of the floor's size is accepted whatever
its estimate.
A run's first step is proposed at the floor.  `step_1d` and `step_radial`
take one such step, with no error control.

On a line grid with both ends pinned, a step that RKL2 would take in more
than ROS2_STAGES stages is one ROS2 step instead (Verwer, Spee, Blom &
Hundsdorfer, SIAM J. Sci. Comput. 20, 1999), used as a W-method, which
keeps order 2 whatever matrix stands in W (Steihaug & Wolfbrandt, Math.
Comp. 33, 1979):

    W k1 = F(u_n),   W k2 = F(u_n + tau k1) - 2 k1,
    u_{n+1} = u_n + 1.5 tau k1 + 0.5 tau k2,   W = I - gamma tau c Delta_h,

with c the state's stability coefficient (at least every a_i) and Delta_h
the flat second difference with zero increments at the ends.  Both roots
of gamma^2 - 2 gamma + 1/2 = 0 make ROS2 L-stable; on u' = lambda u its
local error is (gamma - 1/3) (tau lambda)^3 + ..., and ROS2_GAMMA =
1 - 1/sqrt(2) gives 0.040 where Verwer's 1 + 1/sqrt(2) gives 1.373.
Delta_h is diagonal in the DST-I of the interior nodes, and a DST-I on a
grid of N intervals is one real FFT of length N with O(N) work before and
after (`dst`; `numpy.fft`, imported on first use), so a solve is two real
FFTs of length N.  The state u_n + tau k1 passes the stages' check, and
the candidate is formed, cut, checked and judged by the same estimate and
controller as an RKL2 candidate.  A ROS2 step costs two evaluations and
four FFTs, about 10.5 stages of RKL2 on 8,001 nodes, so it pays only where
RKL2 needs more; radial grids and grids with a frozen end keep RKL2.

Dense output: only t_end ends a step (or a halt, or the step cap).  A
record or snapshot at a time strictly inside an accepted step
(t_n, t_n + tau) is the cubic Hermite interpolant through u_n, F(u_n),
u_{n+1}, F(u_{n+1}) (Hairer, Norsett & Wanner, Solving ODEs I, II.6),
which the step already holds: at theta = (t - t_n) / tau, with
D = u_{n+1} - u_n,

    H = u_n + theta D + theta (1 - theta) [(1 - theta) (tau F(u_n) - D)
                                           - theta (tau F(u_{n+1}) - D)].

Its error is O(tau^4) against the step's O(tau^3); measured from a fine
reference, 0.04-0.28 of the step tolerance at theta = 1/4, 1/2, 3/4, where
straight-line interpolation is 5-16 times the tolerance.  One evaluation
of the interpolant writes a row per output time inside the step (each row
with its own weights, so it equals the one-theta interpolant bit for bit).
A snapshot and a record at one time share that row; a snapshot that is
not a record is checked against the slope bound below on its own.
Records at a step's end, at t = 0 and of a halted run come from the
state itself, with the engine's differences.  Record rows wait in the
engine's dense scratch, across steps, until it holds
`diagnostics.batch_rows(nodes)` of them, the run ends or a halt is
handled: then one check bounds the rows' slopes and one
`diagnostics.make_record` call reduces every row along its own axis.
Every recorded state is checked against the solver's slope bound
|u_{i+1} - u_i| / (h w) < 1; a failing batch names its first failing row,
as a batch of that row alone would, and a failing record that waits when
a later step halts raises as a record failure.

Every evaluation is one call of the engine's evaluator (`_evaluator`),
made once per window: the state's at a run's start, each RKL2 stage's,
ROS2's at u_n + tau k1 and the candidate's.  It works in place on the
forward differences d: the operator takes s = d_i + d_{i-1} = 2h u' and
q = d_i - d_{i-1} = h^2 u'' as they are (a = 2h, b = h^2 in
`RadialOperator`), so the engine's speed rows hold F b/a^2 = F/4, and the
factor 4 sits in the scalar weights of the stages, the error estimate and
the interpolant.  Strict spacelikeness 1 - (u'/w)^2 > TOL_SPACELIKE is
checked as min(C)/K on flat grids and min(C/K) on curved ones, with
C = 4h^2 w^2 - s^2 and K = 4h^2 w^2, and the principal coefficient is
4h^2 / min(C).
Each stage's increment D_j is one matrix-vector product of four weights
with the four rows f, f_cand, stage and stage_prev, which form one
C-contiguous block.  Slopes are never clamped: a stage or candidate that
breaks strict spacelikeness is retried on a halved step, at most
MAX_DT_HALVINGS times, and then halts; a NaN or infinity halts.

The cut: every candidate value with |value| < UNDERFLOW_CUT sup|u_0| is set
to +0.0, on every grid, before the ends are held.  2^-511 is the square
root of the smallest normal double, so the state's squares do not
underflow and its tail does not turn subnormal, where each operation costs
several times as much (Goldberg, ACM Comput. Surv. 23, 1991).  The
candidate's differences, check and speed are formed from the cut values,
so f = F(u) still holds bit for bit.  NaN and infinities are never cut;
frozen ends keep their bits; a cut that scales with sup|u_0| leaves tiny
data alone, and zero data (a cut of 0) are not touched.
Where the outer end is pinned (balls, annuli), a step of s stages runs on
the window [0, m): the last node where u or f is not +0.0, plus s + 3, up
to a multiple of 64 (np.dot over block[:, :m] is the whole product's head
only for m a multiple of 4), within the grid; m never shrinks.  A stage
spreads the support by one node: beyond m every row stays +0.0 and C = K,
so the window step is the whole-grid step bit for bit, cut included.  The
cut stops the window where the far field underflows.  A step of s stages
moves that last node at most s nodes on, so the window is searched for
again only when that bound reaches its edge.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics
from .fields import Field, check_node_slopes, gap_scale
from .geometry import (TOL_SPACELIKE, DomainError, NonFiniteError,
                       RadialOperator, SpacelikeViolationError,
                       euclidean_metric, radial_factors)
from .initial_data import interpolate_initial_data, lipschitz_constant

#: Terminations that halt a run on a numeric failure.
NUMERIC_FAILURES = ("spacelike_violation", "non_finite")
TERMINATIONS = ("reached_t_end", *NUMERIC_FAILURES, "step_cap")
#: Retries, each halving dt, of a step that breaks spacelikeness.
MAX_DT_HALVINGS = 10
#: Local time-error tolerance per step, in units of h^2 sup|u_0|.
TIME_ERROR_KAPPA = 1e-4
#: Most records, and most snapshots, of a run: t_end over their cadence.
MAX_RECORDS = 1_000_000
#: Candidate values below this times sup|u_0| are set to +0.0: the square
#: root of the smallest normal double.
UNDERFLOW_CUT = 2.0 ** -511
#: On a line grid with both ends pinned, a step that RKL2 would take in
#: more stages than this is one ROS2 W-step instead: about what a ROS2
#: step costs, in RKL2 stages.
ROS2_STAGES = 10
#: ROS2's gamma: the root 1 - 1/sqrt(2) of gamma^2 - 2 gamma + 1/2 = 0.
ROS2_GAMMA = 1.0 - math.sqrt(0.5)


class RecordError(ValueError):
    """A recorded state failed a check of its record: a node-to-node slope
    |u_{i+1} - u_i|/(h w) >= 1, or a hypothesis of the tilt monitor."""


@dataclass(frozen=True)
class SolverConfig:
    """Step-size safety, horizon, output cadence and step cap; the grid
    spacing is the field's."""

    t_end: float
    cfl_safety: float = 0.9
    snapshot_every: float | None = None
    record_every: float | None = None
    max_steps: int = 20_000_000

    def __post_init__(self):
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        for name in ("t_end", "snapshot_every", "record_every"):
            value = getattr(self, name)  # 0 or None: the default cadence
            if (value or name == "t_end") and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not self.max_steps >= 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")

    @property
    def snapshot_cadence(self) -> float:
        return self.snapshot_every if self.snapshot_every else self.t_end / 8.0

    @property
    def record_cadence(self) -> float:
        return self.record_every if self.record_every else self.snapshot_cadence

    def snapshot_times(self) -> list:
        """The times a run to t_end snapshots: 0, each mark k * cadence
        below t_end - 1e-12, and then the next mark or t_end, whichever is
        smaller, where the run ends."""
        cadence = self.snapshot_cadence
        if self.t_end / cadence > MAX_RECORDS:
            raise ValueError(f"t_end / snapshot cadence = "
                             f"{self.t_end / cadence:.4g}, at most "
                             f"{MAX_RECORDS} snapshots")
        times, k = [0.0], 1
        while k * cadence < self.t_end - 1e-12:
            times.append(k * cadence)
            k += 1
        return [*times, min(k * cadence, self.t_end)]


@dataclass
class FlowTrajectory:
    """A run on the grid of `field` (its start state): `snapshots`, a row of
    values per time of `times`, and `records`, a column per recorded name."""

    field: Field
    times: np.ndarray
    snapshots: np.ndarray
    records: dict
    termination: str = "reached_t_end"
    steps: int = 0
    message: str = ""  # why a numeric failure halted the run


class _Engine:
    """Stepping in place on one grid, from a copy of a field's values.

    The state is `u` with its forward differences `d`; once `step_bounds`
    has run (each step runs it), also its speed `f` (held as F/4) and
    stability coefficient `coeff` (None until formed).  Each step builds
    its candidate in a second set of buffers, swapped in only once
    accepted, so a halved retry starts from the untouched state.
    """

    def __init__(self, field: Field, metric):
        nodes = self.nodes = field.nodes
        self.h, self.axis = field.h, field.axis
        scale = (2.0 * field.h, field.h * field.h)  # a, b: rows hold F/4
        self.pin_left, self.pin_right = (t == "dirichlet_zero" for t in field.bc)
        # the grids that take ROS2 steps where RKL2 needs many stages
        self.sine_solve = (field.kind == "line" and self.pin_left
                           and self.pin_right)
        if field.kind == "line":
            if getattr(metric, "a", 0.0) != 0.0:
                raise DomainError("line problems run on the flat metric")
            self.n = 1
            self.op = RadialOperator(1, None, 1.0, 0.0, *scale)
        else:
            r_min = getattr(metric, "r_min", 0.0)
            if r_min > 0.0 and self.axis:  # w is singular at r = 0
                raise DomainError("an axis grid (r = 0) needs a metric "
                                  f"defined at r = 0, not r_min = {r_min:g}")
            if r_min > 0.0 and nodes[0] < r_min:
                raise DomainError("radial grid reaches below the metric's r_min")
            if not self.axis and nodes[0] <= 0.0:
                raise DomainError("radial grid starting at r = 0 needs the "
                                  "axis_symmetry tag")
            self.n = metric.n
            r_int = nodes[1:-1]
            self.op = RadialOperator(self.n, r_int,
                                     *radial_factors(metric, r_int), *scale)
        self.hw_mid = gap_scale(field, metric)
        size = nodes.size
        self.u = np.array(field.values, dtype=float)
        self.cut = UNDERFLOW_CUT * float(np.max(np.abs(self.u)))
        self.coeff = self.cand_coeff = None
        # scratch rows share one allocation (cheaper for per-call engines).
        # First the four rows a stage combines, as one C-contiguous block for
        # one matrix-vector product; `f_row` is the block row that holds `f`.
        # Then rows of even length, each 16-byte aligned like np.empty's.
        pad = size + size % 2
        scratch = np.empty(4 * size + 8 * pad)
        self.block = scratch[:4 * size].reshape(4, size)
        self.f, self.f_cand, self.stage, self.stage_prev = self.block
        self.f_row = 0
        rows = scratch[4 * size:].reshape(8, pad)
        self.cand = rows[0, :size]
        self.d, self.d_cand, self.slope = (r[:size - 1] for r in rows[1:4])
        self.s, self.q, self.comp, self.work = (
            r[:size - 2] for r in rows[4:])
        self.tiny = np.empty(size, dtype=bool)  # the candidate's cut nodes
        np.subtract(self.u[1:], self.u[:-1], out=self.d)
        self.batch = diagnostics.batch_rows(size)
        self.m = 0  # the window, formed by the first step
        # a node past which u and f are +0.0: the last found, plus s a step
        self.reach = size
        self.ops = {size - 2: self.op}  # the operator on each window
        self.views = {}  # a step's views of the window, per f_row
        # `_coefficient` passes above this min(C); min K past each window
        self.safe_c = 2.0 * TOL_SPACELIKE * float(np.max(self.op.K))
        self.far_K = None if self.op.inv_K is None else np.append(
            np.minimum.accumulate(self.op.K[::-1])[::-1], math.inf).tolist()

    @functools.cached_property
    def dense(self):
        """The scratch of a batch of records, formed on first use: the
        value rows of the records waiting to be reduced (and of interpolated
        rows), their forward differences (in the second block, whose last
        column is not theirs) and the record check's scratch.  Rows are not
        padded, so that a batch is one contiguous block."""
        return np.empty((3, self.batch, self.u.size))

    def _coefficient(self, comp):
        """Check 1 - (u'/w)^2 = C/K > TOL_SPACELIKE for C = `comp` (of the
        grid or a window) and return the stability coefficient, on axis
        grids with `axis_coefficient`.  Raises on a NaN, an infinity or a
        slope at the null cone, naming the node of the smallest
        1 - (u'/w)^2."""
        stop = comp.size
        op = self.ops[stop]
        i = comp.argmin()  # the first NaN, if any
        low_c = float(comp[i])  # min(C); beyond a window C = K
        if op.inv_K is not None:
            low_c = min(low_c, self.far_K[stop])
        if not low_c > self.safe_c:  # else C/K > 2 TOL_SPACELIKE everywhere
            if op.inv_K is None:  # C <= K
                low = low_c / op.K
            else:
                ratio = np.multiply(comp, op.inv_K, out=self.work[:stop])
                i = ratio.argmin()
                low = float(ratio[i])
            if not low > TOL_SPACELIKE:
                x = self.nodes[1 + i]
                if not np.isfinite(low):
                    raise NonFiniteError(f"non-finite slope at x = {x:.6g}")
                raise SpacelikeViolationError(
                    f"spacelikeness lost: 1 - (u'/w)^2 = {low:.6g} <= "
                    f"{TOL_SPACELIKE:g} at x = {x:.6g}")
        # max 1/(w^2 (1 - (u'/w)^2)) = max 4h^2/C = 4h^2/min(C): rounded
        # division is monotone
        scale = 4.0 * self.h * self.h
        if self.axis:  # flat: C is not divided by K
            return max(scale / low_c, axis_coefficient(
                self.n, scale / float(comp[0])))
        return scale / low_c

    def _evaluator(self, d, f):
        """The evaluation of the values with forward differences `d` on the
        first `f.size` nodes (the grid or a window), as a function of no
        arguments: it forms s = 2h u' and C = 4h^2 w^2 - s^2, checks
        strict spacelikeness (raising as `_coefficient` does), writes F/4
        into `f` and returns C.  F/4 is the operator inside and the axis
        rule F = 2n (u_1 - u_0)/h^2 at r = 0; `f`'s other ends are not
        written."""
        d1, d0, inner = d[1:], d[:-1], f[1:-1]
        s, comp, q, work = (r[:f.size - 2]
                            for r in (self.s, self.comp, self.q, self.work))
        op = self.ops[f.size - 2]
        complement, rhs, safe_c = op.complement, op.rhs, self.safe_c
        axis, half_n, h2 = self.axis, self.n * 0.5, self.h * self.h
        engine = weakref.proxy(self)  # its views must not keep it alive

        def evaluate():
            np.add(d1, d0, s)
            complement(s, comp)
            if not comp[comp.argmin()] > safe_c:  # the first NaN, if any
                engine._coefficient(comp)  # raises, naming the node
            np.subtract(d1, d0, q)
            rhs(s, q, comp, inner, work)
            if axis:
                f[0] = half_n * d.item(0) / h2
            return comp
        return evaluate

    def step_bounds(self, cfl):
        """[dt_FE, floor] of a step from the state: cfl h^2 / (2 coeff),
        and on axis grids cfl h^2 / (2 max(coeff, n)).  Forms the state's
        speed `f` (zero at pinned or frozen ends) and stability
        coefficient `coeff` first, unless a step has formed them; raises
        as `_coefficient`."""
        if self.coeff is None:
            self.f[0] = self.f[-1] = 0.0  # the ends no evaluation writes
            comp = self._evaluator(self.d, self.f)()
            self.coeff = self._coefficient(comp)
        wide = max(self.coeff, self.n) if self.axis else self.coeff
        return [cfl * self.h * self.h / (2.0 * c) for c in (self.coeff, wide)]

    def _window(self, s):
        """Grow the window [0, m) for a step of s stages; return its views."""
        size, m = self.u.size, self.m
        if not m:  # what no stage writes is +0.0; block[1:]: f_cand, stages
            for row in (self.block[1:], self.cand, self.d_cand):
                row.fill(0.0)
        # search only where the support may have reached the window's edge
        if m < size and self.pin_right and self.reach + s + 3 > m:
            bits = np.bitwise_or(*(  # the last node where u or f is not
                row[:m or size].view(np.int64) for row in (self.u, self.f)))
            self.reach = last = (  # +0.0; beyond the window both are +0.0
                bits.size - 1 - int(bits[::-1].astype(bool).argmax()))
            m = min(size, max(m, -(-(last + s + 3) // 64) * 64))
            if m != self.m:  # a grown window's views are not used again
                self.views, self.ops[m - 2] = {}, self.op.window(m - 2)
        self.m = m = m or size
        # the candidate's u and f reach at most s nodes further (a stage
        # spreads them one); a retried step only loosens this bound
        self.reach += s
        if (m, self.f_row) not in self.views:
            f, d = self.f_cand[:m], self.d_cand[:m - 1]
            rows = self.stage[:m], self.stage_prev[:m]  # D_{j-1}, D_{j-2}
            self.views[m, self.f_row] = (  # stage j reads rows[j % 2]
                self.f[:m], f, self.cand[:m], d, self.d[:m - 1],
                self._evaluator(d, f), self.block[:, :m], rows,
                [(r[1:], r[:-1], t) for r, t in zip(rows, rows[::-1])],
                self.tiny[:m])
        return self.views[m, self.f_row]

    def _hold_ends(self, y):
        """Pinned ends to 0 and frozen ends to the state's values, in each
        row of `y`."""
        if self.pin_left:
            y[..., 0] = 0.0
        elif not self.axis:
            y[..., 0] = self.u[0]
        y[..., -1] = 0.0 if self.pin_right else self.u[-1]

    def _accept(self):
        """Swap the candidate, its differences, speed and coefficient in as
        the state's."""
        self.u, self.cand = self.cand, self.u
        self.d, self.d_cand = self.d_cand, self.d
        self.f, self.f_cand = self.f_cand, self.f
        self.f_row = 1 - self.f_row
        self.coeff = self.cand_coeff

    def interpolate(self, theta, tau, at=0):
        """The cubic Hermite interpolant of the last accepted step, of size
        `tau`, at each fraction in `theta` (ascending), one row each, and
        the rows' forward differences; both are written into the dense
        scratch from row `at` on, which must leave room for them.

        It takes u_n and F(u_n) from `cand` and `f_cand`, u_{n+1} and
        F(u_{n+1}) from `u` and `f`, as `_accept` leaves them, so it costs
        no evaluation.  With D = u_{n+1} - u_n,

            H = u_n + theta^2 (3 - 2 theta) D
                + tau theta (1 - theta) [(1 - theta) F(u_n) - theta F(u_{n+1})]

        formed from the nearer end (u_{n+1} - (1 - theta)^2 (1 + 2 theta) D
        + ... past the midpoint), so theta = 0 and 1 give u_n and u_{n+1}
        exactly.  Each row's weights are its own column, so a row is the
        one-theta interpolant bit for bit.  Pinned and frozen ends are held
        as in a step.
        """
        stop = at + len(theta)
        out, tmp = self.dense[0, at:stop], self.dense[1, at:stop]
        weights = np.array([  # the speed rows hold F/4
            (th * th * (3.0 - 2.0 * th) if th <= 0.5
             else -(1.0 - th) ** 2 * (1.0 + 2.0 * th),
             4.0 * tau * th * (1.0 - th) ** 2,
             -4.0 * tau * th * th * (1.0 - th))
            for th in theta]).T[:, :, None]
        np.multiply(np.subtract(self.u, self.cand, out=self.stage),
                    weights[0], out=out)
        out += np.multiply(self.f_cand, weights[1], out=tmp)
        out += np.multiply(self.f, weights[2], out=tmp)
        near_start = sum(th <= 0.5 for th in theta)
        out[:near_start] += self.cand
        out[near_start:] += self.u
        self._hold_ends(out)
        # differences over the flattened rows, one pass for the batch: those
        # across two rows land in tmp's last column, outside the view
        flat = out.reshape(-1)
        np.subtract(flat[1:], flat[:-1], out=tmp.reshape(-1)[:-1])
        return out, tmp[:, :-1]

    def max_metric_slope(self, d):
        """max |d| / (h w) over the gaps of `d` (w = 1 if hw_mid is None)."""
        if self.hw_mid is None:
            # max |d|/h is max|d| / h: rounded division by h > 0 is monotone
            return np.maximum(d.max(), -d.min()) / self.h
        slope = np.abs(d, out=self.slope[:d.size])
        return np.divide(slope, self.hw_mid[:d.size], out=slope).max()

    def rkl2(self, tau, dt_fe):
        """Form the RKL2 super-step of size `tau` from the state.

        The candidate goes to `cand`, its values below the cut set to
        +0.0, with its differences, speed and principal coefficient in
        `d_cand`, `f_cand` and `cand_coeff`; the state and its `f` are not
        written.  Returns the sup of the local
        error estimate.  Raises SpacelikeViolationError on a stage or
        candidate that breaks strict spacelikeness, NonFiniteError on a
        NaN or infinity.

        The stages are kept as increments D_j = Y_j - u, which are small
        next to u:  D_1 = mu~_1 tau F(u) and, for j = 2..s,
        D_j = mu_j D_{j-1} + nu_j D_{j-2} + mu~_j tau F(Y_{j-1})
              + gamma~_j tau F(u)   (D_0 = 0),
        one matrix-vector product of the four weights (4 tau times those
        of the speed rows, which hold F/4) with `block`, on the window.
        """
        s = rkl2_stages(tau, dt_fe)
        f0, _, acc, d, du, evaluate, block, rows, ends, _ = self._window(s)
        w1 = 4.0 / (s * s + s - 2)
        table = _rkl2_weights(1 << (s - 2).bit_length())[:s - 1]
        weights = table[:, :4].copy()
        mu_tau = np.multiply(table[:, 4], w1, out=weights[:, 1 - self.f_row])
        mu_tau *= tau
        np.multiply(table[:, 5], mu_tau, out=weights[:, self.f_row])
        np.multiply(f0, 4.0 * w1 * tau / 3.0, out=rows[0])
        rows[1].fill(0.0)  # a zero weight would keep a stale NaN
        for weight, (hi, lo, target) in zip(weights, ends * s):
            np.subtract(hi, lo, d)
            np.add(d, du, d)
            evaluate()
            np.dot(weight, block, acc)
            np.copyto(target, acc)
        return self._candidate(tau, rows[(s - 1) % 2], rows[s % 2])

    def _candidate(self, tau, step, spare):
        """Form the candidate u + `step` of a step of size `tau` from the
        state, as `rkl2` describes, and return the sup of its local error
        estimate; `spare` is a free row of the window, written."""
        f0, f, cand, d, _, evaluate, *_, tiny = self.views[self.m,
                                                           self.f_row]
        np.add(self.u[:cand.size], step, out=cand)
        np.less(np.abs(cand, out=spare), self.cut, out=tiny)  # NaN: False
        np.copyto(cand, 0.0, where=tiny)
        self._hold_ends(cand)
        # the candidate's differences, check and speed, as a stage's: no
        # evaluation writes f's ends (off the axis), which stay 0.0
        np.subtract(cand[1:], cand[:-1], out=d)
        self.cand_coeff = self._coefficient(evaluate())
        worst = self.max_metric_slope(d)
        if not worst < 1.0 - TOL_SPACELIKE:
            raise SpacelikeViolationError(
                f"spacelikeness lost: updated slope {worst:.12g} reached "
                f"1 - {TOL_SPACELIKE:g}")
        # est / 0.8 = 0.5 tau (F(u) + F(cand)) - (cand - u), the increment
        # taken before the cut; the rows hold F/4
        est = np.add(f0, f, out=spare)
        est *= 2.0 * tau
        est -= step
        return 0.8 * float(max(est[est.argmax()], -est[est.argmin()]))

    @functools.cached_property
    def sine(self):
        """The DST-I tables of a line grid of N = nodes - 1 intervals,
        formed on first use: the weights sin(pi j / N) - 1/2 of `dst`
        (j = 1..N-1), its FFT input row y (of length N, y_0 = 0), N/2
        lambda_k with lambda_k = 4 sin^2(pi k / (2N)) / h^2 the eigenvalues
        of -Delta_h (k = 1..N-1), and a row for a solve's divisors."""
        n = self.u.size - 1
        j = np.arange(1, n)
        eig = np.sin(j * (0.5 * math.pi / n)) ** 2 * (
            2.0 * n / (self.h * self.h))
        return (np.sin(j * (math.pi / n)) - 0.5, np.zeros(n), eig,
                np.empty(n - 1))

    def dst(self, b, out):
        """Write the DST-I S_k = sum_j b_j sin(pi j k / N) (j, k = 1..N-1,
        N = nodes - 1) of `b`'s interior nodes into `out`'s and return
        `out`; `b`'s ends are not read, `out`'s not written, and `out` may
        be `b`.

        One rfft of length N (Cooley, Lewis & Welch, J. Sound Vib. 12,
        1970): with y_0 = 0 and
            y_j = (sin(pi j / N) + 1/2) b_j + (sin(pi j / N) - 1/2) b_{N-j},
        Y = rfft(y) gives S_{2m} = -Im Y_m and S_{2m+1} - S_{2m-1} = Re Y_m,
        from S_1 = Re Y_0 / 2.  y is formed as
        (sin(pi j / N) - 1/2) (b_j + b_{N-j}) + b_j.  The running sum's
        rounding grows with N: on 8,000 nodes a `solve` of random data
        differs by up to about 6e-13 relative from one through the odd
        extension's FFT of length 2N.
        """
        weight, y = self.sine[:2]
        n = y.size
        inner = np.add(b[1:n], b[n - 1:0:-1], out=y[1:])
        inner *= weight
        inner += b[1:n]
        spectrum = np.fft.rfft(y)  # its out= needs numpy 2.0
        np.negative(spectrum.imag[1:(n + 1) // 2], out=out[2:n:2])
        odd = spectrum.real[:n // 2]
        odd[0] *= 0.5
        np.cumsum(odd, out=out[1:n:2])
        return out

    def divisor(self, c):
        """The divisors N/2 (1 + c lambda_k) of `solve` with
        (I - c Delta_h), written into the tables' row and returned."""
        eig, div = self.sine[2:]
        np.multiply(eig, c, out=div)
        div += 0.5 * (self.u.size - 1)
        return div

    def solve(self, b, div, out):
        """Write x with (I - c Delta_h) x = b into `out`'s interior nodes
        (Delta_h the flat second difference, zero increments at both ends;
        `div` = `divisor(c)`) and return it; `b`'s ends are not read,
        `out`'s not written, and `out` may be `b`.

        Delta_h is diagonal in the DST-I, which is its own inverse up to
        N/2: x = 2/N DST(DST(b) / (1 + c lambda_k)), two `dst`s.
        """
        self.dst(b, out)
        out[1:-1] /= div
        return self.dst(out, out)

    def ros2(self, tau):
        """Form the ROS2 W-step of size `tau` from the state, writing and
        returning as `rkl2` does.  With W = I - gamma tau A Delta_h
        (A the state's stability coefficient `coeff`, gamma = ROS2_GAMMA),
            k1 = W^-1 F(u),  k2 = W^-1 (F(u + tau k1) - 2 k1),
            u_{n+1} = u + 1.5 tau k1 + 0.5 tau k2,
        held as the increments K_i = tau k_i.  The intermediate state
        u + K1 passes the stages' check; the candidate is formed as an RKL2
        candidate is, from the increment 1.5 K1 + 0.5 K2.  Only for line
        grids with both ends pinned, where the increments vanish at the
        ends.  A solve couples every node, so the window grows to the whole
        grid.
        """
        f0, f, _, d, du, evaluate, _, (k1, k2), *_ = self._window(
            self.u.size)
        div = self.divisor(ROS2_GAMMA * tau * self.coeff)
        self.solve(np.multiply(f0, 4.0 * tau, out=k1), div, k1)  # ends 0.0
        np.subtract(k1[1:], k1[:-1], out=d)  # the differences of u + K1
        d += du
        evaluate()
        np.multiply(f, 4.0 * tau, out=k2)  # f's ends are 0.0
        k2 -= k1
        k2 -= k1
        self.solve(k2, div, k2)
        k2 *= 0.5
        k1 *= 1.5
        k1 += k2
        return self._candidate(tau, k1, k2)

    def super_step(self, tau, dt_cap, cfl, tol):
        """One accepted step of the proposed size `tau` (None: dt_FE), at
        most `dt_cap`, under local error tolerance `tol`: an RKL2 super-step,
        or a ROS2 step where `sine_solve` holds and RKL2 would take more
        than ROS2_STAGES stages.

        Returns (dt, next proposed size).  A stage or candidate that breaks
        spacelikeness halves dt from the untouched state, at most
        MAX_DT_HALVINGS times, and then halts; a failed error
        estimate shrinks dt, but not below the floor, where the step is
        accepted.  A step cut short by `dt_cap` does not shrink the next
        proposal.  Raises on violation, leaving the state as it was.

        The stages are counted in dt_FE = cfl h^2 / (2 coeff).  The floor
        is the bound with the axis row's own Gershgorin disc,
        cfl h^2 / (2 max(coeff, n)) on axis grids, and dt_FE elsewhere.
        """
        dt_fe, floor = self.step_bounds(cfl)
        tau = floor if tau is None else max(tau, floor)
        dt = min(tau, dt_cap)
        capped = dt < tau
        halvings = 0
        while True:
            try:
                if self.sine_solve and rkl2_stages(dt, dt_fe) > ROS2_STAGES:
                    err = self.ros2(dt)
                else:
                    err = self.rkl2(dt, dt_fe)
            except SpacelikeViolationError as exc:
                if halvings == MAX_DT_HALVINGS:
                    raise SpacelikeViolationError(
                        f"{exc} (last dt {dt:g})") from exc
                halvings += 1
                dt *= 0.5
                capped = False
                continue
            ratio = err / tol if tol > 0.0 else (math.inf if err else 0.0)
            if ratio <= 1.0 or dt <= floor:
                break
            dt = max(floor, dt * _step_factor(ratio))
            capped = False
        self._accept()
        grown = dt * _step_factor(ratio)
        return dt, max(grown, tau) if capped else grown


def axis_coefficient(n, a1):
    """Axis term of the stability coefficient of a grid flat at r = 0, in
    dimension `n`, with principal coefficient `a1` at r = h.

    The frozen-coefficient operator J couples the axis row to node 1 by
    2n/h^2 (diagonal -2n/h^2) and node 1 to the axis by e/h^2, where
    e = a1 - P and P = (n - 1)/2.  Gershgorin's discs of D J D^-1, with
    D = diag(delta, 1, 1, ...), reach
        2n (1 + delta)/h^2                  in row 0,
        (3 a1 + P + e/delta)/h^2            in row 1,
        4 a_i/h^2                           in rows i >= 2,
    the last because for n <= 3 a_i >= 1 >= P/i there (cell Peclet number
    at most 1).  With e >= 0 the two axis rows balance at the positive
    root delta* of 2n delta^2 + B delta - e = 0, B = 2n - 3 a1 - P, and
    the bound is n (1 + delta*)/2 (e = 0 gives max(2n, 3 a1 + P)/4).  It
    is at most max(a1, n), the bound at delta = 1.  For n >= 4 node 1's
    coupling to the axis can be negative and the spectrum complex, off the
    real interval RKL2 is stable on; the term stays n.
    """
    if n > 3:
        return float(n)
    p = 0.5 * (n - 1)
    b = 2.0 * n - 3.0 * a1 - p
    delta = (math.sqrt(b * b + 8.0 * n * (a1 - p)) - b) / (4.0 * n)
    return 0.5 * n * (1.0 + delta)


@functools.lru_cache(maxsize=None)
def _rkl2_weights(rows):
    """RKL2 stage weights, read-only, a row per stage j = 2..rows + 1 of any
    step: of D_{j-1} and D_{j-2} in the `_Engine.block` columns that hold
    them, then mu~_j / (w1 tau) and gamma~_j / mu~_j."""
    b = [1.0 / 3.0] * 2 + [(j * j + j - 2) / (2.0 * j * (j + 1))
                           for j in range(2, rows + 2)]
    table = np.zeros((rows, 6))
    for j in range(2, rows + 2):  # D_{j-1} sits in column 2 for even j
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        table[j - 2, [2 + j % 2, 3 - j % 2, 4, 5]] = (
            mu, -(j - 1) / j * b[j] / b[j - 2], 4.0 * mu, -(1.0 - b[j - 1]))
    table.flags.writeable = False
    return table


def rkl2_stages(tau, dt_fe):
    """Fewest RKL2 stages s >= 2 stable at `tau`: tau <= dt_fe (s^2+s-2)/4."""
    s = max(2, int(0.5 * (math.sqrt(9.0 + 16.0 * tau / dt_fe) - 1.0)))
    while dt_fe * (s * s + s - 2) < 4.0 * tau:
        s += 1
    return s


def _step_factor(ratio):
    """Next step size over this one, from max|est| / tol: in [0.1, 10]."""
    return min(10.0, max(0.1, 0.8 / math.cbrt(ratio))) if ratio else 10.0


def stable_dt(field: Field, metric, config: SolverConfig) -> float:
    """The forward-Euler bound dt_FE = cfl * h^2 / (2 stability
    coefficient), the unit of the RKL2 stage count.

    On a flat line this is cfl * h^2 / (2 max 1/(1 - u'^2)).  On an axis
    grid the coefficient is at least `axis_coefficient` (3/2 for n = 3 at
    rest) and, for n >= 4, n.  Error rejections stop at a floor that may be
    smaller: see `_Engine.super_step`.
    """
    return _Engine(field, metric).step_bounds(config.cfl_safety)[0]


def _step(field: Field, metric, config: SolverConfig):
    """One RKL2 step of the floor's size from `field`, halved on a
    violation as a run's steps are: the step a run starts with.  Returns
    (new field, dt)."""
    engine = _Engine(field, metric)
    dt, _ = engine.super_step(None, math.inf, config.cfl_safety, math.inf)
    return replace(field, values=engine.u.copy()), dt  # u is a scratch row


def step_1d(field: Field, config: SolverConfig):
    """One step of the flat line flow.  Returns (new field, dt)."""
    if field.kind != "line":
        raise ValueError("step_1d expects a line field")
    return _step(field, euclidean_metric(1), config)


def step_radial(field: Field, metric, n: int, config: SolverConfig):
    """One step of the rotationally reduced flow in dimension n, which
    must be the metric's."""
    if field.kind != "radial":
        raise ValueError("step_radial expects a radial field")
    if n != metric.n:
        raise ValueError(f"step_radial steps in the metric's dimension "
                         f"{metric.n}, got n = {n}")
    return _step(field, metric, config)


def _record(blocks, plan, field, engine, times, rows, d):
    """Append to `blocks` the records of the value rows `rows`, with forward
    differences `d`, at `times`, on `field`'s grid.  A RecordError names
    the first row that fails a check, as a batch of that row alone would."""
    try:
        # the solver's bound |u'|/w < 1, on the rows' own differences
        check_node_slopes(field, engine.hw_mid, d,
                          engine.dense[2, :len(d), :-1])
        blocks.append(diagnostics.make_record(plan, rows, times))
    except ValueError as exc:
        if len(times) > 1:  # the first failing row raises on its own
            for i in range(len(times)):
                _record(blocks, plan, field, engine, times[i:i + 1],
                        rows[i:i + 1], d[i:i + 1])
        raise RecordError(f"state at t = {times[0]:.6g}: {exc}") from exc


def _schedule(marks, cadence):
    """A run's outputs after t = 0 in time order, as (time, record,
    snapshot): the record marks k * `cadence` more than 1e-12 below a
    snapshot time of `marks` and the snapshot times, the last of which is
    also recorded.  A record mark within 1e-12 of a snapshot time is that
    snapshot's time."""
    k = 1
    for mark in marks[1:]:
        while k * cadence < mark - 1e-12:
            yield k * cadence, True, False
            k += 1
        shared = k * cadence <= mark + 1e-12
        k += shared
        yield mark, shared or mark == marks[-1], True


class _Outputs:
    """A run's snapshot table and records, as its steps reach them.

    A snapshot is a row of the table.  A record row waits in the engine's
    dense scratch, with its forward differences, until the scratch holds
    `engine.batch` rows or `flush` is called; then the rows are checked
    and reduced as one batch (`_record`).
    """

    def __init__(self, engine, plan, field, snapshots):
        self.engine, self.plan, self.field = engine, plan, field
        self.table = np.empty((snapshots, engine.u.size))
        self.times = []  # of the table's rows
        self.blocks = []  # of the reduced records
        self.pending = []  # times of the record rows waiting in the scratch

    def snapshot(self, t, values):
        self.table[len(self.times)] = values
        self.times.append(t)

    def _add(self, times):
        self.pending += times
        if len(self.pending) == self.engine.batch:
            self.flush()

    def flush(self):
        """Check and reduce the waiting record rows."""
        if self.pending:
            n, dense = len(self.pending), self.engine.dense
            _record(self.blocks, self.plan, self.field, self.engine,
                    self.pending, dense[0, :n], dense[1, :n, :-1])
            self.pending = []

    def state(self, t, record, snapshot):
        """Keep the engine's state as the output at t, its step's end."""
        engine, at = self.engine, len(self.pending)
        if snapshot:
            self.snapshot(t, engine.u)
        if record:
            engine.dense[0, at] = engine.u
            engine.dense[1, at, :-1] = engine.d
            self._add([t])

    def inside(self, due, start, dt):
        """Keep the outputs `due` of `_schedule`, each strictly inside the
        last step, of size `dt` from `start`, from its interpolant.  A
        snapshot that is not a record passes the records' slope check."""
        engine = self.engine
        while due:
            at = len(self.pending)  # < batch: a full scratch is flushed
            n = 1  # a run of records, as many as the scratch has room for
            while (n < min(len(due), engine.batch - at) and due[0][1]
                   and due[n][1]):
                n += 1
            run, due = due[:n], due[n:]
            values, d = engine.interpolate(
                [(t - start) / dt for t, _, _ in run], dt, at)
            t, record, _ = run[0]
            if not record:
                try:
                    check_node_slopes(self.field, engine.hw_mid, d,
                                      engine.dense[2, at:at + 1, :-1])
                except ValueError as exc:
                    self.flush()  # the records before it come first
                    raise RecordError(f"state at t = {t:.6g}: {exc}") from exc
            for row, (t, _, snapshot) in zip(values, run):
                if snapshot:
                    self.snapshot(t, row)
            if record:
                self._add([t for t, _, _ in run])


def _evolve(field: Field, metric, config: SolverConfig, phi_params=None,
            barrier=None) -> FlowTrajectory:
    """Drive an engine from `field` to t_end by RKL2 super-steps and ROS2
    W-steps (`_Engine.super_step`), recording at cadence; `steps` counts
    accepted steps of both schemes.

    Steps end only on the last of `config.snapshot_times()`, a halt or the
    step cap.  The record marks are k * record cadence.  A record or
    snapshot strictly inside a step comes from the step's interpolant, one
    at its end from the state.  A halted or step-capped run records and
    snapshots where it stopped, unless that state is already the last
    record or snapshot.  Raises ValueError, before any step or record, when
    the data with their pinned ends at zero are not spacelike in the metric
    (`check_node_slopes`).
    """
    u = field.values.copy()
    if field.bc[0] == "dirichlet_zero":
        u[0] = 0.0
    if field.bc[1] == "dirichlet_zero":
        u[-1] = 0.0
    field = replace(field, values=u)
    engine = _Engine(field, metric)
    check_node_slopes(field, engine.hw_mid, engine.d, engine.slope)
    plan = diagnostics.RecordPlan(field, metric, phi_params, barrier)
    tol = TIME_ERROR_KAPPA * field.h * field.h * float(np.max(np.abs(u)))
    marks = config.snapshot_times()
    out = _Outputs(engine, plan, field, len(marks))
    schedule, never = _schedule(marks, config.record_cadence), (math.inf,)
    t, t_end, tau, steps = 0.0, marks[-1], None, 0
    out.state(t, True, True)
    due = next(schedule)
    termination, message = "reached_t_end", ""
    try:
        while t < t_end - 1e-12 and steps < config.max_steps:
            start = t
            dt, tau = engine.super_step(tau, t_end - t, config.cfl_safety,
                                        tol)
            steps += 1
            t = t_end if dt >= t_end - t - 1e-15 else t + dt
            inside = []
            while due[0] < t - 1e-12:
                inside.append(due)
                due = next(schedule, never)
            out.inside(inside, start, dt)
            if due[0] <= t + 1e-12:
                out.state(t, *due[1:])
                due = next(schedule, never)
        if t < t_end - 1e-12:
            termination = "step_cap"
    except (NonFiniteError, SpacelikeViolationError) as exc:
        termination = ("non_finite" if isinstance(exc, NonFiniteError)
                       else "spacelike_violation")
        message = str(exc)
    out.flush()  # a failing record among these came before any halt
    if termination != "reached_t_end":
        try:
            out.state(t, t > out.blocks[-1][-1, 0], t > out.times[-1])
            out.flush()
        except RecordError as err:
            raise RecordError(f"{err} (the run had halted: "
                              f"{message or termination})") from err
    return FlowTrajectory(field, np.array(out.times),
                          out.table[:len(out.times)],
                          dict(zip(plan.columns, np.concatenate(out.blocks).T)),
                          termination, steps, message)


def run_flow(metric, u0: Field, config: SolverConfig, phi_params=None,
             barrier=None) -> FlowTrajectory:
    """Evolve whole-space data on a large truncated grid to t_end.

    The far field is pinned by the grid's boundary tags (zero by default);
    contamination from the truncation is monitored through the optional
    barrier margin rather than assumed absent.  `phi_params = (lambda, mu)`
    enables the tilt monitor, `barrier` a BarrierProfile margin column.
    """
    sup = float(np.max(np.abs(u0.values)))
    if sup > 0.0:
        edges = [abs(u0.values[-1])]
        if not u0.axis:
            edges.append(abs(u0.values[0]))
        if max(edges) > 1e-3 * sup:
            raise ValueError("initial data must decay below 1e-3 * sup|u0| "
                             "at the grid edge")
    return _evolve(u0, metric, config, phi_params=phi_params, barrier=barrier)


def solve_dirichlet(R: float, metric, u0: Field,
                    config: SolverConfig) -> FlowTrajectory:
    """Zero-boundary problem on the ball of radius R^2 with blended data.

    The data and metric are blended to (delta, 0) across [R-1, R] at the
    data's own spacelikeness margin, then evolved on the radial grid with the
    outer value pinned to zero.  The returned trajectory carries the blend's
    metric for all diagnostics.
    """
    if u0.kind != "radial":
        raise ValueError("solve_dirichlet expects a radial field")
    if R <= 1.0 + getattr(metric, "r_min", 0.0) or R < 2.0:
        raise DomainError(f"R = {R} too small: need R >= 2 inside the "
                          "asymptotic chart")
    if abs(u0.nodes[-1] - R * R) > u0.h:
        raise ValueError(f"grid must reach R^2 = {R * R:g}, ends at "
                         f"{u0.nodes[-1]:g}")
    check_node_slopes(u0, gap_scale(u0, metric))  # the data, unblended
    margin = 1.0 - lipschitz_constant(metric, u0)
    eps = min(0.999, margin)
    blended, u_tilde = interpolate_initial_data(metric, u0, R - 1.0, R, eps)
    ball = replace(u_tilde, bc=(u0.bc[0], "dirichlet_zero"))
    return _evolve(ball, blended, config)

