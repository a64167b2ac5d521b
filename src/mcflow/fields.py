"""Discretised scalar functions on uniform 1D line or radial grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIELD_KINDS = ("line", "radial")
BC_TAGS = ("dirichlet_zero", "asymptotic_decay", "axis_symmetry")


@dataclass(frozen=True)
class Field:
    """Grid samples of u with per-end boundary treatment.

    kind 'line' uses coordinates x on an interval, kind 'radial' radii
    r >= 0.  Boundary tags: 'dirichlet_zero' pins the end to zero,
    'asymptotic_decay' freezes the end at its current value, and
    'axis_symmetry' (left end of a radial grid at r = 0 only) reflects
    evenly so u'(0) = 0.
    """

    kind: str
    nodes: np.ndarray
    values: np.ndarray
    h: float
    bc: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.nodes.ndim != 1 or self.nodes.size < 3:
            raise ValueError("need a 1D grid with at least 3 nodes")
        if self.values.shape != self.nodes.shape:
            raise ValueError("values and nodes must have matching shapes")
        spacing = np.diff(self.nodes)
        scale = max(abs(self.nodes[0]), abs(self.nodes[-1]))
        if np.any(spacing <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.max(np.abs(spacing - self.h)) > 1e-12 * scale:
            raise ValueError("grid spacing is not uniform to 1e-12 relative tolerance")
        if self.kind == "radial" and self.nodes[0] < 0:
            raise ValueError("radial grids need r >= 0")
        if len(self.bc) != 2 or any(tag not in BC_TAGS for tag in self.bc):
            raise ValueError(f"boundary tags must be from {BC_TAGS}, got {self.bc}")
        for end, tag in enumerate(self.bc):
            if tag == "axis_symmetry":
                if not (self.kind == "radial" and end == 0
                        and abs(self.nodes[0]) < 1e-14):
                    raise ValueError("axis_symmetry is only valid at r = 0 of a "
                                     "radial grid")

    @property
    def axis(self) -> bool:
        return self.bc[0] == "axis_symmetry"

    def radii(self) -> np.ndarray:
        """Distance from the origin per node (|x| for line grids)."""
        return np.abs(self.nodes) if self.kind == "line" else self.nodes


def line_field(x_lo: float, x_hi: float, h: float, profile) -> Field:
    """`profile`, a function of x, at spacing h on [x_lo, x_hi], with both
    ends pinned ('dirichlet_zero')."""
    count = int(round((x_hi - x_lo) / h))
    nodes = np.linspace(x_lo, x_lo + count * h, count + 1)
    return Field(kind="line", nodes=nodes, values=profile(nodes),
                 h=h, bc=("dirichlet_zero", "dirichlet_zero"))


def radial_field(r_lo: float, r_hi: float, h: float, profile,
                 bc=None) -> Field:
    count = int(round((r_hi - r_lo) / h))
    nodes = np.linspace(r_lo, r_lo + count * h, count + 1)
    if bc is None:
        left = "axis_symmetry" if abs(r_lo) < 1e-14 else "dirichlet_zero"
        bc = (left, "dirichlet_zero")
    return Field(kind="radial", nodes=nodes, values=profile(nodes),
                 h=h, bc=tuple(bc))


def gap_scale(field: Field, metric):
    """h w at each gap's midpoint of `field`'s grid, the unit of the metric's
    node-to-node slope; None where w is 1 at every gap (a line runs on the
    flat metric)."""
    if field.kind == "line":
        return None
    w = metric.w(0.5 * (field.nodes[:-1] + field.nodes[1:]))
    return None if np.all(w == 1.0) else field.h * w


def check_node_slopes(field: Field, hw, d=None, out=None):
    """Raise ValueError when values on `field`'s grid are not spacelike in
    the metric: a node-to-node slope |u_{i+1} - u_i|/(h w) >= 1, with `hw`
    from `gap_scale`.  `d` holds the forward differences of the values (by
    default the field's own), or a row of them per value row of a batch;
    the slopes are formed in `out` (d's shape), if given.  The message
    names the steepest gap of the first failing row.  A NaN passes; the
    solver reports it."""
    slopes = np.abs(np.diff(field.values) if d is None else d, out=out)
    slopes = np.atleast_2d(slopes)
    slopes /= field.h if hw is None else hw
    steep = slopes.max(axis=1) >= 1.0  # a NaN row passes
    if steep.any():
        row = slopes[steep.argmax()]  # the first steep row
        i, x = int(row.argmax()), "x" if field.kind == "line" else "r"
        raise ValueError(f"not spacelike in the metric: node-to-node slope "
                         f"{row[i]:.6g} >= 1 between {x} = "
                         f"{field.nodes[i]:.6g} and {field.nodes[i + 1]:.6g}")


def gradient(field: Field) -> np.ndarray:
    """Discrete u' of a field; see `gradient_into`."""
    return gradient_into(field.values, field.h, field.axis,
                         np.empty_like(field.values))


def gradient_into(u: np.ndarray, h: float, axis: bool,
                  out: np.ndarray) -> np.ndarray:
    """Discrete u' along the last axis of `u` (each row of a batch) into
    the C-contiguous `out`: second-order central inside, one-sided at the
    ends.  An axis end gets exactly zero (even reflection)."""
    if not out.flags.c_contiguous:
        raise ValueError("gradient_into needs a C-contiguous out")
    # central differences over the flattened rows, one pass for a batch:
    # those across two rows land in the end columns, written next
    flat_u, flat = u.reshape(-1), out.reshape(-1)
    np.subtract(flat_u[2:], flat_u[:-2], out=flat[1:-1])
    flat[1:-1] /= 2.0 * h
    out[..., 0] = (-3.0 * u[..., 0] + 4.0 * u[..., 1] - u[..., 2]) / (2.0 * h)
    out[..., -1] = (3.0 * u[..., -1] - 4.0 * u[..., -2]
                    + u[..., -3]) / (2.0 * h)
    if axis:
        out[..., 0] = 0.0
    return out
