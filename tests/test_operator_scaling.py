"""`geometry.RadialOperator` on scaled inputs, and the order of the
engine's flow speed on curved backgrounds and at the axis node.

The engine passes the operator sums and differences of its forward
differences, s = 2h u' and q = h^2 u'', and keeps F b/a^2 = F/4.  Against
the exact speed of a smooth profile (`mcf_operator_radial` of its exact U'
and U''), halving h must cut the error by 4 at interior nodes of the
curved grids and at the axis node.  Curved metrics are not evaluated
below r_min > 0, so the axis node is taken on flat balls.
"""

import math

import numpy as np
import pytest

from mcflow import solver
from mcflow.barriers import (curved_profile_speed,
                             supersolution_profile_derivs)
from mcflow.fields import radial_field
from mcflow.geometry import (RadialOperator, conformal_metric,
                             euclidean_metric, mcf_operator_cartesian,
                             mcf_operator_radial, radial_factors,
                             radial_flow_rhs)

METRICS = {
    "conformal": conformal_metric(3, a=0.5, tau=1.0),
    "schwarzschild": conformal_metric(3, a=0.5, tau=1.0, power=2.0),
}


def profile(r):
    """(U, U', U'') of a smooth hump, |U'| <= 0.19: spacelike everywhere."""
    x = r - 3.0
    g = 0.3 * np.exp(-0.5 * x * x)
    return g, -x * g, (x * x - 1.0) * g


def axis_profile(r):
    """(U, U', U'') of an even hump, smooth through r = 0."""
    g = 0.3 * np.exp(-0.5 * r * r)
    return g, -r * g, (r * r - 1.0) * g


def engine_speed(field, metric):
    """The flow speed F the engine forms from the field's values."""
    engine = solver._Engine(field, metric)
    engine.coefficient()
    return 4.0 * engine._speed(engine.d, np.empty(field.nodes.size))


def observed_order(errors):
    return math.log2(errors[0] / errors[1])


@pytest.mark.parametrize("name", sorted(METRICS))
def test_engine_speed_is_second_order_on_curved_backgrounds(name):
    metric = METRICS[name]
    errors = []
    for h in (0.05, 0.025):
        field = radial_field(1.0, 6.0, h, lambda r: profile(r)[0],
                             bc=("asymptotic_decay", "asymptotic_decay"))
        r = field.nodes[1:-1]
        _, du, d2u = profile(r)
        error = engine_speed(field, metric)[1:-1] \
            - mcf_operator_radial(metric, r, du, d2u)
        step = round(0.05 / h)  # compare at the coarse grid's nodes
        errors.append(float(np.max(np.abs(error[step - 1::step]))))
    assert 1.9 <= observed_order(errors) <= 2.1


@pytest.mark.parametrize("n", [3, 5])
def test_engine_speed_is_second_order_at_the_axis_node(n):
    # F(0) = n U''(0) for an even profile; the rule 2n (u_1 - u_0)/h^2 is
    # off by n U''''(0) h^2 / 12
    metric = euclidean_metric(n)
    axis, interior = [], []
    for h in (0.05, 0.025):
        field = radial_field(0.0, 6.0, h, lambda r: axis_profile(r)[0],
                             bc=("axis_symmetry", "asymptotic_decay"))
        speed = engine_speed(field, metric)
        axis.append(abs(speed[0] - n * axis_profile(0.0)[2]))
        r = field.nodes[1:-1]
        _, du, d2u = axis_profile(r)
        error = speed[1:-1] - mcf_operator_radial(metric, r, du, d2u)
        step = round(0.05 / h)
        interior.append(float(np.max(np.abs(error[step - 1::step]))))
    assert axis[0] > 0.0
    assert 1.9 <= observed_order(axis) <= 2.1
    assert 1.9 <= observed_order(interior) <= 2.1


@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("h", [0.05, 0.03])
def test_scaled_operator_is_the_pointwise_one_times_b_over_a_squared(
        curved, n, h, rng):
    metric = METRICS["conformal"] if curved else euclidean_metric(3)
    r = np.linspace(0.5, 20.0, 400)
    w, fp = radial_factors(metric, r)
    du = w * rng.uniform(-0.95, 0.95, r.size)
    d2u = rng.uniform(-5.0, 5.0, r.size)
    a, b = 2.0 * h, h * h
    results = []
    for op, s, q in ((RadialOperator(n, r, w, fp), du, d2u),
                     (RadialOperator(n, r, w, fp, a, b), a * du, b * d2u)):
        assert (op.g is None) != curved and (op.k is None) == (n == 1)
        comp = op.complement(s, np.empty(r.size))
        results.append(op.rhs(s, q, comp, np.empty(r.size),
                              np.empty(r.size)))
    pointwise, scaled = results
    expected = pointwise * (b / (a * a))
    assert np.all(np.abs(scaled - expected) <= 1e-13 * np.abs(expected))


def test_closed_form_complement_on_a_curved_background():
    # the barriers' path: C = (1 - b'^2) + (w^2 - 1) from the profile's
    # closed-form complement agrees with C formed from b' and with the
    # Cartesian operator on the rotationally symmetric extension
    metric = METRICS["schwarzschild"]
    r0 = 1.5
    radii = np.geomspace(r0, 40.0, 60)
    b1, b2, comp = supersolution_profile_derivs(3, r0, radii)
    closed = curved_profile_speed(metric, 3, r0, radii)
    w, fp = radial_factors(metric, radii)
    formed = radial_flow_rhs(3, radii, b1, b2, w, fp)
    assert np.all(np.abs(closed - formed) <= 1e-13 * np.abs(formed))
    for i in range(0, radii.size, 6):
        r = radii[i]
        x = np.array([r, 0.0, 0.0])
        grad = np.array([b1[i], 0.0, 0.0])
        hess = np.diag([b2[i], b1[i] / r, b1[i] / r])
        cart = mcf_operator_cartesian(metric, x, grad, hess)
        assert closed[i] == pytest.approx(cart, rel=1e-12)


def test_closed_form_complement_is_used_as_given_on_flat_grids():
    # with w = 1 the complement enters as (1 - b'^2) + 0: the flat speed is
    # b'' / (1 - b'^2) + (n - 1) b' / r, bit for bit
    radii = np.geomspace(0.7, 50.0, 80)
    b1, b2, comp = supersolution_profile_derivs(4, 0.7, radii)
    w, fp = radial_factors(euclidean_metric(4), radii)
    speed = radial_flow_rhs(4, radii, b1, b2, w, fp, one_minus_slope_sq=comp)
    assert speed.tobytes() == (b2 / comp + (3 * (1.0 / radii + fp)) * b1) \
        .tobytes()
