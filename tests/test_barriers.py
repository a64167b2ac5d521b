import warnings

import numpy as np
import pytest

from mcflow import barriers
from mcflow.barriers import (QuadratureError, TranslatingBarrier, _heights,
                             build_outer_barrier, curved_profile_speed,
                             maximal_slope, maximal_surface_residual,
                             supersolution_height,
                             supersolution_profile_derivs,
                             translating_barrier_certificate,
                             translating_barrier_eval,
                             verify_static_supersolution)
from mcflow.geometry import (DomainError, conformal_metric, euclidean_metric,
                             mcf_operator_cartesian, radial_factors,
                             radial_flow_rhs)


# ---------------------------------------------------------------------------
# exact stationary profile
# ---------------------------------------------------------------------------

def test_maximal_slope_values():
    assert maximal_slope(3, 1.0, 1.0) == pytest.approx(-1 / np.sqrt(2), abs=1e-12)
    assert maximal_slope(3, 1.0, 0.0) == -1.0
    assert maximal_slope(3, 1.0, 10.0) == pytest.approx(-(1 + 1e4) ** -0.5,
                                                        abs=1e-12)
    with pytest.raises(DomainError):
        maximal_slope(3, 0.0, 1.0)
    with pytest.raises(DomainError):
        maximal_slope(3, -1.0, 1.0)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_maximal_surface_residual_vanishes(n, c):
    radii = np.geomspace(0.1, 100.0, 101)
    assert np.max(np.abs(maximal_surface_residual(n, c, radii))) < 1e-10


# ---------------------------------------------------------------------------
# static profile derivatives and heights
# ---------------------------------------------------------------------------

def test_profile_derivs_at_inner_radius():
    b1, b2, comp = supersolution_profile_derivs(3, 2.0, 2.0)
    assert b1 == pytest.approx(-1 / np.sqrt(2), abs=1e-15)
    assert comp == pytest.approx(0.5, abs=1e-15)
    # (3/2) * (1/2) * 1 / 2^{3/2}
    assert b2 == pytest.approx(0.75 / 2 ** 1.5, abs=1e-12)
    assert b2 == pytest.approx(0.2651650, abs=1e-7)


def test_profile_derivs_limits_and_errors():
    b1, _, comp = supersolution_profile_derivs(3, 2.0, 1e8)
    assert abs(b1) < 1e-5
    assert comp == pytest.approx(1.0, abs=1e-11)
    with pytest.raises(DomainError):
        supersolution_profile_derivs(3, 2.0, 1.0)
    with pytest.raises(DomainError):
        supersolution_profile_derivs(2, 2.0, 3.0)


def test_profile_second_derivative_consistent_with_slope():
    h = 1e-5
    for n in (3, 4, 5):
        for r in (2.1, 5.0, 50.0):
            up = supersolution_profile_derivs(n, 2.0, r + h)[0]
            dn = supersolution_profile_derivs(n, 2.0, r - h)[0]
            b2 = supersolution_profile_derivs(n, 2.0, r)[1]
            assert b2 == pytest.approx((up - dn) / (2 * h), abs=1e-8)


def reference_height(n, r0, r, terms=80):
    """b(r) without the exp-sinh rule.  For r >= 2 r0 the convergent series
    b(r) = r0 sum_k C(-1/2, k) x^{1 - m(k + 1/2)} / (m(k + 1/2) - 1), with
    x = r/r0 and m = 2n - 3; inside, b(2 r0) plus composite Gauss-Legendre
    of |b'| over [r, 2 r0] (64 panels of 20 nodes)."""
    m = 2 * n - 3
    x = max(r / r0, 2.0)
    k = np.arange(terms)
    binom = np.cumprod(np.concatenate([[1.0], (-0.5 - k[:-1]) / (k[:-1] + 1)]))
    p = m * (k + 0.5)
    height = r0 * np.sum(binom * x ** (1.0 - p) / (p - 1.0))
    if r >= 2.0 * r0:
        return height
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(r / r0, 2.0, 65)
    lo, hi = edges[:-1, None], edges[1:, None]
    s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    panels = ((1.0 + s ** m) ** -0.5 @ weights) * 0.5 * (hi - lo)[:, 0]
    return height + r0 * np.sum(panels)


def test_height_tail_and_oracle():
    for n, r0, r in [(3, 1.0, 1.0), (3, 1.0, 100.0), (4, 2.0, 3.0),
                     (5, 0.5, 10.0)]:
        assert supersolution_height(n, r0, r) == pytest.approx(
            reference_height(n, r0, r), abs=1e-9)
    # n=3 leading tail: 2 r0^{3/2} r^{-1/2}
    assert supersolution_height(3, 1.0, 100.0) == pytest.approx(0.2, rel=0.02)


@pytest.mark.parametrize("n", [3, 4, 5, 20, 40])
@pytest.mark.parametrize("r0", [1.0, 2.0, 64.0])
def test_heights_match_the_reference(n, r0):
    ratios = np.concatenate([np.geomspace(1.0, 1.0e4, 41), [1.5, 1.999]])
    expected = np.array([reference_height(n, r0, x * r0) for x in ratios])
    tabulated = _heights(n, r0, ratios * r0)
    single = np.array([supersolution_height(n, r0, x * r0) for x in ratios])
    assert np.max(np.abs(tabulated / expected - 1.0)) <= 1e-13
    assert np.max(np.abs(single / expected - 1.0)) <= 1e-13


def test_height_in_dimension_40_far_out():
    # b(1e4 r0) = r0 1e-150 / 37.5 up to a relative 1e-308: far below the
    # rounding unit of 1, where (1 + x^77)^{-1/2} would overflow to 0
    expected = 1.0e-150 / 37.5
    assert reference_height(40, 1.0, 1.0e4) == pytest.approx(expected,
                                                             rel=1e-15)
    assert supersolution_height(40, 1.0, 1.0e4) == pytest.approx(expected,
                                                                 rel=1e-13)


def test_coarse_height_rule_raises(monkeypatch):
    # at step 1/16 the rule and its every-other-node rule (step 1/8) are
    # 2e-8 apart for n = 3, above the 1e-10 max b = 1.9e-10 the rule accepts
    monkeypatch.setattr(barriers, "HEIGHT_STEP", 1.0 / 16.0)
    with pytest.raises(QuadratureError):
        _heights(3, 1.0, np.geomspace(1.0, 1.0e4, 64))


def test_height_monotone_decreasing():
    radii = np.geomspace(1.0, 500.0, 12)
    heights = [supersolution_height(3, 1.0, r) for r in radii]
    assert np.all(np.diff(heights) < 0)
    assert all(h > 0 for h in heights)


# ---------------------------------------------------------------------------
# profile construction
# ---------------------------------------------------------------------------

def test_build_outer_barrier_flat():
    prof = build_outer_barrier(3, r1_min=10.0, h=2.0, eps=0.0)
    assert prof.r0 >= 10.0
    assert supersolution_height(3, prof.r0, prof.r0) >= 2.0
    assert prof.value(prof.r0 / 2) == prof.cap == 2.0
    # strictly decreasing tabulated values
    assert np.all(np.diff(prof.b_values) < 0)
    # tail of the evaluator tends to eps
    assert prof.value(1e9 * prof.r0) < 1e-3


def test_profile_tail_approximation_error_small():
    prof = build_outer_barrier(3, r1_min=4.0, h=1.0, eps=0.0)
    outer = prof.r_grid[-1]
    exact = supersolution_height(3, prof.r0, outer)
    tail = prof.tail_coeff * outer ** -(3 - 2.5)
    assert abs(exact - tail) <= 1e-6 * prof.cap


def test_profile_tail_bracket_reported():
    prof = build_outer_barrier(3, r1_min=2.0, h=0.5, eps=0.0)
    mask = prof.r_grid >= 4.0 * prof.r0
    ratio = (prof.b_values[mask] - prof.eps) / (
        prof.r0 ** 1.5 * prof.r_grid[mask] ** -0.5)
    bracket = max(ratio.max(), 1.0 / ratio.min())
    assert np.isfinite(bracket)
    assert ratio.min() > 0
    # the leading-coefficient normalisation keeps the bracket modest
    assert bracket < 4.0


def test_profile_value_interpolation_accuracy():
    prof = build_outer_barrier(3, r1_min=3.0, h=1.0, eps=0.1)
    for r in (3.7, 11.0, 123.0, 2.5e4 * 0.9):
        if r < prof.r0:
            continue
        assert prof.value(r) == pytest.approx(
            supersolution_height(3, prof.r0, r) + 0.1, rel=1e-5)


def test_offset_covariance():
    base = build_outer_barrier(3, r1_min=10.0, h=2.0, eps=0.0)
    lifted = build_outer_barrier(3, r1_min=10.0, h=2.0, eps=0.5)
    assert lifted.r0 == base.r0
    assert np.max(np.abs(lifted.b_values - base.b_values - 0.5)) < 1e-12
    radii = np.geomspace(base.r0, 100 * base.r0, 50)
    assert np.max(np.abs(lifted.value(radii) - base.value(radii) - 0.5)) < 1e-9


def test_build_outer_barrier_curved_and_failure():
    metric = conformal_metric(3, a=0.5, tau=1.0)
    prof = build_outer_barrier(3, r1_min=5.0, h=0.5, eps=0.05, metric=metric)
    radii = np.geomspace(prof.r0, 1e4 * prof.r0, 256)
    assert np.max(curved_profile_speed(metric, 3, prof.r0, radii)) <= 0.0
    with pytest.raises(DomainError):
        build_outer_barrier(3, r1_min=1.0, h=-1.0, eps=0.0)
    with pytest.raises(DomainError):
        build_outer_barrier(2, r1_min=1.0, h=1.0, eps=0.0)


# ---------------------------------------------------------------------------
# supersolution verification report
# ---------------------------------------------------------------------------

def test_flat_identity_value_in_report():
    prof = build_outer_barrier(3, r1_min=2.0, h=0.1, eps=0.0)
    assert prof.r0 == 2.0
    row, = verify_static_supersolution(euclidean_metric(3), prof, [2.0])
    # (1/2) b'(r0) / r0 = -1/(sqrt(2) * 4)
    assert row["flat_value"] == pytest.approx(-1 / (4 * np.sqrt(2)), abs=1e-12)
    assert row["flat_value"] == pytest.approx(-0.1767767, abs=1e-7)
    assert row["identity_deviation"] < 1e-12
    assert row["pass"] is True


def test_report_json_rows_schema():
    prof = build_outer_barrier(3, r1_min=2.0, h=0.1, eps=0.0)
    rows = verify_static_supersolution(
        conformal_metric(3, a=0.3, tau=1.0), prof, np.geomspace(2.0, 100.0, 7))
    assert len(rows) == 7
    for row in rows:
        assert set(row) == {"radius", "flat_value", "identity_deviation",
                            "curved_value", "pass"}
        assert row["pass"] is True
        assert row["curved_value"] <= 0.0


@pytest.mark.parametrize("a", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_curved_sign_certificate(a, tau):
    metric = conformal_metric(3, a=a, tau=tau)
    prof = build_outer_barrier(3, r1_min=2.0, h=0.5, eps=0.0, metric=metric)
    rows = verify_static_supersolution(
        metric, prof, np.geomspace(prof.r0, 1e4 * prof.r0, 64))
    assert all(row["pass"] for row in rows)


def test_negation_yields_subsolution():
    # speed(-b) = -speed(b): evenness of the coefficient in the gradient
    n = 3
    metric = conformal_metric(n, a=0.4, tau=0.8)
    radii = np.geomspace(2.0, 200.0, 33)
    b1, b2, comp = supersolution_profile_derivs(n, 2.0, radii)
    w, fp = radial_factors(metric, radii)
    plus = radial_flow_rhs(n, radii, b1, b2, w, fp, one_minus_slope_sq=comp)
    minus = radial_flow_rhs(n, radii, -b1, -b2, w, fp, one_minus_slope_sq=comp)
    assert np.max(np.abs(plus + minus)) < 1e-12


def test_offset_leaves_speed_unchanged():
    # the operator sees only derivatives; profiles with different offsets
    # produce identical curved speeds
    metric = conformal_metric(3, a=0.5, tau=1.0)
    base = build_outer_barrier(3, r1_min=4.0, h=0.5, eps=0.0, metric=metric)
    lifted = build_outer_barrier(3, r1_min=4.0, h=0.5, eps=0.7, metric=metric)
    radii = np.geomspace(base.r0, 50 * base.r0, 17)
    v0 = curved_profile_speed(metric, 3, base.r0, radii)
    v1 = curved_profile_speed(metric, 3, lifted.r0, radii)
    assert np.max(np.abs(v0 - v1)) < 1e-12


# ---------------------------------------------------------------------------
# translating profile
# ---------------------------------------------------------------------------

def test_translating_values_at_center():
    tb = TranslatingBarrier(n=3, x0=np.zeros(3), t0=-4.0, alpha=0.0, mu=0.5)
    value, dtv, grad, hess = translating_barrier_eval(tb, np.zeros(3), 0.0)
    assert value == pytest.approx(np.sqrt(24.0), abs=1e-12)
    assert dtv == pytest.approx(3.0 / np.sqrt(24.0), abs=1e-12)
    assert np.all(grad == 0.0)
    assert np.allclose(hess, np.eye(3) / np.sqrt(24.0), atol=1e-15)


def test_translating_rho_formula_and_validation():
    tb = TranslatingBarrier(n=3, x0=np.zeros(3), t0=-4.0, alpha=0.0, mu=0.5)
    assert tb.rho == pytest.approx(12.0, abs=1e-12)
    with pytest.raises(ValueError):
        TranslatingBarrier(n=3, x0=np.zeros(3), t0=-0.5, alpha=0.0, mu=0.5)
    with pytest.raises(ValueError):
        TranslatingBarrier(n=3, x0=np.zeros(3), t0=-4.0, alpha=0.0, mu=1.5)
    with pytest.raises(ValueError):
        TranslatingBarrier(n=3, x0=np.zeros(3), t0=-4.0, alpha=-1.0, mu=0.5)


def test_translating_domain_errors():
    tb = TranslatingBarrier(n=3, x0=np.zeros(3), t0=-4.0, alpha=0.0, mu=0.5)
    with pytest.raises(DomainError):
        translating_barrier_eval(tb, np.array([13.0, 0.0, 0.0]), 0.0)
    with pytest.raises(DomainError):
        translating_barrier_eval(tb, np.zeros(3), 5.0)


def test_translating_flat_identity_random(rng):
    from mcflow.geometry import graph_quantities
    flat = euclidean_metric(3)
    tb = TranslatingBarrier(n=3, x0=np.array([1.0, -2.0, 0.5]), t0=-7.0,
                            alpha=0.3, mu=0.4)
    for _ in range(100):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        x = tb.x0 + d * tb.rho * rng.uniform(0, 1)
        t = rng.uniform(0, 7.0)
        _, dtv, grad, hess = translating_barrier_eval(tb, x, t)
        q = graph_quantities(flat, x, grad)
        assert abs(dtv - float(np.sum(q.g_inv * hess)) - 0.3) < 1e-12


def test_translating_derivatives_against_fd():
    tb = TranslatingBarrier(n=3, x0=np.zeros(3), t0=-9.0, alpha=0.2, mu=0.3)
    x = np.array([1.0, 2.0, -0.5])
    t = 3.0
    h = 1e-6
    value, dtv, grad, hess = translating_barrier_eval(tb, x, t)
    fd_t = (translating_barrier_eval(tb, x, t + h)[0]
            - translating_barrier_eval(tb, x, t - h)[0]) / (2 * h)
    assert dtv == pytest.approx(fd_t, abs=1e-7)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd_g = (translating_barrier_eval(tb, x + e, t)[0]
                - translating_barrier_eval(tb, x - e, t)[0]) / (2 * h)
        assert grad[i] == pytest.approx(fd_g, abs=1e-7)
        fd_h = (translating_barrier_eval(tb, x + e, t)[2]
                - translating_barrier_eval(tb, x - e, t)[2]) / (2 * h)
        assert np.allclose(hess[i], fd_h, atol=1e-7)


def test_translating_certificate_exact_values():
    tb = TranslatingBarrier(n=3, x0=np.zeros(3), t0=-4.0, alpha=0.0, mu=0.5)
    cert = translating_barrier_certificate(tb)
    assert cert["rho"] == pytest.approx(12.0, abs=1e-12)
    # worst slope complement is mu / (4 - mu) = 1/7 >= mu/4 = 1/8
    assert cert["min_gradient_complement"] == pytest.approx(1 / 7, abs=1e-12)
    assert cert["gradient_bound"] == pytest.approx(0.125, abs=1e-15)
    assert cert["min_boundary_slope"] == pytest.approx(np.sqrt(0.75),
                                                       abs=1e-12)
    assert cert["pass"] is True


@pytest.mark.parametrize("mu", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("t0", [-2.0, -10.0, -100.0])
def test_translating_certificate_sweep(mu, t0):
    tb = TranslatingBarrier(n=3, x0=np.zeros(3), t0=t0, alpha=0.0, mu=mu)
    cert = translating_barrier_certificate(tb)
    assert cert["pass"] is True
    assert cert["min_gradient_complement"] == pytest.approx(mu / (4 - mu),
                                                            rel=1e-9)


def test_translating_curved_residual_positive_far_out(rng):
    # under a curved background d_t b_hat - speed turns positive once the
    # ball sits far enough out; find the first passing center distance
    metric = conformal_metric(3, a=0.5, tau=1.0)
    tb_params = dict(n=3, t0=-2.0, alpha=0.1, mu=0.5)
    rho = TranslatingBarrier(x0=np.zeros(3), **tb_params).rho
    threshold = None
    for dist in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0):
        tb = TranslatingBarrier(x0=np.array([dist + rho, 0.0, 0.0]),
                                **tb_params)
        residuals = []
        for _ in range(64):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            x = tb.x0 + direction * tb.rho * rng.uniform(0.0, 1.0)
            _, dtv, grad, hess = translating_barrier_eval(
                tb, x, rng.uniform(0.0, -tb.t0))
            residuals.append(dtv - mcf_operator_cartesian(metric, x, grad,
                                                          hess))
        if np.min(residuals) > 0.0:  # a NaN fails
            threshold = dist
            break
    assert threshold is not None


def test_profile_in_dimension_40_reaches_its_limits_without_warnings():
    # (s/r0)^77 overflows in the height quadrature, where |b'| is 0, and
    # the tabulated heights fall below the rounding unit of eps, where b_eps
    # is eps: both limits are taken, with no warning and no NaN
    metric = conformal_metric(40, a=0.5, tau=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = build_outer_barrier(40, r1_min=4.4, h=0.3, eps=0.05,
                                      metric=metric)
        height = supersolution_height(40, profile.r0, profile.r0)
        r = np.geomspace(profile.r0, 2.0 * profile.r_grid[-1], 400)
        values = profile.value(r)
    assert np.isfinite(profile.b_values).all() and np.isfinite(height)
    assert profile.b_values[0] == pytest.approx(height + 0.05, rel=1e-9)
    assert np.isfinite(values).all() and np.all(np.diff(values) <= 0.0)
    assert values[-1] == 0.05 and profile.b_values[-1] == 0.05
