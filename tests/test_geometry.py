import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflow.geometry import (DomainError, RadialMetric,
                             SpacelikeViolationError, conformal_metric,
                             euclidean_metric, graph_quantities,
                             mcf_operator_cartesian, mcf_operator_radial,
                             metric_eval, ricci_eval, ricci_form_bound)


def random_metric(rng, allow_flat=True):
    n = int(rng.integers(1, 6))
    if allow_flat and rng.random() < 0.25:
        return euclidean_metric(n)
    return conformal_metric(n, a=float(rng.uniform(0.01, 1.0)),
                            tau=float(rng.uniform(0.5, 2.0)))


# ---------------------------------------------------------------------------
# metric evaluation
# ---------------------------------------------------------------------------

def test_family_invariant():
    with pytest.raises(ValueError):
        RadialMetric(n=3, family="euclidean", a=0.5)
    with pytest.raises(ValueError):
        RadialMetric(n=3, family="conformal_power", a=0.0)
    with pytest.raises(ValueError):
        RadialMetric(n=3, family="conformal_power", a=1.0, tau=-1.0)


def test_euclidean_metric_eval():
    sigma, sigma_inv, gamma = metric_eval(euclidean_metric(3), [0.3, -2.0, 5.0])
    assert np.array_equal(sigma, np.eye(3))
    assert np.array_equal(sigma_inv, np.eye(3))
    assert np.all(gamma == 0.0)


def test_conformal_sigma_component():
    m = conformal_metric(3, a=1.0, tau=1.0)
    sigma, sigma_inv, _ = metric_eval(m, [2.0, 0.0, 0.0])
    # w(2) = 1.5
    assert sigma[0, 0] == pytest.approx(2.25, abs=1e-15)
    assert sigma_inv[0, 0] == pytest.approx(1 / 2.25, abs=1e-15)
    assert np.allclose(sigma @ sigma_inv, np.eye(3), atol=1e-15)


def test_conformal_christoffel_value():
    m = conformal_metric(3, a=1.0, tau=1.0)
    gamma = metric_eval(m, [2.0, 0.0, 0.0])[2]
    # f' = w'/w = -0.25/1.5 at r=2, along the axis Gamma^1_11 = f_1
    assert gamma[0, 0, 0] == pytest.approx(-1.0 / 6.0, abs=1e-15)


def _christoffel_from_sigma_fd(metric, x, h=1e-5):
    """Oracle: Gamma^k_ij = 1/2 sigma^{kl} (s_li,j + s_lj,i - s_ij,l) by
    central differences of sigma."""
    n = metric.n
    x = np.asarray(x, dtype=float)

    def sig(y):
        return float(metric.w(np.linalg.norm(y))) ** 2 * np.eye(n)

    dsig = np.zeros((n, n, n))
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        dsig[l] = (sig(x + e) - sig(x - e)) / (2 * h)
    sigma_inv = np.linalg.inv(sig(x))
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gamma[k, i, j] = 0.5 * sum(
                    sigma_inv[k, l] * (dsig[j, l, i] + dsig[i, l, j] - dsig[l, i, j])
                    for l in range(n))
    return gamma


def test_christoffel_against_fd_oracle(rng):
    for _ in range(10):
        m = random_metric(rng, allow_flat=False)
        x = rng.normal(size=m.n)
        x *= rng.uniform(1.0, 10.0) / np.linalg.norm(x)
        gamma = metric_eval(m, x)[2]
        oracle = _christoffel_from_sigma_fd(m, x)
        assert np.max(np.abs(gamma - oracle)) < 1e-8
        # symmetry in the lower pair
        assert np.max(np.abs(gamma - np.transpose(gamma, (0, 2, 1)))) == 0.0


def test_metric_domain_errors():
    m = conformal_metric(3, a=1.0, tau=1.0)
    with pytest.raises(DomainError):
        metric_eval(m, [0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        metric_eval(m, [np.nan, 1.0, 1.0])
    # flat metric is fine at the origin
    metric_eval(euclidean_metric(2), [0.0, 0.0])


# ---------------------------------------------------------------------------
# Ricci
# ---------------------------------------------------------------------------

def _ricci_conformal_closed(metric, x):
    """Oracle: Ric = -(n-2)(Hess f - df df) - (Lap f + (n-2)|df|^2) delta."""
    n = metric.n
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    fp = float(metric.dw(r)) / float(metric.w(r))
    h = 1e-6 * r
    fpp = (float(metric.dw(r + h)) / float(metric.w(r + h))
           - float(metric.dw(r - h)) / float(metric.w(r - h))) / (2 * h)
    xi = x / r
    hess = fpp * np.outer(xi, xi) + fp * (np.eye(n) - np.outer(xi, xi)) / r
    df = fp * xi
    lap = fpp + (n - 1) * fp / r
    return -(n - 2) * (hess - np.outer(df, df)) - (lap + (n - 2) * fp ** 2) * np.eye(n)


def test_ricci_euclidean_exactly_zero():
    assert np.all(ricci_eval(euclidean_metric(4), [1.0, 2.0, 3.0, 4.0]) == 0.0)


def test_ricci_against_conformal_closed_form(rng):
    for _ in range(6):
        m = random_metric(rng, allow_flat=False)
        if m.n < 2:
            continue
        x = rng.normal(size=m.n)
        x *= rng.uniform(2.0, 8.0) / np.linalg.norm(x)
        ric = ricci_eval(m, x)
        oracle = _ricci_conformal_closed(m, x)
        assert np.max(np.abs(ric - oracle)) < 1e-8
        assert np.max(np.abs(ric - ric.T)) < 1e-9


def test_schwarzschild_slice_is_scalar_flat():
    # w = (1 + m/(2r))^2 with m = 1: the conformal factor of the
    # time-symmetric vacuum slice; its scalar curvature vanishes.
    m = conformal_metric(3, a=0.5, tau=1.0, power=2.0)
    for r in (3.0, 5.0, 10.0):
        x = np.full(3, r / np.sqrt(3.0))
        ric = ricci_eval(m, x)
        sigma_inv = metric_eval(m, x)[1]
        scalar = float(np.sum(sigma_inv * ric))
        assert abs(scalar) < 1e-6


def test_ricci_form_bound_finite_and_controls_normal_direction(rng):
    m = conformal_metric(3, a=0.5, tau=1.0)
    c = ricci_form_bound(m, 2.0, 100.0)
    assert 0.0 < c < np.inf
    # |Ric(v^2 grad u, grad u)| <= C (v^2 - 1) at sampled graph configurations
    for _ in range(50):
        r = float(rng.uniform(2.0, 100.0))
        x = np.zeros(3)
        x[0] = r
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        s = rng.uniform(0.1, 0.95)
        grad = direction * s * float(m.w(r))
        q = graph_quantities(m, x, grad)
        ric = ricci_eval(m, x)
        ric_normal = q.v ** 2 * float(grad @ ric @ grad)
        assert abs(ric_normal) <= c * (q.v ** 2 - 1.0) * (1 + 1e-9)


def test_ricci_form_bound_keeps_a_nan(monkeypatch):
    # a NaN tensor at the third radius: Python's max would keep the others
    from mcflow import geometry
    ricci, calls = geometry.ricci_eval, []

    def nan_third(metric, x):
        calls.append(x)
        ric = ricci(metric, x)
        return ric * np.nan if len(calls) == 3 else ric
    monkeypatch.setattr(geometry, "ricci_eval", nan_third)
    assert np.isnan(ricci_form_bound(conformal_metric(3, a=0.5, tau=1.0),
                                     2.0, 100.0))


# ---------------------------------------------------------------------------
# graph quantities
# ---------------------------------------------------------------------------

def test_graph_quantities_zero_gradient():
    m = conformal_metric(3, a=0.7, tau=1.0)
    x = np.array([1.0, 2.0, -1.0])
    q = graph_quantities(m, x, np.zeros(3))
    sigma, sigma_inv, _ = metric_eval(m, x)
    assert q.v == 1.0
    assert np.allclose(q.g, sigma, atol=1e-15)
    assert np.allclose(q.g_inv, sigma_inv, atol=1e-15)


def test_graph_inverse_metric_1d_example():
    # flat n=1, u' = 0.5: g^11 = 1 + 0.25 / 0.75 = 4/3
    q = graph_quantities(euclidean_metric(1), [1.0], [0.5])
    assert q.g_inv[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_tilt_factor_example():
    # |grad u| = 0.6 flat: v = 1.25 and |grad u|^2_g = v^2 - 1 = 0.5625
    q = graph_quantities(euclidean_metric(3), [1.0, 0.0, 0.0],
                         [0.6, 0.0, 0.0])
    assert q.v == pytest.approx(1.25, abs=1e-15)
    grad = np.array([0.6, 0.0, 0.0])
    assert grad @ q.g_inv @ grad == pytest.approx(0.5625, abs=1e-12)


def test_spacelike_violation_raised():
    with pytest.raises(SpacelikeViolationError):
        graph_quantities(euclidean_metric(2), [1.0, 1.0], [1.0, 0.0])
    with pytest.raises(SpacelikeViolationError):
        graph_quantities(euclidean_metric(2), [1.0, 1.0],
                         [1.0 - 1e-12, 0.0])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_graph_identities_property(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = random_metric(rng)
    x = rng.normal(size=m.n)
    x *= rng.uniform(0.5, 20.0) / np.linalg.norm(x)
    direction = rng.normal(size=m.n)
    direction /= np.linalg.norm(direction)
    s = data.draw(st.floats(0.0, 0.999))
    grad = direction * s * float(m.w(np.linalg.norm(x)))
    q = graph_quantities(m, x, grad)
    assert q.v >= 1.0
    assert np.max(np.abs(q.g @ q.g_inv - np.eye(m.n))) < 1e-12
    assert abs(float(grad @ q.g_inv @ grad) - (q.v ** 2 - 1.0)) < 1e-12
    # entrywise g = sigma - du x du
    sigma = metric_eval(m, x)[0]
    assert np.allclose(q.g, sigma - np.outer(grad, grad), atol=1e-15)


def test_quadratic_form_sandwich(rng):
    m = conformal_metric(4, a=0.8, tau=0.7)
    x = np.array([2.0, -1.0, 0.5, 3.0])
    grad = np.array([0.4, -0.3, 0.2, 0.1]) * float(m.w(np.linalg.norm(x)))
    q = graph_quantities(m, x, grad)
    sigma = metric_eval(m, x)[0]
    for _ in range(1000):
        wvec = rng.normal(size=4)
        s_form = wvec @ sigma @ wvec
        g_form = wvec @ q.g @ wvec
        assert s_form / q.v ** 2 <= g_form + 1e-12
        assert g_form <= s_form + 1e-12


# ---------------------------------------------------------------------------
# flow operators
# ---------------------------------------------------------------------------

def test_cartesian_operator_flat_zero_gradient_is_trace():
    hess = np.array([[2.0, 0.5, 0.0], [0.5, -1.0, 0.3], [0.0, 0.3, 4.0]])
    val = mcf_operator_cartesian(euclidean_metric(3), [1.0, 1.0, 1.0],
                                 np.zeros(3), hess)
    assert val == pytest.approx(np.trace(hess), abs=1e-14)


def test_cartesian_operator_radial_example():
    # flat n=3, radial slope 0.5 with zero curvature at r=2: (n-1) u'/r = 0.5
    x = np.array([2.0, 0.0, 0.0])
    grad = np.array([0.5, 0.0, 0.0])
    hess = np.diag([0.0, 0.25, 0.25])
    val = mcf_operator_cartesian(euclidean_metric(3), x, grad, hess)
    assert val == pytest.approx(0.5, abs=1e-14)


def _contraction_oracle(metric, x, grad, hess):
    """Independent triple-loop contraction of g^{ij} (u_ij - Gamma^k_ij u_k)."""
    n = metric.n
    sigma, sigma_inv, gamma = metric_eval(metric, x)
    du2 = sum(sigma_inv[k, l] * grad[k] * grad[l]
              for k in range(n) for l in range(n))
    total = 0.0
    for i in range(n):
        for j in range(n):
            ginv_ij = sigma_inv[i, j] + sum(
                sigma_inv[i, k] * sigma_inv[j, l] * grad[k] * grad[l]
                for k in range(n) for l in range(n)) / (1.0 - du2)
            cov = hess[i, j] - sum(gamma[k, i, j] * grad[k] for k in range(n))
            total += ginv_ij * cov
    return total


def test_cartesian_operator_against_contraction_oracle(rng):
    for _ in range(20):
        m = random_metric(rng, allow_flat=False)
        x = rng.normal(size=m.n)
        x *= rng.uniform(1.0, 10.0) / np.linalg.norm(x)
        direction = rng.normal(size=m.n)
        direction /= np.linalg.norm(direction)
        grad = direction * rng.uniform(0.0, 0.9) * float(m.w(np.linalg.norm(x)))
        hess = rng.normal(size=(m.n, m.n))
        hess = 0.5 * (hess + hess.T)
        val = mcf_operator_cartesian(m, x, grad, hess)
        assert val == pytest.approx(_contraction_oracle(m, x, grad, hess),
                                    abs=1e-12)


def test_radial_operator_examples():
    flat3 = euclidean_metric(3)
    assert mcf_operator_radial(flat3, 2.0, 0.5, 0.0) == pytest.approx(0.5, abs=1e-14)
    assert mcf_operator_radial(flat3, 7.3, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        mcf_operator_radial(flat3, 0.0, 0.1, 0.0)
    with pytest.raises(SpacelikeViolationError):
        mcf_operator_radial(flat3, 1.0, 1.0, 0.0)


def test_radial_matches_cartesian_on_symmetric_extension(rng):
    worst = 0.0
    for _ in range(100):
        m = random_metric(rng)
        r = float(rng.uniform(0.5, 20.0))
        du = float(rng.uniform(-0.95, 0.95)) * float(m.w(r))
        d2u = float(rng.uniform(-2.0, 2.0))
        x = np.zeros(m.n)
        x[0] = r
        grad = np.zeros(m.n)
        grad[0] = du
        hess = np.diag(np.full(m.n, du / r))
        hess[0, 0] = d2u
        worst = max(worst, abs(mcf_operator_cartesian(m, x, grad, hess)
                               - mcf_operator_radial(m, r, du, d2u)))
    assert worst < 1e-10


def test_flat_case_has_no_christoffel_correction(rng):
    # with a = 0 the operator is g^{ij}(delta, du) u_ij exactly
    m = euclidean_metric(3)
    for _ in range(10):
        x = rng.normal(size=3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        grad = direction * rng.uniform(0.0, 0.9)
        hess = rng.normal(size=(3, 3))
        hess = 0.5 * (hess + hess.T)
        q = graph_quantities(m, x, grad)
        assert mcf_operator_cartesian(m, x, grad, hess) == pytest.approx(
            float(np.sum(q.g_inv * hess)), abs=1e-13)
