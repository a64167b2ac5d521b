import numpy as np
import pytest

from mcflow.fields import line_field, radial_field
from mcflow.geometry import DomainError, conformal_metric, euclidean_metric
from mcflow.initial_data import (decay_radius,
                                 interpolate_initial_data, lipschitz_constant,
                                 smooth_cutoff, smooth_cutoff_deriv)


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

def test_cutoff_values():
    assert smooth_cutoff(1.0, 2.0, 0.5) == 1.0
    assert smooth_cutoff(1.0, 2.0, 3.0) == 0.0
    assert smooth_cutoff(1.0, 2.0, 1.5) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        smooth_cutoff(2.0, 1.0, 0.0)


def test_cutoff_monotone_and_c2():
    x = np.linspace(0.5, 2.5, 4001)
    psi = smooth_cutoff(1.0, 2.0, x)
    assert np.all(np.diff(psi) <= 0)
    assert np.all((psi >= 0) & (psi <= 1))
    # derivative bound 2 / (s_hi - s_lo) and FD consistency
    dpsi = smooth_cutoff_deriv(1.0, 2.0, x)
    assert np.max(np.abs(dpsi)) <= 2.0
    fd = np.gradient(psi, x)
    assert np.max(np.abs(fd - dpsi)) < 1e-5
    # C^2: first derivative vanishes at the junctions, second derivative
    # tends to zero approaching them from inside
    assert smooth_cutoff_deriv(1.0, 2.0, 1.0) == 0.0
    assert smooth_cutoff_deriv(1.0, 2.0, 2.0) == 0.0
    h = 1e-6
    for s in (1.0 + 1e-4, 2.0 - 1e-4):
        d2 = (smooth_cutoff_deriv(1.0, 2.0, s + h)
              - smooth_cutoff_deriv(1.0, 2.0, s - h)) / (2 * h)
        assert abs(d2) < 0.01


# ---------------------------------------------------------------------------
# slope and decay functionals
# ---------------------------------------------------------------------------

def test_lipschitz_constant_basics():
    flat = euclidean_metric(1)
    const = line_field(-5.0, 5.0, 0.1, lambda x: np.full_like(x, 2.0),
                       bc=("asymptotic_decay", "asymptotic_decay"))
    assert lipschitz_constant(flat, const) == 0.0
    linear = line_field(-5.0, 5.0, 0.1, lambda x: 0.5 * x,
                        bc=("asymptotic_decay", "asymptotic_decay"))
    assert lipschitz_constant(flat, linear) == pytest.approx(0.5, abs=1e-12)


def test_lipschitz_constant_conformal_radial():
    metric = conformal_metric(3, a=1.0, tau=1.0)
    fld = radial_field(1.0, 10.0, 0.05, lambda r: 0.5 * r,
                       bc=("asymptotic_decay", "asymptotic_decay"))
    # |u'|/w maximal where w is smallest, i.e. at the outer radius
    expected = 0.5 / float(metric.w(10.0))
    assert lipschitz_constant(metric, fld) == pytest.approx(expected, abs=1e-12)


def test_decay_radius_cases():
    zero = radial_field(0.0, 10.0, 0.1, lambda r: np.zeros_like(r))
    assert decay_radius(zero, 0.5) == 0.0
    bump = radial_field(0.0, 10.0, 0.1,
                        lambda r: 0.4 * smooth_cutoff(2.0, 5.0, r))
    assert decay_radius(bump, 0.1) <= 5.0
    inv = radial_field(1.0, 100.0, 0.5, lambda r: 1.0 / r,
                       bc=("asymptotic_decay", "asymptotic_decay"))
    assert decay_radius(inv, 0.05) == pytest.approx(20.0, abs=1e-12)
    with pytest.raises(ValueError):
        decay_radius(inv, 1e-4)  # violated at the outermost node


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_interpolation_zero_data():
    metric = euclidean_metric(3)
    u0 = radial_field(0.0, 30.0, 0.1, lambda r: np.zeros_like(r))
    sigma_tilde, u_tilde = interpolate_initial_data(metric, u0, 10.0, 20.0, eps=0.5)
    assert np.all(u_tilde.values == 0.0)
    assert sigma_tilde.lam == pytest.approx(1.05, abs=1e-12)
    # metric interpolates delta -> lam delta -> delta
    assert sigma_tilde.w(5.0) == pytest.approx(1.0, abs=1e-15)
    assert sigma_tilde.w(15.0) == pytest.approx(np.sqrt(1.05), abs=1e-12)
    assert sigma_tilde.w(25.0) == pytest.approx(1.0, abs=1e-15)


def test_interpolation_keeps_core_and_kills_tail():
    metric = conformal_metric(3, a=0.5, tau=1.0)
    u0 = radial_field(0.5, 30.0, 0.05,
                      lambda r: 0.8 * smooth_cutoff(2.0, 6.0, r),
                      bc=("asymptotic_decay", "dirichlet_zero"))
    sigma_tilde, u_tilde = interpolate_initial_data(metric, u0, 10.0, 20.0, eps=0.3)
    r = u0.radii()
    core = r <= 10.0
    outside = r >= 10.0 + 2 * (20.0 - 10.0) / 3.0
    assert np.array_equal(u_tilde.values[core], u0.values[core])
    assert np.all(u_tilde.values[outside] == 0.0)
    # sigma_tilde matches sigma inside S1 and delta outside S4
    assert sigma_tilde.w(5.0) == pytest.approx(float(metric.w(5.0)),
                                                   abs=1e-15)
    assert sigma_tilde.w(25.0) == pytest.approx(1.0, abs=1e-15)
    # data supported inside S1 pass through wherever nonzero
    nz = u_tilde.values != 0.0
    assert np.array_equal(u_tilde.values[nz], u0.values[nz])


def test_interpolation_blended_metric_derivative():
    metric = conformal_metric(3, a=0.5, tau=1.0)
    u0 = radial_field(0.5, 30.0, 0.05,
                      lambda r: 0.5 * smooth_cutoff(2.0, 12.0, r),
                      bc=("asymptotic_decay", "dirichlet_zero"))
    sigma_tilde, u_tilde = interpolate_initial_data(metric, u0, 10.0, 20.0, eps=0.4)
    st = sigma_tilde
    rr = np.linspace(1.0, 29.0, 97)
    h = 1e-6
    fd = (st.w(rr + h) - st.w(rr - h)) / (2 * h)
    assert np.max(np.abs(fd - st.dw(rr))) < 1e-6


def test_interpolation_lambda_formula_and_margin():
    metric = conformal_metric(3, a=0.5, tau=1.0)
    u0 = radial_field(0.5, 30.0, 0.02,
                      lambda r: 1.0 * smooth_cutoff(6.0, 16.0, r),
                      bc=("asymptotic_decay", "dirichlet_zero"))
    eps = 0.5
    sigma_tilde, u_tilde = interpolate_initial_data(metric, u0, 10.0, 20.0, eps=eps)
    # independent recomputation of the stretch from the budget on [S2, S3]
    from mcflow.fields import gradient
    r = u0.radii()
    w = metric.w(r)
    psi2 = smooth_cutoff(sigma_tilde.s2, sigma_tilde.s3, r)
    dpsi2 = smooth_cutoff_deriv(sigma_tilde.s2, sigma_tilde.s3, r)
    du0 = gradient(u0)
    mid = (r >= sigma_tilde.s2) & (r <= sigma_tilde.s3)
    budget = (u0.values ** 2 * (dpsi2 / w) ** 2 + psi2 ** 2 * (du0 / w) ** 2)
    lam_expected = max(1.0, 2.0 * float(budget[mid].max()) / (1 - eps) ** 2) * 1.05
    assert sigma_tilde.lam == pytest.approx(lam_expected, rel=1e-12)
    # verified margin, node by node
    assert lipschitz_constant(sigma_tilde, u_tilde) <= 1.0 - eps


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.5])
def test_interpolation_margin_preserved_random_bumps(eps, rng):
    metric = conformal_metric(3, a=0.3, tau=1.0)
    r_nodes = None
    for _ in range(17):
        height = rng.uniform(0.1, 1.5)
        lo = rng.uniform(1.0, 6.0)
        width = rng.uniform(2.0, 12.0)
        u0 = radial_field(
            0.5, 40.0, 0.05,
            lambda r: height * smooth_cutoff(lo, lo + width, r),
            bc=("asymptotic_decay", "dirichlet_zero"))
        margin = 1.0 - lipschitz_constant(metric, u0)
        if margin < eps:
            continue  # bump too steep for this margin, not a valid input
        sigma_tilde, u_tilde = interpolate_initial_data(metric, u0, 12.0, 24.0, eps=eps)
        assert lipschitz_constant(sigma_tilde, u_tilde) <= 1.0 - eps
        # monotone damping and sign preservation
        assert np.all(np.abs(u_tilde.values) <= np.abs(u0.values) + 1e-15)
        nz = u_tilde.values != 0
        assert np.all(np.sign(u_tilde.values[nz])
                      == np.sign(u0.values[nz]))


def test_interpolation_errors():
    metric = euclidean_metric(3)
    u0 = radial_field(0.0, 30.0, 0.1, lambda r: np.zeros_like(r))
    with pytest.raises(DomainError):
        interpolate_initial_data(metric, u0, 20.0, 10.0, eps=0.5)
    with pytest.raises(DomainError):
        interpolate_initial_data(metric, u0, 10.0, 20.0, eps=1.5)
