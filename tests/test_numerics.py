"""Tests for the numeric kernels."""

import math

import numpy as np
import pytest

from coherentpair import numerics
from coherentpair.errors import NonConvergence, NonFinite


def erf_taylor(x):
    """Independent oracle: alternating Taylor series summed to convergence."""
    total = 0.0
    term = x
    k = 0
    while abs(term) > 1e-18:
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / k
    return 2.0 / math.sqrt(math.pi) * total


def test_erf_zero_and_asymptote():
    assert numerics.erf(0.0) == 0.0
    assert 0.999999 <= numerics.erf(5.0) < 1.0


def test_erf_taylor_anchor():
    assert abs(numerics.erf(1.0) - 0.842700793) < 1e-9
    assert abs(numerics.erf(1.0) - erf_taylor(1.0)) < 1e-12


@pytest.mark.parametrize("x", np.linspace(0.05, 6.0, 40).tolist())
def test_erf_matches_libm(x):
    assert abs(numerics.erf(x) - math.erf(x)) < 1e-12


def test_erf_odd_and_monotone():
    xs = np.linspace(-4, 4, 81)
    vals = [numerics.erf(float(x)) for x in xs]
    for x, v in zip(xs, vals):
        assert numerics.erf(float(-x)) == -v
        assert -1.0 < v < 1.0
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_dawson_against_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    for x in np.linspace(-20, 20, 401):
        ref = float(scipy_special.dawsn(x))
        assert abs(numerics.dawson(float(x)) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_dawson_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # where the lookup switches nodes k / 10 -> (k + 1) / 10, and either side
    switches = [(k + 0.5) / 10 for k in range(80)]
    xs = np.unique(np.concatenate([
        np.geomspace(1e-8, 40.0, 2001),
        np.linspace(0.2, 8.0, 3901),
        np.linspace(0.19, 0.21, 401),
        np.linspace(7.99, 8.01, 401),  # table / asymptotic edge
        switches,
        [math.nextafter(m, 0.0) for m in switches],
        [math.nextafter(m, math.inf) for m in switches],
        [8.0, math.nextafter(8.0, math.inf)],
        np.geomspace(40.0, 1e6, 301),  # the asymptotic series' own range
        [1.3e154, 1.34e154, 1.35e154, 1e200],  # x^2 overflows from about 1.34e154
    ]))
    worst = 0.0
    for x in xs.tolist():
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            ref = float(mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-xm * xm) * mpmath.erfi(xm))
        val = numerics.dawson(x)
        assert numerics.dawson(-x) == -val
        worst = max(worst, abs(val - ref) / ref)
    assert worst <= 1e-15


# Whole-line, half-line and 3D quadratures built on integrate_1d; the tests
# use them as references (test_pairstate imports integrate_real_line).

def integrate_real_line(f, scale=4.0):
    """Integral of a decaying integrand over the real line, via x = scale atanh(u).

    The integrand must decay faster than the Jacobian grows (Gaussian-family
    tails do).
    """

    def g(u):
        if abs(u) >= 1.0 - 1e-14:
            return 0.0
        x = scale * math.atanh(u)
        return f(x) * scale / (1.0 - u * u)

    return numerics.integrate_1d(g, -1.0, 1.0)


def integrate_half_line(f, scale=4.0):
    """Integral of a decaying integrand over [0, infinity)."""

    def g(u):
        if u >= 1.0 - 1e-14:
            return 0.0
        x = scale * math.atanh(u)
        return f(x) * scale / (1.0 - u * u)

    return numerics.integrate_1d(g, 0.0, 1.0)


def integrate_3d_separable(fx, fy, fz, scale=4.0):
    """Product integral of an axis-separable integrand over all of space."""
    return (
        integrate_real_line(fx, scale)
        * integrate_real_line(fy, scale)
        * integrate_real_line(fz, scale)
    )


def integrate_3d_radial(g, scale=4.0):
    """int_0^inf 4 pi d^2 g(d) dd; a 1/d singularity in ``g`` is harmless."""

    def shell(d):
        if d == 0.0:
            return 0.0
        return 4.0 * math.pi * d * d * g(d)

    return integrate_half_line(shell, scale)


def test_integrate_unit():
    assert abs(numerics.integrate_1d(lambda x: 1.0, 0.0, 1.0) - 1.0) < 1e-12


def test_integrate_gaussian_real_line():
    val = integrate_real_line(
        lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    )
    assert abs(val - 1.0) < 1e-10


def test_integrate_half_line_closed_form():
    # int_0^inf exp(-d^2) d dd = 1/2
    val = integrate_half_line(lambda d: math.exp(-d * d) * d)
    assert abs(val - 0.5) < 1e-10


def test_integrate_3d_separable():
    g = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    assert abs(integrate_3d_separable(g, g, g) - 1.0) < 1e-9
    sigma = 1.7
    gs = lambda x: math.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    second = integrate_3d_separable(lambda x: x * x * gs(x), gs, gs)
    assert abs(second - sigma * sigma) < 1e-8


def test_integrate_3d_radial():
    # int exp(-d^2)/d over 3-space = 2 pi
    val = integrate_3d_radial(lambda d: math.exp(-d * d) / d)
    assert abs(val - 2.0 * math.pi) < 1e-8


def test_quadrature_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_QUAD_NODES", 40)
    with pytest.raises(NonConvergence, match="budget"):
        numerics.integrate_1d(lambda x: math.sin(40.0 * x) ** 2, 0.0, 10.0)


def test_quadrature_deterministic():
    f = lambda x: math.exp(-x * x) * math.cos(3 * x)
    a = numerics.integrate_1d(f, -2.0, 3.0)
    b = numerics.integrate_1d(f, -2.0, 3.0)
    assert a == b


def test_rk4_zero_derivative():
    y = numerics.rk4_step(np.array([1.0, -2.0]), 0.0, 0.1, lambda y, t: np.zeros(2))
    assert np.array_equal(y, np.array([1.0, -2.0]))


def test_rk4_linear_exact():
    c = np.array([0.3, -1.2])
    y = numerics.rk4_step(np.array([1.0, 1.0]), 0.0, 0.25, lambda y, t: c)
    np.testing.assert_allclose(y, np.array([1.0, 1.0]) + 0.25 * c, rtol=0, atol=1e-15)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_rk4_polynomial_time_exactness(degree):
    # dx/dt = t^degree integrates exactly through cubic order
    deriv = lambda y, t: np.array([t ** degree])
    y = np.array([0.0])
    t = 0.0
    dt = 0.5
    for _ in range(4):
        y = numerics.rk4_step(y, t, dt, deriv)
        t += dt
    exact = t ** (degree + 1) / (degree + 1)
    assert abs(y[0] - exact) < 1e-13 * max(1.0, exact)


def test_rk4_returns_a_tuple_of_python_floats():
    y = numerics.rk4_step((1.0, -2.0), 0.0, 0.1, lambda y, t: (y[1], -y[0]))
    assert type(y) is tuple and len(y) == 2
    assert all(type(v) is float for v in y)


def test_rk4_rejects_a_non_positive_step():
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError, match="dt must be positive"):
            numerics.rk4_step((1.0,), 0.0, dt, lambda y, t: (0.0,))


@pytest.mark.parametrize("state, deriv", [
    ((1.0, 1.0), lambda y, t: (math.inf, 0.0)),
    ((1.0, 1.0), lambda y, t: (0.0, math.nan)),
    # finite state and derivatives whose weighted sum overflows to inf
    ((1e308, 1.0), lambda y, t: y),
], ids=["inf-derivative", "nan-derivative", "overflow"])
def test_rk4_non_finite_state_raises(state, deriv):
    with pytest.raises(NonFinite):
        numerics.rk4_step(state, 0.0, 0.5, deriv)


def test_rk4_harmonic_oscillator_period():
    deriv = lambda y, t: np.array([y[1], -y[0]])
    y0 = np.array([1.0, 0.0])
    y = y0.copy()
    period = 2.0 * math.pi
    n = 1000
    t = 0.0
    for _ in range(n):
        y = numerics.rk4_step(y, t, period / n, deriv)
        t += period / n
    assert np.linalg.norm(y - y0) < 1e-9


# Central differences, the reference the analytic energy gradient is held to
# (test_meanfield builds its grad_r / grad_p on this).

FD_STEP = 1e-5


def central_gradient(f, x):
    """Component-wise central differences with step FD_STEP * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        h = FD_STEP * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = f(xp)
        fm = f(xm)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NonFinite("central_gradient sampled a non-finite value")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def test_central_gradient_square():
    g = central_gradient(lambda x: float(x[0] ** 2), np.array([1.0]))
    assert abs(g[0] - 2.0) < 1e-6


def test_central_gradient_constant():
    g = central_gradient(lambda x: 3.5, np.array([0.2, -4.0, 7.0]))
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_central_gradient_quadratic_form():
    a = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 4.0]])
    x = np.array([0.7, -1.1, 2.0])
    f = lambda v: float(v @ a @ v)
    g = central_gradient(f, x)
    exact = 2.0 * a @ x
    np.testing.assert_allclose(g, exact, rtol=1e-10, atol=1e-10)


def test_central_gradient_kinetic():
    # p^2 / m with m = 1: gradient 2 p, exact for central differences
    p = np.array([0.4, 0.0, -1.3])
    g = central_gradient(lambda v: float(v @ v), p)
    np.testing.assert_allclose(g, 2.0 * p, rtol=1e-8, atol=1e-10)

