"""Tests for the single coherent packet."""

import math

import numpy as np
import pytest

from coherentpair import wavepacket
from coherentpair.pairstate import PairConfig
from coherentpair.wavepacket import PacketParams, SpreadLaw

from reference_amplitudes import amplitude, center
from test_numerics import integrate_real_line


def axis_envelope(sigma, c, x):
    return (2.0 * math.pi * sigma * sigma) ** -0.25 * math.exp(-((x - c) ** 2) / (4 * sigma * sigma))


def test_spreading_rate_value_and_scaling():
    assert wavepacket.spreading_rate(PacketParams(1.0)) == 0.5
    w1 = wavepacket.spreading_rate(PacketParams(1.3))
    w2 = wavepacket.spreading_rate(PacketParams(2.6))
    assert abs(w2 / w1 - 0.25) < 1e-14
    assert wavepacket.spreading_rate(PacketParams(1e6)) < 1e-12


@pytest.mark.parametrize("sigma", [1e-200, 1e-160, 1e160, 1e200, 0.0, -1.0, math.inf, math.nan])
def test_sigma_needs_a_normal_finite_square(sigma):
    # sigma^2 divides the spreading rate and every Gaussian exponent
    with pytest.raises(ValueError, match="sigma"):
        PacketParams(sigma)
    with pytest.raises(ValueError, match="sigma"):
        PairConfig(sigma, law=SpreadLaw.frozen_width())


def test_sigma_t_culmination_and_growth():
    # every packet culminates at t = 0, and the width is even in t
    params = PacketParams(0.8)
    law = SpreadLaw.for_packet(params)
    assert law.width(params.sigma, 0.0) == 0.8
    # omega t = 1
    t = 1.0 / law.omega
    assert abs(law.width(params.sigma, t) - 0.8 * math.sqrt(2)) < 1e-14
    assert law.width(params.sigma, -t) == law.width(params.sigma, t)
    # asymptotic linear growth
    t = 10.0 / law.omega
    assert abs(law.width(params.sigma, t) / (0.8 * 10.0) - 1.0) < 0.01


def test_frozen_law():
    # a frozen width is omega = 0: sigma * sqrt(1 + (0 t)^2) is exactly sigma
    params = PacketParams(0.8)
    law = SpreadLaw.frozen_width()
    assert law == SpreadLaw(0.0)
    for t in (0.0, 3.0, -7.5, 100.0, 1e300):
        assert law.width(params.sigma, t) == 0.8
    with pytest.raises(ValueError):
        SpreadLaw(-0.3)


def test_amplitude_norm():
    params = PacketParams(1.2, np.array([0.5, -0.3, 1.0]), np.array([0.4, 0.0, -0.7]))
    law = SpreadLaw.for_packet(params)
    for t in (0.0, 2.5):
        s = law.width(params.sigma, t)
        c = center(params, t)
        total = 1.0
        for ax in range(3):
            f = lambda x, ax=ax: axis_envelope(s, c[ax], x) ** 2
            total *= integrate_real_line(f, scale=12.0)
        assert abs(total - 1.0) < 1e-8
        # the sampled amplitude factorizes into exactly these envelopes
        r = np.array([0.3, 0.1, -0.2])
        val = abs(amplitude(params, law, r, t))
        ref = math.prod(axis_envelope(s, c[ax], r[ax]) for ax in range(3))
        assert abs(val - ref) < 1e-14


def test_amplitude_peak_and_mean_on_drift_line():
    params = PacketParams(1.0, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.5]))
    law = SpreadLaw.for_packet(params)
    t = 3.0
    c = center(params, t)
    np.testing.assert_allclose(c, [0.0, 0.0, 2.5])
    zs = np.linspace(-4, 8, 1201)
    dens = [abs(amplitude(params, law, np.array([0.0, 0.0, z]), t)) ** 2 for z in zs]
    assert abs(zs[int(np.argmax(dens))] - 2.5) < 0.02
    # quadrature mean along z equals the drifted center
    s = law.width(params.sigma, t)
    num = integrate_real_line(lambda z: z * axis_envelope(s, c[2], z) ** 2, scale=16.0)
    den = integrate_real_line(lambda z: axis_envelope(s, c[2], z) ** 2, scale=16.0)
    assert abs(num / den - 2.5) < 1e-8


def kinetic_quadrature(params):
    """<p^2>/2 from |grad psi|^2, written against the explicit Gaussian."""
    sigma = params.sigma
    total = 0.0
    for ax in range(3):
        c = params.r0[ax]
        k = params.p0[ax]

        def integrand(x, c=c, k=k):
            env = axis_envelope(sigma, c, x)
            denv = -(x - c) / (2 * sigma * sigma) * env
            return denv * denv + k * k * env * env

        total += integrate_real_line(integrand, scale=10.0 * sigma)
    return 0.5 * total


def test_kinetic_energy_anchor():
    assert abs(wavepacket.kinetic_energy(PacketParams(1.0)) - 0.375) < 1e-15
    params = PacketParams(1.0, np.zeros(3), np.zeros(3))
    assert abs(kinetic_quadrature(params) - 0.375) < 1e-8


def test_kinetic_energy_classical_limit_and_split():
    p0 = np.array([0.3, -0.2, 0.9])
    big = PacketParams(1e4, np.zeros(3), p0)
    assert abs(wavepacket.kinetic_energy(big) - 0.5 * float(p0 @ p0)) < 1e-8
    for sigma in (0.5, 1.0, 2.0):
        with_p = wavepacket.kinetic_energy(PacketParams(sigma, np.zeros(3), p0))
        without = wavepacket.kinetic_energy(PacketParams(sigma))
        assert abs((with_p - without) - 0.5 * float(p0 @ p0)) < 1e-14


def test_kinetic_energy_matches_quadrature():
    params = PacketParams(0.7, np.array([0.2, 0.0, -1.0]), np.array([0.5, 0.1, -0.3]))
    assert abs(kinetic_quadrature(params) / wavepacket.kinetic_energy(params) - 1.0) < 1e-8


def test_uncertainty_product_at_culmination():
    # sigma_p per axis from derivative quadrature: sigma * sigma_p = 1/2
    sigma = 1.4
    params = PacketParams(sigma, np.zeros(3), np.array([0.6, 0.0, 0.0]))

    def integrand(x):
        env = axis_envelope(sigma, 0.0, x)
        denv = -x / (2 * sigma * sigma) * env
        return denv * denv

    p2_spread = integrate_real_line(integrand, scale=10.0 * sigma)
    sigma_p = math.sqrt(p2_spread)
    assert abs(sigma * sigma_p - 0.5) < 1e-8
    _ = params


def test_sigma_t_exceeds_culmination_width():
    params = PacketParams(1.0)
    law = SpreadLaw.for_packet(params)
    for t in np.linspace(-5, 5, 41):
        s = law.width(params.sigma, float(t))
        if t == 0:
            assert s == 1.0
        else:
            assert s > 1.0
