"""Tests for the symmetrized pair state."""

import math
import sys

import numpy as np
import pytest

from coherentpair import oracle
from coherentpair.errors import DegenerateState
from coherentpair.meanfield import PhaseState
from coherentpair.pairstate import (
    ExchangeSymmetry,
    PairConfig,
    density_from_params,
    kinetic_energy,
    overlap,
)

from reference_amplitudes import amplitude, pair_amplitude
from test_numerics import integrate_real_line


def one_particle_density(cfg, r, t=0.0):
    """n(r) = 2 int |pair_amplitude(r, r2)|^2 d^3 r2 of the drifting pair, int n = 2."""
    c = cfg.r0 + cfg.p0 * t
    return density_from_params(r, c, cfg.p0, cfg.width(t), cfg.symmetry.sign)


def test_overlap_identical_packets():
    cfg = PairConfig(1.0)
    assert overlap(cfg, 0.0) == 1.0


def test_overlap_culmination_anchors():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 1.0]))
    assert abs(overlap(cfg, 0.0) - math.exp(-0.5)) < 1e-12
    cfg = PairConfig(1.0, np.zeros(3), np.array([0.0, 0.0, 0.5]))
    assert abs(overlap(cfg, 0.0) - math.exp(-0.5)) < 1e-12


def test_overlap_matches_quadrature():
    for seed in (11, 23, 47, 91, 130):
        cfg, t = oracle.draw_pair_config(seed)
        rep = oracle.oracle_overlap(cfg, t)
        assert rep.rel_err < 1e-8, rep


def test_overlap_bounds_and_monotonicity():
    sep = [overlap(PairConfig(1.0, np.array([0.0, 0.0, z]))) for z in np.linspace(0, 4, 17)]
    assert all(1.0 >= a > b > 0.0 for a, b in zip(sep, sep[1:]))
    mom = [overlap(PairConfig(1.0, p0=np.array([0.0, 0.0, p]))) for p in np.linspace(0, 2, 17)]
    assert all(1.0 >= a > b > 0.0 for a, b in zip(mom, mom[1:]))


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_overlap_needs_a_finite_time(t):
    with pytest.raises(ValueError, match="t must be finite"):
        overlap(PairConfig(1.0, np.array([0.0, 0.0, 1.0])), t)


def test_pair_amplitude_pauli_exclusion():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 1.0]), symmetry=ExchangeSymmetry.ANTISYMMETRIC)
    r = np.array([0.4, -0.7, 0.2])
    assert abs(pair_amplitude(cfg, r, r, 0.3)) == 0.0


@pytest.mark.parametrize(
    "symmetry,sign",
    [(ExchangeSymmetry.SYMMETRIC, 1.0), (ExchangeSymmetry.ANTISYMMETRIC, -1.0)],
)
def test_pair_amplitude_exchange_symmetry(symmetry, sign):
    cfg = PairConfig(0.9, np.array([0.0, 0.0, 0.8]), np.array([0.2, 0.0, -0.1]), symmetry)
    r1 = np.array([0.3, 0.2, -0.5])
    r2 = np.array([-0.6, 0.1, 0.9])
    a = pair_amplitude(cfg, r1, r2, 0.4)
    b = pair_amplitude(cfg, r2, r1, 0.4)
    assert abs(a - sign * b) < 1e-14


@pytest.mark.parametrize(
    "symmetry",
    [ExchangeSymmetry.SYMMETRIC, ExchangeSymmetry.ANTISYMMETRIC, ExchangeSymmetry.DISTINGUISHABLE],
)
def test_pair_norm_by_quadrature(symmetry):
    cfg = PairConfig(0.8, np.array([0.0, 0.0, 1.1]), np.array([0.3, 0.0, -0.2]), symmetry)
    state = PhaseState(2.0 * cfg.r0, cfg.p0, 0.0, cfg)
    eng = oracle._Engine(state)
    # <sum_i 1> = 2 iff the pair state is unit-normalized
    assert abs(eng.expect_one_body_sum({}) - 2.0) < 1e-7


def test_pair_amplitude_degenerate_antisymmetric():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 1e-9]), symmetry=ExchangeSymmetry.ANTISYMMETRIC)
    with pytest.raises(DegenerateState):
        pair_amplitude(cfg, np.zeros(3), np.array([0.0, 0.0, 0.5]), 0.0)


def test_antisymmetric_coincident_config_invalid():
    with pytest.raises(ValueError):
        PairConfig(1.0, symmetry=ExchangeSymmetry.ANTISYMMETRIC)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_offset_up_to_half_the_float_range(sign):
    # every packet separation 2 r0 must be a finite float
    half = sys.float_info.max / 2
    assert np.isfinite(2.0 * PairConfig(1.0, np.array([0.0, sign * half, 0.0])).r0).all()
    with pytest.raises(ValueError, match=r"r0 .*2\*r0"):
        PairConfig(1.0, np.array([0.0, np.nextafter(sign * half, sign * math.inf), 0.0]))


def test_density_particle_count():
    cfg = PairConfig(0.9, np.array([0.0, 0.0, 1.2]), np.array([0.1, 0.0, -0.4]))
    state = PhaseState(2.0 * cfg.r0, cfg.p0, 0.6, cfg)
    eng = oracle._Engine(state)
    assert abs(eng.expect_one_body_sum({}) - 2.0) < 1e-7


def test_density_inversion_symmetry():
    cfg = PairConfig(1.1, np.array([0.0, 0.0, 1.5]), np.array([0.4, 0.0, -0.6]))
    for t in (0.0, 1.3):
        for r in (np.array([0.3, 0.2, 0.7]), np.array([-1.0, 0.0, 2.0])):
            a = one_particle_density(cfg, r, t)
            b = one_particle_density(cfg, -r, t)
            assert abs(a - b) < 1e-14 * max(a, 1.0)


def test_density_matches_brute_quadrature():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 1.0]), np.array([0.3, 0.0, -0.2]))
    x = np.array([0.4, -0.2, 0.8])
    t = 0.4
    from coherentpair.numerics import gauss_legendre

    nodes, weights = gauss_legendre(40, -8.0, 8.0)
    r2 = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1)
    vals = np.abs(pair_amplitude(cfg, x, r2, t)) ** 2
    total = float(np.einsum("i,j,k,ijk->", weights, weights, weights, vals))
    closed = one_particle_density(cfg, x, t)
    assert abs(closed / (2.0 * total) - 1.0) < 1e-8


def test_density_two_maxima_at_packet_centers():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 5.0]))
    zs = np.linspace(0.0, 8.0, 1601)
    dens = [one_particle_density(cfg, np.array([0.0, 0.0, z]), 0.0) for z in zs]
    z_peak = zs[int(np.argmax(dens))]
    assert abs(z_peak - 5.0) / 5.0 < 0.01


def test_exchange_vanishes_at_large_separation():
    # symmetric and antisymmetric densities coincide once N -> 0
    r0 = np.array([0.0, 0.0, 8.0])
    sym = PairConfig(1.0, r0, symmetry=ExchangeSymmetry.SYMMETRIC)
    anti = PairConfig(1.0, r0, symmetry=ExchangeSymmetry.ANTISYMMETRIC)
    for z in np.linspace(-10, 10, 41):
        r = np.array([0.0, 0.0, z])
        a = one_particle_density(sym, r, 0.0)
        b = one_particle_density(anti, r, 0.0)
        assert abs(a - b) < 1e-6


def test_distinguishable_density_is_bare_sum():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 2.0]), symmetry=ExchangeSymmetry.DISTINGUISHABLE)
    r = np.array([0.0, 0.0, 2.0])
    val = one_particle_density(cfg, r, 0.0)
    g = (2 * math.pi) ** -1.5
    expected = g * (1.0 + math.exp(-8.0))
    assert abs(val - expected) < 1e-12


# One packet of the pair: width, spreading rate, amplitude and kinetic energy.

def axis_envelope(sigma, c, x):
    return (2.0 * math.pi * sigma * sigma) ** -0.25 * math.exp(-((x - c) ** 2) / (4 * sigma * sigma))


def test_omega_value_and_scaling():
    assert PairConfig(1.0).omega == 0.5
    w1 = PairConfig(1.3).omega
    w2 = PairConfig(2.6).omega
    assert abs(w2 / w1 - 0.25) < 1e-14
    assert PairConfig(1e6).omega < 1e-12


@pytest.mark.parametrize("sigma", [1e-200, 1e-160, 1e160, 1e200, 0.0, -1.0, math.inf, math.nan])
def test_sigma_needs_a_normal_finite_square(sigma):
    # sigma^2 divides the spreading rate and every Gaussian exponent
    for frozen in (False, True):
        with pytest.raises(ValueError, match="sigma must be positive, with a normal finite square"):
            PairConfig(sigma, frozen_width=frozen)


def test_sigma_t_culmination_and_growth():
    # every packet culminates at t = 0, and the width is even in t
    cfg = PairConfig(0.8)
    assert cfg.width(0.0) == 0.8
    # omega t = 1
    t = 1.0 / cfg.omega
    assert abs(cfg.width(t) - 0.8 * math.sqrt(2)) < 1e-14
    assert cfg.width(-t) == cfg.width(t)
    # asymptotic linear growth
    t = 10.0 / cfg.omega
    assert abs(cfg.width(t) / (0.8 * 10.0) - 1.0) < 0.01


@pytest.mark.parametrize("sigma", [0.3, 0.8, 1.0, 2.5, 1e-100, 1e100])
def test_omega_follows_sigma(sigma):
    # omega is derived from the width, never set: 1 / (2 sigma^2), or 0 when frozen
    assert PairConfig(sigma).omega == 1.0 / (2.0 * sigma ** 2)
    assert PairConfig(sigma, frozen_width=True).omega == 0.0
    with pytest.raises(TypeError):
        PairConfig(sigma, omega=0.2)


def test_frozen_width():
    # a frozen width is omega = 0: sigma * sqrt(1 + (0 t)^2) is exactly sigma
    cfg = PairConfig(0.8, frozen_width=True)
    for t in (0.0, 3.0, -7.5, 100.0, 1e300):
        assert cfg.width(t) == 0.8


def test_amplitude_norm():
    cfg = PairConfig(1.2, np.array([0.5, -0.3, 1.0]), np.array([0.4, 0.0, -0.7]))
    for t in (0.0, 2.5):
        s = cfg.width(t)
        c = cfg.r0 + cfg.p0 * t
        total = 1.0
        for ax in range(3):
            f = lambda x, ax=ax: axis_envelope(s, c[ax], x) ** 2
            total *= integrate_real_line(f, scale=12.0)
        assert abs(total - 1.0) < 1e-8
        # the sampled amplitude factorizes into exactly these envelopes
        r = np.array([0.3, 0.1, -0.2])
        val = abs(amplitude(cfg.r0, cfg.p0, s, r, t))
        ref = math.prod(axis_envelope(s, c[ax], r[ax]) for ax in range(3))
        assert abs(val - ref) < 1e-14


def test_amplitude_peak_and_mean_on_drift_line():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.5]))
    t = 3.0
    s = cfg.width(t)
    c = cfg.r0 + cfg.p0 * t
    np.testing.assert_allclose(c, [0.0, 0.0, 2.5])
    zs = np.linspace(-4, 8, 1201)
    dens = [abs(amplitude(cfg.r0, cfg.p0, s, np.array([0.0, 0.0, z]), t)) ** 2 for z in zs]
    assert abs(zs[int(np.argmax(dens))] - 2.5) < 0.02
    # quadrature mean along z equals the drifted center
    num = integrate_real_line(lambda z: z * axis_envelope(s, c[2], z) ** 2, scale=16.0)
    den = integrate_real_line(lambda z: axis_envelope(s, c[2], z) ** 2, scale=16.0)
    assert abs(num / den - 2.5) < 1e-8


def kinetic_quadrature(sigma, r0, p0):
    """<p^2>/2 from |grad psi|^2, written against the explicit Gaussian."""
    total = 0.0
    for ax in range(3):
        c = r0[ax]
        k = p0[ax]

        def integrand(x, c=c, k=k):
            env = axis_envelope(sigma, c, x)
            denv = -(x - c) / (2 * sigma * sigma) * env
            return denv * denv + k * k * env * env

        total += integrate_real_line(integrand, scale=10.0 * sigma)
    return 0.5 * total


def test_kinetic_energy_anchor():
    assert abs(kinetic_energy(1.0, np.zeros(3)) - 0.375) < 1e-15
    assert abs(kinetic_quadrature(1.0, np.zeros(3), np.zeros(3)) - 0.375) < 1e-8


def test_kinetic_energy_classical_limit_and_split():
    p0 = np.array([0.3, -0.2, 0.9])
    assert abs(kinetic_energy(1e4, p0) - 0.5 * float(p0 @ p0)) < 1e-8
    for sigma in (0.5, 1.0, 2.0):
        with_p = kinetic_energy(sigma, p0)
        without = kinetic_energy(sigma, np.zeros(3))
        assert abs((with_p - without) - 0.5 * float(p0 @ p0)) < 1e-14


def test_kinetic_energy_matches_quadrature():
    r0 = np.array([0.2, 0.0, -1.0])
    p0 = np.array([0.5, 0.1, -0.3])
    assert abs(kinetic_quadrature(0.7, r0, p0) / kinetic_energy(0.7, p0) - 1.0) < 1e-8


def test_uncertainty_product_at_culmination():
    # sigma_p per axis from derivative quadrature: sigma * sigma_p = 1/2
    sigma = 1.4

    def integrand(x):
        env = axis_envelope(sigma, 0.0, x)
        denv = -x / (2 * sigma * sigma) * env
        return denv * denv

    p2_spread = integrate_real_line(integrand, scale=10.0 * sigma)
    sigma_p = math.sqrt(p2_spread)
    assert abs(sigma * sigma_p - 0.5) < 1e-8


def test_sigma_t_exceeds_culmination_width():
    cfg = PairConfig(1.0)
    for t in np.linspace(-5, 5, 41):
        s = cfg.width(float(t))
        if t == 0:
            assert s == 1.0
        else:
            assert s > 1.0
