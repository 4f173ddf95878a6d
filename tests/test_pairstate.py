"""Tests for the symmetrized pair state."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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


# sigma_x(t) on either side of |omega t| = 2^27, where PairConfig.width
# switches from sigma sqrt(1 + (omega t)^2) to (sigma omega) |t|
SEAM = 2.0 ** 27
# sigmas whose square is a normal finite float, as PairConfig requires
sigmas = st.floats(1.5e-154, 1.3e154)


def square_root_law(cfg, t):
    """sigma sqrt(1 + (omega t)^2) as one float expression: the reference below the seam."""
    return cfg.sigma * math.sqrt(1.0 + (cfg.omega * t) ** 2)


def ulps_from_exact(got, cfg, t):
    """Distance of got from sigma sqrt(1 + (omega t)^2) at 50 digits, in ulps of got."""
    with mpmath.workdps(50):
        exact = mpmath.mpf(cfg.sigma) * mpmath.sqrt(1 + (mpmath.mpf(cfg.omega) * t) ** 2)
        return float(abs(mpmath.mpf(got) - exact)) / math.ulp(got)


def seam_time(cfg):
    """The least t > 0 with omega t >= 2^27."""
    t = SEAM / cfg.omega
    while cfg.omega * t >= SEAM:
        t = math.nextafter(t, 0.0)
    while cfg.omega * t < SEAM:
        t = math.nextafter(t, math.inf)
    return t


def largest_finite_time(cfg):
    """The largest t whose width is finite, within a few floats of max / (sigma omega)."""
    t = sys.float_info.max / (cfg.sigma * cfg.omega)
    for _ in range(4):
        t = math.nextafter(t, math.inf)
    for _ in range(16):
        if math.isfinite(cfg.width(t)):
            return t
        t = math.nextafter(t, 0.0)
    raise AssertionError(f"the width is inf 12 floats below max / (sigma omega), at t = {t!r}")


@settings(max_examples=300, deadline=None)
@given(sigma=sigmas, u=st.floats(-SEAM, SEAM), frozen=st.booleans())
@example(sigma=1.0, u=math.nextafter(SEAM, 0.0), frozen=False)
def test_width_below_the_seam_is_the_square_root_law_bit_for_bit(sigma, u, frozen):
    # u is omega t; every width below the seam keeps the bytes of this expression
    cfg = PairConfig(sigma, frozen_width=frozen)
    t = u / PairConfig(sigma).omega
    assume(math.isfinite(t) and abs(cfg.omega * t) < SEAM)
    assert cfg.width(t) == square_root_law(cfg, t)
    assert cfg.width(-t) == cfg.width(t)


@settings(max_examples=300, deadline=None)
@given(sigma=sigmas, f=st.floats(0.0, 1.0))
@example(sigma=1e-150, f=1.0)
@example(sigma=1.0, f=0.0)
@example(sigma=7352164208851809.0, f=1.0)
def test_width_beyond_the_seam_is_within_two_ulps_of_the_exact_law(sigma, f):
    # t log-uniform in f from the seam to the largest t with a finite width.
    # sigma omega and its product with |t| round once each (up to 1.5 ulps
    # together) and the dropped 1 is below 2^-55 relative.  Measured worst:
    # 1.72 ulps over 2e5 draws of sigma within 3 floats above the seam, 1.46
    # over 1e6 draws of (sigma, t) log-uniform across the range
    cfg = PairConfig(sigma)
    top = largest_finite_time(cfg)
    lo, hi = math.log(SEAM) - math.log(cfg.omega), math.log(top)
    assume(lo <= hi)
    # for sigma >= 1 top is the largest float and exp(log(top)) rounds past it
    x = lo + f * (hi - lo)
    t = min(math.exp(x), top) if x < hi else top
    assume(cfg.omega * t >= SEAM)
    w = cfg.width(t)
    assert math.isfinite(w)
    assert ulps_from_exact(w, cfg, t) <= 2.0
    assert cfg.width(-t) == w


@pytest.mark.parametrize("sigma", [1e-150, 0.3, 1.0, 7.0, 1e60])
def test_width_is_finite_up_to_the_largest_finite_sigma_omega_t(sigma):
    cfg = PairConfig(sigma)
    t = largest_finite_time(cfg)
    w = cfg.width(t)
    assert math.isfinite(w) and ulps_from_exact(w, cfg, t) <= 2.0
    assert cfg.width(-t) == w
    # the next float's width overflows; for sigma >= 1, sigma omega <= 1/2
    # and that next float is inf itself
    assert cfg.width(math.nextafter(t, math.inf)) == math.inf


@settings(max_examples=300, deadline=None)
@given(sigma=sigmas)
@example(sigma=1.0)
@example(sigma=0.3)
def test_width_seam_jump(sigma):
    # at the first t on the linear branch the two expressions differ by at
    # most 2 ulps: 2 in 0.17% of 2e5 draws of sigma, and at most 1 where
    # sigma omega = 1/(2 sigma) rounds exactly (sigma a power of two);
    # across the seam the width never decreases
    cfg = PairConfig(sigma)
    t = seam_time(cfg)
    w = cfg.width(t)
    assume(math.isfinite(w))
    bound = 1.0 if math.frexp(sigma)[0] == 0.5 else 2.0
    assert abs(w - square_root_law(cfg, t)) <= bound * math.ulp(w)
    times = [t]
    for _ in range(4):
        times = [math.nextafter(times[0], 0.0), *times, math.nextafter(times[-1], math.inf)]
    widths = [cfg.width(x) for x in times]
    assert widths == sorted(widths)


@settings(max_examples=300, deadline=None)
@given(sigma=sigmas, t=st.floats(allow_nan=False, allow_infinity=False))
def test_frozen_width_is_sigma_at_every_finite_time(sigma, t):
    assert PairConfig(sigma, frozen_width=True).width(t) == sigma


@settings(max_examples=300, deadline=None)
@given(sigma=sigmas, t=st.floats(allow_nan=False, allow_infinity=False))
@example(sigma=1.0, t=1e300)
@example(sigma=1e-150, t=-5e-324)
def test_frozen_width_keeps_the_bytes_of_the_square_root_law(sigma, t):
    cfg = PairConfig(sigma, frozen_width=True)
    assert cfg.width(t).hex() == square_root_law(cfg, t).hex()


@pytest.mark.parametrize("t", [math.inf, -math.inf])
@pytest.mark.parametrize("sigma", [1e-150, 0.8, 1e150])
def test_frozen_width_is_sigma_at_infinite_time(sigma, t):
    # the square-root law reads 0 * inf = nan there
    assert PairConfig(sigma, frozen_width=True).width(t) == sigma


def test_tiny_sigma_spreads_to_a_finite_width():
    # omega t = 5e449 is beyond the float range, sigma omega t = 5e299 is not
    w = PairConfig(1e-150).width(1e150)
    assert math.isfinite(w) and abs(w / 5e299 - 1.0) < 1e-15


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
