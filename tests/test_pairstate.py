"""Tests for the symmetrized pair state."""

import math

import numpy as np
import pytest

from coherentpair import oracle
from coherentpair.errors import DegenerateState
from coherentpair.meanfield import PhaseState
from coherentpair.pairstate import ExchangeSymmetry, PairConfig, density_from_params, overlap

from reference_amplitudes import pair_amplitude


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
    eng = oracle._Engine(oracle._PairGeometry.from_state(state))
    # <sum_i 1> = 2 iff the pair state is unit-normalized
    assert abs(eng.expect_one_body_sum({}) - 2.0) < 1e-7


def test_pair_amplitude_degenerate_antisymmetric():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 1e-9]), symmetry=ExchangeSymmetry.ANTISYMMETRIC)
    with pytest.raises(DegenerateState):
        pair_amplitude(cfg, np.zeros(3), np.array([0.0, 0.0, 0.5]), 0.0)


def test_antisymmetric_coincident_config_invalid():
    with pytest.raises(ValueError):
        PairConfig(1.0, symmetry=ExchangeSymmetry.ANTISYMMETRIC)


def test_density_particle_count():
    cfg = PairConfig(0.9, np.array([0.0, 0.0, 1.2]), np.array([0.1, 0.0, -0.4]))
    state = PhaseState(2.0 * cfg.r0, cfg.p0, 0.6, cfg)
    eng = oracle._Engine(oracle._PairGeometry.from_state(state))
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
