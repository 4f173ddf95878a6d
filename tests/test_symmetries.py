"""Exact symmetries of the model, used as test oracles.

Scale covariance: sigma -> lam sigma, r -> lam r, p -> p / lam and
kappa -> kappa / lam scale every energy term by 1 / lam^2 and time by
lam^2, while the special-function arguments d / 2 sigma and 2 sigma |p|
stay put.  That holds only because the spreading rate follows the width,
omega = 1 / (2 sigma^2) -> omega / lam^2.  For lam a power of 2 every
floating-point product of a normal number scales exactly, so the scaled run
must agree bit for bit.  The configurations below keep every term normal: a
subnormal term (an exchange term near 1e-319 far from contact, or |p|^2 near
1e-314 from a p = 0 start) loses bits when scaled, so drawn configurations
would break the bitwise bar even at lam = 2.  Any other lam rounds
differently, so those runs agree to round-off only.  Mirror symmetry:
x -> -x maps a start with momentum (px, 0, pz) onto the one with
(-px, 0, pz).  Rotation symmetry: the Hamiltonian depends on r and p only
through |r|^2 and |p|^2, so the flow conserves L = r x p.
"""

import numpy as np
import pytest

from coherentpair import dynamics, observables
from coherentpair.meanfield import initial_state
from coherentpair.observables import Plane
from coherentpair.pairstate import ExchangeSymmetry, PairConfig

SCALES = [2.0, 0.5]
ODD_SCALES = [3.0, 1.7, 0.3]
STARTS = {"head-on": [0.0, 0.0, -0.3], "oblique": [0.2, 0.0, -0.4]}
SPINS = pytest.mark.parametrize("symmetry", list(ExchangeSymmetry), ids=lambda s: s.value)
WIDTHS = pytest.mark.parametrize("frozen", [False, True], ids=["spreading", "frozen"])


def config(symmetry, frozen, p0, lam=1.0):
    return PairConfig(lam, lam * np.array([0.0, 0.0, 5.0]), np.array(p0) / lam,
                      symmetry, 1.0 / lam, frozen_width=frozen)


def run(cfg, lam=1.0):
    return dynamics.integrate(initial_state(cfg), lam * lam * 0.05, lam * lam * 20.0)


def tensor_entries(traj):
    t = observables.quadrupole_timeseries(traj)
    return np.array([t.d_xx, t.d_yy, t.d_zz, t.d_xz])


@SPINS
@WIDTHS
@pytest.mark.parametrize("start", list(STARTS), ids=str)
@pytest.mark.parametrize("lam", SCALES)
def test_integrate_is_scale_covariant(symmetry, frozen, start, lam):
    p0 = STARTS[start]
    base = run(config(symmetry, frozen, p0))
    scaled = run(config(symmetry, frozen, p0, lam), lam)
    assert scaled.config.omega == base.config.omega / (lam * lam)
    assert np.array_equal(scaled.t, base.t * lam * lam)
    assert np.array_equal(scaled.r, base.r * lam)
    assert np.array_equal(scaled.p, base.p / lam)
    assert np.array_equal(scaled.width, base.width * lam)
    assert np.array_equal(scaled.energy, base.energy / (lam * lam))
    assert np.array_equal(scaled.overlap, base.overlap)
    assert np.array_equal(tensor_entries(scaled), tensor_entries(base) * lam * lam)
    for i in (0, base.t.size // 2, base.t.size - 1):
        grid = observables.density_grid(base.state(i), Plane.XZ, 12.0, 16)
        grid_scaled = observables.density_grid(scaled.state(i), Plane.XZ, lam * 12.0, 16)
        assert np.array_equal(grid_scaled, grid / lam ** 3)


@SPINS
@WIDTHS
@pytest.mark.parametrize("start", list(STARTS), ids=str)
@pytest.mark.parametrize("lam", ODD_SCALES)
def test_integrate_is_scale_covariant_to_round_off(symmetry, frozen, start, lam):
    p0 = STARTS[start]
    base = run(config(symmetry, frozen, p0))
    scaled = run(config(symmetry, frozen, p0, lam), lam)
    assert scaled.t.size == base.t.size
    for got, want in (
        (scaled.t, base.t * lam * lam),
        (scaled.r, base.r * lam),
        (scaled.p, base.p / lam),
        (scaled.energy, base.energy / (lam * lam)),
        (scaled.overlap, base.overlap),
    ):
        # relative to each column's largest magnitude; an all-zero column stays zero
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=0))


@SPINS
@WIDTHS
@pytest.mark.parametrize("lam", SCALES)
def test_sweep_is_scale_covariant(symmetry, frozen, lam):
    # p = 0.14 is frozen for the spreading antiparallel pair at this horizon
    grid = [0.14, 0.3]
    base = dynamics.sweep_traveltime(config(symmetry, frozen, [0.0, 0.0, -0.3]), grid,
                                     horizon_factor=2.5)
    scaled = dynamics.sweep_traveltime(config(symmetry, frozen, [0.0, 0.0, -0.3], lam),
                                       [p / lam for p in grid], horizon_factor=2.5)
    for a, b in zip(base, scaled):
        assert b.error is None and b.regime is a.regime
        assert b.t_free == a.t_free * lam * lam
        assert b.d_min == a.d_min * lam
        if a.t_coherent is None:
            assert b.t_coherent is None
        else:
            assert b.t_coherent == a.t_coherent * lam * lam
        # the closed form's asinh and square roots round independently of lam
        assert abs(b.t_classical / (a.t_classical * lam * lam) - 1.0) <= 1e-15


@SPINS
@WIDTHS
def test_mirror_flips_rx_px_and_dxz_only(symmetry, frozen):
    px, _, pz = STARTS["oblique"]
    base = run(config(symmetry, frozen, [px, 0.0, pz]))
    mirror = run(config(symmetry, frozen, [-px, 0.0, pz]))
    flip = np.array([-1.0, 1.0, 1.0])
    assert np.array_equal(mirror.t, base.t)
    assert np.array_equal(mirror.r, base.r * flip)
    assert np.array_equal(mirror.p, base.p * flip)
    assert np.array_equal(mirror.width, base.width)
    assert np.array_equal(mirror.energy, base.energy)
    assert np.array_equal(mirror.overlap, base.overlap)
    dxz_flip = np.array([[1.0], [1.0], [1.0], [-1.0]])
    assert np.array_equal(tensor_entries(mirror), tensor_entries(base) * dxz_flip)


@SPINS
@WIDTHS
@pytest.mark.parametrize("start", list(STARTS), ids=str)
def test_angular_momentum_is_conserved(symmetry, frozen, start):
    traj = run(config(symmetry, frozen, STARTS[start]))
    ang = np.cross(traj.r, traj.p)
    if start == "head-on":
        # r and p stay on the z axis, so every component is an exact zero
        assert not ang.any()
    else:
        drift = np.linalg.norm(ang - ang[0], axis=1).max()
        assert drift <= 1e-10 * np.linalg.norm(ang[0])
