"""Tests for quadrupole observables, inversions and density grids."""

import math

import numpy as np
import pytest

from coherentpair import dynamics, observables, oracle
from coherentpair.errors import DegenerateState, PreconditionViolated
from coherentpair.meanfield import PhaseState, initial_state
from coherentpair.observables import (
    Plane,
    SeriesKind,
    detect,
    density_grid,
    invert_p,
    invert_r0,
    quadrupole_tensor,
    quadrupole_timeseries,
    tensor_from_params,
)
from coherentpair.pairstate import (
    ExchangeSymmetry,
    PairConfig,
    density_from_params,
    overlap_from_params,
)
from coherentpair.wavepacket import SpreadLaw


def state_with(r, p, sigma=1.0, symmetry=ExchangeSymmetry.SYMMETRIC, t=0.0):
    cfg = PairConfig(sigma, np.array([0.0, 0.0, 1.0]), np.array([0.05, 0.0, 0.0]),
                     symmetry, 1.0, SpreadLaw.frozen_width())
    return PhaseState(np.asarray(r, float), np.asarray(p, float), t, cfg)


def test_static_diagonal_pattern():
    # packets at +/- a on z with zero momentum: diag = (-2, -2, 4) a^2 / (1 +/- N^2)
    a = 0.8
    for symmetry, sign in ((ExchangeSymmetry.SYMMETRIC, 1), (ExchangeSymmetry.ANTISYMMETRIC, -1)):
        tensor = tensor_from_params(np.array([0.0, 0.0, a]), np.zeros(3), 1.0, sign)
        n2 = math.exp(-a * a)
        den = 1.0 + sign * n2
        np.testing.assert_allclose(
            [tensor.d_xx, tensor.d_yy, tensor.d_zz],
            [-2 * a * a / den, -2 * a * a / den, 4 * a * a / den],
            rtol=1e-12,
        )
        assert tensor.d_xz == 0.0
        _ = symmetry


def test_tracelessness_on_random_states():
    for seed in range(12):
        state = oracle.draw_phase_state(7000 + 13 * seed)
        tensor = quadrupole_tensor(state)
        assert abs(tensor.trace) <= 1e-10 * max(tensor.norm, 1e-300)


def test_tensor_matches_quadrature_sample():
    for seed in (40000, 40047, 40094):
        state = oracle.draw_phase_state(seed)
        for rep in oracle.oracle_moments(state):
            assert oracle.report_passes(rep), (rep.quantity, rep.rel_err)


def test_out_of_plane_rejected():
    state = state_with([0.0, 0.5, 1.0], [0.0, 0.0, 0.1])
    with pytest.raises(PreconditionViolated):
        quadrupole_tensor(state)


def test_invert_r0_roundtrip():
    sigma = 1.0
    a = 10.0 * sigma
    p0 = 10.0 * 0.5 / sigma  # 10 x hbar / (2 sigma)
    tensor = tensor_from_params(np.array([0.0, 0.0, a]), np.array([0.0, 0.0, p0]), sigma, 1)
    est = invert_r0(tensor)
    assert abs(est.value - a) / a < 0.01
    assert est.spread < 0.01


def test_invert_r0_sign_precondition():
    tensor = tensor_from_params(np.zeros(3), np.array([0.3, 0.0, 0.1]), 1.0, 1)
    with pytest.raises(PreconditionViolated):
        invert_r0(tensor)


def test_invert_p_zero_momentum():
    tensor = tensor_from_params(np.array([0.0, 0.0, 0.005]), np.zeros(3), 1.0, 1)
    assert invert_p(tensor, 1.0) == (0.0, 0.0)


def test_invert_p_roundtrip_x():
    sigma = 1.0
    a = 0.01 * sigma
    px = 0.05 * 0.5 / sigma
    tensor = tensor_from_params(np.array([0.0, 0.0, a]), np.array([px, 0.0, 0.0]), sigma, 1)
    got_px, got_pz = invert_p(tensor, sigma)
    assert abs(got_px - px) / px < 0.02
    assert abs(got_pz) < 0.02 * px


def test_invert_p_roundtrip_xz():
    sigma = 1.2
    a = 0.01 * sigma
    px = 0.05 * 0.5 / sigma
    pz = 0.03 * 0.5 / sigma
    tensor = tensor_from_params(np.array([0.0, 0.0, a]), np.array([px, 0.0, pz]), sigma, 1)
    got_px, got_pz = invert_p(tensor, sigma)
    assert abs(got_px - px) / px < 0.02
    assert abs(got_pz - pz) / pz < 0.02


def tensor_per_point(c, p, s, sign):
    """The tensor one sample at a time, as the per-sample observables computed it."""
    c = np.asarray(c, dtype=float).reshape(3)
    p = np.asarray(p, dtype=float).reshape(3)
    if abs(c[1]) > 1e-12 * (1.0 + np.linalg.norm(c)) or abs(p[1]) > 1e-12 * (
        1.0 + np.linalg.norm(p)
    ):
        raise PreconditionViolated("configuration must lie in the x-z plane")
    s2 = s * s
    if sign == 0:
        g = 0.0
        den = 1.0
    else:
        n = overlap_from_params(float(np.dot(c, c)), float(np.dot(p, p)), s)
        g = sign * n * n
        den = 1.0 + g
        if den <= 1e-12:
            raise DegenerateState("quadrupole tensor undefined at N -> 1")
    c2 = float(np.dot(c, c))
    p2 = float(np.dot(p, p))

    def diag(ax):
        return (6.0 * c[ax] ** 2 - 2.0 * c2 + 8.0 * s2 * s2 * g * (p2 - 3.0 * p[ax] ** 2)) / den

    d_xz = (2.0 * c[0] * c[2] - 8.0 * s2 * s2 * g * p[0] * p[2]) / den
    return observables.QuadrupoleTensor(diag(0), diag(1), diag(2), d_xz)


@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry), ids=lambda sym: sym.value)
@pytest.mark.parametrize("frozen", [False, True], ids=["spreading", "frozen"])
@pytest.mark.parametrize("px", [0.0, 0.2, -0.0], ids=["head-on", "oblique", "minus-zero"])
def test_array_tensor_matches_per_point(symmetry, frozen, px):
    law = SpreadLaw.frozen_width() if frozen else None
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 2.5]), np.array([px, 0.0, -0.4]),
                     symmetry, 1.0, law)
    traj = dynamics.integrate(initial_state(cfg), 0.05, 10.0)
    series = quadrupole_timeseries(traj)
    fields = ("d_xx", "d_yy", "d_zz", "d_xz")
    want = {f: np.empty(traj.t.size) for f in fields}
    for i in range(traj.t.size):
        point = tensor_per_point(0.5 * traj.r[i], traj.p[i], float(traj.sigma[i]), symmetry.sign)
        for f in fields:
            want[f][i] = getattr(point, f)
    norm = np.maximum(series.norm, 1.0)
    for f in fields:
        got = getattr(series, f)
        assert got.shape == traj.t.shape
        if px == 0.0:  # head-on, including a -0.0 start
            assert np.array_equal(got, want[f]), f
            assert np.array_equal(np.signbit(got), np.signbit(want[f])), f
        else:
            assert np.all(np.abs(got - want[f]) <= 1e-14 * norm), f


def test_tensor_of_one_state_has_float_entries():
    tensor = tensor_from_params([0.1, 0.0, 0.9], [0.3, 0.0, -0.2], 1.2, 1)
    point = tensor_per_point([0.1, 0.0, 0.9], [0.3, 0.0, -0.2], 1.2, 1)
    for f in ("d_xx", "d_yy", "d_zz", "d_xz"):
        assert type(getattr(tensor, f)) is float
        assert abs(getattr(tensor, f) - getattr(point, f)) <= 1e-14 * max(point.norm, 1.0)


def test_array_tensor_checks_every_sample():
    c = np.tile([0.0, 0.0, 1.5], (5, 1))
    p = np.tile([0.1, 0.0, -0.3], (5, 1))
    s = np.ones(5)
    for sign in (1, 0, -1):
        tensor_from_params(c, p, s, sign)
    off_plane = c.copy()
    off_plane[3, 1] = 1e-3
    with pytest.raises(PreconditionViolated):
        tensor_from_params(off_plane, p, s, 1)
    off_plane_p = p.copy()
    off_plane_p[2, 1] = 1e-3
    with pytest.raises(PreconditionViolated):
        tensor_from_params(c, off_plane_p, s, 0)
    coincident_c, coincident_p = c.copy(), p.copy()
    coincident_c[4] = 0.0
    coincident_p[4] = 0.0  # N = 1 on this sample only
    tensor_from_params(coincident_c, coincident_p, s, 1)
    with pytest.raises(DegenerateState):
        tensor_from_params(coincident_c, coincident_p, s, -1)


def test_detect_constant():
    state = state_with([0.0, 0.0, 2.0], [0.0, 0.0, 0.0])
    tensor = quadrupole_tensor(state)
    series = observables.QuadrupoleTensor(
        *(np.full(50, v) for v in (tensor.d_xx, tensor.d_yy, tensor.d_zz, tensor.d_xz))
    )
    verdict = detect(series)
    assert verdict.kind is SeriesKind.CONSTANT


def test_detect_monotone_and_oscillatory_synthetic():
    def tens(v):
        return observables.QuadrupoleTensor(-v / 2, -v / 2, v, np.zeros_like(v))

    ts = np.linspace(0.0, 10.0, 200)
    monotone = tens(ts ** 2 + 1)
    assert detect(monotone).kind is SeriesKind.MONOTONE_AFTER_TRANSIENT
    wavy = tens(np.sin(ts))
    verdict = detect(wavy)
    assert verdict.kind is SeriesKind.OSCILLATORY
    assert verdict.extrema_count >= 2


def test_detect_empty_series_raises():
    empty = np.empty(0)
    with pytest.raises(ValueError, match="empty series"):
        detect(observables.QuadrupoleTensor(empty, empty, empty, empty))


def test_timeseries_typical_vs_frozen():
    typical_cfg = PairConfig(1.0, np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, -0.5]))
    traj = dynamics.integrate(initial_state(typical_cfg), 0.05, 130.0)
    verdict = detect(quadrupole_timeseries(traj))
    assert verdict.kind is SeriesKind.MONOTONE_AFTER_TRANSIENT

    frozen_cfg = PairConfig(1.0, np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, -0.14]))
    traj = dynamics.integrate(initial_state(frozen_cfg), 0.1, 400.0)
    verdict = detect(quadrupole_timeseries(traj))
    assert verdict.kind is SeriesKind.OSCILLATORY
    assert verdict.extrema_count >= 2


def test_density_grid_shape_and_symmetry():
    state = state_with([0.0, 0.0, 4.0], [0.0, 0.0, -0.3])
    grid = density_grid(state, Plane.XZ, extent=6.0, n=24)
    assert grid.shape == (24, 24)
    np.testing.assert_allclose(grid, np.rot90(grid, 2), atol=1e-10 * float(grid.max()))


def density_at_point(x, c, p, s, sign):
    """Reference: the scalar one-point density, one math.exp per Gaussian."""
    s2 = s * s
    norm = (2.0 * math.pi * s2) ** -1.5
    g_plus = math.exp(-float(np.dot(x - c, x - c)) / (2.0 * s2))
    g_minus = math.exp(-float(np.dot(x + c, x + c)) / (2.0 * s2))
    if sign == 0:
        return norm * (g_plus + g_minus)
    n = math.exp(-float(np.dot(c, c)) / (2.0 * s2) - 2.0 * s2 * float(np.dot(p, p)))
    cross = (2.0 * n * math.exp(-(float(np.dot(x, x)) + float(np.dot(c, c))) / (2.0 * s2))
             * math.cos(2.0 * float(np.dot(p, x))))
    return norm * (g_plus + g_minus + sign * cross) / (1.0 + sign * n * n)


def density_grid_per_cell(state, plane, extent, n):
    """Reference: the grid filled one scalar density evaluation per cell."""
    step = 2.0 * extent / n
    coords = -extent + step * (np.arange(n) + 0.5)
    a_col, a_row = {Plane.XZ: (0, 2), Plane.XY: (0, 1), Plane.YZ: (1, 2)}[plane]
    c = 0.5 * state.r
    sign = state.config.symmetry.sign
    grid = np.empty((n, n))
    point = np.zeros(3)
    for i, second in enumerate(coords):
        for j, first in enumerate(coords):
            point[:] = 0.0
            point[a_col] = first
            point[a_row] = second
            grid[i, j] = density_at_point(point, c, state.p, state.width, sign)
    return grid


def centres_antisymmetric(extent, n):
    step = 2.0 * extent / n
    coords = -extent + step * (np.arange(n) + 0.5)
    return bool(np.array_equal(coords, -coords[::-1]))


_SYMMETRIES = (
    ExchangeSymmetry.SYMMETRIC,
    ExchangeSymmetry.ANTISYMMETRIC,
    ExchangeSymmetry.DISTINGUISHABLE,
)


@pytest.mark.parametrize("plane", list(Plane))
@pytest.mark.parametrize("symmetry", _SYMMETRIES)
@pytest.mark.parametrize("frozen", [False, True])
def test_density_grid_matches_per_cell_loop(plane, symmetry, frozen):
    law = SpreadLaw.frozen_width() if frozen else None
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 1.0]), np.array([0.05, 0.0, 0.0]),
                     symmetry, 1.0, law)
    # every component nonzero, so each plane sees the lobes and the phase
    state = PhaseState(np.array([0.7, -0.4, 1.9]), np.array([0.3, 0.2, -0.5]), 6.0, cfg)
    # exactly antisymmetric cell centres come only with some even n
    antisymmetric_cases = 0
    for extent, n in ((6.0, 24), (4.0, 32), (7.3, 17), (3.1, 16), (0.7, 33)):
        grid = density_grid(state, plane, extent, n)
        ref = density_grid_per_cell(state, plane, extent, n)
        assert grid.shape == (n, n)
        np.testing.assert_allclose(grid, ref, rtol=1e-12, atol=np.finfo(float).tiny)
        if centres_antisymmetric(extent, n):
            antisymmetric_cases += 1
            assert np.array_equal(grid, grid[::-1, ::-1])
    assert antisymmetric_cases >= 2


@pytest.mark.parametrize("sign", [1, -1, 0])
def test_density_from_params_point_and_batch_agree(sign):
    points = np.random.default_rng(5).uniform(-6.0, 6.0, size=(5, 7, 3))
    c, p, s = np.array([0.4, -0.2, 1.5]), np.array([0.3, 0.1, -0.6]), 1.3
    batch = density_from_params(points, c, p, s, sign)
    assert batch.shape == (5, 7)
    for idx in np.ndindex(5, 7):
        one = density_from_params(points[idx], c, p, s, sign)
        assert type(one) is float
        assert one == pytest.approx(batch[idx], rel=1e-12, abs=np.finfo(float).tiny)
        assert one == pytest.approx(density_at_point(points[idx], c, p, s, sign), rel=1e-12)


def test_density_grid_degenerate_antisymmetric_pair():
    # N -> 1: the antisymmetric state vanishes and cannot be normalized
    state = state_with([0.0, 0.0, 1e-7], [0.0, 0.0, 0.0],
                       symmetry=ExchangeSymmetry.ANTISYMMETRIC)
    with pytest.raises(DegenerateState):
        density_grid(state, Plane.XZ, extent=4.0, n=16)


def test_density_grid_makes_one_density_call(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return density_from_params(*args)

    monkeypatch.setattr(observables, "density_from_params", counted)
    state = state_with([0.0, 0.0, 4.0], [0.0, 0.0, -0.3])
    grid = density_grid(state, Plane.XY, extent=6.0, n=40)
    assert len(calls) == 1
    assert calls[0][0].shape == (40, 40, 3)
    assert grid.shape == (40, 40)


def test_density_grid_riemann_consistency():
    state = state_with([0.0, 0.0, 2.0], [0.0, 0.0, -0.2])
    coarse = density_grid(state, Plane.XZ, extent=8.0, n=64)
    fine = density_grid(state, Plane.XZ, extent=8.0, n=192)
    riemann_coarse = float(coarse.sum()) * (16.0 / 64) ** 2
    riemann_fine = float(fine.sum()) * (16.0 / 192) ** 2
    assert abs(riemann_coarse / riemann_fine - 1.0) < 0.01


def lobe_positions(grid, extent):
    # z profile along the central x column (rows vary z for the xz plane);
    # ">=" on the falling side tolerates the exact center tie of even grids
    n = grid.shape[0]
    step = 2.0 * extent / n
    cut = grid[:, n // 2]
    peaks = [
        i for i in range(1, n - 1) if cut[i] > cut[i - 1] and cut[i] >= cut[i + 1]
    ]
    zs = [-extent + step * (i + 0.5) for i in peaks]
    return zs, cut


def test_lobe_recession_vs_spreading():
    # typical case: inter-lobe distance outruns the packet width
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, -1.0]))
    traj = dynamics.integrate(initial_state(cfg), 0.02, 32.0)
    seps = {}
    widths = {}
    for t_probe in (16.0, 30.0):
        i = int(round(t_probe / 0.02))
        state = traj.state(i)
        seps[t_probe] = state.separation
        widths[t_probe] = state.width
        grid = density_grid(state, Plane.XZ, extent=3.0 * state.separation, n=96)
        zs, _ = lobe_positions(grid, 3.0 * state.separation)
        assert len(zs) >= 2, "typical case should show two density lobes"
        spread = max(zs) - min(zs)
        assert abs(spread - state.separation) / state.separation < 0.2
    assert seps[30.0] / seps[16.0] > widths[30.0] / widths[16.0]

    # frozen case: lobes merged (single maximum) while the width keeps growing
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, -0.14]))
    traj = dynamics.integrate(initial_state(cfg), 0.1, 300.0)
    for t_probe in (150.0, 290.0):
        i = int(round(t_probe / 0.1))
        state = traj.state(i)
        assert state.separation / state.width < 0.2
        grid = density_grid(state, Plane.XZ, extent=2.0 * state.width, n=96)
        zs, cut = lobe_positions(grid, 2.0 * state.width)
        assert len(zs) == 1, "frozen case should stay single-lobed"
