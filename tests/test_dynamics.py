"""Tests for trajectory integration, traveltimes and regimes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from coherentpair import dynamics, meanfield, numerics, pairstate
from coherentpair.dynamics import Outcome, Regime
from coherentpair.errors import MalformedTrajectory, NonFinite
from coherentpair.meanfield import PhaseState, initial_state
from coherentpair.pairstate import ExchangeSymmetry, PairConfig

from test_meanfield import grad_p, grad_r


def make_config(p=0.5, sigma=1.0, d0=10.0, symmetry=ExchangeSymmetry.SYMMETRIC,
                coupling=1.0, frozen=False):
    return PairConfig(sigma, np.array([0.0, 0.0, d0 / 2.0]),
                      np.array([0.0, 0.0, -p]), symmetry, coupling, frozen_width=frozen)


# a head-on start, which integrate steps on (r_z, p_z) alone, and an oblique
# one, which it steps on all six floats
_STARTS = {"head-on": (0.0, 0.0), "oblique": (0.037, 0.011)}


def start_state(start, **config):
    cfg = make_config(**config)
    px, py = _STARTS[start]
    return initial_state(replace(cfg, p0=np.array([px, py, cfg.p0[2]])))


def test_free_motion_exact():
    cfg = make_config(p=0.5, symmetry=ExchangeSymmetry.DISTINGUISHABLE,
                      coupling=0.0, frozen=True)
    traj = dynamics.integrate(initial_state(cfg), 0.01, 10.0)
    assert traj.t.size == 1001
    expected = 10.0 - 1.0 * traj.t  # dr/dt = 2p with p_z = -0.5
    assert float(np.max(np.abs(traj.r[:, 2] - expected))) < 1e-9
    np.testing.assert_allclose(traj.p, np.tile([0.0, 0.0, -0.5], (1001, 1)), atol=1e-12)


def test_time_reversal():
    cfg = make_config(p=0.4, frozen=True)
    fwd = dynamics.integrate(initial_state(cfg), 0.01, 12.0)
    back_start = PhaseState(fwd.r[-1], -fwd.p[-1], 0.0, cfg)
    back = dynamics.integrate(back_start, 0.01, 12.0)
    r_err = np.linalg.norm(back.r[-1] - fwd.r[0]) / np.linalg.norm(fwd.r[0])
    p_err = np.linalg.norm(back.p[-1] + fwd.p[0]) / np.linalg.norm(fwd.p[0])
    assert r_err < 1e-6 and p_err < 1e-6


def test_frozen_width_energy_conservation():
    cfg = make_config(p=0.5, frozen=True)
    traj = dynamics.integrate(initial_state(cfg), 0.01, 30.0)
    energy = traj.energy[:, 5]
    drift = float(np.max(np.abs(energy - energy[0]))) / abs(energy[0])
    assert drift < 1e-6


def test_step_halving_convergence():
    cfg = make_config(p=0.3)

    def final(dt):
        traj = dynamics.integrate(initial_state(cfg), dt, 24.0)
        return np.concatenate([traj.r[-1], traj.p[-1]])

    f1, f2, f4 = final(0.2), final(0.1), final(0.05)
    scale = float(np.linalg.norm(f4))
    d1 = float(np.linalg.norm(f1 - f2))
    d2 = float(np.linalg.norm(f2 - f4))
    assert d1 / scale < 1e-6
    assert 16.0 / 1.3 < d1 / d2 < 16.0 * 1.3


def test_gradient_modes_agree():
    # the analytic RHS against an RK4 loop over the central-difference gradients
    cfg = make_config(p=0.4)
    a = dynamics.integrate(initial_state(cfg), 0.05, 5.0)

    def deriv_numeric(y, t):
        state = PhaseState(y[:3], y[3:], t, cfg)
        return np.concatenate([grad_p(state), -grad_r(state)])

    y = np.concatenate([a.r[0], a.p[0]])
    ys = [y]
    t = 0.0
    for _ in range(a.t.size - 1):
        y = numerics.rk4_step(y, t, 0.05, deriv_numeric)
        t += 0.05
        ys.append(y)
    n = np.array(ys)
    assert float(np.max(np.abs(a.r - n[:, :3]))) < 1e-6
    assert float(np.max(np.abs(a.p - n[:, 3:]))) < 1e-6


def rk4_step_arrays(state, t, dt, deriv):
    """The numpy-array RK4 step ``numerics.rk4_step`` replaced."""
    y = np.asarray(state, dtype=float)
    k1 = np.asarray(deriv(y, t), dtype=float)
    k2 = np.asarray(deriv(y + 0.5 * dt * k1, t + 0.5 * dt), dtype=float)
    k3 = np.asarray(deriv(y + 0.5 * dt * k2, t + 0.5 * dt), dtype=float)
    k4 = np.asarray(deriv(y + dt * k3, t + dt), dtype=float)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_arrays(initial, dt, t_max, stop_at_separation=None):
    """``integrate`` over numpy arrays: (t, r, p, sigma) of every sample."""
    config = initial.config
    width = config.width
    sign, kappa = config.symmetry.sign, config.coupling

    def deriv(y, t):
        rx, ry, rz, px, py, pz = y.tolist()
        rho = rx * rx + ry * ry + rz * rz
        pp = px * px + py * py + pz * pz
        _, de_drho, de_dpp = meanfield._core(rho, pp, width(t), sign, kappa)
        gr = 2.0 * de_drho
        gp = 2.0 * de_dpp
        return np.array([gp * px, gp * py, gp * pz, -gr * rx, -gr * ry, -gr * rz])

    y = np.concatenate([initial.r, initial.p]).astype(float)
    ts, ys = [0.0], [y.copy()]
    dipped = False
    t = 0.0
    for _ in range(int(round(t_max / dt))):
        y = rk4_step_arrays(y, t, dt, deriv)
        t += dt
        ts.append(t)
        ys.append(y.copy())
        if stop_at_separation is not None:
            rx, ry, rz = y[:3].tolist()
            d = math.sqrt(rx * rx + ry * ry + rz * rz)
            if d < stop_at_separation:
                dipped = True
            elif dipped:
                break
    tarr, yarr = np.array(ts), np.array(ys)
    sarr = np.array([width(tv) for tv in tarr])
    return tarr, yarr[:, :3], yarr[:, 3:], sarr


@pytest.mark.parametrize("stop", [False, True], ids=["full", "stop"])
@pytest.mark.parametrize("frozen", [False, True], ids=["spreading", "frozen"])
@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry), ids=lambda sym: sym.value)
def test_integrate_matches_the_array_rk4_bit_for_bit(symmetry, frozen, stop):
    starts = {
        "head-on": ([0.0, 0.0, 5.0], [0.0, 0.0, -0.3]),
        "oblique": ([0.4, -0.3, 5.0], [0.037, 0.011, -0.3]),
        "signed-zero": ([-0.0, 0.0, 5.0], [0.0, -0.0, -0.3]),
        # -0.0 entries that stay -0.0 while the pair repels: -0.0 is no head-on start
        "signed-zero-kept": ([-0.0, 0.0, 5.0], [-0.0, 0.0, -0.3]),
    }
    for name, (r0, p0) in starts.items():
        cfg = replace(make_config(symmetry=symmetry, frozen=frozen),
                      r0=np.array(r0), p0=np.array(p0))
        state = initial_state(cfg)
        t_free = dynamics.free_traveltime(10.0, 0.6)
        d0 = float(np.linalg.norm(state.r)) if stop else None
        args = (state, t_free / 200.0, 2.5 * t_free, d0)
        traj = dynamics.integrate(*args)
        for got, want in zip((traj.t, traj.r, traj.p, traj.sigma), integrate_arrays(*args)):
            assert np.array_equal(got, want), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name
        if stop:  # the return ends the run before its 500 steps
            assert traj.t.size <= 500, name


def per_sample_columns(traj):
    """Overlap and energy columns by the per-sample loop integrate once ran."""
    sign = traj.config.symmetry.sign
    kappa = traj.config.coupling
    overlap = np.empty_like(traj.t)
    energy = np.empty((traj.t.size, 6))
    for i in range(traj.t.size):
        rho = float(np.dot(traj.r[i], traj.r[i]))
        pp = float(np.dot(traj.p[i], traj.p[i]))
        s = float(traj.sigma[i])
        overlap[i] = pairstate.overlap_from_params(0.25 * rho, pp, s)
        bd = meanfield.EnergyBreakdown(*meanfield._core(rho, pp, s, sign, kappa)[0])
        energy[i] = (bd.kinetic_classical, bd.kinetic_uncertainty, bd.kinetic_exchange,
                     bd.coulomb_direct, bd.coulomb_exchange, bd.total)
    return overlap, energy


@pytest.mark.parametrize("stop", [False, True], ids=["full", "stop"])
@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry), ids=lambda sym: sym.value)
@pytest.mark.parametrize("frozen", [False, True])
def test_energy_and_overlap_are_computed_on_first_read(monkeypatch, symmetry, frozen, stop):
    calls = []
    core = meanfield._core

    def counted(*args):
        calls.append(args)
        return core(*args)

    monkeypatch.setattr(meanfield, "_core", counted)
    cfg = make_config(p=0.3, symmetry=symmetry, frozen=frozen)
    state = initial_state(cfg)
    d0 = float(np.linalg.norm(state.r)) if stop else None
    traj = dynamics.integrate(state, 0.1, 100.0 if stop else 12.0, d0)
    if stop:  # the return ends the run before its 1000 steps
        assert traj.t.size < 1000
    assert calls == []
    overlap, energy = per_sample_columns(traj)
    calls.clear()
    assert np.array_equal(traj.energy, energy)
    # integrate kept every sample's stage-1 energy terms but the last one's
    assert len(calls) <= 1
    assert traj.energy is traj.energy and len(calls) <= 1
    assert np.array_equal(traj.overlap, overlap)
    np.testing.assert_array_equal(traj.sigma, [cfg.width(float(t)) for t in traj.t])


def six_float_reference(state):
    """The same start with p_x = -0.0, which integrate steps on all six floats."""
    return replace(state, p=np.array([-0.0, *state.p[1:]]))


def assert_axis_run_is_the_six_float_run(axis, six):
    """Bitwise equality of a head-on run and its six-float reference."""
    assert np.signbit(six.p[0, 0])
    for name in ("t", "r", "p", "sigma", "energy", "overlap"):
        assert np.array_equal(getattr(axis, name), getattr(six, name)), name
    # the axis loop's x and y columns are +0.0 throughout
    assert not np.signbit(axis.r[:, :2]).any() and not np.signbit(axis.p[:, :2]).any()
    res_axis, res_six = dynamics.traveltime(axis), dynamics.traveltime(six)
    assert res_axis == res_six
    regime = dynamics.classify(axis, res_axis)
    assert regime is dynamics.classify(six, res_six)
    return regime


@pytest.mark.parametrize("stop", [False, True], ids=["full", "stop"])
@pytest.mark.parametrize("frozen", [False, True], ids=["spreading", "frozen"])
@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry), ids=lambda sym: sym.value)
def test_head_on_axis_loop_matches_the_six_float_loop_bit_for_bit(symmetry, frozen, stop):
    regimes = set()
    for p in (0.1, 0.15, 1.0):
        state = initial_state(make_config(p=p, symmetry=symmetry, frozen=frozen))
        t_free = dynamics.free_traveltime(10.0, 2.0 * p)
        args = (t_free / 200.0, 2.5 * t_free, 10.0 if stop else None)
        axis = dynamics.integrate(state, *args)
        six = dynamics.integrate(six_float_reference(state), *args)
        regimes.add(assert_axis_run_is_the_six_float_run(axis, six))
    # with a spreading width the symmetric and distinguishable pairs return
    # at p = 0.1, stall at 0.15 and pass through at 1.0
    if not frozen and symmetry is not ExchangeSymmetry.ANTISYMMETRIC:
        assert regimes == {Regime.CLASSICAL_LIKE, Regime.FROZEN, Regime.PASS_THROUGH}


@pytest.mark.parametrize("symmetry, frozen, sigma, pz, r0, message", [
    # |p|^2 = inf makes dE/d|p|^2 nan: the six-float x and y entries turn nan
    (ExchangeSymmetry.SYMMETRIC, False, 1.0, -1e160, 5.0, "produced a non-finite state"),
    # |r| = 2e-104 makes dE/drho = -inf; two stages on, the axis sees
    # |r|^2 = inf, which returns before rho / (16 sigma^4), and the
    # six-float loop nan, which reaches it with sigma^4 = 0
    (ExchangeSymmetry.SYMMETRIC, True, 1.5e-154, -0.3, 1e-104,
     "left the float range (ZeroDivisionError)"),
], ids=["nan-gradient", "inf-gradient"])
def test_a_failing_head_on_step_fails_as_the_six_float_loop(symmetry, frozen, sigma, pz,
                                                            r0, message):
    cfg = PairConfig(sigma, np.array([0.0, 0.0, r0]), np.array([0.0, 0.0, pz]), symmetry,
                     frozen_width=frozen)
    state = initial_state(cfg)
    errors = []
    for start in (state, six_float_reference(state)):
        with pytest.raises(NonFinite) as exc:
            dynamics.integrate(start, 0.1, 1.0)
        errors.append(str(exc.value))
    assert errors == [f"the RK4 step from t=0 {message}"] * 2


@pytest.mark.parametrize("start", list(_STARTS))
def test_every_step_makes_four_rhs_calls_and_energies_one_more(monkeypatch, start):
    # bench/tracer.py counts dynamics._core calls as right-hand sides and
    # meanfield._core calls as energies
    calls = {"rhs": 0, "energy": 0}

    def counting(kind, core):
        def counted(*args):
            calls[kind] += 1
            return core(*args)
        return counted

    monkeypatch.setattr(dynamics, "_core", counting("rhs", dynamics._core))
    monkeypatch.setattr(meanfield, "_core", counting("energy", meanfield._core))
    for stop in (None, 10.0):
        calls.update(rhs=0, energy=0)
        traj = dynamics.integrate(start_state(start, p=0.3), 0.1, 100.0, stop)
        assert calls == {"rhs": 4 * (traj.t.size - 1), "energy": 0}
        assert traj.energy.shape == (traj.t.size, 6)
        assert calls == {"rhs": 4 * (traj.t.size - 1), "energy": 1}


@pytest.mark.parametrize("start", list(_STARTS))
def test_a_run_continued_from_a_sample_is_the_rest_of_the_run(start):
    # the clock, and with it the spreading width, starts at the state's t
    traj = dynamics.integrate(start_state(start, p=0.3), 0.05, 20.0)
    k = 150
    rest = dynamics.integrate(traj.state(k), 0.05, 20.0 - traj.t[k])
    assert rest.sigma[0] > 3.0 * traj.sigma[0]
    for name in ("t", "r", "p", "sigma", "energy"):
        got, want = getattr(rest, name), getattr(traj, name)[k:]
        assert np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name


def test_traveltime_free_flight():
    cfg = make_config(p=0.5, symmetry=ExchangeSymmetry.DISTINGUISHABLE,
                      coupling=0.0, frozen=True)
    traj = dynamics.integrate(initial_state(cfg), 0.01, 30.0)
    res = dynamics.traveltime(traj)
    # separation rate is 2|p| = 1, so return after 2 d0 / (2 p) = 20
    assert res.outcome is Outcome.RETURN
    assert abs(res.t_return - 20.0) < 1e-6
    assert res.d_min < 0.02


def test_traveltime_requires_inward_motion():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, 0.3]))
    traj = dynamics.integrate(initial_state(cfg), 0.05, 2.0)
    with pytest.raises(MalformedTrajectory):
        dynamics.traveltime(traj)


def traveltime_loop(traj):
    """(outcome, t_return, d_min) by the per-sample loop traveltime once ran."""
    d = traj.separation
    d_init = float(d[0])
    below = False
    d_min = d_init
    for k in range(1, d.size):
        dk = float(d[k])
        if dk < d_min:
            d_min = dk
        if dk < d_init:
            below = True
        elif below and dk >= d_init:
            prev = float(d[k - 1])
            frac = (d_init - prev) / (dk - prev) if dk > prev else 1.0
            t_ret = float(traj.t[k - 1]) + frac * (float(traj.t[k]) - float(traj.t[k - 1]))
            return Outcome.RETURN, t_ret, d_min
    return Outcome.NO_RETURN, None, d_min


def separation_path(d):
    """A hand-made trajectory along z whose separation is ``d``, moving inward."""
    d = np.asarray(d, dtype=float)
    r = np.zeros((d.size, 3))
    r[:, 2] = d
    p = np.zeros((d.size, 3))
    p[0, 2] = -1.0
    return dynamics.Trajectory(make_config(), 0.1 * np.arange(d.size), r, p, np.ones(d.size), [])


@pytest.mark.parametrize("stop", [False, True], ids=["full", "stop"])
@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry), ids=lambda sym: sym.value)
def test_traveltime_matches_the_per_sample_loop(symmetry, stop):
    outcomes = set()
    for p in (0.05, 0.14, 0.2, 0.5, 1.0, 3.0):
        for frozen in (False, True):
            cfg = make_config(p=p, symmetry=symmetry, frozen=frozen)
            state = initial_state(cfg)
            t_free = dynamics.free_traveltime(10.0, 2.0 * p)
            d0 = float(np.linalg.norm(state.r)) if stop else None
            # a horizon short of the free return time gives the no-return cases
            for horizon in (0.6, 3.0):
                traj = dynamics.integrate(state, t_free / 100.0, horizon * t_free, d0)
                res = dynamics.traveltime(traj)
                want = traveltime_loop(traj)
                assert (res.outcome, res.t_return, res.d_min) == want, (p, frozen, horizon)
                outcomes.add(res.outcome)
    assert outcomes == {Outcome.RETURN, Outcome.NO_RETURN}


@pytest.mark.parametrize("d", [
    [2.0, 1.5, 1.0, 1.5, 2.0, 2.5],
    [2.0, 1.0, 2.5, 0.5, 3.0],
    [2.0, 1.0, 0.5, 0.5, 1.0],
    [2.0, 2.0, 1.0, 2.0],
    [2.0, 2.5, 1.0, 1.9],
    [2.0],
], ids=["touch", "first-return", "no-return", "flat-start", "out-first", "one-sample"])
def test_traveltime_matches_the_per_sample_loop_on_hand_made_paths(d):
    traj = separation_path(d)
    res = dynamics.traveltime(traj)
    assert (res.outcome, res.t_return, res.d_min) == traveltime_loop(traj)


def test_free_traveltime():
    assert dynamics.free_traveltime(1.0, 1.0) == 2.0
    assert dynamics.free_traveltime(3.0, 1.0) == 3.0 * dynamics.free_traveltime(1.0, 1.0)
    for d0, v0 in ((2.0, 0.5), (7.0, 3.0)):
        assert abs(dynamics.free_traveltime(d0, v0) * v0 - 2.0 * d0) < 1e-14


def test_classical_traveltime_free_limit():
    assert dynamics.classical_traveltime(4.0, 0.8, 0.0) == 10.0
    # quadrature-verified deviations from the free value: 1.96% at a kinetic
    # energy of 100 barrier units, below 1% only from ~400 units up
    d0 = 10.0
    for mult, gate in ((100.0, 0.021), (400.0, 0.01)):
        v0 = math.sqrt(2.0 * mult * 1.0 / d0 / 0.5)
        t = dynamics.classical_traveltime(d0, v0, 1.0)
        assert abs(t / dynamics.free_traveltime(d0, v0) - 1.0) < gate


def classical_return_time(d0, p, coupling):
    """Closed form of the reduced-mass Coulomb return time at v0 = 2 p.

    With E = p^2 + k/d0: t = d0 p / E + k E^-3/2 ln((sqrt(E d0) + p sqrt(d0)) / sqrt(k)).
    """
    energy = p * p + coupling / d0
    return d0 * p / energy + coupling * energy ** -1.5 * math.log(
        (math.sqrt(energy * d0) + p * math.sqrt(d0)) / math.sqrt(coupling)
    )


@pytest.mark.parametrize("coupling", [0.5, 1.0, 2.0])
def test_classical_traveltime_closed_form(coupling):
    # near the turning point E - k/d used to cancel; p = 0.12 at r0 = 5
    # (d0 = 10) was 2.2e-8 off
    cases = [(float(p), float(d0)) for p in np.linspace(0.05, 2.0, 14)
             for d0 in np.linspace(2.0, 20.0, 7)]
    cases.append((0.12, 10.0))
    for p, d0 in cases:
        got = dynamics.classical_traveltime(d0, 2.0 * p, coupling)
        want = classical_return_time(d0, p, coupling)
        assert abs(got / want - 1.0) <= 1e-10, (p, d0)


def repulsive_return_time_mp(d0, p, coupling):
    """2 int_dmin^d0 dd / sqrt((2/mu)(E - k/d)) at mu = 1/2 by mpmath at 40 digits.

    With W = d0 - d_min = p^2 d0 / E (no cancellation) and d = d0 - W s^2,
    the integrand 2 sqrt((d_min + W s^2) / E) sqrt(W) ds is smooth on [0, 1]
    apart from a kink of width sqrt(d_min / W), which gets its own break
    point.  mpmath's quadrature misjudges convergence on integrands far from
    unit size, so sqrt(W / E) stays outside the integral.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        d0, p, k = mp.mpf(d0), mp.mpf(p), mp.mpf(coupling)
        energy = p * p + k / d0
        d_min = k / energy
        w = p * p * d0 / energy
        points = [0, mp.sqrt(d_min / w), 1] if d_min < w else [0, 1]
        integral = mp.quad(lambda s: mp.sqrt(d_min + w * s * s), points)
        return float(2 * mp.sqrt(w / energy) * integral)


@pytest.mark.parametrize("coupling", [1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300])
def test_classical_traveltime_repulsive_against_mpmath(coupling):
    # the quadrature in d = d_min + u^2 over [0, sqrt(d0 - k/E)] cancelled as
    # p -> 0: at k = 1 it was 9.3e-4 off at p = 1e-7 and returned 0 at 1e-9
    for p in np.logspace(-9.0, 3.0, 13):
        got = dynamics.classical_traveltime(10.0, 2.0 * p, coupling)
        want = repulsive_return_time_mp(10.0, p, coupling)
        assert abs(got / want - 1.0) <= 1e-14, p


def attractive_return_time(d0, v0, coupling):
    """2 int_0^d0 dd / sqrt((2/mu)(E - k/d)) at mu = 1/2 by scipy's quad.

    The attracted pair falls through d = 0 and climbs back to d0; the
    integrand vanishes like sqrt(d) at d = 0, which quad resolves directly.
    """
    integrate = pytest.importorskip("scipy.integrate")
    energy = 0.25 * v0 * v0 + coupling / d0

    def f(d):
        return math.sqrt(d / (4.0 * (energy * d - coupling))) if d > 0.0 else 0.0

    return 2.0 * integrate.quad(f, 0.0, d0, epsabs=0.0, epsrel=1e-13, limit=400)[0]


@pytest.mark.parametrize("coupling", [-2.5, -1.0, -0.3, -0.05])
def test_classical_traveltime_attractive_against_quad(coupling):
    # E = p^2 + k/d0 <= 0 included: at k = -2.5 every p below 0.5 / sqrt(d0 / 10)
    for p in np.linspace(0.05, 2.0, 14):
        for d0 in np.linspace(2.0, 20.0, 7):
            got = dynamics.classical_traveltime(d0, 2.0 * p, coupling)
            want = attractive_return_time(d0, 2.0 * p, coupling)
            assert abs(got / want - 1.0) <= 1e-9, (p, d0)


def test_classical_traveltime_attractive_at_any_energy():
    # E = 0 at d0 = 10, v0 = 1, k = -2.5: the fall from rest, (2/3) d0^3/2 / sqrt(|k|)
    assert abs(dynamics.classical_traveltime(10.0, 1.0, -2.5) / (40.0 / 3.0) - 1.0) < 1e-12
    # E = -0.1875 < 0 and E > 0 both return
    slow = dynamics.classical_traveltime(10.0, 0.5, -2.5)
    fast = dynamics.classical_traveltime(10.0, 2.0, -2.5)
    assert slow > 40.0 / 3.0 > fast > 0.0
    # the kink the old form put inside the interval: 5.3 % off here, 0 at d0 = 20
    assert abs(dynamics.classical_traveltime(10.0, 0.4, -0.3) - 35.2081566998) < 1e-9
    assert abs(dynamics.classical_traveltime(20.0, 0.1, -0.05) - 800.0 / 3.0) < 1e-9
    # a kinetic term mu v0^2 d0 / 2 that underflows to 0 would divide by 0 at d = d0
    with pytest.raises(ValueError, match="underflows"):
        dynamics.classical_traveltime(10.0, 1e-300, -1.0)


def test_classical_traveltime_monotone():
    # strictly decreasing beyond the shallow-entry peak near v0 ~ 0.6
    # (slower pairs turn around right at d0, so t -> 0 as v0 -> 0)
    times = [dynamics.classical_traveltime(10.0, v, 1.0) for v in np.linspace(0.8, 3.0, 12)]
    assert all(a > b for a, b in zip(times, times[1:]))


def test_classify_passthrough_free():
    cfg = make_config(p=0.5, symmetry=ExchangeSymmetry.DISTINGUISHABLE,
                      coupling=0.0, frozen=True)
    traj = dynamics.integrate(initial_state(cfg), 0.01, 30.0)
    res = dynamics.traveltime(traj)
    assert dynamics.classify(traj, res) is Regime.PASS_THROUGH


def test_classify_classical_reflection():
    cfg = make_config(p=0.35, sigma=0.1, symmetry=ExchangeSymmetry.DISTINGUISHABLE,
                      frozen=True)
    t_free = dynamics.free_traveltime(10.0, 0.7)
    traj = dynamics.integrate(initial_state(cfg), t_free / 2000.0, 3.0 * t_free,
                              stop_at_separation=10.0)
    res = dynamics.traveltime(traj)
    assert res.outcome is Outcome.RETURN
    assert dynamics.classify(traj, res) is Regime.CLASSICAL_LIKE
    # quantitative classical limit lives in the acceptance suite
    t_cl = dynamics.classical_traveltime(10.0, 0.7, 1.0)
    assert abs(res.t_return / t_cl - 1.0) < 0.02


def test_classify_frozen_window():
    cfg = make_config(p=0.14)
    t_free = dynamics.free_traveltime(10.0, 0.28)
    traj = dynamics.integrate(initial_state(cfg), t_free / 400.0, 2.5 * t_free)
    res = dynamics.traveltime(traj)
    assert res.outcome is Outcome.NO_RETURN
    assert dynamics.classify(traj, res) is Regime.FROZEN


def test_sweep_single_point_consistency():
    cfg = make_config(p=0.5)
    records = dynamics.sweep_traveltime(cfg, [0.5], horizon_factor=5.0)
    assert len(records) == 1
    rec = records[0]
    t_free = dynamics.free_traveltime(10.0, 1.0)
    assert abs(rec.t_free - t_free) < 1e-12
    traj = dynamics.integrate(initial_state(make_config(p=0.5)), t_free / 400.0,
                              5.0 * t_free, stop_at_separation=10.0)
    res = dynamics.traveltime(traj)
    assert abs(rec.t_coherent - res.t_return) < 1e-9


def test_sweep_honours_the_template_frozen_width():
    # every point inherits the template's frozen width, not the free spreading
    template = make_config(p=0.5, frozen=True)
    rec, = dynamics.sweep_traveltime(template, [0.2], horizon_factor=2.5)
    t_free = dynamics.free_traveltime(10.0, 0.4)
    cfg = make_config(p=0.2, frozen=True)
    traj = dynamics.integrate(initial_state(cfg), t_free / 400.0, 2.5 * t_free,
                              stop_at_separation=10.0)
    res = dynamics.traveltime(traj)
    assert (rec.t_coherent, rec.d_min) == (res.t_return, res.d_min)
    assert rec.regime is dynamics.classify(traj, res)
    natural, = dynamics.sweep_traveltime(make_config(), [0.2], horizon_factor=2.5)
    assert (natural.t_coherent, natural.d_min) != (rec.t_coherent, rec.d_min)


def test_sweep_error_capture():
    # antisymmetric pair with r0 = 0 template and p from grid is fine; force an
    # error with a zero momentum grid point instead
    cfg = make_config(p=0.5)
    records = dynamics.sweep_traveltime(cfg, [0.0], horizon_factor=2.0)
    assert records[0].error is not None


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("symmetry", [ExchangeSymmetry.SYMMETRIC, ExchangeSymmetry.ANTISYMMETRIC])
def test_early_stop_ends_on_the_return_sample(symmetry, frozen):
    # the sweep's early stop must leave traveltime and classify unchanged; the
    # oblique start leaves the z axis, where |r| may round either way at d0
    head_on = [[0.0, 0.0, -p] for p in (0.10, 0.15, 0.20, 0.25, 0.30, 0.5)]
    for p0 in head_on + [[0.037, 0.011, -0.3]]:
        cfg = replace(make_config(symmetry=symmetry, frozen=frozen), p0=np.array(p0))
        p = float(np.linalg.norm(p0))
        t_free = dynamics.free_traveltime(10.0, 2.0 * p)
        args = (initial_state(cfg), t_free / 400.0, 2.5 * t_free)
        full = dynamics.integrate(*args)
        stopped = dynamics.integrate(*args, stop_at_separation=10.0)
        res_full = dynamics.traveltime(full)
        res_stop = dynamics.traveltime(stopped)
        assert res_stop == res_full, p0
        assert dynamics.classify(stopped, res_stop) is dynamics.classify(full, res_full)
        n = stopped.t.size
        np.testing.assert_array_equal(stopped.r, full.r[:n])
        d = stopped.separation
        if res_full.outcome is Outcome.RETURN:
            # d dips below d0 and the path ends on the first sample back at d0
            first = int(np.argmax(d < 10.0))
            assert first > 0 and np.all(d[first:-1] < 10.0) and d[-1] >= 10.0, p0
            assert n < full.t.size
        else:
            assert n == full.t.size


@pytest.mark.parametrize("start", list(_STARTS))
def test_integrate_step_budget(start):
    state = start_state(start, p=0.5)
    with pytest.raises(ValueError, match="^t_max / dt = 1e[+]302 exceeds the budget"):
        dynamics.integrate(state, 0.01, 1e300)
    with pytest.raises(ValueError, match="^t_max / dt = inf exceeds the budget"):
        dynamics.integrate(state, 1e-300, 1e300)
    with pytest.raises(ValueError, match="^t_max / dt = 1e[+]07 exceeds the budget"):
        dynamics.integrate(state, 1.0, dynamics.MAX_STEPS + 1.0)


@pytest.mark.parametrize("start", list(_STARTS))
def test_integrate_beyond_the_float_range_raises_non_finite(start):
    message = "^the RK4 step from t=0 left the float range [(]OverflowError[)]$"
    # within the step budget, but (omega t)^2 overflows on the first step
    with pytest.raises(NonFinite, match=message):
        dynamics.integrate(start_state(start, p=0.5), 1e294, 1e300)
    # a tiny width spreads so fast that (omega t)^2 overflows on the first step:
    # by scale covariance this is the t_max = 1e300 run at sigma = 1
    with pytest.raises(NonFinite, match=message):
        dynamics.integrate(start_state(start, sigma=1e-150), 0.01, 0.1)


@pytest.mark.parametrize("r0", [5.0, 2e4])
def test_tiny_frozen_width_is_the_classical_collision(r0):
    # at sigma = 1e-150 every exchange term is exp(-d^2/4 sigma^2) = 0 and
    # the direct Coulomb term is 1/d: all spins return at t_classical.  From
    # r0 = 2e4 on d^2/4 sigma^2 overflows; p / sqrt(r0/5) keeps the orbit's
    # shape, so the derived step t_free/400 resolves d_min as well at both r0
    grid = [p / math.sqrt(r0 / 5.0) for p in (0.2, 0.6, 1.0)]
    sweeps = [
        dynamics.sweep_traveltime(
            make_config(sigma=1e-150, d0=2.0 * r0, symmetry=sym, frozen=True), grid)
        for sym in ExchangeSymmetry
    ]
    assert sweeps[0] == sweeps[1] == sweeps[2]
    for rec in sweeps[0]:
        assert rec.error is None and rec.regime is dynamics.Regime.CLASSICAL_LIKE
        assert abs(rec.t_coherent / rec.t_classical - 1.0) < 1e-5


def test_sweep_huge_horizon_is_an_error_record():
    records = dynamics.sweep_traveltime(make_config(p=0.5), [0.5], horizon_factor=1e300)
    assert records[0].t_coherent is None and records[0].regime is None
    assert "budget" in records[0].error
